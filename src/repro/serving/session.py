"""Per-session receiver state machines behind the serving engine.

Each live stream ("session") owns exactly what the paper's receiver owns:
a :class:`~repro.extraction.hybrid.HybridDemapper` (the cheap centroid
demapper serving traffic), a
:class:`~repro.extraction.monitor.DegradationMonitor` watching pilot BER,
its frame/pilot geometry, and its own σ² estimate.  The engine pulls frames
from the session's *bounded* queue — a full queue pushes back on the
producer instead of growing without bound — and coalesces frames across
sessions into micro-batches.

The control plane adds three per-session behaviours, all off by default:

* **in-loop σ² tracking** (``sigma2_alpha > 0``): each served frame's
  pilot-residual noise estimate (:func:`repro.link.estimation.
  estimate_noise_sigma2`) is EWMA-folded into the session's σ², so LLR
  scaling follows a drifting SNR without touching the demapper;
* **tiered adaptation** (``tracking=True``): a monitor trigger is first
  answered by the cheap rigid tier (:class:`~repro.extraction.tracking.
  CentroidTracker` — the same update as ``AdaptiveReceiver(tracking=True)``),
  escalating to retrain+re-extract only when the tracker reports a
  non-rigid warp or degradation persists past the
  :class:`~repro.extraction.monitor.AdaptationLadder`'s track budget;
* **QoS weight** (``weight``): the session's share in the engine's
  deficit-round-robin scheduler (:mod:`repro.serving.scheduler`).

State machine::

    SERVING ──monitor fires──▶ RETRAINING ──swap installed──▶ SERVING
       └──────── tracking tier: rigid update, stays SERVING ──────┘

While RETRAINING the session's frames stay queued (they are *not* demapped
by the stale centroids), so every frame after a trigger deterministically
sees the retrained demapper — that is what makes the per-session output
timeline independent of how fast the background worker happens to run.
Other sessions keep being served in the meantime; nothing stalls globally.
A tracking-tier response swaps the rigidly-updated centroids in place on
the engine thread — the session never leaves SERVING and the very next
frame sees the tracked centroids.

**Churn.**  Orthogonal to the serving state, a session can be *draining*
(``ServingEngine.remove_session(sid, drain=True)``): it keeps being served
— every frame already accepted will leave through the demapper, never be
dropped — but :meth:`submit` refuses new traffic (counted in
``stats.drain_refusals``; unlike backpressure rejects, retrying is futile)
and monitor triggers no longer escalate to retraining (a full retrain for
a leaving session is wasted work; the cheap tracking tier still applies).
Once its queue is empty and no retrain is in flight, the engine deletes it
from the registry.  ``remove_session(sid, drain=False)`` is the hard path:
queued frames are discarded (:meth:`discard_queue`) and an in-flight
retrain is orphaned on the worker.

**Adaptive weight.**  ``session.weight`` is the *live* deficit-round-robin
share the scheduler reads; it starts at ``config.weight`` (the static QoS
contract) and is steered at runtime by the engine's
:class:`~repro.serving.weights.WeightController` via :meth:`set_weight`
(changes land in ``stats.weight_timeline``).  Weights change *when* frames
are served, never *what* they contain — per-session output timelines stay
weight-invariant.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.extraction.hybrid import HybridDemapper
from repro.extraction.monitor import (
    TIER_RETRAIN,
    TIER_TRACK,
    AdaptationLadder,
    DegradationMonitor,
)
from repro.extraction.tracking import CentroidTracker
from repro.link.frames import FrameConfig
from repro.serving.coding import CodedFrameConfig
from repro.serving.telemetry import SessionStats
from repro.utils.rng import as_generator

__all__ = [
    "SERVING",
    "RETRAINING",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "SessionConfig",
    "ServingFrame",
    "DemapperSession",
]

#: Session states (plain strings — cheap to compare, obvious in telemetry).
SERVING = "serving"
RETRAINING = "retraining"

#: Session *health*, orthogonal to the serving state machine.  HEALTHY is
#: the full control plane; DEGRADED keeps serving on the last-good demapper
#: with retrain triggers suppressed (the circuit breaker opened — the
#: paper's hybrid fallback: stale centroids beat no centroids); QUARANTINED
#: is fenced off entirely (produced non-finite LLRs — no serving, no
#: scheduler credit, no new submissions).
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"

#: Floor for in-loop σ² updates: a zero-noise pilot block must not poison
#: the estimate with an (invalid) non-positive variance.
_SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class SessionConfig:
    """Per-session serving tunables.

    ``queue_depth`` bounds the frame queue (backpressure: ``submit`` returns
    False when full); ``frame`` records the session's pilot/payload geometry
    for producers that build traffic from it.

    Control-plane knobs (all default to the PR-3 behaviour):

    ``weight``
        QoS share in the engine's deficit-round-robin scheduler.  A
        weight-3 session may pull up to 3 frames per round from a deep
        queue; a weight-0.5 session serves every other round.  Floor 0.01
        (one frame per 100 rounds at quantum 1): a backlogged session must
        make progress on a timescale the engine's drain loop can live with.
    ``sigma2_alpha``
        EWMA weight of the in-loop pilot noise estimate
        (``σ² ← (1-α)·σ² + α·σ̂²`` per served frame).  0 disables in-loop
        σ² tracking.
    ``tracking``
        Enable the tiered adaptation ladder: monitor triggers are answered
        with a rigid centroid update first, retraining only on escalation.
    ``track_attempts``
        Consecutive tracking responses allowed before a persisting
        degradation escalates to retrain (see
        :class:`~repro.extraction.monitor.AdaptationLadder`).
    ``track_residual``
        Residual threshold of the rigid fit (forwarded to
        :class:`~repro.extraction.tracking.CentroidTracker`): relative
        excess over the 2σ²N noise floor above which the impairment is
        declared non-rigid and the trigger escalates immediately.
    ``validate_frames``
        Opt-in finite check at :meth:`DemapperSession.submit`: a frame with
        a NaN/Inf received sample is refused at the door (counted in
        ``stats.poison_rejected``) instead of reaching the kernels.  Off by
        default — the check walks every sample, and the post-demap guard
        already quarantines anything that slips through.
    ``coded``
        Declare this session's payload symbols as coded traffic
        (:class:`~repro.serving.coding.CodedFrameConfig`): the engine
        routes each served frame's payload LLRs through deinterleave →
        soft Viterbi → CRC check, CRC failures feed a second degradation
        monitor alongside pilot BER, and per-session FER / post-FEC BER
        join the telemetry.  ``None`` (the default) serves uncoded.
    """

    frame: FrameConfig = FrameConfig()
    queue_depth: int = 8
    weight: float = 1.0
    sigma2_alpha: float = 0.0
    tracking: bool = False
    track_attempts: int = 1
    track_residual: float = 0.35
    validate_frames: bool = False
    coded: CodedFrameConfig | None = None

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not (math.isfinite(self.weight) and self.weight >= 0.01):
            raise ValueError("weight must be finite and >= 0.01")
        if not 0.0 <= self.sigma2_alpha <= 1.0:
            raise ValueError("sigma2_alpha must be in [0, 1]")
        if self.track_attempts < 0:
            raise ValueError("track_attempts must be >= 0")
        if self.track_residual <= 0:
            raise ValueError("track_residual must be positive")


@dataclass(frozen=True)
class ServingFrame:
    """One frame of traffic submitted to a session.

    ``indices`` are the transmitted symbol labels (known for pilots by
    design; known for payload only because this is a simulation — the engine
    uses payload truth solely for telemetry, never for demapping).

    ``info_bits`` carries the pre-encoding information bits of a *coded*
    frame (see :class:`~repro.serving.coding.CodedFrameConfig`), again
    simulation truth used only for post-FEC BER telemetry — the decoder
    works from LLRs and checks the CRC, never this field.  ``None`` for
    uncoded traffic.
    """

    seq: int
    indices: np.ndarray     # (n,) int symbol labels
    pilot_mask: np.ndarray  # (n,) bool, True where pilot
    received: np.ndarray    # (n,) complex received samples
    info_bits: np.ndarray | None = None  # coded traffic: transmitted info bits

    def __post_init__(self) -> None:
        n = np.asarray(self.received).size
        if np.asarray(self.indices).shape != (n,) or np.asarray(self.pilot_mask).shape != (n,):
            raise ValueError("indices, pilot_mask and received must be equal-length 1-D")

    @property
    def n_symbols(self) -> int:
        return int(np.asarray(self.received).size)


class DemapperSession:
    """One stream's receiver state: demapper + monitor + queue + σ² estimate.

    Parameters
    ----------
    session_id:
        Unique name within the engine.
    hybrid:
        The session's current centroid demapper.
    monitor:
        Degradation monitor fed with each frame's pilot BER.
    config:
        Queue/frame geometry and control-plane knobs (default
        :class:`SessionConfig`).
    retrain:
        Optional retrain policy ``rng -> HybridDemapper``: invoked on a
        background worker when the monitor fires; the returned demapper is
        atomically swapped in.  ``None`` means triggers are recorded but the
        session keeps serving with its current centroids (the tracking tier,
        if enabled, still applies).
    sigma2:
        The session's own noise-variance estimate (defaults to the hybrid's).
        Kept separate from the demapper so a σ² update never requires a
        swap, and so batched dispatch reads one per-session vector.
    rng:
        Seed/generator for the session's retrain jobs: one child generator is
        spawned per trigger, in trigger order, so the retrain outcome is a
        pure function of the seed and the trigger timeline — not of worker
        scheduling.
    """

    def __init__(
        self,
        session_id: str,
        hybrid: HybridDemapper,
        monitor: DegradationMonitor,
        *,
        config: SessionConfig | None = None,
        retrain: Callable[[np.random.Generator], HybridDemapper] | None = None,
        sigma2: float | None = None,
        rng: np.random.Generator | int | None = None,
    ):
        self.session_id = str(session_id)
        self.monitor = monitor
        self.config = config if config is not None else SessionConfig()
        self.retrain = retrain
        self.sigma2 = float(sigma2 if sigma2 is not None else hybrid.sigma2)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self._retrain_rng = as_generator(rng)
        self._hybrid = hybrid
        self._queue: deque[tuple[ServingFrame, int]] = deque()
        self._lock = threading.Lock()
        self.state = SERVING
        #: HEALTHY / DEGRADED / QUARANTINED — orthogonal to ``state`` (a
        #: DEGRADED session still cycles SERVING normally; a QUARANTINED one
        #: is fenced off).  Transitions go through :meth:`set_health`.
        self.health = HEALTHY
        #: set by the engine's graceful ``remove_session``: served, but
        #: accepting no new submissions and never escalating to retrain
        self.draining = False
        #: live deficit-round-robin share (starts at the ``config.weight``
        #: contract; steered by an engine-level ``WeightController``)
        self.weight = float(self.config.weight)
        self.stats = SessionStats()
        self.ladder = AdaptationLadder(track_attempts=self.config.track_attempts)
        #: CRC-failure monitor for coded sessions (None when uncoded): each
        #: decoded frame contributes 0/1 (pass/fail), windowed exactly like
        #: pilot BER, so payload integrity can fire the adaptation ladder
        #: even when pilots still look clean.
        coded = self.config.coded
        self.crc_monitor = (
            DegradationMonitor(
                coded.crc_fail_threshold,
                window=coded.crc_fail_window,
                cooldown=coded.crc_fail_cooldown,
            )
            if coded is not None
            else None
        )

    # -- demapper access / atomic swap --------------------------------------
    @property
    def hybrid(self) -> HybridDemapper:
        """The demapper currently serving this session's traffic."""
        return self._hybrid

    def install(self, hybrid: HybridDemapper) -> None:
        """Atomically swap in a (re)trained demapper and resume serving.

        Called by the swap worker; the lock orders it against a concurrent
        ``install``/``update_sigma2`` and the monitor reset is idempotent,
        so double-installation is safe (last writer wins).  A completed
        retrain also re-arms the adaptation ladder: the next degradation
        starts at the cheap tracking tier again.
        """
        with self._lock:
            self._hybrid = hybrid
            self.monitor.reset()
            if self.crc_monitor is not None:
                self.crc_monitor.reset()
            self.ladder.reset()
            self.state = SERVING
            self.stats.retrains += 1

    def update_sigma2(self, sigma2: float) -> None:
        """Replace the session's σ² estimate (no demapper swap needed)."""
        if sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        with self._lock:
            self.sigma2 = float(sigma2)

    def observe_sigma2(self, estimate: float) -> float:
        """EWMA-fold one pilot noise estimate into the session's σ².

        ``σ² ← (1-α)·σ² + α·max(σ̂², floor)`` with ``α =
        config.sigma2_alpha``; returns the updated value.  Called by the
        engine once per served frame, in frame order, so the σ² trajectory
        is a pure function of the session's own traffic — independent of
        batching, scheduling and worker count.  A no-op when α = 0.
        """
        alpha = self.config.sigma2_alpha
        if alpha <= 0.0:
            return self.sigma2
        estimate = max(float(estimate), _SIGMA2_FLOOR)
        with self._lock:
            self.sigma2 = (1.0 - alpha) * self.sigma2 + alpha * estimate
            return self.sigma2

    def observe_crc(self, crc_ok: bool) -> bool:
        """Feed one decoded frame's CRC verdict into the payload monitor.

        Contributes 0.0 (pass) or 1.0 (fail) to the session's CRC-failure
        :class:`~repro.extraction.monitor.DegradationMonitor`; returns True
        when the windowed failure rate fires — the payload-aware trigger
        the engine ORs with the pilot-BER trigger.  Called by the engine
        once per decoded frame, in frame order, so the trigger timeline is
        a pure function of the session's own traffic.  Always False for
        uncoded sessions.
        """
        if self.crc_monitor is None:
            return False
        return self.crc_monitor.observe(0.0 if crc_ok else 1.0)

    def set_weight(self, weight: float, *, now: int = 0) -> float:
        """Update the live scheduler weight; records the change in stats.

        Clamped to the same floor as ``SessionConfig.weight`` (0.01 — a
        backlogged session must make progress on a timescale the drain loop
        can live with).  ``now`` is the engine tick stamped into
        ``stats.weight_timeline``.  Returns the applied weight.
        """
        if not math.isfinite(weight):
            raise ValueError("weight must be finite")
        weight = max(float(weight), 0.01)
        if weight != self.weight:
            self.weight = weight
            self.stats.weight_timeline.append((int(now), weight))
        return self.weight

    # -- health --------------------------------------------------------------
    def set_health(self, health: str, *, now: int = 0) -> str:
        """Transition the session's health; records it in the timeline.

        ``now`` is the engine's simulated tick stamped into
        ``stats.health_timeline``.  Idempotent (re-setting the current
        health logs nothing).  Returns the applied health.
        """
        if health not in (HEALTHY, DEGRADED, QUARANTINED):
            raise ValueError(f"unknown health state {health!r}")
        if health != self.health:
            self.health = health
            self.stats.health_timeline.append((int(now), health))
        return self.health

    def resume_serving(self) -> None:
        """Return to SERVING *without* an install (the retrain failed/hung).

        The failure path of the atomic-swap contract: the last-good
        demapper keeps serving — the paper's hybrid fallback — and the
        monitor/ladder state is left exactly as the trigger left it, so a
        later successful retry still answers the same degradation event.
        """
        with self._lock:
            self.state = SERVING

    def quarantine(self, *, now: int = 0) -> int:
        """Fence the session off after a poison frame; returns frames lost.

        Called by the engine when this session's demap produced non-finite
        LLRs: the offending frame (already popped — the ``+ 1``) and every
        queued frame are counted into ``stats.frames_quarantined`` and the
        queue is cleared — none of them may reach the σ²/BER state.  The
        session stops serving (``ready`` is False for QUARANTINED) and
        refuses all new submissions.
        """
        with self._lock:
            lost = len(self._queue) + 1
            self._queue.clear()
            self.stats.frames_quarantined += lost
        self.set_health(QUARANTINED, now=now)
        return lost

    # -- tiered adaptation ----------------------------------------------------
    @property
    def can_retrain(self) -> bool:
        """True when a trigger may escalate to the retrain tier.

        Requires a retrain policy, a session that is sticking around — a
        draining session never retrains (the work would be thrown away with
        the session), it rides its current centroids out — and HEALTHY
        health: a DEGRADED session's circuit breaker opened (triggers are
        suppressed, it serves on its last-good demapper) and a QUARANTINED
        session is fenced off entirely.
        """
        return self.retrain is not None and not self.draining and self.health == HEALTHY

    def plan_adaptation(self) -> str | None:
        """Pick this trigger's tier: track, retrain, or nothing.

        Tracking first while the ladder has attempts left (always, when no
        retrain tier exists to escalate to); retrain when the budget is
        exhausted; None when neither tier is available (trigger recorded
        only — the PR-3 behaviour).
        """
        if self.config.tracking and (not self.can_retrain or self.ladder.wants_track()):
            return TIER_TRACK
        return TIER_RETRAIN if self.can_retrain else None

    def apply_track(self, frame: ServingFrame) -> bool:
        """Tracking-tier response: rigid centroid update from this frame's
        pilots, swapped in under the session lock.

        Returns the tracker's verdict — True if the rigid model explains
        the pilots at the session's *live* σ² (the updated centroids are
        installed either way; a rigid fit never hurts, and the caller
        escalates when it was insufficient).  The monitor is reset so the
        next window measures the tracked centroids — a tracking trigger
        must not consume the retrain cooldown.
        """
        mask = np.asarray(frame.pilot_mask, dtype=bool)
        tracker = CentroidTracker(
            self._hybrid, residual_threshold=self.config.track_residual
        )
        rigid_ok = tracker.update(
            np.asarray(frame.indices)[mask],
            np.asarray(frame.received)[mask],
            sigma2=self.sigma2,
        )
        with self._lock:
            self._hybrid = tracker.current
            self.monitor.reset()
            self.stats.tracks += 1
        self.ladder.note_track()
        return rigid_ok

    def note_healthy_window(self) -> None:
        """Engine-side report of a full monitor window below threshold.

        Re-arms the adaptation ladder: the last tracking response
        demonstrably worked, so the next degradation event gets the cheap
        tier again instead of escalating.
        """
        self.ladder.note_recovered()

    def begin_retrain(self) -> np.random.Generator:
        """Enter RETRAINING and mint the job's deterministic generator."""
        self.state = RETRAINING
        (job_rng,) = self._retrain_rng.spawn(1)
        return job_rng

    # -- frame queue ---------------------------------------------------------
    def submit(self, frame: ServingFrame, *, now: int = 0) -> bool:
        """Enqueue one frame; returns False (and counts a reject) when full.

        A draining session also returns False — it is leaving the engine
        and accepts no new traffic (counted in ``stats.drain_refusals``;
        unlike a backpressure reject, retrying cannot succeed — check
        ``session.draining`` instead of spinning).

        A quarantined session likewise returns False for every submission
        (counted in ``stats.quarantine_refusals``; final, like drain
        refusals — check ``session.health`` instead of retrying).  With
        ``config.validate_frames`` a frame containing a non-finite received
        sample is refused at the door (``stats.poison_rejected``) — it is
        never accepted, so it appears in no conservation ledger.

        ``now`` is the submission timestamp in engine simulated-clock ticks
        (the engine stamps it; direct callers may leave the default, which
        simply dates the frame from clock zero).
        """
        if self.health == QUARANTINED:
            self.stats.quarantine_refusals += 1
            return False
        if self.draining:
            self.stats.drain_refusals += 1
            return False
        if self.config.validate_frames and not np.isfinite(frame.received).all():
            self.stats.poison_rejected += 1
            return False
        if len(self._queue) >= self.config.queue_depth:
            self.stats.rejects += 1
            return False
        self._queue.append((frame, int(now)))
        return True

    def discard_queue(self) -> int:
        """Drop every queued frame (hard removal); returns the count dropped.

        The drops are recorded in ``stats.frames_dropped`` — the one place
        in the serving stack where an accepted frame is *not* eventually
        demapped, which is why the churn soak's conservation invariant is
        ``accepted == served + dropped + still-queued``.
        """
        dropped = len(self._queue)
        self._queue.clear()
        self.stats.frames_dropped += dropped
        return dropped

    def rebase_queue(self, delta: int) -> None:
        """Shift every queued frame's enqueue stamp by ``delta`` ticks.

        Live migration hands the session to an engine whose simulated
        symbol clock is unrelated to the source's; the importing engine
        shifts each stamp by (its now − source now) so the wait a frame
        has already accrued carries over instead of going negative (or
        ballooning) against the new clock.
        """
        if delta and self._queue:
            self._queue = deque((f, t + delta) for f, t in self._queue)

    @property
    def pending(self) -> int:
        """Frames waiting in the queue."""
        return len(self._queue)

    @property
    def ready(self) -> bool:
        """True when the engine may serve this session's head frame.

        A QUARANTINED session is never ready (its queue is cleared at
        quarantine time anyway — the guard makes the fence structural).
        """
        return self.state == SERVING and self.health != QUARANTINED and bool(self._queue)

    def pop(self) -> tuple[ServingFrame, int]:
        """Dequeue ``(head frame, enqueue tick)`` (caller checked ``ready``)."""
        return self._queue.popleft()

    # -- telemetry -----------------------------------------------------------
    def register_metrics(
        self,
        registry,
        *,
        labels: dict | None = None,
        prefix: str = "serving_session_",
    ) -> None:
        """Expose this session's stats plus live queue/weight/σ² gauges.

        Everything is labelled ``{"session": <id>}`` (extra ``labels``, e.g.
        a fleet shard id, are merged in); re-registering after churn (a
        reused id) rebinds the views to the new session object.
        """
        labels = {**(labels or {}), "session": self.session_id}
        self.stats.register_metrics(registry, labels=labels, prefix=prefix)
        registry.gauge(prefix + "queue_depth", labels, fn=lambda: self.pending)
        registry.gauge(prefix + "weight", labels, fn=lambda: self.weight)
        registry.gauge(prefix + "sigma2", labels, fn=lambda: self.sigma2)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DemapperSession({self.session_id!r}, state={self.state}, "
            f"pending={self.pending}, retrains={self.stats.retrains})"
        )
