"""Fault tolerance for the serving stack: supervision, quarantine, chaos.

The paper's hybrid demapper exists precisely so the receiver keeps
demapping with conventional/stale centroids while the ANN path adapts
(§II-C); this module makes the serving runtime honor that guarantee under
*failure*.  Three pieces:

**Session health** (:data:`HEALTHY` / :data:`DEGRADED` / :data:`QUARANTINED`,
re-exported from :mod:`repro.serving.session`).  Orthogonal to the
SERVING/RETRAINING state machine: a DEGRADED session keeps serving on its
last-good demapper with retrain triggers suppressed (the hybrid fallback —
stale centroids beat no centroids); a QUARANTINED session produced
non-finite LLRs and is fenced off entirely (no serving, no credit, no new
submissions) until an operator intervenes.

**:class:`RetrainSupervisor`** — the retry/backoff/circuit-breaker policy
the engine consults around every retrain job.  Time is measured in *engine
rounds* (the only clock the deterministic runtime has):

* a failed job is retried after an exponential backoff
  (``backoff_base · backoff_factor^(n-1)`` rounds after the *n*-th failure);
* an in-flight job older than ``deadline_rounds`` is declared hung,
  abandoned on the worker, and counted as a failure;
* after ``max_failures`` consecutive failures the breaker opens: the
  session is moved to DEGRADED and no further retrains are attempted.
  A successful install re-arms the breaker (failure count resets).

**:class:`FaultPlan`** — the seeded chaos-injection harness.  Wraps retrain
policies to inject exceptions and artificial hangs, and corrupts traffic
with poison (non-finite) samples.  Every injection decision is a pure
function of ``(seed, session_id, invocation index)`` — independent of
thread scheduling — so a fault storm is exactly reproducible, which is what
lets the chaos soak assert that *unaffected* sessions' timelines are
bit-identical to a fault-free run.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.serving.session import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    ServingFrame,
)

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "RetrainHungError",
    "InjectedRetrainError",
    "FailureRecord",
    "RetrainSupervisor",
    "FaultPlan",
]


class RetrainHungError(RuntimeError):
    """A retrain job exceeded its deadline (or was abandoned at a timeout)."""


class InjectedRetrainError(RuntimeError):
    """A retrain failure injected by a :class:`FaultPlan` (chaos harness)."""


@dataclass(frozen=True)
class FailureRecord:
    """One entry in the engine's failure log.

    ``kind`` is ``"error"`` (the job raised), ``"hung"`` (deadline expired
    or the job was abandoned at a timeout) or ``"poison"`` (a non-finite
    frame tripped the post-demap guard).  ``failures`` is the session's
    consecutive-failure count *including* this one; ``action`` is what the
    supervisor decided: ``"retry"`` (backoff scheduled), ``"degrade"``
    (breaker opened) or ``"quarantine"``.
    """

    round: int
    session_id: str
    kind: str
    error: str
    failures: int
    action: str

    def as_dict(self) -> dict:
        return asdict(self)


# Supervisor per-session states (internal, exposed via ``state()``).
_IDLE = "idle"
_IN_FLIGHT = "in_flight"
_BACKOFF = "backoff"
_OPEN = "open"


@dataclass
class _Supervision:
    """Per-session breaker bookkeeping (supervisor-internal)."""

    state: str = _IDLE
    failures: int = 0          # consecutive failures since the last install
    submitted_at: int = 0      # round of the in-flight job's submission
    retry_at: float = 0.0      # earliest round a backed-off retry may launch


class RetrainSupervisor:
    """Retry / deadline / circuit-breaker policy for retrain jobs.

    Pure state machine over engine rounds — no wall clocks, no randomness —
    so the supervised failure timeline is as deterministic as the traffic.
    The engine drives it::

        on_submitted(sid, now)      job handed to the worker
        on_installed(sid)           swap landed: breaker re-arms
        on_failure(sid, now, err)   job raised / hung: schedule retry
                                    or open the breaker -> FailureRecord
        due_retries(now)            sessions whose backoff has expired
        scheduled()                 backed-off retries still waiting
        overdue(now)                in-flight jobs past deadline_rounds
        allows(sid)                 may a *new* trigger start a retrain?

    Parameters
    ----------
    max_failures:
        Consecutive failures after which the breaker opens and the session
        is degraded (must be >= 1).
    backoff_base:
        Backoff after the first failure, in engine rounds.  0 retries on
        the very next round.
    backoff_factor:
        Exponential growth of the backoff per consecutive failure
        (``backoff_base · backoff_factor^(n-1)`` rounds after failure *n*).
    deadline_rounds:
        In-flight job age (rounds since submission) after which the job is
        declared hung.  ``None`` disables hung detection — a job may take
        arbitrarily long, the pre-supervision behaviour.
    """

    def __init__(
        self,
        *,
        max_failures: int = 3,
        backoff_base: int = 1,
        backoff_factor: float = 2.0,
        deadline_rounds: int | None = None,
    ):
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if not backoff_factor >= 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if deadline_rounds is not None and deadline_rounds < 1:
            raise ValueError("deadline_rounds must be >= 1 (or None)")
        self.max_failures = int(max_failures)
        self.backoff_base = int(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.deadline_rounds = None if deadline_rounds is None else int(deadline_rounds)
        self._sessions: dict[str, _Supervision] = {}

    # -- engine hooks --------------------------------------------------------
    def allows(self, session_id: str) -> bool:
        """May a *fresh* monitor trigger start a retrain for this session?

        False while a job is in flight (the session is already retraining),
        while a retry is backed off (the supervisor owns the retrain path —
        a trigger must not jump the backoff queue), and once the breaker is
        open (the session is degraded; triggers are suppressed).
        """
        sup = self._sessions.get(session_id)
        return sup is None or sup.state == _IDLE

    def on_submitted(self, session_id: str, now: int) -> None:
        """A retrain job for this session was handed to the worker."""
        sup = self._sessions.setdefault(session_id, _Supervision())
        sup.state = _IN_FLIGHT
        sup.submitted_at = int(now)

    def on_installed(self, session_id: str) -> None:
        """A retrained demapper landed: the breaker re-arms from zero."""
        sup = self._sessions.get(session_id)
        if sup is not None:
            sup.state = _IDLE
            sup.failures = 0

    def on_failure(
        self, session_id: str, now: int, error: BaseException, *, kind: str = "error"
    ) -> FailureRecord:
        """A job failed (raised or hung); decide retry vs. degrade.

        Returns the :class:`FailureRecord` for the engine's failure log;
        ``record.action`` tells the engine what to do (``"retry"`` —
        nothing, a backed-off retry is scheduled; ``"degrade"`` — move the
        session to DEGRADED).
        """
        sup = self._sessions.setdefault(session_id, _Supervision())
        sup.failures += 1
        if sup.failures >= self.max_failures:
            sup.state = _OPEN
            action = "degrade"
        else:
            sup.state = _BACKOFF
            sup.retry_at = now + self.backoff(sup.failures)
            action = "retry"
        return FailureRecord(
            round=int(now),
            session_id=session_id,
            kind=kind,
            error=f"{type(error).__name__}: {error}",
            failures=sup.failures,
            action=action,
        )

    def backoff(self, n_failures: int) -> float:
        """Backoff in rounds after the ``n_failures``-th consecutive failure."""
        if n_failures < 1:
            raise ValueError("n_failures must be >= 1")
        return self.backoff_base * self.backoff_factor ** (n_failures - 1)

    def due_retries(self, now: int) -> list[str]:
        """Backed-off sessions whose retry may launch at round ``now``.

        Sorted by session id — the engine iterates this directly, so the
        retry launch order must not depend on dict insertion history.
        """
        return sorted(
            sid
            for sid, sup in self._sessions.items()
            if sup.state == _BACKOFF and now >= sup.retry_at
        )

    def scheduled(self) -> int:
        """Backed-off retries not yet launched — work a driver must wait
        for, round by round, before it may call a run complete."""
        return sum(1 for sup in self._sessions.values() if sup.state == _BACKOFF)

    def overdue(self, now: int) -> list[str]:
        """In-flight jobs older than ``deadline_rounds`` (sorted; [] if off)."""
        if self.deadline_rounds is None:
            return []
        return sorted(
            sid
            for sid, sup in self._sessions.items()
            if sup.state == _IN_FLIGHT and now - sup.submitted_at >= self.deadline_rounds
        )

    def forget(self, session_id: str) -> None:
        """Drop a session's supervision (removal/quarantine hook)."""
        self._sessions.pop(session_id, None)

    # -- migration -----------------------------------------------------------
    def export(self, session_id: str, *, now: int) -> dict | None:
        """Pack a session's supervision for migration (None if untracked).

        Round clocks differ per shard, so the absolute ``submitted_at`` /
        ``retry_at`` rounds are rebased to *relative* ages/delays
        (``job_age`` rounds since submission, ``retry_in`` rounds until the
        retry is due) that :meth:`adopt` re-anchors on the destination's
        clock — the breaker state, failure count, remaining backoff and
        hung-deadline progress all travel intact.
        """
        sup = self._sessions.get(session_id)
        if sup is None:
            return None
        return {
            "state": sup.state,
            "failures": sup.failures,
            "job_age": int(now) - sup.submitted_at,
            "retry_in": sup.retry_at - int(now),
        }

    def adopt(self, session_id: str, exported: dict, *, now: int) -> None:
        """Re-anchor supervision exported from another shard at round ``now``."""
        self._sessions[session_id] = _Supervision(
            state=exported["state"],
            failures=exported["failures"],
            submitted_at=int(now) - exported["job_age"],
            retry_at=int(now) + exported["retry_in"],
        )

    # -- telemetry -----------------------------------------------------------
    def state(self, session_id: str) -> str:
        """Supervision state: ``idle`` / ``in_flight`` / ``backoff`` / ``open``."""
        sup = self._sessions.get(session_id)
        return _IDLE if sup is None else sup.state

    def failures(self, session_id: str) -> int:
        """Consecutive failures since the session's last successful install."""
        sup = self._sessions.get(session_id)
        return 0 if sup is None else sup.failures

    def snapshot(self) -> dict:
        """Plain-dict copy of every supervised session (telemetry/JSON)."""
        return {
            sid: {"state": sup.state, "failures": sup.failures}
            for sid, sup in sorted(self._sessions.items())
        }

    def register_metrics(
        self,
        registry,
        *,
        labels: dict | None = None,
        prefix: str = "serving_supervisor_",
    ) -> None:
        """Expose per-state supervised-session counts as live gauges.

        One ``<prefix>sessions{state=...}`` gauge per supervision state —
        the circuit-breaker population at a glance (``open`` = breakers
        tripped, ``backoff`` = retries scheduled).  Extra ``labels`` (e.g.
        a fleet shard id) are merged into each gauge's label set.
        """
        base = dict(labels or {})
        for st in (_IDLE, _IN_FLIGHT, _BACKOFF, _OPEN):
            registry.gauge(
                prefix + "sessions",
                {**base, "state": st},
                fn=lambda s=st: sum(
                    1 for sup in self._sessions.values() if sup.state == s
                ),
            )


class _FaultyRetrain:
    """A retrain policy wrapped with seeded fault injection (plan-internal)."""

    def __init__(self, plan: "FaultPlan", session_id: str, inner: Callable):
        self._plan = plan
        self.session_id = session_id
        self.inner = inner

    def __call__(self, rng: np.random.Generator):
        plan = self._plan
        k = plan._next_invocation(self.session_id)
        mode = plan._decide_retrain(self.session_id, k)
        if mode == "fail":
            plan._count("fail")
            raise InjectedRetrainError(
                f"injected retrain failure for {self.session_id!r} (invocation {k})"
            )
        if mode == "hang":
            plan._count("hang")
            released = plan._hang(timeout=plan.hang_timeout)
            why = "released" if released else f"timed out after {plan.hang_timeout}s"
            raise RetrainHungError(
                f"injected retrain hang for {self.session_id!r} "
                f"(invocation {k}, {why})"
            )
        return self.inner(rng)


@dataclass
class FaultPlan:
    """Seeded chaos: inject retrain failures, hangs, and poison frames.

    Injection decisions are a pure function of ``(seed, session id,
    invocation/frame index)`` — keyed through ``zlib.crc32`` into a
    dedicated ``np.random.default_rng`` per decision — so the same plan
    replays the same fault storm regardless of thread scheduling, worker
    count, or batch width.  That reproducibility is load-bearing: the chaos
    soak asserts fault-free sessions are bit-identical to a no-fault run,
    which only means something if the faults themselves are pinned.

    ``fail_sessions`` / ``hang_sessions`` unconditionally fail/hang every
    retrain of the named sessions (targeted injection for examples/tests);
    the ``*_rate`` knobs inject probabilistically everywhere else.

    Hangs: with ``blocking_hangs=True`` the job genuinely blocks on an
    event (a stuck thread, the real failure mode — release it with
    :meth:`release_hangs`, or it self-reports as hung after
    ``hang_timeout`` seconds so a test can never wedge); with ``False`` it
    raises :class:`RetrainHungError` immediately (the inline-worker mode,
    where a blocking job would block the engine thread itself).
    """

    seed: int = 0
    fail_rate: float = 0.0
    hang_rate: float = 0.0
    poison_rate: float = 0.0
    fail_sessions: tuple[str, ...] = ()
    hang_sessions: tuple[str, ...] = ()
    poison_sessions: tuple[str, ...] | None = None
    blocking_hangs: bool = True
    hang_timeout: float = 30.0
    injected: dict = field(default_factory=lambda: {"fail": 0, "hang": 0, "poison": 0})

    def __post_init__(self) -> None:
        for name in ("fail_rate", "hang_rate", "poison_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.fail_rate + self.hang_rate > 1.0:
            raise ValueError("fail_rate + hang_rate must be <= 1")
        self.fail_sessions = tuple(self.fail_sessions)
        self.hang_sessions = tuple(self.hang_sessions)
        if self.poison_sessions is not None:
            self.poison_sessions = tuple(self.poison_sessions)
        self._lock = threading.Lock()
        self._invocations: dict[str, int] = {}
        self._hang_events: list[threading.Event] = []

    # -- seeded decisions ----------------------------------------------------
    def _rng(self, session_id: str, stream: str, index: int) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed, zlib.crc32(session_id.encode()), zlib.crc32(stream.encode()), index]
        )

    def _next_invocation(self, session_id: str) -> int:
        with self._lock:
            k = self._invocations.get(session_id, 0)
            self._invocations[session_id] = k + 1
            return k

    def _decide_retrain(self, session_id: str, invocation: int) -> str:
        if session_id in self.fail_sessions:
            return "fail"
        if session_id in self.hang_sessions:
            return "hang"
        if self.fail_rate == 0.0 and self.hang_rate == 0.0:
            return "run"
        u = float(self._rng(session_id, "retrain", invocation).random())
        if u < self.fail_rate:
            return "fail"
        if u < self.fail_rate + self.hang_rate:
            return "hang"
        return "run"

    def _count(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] += 1

    def _hang(self, *, timeout: float) -> bool:
        """Block (or not) one injected hang; True if released by the plan."""
        event = threading.Event()
        with self._lock:
            self._hang_events.append(event)
        if not self.blocking_hangs:
            return False
        return event.wait(timeout)

    # -- harness surface -----------------------------------------------------
    def wrap_retrain(self, session_id: str, policy: Callable | None) -> Callable | None:
        """Wrap one session's retrain policy with seeded injection.

        The wrapper decides fail / hang / run per invocation (in trigger
        order — the only order retrains of one session can run in) and only
        on "run" calls through to the inner policy.  ``None`` stays None
        (no retrain tier to fault).
        """
        if policy is None:
            return None
        return _FaultyRetrain(self, session_id, policy)

    def poisons(self, session_id: str, seq: int) -> bool:
        """Seeded per-frame poison decision (pure, safe to call repeatedly)."""
        if self.poison_rate <= 0.0:
            return False
        if self.poison_sessions is not None and session_id not in self.poison_sessions:
            return False
        return float(self._rng(session_id, "poison", seq).random()) < self.poison_rate

    def corrupt(self, session_id: str, frame: ServingFrame) -> ServingFrame:
        """Return the frame, poisoned iff the seeded decision says so.

        Poisoning replaces one received sample (seeded position) with NaN —
        the minimal corruption that must still fence the whole frame and
        session off from the σ²/BER state.
        """
        if not self.poisons(session_id, frame.seq):
            return frame
        self._count("poison")
        received = np.array(frame.received, copy=True)
        pos = int(self._rng(session_id, "poison-pos", frame.seq).integers(received.size))
        received[pos] = complex(float("nan"), float("nan"))
        return ServingFrame(
            seq=frame.seq,
            indices=frame.indices,
            pilot_mask=frame.pilot_mask,
            received=received,
            info_bits=frame.info_bits,
        )

    def corrupt_traffic(
        self, session_id: str, frames: Iterable[ServingFrame]
    ) -> list[ServingFrame]:
        """Apply :meth:`corrupt` across a session's traffic list."""
        return [self.corrupt(session_id, f) for f in frames]

    def release_hangs(self) -> int:
        """Unblock every injected blocking hang (they raise and finish).

        Call from test teardown so abandoned hang threads die instead of
        keeping the pool (and interpreter exit) waiting; returns the number
        of events released.
        """
        with self._lock:
            events, self._hang_events = self._hang_events, []
        for event in events:
            event.set()
        return len(events)
