"""Deterministic seeded load generator for the serving engine.

Drives N sessions of frame traffic over the channel-zoo factories
(:mod:`repro.channels.factories`) with the same spawn discipline as the
Monte-Carlo engines: per-frame ``(bits, noise)`` generators are spawned in
frame order from a per-session master generator, so every frame's content is
a pure function of ``(seed, session, seq)`` — independent of queue depth,
batching, serving order, or how often backpressure forced a retry.  That is
the property the serving determinism tests lean on: the *traffic* never
changes, so any output difference would have to come from the engine.

Building blocks:

* :class:`SteadyChannel` / :class:`SteppedChannel` — per-frame channel
  builders over plain picklable factories (``SteppedChannel`` switches
  factories at a frame index: the paper's "channel suddenly changes,
  monitor fires, retrain" scenario);
* :func:`generate_traffic` — one session's frame list;
* :func:`build_fleet` — register N uniform sessions on an engine (shared
  centroid set ⇒ cross-session batching);
* :class:`AnnRetrainPolicy` — the paper's full RETRAIN → EXTRACT step as a
  background-worker job;
* :func:`run_load` — submit with backpressure-aware retries and serve
  until drained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.autoencoder.system import AESystem
from repro.autoencoder.training import ReceiverFinetuner, TrainingConfig
from repro.channels.base import Channel
from repro.extraction.hybrid import HybridDemapper
from repro.extraction.monitor import DegradationMonitor
from repro.link.frames import build_frame
from repro.modulation.bits import bits_to_indices, random_bits
from repro.modulation.constellations import Constellation
from repro.serving.coding import CodedFrameConfig, coded_layout
from repro.serving.engine import ServingEngine
from repro.serving.faults import FaultPlan
from repro.serving.session import QUARANTINED, DemapperSession, ServingFrame, SessionConfig
from repro.serving.telemetry import EngineStats
from repro.utils.rng import as_generator

__all__ = [
    "SteadyChannel",
    "SteppedChannel",
    "AnnRetrainPolicy",
    "generate_traffic",
    "build_fleet",
    "run_load",
    "SessionPlan",
    "run_churn_load",
    "MigrationPlan",
    "run_fleet_load",
]


@dataclass(frozen=True)
class SteadyChannel:
    """Frame-channel builder that applies one factory to every frame."""

    factory: Callable[[np.random.Generator], Channel]

    def __call__(self, rng: np.random.Generator, seq: int) -> Channel:
        return self.factory(rng)


@dataclass(frozen=True)
class SteppedChannel:
    """Channel that switches factory at ``step_seq`` (a sudden impairment).

    Frames with ``seq < step_seq`` use ``before``, the rest ``after`` —
    e.g. AWGN that acquires a π/4 phase offset mid-run, the Table 1
    adaptation scenario as live traffic.
    """

    before: Callable[[np.random.Generator], Channel]
    after: Callable[[np.random.Generator], Channel]
    step_seq: int

    def __call__(self, rng: np.random.Generator, seq: int) -> Channel:
        return (self.before if seq < self.step_seq else self.after)(rng)


def generate_traffic(
    constellation: Constellation,
    frame_config,
    n_frames: int,
    channel,
    rng: np.random.Generator | int | None,
    *,
    start_seq: int = 0,
    coded: CodedFrameConfig | None = None,
) -> list[ServingFrame]:
    """Build one session's deterministic frame sequence.

    ``channel`` is a ``(rng, seq) -> Channel`` builder (wrap a plain factory
    in :class:`SteadyChannel`).  Two generators are spawned per frame in seq
    order — identical streams whether or not earlier frames were ever
    served, so traffic content never depends on engine behaviour.

    With a ``coded`` config the payload symbols carry an interleaved,
    CRC-protected convolutional codeword instead of uniform random labels:
    per frame, random information bits are drawn (from the same per-frame
    bits generator, after the frame build — the spawn discipline is
    untouched), encoded through the shared
    :class:`~repro.serving.coding.CodedLayout`, and mapped onto the payload
    positions symbol-major/bit-minor.  Pilot symbols keep their
    frame-builder labels.  The transmitted information bits ride along in
    ``ServingFrame.info_bits`` for post-FEC BER telemetry.  Pass the same
    config on the sessions' :class:`~repro.serving.session.SessionConfig`
    so the engine decodes what was encoded.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    rng = as_generator(rng)
    k = constellation.bits_per_symbol
    frames: list[ServingFrame] = []
    for seq in range(start_seq, start_seq + n_frames):
        bits_rng, noise_rng = rng.spawn(2)
        frame = build_frame(frame_config, constellation.order, bits_rng)
        indices = frame.indices
        info = None
        if coded is not None:
            payload_mask = ~frame.pilot_mask
            layout = coded_layout(coded, int(payload_mask.sum()) * k)
            info = random_bits(bits_rng, layout.n_info)
            payload = layout.encode(info)
            indices = indices.copy()
            indices[payload_mask] = bits_to_indices(payload.reshape(-1, k))
        ch = channel(noise_rng, seq)
        received = ch.forward(constellation.points[indices])
        frames.append(
            ServingFrame(
                seq=seq,
                indices=indices,
                pilot_mask=frame.pilot_mask,
                received=received,
                info_bits=info,
            )
        )
    return frames


@dataclass
class AnnRetrainPolicy:
    """The paper's RETRAIN → EXTRACT step as a background-worker job.

    Owns this session's demapper ANN (an :class:`AESystem` — sessions must
    not share one, retraining mutates it) and the live-channel factory to
    train against.  Called with the job generator minted at trigger time;
    returns the freshly extracted :class:`HybridDemapper` the worker swaps
    in.  Deterministic: same generator ⇒ same retrained weights ⇒ same
    centroids, regardless of which worker thread runs it.
    """

    system: AESystem
    channel_factory: Callable[[np.random.Generator], Channel]
    sigma2: float
    constellation: Constellation  #: frozen transmit set (extraction fallback)
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(steps=600, batch_size=512, lr=2e-3)
    )
    extraction_method: str = "lsq"
    extraction_extent: float = 1.5
    extraction_resolution: int = 192

    def __call__(self, rng: np.random.Generator) -> HybridDemapper:
        channel = self.channel_factory(rng)
        ReceiverFinetuner(
            self.system, self.training, constellation=self.constellation
        ).run(channel, rng)
        return HybridDemapper.extract(
            self.system.demapper,
            self.sigma2,
            extent=self.extraction_extent,
            resolution=self.extraction_resolution,
            method=self.extraction_method,
            fallback=self.constellation,
        )


def build_fleet(
    engine: ServingEngine,
    n_sessions: int,
    hybrid: HybridDemapper,
    *,
    monitor_factory: Callable[[], DegradationMonitor],
    config: SessionConfig | None = None,
    config_factory: Callable[[int], SessionConfig] | None = None,
    retrain_factory: Callable[[int], Callable | None] | None = None,
    fault_plan: FaultPlan | None = None,
    seed: int = 0,
    prefix: str = "s",
) -> list[DemapperSession]:
    """Register ``n_sessions`` uniform sessions sharing one centroid set.

    Every session's frames coalesce into the same multi-sigma launches
    (one labelling and frame length), also after some of them track or
    retrain onto their own centroids.  Each session gets its own monitor
    (``monitor_factory()``), its own spawned retrain generator, and —
    optionally — its own retrain policy via ``retrain_factory(i)``.

    ``config_factory(i)`` builds a per-session config (heterogeneous QoS
    weights, σ²-loop and tracking knobs); it overrides ``config``, which
    applies one config to the whole fleet.

    ``fault_plan`` wraps every session's retrain policy with the plan's
    seeded injection (:meth:`~repro.serving.faults.FaultPlan.wrap_retrain`)
    — the chaos-soak hook.  Traffic poisoning is separate (corrupt the
    frame lists with :meth:`~repro.serving.faults.FaultPlan.corrupt_traffic`
    before submitting them).
    """
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    master = np.random.default_rng(seed)
    sessions = []
    for i in range(n_sessions):
        (session_rng,) = master.spawn(1)
        retrain = retrain_factory(i) if retrain_factory is not None else None
        if fault_plan is not None:
            retrain = fault_plan.wrap_retrain(f"{prefix}{i:03d}", retrain)
        session_config = config_factory(i) if config_factory is not None else config
        sessions.append(
            engine.add_session(
                DemapperSession(
                    f"{prefix}{i:03d}",
                    hybrid,
                    monitor_factory(),
                    config=session_config,
                    retrain=retrain,
                    rng=session_rng,
                )
            )
        )
    return sessions


def _drive(
    server,
    *,
    produce,
    complete,
    idle_ok,
    max_rounds: int | None,
    label: str,
    wait_timeout: float | None = None,
    tracer=None,
) -> None:
    """The one serve/stall pump shared by every load driver.

    ``server`` is a :class:`ServingEngine` or a
    :class:`~repro.serving.fleet.FleetFrontEnd` — anything with ``step``,
    ``sessions``, ``pending_retrains``, ``scheduled_retries`` and
    ``wait_retrains``.  Per round: ``produce(round_index)`` feeds the
    server (submissions, joins, removals, migrations), one round runs,
    then, in order: *completion* (``complete()`` true and no retrain in
    flight or backed off awaiting its retry — checked before the guard, so
    a run finishing exactly on ``max_rounds`` returns instead of raising),
    the ``max_rounds`` safety bound (:class:`RuntimeError` — the same
    semantics as ``ServingEngine.drain``), and progress/stall
    classification: a served frame, an in-flight retrain (blocked on, not
    spun on), a scheduled retry (idled on until its round), a ready
    session accruing fractional scheduler credit, or a producer-side
    reason to idle (``idle_ok()`` — e.g. a join, leave or migration still
    scheduled) all count as progress; anything else is a stall and
    raises.  Waiting out scheduled retries is what makes the failure
    ledger a run leaves independent of how many rounds its traffic took
    (a weight-4 session finishes its frames in a quarter of the rounds).
    Keeping this state machine in one place is what keeps the drivers'
    ``max_rounds``/stall semantics identical by construction.

    ``wait_timeout`` (seconds) bounds each blocking wait for in-flight
    retrains (same semantics as ``ServingEngine.drain(timeout=)``): a job
    unfinished at expiry is abandoned and surfaces as a hung failure on the
    next round — a hung retrain slows the driver down but never wedges it.
    A ``tracer`` (an engine's own) records each such wait as
    ``driver.wait-retrains``.
    """
    rounds = 0
    while True:
        produce(rounds)
        served = server.step()
        rounds += 1
        if (
            complete()
            and not server.pending_retrains()
            and not server.scheduled_retries()
        ):
            return
        if max_rounds is not None and rounds >= max_rounds:
            raise RuntimeError(
                f"{label} did not complete within max_rounds={max_rounds}"
            )
        if served:
            continue
        if server.pending_retrains():
            if tracer is not None:
                tracer.emit(
                    "driver.wait-retrains",
                    ts=server.telemetry.now,
                    round=server.telemetry.rounds,
                    pending=server.pending_retrains(),
                )
            server.wait_retrains(wait_timeout)
            continue
        if server.scheduled_retries():
            continue
        if any(s.ready for s in server.sessions):
            # a zero-served round while a fractional-weight session accrues
            # scheduler credit is still progress — keep pumping rounds
            continue
        if idle_ok():
            continue
        # Nothing served, nothing in flight, nothing scheduled: a session is
        # stuck outside SERVING with no job to wait for — fail loudly.
        raise RuntimeError(f"{label} stalled: frames pending but nothing servable")


def _traffic_producer(server, traffic: Mapping[str, Sequence[ServingFrame]]):
    """``(produce, complete)`` feeding per-session frame lists to ``server``.

    ``produce`` submits as many frames per session as its bounded queue
    accepts (rejected submissions are retried next round); ``complete``
    is true once every list is fully submitted — or its session is fenced
    off (quarantined, or gone from the registry), which abandons the rest
    — and no queue holds a frame.
    """
    offsets = {sid: 0 for sid in traffic}

    def fenced(sid):
        return (
            not server.has_session(sid)
            or server.session(sid).health == QUARANTINED
        )

    def produce(_round):
        for sid, frames in traffic.items():
            if fenced(sid):
                continue
            o = offsets[sid]
            while o < len(frames) and server.submit(sid, frames[o]):
                o += 1
            offsets[sid] = o

    def complete():
        return all(
            offsets[sid] == len(traffic[sid]) or fenced(sid) for sid in traffic
        ) and not any(s.pending for s in server.sessions)

    return produce, complete


def run_load(
    engine: ServingEngine,
    traffic: Mapping[str, Sequence[ServingFrame]],
    *,
    max_rounds: int | None = None,
    wait_timeout: float | None = None,
) -> EngineStats:
    """Feed per-session traffic through the engine until fully drained.

    Each round submits as many frames per session as its bounded queue
    accepts (rejected submissions are retried next round — backpressure
    slows the producer, it never loses frames), then serves one engine
    round.  Returns the engine telemetry once every frame is served and no
    retrain is in flight or scheduled for retry.  ``max_rounds`` is a
    safety bound with the same semantics as ``ServingEngine.drain`` and
    :func:`run_churn_load`: a run that has not completed within it raises
    :class:`RuntimeError` instead of looping forever (completing *exactly
    on* the bound is fine);
    ``wait_timeout`` bounds each blocking wait for in-flight retrains.

    A session that gets **quarantined** mid-run (poison frame) stops
    accepting traffic permanently, so its producer abandons the remainder
    of its list — the run completes with that traffic unsubmitted rather
    than stalling on a fenced-off queue.  Same for a session that left the
    registry entirely.
    """
    produce, complete = _traffic_producer(engine, traffic)
    _drive(
        engine,
        produce=produce,
        complete=complete,
        idle_ok=lambda: False,
        max_rounds=max_rounds,
        label="load generator",
        wait_timeout=wait_timeout,
        tracer=engine.tracer,
    )
    return engine.telemetry


@dataclass(frozen=True)
class SessionPlan:
    """One session's lifecycle in a churn schedule.

    The session is built (not yet registered) and joins the engine at
    ``join_round``; its producer submits ``frames`` in order with
    backpressure-aware retries from then on.  A plan with a
    ``leave_round`` departs at that round: the producer stops submitting
    (frames not yet accepted are abandoned with the producer) and
    :meth:`~repro.serving.engine.ServingEngine.remove_session` is called
    with the plan's ``drain`` flag — graceful (every accepted frame is
    still served) or hard (queued frames dropped).  Plans without a
    ``leave_round`` stay resident and are served to completion.
    """

    session: DemapperSession
    frames: Sequence[ServingFrame]
    join_round: int = 0
    leave_round: int | None = None
    drain: bool = True

    def __post_init__(self) -> None:
        if self.join_round < 0:
            raise ValueError("join_round must be >= 0")
        if self.leave_round is not None and self.leave_round <= self.join_round:
            raise ValueError("leave_round must be > join_round")


@dataclass(frozen=True)
class MigrationPlan:
    """One scheduled live migration in a fleet run.

    At the start of ``round`` (before that round's submissions),
    :func:`run_fleet_load` moves ``session_id`` to ``dest_shard`` via
    :meth:`~repro.serving.fleet.FleetFrontEnd.migrate`.  A migration whose
    session has already left (or was quarantined and removed) is skipped —
    the schedule is advisory about sessions, strict about rounds.
    """

    session_id: str
    round: int
    dest_shard: int

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.dest_shard < 0:
            raise ValueError("dest_shard must be >= 0")


def run_fleet_load(
    fleet,
    traffic: Mapping[str, Sequence[ServingFrame]],
    *,
    migrations: Sequence[MigrationPlan] = (),
    max_rounds: int | None = None,
    wait_timeout: float | None = None,
) -> EngineStats:
    """Feed per-session traffic through a fleet until fully drained.

    The fleet sibling of :func:`run_load`: each round first applies every
    migration due this round (in ``(round, session_id)`` order — a total
    order, so the run is a pure function of the schedule), then submits as
    much traffic per session as backpressure allows, then serves one fleet
    round (all shards).  Returns the merged fleet-wide
    :class:`EngineStats` once every frame is served, no retrain is in
    flight or scheduled for retry on any shard, and no migration remains
    scheduled.  Sessions that get quarantined or leave mid-run abandon
    their remaining traffic, exactly as in :func:`run_load`.
    """
    due: dict[int, list[MigrationPlan]] = {}
    for plan in migrations:
        due.setdefault(plan.round, []).append(plan)
    for round_plans in due.values():
        round_plans.sort(key=lambda p: p.session_id)
    submit, complete = _traffic_producer(fleet, traffic)

    def produce(rounds):
        for plan in due.pop(rounds, ()):
            if fleet.has_session(plan.session_id):
                fleet.migrate(plan.session_id, plan.dest_shard)
        submit(rounds)

    _drive(
        fleet,
        produce=produce,
        complete=lambda: complete() and not due,
        idle_ok=lambda: bool(due),
        max_rounds=max_rounds,
        label="fleet load",
        wait_timeout=wait_timeout,
    )
    return fleet.stats()


def run_churn_load(
    engine: ServingEngine,
    plans: Sequence[SessionPlan],
    *,
    max_rounds: int | None = None,
    wait_timeout: float | None = None,
) -> EngineStats:
    """Drive a churn schedule: sessions arrive, stream, and depart under load.

    Each round, in order: due arrivals join the engine, live producers
    submit as much traffic as their bounded queues accept (rejected
    submissions are retried next round), due departures request removal
    (graceful or hard per the plan), then one engine round is served.
    Returns the engine telemetry once every plan has run its course —
    residents fully served, leavers fully removed — and no retrain is in
    flight or scheduled for retry.  ``max_rounds`` bounds the loop
    (RuntimeError beyond it).

    Determinism: traffic content is fixed by :func:`generate_traffic`
    before the run, and join/leave rounds are part of the schedule — so
    the whole run, churn included, is a pure function of the plans.  A
    resident plan whose session gets **quarantined** mid-run counts as
    settled with its remaining traffic abandoned (the producer has no live
    queue left to feed) — the fault analogue of a leaver.
    """
    offsets = [0] * len(plans)
    joined = [False] * len(plans)
    leave_requested = [False] * len(plans)

    def produce(rounds):
        for i, plan in enumerate(plans):
            if not joined[i] and rounds >= plan.join_round:
                engine.add_session(plan.session)
                joined[i] = True
            if not joined[i] or leave_requested[i]:
                continue
            if plan.leave_round is not None and rounds >= plan.leave_round:
                engine.remove_session(plan.session.session_id, drain=plan.drain)
                leave_requested[i] = True
                continue
            if plan.session.health == QUARANTINED:
                continue  # fenced off: every further submit is a refusal
            o = offsets[i]
            frames = plan.frames
            while o < len(frames) and engine.submit(plan.session.session_id, frames[o]):
                o += 1
            offsets[i] = o

    def settled(i, plan):
        # a leaver is settled only once its leave *happened* and it is out
        # of the registry — even if its traffic ran dry before leave_round,
        # the schedule says it departs at that round, so the loop idles
        # until then instead of returning with a phantom resident
        if plan.leave_round is not None:
            return leave_requested[i] and all(
                s.session_id != plan.session.session_id for s in engine.sessions
            )
        if joined[i] and plan.session.health == QUARANTINED:
            return True  # fenced off: remaining traffic is abandoned
        return (
            joined[i]
            and offsets[i] == len(plan.frames)
            and plan.session.pending == 0
        )

    def pending_schedule(i, plan):
        return not joined[i] or (plan.leave_round is not None and not leave_requested[i])

    _drive(
        engine,
        produce=produce,
        complete=lambda: all(settled(i, p) for i, p in enumerate(plans)),
        idle_ok=lambda: any(pending_schedule(i, p) for i, p in enumerate(plans)),
        max_rounds=max_rounds,
        label="churn load",
        wait_timeout=wait_timeout,
        tracer=engine.tracer,
    )
    return engine.telemetry
