"""The one sequential oracle for the serving determinism contract.

Every per-session output of the serving runtime — LLRs, CRC verdicts,
post-FEC BER, pilot BER, σ², triggers, tiers, health — is a pure function
of the session's own traffic, whatever the batch width, queue depth,
retrain workers, weights, churn, shards, placement, migration, observers
or faults elsewhere.  This module holds the builders the serving tests
share, the scenarios, the timeline extractor, the sequential oracle
(defined like ``perfbench/workloads.oracle_engine``, cached per scenario)
and :func:`check`, which serves one :class:`Draw` of the knobs through the
existing load drivers and compares it against the oracle.  The churn and
chaos soaks share :func:`churn_soak`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from repro.channels import sigma2_from_snr
from repro.channels.factories import (
    AWGNFactory,
    CompositeFactory,
    IQImbalanceFactory,
    PhaseOffsetFactory,
)
from repro.extraction import HybridDemapper
from repro.extraction.monitor import PilotBERMonitor
from repro.link.frames import FrameConfig
from repro.modulation import qam_constellation
from repro.serving import (
    DEGRADED,
    QUARANTINED,
    SERVING,
    CodedFrameConfig,
    DemapperSession,
    EngineConfig,
    FaultPlan,
    FleetFrontEnd,
    MetricsRegistry,
    MigrationPlan,
    RetrainSupervisor,
    RoundProfiler,
    ServingEngine,
    SessionConfig,
    SessionPlan,
    SteadyChannel,
    SteppedChannel,
    Tracer,
    generate_traffic,
    run_churn_load,
    run_fleet_load,
    run_load,
)

S10 = sigma2_from_snr(10.0, 4)
OFFSET = np.pi / 4
FC = FrameConfig(pilot_symbols=8, payload_symbols=24)
#: fast-firing CRC monitor, so the payload-aware trigger path is exercised
CODED = CodedFrameConfig(crc_fail_window=2, crc_fail_cooldown=2)
QAM16 = qam_constellation(16)
N_SESSIONS = 6
N_FRAMES = 8
WEIGHTS = (0.5, 1.0, 2.0, 3.0, 4.0)
FAULT_IDS = ("f-fail", "f-hang", "f-poison", "f-clean")
MAX_ROUNDS = 5000
SOAK_ROUNDS = 210


# -- builders -----------------------------------------------------------------
def constellation_groups(n: int) -> tuple:
    """``n`` centroid sets 0.03 rad apart — ``n`` affinity-placement keys."""
    return tuple(
        type(QAM16)(points=QAM16.points * np.exp(1j * g * 0.03)) for g in range(n)
    )


class RotateStub:
    """Deterministic-in-rng retrain stand-in: the session's centroids
    rotated by the true offset plus an rng-drawn jitter, so a reused or
    reordered job generator changes the output."""

    def __init__(self, qam, angle=OFFSET):
        self.qam = qam
        self.angle = angle

    def __call__(self, rng):
        angle = self.angle + rng.normal(scale=1e-3)
        return HybridDemapper(
            constellation=type(self.qam)(points=self.qam.points * np.exp(1j * angle)),
            sigma2=S10,
        )


def make_session(qam, sid, *, seed=0, queue_depth=4, retrain=None, weight=1.0,
                 threshold=0.9, tracking=False, sigma2_alpha=0.25, validate=False,
                 coded=None):
    return DemapperSession(
        sid,
        HybridDemapper(constellation=qam, sigma2=S10),
        PilotBERMonitor(threshold, window=2, cooldown=2),
        config=SessionConfig(
            frame=FC, queue_depth=queue_depth, weight=weight,
            sigma2_alpha=sigma2_alpha, tracking=tracking, validate_frames=validate,
            coded=coded,
        ),
        retrain=retrain,
        rng=seed,
    )


def clean_traffic(qam, n_frames, seed, *, coded=None):
    return generate_traffic(
        qam, FC, n_frames, SteadyChannel(AWGNFactory(10.0, 4)), seed, coded=coded
    )


def _stepped(qam, n_frames, seed, impairment, step, coded):
    after = CompositeFactory((impairment, AWGNFactory(10.0, 4)))
    chan = SteppedChannel(AWGNFactory(10.0, 4), after, step_seq=step)
    return generate_traffic(qam, FC, n_frames, chan, seed, coded=coded)


def jump_traffic(qam, n_frames, seed, *, step=4, coded=None):
    """A rigid π/4 phase jump at ``step``: the tracking tier can absorb it."""
    return _stepped(qam, n_frames, seed, PhaseOffsetFactory(OFFSET), step, coded)


def warp_traffic(qam, n_frames, seed, *, step=4, coded=None):
    """A non-rigid IQ warp at ``step``: tracking cannot explain it, so a
    tracking session escalates to the retrain tier."""
    return _stepped(qam, n_frames, seed, IQImbalanceFactory(8.0, 0.8), step, coded)


# -- scenarios ----------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """The core fleet whose timelines the oracle pins.

    ``tracking``: tracking tier plus σ² loop (α=0.25) over rigid / warp /
    clean channels; otherwise the plain retrain-only ladder (α=0) over
    rigid / clean channels.  ``coded``: every other pair of sessions
    carries :data:`CODED` traffic.  ``groups``: sessions are striped over
    that many centroid sets.
    """

    tracking: bool
    coded: bool
    groups: int

    @property
    def channels(self) -> tuple[str, ...]:
        cycle = ("jump", "warp", "clean") if self.tracking else ("jump", "clean")
        return tuple(cycle[i % len(cycle)] for i in range(N_SESSIONS))

    @property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(f"s{i:03d}" for i in range(N_SESSIONS))

    def coded_config(self, i: int):
        # in pairs, so neither channel cycle aliases with the coding stripe
        return CODED if self.coded and i // 2 % 2 == 0 else None

    @property
    def n_coded(self) -> int:
        return sum(self.coded_config(i) is not None for i in range(N_SESSIONS))

    def sessions(self, *, queue_depth=1, weights=None, retrain=True):
        """Fresh core sessions, each with a :class:`RotateStub` retrain
        unless ``retrain=False``."""
        qams = constellation_groups(self.groups)
        weights = weights or (1.0,) * N_SESSIONS
        return [
            make_session(
                qams[i % self.groups], sid, seed=100 + i, queue_depth=queue_depth,
                retrain=RotateStub(qams[i % self.groups]) if retrain else None,
                weight=weights[i], threshold=0.12, tracking=self.tracking,
                sigma2_alpha=0.25 if self.tracking else 0.0,
                coded=self.coded_config(i),
            )
            for i, sid in enumerate(self.session_ids)
        ]

    def traffic(self) -> dict:
        return dict(_traffic(self))


@cache
def _traffic(scenario: Scenario) -> tuple:
    qams = constellation_groups(scenario.groups)
    make = {"jump": jump_traffic, "warp": warp_traffic, "clean": clean_traffic}
    return tuple(
        (sid, make[kind](qams[i % scenario.groups], N_FRAMES, 200 + i,
                         coded=scenario.coded_config(i)))
        for i, (sid, kind) in enumerate(zip(scenario.session_ids, scenario.channels))
    )


SCENARIOS = tuple(
    Scenario(tracking, coded, groups)
    for tracking in (True, False)
    for coded in (False, True)
    for groups in (1, 4)
)
TRACK = Scenario(tracking=True, coded=False, groups=1)
PLAIN = Scenario(tracking=False, coded=False, groups=1)
PLAIN_CODED = Scenario(tracking=False, coded=True, groups=1)
FLEET = Scenario(tracking=False, coded=False, groups=4)
FLEET_CODED = Scenario(tracking=False, coded=True, groups=4)


# -- timeline extractor -------------------------------------------------------
class Timeline(NamedTuple):
    """One session's outputs; floats are ``repr`` strings, so NaN == NaN."""

    frames: tuple       #: per frame (seq, LLR bytes, crc_ok, post_fec_ber)
    pilot_ber: tuple
    sigma2: tuple
    triggers: tuple
    tiers: tuple
    retrains: int
    tracks: int
    crc_fails: tuple
    post_fec_ber: tuple
    health: tuple       #: health states, without the clock ticks


class FrameRecorder:
    """``on_frame`` hook keeping every served frame's outputs per session."""

    def __init__(self):
        self.frames: dict[str, list] = {}

    def __call__(self, session, frame, llrs, report):
        self.frames.setdefault(session.session_id, []).append(
            (frame.seq, llrs.tobytes(), report.crc_ok, repr(report.post_fec_ber))
        )


def _canon(values) -> tuple:
    return tuple(map(repr, values))


def timelines(sessions, recorder: FrameRecorder) -> dict[str, Timeline]:
    out = {}
    for s in sessions:
        st = s.stats
        out[s.session_id] = Timeline(
            frames=tuple(recorder.frames.get(s.session_id, ())),
            pilot_ber=_canon(st.pilot_ber_trajectory),
            sigma2=_canon(st.sigma2_trajectory),
            triggers=tuple(st.trigger_seqs),
            tiers=tuple(st.tier_timeline),
            retrains=st.retrains,
            tracks=st.tracks,
            crc_fails=tuple(st.crc_fail_seqs),
            post_fec_ber=_canon(st.post_fec_ber_trajectory),
            health=tuple(health for _, health in st.health_timeline),
        )
    return out


# -- the sequential oracle ----------------------------------------------------
@cache
def oracle(scenario: Scenario) -> dict[str, Timeline]:
    recorder = FrameRecorder()
    sessions = scenario.sessions()
    with ServingEngine(config=EngineConfig(max_batch=1, on_frame=recorder)) as engine:
        for s in sessions:
            engine.add_session(s)
        run_load(engine, scenario.traffic(), max_rounds=MAX_ROUNDS)
    return timelines(sessions, recorder)


# -- one drawn configuration --------------------------------------------------
@dataclass(frozen=True)
class Draw:
    """One point of the engine's knob product (defaults: one plain engine).

    ``observers`` is ``"off"``, ``"full"`` (wall-clock tracer, round
    profiler and metrics registry) or ``"ring"`` (a capacity-8 tracer).
    ``churn`` seeds a storm of extra sessions that join, drain and
    hard-remove (single-shard only: ``run_churn_load`` drives one engine).
    ``faults`` adds the ``f-fail`` / ``f-hang`` / ``f-poison`` / ``f-clean``
    sessions under a :class:`FaultPlan`.
    """

    scenario: Scenario
    max_batch: int = 64
    queue_depth: int = 4
    workers: int = 0
    weights: tuple[float, ...] | None = None
    shards: int = 1
    placement_seed: int = 0
    migrations: tuple[MigrationPlan, ...] = ()
    parallel: bool = False
    observers: str = "off"
    churn: int | None = None
    faults: bool = False

    def __post_init__(self):
        if self.shards == 1 and (self.migrations or self.parallel):
            raise ValueError("migrations and parallel need shards > 1")
        if self.shards > 1 and self.churn is not None:
            raise ValueError("churn needs a single shard")


def churn_plans(seed: int) -> list[SessionPlan]:
    """A seeded storm: 2–5 extra sessions joining, draining or hard-leaving."""
    rng = np.random.default_rng(seed)
    plans = []
    for k in range(int(rng.integers(2, 6))):
        jumpy = bool(rng.random() < 0.5)
        coded = CODED if rng.random() < 0.3 else None
        session = make_session(
            QAM16, f"g{k}", seed=int(rng.integers(2**31)),
            queue_depth=int(rng.integers(1, 5)), weight=float(rng.choice(WEIGHTS)),
            retrain=RotateStub(QAM16) if jumpy else None,
            threshold=0.12 if jumpy else 0.9, coded=coded,
        )
        traffic = jump_traffic if jumpy else clean_traffic
        frames = traffic(QAM16, int(rng.integers(4, 16)), int(rng.integers(2**31)),
                         coded=coded)
        join = int(rng.integers(0, 6))
        leave = join + int(rng.integers(1, 10)) if rng.random() < 0.7 else None
        plans.append(SessionPlan(session, frames, join_round=join, leave_round=leave,
                                 drain=bool(rng.random() < 0.5)))
    return plans


def fault_storm(workers: int):
    """The fault sessions and their traffic under one seeded plan."""
    plan = FaultPlan(
        seed=77, fail_sessions=("f-fail",), hang_sessions=("f-hang",),
        poison_sessions=("f-poison",), poison_rate=0.35,
        blocking_hangs=workers > 0, hang_timeout=0.02,
    )
    storm = []
    for j, (sid, frames) in enumerate(_storm_traffic()):
        retrain = plan.wrap_retrain(sid, None if sid == "f-poison" else RotateStub(QAM16))
        session = make_session(QAM16, sid, seed=300 + j, queue_depth=3,
                               retrain=retrain, threshold=0.12)
        storm.append((session, plan.corrupt_traffic(sid, frames)))
    return plan, storm


@cache
def _storm_traffic() -> tuple:
    return tuple(
        (sid, jump_traffic(QAM16, N_FRAMES, 400 + j, step=3))
        for j, sid in enumerate(FAULT_IDS)
    )


def run(draw: Draw, *, tracer=None, profiler=None, registry=None, retrain=True):
    """Serve ``draw``; returns (core timelines, the closed server, tracers).

    An explicit ``tracer``, ``profiler`` or ``registry`` (single shard)
    replaces that part of ``draw.observers``; ``retrain=False`` leaves the
    core sessions nothing to retrain."""
    full = draw.observers == "full"
    recorder = FrameRecorder()
    tracers = []
    core = draw.scenario.sessions(queue_depth=draw.queue_depth, weights=draw.weights,
                                  retrain=retrain)
    traffic = draw.scenario.traffic()
    plan, storm = fault_storm(draw.workers) if draw.faults else (None, [])
    residents = [(s, traffic[s.session_id]) for s in core] + storm

    def config(_shard=0):
        shard_tracer = tracer if tracer is not None else {
            "off": None, "full": Tracer(wall_clock=True), "ring": Tracer(capacity=8),
        }[draw.observers]
        if shard_tracer is not None:
            tracers.append(shard_tracer)
        return EngineConfig(
            max_batch=draw.max_batch, retrain_workers=draw.workers, on_frame=recorder,
            tracer=shard_tracer,
            profiler=profiler if profiler is not None else RoundProfiler() if full else None,
            # a breaker that opens after 2 failures, so the storm degrades f-fail
            supervisor=RetrainSupervisor(max_failures=2) if draw.faults else None,
        )

    if draw.shards > 1:
        server = FleetFrontEnd(draw.shards, config_factory=config,
                               placement_seed=draw.placement_seed, parallel=draw.parallel)
        if full:
            server.register_metrics()
    else:
        server = ServingEngine(config=config())
        if full or registry is not None:
            server.register_metrics(registry if registry is not None else MetricsRegistry())
    with server:
        try:
            if draw.churn is not None:
                plans = [SessionPlan(s, frames) for s, frames in residents]
                run_churn_load(server, plans + churn_plans(draw.churn),
                               max_rounds=MAX_ROUNDS)
            else:
                for s, frames in residents:
                    server.add_session(s)
                    traffic[s.session_id] = frames
                if draw.shards > 1:
                    run_fleet_load(server, traffic, migrations=draw.migrations,
                                   max_rounds=MAX_ROUNDS)
                else:
                    run_load(server, traffic, max_rounds=MAX_ROUNDS)
        finally:
            if plan is not None:
                plan.release_hangs()
    return timelines(core, recorder), server, tracers


def assert_identical(got: dict[str, Timeline], ref: dict[str, Timeline]) -> None:
    """Every session's timeline equals the oracle's, field by field."""
    assert got.keys() == ref.keys(), (sorted(got), sorted(ref))
    for sid, want in ref.items():
        have = got[sid]
        for field in Timeline._fields:
            a, b = getattr(have, field), getattr(want, field)
            if a == b:
                continue
            if field == "frames":
                i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
                where = (f"first at frame index {i} (seq {b[i][0]})" if i is not None
                         else f"{len(a)} frames served, oracle served {len(b)}")
                raise AssertionError(f"{sid}: served frames differ from the oracle, "
                                     f"{where}")
            raise AssertionError(f"{sid}.{field} differs from the oracle: {a!r} != {b!r}")


def check(draw: Draw):
    """Serve ``draw`` and assert the determinism contract: every core
    timeline equals the oracle's, migrations balance, the attached tracers
    recorded (a ring keeping only its latest 8 events) and a fault storm
    failed, degraded and quarantined co-tenants.  Returns the final server
    stats."""
    got, server, tracers = run(draw)
    assert_identical(got, oracle(draw.scenario))
    stats = server.stats() if draw.shards > 1 else server.telemetry
    assert stats.migrations_in == stats.migrations_out
    if draw.faults:  # the storm really stormed around the core fleet
        assert stats.retrain_failures > 0 and stats.sessions_degraded >= 1, "no-op storm"
        assert stats.sessions_quarantined >= 1, "nothing poisoned"
    if draw.observers == "full":
        assert all(len(t) > 0 for t in tracers)
    elif draw.observers == "ring":
        # an idle shard may emit fewer than 8 events; the busy ones evict
        assert all(len(t) == min(8, len(t) + t.dropped) for t in tracers)
        assert any(t.dropped > 0 for t in tracers)
    return stats


def assert_scenario_fires(scenario: Scenario) -> None:
    """The oracle run of ``scenario`` exercises what the draws claim to
    cover: every frame served, exactly the non-clean sessions trigger, both
    tiers fire on the tracking ladder (only retrains on the plain one), σ²
    moves only with the σ² loop on, CRC failures land only on jump/warp
    sessions and occur in every coded scenario, and the core fleet stays
    healthy."""
    timelines = oracle(scenario)
    tiers = set()
    for i, ((sid, tl), kind) in enumerate(zip(timelines.items(), scenario.channels)):
        assert len(tl.frames) == N_FRAMES, (scenario, sid)
        assert bool(tl.triggers) == (kind != "clean"), (scenario, sid)
        tiers |= {tier for _, tier in tl.tiers}
        sigma2_moved = tl.sigma2[-1] != repr(S10)
        assert sigma2_moved == scenario.tracking, (scenario, sid)
        if kind == "clean":  # a coded clean session decodes every frame
            assert not tl.crc_fails, (scenario, sid)
            if scenario.coded_config(i) is not None:
                assert set(tl.post_fec_ber) == {repr(0.0)}, (scenario, sid)
        assert tl.health == (), (scenario, sid)
    assert tiers == ({"track", "retrain"} if scenario.tracking else {"retrain"})
    if scenario.coded:
        assert any(tl.crc_fails for tl in timelines.values()), scenario


# -- churn soak ---------------------------------------------------------------
def churn_soak(engine, qam, seed, *, jumpy_rate, coded=None, plan=None):
    """Seeded randomized soak: :data:`SOAK_ROUNDS` rounds of joins, drains,
    hard removals and bursty producers (bursts beat ``queue_depth=2``, so
    backpressure rejects happen), ledgers checked every round.  ``coded``
    goes on 40% of the joiners; ``plan`` wraps their retrains and corrupts
    their traffic.  Drains everything and closes the engine; returns
    (accepted frames per session, every session that joined, the
    hard-removed ones)."""
    rng = np.random.default_rng(seed)
    accepted: dict[str, int] = {}
    live: dict[str, list] = {}  # sid -> [session, frames, offset]
    sessions, hard, draining = [], [], set()

    def join():
        sid = f"c{len(sessions)}"
        (srng,) = rng.spawn(1)
        jumpy = rng.random() < jumpy_rate
        code = coded if coded is not None and rng.random() < 0.4 else None
        retrain = RotateStub(qam) if jumpy else None
        if plan is not None and jumpy:
            retrain = plan.wrap_retrain(sid, retrain)
        session = make_session(
            qam, sid, seed=int(rng.integers(2**31)), queue_depth=2, retrain=retrain,
            threshold=0.12 if jumpy else 0.9,
            weight=float(rng.choice([0.5, 1.0, 2.0])), coded=code,
        )
        n_frames = int(rng.integers(8, 25))
        frames = (
            jump_traffic(qam, n_frames, srng, step=int(rng.integers(2, 6)), coded=code)
            if jumpy else clean_traffic(qam, n_frames, srng, coded=code)
        )
        if plan is not None:
            frames = plan.corrupt_traffic(sid, frames)
        engine.add_session(session)
        live[sid] = [session, frames, 0]
        accepted[sid] = 0
        sessions.append(session)

    for _ in range(4):
        join()
    for r in range(SOAK_ROUNDS):
        op = rng.random()
        if op < 0.12 and len(live) < 10:
            join()
        elif op < 0.18 and len(live) > 2:
            sid = str(rng.choice(sorted(set(live) - draining) or sorted(live)))
            if sid not in draining:
                engine.remove_session(sid, drain=True)
                draining.add(sid)
        elif op < 0.22 and len(live) > 2:
            sid = str(rng.choice(sorted(live)))
            engine.remove_session(sid, drain=False)
            hard.append(live.pop(sid)[0])
            draining.discard(sid)
        for sid in sorted(set(live) - draining):
            entry = live[sid]
            if entry[0].health == QUARANTINED:
                continue  # fenced off: further submits only count refusals
            for _ in range(int(rng.integers(0, 4))):
                if entry[2] >= len(entry[1]):
                    break
                if engine.submit(sid, entry[1][entry[2]]):
                    entry[2] += 1
                    accepted[sid] += 1
        engine.step()  # must never raise, whatever the storm does
        live_ids = {s.session_id for s in engine.sessions}
        for sid in draining - live_ids:  # drained sessions leave once empty
            draining.discard(sid)
            live.pop(sid)
        # -- invariants, every round ------------------------------------------
        credits = engine.scheduler.credits()
        assert set(credits) <= live_ids, "credit leaked past a removal"
        for sid, c in credits.items():
            # the documented burst cap, from the live (adaptively boosted) weight
            cap = max(1.0, engine.scheduler.burst * engine.scheduler.quantum
                      * engine.session(sid).weight)
            assert 0.0 <= c <= cap + 1e-9, (sid, c, cap)
        for session in engine.sessions:
            sid, st = session.session_id, session.stats
            assert (
                st.frames_served + st.frames_dropped + st.frames_quarantined
                + session.pending == accepted[sid]
            ), f"conservation broke for {sid} at round {r}"
            if session.config.coded is not None:
                # CRC-fail frames are served-with-decode-failure: every served
                # frame was decoded, failures never leave the served leg
                assert st.frames_decoded == st.frames_served, (sid, r)
                assert len(st.crc_fail_seqs) == st.crc_failures <= st.frames_decoded
            else:
                assert st.frames_decoded == 0 and st.crc_failures == 0
            if session.health == QUARANTINED:
                assert not session.ready and sid not in credits
            if session.health == DEGRADED:
                assert session.state == SERVING
    if plan is not None:
        plan.release_hangs()
    for sid in sorted(set(live) - draining):
        engine.remove_session(sid, drain=True)
    engine.drain(max_rounds=10_000, timeout=2.0)
    engine.close(timeout=5.0)
    return accepted, sessions, hard
