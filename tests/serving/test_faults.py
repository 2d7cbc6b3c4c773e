"""Fault tolerance: supervision, quarantine, degradation, chaos.

Five layers of coverage:

* **supervisor state machine** — hypothesis property tests for the
  retry/backoff/circuit-breaker policy: never retries before the backoff
  expires, opens after *exactly* ``max_failures``, re-arms on a successful
  install, and flags in-flight jobs hung only past the deadline;
* **worker failure surfacing** — every failed job becomes an outcome
  (none re-raised, none swallowed), ``wait_all``/``close`` timeouts
  abandon hung jobs instead of wedging;
* **poison quarantine** — the opt-in submit-time finite check and the
  always-on post-demap guard: the offending frame and session are fenced
  off, counted, and never folded into BER/σ² state, while batchmates'
  rows stay bit-identical;
* **degraded serving** — a session whose retrains keep failing (or
  hanging) ends up DEGRADED: still serving every frame on its last-good
  demapper, triggers suppressed, never paused forever;
* **chaos soak** — the churn soak extended with a seeded
  :class:`FaultPlan` storm (retrain exceptions, hangs, poison frames): the
  engine never raises and ``accepted == served + dropped + quarantined
  (+ pending)`` every round.

Fault isolation — fault-free sessions' timelines are bit-identical to a
no-fault run — is checked against the sequential oracle (``oracle.py``):
at the points pinned in :class:`TestFaultIsolation`, and at random draws
in ``test_differential.py``.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    S10,
    TRACK,
    Draw,
    RotateStub,
    assert_scenario_fires,
    check,
    churn_soak,
    clean_traffic,
    jump_traffic,
    make_session,
    warp_traffic,
)
from repro.extraction import HybridDemapper
from repro.serving import (
    DEGRADED,
    EngineConfig,
    HEALTHY,
    QUARANTINED,
    SERVING,
    CodedFrameConfig,
    FaultPlan,
    FleetFrontEnd,
    InjectedRetrainError,
    MigrationPlan,
    RetrainHungError,
    RetrainSupervisor,
    RetrainWorker,
    ServingEngine,
    ServingFrame,
    Tracer,
    run_fleet_load,
    run_load,
)

CODED = CodedFrameConfig()  # K=3 (7,5), CRC-16: 24 info bits in this FC


def poison_frame(frame, pos=0):
    """Copy a frame with one received sample replaced by NaN."""
    received = np.array(frame.received, copy=True)
    received[pos] = complex(float("nan"), float("nan"))
    return ServingFrame(
        seq=frame.seq, indices=frame.indices,
        pilot_mask=frame.pilot_mask, received=received,
        info_bits=frame.info_bits,
    )


# ---------------------------------------------------------------------------
# supervisor state machine (hypothesis)
# ---------------------------------------------------------------------------
class TestSupervisorProperties:
    """The backoff/circuit-breaker state machine, property-tested."""

    @given(
        max_failures=st.integers(min_value=1, max_value=6),
        backoff_base=st.integers(min_value=0, max_value=4),
        factor=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        gaps=st.lists(st.integers(min_value=0, max_value=9), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_opens_after_exactly_max_failures(
        self, max_failures, backoff_base, factor, gaps
    ):
        sup = RetrainSupervisor(
            max_failures=max_failures, backoff_base=backoff_base,
            backoff_factor=factor,
        )
        now = 0
        for n in range(1, max_failures + 1):
            sup.on_submitted("s", now)
            assert not sup.allows("s")  # in flight: no double-submit
            rec = sup.on_failure("s", now, RuntimeError("boom"))
            assert rec.failures == n
            if n < max_failures:
                assert rec.action == "retry"
                assert sup.state("s") == "backoff"
            else:
                assert rec.action == "degrade"
                assert sup.state("s") == "open"
            assert not sup.allows("s")  # backoff or open: triggers gated
            now += gaps[n % len(gaps)] + int(sup.backoff(n)) + 1
        # open stays open: further failures never re-close it
        assert sup.due_retries(now + 10_000) == []

    @given(
        backoff_base=st.integers(min_value=0, max_value=5),
        factor=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        n_prior=st.integers(min_value=1, max_value=4),
        fail_round=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_retries_before_backoff_expiry(
        self, backoff_base, factor, n_prior, fail_round
    ):
        sup = RetrainSupervisor(
            max_failures=n_prior + 1, backoff_base=backoff_base,
            backoff_factor=factor,
        )
        now = fail_round
        for _ in range(n_prior):  # n_prior-th failure schedules the retry
            sup.on_submitted("s", now)
            sup.on_failure("s", now, RuntimeError("boom"))
        expiry = fail_round + sup.backoff(n_prior)
        for t in range(fail_round, int(np.ceil(expiry)) + 2):
            due = sup.due_retries(t)
            if t < expiry:
                assert due == [], f"retried at {t}, backoff expires at {expiry}"
            else:
                assert due == ["s"]

    @given(
        max_failures=st.integers(min_value=2, max_value=5),
        n_failures=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_successful_install_rearms_the_breaker(self, max_failures, n_failures):
        n_failures = min(n_failures, max_failures - 1)  # breaker must not open yet
        sup = RetrainSupervisor(max_failures=max_failures, backoff_base=1)
        now = 0
        for _ in range(n_failures):
            sup.on_submitted("s", now)
            sup.on_failure("s", now, RuntimeError("boom"))
            now += 100
        sup.on_submitted("s", now)
        sup.on_installed("s")
        assert sup.allows("s")
        assert sup.failures("s") == 0
        # the count restarted: it takes max_failures *fresh* failures to open
        for n in range(1, max_failures + 1):
            sup.on_submitted("s", now)
            rec = sup.on_failure("s", now, RuntimeError("boom"))
            now += 100
        assert rec.action == "degrade" and rec.failures == max_failures

    @given(
        deadline=st.integers(min_value=1, max_value=20),
        submitted=st.integers(min_value=0, max_value=30),
        age=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_overdue_flags_in_flight_jobs_only_past_deadline(
        self, deadline, submitted, age
    ):
        sup = RetrainSupervisor(deadline_rounds=deadline)
        sup.on_submitted("s", submitted)
        overdue = sup.overdue(submitted + age)
        assert overdue == (["s"] if age >= deadline else [])
        # without a deadline nothing is ever hung
        relaxed = RetrainSupervisor(deadline_rounds=None)
        relaxed.on_submitted("s", submitted)
        assert relaxed.overdue(submitted + age) == []

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            RetrainSupervisor(max_failures=0)
        with pytest.raises(ValueError):
            RetrainSupervisor(backoff_base=-1)
        with pytest.raises(ValueError):
            RetrainSupervisor(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetrainSupervisor(deadline_rounds=0)


# ---------------------------------------------------------------------------
# worker: failure surfacing + bounded waits
# ---------------------------------------------------------------------------
class TestWorkerFailures:
    def test_every_failure_surfaces_not_just_the_first(self, qam16):
        """The satellite fix: two raising jobs → two outcomes."""
        engine = ServingEngine()
        a = engine.add_session(make_session(qam16, "a"))
        b = engine.add_session(make_session(qam16, "b"))
        worker = RetrainWorker(2)

        def boom_a(rng):
            raise InjectedRetrainError("a exploded")

        def boom_b(rng):
            raise InjectedRetrainError("b exploded")

        worker.submit(a, boom_a, np.random.default_rng(0))
        worker.submit(b, boom_b, np.random.default_rng(1))
        assert worker.wait_all() == 0  # never raises, installs nothing
        errors = {s.session_id: str(e) for s, e in worker.take_outcomes()}
        assert errors == {"a": "a exploded", "b": "b exploded"}
        worker.close()

    def test_inline_failure_is_an_outcome_not_a_raise(self, qam16):
        engine = ServingEngine()
        (session,) = [engine.add_session(make_session(qam16, "s"))]
        worker = RetrainWorker(0)

        def boom(rng):
            raise InjectedRetrainError("inline boom")

        assert worker.submit(session, boom, np.random.default_rng(0)) == 0
        ((owner, err),) = worker.take_outcomes()
        assert owner is session and "inline boom" in str(err)
        assert session.stats.retrains == 0

    def test_wait_all_timeout_abandons_hung_jobs(self, qam16):
        engine = ServingEngine()
        (session,) = [engine.add_session(make_session(qam16, "s"))]
        release = threading.Event()
        good = HybridDemapper(constellation=qam16, sigma2=S10)

        def stuck(rng):
            release.wait(timeout=30)
            return good

        worker = RetrainWorker(1)
        worker.submit(session, stuck, np.random.default_rng(0))
        t0 = time.monotonic()
        installed = worker.wait_all(timeout=0.2)
        assert time.monotonic() - t0 < 10
        assert installed == 0
        assert worker.pending == 0 and worker.abandoned == 1
        ((owner, err),) = worker.take_outcomes()
        assert owner is session and isinstance(err, RetrainHungError)
        release.set()
        worker.close(timeout=5)
        # the abandoned job finished after release — but was never installed
        assert session.stats.retrains == 0

    def test_close_timeout_never_wedges_on_a_hung_job(self, qam16):
        engine = ServingEngine()
        (session,) = [engine.add_session(make_session(qam16, "s"))]
        release = threading.Event()

        def stuck(rng):
            release.wait(timeout=30)
            raise RuntimeError("released late")

        worker = RetrainWorker(1)
        worker.submit(session, stuck, np.random.default_rng(0))
        t0 = time.monotonic()
        worker.close(timeout=0.2)  # must return despite the stuck thread
        assert time.monotonic() - t0 < 10
        ((_, err),) = worker.take_outcomes()
        assert isinstance(err, RetrainHungError)
        release.set()  # let the thread die


# ---------------------------------------------------------------------------
# poison-frame quarantine
# ---------------------------------------------------------------------------
class TestPoisonQuarantine:
    def test_validate_frames_refuses_poison_at_submit(self, qam16):
        engine = ServingEngine()
        session = engine.add_session(make_session(qam16, "s", validate=True))
        frames = clean_traffic(qam16, 2, 1)
        assert engine.submit("s", frames[0])
        assert not engine.submit("s", poison_frame(frames[1]))
        assert session.stats.poison_rejected == 1
        assert session.pending == 1  # the poison frame was never accepted
        assert session.health == HEALTHY  # refused at the door ≠ quarantined
        engine.drain()
        assert session.stats.frames_served == 1

    def test_post_demap_guard_quarantines_frame_and_session(self, qam16):
        engine = ServingEngine()
        session = engine.add_session(make_session(qam16, "s"))
        frames = clean_traffic(qam16, 4, 2)
        engine.submit("s", frames[0])
        engine.submit("s", poison_frame(frames[1], pos=5))
        engine.submit("s", frames[2])
        engine.submit("s", frames[3])
        engine.step()  # serves frame 0
        assert session.health == HEALTHY
        engine.step()  # frame 1 is poison: quarantine
        assert session.health == QUARANTINED
        assert session.state == SERVING  # fenced, not paused
        # offending frame + the 2 queued behind it, never the served one
        assert session.stats.frames_quarantined == 3
        assert session.pending == 0 and not session.ready
        # σ²/BER state holds exactly one served frame — poison never landed
        assert len(session.stats.sigma2_trajectory) == 1
        assert len(session.stats.pilot_ber_trajectory) == 1
        assert session.stats.frames_served == 1
        # conservation: accepted(4) == served(1) + quarantined(3)
        tele = engine.telemetry
        assert tele.frames_served == 1
        assert tele.frames_quarantined == 3
        assert tele.sessions_quarantined == 1
        (record,) = tele.failure_log
        assert record.kind == "poison" and record.action == "quarantine"
        assert record.session_id == "s"
        assert tele.health_timeline == [(tele.now, "s", QUARANTINED)]
        assert session.stats.health_timeline == [(tele.now, QUARANTINED)]
        # submissions are refused from now on — final, like drain refusals
        assert not engine.submit("s", frames[2])
        assert session.stats.quarantine_refusals == 1
        # scheduler: no credit for a fenced-off session
        engine.step()
        assert "s" not in engine.scheduler.credits()
        engine.drain()  # completes despite the quarantined resident
        engine.close()

    def test_batchmate_rows_bit_identical_next_to_poison(self, qam16):
        """Fault isolation at the kernel level: a healthy session coalesced
        with a poison frame gets exactly the LLRs of a solo run."""

        def run(with_poison):
            got = []
            engine = ServingEngine(config=EngineConfig(
                max_batch=64,
                on_frame=lambda s, f, llrs, rep: (
                    got.append(llrs.copy()) if s.session_id == "ok" else None
                ),
            ))
            ok = engine.add_session(make_session(qam16, "ok", seed=3))
            frames = clean_traffic(qam16, 3, 7)
            if with_poison:
                bad = engine.add_session(make_session(qam16, "bad", seed=4))
                bad_frames = clean_traffic(qam16, 3, 8)
                for i, f in enumerate(bad_frames):
                    engine.submit("bad", poison_frame(f) if i == 1 else f)
            for f in frames:
                engine.submit("ok", f)
            engine.drain()
            assert ok.stats.frames_served == 3
            if with_poison:
                assert engine.session("bad").health == QUARANTINED
            timeline = (
                tuple(ok.stats.sigma2_trajectory),
                tuple(ok.stats.pilot_ber_trajectory),
            )
            return got, timeline

        solo, solo_timeline = run(with_poison=False)
        paired, paired_timeline = run(with_poison=True)
        assert paired_timeline == solo_timeline
        for a, b in zip(solo, paired):
            assert np.array_equal(a, b)

    def test_fault_plan_poison_is_seeded_and_pure(self, qam16):
        plan_a = FaultPlan(seed=9, poison_rate=0.3)
        plan_b = FaultPlan(seed=9, poison_rate=0.3)
        frames = clean_traffic(qam16, 20, 5)
        ca = plan_a.corrupt_traffic("sX", frames)
        cb = plan_b.corrupt_traffic("sX", frames)
        poisoned = [i for i, f in enumerate(ca) if not np.isfinite(f.received).all()]
        assert 0 < len(poisoned) < len(frames)
        for a, b in zip(ca, cb):
            assert np.array_equal(a.received, b.received, equal_nan=True)
        # decisions are per-(session, seq): another session differs
        other = [
            i
            for i, f in enumerate(plan_a.corrupt_traffic("sY", frames))
            if not np.isfinite(f.received).all()
        ]
        assert other != poisoned
        assert plan_a.injected["poison"] == len(poisoned) + len(other)


# ---------------------------------------------------------------------------
# degraded serving (circuit breaker) + hung jobs
# ---------------------------------------------------------------------------
class TestDegradedServing:
    def test_failing_retrains_degrade_but_never_stop_serving(self, qam16):
        """max_failures exceeded → DEGRADED: every accepted frame is still
        served on the last-good demapper, triggers stop escalating."""

        def boom(rng):
            raise InjectedRetrainError("no model for you")

        engine = ServingEngine(config=EngineConfig(
            supervisor=RetrainSupervisor(max_failures=2, backoff_base=1),
        ))
        session = engine.add_session(
            make_session(qam16, "s", retrain=boom, threshold=0.12)
        )
        frames = jump_traffic(qam16, 12, 6, step=2)
        offset = 0
        for _ in range(60):
            while offset < len(frames) and engine.submit("s", frames[offset]):
                offset += 1
            engine.step()
            if offset == len(frames) and session.pending == 0:
                break
        tele = engine.telemetry
        assert session.health == DEGRADED and session.state == SERVING
        assert session.stats.frames_served == len(frames)  # nothing lost
        assert session.stats.retrains == 0  # no install ever landed
        assert session.stats.retrain_failures == 2
        assert tele.retrain_failures == 2 and tele.sessions_degraded == 1
        assert tele.retrains_started == 2 and tele.retrains_retried == 1
        assert [r.action for r in tele.failure_log] == ["retry", "degrade"]
        assert [r.kind for r in tele.failure_log] == ["error", "error"]
        # breaker open: later triggers are recorded but never escalate
        started_before = tele.retrains_started
        assert session.stats.trigger_seqs  # the monitor did keep firing
        assert tele.retrains_started == started_before
        assert session.stats.health_timeline[-1][1] == DEGRADED
        snap = tele.snapshot()
        assert snap["sessions_degraded"] == 1
        assert [r["action"] for r in snap["failure_log"]] == ["retry", "degrade"]
        engine.close()

    def test_inline_outcomes_reach_the_supervisor_between_waves(self, qam16):
        """Weight 4 (four waves a round), inline retrains: a job resolving
        mid-round is absorbed before the session's next wave.  A failure is
        logged in its submission round (its backoff counts from there) and
        the session serves the rest of its quota that round; an install
        re-arms the retrain tier before the session's next trigger."""

        def boom(rng):
            raise InjectedRetrainError("boom")

        served = []
        engine = ServingEngine(config=EngineConfig(
            supervisor=RetrainSupervisor(max_failures=3, backoff_base=1),
            on_frame=lambda s, f, llrs, rep: served.append(
                (engine.telemetry.rounds, s.session_id, f.seq)),
        ))
        failing = make_session(qam16, "fail", retrain=boom, weight=4.0,
                               queue_depth=8, threshold=0.12)
        warped = make_session(qam16, "warp", seed=101, retrain=RotateStub(qam16),
                              weight=4.0, queue_depth=8, threshold=0.12, tracking=True)
        engine.add_session(failing)
        engine.add_session(warped)
        with engine:
            run_load(engine, {"fail": jump_traffic(qam16, 12, 6, step=2),
                              "warp": warp_traffic(qam16, 8, 201)}, max_rounds=50)
        assert failing.stats.trigger_seqs[0] == 2  # fails in round 0, wave 2
        # the run waits out the scheduled retry, so the breaker opens
        assert [(r.round, r.failures, r.action) for r in engine.telemetry.failure_log] \
            == [(0, 1, "retry"), (1, 2, "retry"), (3, 3, "degrade")]
        assert (0, "fail", 3) in served  # resumed within the failing round
        # one frame a round gives the same ladder: both warps retrain
        assert warped.stats.tier_timeline == [(5, "retrain"), (7, "retrain")]

    @pytest.mark.parametrize("driver", ["run_load", "drain"])
    def test_failure_ledger_does_not_depend_on_weight(self, qam16, driver):
        """A run ends only once backed-off retries have launched: a weight-4
        session finishes its frames in a quarter of the rounds, but must
        leave the same failure ledger and health as at weight 1."""

        def boom(rng):
            raise InjectedRetrainError("boom")

        outcomes = []
        for weight in (1.0, 4.0):
            engine = ServingEngine(config=EngineConfig(
                supervisor=RetrainSupervisor(max_failures=3, backoff_base=1),
            ))
            session = engine.add_session(make_session(
                qam16, "s", retrain=boom, weight=weight, queue_depth=12,
                threshold=0.05,
            ))
            frames = jump_traffic(qam16, 12, 6, step=2)
            with engine:
                if driver == "run_load":
                    run_load(engine, {"s": frames}, max_rounds=100)
                else:
                    for frame in frames:
                        assert engine.submit("s", frame)
                    engine.drain(max_rounds=100)
                assert not engine.scheduled_retries()
            outcomes.append((
                [(r.failures, r.action) for r in engine.telemetry.failure_log],
                session.health,
            ))
        assert outcomes[0] == outcomes[1] == (
            [(1, "retry"), (2, "retry"), (3, "degrade")], DEGRADED
        )

    def test_trigger_during_backoff_does_not_jump_the_queue(self, qam16):
        """Between failure and retry the session serves and may re-trigger;
        the supervisor must gate those triggers (no double-submit)."""

        calls = []

        def boom(rng):
            calls.append(1)
            raise InjectedRetrainError("boom")

        engine = ServingEngine(config=EngineConfig(
            supervisor=RetrainSupervisor(max_failures=10, backoff_base=4),
        ))
        session = engine.add_session(
            make_session(qam16, "s", retrain=boom, threshold=0.12)
        )
        frames = jump_traffic(qam16, 10, 6, step=1)
        offset = 0
        for _ in range(30):
            while offset < len(frames) and engine.submit("s", frames[offset]):
                offset += 1
            engine.step()
        # every submission was either the initial trigger or a due retry —
        # never a trigger racing a backoff
        assert len(calls) == engine.telemetry.retrains_started
        assert engine.telemetry.retrains_retried == len(calls) - 1
        assert session.health == HEALTHY  # max_failures=10: still retrying

    def test_hung_job_expires_at_deadline_and_degrades(self, qam16):
        release = threading.Event()

        def stuck(rng):
            release.wait(timeout=30)
            raise RuntimeError("released late")

        engine = ServingEngine(config=EngineConfig(
            retrain_workers=1,
            supervisor=RetrainSupervisor(max_failures=1, deadline_rounds=3),
        ))
        session = engine.add_session(
            make_session(qam16, "s", retrain=stuck, threshold=0.12)
        )
        frames = jump_traffic(qam16, 8, 6, step=2)
        offset = 0
        for _ in range(40):
            while offset < len(frames) and engine.submit("s", frames[offset]):
                offset += 1
            engine.step()
            if offset == len(frames) and session.pending == 0:
                break
        tele = engine.telemetry
        assert tele.retrains_hung == 1 and tele.retrain_failures == 1
        assert engine.worker.abandoned == 1
        assert session.health == DEGRADED
        assert session.stats.frames_served == len(frames)  # kept serving
        (record,) = tele.failure_log
        assert record.kind == "hung" and record.action == "degrade"
        release.set()
        t0 = time.monotonic()
        engine.close(timeout=5)
        assert time.monotonic() - t0 < 10

    def test_engine_drain_timeout_unwedges_a_hung_retrain(self, qam16):
        """drain(timeout=) abandons the stuck job, the supervisor degrades
        the session, and the drain completes — shutdown never wedges."""
        release = threading.Event()

        def stuck(rng):
            release.wait(timeout=30)
            raise RuntimeError("released late")

        engine = ServingEngine(config=EngineConfig(
            retrain_workers=1,
            supervisor=RetrainSupervisor(max_failures=1),  # no round deadline
        ))
        session = engine.add_session(
            make_session(qam16, "s", retrain=stuck, threshold=0.12)
        )
        for f in jump_traffic(qam16, 4, 6, step=1):
            engine.submit("s", f)
        t0 = time.monotonic()
        engine.drain(timeout=0.2)
        assert time.monotonic() - t0 < 30
        assert session.health == DEGRADED
        assert session.pending == 0
        assert engine.telemetry.retrains_hung == 1
        release.set()
        engine.close(timeout=5)

    def test_degraded_session_rearms_nothing_but_serves_cheap_tier(self, qam16):
        """Tracking still applies to a DEGRADED session (it is a SERVING
        session with retrain suppressed), mirroring the draining contract."""

        def boom(rng):
            raise InjectedRetrainError("boom")

        engine = ServingEngine(config=EngineConfig(
            supervisor=RetrainSupervisor(max_failures=1, backoff_base=1),
        ))
        session = engine.add_session(
            make_session(qam16, "s", retrain=boom, threshold=0.12, tracking=True)
        )
        frames = warp_traffic(qam16, 14, 6, step=2)
        offset = 0
        for _ in range(60):
            while offset < len(frames) and engine.submit("s", frames[offset]):
                offset += 1
            engine.step()
            if offset == len(frames) and session.pending == 0:
                break
        assert session.health == DEGRADED
        assert session.stats.frames_served == len(frames)
        # the ladder's track responses kept coming after the breaker opened
        retrain_seqs = [
            seq for seq, tier in session.stats.tier_timeline if tier == "retrain"
        ]
        post_degrade_tiers = [
            tier
            for seq, tier in session.stats.tier_timeline
            if seq > retrain_seqs[-1]
        ]
        assert post_degrade_tiers, "no triggers after the breaker opened"
        assert all(t == "track" for t in post_degrade_tiers)
        engine.close()


# ---------------------------------------------------------------------------
# chaos soak: churn + faults, conservation every round
# ---------------------------------------------------------------------------
class TestChaosSoak:
    """The churn soak (``oracle.churn_soak``) under a seeded fault storm:
    retrain exceptions, hangs, poison frames, coded joiners.  The engine
    must never raise; accepted == served + dropped + quarantined (+ pending)
    must hold every round."""

    def run_soak(self, qam, seed, *, retrain_workers=0, max_batch=64, tracer=None):
        plan = FaultPlan(
            seed=seed, fail_rate=0.30, hang_rate=0.10, poison_rate=0.02,
            blocking_hangs=retrain_workers > 0, hang_timeout=5.0,
        )
        engine = ServingEngine(config=EngineConfig(
            max_batch=max_batch,
            retrain_workers=retrain_workers,
            supervisor=RetrainSupervisor(
                max_failures=2, backoff_base=1,
                deadline_rounds=8 if retrain_workers else None,
            ),
            tracer=tracer,
        ))
        accepted, sessions, _ = churn_soak(engine, qam, seed, jumpy_rate=0.5,
                                           coded=CODED, plan=plan)
        return engine, accepted, sessions, plan

    @pytest.mark.parametrize("retrain_workers", [0, 2])
    def test_soak_survives_the_storm_with_conservation(
        self, qam16, retrain_workers
    ):
        engine, accepted, sessions, plan = self.run_soak(
            qam16, seed=2027, retrain_workers=retrain_workers
        )
        tele = engine.telemetry
        # the storm actually stormed
        assert plan.injected["fail"] > 0
        assert plan.injected["hang"] > 0
        assert plan.injected["poison"] > 0
        assert tele.retrain_failures > 0
        assert tele.retrains_hung > 0
        assert tele.sessions_degraded > 0
        assert tele.sessions_quarantined > 0
        assert tele.frames_quarantined > 0
        assert len(tele.failure_log) == tele.retrain_failures + tele.sessions_quarantined
        # fleet-wide conservation at the end: every accepted frame is
        # served, dropped (hard removal) or quarantined — none vanished
        total_accepted = sum(accepted.values())
        total_served = sum(s.stats.frames_served for s in sessions)
        total_dropped = sum(s.stats.frames_dropped for s in sessions)
        total_quarantined = sum(s.stats.frames_quarantined for s in sessions)
        assert all(s.pending == 0 for s in sessions)
        assert total_accepted == total_served + total_dropped + total_quarantined
        assert total_served == tele.frames_served
        assert total_quarantined == tele.frames_quarantined
        # coded traffic rode through the storm: decode counters reconcile
        # and CRC failures stayed on the served leg of the ledger
        coded_sessions = [s for s in sessions if s.config.coded is not None]
        assert coded_sessions, "no coded session ever joined the soak"
        assert tele.frames_decoded == sum(
            s.stats.frames_decoded for s in sessions
        )
        assert tele.crc_failures == sum(s.stats.crc_failures for s in sessions)
        assert tele.frames_decoded == sum(
            s.stats.frames_served for s in coded_sessions
        )
        assert tele.crc_failures > 0  # the storm broke some payloads too
        # degraded sessions were never paused forever: each one's ledger
        # closes (everything it accepted was served or fenced)
        for s in sessions:
            if s.health == DEGRADED:
                assert s.stats.frames_served > 0
        assert engine.scheduler.credits() == {}
        assert engine.worker.pending == 0

    @staticmethod
    def assert_ledgers_match_trace(tele, tracer):
        """Each engine event is recorded once: counters, ledgers and trace
        tell the same story."""
        assert tracer.dropped == 0
        events = tracer.events

        def count(*names):
            return sum(e.name in names for e in events)

        assert [
            (e.session_id, e.name.removeprefix("fault."), e.args["action"])
            for e in events if e.name.startswith("fault.")
        ] == [(r.session_id, r.kind, r.action) for r in tele.failure_log]
        assert [
            (e.ts, e.session_id, e.args["health"])
            for e in events if e.name == "session.health"
        ] == tele.health_timeline
        assert count("session.join", "session.migrate-in") == tele.joins
        assert count("session.leave", "session.migrate-out") == tele.leaves
        assert len(tele.fleet_timeline) == tele.joins + tele.leaves

    def test_ledgers_agree_with_trace(self, qam16):
        tracer = Tracer()
        engine = self.run_soak(qam16, seed=3, max_batch=4, tracer=tracer)[0]
        assert engine.telemetry.failure_log and engine.telemetry.health_timeline
        self.assert_ledgers_match_trace(engine.telemetry, tracer)
        # a migrating fleet: every shard's ledgers agree with its own trace
        tracers = [Tracer() for _ in range(3)]
        plan = FaultPlan(seed=5, fail_rate=0.3, poison_rate=0.03)
        fleet = FleetFrontEnd(
            3,
            config_factory=lambda i: EngineConfig(max_batch=4, tracer=tracers[i]),
            parallel=False,
        )
        traffic = {}
        for i in range(6):
            sid = f"f{i}"
            fleet.add_session(make_session(
                qam16, sid, seed=i, threshold=0.12,
                retrain=plan.wrap_retrain(sid, RotateStub(qam16)),
                coded=CODED if i % 2 else None,
            ), shard=i % 3)
            traffic[sid] = plan.corrupt_traffic(
                sid, jump_traffic(qam16, 12, 40 + i, step=3, coded=CODED if i % 2 else None)
            )
        migrations = [MigrationPlan(f"f{i}", 1 + i, (i + 1) % 3) for i in range(6)]
        with fleet:
            run_fleet_load(fleet, traffic, migrations=migrations, max_rounds=500)
        assert fleet.migrations > 0
        for shard, shard_tracer in zip(fleet.shards, tracers):
            self.assert_ledgers_match_trace(shard.telemetry, shard_tracer)

    def test_soak_is_deterministic(self, qam16):
        a = self.run_soak(qam16, seed=11)[0].telemetry.snapshot()
        b = self.run_soak(qam16, seed=11)[0].telemetry.snapshot()
        assert a == b


class TestFaultIsolation:
    """The tracking fleet's timelines are bit-identical whether or not a
    seeded :class:`FaultPlan` storm (failing, hanging and poisoned
    sessions) shares the engine, at any batch width and worker count."""

    def test_reference_scenario_adapts(self):
        assert_scenario_fires(TRACK)

    @pytest.mark.parametrize("max_batch", [1, 64])
    def test_invariant_to_fault_storm(self, max_batch):
        check(Draw(TRACK, faults=True, max_batch=max_batch))

    @pytest.mark.parametrize("retrain_workers", [2])
    def test_invariant_to_worker_count_under_faults(self, retrain_workers):
        check(Draw(TRACK, faults=True, workers=retrain_workers))
