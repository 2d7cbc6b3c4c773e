"""Session churn: joins, drains, hard removals — under load, deterministically.

Three layers of coverage:

* **removal semantics** — drain vs hard removal, retrain interactions
  (orphaned jobs), scheduler ``forget`` exactly once, churn telemetry;
* **churn loadgen** — ``SessionPlan`` / ``run_churn_load`` arrival and
  departure schedules;
* **soak** — a seeded randomized run of 200+ rounds mixing joins, drains,
  hard removals, retrain triggers, adaptive weights and backpressure,
  asserting the conservation invariants that make churn safe: a drained
  session loses no accepted frame, ``accepted == served + dropped`` fleet
  wide, and the scheduler leaks no credit for departed sessions.

Survivor invariance — a surviving session's timelines are bit-identical
whichever churn storm happens around it — is checked against the
sequential oracle (``oracle.py``): at the points pinned in
:class:`TestSurvivorInvariance`, and at random draws in
``test_differential.py``.
"""

import pytest

from oracle import (
    FC,
    S10,
    SOAK_ROUNDS,
    TRACK,
    Draw,
    RotateStub,
    assert_scenario_fires,
    check,
    churn_soak,
    clean_traffic,
    jump_traffic,
    make_session,
)
from repro.extraction import HybridDemapper
from repro.serving import (
    EngineConfig,
    RETRAINING,
    DeficitRoundRobin,
    ServingEngine,
    SessionPlan,
    WeightController,
    run_churn_load,
)


class ForgetSpy(DeficitRoundRobin):
    """Counts ``forget`` calls per session id (must be exactly one per leave)."""

    def __init__(self):
        super().__init__()
        self.forgotten: dict[str, int] = {}

    def forget(self, session_id):
        self.forgotten[session_id] = self.forgotten.get(session_id, 0) + 1
        super().forget(session_id)


class TestRemoveSession:
    def test_drained_session_serves_accepted_frames_then_leaves(self, qam16):
        served = []
        engine = ServingEngine(config=EngineConfig(
            on_frame=lambda s, f, llrs, rep: served.append((s.session_id, f.seq))
        ))
        session = engine.add_session(make_session(qam16, "leaver", seed=1))
        frames = clean_traffic(qam16, 3, 5)
        for f in frames:
            assert engine.submit("leaver", f)
        assert engine.remove_session("leaver", drain=True) == 0
        # draining: no new submissions, but every accepted frame is served
        assert not engine.submit("leaver", frames[0])
        assert session.stats.drain_refusals == 1
        assert session.stats.rejects == 0  # a drain refusal is not backpressure
        engine.drain()
        assert [seq for _, seq in served] == [0, 1, 2]
        assert session.stats.frames_served == 3
        assert session.stats.frames_dropped == 0
        with pytest.raises(KeyError):
            engine.session("leaver")
        tele = engine.telemetry
        assert tele.drains_started == tele.drains_completed == 1
        assert tele.joins == 1 and tele.leaves == 1
        assert tele.frames_dropped == 0

    def test_drain_is_idempotent(self, qam16):
        engine = ServingEngine()
        engine.add_session(make_session(qam16, "s0"))
        engine.submit("s0", clean_traffic(qam16, 1, 2)[0])
        engine.remove_session("s0", drain=True)
        engine.remove_session("s0", drain=True)  # no-op, not an error
        assert engine.telemetry.drains_started == 1
        engine.drain()
        assert engine.telemetry.drains_completed == 1

    def test_drain_of_empty_session_removes_immediately(self, qam16):
        engine = ServingEngine()
        engine.add_session(make_session(qam16, "idle"))
        engine.remove_session("idle", drain=True)
        assert engine.sessions == ()  # nothing to serve: gone at once
        assert engine.telemetry.drains_completed == 1

    def test_hard_removal_drops_queue_and_reports_count(self, qam16):
        engine = ServingEngine()
        session = engine.add_session(make_session(qam16, "s0"))
        for f in clean_traffic(qam16, 3, 7):
            engine.submit("s0", f)
        dropped = engine.remove_session("s0", drain=False)
        assert dropped == 3
        assert session.stats.frames_dropped == 3
        assert engine.telemetry.frames_dropped == 3
        assert engine.telemetry.leaves == 1
        assert engine.telemetry.drains_started == 0
        assert engine.sessions == ()

    def test_remove_unknown_session_raises_keyerror(self, qam16):
        engine = ServingEngine()
        with pytest.raises(KeyError, match="ghost"):
            engine.remove_session("ghost")

    def test_fleet_timeline_tracks_joins_and_leaves(self, qam16):
        engine = ServingEngine()
        engine.add_session(make_session(qam16, "a"))
        engine.add_session(make_session(qam16, "b"))
        engine.remove_session("a", drain=False)
        sizes = [size for _, size in engine.telemetry.fleet_timeline]
        assert sizes == [1, 2, 1]
        assert engine.telemetry.snapshot()["fleet_timeline"] == [(0, 1), (0, 2), (0, 1)]

    def test_forget_called_exactly_once_and_credit_dropped(self, qam16):
        spy = ForgetSpy()
        engine = ServingEngine(config=EngineConfig(scheduler=spy))
        engine.add_session(make_session(qam16, "drained", weight=0.5))
        engine.add_session(make_session(qam16, "hard", weight=0.5))
        for sid in ("drained", "hard"):
            for f in clean_traffic(qam16, 2, 3):
                engine.submit(sid, f)
        engine.step()  # both accrue fractional credit (weight .5: no serve yet)
        assert spy.credit("drained") == 0.5 and spy.credit("hard") == 0.5
        engine.remove_session("hard", drain=False)
        engine.remove_session("drained", drain=True)
        engine.drain()
        assert spy.forgotten == {"drained": 1, "hard": 1}
        assert spy.credits() == {}  # departed sessions leak nothing

    def test_session_id_reusable_after_removal(self, qam16):
        engine = ServingEngine()
        engine.add_session(make_session(qam16, "s0"))
        engine.remove_session("s0", drain=False)
        fresh = engine.add_session(make_session(qam16, "s0", seed=9))
        assert engine.session("s0") is fresh
        assert engine.telemetry.joins == 2 and engine.telemetry.leaves == 1

    def test_adding_a_draining_session_is_rejected(self, qam16):
        engine = ServingEngine()
        session = make_session(qam16, "s0")
        session.draining = True
        with pytest.raises(ValueError, match="draining"):
            engine.add_session(session)

    def test_draining_session_never_escalates_to_retrain(self, qam16):
        engine = ServingEngine()
        session = engine.add_session(
            make_session(qam16, "s0", retrain=RotateStub(qam16), threshold=0.12,
                         queue_depth=8)
        )
        for f in jump_traffic(qam16, 6, 11, step=0):  # degraded from frame 0
            assert engine.submit("s0", f)
        engine.remove_session("s0", drain=True)
        assert not session.can_retrain  # policy present, but leaving
        engine.drain()
        assert session.stats.frames_served == 6  # kept serving degraded
        assert session.stats.trigger_seqs  # the monitor did fire
        assert session.stats.retrains == 0
        assert engine.telemetry.retrains_started == 0

    def test_drain_waits_for_inflight_retrain_then_serves_and_leaves(self, qam16):
        import threading

        release = threading.Event()
        corrected = HybridDemapper(constellation=qam16, sigma2=S10)

        def slow_policy(rng):
            release.wait(timeout=30)
            return corrected

        engine = ServingEngine(config=EngineConfig(retrain_workers=1))
        session = engine.add_session(
            make_session(qam16, "s0", retrain=slow_policy, threshold=0.12)
        )
        frames = jump_traffic(qam16, 6, 13, step=0)
        for f in frames[:4]:
            engine.submit("s0", f)
        for _ in range(4):
            engine.step()  # trigger fires; retrain parks on the worker
        assert session.state == RETRAINING and session.pending > 0
        engine.remove_session("s0", drain=True)
        engine.step()
        assert engine.session("s0") is session  # still waiting on the swap
        release.set()
        engine.drain()
        assert session.stats.retrains == 1          # the swap still landed
        assert session.stats.frames_served == 4     # queue fully served
        assert session.stats.frames_dropped == 0    # drained: nothing lost
        with pytest.raises(KeyError):
            engine.session("s0")
        engine.close()

    def test_hard_removal_orphans_inflight_retrain(self, qam16):
        import threading

        release = threading.Event()

        def slow_failing_policy(rng):
            release.wait(timeout=30)
            raise RuntimeError("retrain exploded after its session left")

        engine = ServingEngine(config=EngineConfig(retrain_workers=1))
        session = engine.add_session(
            make_session(qam16, "s0", retrain=slow_failing_policy, threshold=0.12)
        )
        for f in jump_traffic(qam16, 4, 17, step=0):
            engine.submit("s0", f)
        for _ in range(4):
            engine.step()
        assert session.state == RETRAINING
        dropped = engine.remove_session("s0", drain=False)
        assert dropped == session.stats.frames_dropped > 0
        assert engine.telemetry.retrains_orphaned == 1
        assert engine.worker.pending == 0  # nothing left that could install
        release.set()
        engine.close()  # the orphan's failure is swallowed, not raised
        assert session.stats.retrains == 0  # never installed into the ghost


class TestChurnLoadgen:
    def test_plan_validation(self, qam16):
        session = make_session(qam16, "s0")
        frames = clean_traffic(qam16, 2, 1)
        with pytest.raises(ValueError):
            SessionPlan(session, frames, join_round=-1)
        with pytest.raises(ValueError):
            SessionPlan(session, frames, join_round=3, leave_round=3)

    def test_arrivals_departures_and_residents(self, qam16):
        engine = ServingEngine()
        resident = make_session(qam16, "resident", seed=1)
        drainer = make_session(qam16, "drainer", seed=2, queue_depth=8)
        hard = make_session(qam16, "hard", seed=3, queue_depth=8)
        late = make_session(qam16, "late", seed=4)
        plans = [
            SessionPlan(resident, clean_traffic(qam16, 6, 11)),
            SessionPlan(drainer, clean_traffic(qam16, 8, 12), leave_round=3),
            SessionPlan(hard, clean_traffic(qam16, 8, 13), leave_round=3, drain=False),
            SessionPlan(late, clean_traffic(qam16, 3, 14), join_round=4),
        ]
        stats = run_churn_load(engine, plans, max_rounds=100)
        # residents fully served
        assert resident.stats.frames_served == 6
        assert late.stats.frames_served == 3
        # the drainer lost nothing it accepted; the producer stopped at round 3
        assert drainer.stats.frames_dropped == 0
        assert drainer.stats.frames_served >= 3
        # the hard leaver had queued frames discarded
        assert hard.stats.frames_served + hard.stats.frames_dropped >= 3
        assert stats.joins == 4 and stats.leaves == 2
        assert {s.session_id for s in engine.sessions} == {"resident", "late"}

    def test_max_rounds_guard(self, qam16):
        engine = ServingEngine()
        plans = [SessionPlan(make_session(qam16, "s0"), clean_traffic(qam16, 50, 1))]
        with pytest.raises(RuntimeError, match="max_rounds"):
            run_churn_load(engine, plans, max_rounds=3)

    def test_leaver_with_early_finished_traffic_is_still_removed(self, qam16):
        """A leaver whose traffic runs dry before leave_round departs at its
        scheduled round anyway — the run must not return with the session
        still registered (phantom resident, missing leave telemetry)."""
        engine = ServingEngine()
        resident = make_session(qam16, "resident", seed=1)
        leaver = make_session(qam16, "leaver", seed=2)
        plans = [
            SessionPlan(resident, clean_traffic(qam16, 12, 3)),
            # 2 frames, served by ~round 2; departure scheduled at round 8
            SessionPlan(leaver, clean_traffic(qam16, 2, 4), leave_round=8),
        ]
        stats = run_churn_load(engine, plans, max_rounds=100)
        assert leaver.stats.frames_served == 2
        assert {s.session_id for s in engine.sessions} == {"resident"}
        assert stats.leaves == 1 and stats.drains_completed == 1


class TestChurnSoak:
    """``oracle.churn_soak`` with adaptive weights: 210 rounds of joins,
    drains, hard removals, retrain triggers and backpressure, conservation
    invariants checked every round."""

    def run_soak(self, qam, seed, *, retrain_workers=0):
        engine = ServingEngine(config=EngineConfig(
            retrain_workers=retrain_workers,
            weight_controller=WeightController(slo=FC.total_symbols * 6, interval=4),
        ))
        accepted, sessions, hard = churn_soak(engine, qam, seed, jumpy_rate=0.4)
        drained = [s for s in sessions if s not in hard]
        return engine, accepted, drained, hard

    @pytest.mark.parametrize("retrain_workers", [0, 2])
    def test_soak_conserves_frames_and_credit(self, qam16, retrain_workers):
        engine, accepted, drained, hard = self.run_soak(
            qam16, seed=2026, retrain_workers=retrain_workers
        )
        tele = engine.telemetry
        # the soak actually exercised everything it claims to
        assert tele.rounds >= SOAK_ROUNDS
        assert tele.joins > 4 and tele.leaves == tele.joins  # all left at the end
        assert tele.drains_completed == len(drained)
        assert len(hard) > 0 and tele.frames_dropped > 0
        assert tele.retrains_started > 0
        assert sum(s.stats.rejects for s in drained + hard) > 0, "no backpressure?"
        # no frame loss for drained sessions: accepted == served, exactly
        for session in drained:
            sid = session.session_id
            assert session.stats.frames_served == accepted[sid], sid
            assert session.stats.frames_dropped == 0
        # hard removals: every accepted frame is accounted served-or-dropped
        for session in hard:
            sid = session.session_id
            assert (
                session.stats.frames_served + session.stats.frames_dropped
                == accepted[sid]
            ), sid
        # fleet-wide conservation
        total_accepted = sum(accepted.values())
        total_served = sum(s.stats.frames_served for s in drained + hard)
        assert total_served == tele.frames_served
        assert total_accepted == total_served + tele.frames_dropped
        # scheduler fully quiesced
        assert engine.scheduler.credits() == {}
        # fleet-size timeline bookends: grows from the seed fleet, ends empty
        assert engine.telemetry.fleet_timeline[0][1] == 1
        assert engine.telemetry.fleet_timeline[-1][1] == 0

    def test_soak_is_deterministic(self, qam16):
        a = self.run_soak(qam16, seed=7)[0].telemetry.snapshot()
        b = self.run_soak(qam16, seed=7)[0].telemetry.snapshot()
        assert a == b


class TestSurvivorInvariance:
    """The tracking fleet's timelines are invariant to the churn storm
    around it (``run_churn_load``), the micro-batch width and the retrain
    worker count."""

    def test_reference_scenario_adapts(self):
        assert_scenario_fires(TRACK)

    @pytest.mark.parametrize("churn_seed", [1, 2, 3])
    def test_invariant_to_churn_schedule(self, churn_seed):
        check(Draw(TRACK, churn=churn_seed))

    @pytest.mark.parametrize("max_batch", [2, 64])
    def test_invariant_to_batch_width_under_churn(self, max_batch):
        check(Draw(TRACK, churn=5, max_batch=max_batch))

    @pytest.mark.parametrize("retrain_workers", [1, 3])
    def test_invariant_to_worker_count_under_churn(self, retrain_workers):
        check(Draw(TRACK, churn=5, workers=retrain_workers))
