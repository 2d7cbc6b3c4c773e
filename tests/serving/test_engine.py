"""ServingEngine: correctness vs the sequential path, triggers, telemetry."""

import numpy as np
import pytest

from repro.channels import sigma2_from_snr
from repro.channels.factories import AWGNFactory, CompositeFactory, PhaseOffsetFactory
from repro.extraction import HybridDemapper
from repro.extraction.monitor import PilotBERMonitor
from repro.link.frames import FrameConfig, frame_bers
from repro.serving import (
    EngineConfig,
    ServingEngine,
    SessionConfig,
    SteadyChannel,
    SteppedChannel,
    build_fleet,
    generate_traffic,
    run_load,
)

SIGMA2 = sigma2_from_snr(8.0, 4)
FC = FrameConfig(pilot_symbols=16, payload_symbols=48)


def fleet(engine, qam, n_sessions, *, retrain_factory=None, queue_depth=4, monitor=None):
    return build_fleet(
        engine,
        n_sessions,
        HybridDemapper(constellation=qam, sigma2=SIGMA2),
        monitor_factory=monitor if monitor is not None else (lambda: PilotBERMonitor(0.12, window=2, cooldown=2)),
        config=SessionConfig(frame=FC, queue_depth=queue_depth),
        retrain_factory=retrain_factory,
        seed=42,
    )


def awgn_traffic(qam, sessions, n_frames, seed=5):
    rng = np.random.default_rng(seed)
    chan = SteadyChannel(AWGNFactory(8.0, 4))
    return {
        s.session_id: generate_traffic(qam, FC, n_frames, chan, r)
        for s, r in zip(sessions, rng.spawn(len(sessions)))
    }


class TestServingCorrectness:
    def test_llrs_and_bers_match_sequential_reference(self, qam16):
        """Batched serving == per-frame hybrid.llrs + frame_bers, bit for bit."""
        captured = {}
        engine = ServingEngine(config=EngineConfig(
            on_frame=lambda s, f, llrs, rep: captured.__setitem__(
                (s.session_id, f.seq), (llrs.copy(), rep)
            )
        ))
        sessions = fleet(engine, qam16, 5)
        traffic = awgn_traffic(qam16, sessions, 3)
        run_load(engine, traffic)
        assert len(captured) == 15
        for s in sessions:
            hybrid = s.hybrid
            for frame in traffic[s.session_id]:
                llrs, rep = captured[(s.session_id, frame.seq)]
                ref = hybrid.llrs(frame.received)
                assert np.array_equal(llrs, ref)
                hat = (ref > 0).astype(np.int8)
                pilot, payload = frame_bers(
                    hat, qam16.bit_matrix[frame.indices], frame.pilot_mask
                )
                assert rep.pilot_ber == pilot
                assert rep.payload_ber == payload

    def test_per_session_sigma2_scales_llrs(self, qam16):
        engine = ServingEngine(config=EngineConfig(
            on_frame=lambda s, f, llrs, rep: caps.__setitem__(s.session_id, llrs.copy())
        ))
        caps = {}
        hybrid = HybridDemapper(constellation=qam16, sigma2=SIGMA2)
        sessions = build_fleet(
            engine, 2, hybrid,
            monitor_factory=lambda: PilotBERMonitor(0.5, window=8),
            config=SessionConfig(frame=FC),
        )
        sessions[1].update_sigma2(2 * SIGMA2)
        traffic = awgn_traffic(qam16, sessions, 1)
        # same received row for both sessions isolates the sigma effect
        traffic[sessions[1].session_id] = traffic[sessions[0].session_id]
        run_load(engine, traffic)
        a, b = caps[sessions[0].session_id], caps[sessions[1].session_id]
        assert np.allclose(a, 2 * b)

    def test_telemetry_counters(self, qam16):
        engine = ServingEngine(config=EngineConfig(max_batch=3))
        sessions = fleet(engine, qam16, 4)
        traffic = awgn_traffic(qam16, sessions, 2)
        stats = run_load(engine, traffic)
        assert stats.frames_served == 8
        assert stats.symbols_served == 8 * FC.total_symbols
        # max_batch=3 splits each 4-wide round into 3+1
        assert stats.occupancy == {3: 2, 1: 2}
        assert stats.mean_occupancy == 2.0
        for s in sessions:
            assert s.stats.frames_served == 2
            assert s.stats.symbols_served == 2 * FC.total_symbols
            assert len(s.stats.pilot_ber_trajectory) == 2


class TestAdaptationLoop:
    def test_trigger_retrain_swap_recovers(self, qam16):
        """Phase jump -> monitor fires -> swap to corrected centroids -> BER recovers."""
        offset = np.pi / 5
        corrected = HybridDemapper(
            constellation=type(qam16)(points=qam16.points * np.exp(1j * offset)),
            sigma2=SIGMA2,
        )
        engine = ServingEngine()
        sessions = fleet(engine, qam16, 3, retrain_factory=lambda i: (lambda rng: corrected))
        chan = SteppedChannel(
            AWGNFactory(8.0, 4),
            CompositeFactory((PhaseOffsetFactory(offset), AWGNFactory(8.0, 4))),
            step_seq=4,
        )
        rng = np.random.default_rng(9)
        traffic = {
            s.session_id: generate_traffic(qam16, FC, 12, chan, r)
            for s, r in zip(sessions, rng.spawn(3))
        }
        stats = run_load(engine, traffic)
        assert stats.retrains_started == stats.retrains_completed == 3
        for s in sessions:
            traj = s.stats.pilot_ber_trajectory
            assert s.stats.retrains == 1
            # the windowed mean crosses the threshold within a frame or two
            # of the jump — exactly once, because the swap fixes the channel
            assert len(s.stats.trigger_seqs) == 1
            t = s.stats.trigger_seqs[0]
            assert t in (4, 5)
            assert s.hybrid is corrected
            # healthy before the jump, catastrophic until the trigger frame
            # (still served by the stale centroids), healthy after the swap
            assert max(traj[:4]) < 0.05
            assert traj[t] > 0.1
            assert max(traj[t + 1 :]) < 0.05

    def test_sessions_without_policy_keep_serving(self, qam16):
        engine = ServingEngine()
        sessions = fleet(engine, qam16, 2, retrain_factory=None)
        chan = SteppedChannel(
            AWGNFactory(8.0, 4),
            CompositeFactory((PhaseOffsetFactory(np.pi / 4), AWGNFactory(8.0, 4))),
            step_seq=2,
        )
        rng = np.random.default_rng(3)
        traffic = {
            s.session_id: generate_traffic(qam16, FC, 8, chan, r)
            for s, r in zip(sessions, rng.spawn(2))
        }
        stats = run_load(engine, traffic)
        assert stats.frames_served == 16  # nothing stalls
        assert stats.retrains_started == 0
        for s in sessions:
            assert s.stats.trigger_seqs  # triggers recorded even without a policy
            assert s.stats.retrains == 0

    def test_retraining_session_never_stalls_others(self, qam16):
        """While one session's job is in flight, others keep being served."""
        import threading

        release = threading.Event()
        corrected = HybridDemapper(
            constellation=type(qam16)(points=qam16.points * np.exp(1j * np.pi / 4)),
            sigma2=SIGMA2,
        )

        def slow_policy(rng):
            release.wait(timeout=30)
            return corrected

        engine = ServingEngine(config=EngineConfig(retrain_workers=1))
        sessions = fleet(
            engine, qam16, 3, retrain_factory=lambda i: slow_policy if i == 0 else None
        )
        chan = SteppedChannel(
            AWGNFactory(8.0, 4),
            CompositeFactory((PhaseOffsetFactory(np.pi / 4), AWGNFactory(8.0, 4))),
            step_seq=1,
        )
        rng = np.random.default_rng(4)
        traffic = {
            s.session_id: generate_traffic(qam16, FC, 6, chan, r)
            for s, r in zip(sessions, rng.spawn(3))
        }
        for sid, frames in traffic.items():
            for f in frames[:4]:
                engine.submit(sid, f)
        # serve rounds while session 0's retrain is parked on the worker
        for _ in range(6):
            engine.step()
        assert sessions[0].stats.frames_served < 4   # paused at the trigger
        assert sessions[1].stats.frames_served == 4  # unaffected
        assert sessions[2].stats.frames_served == 4
        release.set()
        engine.worker.wait_all()
        engine.drain()
        assert sessions[0].stats.retrains == 1
        engine.close()


class TestRetrainWorker:
    def test_failed_job_surfaces_as_outcome_and_installs_land_once(self, qam16):
        """poll() never raises: a raising job becomes a ``(session, exc)``
        outcome (surfaced exactly once via take_outcomes), finished jobs
        install exactly once, and the pool still shuts down cleanly."""
        import time

        from repro.serving import RetrainWorker

        good = HybridDemapper(constellation=qam16, sigma2=SIGMA2)
        engine = ServingEngine()
        ok_session, bad_session = fleet(engine, qam16, 2)

        worker = RetrainWorker(2)
        worker.submit(ok_session, lambda rng: good, np.random.default_rng(0))

        def boom(rng):
            raise RuntimeError("retrain exploded")

        worker.submit(bad_session, boom, np.random.default_rng(1))
        outcomes = []
        deadline = time.monotonic() + 10
        while worker.pending and time.monotonic() < deadline:
            worker.poll()  # must never raise on a job's behalf
            outcomes += worker.take_outcomes()
            time.sleep(0.01)
        outcomes += worker.take_outcomes()
        assert worker.pending == 0  # failed job consumed, not stuck
        assert ok_session.stats.retrains == 1  # installed exactly once
        by_session = {s.session_id: err for s, err in outcomes}
        assert by_session[ok_session.session_id] is None
        assert "retrain exploded" in str(by_session[bad_session.session_id])
        worker.poll()  # no re-install
        assert ok_session.stats.retrains == 1
        assert worker.take_outcomes() == []  # surfaced exactly once
        worker.close()  # pool shuts down cleanly after the failure

    def test_close_credits_late_swaps_to_telemetry(self, qam16):
        """Swaps landing in engine.close() still count as completed."""
        import threading

        release = threading.Event()
        good = HybridDemapper(constellation=qam16, sigma2=SIGMA2)

        def slow(rng):
            release.wait(timeout=30)
            return good

        engine = ServingEngine(config=EngineConfig(retrain_workers=1))
        (session,) = fleet(engine, qam16, 1, retrain_factory=lambda i: slow)
        session.monitor.observe(0.5)  # fill the window so the next frame fires
        engine.telemetry.retrains_started += 1
        rng = session.begin_retrain()
        engine.worker.submit(session, session.retrain, rng)
        release.set()
        engine.close()
        assert engine.telemetry.retrains_completed == 1
        assert session.stats.retrains == 1


class TestDrainGuard:
    """drain() must fail loudly, naming the culprits, instead of spinning."""

    def test_no_progress_error_names_stuck_sessions(self, qam16):
        engine = ServingEngine()
        stuck, healthy = fleet(engine, qam16, 2)
        frames = awgn_traffic(qam16, [stuck, healthy], 2)
        for s in (stuck, healthy):
            for f in frames[s.session_id]:
                engine.submit(s.session_id, f)
        # pause with no job in flight: nothing can ever make progress
        stuck.begin_retrain()
        with pytest.raises(RuntimeError, match=stuck.session_id):
            engine.drain()
        assert healthy.stats.frames_served == 2  # others drained first

    def test_max_rounds_guard_catches_spinning_scheduler(self, qam16):
        from repro.serving import DeficitRoundRobin

        class StuckScheduler(DeficitRoundRobin):
            def allocate(self, sessions):
                return {}  # pathological: never grants a quota

        engine = ServingEngine(config=EngineConfig(scheduler=StuckScheduler()))
        (session,) = fleet(engine, qam16, 1)
        engine.submit(session.session_id, awgn_traffic(qam16, [session], 1)[
            session.session_id][0])
        # the session stays ready forever, so the unguarded loop would spin;
        # the guard raises and names it
        with pytest.raises(RuntimeError, match="max_rounds=25"):
            engine.drain(max_rounds=25)
        with pytest.raises(RuntimeError, match=session.session_id):
            engine.drain(max_rounds=5)

    def test_max_rounds_generous_enough_passes(self, qam16):
        engine = ServingEngine()
        sessions = fleet(engine, qam16, 2)
        traffic = awgn_traffic(qam16, sessions, 3)
        for sid, frames in traffic.items():
            for f in frames:
                engine.submit(sid, f)
        assert engine.drain(max_rounds=100) == 6

    def test_drain_finishing_exactly_on_the_bound_returns(self, qam16):
        """Completion is checked before the guard: a drain that needs
        exactly max_rounds rounds must return, not raise with an empty
        stuck-session list."""
        engine = ServingEngine()
        (session,) = fleet(engine, qam16, 1)
        for f in awgn_traffic(qam16, [session], 3)[session.session_id]:
            engine.submit(session.session_id, f)
        assert engine.drain(max_rounds=3) == 3  # one frame per round

    def test_max_rounds_validation(self, qam16):
        with pytest.raises(ValueError):
            ServingEngine().drain(max_rounds=0)

    def test_run_load_max_rounds_raises_like_drain(self, qam16):
        """max_rounds means the same thing across drain/run_load/
        run_churn_load: a safety bound that raises, never a silent stop."""
        engine = ServingEngine()
        sessions = fleet(engine, qam16, 1)
        traffic = awgn_traffic(qam16, sessions, 10)
        with pytest.raises(RuntimeError, match="max_rounds=2"):
            run_load(engine, traffic, max_rounds=2)
        # a bound the run fits inside — including finishing exactly on it —
        # completes normally
        engine2 = ServingEngine()
        sessions2 = fleet(engine2, qam16, 1)
        stats = run_load(engine2, awgn_traffic(qam16, sessions2, 3), max_rounds=3)
        assert stats.frames_served == 3


class TestEngineApi:
    def test_duplicate_session_rejected(self, qam16):
        engine = ServingEngine()
        fleet(engine, qam16, 1)
        with pytest.raises(ValueError, match="duplicate"):
            fleet(engine, qam16, 1)

    def test_submit_unknown_session_raises(self, qam16):
        with pytest.raises(KeyError):
            ServingEngine().submit("nope", None)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingEngine(config=EngineConfig(max_batch=0))
        with pytest.raises(ValueError):
            ServingEngine(config=EngineConfig(retrain_workers=-1))

    def test_context_manager_closes_worker(self, qam16):
        with ServingEngine(config=EngineConfig(retrain_workers=1)) as engine:
            fleet(engine, qam16, 1)
        assert engine.worker.pending == 0
