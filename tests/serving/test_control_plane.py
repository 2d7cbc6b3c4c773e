"""Serving control plane: in-loop σ², tiered adaptation, latency telemetry.

Two contracts on top of the determinism story:

* **σ² loop** — each session's noise estimate follows a drifting SNR from
  its own pilots (EWMA over :func:`repro.link.estimation.
  estimate_noise_sigma2`), deterministically;
* **tier ladder** — a monitor trigger is answered by the cheap rigid
  tracking tier first; retrain+re-extract runs only for non-rigid warps or
  persisting degradation, and a recovered session re-arms the ladder.

Their invariance to batch width, queue depth, workers and scheduler
weights is checked against the sequential oracle (``oracle.py``): at the
points pinned in :class:`TestControlPlaneDeterminism`, and at random draws
in ``test_differential.py``.
"""

import numpy as np
import pytest

from oracle import TRACK, Draw, assert_scenario_fires, check
from repro.channels import sigma2_from_snr
from repro.channels.factories import (
    AWGNFactory,
    CompositeFactory,
    IQImbalanceFactory,
    PhaseOffsetFactory,
)
from repro.extraction import HybridDemapper, PilotBERMonitor
from repro.link.frames import FrameConfig
from repro.serving import (
    EngineConfig,
    LatencyHistogram,
    ServingEngine,
    SessionConfig,
    SteadyChannel,
    SteppedChannel,
    build_fleet,
    generate_traffic,
    run_load,
)

S10 = sigma2_from_snr(10.0, 4)
S8 = sigma2_from_snr(8.0, 4)
FC = FrameConfig(pilot_symbols=32, payload_symbols=96)


def control_plane_config(**overrides):
    defaults = dict(
        frame=FC,
        queue_depth=4,
        sigma2_alpha=0.5,
        tracking=True,
        track_attempts=1,
        track_residual=0.8,
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


def stub_policy(qam, sigma2=S10):
    """Deterministic retrain stand-in (restores the clean constellation)."""
    return lambda rng: HybridDemapper(constellation=qam, sigma2=sigma2)


class TestSigma2Loop:
    def run_snr_step(self, qam, alpha, *, n_frames=14, seed=3):
        engine = ServingEngine()
        (session,) = build_fleet(
            engine, 1, HybridDemapper(constellation=qam, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.9, window=4),  # never fires
            config=control_plane_config(sigma2_alpha=alpha, tracking=False),
            seed=11,
        )
        chan = SteppedChannel(AWGNFactory(10.0, 4), AWGNFactory(6.0, 4), step_seq=4)
        traffic = {session.session_id: generate_traffic(qam, FC, n_frames, chan, seed)}
        run_load(engine, traffic)
        return session

    def test_sigma2_tracks_snr_drop(self, qam16):
        """An AWGN 10 dB → 6 dB step: the EWMA converges to the new floor."""
        s6 = sigma2_from_snr(6.0, 4)
        session = self.run_snr_step(qam16, alpha=0.4)
        traj = session.stats.sigma2_trajectory
        assert len(traj) == 14
        assert abs(traj[2] - S10) < 0.15 * S10          # pre-step: old floor
        assert abs(traj[-1] - s6) < 0.25 * s6           # post-step: converged
        assert traj[-1] > 1.8 * traj[2]                 # and it visibly moved
        assert session.sigma2 == traj[-1]

    def test_alpha_zero_keeps_sigma2_fixed(self, qam16):
        session = self.run_snr_step(qam16, alpha=0.0)
        assert list(session.stats.sigma2_trajectory) == [S10] * 14

    def test_sigma2_trajectory_is_deterministic(self, qam16):
        a = self.run_snr_step(qam16, alpha=0.4).stats.sigma2_trajectory
        b = self.run_snr_step(qam16, alpha=0.4).stats.sigma2_trajectory
        assert a == b  # bit-identical floats, not just close

    def test_updated_sigma2_scales_next_frames_llrs(self, qam16):
        """Frame n is demapped with the σ² left by frames < n (causal loop)."""
        caps = {}
        engine = ServingEngine(config=EngineConfig(
            on_frame=lambda s, f, llrs, rep: caps.__setitem__(f.seq, (llrs.copy(), rep))
        ))
        (session,) = build_fleet(
            engine, 1, HybridDemapper(constellation=qam16, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.9, window=4),
            config=control_plane_config(sigma2_alpha=1.0, tracking=False),
            seed=2,
        )
        traffic = {
            session.session_id: generate_traffic(
                qam16, FC, 2, SteadyChannel(AWGNFactory(8.0, 4)), 5
            )
        }
        run_load(engine, traffic)
        f0, f1 = traffic[session.session_id]
        # frame 0 used the initial σ²; its report carries the post-update one
        llrs0, rep0 = caps[0]
        assert np.array_equal(llrs0, session.hybrid.core.llrs(f0.received, S10))
        assert rep0.sigma2 != S10
        # frame 1 was demapped with exactly frame 0's updated estimate
        llrs1, _ = caps[1]
        assert np.array_equal(llrs1, session.hybrid.core.llrs(f1.received, rep0.sigma2))


class TestTieredAdaptation:
    def run_fleet(self, qam, after_factory, *, config=None, n_frames=16,
                  n_sessions=4, step=4, with_policy=True, seed=21, fleet_seed=99):
        engine = ServingEngine()
        sessions = build_fleet(
            engine, n_sessions, HybridDemapper(constellation=qam, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.12, window=2, cooldown=2),
            config=config if config is not None else control_plane_config(),
            retrain_factory=(lambda i: stub_policy(qam)) if with_policy else None,
            seed=fleet_seed,
        )
        chan = SteppedChannel(AWGNFactory(10.0, 4), after_factory, step_seq=step)
        rng = np.random.default_rng(seed)
        traffic = {
            s.session_id: generate_traffic(qam, FC, n_frames, chan, r)
            for s, r in zip(sessions, rng.spawn(n_sessions))
        }
        run_load(engine, traffic)
        return engine, sessions

    def test_rigid_snr_drop_recovers_via_tracking_without_retrain(self, qam16):
        """Acceptance scenario: a π/4 rotation + 10→8 dB SNR drop is fully
        absorbed by the tracking tier — pilot BER returns below threshold,
        zero retrains fleet-wide, and the σ² loop lands on the new floor."""
        after = CompositeFactory((PhaseOffsetFactory(np.pi / 4), AWGNFactory(8.0, 4)))
        engine, sessions = self.run_fleet(qam16, after)
        assert engine.telemetry.retrains_started == 0
        assert engine.telemetry.tracks == len(sessions)
        for s in sessions:
            assert s.stats.retrains == 0
            assert s.stats.tracks == 1
            assert s.stats.tier_timeline == [(4, "track")]
            traj = np.array(s.stats.pilot_ber_trajectory)
            assert max(traj[:4]) < 0.05         # healthy before the jump
            assert traj[4] > 0.12               # catastrophic at the trigger
            assert max(traj[5:]) < 0.08         # recovered by the rigid tier
            # σ² followed the drop: from the 10 dB floor to ~the 8 dB floor
            assert 0.7 * S8 < s.stats.sigma2_trajectory[-1] < 1.4 * S8

    def test_persistent_degradation_escalates_to_retrain(self, qam16):
        """Rotation + SNR crash to 0 dB: the rigid tier fixes the rotation
        but BER stays degraded, so the next trigger escalates."""
        after = CompositeFactory((PhaseOffsetFactory(np.pi / 4), AWGNFactory(0.0, 4)))
        engine, sessions = self.run_fleet(qam16, after)
        assert engine.telemetry.retrains_started > 0
        for s in sessions:
            assert s.stats.tracks >= 1 and s.stats.retrains >= 1
            # ladder order: cheap tier first, escalation second
            assert s.stats.tier_timeline[0][1] == "track"
            assert s.stats.tier_timeline[1][1] == "retrain"

    def test_nonrigid_warp_escalates_at_the_trigger(self, qam16):
        """IQ-imbalance warp: the tracker's residual check rejects the rigid
        model immediately — the very first trigger retrains."""
        after = CompositeFactory((IQImbalanceFactory(8.0, 0.8), AWGNFactory(10.0, 4)))
        engine, sessions = self.run_fleet(
            qam16, after,
            config=control_plane_config(sigma2_alpha=0.25, track_residual=0.35),
        )
        for s in sessions:
            # the very first trigger escalated at the trigger itself — the
            # rigid probe ran (tracks >= 1) and flagged the warp, so no
            # tracking-only response preceded the first retrain
            assert s.stats.tier_timeline[0][1] == "retrain"
            assert s.stats.tracks >= 1 and s.stats.retrains >= 1

    def test_tracking_without_policy_never_escalates(self, qam16):
        """No retrain policy: every trigger stays on the tracking tier and
        the fleet keeps streaming (no stall, no pause)."""
        after = CompositeFactory((PhaseOffsetFactory(np.pi / 4), AWGNFactory(0.0, 4)))
        engine, sessions = self.run_fleet(qam16, after, with_policy=False)
        assert engine.telemetry.retrains_started == 0
        for s in sessions:
            assert s.stats.frames_served == 16
            assert s.stats.retrains == 0
            assert all(tier == "track" for _, tier in s.stats.tier_timeline)

    def test_recovery_rearms_the_ladder(self, qam16):
        """Two well-separated rigid jumps with track_attempts=1: the healthy
        window between them resets the track streak, so the second jump is
        again answered by tracking instead of escalating."""

        clean = AWGNFactory(10.0, 4)
        jump1 = CompositeFactory((PhaseOffsetFactory(np.pi / 4), clean))
        jump2 = CompositeFactory((PhaseOffsetFactory(np.pi / 2), clean))

        def chan(rng, seq):
            factory = clean if seq < 3 else (jump1 if seq < 9 else jump2)
            return factory(rng)

        engine = ServingEngine()
        (session,) = build_fleet(
            engine, 1, HybridDemapper(constellation=qam16, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.12, window=2, cooldown=2),
            config=control_plane_config(),
            retrain_factory=lambda i: stub_policy(qam16),
            seed=13,
        )
        traffic = {session.session_id: generate_traffic(qam16, FC, 16, chan, 77)}
        run_load(engine, traffic)
        assert session.stats.retrains == 0   # escalation never needed
        assert session.stats.tracks == 2
        assert [tier for _, tier in session.stats.tier_timeline] == ["track", "track"]


class TestLatencyTelemetry:
    def test_histogram_buckets_mean_and_quantiles(self):
        h = LatencyHistogram()
        for v in (0, 1, 5, 5, 300):
            h.record(v)
        assert h.count == 5
        assert h.total == 311
        assert h.mean == 311 / 5
        snap = h.snapshot()
        # bucket upper bounds: 0, 1, 7 (covers 4..7), 511 (covers 256..511)
        assert snap["buckets"] == {0: 1, 1: 1, 7: 2, 511: 1}
        assert snap["p50"] == 7
        assert snap["p99"] == 511
        assert h.quantile(0.0) == 0
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.record(-1)

    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.quantile(0.99) == 0
        assert np.isnan(h.mean)
        assert h.snapshot()["count"] == 0

    def test_queue_wait_and_service_time_on_symbol_clock(self, qam16):
        """Co-batched frames share a service time (the launch width); a
        frame waiting a round accrues the symbols served in between."""
        reports = []
        engine = ServingEngine(config=EngineConfig(
            on_frame=lambda s, f, llrs, rep: reports.append(rep)
        ))
        sessions = build_fleet(
            engine, 2, HybridDemapper(constellation=qam16, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.9, window=4),
            config=SessionConfig(frame=FC, queue_depth=2),
            seed=1,
        )
        chan = SteadyChannel(AWGNFactory(8.0, 4))
        n = FC.total_symbols
        for s in sessions:
            for frame in generate_traffic(qam16, FC, 2, chan, 4):
                assert engine.submit(s.session_id, frame)
        assert engine.step() == 2   # head frames, one batch of 2
        assert engine.step() == 2   # second frames, after 2n symbols served
        first, second = reports[:2], reports[2:]
        assert all(r.queue_wait == 0 and r.service_time == 2 * n for r in first)
        assert all(r.queue_wait == 2 * n and r.service_time == 2 * n for r in second)
        tele = engine.telemetry
        assert tele.now == 4 * n
        assert tele.queue_wait.count == tele.service_time.count == 4
        assert tele.queue_wait.total == 4 * n
        snap = tele.snapshot()
        assert snap["queue_wait"]["count"] == 4 and snap["service_time"]["mean"] == 2 * n

    def test_paused_session_frames_accrue_wait(self, qam16):
        """Frames queued behind a retrain keep aging on the symbol clock
        while other sessions are served."""
        reports = {}
        engine = ServingEngine(config=EngineConfig(
            on_frame=lambda s, f, llrs, rep: reports.setdefault(s.session_id, []).append(rep)
        ))
        paused, busy = build_fleet(
            engine, 2, HybridDemapper(constellation=qam16, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.9, window=4),
            config=SessionConfig(frame=FC, queue_depth=4),
            seed=1,
        )
        chan = SteadyChannel(AWGNFactory(8.0, 4))
        n = FC.total_symbols
        frames = generate_traffic(qam16, FC, 3, chan, 6)
        engine.submit(paused.session_id, frames[0])
        paused.begin_retrain()  # pause with one frame queued at tick 0
        for f in frames:
            engine.submit(busy.session_id, f)
        for _ in range(3):
            engine.step()       # busy streams 3 frames; paused waits
        paused.install(paused.hybrid)  # resume
        engine.step()
        (rep,) = reports[paused.session_id]
        assert rep.queue_wait == 3 * n  # aged by the busy session's service


class TestEngineApi:
    def test_submit_unknown_session_names_the_id(self, qam16):
        engine = ServingEngine()
        with pytest.raises(KeyError, match="unknown session id 'nope'"):
            engine.submit("nope", None)
        with pytest.raises(KeyError, match="ghost"):
            engine.session("ghost")

    def test_session_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(sigma2_alpha=1.5)
        with pytest.raises(ValueError):
            SessionConfig(sigma2_alpha=-0.1)
        with pytest.raises(ValueError):
            SessionConfig(track_attempts=-1)
        with pytest.raises(ValueError):
            SessionConfig(track_residual=0.0)


class TestControlPlaneDeterminism:
    """σ² trajectories and tier timelines of the tracking fleet are
    invariant to batch width, queue depth, workers and scheduler weights."""

    def test_scenario_exercises_both_tiers(self):
        assert_scenario_fires(TRACK)

    @pytest.mark.parametrize("max_batch", [2, 64])
    def test_invariant_to_micro_batch_width(self, max_batch):
        check(Draw(TRACK, max_batch=max_batch, queue_depth=1))

    @pytest.mark.parametrize("queue_depth", [2, 8])
    def test_invariant_to_queue_depth(self, queue_depth):
        check(Draw(TRACK, max_batch=64, queue_depth=queue_depth))

    def test_invariant_to_worker_threads(self):
        check(Draw(TRACK, max_batch=64, queue_depth=4, workers=2))

    @pytest.mark.parametrize(
        "weights",
        [(1.0, 2.0, 0.5, 3.0, 1.0, 4.0), (4.0,) * 6, (0.5,) * 6],
    )
    def test_invariant_to_scheduler_weights(self, weights):
        """Weights change when frames are served, never what they contain:
        multi-frame rounds are served in waves that replay per-frame state
        updates in the session's own frame order."""
        check(Draw(TRACK, max_batch=64, queue_depth=8, weights=weights))
