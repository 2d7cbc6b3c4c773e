"""Session state machine, bounded queues, and cross-session micro-batching."""

import numpy as np
import pytest

from repro.channels import sigma2_from_snr
from repro.extraction import HybridDemapper
from repro.extraction.monitor import DegradationMonitor
from repro.link.frames import FrameConfig, build_frame
from repro.modulation import psk_constellation, qam_constellation
from repro.serving import (
    RETRAINING,
    SERVING,
    DemapperSession,
    ServingFrame,
    SessionConfig,
    collect_microbatches,
)

SIGMA2 = sigma2_from_snr(8.0, 4)


def make_frame(seq, order=16, n=32, rng=None):
    rng = np.random.default_rng(seq if rng is None else rng)
    f = build_frame(FrameConfig(pilot_symbols=8, payload_symbols=n - 8), order, rng)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ServingFrame(seq=seq, indices=f.indices, pilot_mask=f.pilot_mask, received=y)


def make_session(sid="s0", const=None, *, queue_depth=4, retrain=None, sigma2=SIGMA2):
    const = const if const is not None else qam_constellation(16)
    return DemapperSession(
        sid,
        HybridDemapper(constellation=const, sigma2=SIGMA2),
        DegradationMonitor(0.1, window=2, cooldown=2),
        config=SessionConfig(queue_depth=queue_depth),
        retrain=retrain,
        sigma2=sigma2,
        rng=0,
    )


class TestSession:
    def test_bounded_queue_backpressure(self):
        s = make_session(queue_depth=2)
        assert s.submit(make_frame(0))
        assert s.submit(make_frame(1))
        assert not s.submit(make_frame(2))  # full -> rejected
        assert s.stats.rejects == 1
        assert s.pending == 2
        s.pop()
        assert s.submit(make_frame(2))  # room again

    def test_ready_requires_serving_state_and_frames(self):
        s = make_session()
        assert not s.ready  # empty queue
        s.submit(make_frame(0))
        assert s.ready
        s.begin_retrain()
        assert s.state == RETRAINING
        assert not s.ready  # retraining sessions are never served

    def test_install_resumes_and_resets_monitor(self):
        s = make_session()
        s.monitor.observe(0.5)
        s.begin_retrain()
        new_hybrid = HybridDemapper(constellation=psk_constellation(16), sigma2=SIGMA2)
        s.install(new_hybrid)
        assert s.state == SERVING
        assert s.hybrid is new_hybrid
        assert np.isnan(s.monitor.current_level)  # reset
        assert s.stats.retrains == 1

    def test_begin_retrain_spawns_deterministic_rngs(self):
        a, b = make_session("a"), make_session("b")
        ra1, ra2 = a.begin_retrain(), a.begin_retrain()
        rb1 = b.begin_retrain()
        # same session seed => same spawn sequence; successive spawns differ
        assert ra1.random() == rb1.random()
        assert ra1.random() != ra2.random()

    def test_own_sigma2_independent_of_hybrid(self):
        s = make_session(sigma2=0.33)
        assert s.sigma2 == 0.33
        s.update_sigma2(0.5)
        assert s.sigma2 == 0.5
        assert s.hybrid.sigma2 == SIGMA2  # demapper untouched: no swap needed
        with pytest.raises(ValueError):
            s.update_sigma2(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(queue_depth=0)
        with pytest.raises(ValueError):
            make_session(sigma2=-1.0)
        with pytest.raises(ValueError):
            ServingFrame(
                seq=0,
                indices=np.zeros(3, dtype=np.int64),
                pilot_mask=np.zeros(4, dtype=bool),
                received=np.zeros(4, dtype=np.complex128),
            )


class TestMicroBatching:
    def test_shared_constellation_coalesces(self):
        qam = qam_constellation(16)
        sessions = [make_session(f"s{i}", qam) for i in range(4)]
        for i, s in enumerate(sessions):
            s.submit(make_frame(i))
        batches = collect_microbatches(sessions)
        assert len(batches) == 1
        assert batches[0].occupancy == 4
        assert [s.session_id for s in batches[0].sessions] == ["s0", "s1", "s2", "s3"]

    def test_one_frame_per_session_per_round(self):
        sessions = [make_session("s0")]
        sessions[0].submit(make_frame(0))
        sessions[0].submit(make_frame(1))
        batches = collect_microbatches(sessions)
        assert batches[0].frames[0].seq == 0  # head frame only
        assert sessions[0].pending == 1

    def test_different_constellations_split(self):
        # same labelling, different points: one launch, each point set's
        # rows one consecutive run in order of first appearance
        qam, psk = qam_constellation(16), psk_constellation(16)
        sessions = [make_session("q0", qam), make_session("p0", psk), make_session("q1", qam)]
        for i, s in enumerate(sessions):
            s.submit(make_frame(i))
        batches = collect_microbatches(sessions)
        assert [b.occupancy for b in batches] == [3]
        assert [s.session_id for s in batches[0].sessions] == ["q0", "q1", "p0"]
        # a different point count (hence labelling) or row length splits
        sessions = [
            make_session("q0", qam),
            make_session("p8", psk_constellation(8)),
            make_session("q1", qam),
            make_session("long", qam),
        ]
        sessions[0].submit(make_frame(0))
        sessions[1].submit(make_frame(1, order=8))
        sessions[2].submit(make_frame(2))
        sessions[3].submit(make_frame(3, n=64))
        batches = collect_microbatches(sessions)
        assert [[s.session_id for s in b.sessions] for b in batches] == [
            ["q0", "q1"], ["p8"], ["long"],
        ]

    def test_max_batch_splits_in_order(self):
        qam = qam_constellation(16)
        sessions = [make_session(f"s{i}", qam) for i in range(5)]
        for i, s in enumerate(sessions):
            s.submit(make_frame(i))
        batches = collect_microbatches(sessions, max_batch=2)
        assert [b.occupancy for b in batches] == [2, 2, 1]
        order = [s.session_id for b in batches for s in b.sessions]
        assert order == ["s0", "s1", "s2", "s3", "s4"]

    def test_retraining_sessions_skipped(self):
        qam = qam_constellation(16)
        sessions = [make_session(f"s{i}", qam) for i in range(3)]
        for i, s in enumerate(sessions):
            s.submit(make_frame(i))
        sessions[1].begin_retrain()
        batches = collect_microbatches(sessions)
        assert [s.session_id for s in batches[0].sessions] == ["s0", "s2"]
        assert sessions[1].pending == 1  # its frame stays queued

    def test_empty_when_nothing_ready(self):
        assert collect_microbatches([make_session()]) == []

    def test_max_batch_validation(self):
        with pytest.raises(ValueError):
            collect_microbatches([], max_batch=0)
