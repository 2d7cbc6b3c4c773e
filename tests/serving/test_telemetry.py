"""Serving telemetry edge cases: histogram corners, merge, churn counters.

``LatencyHistogram`` is the signal both CI gates (tail-latency snapshots in
benchmark artifacts) and the weight controller read — its corners (empty,
q∈{0,1}, single bucket) and the merge-of-shards path must be exact, not
just plausible.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from oracle import clean_traffic, make_session
from repro.serving import (
    EngineConfig,
    EngineStats,
    LatencyHistogram,
    ServingEngine,
    ServingFrame,
    SessionStats,
    run_load,
)


def filled(values):
    h = LatencyHistogram()
    for v in values:
        h.record(v)
    return h


class TestLatencyHistogramEdges:
    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.count == 0 and h.total == 0
        assert np.isnan(h.mean)
        # every quantile of nothing is 0, including the extremes
        assert h.quantile(0.0) == 0
        assert h.quantile(0.5) == 0
        assert h.quantile(1.0) == 0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["buckets"] == {}
        assert snap["p50"] == 0 and snap["p99"] == 0

    def test_extreme_quantiles_hit_extreme_buckets(self):
        h = filled([0, 3, 1000])
        # q=0 resolves to the smallest occupied bucket, q=1 to the largest
        assert h.quantile(0.0) == 0
        assert h.quantile(1.0) == 1023
        # and every quantile is monotone in q
        qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert qs == sorted(qs)

    def test_single_bucket_histogram(self):
        h = filled([5, 6, 7])  # all in bucket (4..7]
        assert h.count == 3 and h.total == 18
        assert h.mean == 6.0
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 7
        assert h.snapshot()["buckets"] == {7: 3}

    def test_single_observation(self):
        h = filled([0])
        assert h.quantile(0.0) == h.quantile(1.0) == 0
        h2 = filled([1])
        assert h2.quantile(0.5) == 1

    def test_validation(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.record(-1)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)


class TestLatencyHistogramMerge:
    def test_merge_equals_recording_everything_in_one(self):
        a_vals = [0, 1, 5, 5, 300, 17]
        b_vals = [2, 5, 4096, 0]
        a, b = filled(a_vals), filled(b_vals)
        ref = filled(a_vals + b_vals)
        out = a.merge(b)
        assert out is a  # in-place, chainable
        assert a.count == ref.count
        assert a.total == ref.total
        assert a.mean == ref.mean
        assert a.snapshot() == ref.snapshot()
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert a.quantile(q) == ref.quantile(q)

    def test_merge_is_order_insensitive(self):
        a_vals, b_vals = [1, 2, 3], [100, 200]
        ab = filled(a_vals).merge(filled(b_vals))
        ba = filled(b_vals).merge(filled(a_vals))
        assert ab.snapshot() == ba.snapshot()

    def test_merge_with_empty_is_identity_both_ways(self):
        vals = [0, 7, 9]
        h = filled(vals)
        before = h.snapshot()
        h.merge(LatencyHistogram())
        assert h.snapshot() == before
        fresh = LatencyHistogram()
        fresh.merge(filled(vals))
        assert fresh.snapshot() == before

    def test_merge_does_not_mutate_the_source(self):
        src = filled([1, 2])
        src_before = src.snapshot()
        filled([9]).merge(src)
        assert src.snapshot() == src_before

    def test_shard_merge_consistency(self):
        """Per-shard snapshots combined == the fleet-wide histogram (the
        pattern a sharded engine would use to report global tails)."""
        rng = np.random.default_rng(3)
        shards = [
            [int(v) for v in rng.integers(0, 10_000, size=n)] for n in (10, 1, 0, 37)
        ]
        combined = LatencyHistogram()
        for shard in shards:
            combined.merge(filled(shard))
        ref = filled([v for shard in shards for v in shard])
        assert combined.snapshot() == ref.snapshot()


class TestChurnCounters:
    def test_engine_stats_snapshot_has_churn_fields(self):
        stats = EngineStats()
        stats.joins = 3
        stats.leaves = 1
        stats.drains_started = 2
        stats.drains_completed = 1
        stats.frames_dropped = 4
        stats.retrains_orphaned = 1
        stats.record_fleet_size(3)
        snap = stats.snapshot()
        assert snap["joins"] == 3 and snap["leaves"] == 1
        assert snap["drains_started"] == 2 and snap["drains_completed"] == 1
        assert snap["frames_dropped"] == 4 and snap["retrains_orphaned"] == 1
        assert snap["fleet_timeline"] == [(0, 3)]
        # snapshots are copies, not views
        snap["fleet_timeline"].append((9, 9))
        assert stats.fleet_timeline == [(0, 3)]

    def test_fleet_timeline_stamps_the_symbol_clock(self):
        stats = EngineStats()
        stats.record_fleet_size(2)
        stats.record_batch(2, 128)
        stats.record_fleet_size(3)
        assert stats.fleet_timeline == [(0, 2), (128, 3)]

    def test_session_stats_snapshot_has_churn_and_weight_fields(self):
        stats = SessionStats()
        stats.drain_refusals = 2
        stats.frames_dropped = 1
        stats.queue_wait.record(64)
        stats.weight_timeline.append((64, 2.0))
        snap = stats.snapshot()
        assert snap["drain_refusals"] == 2 and snap["frames_dropped"] == 1
        assert snap["queue_wait"]["count"] == 1
        assert snap["weight_timeline"] == [(64, 2.0)]


class TestSessionStatsMemory:
    def test_retained_bytes_per_served_frame(self, qam16):
        """A long-running session keeps 8 bytes per per-frame float, not a
        boxed float plus a list slot (about 33 bytes): serving must not
        grow the process faster than its trajectories' raw floats."""
        n_sessions, warmup, frames_each = 8, 16, 500
        engine = ServingEngine(config=EngineConfig(max_batch=n_sessions))
        traffic = {}
        for i in range(n_sessions):
            sid = f"s{i}"
            engine.add_session(make_session(qam16, sid, seed=i, sigma2_alpha=0.25))
            base = clean_traffic(qam16, 4, 100 + i)
            traffic[sid] = [
                ServingFrame(seq, b.indices, b.pilot_mask, b.received)
                for seq, b in ((q, base[q % 4]) for q in range(warmup + frames_each))
            ]
        warm = {sid: frames[:warmup] for sid, frames in traffic.items()}
        rest = {sid: frames[warmup:] for sid, frames in traffic.items()}
        run_load(engine, warm)  # workspace, caches and first array blocks
        gc.collect()
        tracemalloc.start()
        try:
            run_load(engine, rest)
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        served = n_sessions * frames_each
        assert engine.telemetry.frames_served == n_sessions * (warmup + frames_each)
        # two float trajectories per uncoded frame: 16 raw bytes plus the
        # array's over-allocation; everything else the round keeps is O(1)
        assert retained / served <= 24, f"{retained / served:.1f} B per frame"
