"""Micro-benchmarks — throughput of the computational hot paths.

These time the *software* implementation (symbols/s in NumPy), a sanity
complement to the architectural FPGA model: training steps, ANN inference,
max-log demapping (per backend tier), exact log-MAP, quantised integer
inference, and decision-region extraction.

Every timed test records its stats into ``BENCH_micro.json`` at the repo
root (a pytest-benchmark-style artifact) so the performance trajectory is
tracked in-tree from PR to PR.  Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro.py --benchmark-only
"""

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.autoencoder import AESystem, DemapperANN, MapperANN
from repro.backend import NUMBA_AVAILABLE
from repro.channels import AWGNChannel
from repro.extraction import sample_decision_regions
from repro.fpga import QuantizedDemapper
from repro.modulation import (
    ExactLogMAPDemapper,
    Mapper,
    MaxLogDemapper,
    qam_constellation,
    random_indices,
)
from repro.nn import Adam
from repro.utils.complexmath import complex_to_real2

from check_bench import ENV_BENCH_NAMES  # record names of skippable tiers

N = 262_144  # symbols per timed call

_ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_micro.json"
_RESULTS: list[dict] = []


#: Every record name a full run produces on this machine-independent core
#: set; environment-conditional benchmarks (skipped tiers) are excluded so
#: their absence doesn't demote a genuine full run to a merge.  _record
#: enforces membership, so a renamed benchmark fails loudly instead of
#: silently desynchronising this set.
_CORE_BENCH_NAMES = frozenset(
    {
        "maxlog_llrs[numpy]",
        "maxlog_llrs[numpy32]",
        "logmap_llrs[numpy]",
        "hard_indices[numpy]",
        "sweep_maxlog_multi_1k[numpy]",
        "sweep_maxlog_seq_1k[numpy]",
        "sweep_maxlog_multi_1k[numpy32]",
        "sweep_maxlog_seq_1k[numpy32]",
        "serving_batched[numpy]",
        "serving_sequential[numpy]",
        "serving_traced[numpy]",
        "serving_kernel_floor[numpy]",
        "serving_mixed_sets[numpy]",
        "serving_one_set[numpy]",
        "serving_control_plane[numpy]",
        "serving_churn[numpy]",
        "serving_churn_sequential[numpy]",
        "serving_faulted[numpy]",
        "serving_coded[numpy]",
        "viterbi_decode[rows64]",
        "viterbi_decode[rows1]",
        "ann_forward",
        "quantized_hard_bits",
        "e2e_train_step",
        "simulate_ber_chunked",
        "decision_region_sampling",
        "full_extraction_lsq",
    }
)


def _record(benchmark, name: str, *, symbols: int | None = None, extra: dict | None = None):
    """Append one benchmark's stats to the artifact; returns sym/s (or None).

    Tolerates ``--benchmark-disable`` runs (no stats collected).
    """
    if name not in _CORE_BENCH_NAMES | ENV_BENCH_NAMES:
        raise AssertionError(
            f"benchmark record name {name!r} is not registered in "
            "_CORE_BENCH_NAMES/ENV_BENCH_NAMES — update the set so "
            "full-run detection stays in sync"
        )
    if getattr(benchmark, "disabled", False) or benchmark.stats is None:
        return None  # --benchmark-disable run: nothing was timed
    # any other stats-access failure must raise: silently skipping here
    # would also silently skip the throughput-floor assertions
    stats = {"mean": float(benchmark.stats["mean"])}
    for key in ("min", "max", "stddev", "median", "rounds", "ops"):
        try:
            stats[key] = float(benchmark.stats[key])
        except (TypeError, KeyError):
            pass
    entry = {"name": name, "stats": stats}
    rate = None
    if symbols is not None:
        rate = symbols / stats["mean"]
        entry["symbols_per_call"] = symbols
        entry["symbols_per_second"] = rate
    if extra:
        entry.update(extra)
    _RESULTS.append(entry)
    return rate


@pytest.fixture(scope="module", autouse=True)
def _bench_micro_artifact():
    """Write the JSON artifact once the module's benchmarks have run.

    A full-suite run rewrites the artifact from scratch (pruning entries
    whose benchmark was renamed or deleted); a partial run (``-k``, single
    test) merges by name into the existing artifact so it refreshes only
    the benchmarks that actually ran instead of clobbering the rest.
    """
    _RESULTS.clear()
    yield
    if not _RESULTS:
        return
    machine_info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": NUMBA_AVAILABLE,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }
    merged: dict[str, dict] = {}
    # Full run (every core benchmark recorded; env-conditional tiers such
    # as numba may be skipped): rewrite from scratch so renamed/deleted
    # benchmarks don't linger in the tracked artifact.  Partial selections
    # (-k / node ids) merge instead.
    full_run = _CORE_BENCH_NAMES <= {entry["name"] for entry in _RESULTS}
    if not full_run:
        try:
            previous = json.loads(_ARTIFACT.read_text())
        except (OSError, ValueError):
            previous = None  # absent or unreadable artifact: start fresh
        if isinstance(previous, dict) and isinstance(previous.get("benchmarks"), list):
            if previous.get("machine_info") != machine_info:
                # a partial run from another environment must neither
                # re-stamp foreign numbers as ours nor clobber the tracked
                # full artifact — leave the file untouched
                return
            for entry in previous["benchmarks"]:
                merged[entry["name"]] = entry
    for entry in _RESULTS:
        merged[entry["name"]] = entry
    payload = {
        "schema": 1,
        "suite": "bench_micro",
        "machine_info": machine_info,
        "benchmarks": list(merged.values()),
    }
    _ARTIFACT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _record_timed(name: str, times: list[float], *, symbols: int | None = None,
                  extra: dict | None = None, stat: str = "mean") -> float:
    """Record a manually timed benchmark (same artifact schema); returns mean.

    ``symbols_per_second`` (the rate the gates read) is taken on ``stat``,
    ``"mean"`` or ``"min"``, and the entry names it as ``rate_statistic``.
    """
    if name not in _CORE_BENCH_NAMES | ENV_BENCH_NAMES:
        raise AssertionError(
            f"benchmark record name {name!r} is not registered in "
            "_CORE_BENCH_NAMES/ENV_BENCH_NAMES — update the set so "
            "full-run detection stays in sync"
        )
    arr = np.asarray(times, dtype=np.float64)
    stats = {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "stddev": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "median": float(np.median(arr)),
        "rounds": float(arr.size),
    }
    entry = {"name": name, "stats": stats}
    if symbols is not None:
        entry["symbols_per_call"] = symbols
        entry["symbols_per_second"] = symbols / stats[stat]
        entry["rate_statistic"] = stat
    if extra:
        entry.update(extra)
    _RESULTS.append(entry)
    return stats["mean"]


@pytest.fixture(scope="module")
def stream(bench_constellation_8db):
    rng = np.random.default_rng(42)
    idx = random_indices(rng, N, 16)
    y = AWGNChannel(8.0, 4, rng=rng)(Mapper(bench_constellation_8db)(idx))
    return y, complex_to_real2(y)


def test_maxlog_demapper_throughput(benchmark, stream):
    y, _ = stream
    qam = qam_constellation(16)
    ml = MaxLogDemapper(qam)  # default backend: float64 NumPy reference
    out = np.empty((N, 4))  # workspace contract: steady state allocates nothing
    benchmark(ml.llrs, y, 0.02, out=out)
    rate = _record(benchmark, "maxlog_llrs[numpy]", symbols=N, extra={"backend": "numpy"})
    if rate is not None:
        # fused transposed kernel: >= 3x the historical 3e5 floor even on the
        # reference tier (the FPGA core does 75M)
        assert rate > 1e6


def test_maxlog_demapper_throughput_float32(benchmark, stream):
    y, _ = stream
    qam = qam_constellation(16)
    ml = MaxLogDemapper(qam, backend="numpy32")
    out = np.empty((N, 4))
    benchmark(ml.llrs, y, 0.02, out=out)
    rate = _record(benchmark, "maxlog_llrs[numpy32]", symbols=N, extra={"backend": "numpy32"})
    if rate is not None:
        assert rate > 2e6  # fast tier: roughly double the reference


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_maxlog_demapper_throughput_numba(benchmark, stream):
    y, _ = stream
    qam = qam_constellation(16)
    ml = MaxLogDemapper(qam, backend="numba")
    out = np.empty((N, 4))
    ml.llrs(y, 0.02, out=out)  # JIT warmup outside the timer
    benchmark(ml.llrs, y, 0.02, out=out)
    _record(benchmark, "maxlog_llrs[numba]", symbols=N, extra={"backend": "numba"})


# -- multi-SNR sweep section --------------------------------------------------
# S=8 sweep points, 1024 symbols per point, 16-QAM: one fused (S, n) launch
# of the max-log kernel vs its S=1 call on each point.  ``maxlog_llrs`` *is*
# that S=1 call, so the pair measures what fusing rows saves: the per-launch
# and per-tile overhead, which dominates at this size.  (At 65536 symbols
# per point both sides are the same tiled work and the ratio is ~1.)

SWEEP_S = 8
SWEEP_N = 1024
SWEEP_ROUNDS = 60  # a call is ~1-3 ms: enough rounds for a stable mean


@pytest.fixture(scope="module")
def sweep_stream():
    from repro.channels import sigma2_from_snr

    qam = qam_constellation(16)
    rng = np.random.default_rng(7)
    idx = random_indices(rng, SWEEP_N, 16)
    sigma2s = np.array([sigma2_from_snr(s, 4) for s in np.linspace(0.0, 14.0, SWEEP_S)])
    unit = rng.normal(size=SWEEP_N) + 1j * rng.normal(size=SWEEP_N)
    received = qam.points[idx][None, :] + np.sqrt(sigma2s)[:, None] * unit[None, :]
    return qam, received, sigma2s


def _bench_sweep_tier(benchmark, sweep_stream, tier: str):
    """Fused (S, n) max-log launch vs S one-row launches, one tier."""
    qam, received, sigma2s = sweep_stream
    ml = MaxLogDemapper(qam, backend=tier)
    out_multi = np.empty((SWEEP_S, SWEEP_N, 4))
    out_seq = np.empty((SWEEP_N, 4))

    def sequential():
        for s in range(SWEEP_S):
            ml.llrs(received[s], sigma2s[s], out=out_seq)

    ml.llrs_multi(received, sigma2s, out=out_multi)  # warm the workspace
    benchmark.pedantic(
        ml.llrs_multi, args=(received, sigma2s), kwargs={"out": out_multi},
        rounds=SWEEP_ROUNDS, iterations=1, warmup_rounds=1,
    )
    rate = _record(
        benchmark, f"sweep_maxlog_multi_1k[{tier}]", symbols=SWEEP_S * SWEEP_N,
        extra={"backend": tier, "snr_points": SWEEP_S},
    )
    if rate is None:
        return  # --benchmark-disable run: nothing to compare
    sequential()  # warm the one-row workspace shapes
    multi_times, seq_times = _interleaved_min_times(
        lambda: ml.llrs_multi(received, sigma2s, out=out_multi),
        sequential,
        rounds=SWEEP_ROUNDS,
    )
    # record *both* sides of the check_bench ratio gate from this one
    # interleaved run (the later multi entry overwrites the pedantic one in
    # the artifact), so host-state drift between phases cancels
    _record_timed(
        f"sweep_maxlog_multi_1k[{tier}]", multi_times, symbols=SWEEP_S * SWEEP_N,
        extra={"backend": tier, "snr_points": SWEEP_S},
    )
    _record_timed(
        f"sweep_maxlog_seq_1k[{tier}]", seq_times, symbols=SWEEP_S * SWEEP_N,
        extra={"backend": tier, "snr_points": SWEEP_S},
    )


def test_sweep_multi_vs_sequential_numpy(benchmark, sweep_stream):
    _bench_sweep_tier(benchmark, sweep_stream, "numpy")
    # every fused row is byte-equal to the one-row call on it
    qam, received, sigma2s = sweep_stream
    ml = MaxLogDemapper(qam, backend="numpy")
    multi = ml.llrs_multi(received, sigma2s)
    for s in range(SWEEP_S):
        assert np.array_equal(multi[s], ml.llrs(received[s], sigma2s[s]))


def test_sweep_multi_vs_sequential_numpy32(benchmark, sweep_stream):
    _bench_sweep_tier(benchmark, sweep_stream, "numpy32")


# -- Viterbi decoding section -------------------------------------------------
# The coded serving path's decode on its own geometry: CodedFrameConfig()'s
# K=3 (7,5) code over a 224-symbol 16-QAM payload (442 trellis steps), 64
# blocks.  ``rows64`` decodes them in one row-batched kernel launch (what a
# full serving group does); ``rows1`` decodes the same blocks one launch
# each.  check_bench gates rows64 >= 10x rows1.

VIT_ROWS = 64


@pytest.fixture(scope="module")
def viterbi_workload():
    from repro.serving import CodedFrameConfig, coded_layout

    layout = coded_layout(CodedFrameConfig(), 224 * 4)
    code = layout.code
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2, (VIT_ROWS, layout.n_steps - (code.k - 1))).astype(np.int8)
    coded = np.stack([code.encode(row) for row in bits]).astype(np.float64)
    # mildly noisy LLRs: the decode is still exact, so the result can be
    # verified against the transmitted bits before it is timed
    llrs = (2.0 * coded - 1.0) * 4.0 + rng.normal(scale=1.0, size=coded.shape)
    return code, llrs.reshape(VIT_ROWS, layout.n_steps, code.n_out), bits


def _bench_viterbi(benchmark, viterbi_workload, name, decode):
    from repro.backend import backend_from_name

    code, blocks, bits = viterbi_workload
    be = backend_from_name("numpy")
    decoded = decode(code, blocks, be)  # warm trellis tables and workspace
    assert np.array_equal(decoded[:, : bits.shape[1]], bits)
    benchmark(decode, code, blocks, be)
    _record(
        benchmark, name, symbols=bits.size,
        extra={"backend": "numpy", "unit": "info_bits", "rows": VIT_ROWS,
               "n_steps": blocks.shape[1], "constraint_length": code.k},
    )


def test_viterbi_decode_rows64(benchmark, viterbi_workload):
    from repro.backend.dispatch import grouped_viterbi_decode

    def decode(code, blocks, be):
        return grouped_viterbi_decode(code, blocks, backend=be)[0]

    _bench_viterbi(benchmark, viterbi_workload, "viterbi_decode[rows64]", decode)


def test_viterbi_decode_rows1(benchmark, viterbi_workload):
    from repro.backend.dispatch import grouped_viterbi_decode

    def decode(code, blocks, be):
        return np.concatenate([
            grouped_viterbi_decode(code, blocks[r : r + 1], backend=be)[0]
            for r in range(blocks.shape[0])
        ])

    _bench_viterbi(benchmark, viterbi_workload, "viterbi_decode[rows1]", decode)


# -- serving section ----------------------------------------------------------
# 64 concurrent sessions on one shared 16-QAM centroid set, short frames
# (32 pilots + 224 payload — the regime cross-session coalescing exists for):
# the ServingEngine's micro-batched round vs the same 64 sessions demapped
# per-session sequentially (per-frame llrs + hard bits + pilot/payload BER).

SERVE_SESSIONS = 64
SERVE_ROUNDS = 7


def _sequential_demap_round(sessions, frames, n):
    """Per-session sequential baseline: per-frame llrs + hard bits + BERs."""
    from repro.link.frames import frame_bers

    out = np.empty((n, 4))

    def sequential_round():
        for s in sessions:
            f = frames[s.session_id]
            llrs = s.hybrid.llrs(f.received, out=out)
            hat = (llrs > 0).astype(np.int8)
            truth = s.hybrid.constellation.bit_matrix[f.indices]
            frame_bers(hat, truth, f.pilot_mask)

    return sequential_round


def _interleaved_min_times(a, b, rounds=SERVE_ROUNDS):
    """Time two callables round-by-round interleaved (clock drift and
    throttling hit both equally) and return their per-round times; callers
    compare best-of-rounds, the jitter-robust statistic for equal work."""
    import timeit

    a_times, b_times = [], []
    for _ in range(rounds):
        a_times.append(timeit.timeit(a, number=1))
        b_times.append(timeit.timeit(b, number=1))
    return a_times, b_times


@pytest.fixture(scope="module")
def serving_setup():
    from repro.channels import sigma2_from_snr
    from repro.channels.factories import AWGNFactory
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.link.frames import FrameConfig
    from repro.serving import (
        EngineConfig,
        ServingEngine,
        SessionConfig,
        SteadyChannel,
        build_fleet,
        generate_traffic,
    )

    fc = FrameConfig(pilot_symbols=32, payload_symbols=224)
    qam = qam_constellation(16)
    sigma2 = sigma2_from_snr(8.0, 4)
    engine = ServingEngine(config=EngineConfig(max_batch=SERVE_SESSIONS))
    sessions = build_fleet(
        engine,
        SERVE_SESSIONS,
        HybridDemapper(constellation=qam, sigma2=sigma2),
        monitor_factory=lambda: PilotBERMonitor(0.5, window=4),
        config=SessionConfig(frame=fc, queue_depth=2),
        seed=3,
    )
    rng = np.random.default_rng(11)
    chan = SteadyChannel(AWGNFactory(8.0, 4))
    frames = {
        s.session_id: generate_traffic(qam, fc, 1, chan, r)[0]
        for s, r in zip(sessions, rng.spawn(SERVE_SESSIONS))
    }
    return engine, sessions, frames, fc


def test_serving_batched_vs_sequential(benchmark, serving_setup):
    """Engine round (fill + one micro-batched step) vs per-session loop.

    Asserts the acceptance bar: the batched engine serves >= 2x the
    aggregate symbols/s of the sequential path, with per-session LLRs
    bit-identical to sequential ``hybrid.llrs`` on the default tier.
    """
    engine, sessions, frames, fc = serving_setup
    n = fc.total_symbols
    symbols = SERVE_SESSIONS * n

    def batched_round():
        for s in sessions:
            s.submit(frames[s.session_id])
        return engine.step()

    sequential_round = _sequential_demap_round(sessions, frames, n)
    assert batched_round() == SERVE_SESSIONS  # warm workspace; full occupancy
    sequential_round()
    benchmark.pedantic(
        batched_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1
    )
    occupancy = engine.telemetry.snapshot()["mean_occupancy"]
    rate = _record(
        benchmark, "serving_batched[numpy]", symbols=symbols,
        extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
               "frame_symbols": n, "mean_batch_occupancy": occupancy},
    )
    if rate is None:
        return  # --benchmark-disable run: nothing to compare
    batched_times, seq_times = _interleaved_min_times(batched_round, sequential_round)
    _record_timed(
        "serving_sequential[numpy]", seq_times, symbols=symbols,
        extra={"backend": "numpy", "sessions": SERVE_SESSIONS, "frame_symbols": n},
    )
    speedup = min(seq_times) / min(batched_times)
    assert speedup >= 2.0, (
        f"serving engine must be >= 2x sequential per-session demapping at "
        f"N={SERVE_SESSIONS}: got {speedup:.2f}x "
        f"({symbols / min(batched_times) / 1e6:.2f} vs "
        f"{symbols / min(seq_times) / 1e6:.2f} Msym/s)"
    )

    # bit-identity: the batched engine's LLR stream == sequential hybrid.llrs
    caps = {}
    engine.on_frame = lambda s, f, llrs, rep: caps.__setitem__(s.session_id, llrs.copy())
    for s in sessions:
        s.submit(frames[s.session_id])
    engine.step()
    engine.on_frame = None
    for s in sessions:
        f = frames[s.session_id]
        assert np.array_equal(caps[s.session_id], s.hybrid.llrs(f.received))


def test_serving_traced_overhead(benchmark, serving_setup):
    """Full observability attached (tracer + profiler + metrics registry)
    vs the same engine untraced: the layer is passive, so a traced round
    must stay within 10% of the untraced round (``check_bench.py`` gates
    the recorded rates at the same ratio).

    Both measurements run on the *one* fixture engine — attach/detach is
    plain attribute assignment under the passivity contract — because two
    separately-built engines differ by several percent on allocation
    layout alone, which would drown a 10% bound.  Sharing the fixture
    engine also means ``serving_traced`` / ``serving_batched`` in the
    artifact are rates of the same instance, keeping the check_bench
    ratio gate stable.
    """
    from repro.serving import MetricsRegistry, RoundProfiler, Tracer

    engine, sessions, frames, fc = serving_setup
    n = fc.total_symbols
    symbols = SERVE_SESSIONS * n

    # ring sized so the bench never evicts (eviction is cheap, but keep the
    # measured path identical across rounds)
    tracer = Tracer(capacity=1 << 15)
    profiler = RoundProfiler()
    engine.register_metrics(MetricsRegistry())

    # both rounds go through engine.submit so the traced side pays for its
    # frame.submit events — the overhead bound covers the whole surface
    def traced_round():
        engine.tracer, engine.profiler = tracer, profiler
        for s in sessions:
            engine.submit(s.session_id, frames[s.session_id])
        return engine.step()

    def bare_round():
        engine.tracer = engine.profiler = None
        for s in sessions:
            engine.submit(s.session_id, frames[s.session_id])
        return engine.step()

    try:
        assert traced_round() == SERVE_SESSIONS  # warm ring; full occupancy
        assert bare_round() == SERVE_SESSIONS
        benchmark.pedantic(
            traced_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1
        )
        assert tracer.dropped == 0
        events_per_round = len(tracer) / max(1, profiler.snapshot()["phases"]
                                             .get("schedule", {}).get("count", 1))
        rate = _record(
            benchmark, "serving_traced[numpy]", symbols=symbols,
            extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
                   "frame_symbols": n,
                   "trace_events_per_round": events_per_round},
        )
        if rate is None:
            return  # --benchmark-disable run: nothing to compare
        traced_times, bare_times = _interleaved_min_times(traced_round, bare_round)
        # record both sides of the check_bench ratio gate from this one
        # interleaved run (the later entries overwrite the pedantic ones in
        # the artifact): the bare rounds here *are* the serving_batched
        # benchmark — same engine, same round shape — and a 0.9x floor has
        # no room for cross-phase measurement noise
        occupancy = engine.telemetry.snapshot()["mean_occupancy"]
        _record_timed(
            "serving_traced[numpy]", traced_times, symbols=symbols,
            extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
                   "frame_symbols": n,
                   "trace_events_per_round": events_per_round},
        )
        _record_timed(
            "serving_batched[numpy]", bare_times, symbols=symbols,
            extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
                   "frame_symbols": n, "mean_batch_occupancy": occupancy},
        )
        overhead = min(traced_times) / min(bare_times)
        assert overhead <= 1.10, (
            f"observability must cost <= 10% of an untraced round at "
            f"N={SERVE_SESSIONS}: got {overhead:.3f}x "
            f"({symbols / min(traced_times) / 1e6:.2f} vs "
            f"{symbols / min(bare_times) / 1e6:.2f} Msym/s)"
        )
    finally:
        # leave the shared fixture engine exactly as we found it
        engine.tracer = engine.profiler = engine.registry = None


def test_serving_kernel_floor(benchmark, serving_setup):
    """The serving round's floor: one raw ``hybrid.llrs`` call on the same
    64 × 256 = 16384 symbols a ``serving_batched`` round demaps.

    ``check_bench.py`` gates ``serving_batched / serving_kernel_floor`` —
    the share of a plain round spent in the demap kernel itself — so work
    the round adds around the kernel (accounting, σ², control plane,
    telemetry) shows up as a falling ratio.  The kernel is timed on its
    own, not inside the traced-overhead interleave that records
    ``serving_batched``: a kernel call between engine rounds would evict
    the engine's working set and bias that interleave's traced/bare
    comparison.
    """
    engine, sessions, frames, fc = serving_setup
    symbols = SERVE_SESSIONS * fc.total_symbols
    hybrid = sessions[0].hybrid  # the fleet shares one centroid set
    received = np.concatenate([frames[s.session_id].received for s in sessions])
    out = np.empty((symbols, hybrid.constellation.bits_per_symbol))

    def kernel_round():
        return hybrid.llrs(received, out=out)

    kernel_round()
    benchmark.pedantic(kernel_round, rounds=4 * SERVE_ROUNDS, iterations=1,
                       warmup_rounds=2)
    _record(
        benchmark, "serving_kernel_floor[numpy]", symbols=symbols,
        extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
               "frame_symbols": fc.total_symbols},
    )


def test_serving_mixed_sets(benchmark, serving_setup):
    """The ``serving_batched`` round with its 64 sessions spread over 16
    centroid sets (rotations of one 16-QAM, session ``i`` on set
    ``i % 16``): same frames, same labelling, only the point sets differ.

    Sessions that track or retrain end up on their own sets; the kernel
    takes one set per row, so the round should still be one launch and
    cost about what the one-set round costs.  Both rounds are timed
    interleaved here and recorded on their min: ``serving_mixed_sets`` and
    ``serving_one_set`` (the fixture engine's plain round, as in
    ``serving_batched``).  ``check_bench.py`` gates their ratio, which
    falls to about 0.6 when each set pays its own launch.
    """
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.serving import (
        DemapperSession,
        EngineConfig,
        ServingEngine,
        SessionConfig,
    )

    engine, sessions, frames, fc = serving_setup
    n = fc.total_symbols
    symbols = SERVE_SESSIONS * n
    base = sessions[0].hybrid
    sets = [
        HybridDemapper(constellation=base.constellation.rotated(0.01 * j), sigma2=base.sigma2)
        for j in range(16)
    ]
    mixed = ServingEngine(config=EngineConfig(max_batch=SERVE_SESSIONS))
    mixed_sessions = [
        mixed.add_session(
            DemapperSession(
                f"m{i:03d}",
                sets[i % 16],
                PilotBERMonitor(0.5, window=4),
                config=SessionConfig(frame=fc, queue_depth=2),
            )
        )
        for i in range(SERVE_SESSIONS)
    ]
    pairs = [(m, frames[s.session_id]) for m, s in zip(mixed_sessions, sessions)]

    def mixed_round():
        for m, f in pairs:
            m.submit(f)
        return mixed.step()

    def one_set_round():
        for s in sessions:
            s.submit(frames[s.session_id])
        return engine.step()

    assert mixed_round() == SERVE_SESSIONS  # warm workspace
    batches0 = mixed.telemetry.batches
    benchmark.pedantic(mixed_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1)
    launches = (mixed.telemetry.batches - batches0) / (SERVE_ROUNDS + 1)
    if getattr(benchmark, "disabled", False) or benchmark.stats is None:
        return  # --benchmark-disable run: nothing to compare
    mixed_times, one_set_times = _interleaved_min_times(
        mixed_round, one_set_round, rounds=6 * SERVE_ROUNDS
    )
    extra = {"backend": "numpy", "sessions": SERVE_SESSIONS, "frame_symbols": n}
    _record_timed(
        "serving_mixed_sets[numpy]", mixed_times, symbols=symbols, stat="min",
        extra={**extra, "point_sets": len(sets), "launches_per_round": launches},
    )
    _record_timed(
        "serving_one_set[numpy]", one_set_times, symbols=symbols, stat="min", extra=extra
    )

    # bit-identity: every session's LLRs are its own set's hybrid.llrs
    caps = {}
    mixed.on_frame = lambda s, f, llrs, rep: caps.__setitem__(s.session_id, llrs.copy())
    mixed_round()
    mixed.on_frame = None
    for m, f in pairs:
        assert np.array_equal(caps[m.session_id], m.hybrid.llrs(f.received))
    mixed.close()


def test_serving_control_plane_overhead(benchmark):
    """Full control plane on (in-loop σ² estimation, tracking tier armed,
    DRR scheduling, latency histograms) vs the same per-session sequential
    baseline: the per-frame receiver-state updates are scalar work, so the
    engine must stay >= 1.5x sequential (plain batched serving is >= 2x).
    """
    from repro.channels import sigma2_from_snr
    from repro.channels.factories import AWGNFactory
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.link.frames import FrameConfig
    from repro.serving import (
        EngineConfig,
        ServingEngine,
        SessionConfig,
        SteadyChannel,
        build_fleet,
        generate_traffic,
    )

    fc = FrameConfig(pilot_symbols=32, payload_symbols=224)
    qam = qam_constellation(16)
    sigma2 = sigma2_from_snr(8.0, 4)
    engine = ServingEngine(config=EngineConfig(max_batch=SERVE_SESSIONS))
    sessions = build_fleet(
        engine,
        SERVE_SESSIONS,
        HybridDemapper(constellation=qam, sigma2=sigma2),
        monitor_factory=lambda: PilotBERMonitor(0.5, window=4),
        config=SessionConfig(
            frame=fc, queue_depth=2, sigma2_alpha=0.3, tracking=True
        ),
        seed=3,
    )
    rng = np.random.default_rng(11)
    chan = SteadyChannel(AWGNFactory(8.0, 4))
    frames = {
        s.session_id: generate_traffic(qam, fc, 1, chan, r)[0]
        for s, r in zip(sessions, rng.spawn(SERVE_SESSIONS))
    }
    n = fc.total_symbols
    symbols = SERVE_SESSIONS * n

    def control_plane_round():
        for s in sessions:
            s.submit(frames[s.session_id])
        return engine.step()

    sequential_round = _sequential_demap_round(sessions, frames, n)
    assert control_plane_round() == SERVE_SESSIONS  # warm workspace
    assert engine.telemetry.retrains_started == 0   # clean channel: no churn
    sequential_round()
    benchmark.pedantic(
        control_plane_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1
    )
    rate = _record(
        benchmark, "serving_control_plane[numpy]", symbols=symbols,
        extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
               "frame_symbols": n, "sigma2_alpha": 0.3},
    )
    if rate is None:
        return  # --benchmark-disable run: nothing to compare
    cp_times, seq_times = _interleaved_min_times(control_plane_round, sequential_round)
    speedup = min(seq_times) / min(cp_times)
    assert speedup >= 1.5, (
        f"control-plane serving round must stay >= 1.5x sequential "
        f"per-session demapping at N={SERVE_SESSIONS}: got {speedup:.2f}x"
    )
    # the σ² loop is actually live (every session's estimate moved)
    assert all(s.sigma2 != sigma2 for s in sessions)


def test_serving_churn_soak(benchmark):
    """Churn soak: aggregate throughput with 25% of the fleet cycling.

    One timed pass serves 8 rounds: 16 guest sessions join a 48-resident
    fleet (64 live — 25% churn), stream for 4 rounds, drain out, and the
    residents stream 4 more rounds.  The engine must keep >= 1.5x the
    aggregate sym/s of per-session sequential demapping of the *same*
    (session, frame) workload — churn bookkeeping (registry updates,
    scheduler forget, fleet telemetry) must not eat the batching win.
    """
    from repro.channels import sigma2_from_snr
    from repro.channels.factories import AWGNFactory
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.link.frames import FrameConfig
    from repro.serving import (
        DemapperSession,
        EngineConfig,
        ServingEngine,
        SessionConfig,
        SteadyChannel,
        build_fleet,
        generate_traffic,
    )

    n_residents = 48
    n_guests = 16
    fc = FrameConfig(pilot_symbols=32, payload_symbols=224)
    qam = qam_constellation(16)
    sigma2 = sigma2_from_snr(8.0, 4)
    hybrid = HybridDemapper(constellation=qam, sigma2=sigma2)
    config = SessionConfig(frame=fc, queue_depth=2)
    monitor = lambda: PilotBERMonitor(0.5, window=4)  # noqa: E731 — never fires
    engine = ServingEngine(config=EngineConfig(max_batch=SERVE_SESSIONS))
    residents = build_fleet(
        engine, n_residents, hybrid,
        monitor_factory=monitor, config=config, seed=3, prefix="r",
    )
    rng = np.random.default_rng(11)
    chan = SteadyChannel(AWGNFactory(8.0, 4))
    guest_ids = [f"g{i:02d}" for i in range(n_guests)]
    frames = {
        sid: generate_traffic(qam, fc, 1, chan, r)[0]
        for sid, r in zip(
            [s.session_id for s in residents] + guest_ids,
            rng.spawn(n_residents + n_guests),
        )
    }
    n = fc.total_symbols
    # 4 churned rounds x 64 + 4 resident rounds x 48 = 448 frames per pass
    symbols = (4 * (n_residents + n_guests) + 4 * n_residents) * n

    def churn_pass():
        served = 0
        guests = [
            engine.add_session(
                DemapperSession(sid, hybrid, monitor(), config=config, rng=i)
            )
            for i, sid in enumerate(guest_ids)
        ]
        for _ in range(4):
            for s in engine.sessions:
                s.submit(frames[s.session_id], now=engine.telemetry.now)
            served += engine.step()
        for g in guests:
            engine.remove_session(g.session_id, drain=True)
        for _ in range(4):
            for s in engine.sessions:
                s.submit(frames[s.session_id], now=engine.telemetry.now)
            served += engine.step()
        return served

    def sequential_pass():
        from repro.link.frames import frame_bers

        out = np.empty((n, 4))
        for sids in [
            [s.session_id for s in residents] + guest_ids,  # churned phase
            [s.session_id for s in residents],              # resident phase
        ]:
            for _ in range(4):
                for sid in sids:
                    f = frames[sid]
                    llrs = hybrid.llrs(f.received, out=out)
                    hat = (llrs > 0).astype(np.int8)
                    frame_bers(hat, qam.bit_matrix[f.indices], f.pilot_mask)

    assert churn_pass() == 4 * (n_residents + n_guests) + 4 * n_residents
    assert engine.telemetry.leaves == n_guests  # drains completed in-pass
    assert len(engine.sessions) == n_residents
    sequential_pass()
    benchmark.pedantic(churn_pass, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1)
    rate = _record(
        benchmark, "serving_churn[numpy]", symbols=symbols,
        extra={"backend": "numpy", "residents": n_residents, "guests": n_guests,
               "frame_symbols": n, "churn_fraction": n_guests / (n_residents + n_guests)},
    )
    if rate is None:
        return  # --benchmark-disable run: nothing to compare
    churn_times, seq_times = _interleaved_min_times(churn_pass, sequential_pass)
    _record_timed(
        "serving_churn_sequential[numpy]", seq_times, symbols=symbols,
        extra={"backend": "numpy", "residents": n_residents, "guests": n_guests,
               "frame_symbols": n},
    )
    speedup = min(seq_times) / min(churn_times)
    assert speedup >= 1.5, (
        f"churning engine must stay >= 1.5x sequential per-session demapping "
        f"at 25% fleet churn: got {speedup:.2f}x "
        f"({symbols / min(churn_times) / 1e6:.2f} vs "
        f"{symbols / min(seq_times) / 1e6:.2f} Msym/s)"
    )


def test_serving_faulted_overhead(benchmark):
    """Fault supervision under a sustained ~10% retrain-failure rate.

    7 of 64 sessions are flaky: their monitors fire every frame and their
    retrain policy raises every time, so each engine round absorbs ~7
    failure outcomes, records them, and schedules backed-off retries
    (``backoff_base=0`` keeps one failing retrain per flaky session per
    round; ``max_failures`` is effectively infinite so the breaker never
    opens and the injection rate stays constant).  The supervision path —
    outcome absorption, failure records, retry scheduling, resume-serving
    — is scalar bookkeeping, so the faulted engine must keep >= 1.3x the
    aggregate sym/s of per-session sequential demapping of the same
    workload.
    """
    from repro.channels import sigma2_from_snr
    from repro.channels.factories import AWGNFactory
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.link.frames import FrameConfig
    from repro.serving import (
        DemapperSession,
        EngineConfig,
        InjectedRetrainError,
        RetrainSupervisor,
        ServingEngine,
        SessionConfig,
        SteadyChannel,
        build_fleet,
        generate_traffic,
    )

    n_flaky = 7  # ~11% of the fleet
    n_steady = SERVE_SESSIONS - n_flaky
    fc = FrameConfig(pilot_symbols=32, payload_symbols=224)
    qam = qam_constellation(16)
    sigma2 = sigma2_from_snr(8.0, 4)
    hybrid = HybridDemapper(constellation=qam, sigma2=sigma2)
    config = SessionConfig(frame=fc, queue_depth=2)

    def failing_retrain(rng):
        raise InjectedRetrainError("injected: no model for you")

    engine = ServingEngine(config=EngineConfig(
        max_batch=SERVE_SESSIONS,
        supervisor=RetrainSupervisor(
            max_failures=10**9, backoff_base=0, backoff_factor=1.0
        ),
    ))
    sessions = build_fleet(
        engine, n_steady, hybrid,
        monitor_factory=lambda: PilotBERMonitor(0.5, window=4),
        config=config, seed=3, prefix="s",
    )
    for i in range(n_flaky):
        sessions.append(
            engine.add_session(
                DemapperSession(
                    f"f{i:02d}", hybrid,
                    # fires on any pilot error, every frame, no cooldown
                    PilotBERMonitor(1e-3, window=1, cooldown=0),
                    config=config, retrain=failing_retrain, rng=100 + i,
                )
            )
        )
    rng = np.random.default_rng(11)
    clean = SteadyChannel(AWGNFactory(8.0, 4))
    noisy = SteadyChannel(AWGNFactory(4.0, 4))  # pilot errors every frame
    frames = {
        s.session_id: generate_traffic(
            qam, fc, 1, noisy if s.session_id.startswith("f") else clean, r
        )[0]
        for s, r in zip(sessions, rng.spawn(SERVE_SESSIONS))
    }
    n = fc.total_symbols
    symbols = SERVE_SESSIONS * n

    def faulted_round():
        for s in sessions:
            s.submit(frames[s.session_id])
        return engine.step()

    sequential_round = _sequential_demap_round(sessions, frames, n)
    assert faulted_round() == SERVE_SESSIONS  # warm workspace; full occupancy
    faulted_round()
    faulted_round()  # reach the steady retry cadence
    before = engine.telemetry.retrain_failures
    assert faulted_round() == SERVE_SESSIONS  # flaky sessions still serve
    per_round = engine.telemetry.retrain_failures - before
    assert per_round == n_flaky, (
        f"expected one failing retrain per flaky session per round, "
        f"got {per_round}/{n_flaky}"
    )
    sequential_round()
    benchmark.pedantic(
        faulted_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1
    )
    rate = _record(
        benchmark, "serving_faulted[numpy]", symbols=symbols,
        extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
               "flaky_sessions": n_flaky, "frame_symbols": n,
               "failure_rate": n_flaky / SERVE_SESSIONS},
    )
    if rate is None:
        return  # --benchmark-disable run: nothing to compare
    faulted_times, seq_times = _interleaved_min_times(faulted_round, sequential_round)
    speedup = min(seq_times) / min(faulted_times)
    assert speedup >= 1.3, (
        f"faulted serving round must stay >= 1.3x sequential per-session "
        f"demapping at a {n_flaky}/{SERVE_SESSIONS} retrain-failure rate: "
        f"got {speedup:.2f}x "
        f"({symbols / min(faulted_times) / 1e6:.2f} vs "
        f"{symbols / min(seq_times) / 1e6:.2f} Msym/s)"
    )
    # supervision never broke serving: everything submitted was served and
    # every failure was recorded (none raised, none dropped)
    assert all(s.health == "healthy" for s in sessions)
    assert engine.telemetry.retrain_failures == len(engine.telemetry.failure_log)


def test_serving_coded_throughput(benchmark):
    """Coded serving round: demap + batched per-code Viterbi + CRC.

    The full fleet carries a shared ``CodedFrameConfig`` (K=3 (7,5) code,
    CRC-16, interleaved), so every round coalesces the demap *and* the
    64 sessions' decodes share one trellis-table dispatch.  Records the
    aggregate decoded info bits/s — ``check_bench.py`` holds an absolute
    floor on it — and asserts the decode stage is live and clean at 8 dB.
    """
    from repro.channels import sigma2_from_snr
    from repro.channels.factories import AWGNFactory
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.link.frames import FrameConfig
    from repro.serving import (
        CodedFrameConfig,
        EngineConfig,
        ServingEngine,
        SessionConfig,
        SteadyChannel,
        build_fleet,
        coded_layout,
        generate_traffic,
    )

    fc = FrameConfig(pilot_symbols=32, payload_symbols=224)
    qam = qam_constellation(16)
    sigma2 = sigma2_from_snr(8.0, 4)
    coded = CodedFrameConfig()
    layout = coded_layout(coded, fc.payload_symbols * 4)
    engine = ServingEngine(config=EngineConfig(max_batch=SERVE_SESSIONS))
    sessions = build_fleet(
        engine,
        SERVE_SESSIONS,
        HybridDemapper(constellation=qam, sigma2=sigma2),
        monitor_factory=lambda: PilotBERMonitor(0.5, window=4),
        config=SessionConfig(frame=fc, queue_depth=2, coded=coded),
        seed=3,
    )
    rng = np.random.default_rng(11)
    chan = SteadyChannel(AWGNFactory(8.0, 4))
    frames = {
        s.session_id: generate_traffic(qam, fc, 1, chan, r, coded=coded)[0]
        for s, r in zip(sessions, rng.spawn(SERVE_SESSIONS))
    }
    info_bits = SERVE_SESSIONS * layout.n_info

    def coded_round():
        for s in sessions:
            s.submit(frames[s.session_id])
        return engine.step()

    assert coded_round() == SERVE_SESSIONS  # warm workspace; full occupancy
    assert engine.telemetry.frames_decoded == SERVE_SESSIONS  # decode is live
    assert engine.telemetry.crc_failures == 0  # 8 dB AWGN: clean decodes
    benchmark.pedantic(
        coded_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1
    )
    _record(
        benchmark, "serving_coded[numpy]", symbols=info_bits,
        extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
               "unit": "info_bits", "info_bits_per_frame": layout.n_info,
               "frame_symbols": fc.total_symbols,
               "constraint_length": coded.constraint_length},
    )


def _fleet_and_round(n_shards, *, parallel, fc, qams, sigma2):
    """Build one fleet (own session objects) and its submit-all+step round."""
    from repro.channels.factories import AWGNFactory
    from repro.extraction import HybridDemapper, PilotBERMonitor
    from repro.serving import (
        DemapperSession,
        EngineConfig,
        FleetFrontEnd,
        SessionConfig,
        SteadyChannel,
        generate_traffic,
    )

    fleet = FleetFrontEnd(
        n_shards,
        config=EngineConfig(max_batch=SERVE_SESSIONS),
        parallel=parallel,
    )
    master = np.random.default_rng(5)
    sessions = []
    for i in range(SERVE_SESSIONS):
        (srng,) = master.spawn(1)
        sessions.append(
            DemapperSession(
                f"s{i:03d}",
                HybridDemapper(constellation=qams[i % len(qams)], sigma2=sigma2),
                PilotBERMonitor(0.5, window=4),
                config=SessionConfig(frame=fc, queue_depth=2),
                rng=srng,
            )
        )
        fleet.add_session(sessions[-1])
    rng = np.random.default_rng(11)
    chan = SteadyChannel(AWGNFactory(8.0, 4))
    frames = {
        s.session_id: generate_traffic(
            qams[int(s.session_id[1:]) % len(qams)], fc, 1, chan, r
        )[0]
        for s, r in zip(sessions, rng.spawn(SERVE_SESSIONS))
    }

    def fleet_round():
        for s in sessions:
            s.submit(frames[s.session_id])
        return fleet.step()

    return fleet, fleet_round


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="fleet scaling bench needs >= 4 cores (thread-per-shard)",
)
def test_serving_fleet_scaling(benchmark):
    """4 engine shards behind one FleetFrontEnd vs the same fleet on 1 shard.

    64 sessions striped over 4 distinct (rotated) constellations, so
    affinity placement spreads the groups and each shard fuses its own
    micro-batch.  The NumPy demap kernels release the GIL, so 4 shard
    threads overlap; the larger frame keeps the round kernel-bound.  The
    acceptance bar (and the check_bench ratio gate) is >= 1.8x aggregate
    sym/s over the single-shard fleet serving the identical workload.
    """
    from repro.channels import sigma2_from_snr
    from repro.link.frames import FrameConfig

    fc = FrameConfig(pilot_symbols=32, payload_symbols=992)
    base = qam_constellation(16)
    qams = tuple(
        type(base)(points=base.points * np.exp(1j * g * 0.03)) for g in range(4)
    )
    sigma2 = sigma2_from_snr(8.0, 4)
    n = fc.total_symbols
    symbols = SERVE_SESSIONS * n

    fleet4, fleet4_round = _fleet_and_round(
        4, parallel=True, fc=fc, qams=qams, sigma2=sigma2
    )
    fleet1, fleet1_round = _fleet_and_round(
        1, parallel=False, fc=fc, qams=qams, sigma2=sigma2
    )
    try:
        # affinity placement must actually spread the work
        occupied = {fleet4.shard_of(s.session_id) for s in fleet4.sessions}
        assert len(occupied) == 4, f"groups collapsed onto shards {occupied}"
        assert fleet4_round() == SERVE_SESSIONS  # warm per-shard workspaces
        assert fleet1_round() == SERVE_SESSIONS
        benchmark.pedantic(
            fleet4_round, rounds=SERVE_ROUNDS, iterations=1, warmup_rounds=1
        )
        rate = _record(
            benchmark, "serving_fleet[numpy]", symbols=symbols,
            extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
                   "shards": 4, "frame_symbols": n},
        )
        if rate is None:
            return  # --benchmark-disable run: nothing to compare
        fleet4_times, fleet1_times = _interleaved_min_times(
            fleet4_round, fleet1_round
        )
        _record_timed(
            "serving_fleet_single[numpy]", fleet1_times, symbols=symbols,
            extra={"backend": "numpy", "sessions": SERVE_SESSIONS,
                   "shards": 1, "frame_symbols": n},
        )
        speedup = min(fleet1_times) / min(fleet4_times)
        assert speedup >= 1.8, (
            f"4-shard fleet must serve >= 1.8x the single-shard fleet at "
            f"N={SERVE_SESSIONS}: got {speedup:.2f}x "
            f"({symbols / min(fleet4_times) / 1e6:.2f} vs "
            f"{symbols / min(fleet1_times) / 1e6:.2f} Msym/s)"
        )
        # sharding never changes a bit: merged fleet counters agree
        assert (
            fleet4.stats().frames_served == fleet1.stats().frames_served
        )
    finally:
        fleet4.close()
        fleet1.close()


def test_exact_logmap_throughput(benchmark, stream):
    y, _ = stream
    qam = qam_constellation(16)
    ex = ExactLogMAPDemapper(qam)
    out = np.empty((N, 4))
    benchmark(ex.llrs, y, 0.02, out=out)
    _record(benchmark, "logmap_llrs[numpy]", symbols=N, extra={"backend": "numpy"})


def test_hard_demapper_throughput(benchmark, stream):
    from repro.modulation import HardDemapper

    y, _ = stream
    hd = HardDemapper(qam_constellation(16))
    benchmark(hd.demap_indices, y)
    _record(benchmark, "hard_indices[numpy]", symbols=N, extra={"backend": "numpy"})


def test_ann_inference_throughput(benchmark, stream, bench_system_8db):
    _, y2 = stream
    benchmark(bench_system_8db.demapper.forward, y2)
    rate = _record(benchmark, "ann_forward", symbols=N)
    if rate is not None:
        assert rate > 1e6


def test_quantized_inference_throughput(benchmark, stream, bench_system_8db):
    _, y2 = stream
    q = QuantizedDemapper(bench_system_8db.demapper)
    benchmark(q.hard_bits, y2)
    _record(benchmark, "quantized_hard_bits", symbols=N)


def test_e2e_train_step(benchmark):
    rng = np.random.default_rng(0)
    mapper = MapperANN(16, rng=rng)
    demapper = DemapperANN(4, rng=rng)
    system = AESystem(mapper, demapper, AWGNChannel(8.0, 4, rng=rng))
    opt = Adam(mapper.parameters() + demapper.parameters(), lr=2e-3)

    def step():
        opt.zero_grad()
        loss = system.train_step(rng, 512)
        opt.step()
        return loss

    benchmark(step)
    _record(benchmark, "e2e_train_step", extra={"batch": 512})


def test_parallel_ber_chunked_throughput(benchmark):
    """The deterministic chunked Monte-Carlo path (1 worker, in-process)."""
    from repro.link import AWGNFactory, simulate_ber

    qam = qam_constellation(16)
    ml = MaxLogDemapper(qam)
    import functools

    demap = functools.partial(ml.demap_bits, sigma2=0.05)
    benchmark.pedantic(
        simulate_ber,
        args=(qam, None, demap, N),
        kwargs=dict(rng=5, batch_size=65536, channel_factory=AWGNFactory(8.0, 4)),
        rounds=3,
        iterations=1,
    )
    _record(benchmark, "simulate_ber_chunked", symbols=N)


def test_decision_region_sampling(benchmark, bench_system_8db):
    fn = bench_system_8db.demapper.bit_probability_fn()
    benchmark(sample_decision_regions, fn, extent=1.5, resolution=256)
    _record(benchmark, "decision_region_sampling", extra={"resolution": 256})


def test_full_extraction_lsq(benchmark, bench_system_8db, bench_constellation_8db):
    from repro.extraction import HybridDemapper

    sigma2 = AWGNChannel(8.0, 4).sigma2
    benchmark.pedantic(
        HybridDemapper.extract,
        args=(bench_system_8db.demapper, sigma2),
        kwargs=dict(method="lsq", fallback=bench_constellation_8db),
        rounds=5, iterations=1,
    )
    _record(benchmark, "full_extraction_lsq")
