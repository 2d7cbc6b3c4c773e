"""Serving benchmark: closed-loop workloads, end-to-end metrics, per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload uniform-short --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``uniform-short``, ``coded-short`` and
``fleet-long-mixed``.  Load comes from one process: 64 closed-loop clients,
one per session, each refilling its session's bounded queue before every
round and retrying refused submissions the next round (``run_load``'s
backpressure semantics).

``--trace 0`` measures, untraced, for ``--seconds`` seconds and reports the
end-to-end metrics: served symbols/s and delivered info bits/s (CRC-passed
decoded bits for coded traffic, payload bits otherwise) over the quickest
tenth of the client cycles, the 10th percentiles of round wall time and of
frame latency (accepted submit to the end of the round that served it),
set-up time (median of several builds, each = session build + traffic
generation + warm-up rounds), peak RSS and the share of attempted frames
delivered intact.  The frame latency's p50 and p90 are printed but not
reported as metrics.

Why the quick end of each distribution: on a shared host the same round
runs at one of two speeds, about 1.5x apart, depending on what the
neighbours do, and the share of a run spent in the slow state changes from
run to run.  A median or a p90 then mostly measures the neighbours; the
quickest tenth measures the program in the host's quiet state, and is what
a change to the program moves.  It does not see a change that slows only
some rounds; the traced run's per-layer calls and self times do.

``--trace 1`` spends half the time traced (``spans.py`` wraps each layer's
entry points from outside ``src/``) and half untraced, and reports the
per-layer metrics: calls and self milliseconds per round, the raw demap
kernel's symbol rate, round wall over kernel self time, launch fill, CRC
pass ratio, fleet dispatch cost and parallel efficiency, and
``trace_overhead`` (traced over untraced 10th-percentile round).  The spans are
written to ``perfbench/out/``.

Every run also checks, and exits non-zero on failure: conservation
(``accepted == served + dropped + quarantined + pending`` per session after
every round), the sequential-oracle output check (``check.py``), and in
traced runs that span counts equal the engine's own counters.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import deque
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end rates and round/frame times are taken at this quantile of the
#: quick end: rates over the quickest tenth of the client cycles, times at
#: their 10th percentile.  All frames of a round complete together, so
#: rounds, not frames, are the independent samples; the slowest workload
#: (coded-short, about 400 rounds in 30 s) leaves 40 below it.
QUICK = 0.1


class ClosedLoop:
    """64 closed-loop clients around one serving program.

    Tracks, per session, frames accepted, the submit time of every queued
    frame, and checks conservation after every round.
    """

    def __init__(self, system):
        self.system = system
        self.server = system.server
        self.sessions = system.sessions
        self.sids = [s.session_id for s in self.sessions]
        self.traffic = system.traffic
        n = len(self.sessions)
        self.accepted = [0] * n
        self.settled = [0] * n
        self.submitted_at = [deque() for _ in range(n)]
        self.next_frame = [t.frame(0) for t in self.traffic]
        self.violations: list[str] = []

    def produce(self) -> None:
        submit = self.server.submit
        for i, sid in enumerate(self.sids):
            frame = self.next_frame[i]
            stamps = self.submitted_at[i]
            while submit(sid, frame):
                stamps.append(perf_counter())
                self.accepted[i] += 1
                frame = self.traffic[i].frame(self.accepted[i])
            self.next_frame[i] = frame

    def round(self, round_times: list, latencies: list) -> None:
        self.produce()
        t0 = perf_counter()
        self.server.step()
        t1 = perf_counter()
        round_times.append(t1 - t0)
        self.settle(t1, latencies)

    def settle(self, t_end: float, latencies: list) -> None:
        """Read completions off the per-session counters (queues are FIFO)."""
        for i, session in enumerate(self.sessions):
            st = session.stats
            served = st.frames_served
            lost = st.frames_dropped + st.frames_quarantined
            done = served + lost
            stamps = self.submitted_at[i]
            for _ in range(done - self.settled[i]):
                latencies.append(t_end - stamps.popleft())
            self.settled[i] = done
            if self.accepted[i] != done + session.pending and len(self.violations) < 100:
                self.violations.append(
                    f"{self.sids[i]}: accepted {self.accepted[i]} != served "
                    f"{served} + dropped/quarantined {lost} + pending {session.pending}"
                )


def timed_phase(loop: ClosedLoop, seconds: float) -> dict:
    """Run closed-loop rounds for ``seconds``; returns timings and counter deltas.

    ``cycles`` holds one row per client cycle (refill, ``step()``,
    completion read): its seconds, then the symbols served, frames served
    and decoded frames passing CRC during it.
    """
    rounds: list[float] = []
    latencies: list[float] = []
    cycles: list[tuple] = []
    progress = loop.system.progress
    before = loop.system.counters()
    accepted0 = sum(loop.accepted)
    counts = progress()
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        loop.round(rounds, latencies)
        t1 = perf_counter()
        now = progress()
        cycles.append((t1 - t0, *(b - a for a, b in zip(counts, now))))
        counts = now
        if t1 >= deadline:
            break
    after = loop.system.counters()
    delta = {k: after[k] - before[k] for k in after}
    delta["accepted"] = sum(loop.accepted) - accepted0
    return {
        "rounds": np.asarray(rounds),
        "latencies": np.asarray(latencies),
        "cycles": np.asarray(cycles, dtype=float),
        "delta": delta,
    }


def set_up(workload, seed: int):
    """Build sessions, generate traffic, warm up.

    Returns ``(specs, system, loop, seconds taken)``.
    """
    from workloads import System, session_specs

    t0 = perf_counter()
    specs, traffic = session_specs(workload, seed)
    system = System(workload, specs, traffic)
    loop = ClosedLoop(system)
    for _ in range(workload.warmup_rounds):
        loop.round([], [])
    return specs, system, loop, perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident memory of the process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    workload, phase: dict, setup_times: list[float], rss_mb: float, ok_frac: float
) -> dict:
    """End-to-end metrics: rates over the quickest tenth of the cycles,
    times at their 10th percentile."""
    from repro.serving import CodedFrameConfig, coded_layout
    from workloads import BITS_PER_SYMBOL

    cycles = phase["cycles"]
    quick = cycles[np.argsort(cycles[:, 0])[: max(1, int(QUICK * len(cycles)))]]
    seconds, symbols, frames, decoded_ok = quick.sum(axis=0)
    payload_bits = workload.payload_symbols * BITS_PER_SYMBOL
    if workload.coded:
        delivered = decoded_ok * coded_layout(CodedFrameConfig(), payload_bits).n_info
    else:
        delivered = frames * payload_bits
    lat_ms = phase["latencies"] * 1e3
    return {
        "sym_per_s": (float(symbols / seconds), "sym/s"),
        "info_bits_per_s": (float(delivered / seconds), "bit/s"),
        "round_ms_p10": (float(np.quantile(phase["rounds"], QUICK)) * 1e3, "ms"),
        "frame_ms_p10": (float(np.quantile(lat_ms, QUICK)), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "frames_ok_frac": (ok_frac, "ratio"),
    }


def per_layer(workload, tracer, traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-round layer metrics from the traced phase, plus the counter check."""
    from spans import LAYERS
    from workloads import MAX_BATCH, SHARDS

    agg, notes = tracer.totals()
    d = traced["delta"]
    rounds = len(traced["rounds"])
    round_wall = sum(traced["rounds"])
    out: dict = {}
    for name in LAYERS:
        calls, seconds = agg[name]
        out[f"{name}.calls"] = (calls / rounds, "count")
        out[f"{name}.self_ms"] = (seconds * 1e3 / rounds, "ms")
    kernel_s = agg["dispatch.batched_maxlog_llrs"][1]
    launches = agg["dispatch.batched_maxlog_llrs"][0]
    out["dispatch.batched_maxlog_llrs.sym_per_s"] = (
        notes["launch_symbols"] / kernel_s if kernel_s else 0.0, "sym/s"
    )
    out["round_over_kernel"] = (round_wall / kernel_s if kernel_s else 0.0, "ratio")
    out["batching.rows_per_launch"] = (
        notes["launch_rows"] / (launches * MAX_BATCH) if launches else 0.0, "ratio"
    )
    decoded = notes["decoded_rows"]
    out["coding.crc_pass_ratio"] = (notes["crc_pass"] / decoded if decoded else 0.0, "ratio")
    step_seconds = tracer.step_seconds()
    out["fleet.parallel_efficiency"] = (
        step_seconds / (SHARDS * tracer.fleet_wall) if tracer.fleet_wall else 0.0, "ratio"
    )
    out["trace_overhead"] = (
        float(np.quantile(traced["rounds"], QUICK) / np.quantile(untraced["rounds"], QUICK)),
        "ratio",
    )

    calls = {name: agg[name][0] for name in LAYERS}
    served = d["frames_served"]
    expect = {
        "engine.step": d["rounds"],
        "scheduler.allocate": d["rounds"],
        "dispatch.batched_maxlog_llrs": d["batches"],
        "estimation.estimate_noise_sigma2_batch": d["batches"],
        "telemetry.record_batch": d["batches"],
        "telemetry.record_frame": served,
        "session.observe_sigma2": served,
        "telemetry.LatencyHistogram.record": 3 * served,
        "monitor.observe": served + d["frames_decoded"],
        "session.apply_track": d["tracks"],
        "engine.submit": d["accepted"] + d["rejects"],
        "tracing.emit": d["trace_events"],
        "fleet.step": rounds if workload.fleet else 0,
    }
    problems = [
        f"span count {name}.calls = {calls[name]}, program counter says {want}"
        for name, want in expect.items()
        if calls[name] != want
    ]
    if notes["decoded_rows"] != d["frames_decoded"]:
        problems.append(
            f"decode_rows decoded {notes['decoded_rows']} frames, "
            f"engine counted {d['frames_decoded']}"
        )
    if notes["crc_pass"] != d["frames_decoded"] - d["crc_failures"]:
        problems.append("CRC passes seen by decode_rows differ from the engine's")
    if calls["dispatch.grouped_viterbi_decode"] != calls["coding.decode_rows"]:
        problems.append("grouped_viterbi_decode and decode_rows call counts differ")
    if notes["launch_symbols"] != d["symbols_served"]:
        problems.append(
            f"kernel launches carried {notes['launch_symbols']} symbols, "
            f"engine served {d['symbols_served']}"
        )
    # every layer that does work on this workload must have been seen
    idle = set()
    if not workload.coded:
        idle |= {"coding.decode_rows", "dispatch.grouped_viterbi_decode"}
    if not workload.fleet:
        idle |= {"fleet.step", "session.apply_track", "tracing.emit"}
    problems += [
        f"layer {name} was never called" for name in LAYERS if name not in idle and not calls[name]
    ]
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no serving program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from check import run_check
    from spans import SpanTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_times = []
    system = None
    for _ in range(workload.setup_repeats):
        if system is not None:
            system.close()
            del specs, system, loop
            gc.collect()
        specs, system, loop, seconds = set_up(workload, args.seed)
        setup_times.append(seconds)

    problems: list[str] = []
    try:
        if args.trace:
            tracer = SpanTracer()
            tracer.install()
            try:
                traced = timed_phase(loop, args.seconds / 2)
            finally:
                tracer.remove()
            untraced = timed_phase(loop, args.seconds / 2)
            metrics, trace_problems = per_layer(workload, tracer, traced, untraced)
            problems += trace_problems
            out = HERE / "out" / f"trace-{workload.name}.json"
            n_spans = tracer.write(out, {"workload": workload.name, "seed": args.seed})
            print(f"wrote {n_spans} spans to {out.relative_to(ROOT)}")
        else:
            phase = timed_phase(loop, args.seconds)
            rss_mb = peak_rss_mb()
        # untimed: serve what is still queued, then account every frame
        system.server.drain(max_rounds=1000)
        loop.settle(perf_counter(), [])
        problems += loop.violations
        attempted = sum(loop.accepted)
        served = sum(s.stats.frames_served for s in system.sessions)
        crc_failed = sum(s.stats.crc_failures for s in system.sessions)
        failed = attempted - (served - crc_failed)
        problems += run_check(workload, specs, system.traffic, system.sessions)
    finally:
        system.close()

    if not args.trace:
        metrics = end_to_end(
            workload, phase, setup_times, rss_mb, (attempted - failed) / attempted
        )
        cycles = phase["cycles"]
        p50, p90 = np.quantile(phase["latencies"], (0.5, 0.9)) * 1e3
        print(f"{workload.name}: 64 closed-loop clients, {len(cycles)} rounds "
              f"({int(QUICK * len(cycles))} in the quickest tenth), "
              f"{len(phase['latencies'])} frame latencies over {cycles[:, 0].sum():.2f} s; "
              f"frame latency p50 {p50:.3f} ms, p90 {p90:.3f} ms (unbounded: they "
              f"follow the host's slow-state share)")
    print(f"frames attempted {attempted}, succeeded {attempted - failed}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
