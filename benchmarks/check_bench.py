#!/usr/bin/env python3
"""Bench regression gate: fail CI when a tracked hot path gets slower.

Reads the *committed* ``BENCH_micro.json`` as the baseline, re-runs the
micro-benchmark suite (which rewrites the artifact in place), and compares:

1. **Relative gate** — every benchmark with a ``symbols_per_second`` in both
   artifacts must not regress more than ``--tolerance`` (default 30%) vs the
   baseline.  Absolute throughput is machine-bound, so this gate only
   applies when the baseline was recorded on a matching environment
   (same machine/cpu-count/python/numpy ``machine_info``) — the committed
   baseline from a dev box must not fail a slower CI runner on hardware
   alone — and ``--no-run`` compares the artifact with itself.  Either way
   one ``relative gate inert: <reason>`` line says so.
2. **Ratio gates** — machine-independent invariants checked on the fresh
   artifact unconditionally:
   * serving engine >= 2x sequential per-session demapping,
   * control-plane serving >= 1.5x sequential,
   * churn-soak serving >= 1.5x sequential under 25% fleet churn,
   * faulted serving >= 1.3x sequential at a ~10% injected
     retrain-failure rate (supervision bookkeeping stays scalar),
   * fully-observed serving (tracer + profiler + metrics) >= 0.9x the
     untraced engine — observability overhead capped at ~10%,
   * a plain serving round >= 0.37x one raw demap of the same symbols
     (``serving_kernel_floor``) — the round's work around the kernel,
   * the same round with its sessions on 16 centroid sets >=
     ``MIXED_SETS_FLOOR`` x the one-set round, the two timed interleaved
     and read on their min — point sets share a launch,
   * one fused 8 x 1024-symbol max-log launch >= ``SWEEP_FUSION_FLOOR`` x
     its eight one-row calls (both tiers),
   * row-batched Viterbi (64 blocks, one launch) >= 10x the same 64 blocks
     decoded one launch each,
   * max-log demapping >= 1e6 sym/s (the historical floor, generous on any
     hardware this decade),
   * coded serving >= 1e6 decoded info bits/s (absolute floor on the
     ``serving_coded[numpy]`` round: demap + row-batched Viterbi + CRC).
3. **Environment-conditional ratio gates** — same invariant style, but the
   underlying benchmark only runs on capable machines, so an absent pair is
   a skip, not a failure:
   * 4-shard ``FleetFrontEnd`` >= 1.8x the single-shard fleet on the same
     64-session workload (recorded only on >= 4-core machines).

A failing bench suite (an in-bench assertion) does not stop the gates:
every gate is still evaluated and printed on the artifact the suite wrote,
and "benchmark suite failed" is listed among the failures.

Exit code 0 = gate passed; 1 = regression, failed suite, or missing
artifact/benchmark.

Usage::

    python benchmarks/check_bench.py              # run suite, then compare
    python benchmarks/check_bench.py --no-run     # ratio/floor gates on the existing artifact
    python benchmarks/check_bench.py --tolerance 0.2
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ARTIFACT = REPO / "BENCH_micro.json"

#: Floor of ``serving_batched / serving_kernel_floor``: the share of a plain
#: 64-session round spent in the raw demap kernel on the same symbols.  On
#: 2 vCPUs, over 10–13 bench runs each, it measured 0.27–0.42 (median 0.30)
#: before the round was cut to the pilot span and 0.38–0.69 (median 0.53)
#: after, so this floor fires if the round's work around the kernel grows
#: back to what it was.
KERNEL_SHARE_FLOOR = 0.37

#: Floor of ``sweep_maxlog_multi_1k / sweep_maxlog_seq_1k``: one fused
#: 8 x 1024-symbol max-log launch against its eight one-row calls.  On
#: 2 vCPUs, over 13 full bench runs, it measured 2.0–2.5 (numpy) and
#: 2.6–3.2 (numpy32); with the fused launch replaced by a per-row loop it
#: read 0.94–1.03, so the floor fires on lost fusion with margin both ways.
SWEEP_FUSION_FLOOR = 1.5

#: Floor of ``serving_mixed_sets / serving_one_set``: the serving round
#: with its 64 sessions on 16 centroid sets against the same round on one
#: set, both timed interleaved in one test and recorded on their min.  On
#: 2 vCPUs it read 0.55–0.60 when every set paid its own launch (16
#: launches of 4 rows) and 0.89–0.95 with one launch of per-row sets, so
#: the floor fires if point sets split launches again.
MIXED_SETS_FLOOR = 0.75

#: (numerator, denominator, floor) — machine-independent ratio invariants.
RATIO_GATES = [
    ("serving_batched[numpy]", "serving_sequential[numpy]", 2.0),
    ("serving_control_plane[numpy]", "serving_sequential[numpy]", 1.5),
    ("serving_churn[numpy]", "serving_churn_sequential[numpy]", 1.5),
    ("serving_faulted[numpy]", "serving_sequential[numpy]", 1.3),
    ("serving_traced[numpy]", "serving_batched[numpy]", 0.9),
    ("serving_batched[numpy]", "serving_kernel_floor[numpy]", KERNEL_SHARE_FLOOR),
    ("serving_mixed_sets[numpy]", "serving_one_set[numpy]", MIXED_SETS_FLOOR),
    ("sweep_maxlog_multi_1k[numpy]", "sweep_maxlog_seq_1k[numpy]", SWEEP_FUSION_FLOOR),
    ("sweep_maxlog_multi_1k[numpy32]", "sweep_maxlog_seq_1k[numpy32]", SWEEP_FUSION_FLOOR),
    ("viterbi_decode[rows64]", "viterbi_decode[rows1]", 10.0),
]

#: Ratio invariants whose benchmarks are environment-conditional (skipped on
#: machines that can't run them — see ENV_BENCH_NAMES below).  When
#: either side is absent from the fresh artifact the gate is *skipped*, not
#: failed: a <4-core runner never records the fleet pair.
ENV_RATIO_GATES = [
    ("serving_fleet[numpy]", "serving_fleet_single[numpy]", 1.8),
]

#: Benchmark names that only capable environments record; their absence from
#: a fresh run is expected, never a regression.  bench_micro.py imports it
#: to validate record names.
ENV_BENCH_NAMES = frozenset(
    {
        "maxlog_llrs[numba]",
        "serving_fleet[numpy]",
        "serving_fleet_single[numpy]",
    }
)

#: (benchmark, sym/s floor) — absolute floors low enough to be
#: machine-independent in practice.  ``serving_coded`` counts decoded info
#: bits: the row-batched decoder with label metrics and the matrix CRC
#: measured 2.1–3.6e6/s over 6 bench runs on 2 vCPUs, so the floor leaves
#: >= 2x headroom.
ABSOLUTE_FLOORS = [
    ("maxlog_llrs[numpy]", 1e6),
    ("serving_coded[numpy]", 1e6),
]


def load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")
    if not isinstance(data.get("benchmarks"), list):
        sys.exit(f"check_bench: {path} has no 'benchmarks' list")
    return data


def rates(artifact: dict) -> dict[str, float]:
    return {
        b["name"]: float(b["symbols_per_second"])
        for b in artifact["benchmarks"]
        if "symbols_per_second" in b
    }


def run_suite() -> bool:
    """Run the bench suite (it rewrites the artifact); True if it passed."""
    cmd = [
        sys.executable, "-m", "pytest",
        str(REPO / "benchmarks" / "bench_micro.py"),
        "--benchmark-only", "-q", "-p", "no:cacheprovider",
    ]
    # src/ first on the child's path, so the suite imports this checkout's
    # package with or without an editable install
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    print(f"check_bench: running {' '.join(cmd)}", flush=True)
    return subprocess.run(cmd, cwd=REPO, env=env).returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="max fractional sym/s regression vs baseline (default 0.30)")
    parser.add_argument("--no-run", action="store_true",
                        help="gate the existing artifact instead of re-running "
                             "(ratio and floor gates only)")
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")

    baseline = copy.deepcopy(load(ARTIFACT))
    suite_ok = args.no_run or run_suite()
    current = load(ARTIFACT)
    base_rates, cur_rates = rates(baseline), rates(current)

    # a failed suite still wrote its artifact: gate it, then fail
    failures: list[str] = [] if suite_ok else ["benchmark suite failed (in-bench assertion?)"]
    warnings: list[str] = []

    # 1. relative gate (a fresh run on the baseline's environment only)
    if args.no_run:
        inert = "--no-run compares the artifact with itself"
    elif baseline.get("machine_info") != current.get("machine_info"):
        inert = "machine_info differs from the committed baseline"
    else:
        inert = None
    if inert:
        print(f"\nrelative gate inert: {inert}")
    else:
        print(f"\n{'benchmark':<34} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name in sorted(base_rates):
        if name not in cur_rates:
            if name in ENV_BENCH_NAMES:
                warnings.append(
                    f"env-conditional benchmark {name!r} in the baseline was "
                    "not recorded by this environment"
                )
            else:
                failures.append(f"tracked benchmark {name!r} missing from the fresh run")
            continue
        if inert:
            continue
        ratio = cur_rates[name] / base_rates[name]
        print(f"{name:<34} {base_rates[name]:>10.3g}/s {cur_rates[name]:>10.3g}/s "
              f"{ratio:>6.2f}x")
        if ratio < 1.0 - args.tolerance:
            failures.append(f"{name}: {cur_rates[name]:.3g} sym/s is "
                            f"{(1 - ratio) * 100:.0f}% below baseline {base_rates[name]:.3g}")

    # 2. machine-independent ratio gates on the fresh artifact
    for num, den, floor in RATIO_GATES:
        if num not in cur_rates or den not in cur_rates:
            failures.append(f"ratio gate {num}/{den}: benchmark missing from artifact")
            continue
        ratio = cur_rates[num] / cur_rates[den]
        status = "ok" if ratio >= floor else "FAIL"
        print(f"ratio {num} / {den}: {ratio:.2f}x (floor {floor}x) {status}")
        if ratio < floor:
            failures.append(f"{num} is only {ratio:.2f}x {den}, floor is {floor}x")

    # 3. environment-conditional ratio gates: absent pair = skip, not failure
    for num, den, floor in ENV_RATIO_GATES:
        if num not in cur_rates or den not in cur_rates:
            print(f"ratio {num} / {den}: skipped (not recorded by this environment)")
            continue
        ratio = cur_rates[num] / cur_rates[den]
        status = "ok" if ratio >= floor else "FAIL"
        print(f"ratio {num} / {den}: {ratio:.2f}x (floor {floor}x) {status}")
        if ratio < floor:
            failures.append(f"{num} is only {ratio:.2f}x {den}, floor is {floor}x")

    for name, floor in ABSOLUTE_FLOORS:
        if name not in cur_rates:
            failures.append(f"floor gate {name}: benchmark missing from artifact")
            continue
        status = "ok" if cur_rates[name] >= floor else "FAIL"
        print(f"floor {name}: {cur_rates[name]:.3g} sym/s (floor {floor:.0e}) {status}")
        if cur_rates[name] < floor:
            failures.append(f"{name} at {cur_rates[name]:.3g} sym/s is below {floor:.0e}")

    for msg in warnings:
        print(f"check_bench: WARNING: {msg}")
    if failures:
        print("\ncheck_bench: FAILED")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print("\ncheck_bench: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
