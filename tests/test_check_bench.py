"""``benchmarks/check_bench.py``: which comparisons fail the gate, and when
the relative gate is inert.

The bench suite is never run here: ``run_suite`` is replaced by a writer
that puts the "fresh" artifact where the committed one was read from.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench.py"
INERT = "relative gate inert:"
MACHINE = {"node": "box", "cpu_count": 2}


@pytest.fixture
def check_bench():
    spec = importlib.util.spec_from_file_location("check_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def passing_rates(module) -> dict[str, float]:
    """Rates that clear every ratio gate and absolute floor, with margin."""
    names = {n for gate in module.RATIO_GATES for n in gate[:2]}
    names |= {name for name, _ in module.ABSOLUTE_FLOORS}
    rates = dict.fromkeys(sorted(names), 1e7)
    rates["untracked[numpy]"] = 1e7
    for num, den, floor in module.RATIO_GATES:
        if floor > 1.0:
            rates[den] = min(rates[den], rates[num] / (2 * floor))
    return rates


def artifact(rates: dict[str, float], machine=MACHINE) -> dict:
    return {
        "machine_info": machine,
        "benchmarks": [
            {"name": name, "symbols_per_second": rate} for name, rate in rates.items()
        ],
    }


def gate(module, monkeypatch, tmp_path, baseline: dict, fresh: dict, *argv):
    """Run ``main`` with ``baseline`` committed and ``fresh`` as the run."""
    path = tmp_path / "BENCH_micro.json"
    path.write_text(json.dumps(baseline))
    monkeypatch.setattr(module, "ARTIFACT", path)

    def run_suite():
        assert "--no-run" not in argv, "--no-run must not run the suite"
        path.write_text(json.dumps(fresh))

    monkeypatch.setattr(module, "run_suite", run_suite)
    return module.main(list(argv))


def test_passing_artifact_passes(check_bench, monkeypatch, tmp_path, capsys):
    rates = passing_rates(check_bench)
    assert gate(check_bench, monkeypatch, tmp_path, artifact(rates), artifact(rates)) == 0
    out = capsys.readouterr().out
    assert INERT not in out and "all gates passed" in out


def test_ratio_gate_below_floor_fails_and_names_the_pair(
    check_bench, monkeypatch, tmp_path, capsys
):
    rates = passing_rates(check_bench)
    fresh = dict(rates)
    fresh["serving_sequential[numpy]"] = fresh["serving_batched[numpy]"]
    assert gate(check_bench, monkeypatch, tmp_path, artifact(rates), artifact(fresh)) == 1
    failed = capsys.readouterr().out.split("check_bench: FAILED")[1]
    assert "serving_batched[numpy] is only 1.00x serving_sequential[numpy]" in failed


def test_relative_drop_on_matching_machine_fails(check_bench, monkeypatch, tmp_path, capsys):
    rates = passing_rates(check_bench)
    fresh = dict(rates)
    fresh["untracked[numpy]"] *= 0.6
    assert gate(check_bench, monkeypatch, tmp_path, artifact(rates), artifact(fresh)) == 1
    failed = capsys.readouterr().out.split("check_bench: FAILED")[1]
    assert "untracked[numpy]" in failed and "40% below baseline" in failed


@pytest.mark.parametrize("case", ["machine", "no-run"])
def test_inert_relative_gate_passes_and_says_so_once(
    check_bench, monkeypatch, tmp_path, capsys, case
):
    rates = passing_rates(check_bench)
    dropped = dict(rates)
    dropped["untracked[numpy]"] *= 0.6
    if case == "machine":
        baseline = artifact(rates)
        fresh = artifact(dropped, machine={**MACHINE, "cpu_count": 4})
        argv = ()
    else:
        baseline = fresh = artifact(dropped)
        argv = ("--no-run",)
    assert gate(check_bench, monkeypatch, tmp_path, baseline, fresh, *argv) == 0
    out = capsys.readouterr().out
    assert out.count(INERT) == 1
    assert "WARNING" not in out
