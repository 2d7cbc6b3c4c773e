"""Export a serving run and render it as a text dashboard.

Two halves:

* :func:`export_run` — collect one :class:`~repro.serving.engine.
  ServingEngine`'s full observable state (telemetry snapshots, supervisor
  state, and — when attached — the trace buffer, profile and metrics dump)
  into one JSON-serializable dict, optionally written to disk;
* :func:`render_dashboard` — turn that dict (live or re-loaded from the
  JSON file) into a plain-text dashboard: engine headline numbers,
  per-session latency quantiles and health, tier/health timelines, the
  round-phase breakdown and the failure summary.

The CLI ties them together for post-hoc analysis::

    python -m repro.serving.obs_report run.json            # dashboard
    python -m repro.serving.obs_report run.json --section sessions

Everything here reads snapshots only — running it never touches engine
state, in keeping with the observability layer's passivity contract.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serving.observability.profiling import ENGINE_PHASES
from repro.serving.telemetry import SCHEMA_VERSION

__all__ = ["export_run", "render_dashboard", "main"]

#: schema version of the exported run document — the one serving-wide
#: constant (engine/session snapshots and fleet snapshots carry it too)
EXPORT_SCHEMA = SCHEMA_VERSION


def export_run(engine, *, sessions=None, path=None, indent=None) -> dict:
    """Snapshot one engine's observable state into a JSON-ready dict.

    ``sessions`` optionally extends/overrides the engine's current registry
    — pass it when drained or hard-removed sessions should still appear in
    the report (their stats objects outlive the engine registration).
    ``path`` writes the document as JSON (``indent`` forwarded); the dict
    is returned either way.
    """
    by_id = {s.session_id: s for s in engine.sessions}
    if sessions is not None:
        for s in sessions:
            by_id.setdefault(s.session_id, s)
    run = {
        "schema": EXPORT_SCHEMA,
        "engine": engine.telemetry.snapshot(),
        "supervisor": engine.supervisor.snapshot(),
        "sessions": {sid: by_id[sid].stats.snapshot() for sid in sorted(by_id)},
        "health": {sid: by_id[sid].health for sid in sorted(by_id)},
    }
    tracer = getattr(engine, "tracer", None)
    if tracer is not None:
        run["trace"] = tracer.snapshot()
    profiler = getattr(engine, "profiler", None)
    if profiler is not None:
        run["profile"] = profiler.snapshot()
    registry = getattr(engine, "registry", None)
    if registry is not None:
        run["metrics"] = registry.to_json()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(run, fh, indent=indent)
    return run


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _engine_section(run: dict) -> list[str]:
    eng = run["engine"]
    lines = ["== engine =="]
    lines.append(
        f"rounds={eng['rounds']} batches={eng['batches']} "
        f"frames={eng['frames_served']} symbols={eng['symbols_served']} "
        f"mean_occupancy={eng['mean_occupancy']:.2f}"
    )
    lines.append(
        f"joins={eng['joins']} leaves={eng['leaves']} "
        f"drains={eng['drains_completed']}/{eng['drains_started']} "
        f"dropped={eng['frames_dropped']} quarantined={eng['frames_quarantined']}"
    )
    qw, st = eng["queue_wait"], eng["service_time"]
    lines.append(
        f"queue_wait p50={qw['p50']} p99={qw['p99']} mean={qw['mean']:.1f}  "
        f"service_time p50={st['p50']} p99={st['p99']}  (symbol ticks)"
    )
    lines.append(
        f"retrains started={eng['retrains_started']} "
        f"completed={eng['retrains_completed']} retried={eng['retrains_retried']} "
        f"failed={eng['retrain_failures']} hung={eng['retrains_hung']} "
        f"tracks={eng['tracks']}"
    )
    return lines


def _sessions_section(run: dict) -> list[str]:
    lines = ["== sessions =="]
    lines.append(
        f"{'session':<12} {'frames':>7} {'p50':>6} {'p99':>6} {'mean':>8} "
        f"{'retr':>5} {'trk':>4} {'trig':>5} health"
    )
    health = run.get("health", {})
    for sid in sorted(run["sessions"]):
        s = run["sessions"][sid]
        qw = s["queue_wait"]
        mean = qw["mean"]
        lines.append(
            f"{sid:<12} {s['frames_served']:>7} {qw['p50']:>6} {qw['p99']:>6} "
            f"{mean:>8.1f} {s['retrains']:>5} {s['tracks']:>4} "
            f"{len(s['trigger_seqs']):>5} {health.get(sid, '?')}"
        )
    return lines


def _timelines_section(run: dict) -> list[str]:
    lines = ["== timelines =="]
    for sid in sorted(run["sessions"]):
        tiers = run["sessions"][sid].get("tier_timeline", [])
        if tiers:
            steps = " ".join(f"{seq}:{tier}" for seq, tier in tiers)
            lines.append(f"tier   {sid:<12} {steps}")
    for tick, sid, health in run["engine"].get("health_timeline", []):
        lines.append(f"health [{tick:>8}] {sid:<12} -> {health}")
    if len(lines) == 1:
        lines.append("(no tier or health transitions)")
    return lines


def _phases_section(run: dict) -> list[str]:
    lines = ["== round phases =="]
    profile = run.get("profile")
    if profile and profile.get("phases"):
        lines.append(f"{'phase':<18} {'calls':>8} {'total':>12} {'mean':>12}")
        # round order first, then any phase the engine does not emit itself
        order = {name: i for i, name in enumerate(ENGINE_PHASES)}
        for name in sorted(profile["phases"], key=lambda p: (order.get(p, len(order)), p)):
            st = profile["phases"][name]
            lines.append(
                f"{name:<18} {st['count']:>8} {_fmt_ms(st['total_s']):>12} "
                f"{_fmt_ms(st['mean_s']):>12}"
            )
        launches = profile.get("launches") or {}
        for width in sorted(launches, key=lambda w: int(w)):
            st = launches[width]
            lines.append(
                f"{'launch w=' + str(width):<18} {st['count']:>8} "
                f"{_fmt_ms(st['total_s']):>12} {_fmt_ms(st['mean_s']):>12}"
            )
        return lines
    trace = run.get("trace")
    if trace:
        counts: dict[str, int] = {}
        for e in trace["events"]:
            if e["name"].startswith("phase."):
                counts[e["name"]] = counts.get(e["name"], 0) + 1
        if counts:
            lines.append("(no profiler attached — trace event counts only)")
            for name in sorted(counts):
                lines.append(f"{name:<24} {counts[name]:>8}")
            return lines
    lines.append("(no profiler or trace attached)")
    return lines


def _failures_section(run: dict) -> list[str]:
    summary = run["engine"].get("failure_summary", {"total": 0})
    lines = ["== failures =="]
    if not summary.get("total"):
        lines.append("(none)")
        return lines
    lines.append(f"total={summary['total']}")
    for kind in sorted(summary.get("by_kind", {})):
        lines.append(f"kind   {kind:<12} {summary['by_kind'][kind]}")
    for action in sorted(summary.get("by_action", {})):
        lines.append(f"action {action:<12} {summary['by_action'][action]}")
    return lines


def _trace_section(run: dict) -> list[str]:
    trace = run.get("trace")
    lines = ["== trace =="]
    if not trace:
        lines.append("(no tracer attached)")
        return lines
    lines.append(
        f"events={len(trace['events'])} capacity={trace['capacity']} "
        f"dropped={trace['dropped']}"
    )
    return lines


_SECTIONS = {
    "engine": _engine_section,
    "sessions": _sessions_section,
    "timelines": _timelines_section,
    "phases": _phases_section,
    "failures": _failures_section,
    "trace": _trace_section,
}


def render_dashboard(run: dict, *, sections=None) -> str:
    """Render an exported run (or its JSON re-load) as a text dashboard."""
    chosen = list(_SECTIONS) if sections is None else list(sections)
    blocks = []
    for name in chosen:
        try:
            renderer = _SECTIONS[name]
        except KeyError:
            raise ValueError(
                f"unknown section {name!r}; choose from {sorted(_SECTIONS)}"
            ) from None
        blocks.append("\n".join(renderer(run)))
    return "\n\n".join(blocks) + "\n"


def main(argv=None) -> int:
    """CLI entry point: load an exported run file, print the dashboard."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.obs_report",
        description="Render a text dashboard from an exported serving run "
        "(see repro.serving.obs_report.export_run).",
    )
    parser.add_argument("run", help="path to the exported run JSON")
    parser.add_argument(
        "--section",
        action="append",
        choices=sorted(_SECTIONS),
        help="render only these sections (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    with open(args.run, encoding="utf-8") as fh:
        run = json.load(fh)
    sys.stdout.write(render_dashboard(run, sections=args.section))
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via main() directly
    raise SystemExit(main())
