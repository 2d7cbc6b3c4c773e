"""Per-stage wall-clock profiling of the serving round.

Where the :class:`~repro.serving.observability.tracing.Tracer` orders
events on the deterministic symbol clock, the :class:`RoundProfiler`
answers the one question that clock cannot: *where does the wall time go?*
Attached via ``EngineConfig(profiler=...)`` it accumulates wall seconds
per round stage and per kernel-launch width — the data that says whether
coalescing is amortizing launch overhead, or the accounting, the FEC
decode or the per-frame control plane is eating the round.
:data:`ENGINE_PHASES` is the stage vocabulary: the engine closes every
stage with one call that both accounts it here and traces
``phase.<name>``, so the profiled phases and the traced ``phase.*`` events
are always the same names.

Observe-only and off by default: the engine consults nothing here, wall
timings never reach the deterministic state, and with no profiler attached
the hot path's only cost is a ``None`` check.  Wall numbers are inherently
machine/noise dependent — they belong in dashboards and ``obs_report``,
never in deterministic snapshots or test assertions.
"""

from __future__ import annotations

__all__ = ["RoundProfiler"]

#: The engine's round stages in round order (:mod:`repro.serving.engine`
#: describes them), each profiled under its name and traced as
#: ``phase.<name>``; the profiler itself accepts any name.
ENGINE_PHASES = (
    "absorb-outcomes",
    "schedule",
    "coalesce",
    "demap-launch",
    "accounting",
    "sigma2-estimate",
    "decode",
    "control-plane",
    "retrain-submit",
    "weight-control",
)


class _StageStat:
    """count/total/min/max accumulator for one phase or launch width."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count if self.count else float("nan"),
            "min_s": self.min if self.count else float("nan"),
            "max_s": self.max,
        }


def _add(table: dict, key, seconds: float) -> None:
    stat = table.get(key)
    if stat is None:
        stat = table[key] = _StageStat()
    stat.add(seconds)


class RoundProfiler:
    """Accumulates wall-clock per-phase and per-launch-width timings."""

    def __init__(self) -> None:
        self.phases: dict[str, _StageStat] = {}
        #: kernel-launch timings keyed by coalesced width (frames/launch)
        self.launches: dict[int, _StageStat] = {}

    def account(self, name: str, seconds: float, width: int | None = None) -> None:
        """Add one timed occurrence of a phase; a kernel launch also passes
        its coalesced ``width`` and is added under :attr:`launches` too."""
        _add(self.phases, name, seconds)
        if width is not None:
            _add(self.launches, width, seconds)

    def clear(self) -> None:
        self.phases.clear()
        self.launches.clear()

    def snapshot(self) -> dict:
        """Plain-dict copy: per-phase and per-width count/total/mean/min/max.

        Wall-clock data — keep it out of deterministic comparisons.
        """
        return {
            "phases": {
                name: self.phases[name].snapshot() for name in sorted(self.phases)
            },
            "launches": {
                width: self.launches[width].snapshot()
                for width in sorted(self.launches)
            },
        }

    def register_metrics(self, registry, *, prefix: str = "serving_profile_") -> None:
        """Expose phase/launch totals as live callback counters.

        Registers the phases and widths seen *so far* (idempotent —
        re-call after a run, or whenever new phases may have appeared, to
        pick up the rest).
        """
        for name in self.phases:
            labels = {"phase": name}
            registry.counter(
                prefix + "seconds_total", labels,
                fn=lambda n=name: self.phases[n].total,
            )
            registry.counter(
                prefix + "calls_total", labels,
                fn=lambda n=name: self.phases[n].count,
            )
        for width in self.launches:
            labels = {"width": str(width)}
            registry.counter(
                prefix + "launch_seconds_total", labels,
                fn=lambda w=width: self.launches[w].total,
            )
            registry.counter(
                prefix + "launches_total", labels,
                fn=lambda w=width: self.launches[w].count,
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"RoundProfiler(phases={sorted(self.phases)})"
