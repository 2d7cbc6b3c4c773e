"""Per-stage wall-clock profiling of the serving round.

Where the :class:`~repro.serving.observability.tracing.Tracer` orders
events on the deterministic symbol clock, the :class:`RoundProfiler`
answers the one question that clock cannot: *where does the wall time go?*
Attached via ``EngineConfig(profiler=...)`` it accumulates
``perf_counter`` timings per round phase (``absorb-outcomes`` /
``schedule`` / ``coalesce`` / ``demap-launch`` / ``control-plane`` /
``decode`` / ``retrain-submit`` / ``weight-control``) and per-batch
kernel-launch timings keyed by launch width — the data that says whether
coalescing is amortizing launch overhead, the FEC decode or the per-frame
control plane is eating the round.  Each name is recorded in one place:
``control-plane`` is a batch's post-demap work (retrain submits included)
minus its coded ``decode`` stage, which only batches carrying coded rows
record, and ``weight-control`` is the once-per-round SLO weight
controller.

Observe-only and off by default: the engine consults nothing here, wall
timings never reach the deterministic state, and with no profiler attached
the hot path's only cost is a ``None`` check (the phase context manager is
a shared no-op).  Wall numbers are inherently machine/noise dependent —
they belong in dashboards and ``obs_report``, never in deterministic
snapshots or test assertions.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = ["RoundProfiler"]

#: The engine's round phases, in round order (the profiler accepts any
#: name — this is the set the engine emits).
ENGINE_PHASES = (
    "absorb-outcomes",
    "schedule",
    "coalesce",
    "demap-launch",
    "control-plane",
    "decode",
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


class RoundProfiler:
    """Accumulates wall-clock per-phase and per-launch-width timings."""

    def __init__(self) -> None:
        self.phases: dict[str, _StageStat] = {}
        #: kernel-launch timings keyed by coalesced width (frames/launch)
        self.launches: dict[int, _StageStat] = {}

    @contextmanager
    def phase(self, name: str):
        """Time one phase occurrence (context manager)."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.account(name, perf_counter() - t0)

    def account(self, name: str, seconds: float) -> None:
        """Add one timed occurrence of a phase."""
        stat = self.phases.get(name)
        if stat is None:
            stat = self.phases[name] = _StageStat()
        stat.add(seconds)

    def record_launch(self, width: int, seconds: float) -> None:
        """Add one kernel-launch timing under its coalesced width."""
        stat = self.launches.get(width)
        if stat is None:
            stat = self.launches[width] = _StageStat()
        stat.add(seconds)

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
