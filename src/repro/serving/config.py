"""Engine construction config: one frozen object instead of keyword sprawl.

``EngineConfig`` consolidates every :class:`~repro.serving.engine.
ServingEngine` construction knob into a single immutable value.  The fleet
front-end (:mod:`repro.serving.fleet`) replicates one config per shard —
``ServingEngine(config=...)`` is the one constructor path it uses — and a
frozen dataclass makes "same config on every shard" a checkable property
instead of a convention.

This module is deliberately dependency-light (no engine import) so the
config can be built, validated and compared without touching the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["EngineConfig"]

#: config fields that hold live/stateful collaborators — a fleet must not
#: replicate one of these across shards (shared mutable state), so
#: :class:`~repro.serving.fleet.FleetFrontEnd` refuses a multi-shard
#: replication of a config with any of them set (use ``config_factory``).
STATEFUL_FIELDS = (
    "scheduler",
    "weight_controller",
    "supervisor",
    "tracer",
    "profiler",
    "on_frame",
)


@dataclass(frozen=True)
class EngineConfig:
    """Immutable construction-time configuration of a ``ServingEngine``.

    Validation happens here (at config build time) so a bad knob fails
    before any engine state exists.

    Parameters
    ----------
    max_batch:
        Maximum frames coalesced into one kernel launch.
    retrain_workers:
        Thread count of the background retrain worker (``0`` = run retrain
        jobs inline on the engine thread — the determinism reference).
    backend:
        Compute backend instance (default: the process-wide selection).
    scheduler:
        Frame scheduler (default: a fresh
        :class:`~repro.serving.scheduler.DeficitRoundRobin` with quantum
        1.0 — one frame per weight-1 session per round).
    weight_controller:
        Optional :class:`~repro.serving.weights.WeightController` closing
        the queue-wait-SLO → scheduler-weight loop (``None`` = static
        weights).  Consulted once per round.
    supervisor:
        The :class:`~repro.serving.faults.RetrainSupervisor` deciding a
        failed retrain job's fate: retry with exponential backoff (in
        engine rounds), declare an over-deadline job hung, and after
        ``max_failures`` open the circuit breaker — the session moves to
        DEGRADED, keeps serving on its last-good demapper (the paper's
        hybrid fallback) and stops escalating triggers.  Default: a fresh
        supervisor with stock knobs (3 failures, backoff 1·2^n rounds, no
        hung deadline).
    on_frame:
        Optional per-frame hook ``(session, frame, llrs, report)``; ``llrs``
        is an engine-owned buffer valid only during the call (copy to keep).
    tracer:
        Optional :class:`~repro.serving.observability.Tracer` receiving the
        frame-lifecycle / round-phase / fault event stream on the simulated
        symbol clock.  Strictly observe-only: attaching one changes no
        per-session output bit (the passivity contract pinned by
        ``tests/serving/test_differential.py``).
    profiler:
        Optional :class:`~repro.serving.observability.RoundProfiler`
        accumulating wall-clock per-phase and per-launch-width timings.
        Observe-only like the tracer; with neither attached the hot path
        pays only ``None`` checks.
    """

    max_batch: int = 64
    retrain_workers: int = 0
    backend: Any = None
    scheduler: Any = None
    weight_controller: Any = None
    supervisor: Any = None
    on_frame: Callable | None = None
    tracer: Any = None
    profiler: Any = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.retrain_workers < 0:
            raise ValueError("n_workers must be >= 0")

    def stateful_fields_set(self) -> tuple[str, ...]:
        """Names of the live-collaborator fields that are non-None.

        A config with any of these set cannot be replicated across fleet
        shards — the shards would share one scheduler/supervisor/tracer.
        """
        return tuple(f for f in STATEFUL_FIELDS if getattr(self, f) is not None)
