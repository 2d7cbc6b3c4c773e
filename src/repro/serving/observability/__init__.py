"""Serving observability: tracing, unified metrics, round profiling.

Three passive layers over the serving runtime, all off by default and all
observe-only (attaching any of them changes no per-session output bit —
the determinism contract extends to observability):

* :mod:`repro.serving.observability.tracing` — a bounded ring-buffer
  :class:`Tracer` of typed frame-lifecycle / round-phase / fault events on
  the simulated symbol clock, exportable as Chrome ``trace_event`` JSON or
  a plain event log (``EngineConfig(tracer=...)``);
* :mod:`repro.serving.observability.metrics` — a :class:`MetricsRegistry`
  unifying counters, gauges and latency histograms behind one named,
  labelled interface with Prometheus-text and JSON exporters and a
  shard-combining ``merge()`` (``engine.register_metrics(registry)``);
* :mod:`repro.serving.observability.profiling` — a :class:`RoundProfiler`
  of per-phase and per-launch-width wall-clock timings
  (``EngineConfig(profiler=...)``).

``python -m repro.serving.obs_report run.json`` renders an exported run
(:func:`repro.serving.obs_report.export_run`) as a text dashboard.
"""

from repro.serving.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serving.observability.profiling import ENGINE_PHASES, RoundProfiler
from repro.serving.observability.tracing import TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ENGINE_PHASES",
    "RoundProfiler",
    "TraceEvent",
    "Tracer",
]
