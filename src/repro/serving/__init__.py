"""Multi-session streaming demapper runtime with cross-session micro-batching.

The paper's deployment story at fleet scale: after (re)training, each live
stream is served by a cheap centroid-driven conventional demapper while
pilot/ECC monitors decide when to retrain (§II-C).  This package turns that
into an online, *self-adapting* serving system:

* :mod:`repro.serving.session` — per-session receiver state machines
  (demapper + monitor + bounded frame queue + own σ² estimate + tiered
  adaptation ladder);
* :mod:`repro.serving.scheduler` — QoS-weighted deficit-round-robin frame
  scheduling (per-session ``SessionConfig.weight``, burst-capped credit);
* :mod:`repro.serving.weights` — SLO-driven adaptive weights: a
  ``WeightController`` steers each session's live scheduler share from its
  own queue-wait histogram (boost on missed SLO, decay back when healthy);
* :mod:`repro.serving.batching` — cross-session micro-batching onto the
  multi-sigma backend kernels (sessions sharing a centroid set share one
  fused launch);
* :mod:`repro.serving.config` — ``EngineConfig``, the one frozen
  construction config an engine (or every shard of a fleet) is built from;
* :mod:`repro.serving.coding` — coded traffic: ``CodedFrameConfig``
  declares a session's payload as an interleaved, CRC-protected
  convolutional codeword; the shared ``CodedLayout`` (via
  ``coded_layout``) owns the encode/decode geometry — one trellis table
  set and one interleaver permutation per (config, frame shape) fleet-wide;
* :mod:`repro.serving.engine` — the serving loop: schedule, coalesce,
  demap, estimate σ², monitor, climb the adaptation ladder
  (track → retrain);
* :mod:`repro.serving.fleet` — ``FleetFrontEnd``: N engine shards behind
  one facade, with constellation-affinity placement, live migration
  (drain-handover, zero frame loss) and fleet-merged telemetry;
* :mod:`repro.serving.worker` — background retrain/re-extract jobs with
  atomic per-session demapper swaps (no global stall); every job failure
  surfaces as an outcome, never a raise, and waits are boundable;
* :mod:`repro.serving.faults` — the fault-tolerance layer: session health
  (HEALTHY / DEGRADED / QUARANTINED), the ``RetrainSupervisor``
  retry/backoff/circuit-breaker policy, poison-frame quarantine, and the
  seeded ``FaultPlan`` chaos-injection harness;
* :mod:`repro.serving.loadgen` — deterministic seeded traffic over the
  channel-zoo factories, including churn schedules (``SessionPlan`` /
  ``run_churn_load``) and fleet runs with scheduled migrations
  (``MigrationPlan`` / ``run_fleet_load``);
* :mod:`repro.serving.telemetry` — per-session and engine-level counters
  (frames, symbols/s, batch-occupancy histogram, retrain/track events,
  join/leave/drain/migration counters with a fleet-size timeline,
  pilot-BER and σ² trajectories, queue-wait / service-time latency
  histograms on a simulated symbol clock), all snapshotted under the one
  ``SCHEMA_VERSION``;
* :mod:`repro.serving.observability` — the passive observability layer:
  frame-lifecycle tracing on the symbol clock (``Tracer``, Chrome
  ``trace_event`` + event-log exports), a unified ``MetricsRegistry``
  (counters/gauges/histograms, Prometheus/JSON exporters, shard
  ``merge()``) and per-stage round profiling (``RoundProfiler``) — none of
  which changes a single per-session output bit;
* :mod:`repro.serving.obs_report` — ``python -m repro.serving.obs_report``:
  a text dashboard over an exported run (latency quantiles, health/tier
  timelines, phase breakdown).

Quick start (see ``examples/serving_multisession.py`` for the full demo)::

    engine = ServingEngine(config=EngineConfig(max_batch=64, retrain_workers=2))
    build_fleet(engine, 64, hybrid,
                monitor_factory=lambda: PilotBERMonitor(0.08),
                config=SessionConfig(sigma2_alpha=0.3, tracking=True))
    traffic = {s.session_id: generate_traffic(...) for s in engine.sessions}
    stats = run_load(engine, traffic)

Sharded, with live migration::

    fleet = FleetFrontEnd(4, config=EngineConfig(max_batch=64))
    for session in sessions:
        fleet.add_session(session)          # constellation-affinity placement
    stats = run_fleet_load(fleet, traffic,
                           migrations=[MigrationPlan("s001", round=3, dest_shard=2)])

Coded traffic (CRC-triggered adaptation, per-session FER telemetry)::

    coded = CodedFrameConfig()              # K=3 (7,5) code, CRC-16, interleaved
    config = SessionConfig(coded=coded)
    build_fleet(engine, 8, hybrid, monitor_factory=..., config=config)
    traffic = {s.session_id: generate_traffic(..., coded=coded)
               for s in engine.sessions}
    stats = run_load(engine, traffic)
    engine.session("s000").stats.frame_error_rate   # post-FEC FER

The engine routes each coded frame's payload LLRs through deinterleave →
soft Viterbi (the ``viterbi_decode`` backend kernel, one row-batched launch
per code) → CRC check.  A window of CRC failures fires the adaptation
ladder exactly like pilot-BER degradation — payload-aware triggering — and
a failed CRC marks the frame *served-with-decode-failure* (still the served
leg of the conservation ledger, never silently dropped), with
``frame.decoded`` / ``frame.crc_fail`` trace events and FER / post-FEC-BER
telemetry.

``from repro.serving import *`` is a supported, stable surface: ``__all__``
below is the package's public API, tiered by subsystem.
"""

from repro.serving.batching import MicroBatch, coalesce, collect_microbatches
from repro.serving.coding import CodedFrameConfig, CodedLayout, coded_layout
from repro.serving.config import EngineConfig
from repro.serving.engine import ServingEngine
from repro.serving.faults import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    FailureRecord,
    FaultPlan,
    InjectedRetrainError,
    RetrainHungError,
    RetrainSupervisor,
)
from repro.serving.fleet import FleetFrontEnd
from repro.serving.loadgen import (
    AnnRetrainPolicy,
    MigrationPlan,
    SessionPlan,
    SteadyChannel,
    SteppedChannel,
    build_fleet,
    generate_traffic,
    run_churn_load,
    run_fleet_load,
    run_load,
)
from repro.serving.observability import (
    MetricsRegistry,
    RoundProfiler,
    TraceEvent,
    Tracer,
)
from repro.serving.scheduler import DeficitRoundRobin
from repro.serving.session import (
    RETRAINING,
    SERVING,
    DemapperSession,
    ServingFrame,
    SessionConfig,
)
from repro.serving.telemetry import (
    SCHEMA_VERSION,
    EngineStats,
    LatencyHistogram,
    ServedFrame,
    SessionStats,
)
from repro.serving.weights import WeightController
from repro.serving.worker import RetrainWorker

#: The public API, tiered by subsystem.  ``from repro.serving import *``
#: imports exactly this surface — internal helpers stay underscore-private
#: in their modules (``engine._stage``, the tracer's packed-tuple ring,
#: ``batching._session_request``).
__all__ = [
    # engine + fleet
    "ServingEngine",
    "FleetFrontEnd",
    "EngineConfig",
    # session state machine
    "SERVING",
    "RETRAINING",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "SessionConfig",
    "ServingFrame",
    "DemapperSession",
    # coded traffic (FEC layout shared across sessions)
    "CodedFrameConfig",
    "CodedLayout",
    "coded_layout",
    # scheduling + batching
    "MicroBatch",
    "coalesce",
    "collect_microbatches",
    "DeficitRoundRobin",
    "WeightController",
    "RetrainWorker",
    # load generation (traffic, churn, fleet migration)
    "SteadyChannel",
    "SteppedChannel",
    "AnnRetrainPolicy",
    "generate_traffic",
    "build_fleet",
    "run_load",
    "SessionPlan",
    "run_churn_load",
    "MigrationPlan",
    "run_fleet_load",
    # faults
    "FailureRecord",
    "FaultPlan",
    "InjectedRetrainError",
    "RetrainHungError",
    "RetrainSupervisor",
    # telemetry + observability
    "SCHEMA_VERSION",
    "ServedFrame",
    "SessionStats",
    "EngineStats",
    "LatencyHistogram",
    "Tracer",
    "TraceEvent",
    "MetricsRegistry",
    "RoundProfiler",
]
