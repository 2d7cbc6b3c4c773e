"""Serving counters — per-session and engine-level observability.

The serving engine is the first subsystem where throughput and the paper's
adaptation loop meet, so its telemetry spans both worlds: per-session link
quality (pilot-BER trajectory, σ² trajectory, adaptation-tier timeline —
the §II-C monitoring story) and engine-level efficiency (frames/symbols
served, micro-batch occupancy, queue-wait / service-time latency
histograms — whether cross-session coalescing is actually filling the
fused kernels, and what the tail looks like while it does).

**Simulated clock.**  Latency is measured in *symbol ticks*: the engine's
clock is the cumulative number of symbols it has served (the work-conserving
clock of a fixed-rate hardware demapper).  A frame's ``queue_wait`` is the
symbols the engine served between the frame's submission and the start of
its batch; its ``service_time`` is the symbols of the launch that carried it
(a frame riding a wide coalesced batch completes with its whole batch).
Both are pure functions of the seeded traffic, the weights and the batch
composition — histograms are reproducible run to run, which is what makes
them assertable in tests and comparable across benchmark commits.

Everything here is plain counters updated from the engine thread; snapshots
are cheap dict copies safe to hand to logging/benchmark code.

**Snapshot schema.**  Every serving snapshot — ``EngineStats.snapshot()``,
``SessionStats.snapshot()``, ``obs_report.export_run`` and
``FleetFrontEnd.snapshot()`` — carries the one shared
:data:`SCHEMA_VERSION` so exporters and ``check_bench.py`` can evolve the
contract without guessing.  Both stats classes also re-register every
field through a :class:`~repro.serving.observability.metrics.
MetricsRegistry` via :meth:`register_metrics` (live callback views —
nothing is double-counted and no ``snapshot()`` consumer changes).

**Coded traffic.**  Sessions declaring a
:class:`~repro.serving.coding.CodedFrameConfig` add a decode dimension:
``frames_decoded``/``crc_failures`` counters, the per-frame post-FEC BER
trajectory, the CRC-failure sequence list, and the derived
``frame_error_rate`` — all per-session in frame order (so they are part of
the determinism contract) plus fleet-wide on :class:`EngineStats`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "ServedFrame",
    "SessionStats",
    "EngineStats",
    "LatencyHistogram",
]

#: The one snapshot/export schema version shared by ``EngineStats``,
#: ``SessionStats``, ``obs_report.export_run`` and
#: ``FleetFrontEnd.snapshot()``: 1 = PR 3 counters, 2 = churn/control-plane
#: era, 3 = fault era (failure summary, health counters, quarantine
#: counts), 4 = fleet era (migration counters, merged fleet snapshots, one
#: unified version across engine snapshots and run exports), 5 = coded era
#: (decode counters, FER, post-FEC BER trajectory, CRC-failure seqs).
SCHEMA_VERSION = 5

#: SessionStats integer counters, in snapshot order — the fields
#: :meth:`SessionStats.register_metrics` exposes as live counters and
#: :meth:`SessionStats.snapshot` lists first.
_SESSION_COUNTER_FIELDS = (
    "frames_served",
    "symbols_served",
    "retrains",
    "tracks",
    "rejects",
    "drain_refusals",
    "frames_dropped",
    "frames_quarantined",
    "retrain_failures",
    "quarantine_refusals",
    "poison_rejected",
    "frames_decoded",
    "crc_failures",
)

#: EngineStats integer counters, in snapshot order (merged, registered and
#: listed first by :meth:`EngineStats.snapshot`).
_ENGINE_COUNTER_FIELDS = (
    "rounds",
    "batches",
    "frames_served",
    "symbols_served",
    "retrains_started",
    "retrains_completed",
    "retrains_orphaned",
    "retrain_failures",
    "retrains_hung",
    "retrains_retried",
    "sessions_degraded",
    "sessions_quarantined",
    "frames_quarantined",
    "tracks",
    "joins",
    "leaves",
    "drains_started",
    "drains_completed",
    "frames_dropped",
    "migrations_in",
    "migrations_out",
    "frames_decoded",
    "crc_failures",
)


@dataclass(frozen=True)
class ServedFrame:
    """Per-frame serving report (the serving analogue of ``FrameReport``).

    ``tier`` is the adaptation tier the frame's monitor trigger escalated
    to (``"track"``/``"retrain"``), or None when nothing fired; ``sigma2``
    is the session's noise estimate *after* this frame's in-loop pilot
    update.  ``queue_wait``/``service_time`` are simulated-clock symbol
    ticks (see the module docstring).

    Coded sessions additionally carry the decode verdict: ``crc_ok`` is
    the frame's CRC check (None for uncoded traffic) and ``post_fec_ber``
    the information-bit error rate after FEC (NaN when uncoded or when the
    frame carried no truth bits).  A failed CRC does *not* make the frame
    dropped — it is served-with-decode-failure and stays in the served leg
    of the conservation ledger.
    """

    session_id: str
    seq: int
    pilot_ber: float
    payload_ber: float
    fired: bool          #: monitor trigger on this frame
    monitor_level: float
    tier: str | None = None
    sigma2: float = float("nan")
    queue_wait: int = 0
    service_time: int = 0
    crc_ok: bool | None = None
    post_fec_ber: float = float("nan")


class LatencyHistogram:
    """Power-of-two bucketed histogram of simulated-clock tick counts.

    Bucket ``b`` counts observations in ``[2^(b-1), 2^b)`` (bucket 0 counts
    exact zeros), so a histogram over millions of frames stays a handful of
    integers while preserving the shape of the tail.  Exact mean and count
    are tracked alongside; :meth:`quantile` returns the conservative upper
    bound of the bucket containing the requested rank.
    """

    __slots__ = ("_buckets", "count", "total")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0

    def record(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("ticks must be >= 0")
        b = int(ticks).bit_length()
        self._buckets[b] = self._buckets.get(b, 0) + 1
        self.count += 1
        self.total += int(ticks)

    @property
    def mean(self) -> float:
        """Exact mean of recorded ticks (NaN while empty)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket holding the ``q``-quantile observation.

        Conservative (never under-reports): the true quantile lies at or
        below the returned tick count.  Returns 0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0
        rank = q * self.count
        seen = 0
        for b in sorted(self._buckets):
            seen += self._buckets[b]
            if seen >= rank:
                return (1 << b) - 1 if b else 0
        return (1 << max(self._buckets)) - 1  # pragma: no cover — q=1 hits above

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram's observations into this one (in place).

        Equivalent to having recorded the other histogram's observations
        here (bucket-exactly: both use the same power-of-two bucketing), so
        per-shard snapshots can be combined into a fleet-wide view without
        re-observing.  Returns ``self`` for chaining.
        """
        for b, n in other._buckets.items():
            self._buckets[b] = self._buckets.get(b, 0) + n
        self.count += other.count
        self.total += other.total
        return self

    def snapshot(self) -> dict:
        """Plain-dict copy: count, total, mean, p50/p99, bucket upper bounds."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": {
                ((1 << b) - 1 if b else 0): self._buckets[b]
                for b in sorted(self._buckets)
            },
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"LatencyHistogram(count={self.count}, mean={self.mean:.1f})"


@dataclass
class SessionStats:
    """Lifetime counters of one session.

    ``pilot_ber_trajectory`` and ``sigma2_trajectory`` hold one entry per
    served frame in frame order — together with ``trigger_seqs`` and
    ``tier_timeline`` they are the session's adaptation timeline (the
    determinism tests assert all four are invariant to batching, queue
    depth, worker count and scheduler weights).

    The three per-frame float trajectories (pilot BER, σ², post-FEC BER)
    are ``array('d')``: 8 bytes per served frame instead of a boxed float
    plus a list slot, so a long-running session's memory grows with its
    traffic at the raw float rate.  They index, slice and iterate like
    lists; :meth:`snapshot` hands out plain lists.
    """

    frames_served: int = 0
    symbols_served: int = 0
    retrains: int = 0
    #: rigid centroid-tracking updates applied (the cheap adaptation tier)
    tracks: int = 0
    #: submissions rejected by backpressure (queue full); producers may
    #: retry, so this counts *rejection events*, not lost frames
    rejects: int = 0
    #: submissions refused because the session was draining (leaving the
    #: engine); unlike ``rejects`` these are final — retrying cannot help
    drain_refusals: int = 0
    #: queued frames discarded by a hard ``remove_session(drain=False)``
    frames_dropped: int = 0
    #: frames fenced off by a quarantine: the poison frame that tripped the
    #: post-demap guard plus every frame queued behind it — accepted but
    #: never demapped, the third leg of the conservation ledger
    frames_quarantined: int = 0
    #: retrain jobs for this session that raised or hung (each one also has
    #: a :class:`FailureRecord` in ``EngineStats.failure_log``)
    retrain_failures: int = 0
    #: submissions refused because the session is quarantined (final, like
    #: drain refusals — the frame was never accepted)
    quarantine_refusals: int = 0
    #: submissions refused by the opt-in ``validate_frames`` finite check
    poison_rejected: int = 0
    #: served frames that went through the FEC decode path (coded sessions
    #: only — equals ``frames_served`` there, 0 for uncoded traffic)
    frames_decoded: int = 0
    #: decoded frames whose CRC check failed — served-with-decode-failure,
    #: still in the served leg of the conservation ledger, never dropped
    crc_failures: int = 0
    trigger_seqs: list[int] = field(default_factory=list)
    #: ``(seq, tier)`` per trigger that got an adaptation response
    tier_timeline: list[tuple[int, str]] = field(default_factory=list)
    pilot_ber_trajectory: array = field(default_factory=lambda: array("d"))
    #: session σ² estimate after each served frame's in-loop pilot update
    sigma2_trajectory: array = field(default_factory=lambda: array("d"))
    #: seqs of decoded frames whose CRC failed (frame order, like
    #: ``trigger_seqs`` — part of the coded determinism contract)
    crc_fail_seqs: list[int] = field(default_factory=list)
    #: post-FEC information-bit error rate per decoded frame, frame order
    post_fec_ber_trajectory: array = field(default_factory=lambda: array("d"))
    #: this session's own queue-wait histogram (symbol ticks) — the signal
    #: the engine's :class:`~repro.serving.weights.WeightController` steers
    #: scheduler weights from
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: ``(engine tick, new weight)`` per adaptive-weight change applied to
    #: this session (empty when no controller is installed)
    weight_timeline: list[tuple[int, float]] = field(default_factory=list)
    #: ``(engine tick, health)`` per health transition (HEALTHY is implicit
    #: at birth — the timeline only logs changes)
    health_timeline: list[tuple[int, str]] = field(default_factory=list)

    def record_frame(
        self,
        seq: int,
        n_symbols: int,
        pilot_ber: float,
        fired: bool,
        *,
        tier: str | None = None,
        sigma2: float = float("nan"),
        crc_ok: bool | None = None,
        post_fec_ber: float = float("nan"),
    ) -> None:
        self.frames_served += 1
        self.symbols_served += n_symbols
        self.pilot_ber_trajectory.append(pilot_ber)
        self.sigma2_trajectory.append(sigma2)
        if fired:
            self.trigger_seqs.append(seq)
        if tier is not None:
            self.tier_timeline.append((seq, tier))
        if crc_ok is not None:
            self.frames_decoded += 1
            self.post_fec_ber_trajectory.append(post_fec_ber)
            if not crc_ok:
                self.crc_failures += 1
                self.crc_fail_seqs.append(seq)

    @property
    def frame_error_rate(self) -> float:
        """Post-FEC FER: CRC failures per decoded frame (NaN before any)."""
        return (
            self.crc_failures / self.frames_decoded
            if self.frames_decoded
            else float("nan")
        )

    def register_metrics(
        self,
        registry,
        *,
        labels: dict | None = None,
        prefix: str = "serving_session_",
    ) -> None:
        """Expose every counter through a ``MetricsRegistry`` as live views.

        Callback-backed registration: scrapes read current values straight
        off this object, nothing is double-counted, and ``snapshot()``
        consumers are untouched.  Re-registering (e.g. a reused session id
        after churn) rebinds the views to the new object.
        """
        labels = dict(labels or {})
        for name in _SESSION_COUNTER_FIELDS:
            registry.counter(prefix + name, labels, fn=lambda f=name: getattr(self, f))
        registry.histogram(prefix + "queue_wait", labels, source=lambda: self.queue_wait)
        registry.gauge(prefix + "triggers", labels, fn=lambda: len(self.trigger_seqs))
        registry.gauge(prefix + "fer", labels, fn=lambda: self.frame_error_rate)

    def snapshot(self) -> dict:
        """Plain-dict copy (lists and trajectories copied to lists) for
        logging/JSON."""
        return {
            "schema": SCHEMA_VERSION,
            **{name: getattr(self, name) for name in _SESSION_COUNTER_FIELDS},
            "frame_error_rate": self.frame_error_rate,
            "trigger_seqs": list(self.trigger_seqs),
            "tier_timeline": list(self.tier_timeline),
            "pilot_ber_trajectory": list(self.pilot_ber_trajectory),
            "sigma2_trajectory": list(self.sigma2_trajectory),
            "crc_fail_seqs": list(self.crc_fail_seqs),
            "post_fec_ber_trajectory": list(self.post_fec_ber_trajectory),
            "queue_wait": self.queue_wait.snapshot(),
            "weight_timeline": list(self.weight_timeline),
            "health_timeline": list(self.health_timeline),
        }


@dataclass
class EngineStats:
    """Engine-level counters.

    ``occupancy`` maps micro-batch size (frames coalesced into one kernel
    launch) to how many launches had that size — the histogram that tells
    whether cross-session batching is working (all-ones means every launch
    served a single session and the multi-sigma kernel bought nothing).
    ``queue_wait``/``service_time`` are per-frame latency histograms in
    simulated symbol ticks; ``symbols_served`` doubles as the simulated
    clock (see the module docstring).
    """

    rounds: int = 0
    batches: int = 0
    frames_served: int = 0
    symbols_served: int = 0
    retrains_started: int = 0
    retrains_completed: int = 0
    #: retrain jobs whose session was removed before the job landed — the
    #: result is discarded instead of installed (hard churn during retrain)
    retrains_orphaned: int = 0
    #: retrain jobs that raised or hung, fleet-wide (every one also appends
    #: a record to ``failure_log`` — the satellite fix for the old poll()
    #: keeping only the first exception)
    retrain_failures: int = 0
    #: the subset of failures that were hung jobs (deadline expiry or a
    #: wait-timeout abandonment) rather than raising jobs
    retrains_hung: int = 0
    #: supervised retry submissions (backed-off re-launches after a failure)
    retrains_retried: int = 0
    #: sessions whose circuit breaker opened (moved to DEGRADED)
    sessions_degraded: int = 0
    #: sessions fenced off by the post-demap non-finite guard
    sessions_quarantined: int = 0
    #: frames fenced off fleet-wide (poison frames + frames queued behind them)
    frames_quarantined: int = 0
    #: tracking-tier responses applied across the fleet
    tracks: int = 0
    #: sessions registered over the engine's lifetime (incl. the initial fleet)
    joins: int = 0
    #: sessions fully removed (drained sessions count here once the drain ends)
    leaves: int = 0
    #: graceful removals requested (``remove_session(drain=True)``)
    drains_started: int = 0
    #: graceful removals whose queue fully drained and left the engine
    drains_completed: int = 0
    #: queued frames discarded by hard removals across the fleet
    frames_dropped: int = 0
    #: sessions adopted from another shard (``import_session``) — counted
    #: as a join too, so join/leave conservation still balances per shard
    migrations_in: int = 0
    #: sessions handed over to another shard (``export_session``) — counted
    #: as a leave too; nothing is dropped on this path
    migrations_out: int = 0
    #: served frames routed through the FEC decode path, fleet-wide
    frames_decoded: int = 0
    #: decoded frames whose CRC failed, fleet-wide (served, never dropped)
    crc_failures: int = 0
    #: ``(engine tick, live session count)`` per join/leave — the fleet-size
    #: timeline; churn soaks assert against it, dashboards plot it
    fleet_timeline: list[tuple[int, int]] = field(default_factory=list)
    #: every retrain failure / hang / poison event as a
    #: :class:`~repro.serving.faults.FailureRecord` — the complete fault
    #: ledger, in engine order (deterministic under a seeded FaultPlan)
    failure_log: list = field(default_factory=list)
    #: ``(engine tick, session id, health)`` per fleet health transition —
    #: the engine-level mirror of each session's own ``health_timeline``
    health_timeline: list[tuple[int, str, str]] = field(default_factory=list)
    occupancy: dict[int, int] = field(default_factory=dict)
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    service_time: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def now(self) -> int:
        """The simulated clock: total symbol ticks served so far."""
        return self.symbols_served

    def record_batch(
        self, n_frames: int, n_symbols: int, *, launched: int | None = None
    ) -> None:
        """Account one kernel launch.

        ``n_frames``/``n_symbols`` are the frames *credited as served* (a
        quarantined row is launched but never served); ``launched`` keys the
        occupancy histogram with the true launch width when the two differ.
        """
        self.batches += 1
        self.frames_served += n_frames
        self.symbols_served += n_symbols
        width = n_frames if launched is None else launched
        self.occupancy[width] = self.occupancy.get(width, 0) + 1

    def record_fleet_size(self, size: int) -> None:
        """Append one fleet-size sample at the current simulated tick.

        Consecutive joins/leaves within one tick each get their own entry
        (the timeline is an event log, not a deduplicated series) so a soak
        can reconstruct the exact churn order.
        """
        self.fleet_timeline.append((self.now, size))

    @property
    def mean_occupancy(self) -> float:
        """Average frames per kernel launch (NaN before the first batch)."""
        return self.frames_served / self.batches if self.batches else float("nan")

    def failure_summary(self) -> dict:
        """The failure log aggregated: total plus per-kind/per-action counts.

        The compact form for dashboards and snapshots — the full per-record
        ledger stays in ``failure_log``.
        """
        by_kind: dict[str, int] = {}
        by_action: dict[str, int] = {}
        for r in self.failure_log:
            d = r.as_dict() if hasattr(r, "as_dict") else dict(r)
            kind = str(d.get("kind"))
            action = str(d.get("action"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
            by_action[action] = by_action.get(action, 0) + 1
        return {
            "total": len(self.failure_log),
            "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
            "by_action": {k: by_action[k] for k in sorted(by_action)},
        }

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Fold another engine's stats into this one (in place).

        The fleet aggregation primitive: counters add, the occupancy
        histogram adds bucket-wise, latency histograms merge bucket-exactly
        (:meth:`LatencyHistogram.merge`), and the event ledgers
        (fleet/health timelines, failure log) concatenate — each shard's
        ledger is internally ordered on its own simulated clock, so the
        concatenation is a per-shard-ordered union, not a global total
        order.  Returns ``self`` for chaining.
        """
        for name in _ENGINE_COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for width, n in other.occupancy.items():
            self.occupancy[width] = self.occupancy.get(width, 0) + n
        self.queue_wait.merge(other.queue_wait)
        self.service_time.merge(other.service_time)
        self.fleet_timeline.extend(other.fleet_timeline)
        self.failure_log.extend(other.failure_log)
        self.health_timeline.extend(other.health_timeline)
        return self

    def register_metrics(
        self,
        registry,
        *,
        labels: dict | None = None,
        prefix: str = "serving_engine_",
    ) -> None:
        """Expose every engine counter/histogram through a ``MetricsRegistry``.

        Live callback views over this object (see
        ``SessionStats.register_metrics``); the latency histograms are
        source-backed so a scrape sees the same buckets ``snapshot()`` does.
        """
        labels = dict(labels or {})
        for name in _ENGINE_COUNTER_FIELDS:
            registry.counter(prefix + name, labels, fn=lambda f=name: getattr(self, f))
        registry.counter(prefix + "failures", labels, fn=lambda: len(self.failure_log))
        registry.gauge(prefix + "mean_occupancy", labels, fn=lambda: self.mean_occupancy)
        registry.histogram(prefix + "queue_wait", labels, source=lambda: self.queue_wait)
        registry.histogram(
            prefix + "service_time", labels, source=lambda: self.service_time
        )

    def snapshot(self) -> dict:
        """Plain-dict copy for logging/JSON (occupancy keys sorted)."""
        return {
            "schema": SCHEMA_VERSION,
            **{name: getattr(self, name) for name in _ENGINE_COUNTER_FIELDS},
            "fleet_timeline": list(self.fleet_timeline),
            "failure_log": [
                r.as_dict() if hasattr(r, "as_dict") else dict(r)
                for r in self.failure_log
            ],
            "failure_summary": self.failure_summary(),
            "health_timeline": list(self.health_timeline),
            "mean_occupancy": self.mean_occupancy,
            "occupancy": {k: self.occupancy[k] for k in sorted(self.occupancy)},
            "queue_wait": self.queue_wait.snapshot(),
            "service_time": self.service_time.snapshot(),
        }
