"""The multi-session streaming demapper runtime.

``ServingEngine`` is the software analogue of the paper's deployed receiver
fabric scaled out to many streams: after (re)training, every session serves
traffic through a cheap centroid demapper, and the runtime's job is to keep
the fused kernels full *and* every session's receiver state tracking its
channel.  One serving *round* (:meth:`ServingEngine.step`) runs the named
stages of :data:`~repro.serving.observability.profiling.ENGINE_PHASES`:

1. ``absorb-outcomes``: install the retrained demappers the background
   worker has finished (atomic per-session swap — no global pause);
2. ``schedule``: the deficit-round-robin scheduler
   (:mod:`repro.serving.scheduler`) sets per-session frame quotas (QoS
   weights: heavy sessions may take several frames from deep queues);
3. ``coalesce``: serve the quotas in *waves* — each wave pulls at most one
   frame per session and coalesces across sessions into micro-batches
   (:mod:`repro.serving.batching`); per micro-batch, ``demap-launch`` runs
   one ``maxlog_llrs_multi`` launch with a per-session σ² vector,
   ``accounting`` measures pilot BER, ``sigma2-estimate`` the pilots' noise
   (:func:`repro.link.estimation.estimate_noise_sigma2_batch`) and
   ``control-plane``, per frame, folds that into the session's σ² (EWMA),
   feeds its monitor and on a trigger climbs the adaptation ladder: a rigid
   centroid-tracking update first (session stays live), a
   ``retrain-submit`` of a retrain+re-extract job (:mod:`repro.serving.
   worker`) only when the impairment is non-rigid or degradation persists
   — the retraining session pauses, everyone else keeps streaming;
4. ``weight-control``: the optional SLO weight controller.

Sessions declaring a :class:`~repro.serving.coding.CodedFrameConfig` add the
``decode`` stage before ``control-plane``: payload LLRs are routed through
deinterleave → soft Viterbi (the ``viterbi_decode`` backend kernel, one
launch per coded group so sessions sharing a code share the trellis
tables) → CRC check.  The verdict feeds a second degradation monitor —
payload integrity can fire the adaptation ladder even when pilots look
clean — and per-session FER / post-FEC BER join the telemetry.  A failed
CRC marks the frame *served-with-decode-failure*: it stays in the served
leg of the conservation ledger, never silently dropped.

Waves are what reconcile multi-frame quotas with per-frame state: a
session's *n*-th frame of a round is always demapped with the σ², centroid
and monitor state left by its frame *n−1*, exactly as if the frames had
been served in separate rounds.  That is why per-session output timelines
are invariant to scheduler weights.

The engine also survives **session churn** under load: sessions may join a
live engine at any time (:meth:`ServingEngine.add_session` — the newcomer
starts from zero scheduler credit) and leave it
(:meth:`ServingEngine.remove_session`) either gracefully — *draining*:
served until its queue empties, accepting no new submissions, never
escalating to retrain — or hard: queued frames dropped, an in-flight
retrain orphaned on the worker.  Churn is fully accounted
(``EngineStats`` join/leave/drain counters and the fleet-size timeline),
and an optional :class:`~repro.serving.weights.WeightController` closes
the loop from per-session queue-wait histograms to the scheduler's live
weights (sessions missing their SLO get boosted, healthy ones decay back
to the configured base).

Determinism contract: with a fixed traffic seed, per-session LLRs,
decoded-frame CRC verdicts and post-FEC BER, pilot-BER and σ² trajectories,
the trigger/tier timeline and health states are identical regardless of
micro-batch width, queue depth, retrain worker count, scheduler weights,
churn, shard count, placement, migration, observers, or faults in other
sessions — batching only shares the kernels' distance stage (bit-identical
rows on the default tier), every per-frame state update is a pure function
of the session's own frame order (an inline retrain's outcome reaches the
supervisor before the session's next wave), and a retraining session is
never served by stale centroids.  ``tests/serving/test_differential.py``
checks randomly drawn combinations of all of these knobs against one
sequential oracle (``max_batch=1``, queue depth 1, inline retrains,
weights 1, no observers).
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.backend import get_backend
from repro.backend.dispatch import batched_maxlog_llrs, point_runs
from repro.backend.numpy_backend import NumpyBackend
from repro.extraction.monitor import TIER_RETRAIN, TIER_TRACK
from repro.link.estimation import estimate_noise_sigma2_batch
from repro.serving.batching import MicroBatch, coalesce
from repro.serving.coding import coded_layout
from repro.serving.config import EngineConfig
from repro.serving.faults import (
    FailureRecord,
    RetrainHungError,
    RetrainSupervisor,
)
from repro.serving.scheduler import DeficitRoundRobin
from repro.serving.session import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    RETRAINING,
    SERVING,
    DemapperSession,
    ServingFrame,
)
from repro.serving.telemetry import EngineStats, ServedFrame
from repro.serving.worker import RetrainWorker

__all__ = ["ServingEngine"]


class _Accounts(NamedTuple):
    """What the ``accounting`` stage hands the later stages, per row."""

    row_ok: np.ndarray      # (S,) every LLR finite — the poison guard
    idx: np.ndarray         # (S, n) transmitted symbol indices
    pmask: np.ndarray       # (S, n) pilot mask
    w: int                  # pilot span: one past the last pilot column
    pilot_syms: np.ndarray  # (S,) pilot symbols
    pilot_errs: np.ndarray  # (S,) pilot bit errors
    err_sym: np.ndarray     # (S, span) bit errors per accounted symbol


class ServingEngine:
    """Pulls frames from per-session queues and serves them in micro-batches.

    Construct with a single frozen config::

        engine = ServingEngine(config=EngineConfig(max_batch=32))

    ``config=None`` means ``EngineConfig()`` (every default); each knob is
    documented on :class:`~repro.serving.config.EngineConfig`.  The
    resolved config is kept as ``engine.config``.

    Every engine event has one recording path: :meth:`_record` traces it
    (the only ``Tracer.emit`` call site), :meth:`_record_failure` writes a
    failure to the log, its counters and the trace, :meth:`_record_health`
    does the same for a health transition, and :meth:`_stage` times and
    traces a round stage.  Only
    the per-frame instants (``frame.submit`` / ``batched`` / ``decoded`` /
    ``crc_fail`` / ``served``) call ``Tracer.emit_instant`` directly.
    """

    def __init__(self, *, config: EngineConfig | None = None):
        if config is None:
            config = EngineConfig()
        #: the resolved (frozen) construction config
        self.config = config
        self.max_batch = int(config.max_batch)
        self._backend = config.backend
        self.on_frame = config.on_frame
        self.worker = RetrainWorker(config.retrain_workers)
        self.scheduler = (
            config.scheduler if config.scheduler is not None else DeficitRoundRobin()
        )
        self.weight_controller = config.weight_controller
        self.supervisor = (
            config.supervisor if config.supervisor is not None else RetrainSupervisor()
        )
        self._sessions: dict[str, DemapperSession] = {}
        self.telemetry = EngineStats()
        self.tracer = config.tracer
        self.profiler = config.profiler
        #: the registry handed to :meth:`register_metrics` (None until then);
        #: kept so sessions joining later are registered automatically
        self.registry = None
        #: label set attached to every metric this engine registers (the
        #: fleet sets ``{"shard": i}`` so merged registries stay distinct)
        self._metric_labels: dict[str, str] | None = None

    # -- observability -------------------------------------------------------
    def _clock(self) -> float:
        """Start a round stage: the wall clock when profiled, else 0.0."""
        return perf_counter() if self.profiler is not None else 0.0

    def _stage(self, name: str, t0: float, session_id: str | None = None, **args) -> None:
        """Close the round stage ``name`` started at ``t0 = self._clock()``:
        account its wall time to the profiler (``width`` also keys a kernel
        launch) and trace ``phase.<name>`` with ``args`` — one call, so the
        profiled and traced stage names are one vocabulary."""
        if self.profiler is not None:
            self.profiler.account(name, perf_counter() - t0, args.get("width"))
        self._record("phase." + name, session_id, **args)

    def _record(self, name: str, session_id: str | None = None, **args) -> None:
        """Trace one engine event at the current symbol tick and round.

        ``args`` may carry ``ph``/``dur``/``seq`` (``Tracer.emit``
        parameters) besides the event payload.  A no-op when untraced.
        """
        if self.tracer is None:
            return
        self.tracer.emit(
            name,
            ts=self.telemetry.now,
            round=self.telemetry.rounds,
            session_id=session_id,
            **args,
        )

    def _record_failure(self, record: FailureRecord) -> None:
        """Log one failure: the failure log, its counters, ``fault.<kind>``.

        Poison is a traffic fault, not a retrain failure, so only the other
        kinds count toward ``retrain_failures`` (``hung`` also toward
        ``retrains_hung``).
        """
        self.telemetry.failure_log.append(record)
        if record.kind != "poison":
            self.telemetry.retrain_failures += 1
        if record.kind == "hung":
            self.telemetry.retrains_hung += 1
        self._record(
            f"fault.{record.kind}",
            record.session_id,
            action=record.action,
            failures=record.failures,
        )

    def _record_health(self, session_id: str, health: str) -> None:
        """Log one session health transition (the session set it already)."""
        self.telemetry.health_timeline.append((self.telemetry.now, session_id, health))
        if health == DEGRADED:
            self.telemetry.sessions_degraded += 1
        elif health == QUARANTINED:
            self.telemetry.sessions_quarantined += 1
        self._record("session.health", session_id, health=health)

    def register_metrics(self, registry, *, labels: dict[str, str] | None = None):
        """Expose the engine's whole telemetry surface through ``registry``.

        Registers live callback views for the engine counters/histograms,
        the retrain worker's queue gauges, the supervisor's per-state
        session counts, a fleet-size gauge and every current session
        (newcomers via :meth:`add_session` are registered automatically
        once a registry is attached).  ``labels`` (e.g. ``{"shard": "2"}``
        from the fleet front-end) are attached to every instrument so
        per-shard registries merge without collisions.  Returns the
        registry for chaining.
        """
        self.registry = registry
        self._metric_labels = dict(labels) if labels else None
        self.telemetry.register_metrics(registry, labels=self._metric_labels)
        self.worker.register_metrics(registry, labels=self._metric_labels)
        self.supervisor.register_metrics(registry, labels=self._metric_labels)
        registry.gauge(
            "serving_engine_sessions",
            self._metric_labels,
            fn=lambda: len(self._sessions),
        )
        for session in self._sessions.values():
            session.register_metrics(registry, labels=self._metric_labels)
        return registry

    # -- session registry ----------------------------------------------------
    @property
    def backend(self) -> NumpyBackend:
        return self._backend if self._backend is not None else get_backend()

    @property
    def sessions(self) -> tuple[DemapperSession, ...]:
        """Registered sessions in registration order (= serving order)."""
        return tuple(self._sessions.values())

    def add_session(self, session: DemapperSession) -> DemapperSession:
        """Register a session; serving order is registration order.

        Hot-path safe: sessions may join a live engine between (or during
        producer phases of) rounds — the newcomer starts from zero
        scheduler credit and a fresh control-plane state, and existing
        sessions' timelines are untouched (batch composition changes, but
        batched rows are bit-identical to sequential demaps, which is the
        churn-invariance contract pinned by ``tests/serving/test_churn``).
        An id is unique among *live* sessions — a departed session's id may
        be reused by a later arrival.
        """
        self._attach(session)
        self._record("session.join", session.session_id, fleet=len(self._sessions))
        return session

    def _attach(self, session: DemapperSession) -> None:
        """Registry admission shared by joins and migrations in."""
        if session.session_id in self._sessions:
            raise ValueError(f"duplicate session id {session.session_id!r}")
        if session.draining:
            raise ValueError(
                f"session {session.session_id!r} is draining — it would never "
                "accept traffic; build a fresh session instead"
            )
        self._sessions[session.session_id] = session
        self.telemetry.joins += 1
        self.telemetry.record_fleet_size(len(self._sessions))
        if self.registry is not None:
            session.register_metrics(self.registry, labels=self._metric_labels)

    def remove_session(self, session_id: str, *, drain: bool = True) -> int:
        """Deregister a session; returns the number of frames dropped.

        ``drain=True`` (graceful): the session stops accepting submissions
        immediately (``submit`` returns False, counted as a drain refusal)
        but keeps being served — every frame it already accepted will be
        demapped, never dropped — and leaves the engine once its queue is
        empty and no retrain is in flight.  Monitor triggers stop
        escalating to retrain for a draining session.  Idempotent: draining
        an already-draining session is a no-op.  Returns 0.

        ``drain=False`` (hard): the session leaves *now* — queued frames
        are discarded (returned count, also in telemetry), an in-flight
        retrain job is orphaned on the worker (its result discarded, its
        failure swallowed), and the scheduler/controller forget it.  Hard
        removal of a draining session is allowed (a drain that must not
        wait any longer).

        Either way the scheduler's ``forget`` runs exactly once per
        removal, so a departed session leaks no credit.
        """
        session = self.session(session_id)
        if drain:
            if not session.draining:
                session.draining = True
                self.telemetry.drains_started += 1
                self._record("session.drain", session_id, pending=session.pending)
                self._finish_drains()
            return 0
        dropped = session.discard_queue()
        session.draining = True  # late producers see a final refusal, not a queue
        self._remove_now(session, dropped=dropped)
        return dropped

    def _remove_now(self, session: DemapperSession, *, dropped: int = 0) -> None:
        """Teardown shared by both removal paths: orphan jobs, drop frames."""
        sid = session.session_id
        self._detach(session)
        self.telemetry.retrains_orphaned += self.worker.discard(session)
        if dropped:
            self.telemetry.frames_dropped += dropped
            self._record("frame.dropped", sid, count=dropped)
        self._record("session.leave", sid, fleet=len(self._sessions))

    def _detach(self, session: DemapperSession) -> None:
        """Registry/scheduler/supervisor/controller teardown shared by
        removals and migrations out."""
        sid = session.session_id
        del self._sessions[sid]
        self.scheduler.forget(sid)
        self.supervisor.forget(sid)
        if self.weight_controller is not None:
            self.weight_controller.forget(sid)
        self.telemetry.leaves += 1
        self.telemetry.record_fleet_size(len(self._sessions))

    def _finish_drains(self) -> None:
        """Remove every draining session that has nothing left to serve."""
        for session in [s for s in self._sessions.values() if s.draining]:
            if session.pending == 0 and session.state != RETRAINING:
                self._remove_now(session)
                self.telemetry.drains_completed += 1

    # -- live migration ------------------------------------------------------
    def export_session(self, session_id: str):
        """Detach a session for migration; returns ``(session, carried)``.

        The handover sibling of hard removal: the session leaves this
        engine *now*, but nothing is dropped — its queue rides along inside
        the session object, its scheduler credit, supervision state
        (failure count / breaker / backoff, rebased to the destination's
        round clock) and any in-flight or undelivered retrain job outcomes
        are packed into ``carried`` for :meth:`import_session` on the
        destination.  A draining session is refused (``ValueError``): a
        drain is a promise to finish *here*, and migrating it would race
        the drain bookkeeping.
        """
        session = self.session(session_id)
        if session.draining:
            raise ValueError(
                f"session {session_id!r} is draining — finish the drain "
                "instead of migrating it"
            )
        carried = {
            "now": int(self.telemetry.now),
            "credit": self.scheduler.credit(session_id),
            "supervision": self.supervisor.export(
                session_id, now=self.telemetry.rounds
            ),
            "jobs": self.worker.transfer(session),
        }
        self._detach(session)
        self.telemetry.migrations_out += 1
        self._record("session.migrate-out", session_id, pending=session.pending)
        return session, carried

    def import_session(self, session: DemapperSession, carried=None) -> DemapperSession:
        """Adopt a session exported from another shard.

        Queued frames travel inside the session (served here in order —
        zero frame loss), scheduler credit is restored, the supervision
        state is adopted onto this engine's round clock, and handed-over
        retrain futures/outcomes are re-homed on this engine's worker so
        an install or failure resolves *here*, never on the source.
        """
        self._attach(session)
        self.telemetry.migrations_in += 1
        if carried:
            if "now" in carried:
                # the shards' symbol clocks are unrelated; shifting each
                # queued frame's enqueue stamp by the clock difference
                # preserves the wait it has already accrued (and keeps
                # queue_wait non-negative when this clock runs behind)
                session.rebase_queue(int(self.telemetry.now) - carried["now"])
            self.scheduler.restore(session.session_id, carried.get("credit", 0.0))
            supervision = carried.get("supervision")
            if supervision is not None:
                self.supervisor.adopt(
                    session.session_id, supervision, now=self.telemetry.rounds
                )
            jobs = carried.get("jobs")
            if jobs:
                self.worker.adopt(session, jobs)
        self._record("session.migrate-in", session.session_id, pending=session.pending)
        return session

    def session(self, session_id: str) -> DemapperSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"unknown session id {session_id!r}") from None

    def has_session(self, session_id: str) -> bool:
        """True while ``session_id`` is registered (drivers poll this —
        a drained/removed session's id raising from :meth:`session` is the
        wrong failure mode for a producer loop)."""
        return session_id in self._sessions

    def submit(self, session_id: str, frame: ServingFrame) -> bool:
        """Enqueue a frame for a session; False = backpressure (queue full).

        An unregistered ``session_id`` raises :class:`KeyError` naming the
        id at the submission site — not a confusing failure rounds later,
        deep inside a serving batch.
        """
        session = self.session(session_id)
        now = self.telemetry.now
        if self.tracer is None:
            return session.submit(frame, now=now)
        # the refusal reason is derivable from which session counter moved —
        # diffing them keeps submit()'s bool contract and stays fully passive
        stats = session.stats
        before = (
            stats.rejects,
            stats.drain_refusals,
            stats.quarantine_refusals,
            stats.poison_rejected,
        )
        accepted = session.submit(frame, now=now)
        if accepted:
            self.tracer.emit_instant(
                "frame.submit",
                now,
                self.telemetry.rounds,
                session_id,
                frame.seq,
                {"queued": session.pending},
            )
        else:
            after = (
                stats.rejects,
                stats.drain_refusals,
                stats.quarantine_refusals,
                stats.poison_rejected,
            )
            reasons = ("backpressure", "draining", "quarantined", "poison")
            reason = next(
                (r for r, b, a in zip(reasons, before, after) if a > b), "unknown"
            )
            self._record("frame.reject", session_id, seq=frame.seq, reason=reason)
        return accepted

    # -- serving -------------------------------------------------------------
    def _serve_batch(self, batch: MicroBatch, key: str = "serve") -> None:
        """Serve one micro-batch: the batch stages of ``ENGINE_PHASES``, in
        order, each timed and traced by one :meth:`_stage` call."""
        llrs3, stacked_rx = self._demap_launch(batch, key)
        acc = self._accounting(batch, llrs3, key)
        sigma2_est = self._sigma2_estimate(batch, acc, stacked_rx, key)
        decoded = self._decode(batch, llrs3, acc, key)
        self._serve_frames(batch, llrs3, acc, sigma2_est, decoded)

    def _demap_launch(self, batch: MicroBatch, key: str):
        """Stage ``demap-launch``: one fused launch → ``(S, n, k)`` LLRs and
        the stacked received samples."""
        t0 = self._clock()
        llrs3, stacked_rx = batched_maxlog_llrs(
            batch.requests, backend=self.backend, key=key, with_received=True
        )
        width, symbols = batch.occupancy, batch.n_symbols
        self._stage("demap-launch", t0, ph="X", dur=symbols, width=width, symbols=symbols)
        if self.tracer is not None:
            emit = self.tracer.emit_instant
            now, rnd = self.telemetry.now, self.telemetry.rounds
            for row, (session, frame) in enumerate(zip(batch.sessions, batch.frames)):
                emit(
                    "frame.batched", now, rnd, session.session_id, frame.seq,
                    {"width": width, "row": row},
                )
        return llrs3, stacked_rx

    def _accounting(self, batch: MicroBatch, llrs3: np.ndarray, key: str) -> _Accounts:
        """Stage ``accounting``: the poison guard and the bit-error sums.

        Vectorised over the stacked tensor — integer sums, arithmetically
        identical to :func:`repro.link.frames.frame_bers` per frame — so
        the per-frame Python cost stays flat as frames shrink.  The control
        plane reads only pilot BER and pilot σ², so the sums cover the
        *pilot span* ``[:, :W]`` (``W`` is one past the last column any row
        uses as a pilot: no pilot layout is assumed); full-width sums feed
        only an ``on_frame`` hook's payload BER.
        """
        t0 = self._clock()
        be = self.backend
        s_count = batch.occupancy
        n = batch.frames[0].n_symbols
        # rows may demap on different point sets, but a batch shares one
        # bit-set table, and equal tables mean equal bit matrices
        first = batch.sessions[0].hybrid.constellation
        k = first.bits_per_symbol
        # poison guard, always full-width: a non-finite received sample
        # makes non-finite LLRs *in its own row only* (the distance stage is
        # row-local), so a per-row check fences the frame off without
        # touching its batchmates — the fault-isolation contract.  Failing
        # rows get no BER/σ²/monitor update, no on_frame, no served credit.
        fin = be.workspace.scratch(key + "_fin", (s_count, n, k), dtype=np.bool_)
        np.isfinite(llrs3, out=fin)
        row_ok = fin.reshape(s_count, -1).all(axis=1)
        idx = be.workspace.scratch(key + "_idx", (s_count, n), dtype=np.int64)
        pmask = be.workspace.scratch(key + "_pmask", (s_count, n), dtype=np.bool_)
        for row, frame in enumerate(batch.frames):
            np.copyto(idx[row], frame.indices, casting="same_kind")
            np.copyto(pmask[row], frame.pilot_mask, casting="same_kind")
        pilot_cols = np.flatnonzero(pmask.any(axis=0))
        w = int(pilot_cols[-1]) + 1 if pilot_cols.size else 0
        span = n if self.on_frame is not None else w
        hat = be.workspace.scratch(key + "_hat", (s_count, span, k), dtype=np.bool_)
        np.greater(llrs3[:, :span], 0.0, out=hat)
        truth = be.workspace.scratch(key + "_truth", (s_count * span, k), dtype=np.int8)
        np.take(first.bit_matrix, idx[:, :span].reshape(-1), axis=0, out=truth)
        err = be.workspace.scratch(key + "_err", (s_count, span, k), dtype=np.bool_)
        np.not_equal(hat, truth.reshape(s_count, span, k), out=err)
        err_sym = err.sum(axis=2, dtype=np.int64)
        pilot_syms = pmask[:, :w].sum(axis=1, dtype=np.int64)
        pilot_errs = np.where(pmask[:, :span], err_sym, 0).sum(axis=1, dtype=np.int64)
        self._stage("accounting", t0, span=span)
        return _Accounts(row_ok, idx, pmask, w, pilot_syms, pilot_errs, err_sym)

    def _sigma2_estimate(
        self, batch: MicroBatch, acc: _Accounts, stacked_rx: np.ndarray, key: str
    ) -> np.ndarray | None:
        """Stage ``sigma2-estimate``: all rows' pilot noise estimates in one
        row-local call, or None when no row has ``sigma2_alpha > 0``.

        Exact on the pilot span: the reductions only lose trailing zeros.
        Each row's reference symbols come from the point set it was
        demapped with (one gather per run of rows sharing a set).
        """
        if not any(s.config.sigma2_alpha > 0.0 for s in batch.sessions):
            return None
        t0 = self._clock()
        w = acc.w
        ref = self.backend.workspace.scratch(
            key + "_ref", (batch.occupancy, w), dtype=np.complex128
        )
        for start, stop in point_runs(batch.requests):
            np.take(
                batch.requests[start].points, acc.idx[start:stop, :w], out=ref[start:stop]
            )
        sigma2_est = estimate_noise_sigma2_batch(ref, stacked_rx[:, :w], acc.pmask[:, :w])
        self._stage("sigma2-estimate", t0)
        return sigma2_est

    def _decode(
        self, batch: MicroBatch, llrs3: np.ndarray, acc: _Accounts, key: str
    ) -> dict[int, tuple[bool, float]]:
        """Stage ``decode``: deinterleave → soft Viterbi → CRC per coded row,
        as ``{row: (crc_ok, post_fec_ber)}``.

        Rows grouped by (coded config, payload bit budget) share one
        CodedLayout, hence one Viterbi launch and one post-FEC error count
        (NaN for rows without ``info_bits``).  Row-pure, so the decoded
        timeline is batching-invariant.  Poisoned rows are skipped:
        non-finite LLRs never reach the ACS.
        """
        t0 = self._clock()
        _, n, k = llrs3.shape
        groups: dict[tuple, list[int]] = {}
        for row, session in enumerate(batch.sessions):
            if session.config.coded is not None and acc.row_ok[row]:
                plen = (n - int(acc.pilot_syms[row])) * k
                groups.setdefault((session.config.coded, plen), []).append(row)
        decoded: dict[int, tuple[bool, float]] = {}
        for gi, ((coded_cfg, plen), rows) in enumerate(groups.items()):
            # payload LLRs in symbol-major/bit-minor order — exactly the
            # order the load generator mapped the coded bits in; every row
            # of a group has plen payload bits, so one mask gathers them all
            payload = llrs3[rows][~acc.pmask[rows]].reshape(len(rows), plen)
            results = coded_layout(coded_cfg, plen).decode_rows(
                payload, backend=self.backend, key=f"{key}_vit{gi}"
            )
            known = [i for i, row in enumerate(rows) if batch.frames[row].info_bits is not None]
            ber = np.full(len(rows), np.nan)
            if known:
                info = np.stack([results[i][0] for i in known])
                truth = np.stack([batch.frames[rows[i]].info_bits for i in known])
                ber[known] = np.count_nonzero(info != truth, axis=1) / info.shape[1]
            decoded.update((row, (res[1], e)) for row, res, e in zip(rows, results, ber.tolist()))
        if groups:
            self._stage("decode", t0, groups=len(groups))
        return decoded

    def _serve_frames(
        self, batch: MicroBatch, llrs3: np.ndarray, acc: _Accounts, sigma2_est, decoded
    ) -> None:
        """Stage ``control-plane``: per frame, quarantine a poisoned row or
        run :meth:`_control_plane` and record it (payload BER and the
        :class:`ServedFrame` only for an ``on_frame`` hook)."""
        t0 = self._clock()
        tracer = self.tracer
        s_count, n, k = llrs3.shape
        batch_start = self.telemetry.now
        rnd = self.telemetry.rounds
        service_time = batch.n_symbols
        served_frames = s_count
        served_symbols = batch.n_symbols
        for row, (session, frame) in enumerate(zip(batch.sessions, batch.frames)):
            if not acc.row_ok[row]:
                self._quarantine(session, frame)
                served_frames -= 1
                served_symbols -= frame.n_symbols
                continue
            n_pilot = int(acc.pilot_syms[row])
            pe = int(acc.pilot_errs[row])
            pilot_ber = pe / (n_pilot * k) if n_pilot else float("nan")
            crc_ok: bool | None = None
            post_fec_ber = float("nan")
            if row in decoded:
                crc_ok, post_fec_ber = decoded[row]
                self.telemetry.frames_decoded += 1
                if not crc_ok:
                    self.telemetry.crc_failures += 1
            fired, tier = self._control_plane(
                session, frame,
                pilot_ber,
                sigma2_est[row] if sigma2_est is not None else None,
                crc_ok=crc_ok,
            )
            session.stats.record_frame(
                frame.seq, n, pilot_ber, fired, tier=tier, sigma2=session.sigma2,
                crc_ok=crc_ok, post_fec_ber=post_fec_ber,
            )
            queue_wait = batch_start - batch.enqueued_at[row]
            self.telemetry.queue_wait.record(queue_wait)
            self.telemetry.service_time.record(service_time)
            session.stats.queue_wait.record(queue_wait)
            if tracer is not None:
                emit = tracer.emit_instant
                sid = session.session_id
                if crc_ok is not None:
                    emit(
                        "frame.decoded", batch_start, rnd, sid, frame.seq,
                        {"crc_ok": crc_ok, "post_fec_ber": post_fec_ber},
                    )
                    if not crc_ok:
                        emit(
                            "frame.crc_fail", batch_start, rnd, sid, frame.seq,
                            {"post_fec_ber": post_fec_ber},
                        )
                emit(
                    "frame.served", batch_start, rnd, sid, frame.seq,
                    {
                        "pilot_ber": pilot_ber,
                        "fired": fired,
                        "tier": tier,
                        "sigma2": session.sigma2,
                        "queue_wait": queue_wait,
                    },
                )
            if self.on_frame is not None:
                n_payload = n - n_pilot
                payload_errs = int(acc.err_sym[row].sum(dtype=np.int64)) - pe
                report = ServedFrame(
                    session_id=session.session_id,
                    seq=frame.seq,
                    pilot_ber=pilot_ber,
                    payload_ber=(
                        payload_errs / (n_payload * k) if n_payload else float("nan")
                    ),
                    fired=fired,
                    monitor_level=session.monitor.current_level,
                    tier=tier,
                    sigma2=session.sigma2,
                    queue_wait=queue_wait,
                    service_time=service_time,
                    crc_ok=crc_ok,
                    post_fec_ber=post_fec_ber,
                )
                self.on_frame(session, frame, llrs3[row], report)
        self._stage("control-plane", t0, frames=s_count)
        # quarantined rows rode the launch (occupancy keys on the true
        # width) but are not credited as served — and the symbol clock only
        # advances for served work, so a fault-free run's clock is
        # untouched by what faults *would* have added
        self.telemetry.record_batch(served_frames, served_symbols, launched=s_count)

    def _control_plane(
        self,
        session: DemapperSession,
        frame: ServingFrame,
        pilot_ber: float,
        sigma2_est: float | None,
        *,
        crc_ok: bool | None = None,
    ) -> tuple[bool, str | None]:
        """Per-frame receiver-state updates: σ² loop, monitor, tier ladder.

        Returns ``(fired, tier)``: whether a trigger fired on this frame —
        the pilot-BER monitor OR (for coded sessions) the CRC-failure
        monitor, a payload-aware trigger that fires even when pilots look
        clean — and the adaptation tier chosen for it (``"track"`` /
        ``"retrain"``, or None when the trigger had no tier to respond
        with).  Runs on the engine thread in the session's own frame order
        — every update is a pure function of the session's traffic, which
        is what ``tests/serving/test_differential.py`` pins.
        """
        # 1. in-loop σ²: fold this frame's pilot noise estimate in *before*
        # the monitor response, so an escalation decision (the tracker's
        # rigid-vs-warp residual test) sees the freshest noise floor.  The
        # frame itself was demapped with the pre-update σ² — the estimate
        # can only influence later frames, keeping the LLR timeline causal.
        # (NaN = too few pilots for a gain-fit estimate: skip the update.)
        if (
            sigma2_est is not None
            and session.config.sigma2_alpha > 0.0
            and sigma2_est == sigma2_est
        ):
            session.observe_sigma2(sigma2_est)
        # 2. degradation monitors + tiered response.  Both monitors always
        # observe (their windows/cooldowns must advance frame-by-frame
        # regardless of the other's verdict), then the triggers are OR-ed:
        # a CRC-failure window answers with the same ladder as pilot BER.
        fired = session.monitor.observe(pilot_ber)
        crc_fired = session.observe_crc(crc_ok) if crc_ok is not None else False
        if not fired and not crc_fired:
            monitor = session.monitor
            if (
                session.config.tracking
                and monitor.window_fill >= monitor.window
                and monitor.current_level <= monitor.threshold
            ):
                # a full healthy window: the last track worked — re-arm the
                # ladder so the next degradation gets the cheap tier again
                session.note_healthy_window()
            return False, None
        tier = session.plan_adaptation()
        if tier == TIER_TRACK:
            rigid_ok = session.apply_track(frame)
            self.telemetry.tracks += 1
            if not rigid_ok and session.can_retrain:
                tier = TIER_RETRAIN  # non-rigid warp: escalate immediately
        if tier == TIER_RETRAIN and not self.supervisor.allows(session.session_id):
            # the supervisor owns this session's retrain path right now — a
            # backed-off retry is scheduled, a job is already in flight, or
            # the breaker is open (degraded).  The trigger is recorded but
            # must not jump the queue (nor double-submit).
            tier = None
        if tier == TIER_RETRAIN:
            self._submit_retrain(session)
        return True, tier

    def _submit_retrain(self, session: DemapperSession) -> None:
        """Hand one retrain job to the worker under supervision."""
        t0 = self._clock()
        job_rng = session.begin_retrain()
        self.supervisor.on_submitted(session.session_id, self.telemetry.rounds)
        self.telemetry.retrains_completed += self.worker.submit(
            session, session.retrain, job_rng
        )
        self.telemetry.retrains_started += 1
        self._stage("retrain-submit", t0, session.session_id)

    def _quarantine(self, session: DemapperSession, frame: ServingFrame) -> None:
        """Fence off a session whose demap produced non-finite LLRs."""
        sid = session.session_id
        lost = session.quarantine(now=self.telemetry.now)
        self.telemetry.frames_quarantined += lost
        self._record("frame.quarantined", sid, seq=frame.seq, lost=lost)
        self._record_health(sid, QUARANTINED)
        self._record_failure(
            FailureRecord(
                round=self.telemetry.rounds,
                session_id=sid,
                kind="poison",
                error=f"non-finite LLRs from frame seq={frame.seq}",
                failures=0,
                action="quarantine",
            )
        )
        # a pending backoff/retry dies with the quarantine — the supervisor
        # must not re-launch a retrain for a fenced-off session
        self.supervisor.forget(sid)
        # and its scheduler credit is forfeited immediately: a fenced-off
        # session must not sit in the credit table looking like a backlog
        self.scheduler.forget(sid)

    def _absorb_worker_outcomes(self) -> None:
        """Feed resolved job outcomes (installs *and* failures) to the
        supervisor — every failure surfaced, none re-raised."""
        for session, error in self.worker.take_outcomes():
            sid = session.session_id
            if error is None:
                self.supervisor.on_installed(sid)
                # worker threads never touch the tracer — the install is
                # traced here, when the engine thread absorbs it
                self._record("retrain.install", sid)
                continue
            if sid not in self._sessions or self._sessions[sid] is not session:
                # the session left (or its id was reused) between the job's
                # resolution and this round: log the failure, touch nothing
                self._record_failure(
                    FailureRecord(
                        round=self.telemetry.rounds,
                        session_id=sid,
                        kind="error",
                        error=f"{type(error).__name__}: {error} (session departed)",
                        failures=0,
                        action="retry",
                    )
                )
                self.supervisor.forget(sid)
                continue
            self._handle_retrain_failure(session, error)

    def _handle_retrain_failure(
        self, session: DemapperSession, error: BaseException, *, kind: str | None = None
    ) -> None:
        """One failed/hung retrain: record, resume serving, retry or degrade.

        The failure path of the atomic-swap contract: the session returns
        to SERVING on its last-good demapper *immediately* (the paper's
        hybrid fallback — stale centroids beat a paused queue), while the
        supervisor decides whether a backed-off retry is scheduled or the
        circuit breaker opens (health → DEGRADED, triggers suppressed).
        """
        if kind is None:
            kind = "hung" if isinstance(error, RetrainHungError) else "error"
        record = self.supervisor.on_failure(
            session.session_id, self.telemetry.rounds, error, kind=kind
        )
        self._record_failure(record)
        session.stats.retrain_failures += 1
        if session.state == RETRAINING:
            session.resume_serving()
        if record.action == "degrade" and session.health == HEALTHY:
            session.set_health(DEGRADED, now=self.telemetry.now)
            self._record_health(session.session_id, DEGRADED)

    def _expire_hung_jobs(self) -> None:
        """Abandon in-flight jobs older than the supervisor's deadline."""
        for sid in self.supervisor.overdue(self.telemetry.rounds):
            session = self._sessions.get(sid)
            if session is None:  # pragma: no cover — removal forgets first
                self.supervisor.forget(sid)
                continue
            self.worker.abandon(session)
            self._record(
                "retrain.hung", sid, deadline_rounds=self.supervisor.deadline_rounds
            )
            self._handle_retrain_failure(
                session,
                RetrainHungError(
                    f"retrain job for {sid!r} exceeded "
                    f"deadline_rounds={self.supervisor.deadline_rounds}; abandoned"
                ),
                kind="hung",
            )

    def _launch_due_retries(self) -> None:
        """Re-submit retrains whose backoff expired this round."""
        for sid in self.supervisor.due_retries(self.telemetry.rounds):
            session = self._sessions.get(sid)
            if session is None or not session.can_retrain or session.state != SERVING:
                # departed, draining, degraded/quarantined, or externally
                # held out of SERVING: the retry has nothing valid to do
                self.supervisor.forget(sid)
                continue
            self.telemetry.retrains_retried += 1
            self._record("retrain.retry", sid)
            self._submit_retrain(session)

    def step(self) -> int:
        """One serving round; returns the number of frames served.

        Swaps land first, so a frame submitted after its session's retrain
        completed is always demapped by the new centroids.  Completed
        drains leave the registry next (an install may have been the last
        thing a draining session waited on).  The scheduler's quotas are
        then served in waves of at most one frame per session; a session
        pausing mid-round (trigger → retrain) simply drops out of later
        waves with its frames still queued.  The round ends by finishing
        any drains the waves emptied and letting the weight controller
        (when installed) steer next round's scheduler weights.

        Supervision slots in between swaps and serving: resolved job
        failures are absorbed (retry scheduled or breaker opened — the
        session resumes on its last-good demapper either way), over-deadline
        jobs are declared hung and abandoned, and due retries are
        re-submitted — inline retries resolve synchronously, so their
        outcome is absorbed again before allocation and a failing-fast
        session still serves its frames this very round.  Outcomes of inline
        retrains triggered mid-round are absorbed before each later wave:
        an install re-arms the retrain tier before the session's next frame,
        as a round boundary would; a failure is logged in the current round
        (its backoff counts from there) and the session serves the rest of
        its quota this round on its last-good demapper.
        """
        self._record("round.begin", sessions=len(self._sessions))
        t0 = self._clock()
        self.telemetry.retrains_completed += self.worker.poll()
        self._absorb_worker_outcomes()
        self._expire_hung_jobs()
        self._launch_due_retries()
        self._absorb_worker_outcomes()
        self._finish_drains()
        self._stage("absorb-outcomes", t0)
        t0 = self._clock()
        quotas = self.scheduler.allocate(self.sessions)
        self._stage("schedule", t0, quota=sum(quotas.values()))
        served = 0
        wave = 0
        while True:
            t0 = self._clock()
            pulls = []
            for session in self.sessions:
                if quotas.get(session.session_id, 0) > 0 and session.ready:
                    frame, tick = session.pop()
                    quotas[session.session_id] -= 1
                    pulls.append((session, frame, tick))
            if not pulls:
                break
            batches = coalesce(pulls, max_batch=self.max_batch)
            if wave:
                # an inline retrain resolves synchronously mid-round: the
                # supervisor must see its outcome before the session's next
                # frame, exactly as a round boundary would have shown it
                self._absorb_worker_outcomes()
            self._stage(
                "coalesce", t0, wave=wave, pulls=len(pulls), batches=len(batches)
            )
            for i, batch in enumerate(batches):
                # per-(wave, position) scratch keys: rounds with several
                # differently shaped groups must not thrash the shape-keyed
                # workspace, and wave widths differ systematically
                self._serve_batch(batch, key=f"serve#{wave}#{i}")
            served += len(pulls)
            wave += 1
        self._finish_drains()
        t0 = self._clock()
        if self.weight_controller is not None:
            self.weight_controller.on_round(self.sessions, now=self.telemetry.now)
        self._stage("weight-control", t0)
        self._record("round.end", served=served, waves=wave)
        self.telemetry.rounds += 1
        return served

    def pending_retrains(self) -> int:
        """In-flight retrain jobs (drivers poll this)."""
        return self.worker.pending

    def scheduled_retries(self) -> int:
        """Backed-off retries waiting for their round (drivers keep stepping
        rounds until these have launched and resolved)."""
        return self.supervisor.scheduled()

    def wait_retrains(self, timeout: float | None = None) -> None:
        """Block until in-flight retrains resolve, crediting the installs.

        ``timeout`` (seconds) bounds the wait: a job unfinished at expiry
        is abandoned and surfaces as a hung failure on the next round.
        """
        self.telemetry.retrains_completed += self.worker.wait_all(timeout)

    def _stuck_session_ids(self) -> list[str]:
        """Sessions that still hold work a drain must wait for."""
        return sorted(
            s.session_id
            for s in self.sessions
            if s.pending or s.state == RETRAINING
        )

    def drain(
        self, max_rounds: int | None = None, *, timeout: float | None = None
    ) -> int:
        """Serve until every queue is empty and no retrain is in flight or
        scheduled.

        Returns the total frames served.  When nothing is servable but
        retrains are pending, blocks for their swaps instead of spinning;
        a backed-off retry keeps the drain stepping rounds until it has
        launched and resolved, so the failure ledger a drain leaves does
        not depend on how many rounds the traffic happened to take.
        A round may serve zero frames while a fractional-weight session
        accrues scheduler credit — that still counts as progress.

        ``max_rounds`` bounds the loop: if the engine has not fully drained
        within that many rounds, a :class:`RuntimeError` naming the stuck
        session ids is raised instead of spinning forever (the guard for a
        session that can never make progress — e.g. one held outside
        SERVING by a caller, or a pathological custom scheduler).  A drain
        that completes in exactly ``max_rounds`` rounds returns normally —
        completion is checked before the guard.  Also removes any
        completed drains before returning, so a drained engine holds no
        departing sessions.

        ``timeout`` (seconds) bounds each blocking wait for in-flight
        retrains — the wall-clock sibling of the round-counting
        ``max_rounds`` guard: a job still unfinished at expiry is abandoned
        on the worker and surfaces as a hung failure on the next round
        (retried or degraded by the supervisor), so a hung retrain can
        slow a drain down but never wedge it.
        """
        if max_rounds is not None and max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        total = 0
        rounds = 0
        while True:
            served = self.step()
            rounds += 1
            total += served
            if (
                not self.pending_retrains()
                and not self.scheduled_retries()
                and not any(s.pending for s in self.sessions)
            ):
                self._finish_drains()
                return total
            if max_rounds is not None and rounds >= max_rounds:
                raise RuntimeError(
                    f"drain did not finish within max_rounds={max_rounds}; "
                    f"stuck sessions: {self._stuck_session_ids()}"
                )
            if served:
                continue
            if self.pending_retrains():
                self.wait_retrains(timeout)
                continue
            if self.scheduled_retries():
                continue  # a backed-off retry launches when its round comes
            if any(s.ready for s in self.sessions):
                continue  # scheduler credit accruing (weight < 1): not stuck
            # queued frames but no ready session and no in-flight job:
            # only possible for a retrain-less session stuck mid-state —
            # continuing would spin forever, so surface it
            raise RuntimeError(
                "frames pending but no session can make progress; "
                f"stuck sessions: {self._stuck_session_ids()}"
            )

    def close(self, timeout: float | None = None) -> None:
        """Finish in-flight retrains and release the worker pool.

        Swaps that land here are still credited to the telemetry, so a
        final snapshot after ``with engine: ...`` never under-reports
        completed retrains.  With a ``timeout``, jobs unfinished at expiry
        are abandoned (recorded as hung failures in the failure log) and
        the pool is released without waiting on their threads — shutdown
        can never wedge on a hung job.
        """
        try:
            self.wait_retrains(timeout)
            self._absorb_worker_outcomes()
        finally:
            self.worker.close(timeout)

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
