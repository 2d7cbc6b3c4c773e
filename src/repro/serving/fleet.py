"""Sharded serving: a fleet front-end over N independent ``ServingEngine``s.

The paper's deployment story (§II-C) is a fabric of cheap centroid
demappers serving live streams; a single :class:`~repro.serving.engine.
ServingEngine` tops out at one Python thread's worth of control plane.
:class:`FleetFrontEnd` scales past that by hashing sessions across N
engine *shards*, each a full engine (own scheduler, supervisor, worker
pool, telemetry, simulated clock) built from one replicated
:class:`~repro.serving.config.EngineConfig`.

**Constellation-affinity placement.**  The placement hash keys on the
session's constellation *content* — points and bit labelling — not the
session id, so sessions built on one centroid set land on one shard and
``placement_seed`` reshuffles the constellation→shard map without
touching any per-session output.  Coalescing no longer depends on it:
:func:`repro.serving.batching.coalesce` puts every frame of a shard's wave
that shares a bit labelling and frame length into one fused launch,
whatever its points, so a session that tracks or retrains onto its own
centroids stays in its shard's launch.

**Live migration.**  :meth:`migrate` moves a session between shards using
the engines' export/import handover (built from the PR 5 drain machinery):
queued frames travel inside the session object and are served on the
destination in submission order — zero frame loss — while scheduler
credit, supervision state (breaker/backoff, rebased between the shards'
round clocks) and in-flight retrain jobs ride along.  Draining sessions
refuse migration (a drain is a promise to finish on its shard).

**Determinism.**  A session's LLR/trigger/σ²/tier timelines are a pure
function of its own frame order — never of co-tenants — so they are
bit-identical at any shard count, any placement seed and any migration
schedule (``tests/serving/test_differential.py`` pins this).  Shard *telemetry*
(occupancy, clocks) naturally differs with placement; per-session outputs
do not.

**Parallelism.**  ``parallel=True`` steps shards on a thread pool — NumPy
releases the GIL inside the fused demap kernels, so shards genuinely
overlap on a multi-core host (the ``serving_fleet[numpy]`` bench gates
the aggregate speedup).  Tracers/profilers stay single-writer per shard:
a shard's observability objects are only ever touched by the thread
stepping that shard.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ThreadPoolExecutor

from repro.serving.config import EngineConfig
from repro.serving.engine import ServingEngine
from repro.serving.session import DemapperSession, ServingFrame
from repro.serving.telemetry import SCHEMA_VERSION, EngineStats

__all__ = ["FleetFrontEnd"]


def _constellation_key(session: DemapperSession) -> int:
    """Stable content hash of the session's centroid set + bit labelling
    (points bytes + bitset table bytes): the placement key.

    Only placement reads it; :func:`repro.backend.dispatch.group_requests`
    coalesces by labelling and frame length, so sessions with different
    keys on one shard still share a launch.
    """
    const = session.hybrid.constellation
    bitsets = session.hybrid.core.bitsets
    key = zlib.crc32(const.points.tobytes())
    return zlib.crc32(bitsets.table.tobytes(), key)


class FleetFrontEnd:
    """Routes sessions/frames across N engine shards; one facade, N engines.

    Parameters
    ----------
    n_shards:
        Number of independent ``ServingEngine`` shards (>= 1).
    config:
        The :class:`EngineConfig` replicated onto every shard.  With
        ``n_shards > 1`` it must not carry live collaborators (scheduler,
        supervisor, weight controller, tracer, profiler, ``on_frame``) —
        shards sharing one mutable object is a bug, not a fleet; use
        ``config_factory`` to build per-shard instances.
    config_factory:
        ``shard_index -> EngineConfig`` alternative to ``config`` when
        shards need distinct collaborators (mutually exclusive with it).
    placement_seed:
        Mixed into the constellation-affinity hash: different seeds spread
        the same constellations differently across shards (placement is
        output-invariant, so any seed is correct).
    weight_controller:
        Optional fleet-level :class:`~repro.serving.weights.
        WeightController` steering scheduler weights across *all* shards'
        sessions on the fleet clock (the sum of shard clocks).  Kept at
        the front-end — per-shard controllers would each see only their
        slice of the SLO picture.
    parallel:
        Step shards concurrently on a thread pool (default).  ``False``
        steps them sequentially in shard order — the reference mode for
        tests that want single-threaded reproducibility of *engine-level*
        telemetry too.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        config: EngineConfig | None = None,
        config_factory=None,
        placement_seed: int = 0,
        weight_controller=None,
        parallel: bool = True,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if config is not None and config_factory is not None:
            raise ValueError("pass either config or config_factory, not both")
        self.n_shards = int(n_shards)
        self.placement_seed = int(placement_seed)
        self.weight_controller = weight_controller
        if config_factory is None:
            config = config if config is not None else EngineConfig()
            if n_shards > 1:
                stateful = config.stateful_fields_set()
                if stateful:
                    raise ValueError(
                        f"config carries live collaborators {list(stateful)} — "
                        "replicating them would share mutable state across "
                        f"{n_shards} shards; use config_factory to build "
                        "per-shard instances"
                    )
            self.shards: tuple[ServingEngine, ...] = tuple(
                ServingEngine(config=config) for _ in range(self.n_shards)
            )
        else:
            self.shards = tuple(
                ServingEngine(config=config_factory(i)) for i in range(self.n_shards)
            )
        self._shard_of: dict[str, int] = {}
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="repro-shard"
            )
            if parallel and self.n_shards > 1
            else None
        )
        #: completed :meth:`migrate` calls (the fleet-level ledger; each
        #: shard's own migrations_in/out counters hold the per-shard view)
        self.migrations = 0
        self._registries: tuple | None = None

    # -- placement -----------------------------------------------------------
    def place(self, session: DemapperSession) -> int:
        """The shard index affinity placement picks for this session."""
        key = _constellation_key(session)
        seeded = zlib.crc32(
            self.placement_seed.to_bytes(8, "little", signed=True),
            key,
        )
        return seeded % self.n_shards

    def add_session(
        self, session: DemapperSession, *, shard: int | None = None
    ) -> DemapperSession:
        """Register a session on its affinity shard (or an explicit one).

        ``shard`` overrides placement (an operator pinning a session);
        either way the front-end remembers the routing so :meth:`submit`
        finds the session without a fleet-wide search.
        """
        if session.session_id in self._shard_of:
            raise ValueError(f"duplicate session id {session.session_id!r}")
        idx = self.place(session) if shard is None else int(shard)
        if not 0 <= idx < self.n_shards:
            raise ValueError(f"shard must be in [0, {self.n_shards})")
        self.shards[idx].add_session(session)
        self._shard_of[session.session_id] = idx
        return session

    def shard_of(self, session_id: str) -> int:
        """The shard currently serving ``session_id`` (KeyError if absent)."""
        try:
            return self._shard_of[session_id]
        except KeyError:
            raise KeyError(f"unknown session id {session_id!r}") from None

    @property
    def sessions(self) -> tuple[DemapperSession, ...]:
        """Every live session, in shard order then registration order."""
        return tuple(s for shard in self.shards for s in shard.sessions)

    def has_session(self, session_id: str) -> bool:
        return (
            session_id in self._shard_of
            and self.shards[self._shard_of[session_id]].has_session(session_id)
        )

    def session(self, session_id: str) -> DemapperSession:
        return self.shards[self.shard_of(session_id)].session(session_id)

    # -- traffic -------------------------------------------------------------
    def submit(self, session_id: str, frame: ServingFrame) -> bool:
        """Route one frame to its session's shard (False = backpressure)."""
        return self.shards[self.shard_of(session_id)].submit(session_id, frame)

    def remove_session(self, session_id: str, *, drain: bool = True) -> int:
        """Deregister a session on its shard (see ``ServingEngine``)."""
        idx = self.shard_of(session_id)
        dropped = self.shards[idx].remove_session(session_id, drain=drain)
        if not self.shards[idx].has_session(session_id):
            del self._shard_of[session_id]
        return dropped

    # -- migration -----------------------------------------------------------
    def migrate(self, session_id: str, dest: int) -> DemapperSession:
        """Move a live session to shard ``dest`` with zero frame loss.

        Queued frames travel inside the session and are served on the
        destination in order; scheduler credit, supervision state and
        in-flight retrain jobs ride along (see
        :meth:`ServingEngine.export_session`).  Migrating onto the current
        shard is a no-op.  A draining session is refused (ValueError).
        """
        dest = int(dest)
        if not 0 <= dest < self.n_shards:
            raise ValueError(f"dest must be in [0, {self.n_shards})")
        src = self.shard_of(session_id)
        session = self.shards[src].session(session_id)
        if dest == src:
            return session
        session, carried = self.shards[src].export_session(session_id)
        self.shards[dest].import_session(session, carried)
        self._shard_of[session_id] = dest
        self.migrations += 1
        return session

    # -- serving -------------------------------------------------------------
    def step(self) -> int:
        """One round on every shard; returns total frames served.

        Shards step concurrently when ``parallel`` (each engine's state is
        shard-private, so the only shared mutation — this front-end's
        bookkeeping — happens after the barrier), then departed sessions
        are dropped from the routing table and the fleet-level weight
        controller (if any) observes the whole fleet on the fleet clock.
        """
        if self._pool is not None:
            served = sum(self._pool.map(lambda shard: shard.step(), self.shards))
        else:
            served = sum(shard.step() for shard in self.shards)
        self._reconcile()
        if self.weight_controller is not None:
            self.weight_controller.on_round(self.sessions, now=self.now)
        return served

    def _reconcile(self) -> None:
        """Drop routing entries whose session left its shard (drain ended)."""
        for sid in [
            sid
            for sid, idx in self._shard_of.items()
            if not self.shards[idx].has_session(sid)
        ]:
            del self._shard_of[sid]

    def drain(
        self, max_rounds: int | None = None, *, timeout: float | None = None
    ) -> int:
        """Drain every shard (sequentially); returns total frames served."""
        total = sum(
            shard.drain(max_rounds, timeout=timeout) for shard in self.shards
        )
        self._reconcile()
        return total

    @property
    def now(self) -> int:
        """The fleet clock: total symbol ticks served across all shards."""
        return sum(shard.telemetry.now for shard in self.shards)

    def pending_retrains(self) -> int:
        """In-flight retrain jobs fleet-wide (drivers poll this)."""
        return sum(shard.pending_retrains() for shard in self.shards)

    def scheduled_retries(self) -> int:
        """Backed-off retries fleet-wide (see
        :meth:`ServingEngine.scheduled_retries`)."""
        return sum(shard.scheduled_retries() for shard in self.shards)

    def wait_retrains(self, timeout: float | None = None) -> None:
        """Block on every shard's in-flight retrains, crediting installs
        (see :meth:`ServingEngine.wait_retrains`)."""
        for shard in self.shards:
            if shard.pending_retrains():
                shard.wait_retrains(timeout)

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry_factory=None):
        """Attach one shard-labelled registry per shard; returns the tuple.

        Each shard gets its *own* registry (single-writer, like the rest of
        a shard's observability) labelled ``{"shard": str(i)}``;
        :meth:`metrics` merges them into one fleet view on demand.
        ``registry_factory`` defaults to
        :class:`~repro.serving.observability.MetricsRegistry`.
        """
        if registry_factory is None:
            from repro.serving.observability import MetricsRegistry

            registry_factory = MetricsRegistry
        self._registries = tuple(
            shard.register_metrics(registry_factory(), labels={"shard": str(i)})
            for i, shard in enumerate(self.shards)
        )
        return self._registries

    def metrics(self):
        """Merge the per-shard registries into one fleet-wide registry.

        Requires :meth:`register_metrics` first.  The merge target is a
        fresh owned registry (callback-backed shard instruments merge into
        plain accumulators), so the result is a point-in-time scrape.
        """
        if self._registries is None:
            raise RuntimeError("call register_metrics() before metrics()")
        from repro.serving.observability import MetricsRegistry

        merged = MetricsRegistry()
        for registry in self._registries:
            merged.merge(registry)
        return merged

    def stats(self) -> EngineStats:
        """Fleet-wide :class:`EngineStats`: every shard merged into one."""
        merged = EngineStats()
        for shard in self.shards:
            merged.merge(shard.telemetry)
        return merged

    def snapshot(self) -> dict:
        """Merged fleet stats plus the per-shard breakdown (one schema).

        ``"merged"`` is the fleet-wide :meth:`EngineStats.snapshot`;
        ``"shards"`` holds each shard's own snapshot in shard order —
        both under the same :data:`~repro.serving.telemetry.
        SCHEMA_VERSION` as every other serving snapshot.
        """
        return {
            "schema": SCHEMA_VERSION,
            "n_shards": self.n_shards,
            "placement_seed": self.placement_seed,
            "migrations": self.migrations,
            "sessions": len(self._shard_of),
            "merged": self.stats().snapshot(),
            "shards": [shard.telemetry.snapshot() for shard in self.shards],
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Close every shard and release the step pool."""
        try:
            for shard in self.shards:
                shard.close(timeout)
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)

    def __enter__(self) -> "FleetFrontEnd":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
