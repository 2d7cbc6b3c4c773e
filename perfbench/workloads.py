"""The benchmark's three serving workloads: their traffic and the systems they drive.

Every workload runs 64 sessions of 16-QAM traffic over AWGN at 8 dB Eb/N0.
Each session's traffic is a pure function of ``(seed, session, seq)``: a
pool of frames is generated once from the seed with the repo's own load
generator (:func:`repro.serving.generate_traffic`), and the endless stream
replays the pool's tail under fresh sequence numbers once the pool is used
up.  The program only ever sees the generated frames.

* ``uniform-short`` — one ``ServingEngine(max_batch=64)``; 256-symbol frames
  (32 pilot + 224 payload); queue depth 2; σ² loop on (α=0.3); tracking
  armed but never fired.  The regime micro-batching exists for: the
  control plane, accounting and telemetry dominate the round.
* ``coded-short`` — ``uniform-short`` with ``CodedFrameConfig()`` on every
  4th session (K=3 (7,5) code, CRC-16, interleaved, 424 info bits per
  frame) at 10 dB: 16 coded sessions share each round's demap launch with
  48 uncoded ones.  The only workload that runs :mod:`repro.serving.coding`;
  Viterbi still dominates the round, which stays short enough for a run
  to hold a few hundred rounds.
* ``fleet-long-mixed`` — ``FleetFrontEnd`` with 2 thread-stepped shards;
  1024-symbol frames (32 + 992) over 4 centroid sets rotated 0.03 rad
  apart; queue depth 4; scheduler weights alternating 1 and 2 (two waves
  per round); ``PilotBERMonitor(0.05, window=2)``; every 4th session's
  channel rotates 0.25 rad at seq 32, which fires one tracking update per
  such session.  Each shard carries its own ``Tracer`` and
  ``MetricsRegistry``.  Kernel-bound rounds, multi-group coalescing, the
  fleet thread pool, the adaptation write path and the observer layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.channels import sigma2_from_snr
from repro.channels.factories import AWGNFactory, CompositeFactory, PhaseOffsetFactory
from repro.extraction import HybridDemapper, PilotBERMonitor
from repro.link.frames import FrameConfig
from repro.modulation.constellations import qam_constellation
from repro.serving import (
    CodedFrameConfig,
    DemapperSession,
    EngineConfig,
    FleetFrontEnd,
    MetricsRegistry,
    ServingEngine,
    ServingFrame,
    SessionConfig,
    SteadyChannel,
    SteppedChannel,
    Tracer,
    generate_traffic,
)

SESSIONS = 64
MAX_BATCH = 64
SHARDS = 2
SNR_DB = 8.0
BITS_PER_SYMBOL = 4
SIGMA2_ALPHA = 0.3
#: on a coded workload, every this-many-th session carries coded traffic,
#: over a cleaner channel so that no frame of a run fails its CRC
CODED_EVERY = 4
CODED_SNR_DB = 10.0


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix: 64 sessions, each refilling its queue
    before every round (the backpressure semantics of ``run_load``)."""

    name: str
    pilot_symbols: int
    payload_symbols: int
    queue_depth: int
    #: distinct frames generated per session; seqs beyond the pool replay
    #: ``pool[cycle_from:]`` in order, so the channel state of the pool's
    #: tail persists for the rest of the run
    pool_frames: int
    cycle_from: int
    warmup_rounds: int
    #: builds per run; ``setup_s`` is their median
    setup_repeats: int
    #: prefix of every session's traffic replayed through the oracle
    check_frames: int
    coded: bool = False
    fleet: bool = False
    #: seq at which every 4th session's channel rotates (None: never)
    rotate_at: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform-short",
            pilot_symbols=32,
            payload_symbols=224,
            queue_depth=2,
            pool_frames=32,
            cycle_from=0,
            warmup_rounds=8,
            setup_repeats=11,
            check_frames=16,
        ),
        Workload(
            name="coded-short",
            pilot_symbols=32,
            payload_symbols=224,
            queue_depth=2,
            pool_frames=16,
            cycle_from=0,
            warmup_rounds=4,
            setup_repeats=9,
            check_frames=12,
            coded=True,
        ),
        Workload(
            name="fleet-long-mixed",
            pilot_symbols=32,
            payload_symbols=992,
            queue_depth=4,
            pool_frames=64,
            cycle_from=32,
            warmup_rounds=4,
            setup_repeats=7,
            check_frames=40,
            fleet=True,
            rotate_at=32,
        ),
    )
}


class SessionTraffic:
    """One session's endless frame stream, fixed by the seed."""

    def __init__(self, pool: list[ServingFrame], cycle_from: int):
        self.pool = pool
        self.cycle_from = cycle_from

    def frame(self, seq: int) -> ServingFrame:
        pool = self.pool
        if seq < len(pool):
            return pool[seq]
        tail = len(pool) - self.cycle_from
        p = pool[self.cycle_from + (seq - self.cycle_from) % tail]
        return ServingFrame(
            seq=seq,
            indices=p.indices,
            pilot_mask=p.pilot_mask,
            received=p.received,
            info_bits=p.info_bits,
        )


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to (re)build one session identically."""

    session_id: str
    hybrid: HybridDemapper
    config: SessionConfig
    monitor_window: int
    shard: int

    def build(self, *, unit_weight: bool = False) -> DemapperSession:
        config = replace(self.config, weight=1.0) if unit_weight else self.config
        return DemapperSession(
            self.session_id,
            self.hybrid,
            PilotBERMonitor(0.05, window=self.monitor_window),
            config=config,
        )


def session_specs(workload: Workload, seed: int):
    """Per-session build specs and traffic streams, in registration order."""
    fc = FrameConfig(workload.pilot_symbols, workload.payload_symbols)
    qam = qam_constellation(16)
    sigma2 = sigma2_from_snr(SNR_DB, BITS_PER_SYMBOL)
    code = CodedFrameConfig() if workload.coded else None
    n_sets = 4 if workload.fleet else 1
    sets = [qam.rotated(0.03 * j) if j else qam for j in range(n_sets)]
    hybrids = [HybridDemapper(constellation=c, sigma2=sigma2) for c in sets]
    awgn = AWGNFactory(SNR_DB, BITS_PER_SYMBOL)
    rotated = CompositeFactory((PhaseOffsetFactory(0.25), awgn))
    rngs = np.random.default_rng(seed).spawn(SESSIONS)
    specs, traffic = [], []
    for i, rng in enumerate(rngs):
        j = (i // 4) % n_sets
        weight = 2.0 if workload.fleet and i % 2 else 1.0
        coded = code if i % CODED_EVERY == 0 else None
        config = SessionConfig(
            frame=fc,
            queue_depth=workload.queue_depth,
            weight=weight,
            sigma2_alpha=SIGMA2_ALPHA,
            tracking=True,
            coded=coded,
        )
        if workload.rotate_at is not None and i % 4 == 0:
            channel = SteppedChannel(awgn, rotated, workload.rotate_at)
        elif coded is not None:
            channel = SteadyChannel(AWGNFactory(CODED_SNR_DB, BITS_PER_SYMBOL))
        else:
            channel = SteadyChannel(awgn)
        specs.append(
            SessionSpec(
                session_id=f"s{i:03d}",
                hybrid=hybrids[j],
                config=config,
                monitor_window=2 if workload.fleet else 4,
                shard=j % SHARDS,
            )
        )
        pool = generate_traffic(
            sets[j], fc, workload.pool_frames, channel, rng, coded=coded
        )
        traffic.append(SessionTraffic(pool, workload.cycle_from))
    return specs, traffic


class System:
    """The serving program under test: an engine or a fleet plus its sessions."""

    def __init__(self, workload: Workload, specs, traffic, *, on_frame=None):
        self.traffic = traffic
        if workload.fleet:
            self.server = FleetFrontEnd(
                SHARDS,
                config_factory=lambda _shard: EngineConfig(
                    max_batch=MAX_BATCH, tracer=Tracer(), on_frame=on_frame
                ),
                parallel=True,
            )
            self.server.register_metrics(MetricsRegistry)
            self.engines = self.server.shards
            self.sessions = [
                self.server.add_session(spec.build(), shard=spec.shard)
                for spec in specs
            ]
        else:
            self.server = ServingEngine(
                config=EngineConfig(max_batch=MAX_BATCH, on_frame=on_frame)
            )
            self.engines = (self.server,)
            self.sessions = [self.server.add_session(spec.build()) for spec in specs]

    def progress(self) -> tuple[int, int, int]:
        """(symbols served, frames served, decoded frames passing CRC)."""
        symbols = frames = ok = 0
        for e in self.engines:
            t = e.telemetry
            symbols += t.symbols_served
            frames += t.frames_served
            ok += t.frames_decoded - t.crc_failures
        return symbols, frames, ok

    def counters(self) -> dict[str, int]:
        """Engine counters summed over shards, plus per-session totals."""
        out = {
            name: sum(getattr(e.telemetry, name) for e in self.engines)
            for name in (
                "rounds", "batches", "frames_served", "symbols_served",
                "frames_decoded", "crc_failures", "tracks",
            )
        }
        out["rejects"] = sum(s.stats.rejects for s in self.sessions)
        out["trace_events"] = sum(
            len(e.tracer) + e.tracer.dropped for e in self.engines if e.tracer is not None
        )
        return out

    def close(self) -> None:
        self.server.close()


def oracle_engine(specs) -> ServingEngine:
    """The sequential reference: one engine, max_batch=1, weights 1, no
    tracer, profiler, registry or frame hook."""
    engine = ServingEngine(config=EngineConfig(max_batch=1))
    for spec in specs:
        engine.add_session(spec.build(unit_weight=True))
    return engine
