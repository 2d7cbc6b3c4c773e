"""Observability layer: tracing, metrics registry, profiling, obs_report.

Four pillars of coverage:

* **tracer mechanics** — ring-buffer bounding (latest kept, evictions
  counted), wall-clock stamps excluded from deterministic snapshots, and
  both exporters round-trip (Chrome ``trace_event`` JSON loads, the plain
  log renders every event);
* **metrics registry** — instrument semantics (monotone counters, live
  callback views, kind-per-name, label identity), Prometheus-text and JSON
  exporters, and the sharding contract: ``merge()`` of per-shard
  registries equals recording everything in one;
* **passivity** — the hard acceptance gate: with a tracer, profiler and
  registry all attached, per-session LLR/trigger/σ²/tier timelines are
  bit-identical to an untraced run at every micro-batch width and worker
  count; the per-session *event projection* is itself invariant to those
  knobs, and the full deterministic trace snapshot is worker-count
  invariant for retrain-free traffic;
* **reporting** — ``export_run`` → JSON → ``render_dashboard`` → CLI.
"""

import json
import threading

import numpy as np
import pytest

from repro.channels import sigma2_from_snr
from repro.channels.factories import AWGNFactory, CompositeFactory, PhaseOffsetFactory
from repro.extraction import HybridDemapper
from repro.extraction.monitor import PilotBERMonitor
from repro.link.frames import FrameConfig
from repro.modulation import qam_constellation
from repro.serving import (
    DEGRADED,
    CodedFrameConfig,
    EngineConfig,
    MetricsRegistry,
    RetrainSupervisor,
    RoundProfiler,
    ServingEngine,
    ServingFrame,
    SessionConfig,
    SteadyChannel,
    SteppedChannel,
    Tracer,
    build_fleet,
    generate_traffic,
    run_load,
)
from repro.serving.obs_report import export_run, main, render_dashboard
from repro.serving.observability import ENGINE_PHASES
from repro.serving.telemetry import EngineStats, LatencyHistogram, SessionStats

SIGMA2 = sigma2_from_snr(8.0, 4)
FC = FrameConfig(pilot_symbols=16, payload_symbols=48)
N_SESSIONS = 6
N_FRAMES = 10
OFFSET = np.pi / 4


@pytest.fixture(scope="module")
def qam16():
    return qam_constellation(16)


class RotatePolicy:
    """Deterministic-in-rng retrain stand-in (the determinism-suite canary)."""

    def __init__(self, qam):
        self.qam = qam

    def __call__(self, rng):
        angle = OFFSET + rng.normal(scale=1e-3)
        return HybridDemapper(
            constellation=type(self.qam)(points=self.qam.points * np.exp(1j * angle)),
            sigma2=SIGMA2,
        )


def make_traffic(qam, session_ids, *, jump=True, seed=17):
    chan_clean = SteadyChannel(AWGNFactory(8.0, 4))
    chan_jump = SteppedChannel(
        AWGNFactory(8.0, 4),
        CompositeFactory((PhaseOffsetFactory(OFFSET), AWGNFactory(8.0, 4))),
        step_seq=4,
    )
    rng = np.random.default_rng(seed)
    traffic = {}
    for i, sid in enumerate(session_ids):
        (srng,) = rng.spawn(1)
        chan = chan_jump if (jump and i % 2 == 0) else chan_clean
        traffic[sid] = generate_traffic(qam, FC, N_FRAMES, chan, srng)
    return traffic


def serve(qam, *, max_batch, retrain_workers, tracer=None, profiler=None,
          registry=None, jump=True, with_policy=True):
    """One full serving run; returns outputs, timelines and the engine."""
    llrs = {}
    engine = ServingEngine(config=EngineConfig(
        max_batch=max_batch,
        retrain_workers=retrain_workers,
        tracer=tracer,
        profiler=profiler,
        on_frame=lambda s, f, block, rep: llrs.setdefault(s.session_id, []).append(
            block.copy()
        ),
    ))
    if registry is not None:
        engine.register_metrics(registry)
    sessions = build_fleet(
        engine,
        N_SESSIONS,
        HybridDemapper(constellation=qam, sigma2=SIGMA2),
        monitor_factory=lambda: PilotBERMonitor(0.12, window=2, cooldown=2),
        config=SessionConfig(frame=FC, queue_depth=4),
        retrain_factory=(lambda i: RotatePolicy(qam)) if with_policy else None,
        seed=99,
    )
    with engine:
        run_load(
            engine, make_traffic(qam, [s.session_id for s in sessions], jump=jump)
        )
    timelines = {
        s.session_id: (
            tuple(s.stats.trigger_seqs),
            tuple(s.stats.tier_timeline),
            tuple(s.stats.sigma2_trajectory),
            s.stats.retrains,
        )
        for s in sessions
    }
    return llrs, timelines, engine


def assert_identical(run, reference):
    llrs, timelines = run[0], run[1]
    ref_llrs, ref_timelines = reference[0], reference[1]
    assert timelines == ref_timelines
    assert set(llrs) == set(ref_llrs)
    for sid in ref_llrs:
        assert len(llrs[sid]) == len(ref_llrs[sid]) == N_FRAMES
        for got, ref in zip(llrs[sid], ref_llrs[sid]):
            assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# tracer mechanics
# ---------------------------------------------------------------------------
class TestTracerCore:
    def test_ring_keeps_latest_and_counts_evictions(self):
        t = Tracer(capacity=4)
        for i in range(10):
            t.emit("e", ts=i, seq=i)
        assert len(t) == 4
        assert t.dropped == 6
        assert [e.ts for e in t.events] == [6, 7, 8, 9]
        snap = t.snapshot()
        assert snap["capacity"] == 4 and snap["dropped"] == 6
        t.clear()
        assert len(t) == 0 and t.dropped == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_wall_clock_stamps_excluded_from_deterministic_snapshot(self):
        t = Tracer(wall_clock=True)
        t.emit("e", ts=1, round=0, session_id="s", seq=2, k="v")
        (event,) = t.events
        assert event.wall is not None
        det = event.as_dict()
        assert "wall" not in det
        assert det == {
            "name": "e", "ts": 1, "ph": "i", "round": 0,
            "session_id": "s", "seq": 2, "args": {"k": "v"},
        }
        assert "wall" in event.as_dict(deterministic=False)
        cold = Tracer()
        cold.emit("e", ts=1)
        assert cold.events[0].wall is None

    def test_session_events_filters_by_track(self):
        t = Tracer()
        t.emit("a", ts=0, session_id="x")
        t.emit("b", ts=1)
        t.emit("c", ts=2, session_id="y")
        t.emit("d", ts=3, session_id="x")
        assert [e.name for e in t.session_events("x")] == ["a", "d"]

    def test_chrome_export_loads_and_names_tracks(self):
        t = Tracer()
        t.emit("round.begin", ts=0, round=0)
        t.emit("phase.demap-launch", ts=0, ph="X", dur=64, round=0, width=2)
        t.emit("frame.served", ts=64, round=0, session_id="s1", seq=0)
        t.emit("frame.served", ts=64, round=0, session_id="s2", seq=0)
        t.emit("frame.served", ts=128, round=1, session_id="s1", seq=1)
        doc = json.loads(t.chrome_json(indent=2))
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"engine", "s1", "s2"}
        span = next(e for e in events if e["ph"] == "X")
        assert span["dur"] == 64 and span["args"]["round"] == 0
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        # engine events ride tid 0, session events their own tids
        assert {e["tid"] for e in events if e.get("args", {}).get("seq") == 0} == {1, 2}

    def test_plain_log_renders_every_event(self):
        t = Tracer()
        t.emit("frame.served", ts=128, round=3, session_id="s0", seq=5, tier="track")
        t.emit("phase.demap-launch", ts=0, ph="X", dur=64)
        lines = t.to_log()
        assert len(lines) == 2
        assert "frame.served" in lines[0] and "s0" in lines[0]
        assert "seq=5" in lines[0] and "tier=track" in lines[0]
        assert "dur=64" in lines[1]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        r = MetricsRegistry()
        c = r.counter("frames_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = r.gauge("depth")
        g.set(3.5)
        assert g.value == 3.5
        h = r.histogram("wait")
        h.record(7)
        assert h.hist.count == 1
        assert len(r) == 3

    def test_registration_is_idempotent_and_label_scoped(self):
        r = MetricsRegistry()
        a = r.counter("x_total", {"s": "a"})
        b = r.counter("x_total", {"s": "b"})
        assert a is not b
        a.inc(2)
        assert r.counter("x_total", {"s": "a"}) is a
        assert r.counter("x_total", {"s": "a"}).value == 2

    def test_kind_conflict_and_invalid_names_raise(self):
        r = MetricsRegistry()
        r.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("x_total")
        with pytest.raises(ValueError, match="invalid metric name"):
            r.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            r.counter("ok", {"0bad": "v"})

    def test_callback_instruments_read_live_and_refuse_writes(self):
        r = MetricsRegistry()
        state = {"n": 1}
        c = r.counter("live_total", fn=lambda: state["n"])
        g = r.gauge("live", fn=lambda: state["n"] * 2)
        h = LatencyHistogram()
        hv = r.histogram("live_wait", source=lambda: h)
        state["n"] = 9
        h.record(3)
        assert c.value == 9 and g.value == 18 and hv.hist.count == 1
        with pytest.raises(TypeError):
            c.inc()
        with pytest.raises(TypeError):
            g.set(1)
        with pytest.raises(TypeError):
            hv.record(1)

    def test_reregistering_a_callback_rebinds_it(self):
        """Churn contract: a reused session id points at the new object."""
        r = MetricsRegistry()
        r.counter("n_total", {"session": "s"}, fn=lambda: 1)
        r.counter("n_total", {"session": "s"}, fn=lambda: 2)
        assert r.counter("n_total", {"session": "s"}).value == 2
        old, new = LatencyHistogram(), LatencyHistogram()
        new.record(5)
        r.histogram("w", source=lambda: old)
        r.histogram("w", source=lambda: new)
        assert r.histogram("w").hist.count == 1

    def test_prometheus_text_shape(self):
        r = MetricsRegistry()
        r.counter("frames_total", {"session": 's"x'}).inc(3)
        r.gauge("sigma2").set(float("nan"))
        h = r.histogram("wait")
        h.record(0)
        h.record(5)
        text = r.to_prometheus()
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines.count("# TYPE frames_total counter") == 1
        assert 'frames_total{session="s\\"x"} 3' in lines
        assert "sigma2 NaN" in lines
        assert 'wait_bucket{le="0"} 1' in lines
        assert 'wait_bucket{le="7"} 2' in lines
        assert 'wait_bucket{le="+Inf"} 2' in lines
        assert "wait_sum 5" in lines and "wait_count 2" in lines

    def test_json_export_round_trips(self):
        r = MetricsRegistry()
        r.counter("a_total").inc(2)
        r.histogram("w").record(9)
        doc = r.to_json()
        assert doc == json.loads(json.dumps(doc))
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["a_total"]["value"] == 2
        assert by_name["w"]["count"] == 1 and by_name["w"]["total"] == 9

    def test_merge_equals_record_in_one(self):
        rng = np.random.default_rng(7)
        samples = rng.integers(0, 500, size=60)
        combined = MetricsRegistry()
        shards = [MetricsRegistry() for _ in range(3)]
        one = MetricsRegistry()
        for i, s in enumerate(samples):
            shard = shards[i % 3]
            shard.counter("frames_total").inc()
            shard.histogram("wait").record(int(s))
            shard.gauge("last").set(int(s))
            one.counter("frames_total").inc()
            one.histogram("wait").record(int(s))
            one.gauge("last").set(int(s))
        for shard in shards:
            combined.merge(shard)
        assert combined.counter("frames_total").value == 60
        assert (
            combined.histogram("wait").hist.snapshot()
            == one.histogram("wait").hist.snapshot()
        )
        # gauges: last writer wins — shard 2 held the final sample
        assert combined.gauge("last").value == shards[2].gauge("last").value

    def test_merge_materializes_callbacks_and_guards_sources(self):
        src = MetricsRegistry()
        src.counter("n_total", fn=lambda: 5)
        dst = MetricsRegistry()
        dst.merge(src)
        assert dst.counter("n_total").value == 5
        dst.merge(src)
        assert dst.counter("n_total").value == 10  # counters add
        h = LatencyHistogram()
        viewer = MetricsRegistry()
        viewer.histogram("w", source=lambda: h)
        other = MetricsRegistry()
        other.histogram("w").record(1)
        with pytest.raises(TypeError, match="source-backed"):
            viewer.merge(other)


# ---------------------------------------------------------------------------
# stats re-registration + snapshot schema (satellite a)
# ---------------------------------------------------------------------------
class TestStatsRegistration:
    def test_snapshots_carry_the_schema_version(self):
        from repro.serving import SCHEMA_VERSION

        assert SessionStats().snapshot()["schema"] == SCHEMA_VERSION
        assert EngineStats().snapshot()["schema"] == SCHEMA_VERSION

    def test_failure_summary_aggregates_the_log(self):
        from repro.serving import FailureRecord

        stats = EngineStats()
        for kind, action in [("error", "retry"), ("error", "degrade"),
                             ("poison", "quarantine"), ("hung", "degrade")]:
            stats.failure_log.append(
                FailureRecord(round=0, session_id="s", kind=kind,
                              error="x", failures=1, action=action)
            )
        summary = stats.failure_summary()
        assert summary["total"] == 4
        assert summary["by_kind"] == {"error": 2, "hung": 1, "poison": 1}
        assert summary["by_action"] == {"degrade": 2, "quarantine": 1, "retry": 1}
        assert stats.snapshot()["failure_summary"] == summary
        assert EngineStats().snapshot()["failure_summary"]["total"] == 0

    def test_registered_views_match_snapshots(self, qam16):
        registry = MetricsRegistry()
        llrs, timelines, engine = serve(
            qam16, max_batch=8, retrain_workers=0, registry=registry
        )
        eng = engine.telemetry.snapshot()
        for name in ("rounds", "frames_served", "retrains_started", "tracks"):
            assert registry.counter("serving_engine_" + name).value == eng[name]
        assert (
            registry.histogram("serving_engine_queue_wait").hist.snapshot()
            == eng["queue_wait"]
        )
        session = engine.sessions[0]
        labels = {"session": session.session_id}
        snap = session.stats.snapshot()
        for name in ("frames_served", "retrains", "rejects"):
            assert registry.counter("serving_session_" + name, labels).value == snap[name]
        assert registry.gauge("serving_session_triggers", labels).value == len(
            snap["trigger_seqs"]
        )
        assert registry.gauge("serving_session_sigma2", labels).value == session.sigma2
        assert registry.gauge("serving_engine_sessions").value == N_SESSIONS
        # worker ledger: every started retrain was submitted and installed
        assert (
            registry.counter("serving_retrain_jobs_submitted").value
            == eng["retrains_started"]
        )
        assert (
            registry.counter("serving_retrain_jobs_installed").value
            == eng["retrains_completed"]
        )
        assert registry.gauge("serving_retrain_queue_depth").value == 0
        # supervisor population: everything idle after the run
        idle = registry.gauge("serving_supervisor_sessions", {"state": "idle"})
        assert idle.value == len(engine.supervisor.snapshot())
        for state in ("in_flight", "backoff", "open"):
            assert (
                registry.gauge("serving_supervisor_sessions", {"state": state}).value
                == 0
            )
        # the whole surface exports cleanly
        assert "serving_engine_rounds" in registry.to_prometheus()
        json.dumps(registry.to_json())

    def test_late_joiner_is_registered_automatically(self, qam16):
        registry = MetricsRegistry()
        engine = ServingEngine()
        engine.register_metrics(registry)
        from repro.serving import DemapperSession

        engine.add_session(
            DemapperSession(
                "late",
                HybridDemapper(constellation=qam16, sigma2=SIGMA2),
                PilotBERMonitor(0.5, window=2),
                config=SessionConfig(frame=FC),
            )
        )
        assert (
            registry.counter(
                "serving_session_frames_served", {"session": "late"}
            ).value
            == 0
        )


# ---------------------------------------------------------------------------
# passivity: the acceptance gate
# ---------------------------------------------------------------------------
class TestTracingPassivity:
    @pytest.fixture(scope="class")
    def untraced(self, qam16):
        return serve(qam16, max_batch=1, retrain_workers=0)

    @pytest.mark.parametrize(
        "max_batch,retrain_workers", [(1, 0), (3, 0), (64, 0), (64, 2), (8, 4)]
    )
    def test_outputs_bit_identical_with_full_observability(
        self, qam16, untraced, max_batch, retrain_workers
    ):
        """LLR/trigger/σ²/tier timelines: traced == untraced, every config."""
        traced = serve(
            qam16,
            max_batch=max_batch,
            retrain_workers=retrain_workers,
            tracer=Tracer(wall_clock=True),
            profiler=RoundProfiler(),
            registry=MetricsRegistry(),
        )
        assert_identical(traced, untraced)
        assert len(traced[2].tracer) > 0

    def test_tiny_ring_is_still_passive(self, qam16, untraced):
        """A constantly-evicting ring changes nothing but what's remembered."""
        tracer = Tracer(capacity=8)
        traced = serve(qam16, max_batch=64, retrain_workers=0, tracer=tracer)
        assert_identical(traced, untraced)
        assert len(tracer) == 8 and tracer.dropped > 0

    def test_trace_snapshot_worker_invariant_without_retrains(self, qam16):
        """Retrain-free traffic: the *full* deterministic event stream is
        identical across worker counts (threads only move install timing,
        and there is nothing to install)."""
        snaps = []
        for workers in (0, 2):
            tracer = Tracer(wall_clock=(workers == 2))
            serve(
                qam16, max_batch=8, retrain_workers=workers,
                tracer=tracer, jump=False, with_policy=False,
            )
            snaps.append(tracer.snapshot())
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("max_batch,retrain_workers", [(3, 0), (64, 2)])
    def test_session_projection_invariant_with_retrains(
        self, qam16, max_batch, retrain_workers
    ):
        """Per-session lifecycle projection (names + seqs + deterministic
        args) is batch-width and worker-count invariant even when retrains
        fire — only global interleaving and clock stamps may differ."""

        def projection(tracer, sid):
            keep = {"frame.submit", "frame.served", "retrain.install",
                    "phase.retrain-submit"}
            out = []
            for e in tracer.session_events(sid):
                if e.name not in keep:
                    continue
                args = e.args or {}
                out.append(
                    (e.name, e.seq, args.get("pilot_ber"), args.get("tier"),
                     args.get("sigma2"))
                )
            return out

        ref_tracer = Tracer()
        _, _, ref_engine = serve(
            qam16, max_batch=1, retrain_workers=0, tracer=ref_tracer
        )
        got_tracer = Tracer()
        serve(
            qam16, max_batch=max_batch, retrain_workers=retrain_workers,
            tracer=got_tracer,
        )
        sids = sorted({e.session_id for e in ref_tracer.events if e.session_id})
        assert len(sids) == N_SESSIONS
        for sid in sids:
            assert projection(got_tracer, sid) == projection(ref_tracer, sid)

    def test_lifecycle_event_names_present(self, qam16):
        tracer = Tracer()
        serve(qam16, max_batch=8, retrain_workers=0, tracer=tracer)
        names = {e.name for e in tracer.events}
        assert {
            "round.begin", "round.end", "frame.submit", "frame.batched",
            "frame.served", "session.join", "retrain.install",
        } <= names
        # decode and weight-control are profiler-only stages (and this
        # fleet is uncoded); every other phase is traced
        traced = set(ENGINE_PHASES) - {"decode", "weight-control"}
        assert {f"phase.{p}" for p in traced} <= names
        # backpressure shows up as reasoned rejects (queue_depth=4, 10 frames)
        rejects = [e for e in tracer.events if e.name == "frame.reject"]
        assert rejects and all(
            e.args["reason"] == "backpressure" for e in rejects
        )


# ---------------------------------------------------------------------------
# profiler + fault-path events + worker gauges (satellite b)
# ---------------------------------------------------------------------------
class TestProfilerAndFaultEvents:
    def test_profiler_covers_all_phases_with_sane_counts(self, qam16):
        prof = RoundProfiler()
        _, _, engine = serve(qam16, max_batch=8, retrain_workers=0, profiler=prof)
        # an uncoded fleet never enters the decode stage
        assert set(prof.phases) == set(ENGINE_PHASES) - {"decode"}
        rounds = engine.telemetry.rounds
        assert prof.phases["schedule"].count == rounds
        assert prof.phases["absorb-outcomes"].count == rounds
        assert prof.phases["weight-control"].count == rounds
        assert prof.phases["demap-launch"].count == engine.telemetry.batches
        assert prof.phases["control-plane"].count == engine.telemetry.batches
        assert sum(s.count for s in prof.launches.values()) == engine.telemetry.batches
        for stat in prof.phases.values():
            snap = stat.snapshot()
            assert snap["total_s"] >= 0 and snap["min_s"] <= snap["max_s"]
        reg = MetricsRegistry()
        prof.register_metrics(reg)
        assert (
            reg.counter(
                "serving_profile_calls_total", {"phase": "schedule"}
            ).value
            == rounds
        )
        prof.clear()
        assert not prof.phases and not prof.launches

    def test_coded_decode_is_its_own_stage(self, qam16):
        """Coded batches record one ``decode`` per batch, outside
        ``control-plane``, and profiling changes no decoded bit."""
        coded = CodedFrameConfig()
        fc = FrameConfig(pilot_symbols=16, payload_symbols=112)

        def run(profiler):
            seen = []
            engine = ServingEngine(config=EngineConfig(
                max_batch=4, profiler=profiler,
                on_frame=lambda s, f, block, rep: seen.append(
                    (s.session_id, f.seq, rep.crc_ok, rep.post_fec_ber)
                ),
            ))
            sessions = build_fleet(
                engine, 4, HybridDemapper(constellation=qam16, sigma2=SIGMA2),
                monitor_factory=lambda: PilotBERMonitor(0.5, window=2),
                config=SessionConfig(frame=fc, queue_depth=4, coded=coded), seed=5,
            )
            frames = generate_traffic(
                qam16, fc, 3, SteadyChannel(AWGNFactory(8.0, 4)), 7, coded=coded
            )
            for s in sessions:
                for f in frames:
                    s.submit(f)
            while engine.step():
                pass
            return engine, seen

        prof = RoundProfiler()
        engine, profiled = run(prof)
        _, plain = run(None)
        assert len(profiled) == 12 and profiled == plain
        assert engine.telemetry.frames_decoded == 12
        assert prof.phases["decode"].count == engine.telemetry.batches
        assert prof.phases["control-plane"].count == engine.telemetry.batches
        lines = render_dashboard(export_run(engine), sections=["phases"]).splitlines()
        listed = [line.split()[0] for line in lines[2:]]
        assert listed[: len(prof.phases)] == [p for p in ENGINE_PHASES if p in prof.phases]

    def test_empty_stage_snapshot_is_nan_safe(self):
        prof = RoundProfiler()
        prof.account("x", 0.0)
        snap = prof.snapshot()
        assert snap["phases"]["x"]["count"] == 1
        assert snap["launches"] == {}

    def test_hard_removal_traces_drop_and_leave(self, qam16):
        tracer = Tracer()
        engine = ServingEngine(config=EngineConfig(tracer=tracer))
        sessions = build_fleet(
            engine, 2, HybridDemapper(constellation=qam16, sigma2=SIGMA2),
            monitor_factory=lambda: PilotBERMonitor(0.5, window=2),
            config=SessionConfig(frame=FC, queue_depth=4), seed=1,
        )
        sid = sessions[0].session_id
        frames = generate_traffic(
            qam16, FC, 3, SteadyChannel(AWGNFactory(8.0, 4)), 5
        )
        for f in frames:
            engine.submit(sid, f)
        engine.remove_session(sid, drain=False)
        names = [e.name for e in tracer.session_events(sid)]
        assert names[-2:] == ["frame.dropped", "session.leave"]
        drop = next(e for e in tracer.events if e.name == "frame.dropped")
        assert drop.args["count"] == 3
        # graceful drain of the empty survivor: drain then leave
        other = sessions[1].session_id
        engine.remove_session(other, drain=True)
        other_names = [e.name for e in tracer.session_events(other)]
        assert "session.drain" in other_names and "session.leave" in other_names

    def test_hung_retrain_emits_trace_and_degrades(self, qam16):
        from repro.serving import DemapperSession

        release = threading.Event()

        def stuck(rng):
            release.wait(timeout=30)
            raise RuntimeError("released late")

        tracer = Tracer()
        engine = ServingEngine(config=EngineConfig(
            retrain_workers=1,
            supervisor=RetrainSupervisor(max_failures=1, deadline_rounds=3),
            tracer=tracer,
        ))
        registry = engine.register_metrics(MetricsRegistry())
        session = engine.add_session(
            DemapperSession(
                "s",
                HybridDemapper(constellation=qam16, sigma2=SIGMA2),
                PilotBERMonitor(0.12, window=2, cooldown=2),
                config=SessionConfig(frame=FC, queue_depth=4, sigma2_alpha=0.25),
                retrain=stuck,
                rng=0,
            )
        )
        chan = SteppedChannel(
            AWGNFactory(8.0, 4),
            CompositeFactory((PhaseOffsetFactory(OFFSET), AWGNFactory(8.0, 4))),
            step_seq=2,
        )
        frames = generate_traffic(qam16, FC, 8, chan, 6)
        offset = 0
        for _ in range(40):
            while offset < len(frames) and engine.submit("s", frames[offset]):
                offset += 1
            engine.step()
            if offset == len(frames) and session.pending == 0:
                break
        assert engine.telemetry.retrains_hung == 1
        assert session.health == DEGRADED
        names = [e.name for e in tracer.session_events("s")]
        assert "retrain.hung" in names
        hung = next(e for e in tracer.events if e.name == "retrain.hung")
        assert hung.args["deadline_rounds"] == 3
        fault = next(e for e in tracer.events if e.name == "fault.hung")
        assert fault.args["action"] == "degrade"
        health = next(e for e in tracer.events if e.name == "session.health")
        assert health.args["health"] == DEGRADED
        assert registry.counter("serving_retrain_jobs_abandoned").value == 1
        assert registry.gauge("serving_retrain_abandoned").value == 1
        assert (
            registry.gauge("serving_supervisor_sessions", {"state": "open"}).value
            == 1
        )
        release.set()
        engine.close(timeout=5)

    def test_poison_quarantine_traces_fault_and_health(self, qam16):
        from repro.serving import DemapperSession

        tracer = Tracer()
        engine = ServingEngine(config=EngineConfig(tracer=tracer))
        engine.add_session(
            DemapperSession(
                "s",
                HybridDemapper(constellation=qam16, sigma2=SIGMA2),
                PilotBERMonitor(0.9, window=2),
                config=SessionConfig(frame=FC, queue_depth=4),
            )
        )
        frames = generate_traffic(
            qam16, FC, 3, SteadyChannel(AWGNFactory(8.0, 4)), 5
        )
        received = np.array(frames[1].received, copy=True)
        received[2] = complex(float("nan"), float("nan"))
        poison = ServingFrame(
            seq=frames[1].seq, indices=frames[1].indices,
            pilot_mask=frames[1].pilot_mask, received=received,
        )
        for f in (frames[0], poison, frames[2]):
            engine.submit("s", f)
        for _ in range(4):
            engine.step()
        names = [e.name for e in tracer.session_events("s")]
        assert "frame.quarantined" in names and "fault.poison" in names
        q = next(e for e in tracer.events if e.name == "frame.quarantined")
        assert q.seq == poison.seq and q.args["lost"] == 2  # poison + queued
        health = next(e for e in tracer.events if e.name == "session.health")
        assert health.args["health"] == "quarantined"
        # the follow-up submission refusal is reasoned
        assert not engine.submit("s", frames[2])
        reject = [e for e in tracer.events if e.name == "frame.reject"][-1]
        assert reject.args["reason"] == "quarantined"
        # the dashboard shows the fault: failure summary + health timeline
        text = render_dashboard(export_run(engine))
        assert "kind   poison" in text and "action quarantine" in text
        assert "-> quarantined" in text


# ---------------------------------------------------------------------------
# export + dashboard + CLI (satellite f's engine room)
# ---------------------------------------------------------------------------
class TestObsReport:
    @pytest.fixture(scope="class")
    def run_doc(self, qam16, tmp_path_factory):
        registry = MetricsRegistry()
        _, _, engine = serve(
            qam16, max_batch=8, retrain_workers=0,
            tracer=Tracer(), profiler=RoundProfiler(), registry=registry,
        )
        path = tmp_path_factory.mktemp("obs") / "run.json"
        doc = export_run(engine, path=path, indent=1)
        return doc, path, engine

    def test_export_structure_and_round_trip(self, run_doc):
        doc, path, engine = run_doc
        from repro.serving import SCHEMA_VERSION

        assert doc["schema"] == SCHEMA_VERSION
        assert doc["engine"]["schema"] == SCHEMA_VERSION
        assert len(doc["sessions"]) == N_SESSIONS
        assert set(doc["health"]) == set(doc["sessions"])
        assert doc["trace"]["events"] and doc["profile"]["phases"]
        assert doc["metrics"]["metrics"]
        with open(path, encoding="utf-8") as fh:
            reloaded = json.load(fh)
        assert reloaded["engine"]["rounds"] == doc["engine"]["rounds"]
        assert len(reloaded["trace"]["events"]) == len(doc["trace"]["events"])

    def test_export_includes_departed_sessions_when_passed(self, qam16):
        tracer = Tracer()
        engine = ServingEngine(config=EngineConfig(tracer=tracer))
        sessions = build_fleet(
            engine, 2, HybridDemapper(constellation=qam16, sigma2=SIGMA2),
            monitor_factory=lambda: PilotBERMonitor(0.5, window=2),
            config=SessionConfig(frame=FC), seed=1,
        )
        gone = sessions[0]
        engine.remove_session(gone.session_id, drain=False)
        doc = export_run(engine)
        assert gone.session_id not in doc["sessions"]
        doc = export_run(engine, sessions=sessions)
        assert gone.session_id in doc["sessions"]

    def test_dashboard_renders_live_and_reloaded(self, run_doc):
        doc, path, _ = run_doc
        live = render_dashboard(doc)
        with open(path, encoding="utf-8") as fh:
            reloaded = render_dashboard(json.load(fh))
        for text in (live, reloaded):
            assert "== engine ==" in text
            assert "== sessions ==" in text
            assert "mean_occupancy" in text
            assert "s000" in text
            assert "demap-launch" in text  # profiler breakdown
            assert "== failures ==" in text and "(none)" in text
            assert "events=" in text
        with pytest.raises(ValueError, match="unknown section"):
            render_dashboard(doc, sections=["nope"])

    def test_dashboard_without_profile_falls_back_to_trace_counts(
        self, qam16
    ):
        tracer = Tracer()
        _, _, engine = serve(qam16, max_batch=8, retrain_workers=0, tracer=tracer)
        text = render_dashboard(export_run(engine))
        assert "trace event counts only" in text
        assert "phase.schedule" in text
        bare = ServingEngine()
        minimal = render_dashboard(export_run(bare))
        assert "(no profiler or trace attached)" in minimal
        assert "(no tracer attached)" in minimal

    def test_cli_renders_and_filters_sections(self, run_doc, capsys):
        _, path, _ = run_doc
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "== engine ==" in out and "== trace ==" in out
        assert main([str(path), "--section", "sessions"]) == 0
        out = capsys.readouterr().out
        assert "== sessions ==" in out and "== engine ==" not in out
