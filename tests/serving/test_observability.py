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
* **trace determinism** — output passivity (timelines bit-identical to
  the sequential oracle's with a tracer, profiler and registry attached,
  or a constantly evicting ring), the per-session *event projection* is
  invariant to batch width and worker count, and the full deterministic
  trace snapshot is worker-count invariant for retrain-free traffic;
* **reporting** — ``export_run`` → JSON → ``render_dashboard`` → CLI.
"""

import json
import threading

import numpy as np
import pytest

from oracle import (
    CODED,
    FC,
    N_SESSIONS,
    PLAIN,
    S10,
    Draw,
    Scenario,
    check,
    clean_traffic,
    jump_traffic,
    make_session,
    run,
)
from repro.extraction import HybridDemapper
from repro.extraction.monitor import PilotBERMonitor
from repro.serving import (
    DEGRADED,
    EngineConfig,
    MetricsRegistry,
    RetrainSupervisor,
    RoundProfiler,
    ServingEngine,
    ServingFrame,
    SessionConfig,
    Tracer,
    build_fleet,
    run_load,
)
from repro.serving.obs_report import export_run, main, render_dashboard
from repro.serving.observability import ENGINE_PHASES
from repro.serving.telemetry import EngineStats, LatencyHistogram, SessionStats

TRACK_CODED = Scenario(tracking=True, coded=True, groups=1)


@pytest.fixture(scope="module")
def staged_run():
    """One profiled, traced run that enters every round stage: tracking
    sessions (α > 0) that retrain, coded and uncoded rows, width-2 batches
    (some without a coded row)."""
    tracer, prof = Tracer(), RoundProfiler()
    engine = run(Draw(TRACK_CODED, max_batch=2), tracer=tracer, profiler=prof)[1]
    return engine, tracer, prof


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

    def test_registered_views_match_snapshots(self):
        registry = MetricsRegistry()
        engine = run(Draw(PLAIN, max_batch=8), registry=registry)[1]
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
        engine.add_session(make_session(qam16, "late"))
        assert (
            registry.counter(
                "serving_session_frames_served", {"session": "late"}
            ).value
            == 0
        )


# ---------------------------------------------------------------------------
# passivity: the trace itself is deterministic
# ---------------------------------------------------------------------------
class TestTracingPassivity:
    @pytest.mark.parametrize(
        "max_batch,retrain_workers", [(1, 0), (3, 0), (64, 0), (64, 2), (8, 4)]
    )
    def test_outputs_bit_identical_with_full_observability(
        self, max_batch, retrain_workers
    ):
        """Wall-clock tracer + round profiler + metrics registry attached:
        every timeline still equals the untraced oracle's."""
        check(Draw(PLAIN, max_batch=max_batch, workers=retrain_workers,
                   observers="full"))

    def test_tiny_ring_is_still_passive(self):
        """A constantly-evicting ring changes nothing but what's remembered."""
        check(Draw(PLAIN, max_batch=64, observers="ring"))

    def test_trace_snapshot_worker_invariant_without_retrains(self):
        """Retrain-free traffic: the *full* deterministic event stream is
        identical across worker counts (threads only move install timing,
        and there is nothing to install)."""
        snaps = []
        for workers in (0, 2):
            tracer = Tracer(wall_clock=(workers == 2))
            run(Draw(PLAIN, max_batch=8, workers=workers), tracer=tracer, retrain=False)
            snaps.append(tracer.snapshot())
        assert snaps[0] == snaps[1]

    @pytest.mark.parametrize("max_batch,retrain_workers", [(3, 0), (64, 2)])
    def test_session_projection_invariant_with_retrains(self, max_batch, retrain_workers):
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
        run(Draw(PLAIN, max_batch=1), tracer=ref_tracer)
        got_tracer = Tracer()
        run(Draw(PLAIN, max_batch=max_batch, workers=retrain_workers), tracer=got_tracer)
        sids = sorted({e.session_id for e in ref_tracer.events if e.session_id})
        assert len(sids) == N_SESSIONS
        for sid in sids:
            assert projection(got_tracer, sid) == projection(ref_tracer, sid)

    def test_lifecycle_event_names_present(self, staged_run):
        engine, tracer, prof = staged_run
        names = {e.name for e in tracer.events}
        assert {
            "round.begin", "round.end", "frame.submit", "frame.batched",
            "frame.decoded", "frame.served", "session.join", "retrain.install",
        } <= names
        # one stage vocabulary: every stage the profiler timed is traced
        # under the same name, and this run enters every stage
        traced = {n.removeprefix("phase.") for n in names if n.startswith("phase.")}
        assert traced == set(prof.phases) == set(ENGINE_PHASES)
        # backpressure shows up as reasoned rejects (queue_depth=4, 8 frames)
        rejects = [e for e in tracer.events if e.name == "frame.reject"]
        assert rejects and all(
            e.args["reason"] == "backpressure" for e in rejects
        )


# ---------------------------------------------------------------------------
# profiler + fault-path events + worker gauges (satellite b)
# ---------------------------------------------------------------------------
class TestProfilerAndFaultEvents:
    def test_profiler_covers_all_phases_with_sane_counts(self, staged_run):
        engine, tracer, prof = staged_run
        rounds, batches = engine.telemetry.rounds, engine.telemetry.batches
        for stage in ("absorb-outcomes", "schedule", "weight-control"):
            assert prof.phases[stage].count == rounds
        for stage in ("demap-launch", "accounting", "control-plane"):
            assert prof.phases[stage].count == batches
        assert sum(s.count for s in prof.launches.values()) == batches
        # per batch (the frame.batched rows after each demap-launch), the
        # stages run in order, sigma2-estimate only with an α > 0 row and
        # decode only with a coded row; retrain-submit nests in control-plane
        config = {s.session_id: s.config for s in engine.sessions}
        after_launch = {"accounting", "sigma2-estimate", "decode", "control-plane"}
        stages, rows = [], []
        for e in tracer.events:
            if e.name == "phase.demap-launch":
                stages.append([])
                rows.append([])
            elif e.name == "frame.batched":
                rows[-1].append(config[e.session_id])
            elif e.name.removeprefix("phase.") in after_launch:
                stages[-1].append(e.name.removeprefix("phase."))
        assert len(stages) == batches
        for got, cfgs in zip(stages, rows):
            want = ["accounting"]
            want += ["sigma2-estimate"] * any(c.sigma2_alpha > 0 for c in cfgs)
            want += ["decode"] * any(c.coded is not None for c in cfgs)
            assert got == want + ["control-plane"]
        assert 0 < prof.phases["decode"].count < batches
        assert prof.phases["sigma2-estimate"].count == batches
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
        ``control-plane`` (that profiling changes no decoded bit is checked
        against the sequential oracle in ``test_differential.py``)."""
        prof = RoundProfiler()
        engine = ServingEngine(config=EngineConfig(max_batch=4, profiler=prof))
        traffic = {}
        for i in range(4):
            session = engine.add_session(make_session(qam16, f"c{i}", seed=i, coded=CODED))
            traffic[session.session_id] = clean_traffic(qam16, 3, 7, coded=CODED)
        run_load(engine, traffic)
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
            engine, 2, HybridDemapper(constellation=qam16, sigma2=S10),
            monitor_factory=lambda: PilotBERMonitor(0.5, window=2),
            config=SessionConfig(frame=FC, queue_depth=4), seed=1,
        )
        sid = sessions[0].session_id
        frames = clean_traffic(qam16, 3, 5)
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
            make_session(qam16, "s", retrain=stuck, threshold=0.12)
        )
        frames = jump_traffic(qam16, 8, 6, step=2)
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
        tracer = Tracer()
        engine = ServingEngine(config=EngineConfig(tracer=tracer))
        engine.add_session(make_session(qam16, "s"))
        frames = clean_traffic(qam16, 3, 5)
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
    def run_doc(self, tmp_path_factory):
        registry = MetricsRegistry()
        engine = run(Draw(PLAIN, max_batch=8), tracer=Tracer(),
                     profiler=RoundProfiler(), registry=registry)[1]
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
            engine, 2, HybridDemapper(constellation=qam16, sigma2=S10),
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

    def test_dashboard_without_profile_falls_back_to_trace_counts(self):
        tracer = Tracer()
        engine = run(Draw(PLAIN, max_batch=8), tracer=tracer)[1]
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
