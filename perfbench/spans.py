"""Outside-in span tracing: wrap the serving layers' entry points from here.

Nothing under ``src/`` is edited.  :class:`SpanTracer` replaces, for the
length of a traced phase, the module-level names the engine and the coding
layer call (``repro.serving.engine.batched_maxlog_llrs``, ...) and the
public methods of the layers they drive (``DegradationMonitor.observe``,
``SessionStats.record_frame``, ...) with timing wrappers, and puts the
originals back afterwards.

Each call becomes a span ``(name, start, end, parent, thread)``.  Spans nest
per thread; a layer's self time is its span minus the child spans on the
same thread.  A shard's ``engine.step`` runs on a fleet pool thread, so its
parent is the ``fleet.step`` span that dispatched it, and ``fleet.step``'s
self time is the fleet step minus its longest shard step (pool dispatch and
barrier).  Per-layer call counts and self times are aggregated for every
span.  The span records themselves are kept in memory for the first
``MAX_SPANS`` spans of each thread, so on long traced phases the written
file covers only a prefix of the phase, and are written out as JSON when
the run ends.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

import repro.serving.coding as coding_mod
import repro.serving.engine as engine_mod
from repro.extraction.monitor import DegradationMonitor
from repro.serving import (
    CodedLayout,
    DeficitRoundRobin,
    DemapperSession,
    EngineStats,
    FleetFrontEnd,
    LatencyHistogram,
    ServingEngine,
    SessionStats,
    Tracer,
)

#: (layer name, owner, attribute).  Module owners have their global name
#: replaced (the engine resolves it at call time); class owners get a
#: wrapped method or property getter.
TARGETS = (
    ("engine.step", ServingEngine, "step"),
    ("engine.submit", ServingEngine, "submit"),
    ("fleet.step", FleetFrontEnd, "step"),
    ("scheduler.allocate", DeficitRoundRobin, "allocate"),
    ("batching.coalesce", engine_mod, "coalesce"),
    ("dispatch.batched_maxlog_llrs", engine_mod, "batched_maxlog_llrs"),
    ("estimation.estimate_noise_sigma2_batch", engine_mod, "estimate_noise_sigma2_batch"),
    ("coding.decode_rows", CodedLayout, "decode_rows"),
    ("dispatch.grouped_viterbi_decode", coding_mod, "grouped_viterbi_decode"),
    ("monitor.observe", DegradationMonitor, "observe"),
    ("monitor.current_level", DegradationMonitor, "current_level"),
    ("session.observe_sigma2", DemapperSession, "observe_sigma2"),
    ("session.apply_track", DemapperSession, "apply_track"),
    ("telemetry.record_frame", SessionStats, "record_frame"),
    ("telemetry.LatencyHistogram.record", LatencyHistogram, "record"),
    ("telemetry.record_batch", EngineStats, "record_batch"),
    ("tracing.emit", Tracer, "emit"),
    ("tracing.emit", Tracer, "emit_instant"),
)

#: every traced layer, in report order (``tracing.emit`` wraps two methods)
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

#: span records kept per thread (about 15 MB); later spans are aggregated
#: but not recorded
MAX_SPANS = 100_000


def _note_launch(log, args, kwargs, result):
    """Rows and symbols of one fused demap launch."""
    requests = args[0]
    log.notes["launch_rows"] += len(requests)
    log.notes["launch_symbols"] += len(requests) * requests[0].received.size


def _note_decode(log, args, kwargs, result):
    """Frames decoded by one ``decode_rows`` call and how many passed CRC."""
    log.notes["decoded_rows"] += len(result)
    log.notes["crc_pass"] += sum(1 for _, ok, _ in result if ok)


NOTES = {
    "dispatch.batched_maxlog_llrs": _note_launch,
    "coding.decode_rows": _note_decode,
}


class _ThreadLog:
    """One thread's open-span stack, aggregates and span records."""

    def __init__(self, index: int):
        self.index = index
        #: open spans: [child seconds, span id]
        self.stack: list[list] = []
        #: layer -> [calls, self seconds]
        self.agg: dict[str, list] = {name: [0, 0.0] for name in LAYERS}
        self.notes: dict[str, int] = dict.fromkeys(
            ("launch_rows", "launch_symbols", "decoded_rows", "crc_pass"), 0
        )
        #: (name, start, end, parent) — parent is (thread, span id) or None
        self.spans: list[tuple] = []
        #: seconds inside engine.step spans
        self.step_seconds = 0.0


class SpanTracer:
    """Installs the wrappers, aggregates per-layer costs, writes the spans."""

    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._saved: list[tuple] = []
        #: the open fleet.step span: [thread, span id, shard step durations]
        self._fleet_span: list | None = None
        #: seconds inside fleet.step spans
        self.fleet_wall = 0.0
        self.t0 = 0.0

    # -- install / remove ----------------------------------------------------
    def install(self) -> None:
        self.t0 = perf_counter()
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- recording -------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
            return log

    def _wrap(self, name: str, fn):
        tracer = self
        note = NOTES.get(name)
        is_fleet = name == "fleet.step"
        is_step = name == "engine.step"

        def traced(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            if stack:
                parent = (log.index, stack[-1][1])
            elif tracer._fleet_span is not None:
                parent = (tracer._fleet_span[0], tracer._fleet_span[1])
            else:
                parent = None
            spans = log.spans
            if len(spans) < MAX_SPANS:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
            frame = [0.0, span_id]
            stack.append(frame)
            if is_fleet:
                tracer._fleet_span = [log.index, span_id, []]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_time = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if is_fleet:
                    shard_steps = tracer._fleet_span[2]
                    self_time = dur - max(shard_steps, default=0.0)
                    tracer.fleet_wall += dur
                    tracer._fleet_span = None
                elif is_step and parent is not None and not stack:
                    # a shard step dispatched by the fleet pool
                    tracer._fleet_span[2].append(dur)
                agg = log.agg[name]
                agg[0] += 1
                agg[1] += self_time
                if is_step:
                    log.step_seconds += dur
                if span_id >= 0:
                    spans[span_id] = (name, start - tracer.t0, end - tracer.t0, parent)
            if note is not None:
                note(log, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results ---------------------------------------------------------------
    def totals(self) -> tuple[dict[str, list], dict[str, int]]:
        """Per-layer ``[calls, self seconds]`` and notes summed over threads."""
        agg = {name: [0, 0.0] for name in LAYERS}
        notes: dict[str, int] = {}
        for log in self._logs:
            for name, (calls, seconds) in log.agg.items():
                agg[name][0] += calls
                agg[name][1] += seconds
            for key, value in log.notes.items():
                notes[key] = notes.get(key, 0) + value
        return agg, notes

    def step_seconds(self) -> float:
        """Seconds inside engine.step spans, summed over threads."""
        return sum(log.step_seconds for log in self._logs)

    def write(self, path, meta: dict) -> int:
        """Write every recorded span as JSON; returns the span count.

        Spans get global ids (thread order, then start order); ``parent`` is
        the parent's global id or null.  ``spans_complete`` is false when
        some thread hit ``MAX_SPANS``: the file then holds a prefix of the
        traced phase, while the per-layer aggregates cover all of it.
        """
        offsets, total = [], 0
        for log in self._logs:
            offsets.append(total)
            total += len(log.spans)
        rows = []
        for log in self._logs:
            for name, start, end, parent in log.spans:
                gid = None
                if parent is not None and parent[1] >= 0:
                    gid = offsets[parent[0]] + parent[1]
                rows.append([name, round(start * 1e6, 3), round(end * 1e6, 3), gid, log.index])
        doc = {
            **meta,
            "columns": ["name", "start_us", "end_us", "parent", "thread"],
            "spans": rows,
            "spans_cap_per_thread": MAX_SPANS,
            "spans_complete": all(
                sum(log.agg[name][0] for name in LAYERS) == len(log.spans)
                for log in self._logs
            ),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
        return total
