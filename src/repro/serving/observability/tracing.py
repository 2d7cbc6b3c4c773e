"""Frame-lifecycle tracing: a bounded ring buffer of typed serving events.

The serving runtime's counters (:mod:`repro.serving.telemetry`) answer
"how many?"; the :class:`Tracer` answers "when, and in what order?": every
frame's lifecycle (``frame.submit`` → ``frame.batched`` →
``frame.decoded`` (+ ``frame.crc_fail`` on a failed CRC, coded sessions
only) → ``frame.served`` / ``frame.dropped`` / ``frame.quarantined``),
every engine round phase
(``phase.absorb-outcomes`` / ``phase.schedule`` / ``phase.coalesce`` /
``phase.demap-launch`` / ``phase.control-plane`` /
``phase.retrain-submit``), the retrain lifecycle (``retrain.install`` /
``retrain.retry`` / ``retrain.hung``), every failure record (``fault.*``)
and every health transition (``session.health``) land here as
:class:`TraceEvent` entries.

**Clock.**  Events are stamped on the engine's *simulated symbol clock*
(``EngineStats.now`` — total symbols served), the only clock the
deterministic runtime has: with a fixed traffic seed the event stream is a
pure function of the run, reproducible bit-for-bit.  ``wall_clock=True``
additionally stamps ``time.perf_counter()`` on each event — useful for
real profiling, excluded from :meth:`Tracer.snapshot` by default precisely
because wall time is *not* deterministic.

**Passivity contract.**  The tracer only ever observes: the engine emits
events strictly *after* the state change they describe, from the engine
thread only, and nothing in the serving path reads the tracer back.
Attaching one changes no per-session output bit (pinned against the
sequential oracle by ``tests/serving/test_differential.py``).

**Bounding.**  The buffer is a ring of ``capacity`` events: a long soak
keeps the *latest* events and counts the overwritten ones in
:attr:`Tracer.dropped` — observability must never grow without bound
inside a serving loop.

Exports: :meth:`Tracer.to_chrome` emits Chrome ``trace_event`` JSON (load
it in ``chrome://tracing`` / Perfetto: one track per session plus an
engine track; 1 symbol tick is rendered as 1 µs) and :meth:`Tracer.to_log`
a plain, grep-friendly event log.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from time import perf_counter

__all__ = ["TraceEvent", "Tracer"]


@dataclass(slots=True)
class TraceEvent:
    """One typed event on the serving timeline.

    ``ts`` is the simulated symbol-clock tick; ``ph`` follows Chrome's
    ``trace_event`` phases (``"i"`` instant, ``"X"`` complete span with
    ``dur`` ticks).  ``round`` / ``session_id`` / ``seq`` locate the event
    on the engine round counter, a session's track and a frame's sequence
    number; ``args`` carries event-specific payload (deterministic values
    only — BERs, tiers, counts).  ``wall`` is the optional
    ``perf_counter()`` stamp (None unless the tracer runs with
    ``wall_clock=True``).
    """

    name: str
    ts: int
    ph: str = "i"
    dur: int = 0
    round: int | None = None
    session_id: str | None = None
    seq: int | None = None
    args: dict | None = None
    wall: float | None = None

    def as_dict(self, *, deterministic: bool = True) -> dict:
        """Plain-dict form (None fields omitted); ``deterministic=True``
        drops the wall-clock stamp so two traced runs of one seed compare
        equal."""
        d: dict = {"name": self.name, "ts": self.ts, "ph": self.ph}
        if self.ph == "X":
            d["dur"] = self.dur
        if self.round is not None:
            d["round"] = self.round
        if self.session_id is not None:
            d["session_id"] = self.session_id
        if self.seq is not None:
            d["seq"] = self.seq
        if self.args:
            d["args"] = dict(self.args)
        if not deterministic and self.wall is not None:
            d["wall"] = self.wall
        return d


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` entries.

    Parameters
    ----------
    capacity:
        Ring size: once full, each new event evicts the oldest (counted in
        :attr:`dropped`).  Eviction is passive — a bounded tracer on a long
        soak changes no output, it just forgets the distant past.
    wall_clock:
        Stamp ``time.perf_counter()`` on every event.  Off by default —
        wall stamps are excluded from deterministic snapshots either way,
        but off means not even the call is paid.

    Single-writer: the engine emits from its own thread only (retrain
    worker threads never touch the tracer — their outcomes are absorbed,
    and traced, at the top of the next round), so no lock is needed.

    ``emit`` sits on the engine's per-frame hot path, so the ring holds
    packed field tuples and :class:`TraceEvent` objects are materialized
    lazily by the accessors (:attr:`events`, :meth:`session_events`) and
    the exports — recording stays cheap, reading pays the object cost.
    """

    def __init__(self, capacity: int = 65536, *, wall_clock: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.wall_clock = bool(wall_clock)
        # packed (name, ts, ph, dur, round, session_id, seq, args, wall)
        # tuples in TraceEvent field order — see class docstring
        self._events: deque[tuple] = deque(maxlen=self.capacity)
        #: events evicted by the ring since the last :meth:`clear`
        self.dropped = 0

    def emit(
        self,
        name: str,
        *,
        ts: int,
        ph: str = "i",
        dur: int = 0,
        round: int | None = None,
        session_id: str | None = None,
        seq: int | None = None,
        **args,
    ) -> None:
        """Record one event (keyword extras land in ``event.args``).

        ``ts`` and ``dur`` are symbol-clock ticks and must already be ints
        — this path runs per served frame, so it stores and never coerces.
        """
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(
            (
                name,
                ts,
                ph,
                dur,
                round,
                session_id,
                seq,
                args or None,
                perf_counter() if self.wall_clock else None,
            )
        )

    def emit_instant(
        self,
        name: str,
        ts: int,
        round: int | None = None,
        session_id: str | None = None,
        seq: int | None = None,
        args: dict | None = None,
    ) -> None:
        """Allocation-light variant of :meth:`emit` for instant events.

        Positional parameters and an explicit ``args`` dict (instead of
        ``**kwargs`` packing) roughly halve the per-call cost — this is
        what the engine's per-frame loop calls, a few hundred times per
        round.  Semantically identical to ``emit(name, ts=ts, ...)`` with
        ``ph="i"``.
        """
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(
            (
                name,
                ts,
                "i",
                0,
                round,
                session_id,
                seq,
                args,
                perf_counter() if self.wall_clock else None,
            )
        )

    def __len__(self) -> int:
        return len(self._events)

    def _iter(self):
        """Materialize the buffered tuples as :class:`TraceEvent`, oldest
        first (field order in the ring matches the dataclass)."""
        return (TraceEvent(*packed) for packed in self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The buffered events, oldest first."""
        return tuple(self._iter())

    def session_events(self, session_id: str) -> list[TraceEvent]:
        """Events on one session's track, in emission order."""
        return [TraceEvent(*p) for p in self._events if p[5] == session_id]

    def clear(self) -> None:
        """Drop every buffered event and reset the dropped counter."""
        self._events.clear()
        self.dropped = 0

    # -- exports -------------------------------------------------------------
    def snapshot(self, *, deterministic: bool = True) -> dict:
        """JSON-ready dict of the buffer (the plain event log).

        ``deterministic=True`` (default) excludes wall-clock stamps, so
        snapshots of two same-seed runs — traced at any worker count with
        retrain-free traffic — compare equal; pass False to keep them for
        wall-time analysis.
        """
        return {
            "schema": 1,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": [e.as_dict(deterministic=deterministic) for e in self._iter()],
        }

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` JSON object (``{"traceEvents": [...]}``).

        One pid, one thread per track: tid 0 is the engine (round phases,
        fleet events), tids 1+ are sessions in first-appearance order, each
        named via ``thread_name`` metadata.  Symbol ticks map 1:1 onto the
        format's microseconds, so span widths read as service times.
        """
        tids: dict[str, int] = {}
        out: list[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "engine"},
            }
        ]
        body: list[dict] = []
        for e in self._iter():
            if e.session_id is None:
                tid = 0
            elif e.session_id in tids:
                tid = tids[e.session_id]
            else:
                tid = tids[e.session_id] = len(tids) + 1
                out.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": e.session_id},
                    }
                )
            args = dict(e.args) if e.args else {}
            if e.round is not None:
                args["round"] = e.round
            if e.seq is not None:
                args["seq"] = e.seq
            entry = {"name": e.name, "ph": e.ph, "ts": e.ts, "pid": 1, "tid": tid}
            if e.ph == "X":
                entry["dur"] = e.dur
            else:
                entry["s"] = "t"  # instant scoped to its thread/track
            if args:
                entry["args"] = args
            body.append(entry)
        return {"traceEvents": out + body, "displayTimeUnit": "ms"}

    def chrome_json(self, *, indent: int | None = None) -> str:
        """:meth:`to_chrome` serialized (the file you load in a viewer)."""
        return json.dumps(self.to_chrome(), indent=indent)

    def to_log(self) -> list[str]:
        """Plain event-log lines, oldest first (grep-friendly)."""
        lines = []
        for e in self._iter():
            parts = [f"[{e.ts:>10}]"]
            if e.round is not None:
                parts.append(f"r{e.round:<4}")
            parts.append(f"{e.name:<24}")
            if e.session_id is not None:
                parts.append(e.session_id)
            if e.seq is not None:
                parts.append(f"seq={e.seq}")
            if e.ph == "X":
                parts.append(f"dur={e.dur}")
            if e.args:
                parts.append(" ".join(f"{k}={v}" for k, v in e.args.items()))
            lines.append(" ".join(parts))
        return lines

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Tracer(events={len(self._events)}/{self.capacity}, "
            f"dropped={self.dropped})"
        )
