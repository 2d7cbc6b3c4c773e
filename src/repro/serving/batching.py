"""Cross-session micro-batching: coalesce pending frames into kernel launches.

A serving round's scheduler (:mod:`repro.serving.scheduler`) decides *which*
frames leave which queues; this module decides *how they share kernels*:
:func:`coalesce` partitions the pulled ``(session, frame, enqueue-tick)``
triples into :class:`MicroBatch` groups via the backend's
group-by-labelling dispatch (:mod:`repro.backend.dispatch`): frames whose
sessions share a bit labelling, point count and frame length ride one
fused ``maxlog_llrs_multi`` launch with a per-session σ² vector and, when
the sessions' centroid sets differ, one point set per row.  Within a
batch, the frames of each point set are consecutive, in order of the set's
first frame, then in pull order.

Batch composition therefore varies with queue fill, ``max_batch``,
scheduler weights and which sessions happen to be retraining or on their
own centroids — but on the default backend tier the multi-sigma kernel's
rows are bit-identical to sequential per-frame calls, so *what* each
session receives never depends on *who it was batched with*.  That is the
invariance the serving determinism tests pin down.

:func:`collect_microbatches` is the one-frame-per-ready-session pull of the
pre-scheduler engine, kept as a convenience for tests and direct users; the
engine itself pops frames according to scheduler quotas and calls
:func:`coalesce` per serving wave (a wave holds at most one frame per
session, preserving each session's frame order *and* its per-frame state
updates — σ², monitor, tier ladder — between consecutive frames).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.backend.dispatch import DemapRequest, group_requests
from repro.serving.session import DemapperSession, ServingFrame

__all__ = ["MicroBatch", "coalesce", "collect_microbatches"]


def _session_request(session: DemapperSession, frame: ServingFrame) -> DemapRequest:
    """The one place a (session, frame) pair becomes a dispatch request —
    grouping keys and the dispatched work can never diverge."""
    return DemapRequest(
        received=frame.received,
        points=session.hybrid.constellation.points,
        bitsets=session.hybrid.core.bitsets,
        sigma2=session.sigma2,
    )


@dataclass(frozen=True)
class MicroBatch:
    """Frames (one per session) sharing a bit labelling and length.

    ``requests`` are the dispatch requests the batch was *grouped by*,
    built once at collect time (row order = batch order; rows on one point
    set are consecutive, see :func:`repro.backend.dispatch.point_runs`),
    so each row is demapped on its own session's points; ``enqueued_at``
    holds each frame's submission tick on the engine's simulated clock (for
    the queue-wait histogram).
    """

    sessions: tuple[DemapperSession, ...]
    frames: tuple[ServingFrame, ...]
    requests: tuple[DemapRequest, ...]
    enqueued_at: tuple[int, ...]

    @property
    def occupancy(self) -> int:
        """Frames coalesced into this batch's kernel launch."""
        return len(self.frames)

    @property
    def n_symbols(self) -> int:
        return sum(f.n_symbols for f in self.frames)


def coalesce(
    pulls: Sequence[tuple[DemapperSession, ServingFrame, int]],
    *,
    max_batch: int = 64,
) -> list[MicroBatch]:
    """Group already-pulled ``(session, frame, enqueue-tick)`` triples.

    Requests are grouped by labelling and length in order of each group's
    first pull; within a group, each point set's frames are consecutive (in
    order of the set's first pull, then pull order).  Groups larger than
    ``max_batch`` are split, preserving that order, so
    one launch never exceeds the configured coalescing width.  The caller
    guarantees at most one frame per session per call (the engine's wave
    loop; violating that would let one launch serve two frames of a session
    with identical — stale — σ² and centroid state).
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    if not pulls:
        return []
    requests = [_session_request(s, f) for s, f, _ in pulls]
    batches: list[MicroBatch] = []
    for members in group_requests(requests):
        for start in range(0, len(members), max_batch):
            part = members[start : start + max_batch]
            batches.append(
                MicroBatch(
                    sessions=tuple(pulls[i][0] for i in part),
                    frames=tuple(pulls[i][1] for i in part),
                    requests=tuple(requests[i] for i in part),
                    enqueued_at=tuple(pulls[i][2] for i in part),
                )
            )
    return batches


def collect_microbatches(
    sessions: Sequence[DemapperSession],
    *,
    max_batch: int = 64,
) -> list[MicroBatch]:
    """Pull one head frame per ready session and group into micro-batches.

    Sessions are visited in the given (registration) order; a session that
    is RETRAINING or has an empty queue contributes nothing this round.
    This is the unweighted pull of the pre-scheduler engine — the engine
    now allocates via deficit round robin and calls :func:`coalesce`
    directly, but the semantics for a uniform weight-1 fleet are identical.
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    pulls = [(s, *s.pop()) for s in sessions if s.ready]
    return coalesce(pulls, max_batch=max_batch)
