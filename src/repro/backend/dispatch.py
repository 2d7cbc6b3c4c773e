"""Group-by-labelling batched dispatch over the multi-sigma kernels.

The serving engine coalesces pending frames *across sessions* into one
micro-batch.  Sessions do not share a σ² estimate — each owns its own — and
a session that tracks or retrains owns its centroid set too, but the
multi-sigma kernels (``maxlog_llrs_multi``) take both per row: an ``(S, n)``
received tensor, a per-row σ² vector and one shared ``(M,)`` or per-row
``(S, M)`` point table.  What the rows of one launch must share is the bit
labelling (the kernel's per-bit index table) and the row length.  This
module provides the grouping layer in between: take a list of per-frame
demap requests (each with its own points / bit sets / σ² / received row),
partition it into groups whose members share a bit labelling, point count
and row length, and dispatch **one** fused kernel launch per group instead
of one per request.  Within a group, rows sharing a point set are adjacent,
so the kernel subtracts each set once over its whole run of columns.

The stacked ``(S, n)`` input, the per-group σ² vector, a multi-set group's
``(S, M)`` point table and the ``(S, n, k)`` kernel output all live in the
backend workspace, so a steady-state serving loop allocates nothing.  On
every tier each request's LLR block is byte-equal to the one-row
``maxlog_llrs`` call on that request alone: the multi kernel's rows never
depend on the batch they share.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.backend.bitsets import PaddedBitSets
from repro.backend.core import get_backend

__all__ = [
    "DemapRequest",
    "group_requests",
    "point_runs",
    "batched_maxlog_llrs",
    "grouped_viterbi_decode",
]


@dataclass(frozen=True)
class DemapRequest:
    """One frame's worth of soft-demapping work.

    Attributes
    ----------
    received:
        Complex received row ``(n,)``.
    points:
        Constellation / centroid points ``(M,)``.
    bitsets:
        Padded per-bit index table for ``points``' labelling.
    sigma2:
        This request's per-real-dimension noise variance.
    """

    received: np.ndarray
    points: np.ndarray
    bitsets: PaddedBitSets
    sigma2: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


#: id(array) -> content bytes, evicted by weakref.finalize when the array is
#: collected (so a reused id can never serve a stale key).  Point sets and
#: bit-set tables are immutable throughout the codebase (frozen
#: Constellation / PaddedBitSets), which is what makes caching by identity
#: sound; a fleet of sessions sharing one centroid set then pays the
#: serialization once, not once per frame per round.
_content_keys: dict[int, bytes] = {}


def _cached_bytes(arr: np.ndarray) -> bytes:
    if not isinstance(arr, np.ndarray):
        return np.ascontiguousarray(np.asarray(arr)).tobytes()
    key = _content_keys.get(id(arr))
    if key is None:
        key = np.ascontiguousarray(arr).tobytes()
        _content_keys[id(arr)] = key
        weakref.finalize(arr, _content_keys.pop, id(arr), None)
    return key


def _group_key(req: DemapRequest) -> tuple:
    """Batching key: requests batch iff labelling, point count and length
    match.

    The point set is not part of the key: the kernels take one set per row,
    so sessions on different centroid sets (tracked, retrained or simply
    extracted apart) share a launch.  The labelling is compared by content
    (the bit-set table bytes, cached per array object — see
    :data:`_content_keys`), so the common case costs a dict hit per request.
    """
    return (
        req.bitsets.order,
        _cached_bytes(req.bitsets.table),
        int(np.asarray(req.received).size),
    )


def group_requests(requests: Sequence[DemapRequest]) -> list[list[int]]:
    """Partition request indices into batchable groups.

    Returns a list of index lists in order of each group's first request.
    Within a group, requests are ordered by the first appearance of their
    point set (compared by content), then by submission order: the rows of
    each point set form one consecutive run, and a session's frames are
    never reordered relative to each other.
    """
    groups: dict[tuple, dict[bytes, list[int]]] = {}
    for i, req in enumerate(requests):
        sets = groups.setdefault(_group_key(req), {})
        sets.setdefault(_cached_bytes(req.points), []).append(i)
    return [[i for run in sets.values() for i in run] for sets in groups.values()]


def point_runs(requests: Sequence[DemapRequest]) -> list[tuple[int, int]]:
    """``(start, stop)`` row ranges of consecutive requests sharing a point
    set (by content; a shared array object is recognised without reading
    it)."""
    runs = []
    start, prev = 0, requests[0].points
    for i in range(1, len(requests)):
        pts = requests[i].points
        if pts is not prev and _cached_bytes(pts) != _cached_bytes(prev):
            runs.append((start, i))
            start = i
        prev = pts
    runs.append((start, len(requests)))
    return runs


def batched_maxlog_llrs(
    requests: Sequence[DemapRequest],
    *,
    backend=None,
    key: str = "disp",
    with_received: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """One fused launch for requests already known to share a group.

    All requests must share a bit labelling and row length (the first
    request is taken as the group's reference — callers obtain such groups
    from :func:`group_requests`).  A group on one point set passes that
    ``(M,)`` set to the kernel as is; a group on several gets a
    ``key``-namespaced ``(S, M)`` table with one set per row.  Returns the
    scratch-owned ``(S, n, k)`` LLR tensor: row ``s`` is request ``s``'s LLR
    block, valid until the next kernel call on this backend from the same
    thread.  The stacked input, σ² vector and output all live in the
    workspace under ``key``-namespaced entries, so steady-state callers
    allocate nothing.

    With ``with_received`` the scratch-owned stacked ``(S, n)`` input is
    returned alongside the LLRs — callers that post-process the same batch
    (the serving engine's pilot noise estimation) reuse the stacking copy
    instead of redoing it, under the same scratch-lifetime rules.
    """
    if not requests:
        raise ValueError("batched_maxlog_llrs needs at least one request")
    be = backend if backend is not None else get_backend()
    first = requests[0]
    n = np.asarray(first.received).size
    k = first.bitsets.k
    s = len(requests)
    stacked = be.scratch(f"{key}_rx", (s, n), dtype=np.complex128)
    sig = be.scratch(f"{key}_sig", (s,), dtype=np.float64)
    for row, req in enumerate(requests):
        rec = np.asarray(req.received).ravel()
        if rec.size != n:
            raise ValueError(f"request {row} has length {rec.size}, group expects {n}")
        np.copyto(stacked[row], rec, casting="same_kind")
        sig[row] = req.sigma2
    runs = point_runs(requests)
    points = first.points
    if len(runs) > 1:
        points = be.scratch(f"{key}_pts", (s, first.bitsets.order), dtype=np.complex128)
        for start, stop in runs:
            points[start:stop] = requests[start].points
    llrs = be.maxlog_llrs_multi(
        stacked,
        points,
        first.bitsets,
        sig,
        out=be.scratch(f"{key}_llr", (s, n, k), dtype=np.float64),
    )
    return (llrs, stacked) if with_received else llrs


def grouped_viterbi_decode(
    code,
    llr_blocks: np.ndarray,
    *,
    backend=None,
    key: str = "vit",
) -> tuple[np.ndarray, np.ndarray]:
    """Soft-decision Viterbi over a stack of equal-geometry LLR blocks.

    The coded sibling of :func:`batched_maxlog_llrs`: callers (the serving
    engine) group coalesced frames by their
    :class:`~repro.serving.coding.CodedFrameConfig`, so every block of a
    launch shares ``code``'s trellis.  One branch-metric einsum gives
    the ``2^n_out`` label metrics per step, one ``take`` puts them in
    arrival order as the step-major ``(T, R, S, 2)`` tensor (both
    ``key``-namespaced float64 workspace scratch), and one
    ``viterbi_decode`` kernel call decodes every row.

    Parameters
    ----------
    code:
        A :class:`~repro.ecc.convolutional.ConvolutionalCode` (anything
        with ``trellis_tables()``, ``n_states`` and ``n_out``).
    llr_blocks:
        ``(R, n_steps, n_out)`` deinterleaved LLR stack — row ``r`` is one
        frame's coded payload in trellis-step order.
    backend:
        Backend instance to dispatch ``viterbi_decode`` on (default: the
        process-wide one).

    Returns
    -------
    ``(bits, path_metrics)``: the full int8 decoded paths ``(R, n_steps)``
    (termination tail included — callers slice ``[:, :n_steps - (K - 1)]``)
    and the float64 terminated path metrics ``(R,)``.  Each row's result
    is a pure function of that row's LLRs alone — a branch metric sums
    only its own row's LLRs and the ACS never mixes rows — so it is
    bit-identical to ``code.decode_soft`` on the single block, the decode
    analogue of the demap grouping contract.
    """
    be = backend if backend is not None else get_backend()
    blocks = np.asarray(llr_blocks, dtype=np.float64)
    if blocks.ndim != 3:
        raise ValueError(
            f"llr_blocks must be (R, n_steps, n_out), got shape {blocks.shape}"
        )
    r, n_steps, n_out = blocks.shape
    if n_out != code.n_out:
        raise ValueError(f"blocks carry {n_out} LLRs per step, code emits {code.n_out}")
    src, labels, label_bits = code.trellis_tables()
    # a step-major einsum output is strided and twice as slow: transpose
    # the small label table instead
    lm = be.scratch(f"{key}_lm", (r, n_steps, len(label_bits)), dtype=np.float64)
    np.einsum("rtj,cj->rtc", blocks, label_bits, out=lm)
    lm_t = be.scratch(f"{key}_lmt", (n_steps, r, len(label_bits)), dtype=np.float64)
    np.copyto(lm_t, lm.transpose(1, 0, 2))
    arrivals = be.scratch(f"{key}_gat", (n_steps, r, code.n_states, 2), dtype=np.float64)
    lm_t.take(labels, axis=2, out=arrivals, mode="clip")
    return be.viterbi_decode(arrivals, src, key=key)
