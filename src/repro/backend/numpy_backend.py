"""NumPy compute backends: float64 reference and float32 fast path.

All hot kernels work in a **transposed** ``(M, n)`` layout internally: one
contiguous row of length ``n`` per constellation point.  Per-bit reductions
then become row-wise ``minimum``/``exp`` passes over contiguous memory —
measured ~5× faster than the naive ``(n, M)`` column-gather formulation for
16-QAM at 256k symbols — and every intermediate lives in the backend
workspace, so steady-state batches allocate only the caller-visible output
(nothing at all when ``out=`` is passed).

Each soft metric has one kernel per tier: ``maxlog_llrs_multi`` and
``logmap_llrs_multi`` demap an ``(S, n)`` tensor with per-row σ² (and
optionally per-row point sets) in cache-sized column tiles, and
``maxlog_llrs``/``logmap_llrs`` are their S=1 calls.  A row's LLRs never
depend on S, on its batchmates' point sets or on where the tile boundaries
fall.

The float64 tier reproduces the pre-backend reference implementation
bit-for-bit (same IEEE operations in the same order per element); the
float32 tier halves memory traffic and roughly doubles throughput at a
documented LLR tolerance (see ``FLOAT32_LLR_RTOL``).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.backend.bitsets import PaddedBitSets
from repro.backend.workspace import Workspace

__all__ = ["NumpyBackend", "FLOAT32_LLR_RTOL", "MULTI_SIGMA_TILE"]

#: Column-tile width of the demapping kernels.  A tile's working set
#: (distance block + temporaries + per-set minima: ~1.5 MB at 16-QAM/float64)
#: stays cache-resident, where full-width intermediates of a large batch
#: would stream through last-level cache.
MULTI_SIGMA_TILE = 8192

#: Documented agreement between the float32 and float64 tiers: max-log and
#: log-MAP LLRs agree within this *relative* tolerance of the batch's peak
#: LLR magnitude (float32 keeps ~7 significant digits; distances are O(1)
#: and the 1/(2σ²) scaling is exact in both tiers).
FLOAT32_LLR_RTOL = 1e-4


def _check_viterbi_args(
    arrivals: np.ndarray, src: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``viterbi_decode``'s ``(T, R, S, 2)`` arrival branch metrics
    and the ``(S, 2)`` source table; returns them as contiguous
    float64/int64."""
    gat = np.ascontiguousarray(arrivals, dtype=np.float64)
    if gat.ndim != 4 or gat.shape[3] != 2:
        raise ValueError(f"arrivals must be (n_steps, R, n_states, 2), got {gat.shape}")
    n_states = gat.shape[2]
    src = np.ascontiguousarray(src, dtype=np.int64)
    if src.shape != (n_states, 2):
        raise ValueError(f"src must be a ({n_states}, 2) arrival table, got {src.shape}")
    return gat, src


def _check_multi_args(
    received: np.ndarray, sigma2s: np.ndarray
) -> tuple[np.ndarray, int, int, np.ndarray]:
    """Validate the ``(S, n)`` received tensor and the per-row sigma vector."""
    y = np.asarray(received)
    if y.ndim != 2:
        raise ValueError(f"multi-sigma kernels expect (S, n) received, got shape {y.shape}")
    sig = np.asarray(sigma2s, dtype=np.float64).ravel()
    if sig.size != y.shape[0]:
        raise ValueError(
            f"sigma2s must have one entry per received row: got {sig.size} for S={y.shape[0]}"
        )
    # min() is about 3x cheaper than any(sig <= 0) on one row and, like
    # it, lets NaN through
    if sig.size and sig.min() <= 0:
        raise ValueError("every sigma2 must be positive")
    return y, y.shape[0], y.shape[1], sig


def _check_llr_multi_out(out: np.ndarray | None, s: int, n: int, k: int) -> np.ndarray:
    """Validate a caller-supplied ``(S, n, k)`` LLR buffer (or allocate one).

    The documented contract is an exact float64 array — silently demoting
    precision or broadcasting into a larger buffer would void the
    bit-identity guarantees, so both are rejected.  The kernels fill the
    buffer through a flat ``(S·n, k)`` view, so a non-contiguous buffer
    (whose reshape would silently copy) is rejected too.
    """
    if out is None:
        return np.empty((s, n, k), dtype=np.float64)
    if out.shape != (s, n, k):
        raise ValueError(f"out must have shape ({s}, {n}, {k}), got {out.shape}")
    if out.dtype != np.float64:
        raise ValueError(f"out must be float64, got {out.dtype}")
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous (reshaping would copy)")
    return out


def _column_tiles(total: int, tile: int):
    """Yield ``(start, stop, key_tag)`` column tiles over a flattened sweep.

    Full tiles share one workspace key; the (single) ragged tail gets its own
    ``#tail`` tag so alternating full/tail widths within a call never thrash
    the shape-keyed workspace — steady-state sweep calls stay allocation-free.
    """
    full = total - (total % tile)
    for start in range(0, full, tile):
        yield start, start + tile, ""
    if total > full:
        yield full, total, "#tail"


def _runs_in(bounds: list[int], start: int, stop: int) -> tuple:
    """``(run, a, b)`` per point-set run overlapping columns ``start:stop``:
    the run's index and its clipped column range."""
    if len(bounds) == 2:
        return ((0, start, stop),)
    r = bisect_right(bounds, start) - 1
    runs = []
    while bounds[r] < stop:
        runs.append((r, max(bounds[r], start), min(bounds[r + 1], stop)))
        r += 1
    return tuple(runs)


@contextmanager
def _unbuffered():
    """numpy's smallest ufunc buffer, for a tile's per-run subtracts.

    A run's ``(M, w)`` block is a column slice numpy cannot fold into one
    loop, and for ``w <= bufsize/3`` numpy 2.4's iterator buffers such
    slices at about 4x the per-element cost.  No operand of the distance
    stage needs a cast, so the smallest buffer only skips that detour; the
    arithmetic is unchanged.  Scoped by ``errstate``, so the caller's
    buffer size is restored on exit.
    """
    with np.errstate():
        np.setbufsize(16)
        yield


def _subtract_runs(
    runs: tuple, start: int, c: np.ndarray, y: np.ndarray, out: np.ndarray
) -> None:
    """``out[p, j] = c[run, p] - y[j]`` over each run's columns of a tile
    starting at column ``start``, one shared-point broadcast per run."""
    for r, a, b in runs:
        np.subtract(c[r, :, None], y[None, a:b], out=out[:, a - start : b - start])


def _tile_of(scale, start: int, stop: int):
    """The columns ``start:stop`` of a :meth:`NumpyBackend._row_scale`."""
    return scale if scale.ndim == 0 else scale[start:stop]


class NumpyBackend:
    """Vectorised NumPy kernels at a configurable working precision.

    Parameters
    ----------
    dtype:
        Working dtype of the distance/reduction intermediates
        (``np.float64`` = reference tier, ``np.float32`` = fast tier).
        Caller-facing outputs are always float64.
    name:
        Registry name (defaults to ``"numpy"``/``"numpy32"`` by dtype).
    """

    def __init__(self, dtype=np.float64, *, name: str | None = None):
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported backend dtype {dtype}")
        self.dtype = dtype
        self.name = name if name is not None else ("numpy" if dtype == np.float64 else "numpy32")
        self.workspace = Workspace()

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype.name})"

    # -- workspace ----------------------------------------------------------
    def scratch(self, key: str, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        """Reusable uninitialised buffer (see :class:`Workspace`)."""
        return self.workspace.scratch(key, shape, self.dtype if dtype is None else dtype)

    # -- shared distance stage ---------------------------------------------
    def _split_received(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Received complex ``(n,)`` -> contiguous real/imag scratch vectors."""
        y = np.asarray(received)
        if not np.iscomplexobj(y):
            y = y.astype(np.complex128)
        y = y.ravel()
        n = y.size
        yr = self.scratch("y_re", (n,))
        yi = self.scratch("y_im", (n,))
        np.copyto(yr, y.real, casting="same_kind")
        np.copyto(yi, y.imag, casting="same_kind")
        return yr, yi

    def _point_runs(
        self, points: np.ndarray, s_count: int, n: int
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Point sets -> per-run real/imag tables and their column bounds.

        ``points`` is one ``(M,)`` set shared by all ``s_count`` rows or an
        ``(S, M)`` table holding each row's own set.  Consecutive rows with
        byte-equal sets form one run.  Returns the ``(R, M)`` working-dtype
        real and imaginary tables (one row per run) and the ``R + 1`` run
        boundaries over the flattened ``S·n`` columns.
        """
        c = np.asarray(points)
        if c.ndim <= 1:
            c, heads = c.reshape(1, -1), [0]
        else:
            if c.ndim != 2 or c.shape[0] != s_count:
                raise ValueError(
                    f"points must be (M,) or one set per row ({s_count}, M), got {c.shape}"
                )
            c = np.ascontiguousarray(c, dtype=np.complex128)
            bits = c.view(np.uint64)
            new_set = (bits[1:] != bits[:-1]).any(axis=1)
            heads = [0, *(np.flatnonzero(new_set) + 1).tolist()]
            c = c[heads]
        bounds = [h * n for h in heads]
        bounds.append(s_count * n)
        return c.real.astype(self.dtype), c.imag.astype(self.dtype), bounds

    def _distances_tile(
        self, yr: np.ndarray, yi: np.ndarray,
        c_re: np.ndarray, c_im: np.ndarray, bounds: list[int],
        start: int, stop: int, key: str,
    ) -> np.ndarray:
        """Squared-distance block ``(M, stop-start)`` for one column slice,
        in the ``key``-named scratch buffers.

        Each run of :meth:`_point_runs` inside the slice is subtracted with
        its own point set broadcast over its columns; one run is the whole
        slice.
        """
        m = c_re.shape[1]
        d2 = self.scratch(key, (m, stop - start))
        t = self.scratch(key + "~tmp", (m, stop - start))
        runs = _runs_in(bounds, start, stop)
        with _unbuffered() if len(runs) > 1 else nullcontext():
            _subtract_runs(runs, start, c_re, yr, d2)
            np.multiply(d2, d2, out=d2)
            _subtract_runs(runs, start, c_im, yi, t)
            np.multiply(t, t, out=t)
        np.add(d2, t, out=d2)
        return d2

    def point_distances_t(self, received: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Squared distances in transposed ``(M, n)`` layout (scratch-owned).

        The returned array is workspace scratch — valid until the next kernel
        call on this backend from the same thread.
        """
        yr, yi = self._split_received(received)
        c_re, c_im, bounds = self._point_runs(np.ravel(points), 1, yr.size)
        return self._distances_tile(yr, yi, c_re, c_im, bounds, 0, yr.size, "d2_t")

    def _set_minima(self, d2: np.ndarray, bitsets: PaddedBitSets, key: str) -> np.ndarray:
        """Row-wise minima per padded bit set: ``(2k, n)`` scratch array."""
        n = d2.shape[1]
        mins = self.scratch(key, (2 * bitsets.k, n))
        for acc, (first, *rest) in zip(mins, bitsets.rows):
            np.copyto(acc, d2[first])
            for t in rest:
                np.minimum(acc, d2[t], out=acc)
        return mins

    # -- demapping kernels --------------------------------------------------
    def _single_row(self, kernel, received, points, bitsets, sigma2, out):
        """Run a ``_multi`` kernel as its S=1 call on one received row.

        ``out`` (float64 ``(n, k)``) is viewed as ``(1, n, k)``, so the
        kernel validates and fills it in place.
        """
        y = np.asarray(received).reshape(1, -1)
        res = kernel(y, points, bitsets, (float(sigma2),), out=None if out is None else out[None])
        return res[0] if out is None else out

    def maxlog_llrs(
        self,
        received: np.ndarray,
        points: np.ndarray,
        bitsets: PaddedBitSets,
        sigma2: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Max-log bit LLRs ``(n, k)`` float64: the S=1 call of
        :meth:`maxlog_llrs_multi`."""
        return self._single_row(self.maxlog_llrs_multi, received, points, bitsets, sigma2, out)

    def logmap_llrs(
        self,
        received: np.ndarray,
        points: np.ndarray,
        bitsets: PaddedBitSets,
        sigma2: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact log-MAP bit LLRs ``(n, k)`` float64: the S=1 call of
        :meth:`logmap_llrs_multi`."""
        return self._single_row(self.logmap_llrs_multi, received, points, bitsets, sigma2, out)

    # -- multi-sigma sweep kernels -------------------------------------------
    def _row_scale(self, key: str, numer: float, sig: np.ndarray, n: int):
        """``numer/(2σ²)`` per row over the flattened ``S·n`` columns: a
        working-dtype scalar when S=1, else the ``key``-named ``(S·n,)``
        column.  Either way each LLR is multiplied by the same IEEE value."""
        if sig.size == 1:
            return self.dtype.type(numer / (2.0 * sig[0]))
        col = self.scratch(key, (sig.size * n,))
        col.reshape(sig.size, n)[:] = (numer / (2.0 * sig))[:, None]
        return col

    def maxlog_llrs_multi(
        self,
        received: np.ndarray,
        points: np.ndarray,
        bitsets: PaddedBitSets,
        sigma2s: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Max-log LLRs for a whole SNR sweep in one launch: ``(S, n, k)``.

        ``received`` is an ``(S, n)`` tensor (row ``s`` = the received batch
        at sweep point ``s``); ``sigma2s`` holds the per-row noise variances;
        ``points`` is one ``(M,)`` set for every row or an ``(S, M)`` table
        of per-row sets (all labelled by ``bitsets``).  The distance +
        per-bit reduction stage runs once over the flattened ``S·n`` samples
        (column-tiled so each block stays cache-resident) and the S
        ``1/(2σ²)`` scalings are applied from a per-column vector (a scalar
        when S=1: the same products).  Each LLR is a function of its own
        sample, point set and σ² only, so ``out[s]`` is byte-equal to the
        S=1 call on row ``s`` with row ``s``'s points.
        """
        y, s_count, n, sig = _check_multi_args(received, sigma2s)
        k = bitsets.k
        out = _check_llr_multi_out(out, s_count, n, k)
        total = s_count * n
        if total == 0:
            return out
        out_flat = out.reshape(total, k)
        yr, yi = self._split_received(y)
        c_re, c_im, bounds = self._point_runs(points, s_count, n)
        scale = self._row_scale("inv2s2_col", 1.0, sig, n)
        for start, stop, tag in _column_tiles(total, MULTI_SIGMA_TILE):
            d2 = self._distances_tile(
                yr, yi, c_re, c_im, bounds, start, stop, "sw_d2" + tag
            )
            mins = self._set_minima(d2, bitsets, key="sw_mins" + tag)
            diff = self.scratch("sw_llr" + tag, (k, stop - start))
            np.subtract(mins[:k], mins[k:], out=diff)
            np.multiply(diff, _tile_of(scale, start, stop), out=diff)
            np.copyto(out_flat[start:stop], diff.T, casting="same_kind")
        return out

    def logmap_llrs_multi(
        self,
        received: np.ndarray,
        points: np.ndarray,
        bitsets: PaddedBitSets,
        sigma2s: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact log-MAP LLRs for a whole SNR sweep: ``(S, n, k)`` float64.

        Same layout/contract as :meth:`maxlog_llrs_multi` (per-row point
        sets included); the shared distance
        stage and per-set minima are computed once per column tile, then the
        streaming log-sum-exp runs with the per-column ``-1/(2σ²)`` metric
        scale.
        """
        y, s_count, n, sig = _check_multi_args(received, sigma2s)
        k = bitsets.k
        out = _check_llr_multi_out(out, s_count, n, k)
        total = s_count * n
        if total == 0:
            return out
        out_flat = out.reshape(total, k)
        yr, yi = self._split_received(y)
        c_re, c_im, bounds = self._point_runs(points, s_count, n)
        neg = self._row_scale("neg_inv2s2_col", -1.0, sig, n)
        for start, stop, tag in _column_tiles(total, MULTI_SIGMA_TILE):
            w = stop - start
            d2 = self._distances_tile(
                yr, yi, c_re, c_im, bounds, start, stop, "sw_d2" + tag
            )
            mins = self._set_minima(d2, bitsets, key="sw_mins" + tag)
            nc = _tile_of(neg, start, stop)
            # Pre-scale the whole tile to the LSE metric once: each point row
            # is a member of k bit sets, so scaling per member would repeat
            # every product k times.
            np.multiply(d2, nc, out=d2)
            lse = self.scratch("sw_lse" + tag, (2 * k, w))
            acc = self.scratch("sw_lse_acc" + tag, (w,))
            tmp = self.scratch("sw_lse_tmp" + tag, (w,))
            for mx, row, lse_s in zip(mins, bitsets.rows, lse):
                np.multiply(mx, nc, out=mx)
                acc.fill(0.0)
                for t in row:
                    np.subtract(d2[t], mx, out=tmp)
                    np.exp(tmp, out=tmp)
                    np.add(acc, tmp, out=acc)
                np.log(acc, out=acc)
                np.add(mx, acc, out=lse_s)
            diff = self.scratch("sw_llr" + tag, (k, w))
            np.subtract(lse[k:], lse[:k], out=diff)
            np.copyto(out_flat[start:stop], diff.T, casting="same_kind")
        return out

    def hard_indices(self, received: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Nearest-point labels (ties -> lowest label, as before).

        ``received`` may be any shape — hard decisions are σ²-independent, so
        a whole ``(S, n)`` sweep tensor batches through one flattened,
        column-tiled launch (cache-resident distance blocks; per-column
        argmin is independent of tiling, so results are unchanged); the
        returned label array matches the input shape.
        """
        y = np.asarray(received)
        yr, yi = self._split_received(y)
        total = yr.size
        c_re, c_im, bounds = self._point_runs(np.ravel(points), 1, total)
        out = np.empty(total, dtype=np.intp)
        for start, stop, tag in _column_tiles(total, MULTI_SIGMA_TILE):
            d2 = self._distances_tile(
                yr, yi, c_re, c_im, bounds, start, stop, "sw_d2" + tag
            )
            np.argmin(d2, axis=0, out=out[start:stop])
        return out.reshape(y.shape) if y.ndim != 1 else out

    # -- decoding kernels ----------------------------------------------------
    def viterbi_decode(
        self,
        arrivals: np.ndarray,
        src: np.ndarray,
        *,
        key: str = "viterbi",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Terminated-trellis Viterbi ACS + traceback over ``R`` rows at once.

        ``arrivals[t, r, ns, i]`` is row ``r``'s (finite) branch metric at
        step ``t`` of arrival ``i`` into state ``ns``, which leaves source
        state ``src[ns, i]`` (the destination-grouped ``(n_states, 2)``
        table of
        :meth:`repro.ecc.convolutional.ConvolutionalCode.trellis_tables`).
        The tensor is overwritten with the arrival path metrics.  Every
        row starts and ends in state 0; the input bit that led into a
        state is its LSB, so traceback only needs predecessor states.
        Returns ``(bits, path_metrics)`` — the full decoded paths as int8
        ``(R, T)`` (termination tail included; callers slice it off) and
        the winning terminated metrics as float64 ``(R,)``.

        A step is three calls over its ``(R, S, 2)`` page: gather the
        source metrics, add them in place (the scalar recursion's single
        IEEE add) and keep the larger arrival.  The decisions then come
        from one strict ``>`` over all steps (first-wins ties);
        ``maximum`` returns the winner's value because no arrival is ever
        −0.0 (the start metric is +0.0, and a sum is −0.0 only if both
        terms are).  So a row decodes exactly as it would alone.  The ACS
        intermediates are pinned to float64 (the float32 tier inherits the
        method) and live in ``key``-namespaced workspace scratch, including
        the ``(T, R, S)`` int64 predecessor table the traceback walks.
        """
        gat, src = _check_viterbi_args(arrivals, src)
        n_steps, n_rows, n_states = gat.shape[:3]
        # flat gather indices of the (R, S, 2) arrival sources in the
        # (R, S) metric page
        rows = np.arange(n_rows, dtype=np.int64)[:, None]
        src_at = self.scratch(key + "_src_at", (n_rows, n_states, 2), dtype=np.int64)
        np.add(rows[:, :, None] * n_states, src, out=src_at)
        metric = self.scratch(key + "_metric", (n_rows, n_states), dtype=np.float64)
        arr = self.scratch(key + "_arr", (n_rows, n_states, 2), dtype=np.float64)
        metric.fill(-np.inf)
        metric[:, 0] = 0.0
        m_flat, g0, g1 = metric.reshape(-1), gat[..., 0], gat[..., 1]
        # ndarray.take(mode="clip") skips np.take's wrapper and bounds
        # buffering (every index is in range); iterating gives the per-step
        # views more cheaply than indexing
        for step, a0, a1 in zip(gat, g0, g1):
            m_flat.take(src_at, out=arr, mode="clip")
            np.add(arr, step, out=step)               # arrivals (R, S, 2)
            np.maximum(a0, a1, out=metric)
        win = self.scratch(key + "_win", (n_steps, n_rows, n_states), dtype=np.bool_)
        np.greater(g1, g0, out=win)                   # first-wins: strict >
        # predecessors as flat indices into one step's (R, S) page, so the
        # traceback is a single gather per step over every row at once
        prev = self.scratch(key + "_prev", (n_steps, n_rows, n_states), dtype=np.int64)
        np.multiply(win, src[:, 1] - src[:, 0], out=prev)
        np.add(prev, src_at[..., 0], out=prev)
        path = self.scratch(key + "_path", (n_steps, n_rows), dtype=np.int64)
        path[-1] = rows[:, 0] * n_states              # every row ends in state 0
        steps_back = zip(prev.reshape(n_steps, -1)[:0:-1], path[:0:-1], path[-2::-1])
        for page, here, before in steps_back:
            page.take(here, out=before, mode="clip")
        # row offsets are multiples of n_states (even), so the LSB of a flat
        # index is the LSB of its state: the input bit that led into it
        bits = np.empty((n_rows, n_steps), dtype=np.int8)
        np.bitwise_and(path.T, 1, out=bits, casting="unsafe")
        return bits, metric[:, 0].copy()

    # -- dense-algebra kernels ----------------------------------------------
    def linear(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused ``x @ weight.T + bias`` without intermediate temporaries."""
        if out is None:
            out = np.empty((x.shape[0], weight.shape[0]), dtype=np.result_type(x, weight))
        np.matmul(x, weight.T, out=out)
        if bias is not None:
            out += bias
        return out

    def gemm(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Plain matrix product with optional preallocated output."""
        if out is None:
            return a @ b
        np.matmul(a, b, out=out)
        return out

    def gemm_i64(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
    ) -> np.ndarray:
        """Integer MAC array ``x @ weight.T (+ bias)`` with int64 accumulation."""
        acc = np.matmul(x, weight.T)
        if bias is not None:
            acc += bias
        return acc
