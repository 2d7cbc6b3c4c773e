"""Optional Numba-JIT backend with silent NumPy fallback.

Importing this module never fails and never imports the JIT toolchain:
``NUMBA_AVAILABLE`` is probed with :func:`importlib.util.find_spec` (cheap),
and the actual ``numba`` import plus kernel compilation happen lazily on
first :class:`NumbaBackend` construction, so ``import repro`` stays fast
even on machines where numba (and llvmlite) are installed.  When Numba is
absent the registry quietly serves the NumPy reference backend instead (the
issue-mandated "silent fallback"), so the same code runs unchanged in
minimal containers.

The jitted kernels fuse the whole demapping pipeline per symbol — distance,
per-bit minima (or streaming log-sum-exp), scaling — in one cache-resident
pass over a stack-local distance vector, the same dataflow as the FPGA's
pipelined distance/min-tree stages.  There is one kernel per soft metric,
over ``(S, n)`` with per-row σ² and one shared or per-row point set; the inherited ``maxlog_llrs``/
``logmap_llrs`` are its S=1 calls.  Hard decisions are bit-identical to the
NumPy float64 tier: identical IEEE double operations, only the loop
scheduling differs.
"""

from __future__ import annotations

import importlib.util
from types import SimpleNamespace

import numpy as np

from repro.backend.numpy_backend import (
    NumpyBackend,
    _check_llr_multi_out,
    _check_multi_args,
    _check_viterbi_args,
)

__all__ = ["NUMBA_AVAILABLE", "NumbaBackend"]

#: Cheap availability probe — does not import numba/llvmlite.
NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None

_kernels: SimpleNamespace | None = None


def _get_kernels() -> SimpleNamespace:  # pragma: no cover - needs numba installed
    """Import numba and compile the kernel set once, on first use."""
    global _kernels
    if _kernels is not None:
        return _kernels
    from numba import njit

    @njit(cache=True)
    def maxlog_multi(y_re, y_im, c_re, c_im, row_len, table, sizes, k, scale_col, out):
        # sample i reads point set i // row_len of the (sets, M) tables and
        # its row's 1/(2σ²) from the expanded column vector
        n = y_re.size
        m = c_re.shape[1]
        d2 = np.empty(m, dtype=np.float64)
        for i in range(n):
            c = i // row_len
            for p in range(m):
                dr = y_re[i] - c_re[c, p]
                di = y_im[i] - c_im[c, p]
                d2[p] = dr * dr + di * di
            for j in range(k):
                m0 = np.inf
                for t in range(sizes[j]):
                    v = d2[table[j, t]]
                    if v < m0:
                        m0 = v
                m1 = np.inf
                for t in range(sizes[k + j]):
                    v = d2[table[k + j, t]]
                    if v < m1:
                        m1 = v
                out[i, j] = (m0 - m1) * scale_col[i]

    @njit(cache=True)
    def logmap_multi(y_re, y_im, c_re, c_im, row_len, table, sizes, k, inv_2s2_col, out):
        n = y_re.size
        m = c_re.shape[1]
        metric = np.empty(m, dtype=np.float64)
        for i in range(n):
            c = i // row_len
            inv_2s2 = inv_2s2_col[i]
            for p in range(m):
                dr = y_re[i] - c_re[c, p]
                di = y_im[i] - c_im[c, p]
                metric[p] = -(dr * dr + di * di) * inv_2s2
            for j in range(k):
                mx1 = -np.inf
                for t in range(sizes[k + j]):
                    v = metric[table[k + j, t]]
                    if v > mx1:
                        mx1 = v
                s1 = 0.0
                for t in range(sizes[k + j]):
                    s1 += np.exp(metric[table[k + j, t]] - mx1)
                mx0 = -np.inf
                for t in range(sizes[j]):
                    v = metric[table[j, t]]
                    if v > mx0:
                        mx0 = v
                s0 = 0.0
                for t in range(sizes[j]):
                    s0 += np.exp(metric[table[j, t]] - mx0)
                out[i, j] = (mx1 + np.log(s1)) - (mx0 + np.log(s0))

    @njit(cache=True)
    def hard(y_re, y_im, c_re, c_im, out):
        n = y_re.size
        m = c_re.size
        for i in range(n):
            best = np.inf
            arg = 0
            for p in range(m):
                dr = y_re[i] - c_re[p]
                di = y_im[i] - c_im[p]
                v = dr * dr + di * di
                if v < best:
                    best = v
                    arg = p
            out[i] = arg

    @njit(cache=True)
    def viterbi(gat, src, prev, bits, metrics):
        # row-batched terminated-trellis ACS + traceback over (T, R, S, 2)
        # arrival metrics, one row at a time; strict `>` on arrival 1 is the
        # first-wins tie-break of every tier, each arrival one IEEE add
        n_steps = gat.shape[0]
        n_rows = gat.shape[1]
        n_states = gat.shape[2]
        metric = np.empty(n_states, dtype=np.float64)
        nxt = np.empty(n_states, dtype=np.float64)
        for r in range(n_rows):
            for s in range(n_states):
                metric[s] = -np.inf
            metric[0] = 0.0
            for t in range(n_steps):
                for s in range(n_states):
                    s0 = src[s, 0]
                    s1 = src[s, 1]
                    a0 = metric[s0] + gat[t, r, s, 0]
                    a1 = metric[s1] + gat[t, r, s, 1]
                    if a1 > a0:
                        nxt[s] = a1
                        prev[t, s] = s1
                    else:
                        nxt[s] = a0
                        prev[t, s] = s0
                for s in range(n_states):
                    metric[s] = nxt[s]
            state = 0
            for t in range(n_steps - 1, -1, -1):
                bits[r, t] = state & 1
                state = prev[t, state]
            metrics[r] = metric[0]

    @njit(cache=True)
    def gemm_i64(x, w, bias, out):
        n, kin = x.shape
        kout = w.shape[0]
        for i in range(n):
            for o in range(kout):
                acc = bias[o]
                for c in range(kin):
                    acc += x[i, c] * w[o, c]
                out[i, o] = acc

    _kernels = SimpleNamespace(
        maxlog_multi=maxlog_multi,
        logmap_multi=logmap_multi,
        hard=hard,
        viterbi=viterbi,
        gemm_i64=gemm_i64,
    )
    return _kernels


class NumbaBackend(NumpyBackend):
    """JIT tier: fused per-symbol kernels, float64 semantics.

    Construction raises :class:`RuntimeError` when Numba is missing.  The
    registry (:func:`repro.backend.core.backend_from_name`) never constructs
    this class in that case — it checks :data:`NUMBA_AVAILABLE` first and
    serves the NumPy reference instead — so only direct instantiation sees
    the error.
    """

    def __init__(self) -> None:
        if not NUMBA_AVAILABLE:
            raise RuntimeError("numba is not installed")
        super().__init__(np.float64, name="numba")
        self._k = _get_kernels()

    def _prepared(self, received, points, s_count=1):  # pragma: no cover - needs numba
        """Received row(s) and ``(sets, M)`` float64 point tables, plus the
        samples per set: one ``(M,)`` set spans every sample, an ``(S, M)``
        table one set per received row."""
        yr, yi = self._split_received(received)
        c = np.asarray(points)
        if c.ndim > 1 and (c.ndim != 2 or c.shape[0] != s_count):
            raise ValueError(
                f"points must be (M,) or one set per row ({s_count}, M), got {c.shape}"
            )
        c = c.reshape(-1, c.shape[-1])
        row_len = max(yr.size // max(c.shape[0], 1), 1)
        c_re = np.ascontiguousarray(c.real, dtype=np.float64)
        c_im = np.ascontiguousarray(c.imag, dtype=np.float64)
        return yr, yi, c_re, c_im, row_len

    def maxlog_llrs_multi(self, received, points, bitsets, sigma2s, out=None):  # pragma: no cover
        y, s_count, n, sig = _check_multi_args(received, sigma2s)
        yr, yi, c_re, c_im, row_len = self._prepared(y, points, s_count)
        out = _check_llr_multi_out(out, s_count, n, bitsets.k)
        scale_col = np.repeat(1.0 / (2.0 * sig), n)
        self._k.maxlog_multi(
            yr, yi, c_re, c_im, row_len, bitsets.table, bitsets.sizes,
            bitsets.k, scale_col, out.reshape(s_count * n, bitsets.k),
        )
        return out

    def logmap_llrs_multi(self, received, points, bitsets, sigma2s, out=None):  # pragma: no cover
        y, s_count, n, sig = _check_multi_args(received, sigma2s)
        yr, yi, c_re, c_im, row_len = self._prepared(y, points, s_count)
        out = _check_llr_multi_out(out, s_count, n, bitsets.k)
        inv_col = np.repeat(1.0 / (2.0 * sig), n)
        self._k.logmap_multi(
            yr, yi, c_re, c_im, row_len, bitsets.table, bitsets.sizes,
            bitsets.k, inv_col, out.reshape(s_count * n, bitsets.k),
        )
        return out

    def hard_indices(self, received, points):  # pragma: no cover - needs numba
        y = np.asarray(received)
        yr, yi, c_re, c_im, _ = self._prepared(y, np.ravel(points))
        out = np.empty(yr.size, dtype=np.intp)
        self._k.hard(yr, yi, c_re[0], c_im[0], out)
        return out.reshape(y.shape) if y.ndim != 1 else out

    def viterbi_decode(self, arrivals, src, *, key="viterbi"):  # pragma: no cover - needs numba
        gat, src = _check_viterbi_args(arrivals, src)
        n_steps, n_rows, n_states = gat.shape[:3]
        # one row's predecessor table, reused across rows (cache-resident)
        prev = self.scratch(key + "_prev", (n_steps, n_states), dtype=np.int64)
        bits = np.empty((n_rows, n_steps), dtype=np.int8)
        metrics = np.empty(n_rows, dtype=np.float64)
        self._k.viterbi(gat, src, prev, bits, metrics)
        return bits, metrics

    def gemm_i64(self, x, weight, bias=None):  # pragma: no cover - needs numba
        x = np.ascontiguousarray(x, dtype=np.int64)
        w = np.ascontiguousarray(weight, dtype=np.int64)
        b = np.zeros(w.shape[0], dtype=np.int64) if bias is None else np.asarray(bias, dtype=np.int64)
        out = np.empty((x.shape[0], w.shape[0]), dtype=np.int64)
        self._k.gemm_i64(x, w, b, out)
        return out
