"""Hard and soft demappers.

Three receivers over a point set ("centroids" in the hybrid flow):

* :class:`HardDemapper` — nearest-point decision, returns labels/bits.
* :class:`MaxLogDemapper` — the paper's sub-optimal soft demapper
  (Robertson et al. 1995, paper Sec. III-A):

  ``llr(b_k | s_r) = 1/(2σ²)·[ min_{i: b_k(i)=0} |s_r − c_i|² − min_{i: b_k(i)=1} |s_r − c_i|² ]``

  Positive LLR ⇒ bit 1 more likely (llr ≈ log P(b=1)/P(b=0)).
* :class:`ExactLogMAPDemapper` — exact bit LLRs via log-sum-exp, the
  communication-performance reference the max-log approximates.

``sigma2`` is the **per-real-dimension** noise variance (N0/2), consistent
with squared Euclidean distances in the 2-D plane.

All three run on the pluggable compute backend (:mod:`repro.backend`): the
distance + per-bit reduction is one fused kernel over a padded bit-set index
table instead of a Python loop over bit positions, intermediates come from
the backend workspace, and ``llrs(..., out=...)`` makes steady-state batches
fully allocation-free.  The default (float64 NumPy) backend produces
bit-identical hard decisions — and bit-identical max-log LLRs — to the
historical implementation.
"""

from __future__ import annotations

import numpy as np

from repro.backend import PaddedBitSets, backend_from_name, get_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.modulation.bits import bits_to_indices
from repro.modulation.constellations import Constellation
from repro.utils.numerics import stable_sigmoid

__all__ = [
    "HardDemapper",
    "MaxLogDemapper",
    "ExactLogMAPDemapper",
    "llrs_to_bits",
    "llrs_to_probabilities",
]


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (paper convention: llr > 0 ⇒ bit 1)."""
    return (np.asarray(llrs) > 0).astype(np.int8)


def llrs_to_probabilities(llrs: np.ndarray) -> np.ndarray:
    """P(bit = 1) from LLRs: sigmoid(llr) under the llr=log(P1/P0) convention."""
    return stable_sigmoid(np.asarray(llrs, dtype=np.float64))


class _PointSetDemapper:
    """Shared machinery: squared distances to a labelled point set.

    Parameters
    ----------
    constellation:
        Labelled point set.
    backend:
        ``None`` (default) resolves the process-wide backend at every call
        (so ``set_backend``/``REPRO_BACKEND`` apply retroactively); a tier
        name or backend instance pins this demapper to that tier.
    """

    def __init__(self, constellation: Constellation, *, backend: str | NumpyBackend | None = None):
        self.constellation = constellation
        self._pinned = backend_from_name(backend) if isinstance(backend, str) else backend
        # Padded per-bit index table driving the fused backend kernels
        # (per-set indices are available via ``self._bitsets.row(j, value)``).
        self._bitsets = PaddedBitSets.from_bit_matrix(constellation.bit_matrix)

    @property
    def backend(self) -> NumpyBackend:
        """The backend this demapper currently dispatches to."""
        return self._pinned if self._pinned is not None else get_backend()

    @property
    def bitsets(self) -> PaddedBitSets:
        """The padded per-bit index table driving the fused kernels.

        Exposed for batched dispatch layers (:mod:`repro.backend.dispatch`)
        that group several demappers' work into one multi-sigma launch.
        """
        return self._bitsets

    def squared_distances(self, received: np.ndarray) -> np.ndarray:
        """|y − c_i|² for every received sample and point: shape ``(N, M)``.

        Runs on the backend's transposed distance kernel (workspace-managed
        intermediates instead of a naive broadcast temporary); only the
        caller-owned float64 ``(N, M)`` result is allocated.
        """
        d2_t = self.backend.point_distances_t(received, self.constellation.points)
        out = np.empty((d2_t.shape[1], d2_t.shape[0]), dtype=np.float64)
        np.copyto(out, d2_t.T, casting="same_kind")
        return out

    def demap_bits_multi(self, received: np.ndarray) -> np.ndarray:
        """Nearest-point hard bits for an ``(S, n)`` sweep tensor: ``(S, n, k)``.

        Hard decisions are σ²-independent, so a whole multi-SNR batch
        dispatches to one flattened :meth:`hard_indices` launch.
        """
        y = np.asarray(received)
        if y.ndim != 2:
            raise ValueError(f"expected (S, n) received, got shape {y.shape}")
        idx = self.backend.hard_indices(y, self.constellation.points)
        return self.constellation.bit_matrix[idx]


class HardDemapper(_PointSetDemapper):
    """Minimum-distance (ML for equiprobable symbols over AWGN) detector."""

    def demap_indices(self, received: np.ndarray) -> np.ndarray:
        """Received symbols -> nearest-point labels ``(N,)``."""
        return self.backend.hard_indices(received, self.constellation.points)

    def demap_bits(self, received: np.ndarray) -> np.ndarray:
        """Received symbols -> hard bits ``(N, k)``."""
        return self.constellation.bit_matrix[self.demap_indices(received)]

    def __call__(self, received: np.ndarray) -> np.ndarray:
        return self.demap_bits(received)


class MaxLogDemapper(_PointSetDemapper):
    """Sub-optimal max-log soft demapper (the paper's inference algorithm).

    Replaces exponentials/logarithms of exact log-MAP with two minima per
    bit — the simplification that makes the FPGA implementation in Table 2
    an order of magnitude cheaper than ANN inference.
    """

    def llrs(
        self,
        received: np.ndarray,
        sigma2: float,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Bit LLRs ``(N, k)``; ``sigma2`` = per-dimension noise variance.

        ``out`` (optional, float64 ``(N, k)``) is filled and returned in
        place for allocation-free steady-state use.
        """
        if sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        return self.backend.maxlog_llrs(
            received, self.constellation.points, self._bitsets, sigma2, out=out
        )

    def llrs_multi(
        self,
        received: np.ndarray,
        sigma2s: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Max-log LLRs for a whole SNR sweep in one kernel launch.

        ``received`` is ``(S, n)`` (row ``s`` = the batch at sweep point
        ``s``) and ``sigma2s`` the matching per-row noise variances; returns
        (or fills ``out`` with) float64 ``(S, n, k)``.  :meth:`llrs` is the
        S=1 call of the same kernel, so each slice ``[s]`` is byte-equal to
        ``llrs(received[s], sigma2s[s])`` on every tier.
        """
        return self.backend.maxlog_llrs_multi(
            received, self.constellation.points, self._bitsets, sigma2s, out=out
        )

    def demap_bits(self, received: np.ndarray, sigma2: float) -> np.ndarray:
        """Hard bits from max-log demapping.

        The hard decision is independent of ``sigma2`` (the LLR scaling does
        not change the sign), so this dispatches straight to the nearest-point
        ``hard_indices`` kernel — no LLRs are materialised.  Exact-tie inputs
        (equidistant to a 0-point and a 1-point, a measure-zero event under
        noise) resolve to the nearest point with the lowest label, matching
        :class:`HardDemapper`.
        """
        if sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        idx = self.backend.hard_indices(received, self.constellation.points)
        return self.constellation.bit_matrix[idx]

    def __call__(self, received: np.ndarray, sigma2: float) -> np.ndarray:
        return self.llrs(received, sigma2)


class ExactLogMAPDemapper(_PointSetDemapper):
    """Exact bitwise log-MAP demapper (log-sum-exp over the point set).

    ``llr_k = logsumexp_{i: b_k=1}(−d_i²/2σ²) − logsumexp_{i: b_k=0}(−d_i²/2σ²)``
    """

    def llrs(
        self,
        received: np.ndarray,
        sigma2: float,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Bit LLRs ``(N, k)`` (positive ⇒ bit 1, same convention as max-log)."""
        if sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        return self.backend.logmap_llrs(
            received, self.constellation.points, self._bitsets, sigma2, out=out
        )

    def llrs_multi(
        self,
        received: np.ndarray,
        sigma2s: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact LLRs for an ``(S, n)`` sweep tensor: ``(S, n, k)`` float64.

        Same contract as :meth:`MaxLogDemapper.llrs_multi` (per-row sigma,
        one kernel: each slice ``[s]`` is byte-equal to :meth:`llrs` on row
        ``s``).
        """
        return self.backend.logmap_llrs_multi(
            received, self.constellation.points, self._bitsets, sigma2s, out=out
        )

    def demap_bits(self, received: np.ndarray, sigma2: float) -> np.ndarray:
        """Hard bits from exact LLRs."""
        return llrs_to_bits(self.llrs(received, sigma2))

    def __call__(self, received: np.ndarray, sigma2: float) -> np.ndarray:
        return self.llrs(received, sigma2)
