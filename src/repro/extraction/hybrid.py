"""HybridDemapper — centroids + conventional max-log soft demapping.

The deliverable of the paper's inference step: after (re)training, the
demapper ANN is *replaced* for inference by the sub-optimal soft demapper
running on the extracted centroids.  The centroids "do not necessarily
replicate the constellation of the mapper but implicitly include the learned
information of the ANN to compensate channel impairments, e.g. ... the
phase-shift of the channel" (§II-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autoencoder.demapper_ann import DemapperANN
from repro.extraction.centroids import CentroidSet, extract_centroids
from repro.extraction.decision_regions import DecisionRegionGrid, sample_decision_regions
from repro.modulation.constellations import Constellation
from repro.modulation.demapper import MaxLogDemapper

__all__ = ["HybridDemapper"]


@dataclass
class HybridDemapper:
    """Conventional soft demapper driven by ANN-extracted centroids.

    Build with :meth:`extract` (full pipeline: sample decision regions ->
    centroids -> max-log core) or construct directly from a centroid
    :class:`~repro.modulation.constellations.Constellation`.

    Attributes
    ----------
    constellation:
        The centroid point set (bit labels implicit in the ordering).
    sigma2:
        Per-real-dimension noise variance used for LLR scaling.
    grid:
        The decision-region grid the centroids came from (None if built
        directly).
    centroids:
        The raw :class:`CentroidSet` (None if built directly).
    """

    constellation: Constellation
    sigma2: float
    grid: DecisionRegionGrid | None = None
    centroids: CentroidSet | None = None

    def __post_init__(self) -> None:
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        self._core = MaxLogDemapper(self.constellation)

    # -- construction -----------------------------------------------------------
    @classmethod
    def extract(
        cls,
        demapper: DemapperANN,
        sigma2: float,
        *,
        extent: float = 1.5,
        resolution: int = 256,
        method: str = "vertex",
        fallback: Constellation | None = None,
        es: float = 1.0,
    ) -> "HybridDemapper":
        """Run the paper's extraction pipeline on a trained demapper ANN.

        ``fallback`` (usually the frozen transmit constellation) fills any
        symbol whose decision region does not appear in the window.

        The default window half-width (1.5) tightly covers a unit-energy
        16-QAM constellation (max |point| ≈ 1.34): ANN decision boundaries
        are only trustworthy where training data landed, so sampling far
        into the network's extrapolation region degrades every estimator.
        For the ``"lsq"`` method, boundary samples are additionally
        density-weighted with scale ``sqrt(es + 2·sigma2)``.
        """
        grid = sample_decision_regions(
            demapper.bit_probability_fn(), extent=extent, resolution=resolution
        )
        order = 1 << demapper.bits_per_symbol
        cents = extract_centroids(
            grid, order, method=method, density_scale=float(np.sqrt(es + 2.0 * sigma2))
        )
        if cents.n_missing:
            if fallback is None:
                raise ValueError(
                    f"{cents.n_missing} decision regions absent from the window and no "
                    "fallback constellation given"
                )
            cents = cents.fill_missing(fallback.points)
        return cls(
            constellation=cents.as_constellation(),
            sigma2=sigma2,
            grid=grid,
            centroids=cents,
        )

    # -- demapping ----------------------------------------------------------------
    @property
    def core(self) -> MaxLogDemapper:
        """The max-log core over the centroid set.

        Batched dispatch layers (the serving engine's cross-session
        micro-batching) use this to reach the constellation points and
        padded bit-set tables behind one multi-sigma kernel launch.
        """
        return self._core

    def llrs(self, received: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Max-log LLRs ``(N, k)`` on the extracted centroids.

        ``out`` (optional float64 ``(N, k)``) is filled and returned in
        place — same allocation-free steady-state contract as
        :meth:`~repro.modulation.demapper.MaxLogDemapper.llrs`, so serving
        hot loops can demap frame after frame without touching the
        allocator.
        """
        return self._core.llrs(received, self.sigma2, out=out)

    def llrs_multi(
        self, received: np.ndarray, sigma2s: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Max-log LLRs for an ``(S, n)`` batch with *per-row* noise variances.

        Unlike :meth:`llrs` this ignores the demapper's own ``sigma2`` —
        the serving engine batches frames of several sessions (each with its
        own σ² estimate) over one shared centroid set, so the variances
        arrive as a vector.  Returns (or fills ``out`` with) ``(S, n, k)``
        float64; each row is byte-equal to ``llrs`` at that row's σ², on
        every tier.
        """
        return self._core.llrs_multi(received, sigma2s, out=out)

    def demap_bits(self, received: np.ndarray) -> np.ndarray:
        """Hard bits ``(N, k)`` by nearest centroid.

        Dispatches to the backend ``hard_indices`` kernel (the max-log hard
        decision is σ²-independent, so no LLRs are materialised) — parity
        with :meth:`~repro.modulation.demapper.MaxLogDemapper.demap_bits`.
        Exact-tie inputs resolve to the lowest centroid label, matching
        :class:`~repro.modulation.demapper.HardDemapper`.
        """
        return self._core.demap_bits(received, self.sigma2)

    def __call__(self, received: np.ndarray) -> np.ndarray:
        return self.llrs(received)

    def with_sigma2(self, sigma2: float) -> "HybridDemapper":
        """Copy with a different noise variance (same centroids)."""
        return HybridDemapper(
            constellation=self.constellation,
            sigma2=sigma2,
            grid=self.grid,
            centroids=self.centroids,
        )
