"""Statistical helpers: Gaussian tail, analytic BER references, intervals.

The analytic Gray-coded 16-QAM BER approximation is the ground truth used to
(1) validate the Monte-Carlo engine and (2) pin down the paper's SNR
convention (Eb/N0 — see DESIGN.md §1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "q_function",
    "q_function_inv",
    "gray_qam_ber_approx",
    "wilson_interval",
]


def q_function(x: float | np.ndarray) -> float | np.ndarray:
    """Gaussian tail probability ``Q(x) = P(N(0,1) > x)``."""
    from scipy import special  # deferred: keeps scipy out of `import repro`

    return 0.5 * special.erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def q_function_inv(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse of :func:`q_function` (valid for ``0 < p < 1``)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("p must lie strictly inside (0, 1)")
    from scipy import special

    return np.sqrt(2.0) * special.erfcinv(2.0 * p)


def gray_qam_ber_approx(ebn0_db: float | np.ndarray, order: int = 16) -> float | np.ndarray:
    """Approximate BER of Gray-coded square M-QAM over AWGN.

    Uses the standard nearest-neighbour union-bound approximation

    ``Pb ≈ (4/log2 M)(1 − 1/√M) · Q( sqrt(3·log2(M)/(M−1) · Eb/N0) )``

    which is tight for mid-to-high SNR and within a few percent elsewhere.
    ``ebn0_db`` is Eb/N0 in dB (the paper's "SNR" — Table 1's baseline values
    0.19 at −2 dB and 0.0103 at 8 dB match this formula for M = 16).
    """
    m = int(order)
    if m < 4 or (m & (m - 1)) != 0:
        raise ValueError(f"order must be a power of two >= 4, got {order}")
    k = np.log2(m)
    root_m = np.sqrt(m)
    if root_m != int(root_m):
        raise ValueError(f"only square QAM supported, got order {order}")
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=np.float64) / 10.0)
    arg = np.sqrt(3.0 * k / (m - 1.0) * ebn0)
    return (4.0 / k) * (1.0 - 1.0 / root_m) * q_function(arg)


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Preferred over the normal approximation for the small error counts that
    occur at high SNR in BER simulations.  Returns ``(lo, hi)``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= errors <= trials:
        raise ValueError("errors must lie in [0, trials]")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))
