"""Padded per-bit index tables for point-set demapping kernels.

The max-log and log-MAP demappers need, for every bit position ``j`` and bit
value ``v``, the indices of the constellation points whose label has bit
``j`` equal to ``v``.  Kernels want these as one rectangular table instead of
``2k`` ragged Python lists, so the whole per-bit reduction is a single
strided pass (NumPy) or a fixed-trip-count inner loop (Numba) — no Python
loop over bit positions in the hot path.

Rows ``0..k-1`` of :attr:`PaddedBitSets.table` are the bit=0 sets, rows
``k..2k-1`` the bit=1 sets, each padded to the widest set.  Padding entries
repeat the row's first index — harmless for ``min`` reductions — and
:attr:`sizes` records the true set lengths for reductions (like log-sum-exp)
where duplicates would bias the result.  :attr:`rows` holds the same
unpadded sets as tuples of Python ints, the form the NumPy kernels' per-set
loops index with (a Python int picks a row of a 2-D array faster than a
NumPy integer does).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PaddedBitSets"]


@dataclass(frozen=True)
class PaddedBitSets:
    """Rectangular index tables over a labelled point set.

    Attributes
    ----------
    table:
        ``(2k, width)`` intp array; row ``j`` = indices with bit ``j`` = 0,
        row ``k+j`` = indices with bit ``j`` = 1, right-padded by repeating
        the first index of the row.
    sizes:
        ``(2k,)`` true (unpadded) lengths of each row.
    k:
        Bits per symbol.
    order:
        Number of points M.
    rows:
        ``(2k,)`` tuple of the unpadded rows of ``table`` as tuples of
        Python ints (derived, not an argument).
    """

    table: np.ndarray
    sizes: np.ndarray
    k: int
    order: int
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = tuple(
            tuple(int(i) for i in self.table[r, : self.sizes[r]])
            for r in range(self.table.shape[0])
        )
        object.__setattr__(self, "rows", rows)

    @property
    def width(self) -> int:
        """Padded row width (size of the largest per-bit set)."""
        return int(self.table.shape[1])

    def row(self, j: int, value: int) -> np.ndarray:
        """Unpadded indices for bit ``j`` equal to ``value``."""
        r = j + (self.k if value else 0)
        return self.table[r, : self.sizes[r]]

    @staticmethod
    def from_bit_matrix(bit_matrix: np.ndarray) -> "PaddedBitSets":
        """Build tables from an ``(M, k)`` bit-label matrix."""
        bm = np.asarray(bit_matrix)
        if bm.ndim != 2:
            raise ValueError(f"bit_matrix must be 2-D, got shape {bm.shape}")
        order, k = bm.shape
        rows = [np.flatnonzero(bm[:, j] == v) for v in (0, 1) for j in range(k)]
        if any(r.size == 0 for r in rows):
            raise ValueError("every bit position needs at least one point per bit value")
        width = max(r.size for r in rows)
        table = np.empty((2 * k, width), dtype=np.intp)
        sizes = np.empty(2 * k, dtype=np.intp)
        for i, r in enumerate(rows):
            table[i, : r.size] = r
            table[i, r.size :] = r[0]
            sizes[i] = r.size
        return PaddedBitSets(table=table, sizes=sizes, k=k, order=order)
