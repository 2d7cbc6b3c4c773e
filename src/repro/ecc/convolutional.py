"""Convolutional coding with hard/soft Viterbi decoding.

Extends the ECC substrate beyond block codes: a rate-1/n feed-forward
convolutional encoder and a Viterbi decoder that accepts either hard bits
(Hamming branch metric) or **LLRs** (correlation metric).  The soft decoder
is what makes this interesting for the paper's pipeline: coded performance
depends on the *quality* of the demapper's soft outputs, so it
discriminates between exact log-MAP, max-log on the true constellation,
and max-log on extracted centroids (see ``benchmarks/bench_ext_coded_ber.py``).

LLR convention matches :mod:`repro.modulation.demapper`: ``llr > 0`` ⇒ bit 1,
so the correlation metric for a branch emitting coded bits ``c ∈ {0,1}ⁿ``
is ``Σ_j c_j · llr_j`` (the constant term is path-independent).

The add-compare-select loop has one home per backend tier: the
row-batched ``backend.viterbi_decode`` kernel (:mod:`repro.backend`).
:meth:`ConvolutionalCode.decode_soft` is its one-row call and the serving
engine's :func:`repro.backend.dispatch.grouped_viterbi_decode` its
many-row call, so a block decodes to the same bits and path metric either
way (pinned against a scalar reference ACS by
``tests/backend/test_backend_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend.dispatch import grouped_viterbi_decode

__all__ = ["ConvolutionalCode", "ViterbiResult"]


@dataclass(frozen=True)
class ViterbiResult:
    """Decoded information bits plus the winning path metric."""

    data: np.ndarray
    path_metric: float


class ConvolutionalCode:
    """Rate-1/n feed-forward convolutional code with terminated blocks.

    Parameters
    ----------
    generators:
        Generator polynomials as integers; bit ``i`` (LSB = current input)
        taps shift-register position ``i``.  The classic K=3 code is
        ``(0b111, 0b101)`` (octal 7,5).
    constraint_length:
        K = number of taps (register length + 1).  States = 2^(K-1).

    Encoding appends ``K-1`` zero tail bits so every block terminates in
    state 0 (standard trellis termination — the decoder exploits it).
    """

    def __init__(self, generators: tuple[int, ...] = (0b111, 0b101), constraint_length: int = 3):
        if constraint_length < 2 or constraint_length > 10:
            raise ValueError("constraint_length must lie in [2, 10]")
        if len(generators) < 2:
            raise ValueError("need at least two generator polynomials (rate <= 1/2)")
        for g in generators:
            if g <= 0 or g >= (1 << constraint_length):
                raise ValueError(f"generator {g:#o} out of range for K={constraint_length}")
        self.generators = tuple(int(g) for g in generators)
        self.k = int(constraint_length)
        self.n_out = len(generators)
        self.n_states = 1 << (self.k - 1)

        # Precompute the trellis: for state s and input bit b, the register
        # content is (b << (K-1)) | s read as [newest ... oldest]; outputs
        # are parities of generator taps; next state drops the oldest bit.
        states = np.arange(self.n_states)
        self._next_state = np.empty((self.n_states, 2), dtype=np.int64)
        self._outputs = np.empty((self.n_states, 2, self.n_out), dtype=np.int8)
        for b in (0, 1):
            register = (states << 1) | b  # newest bit in LSB, oldest in MSB
            self._next_state[:, b] = register & (self.n_states - 1)
            for j, g in enumerate(self.generators):
                taps = register & g
                # parity via vectorised popcount
                parity = np.zeros_like(taps)
                t = taps.copy()
                while np.any(t):
                    parity ^= t & 1
                    t >>= 1
                self._outputs[:, b, j] = parity.astype(np.int8)
        # the decoder's trellis tables are derived lazily and cached
        self._trellis: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- encode -----------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Asymptotic code rate 1/n (termination overhead excluded)."""
        return 1.0 / self.n_out

    def encoded_length(self, n_info: int) -> int:
        """Coded bits produced for ``n_info`` information bits (with tail)."""
        return (n_info + self.k - 1) * self.n_out

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode a flat 0/1 bit array; returns the terminated coded stream."""
        d = np.asarray(data)
        if d.ndim != 1:
            raise ValueError("data must be a flat bit array")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("bits must be 0/1 valued")
        bits = np.concatenate([d.astype(np.int8), np.zeros(self.k - 1, dtype=np.int8)])
        out = np.empty((bits.size, self.n_out), dtype=np.int8)
        state = 0
        for t, b in enumerate(bits.tolist()):
            out[t] = self._outputs[state, b]
            state = self._next_state[state, b]
        assert state == 0  # termination invariant
        return out.ravel()

    # -- decode -----------------------------------------------------------------
    def trellis_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel decoder's view of the trellis: ``(src, labels, label_bits)``.

        Next state ``ns`` has two arrivals ``i``, from source states
        ``src[ns, i]`` (int64 ``(n_states, 2)``, lower source first) with
        input bit ``ns & 1``.  ``labels[ns, i]`` is the arrival's output
        label ``Σ_j c_j << j`` (int64 ``(n_states, 2)``) and ``label_bits``
        the 0/1 coded bits of every label (float64 ``(2^n_out, n_out)``),
        the operand LLRs are contracted against: one metric per label, put
        in arrival order by one gather.  All three depend only on the
        (immutable) generator set, are built once and must be treated as
        read-only (:func:`repro.backend.dispatch.grouped_viterbi_decode`
        hands them to the kernel verbatim, so sessions sharing a code share
        one table set).
        """
        if self._trellis is None:
            ns = np.arange(self.n_states)
            src = np.stack([ns >> 1, (ns >> 1) | (self.n_states >> 1)], axis=1)
            labels = self._outputs[src, (ns & 1)[:, None]].astype(np.int64)
            bits = (np.arange(1 << self.n_out)[:, None] >> np.arange(self.n_out)) & 1
            self._trellis = (src, labels @ (1 << np.arange(self.n_out)), bits.astype(np.float64))
        return self._trellis

    def decode_hard(self, coded: np.ndarray) -> ViterbiResult:
        """Hard-decision Viterbi (maximise bit agreements)."""
        c = np.asarray(coded)
        if c.size % self.n_out != 0:
            raise ValueError(f"coded length {c.size} not a multiple of {self.n_out}")
        r = c.reshape(-1, self.n_out).astype(np.float64)
        # metric = agreements: Σ_j [c_j == r_j] = Σ_j (2r-1)(2c-1)/2 + const
        return self.decode_soft((2.0 * r - 1.0) * 4.0)  # pseudo-LLRs, llr>0 <=> bit 1

    def decode_soft(self, llrs: np.ndarray, *, backend=None) -> ViterbiResult:
        """Soft-decision Viterbi from LLRs (llr > 0 ⇒ coded bit 1).

        The one-row call of the batched ``viterbi_decode`` kernel on
        ``backend`` (default: the process-wide one); every tier decodes to
        the same bits and path metric (the backend-parity contract).
        """
        l = np.asarray(llrs, dtype=np.float64)
        if l.ndim != 1 and not (l.ndim == 2 and l.shape[1] == self.n_out):
            l = l.ravel()
        if l.ndim == 1:
            if l.size % self.n_out != 0:
                raise ValueError(f"LLR length {l.size} not a multiple of {self.n_out}")
            l = l.reshape(-1, self.n_out)
        bits, path_metrics = grouped_viterbi_decode(self, l[None], backend=backend)
        return ViterbiResult(
            data=bits[0, : l.shape[0] - (self.k - 1)], path_metric=float(path_metrics[0])
        )
