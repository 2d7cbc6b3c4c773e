"""Symbol-wise (categorical) demapper head — the AE literature's alternative.

The paper's demapper outputs one sigmoid per *bit* (bitwise BCE, maximising
bitwise MI — the right objective when a bit-interleaved FEC follows).  Much
of the AE literature (O'Shea & Hoydis 2017) instead uses a softmax over the
M *symbols* trained with cross-entropy.  This module implements that
variant so the two heads can be compared:

* symbol posteriors are exact sufficient statistics — bit LLRs derived from
  them (`log Σ_{b_k=1} p_i − log Σ_{b_k=0} p_i`) correspond to exact
  bitwise marginalisation of the learned posterior;
* the symbol head needs M outputs instead of log2(M) (16 vs 4 here — a
  hardware cost the paper's choice avoids);
* hard symbol decisions minimise SER, while the paper's head targets BER.

``tests/autoencoder/test_symbolwise.py`` verifies both heads reach the same
BER on the paper's setup, and the extraction pipeline works unchanged on
the categorical head through :meth:`SymbolwiseDemapperANN.bit_probability_fn`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.modulation.bits import indices_to_bits
from repro.nn.layers import ReLU, Sequential
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.utils.complexmath import complex_to_real2

__all__ = ["SymbolwiseDemapperANN", "train_symbolwise_receiver"]


class SymbolwiseDemapperANN(Module):
    """MLP demapper with a categorical (softmax) symbol head.

    Topology mirrors the paper's bitwise demapper (2 → three hidden ReLU
    layers → M logits).
    """

    def __init__(
        self,
        order: int = 16,
        hidden: Sequence[int] = (16, 16, 16),
        *,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if order < 2 or (order & (order - 1)) != 0:
            raise ValueError("order must be a power of two >= 2")
        self.order = order
        self.bits_per_symbol = int(np.log2(order))
        widths = [2, *hidden, order]
        self.net = Sequential.mlp(widths, hidden_activation=ReLU, rng=rng)
        bm = indices_to_bits(np.arange(order), self.bits_per_symbol)
        self._one_sets = [np.flatnonzero(bm[:, j] == 1) for j in range(self.bits_per_symbol)]
        self._zero_sets = [np.flatnonzero(bm[:, j] == 0) for j in range(self.bits_per_symbol)]

    def forward(self, received: np.ndarray) -> np.ndarray:
        """Received 2-D symbols -> symbol logits ``(B, M)``."""
        return self.net.forward(received)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_logits)

    # -- inference views ---------------------------------------------------------
    def symbol_posteriors(self, received: np.ndarray) -> np.ndarray:
        """Softmax posteriors over symbols, shape ``(B, M)``."""
        z = self.forward(received)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def symbol_labels(self, received: np.ndarray) -> np.ndarray:
        """MAP symbol decisions (minimise SER)."""
        return np.argmax(self.forward(received), axis=1)

    def bit_llrs(self, received: np.ndarray) -> np.ndarray:
        """Exact bitwise LLRs by marginalising the symbol posterior.

        ``llr_k = logsumexp_{i: b_k=1}(z_i) − logsumexp_{i: b_k=0}(z_i)``
        (softmax normalisation cancels).  Convention: llr > 0 ⇒ bit 1.
        """
        from scipy.special import logsumexp  # deferred: keeps scipy out of `import repro`

        z = self.forward(received)
        k = self.bits_per_symbol
        out = np.empty((z.shape[0], k))
        for j in range(k):
            out[:, j] = logsumexp(z[:, self._one_sets[j]], axis=1) - logsumexp(
                z[:, self._zero_sets[j]], axis=1
            )
        return out

    def hard_bits(self, received: np.ndarray) -> np.ndarray:
        """Hard bits from the marginalised LLRs."""
        return (self.bit_llrs(received) > 0).astype(np.int8)

    def bit_probability_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """Extractor-compatible handle: P(b_k = 1 | y) per bit."""

        def probs(pts: np.ndarray) -> np.ndarray:
            llrs = self.bit_llrs(pts)
            return 1.0 / (1.0 + np.exp(-np.clip(llrs, -60, 60)))

        return probs


def train_symbolwise_receiver(
    demapper: SymbolwiseDemapperANN,
    constellation_points: np.ndarray,
    channel,
    *,
    steps: int = 1500,
    batch_size: int = 512,
    lr: float = 2e-3,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Receiver-only training of the categorical head over a live channel.

    The transmitter (``constellation_points``, complex ``(M,)``) is frozen —
    the categorical analogue of :class:`~repro.autoencoder.training
    .ReceiverFinetuner`.  Returns the loss trace (one value per 100 steps).
    """
    rng = rng if rng is not None else np.random.default_rng()
    points = np.asarray(constellation_points, dtype=np.complex128)
    loss_fn = CrossEntropyLoss()
    opt = Adam(demapper.parameters(), lr=lr)
    trace: list[float] = []
    for step in range(steps):
        idx = rng.integers(0, demapper.order, size=batch_size)
        received = channel.forward(points[idx])
        logits = demapper.forward(complex_to_real2(received))
        loss, dlogits = loss_fn(logits, idx)
        opt.zero_grad()
        demapper.backward(dlogits)
        opt.step()
        if step % 100 == 0 or step == steps - 1:
            trace.append(loss)
    return trace
