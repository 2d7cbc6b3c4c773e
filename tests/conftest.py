"""Shared fixtures: deterministic RNGs and (expensively) trained systems.

Training-dependent tests share session-scoped fixtures so the suite trains
each configuration exactly once per run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autoencoder import AESystem, DemapperANN, E2ETrainer, MapperANN, TrainingConfig
from repro.channels import AWGNChannel


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def trained_system_8db() -> AESystem:
    """AE jointly trained at 8 dB (Eb/N0) — shared, treat as read-only."""
    rng = np.random.default_rng(99)
    mapper = MapperANN(16, init="qam", rng=rng)
    demapper = DemapperANN(4, rng=rng)
    system = AESystem(mapper, demapper, AWGNChannel(8.0, 4, rng=rng))
    E2ETrainer(system, TrainingConfig(steps=1200, batch_size=512, lr=2e-3)).run(rng)
    return system


@pytest.fixture(scope="session")
def trained_constellation_8db(trained_system_8db: AESystem):
    """Frozen transmit constellation of the 8 dB system."""
    return trained_system_8db.mapper.constellation()


def _viterbi_reference(code, llrs):
    """Scalar terminated-trellis Viterbi — the parity oracle for every tier.

    Branch metrics are the one-block reference contraction
    ``Σ_j c_j·llr_j`` (the einsum every decode path shares); the ACS is a
    plain forward recursion over the encoder's own next-state table, one
    IEEE add per arrival, and on a tie the arrival from the lower source
    state keeps the survivor (first-wins strict ``>``).  Returns
    ``(info bits, path metric)`` with the termination tail removed.
    """
    llrs = np.asarray(llrs, dtype=np.float64).reshape(-1, code.n_out)
    bms = np.einsum("tj,sbj->tsb", llrs, code._outputs.astype(np.float64)).tolist()
    nxt = code._next_state.tolist()
    metric = [0.0] + [float("-inf")] * (code.n_states - 1)
    back = []
    for bm in bms:
        new, pred = [None] * code.n_states, [None] * code.n_states
        for s in range(code.n_states):
            for b in (0, 1):
                cand, ns = metric[s] + bm[s][b], nxt[s][b]
                if new[ns] is None or cand > new[ns]:
                    new[ns], pred[ns] = cand, (s, b)
        metric = new
        back.append(pred)
    bits, state = [], 0
    for pred in reversed(back):
        state, b = pred[state]
        bits.append(b)
    info = np.array(bits[::-1][: len(back) - (code.k - 1)], dtype=np.int8)
    return info, metric[0]


@pytest.fixture(scope="session")
def viterbi_reference():
    """The scalar reference ACS every ``viterbi_decode`` tier must match."""
    return _viterbi_reference
