"""Backend parity: tiers agree with the reference, selection works, and the
parallel Monte-Carlo engine is worker-count invariant."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from repro.backend import (
    FLOAT32_LLR_RTOL,
    NUMBA_AVAILABLE,
    PaddedBitSets,
    Workspace,
    available_backends,
    backend_from_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.backend.dispatch import grouped_viterbi_decode
from repro.ecc.convolutional import ConvolutionalCode
from repro.link import AWGNFactory, simulate_ber, sweep_snr
from repro.modulation import (
    ExactLogMAPDemapper,
    HardDemapper,
    MaxLogDemapper,
    qam_constellation,
)


@pytest.fixture
def qam16():
    return qam_constellation(16)


@pytest.fixture
def received(qam16):
    rng = np.random.default_rng(1234)
    n = 20_000
    idx = rng.integers(0, 16, n)
    noise = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.15
    return qam16.points[idx] + noise


def _reference_maxlog(constellation, y, sigma2):
    """The historical (pre-backend) formulation, verbatim."""
    yv = np.asarray(y, dtype=np.complex128).ravel()
    diff = yv[:, None] - constellation.points[None, :]
    d2 = (diff.real * diff.real) + (diff.imag * diff.imag)
    bm = constellation.bit_matrix
    k = constellation.bits_per_symbol
    out = np.empty((d2.shape[0], k), dtype=np.float64)
    for j in range(k):
        min0 = d2[:, np.flatnonzero(bm[:, j] == 0)].min(axis=1)
        min1 = d2[:, np.flatnonzero(bm[:, j] == 1)].min(axis=1)
        out[:, j] = min0 - min1
    out *= 1.0 / (2.0 * sigma2)
    return out


def _reference_logmap(constellation, y, sigma2):
    yv = np.asarray(y, dtype=np.complex128).ravel()
    diff = yv[:, None] - constellation.points[None, :]
    metric = -((diff.real * diff.real) + (diff.imag * diff.imag)) / (2.0 * sigma2)
    bm = constellation.bit_matrix
    k = constellation.bits_per_symbol
    out = np.empty((metric.shape[0], k), dtype=np.float64)
    for j in range(k):
        lse1 = logsumexp(metric[:, np.flatnonzero(bm[:, j] == 1)], axis=1)
        lse0 = logsumexp(metric[:, np.flatnonzero(bm[:, j] == 0)], axis=1)
        out[:, j] = lse1 - lse0
    return out


class TestSelection:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        set_backend(None)
        assert get_backend().name == "numpy"
        assert get_backend().dtype == np.float64

    def test_env_var_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        set_backend(None)  # force lazy re-resolution
        try:
            assert get_backend().name == "numpy32"
        finally:
            monkeypatch.delenv("REPRO_BACKEND")
            set_backend(None)

    def test_use_backend_scopes_and_restores(self):
        set_backend(None)
        before = get_backend()
        with use_backend("numpy32") as b:
            assert b.name == "numpy32"
            assert get_backend() is b
        assert get_backend() is before

    def test_instances_are_cached(self):
        assert backend_from_name("numpy") is backend_from_name("reference")
        assert backend_from_name("float32") is backend_from_name("numpy32")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backend_from_name("cuda")

    def test_numba_request_never_fails(self):
        # silent fallback: requesting the JIT tier always yields a backend
        b = backend_from_name("numba")
        assert b.name == ("numba" if NUMBA_AVAILABLE else "numpy")

    def test_available_backends_resolve(self):
        for name in available_backends():
            assert backend_from_name(name) is not None


class TestReferenceParity:
    """The ``numpy`` tier reproduces the historical implementation exactly.

    Demappers are pinned to ``backend="numpy"`` so the suite stays valid
    even when the ambient ``REPRO_BACKEND`` selects a faster tier.
    """

    def test_maxlog_bit_identical(self, qam16, received):
        got = MaxLogDemapper(qam16, backend="numpy").llrs(received, 0.02)
        assert np.array_equal(got, _reference_maxlog(qam16, received, 0.02))

    def test_logmap_matches_scipy(self, qam16, received):
        got = ExactLogMAPDemapper(qam16, backend="numpy").llrs(received, 0.02)
        np.testing.assert_allclose(got, _reference_logmap(qam16, received, 0.02), rtol=1e-12, atol=1e-12)

    def test_hard_indices_identical(self, qam16, received):
        got = HardDemapper(qam16, backend="numpy").demap_indices(received)
        diff = received[:, None] - qam16.points[None, :]
        ref = np.argmin((diff.real**2 + diff.imag**2), axis=1)
        assert np.array_equal(got, ref)

    def test_out_parameter_is_filled_in_place(self, qam16, received):
        ml = MaxLogDemapper(qam16)
        out = np.empty((received.size, 4), dtype=np.float64)
        got = ml.llrs(received, 0.02, out=out)
        assert got is out
        assert np.array_equal(out, ml.llrs(received, 0.02))

    def test_out_parameter_validated(self, qam16, received):
        ml = MaxLogDemapper(qam16)
        with pytest.raises(ValueError, match="shape"):
            ml.llrs(received, 0.02, out=np.empty((received.size, 3)))
        with pytest.raises(ValueError, match="float64"):
            ml.llrs(received, 0.02, out=np.empty((received.size, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            ml.llrs(received, 0.02, out=np.empty((2, received.size, 4)))


class TestFloat32Parity:
    def test_maxlog_llrs_within_documented_tolerance(self, qam16, received):
        ml64 = MaxLogDemapper(qam16, backend="numpy")
        ml32 = MaxLogDemapper(qam16, backend="numpy32")
        r64 = ml64.llrs(received, 0.02)
        r32 = ml32.llrs(received, 0.02)
        scale = np.abs(r64).max()
        assert np.abs(r32 - r64).max() <= FLOAT32_LLR_RTOL * scale

    def test_logmap_llrs_within_documented_tolerance(self, qam16, received):
        r64 = ExactLogMAPDemapper(qam16, backend="numpy").llrs(received, 0.05)
        r32 = ExactLogMAPDemapper(qam16, backend="numpy32").llrs(received, 0.05)
        assert np.abs(r32 - r64).max() <= FLOAT32_LLR_RTOL * np.abs(r64).max()

    def test_hard_decisions_agree_on_fixture(self, qam16, received):
        # deterministic fixture; float32 rounding does not move any sample
        # across a decision boundary here
        b64 = MaxLogDemapper(qam16, backend="numpy").demap_bits(received, 0.02)
        b32 = MaxLogDemapper(qam16, backend="numpy32").demap_bits(received, 0.02)
        assert np.array_equal(b64, b32)

    def test_outputs_are_float64_regardless_of_tier(self, qam16, received):
        r32 = MaxLogDemapper(qam16, backend="numpy32").llrs(received, 0.02)
        assert r32.dtype == np.float64


@pytest.fixture
def sweep_received(qam16):
    """(S, n) CRN-style received tensor + matching per-row sigma2s."""
    rng = np.random.default_rng(77)
    s, n = 5, 4_000
    idx = rng.integers(0, 16, n)
    sigma2s = np.array([0.005, 0.02, 0.05, 0.12, 0.3])
    unit = rng.normal(size=n) + 1j * rng.normal(size=n)
    received = qam16.points[idx][None, :] + np.sqrt(sigma2s)[:, None] * unit[None, :]
    return received, sigma2s


_DEMAPPERS = {"maxlog": MaxLogDemapper, "logmap": ExactLogMAPDemapper}


@st.composite
def _sweeps(draw):
    """A random ``(S, n)`` 16-QAM sweep, per-row σ² and a kernel tile width.

    Tile widths below ``S·n`` put tile boundaries (and a ragged tail)
    inside rows, at other offsets than in a one-row call.
    """
    s = draw(st.integers(1, 6))
    n = draw(st.integers(0, 3000))
    sigma2s = np.array(
        draw(st.lists(st.floats(1e-3, 2.0), min_size=s, max_size=s)), dtype=np.float64
    )
    tile = draw(st.integers(50, 9000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = qam_constellation(16).points
    unit = rng.normal(size=(s, n)) + 1j * rng.normal(size=(s, n))
    received = points[rng.integers(0, 16, n)] + np.sqrt(sigma2s)[:, None] * unit
    return received, sigma2s, tile


@st.composite
def _per_row_sets(draw):
    """A random ``(S, n)`` sweep over runs of per-row 16-QAM-labelled point
    sets, per-row σ² and a kernel tile width.

    Sets are rotations of 16-QAM, some with duplicated points (distance
    ties) or ±0.0 coordinates; adjacent runs may repeat a set or differ
    only in the sign of a zero.  Some received samples sit exactly on a
    point or at ±0.0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    s = sum(runs)
    n = draw(st.integers(0, 1500))
    base = qam_constellation(16).points
    sets = []
    for _ in runs:
        kind = draw(st.sampled_from(["base", "rotated", "ties", "zeros", "repeat"]))
        pts = base * np.exp(1j * rng.uniform(-0.5, 0.5)) if kind == "rotated" else base.copy()
        if kind == "ties":
            pts[rng.integers(0, 16, 4)] = pts[rng.integers(0, 16, 4)]
        if kind == "zeros":
            re, im = pts.real.copy(), pts.imag.copy()
            re[rng.integers(0, 16, 3)] = rng.choice([0.0, -0.0], 3)
            im[rng.integers(0, 16, 3)] = rng.choice([0.0, -0.0], 3)
            pts = re + 1j * im
        if kind == "repeat" and sets:
            pts = sets[-1].copy()
        sets.append(pts)
    points = np.concatenate([np.repeat(p[None], r, axis=0) for p, r in zip(sets, runs)])
    sigma2s = np.array(
        draw(st.lists(st.floats(1e-3, 2.0), min_size=s, max_size=s)), dtype=np.float64
    )
    idx = rng.integers(0, 16, (s, n))
    received = np.take_along_axis(points, idx, axis=1) + np.sqrt(sigma2s)[:, None] * (
        rng.normal(size=(s, n)) + 1j * rng.normal(size=(s, n))
    )
    exact = rng.random((s, n)) < 0.1
    received[exact] = np.take_along_axis(points, idx, axis=1)[exact]
    received[rng.random((s, n)) < 0.05] = complex(-0.0, 0.0)
    tile = draw(st.integers(50, 9000))
    return received, points, sigma2s, tile


class TestMultiSigmaParity:
    """Batched (S, n) sweep kernels: shape invariance, tolerance, contracts."""

    @pytest.mark.parametrize("metric", ["maxlog", "logmap"])
    @pytest.mark.parametrize(
        "tier",
        [
            "numpy",
            "numpy32",
            pytest.param(
                "numba",
                marks=pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed"),
            ),
        ],
    )
    @given(sweep=_sweeps())
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_s1_calls(self, tier, metric, sweep):
        """Every row of one S-row call is byte-equal to the S=1 call on that
        row, whatever S, n and tile width; on the reference tier each row
        also matches the pure-NumPy oracle."""
        import repro.backend.numpy_backend as npb

        received, sigma2s, tile = sweep
        qam16 = qam_constellation(16)
        demapper = _DEMAPPERS[metric](qam16, backend=tier)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(npb, "MULTI_SIGMA_TILE", tile)
            multi = demapper.llrs_multi(received, sigma2s)
            rows = [demapper.llrs(row, s2) for row, s2 in zip(received, sigma2s)]
        assert multi.shape == (*received.shape, 4) and multi.dtype == np.float64
        for s, row in enumerate(rows):
            assert multi[s].tobytes() == row.tobytes()
            if tier != "numpy":
                continue
            if metric == "maxlog":
                assert row.tobytes() == _reference_maxlog(qam16, received[s], sigma2s[s]).tobytes()
            else:
                ref = _reference_logmap(qam16, received[s], sigma2s[s])
                np.testing.assert_allclose(row, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("metric", ["maxlog", "logmap"])
    @pytest.mark.parametrize(
        "tier",
        [
            "numpy",
            "numpy32",
            pytest.param(
                "numba",
                marks=pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed"),
            ),
        ],
    )
    @given(sweep=_per_row_sets())
    @settings(max_examples=40, deadline=None)
    def test_per_row_points_equal_s1_calls(self, tier, metric, sweep):
        """With an ``(S, M)`` point table, every row of the call is
        byte-equal to the S=1 call on that row with that row's own points,
        whatever the runs of sets, S, n and tile width."""
        import repro.backend.numpy_backend as npb

        received, points, sigma2s, tile = sweep
        be = backend_from_name(tier)
        bitsets = PaddedBitSets.from_bit_matrix(qam_constellation(16).bit_matrix)
        multi_fn = getattr(be, f"{metric}_llrs_multi")
        single_fn = getattr(be, f"{metric}_llrs")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(npb, "MULTI_SIGMA_TILE", tile)
            multi = multi_fn(received, points, bitsets, sigma2s)
            rows = [
                single_fn(y, pts, bitsets, s2)
                for y, pts, s2 in zip(received, points, sigma2s)
            ]
        assert multi.shape == (*received.shape, 4)
        for s, row in enumerate(rows):
            assert multi[s].tobytes() == row.tobytes()

    def test_per_row_points_shape_validated(self, qam16, sweep_received):
        received, sigma2s = sweep_received
        be = get_backend()
        bitsets = PaddedBitSets.from_bit_matrix(qam16.bit_matrix)
        table = np.repeat(qam16.points[None], received.shape[0] + 1, axis=0)
        with pytest.raises(ValueError, match="one set per row"):
            be.maxlog_llrs_multi(received, table, bitsets, sigma2s)

    def test_float32_multi_within_documented_tolerance(self, qam16, sweep_received):
        received, sigma2s = sweep_received
        m64 = MaxLogDemapper(qam16, backend="numpy").llrs_multi(received, sigma2s)
        m32 = MaxLogDemapper(qam16, backend="numpy32").llrs_multi(received, sigma2s)
        assert np.abs(m32 - m64).max() <= FLOAT32_LLR_RTOL * np.abs(m64).max()

    def test_tiling_boundaries_do_not_change_results(self, qam16, sweep_received, monkeypatch):
        import repro.backend.numpy_backend as npb

        received, sigma2s = sweep_received
        ml = MaxLogDemapper(qam16, backend="numpy")
        ref = ml.llrs_multi(received, sigma2s)
        for tile in (97, 1000, 4_000, 19_999, 10**9):  # ragged tails + single tile
            monkeypatch.setattr(npb, "MULTI_SIGMA_TILE", tile)
            assert np.array_equal(ml.llrs_multi(received, sigma2s), ref)

    def test_multi_out_parameter_is_filled_in_place(self, qam16, sweep_received):
        received, sigma2s = sweep_received
        ml = MaxLogDemapper(qam16)
        out = np.empty((5, received.shape[1], 4))
        got = ml.llrs_multi(received, sigma2s, out=out)
        assert got is out
        assert np.array_equal(out, ml.llrs_multi(received, sigma2s))

    def test_multi_out_validated(self, qam16, sweep_received):
        received, sigma2s = sweep_received
        ml = MaxLogDemapper(qam16)
        n = received.shape[1]
        with pytest.raises(ValueError, match="shape"):
            ml.llrs_multi(received, sigma2s, out=np.empty((5, n, 3)))
        with pytest.raises(ValueError, match="float64"):
            ml.llrs_multi(received, sigma2s, out=np.empty((5, n, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="contiguous"):
            ml.llrs_multi(received, sigma2s, out=np.empty((5, n, 8))[:, :, ::2])

    def test_multi_args_validated(self, qam16, sweep_received):
        received, sigma2s = sweep_received
        ml = MaxLogDemapper(qam16)
        with pytest.raises(ValueError, match=r"\(S, n\)"):
            ml.llrs_multi(received[0], sigma2s)
        with pytest.raises(ValueError, match="one entry per received row"):
            ml.llrs_multi(received, sigma2s[:-1])
        with pytest.raises(ValueError, match="positive"):
            ml.llrs_multi(received, np.array([0.1, 0.2, -0.1, 0.1, 0.1]))

    def test_demap_bits_multi_matches_per_row(self, qam16, sweep_received):
        received, sigma2s = sweep_received
        ml = MaxLogDemapper(qam16)
        bits = ml.demap_bits_multi(received)
        for s in range(sigma2s.size):
            assert np.array_equal(bits[s], ml.demap_bits(received[s], sigma2s[s]))

    def test_hard_fast_path_matches_llr_threshold(self, qam16, received):
        # the σ²-independent dispatch returns exactly the thresholded LLRs
        ml = MaxLogDemapper(qam16)
        via_llrs = (ml.llrs(received, 0.02) > 0).astype(np.int8)
        got = ml.demap_bits(received, 0.02)
        assert np.array_equal(got, via_llrs)
        assert got.dtype == via_llrs.dtype

    def test_squared_distances_matches_naive(self, qam16, received):
        d = HardDemapper(qam16, backend="numpy").squared_distances(received)
        diff = received[:, None] - qam16.points[None, :]
        assert np.array_equal(d, (diff.real**2 + diff.imag**2))
        assert d.dtype == np.float64


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestNumbaParity:
    def test_maxlog_hard_decisions_bit_identical(self, qam16, received):
        bnp = MaxLogDemapper(qam16, backend="numpy").demap_bits(received, 0.02)
        bjit = MaxLogDemapper(qam16, backend="numba").demap_bits(received, 0.02)
        assert np.array_equal(bnp, bjit)

    def test_hard_indices_bit_identical(self, qam16, received):
        inp = HardDemapper(qam16, backend="numpy").demap_indices(received)
        ijit = HardDemapper(qam16, backend="numba").demap_indices(received)
        assert np.array_equal(inp, ijit)

    def test_logmap_close(self, qam16, received):
        rnp = ExactLogMAPDemapper(qam16, backend="numpy").llrs(received, 0.02)
        rjit = ExactLogMAPDemapper(qam16, backend="numba").llrs(received, 0.02)
        np.testing.assert_allclose(rjit, rnp, rtol=1e-10, atol=1e-10)


class TestWorkspace:
    def test_same_key_same_shape_reuses_buffer(self):
        ws = Workspace()
        a = ws.scratch("a", (16, 4))
        b = ws.scratch("a", (16, 4))
        assert a is b
        hits, misses = ws.stats
        assert (hits, misses) == (1, 1)

    def test_shape_change_reallocates(self):
        ws = Workspace()
        a = ws.scratch("a", (16, 4))
        b = ws.scratch("a", (8, 4))
        assert a is not b and b.shape == (8, 4)

    def test_dtype_keyed(self):
        ws = Workspace()
        a = ws.scratch("a", (4,), np.float64)
        b = ws.scratch("a", (4,), np.float32)
        assert a.dtype == np.float64 and b.dtype == np.float32

    def test_thread_isolation(self):
        import threading

        ws = Workspace()
        main_buf = ws.scratch("x", (32,))
        seen = {}

        def worker():
            seen["buf"] = ws.scratch("x", (32,))

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["buf"] is not main_buf

    def test_steady_state_allocates_nothing(self, qam16, received):
        ml = MaxLogDemapper(qam16, backend="numpy")
        out = np.empty((received.size, 4))
        ml.llrs(received, 0.02, out=out)  # warm the workspace
        ws = ml.backend.workspace
        h0, m0 = ws.stats
        for _ in range(3):
            ml.llrs(received, 0.02, out=out)
        h1, m1 = ws.stats
        assert m1 == m0  # no new allocations in steady state
        assert h1 > h0


class TestPaddedBitSets:
    def test_rows_partition_the_point_set(self, qam16):
        bs = PaddedBitSets.from_bit_matrix(qam16.bit_matrix)
        for j in range(bs.k):
            z, o = set(bs.row(j, 0).tolist()), set(bs.row(j, 1).tolist())
            assert z | o == set(range(16)) and not (z & o)

    def test_padding_repeats_a_member(self):
        # 3 bits/symbol PSK-like labels: uneven sets still pad validly
        bm = np.array([[0, 0], [0, 1], [1, 1], [1, 1]])
        bs = PaddedBitSets.from_bit_matrix(bm)
        assert bs.table.shape == (4, 3)
        for r in range(4):
            padded = bs.table[r, bs.sizes[r]:]
            assert all(p in bs.table[r, : bs.sizes[r]] for p in padded)


    @given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equal_tables_imply_equal_bit_matrices(self, k, seed):
        """The table determines the bit matrix (row ``k+j`` lists exactly the
        points whose bit ``j`` is 1), so requests batched on one table share
        one ``bit_matrix``: any labelling, rebuilt from its table, is itself,
        and two labellings differ iff their tables do."""
        rng = np.random.default_rng(seed)
        shifts = np.arange(k - 1, -1, -1)
        labels = [np.arange(1 << k), rng.permutation(1 << k), rng.permutation(1 << k)]
        tables = []
        for bm in ((lab[:, None] >> shifts) & 1 for lab in labels):
            bs = PaddedBitSets.from_bit_matrix(bm)
            rebuilt = np.zeros_like(bm)
            for j in range(bs.k):
                rebuilt[bs.row(j, 1), j] = 1
            assert np.array_equal(rebuilt, bm)
            tables.append((bs.table.tobytes(), bm.tobytes()))
        for ta, ba in tables:
            for tb, bb in tables:
                assert (ta == tb) == (ba == bb)

    def test_rows_are_the_unpadded_python_int_sets(self, qam16):
        bm = np.array([[0, 0], [0, 1], [1, 1], [1, 1]])
        for bs in (PaddedBitSets.from_bit_matrix(qam16.bit_matrix), PaddedBitSets.from_bit_matrix(bm)):
            assert len(bs.rows) == 2 * bs.k
            for r, row in enumerate(bs.rows):
                assert all(type(i) is int for i in row)
                assert row == tuple(bs.table[r, : bs.sizes[r]].tolist())


class TestParallelSimulator:
    def _demap(self, qam16):
        return functools.partial(MaxLogDemapper(qam16).demap_bits, sigma2=0.05)

    def test_worker_count_invariance(self, qam16):
        fac = AWGNFactory(8.0, 4)
        demap = self._demap(qam16)
        kw = dict(rng=7, batch_size=8192, channel_factory=fac)
        r1 = simulate_ber(qam16, None, demap, 50_000, n_workers=1, **kw)
        r2 = simulate_ber(qam16, None, demap, 50_000, n_workers=2, **kw)
        r3 = simulate_ber(qam16, None, demap, 50_000, n_workers=3, **kw)
        assert r1 == r2 == r3
        assert r1.bits == 50_000 * 4

    def test_worker_count_invariance_with_early_stop(self, qam16):
        fac = AWGNFactory(6.0, 4)
        demap = self._demap(qam16)
        kw = dict(rng=3, batch_size=4096, channel_factory=fac, max_errors=80)
        r1 = simulate_ber(qam16, None, demap, 400_000, n_workers=1, **kw)
        r2 = simulate_ber(qam16, None, demap, 400_000, n_workers=2, **kw)
        assert r1 == r2
        assert r1.bit_errors >= 80
        assert r1.symbols < 400_000  # actually stopped early

    def test_chunked_mode_is_seed_reproducible(self, qam16):
        fac = AWGNFactory(8.0, 4)
        demap = self._demap(qam16)
        a = simulate_ber(qam16, None, demap, 30_000, rng=42, batch_size=8192, channel_factory=fac)
        b = simulate_ber(qam16, None, demap, 30_000, rng=42, batch_size=8192, channel_factory=fac)
        c = simulate_ber(qam16, None, demap, 30_000, rng=43, batch_size=8192, channel_factory=fac)
        assert a == b
        assert a != c

    def test_api_selected_tier_reaches_worker_processes(self, qam16):
        # regression: workers don't inherit set_backend state, so the parent
        # ships its resolved tier into each chunk; counts must stay invariant
        demap = functools.partial(MaxLogDemapper(qam16).demap_bits, sigma2=0.05)
        fac = AWGNFactory(8.0, 4)
        kw = dict(rng=13, batch_size=8192, channel_factory=fac)
        with use_backend("numpy32"):
            r1 = simulate_ber(qam16, None, demap, 20_000, n_workers=1, **kw)
            r2 = simulate_ber(qam16, None, demap, 20_000, n_workers=2, **kw)
        assert r1 == r2

    def test_backend_pinned_demapper_is_picklable_to_workers(self, qam16):
        # regression: the workspace's thread-local must not leak into pickles
        demap = functools.partial(
            MaxLogDemapper(qam16, backend="numpy32").demap_bits, sigma2=0.05
        )
        fac = AWGNFactory(8.0, 4)
        kw = dict(rng=5, batch_size=8192, channel_factory=fac)
        r1 = simulate_ber(qam16, None, demap, 20_000, n_workers=1, **kw)
        r2 = simulate_ber(qam16, None, demap, 20_000, n_workers=2, **kw)
        assert r1 == r2

    def test_channel_and_factory_together_rejected(self, qam16):
        from repro.channels import AWGNChannel

        with pytest.raises(ValueError, match="not both"):
            simulate_ber(
                qam16, AWGNChannel(8.0, 4), self._demap(qam16), 1000,
                channel_factory=AWGNFactory(10.0, 4),
            )

    def test_workers_without_factory_raises(self, qam16):
        from repro.channels import AWGNChannel

        with pytest.raises(ValueError, match="channel_factory"):
            simulate_ber(qam16, AWGNChannel(8.0, 4), self._demap(qam16), 1000, n_workers=2)

    def test_missing_channel_raises(self, qam16):
        with pytest.raises(ValueError, match="channel is required"):
            simulate_ber(qam16, None, self._demap(qam16), 1000)

    def test_sweep_snr_parallel_matches_sequential(self, qam16):
        demap = self._demap(qam16)

        def runner(snr_db):
            return simulate_ber(
                qam16, None, demap, 20_000, rng=11, batch_size=8192,
                channel_factory=AWGNFactory(snr_db, 4),
            )

        snrs = [4.0, 6.0, 8.0]
        seq = sweep_snr(snrs, runner)
        par = sweep_snr(snrs, runner, n_workers=3)
        assert list(seq) == list(par) == snrs
        assert all(seq[s] == par[s] for s in snrs)


# -- viterbi_decode kernel (the serving coded path's ACS) ---------------------
def _viterbi_fixture(code, n_blocks=6, n_info=64, seed=77):
    """Random LLR blocks for one code."""
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(n_info + code.k - 1, code.n_out)) * 4.0
        for _ in range(n_blocks)
    ]


@st.composite
def _viterbi_batches(draw):
    """A random feed-forward code plus an ``(R, T, n_out)`` LLR stack.

    LLRs mix Gaussian values with small integers and signed zeros, so
    exact arrival ties (the first-wins tie-break) are common.
    """
    k = draw(st.integers(2, 8))
    n_out = draw(st.integers(2, 3))
    gens = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=n_out, max_size=n_out))
    code = ConvolutionalCode(tuple(gens), k)
    r = draw(st.integers(1, 8))
    t = draw(st.integers(k, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    llrs = rng.normal(size=(r, t, n_out)) * 3.0
    ties = rng.random(llrs.shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    llrs[ties] = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=int(ties.sum()))
    return code, llrs


def _bytes(metric) -> bytes:
    """A path metric's IEEE bit pattern, so +0.0 and -0.0 differ."""
    return np.float64(metric).tobytes()


class _ArrivalSpy:
    """A backend stand-in that keeps a copy of the arrival branch metrics
    ``grouped_viterbi_decode`` hands to the kernel."""

    def __init__(self, backend):
        self.backend = backend
        self.arrivals = None

    def scratch(self, *args, **kwargs):
        return self.backend.scratch(*args, **kwargs)

    def viterbi_decode(self, arrivals, src, *, key):
        self.arrivals = arrivals.copy()
        return self.backend.viterbi_decode(arrivals, src, key=key)


class TestViterbiParity:
    """Every tier's ``viterbi_decode`` is bit-identical to the scalar
    reference ACS (the ``viterbi_reference`` oracle) — decoded bits AND
    path metric, row by row, however rows are batched.  This is the
    contract that lets the serving engine dispatch the coded path through
    the kernel without entering the determinism suite's blast radius."""

    CODES = [
        ((0b111, 0b101), 3),            # classic K=3 (7,5)
        ((0b10011, 0b11101), 5),        # K=5 rate-1/2
        ((0b1111001, 0b1011011, 0b1100101), 7),  # K=7 rate-1/3
    ]

    @pytest.mark.parametrize("tier", ["numpy", "numpy32"])
    @pytest.mark.parametrize("generators,K", CODES)
    def test_bit_identical_to_reference(self, tier, generators, K, viterbi_reference):
        code = ConvolutionalCode(generators, K)
        be = backend_from_name(tier)
        for llrs in _viterbi_fixture(code):
            ref_bits, ref_metric = viterbi_reference(code, llrs)
            got = code.decode_soft(llrs, backend=be)
            assert np.array_equal(got.data, ref_bits)
            assert _bytes(got.path_metric) == _bytes(ref_metric)

    @pytest.mark.parametrize("tier", ["numpy", "numpy32"])
    def test_noiseless_roundtrip_exact(self, tier):
        code = ConvolutionalCode((0b111, 0b101), 3)
        be = backend_from_name(tier)
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, 120).astype(np.int8)
        pseudo = (2.0 * code.encode(data).astype(np.float64) - 1.0) * 4.0
        res = code.decode_soft(pseudo.reshape(-1, 2), backend=be)
        assert np.array_equal(res.data, data)

    def test_grouped_dispatch_matches_solo(self, viterbi_reference):
        """grouped_viterbi_decode rows == the oracle on each block alone."""
        code = ConvolutionalCode((0b111, 0b101), 3)
        stack = np.stack(_viterbi_fixture(code, n_blocks=5))
        bits, metrics = grouped_viterbi_decode(code, stack, backend=backend_from_name("numpy"))
        assert bits.shape == stack.shape[:2] and bits.dtype == np.int8
        assert metrics.shape == (5,)
        tail = code.k - 1
        for row, llrs in enumerate(stack):
            ref_bits, ref_metric = viterbi_reference(code, llrs)
            assert np.array_equal(bits[row, : bits.shape[1] - tail], ref_bits)
            assert _bytes(metrics[row]) == _bytes(ref_metric)

    def test_branch_metric_shape_validated(self):
        be = backend_from_name("numpy")
        src = np.zeros((4, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            be.viterbi_decode(np.zeros((5, 1, 4, 3)), src)
        with pytest.raises(ValueError):
            be.viterbi_decode(np.zeros((5, 4, 2)), src)
        with pytest.raises(ValueError):
            be.viterbi_decode(np.zeros((5, 1, 4, 2)), np.zeros((3, 2), np.int64))

    @pytest.mark.parametrize("tier", ["numpy", "numpy32"])
    @given(batch=_viterbi_batches())
    @settings(max_examples=40, deadline=None)
    def test_label_metrics_equal_source_ordered_einsum(self, tier, batch):
        """The arrival branch metrics the kernel receives (one metric per
        output label, gathered through the label table) are byte-equal to
        the oracle's per-transition contraction read in arrival order,
        signed zeros included."""
        code, llrs = batch
        spy = _ArrivalSpy(backend_from_name(tier))
        grouped_viterbi_decode(code, llrs, backend=spy)
        src = code.trellis_tables()[0]
        outputs = code._outputs.astype(np.float64)
        bm = np.stack([np.einsum("tj,sbj->tsb", row, outputs) for row in llrs])
        ns = np.arange(code.n_states)
        want = bm[:, :, src, (ns & 1)[:, None]].transpose(1, 0, 2, 3)
        assert spy.arrivals.dtype == np.float64
        assert spy.arrivals.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("tier", ["numpy", "numpy32"])
    @given(batch=_viterbi_batches())
    @settings(max_examples=40, deadline=None)
    def test_every_row_matches_reference(self, tier, batch, viterbi_reference):
        """Random codes (K in [2, 8]), batch widths and tie-heavy LLRs:
        each row of one batched launch equals the oracle on that row."""
        code, llrs = batch
        bits, metrics = grouped_viterbi_decode(code, llrs, backend=backend_from_name(tier))
        n_info = llrs.shape[1] - (code.k - 1)
        for row in range(llrs.shape[0]):
            ref_bits, ref_metric = viterbi_reference(code, llrs[row])
            assert np.array_equal(bits[row, :n_info], ref_bits)
            assert _bytes(metrics[row]) == _bytes(ref_metric)

    @given(batch=_viterbi_batches(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_permutes_outputs(self, batch, seed):
        """A row's result never depends on which rows share its launch."""
        code, llrs = batch
        perm = np.random.default_rng(seed).permutation(llrs.shape[0])
        be = backend_from_name("numpy")
        bits, metrics = grouped_viterbi_decode(code, llrs, backend=be)
        p_bits, p_metrics = grouped_viterbi_decode(code, llrs[perm], backend=be)
        assert np.array_equal(p_bits, bits[perm])
        assert np.array_equal(p_metrics, metrics[perm])


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
class TestNumbaViterbiParity:
    @pytest.mark.parametrize("generators,K", TestViterbiParity.CODES)
    def test_bit_identical_to_reference(self, generators, K, viterbi_reference):
        code = ConvolutionalCode(generators, K)
        be = backend_from_name("numba")
        for llrs in _viterbi_fixture(code):
            ref_bits, ref_metric = viterbi_reference(code, llrs)
            got = code.decode_soft(llrs, backend=be)
            assert np.array_equal(got.data, ref_bits)
            assert _bytes(got.path_metric) == _bytes(ref_metric)

    @given(batch=_viterbi_batches())
    @settings(max_examples=25, deadline=None)
    def test_batched_rows_match_numpy_tier(self, batch):
        code, llrs = batch
        got = grouped_viterbi_decode(code, llrs, backend=backend_from_name("numba"))
        want = grouped_viterbi_decode(code, llrs, backend=backend_from_name("numpy"))
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
