"""Group-by-labelling batched dispatch: grouping, parity, allocation."""

import numpy as np
import pytest

from repro.backend import PaddedBitSets, backend_from_name, get_backend
from repro.backend.dispatch import (
    DemapRequest,
    batched_maxlog_llrs,
    group_requests,
    point_runs,
)
from repro.modulation import MaxLogDemapper, qam_constellation


@pytest.fixture
def qam16():
    return qam_constellation(16)


@pytest.fixture
def psk4():
    from repro.modulation import psk_constellation

    return psk_constellation(4)


def _request(const, rng, n, sigma2):
    ml = MaxLogDemapper(const)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    return DemapRequest(received=y, points=const.points, bitsets=ml.bitsets, sigma2=sigma2)


class TestGrouping:
    def test_same_constellation_same_length_batches(self, qam16):
        rng = np.random.default_rng(0)
        reqs = [_request(qam16, rng, 64, 0.1) for _ in range(5)]
        assert group_requests(reqs) == [[0, 1, 2, 3, 4]]

    def test_sigma2_never_splits_a_group(self, qam16):
        rng = np.random.default_rng(0)
        reqs = [_request(qam16, rng, 64, 0.05 * (i + 1)) for i in range(4)]
        assert group_requests(reqs) == [[0, 1, 2, 3]]

    def test_length_splits(self, qam16):
        rng = np.random.default_rng(0)
        reqs = [_request(qam16, rng, n, 0.1) for n in (64, 32, 64, 32)]
        assert group_requests(reqs) == [[0, 2], [1, 3]]

    def test_constellation_splits(self, qam16, psk4):
        rng = np.random.default_rng(0)
        reqs = [
            _request(qam16, rng, 64, 0.1),
            _request(psk4, rng, 64, 0.1),
            _request(qam16, rng, 64, 0.1),
        ]
        assert group_requests(reqs) == [[0, 2], [1]]

    def test_point_sets_share_a_group_in_runs(self, qam16):
        # same labelling and length, different points: one group, each set's
        # requests one consecutive run in order of the set's first request
        rng = np.random.default_rng(0)
        rot = qam16.rotated(0.1)
        consts = [qam16, rot, qam16, qam16.rotated(0.2), rot]
        reqs = [_request(c, rng, 64, 0.1) for c in consts]
        assert group_requests(reqs) == [[0, 2, 1, 4, 3]]
        ordered = [reqs[i] for i in group_requests(reqs)[0]]
        assert point_runs(ordered) == [(0, 2), (2, 4), (4, 5)]

    def test_labelling_splits(self, qam16):
        # same point count, a different bit labelling: never one launch
        rng = np.random.default_rng(0)
        perm = rng.permutation(16)
        relabelled = PaddedBitSets.from_bit_matrix(qam16.bit_matrix[perm])
        reqs = [_request(qam16, rng, 64, 0.1) for _ in range(3)]
        reqs[1] = DemapRequest(
            received=reqs[1].received, points=qam16.points, bitsets=relabelled, sigma2=0.1
        )
        assert group_requests(reqs) == [[0, 2], [1]]

    def test_content_based_key_merges_equal_point_sets(self, qam16):
        # two independently built but identical constellations share a group
        rng = np.random.default_rng(0)
        other = qam_constellation(16)
        reqs = [_request(qam16, rng, 64, 0.1), _request(other, rng, 64, 0.2)]
        assert group_requests(reqs) == [[0, 1]]


class TestParity:
    def test_batched_single_group_rows(self, qam16):
        rng = np.random.default_rng(3)
        reqs = [_request(qam16, rng, 96, 0.02 * (i + 1)) for i in range(6)]
        llrs3 = batched_maxlog_llrs(reqs)
        assert llrs3.shape == (6, 96, 4)
        be = get_backend()
        for req, row in zip(reqs, llrs3):
            assert np.array_equal(row, be.maxlog_llrs(req.received, req.points, req.bitsets, req.sigma2))

    @pytest.mark.parametrize("tier", ["numpy", "numpy32"])
    def test_batched_mixed_point_sets_rows(self, qam16, tier):
        # rows on different point sets: each is the one-row call on its own
        rng = np.random.default_rng(5)
        be = backend_from_name(tier)
        consts = [qam16, qam16, qam16.rotated(0.05), qam16.rotated(-0.3), qam16.rotated(-0.3)]
        reqs = [_request(c, rng, 80, 0.03 * (i + 1)) for i, c in enumerate(consts)]
        llrs3 = batched_maxlog_llrs(reqs, backend=be).copy()
        for req, row in zip(reqs, llrs3):
            solo = be.maxlog_llrs(req.received, req.points, req.bitsets, req.sigma2)
            assert row.tobytes() == solo.tobytes()

    def test_float32_tier_runs(self, qam16):
        rng = np.random.default_rng(9)
        reqs = [_request(qam16, rng, 64, 0.1) for _ in range(3)]
        got = batched_maxlog_llrs(reqs, backend=backend_from_name("numpy32")).copy()
        ref = batched_maxlog_llrs(reqs, backend=backend_from_name("numpy"))
        assert np.allclose(got, ref, atol=1e-3 * np.abs(ref).max())


class TestAllocationAndValidation:
    def test_steady_state_allocates_nothing(self, qam16):
        rng = np.random.default_rng(1)
        be = get_backend()
        reqs = [_request(qam16, rng, 128, 0.05 * (i + 1)) for i in range(4)]
        batched_maxlog_llrs(reqs, backend=be)  # warm the workspace
        hits0, misses0 = be.workspace.stats
        batched_maxlog_llrs(reqs, backend=be)
        hits1, misses1 = be.workspace.stats
        assert misses1 == misses0  # no new scratch buffers
        assert hits1 > hits0

    def test_mixed_sets_steady_state_allocates_nothing(self, qam16):
        rng = np.random.default_rng(2)
        be = get_backend()
        consts = [qam16, qam16.rotated(0.1), qam16.rotated(0.2)]
        reqs = [_request(c, rng, 128, 0.1) for c in consts]
        batched_maxlog_llrs(reqs, backend=be)  # warm the workspace
        misses0 = be.workspace.stats[1]
        batched_maxlog_llrs(reqs, backend=be)
        assert be.workspace.stats[1] == misses0

    def test_empty_batched_rejected(self):
        with pytest.raises(ValueError, match="at least one request"):
            batched_maxlog_llrs([])

    def test_ragged_group_rejected(self, qam16):
        rng = np.random.default_rng(1)
        reqs = [_request(qam16, rng, 64, 0.1), _request(qam16, rng, 32, 0.1)]
        with pytest.raises(ValueError, match="length"):
            batched_maxlog_llrs(reqs)

    def test_bad_sigma2_rejected(self, qam16):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="sigma2"):
            _request(qam16, rng, 64, 0.0)
