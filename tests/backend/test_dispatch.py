"""Group-by-constellation batched dispatch: grouping, parity, allocation."""

import numpy as np
import pytest

from repro.backend import backend_from_name, get_backend
from repro.backend.dispatch import DemapRequest, batched_maxlog_llrs, group_requests
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
