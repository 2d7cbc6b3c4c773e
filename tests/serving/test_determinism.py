"""Serving determinism: per-session outputs are a pure function of the
session's own traffic — invariant to micro-batch width, queue depth,
retrain worker threads and the other sessions sharing the engine — for
plain and coded sessions alike.

Each pinned point is served through ``oracle.check`` and compared with the
one sequential oracle (``oracle.py``); ``test_differential.py`` draws the
rest of the knob product at random.
"""

import pytest

from oracle import PLAIN, PLAIN_CODED, Draw, assert_scenario_fires, check


class TestServingDeterminism:
    def test_triggers_actually_fire(self):
        assert_scenario_fires(PLAIN)

    @pytest.mark.parametrize("max_batch", [2, 3, 64])
    def test_invariant_to_micro_batch_width(self, max_batch):
        check(Draw(PLAIN, max_batch=max_batch, queue_depth=1))

    @pytest.mark.parametrize("queue_depth", [2, 4, 16])
    def test_invariant_to_queue_depth(self, queue_depth):
        check(Draw(PLAIN, max_batch=64, queue_depth=queue_depth))

    @pytest.mark.parametrize("retrain_workers", [1, 2, 4])
    def test_invariant_to_worker_threads(self, retrain_workers):
        check(Draw(PLAIN, max_batch=64, queue_depth=4, workers=retrain_workers))

    def test_repeated_run_is_identical(self):
        """A fresh run in the oracle's own configuration reproduces it."""
        check(Draw(PLAIN, max_batch=1, queue_depth=1))

    def test_unrelated_sessions_do_not_perturb(self):
        """Extra sessions joining, leaving and faulting around the core
        fleet change none of its outputs."""
        check(Draw(PLAIN, churn=7))
        check(Draw(PLAIN, faults=True))


class TestCodedServingDeterminism:
    """Decoded-bit timelines (CRC verdicts, post-FEC BER) and the trigger
    timeline of coded sessions obey the same contract."""

    def test_coded_path_actually_exercised(self):
        assert_scenario_fires(PLAIN_CODED)

    @pytest.mark.parametrize("max_batch", [2, 3, 64])
    def test_invariant_to_micro_batch_width(self, max_batch):
        check(Draw(PLAIN_CODED, max_batch=max_batch, queue_depth=1))

    @pytest.mark.parametrize("queue_depth", [4, 16])
    def test_invariant_to_queue_depth(self, queue_depth):
        check(Draw(PLAIN_CODED, max_batch=64, queue_depth=queue_depth))

    @pytest.mark.parametrize("retrain_workers", [1, 4])
    def test_invariant_to_worker_threads(self, retrain_workers):
        check(Draw(PLAIN_CODED, max_batch=64, queue_depth=4, workers=retrain_workers))
