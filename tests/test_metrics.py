"""Ranking metrics: precision at depth, average precision, alpha weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnom.metrics import (
    NominationList,
    alpha_weights,
    average_precision,
    mean_average_precision,
    precision_at_depth,
    rank_with_ties,
)


def make_list(order, seed_count=0):
    return NominationList(order=np.asarray(order), seed_count=seed_count)


def random_list_and_truth(rng, max_n=12):
    n = int(rng.integers(2, max_n + 1))
    n1 = int(rng.integers(1, n + 1))
    truth = np.full(n, 2)
    truth[rng.choice(n, size=n1, replace=False)] = 1
    order = rng.permutation(n)
    return make_list(order), truth, n1


class TestRankWithTies:
    def test_rounding_does_not_order_a_tie_group(self):
        # 0.3 and 0.1 + 0.2 differ in the last bit; ids 7, 3, 5 tie
        vertices = np.array([7, 3, 5, 9, 4])
        keys = np.array([0.3, 0.1 + 0.2, 0.3, 0.25, 0.3 + 1e-6])
        assert rank_with_ties(vertices, keys).tolist() == [9, 3, 5, 7, 4]

    def test_chained_gaps_join_one_group(self):
        vertices = np.array([2, 1, 0])
        keys = np.array([0.0, 0.6e-9, 1.2e-9])
        assert rank_with_ties(vertices, keys).tolist() == [0, 1, 2]


class TestNominationList:
    def test_caller_order_stays_writeable(self):
        order = np.array([2, 0, 1])
        nomination = NominationList(order=order, seed_count=0)
        assert order.flags.writeable and not nomination.order.flags.writeable

    def test_must_be_permutation(self):
        with pytest.raises(ValueError):
            make_list([0, 0, 1])
        with pytest.raises(ValueError):
            make_list([1, 2, 3], seed_count=0)

    def test_positions_offset_by_seeds(self):
        lst = make_list([4, 2, 3], seed_count=2)
        assert lst.positions().tolist() == [2, 0, 1]


class TestPrecisionAtDepth:
    def test_all_hits(self):
        truth = np.array([1, 1, 2, 2])
        assert precision_at_depth(make_list([0, 1, 2, 3]), truth, 2) == 1.0

    def test_interleaved(self):
        truth = np.array([1, 2, 1])
        lst = make_list([0, 1, 2])
        assert precision_at_depth(lst, truth, 2) == 0.5

    def test_no_hits(self):
        truth = np.array([2, 2, 2])
        assert precision_at_depth(make_list([0, 1, 2]), truth, 3) == 0.0

    def test_depth_out_of_range(self):
        truth = np.array([1, 2])
        with pytest.raises(ValueError):
            precision_at_depth(make_list([0, 1]), truth, 3)

    def test_full_depth_equals_prevalence(self):
        rng = np.random.default_rng(0)
        lst, truth, n1 = random_list_and_truth(rng)
        n = len(truth)
        assert precision_at_depth(lst, truth, n) == pytest.approx(n1 / n)


class TestAveragePrecision:
    def test_perfect_list(self):
        truth = np.array([1, 1, 2, 2])
        assert average_precision(make_list([0, 1, 2, 3]), truth, 2) == 1.0

    def test_worst_list(self):
        truth = np.array([1, 1, 2, 2])
        assert average_precision(make_list([2, 3, 0, 1]), truth, 2) == 0.0

    def test_alternating(self):
        # hit, miss, hit, miss with n1 = 2: (1 + 1/2) / 2
        truth = np.array([1, 2, 1, 2])
        assert average_precision(make_list([0, 1, 2, 3]), truth, 2) == pytest.approx(0.75)


class TestAlphaWeights:
    def test_small_case(self):
        w = alpha_weights(4, 2).alpha
        assert np.allclose(w, [0.75, 0.25, 0.0, 0.0])

    def test_single_target(self):
        w = alpha_weights(5, 1).alpha
        assert np.allclose(w, [1.0, 0.0, 0.0, 0.0, 0.0])

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=50, deadline=None)
    def test_sum_to_one_and_nonincreasing(self, n, data):
        n1 = data.draw(st.integers(1, n))
        w = alpha_weights(n, n1).alpha
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(w) <= 1e-15).all()

    def test_identity_with_average_precision(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lst, truth, n1 = random_list_and_truth(rng)
            w = alpha_weights(len(truth), n1).alpha
            hits = (truth[lst.positions()] == 1).astype(float)
            assert average_precision(lst, truth, n1) == pytest.approx(
                float(w @ hits), abs=1e-12
            )


class TestMeanAveragePrecision:
    def test_constant(self):
        mean, se = mean_average_precision([0.5, 0.5, 0.5])
        assert mean == 0.5
        assert se == 0.0

    def test_two_point(self):
        mean, se = mean_average_precision([0.0, 1.0])
        assert mean == 0.5
        assert se == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([0.5, 1.2])
