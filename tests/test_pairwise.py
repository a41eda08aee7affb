import numpy as np

from ranklosslab import SampleBatch, StepConfig, partition, step_value
from ranklosslab._pairwise import (
    RankView,
    column_counts,
    diff_block,
    diffs,
    rank_counts,
    rank_denominators,
)
from helpers import random_batch_arrays


class TestPairwiseKernel:
    def test_layout_positives_then_negatives(self):
        scores = np.array([0.5, 2.0, -1.0, 3.0])
        pos, neg = np.array([1, 3]), np.array([0, 2])
        block = diffs(scores, pos, neg)
        np.testing.assert_array_equal(block, [[0.0, 1.0, -1.5, -3.0], [-1.0, 0.0, -2.5, -4.0]])

    def test_heaviside_denominators_are_rank_counts_on_ties(self):
        # The denominator of positive i is its 1-based rank among valid
        # samples when ties count against it: 1 + #{k != i: s_k >= s_i}.
        rng = np.random.default_rng(11)
        for _ in range(100):
            scores, labels = random_batch_arrays(rng, max_n=40, max_pos=8, tie_prob=1.0)
            pos, neg = partition(SampleBatch(scores, labels))
            denom = rank_denominators(step_value(diffs(scores, pos, neg), StepConfig.heaviside()))
            valid = np.concatenate([pos, neg]).tolist()
            counts = [1 + sum(1 for k in valid if k != i and scores[k] >= scores[i]) for i in pos]
            np.testing.assert_array_equal(denom, counts)

    def test_negative_block_is_the_negative_columns(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            scores, labels = random_batch_arrays(rng, max_n=40, max_pos=8, tie_prob=0.5)
            pos, neg = partition(SampleBatch(scores, labels))
            block = diff_block(scores, pos, neg)
            assert block.shape == (pos.shape[0], neg.shape[0])
            np.testing.assert_array_equal(block, diffs(scores, pos, neg)[:, pos.shape[0]:])


class TestRankCounts:
    def test_counts_on_ties_and_signed_zeros(self):
        # Ties count against the positive, and -0.0 ties with 0.0.
        scores = np.array([0.0, 1.0, -0.0, 1.0, 2.0, -1.0, 0.5])
        labels = np.array([1, 1, 0, 0, 0, 0, -1])
        pos, neg = partition(SampleBatch(scores, labels))
        num, denom = rank_counts(RankView(scores, pos, neg))
        col = column_counts(RankView(scores, pos, neg))
        np.testing.assert_array_equal(num, [3.0, 2.0])
        np.testing.assert_array_equal(denom, [5.0, 3.0])
        np.testing.assert_array_equal(col, [1.0, 2.0, 2.0, 0.0])
        assert num.dtype == denom.dtype == col.dtype == np.float64

    def test_overflowing_differences_keep_their_sign(self):
        scores = np.array([-1.7e308, 1.7e308, 1.7e308, -1.7e308])
        labels = np.array([1, 1, 0, 0])
        pos, neg = partition(SampleBatch(scores, labels))
        with np.errstate(over="ignore"):
            f = step_value(diffs(scores, pos, neg), StepConfig.heaviside())
        num, denom = rank_counts(RankView(scores, pos, neg))
        np.testing.assert_array_equal(num, f[:, 2:].sum(axis=1))
        np.testing.assert_array_equal(denom, rank_denominators(f))
        cols = column_counts(RankView(scores, pos, neg))
        np.testing.assert_array_equal(cols, f[:, 2:].sum(axis=0))
