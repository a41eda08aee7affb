import numpy as np

from ranklosslab import SampleBatch, StepConfig, partition, step_value
from ranklosslab._pairwise import diffs, diff_block, rank_denominators
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
