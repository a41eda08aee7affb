import numpy as np
import pytest

from ranklosslab import (
    RankingDataset,
    SampleBatch,
    aggregate_batches,
    ap_loss,
    grad_bruteforce,
    partition,
)


class TestSampleBatch:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            SampleBatch([1.0, 2.0], [1])

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="labels must be"):
            SampleBatch([1.0, 2.0], [1, 2])

    def test_group_ids_default_to_zero(self):
        b = SampleBatch([1.0, 2.0], [1, 0])
        assert b.group_ids.tolist() == [0, 0]

    def test_empty_batch(self):
        b = SampleBatch([], [])
        assert b.n == 0

    @pytest.mark.parametrize("labels", [[1, 0.5, -0.9], [1, 0, np.nan], [1, 0, np.inf]])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels):
        # A cast to int64 would truncate 0.5 and -0.9 to valid labels 0.
        with pytest.raises(ValueError, match="labels must be whole numbers"):
            SampleBatch([0.1, 0.2, 0.3], labels)

    def test_group_ids_that_are_not_whole_numbers_rejected(self):
        match = r"group_ids must be whole numbers, found \[0.5, 1.7\]"
        with pytest.raises(ValueError, match=match):
            SampleBatch([0.1, 0.2], [1, 0], [0.5, 1.7])
        with pytest.raises(ValueError, match="group_ids must be whole numbers"):
            RankingDataset(np.eye(2), [1, 0], group_ids=[0, np.nan])

    def test_whole_floats_are_labels_and_group_ids(self):
        b = SampleBatch([0.1, 0.2, 0.3], [1.0, 0.0, -1.0], [2.0, 0.0, -1.0])
        assert b.labels.tolist() == [1, 0, -1] and b.group_ids.tolist() == [2, 0, -1]
        assert b.labels.dtype == b.group_ids.dtype == np.int64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # A NaN score would otherwise read as a perfect ranking (loss 0).
        with pytest.raises(ValueError, match="scores must be finite"):
            SampleBatch([bad, 0.5, 0.1], [1, 0, 0])


class TestRankingDataset:
    def test_shares_the_batch_label_check(self):
        with pytest.raises(ValueError, match=r"labels must be in \{-1, 0, 1\}, found \[2\]"):
            RankingDataset(np.eye(2), [1, 2])

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError, match="features must be finite"):
            RankingDataset(np.array([[0.0, np.nan], [1.0, 0.0]]), [1, 0])

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="features must be 2-dimensional"):
            RankingDataset(np.zeros(3), [1, 0, 0])
        with pytest.raises(ValueError, match="length mismatch"):
            RankingDataset(np.eye(3), [1, 0])
        with pytest.raises(ValueError, match="group_ids must match"):
            RankingDataset(np.eye(2), [1, 0], group_ids=[0])

    def test_partition_reads_dataset_labels(self):
        pos, neg = partition(RankingDataset(np.zeros((4, 2)), [0, 1, -1, 0]))
        assert pos.tolist() == [1]
        assert neg.tolist() == [0, 3]


class TestPartition:
    def test_mixed_labels(self):
        b = SampleBatch([0.0, 0.0, 0.0, 0.0], [1, 0, -1, 0])
        pos, neg = partition(b)
        assert pos.tolist() == [0]
        assert neg.tolist() == [1, 3]

    def test_empty(self):
        pos, neg = partition(SampleBatch([], []))
        assert pos.size == 0 and neg.size == 0

    def test_all_positive(self):
        pos, neg = partition(SampleBatch([1.0, 2.0, 3.0], [1, 1, 1]))
        assert pos.tolist() == [0, 1, 2]
        assert neg.size == 0


class TestAggregate:
    def test_two_batches_get_distinct_groups(self):
        a = SampleBatch([1.0, 2.0, 3.0], [1, 0, 0])
        b = SampleBatch([4.0, 5.0], [0, 1])
        merged = aggregate_batches([a, b])
        assert merged.n == 5
        assert merged.group_ids.tolist() == [0, 0, 0, 1, 1]
        assert merged.scores.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert merged.labels.tolist() == [1, 0, 0, 0, 1]

    def test_single_batch_identity(self):
        a = SampleBatch([1.0, 2.0], [1, 0], group_ids=[3, 3])
        merged = aggregate_batches([a])
        assert merged.scores.tolist() == a.scores.tolist()
        assert merged.labels.tolist() == a.labels.tolist()

    def test_preserves_internal_group_structure(self):
        a = SampleBatch([1.0, 2.0], [1, 0], group_ids=[0, 1])
        b = SampleBatch([3.0, 4.0], [1, 0], group_ids=[0, 1])
        merged = aggregate_batches([a, b])
        assert merged.group_ids.tolist() == [0, 1, 2, 3]

    def test_empty_input(self):
        assert aggregate_batches([]).n == 0

    def test_score_shift_surfaces_in_aggregate(self):
        # Each image ranks perfectly on its own, but image 0's lowest
        # score sits above image 1's highest, so the pooled ranking puts
        # image 0's negative above image 1's positive.  The pooled loss is
        # 1/6: the buried positive is outranked by one negative among four
        # samples (rank ratio 2/3, averaged with the clean positive).
        img0 = SampleBatch([3.0, 2.0], [1, 0])
        img1 = SampleBatch([1.0, 0.5], [1, 0])
        assert ap_loss(img0) == 0.0 and ap_loss(img1) == 0.0
        merged = aggregate_batches([img0, img1])
        pooled = ap_loss(merged)
        np.testing.assert_allclose(pooled, 1 / 6, rtol=1e-15)
        np.testing.assert_allclose(pooled, grad_bruteforce(merged)[0], rtol=1e-15)
