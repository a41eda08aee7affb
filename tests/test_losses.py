import tracemalloc

import numpy as np
import pytest

from ranklosslab import (
    SampleBatch,
    StepConfig,
    ap_loss,
    auc_grad,
    auc_loss,
    exact_metrics,
    grad_bruteforce,
    primary_terms,
)
from helpers import pair_counting_auc_loss, random_batch_arrays, sort_based_ap_loss


class TestPrimaryTerms:
    def test_worst_ranked_positive(self):
        b = SampleBatch([1.0, 2.0, 3.0], [1, 0, 0])
        np.testing.assert_allclose(primary_terms(b, 0), [1 / 3, 1 / 3])

    def test_perfectly_ranked_positive(self):
        b = SampleBatch([3.0, 1.0, 2.0], [1, 0, 0])
        np.testing.assert_array_equal(primary_terms(b, 0), [0.0, 0.0])

    def test_tie_counts_against_positive(self):
        b = SampleBatch([0.0, 0.0], [1, 0])
        np.testing.assert_allclose(primary_terms(b, 0), [0.5])

    def test_rejects_non_positive_index(self):
        b = SampleBatch([1.0, 2.0], [1, 0])
        with pytest.raises(ValueError, match="not a positive"):
            primary_terms(b, 1)

    def test_terms_bounded_and_row_sum_below_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            for cfg in (StepConfig.heaviside(), StepConfig.piecewise(0.5), StepConfig.sigmoid()):
                for i in np.flatnonzero(labels == 1):
                    terms = primary_terms(b, int(i), cfg)
                    assert np.all(terms >= 0.0) and np.all(terms <= 1.0)
                    assert terms.sum() <= 1.0 + 1e-12


class TestApLoss:
    def test_perfect_ranking(self):
        assert ap_loss(SampleBatch([3.0, 1.0, 2.0], [1, 0, 0])) == 0.0

    def test_worst_ranking(self):
        np.testing.assert_allclose(ap_loss(SampleBatch([1.0, 2.0, 3.0], [1, 0, 0])), 2 / 3)

    def test_alternating_ranking(self):
        # One positive perfectly placed, the other below one negative:
        # 1 - (1/2)(1/1 + 2/3) = 1/6.  Cross-checked against both oracles.
        b = SampleBatch([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0])
        value = ap_loss(b)
        np.testing.assert_allclose(value, 1 / 6, rtol=1e-15)
        np.testing.assert_allclose(value, sort_based_ap_loss(b.scores, b.labels), rtol=1e-15)
        np.testing.assert_allclose(value, grad_bruteforce(b)[0], rtol=1e-15)

    def test_degenerate_batches(self):
        assert ap_loss(SampleBatch([1.0, 2.0], [1, 1])) == 0.0
        assert ap_loss(SampleBatch([1.0, 2.0], [0, 0])) == 0.0
        assert ap_loss(SampleBatch([], [])) == 0.0

    def test_matches_sort_oracle_on_random_batches(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            scores, labels = random_batch_arrays(rng)
            value = ap_loss(SampleBatch(scores, labels))
            np.testing.assert_allclose(value, sort_based_ap_loss(scores, labels), rtol=1e-12)

    def test_in_unit_interval_for_all_step_kinds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            for cfg in (StepConfig.heaviside(), StepConfig.piecewise(2.0), StepConfig.sigmoid(1.0)):
                assert 0.0 <= ap_loss(b, cfg) <= 1.0
                assert 0.0 <= auc_loss(b, cfg) <= 1.0


class TestAucLoss:
    def test_all_pairs_misordered(self):
        assert auc_loss(SampleBatch([1.0, 2.0, 3.0], [1, 0, 0])) == 1.0

    def test_no_pairs_misordered(self):
        assert auc_loss(SampleBatch([3.0, 1.0, 2.0], [1, 0, 0])) == 0.0

    def test_pair_enumeration(self):
        np.testing.assert_allclose(
            auc_loss(SampleBatch([4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0])), 1 / 4
        )

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scores, labels = random_batch_arrays(rng)
            np.testing.assert_allclose(
                auc_loss(SampleBatch(scores, labels)),
                pair_counting_auc_loss(scores, labels),
                rtol=1e-12,
            )


class TestInvariances:
    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            stretched = SampleBatch(np.exp(scores) * 2.0 + 1.0, labels)
            assert ap_loss(b) == ap_loss(stretched)
            assert auc_loss(b) == auc_loss(stretched)

    def test_permutation_invariance(self):
        # Reordering only permutes the float summands, so agreement is up
        # to accumulation order.
        rng = np.random.default_rng(5)
        for _ in range(30):
            scores, labels = random_batch_arrays(rng)
            perm = rng.permutation(len(scores))
            np.testing.assert_allclose(
                ap_loss(SampleBatch(scores, labels)),
                ap_loss(SampleBatch(scores[perm], labels[perm])),
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                auc_loss(SampleBatch(scores, labels)),
                auc_loss(SampleBatch(scores[perm], labels[perm])),
                rtol=1e-12,
            )

    def test_ignored_samples_have_no_effect(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            scores, labels = random_batch_arrays(rng, with_ignored=True)
            keep = labels >= 0
            full = SampleBatch(scores, labels)
            dropped = SampleBatch(scores[keep], labels[keep])
            for cfg in (StepConfig.heaviside(), StepConfig.piecewise(1.0), StepConfig.sigmoid()):
                assert ap_loss(full, cfg) == ap_loss(dropped, cfg)
                assert auc_loss(full, cfg) == auc_loss(dropped, cfg)

    def test_zero_ap_iff_zero_auc_without_ties(self):
        rng = np.random.default_rng(7)
        seen_zero = seen_nonzero = False
        for _ in range(200):
            n = int(rng.integers(3, 12))
            scores = rng.permutation(n).astype(float)  # distinct scores
            labels = np.zeros(n, dtype=np.int64)
            labels[rng.integers(0, n)] = 1
            b = SampleBatch(scores, labels)
            ap, auc = ap_loss(b), auc_loss(b)
            assert (ap == 0.0) == (auc == 0.0)
            seen_zero |= ap == 0.0
            seen_nonzero |= ap > 0.0
        assert seen_zero and seen_nonzero


class TestExactMetrics:
    def test_interpolation_fires_on_inverted_precisions(self):
        # Both negatives outrank both positives' tops: the higher positive
        # (rank 3 of 4, precision 1/3) is worse than the lower one
        # (rank 4, precision 1/2), so walking ascending scores rescales
        # the higher positive's terms up to the running maximum: the
        # interpolated loss is 1 - (1/2)(1/2 + 1/2) = 1/2, below the plain
        # 1 - (1/2)(1/2 + 1/3) = 7/12.
        b = SampleBatch([3.0, 2.9, 4.0, 5.0], [1, 1, 0, 0])
        m = exact_metrics(b)
        np.testing.assert_allclose(m.ap_loss, 7 / 12, rtol=1e-15)
        np.testing.assert_allclose(m.interpolated_ap_loss, 1 / 2, rtol=1e-15)

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores, labels = random_batch_arrays(rng)
            m = exact_metrics(SampleBatch(scores, labels))
            for v in (m.ap_loss, m.auc_loss, m.interpolated_ap_loss):
                assert 0.0 <= v <= 1.0
            # Interpolation can only lower per-positive contributions.
            assert m.interpolated_ap_loss <= m.ap_loss + 1e-12


class TestMemory:
    # At 50:50,000 one positives-by-valid block of doubles takes 20 MB, so
    # no route here may build one.  The rank view, the band kernel, the
    # sigmoid row chunks and a single row stay near a few arrays of n doubles.
    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([1, 0], [50, 50_000])  # sample 0 is a positive
        return SampleBatch(rng.standard_normal(labels.shape[0]) * 2.0, labels)

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: ap_loss(b, StepConfig.piecewise(1.0)),
            lambda b: ap_loss(b, StepConfig.sigmoid(0.5)),
            lambda b: primary_terms(b, 0, StepConfig.piecewise(1.0)),
            lambda b: primary_terms(b, 0, StepConfig.sigmoid(0.5)),
            exact_metrics,
            lambda b: auc_grad(b, StepConfig.piecewise(1.0)),
            lambda b: auc_grad(b, StepConfig.sigmoid(0.5)),
            lambda b: auc_loss(b, StepConfig.piecewise(1.0)),
            lambda b: auc_loss(b, StepConfig.sigmoid(0.5)),
        ],
        ids=[
            "ramp-ap", "sigmoid-ap", "ramp-primary", "sigmoid-primary", "exact",
            "ramp-auc-grad", "sigmoid-auc-grad", "ramp-auc", "sigmoid-auc",
        ],
    )
    def test_peak_stays_below_8_mb(self, batch, call):
        tracemalloc.start()
        try:
            call(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
