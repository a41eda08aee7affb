import time
import tracemalloc

import numpy as np
import pytest

from ranklosslab import (
    GradOptions,
    SampleBatch,
    SmoothedApConfig,
    StepConfig,
    ap_loss,
    grad_accelerated,
    grad_bruteforce,
    grad_reference,
    smoothed_ap_loss_and_grad,
)
from ranklosslab import gradients
from helpers import random_batch_arrays, sigmoid_series_path

ALL_KINDS = [
    StepConfig.heaviside(),
    StepConfig.piecewise(0.5),
    StepConfig.piecewise(1.0),
    StepConfig.sigmoid(0.5),
]


class TestBruteforce:
    def test_worst_ranked_positive(self):
        loss, grad = grad_bruteforce(SampleBatch([1.0, 2.0, 3.0], [1, 0, 0]))
        np.testing.assert_allclose(loss, 2 / 3)
        np.testing.assert_allclose(grad, [-2 / 3, 1 / 3, 1 / 3])

    def test_perfect_ranking_is_fixed_point(self):
        loss, grad = grad_bruteforce(SampleBatch([3.0, 1.0, 2.0], [1, 0, 0]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_all_tied_scores(self):
        # Two positives tied with one negative; each positive's term is
        # 1/3, normalized by two positives.
        loss, grad = grad_bruteforce(SampleBatch([0.0, 0.0, 0.0], [0, 1, 1]))
        np.testing.assert_allclose(grad, [1 / 3, -1 / 6, -1 / 6])
        np.testing.assert_allclose(loss, 1 / 3)

    def test_loss_equals_ap_loss(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            for cfg in ALL_KINDS:
                np.testing.assert_allclose(grad_bruteforce(b, cfg)[0], ap_loss(b, cfg), rtol=1e-12)

    def test_unnormalized_scaling(self):
        b = SampleBatch([0.0, 0.1, -0.2, 0.3], [1, 0, 1, 0])
        _, g_norm = grad_bruteforce(b, normalize=True)
        _, g_raw = grad_bruteforce(b, normalize=False)
        np.testing.assert_allclose(g_raw, g_norm * 2)


class TestAcceleratedEquivalence:
    @pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: f"{c.kind}")
    def test_matches_bruteforce(self, cfg):
        rng = np.random.default_rng(1)
        for _ in range(40):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            loss_bf, grad_bf = grad_bruteforce(b, cfg)
            res = grad_accelerated(b, cfg, GradOptions(interpolated=False))
            np.testing.assert_allclose(res.loss, loss_bf, rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(res.grad, grad_bf, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("cfg", ALL_KINDS, ids=lambda c: f"{c.kind}")
    def test_interpolated_matches_dense_reference(self, cfg):
        rng = np.random.default_rng(2)
        for _ in range(40):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            ref = grad_reference(b, cfg, interpolated=True)
            res = grad_accelerated(b, cfg, GradOptions(interpolated=True))
            np.testing.assert_allclose(res.loss, ref.loss, rtol=1e-9, atol=1e-15)
            np.testing.assert_allclose(res.grad, ref.grad, rtol=1e-9, atol=1e-15)


def _hi_cases(rng):
    """(hi, w, m): ascending band ends with runs of 3 and more, ends at 0
    and at m, zero weights and m = 1."""
    for b in range(400):
        m = 1 if b % 5 == 0 else int(rng.integers(1, 60))
        p = int(rng.integers(1, 30))
        hi = np.sort(rng.integers(0, m + 1, p))
        if b % 3 == 0:
            hi[: min(p, 3)] = 0
        if b % 3 == 1:
            hi[-min(p, 4):] = m
        if b % 4 == 0:
            hi[p // 3 : p // 3 + 3] = hi[p // 3]
        w = rng.random(p) * 10.0 ** rng.integers(-3, 4, p)
        if b % 2 == 0:
            w[rng.random(p) < 0.4] = 0.0
        yield hi, w, m


class TestAboveBand:
    def test_is_the_m_length_prefix_bit_for_bit(self):
        rng = np.random.default_rng(53)
        for hi, w, m in _hi_cases(rng):
            want = np.bincount(hi, weights=w, minlength=m + 1).cumsum()[hi[0] : -1]
            got = gradients._above_band(hi, w, m)
            assert got.shape == (m - hi[0],)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestSortedBand:
    @pytest.mark.parametrize("cfg", ALL_KINDS[:3], ids=lambda c: f"{c.kind}-{c.delta}")
    @pytest.mark.parametrize("n_neg", [1500, 6000])
    def test_bands_over_many_chunks_match_the_oracle(self, cfg, n_neg):
        # Scores on a coarse grid tie positives and give the hard step wide
        # tied bands too.  At 1,500 negatives every band fits one row
        # group; at 6,000 the ramp's bands fill several, some a band alone.
        rng = np.random.default_rng(9)
        scores = np.round(rng.standard_normal(12 + n_neg) * 4.0) / 4.0
        labels = np.concatenate([np.ones(12, np.int64), np.zeros(n_neg, np.int64)])
        b = SampleBatch(scores, labels)
        for interpolated in (False, True):
            ref = grad_reference(b, cfg, interpolated=interpolated)
            res = grad_accelerated(b, cfg, GradOptions(interpolated=interpolated))
            np.testing.assert_allclose(res.loss, ref.loss, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(res.grad, ref.grad, rtol=1e-9, atol=0.0)
            np.testing.assert_allclose(res.precisions, ref.precisions, rtol=1e-9, atol=0.0)


class TestMemory:
    # At 50:50,000 a positives-by-negatives block of doubles takes 20 MB.
    # With every score tied, as at zero weights, every pair is in a band,
    # and were tied positives not taken once each temporary would be that
    # block; the group bound keeps spread bands to a few small arrays.
    @pytest.mark.parametrize("sd", [0.0, 2.0], ids=["all_tied", "normal_sd2"])
    def test_ramp_peak_stays_below_8_mb(self, sd):
        rng = np.random.default_rng(0)
        labels = np.repeat([1, 0], [50, 50_000])
        batch = SampleBatch(rng.standard_normal(labels.shape[0]) * sd, labels)
        tracemalloc.start()
        try:
            grad_accelerated(batch, StepConfig.piecewise(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    # The sigmoid sums at 50:50,000, from the series kernel or the dense
    # rows, with every score tied, at sd 2, and at a span of 340 in units
    # of k, near the separable guard, where the series' grid of positives
    # by bins would take 15 MB were it not chunked by positives.
    @pytest.mark.parametrize("series", [False, True], ids=["dispatched", "series"])
    @pytest.mark.parametrize("spread", ["all_tied", "normal_sd2", "near_guard"])
    @pytest.mark.parametrize("call", ["sigmoid_grad", "smoothed"])
    def test_sigmoid_peak_stays_below_8_mb(self, series, spread, call):
        rng = np.random.default_rng(1)
        labels = np.repeat([1, 0], [50, 50_000])
        if spread == "near_guard":
            scores = rng.uniform(-85.0, 85.0, labels.shape[0])
        else:
            scores = rng.standard_normal(labels.shape[0]) * (0.0 if spread == "all_tied" else 2.0)
        batch = SampleBatch(scores, labels)
        with sigmoid_series_path(series) as taken:
            tracemalloc.start()
            try:
                if call == "smoothed":
                    smoothed_ap_loss_and_grad(batch, SmoothedApConfig(k=0.5))
                else:
                    grad_accelerated(batch, StepConfig.sigmoid(0.5))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert taken == [series or spread != "near_guard"]
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


class TestPruning:
    def test_all_negatives_trivial(self):
        # With ramp half-width 1, negatives at 1 and 2 sit at or below the
        # zero-activation boundary against the single positive at 3.
        b = SampleBatch([3.0, 1.0, 2.0], [1, 0, 0])
        res = grad_accelerated(b, StepConfig.piecewise(1.0), GradOptions())
        assert res.pruned_negatives == 2
        assert res.loss == 0.0
        np.testing.assert_array_equal(res.grad, np.zeros(3))

    def test_pruning_never_changes_result(self):
        rng = np.random.default_rng(3)
        for cfg in (StepConfig.piecewise(0.5), StepConfig.piecewise(1.0), StepConfig.heaviside()):
            for _ in range(40):
                scores, labels = random_batch_arrays(rng)
                b = SampleBatch(scores, labels)
                on = grad_accelerated(b, cfg, GradOptions(prune_trivial_negatives=True))
                off = grad_accelerated(b, cfg, GradOptions(prune_trivial_negatives=False))
                assert abs(on.loss - off.loss) <= 1e-12
                assert np.abs(on.grad - off.grad).max() <= 1e-12

    def test_heaviside_tied_negative_not_pruned(self):
        # A negative exactly tied with the lowest positive still activates
        # (ties count as misordered), so it must survive pruning.
        b = SampleBatch([1.0, 1.0, 0.0], [1, 0, 0])
        res = grad_accelerated(b, StepConfig.heaviside(), GradOptions())
        assert res.pruned_negatives == 1
        loss_bf, grad_bf = grad_bruteforce(b)
        np.testing.assert_allclose(res.loss, loss_bf, rtol=1e-12)
        np.testing.assert_allclose(res.grad, grad_bf, rtol=1e-12)

    def test_sigmoid_prunes_nothing(self):
        b = SampleBatch([10.0, -10.0, -20.0], [1, 0, 0])
        res = grad_accelerated(b, StepConfig.sigmoid(0.5), GradOptions())
        assert res.pruned_negatives == 0

    def test_pruned_count_monotone_with_separation(self):
        # As positives move further above negatives the trivial set grows
        # and the accelerated path gets no slower.
        rng = np.random.default_rng(4)
        n_pos, n_neg = 5, 4000
        neg_scores = rng.standard_normal(n_neg)
        labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
        counts, times = [], []
        for lift in (-2.0, 0.0, 1.0, 2.0, 4.0, 8.0):
            scores = np.concatenate([rng.standard_normal(n_pos) * 0.1 + lift, neg_scores])
            b = SampleBatch(scores, labels)
            reps = []
            for _ in range(5):
                t0 = time.perf_counter_ns()
                res = grad_accelerated(b, StepConfig.piecewise(1.0), GradOptions())
                reps.append(time.perf_counter_ns() - t0)
            counts.append(res.pruned_negatives)
            times.append(min(reps))
        assert counts == sorted(counts)
        assert counts[-1] == n_neg
        assert times[-1] <= times[0]


class TestGradientStructure:
    def test_signs_and_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            for interp in (False, True):
                res = grad_accelerated(
                    b, StepConfig.piecewise(1.0), GradOptions(interpolated=interp)
                )
                assert np.all(res.grad[labels == 1] <= 0.0)
                assert np.all(res.grad[labels == 0] >= 0.0)
                assert np.all(res.grad[labels == -1] == 0.0)
                if not interp:
                    assert abs(res.grad.sum()) <= 1e-12

    def test_zero_loss_implies_zero_grad_exactly(self):
        b = SampleBatch([5.0, 4.0, 1.0, 0.5], [1, 1, 0, 0])
        for cfg in (StepConfig.heaviside(), StepConfig.piecewise(1.0)):
            if ap_loss(b, cfg) == 0.0:
                _, grad = grad_bruteforce(b, cfg)
                assert np.all(grad == 0.0)

    def test_ignored_labels_do_not_affect_gradient(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores, labels = random_batch_arrays(rng, with_ignored=True)
            keep = labels >= 0
            full = grad_accelerated(SampleBatch(scores, labels), StepConfig.piecewise(1.0))
            dropped = grad_accelerated(SampleBatch(scores[keep], labels[keep]), StepConfig.piecewise(1.0))
            np.testing.assert_array_equal(full.grad[keep], dropped.grad)
            assert full.loss == dropped.loss

    def test_degenerate_batches(self):
        for labels in ([1, 1], [0, 0]):
            res = grad_accelerated(SampleBatch([1.0, 2.0], labels))
            assert res.loss == 0.0 and res.pruned_negatives == 0
            np.testing.assert_array_equal(res.grad, np.zeros(2))


class TestInterpolation:
    def test_hand_traced_example(self):
        # Positives at 5 and 3, negatives at 4, 2, 1.  The lower positive
        # is outranked by one negative among four other samples (precision
        # 2/3); the upper positive is clean (precision 1).  The precision
        # sequence is already monotone so interpolation changes nothing
        # and the loss is (1/2)(1/3 + 0) = 1/6.
        b = SampleBatch([5.0, 4.0, 3.0, 2.0, 1.0], [1, 0, 1, 0, 0])
        loss_bf, _ = grad_bruteforce(b)
        res = grad_accelerated(b, StepConfig.heaviside(), GradOptions(interpolated=True))
        np.testing.assert_allclose(res.loss, 1 / 6, rtol=1e-15)
        np.testing.assert_allclose(res.loss, loss_bf, rtol=1e-15)
        np.testing.assert_allclose(res.precisions, [2 / 3, 1.0])

    def test_rescale_produces_monotone_precisions(self):
        rng = np.random.default_rng(7)
        rescaled_seen = False
        for _ in range(80):
            scores, labels = random_batch_arrays(rng, max_pos=8)
            b = SampleBatch(scores, labels)
            res = grad_accelerated(b, StepConfig.piecewise(1.0), GradOptions(interpolated=True))
            plain = grad_accelerated(b, StepConfig.piecewise(1.0), GradOptions(interpolated=False))
            assert np.all(np.diff(res.precisions) >= -1e-12)
            if not np.allclose(plain.grad, res.grad):
                rescaled_seen = True
            assert res.loss <= plain.loss + 1e-12
        assert rescaled_seen

    def test_interpolated_loss_matches_precision_average(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            scores, labels = random_batch_arrays(rng)
            b = SampleBatch(scores, labels)
            res = grad_accelerated(b, StepConfig.piecewise(1.0), GradOptions(interpolated=True))
            np.testing.assert_allclose(res.loss, 1.0 - res.precisions.mean(), atol=1e-12)
