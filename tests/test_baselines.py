from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from ranklosslab import _pairwise
from ranklosslab import (
    LinearModel,
    SampleBatch,
    SmoothedApConfig,
    StepConfig,
    auc_grad,
    generate,
    grad_accelerated,
    hinge_error_driven,
    score_dataset,
    smoothed_ap_loss_and_grad,
    softmax_error_driven,
    train,
)
from ranklosslab.experiments import GD_FAILURE_INIT, default_sweep_spec, gd_failure_dataset
from helpers import (
    central_diff,
    per_pair_sigmoid,
    random_batch_arrays,
    sigmoid_chunk_rows,
    sigmoid_series_path,
    smoothed_ap_longdouble,
)


class TestSmoothedAp:
    def test_single_pair_equal_scores(self):
        # One positive, one negative, all scores equal, slope 1: the
        # sigmoid sits at 0.5 so the value is 0.5 / 1.5 = 1/3.
        b = SampleBatch([0.0, 0.0], [1, 0])
        loss, _ = smoothed_ap_loss_and_grad(b, SmoothedApConfig(k=1.0))
        np.testing.assert_allclose(loss, 1 / 3, rtol=1e-12)

    def test_vanishes_as_positive_escapes(self):
        losses = []
        for lift in (0.0, 5.0, 20.0, 60.0):
            b = SampleBatch([lift, 0.0, -1.0], [1, 0, 0])
            loss, _ = smoothed_ap_loss_and_grad(b, SmoothedApConfig(k=1.0))
            losses.append(loss)
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 1e-12

    @pytest.mark.parametrize("log_space", [False, True])
    def test_gradient_matches_finite_differences(self, log_space):
        rng = np.random.default_rng(0)
        cfg = SmoothedApConfig(k=0.5, log_space=log_space, epsilon=1e-2)
        for _ in range(30):
            scores, labels = random_batch_arrays(rng, max_n=25, tie_prob=0.0)
            _, grad = smoothed_ap_loss_and_grad(SampleBatch(scores, labels), cfg)
            num = central_diff(
                lambda s: smoothed_ap_loss_and_grad(SampleBatch(s, labels), cfg)[0], scores
            )
            scale = max(np.abs(num).max(), 1e-8)
            assert np.abs(grad - num).max() / scale < 1e-4

    def test_degenerate_batch(self):
        loss, grad = smoothed_ap_loss_and_grad(SampleBatch([1.0, 2.0], [1, 1]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_log_space_requires_epsilon(self):
        with pytest.raises(ValueError):
            SmoothedApConfig(k=1.0, log_space=True, epsilon=0.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SmoothedApConfig(k=bad)
        with pytest.raises(ValueError, match="finite epsilon"):
            SmoothedApConfig(log_space=True, epsilon=bad)

    def test_ignored_samples_excluded(self):
        cfg = SmoothedApConfig(k=1.0)
        trimmed = smoothed_ap_loss_and_grad(SampleBatch([1.0, 0.0], [1, 0]), cfg)
        # An ignored score far from the rest must not move the centre of
        # the exponentials either.
        for ignored in (9.0, 1e4):
            full = smoothed_ap_loss_and_grad(SampleBatch([1.0, 0.0, ignored], [1, 0, -1]), cfg)
            assert full[0] == trimmed[0]
            assert full[1][:2].tobytes() == trimmed[1].tobytes()
            assert full[1][2] == 0.0

    @pytest.mark.parametrize(
        "span, separable",
        [
            (_pairwise._SEPARABLE_SPAN * (1 - 1e-9), True),
            (_pairwise._SEPARABLE_SPAN * (1 + 1e-9), False),
            (720.0, False),
            (4e4, False),
        ],
    )
    def test_score_span_guard(self, span, separable):
        # (max - min)/k = span, with positives and negatives at both ends, so
        # the separable block would hold exp(+-span); the last two spans
        # overflow it, and tier-1 turns the overflow warning into an error.
        # At k = 0.5 the last span puts the scores at +-1e4.  Inside the
        # guard a second batch has one positive at the top and one negative
        # at the bottom, whose whole gradient is one slope of about
        # exp(-span); past it that slope would be subnormal or zero.
        # Each span also runs in chunks of one row and of two, the second
        # leaving a partial chunk of the three positives.
        cfg = SmoothedApConfig(k=0.5)
        half = span * cfg.k / 2
        batches = [(np.array([half, -half, 0.3, half, -half, -0.2, 0.1]), [1, 1, 1, 0, 0, 0, 0])]
        if separable:
            batches.append((np.array([half, -half]), [1, 0]))
        for scores, labels in batches:
            ref_loss, ref_grad = smoothed_ap_longdouble(SampleBatch(scores, labels), cfg)
            for rows in (None, 1, 2):
                with sigmoid_chunk_rows(rows, scores.shape[0]), per_pair_sigmoid() as per_pair:
                    loss, grad = smoothed_ap_loss_and_grad(SampleBatch(scores, labels), cfg)
                assert per_pair.called != separable
                assert np.isfinite(loss) and np.isfinite(grad).all()
                np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=0.0)
                assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max() + 1e-15
                # Inside the guard the squared sigmoid rows never underflow:
                # every entry that is nonzero in long double is nonzero here.
                assert not separable or (grad[ref_grad != 0] != 0).all()


class TestSeriesDispatch:
    """Which route the sigmoid sums take, as dispatched."""

    @staticmethod
    def routes(batch):
        with sigmoid_series_path() as taken:
            smoothed_ap_loss_and_grad(batch, SmoothedApConfig(log_space=True))
            grad_accelerated(batch, StepConfig.sigmoid(0.5))
        return taken

    def test_the_sweeps_largest_batch_takes_the_series(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([1, 0], [50, 50_000])
        assert self.routes(SampleBatch(rng.standard_normal(labels.shape[0]) * 2.0, labels)) == [
            True, True
        ]

    def test_a_span_past_the_guard_takes_the_dense_rows(self):
        rng = np.random.default_rng(4)
        labels = np.repeat([1, 0], [50, 50_000])
        scores = rng.standard_normal(labels.shape[0]) * 2.0
        scores[-1] = 360.0 * 0.5  # (max - min)/k just past 350 at k = 0.5
        assert self.routes(SampleBatch(scores, labels)) == [False, False]

    def test_the_series_agrees_with_the_dense_rows_along_the_sweeps_run(self):
        # The sweep's smoothed arm at 1:1000, every 10th of its first 60
        # iterations: from all scores tied to a span of about 20 k.
        spec = default_sweep_spec()
        cfg = spec.train["smoothed_ap_gd"]
        data = generate(replace(spec.synth, negatives=50_000))
        _, trace = train(
            LinearModel(np.zeros(data.dim)), data, replace(cfg, max_iters=60, record_weights=True)
        )
        for theta in trace.thetas[::10]:
            batch = score_dataset(LinearModel(theta), data)
            with sigmoid_series_path() as taken:
                loss, grad = smoothed_ap_loss_and_grad(batch, cfg.smoothed)
            with mock.patch.object(_pairwise, "_series_pays", lambda *_: False):
                ref_loss, ref_grad = smoothed_ap_loss_and_grad(batch, cfg.smoothed)
            assert taken == [True]
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_the_three_sample_counterexample_takes_the_dense_rows(self):
        batch = score_dataset(LinearModel(np.array(GD_FAILURE_INIT)), gd_failure_dataset())
        assert self.routes(batch) == [False, False]


class TestAucGrad:
    def test_worst_ranking(self):
        loss, grad = auc_grad(SampleBatch([1.0, 2.0, 3.0], [1, 0, 0]))
        assert loss == 1.0
        np.testing.assert_allclose(grad, [-1.0, 0.5, 0.5])

    def test_perfect_ranking(self):
        loss, grad = auc_grad(SampleBatch([3.0, 1.0, 2.0], [1, 0, 0]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_all_tied(self):
        loss, grad = auc_grad(SampleBatch([0.0, 0.0, 0.0], [1, 0, 0]))
        assert loss == 1.0
        np.testing.assert_allclose(grad, [-1.0, 0.5, 0.5])

    def test_conservation_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores, labels = random_batch_arrays(rng)
            _, grad = auc_grad(SampleBatch(scores, labels))
            assert abs(grad.sum()) <= 1e-12
            assert np.all(grad[labels == -1] == 0.0)


class TestSoftmaxErrorDriven:
    def test_symmetric_logits(self):
        np.testing.assert_allclose(softmax_error_driven(np.array([0.0, 0.0]), 1), [-0.5, 0.5])

    def test_two_class_closed_form(self):
        g = softmax_error_driven(np.array([1.0, 2.0]), 2)
        e = np.e
        np.testing.assert_allclose(g, [e / (e + e**2), e**2 / (e + e**2) - 1.0], rtol=1e-12)

    def test_sums_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 10))
            x = rng.normal(scale=5.0, size=k)
            y = int(rng.integers(1, k + 1))
            assert abs(softmax_error_driven(x, y).sum()) < 1e-12

    def test_matches_independent_analytic_gradient(self):
        # Independent route: probabilities via explicit log-sum-exp.
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            x = rng.normal(scale=4.0, size=k)
            y = int(rng.integers(1, k + 1))
            lse = np.log(np.sum(np.exp(x - x.max()))) + x.max()
            probs = np.exp(x - lse)
            expected = probs.copy()
            expected[y - 1] -= 1.0
            np.testing.assert_allclose(softmax_error_driven(x, y), expected, atol=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            x = rng.normal(size=k)
            y = int(rng.integers(1, k + 1))

            def ce(v):
                lse = np.log(np.sum(np.exp(v - v.max()))) + v.max()
                return lse - v[y - 1]

            np.testing.assert_allclose(
                softmax_error_driven(x, y), central_diff(ce, x, eps=1e-6), atol=1e-5
            )

    def test_invalid_class_index(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_error_driven(np.array([0.0, 1.0]), 3)
        with pytest.raises(ValueError, match="out of range"):
            softmax_error_driven(np.array([0.0, 1.0]), 0)


class TestHingeErrorDriven:
    def test_margin_violated(self):
        np.testing.assert_array_equal(hinge_error_driven(0.5, 2), [0.0, -1.0])

    def test_margin_satisfied_class_two(self):
        np.testing.assert_array_equal(hinge_error_driven(2.0, 2), [0.0, 0.0])

    def test_margin_satisfied_class_one(self):
        np.testing.assert_array_equal(hinge_error_driven(-2.0, 1), [0.0, 0.0])

    def test_boundary_uses_zero_subgradient(self):
        # At the kink the step activates, selecting the flat subgradient.
        np.testing.assert_array_equal(hinge_error_driven(1.0, 2), [0.0, 0.0])
        np.testing.assert_array_equal(hinge_error_driven(-1.0, 1), [0.0, 0.0])

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(200):
            x = float(rng.uniform(-3, 3))
            if min(abs(x - 1.0), abs(x + 1.0)) < 1e-3:
                continue
            y = int(rng.integers(1, 3))

            def hinge(v):
                x1, x2 = -v[0], v[0]
                return max(1 - x1, 0.0) if y == 1 else max(1 - x2, 0.0)

            # d/dx of the loss, mapped to the two class scores (-x, x).
            num = central_diff(hinge, np.array([x]), eps=1e-6)[0]
            g = hinge_error_driven(x, y)
            analytic_dx = -g[0] + g[1]
            np.testing.assert_allclose(analytic_dx, num, atol=1e-5)
            checked += 1
        assert checked > 150

    def test_invalid_class(self):
        with pytest.raises(ValueError):
            hinge_error_driven(0.0, 3)
