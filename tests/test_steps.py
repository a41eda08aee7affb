import numpy as np
import pytest

from ranklosslab import StepConfig, ramp_integral, step_value


class TestStepValues:
    def test_heaviside_basics(self):
        cfg = StepConfig.heaviside()
        assert step_value(-1e-12, cfg) == 0.0
        assert step_value(0.0, cfg) == 1.0  # ties activate
        assert step_value(3.0, cfg) == 1.0

    def test_piecewise_midpoint(self):
        assert step_value(0.0, StepConfig.piecewise(1.0)) == 0.5

    def test_piecewise_boundaries(self):
        cfg = StepConfig.piecewise(1.0)
        assert step_value(-2.0, cfg) == 0.0
        assert step_value(1.0, cfg) == 1.0
        assert step_value(-1.0, cfg) == 0.0
        assert step_value(0.5, cfg) == 0.75

    def test_sigmoid_midpoint(self):
        assert step_value(0.0, StepConfig.sigmoid(0.5)) == 0.5

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(scale=3.0, size=200)
        for cfg in (StepConfig.heaviside(), StepConfig.piecewise(0.7)):
            vec = step_value(xs, cfg)
            scal = np.array([step_value(float(x), cfg) for x in xs])
            np.testing.assert_array_equal(vec, scal)
        # Vectorized exp may differ from the scalar libm by an ulp.
        cfg = StepConfig.sigmoid(0.3)
        np.testing.assert_allclose(
            step_value(xs, cfg),
            np.array([step_value(float(x), cfg) for x in xs]),
            rtol=1e-14,
        )

    def test_bounded_monotone_symmetric(self):
        rng = np.random.default_rng(1)
        xs = np.sort(rng.normal(scale=5.0, size=500))
        for cfg in (StepConfig.piecewise(1.3), StepConfig.sigmoid(0.5)):
            v = step_value(xs, cfg)
            assert np.all(v >= 0.0) and np.all(v <= 1.0)
            assert np.all(np.diff(v) >= 0.0)
            np.testing.assert_allclose(
                step_value(xs, cfg) + step_value(-xs, cfg), 1.0, atol=1e-12
            )

    def test_piecewise_converges_to_heaviside(self):
        for x in (-0.8, -0.01, 0.01, 2.5):
            hard = step_value(x, StepConfig.heaviside())
            vals = [step_value(x, StepConfig.piecewise(d)) for d in (1.0, 0.1, 1e-3, 1e-6)]
            assert abs(vals[-1] - hard) < 1e-5
            gaps = [abs(v - hard) for v in vals]
            assert gaps == sorted(gaps, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(kind="unknown")
        with pytest.raises(ValueError):
            StepConfig.piecewise(0.0)
        with pytest.raises(ValueError):
            StepConfig.sigmoid(-1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite delta"):
            StepConfig.piecewise(bad)
        with pytest.raises(ValueError, match="finite k"):
            StepConfig.sigmoid(bad)
        with pytest.raises(ValueError, match="finite delta"):
            ramp_integral(0.0, bad)


class TestRampIntegral:
    @pytest.mark.parametrize("delta", [0.25, 1.0, 3.0])
    def test_closed_form_points(self, delta):
        assert ramp_integral(-delta, delta) == 0.0
        assert ramp_integral(-5 * delta, delta) == 0.0
        np.testing.assert_allclose(ramp_integral(0.0, delta), delta / 4.0, rtol=1e-15)
        np.testing.assert_allclose(ramp_integral(delta, delta), delta, rtol=1e-15)
        np.testing.assert_allclose(ramp_integral(2 * delta, delta), 2 * delta, rtol=1e-15)

    def test_derivative_matches_ramp(self):
        # Central differences at 1000 random points within 1e-6.
        rng = np.random.default_rng(2)
        delta = 1.0
        xs = rng.uniform(-4, 4, size=1000)
        eps = 1e-7
        deriv = (ramp_integral(xs + eps, delta) - ramp_integral(xs - eps, delta)) / (2 * eps)
        target = step_value(xs, StepConfig.piecewise(delta))
        np.testing.assert_allclose(deriv, target, atol=1e-6)

    def test_convexity_on_random_intervals(self):
        rng = np.random.default_rng(3)
        delta = 0.8
        a = rng.uniform(-4, 4, size=300)
        b = rng.uniform(-4, 4, size=300)
        mid = ramp_integral((a + b) / 2.0, delta)
        avg = (ramp_integral(a, delta) + ramp_integral(b, delta)) / 2.0
        assert np.all(mid <= avg + 1e-12)

    def test_continuity_and_nonnegativity(self):
        xs = np.linspace(-3, 3, 10001)
        q = ramp_integral(xs, 1.0)
        assert np.all(q >= 0.0)
        assert np.abs(np.diff(q)).max() < 2e-3  # no jumps at the knots

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            ramp_integral(0.0, 0.0)


def _heaviside_two_branch(x):
    return np.where(x >= 0.0, 1.0, 0.0)


def _sigmoid_two_branch(z):
    # Each side evaluated only where its exp() cannot overflow.
    out = np.empty(z.shape)
    up = z >= 0.0
    out[up] = 1.0 / (1.0 + np.exp(-z[up]))
    e = np.exp(z[~up])
    out[~up] = e / (1.0 + e)
    return out


def _ramp_integral_three_branch(x, delta):
    return np.where(x <= -delta, 0.0, np.where(x > delta, x, (x + delta) ** 2 / (4.0 * delta)))


def _bit_equal(a, b):
    same_sign = np.array_equal(np.signbit(a), np.signbit(b))
    return a.shape == b.shape and np.array_equal(a, b) and same_sign


def _exactness_inputs(edge=1.0):
    """Lengths that exercise SIMD bodies and tails, strided and 2-D views, and +-edge."""
    rng = np.random.default_rng(12)
    special = np.array([0.0, -0.0, 0.5, -0.5, edge, -edge, 2000.0, -2000.0, 1e-300, -1e-300])
    arrays = []
    for n in [*range(71), 127, 128, 129, 4097]:
        x = rng.uniform(-3.0, 3.0, size=n)
        mask = rng.random(n) < 0.2
        x[mask] = rng.choice(special, size=int(mask.sum()))
        if n > 1:
            x[n // 2] = x[0]  # a tie
        arrays.append(x)
    wide = rng.uniform(-2000.0, 2000.0, size=4097)
    arrays.append(wide)
    arrays.append(wide[::3])
    arrays.append(wide[1:4001].reshape(40, 100)[:, 5:90])
    arrays.append(wide[:4096].reshape(64, 64).T)
    arrays.append(np.repeat(special, 13))
    return arrays


class TestBitExactness:
    """The vectorized kernels give the same bits as their plain branch-wise definitions."""

    @pytest.mark.parametrize("k", [1.0, 0.5, 0.3])
    def test_sigmoid(self, k):
        for x in _exactness_inputs():
            assert _bit_equal(step_value(x, StepConfig.sigmoid(k)), _sigmoid_two_branch(x / k))

    def test_heaviside(self):
        for x in _exactness_inputs():
            assert _bit_equal(step_value(x, StepConfig.heaviside()), _heaviside_two_branch(x))

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.7])
    def test_ramp_integral(self, delta):
        for x in _exactness_inputs(edge=delta):
            assert _bit_equal(ramp_integral(x, delta), _ramp_integral_three_branch(x, delta))

    def test_sigmoid_float64_output(self):
        x = np.linspace(-5.0, 5.0, 11, dtype=np.float32)
        assert step_value(x, StepConfig.sigmoid(0.5)).dtype == np.float64
