"""Property tests of the accelerated gradient on drawn batches.

Scores are quantised to quarter steps on a short range, so exact ties
between positives, between negatives and across the two classes are
common; labels include ignored samples (-1).  Runs are derandomized and
keep no example database, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ranklosslab import GradOptions, SampleBatch, StepConfig, grad_accelerated, grad_bruteforce

STEPS = (
    StepConfig.heaviside(),
    StepConfig.piecewise(0.5),
    StepConfig.piecewise(1.0),
    StepConfig.sigmoid(0.5),
)
PROPERTY = settings(max_examples=120, derandomize=True, deadline=None, database=None)


@st.composite
def batches(draw, max_n=24):
    n = draw(st.integers(2, max_n))
    ticks = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from((1, 0, 0, -1)), min_size=n, max_size=n))
    return SampleBatch(np.array(ticks) / 4.0, np.array(labels))


@PROPERTY
@given(batches(), st.sampled_from(STEPS), st.booleans())
def test_accelerated_matches_bruteforce(batch, step, prune):
    loss, grad = grad_bruteforce(batch, step)
    res = grad_accelerated(batch, step, GradOptions(prune_trivial_negatives=prune))
    np.testing.assert_allclose(res.loss, loss, rtol=1e-9, atol=1e-15)
    np.testing.assert_allclose(res.grad, grad, rtol=1e-9, atol=1e-15)


@PROPERTY
@given(batches(), st.sampled_from(STEPS), st.booleans(), st.booleans(), st.randoms())
def test_permuting_the_batch_permutes_the_gradient(batch, step, prune, interpolated, rnd):
    perm = np.array(rnd.sample(range(batch.n), batch.n))
    opts = GradOptions(interpolated=interpolated, prune_trivial_negatives=prune)
    res = grad_accelerated(batch, step, opts)
    permuted = grad_accelerated(SampleBatch(batch.scores[perm], batch.labels[perm]), step, opts)
    np.testing.assert_allclose(permuted.loss, res.loss, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(permuted.grad, res.grad[perm], rtol=1e-12, atol=1e-15)


@PROPERTY
@given(batches(), st.sampled_from(STEPS), st.booleans(), st.booleans())
def test_ignored_samples_get_no_gradient_and_change_nothing(batch, step, prune, interpolated):
    opts = GradOptions(interpolated=interpolated, prune_trivial_negatives=prune)
    res = grad_accelerated(batch, step, opts)
    kept = batch.labels != -1
    assert not res.grad[~kept].any()
    deleted = grad_accelerated(SampleBatch(batch.scores[kept], batch.labels[kept]), step, opts)
    assert deleted.loss == res.loss
    np.testing.assert_array_equal(deleted.grad, res.grad[kept])


@PROPERTY
@given(batches(), st.sampled_from(STEPS), st.booleans())
def test_gradient_sums_to_zero_without_interpolation(batch, step, prune):
    res = grad_accelerated(batch, step, GradOptions(prune_trivial_negatives=prune))
    assert abs(res.grad.sum()) <= 1e-12
