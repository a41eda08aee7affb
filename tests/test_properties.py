"""Property tests of the accelerated gradient and the hard-step rank view on drawn batches.

Scores are quantised to quarter steps on a short range, so exact ties
between positives, between negatives and across the two classes are
common; labels include ignored samples (-1).  The rank-view batches also
draw +-0.0 and scores near +-1e308, whose differences overflow to +-inf.
Runs are derandomized and keep no example database, so every run draws
the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranklosslab import (
    HEAVISIDE,
    GradOptions,
    RankingDataset,
    SampleBatch,
    StepConfig,
    auc_grad,
    auc_loss,
    ap_loss,
    grad_accelerated,
    grad_bruteforce,
    partition,
    ramp_integral,
    step_value,
    surrogate_loss,
)
from ranklosslab._pairwise import column_counts, diff_block, diffs, rank_counts
from ranklosslab.trainer import _inseparable_grad

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


EXTREMES = (0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def extreme_batches(draw, max_n=24):
    n = draw(st.integers(2, max_n))
    ticks = st.integers(-8, 8).map(lambda t: t / 4.0)
    scores = draw(st.lists(st.one_of(ticks, st.sampled_from(EXTREMES)), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from((1, 0, 0, -1)), min_size=n, max_size=n))
    return SampleBatch(np.array(scores), np.array(labels))


# Differences of the extreme scores overflow to +-inf on purpose.
OVERFLOW_OK = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


def dense_hard(scores, pos, neg):
    """Heaviside block over pos-then-neg columns: the definition the counts replace."""
    return step_value(diffs(scores, pos, neg), HEAVISIDE)


@OVERFLOW_OK
@PROPERTY
@given(extreme_batches())
def test_rank_counts_equal_the_dense_sums(batch):
    pos, neg = partition(batch)
    f = dense_hard(batch.scores, pos, neg)
    p = pos.shape[0]
    num, denom = rank_counts(batch.scores, pos, neg)
    assert_same_bits(num, f[:, p:].sum(axis=1))
    assert_same_bits(denom, 1.0 + f.sum(axis=1) - f.diagonal())
    assert_same_bits(column_counts(batch.scores, pos, neg), f[:, p:].sum(axis=0))


@OVERFLOW_OK
@PROPERTY
@given(extreme_batches())
def test_hard_step_losses_keep_the_dense_bits(batch):
    pos, neg = partition(batch)
    p, q = pos.shape[0], neg.shape[0]
    grad = np.zeros(batch.n)
    ap = auc = auc_value = 0.0
    if p and q:
        f = dense_hard(batch.scores, pos, neg)
        ap = float((f[:, p:].sum(axis=1) / (1.0 + f.sum(axis=1) - f.diagonal())).sum() / p)
        g = step_value(diff_block(batch.scores, pos, neg), HEAVISIDE)
        scale = 1.0 / (p * q)
        auc, auc_value = float(g.sum() / (p * q)), float(g.sum() * scale)
        grad[pos] = -g.sum(axis=1) * scale
        grad[neg] = g.sum(axis=0) * scale
    assert_same_bits(ap_loss(batch), ap)
    assert_same_bits(auc_loss(batch), auc)
    value, update = auc_grad(batch)
    assert_same_bits(value, auc_value)
    assert_same_bits(update, grad)


@OVERFLOW_OK
@PROPERTY
@given(extreme_batches(), st.sampled_from((1.0, -0.5, 0.25)), st.sampled_from((0.5, 1.0)))
def test_inseparable_update_and_surrogate_keep_the_dense_bits(batch, u, delta):
    pos, neg = partition(batch)
    p = pos.shape[0]
    data = RankingDataset(batch.scores[:, None], batch.labels)
    u, theta_hat = np.array([u]), np.array([1.0])
    scores = data.features @ theta_hat
    grad, surrogate, at_u = np.zeros(batch.n), 0.0, 0.0
    if p and neg.shape[0]:
        f = dense_hard(scores, pos, neg)
        denom = 1.0 + f.sum(axis=1) - f.diagonal()
        block = diffs(scores, pos, neg)[:, p:]
        terms = step_value(block, StepConfig.piecewise(delta)) / denom[:, None]
        grad[pos] = -terms.sum(axis=1) / p
        grad[neg] = terms.sum(axis=0) / p
        surrogate = float((ramp_integral(block, delta).sum(axis=1) / denom).sum() / p)
        ramp_u = ramp_integral(diff_block(data.features @ u, pos, neg), delta).sum(axis=1)
        at_u = float((ramp_u / denom).sum() / p)
    value, update = _inseparable_grad(scores, pos, neg, delta)
    assert_same_bits(value, surrogate)
    assert_same_bits(update, grad)
    assert_same_bits(surrogate_loss(u, data, theta_hat, delta), at_u)
