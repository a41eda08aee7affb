"""Property tests of the accelerated gradient, the hard-step rank view and
the smoothed-AP baseline on drawn batches.

Scores are quantised to quarter steps on a short range, so exact ties
between positives, between negatives and across the two classes are
common; labels include ignored samples (-1).  The rank-view and band-path
batches also draw +-0.0 and scores near +-1e308, whose differences
overflow to +-inf, and the band path also runs on quarter ticks offset
by 1e6, where a score's ulp is 1.2e-10.  The rank view is also checked
against the standalone sorts it replaced on negatives within 2 ulps of
the pruning cut s_min - delta.
Runs are derandomized and keep no example database, so every run draws
the same examples.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ranklosslab import (
    HEAVISIDE,
    GradOptions,
    RankingDataset,
    SampleBatch,
    SmoothedApConfig,
    StepConfig,
    auc_grad,
    auc_loss,
    ap_loss,
    exact_metrics,
    grad_accelerated,
    grad_bruteforce,
    grad_reference,
    partition,
    primary_terms,
    ramp_integral,
    smoothed_ap_loss_and_grad,
    step_value,
    surrogate_loss,
)
from ranklosslab import gradients
from ranklosslab._pairwise import RankView, column_counts, diff_block, diffs, rank_counts
from ranklosslab.trainer import _inseparable_grad
from helpers import per_pair_sigmoid, sigmoid_chunk_rows, smoothed_ap_longdouble

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
    num, denom = rank_counts(RankView(batch.scores, pos, neg))
    assert_same_bits(num, f[:, p:].sum(axis=1))
    assert_same_bits(denom, 1.0 + f.sum(axis=1) - f.diagonal())
    for cut in (None, 0.0, 1.0):
        for ordered in (False, True):
            view = RankView(batch.scores, pos, neg, cut, ordered)
            assert_same_bits(rank_counts(view)[1], denom)
            assert_same_bits(column_counts(view), f[:, p:].sum(axis=0))


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
    metrics = exact_metrics(batch)  # one pruned rank view for both counts
    assert_same_bits(metrics.ap_loss, ap)
    assert_same_bits(metrics.auc_loss, auc)
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
    value, update = _inseparable_grad(RankView(scores, pos, neg), delta)
    assert_same_bits(value, surrogate)
    assert_same_bits(update, grad)
    assert_same_bits(surrogate_loss(u, data, theta_hat, delta), at_u)


# The accelerated path's sorted band: the hard step and the ramp count the
# terms outside each positive's transition band and evaluate the rest.
BOUNDED_STEPS = (
    StepConfig.heaviside(),
    StepConfig.piecewise(0.5),
    StepConfig.piecewise(1.0),
    StepConfig.piecewise(2.0),
)


@st.composite
def offset_batches(draw):
    batch = draw(batches())
    return SampleBatch(batch.scores + 1e6, batch.labels)


BATCH_KINDS = {"ticks": batches(), "extremes": extreme_batches(), "offset": offset_batches()}
# The default chunk, and one so small that a drawn batch spans many chunks,
# several of them a single band.
CHUNKS = (gradients._BAND_CHUNK, 3)


@OVERFLOW_OK
@pytest.mark.parametrize("kind", BATCH_KINDS)
@PROPERTY
@given(st.data(), st.sampled_from(STEPS))
def test_primary_terms_keep_the_dense_row_bits(kind, data, step):
    # Each positive's row of the dense block over pos-then-neg columns,
    # divided by that row's rank denominator.
    batch = data.draw(BATCH_KINDS[kind])
    pos, neg = partition(batch)
    f = step_value(diffs(batch.scores, pos, neg), step)
    denom = 1.0 + f.sum(axis=1) - f.diagonal()
    for row, i in enumerate(pos):
        assert_same_bits(primary_terms(batch, int(i), step), f[row, pos.shape[0]:] / denom[row])


def assert_matches_the_oracles(batch, step, interpolated, prune):
    """Within 1e-9 of ``grad_reference`` (and of ``grad_bruteforce`` without
    interpolation), and exactly zero wherever the oracle is.  The public
    losses that read the same kernel agree with the oracles' loss within
    1e-12: ``ap_loss`` at this step, and the interpolated loss of
    ``exact_metrics`` at the hard step."""
    res = grad_accelerated(
        batch, step, GradOptions(interpolated=interpolated, prune_trivial_negatives=prune)
    )
    ref = grad_reference(batch, step, interpolated=interpolated)
    oracles = [(ref.loss, ref.grad)]
    if not interpolated:
        oracles.append(grad_bruteforce(batch, step))
    for loss, grad in oracles:
        np.testing.assert_allclose(res.loss, loss, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(res.grad, grad, rtol=1e-9, atol=0.0)
        np.testing.assert_array_equal(res.grad == 0.0, grad == 0.0)
    np.testing.assert_allclose(res.precisions, ref.precisions, rtol=1e-9, atol=0.0)
    if not interpolated:
        np.testing.assert_allclose(ap_loss(batch, step), oracles[1][0], rtol=1e-12, atol=0.0)
    elif step.kind == "heaviside":
        value = exact_metrics(batch).interpolated_ap_loss
        np.testing.assert_allclose(value, ref.loss, rtol=1e-12, atol=0.0)


@OVERFLOW_OK
@pytest.mark.parametrize("kind", BATCH_KINDS)
@PROPERTY
@given(
    st.data(), st.sampled_from(BOUNDED_STEPS), st.booleans(), st.booleans(), st.sampled_from(CHUNKS)
)
def test_band_path_matches_the_oracles(kind, data, step, interpolated, prune, chunk):
    with mock.patch.object(gradients, "_BAND_CHUNK", chunk):
        assert_matches_the_oracles(data.draw(BATCH_KINDS[kind]), step, interpolated, prune)


@OVERFLOW_OK
@pytest.mark.parametrize("kind", BATCH_KINDS)
@PROPERTY
@given(st.data(), st.sampled_from(BOUNDED_STEPS), st.booleans())
def test_pruning_moves_the_band_path_by_rounding_only(kind, data, step, interpolated):
    batch = data.draw(BATCH_KINDS[kind])
    on, off = (
        grad_accelerated(batch, step, GradOptions(interpolated, prune_trivial_negatives=prune))
        for prune in (True, False)
    )
    np.testing.assert_allclose(on.loss, off.loss, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(on.grad, off.grad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("step", BOUNDED_STEPS, ids=lambda c: f"{c.kind}-{c.delta}")
def test_band_edges_at_and_within_ulps_of_the_half_width(step):
    # Negatives at s_i - h, s_i and s_i + h (h = delta for the ramp, 0 for
    # the Heaviside) and up to 6 ulps either side, around positives of
    # several magnitudes.  A band an ulp too narrow would count a term as
    # exactly 0 or 1 where the oracle's difference gives another value.
    h = step.delta if step.kind == "piecewise" else 0.0
    positives = np.array([0.25, 0.3, -7.7, 1e6 + 0.1, 3.0e15])
    negatives = []
    for s in positives:
        for edge in (s - h, s, s + h):
            x = edge
            for _ in range(6):
                x = np.nextafter(x, -np.inf)
            for _ in range(13):
                negatives.append(x)
                x = np.nextafter(x, np.inf)
    scores = np.concatenate([positives, negatives])
    labels = np.repeat([1, 0], [positives.shape[0], len(negatives)])
    batch = SampleBatch(scores, labels)
    assert (grad_reference(batch, step).grad == 0.0).any()  # exact zeros to keep
    for interpolated in (False, True):
        for prune in (False, True):
            assert_matches_the_oracles(batch, step, interpolated, prune)


# The rank view against the standalone forms it replaced: each sort made
# inside its consumer, the trivial negatives found by a mask over them in
# ``neg`` order, and the band kernel fed its own argsort of the kept ones.
def standalone_counts(scores, pos, neg):
    s_pos = scores[pos]
    neg_sorted, pos_sorted = np.sort(scores[neg]), np.sort(s_pos)
    num = neg.shape[0] - neg_sorted.searchsorted(s_pos, side="left")
    denom = num + (pos.shape[0] - pos_sorted.searchsorted(s_pos, side="left"))
    cols = pos_sorted.searchsorted(scores[neg], side="right")
    return num.astype(np.float64), denom.astype(np.float64), cols.astype(np.float64)


def standalone_accelerated(scores, pos, neg, step, opts):
    grad, p = np.zeros(scores.shape[0]), pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return 0.0, grad, 0
    diff = scores[neg] - scores[pos].min()
    if step.kind == "sigmoid" or not opts.prune_trivial_negatives:
        kept = neg
    else:
        kept = neg[diff > -step.delta if step.kind == "piecewise" else diff >= 0.0]
    order = np.argsort(scores[pos], kind="stable")
    if step.kind == "sigmoid":
        loss, contrib, neg_grad, _ = gradients._sigmoid_core(
            scores[pos[order]], scores[kept], step.k, opts.interpolated
        )
    else:
        neg_order = np.argsort(scores[kept])
        loss, contrib, g, _ = gradients._sorted_band_core(
            scores[pos[order]], scores[kept][neg_order], step, opts.interpolated
        )
        neg_grad = np.empty(kept.shape[0])
        neg_grad[neg_order] = g
    grad[pos[order]] -= contrib
    grad[kept] = neg_grad
    if opts.normalize_by_positives:
        grad /= p
    return float(loss / p), grad, neg.shape[0] - kept.shape[0]


@st.composite
def cut_edge_batches(draw, h):
    """Quarter ticks whose negatives partly sit within 2 ulps of s_min - h,
    the pruning cut of a step of half-width h.  The lowest positive is set
    to a score from which s_min - h rounds for h > 0, so that comparing a
    negative with s_min - h is not the same test as the cut's."""
    batch = draw(batches())
    scores, labels = batch.scores.copy(), batch.labels
    pos, neg = partition(batch)
    if pos.shape[0]:
        s_min = draw(st.sampled_from((-7.7, -0.9, -0.3, 0.45)))
        scores[pos] = np.maximum(scores[pos], s_min)
        scores[pos[0]] = s_min
        for j in neg[: draw(st.integers(0, neg.shape[0]))]:
            ulps = draw(st.integers(-2, 2))
            scores[j] = s_min - h
            for _ in range(abs(ulps)):
                scores[j] = np.nextafter(scores[j], ulps * np.inf)
    return SampleBatch(scores, labels)


VIEW_KINDS = (*BATCH_KINDS, "cut_edge")


@OVERFLOW_OK
@pytest.mark.parametrize("kind", VIEW_KINDS)
@PROPERTY
@given(st.data(), st.sampled_from(STEPS), st.booleans(), st.booleans())
def test_rank_view_keeps_the_standalone_bits(kind, data, step, interpolated, normalize):
    # Loss, counts, gradient and pruned count, bit for bit, with pruning on
    # and off, whether the view argsorts its negatives up front or on first use.
    h = step.delta if step.kind == "piecewise" else 0.0
    batch = data.draw(cut_edge_batches(h) if kind == "cut_edge" else BATCH_KINDS[kind])
    scores, (pos, neg) = batch.scores, partition(batch)
    num, denom, cols = standalone_counts(scores, pos, neg)
    for cut in (None, 0.0, h or 0.5):
        for ordered in (False, True):
            view = RankView(scores, pos, neg, cut, ordered)
            assert_same_bits(rank_counts(view)[0], num)
            assert_same_bits(rank_counts(view)[1], denom)
            assert_same_bits(column_counts(view), cols)
    for prune in (False, True):
        opts = GradOptions(interpolated, prune, normalize)
        loss, grad, pruned = standalone_accelerated(scores, pos, neg, step, opts)
        cut = gradients._cut(step, opts)
        for ordered in (False, True):
            res = gradients._accelerated_core(RankView(scores, pos, neg, cut, ordered), step, opts)
            assert_same_bits(res.loss, loss)
            assert_same_bits(res.grad, grad)
            assert res.pruned_negatives == pruned
        res = grad_accelerated(batch, step, opts)
        assert_same_bits(res.grad, grad)
        assert (res.loss, res.pruned_negatives) == (loss, pruned)
    expected = float((num / denom).sum() / pos.shape[0]) if pos.shape[0] and neg.shape[0] else 0.0
    assert_same_bits(ap_loss(batch), expected)


@st.composite
def outlier_batches(draw):
    """Quarter ticks plus one valid sample at +-720, past the separable span for k <= 1."""
    batch = draw(batches())
    outlier = draw(st.sampled_from((720.0, -720.0)))
    label = draw(st.sampled_from((1, 0)))
    return SampleBatch(np.append(batch.scores, outlier), np.append(batch.labels, label))


SMOOTHED_KINDS = {"ticks": batches(), "offset": offset_batches(), "outlier": outlier_batches()}
SMOOTHED_CFGS = tuple(
    SmoothedApConfig(k=k, log_space=log_space) for k in (0.25, 0.5, 1.0) for log_space in (False, True)
)


@pytest.mark.parametrize("kind", SMOOTHED_KINDS)
@PROPERTY
@given(st.data(), st.sampled_from(SMOOTHED_CFGS), st.sampled_from((None, 1, 3)))
def test_smoothed_ap_matches_the_long_double_definition(kind, data, cfg, chunk_rows):
    # Within 1e-9 of the largest reference entry; exact zeros are not
    # required to match, as the per-pair form rounds gradients of 1e-20 to 0.
    # The block also runs in chunks of one and of three rows.
    batch = data.draw(SMOOTHED_KINDS[kind])
    n_valid = int((batch.labels >= 0).sum())
    with sigmoid_chunk_rows(chunk_rows, n_valid), per_pair_sigmoid() as per_pair:
        loss, grad = smoothed_ap_loss_and_grad(batch, cfg)
    both_classes = (batch.labels == 1).any() and (batch.labels == 0).any()
    assert per_pair.called == (kind == "outlier" and both_classes)
    ref_loss, ref_grad = smoothed_ap_longdouble(batch, cfg)
    assert abs(loss - ref_loss) <= 1e-9 * abs(ref_loss) + 1e-15
    assert np.abs(grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max() + 1e-15


@pytest.mark.parametrize("kind", SMOOTHED_KINDS)
@PROPERTY
@given(
    st.data(),
    st.sampled_from(tuple(StepConfig.sigmoid(k) for k in (0.25, 0.5, 1.0))),
    st.booleans(),
    st.sampled_from((None, 1, 3)),
)
def test_sigmoid_path_matches_the_oracles(kind, data, step, interpolated, chunk_rows):
    # The sigmoid error-driven gradient reads the same block rows as the
    # smoothed baseline: separable within the span, per pair past it (the
    # +-720 outliers), at the default chunk and at one and three rows.
    batch = data.draw(SMOOTHED_KINDS[kind])
    n_valid = int((batch.labels >= 0).sum())
    with sigmoid_chunk_rows(chunk_rows, n_valid), per_pair_sigmoid() as per_pair:
        assert_matches_the_oracles(batch, step, interpolated, prune=True)
    both_classes = (batch.labels == 1).any() and (batch.labels == 0).any()
    assert per_pair.called == (kind == "outlier" and both_classes)
