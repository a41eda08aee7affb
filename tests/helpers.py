"""Shared test oracles: finite differences and sort-based metrics.

These deliberately take different computational routes from the library
(binary search on sorted scores instead of pairwise matrices, central
differences instead of analytic gradients) so agreement is evidence of
correctness rather than repetition.  ``smoothed_ap_longdouble`` writes
the smoothed AP objective out densely in long double.
``sigmoid_chunk_rows`` instead shrinks the sigmoid block's row chunks, so
that small batches run through the same chunk loop as large ones,
``sigmoid_series_path`` records which route each sigmoid-sums call took and
can force the series kernel on any batch within the separable span,
``per_pair_sigmoid`` records whether the block took its per-pair form,
``count_calls`` counts the calls of any module's function, and
``trace_digest`` condenses a whole training trace into one sha256 for
tests that pin its bytes.
"""

import hashlib
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np

from ranklosslab import _pairwise


def central_diff(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * eps)
    return grad


def sort_based_ap_loss(scores, labels):
    """AP-style loss via sorting and binary search, pessimistic on ties.

    rank(i) counts every valid sample scoring >= s_i (self included);
    the positives-only rank counts positives the same way.  The loss is
    one minus the mean ratio over positives.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    valid = scores[labels >= 0]
    pos = scores[labels == 1]
    if pos.size == 0 or (labels == 0).sum() == 0:
        return 0.0
    valid_sorted = np.sort(valid)
    pos_sorted = np.sort(pos)
    ratios = []
    for s in pos:
        rank_all = valid.size - np.searchsorted(valid_sorted, s, side="left")
        rank_pos = pos.size - np.searchsorted(pos_sorted, s, side="left")
        ratios.append(rank_pos / rank_all)
    return 1.0 - float(np.mean(ratios))


def pair_counting_auc_loss(scores, labels):
    """AUC-style loss by direct pair enumeration (ties misordered)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return 0.0
    bad = sum(1 for sp in pos for sn in neg if sn >= sp)
    return bad / (pos.size * neg.size)


def random_batch_arrays(rng, max_n=60, max_pos=10, with_ignored=True, tie_prob=0.5):
    """Random (scores, labels) with optional ignored labels and ties."""
    n = int(rng.integers(2, max_n + 1))
    n_pos = int(rng.integers(1, min(max_pos, n - 1) + 1))
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    if with_ignored and n - n_pos > 1:
        n_ign = int(rng.integers(0, min(3, n - n_pos - 1) + 1))
        labels[n_pos : n_pos + n_ign] = -1
    rng.shuffle(labels)
    scores = rng.standard_normal(n)
    if rng.random() < tie_prob:
        scores = np.round(scores, 1)
    return scores, labels


def sigmoid_chunk_rows(rows, n_valid):
    """Make ``_pairwise.sigmoid_rows`` take ``rows`` block rows per chunk on
    a block of ``n_valid`` columns; ``None`` keeps the library's chunk
    budget."""
    if rows is None:
        return nullcontext()
    return mock.patch.object(_pairwise, "_SIGMOID_CHUNK", rows * n_valid)


@contextmanager
def sigmoid_series_path(force=False):
    """Yield a list that gets, for each call of ``_pairwise.sigmoid_sums``
    (through its one call of ``sigmoid_series``), True where the call took
    the series route and False where it took the dense rows.  With
    ``force`` the dispatch rule ``_series_pays`` says yes to every batch,
    so every batch with both classes within the separable span takes the
    series route."""
    taken, real = [], _pairwise.sigmoid_series

    def spy(*args):
        series = real(*args)
        taken.append(series is not None)
        return series

    forced = mock.patch.object(_pairwise, "_series_pays", lambda *_: True)
    with mock.patch.object(_pairwise, "sigmoid_series", spy), forced if force else nullcontext():
        yield taken


def per_pair_sigmoid():
    """A mock of ``_pairwise.step_value`` whose ``called`` says whether
    ``_pairwise.sigmoid_sums`` took one bounded ``exp`` per pair (past the
    separable span) instead of the separable factors.  Only its dense
    rows past the span call it: the series route is never taken there,
    and within the span the positives' own block, all that the series
    leaves to the rows, is separable too."""
    return mock.patch.object(_pairwise, "step_value", wraps=_pairwise.step_value)


def count_calls(module, name):
    """Patch ``module.name`` with a mock that wraps it, so that the mock's
    ``call_count``, once the block is entered, counts its calls, made
    through the module's attribute as the library makes them."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


def smoothed_ap_longdouble(batch, cfg):
    """The smoothed AP objective and its score gradient in long double,
    written out densely: sigmoid block, then the quotient rule applied to
    each row's Jacobians of num_i and denom_i."""
    labels = batch.labels
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    p, cols = pos.shape[0], np.concatenate([pos, neg])
    grad = np.zeros(labels.shape[0], np.longdouble)
    if p == 0 or neg.shape[0] == 0:
        return np.longdouble(0.0), grad
    s, k = batch.scores.astype(np.longdouble), np.longdouble(cfg.k)
    z = (s[cols][None, :] - s[pos][:, None]) / k
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1, e) / (1 + e)
    dsig = e / (1 + e) ** 2 / k
    own = np.eye(p, cols.shape[0], dtype=bool)
    sig[own] = 0
    dsig[own] = 0
    is_neg = np.arange(cols.shape[0]) >= p
    num, denom = (sig * is_neg).sum(axis=1), 1 + sig.sum(axis=1)
    # Row i's own positive enters every difference of the row with a minus sign.
    j_num = dsig * is_neg
    j_num[own] = -j_num.sum(axis=1)
    j_den = dsig.copy()
    j_den[own] = -dsig.sum(axis=1)
    value = (num / denom).sum() / p
    grad[cols] = (j_num / denom[:, None] - (num / denom**2)[:, None] * j_den).sum(axis=0) / p
    if cfg.log_space:
        scale = 1 / (1 - value + np.longdouble(cfg.epsilon))
        return -np.log(1 - value + np.longdouble(cfg.epsilon)), grad * scale
    return value, grad


def trace_digest(trace):
    """sha256 over every column of a training trace, its weight snapshots
    and its scalars (loss kind, step size, delta, final joint loss)."""
    h = hashlib.sha256(
        repr((trace.loss_kind, trace.step_size, trace.delta, trace.final_joint_ap_loss)).encode()
    )
    for column, dtype in (
        (trace.ap_loss, np.float64),
        (trace.surrogate, np.float64),
        (trace.wall_ns, np.int64),
        (trace.pruned_neg, np.int64),
        (trace.group_id, np.int64),
    ):
        h.update(np.array(column, dtype=dtype).tobytes())
    for theta in trace.thetas or ():
        h.update(theta.tobytes())
    return h.hexdigest()
