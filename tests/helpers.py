"""Shared test oracles: finite differences and sort-based metrics.

These deliberately take different computational routes from the library
(binary search on sorted scores instead of pairwise matrices, central
differences instead of analytic gradients) so agreement is evidence of
correctness rather than repetition.  ``smoothed_chunk_rows`` instead
shrinks the smoothed-AP block's row chunks, so that small batches run
through the same chunk loop as large ones, and ``trace_digest`` condenses
a whole training trace into one sha256 for tests that pin its bytes.
"""

import hashlib
from contextlib import nullcontext
from unittest import mock

import numpy as np

from ranklosslab import baselines


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


def smoothed_chunk_rows(rows, n_valid):
    """Make the separable smoothed-AP path take ``rows`` block rows per
    chunk on a batch of ``n_valid`` valid samples; ``None`` keeps the
    library's chunk budget."""
    if rows is None:
        return nullcontext()
    return mock.patch.object(baselines, "_SMOOTHED_CHUNK", rows * n_valid)


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
