"""Error-driven gradients for the pairwise AP-style ranking loss.

The update signal for each score is assembled directly from the pairwise
loss terms: every term L_ij pushes its positive down-weight (-L_ij) and its
negative up-weight (+L_ij), so the loss needs no derivative to produce a
gradient.  Three routes compute it:

* ``grad_bruteforce`` -- a plain double loop over all positive-negative
  pairs; slow, obviously correct, and kept as the oracle.
* ``grad_reference``  -- a dense vectorized implementation that also
  supports the interpolated (monotone-precision) variant; oracle for the
  accelerated path's interpolation mode.
* ``grad_accelerated`` -- the production path, which optionally drops
  trivial negatives (those scoring so far below every positive that their
  activation is exactly zero).  It reads the batch's rank view
  (``_pairwise.RankView``), built for its step, whose negatives are sorted
  once for the exact loss and the update alike, and orders the positives
  it walks itself, one packed-key sort per call; the kernel takes the step
  and the pruning from the view.  For the hard step and the ramp the view
  only counts the trivial negatives and sorts the rest; against each
  positive, the terms outside the step's transition band are exactly 0
  or 1 and are only counted, and the band terms are evaluated on the
  actual differences, a group of positives in one pass and tied
  positives once.  The negatives' gradient goes back through the view's
  order, which holds their sample indices, in one scatter, so a call
  costs O(n) plus O(k log k) for the k kept negatives, plus the band
  pairs; what each positive adds above its band costs O(p) plus one
  repeat over the kept negatives.  The sigmoid, whose transition has
  no bounded width, is one call of ``_pairwise.sigmoid_sums`` in
  ascending positive order, whose series reads the view's sorted
  negatives: each chunk of rows gets its sums over the
  negatives and over the positives, forms its rank denominators and
  precisions, and returns the weights of the negatives' columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairwise
from .batch import SampleBatch, partition
from .steps import (
    HEAVISIDE,
    PIECEWISE_KIND,
    SIGMOID_KIND,
    StepConfig,
    _step_array,
    _step_scalar,
    step_value,
)


@dataclass(frozen=True)
class GradOptions:
    """Switches for the accelerated gradient path.

    ``interpolated`` rescales each positive's pairwise terms so precision
    is non-decreasing along ascending positive scores.  Pruning drops
    negatives whose activation is exactly zero against every positive.
    For the bounded-support steps it changes the result by rounding at
    most: a dropped negative can still sit in the lowest positive's band
    (with a zero term), and a different band size can regroup the sums.
    It is a no-op for the sigmoid, whose trivial set is empty.
    """

    interpolated: bool = False
    prune_trivial_negatives: bool = True
    normalize_by_positives: bool = True


@dataclass(frozen=True)
class GradResult:
    loss: float
    grad: np.ndarray
    pruned_negatives: int = 0
    # Per-positive precision after any interpolation, in ascending-score
    # processing order; None when not tracked.
    precisions: np.ndarray | None = None


def grad_bruteforce(
    batch: SampleBatch, cfg: StepConfig = HEAVISIDE, normalize: bool = True
) -> tuple[float, np.ndarray]:
    """Loss and gradient by explicit enumeration of all valid pairs.

    For each positive i the rank denominator is accumulated over every
    other valid sample, then each negative j contributes one term that is
    subtracted from grad[i] and added to grad[j].  ``normalize`` divides
    both loss and gradient by the positive count (the loss is always
    reported normalized).
    """
    pos, neg = partition(batch)
    grad = np.zeros(batch.n)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return 0.0, grad
    s = batch.scores
    valid = np.concatenate([pos, neg]).tolist()
    loss = 0.0
    for i in pos.tolist():
        si = s[i]
        denom = 1.0
        for k in valid:
            if k != i:
                denom += _step_scalar(s[k] - si, cfg)
        for j in neg.tolist():
            term = _step_scalar(s[j] - si, cfg) / denom
            loss += term
            grad[i] -= term
            grad[j] += term
    loss /= pos.shape[0]
    if normalize:
        grad /= pos.shape[0]
    return float(loss), grad


def grad_reference(
    batch: SampleBatch,
    cfg: StepConfig = HEAVISIDE,
    interpolated: bool = False,
    normalize: bool = True,
) -> GradResult:
    """Dense, non-accelerated gradient; oracle for the accelerated path.

    Materializes the full positives-by-valid pairwise matrix, then walks
    positives in ascending score order applying the optional interpolation
    rescale row by row.
    """
    pos, neg = partition(batch)
    grad = np.zeros(batch.n)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return GradResult(0.0, grad, 0, np.ones(pos.shape[0]))
    p = pos.shape[0]
    f = step_value(_pairwise.diffs(batch.scores, pos, neg), cfg)
    terms = f[:, p:] / _pairwise.rank_denominators(f)[:, None]

    # Stable ascending sort: ties between positives resolve by original
    # sample index, keeping results deterministic.
    order = np.argsort(batch.scores[pos], kind="stable")
    max_prec = 0.0
    loss = 0.0
    precs = np.empty(p)
    for rank, a in enumerate(order):
        row = terms[a]
        prec = 1.0 - row.sum()
        if prec >= max_prec:
            max_prec = prec
        elif interpolated:
            row = row * ((1.0 - max_prec) / (1.0 - prec))
            prec = max_prec
        precs[rank] = prec
        loss += row.sum()
        grad[pos[a]] -= row.sum()
        grad[neg] += row
    loss /= p
    if normalize:
        grad /= p
    return GradResult(float(loss), grad, 0, precs)


# Band pairs evaluated together as one row group: each of the group's
# temporaries takes 64 kB.  Over the kernel's calls in the error-driven
# sweep at 1:1000, bounds of 2^12 and 2^14 were slower.
_GROUP_PAIRS = 1 << 13


def _band_groups(t, s, lo, hi, cfg):
    """Yield (a, b, f, sums) over row groups: rows a..b-1 whose bands
    [lo_i, hi_i) of the ascending ``t`` hold at most ``_GROUP_PAIRS`` pairs
    together, or one wider band alone.  f = step(t_j - s_i), the floats
    the oracles compute, for each row i and each j in its band, row after
    row: the concatenated windows t[lo_i:hi_i], less s_i.  ``sums`` holds
    each row's sum of them, by ``sum`` for a band alone and by
    ``np.add.reduceat`` for a group, whose bits differ.  ``f`` is the
    caller's to overwrite.  Both edges must ascend with the rows."""
    sizes = hi - lo
    ends = np.add.accumulate(sizes)
    starts = ends - sizes
    a = 0
    while a < s.shape[0]:
        b = max(a + 1, int(ends.searchsorted(starts[a] + _GROUP_PAIRS, "right")))
        f, k = np.empty(ends[b - 1] - starts[a]), 0
        for l, h, x in zip(lo[a:b].tolist(), hi[a:b].tolist(), s[a:b].tolist()):
            np.subtract(t[l:h], x, out=f[k : k + h - l])
            k += h - l
        _step_array(f, cfg, out=f)
        if b == a + 1:
            sums = f.sum()
        else:
            # np.add.reduceat reads an empty band as the next band's first
            # term, so only the rows with a term are reduced.
            some = sizes[a:b] > 0
            sums = np.zeros(b - a)
            sums[some] = np.add.reduceat(f, starts[a:b][some] - starts[a])
        yield a, b, f, sums
        a = b


def _precisions(num, denom, interpolated, max_prec):
    """(w, contrib, prec, max_prec) for a chunk of rows in ascending order:
    row i's negative terms are w_i times its steps and sum to contrib_i.
    With ``interpolated`` a precision below the running maximum (carried in
    ``max_prec``) is rescaled up to it."""
    frac = num / denom
    prec = 1.0 - frac
    if not interpolated:
        return 1.0 / denom, frac, prec, max_prec
    scale = np.ones(num.shape[0])
    best = np.maximum(np.maximum.accumulate(prec), max_prec)
    low = prec < best
    scale[low] = (1.0 - best[low]) / (1.0 - prec[low])
    prec[low] = best[low]
    return scale / denom, frac * scale, prec, best[-1]


def _sorted_band_core(s_pos, t, cfg, interpolated, denom=None):
    """The bounded-support steps on sorted scores.

    ``s_pos`` and the kept negatives' scores ``t`` are both ascending.
    Each positive's band holds the scores within the step's half-width (0
    for the Heaviside) plus a few ulps; every term outside it is exactly 0
    below and exactly 1 above, so it is only counted, and the band terms
    are evaluated on the actual differences, a row group at a time
    (``_band_groups``): one step evaluation, one reduction to row sums,
    one precision update and one add into the negatives' gradient per
    group, of its rows' weighted terms summed over the group's span.  Tied
    positives have the same band and the same terms, so each distinct
    score is one row, whose weight is the sum of its tied positives'.
    ``denom``, in ``s_pos`` order and equal for tied positives, replaces
    the soft rank denominators 1 + sum_{k != i} step(s_k - s_i), and then
    the positives' own band pass is skipped.
    Returns the loss, the per-positive contributions, the negatives'
    gradient in ``t`` order and the precisions, all unnormalized.
    """
    p, m = s_pos.shape[0], t.shape[0]
    h = cfg.delta if cfg.kind == PIECEWISE_KIND else 0.0
    # The distinct scores and, when two positives tie, each one's count.
    s, counts = s_pos, None
    new = s_pos[1:] != s_pos[:-1]
    if not new.all():
        runs = np.flatnonzero(np.concatenate([[True], new]))
        s, counts = s_pos[runs], np.diff(runs, append=p)
    # One half-width for every row: the step's plus a few ulps of the
    # largest score, which cover the rounding of s_i -+ width, so both band
    # edges ascend with the rows.  Only scores past about 1e15, whose ulp
    # exceeds 0.1, widen a band by more than a rounding error; past the
    # largest double the width is inf, and every band takes in every score.
    width = h + 4.0 * math.ulp(max(-float(s[0]), float(s[-1])) + h)
    with np.errstate(over="ignore"):
        below, above = s - width, s + width

    if denom is None:
        # Rank denominators less the negatives: the row's own sample is in
        # its band with the term step(0).
        lo, hi = s_pos.searchsorted(below, "left"), s_pos.searchsorted(above, "right")
        others = np.subtract(p - step_value(0.0, cfg), hi)
        for a, b, _, sums in _band_groups(s_pos, s, lo, hi, cfg):
            others[a:b] += sums
    elif counts is not None:
        denom = denom[runs]

    # Sums, precisions and the band's share of the negatives' gradient.
    lo, hi = t.searchsorted(below, "left"), t.searchsorted(above, "right")
    num = np.subtract(m, hi, dtype=np.float64)
    w, contrib, precs = np.empty(s.shape[0]), np.empty(s.shape[0]), np.empty(s.shape[0])
    g = np.zeros(m)
    max_prec = 0.0
    for a, b, f, sums in _band_groups(t, s, lo, hi, cfg):
        num[a:b] += sums
        d = 1.0 + others[a:b] + num[a:b] if denom is None else denom[a:b]
        w[a:b], contrib[a:b], precs[a:b], max_prec = _precisions(
            num[a:b], d, interpolated, max_prec
        )
        weight = w[a:b]
        if counts is not None:
            # Each distinct score's weight, added up over its tied positives
            # one at a time, as a scatter of each positive's row would.
            run = np.repeat(np.arange(b - a), counts[a:b])
            weight = np.bincount(run, weights=weight[run])
        if b == a + 1:
            f *= weight[0]
            g[lo[a] : hi[a]] += f
        else:
            # Each row's weighted terms onto a zeroed span in row order: the
            # sums a bincount of the group's terms over their negatives gives.
            f *= np.repeat(weight, hi[a:b] - lo[a:b])
            span, k = np.zeros(hi[b - 1] - lo[a]), 0
            for l, h in zip((lo[a:b] - lo[a]).tolist(), (hi[a:b] - lo[a]).tolist()):
                span[l:h] += f[k : k + h - l]
                k += h - l
            g[lo[a] : hi[b - 1]] += span
    if counts is not None:
        w, contrib, precs, hi = (np.repeat(x, counts) for x in (w, contrib, precs, hi))
    # Above its band each positive adds w_i to every negative; below the
    # lowest band end nothing is added, and g holds no -0.0 that adding
    # +0.0 would change.
    g[hi[0] :] += _above_band(hi, w, m)
    return float(contrib.sum()), contrib, g, precs


def _above_band(hi, w, m):
    """Entries hi[0]..m-1 of what the positives add above their bands:
    negative j of the m sorted ones gets the sum of w_i over the positives
    with hi_i <= j, taken in ascending positive order.  ``hi`` ascends and
    ``w`` is not negative.

    These are the bits of ``np.bincount(hi, weights=w, minlength=m +
    1).cumsum()[hi[0]:-1]`` in O(p) work plus one ``np.repeat``.
    ``bincount`` sums each bin from +0.0 in input order, here once per run
    of equal ``hi``, into the bin of the run's first positive
    (``np.add.reduceat`` would not give its bits).  Between distinct ``hi``
    the m-length prefix only adds +0.0, which leaves a non-negative sum as
    it is, so the p-length prefix of the run sums holds every value it
    takes, and each value is repeated over the gap to the next ``hi``.
    """
    gaps = np.empty_like(hi)
    gaps[-1] = m - hi[-1]
    np.subtract(hi[1:], hi[:-1], out=gaps[:-1])
    prefix = np.bincount(hi.searchsorted(hi), weights=w, minlength=hi.shape[0]).cumsum()
    return np.repeat(prefix, gaps)


def _sigmoid_core(s_pos, s_neg, neg_sorted, k, interpolated, denom=None):
    """``_sorted_band_core``'s results for the sigmoid, from the ascending
    positives ``s_pos`` and the negatives ``s_neg`` in any order, with
    ``neg_sorted`` the same negatives ascending, by
    ``_pairwise.sigmoid_sums``; ``denom`` as there."""
    p = s_pos.shape[0]
    contrib, precs = np.empty(p), np.empty(p)
    max_prec = 0.0

    def weigh(i0, i1, pos, num):
        nonlocal max_prec
        d = 1.0 + num + pos if denom is None else denom[i0:i1]
        w, contrib[i0:i1], precs[i0:i1], max_prec = _precisions(num, d, interpolated, max_prec)
        return w

    g = _pairwise.sigmoid_sums(np.concatenate([s_pos, s_neg]), p, k, weigh, False, neg_sorted)
    return float(contrib.sum()), contrib, g[p:], precs


def _accelerated_core(
    view: _pairwise.RankView, opts: GradOptions, denom: np.ndarray | None = None
) -> GradResult:
    """Accelerated gradient on a rank view built for its step (shared hot
    path), pruned as the view was built; a ``denom`` in ``pos`` order
    replaces the soft rank denominators."""
    pos, neg, cfg = view.pos, view.neg, view.step
    grad = np.zeros(view.scores.shape[0])
    p = pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return GradResult(0.0, grad, 0, np.ones(p))
    order, s_pos = _pairwise._sorted_order(view.pos_scores)
    if denom is not None:
        denom = denom[order]
    if cfg.kind == SIGMOID_KIND:
        loss, contrib, grad[neg], precs = _sigmoid_core(
            s_pos, view.scores[neg], view.neg_sorted, cfg.k, opts.interpolated, denom
        )
    else:
        loss, contrib, neg_grad, precs = _sorted_band_core(
            s_pos, view.neg_sorted, cfg, opts.interpolated, denom
        )
        grad[view.neg_index] = neg_grad
    grad[pos[order]] -= contrib
    loss /= p
    if opts.normalize_by_positives:
        grad /= p
    return GradResult(float(loss), grad, view.below, precs)


def grad_accelerated(
    batch: SampleBatch,
    cfg: StepConfig = HEAVISIDE,
    opts: GradOptions = GradOptions(),
) -> GradResult:
    """Accelerated gradient with trivial-negative pruning.

    Memory stays linear in the batch.  For the hard step and the ramp the
    surviving negatives are sorted once; each positive's sums and terms
    are counts outside its transition band plus the band's own terms,
    evaluated a bounded group of positives at a time, tied positives
    once.  For the sigmoid, the sums come from ``_pairwise.sigmoid_sums``,
    positives in ascending score order.  With
    interpolation off the output matches ``grad_bruteforce`` up to
    rounding; with it on, each row whose precision falls below the running
    maximum is rescaled so recorded precisions never decrease.
    """
    view = _pairwise.RankView(batch.scores, *partition(batch), cfg, opts.prune_trivial_negatives)
    return _accelerated_core(view, opts)
