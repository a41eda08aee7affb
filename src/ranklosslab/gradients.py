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
* ``grad_accelerated`` -- the production path: loops over positives in
  ascending score order, keeps only one pairwise row alive at a time, and
  optionally drops trivial negatives (those scoring so far below every
  positive that their activation is exactly zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pairwise
from .batch import SampleBatch, partition
from .steps import (
    HEAVISIDE,
    PIECEWISE_KIND,
    SIGMOID_KIND,
    StepConfig,
    _step_scalar,
    step_value,
)


@dataclass(frozen=True)
class GradOptions:
    """Switches for the accelerated gradient path.

    ``interpolated`` rescales each positive's pairwise terms so precision
    is non-decreasing along ascending positive scores.  Pruning drops
    negatives whose activation is exactly zero against every positive; it
    never changes the result for step kinds with bounded support and is a
    no-op for the sigmoid, whose trivial set is empty.
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


def _positive_order(scores: np.ndarray, pos: np.ndarray) -> np.ndarray:
    # Stable ascending sort: ties between positives resolve by original
    # sample index, keeping results deterministic.
    return np.argsort(scores[pos], kind="stable")


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

    order = _positive_order(batch.scores, pos)
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


def _trivial_negative_mask(
    scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: StepConfig
) -> np.ndarray:
    """Mask of negatives to KEEP (the non-trivial ones).

    A negative is trivial when its activation against every positive is
    exactly zero: at or below ``s_min - delta`` for the ramp, strictly
    below the lowest positive score for the hard step (an exact tie still
    activates).  The comparison runs on the pairwise difference against
    the lowest positive, the same float the step function would see, so
    pruning never disagrees with an unpruned evaluation by even a
    rounding error.  The sigmoid never vanishes, so nothing is trivial
    there.
    """
    if cfg.kind == SIGMOID_KIND:
        return np.ones(neg.shape[0], dtype=bool)
    diff = scores[neg] - scores[pos].min()
    if cfg.kind == PIECEWISE_KIND:
        return diff > -cfg.delta
    return diff >= 0.0


def _accelerated_core(
    scores: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    cfg: StepConfig,
    opts: GradOptions,
) -> GradResult:
    """Row-at-a-time gradient on raw arrays (shared hot path)."""
    grad = np.zeros(scores.shape[0])
    p = pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return GradResult(0.0, grad, 0, np.ones(p))
    if opts.prune_trivial_negatives:
        kept_neg = neg[_trivial_negative_mask(scores, pos, neg, cfg)]
    else:
        kept_neg = neg
    pruned = int(neg.shape[0] - kept_neg.shape[0])

    sub = np.concatenate([pos, kept_neg])
    s_sub = scores[sub]
    neg_grad = np.zeros(kept_neg.shape[0])
    max_prec = 0.0
    loss = 0.0
    precs = np.empty(p)
    for rank, a in enumerate(_positive_order(scores, pos)):
        f = step_value(s_sub - scores[pos[a]], cfg)
        denom = 1.0 + f.sum() - f[a]
        row = f[p:] / denom
        prec = 1.0 - row.sum()
        if prec >= max_prec:
            max_prec = prec
        elif opts.interpolated:
            row = row * ((1.0 - max_prec) / (1.0 - prec))
            prec = max_prec
        precs[rank] = prec
        contribution = row.sum()
        loss += contribution
        grad[pos[a]] -= contribution
        neg_grad += row
    grad[kept_neg] = neg_grad
    loss /= p
    if opts.normalize_by_positives:
        grad /= p
    return GradResult(float(loss), grad, pruned, precs)


def grad_accelerated(
    batch: SampleBatch,
    cfg: StepConfig = HEAVISIDE,
    opts: GradOptions = GradOptions(),
) -> GradResult:
    """Row-at-a-time gradient with trivial-negative pruning.

    Memory stays linear in the batch: for each positive (visited in
    ascending score order) one row of pairwise differences against the
    positives and surviving negatives is computed, consumed, and dropped.
    With interpolation off the output matches ``grad_bruteforce``; with it
    on, each row whose precision falls below the running maximum is
    rescaled so recorded precisions never decrease.
    """
    pos, neg = partition(batch)
    return _accelerated_core(batch.scores, pos, neg, cfg, opts)
