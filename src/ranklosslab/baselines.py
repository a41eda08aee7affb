"""Comparison losses and consistency checks for the error-driven scheme.

Contains the differentiable baseline (AP-style loss with every hard step
replaced by a sigmoid, optimized by true gradient descent, optionally in
log space), the AUC-style error-driven gradient, and the two classic
activations -- softmax and the margin step -- for which the error-driven
update collapses to the gradients of cross-entropy and hinge loss.  The
AUC gradient is the accelerated error-driven kernel with every rank
denominator 1 (``losses._auc_core``), so no step builds a P x n block.

The smoothed baseline reduces its P x n sigmoid block a few rows at a
time, as ``_pairwise.sigmoid_rows`` yields them: from separable
exponentials a_i * b_j, P + n ``exp`` calls and one outer product, within
a score span (max - min)/k of 350, and one bounded ``exp`` per pair past
it.  The block is never whole in memory, and its derivative is never
built: k * sigmoid' = a_i * sig^2 * b_j, so each chunk squares its rows in
place, takes the rows' sums of the derivative as one matrix-vector
product with b, scaled by a_i, and adds the quotient rule's column sums
without their factor b_j, which multiplies them once per call.  Past the
span the derivative is sig * (1 - sig) per pair, with unit factors.

Where ``_pairwise.sigmoid_series`` finds the Taylor series over bins of
negatives cheaper (large batches within the span, by its cost model), the
negatives' row sums of the sigmoid and of its slope, and their columns of
the slopes weighted by num_i/(p denom_i^2) - 1/(p denom_i), come from
``_pairwise.SigmoidSeries`` instead, to within about 1e-16 of a pair, and
only the positives' own block is built, by ``sigmoid_rows`` over the
positives alone: once for its row sums before the series, once for its
weighted columns after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pairwise
from .batch import SampleBatch, partition
from .losses import _auc_core
from .steps import HEAVISIDE, StepConfig


@dataclass(frozen=True)
class SmoothedApConfig:
    """Sigmoid-smoothed AP baseline settings.

    ``k`` scales the sigmoid slope.  With ``log_space`` the returned
    objective is -log(smoothed AP + epsilon), whose amplified early
    gradient helps plain gradient descent leave the initial state.
    """

    k: float = 0.5
    log_space: bool = False
    epsilon: float = 1e-2

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError(f"sigmoid slope k must be positive and finite, got {self.k}")
        if self.log_space and not 0 < self.epsilon < math.inf:
            raise ValueError(f"log-space objective requires finite epsilon > 0, got {self.epsilon}")


def _smoothed_core(
    scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: SmoothedApConfig
) -> tuple[float, np.ndarray]:
    p = pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return 0.0, np.zeros(scores.shape[0])
    cols = _pairwise.columns(pos, neg)
    # Only valid scores enter the block, so ignored samples change no bit
    # of the result.
    s = scores[cols]
    bounds = float(s.min()), float(s.max())
    series = _pairwise.sigmoid_series(s, p, cfg.k, bounds)
    if series is None:
        value, g = _smoothed_rows(s, p, cfg.k, bounds)
    else:
        value, g = _smoothed_series(series, s, p, cfg.k)
    # Allocated only now, so it is not held while the block is evaluated.
    grad = np.zeros(scores.shape[0])
    grad[cols] = g
    if cfg.log_space:
        # Minimizing -log(1 - value + eps) maximizes log(smoothed AP + eps).
        grad *= 1.0 / (1.0 - value + cfg.epsilon)
        return float(-np.log(1.0 - value + cfg.epsilon)), grad
    return value, grad


def _smoothed_rows(
    s: np.ndarray, p: int, k: float, bounds: tuple[float, float]
) -> tuple[float, np.ndarray]:
    """The smoothed value and its gradient over ``s`` (positives, then
    negatives, with (min, max) ``bounds``) from the dense rows of
    ``_pairwise.sigmoid_rows``."""
    num, denom, own = np.empty(p), np.empty(p), np.empty(p)
    g = np.zeros(s.shape[0])
    for i0, i1, sig, a, b in _pairwise.sigmoid_rows(s, p, k, bounds):
        num[i0:i1] = sig[:, p:].sum(axis=1)
        denom[i0:i1] = 1.0 + num[i0:i1] + sig[:, :p].sum(axis=1)

        # k * sigmoid' is a_i * sig^2 * b_j, 0 on the row's own column; past
        # the separable span it is sig * (1 - sig), with unit factors.
        if a is None:
            sig *= 1.0 - sig
            a, b = np.ones(i1 - i0), np.ones(s.shape[0])
        else:
            sig *= sig
        # d(value)/d(s_m): the quotient rule splits into a per-column part (m
        # is column j or k of row i), summed here without its factor b_j,
        # and a per-row part (m is the row's own positive, entering every
        # difference with opposite sign), from the rows' sums of the slopes.
        # The weights 1/(p denom_i) and num_i/(p denom_i^2) carry a_i.
        w_num = a / (p * denom[i0:i1])
        w_den = w_num * (num[i0:i1] / denom[i0:i1])
        w_neg = w_num - w_den
        g[:p] -= w_den @ sig[:, :p]
        g[p:] += w_neg @ sig[:, p:]
        own[i0:i1] = w_den * (sig[:, :p] @ b[:p]) - w_neg * (sig[:, p:] @ b[p:])
    g *= b
    g[:p] += own
    g /= k
    return float((num / denom).sum() / p), g


def _smoothed_series(
    series: _pairwise.SigmoidSeries, s: np.ndarray, p: int, k: float
) -> tuple[float, np.ndarray]:
    """``_smoothed_rows``' results with the negatives' sums from ``series``
    and the positives' own block from ``sigmoid_rows`` over the positives
    alone, separable within the span that ``series`` holds: its row sums
    come first, and its weighted column sums, once ``series`` has given
    every weight, last."""
    s_pos = s[:p]
    pos_sig, pos_slope = np.empty(p), np.empty(p)
    for i0, i1, sig, a, b in _pairwise.sigmoid_rows(s_pos, p, k):
        pos_sig[i0:i1] = sig.sum(axis=1)
        sig *= sig
        pos_slope[i0:i1] = a * (sig @ b)
    num, denom, w_den, own = np.empty(p), np.empty(p), np.empty(p), np.empty(p)

    def weigh(i0, i1, neg_sig, neg_slope):
        num[i0:i1] = neg_sig
        denom[i0:i1] = 1.0 + neg_sig + pos_sig[i0:i1]
        w_num = 1.0 / (p * denom[i0:i1])
        w_den[i0:i1] = w_num * (neg_sig / denom[i0:i1])
        w_neg = w_num - w_den[i0:i1]
        own[i0:i1] = w_den[i0:i1] * pos_slope[i0:i1] - w_neg * neg_slope
        return w_neg

    g = np.zeros(s.shape[0])
    series.sums(s_pos, weigh, True, g[p:])
    for i0, i1, sig, a, b in _pairwise.sigmoid_rows(s_pos, p, k):
        sig *= sig
        g[:p] -= (w_den[i0:i1] * a) @ sig
    g[:p] *= b
    g[:p] += own
    g /= k
    return float((num / denom).sum() / p), g


def smoothed_ap_loss_and_grad(
    batch: SampleBatch, cfg: SmoothedApConfig = SmoothedApConfig()
) -> tuple[float, np.ndarray]:
    """Smoothed AP-style loss and its true analytic score gradient.

    The hard steps of the pairwise loss are replaced by sigmoids of slope
    scale ``k`` so the objective is differentiable everywhere; the gradient
    is exact (finite-difference checkable), not error-driven.  The sigmoid
    block comes from ``_pairwise.sigmoid_rows``, a few rows at a time, or
    on large batches its negatives' sums from the series kernel
    ``_pairwise.SigmoidSeries``, so no P x n array is allocated.
    Ignored samples change no bit of the result.
    """
    pos, neg = partition(batch)
    return _smoothed_core(batch.scores, pos, neg, cfg)


def auc_grad(
    batch: SampleBatch, cfg: StepConfig = HEAVISIDE
) -> tuple[float, np.ndarray]:
    """Error-driven update for the pair-counting (AUC-style) loss.

    Every pair charges step(s_j - s_i)/(|P| |N|), under the Heaviside
    1/(|P| |N|) per misordered pair: subtracted from its positive's
    gradient entry, added to its negative's, so the gradient sums to zero
    to rounding.  Negatives below the step's pruning cut charge nothing
    and are never sorted.
    """
    return _auc_core(_pairwise.RankView(batch.scores, *partition(batch), cfg))[:2]


def softmax_error_driven(x: np.ndarray, y: int) -> np.ndarray:
    """Error-driven update with a softmax activation; equals the
    cross-entropy gradient softmax(x) - onehot(y).

    ``y`` is the 1-based true-class index.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("x must be a non-empty 1-d score vector")
    if not 1 <= y <= x.shape[0]:
        raise ValueError(f"class index {y} out of range 1..{x.shape[0]}")
    z = x - x.max()
    e = np.exp(z)
    g = e / e.sum()
    g[y - 1] -= 1.0
    return g


def hinge_error_driven(x: float, y: int) -> np.ndarray:
    """Error-driven update with a unit-margin step activation; equals a
    hinge-loss subgradient with respect to the class scores (-x, x).

    ``y`` in {1, 2} picks the true class.  At the margin boundary the step
    evaluates to 1, selecting the zero subgradient.
    """
    if y not in (1, 2):
        raise ValueError(f"class index must be 1 or 2, got {y}")
    x = float(x)
    class_scores = (-x, x)
    g = np.zeros(2)
    activation = 1.0 if class_scores[y - 1] - 1.0 >= 0.0 else 0.0
    g[y - 1] = activation - 1.0
    return g
