"""Comparison losses and consistency checks for the error-driven scheme.

Contains the differentiable baseline (AP-style loss with every hard step
replaced by a sigmoid, optimized by true gradient descent, optionally in
log space), the AUC-style error-driven gradient, and the two classic
activations -- softmax and the margin step -- for which the error-driven
update collapses to the gradients of cross-entropy and hinge loss.  The
AUC gradient is the accelerated error-driven kernel with every rank
denominator 1 (``losses._auc_core``), so no step builds a P x n block.

The smoothed baseline is one call of ``_pairwise.sigmoid_sums`` with
slopes: for each chunk of rows it gets the rows' sums of the sigmoid and
of k * sigmoid' over the positives' and the negatives' columns, and
returns the quotient rule's column weights, num_i/(p denom_i^2) over the
positives' columns and 1/(p denom_i) minus that over the negatives'.  The
kernel picks the dense rows or the series, so the P x n block is never
whole in memory and its derivative is never built.
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
    scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: SmoothedApConfig, neg_sorted=None
) -> tuple[float, np.ndarray]:
    p = pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return 0.0, np.zeros(scores.shape[0])
    cols = _pairwise.columns(pos, neg)
    num, denom, own = np.empty(p), np.empty(p), np.empty(p)

    def weigh(i0, i1, pos_sig, neg_sig, pos_slope, neg_slope, a):
        # d(value)/d(s_m): the quotient rule splits into a per-column part (m
        # is column j or k of row i), weighted by num_i/(p denom_i^2) over
        # the positives' columns and 1/(p denom_i) - num_i/(p denom_i^2)
        # over the negatives', and a per-row part (m is the row's own
        # positive, entering every difference with opposite sign), from the
        # rows' sums of the slopes.
        num[i0:i1] = neg_sig
        d = denom[i0:i1] = 1.0 + neg_sig + pos_sig
        w_num = a / (p * d)
        w_den = w_num * (neg_sig / d)
        w_neg = w_num - w_den
        own[i0:i1] = w_den * pos_slope - w_neg * neg_slope
        return w_den, w_neg

    # Only valid scores enter the block, so ignored samples change no bit
    # of the result.
    g = _pairwise.sigmoid_sums(scores[cols], p, cfg.k, weigh, True, neg_sorted)
    g[:p] += own
    g /= cfg.k
    value = float((num / denom).sum() / p)
    # Allocated only now, so it is not held while the block is evaluated.
    grad = np.zeros(scores.shape[0])
    grad[cols] = g
    if cfg.log_space:
        # Minimizing -log(1 - value + eps) maximizes log(smoothed AP + eps).
        grad *= 1.0 / (1.0 - value + cfg.epsilon)
        return float(-np.log(1.0 - value + cfg.epsilon)), grad
    return value, grad


def smoothed_ap_loss_and_grad(
    batch: SampleBatch, cfg: SmoothedApConfig = SmoothedApConfig()
) -> tuple[float, np.ndarray]:
    """Smoothed AP-style loss and its true analytic score gradient.

    The hard steps of the pairwise loss are replaced by sigmoids of slope
    scale ``k`` so the objective is differentiable everywhere; the gradient
    is exact (finite-difference checkable), not error-driven.  Its sums
    come from ``_pairwise.sigmoid_sums``, so no P x n array is allocated.
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
