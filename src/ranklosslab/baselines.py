"""Comparison losses and consistency checks for the error-driven scheme.

Contains the differentiable baseline (AP-style loss with every hard step
replaced by a sigmoid, optimized by true gradient descent, optionally in
log space), the AUC-style error-driven gradient, and the two classic
activations -- softmax and the margin step -- for which the error-driven
update collapses to the gradients of cross-entropy and hinge loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _pairwise
from .batch import SampleBatch, partition
from .losses import _auc_steps
from .steps import HEAVISIDE, HEAVISIDE_KIND, StepConfig, step_value


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

    @cached_property
    def step(self) -> StepConfig:
        """The sigmoid activation that replaces each hard step."""
        return StepConfig.sigmoid(self.k)


def _smoothed_core(
    scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: SmoothedApConfig
) -> tuple[float, np.ndarray]:
    grad = np.zeros(scores.shape[0])
    p, q = pos.shape[0], neg.shape[0]
    if p == 0 or q == 0:
        return 0.0, grad
    sig = step_value(_pairwise.diffs(scores, pos, neg), cfg.step)
    dsig = sig * (1.0 - sig) / cfg.k
    num = sig[:, p:].sum(axis=1)
    denom = _pairwise.rank_denominators(sig)
    value = float((num / denom).sum() / p)

    # d(value)/d(score_m): quotient rule split into the per-column part
    # (m appears as column j or k of row i) and the per-row part (m is the
    # row's own positive, entering every difference with opposite sign).
    w_num = 1.0 / (p * denom)
    w_den = num / (p * denom * denom)
    col = dsig * (-w_den[:, None])
    col[:, p:] += dsig[:, p:] * w_num[:, None]
    np.fill_diagonal(col, 0.0)
    col_sums = col.sum(axis=0)
    dsig_neg = dsig[:, p:].sum(axis=1)
    dsig_other = dsig.sum(axis=1) - dsig.diagonal()
    grad[pos] += col_sums[:p] + (-w_num * dsig_neg + w_den * dsig_other)
    grad[neg] += col_sums[p:]

    if cfg.log_space:
        # Minimizing -log(1 - value + eps) maximizes log(smoothed AP + eps).
        scale = 1.0 / (1.0 - value + cfg.epsilon)
        return float(-np.log(1.0 - value + cfg.epsilon)), grad * scale
    return value, grad


def smoothed_ap_loss_and_grad(
    batch: SampleBatch, cfg: SmoothedApConfig = SmoothedApConfig()
) -> tuple[float, np.ndarray]:
    """Smoothed AP-style loss and its true analytic score gradient.

    The hard steps of the pairwise loss are replaced by sigmoids of slope
    scale ``k`` so the objective is differentiable everywhere; the gradient
    is exact (finite-difference checkable), not error-driven.
    """
    pos, neg = partition(batch)
    return _smoothed_core(batch.scores, pos, neg, cfg)


def _auc_core(
    scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: StepConfig
) -> tuple[float, np.ndarray]:
    grad = np.zeros(scores.shape[0])
    p, q = pos.shape[0], neg.shape[0]
    if p == 0 or q == 0:
        return 0.0, grad
    if cfg.kind == HEAVISIDE_KIND:
        rows = _pairwise.rank_counts(scores, pos, neg)[0]
        cols, total = _pairwise.column_counts(scores, pos, neg), rows.sum()
    else:
        f = _auc_steps(scores, pos, neg, cfg)
        rows, cols, total = f.sum(axis=1), f.sum(axis=0), f.sum()
    scale = 1.0 / (p * q)
    grad[pos] = -rows * scale
    grad[neg] = cols * scale
    return float(total * scale), grad


def auc_grad(
    batch: SampleBatch, cfg: StepConfig = HEAVISIDE
) -> tuple[float, np.ndarray]:
    """Error-driven update for the pair-counting (AUC-style) loss.

    Every misordered pair charges 1/(|P| |N|): subtracted from its
    positive's gradient entry, added to its negative's, so the gradient
    sums to zero exactly.
    """
    pos, neg = partition(batch)
    return _auc_core(batch.scores, pos, neg, cfg)


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
