"""Ranking losses over a batch: pairwise AP-style loss and AUC-style loss.

The AP-style loss charges each positive by the fraction of its rank taken
up by higher-or-equal-scored negatives; equivalently it is one minus the
mean over positives of (rank among positives) / (rank among all valid
samples).  The AUC-style loss charges every misordered positive-negative
pair equally.  Ties count against the positive: a negative scoring exactly
equal to a positive is treated as ranked above it, which makes both losses
deterministic on tied inputs.

Each value takes one route.  The hard-step AP and AUC losses are the
counts of a counting rank view (``_pairwise.rank_counts``, of which the
AUC reads only the numerators, which sort no positives); the ramp and
sigmoid AP losses are ``grad_accelerated``'s loss without pruning, and the
ramp and sigmoid AUC losses are the AUC update's value on a view built for
their step (``_auc_core``: the accelerated kernel with every rank
denominator 1); ``exact_metrics`` reads all three numbers off one view
built for the hard step, the interpolated AP through the accelerated band
kernel.  ``primary_terms`` builds one row of the pairwise block, and no
loss builds a positives-by-negatives one.

Loss values are 0 whenever a batch has no positives or no negatives, since
no misorderable pair exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pairwise
from .batch import SampleBatch, partition
from .gradients import GradOptions, _accelerated_core, grad_accelerated
from .steps import HEAVISIDE, HEAVISIDE_KIND, StepConfig, step_value


def _ap_loss_core(view: _pairwise.RankView) -> float:
    pos, neg = view.pos, view.neg
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return 0.0
    num, denom = _pairwise.rank_counts(view)
    return float((num / denom).sum() / pos.shape[0])


def _auc_loss_core(view: _pairwise.RankView) -> float:
    pos, neg = view.pos, view.neg
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return 0.0
    return float(_pairwise.rank_numerators(view).sum() / (pos.shape[0] * neg.shape[0]))


def _auc_core(view: _pairwise.RankView) -> tuple[float, np.ndarray, int]:
    """AUC value, error-driven update and pruned count on a rank view built
    for its step: the accelerated kernel with every rank denominator 1,
    unnormalized, scaled by 1/(p q)."""
    p, q = view.pos.shape[0], view.neg.shape[0]
    res = _accelerated_core(view, GradOptions(normalize_by_positives=False), np.ones(p))
    grad = res.grad
    if p == 0 or q == 0:
        return 0.0, grad, 0
    # The kernel leaves 0.0 - (row sum), +0.0 for a row of zeros; the dense
    # form's -(row sum) is -0.0 there, and the Heaviside AUC keeps its bits.
    rows = np.abs(grad[view.pos])
    grad[view.pos] = -rows
    scale = 1.0 / (p * q)
    grad *= scale
    return float(rows.sum() * scale), grad, res.pruned_negatives


def primary_terms(batch: SampleBatch, i: int, cfg: StepConfig = HEAVISIDE) -> np.ndarray:
    """Pairwise loss contributions of positive ``i`` against each negative.

    Returns step(s_j - s_i) / (1 + sum_{k != i} step(s_k - s_i)) for every
    negative j, in negative-index order.  Each term lies in [0, 1] and the
    row sums to at most 1.  Only row i of the pairwise block is built, with
    the block's own floats.
    """
    pos, neg = partition(batch)
    if i not in pos:
        raise ValueError(f"sample {i} is not a positive in this batch")
    s = batch.scores
    f = step_value(s[_pairwise.columns(pos, neg)] - s[i], cfg)
    own = int(np.searchsorted(pos, i))
    return f[pos.shape[0]:] / (1.0 + f.sum() - f[own])


def ap_loss(batch: SampleBatch, cfg: StepConfig = HEAVISIDE) -> float:
    """Mean over positives of the summed pairwise terms; in [0, 1].

    With the hard step and no ties this is exactly one minus the mean of
    rank-among-positives over rank-among-all for each positive.  Softened
    steps (ramp, sigmoid) yield the training-mode surrogate used while
    optimizing; exact reporting should pass the Heaviside config.
    """
    if cfg.kind == HEAVISIDE_KIND:
        return _ap_loss_core(_pairwise.RankView(batch.scores, *partition(batch)))
    return grad_accelerated(batch, cfg, GradOptions(prune_trivial_negatives=False)).loss


def auc_loss(batch: SampleBatch, cfg: StepConfig = HEAVISIDE) -> float:
    """Fraction of misordered positive-negative pairs (ties misordered)."""
    pos, neg = partition(batch)
    if cfg.kind == HEAVISIDE_KIND:
        return _auc_loss_core(_pairwise.RankView(batch.scores, pos, neg))
    return _auc_core(_pairwise.RankView(batch.scores, pos, neg, cfg))[0]


@dataclass(frozen=True)
class RankMetrics:
    """Exact (hard-step) ranking metrics for reporting."""

    ap_loss: float
    auc_loss: float
    interpolated_ap_loss: float


def exact_metrics(batch: SampleBatch) -> RankMetrics:
    """Compute all hard-step metrics of a batch, for reporting, from one rank view."""
    view = _pairwise.RankView(batch.scores, *partition(batch), HEAVISIDE)
    interpolated = _accelerated_core(view, GradOptions(interpolated=True))
    return RankMetrics(_ap_loss_core(view), _auc_loss_core(view), interpolated.loss)
