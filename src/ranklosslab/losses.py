"""Ranking losses over a batch: pairwise AP-style loss and AUC-style loss.

The AP-style loss charges each positive by the fraction of its rank taken
up by higher-or-equal-scored negatives; equivalently it is one minus the
mean over positives of (rank among positives) / (rank among all valid
samples).  The AUC-style loss charges every misordered positive-negative
pair equally.  Ties count against the positive: a negative scoring exactly
equal to a positive is treated as ranked above it, which makes both losses
deterministic on tied inputs.

Loss values are 0 whenever a batch has no positives or no negatives, since
no misorderable pair exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pairwise
from .batch import SampleBatch, partition
from .gradients import grad_reference
from .steps import HEAVISIDE, HEAVISIDE_KIND, StepConfig, step_value


def _ap_rows(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: StepConfig):
    """Per-positive numerators (sum over negatives), rank denominators, and
    the positives-by-valid step matrix they come from."""
    f = step_value(_pairwise.diffs(scores, pos, neg), cfg)
    return f[:, pos.shape[0]:].sum(axis=1), _pairwise.rank_denominators(f), f


def _ap_loss_core(view: _pairwise.RankView, cfg: StepConfig) -> float:
    pos, neg = view.pos, view.neg
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return 0.0
    if cfg.kind == HEAVISIDE_KIND:
        num, denom = _pairwise.rank_counts(view)
    else:
        num, denom, _ = _ap_rows(view.scores, pos, neg, cfg)
    return float((num / denom).sum() / pos.shape[0])


def _auc_steps(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray, cfg: StepConfig):
    """Step matrix of s_j - s_i: one row per positive i, one column per negative j."""
    return step_value(_pairwise.diff_block(scores, pos, neg), cfg)


def primary_terms(batch: SampleBatch, i: int, cfg: StepConfig = HEAVISIDE) -> np.ndarray:
    """Pairwise loss contributions of positive ``i`` against each negative.

    Returns step(s_j - s_i) / (1 + sum_{k != i} step(s_k - s_i)) for every
    negative j, in negative-index order.  Each term lies in [0, 1] and the
    row sums to at most 1.
    """
    pos, neg = partition(batch)
    if i not in pos:
        raise ValueError(f"sample {i} is not a positive in this batch")
    _, denom, f = _ap_rows(batch.scores, pos, neg, cfg)
    row = int(np.searchsorted(pos, i))
    return f[row, pos.shape[0]:] / denom[row]


def ap_loss(batch: SampleBatch, cfg: StepConfig = HEAVISIDE) -> float:
    """Mean over positives of the summed pairwise terms; in [0, 1].

    With the hard step and no ties this is exactly one minus the mean of
    rank-among-positives over rank-among-all for each positive.  Softened
    steps (ramp, sigmoid) yield the training-mode surrogate used while
    optimizing; exact reporting should pass the Heaviside config.
    """
    return _ap_loss_core(_pairwise.RankView(batch.scores, *partition(batch)), cfg)


def auc_loss(batch: SampleBatch, cfg: StepConfig = HEAVISIDE) -> float:
    """Fraction of misordered positive-negative pairs (ties misordered)."""
    pos, neg = partition(batch)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        return 0.0
    if cfg.kind == HEAVISIDE_KIND:
        misordered = _pairwise.rank_counts(_pairwise.RankView(batch.scores, pos, neg))[0].sum()
    else:
        misordered = _auc_steps(batch.scores, pos, neg, cfg).sum()
    return float(misordered / (pos.shape[0] * neg.shape[0]))


@dataclass(frozen=True)
class RankMetrics:
    """Exact (hard-step) ranking metrics for reporting."""

    ap_loss: float
    auc_loss: float
    interpolated_ap_loss: float


def exact_metrics(batch: SampleBatch) -> RankMetrics:
    """Compute all hard-step metrics of a batch, for reporting."""
    return RankMetrics(
        ap_loss=ap_loss(batch),
        auc_loss=auc_loss(batch),
        interpolated_ap_loss=grad_reference(batch, HEAVISIDE, interpolated=True).loss,
    )
