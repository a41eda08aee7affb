"""The pairwise block behind the soft-step losses, and a rank view for the hard step.

Row i belongs to positive ``pos[i]``.  Columns run over the positives
first, then the negatives, so row i's own column is column i; the rank
denominator 1 + sum_{k != i} step(s_k - s_i) excludes exactly that
column.  The soft-step (ramp, sigmoid) losses, updates and baselines,
the gradient oracles and ``primary_terms`` build their block here so that
this layout is decided in one place; the AUC-style loss and the
ramp-integral sums need no denominator and take ``diff_block`` over the
negatives alone.

Under the Heaviside every such sum is an integer count, and the rank view
(``rank_counts`` and ``column_counts``) reads it off each class's sorted
scores in O(n log n) instead of building the O(P n) block.  For finite
doubles s_j - s_i >= 0 exactly when s_j >= s_i: a rounded difference
keeps its sign and is zero only on equality, and an overflow to +-inf
keeps its sign too.  So the counts equal the dense row and column sums of
``step_value(diffs(...), HEAVISIDE)`` exactly, and every quotient or sum
built from them keeps its bits.
"""

from __future__ import annotations

import numpy as np


def diffs(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Block of s_j - s_i: one row per positive i, columns over pos then neg."""
    return diff_block(scores, pos, np.concatenate([pos, neg]))


def diff_block(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Block of s_j - s_i: one row per i in ``rows``, one column per j in ``cols``."""
    return scores[cols][None, :] - scores[rows][:, None]


def rank_denominators(f: np.ndarray) -> np.ndarray:
    """Per-row 1 + sum_{k != i} f[i, k] of a step matrix laid out as ``diffs``."""
    return 1.0 + f.sum(axis=1) - f.diagonal()


def rank_counts(
    scores: np.ndarray, pos: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-positive (num, denom) Heaviside counts, in ``pos`` order.

    num[i] = #{neg j: s_j >= s_i}, and denom[i] = #{valid k: s_k >= s_i},
    which is the rank denominator 1 + #{k != i: s_k >= s_i} because the
    row's own sample always counts.  Scores must be finite.
    """
    s_pos = scores[pos]
    # Index arrays make fresh copies, so sorting them in place is safe.
    neg_sorted, pos_sorted = scores[neg], s_pos.copy()
    neg_sorted.sort()
    pos_sorted.sort()
    num = neg.shape[0] - neg_sorted.searchsorted(s_pos, side="left")
    denom = num + (pos.shape[0] - pos_sorted.searchsorted(s_pos, side="left"))
    return num.astype(np.float64), denom.astype(np.float64)


def column_counts(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """#{pos i: s_i <= s_j} for each negative j, in ``neg`` order: the
    Heaviside column sums over the negatives.  Scores must be finite."""
    pos_sorted = scores[pos]
    pos_sorted.sort()
    return pos_sorted.searchsorted(scores[neg], side="right").astype(np.float64)
