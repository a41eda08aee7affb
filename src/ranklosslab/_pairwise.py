"""The pairwise block behind the soft-step losses, and a rank view for the hard step.

Row i belongs to positive ``pos[i]``.  Columns run over the positives
first, then the negatives, so row i's own column is column i; the rank
denominator 1 + sum_{k != i} step(s_k - s_i) excludes exactly that
column.  The soft-step (ramp, sigmoid) losses, updates and baselines,
the gradient oracles and ``primary_terms`` take this layout from here
(``columns``, ``diffs``) so that it is decided in one place; the
AUC-style loss and the ramp-integral sums need no denominator and take
``diff_block`` over the negatives alone.

Under the Heaviside every such sum is an integer count, and the rank view
reads it off each class's sorted scores in O(n log n) instead of building
the O(P n) block.  For finite doubles s_j - s_i >= 0 exactly when
s_j >= s_i: a rounded difference keeps its sign and is zero only on
equality, and an overflow to +-inf keeps its sign too.  So the counts
(``rank_counts``, ``column_counts``) equal the dense row and column sums
of ``step_value(diffs(...), HEAVISIDE)`` exactly, and every quotient or
sum built from them keeps its bits.

One ``RankView`` holds each class of a batch sorted once, for every
consumer at those scores: the exact loss and the hard denominators count
from it, the accelerated gradient's band kernel and the Heaviside AUC
update read the negatives' order from it, and the accelerated gradient's
trivial negatives are the ones below its cut, which are never sorted.
Tied scores are interchangeable in every one of these, so any sort order
of them gives the same bits.
"""

from __future__ import annotations

import numpy as np


def columns(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The block's column order: the positives, then the negatives."""
    return np.concatenate([pos, neg])


def diffs(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """Block of s_j - s_i: one row per positive i, columns over pos then neg."""
    return diff_block(scores, pos, columns(pos, neg))


def diff_block(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Block of s_j - s_i: one row per i in ``rows``, one column per j in ``cols``."""
    return scores[cols][None, :] - scores[rows][:, None]


def rank_denominators(f: np.ndarray) -> np.ndarray:
    """Per-row 1 + sum_{k != i} f[i, k] of a step matrix laid out as ``diffs``."""
    return 1.0 + f.sum(axis=1) - f.diagonal()


class RankView:
    """A batch's scores with each class sorted once.

    Negatives below the ``cut`` are only counted (``below``), never sorted:
    with s_min the lowest positive score, a negative is below a cut h > 0
    when s_j - s_min <= -h, below a cut of 0 when s_j - s_min < 0, and
    ``None`` keeps every negative.  Either way a negative below the cut
    scores under every positive, so it adds to no Heaviside count.
    ``neg_sorted`` holds the other negatives' scores ascending, and
    ``neg_order`` their positions in ``neg`` in that order; ``pos_scores``
    holds the positives' scores in ``pos`` order, ``pos_sorted`` ascending
    and ``pos_order`` their stable ascending order (ties by sample index).
    With ``ordered`` both orders are argsorted up front and the sorted
    scores gathered through them; otherwise each is argsorted on first use.
    """

    __slots__ = (
        "scores", "pos", "neg", "cut", "below", "pos_scores", "pos_sorted", "neg_sorted",
        "_kept", "_pos_order", "_neg_order",
    )

    def __init__(
        self,
        scores: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        cut: float | None = None,
        ordered: bool = False,
    ):
        self.scores, self.pos, self.neg, self.cut = scores, pos, neg, cut
        self.pos_scores = s_pos = scores[pos]
        # Index arrays make fresh copies, so sorting them in place is safe.
        s_neg, self._kept = scores[neg], None
        if cut is not None and s_pos.shape[0]:
            with np.errstate(over="ignore"):  # an overflow to -inf keeps its sign
                diff = s_neg - s_pos.min()
            self._kept = np.flatnonzero(diff > -cut if cut > 0.0 else diff >= 0.0)
            s_neg = s_neg[self._kept]
        self.below = neg.shape[0] - s_neg.shape[0]
        if ordered:
            self._pos_order = np.argsort(s_pos, kind="stable")
            order = np.argsort(s_neg)
            self._neg_order = order if self._kept is None else self._kept[order]
            self.pos_sorted, self.neg_sorted = s_pos[self._pos_order], s_neg[order]
        else:
            self._pos_order = self._neg_order = None
            self.pos_sorted, self.neg_sorted = s_pos.copy(), s_neg
            self.pos_sorted.sort()
            s_neg.sort()

    @property
    def pos_order(self) -> np.ndarray:
        if self._pos_order is None:
            self._pos_order = np.argsort(self.pos_scores, kind="stable")
        return self._pos_order

    @property
    def neg_order(self) -> np.ndarray:
        if self._neg_order is None:
            kept = np.arange(self.neg.shape[0]) if self._kept is None else self._kept
            self._neg_order = kept[np.argsort(self.scores[self.neg[kept]])]
        return self._neg_order


def rank_counts(view: RankView) -> tuple[np.ndarray, np.ndarray]:
    """Per-positive (num, denom) Heaviside counts, in ``pos`` order.

    num[i] = #{neg j: s_j >= s_i}, and denom[i] = #{valid k: s_k >= s_i},
    which is the rank denominator 1 + #{k != i: s_k >= s_i} because the
    row's own sample always counts.  Scores must be finite.
    """
    s_pos = view.pos_scores
    num = view.neg_sorted.shape[0] - view.neg_sorted.searchsorted(s_pos, side="left")
    denom = num + (view.pos.shape[0] - view.pos_sorted.searchsorted(s_pos, side="left"))
    return num.astype(np.float64), denom.astype(np.float64)


def column_counts(view: RankView) -> np.ndarray:
    """#{pos i: s_i <= s_j} for each negative j, in ``neg`` order: the
    Heaviside column sums over the negatives.  Each positive counts for
    every sorted negative from the first one at or above its score, so
    along the sorted negatives the count rises by one at each positive's
    first index; the counts are scattered back through ``neg_order``, and a
    negative below the view's cut counts none.  Scores must be finite."""
    first = view.neg_sorted.searchsorted(view.pos_sorted, side="left")
    steps = np.diff(first, prepend=0, append=view.neg_sorted.shape[0])
    counts = np.zeros(view.neg.shape[0])
    counts[view.neg_order] = np.repeat(np.arange(first.shape[0] + 1, dtype=np.float64), steps)
    return counts
