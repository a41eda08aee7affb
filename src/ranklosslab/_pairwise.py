"""The dense pairwise block, a rank view for the hard step, and the sigmoid rows.

Row i belongs to positive ``pos[i]``.  Columns run over the positives
first, then the negatives, so row i's own column is column i; the rank
denominator 1 + sum_{k != i} step(s_k - s_i) excludes exactly that
column.  This layout is decided here (``columns``): ``primary_terms``
builds one row of it, ``sigmoid_rows`` and the smoothed baseline take
its column order, and only the gradient oracles build the whole block
(``diffs``, ``rank_denominators``).  The soft-step AUC loss and update,
the margin-modified update and the ramp-integral sums need no
denominator and build ``diff_block`` over the negatives alone.  No other
loss value builds a P x n block: every AP-style value comes from the rank
view's counts, the accelerated gradient's band kernel or ``sigmoid_rows``.

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

The sigmoid has no bounded support, so its rows are built whole, by
``sigmoid_rows`` alone, for the smoothed baseline and the sigmoid
error-driven gradient: from separable exponentials, exp((s_i - s_j)/k) =
exp((s_i - c)/k) * exp(-(s_j - c)/k) with c the scores' mid-range, so the
block costs P + n ``exp`` calls, a few rows at a time that stay in cache.
Past a score span (max - min)/k of 700, where the product could overflow,
each pair takes one bounded ``exp`` of its own difference instead.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .steps import StepConfig, step_value


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


# Largest (max - min)/k taken by the separable factors, whose largest
# product is exp((max - min)/k): DBL_MAX is exp(709.78), and 700 leaves room
# for the rounding of the centre and of the two exp factors.
_SEPARABLE_SPAN = 700.0

# Block entries per chunk of sigmoid rows, so that the chunk's two buffers
# stay in cache (two rows at n = 50,050).
_SIGMOID_CHUNK = 1 << 17


def sigmoid_rows(
    s: np.ndarray, p: int, k: float
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield (i0, i1, sig, d) over the sigmoid block's rows, a chunk at a
    time: sig[r, j] = sigmoid((s_j - s_i)/k) for row i = i0 + r, one row
    per score in ``s[:p]``, and d = k * sigmoid', both 0 on the row's own
    column i.  Both are views into buffers that the next chunk reuses."""
    n = s.shape[0]
    rows = min(p, max(1, _SIGMOID_CHUNK // n))
    sig_buf, d_buf = np.empty((rows, n)), np.empty((rows, n))
    lo, hi = float(s.min()), float(s.max())
    separable = (hi - lo) / k <= _SEPARABLE_SPAN
    if separable:
        # e_pos[i] = exp((s_i - c)/k) over the rows, e_neg[j] = exp(-(s_j - c)/k).
        e_neg = (lo + 0.5 * (hi - lo) - s) / k
        e_pos = np.exp(-e_neg[:p])
        np.exp(e_neg, out=e_neg)
    else:
        cfg = StepConfig.sigmoid(k)
    for i0 in range(0, p, rows):
        i1 = min(i0 + rows, p)
        sig, d = sig_buf[: i1 - i0], d_buf[: i1 - i0]
        if separable:
            # t = exp((s_i - s_j)/k), sigmoid((s_j - s_i)/k) = 1/(1 + t), and
            # k * sigmoid' = t * sig^2, with no 1 - sig cancellation; (t * sig)
            # * sig stays normal where sig^2 would underflow.
            np.multiply.outer(e_pos[i0:i1], e_neg, out=d)
            np.divide(1.0, np.add(d, 1.0, out=sig), out=sig)
            np.fill_diagonal(sig[:, i0:], 0.0)
            d *= sig
        else:
            # One bounded exp per pair, and k * sigmoid' = sig * (1 - sig).
            sig[...] = step_value(np.subtract(s, s[i0:i1, None], out=sig), cfg)
            np.fill_diagonal(sig[:, i0:], 0.0)
            np.subtract(1.0, sig, out=d)
        d *= sig
        yield i0, i1, sig, d


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
