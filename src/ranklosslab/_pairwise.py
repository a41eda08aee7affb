"""The dense pairwise block, a rank view for the hard step, and the sigmoid rows.

Row i belongs to positive ``pos[i]``.  Columns run over the positives
first, then the negatives, so row i's own column is column i; the rank
denominator 1 + sum_{k != i} step(s_k - s_i) excludes exactly that
column.  This layout is decided here (``columns``): ``primary_terms``
builds one row of it, ``sigmoid_rows`` and the smoothed baseline take
its column order, and only the gradient oracles build the whole block
(``diffs``, ``rank_denominators``).  Only the ramp-integral sums of the
margin-modified surrogate build ``diff_block`` over the negatives alone.
No other value or update builds a P x n block: each comes from the rank
view's counts, the accelerated gradient's band kernel or ``sigmoid_rows``,
and the AUC and margin-modified updates are that kernel with their own
denominators passed in.

Under the Heaviside every such sum is an integer count, and the rank view
reads it off each class's sorted scores in O(n log n) instead of building
the O(P n) block.  For finite doubles s_j - s_i >= 0 exactly when
s_j >= s_i: a rounded difference keeps its sign and is zero only on
equality, and an overflow to +-inf keeps its sign too.  So the counts
(``rank_counts``, and the band kernel's counts above each band) equal the
dense row and column sums of ``step_value(diffs(...), HEAVISIDE)``
exactly, and every quotient or sum built from them keeps its bits.

One ``RankView`` holds a batch's scores with its negatives sorted once,
built for the step of the kernel that reads it, which takes the step from
the view.  Any view counts the exact loss and the hard denominators
(``rank_counts``, which sorts the few positives itself).  A bounded step's
view also holds its kept negatives' order for the band kernel; its
trivial negatives, those below its cut, are only counted, never sorted.
Each kernel orders the positives it walks.  Every order comes from one
sort of packed int64 keys, the score's order-preserving bits with an
index in the low bits, which gives the stable order and the sorted scores
at once (``_sorted_order``).  The negatives' keys hold their sample
indices and are compressed by the cut mask, so the kernel scatters
through the order itself.  Tied scores are interchangeable in every one
of these, so any sort order of them gives the same bits.

The sigmoid has no bounded support, so its rows are built whole, by
``sigmoid_rows`` alone, for the smoothed baseline and the sigmoid
error-driven gradient: from separable exponentials, exp((s_i - s_j)/k) =
a_i * b_j with a_i = exp((s_i - c)/k), b_j = exp(-(s_j - c)/k) and c the
scores' mid-range, so the block costs P + n ``exp`` calls, a few rows at a
time in one buffer that stays in cache.  The factors come with the rows,
so the smoothed baseline's derivative k * sigmoid' = a_i * sig^2 * b_j
needs no block of its own.  Past a score span (max - min)/k of 350, where
the squared rows could underflow, each pair takes one bounded ``exp`` of
its own difference instead.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .steps import PIECEWISE_KIND, SIGMOID_KIND, StepConfig, step_value


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


# Largest (max - min)/k taken by the separable factors.  Their largest
# product is exp((max - min)/k), and DBL_MAX is exp(709.78); the bound is
# half that so that a caller may square the rows: sig >= 1/(1 + e^350)
# gives sig^2 >= e^-700, above DBL_MIN (e^-708.4), and a_i * sig^2 and
# sig^2 * b_j stay at or above e^-525, so no slope underflows.
_SEPARABLE_SPAN = 350.0

# Block entries per chunk of sigmoid rows, so that the chunk's buffer stays
# in cache (two rows at n = 50,050).
_SIGMOID_CHUNK = 1 << 17


def sigmoid_rows(
    s: np.ndarray, p: int, k: float
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None, np.ndarray | None]]:
    """Yield (i0, i1, sig, a, b) over the sigmoid block's rows, a chunk at a
    time: sig[r, j] = sigmoid((s_j - s_i)/k) for row i = i0 + r, one row
    per score in ``s[:p]``, 0 on the row's own column i.  ``sig`` is a view
    into one buffer that the next chunk reuses, and the caller may
    overwrite it.  Within the separable span a = exp((s_i - c)/k) over the
    chunk's rows and b = exp(-(s_j - c)/k) over every column, so that
    exp((s_i - s_j)/k) = a_i * b_j, sig = 1/(1 + a_i * b_j) and k *
    sigmoid' = sig * (1 - sig) = a_i * sig^2 * b_j, with no 1 - sig
    cancellation.  Past the span both are None."""
    n = s.shape[0]
    rows = min(p, max(1, _SIGMOID_CHUNK // n))
    buf = np.empty((rows, n))
    lo, hi = float(s.min()), float(s.max())
    a = b = None
    if (hi - lo) / k <= _SEPARABLE_SPAN:
        # a[i] = exp((s_i - c)/k) over the rows, b[j] = exp(-(s_j - c)/k).
        b = (lo + 0.5 * (hi - lo) - s) / k
        a = np.exp(-b[:p])
        np.exp(b, out=b)
    else:
        cfg = StepConfig.sigmoid(k)
    for i0 in range(0, p, rows):
        i1 = min(i0 + rows, p)
        sig = buf[: i1 - i0]
        if b is not None:
            np.multiply.outer(a[i0:i1], b, out=sig)
            np.divide(1.0, np.add(sig, 1.0, out=sig), out=sig)
        else:
            # One bounded exp per pair.
            sig[...] = step_value(np.subtract(s, s[i0:i1, None], out=sig), cfg)
        np.fill_diagonal(sig[:, i0:], 0.0)
        yield i0, i1, sig, None if a is None else a[i0:i1], b


def _sorted_order(
    scores: np.ndarray,
    index: np.ndarray | None = None,
    values: np.ndarray | None = None,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(order, scores[order]): the entries of ``index[keep]`` (all of
    ``index`` when ``keep`` is None) in the stable ascending order of their
    ``values = scores[index]``, finite doubles, from one in-place sort of
    packed int64 keys.  With no ``index`` the order is of positions in
    ``scores``.

    A key is the value's order-preserving integer image (-0.0 folded into
    +0.0, the low 63 bits of a negative value flipped) with its low
    b = (len(scores) - 1).bit_length() bits replaced by the entry of
    ``index``, so the sort orders by value and ties by index, and the
    order is read back from the low bits.  The keys are compressed by
    ``keep`` only once built, with no positions taken.  Two different
    values within 2^b ulps can share a key's high bits and come out by
    index instead, and ties come out by index, not by position in
    ``index``; if the gathered scores do not ascend, or tie while ``index``
    does not ascend, a stable ``np.argsort`` gives the order instead.
    """
    if index is None:
        index, values = np.arange(scores.shape[0]), scores
    keys = (values + 0.0).view(np.int64)  # a fresh array; -0.0 + 0.0 is +0.0
    flip = keys >> 63
    flip &= 0x7FFF_FFFF_FFFF_FFFF
    keys ^= flip
    del flip  # one temporary of the keys' size at a time
    low = (1 << max(scores.shape[0] - 1, 0).bit_length()) - 1
    keys &= ~low
    keys |= index
    if keep is not None:
        keys = keys.compress(keep)  # twice as fast as keys[keep] at 50,000
    keys.sort()
    order = np.bitwise_and(keys, low, out=keys)
    s_sorted = scores[order]
    up, down = s_sorted[1:], s_sorted[:-1]
    if not (up > down).all() and not (
        (up >= down).all() and (index[1:] > index[:-1]).all()
    ):
        if keep is not None:
            index, values = index.compress(keep), values.compress(keep)
        order = index[np.argsort(values, kind="stable")]
        s_sorted = scores[order]
    return order, s_sorted


def bounded(step: StepConfig | None) -> bool:
    """Whether ``step``'s view cuts the trivial negatives and orders the rest."""
    return step is not None and step.kind != SIGMOID_KIND


class RankView:
    """A batch's scores with its negatives sorted once, for the kernel of ``step``.

    ``pos_scores`` holds the positives' scores in ``pos`` order and
    ``neg_sorted`` the kept negatives' scores ascending.  With no step or
    the sigmoid, whose step never vanishes, every negative is kept, sorted
    by ``np.sort``.  For a bounded step (Heaviside or ramp) with ``prune``
    on, negatives below the step's cut are trivial: their activation
    against every positive is exactly zero, so they are only counted
    (``below``), never sorted.  With s_min the lowest positive score, that
    is s_j - s_min <= -delta for the ramp and s_j - s_min < 0 for the hard
    step (an exact tie still activates).  The cut compares the pairwise
    difference against the lowest positive, the same float the step
    function sees, so pruning never disagrees with an unpruned evaluation
    by even a rounding error.  Only a bounded step's view holds an order,
    ``neg_index``: the kept negatives' sample indices in ascending score
    order, ties in ``neg`` order, from one packed-key sort
    (``_sorted_order``) whose keys the cut only compresses.
    """

    __slots__ = ("scores", "pos", "neg", "step", "below", "pos_scores", "neg_sorted", "neg_index")

    def __init__(
        self,
        scores: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        step: StepConfig | None = None,
        prune: bool = True,
    ):
        self.scores, self.pos, self.neg, self.step = scores, pos, neg, step
        self.pos_scores = s_pos = scores[pos]
        # Index arrays make fresh copies, so sorting them in place is safe.
        s_neg, keep, self.neg_index = scores[neg], None, None
        if bounded(step) and prune and s_pos.shape[0]:
            with np.errstate(over="ignore"):  # an overflow to -inf keeps its sign
                diff = s_neg - s_pos.min()
            keep = diff > -step.delta if step.kind == PIECEWISE_KIND else diff >= 0.0
        if bounded(step):
            self.neg_index, self.neg_sorted = _sorted_order(scores, neg, s_neg, keep)
        else:
            s_neg.sort()
            self.neg_sorted = s_neg
        self.below = neg.shape[0] - self.neg_sorted.shape[0]


def rank_numerators(view: RankView) -> np.ndarray:
    """Per-positive num[i] = #{neg j: s_j >= s_i}, in ``pos`` order, as
    float64.  Scores must be finite."""
    t = view.neg_sorted
    return np.subtract(t.shape[0], t.searchsorted(view.pos_scores, side="left"), dtype=np.float64)


def rank_counts(view: RankView) -> tuple[np.ndarray, np.ndarray]:
    """Per-positive (num, denom) Heaviside counts, in ``pos`` order.

    num is ``rank_numerators``, and denom[i] = #{valid k: s_k >= s_i},
    which is the rank denominator 1 + #{k != i: s_k >= s_i} because the
    row's own sample always counts.  Scores must be finite.
    """
    s_pos, num = view.pos_scores, rank_numerators(view)
    return num, num + (s_pos.shape[0] - np.sort(s_pos).searchsorted(s_pos, side="left"))
