"""The dense pairwise block, a rank view for the hard step, and the sigmoid sums.

Row i belongs to positive ``pos[i]``.  Columns run over the positives
first, then the negatives, so row i's own column is column i; the rank
denominator 1 + sum_{k != i} step(s_k - s_i) excludes exactly that
column.  This layout is decided here (``columns``): ``primary_terms``
builds one row of it, ``sigmoid_sums`` and the smoothed baseline take
its column order, and only the gradient oracles build the whole block
(``diffs``, ``rank_denominators``).  Only the ramp-integral sums of the
margin-modified surrogate build ``diff_block`` over the negatives alone.
No other value or update builds a P x n block: each comes from the rank
view's counts, the accelerated gradient's band kernel or ``sigmoid_sums``,
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

The sigmoid has no bounded support.  The smoothed baseline and the
sigmoid error-driven gradient each make one call of ``sigmoid_sums`` on
a rank view built with no step or the sigmoid, so that every negative is
in its sort.  The call hands each chunk of rows its sums over the
positives' and the negatives' columns, takes the rows' weights back from
the caller, and returns the weighted column sums, by one of two routes.
The dense rows, ``sigmoid_rows``, build the rows whole from separable
exponentials, exp((s_i - s_j)/k) = a_i * b_j with a_i = exp((s_i -
c)/k), b_j = exp(-(s_j - c)/k) and c the scores' mid-range, so the
block costs P + n ``exp`` calls, a few rows at a time in one buffer that
stays in cache.  The factors come with the rows, so the derivative k *
sigmoid' = a_i * sig^2 * b_j needs no block of its own, and b_j
multiplies the column sums once per call.  Past a score span (max - min)/k of 350, where the squared
rows could underflow, each pair takes one bounded ``exp`` of its own
difference instead.

On large batches ``_series_sums`` gives the sums over the negatives
without the P x n pairs: a Taylor series of the sigmoid about the
centres of narrow bins of the negatives, from each bin's power moments,
in O(n + M (n + P B)) for B occupied bins and M orders, with the
positives' own P x P block left to ``sigmoid_rows`` over the positives
alone.  It is one function call that keeps nothing between calls, and it
bins the negatives' scores ascending as the caller's rank view sorted
them, so that each bin is one run of them and nothing is sorted here.
The logistic's poles at +-i*pi bound the first term that the series
leaves out below 1e-16 of a pair (``_series_order``).
``sigmoid_series`` dispatches: within the separable span, it picks the
series' bin width where the cost model ``_series_cost`` puts the series
below 0.8 of the dense rows' cost (``_series_pays``), and leaves every
other batch to the dense rows, so small batches keep their bits.
"""

from __future__ import annotations

import functools
import math
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
    s: np.ndarray, p: int, k: float, bounds: tuple[float, float] | None = None
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None, np.ndarray | None]]:
    """Yield (i0, i1, sig, a, b) over the sigmoid block's rows, a chunk at a
    time: sig[r, j] = sigmoid((s_j - s_i)/k) for row i = i0 + r, one row
    per score in ``s[:p]``, 0 on the row's own column i.  ``sig`` is a view
    into one buffer that the next chunk reuses, and the caller may
    overwrite it.  Within the separable span a = exp((s_i - c)/k) over the
    chunk's rows and b = exp(-(s_j - c)/k) over every column, so that
    exp((s_i - s_j)/k) = a_i * b_j, sig = 1/(1 + a_i * b_j) and k *
    sigmoid' = sig * (1 - sig) = a_i * sig^2 * b_j, with no 1 - sig
    cancellation.  Past the span both are None.  ``bounds`` is (min, max)
    of ``s`` where the caller has it."""
    n = s.shape[0]
    rows = min(p, max(1, _SIGMOID_CHUNK // n))
    buf = np.empty((rows, n))
    lo, hi = (float(s.min()), float(s.max())) if bounds is None else bounds
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
        # Each row's own column, (r, i0 + r) of the contiguous chunk; a
        # strided write, a third of ``np.fill_diagonal``'s cost on tiny rows.
        sig.reshape(-1)[i0 :: n + 1] = 0.0
        yield i0, i1, sig, None if a is None else a[i0:i1], b


def _series_order(e: int) -> int:
    """The series' order M for bins 2^-e wide in units of k: the least M
    whose first left-out term is below 1e-16 of a pair.  Every offset from
    a bin's centre is within h = 2^-(e+1), and the logistic's poles at
    +-i*pi bound its m-th Taylor coefficient about any real point by about
    2/pi^(m+1), so that term is below (2/pi)(h/pi)^(M+1) for the sigmoid;
    for its slope it is (M+2)/pi times that."""
    r, m = 2.0 ** -(e + 1) / math.pi, 0
    while 2.0 / math.pi * r ** (m + 1) > 1e-16:
        m += 1
    return m


@functools.cache
def _series_coefficients(order: int) -> np.ndarray:
    """C[d, side, q, m]: the m-th Taylor coefficient (m <= order) of the
    sigmoid's d-th derivative (d = 0, 1) about y is sum_q C[d, side, q, m]
    e_q, with e_0 = 1 and e_q = sigmoid(-|y|)^q, on side 0 (y <= 0) and
    side 1 (y > 0).

    As sigmoid' = sigmoid - sigmoid^2, the m-th derivative is a polynomial
    in the sigmoid, with integer coefficients, that the chain rule carries
    from one order to the next; past 0, sigmoid(y) = 1 - sigmoid(-y), whose
    m-th derivative for m >= 1 is (-1)^(m+1) times the one at -y.  On
    either side every term is then a power of sigmoid(-|y|) <= 1/2, which
    neither overflows nor loses the relative precision of a tail."""
    a = np.zeros((order + 2, order + 3))  # a[m, q]: sigmoid^(m)/m! in powers q
    poly = np.zeros(order + 3)
    poly[1] = 1.0
    for m in range(order + 2):
        a[m] = poly / math.factorial(m)
        poly *= np.arange(order + 3)
        poly[1:] -= poly[:-1]  # (sigmoid^q)' = q sigmoid^q - q sigmoid^(q+1)
    m = np.arange(order + 1)[:, None]
    c = np.empty((2, 2, order + 3, order + 1))
    c[0, 0], c[0, 1] = a[:-1].T, (a[:-1] * (-1.0) ** (m + 1)).T
    c[0, 1, 0, 0] = 1.0
    c[1, 0], c[1, 1] = (a[1:] * (m + 1)).T, (a[1:] * (m + 1) * (-1.0) ** m).T
    return c


# Bin widths 2^-e in units of k, from 1/4 to 1/128, with the series' order
# for each; of widths with the same order only the widest, as a narrower
# one only adds bins.
_SERIES_ORDERS = {
    e: _series_order(e) for e in range(2, 8) if _series_order(e) < _series_order(e - 1)
}
_SERIES_LOWEST_ORDER = min(_SERIES_ORDERS.values())


def _series_cost(p: int, n: int, bins: int, span_bins: int, order: int) -> float:
    """The modelled time of ``_series_sums`` with the positives' own block
    on one core, in units of one pair of the dense rows: for each negative
    its binning and, per order, one moment sum and one Horner step; per
    order, the grid's two sides for each row and occupied bin, a cost for
    each bin that the span holds, and a fixed cost of the calls; the
    positives' own block, twice; and a fixed cost, net of the dense rows'.
    Fitted, at a median error of 10%, to both routes' times on one core
    from 10:2,000 to 500:5,000 and 200:50,000, at score spans of 0 to 80 in
    units of k and at every bin width, with a ``bincount`` per order over
    every bin of the span, which sorted runs do not take: that term now
    stands for the per-run ``reduceat``, gather and coefficient work, on
    at most as many bins."""
    return (
        (1.7 * order + 2.5) * n
        + 1.6 * (order + 3) * p * bins
        + 20 * (order + 1) * span_bins
        + 1300 * (order + 1)
        + 3 * p * p
        + 18_000
    )


def _series_pays(p: int, n: int, bins: int, span_bins: int, order: int) -> bool:
    """The dispatch rule: whether ``_series_sums`` costs less than 0.8 of
    the dense rows' p (p + n) pairs, for p rows, n negatives in ``bins``
    bins of the ``span_bins`` that the score span holds, and ``order``.
    Nearer the crossover the model's errors (10% at the median) can cost
    more than the series saves."""
    return _series_cost(p, n, bins, span_bins, order) < 0.8 * p * (p + n)


def _lattice(s: np.ndarray, lo: float, k: float, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(bins, t): each score's bin on the lattice of width 2^-e * k from
    ``lo``, the floor of its scaled x >= 0, and its offset from the bin's
    centre in units of k, exact given x."""
    x = (s - lo) / k * 2.0**e
    bins = x.astype(np.intp)
    return bins, (x - bins - 0.5) * 2.0**-e


def _series_sums(s_rows, s_neg, neg_sorted, lo, k, e, weigh, slope, out) -> None:
    """Write to ``out`` each negative's sum over the rows ``s_rows`` of
    w_i sigmoid((s_j - s_i)/k), or of w_i k sigmoid' with ``slope``, for
    the negatives ``s_neg`` in ``out``'s order, ``neg_sorted`` ascending.

    The negatives are binned 2^-e * k wide (``_lattice``), so that each
    occupied bin is one run of ``neg_sorted``, which keeps the power
    moments sum_j t_j^m (m <= M, ``_series_order``) of its offsets t_j =
    (s_j - centre)/k, one ``np.add.reduceat`` per order.  For a row i and
    a bin at y = (centre - s_i)/k, sum_j sigmoid(y + t_j) = sum_m c_m(y)
    sum_j t_j^m, with c_m the Taylor coefficients; ``_grid_sums`` hands
    each chunk of rows to ``weigh(i0, i1, sig, dsig)``, with its sums over
    the negatives of sigmoid((s_j - s_i)/k) and of k sigmoid', and takes
    the chunk's weights w_i back.  Each negative's column sum is then its
    bin's weighted coefficients evaluated at t_j by Horner's rule, in
    ``s_neg``'s order, whose bins find their runs through a table over the
    bins the span holds (at most 350 * 2^7 + 1).  A call costs O(n + M (n
    + p B)) for B occupied bins, against O(p n) for the dense rows.
    Scores are finite, ``lo`` is at most the least of them, and they are
    within the separable span.
    """
    bins, t = _lattice(neg_sorted, lo, k, e)
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    centres = (bins[starts] + 0.5) * 2.0**-e
    # Each run's moments mu[m, b] = sum of t_j^m, m <= M.
    moments = np.empty((_SERIES_ORDERS[e] + 1, starts.shape[0]))
    moments[0] = np.diff(starts, append=bins.shape[0])
    power = np.ones_like(t)
    for mu in moments[1:]:
        power *= t
        np.add.reduceat(power, starts, out=mu)
    table = np.bincount(bins[starts]).cumsum() - 1  # each occupied bin's run
    del bins, t, power  # one order's arrays at a time
    coef = _series_coefficients(_SERIES_ORDERS[e])
    col = _grid_sums(coef, moments, centres, (s_rows - lo) / k, weigh)
    bins, t = _lattice(s_neg, lo, k, e)
    run = table[bins]
    # Horner's rule: out_j = sum_m coef_b[m, b_j] t_j^m for run b_j of
    # negative j; every run is in range, so ``take`` need not check.
    coef_b = np.einsum("sqm,qsb->mb", coef[int(slope)], col)
    np.take(coef_b[-1], run, out=out, mode="clip")
    for m in range(coef_b.shape[0] - 2, -1, -1):
        out *= t
        out += coef_b[m][run]


def _grid_sums(coef, moments, centres, x_rows, weigh) -> np.ndarray:
    """The grid pass of ``_series_sums``, rows at ``x_rows`` (less ``lo``,
    in units of k) by bins at ``centres``: the grid holds the powers of
    sigmoid(-|y|) in which ``_series_coefficients`` writes c_m, the two
    sides of y = 0 apart, so each row's sums are one product of its grid
    rows with the moments.  It goes a chunk of rows at a time in one buffer
    of at most ``_SIGMOID_CHUNK`` entries, and returns the weighted column
    sums of the grid, u[q, side, b]."""
    planes, nbins, p = coef.shape[2], moments.shape[1], x_rows.shape[0]
    # The row sums' moments nu[q, side, b, d] = sum_m C[d, side, q, m] mu_m(b).
    nu = np.einsum("dsqm,mb->qsbd", coef, moments).reshape(planes, 2 * nbins, 2)
    rows = min(p, max(1, _SIGMOID_CHUNK // (2 * planes * nbins)))
    grid = np.empty((planes, rows, 2, nbins))
    col = np.zeros((planes, 2 * nbins))
    for i0 in range(0, p, rows):
        i1 = min(i0 + rows, p)
        g = grid[:, : i1 - i0]
        y = np.subtract(centres, x_rows[i0:i1, None])
        g[0, :, 1] = y > 0.0
        np.subtract(1.0, g[0, :, 1], out=g[0, :, 0])
        np.abs(y, out=y)
        np.negative(y, out=y)
        np.exp(y, out=y)
        np.divide(y, y + 1.0, out=y)  # sigmoid(-|y|)
        np.multiply(y, g[0, :, 0], out=g[1, :, 0])
        np.subtract(y, g[1, :, 0], out=g[1, :, 1])
        for q in range(2, planes):
            np.multiply(g[q - 1], g[1], out=g[q])
        flat = g.reshape(planes, i1 - i0, 2 * nbins)
        both = np.matmul(flat, nu).sum(axis=0)
        col += weigh(i0, i1, both[:, 0], both[:, 1]) @ flat
    return col.reshape(planes, 2, nbins)


def sigmoid_series(s: np.ndarray, p: int, k: float, bounds: tuple[float, float]) -> int | None:
    """The series' bin width exponent e (bins 2^-e * k wide) for the rows
    ``s[:p]`` against the negatives ``s[p:]``, with ``bounds`` the (min,
    max) of ``s``, or None where the dense rows (``sigmoid_rows``, with the
    same bounds) are to be used: past the separable span, or where
    ``_series_pays`` says that the series costs more.  The rule is asked
    first for one bin at the lowest order, a cost below every width's,
    before the span; then for as many bins as the span holds, up to n, at
    the width in ``_SERIES_ORDERS`` whose modelled cost for them is least.
    The bins the negatives occupy are not counted first: binning them takes
    more time, where the dense rows are chosen, than the count would
    change."""
    n = s.shape[0] - p
    if not (p and n and _series_pays(p, n, 1, 1, _SERIES_LOWEST_ORDER)):
        return None
    lo, hi = bounds
    span = (hi - lo) / k
    if span > _SEPARABLE_SPAN:
        return None

    def rule(e):  # the rule's inputs at width 2^-e
        span_bins = math.floor(span * 2.0**e) + 1
        return p, n, min(n, span_bins), span_bins, _SERIES_ORDERS[e]

    e = min(_SERIES_ORDERS, key=lambda e: _series_cost(*rule(e)))
    return e if _series_pays(*rule(e)) else None


def sigmoid_sums(
    s: np.ndarray, p: int, k: float, weigh, slope: bool, neg_sorted: np.ndarray
) -> np.ndarray:
    """The weighted column sums of the sigmoid block of the rows ``s[:p]``
    against every column of ``s``, 0 on each row's own column, by the
    route that ``sigmoid_series`` picks.  ``neg_sorted`` holds the
    negatives ``s[p:]`` ascending, the caller's rank view's sort, which
    the series bins; a view that holds fewer of them, one pruned for a
    bounded step, raises ``ValueError``.  There is at least one row and at
    least one negative after the rows.

    For each chunk of rows in order, ``weigh(i0, i1, pos, neg)`` gets the
    rows' sums of sigmoid((s_j - s_i)/k) over the positives' columns and
    over the negatives', and returns the rows' weights w_i; entry j of the
    result is sum_i w_i sigmoid((s_j - s_i)/k) over the negatives'
    columns, 0 over the positives'.  With ``slope``, ``weigh(i0, i1, pos,
    neg, pos_slope, neg_slope, a)`` also gets the rows' sums of k sigmoid'
    divided by a_i, the dense rows' factor (1.0 on the series), and returns
    a_i times the rows' weights (v, w); entry j is then sum_i w_i k
    sigmoid' over the negatives' columns, minus sum_i v_i k sigmoid' over
    the positives'.
    """
    n = s.shape[0]
    if neg_sorted.shape[0] != n - p:
        raise ValueError(
            f"sigmoid_sums needs all {n - p} negatives sorted, got {neg_sorted.shape[0]}:"
            " a rank view pruned for a bounded step holds only the kept ones"
        )
    bounds = float(s.min()), float(s.max())
    e = sigmoid_series(s, p, k, bounds)
    g = np.zeros(n)
    if e is None:
        for i0, i1, sig, a, b in sigmoid_rows(s, p, k, bounds):
            pos, neg = sig[:, :p].sum(axis=1), sig[:, p:].sum(axis=1)
            if not slope:
                g[p:] += weigh(i0, i1, pos, neg) @ sig[:, p:]
                continue
            # k * sigmoid' is a_i * sig^2 * b_j, or sig * (1 - sig) per pair
            # past the span, with unit factors.
            if a is None:
                sig *= 1.0 - sig
                a, b = np.ones(i1 - i0), np.ones(n)
            else:
                sig *= sig
            v, w = weigh(i0, i1, pos, neg, sig[:, :p] @ b[:p], sig[:, p:] @ b[p:], a)
            g[:p] -= v @ sig[:, :p]
            g[p:] += w @ sig[:, p:]
        if slope:
            g *= b
        return g
    s_pos = s[:p]
    pos, pos_slope, v = np.empty(p), np.empty(p), np.empty(p)
    for i0, i1, sig, a, b in sigmoid_rows(s_pos, p, k):
        pos[i0:i1] = sig.sum(axis=1)
        if slope:
            sig *= sig
            pos_slope[i0:i1] = a * (sig @ b)

    def weigh_series(i0, i1, neg, neg_slope):
        if not slope:
            return weigh(i0, i1, pos[i0:i1], neg)
        v[i0:i1], w = weigh(i0, i1, pos[i0:i1], neg, pos_slope[i0:i1], neg_slope, 1.0)
        return w

    _series_sums(s_pos, s[p:], neg_sorted, bounds[0], k, e, weigh_series, slope, g[p:])
    if slope:
        for i0, i1, sig, a, b in sigmoid_rows(s_pos, p, k):
            sig *= sig
            g[:p] -= (v[i0:i1] * a) @ sig
        g[:p] *= b
    return g


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
    by ``np.sort``, which the sigmoid series reads as well.  For a bounded
    step (Heaviside or ramp) with ``prune`` on, negatives below the step's
    cut are trivial: their activation against every positive is exactly
    zero, so they are only counted (``below``), never sorted.  With s_min
    the lowest positive score, that is s_j - s_min <= -delta for the ramp
    and s_j - s_min < 0 for the hard step (an exact tie still activates).
    The cut compares the pairwise difference against the lowest positive,
    the same float the step function sees, so pruning never disagrees with
    an unpruned evaluation by even a rounding error.  Only a bounded step's
    view holds an order, ``neg_index``: the kept negatives' sample indices
    in ascending score order, ties in ``neg`` order, from one packed-key
    sort (``_sorted_order``) whose keys the cut only compresses.
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
