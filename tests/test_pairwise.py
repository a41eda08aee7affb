import itertools
import math

import numpy as np
import pytest

from ranklosslab import (
    SampleBatch,
    StepConfig,
    auc_grad,
    exact_metrics,
    grad_accelerated,
    partition,
    step_value,
)
from ranklosslab import _pairwise
from ranklosslab._pairwise import (
    RankView,
    _sorted_order,
    diff_block,
    diffs,
    rank_counts,
    rank_denominators,
)
from helpers import (
    count_calls,
    per_pair_sigmoid,
    random_batch_arrays,
    sigmoid_chunk_rows,
    sigmoid_series_path,
)


class TestPairwiseKernel:
    def test_layout_positives_then_negatives(self):
        scores = np.array([0.5, 2.0, -1.0, 3.0])
        pos, neg = np.array([1, 3]), np.array([0, 2])
        block = diffs(scores, pos, neg)
        np.testing.assert_array_equal(block, [[0.0, 1.0, -1.5, -3.0], [-1.0, 0.0, -2.5, -4.0]])

    def test_heaviside_denominators_are_rank_counts_on_ties(self):
        # The denominator of positive i is its 1-based rank among valid
        # samples when ties count against it: 1 + #{k != i: s_k >= s_i}.
        rng = np.random.default_rng(11)
        for _ in range(100):
            scores, labels = random_batch_arrays(rng, max_n=40, max_pos=8, tie_prob=1.0)
            pos, neg = partition(SampleBatch(scores, labels))
            denom = rank_denominators(step_value(diffs(scores, pos, neg), StepConfig.heaviside()))
            valid = np.concatenate([pos, neg]).tolist()
            counts = [1 + sum(1 for k in valid if k != i and scores[k] >= scores[i]) for i in pos]
            np.testing.assert_array_equal(denom, counts)

    def test_negative_block_is_the_negative_columns(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            scores, labels = random_batch_arrays(rng, max_n=40, max_pos=8, tie_prob=0.5)
            pos, neg = partition(SampleBatch(scores, labels))
            block = diff_block(scores, pos, neg)
            assert block.shape == (pos.shape[0], neg.shape[0])
            np.testing.assert_array_equal(block, diffs(scores, pos, neg)[:, pos.shape[0]:])


class TestRankCounts:
    def test_counts_on_ties_and_signed_zeros(self):
        # Ties count against the positive, and -0.0 ties with 0.0.
        scores = np.array([0.0, 1.0, -0.0, 1.0, 2.0, -1.0, 0.5])
        labels = np.array([1, 1, 0, 0, 0, 0, -1])
        pos, neg = partition(SampleBatch(scores, labels))
        num, denom = rank_counts(RankView(scores, pos, neg))
        np.testing.assert_array_equal(num, [3.0, 2.0])
        np.testing.assert_array_equal(denom, [5.0, 3.0])
        assert num.dtype == denom.dtype == np.float64
        # The AUC update's column sums over the 2 x 4 pairs, each scaled by 1/8.
        grad = auc_grad(SampleBatch(scores, labels))[1]
        np.testing.assert_array_equal(grad[neg] * 8.0, [1.0, 2.0, 2.0, 0.0])
        np.testing.assert_array_equal(grad[pos] * 8.0, -num)

    def test_overflowing_differences_keep_their_sign(self):
        scores = np.array([-1.7e308, 1.7e308, 1.7e308, -1.7e308])
        labels = np.array([1, 1, 0, 0])
        pos, neg = partition(SampleBatch(scores, labels))
        with np.errstate(over="ignore"):
            f = step_value(diffs(scores, pos, neg), StepConfig.heaviside())
        num, denom = rank_counts(RankView(scores, pos, neg))
        np.testing.assert_array_equal(num, f[:, 2:].sum(axis=1))
        np.testing.assert_array_equal(denom, rank_denominators(f))
        grad = auc_grad(SampleBatch(scores, labels))[1]
        np.testing.assert_array_equal(grad[neg] * 4.0, f[:, 2:].sum(axis=0))


DBL_MAX = np.finfo(np.float64).max
# Every size up to 3, and each size where the order's index field widens
# (2^k + 1) with the size just before it.
SIZES = [0, 1, 2, 3] + [n for k in range(2, 18) for n in (2**k, 2**k + 1)]


def _draw(kind: str, rng: np.random.Generator, m: int) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(m)
    if kind == "quarter_ticks":
        return rng.integers(-8, 9, m) / 4.0
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0, 0.25, -0.25], m)
    if kind == "extremes":
        return rng.choice([DBL_MAX, -DBL_MAX, 0.0, -0.0, 1.0, -1.0], m)
    if kind == "subnormals":
        return rng.choice([5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 0.0, -0.0], m)
    # A few ulps either side of +-1e6, which share a key's high bits.
    ulps = rng.integers(-3, 4, m) * np.spacing(1e6)
    return np.where(rng.random(m) < 0.5, 1e6 + ulps, -1e6 - ulps)


class TestSortedOrder:
    @pytest.mark.parametrize(
        "kind", ["normal", "quarter_ticks", "signed_zeros", "extremes", "subnormals", "near_1e6"]
    )
    def test_is_the_stable_argsort(self, kind):
        rng = np.random.default_rng(23)
        for m in SIZES:
            s = _draw(kind, rng, m)
            order, s_sorted = _sorted_order(s)
            np.testing.assert_array_equal(order, np.argsort(s, kind="stable"))
            # The same bits as s[order], signbits of zeros included.
            np.testing.assert_array_equal(s_sorted.view(np.int64), s[order].view(np.int64))

    @pytest.mark.parametrize(
        "kind", ["normal", "quarter_ticks", "signed_zeros", "extremes", "subnormals", "near_1e6"]
    )
    @pytest.mark.parametrize("ascending", [True, False], ids=["ascending", "shuffled"])
    def test_sample_indices_under_a_cut(self, kind, ascending):
        # The keys carry indices into a longer score array, in ascending
        # order or not, and a mask drops some of them after the keys are
        # built: the order is the kept indices in the stable order of their
        # scores, ties by their place in ``index``.
        rng = np.random.default_rng(37)
        for m in SIZES:
            scores = _draw(kind, rng, 2 * m + 3)
            index = np.sort(rng.choice(scores.shape[0], m, replace=False))
            if not ascending:
                rng.shuffle(index)
            values = scores[index]
            for keep in (None, rng.random(m) < 0.7, np.zeros(m, dtype=bool)):
                kept = index if keep is None else index[keep]
                expected = kept[np.argsort(scores[kept], kind="stable")]
                order, s_sorted = _sorted_order(scores, index, values, keep)
                np.testing.assert_array_equal(order, expected)
                np.testing.assert_array_equal(
                    s_sorted.view(np.int64), scores[expected].view(np.int64)
                )

    @staticmethod
    def _fallbacks(monkeypatch, s: np.ndarray) -> int:
        argsort, calls = np.argsort, []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return argsort(*args, **kwargs)

        expected = argsort(s, kind="stable")
        monkeypatch.setattr(np, "argsort", spy)
        order, s_sorted = _sorted_order(s)
        monkeypatch.undo()
        np.testing.assert_array_equal(order, expected)
        np.testing.assert_array_equal(s_sorted.view(np.int64), s[expected].view(np.int64))
        return len(calls)

    @pytest.mark.parametrize("m", [2, 1000])
    def test_scores_within_the_index_field_fall_back(self, monkeypatch, m):
        # 1.0 and the next double share every key bit above the index
        # field, so they come out by index, the larger one first.
        s = np.random.default_rng(29).standard_normal(m)
        s[0], s[-1] = np.nextafter(1.0, np.inf), 1.0
        assert self._fallbacks(monkeypatch, s) == 1

    def test_distinct_and_tied_scores_take_one_sort(self, monkeypatch):
        s = np.random.default_rng(31).standard_normal(1000)
        s[::7] = s[3]
        s[1::10], s[2::10] = 0.0, -0.0
        assert self._fallbacks(monkeypatch, s) == 0

    def test_ties_under_an_index_that_does_not_ascend_fall_back(self, monkeypatch):
        # The keys put tied scores in index order, which is not their order
        # in a shuffled ``index``; only distinct scores keep the one sort.
        rng = np.random.default_rng(41)
        argsort, calls = np.argsort, []
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        index = rng.permutation(300)
        for scores, fallbacks in ((rng.standard_normal(300), 0), (rng.integers(0, 9, 300) / 2, 1)):
            order, _ = _sorted_order(scores, index, scores[index])
            assert len(calls) == fallbacks
            np.testing.assert_array_equal(order, index[argsort(scores[index], kind="stable")])


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.int64) if x.dtype == np.float64 else x


def _view_cases(rng):
    """Batches for the rank view's order: ties, ignored labels, signed
    zeros, scores within a few ulps of 1e6 and negatives in no order."""
    for b in range(300):
        scores, labels = random_batch_arrays(rng, max_n=80, max_pos=8)
        if b % 4 == 1:
            scores = _draw("signed_zeros", rng, scores.shape[0])
        elif b % 4 == 2:
            scores = _draw("near_1e6", rng, scores.shape[0])
        pos, neg = partition(SampleBatch(scores, labels))
        if b % 3 == 2:
            neg = rng.permutation(neg)
        yield scores, pos, neg


class TestRankViewOrder:
    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize(
        "step", [StepConfig.heaviside(), StepConfig.piecewise(0.25)], ids=lambda c: c.kind
    )
    def test_is_the_stable_argsort_of_the_kept_negatives(self, step, prune):
        rng = np.random.default_rng(43)
        for scores, pos, neg in _view_cases(rng):
            view = RankView(scores, pos, neg, step, prune)
            kept = neg
            if prune and pos.size:
                diff = scores[neg] - scores[pos].min()
                kept = neg[diff > -step.delta if step.kind == "piecewise" else diff >= 0.0]
            expected = kept[np.argsort(scores[kept], kind="stable")]
            np.testing.assert_array_equal(view.neg_index, expected)
            np.testing.assert_array_equal(_bits(view.neg_sorted), _bits(scores[expected]))
            assert view.below == neg.shape[0] - kept.shape[0]

    def test_a_sigmoid_view_is_the_counting_view(self):
        # Neither holds an order, and the sigmoid prunes nothing whatever
        # ``prune`` says: the views differ in ``step`` alone, bit for bit.
        rng = np.random.default_rng(47)
        step = StepConfig.sigmoid(0.5)
        for b, (scores, pos, neg) in enumerate(_view_cases(rng)):
            counting = RankView(scores, pos, neg)
            view = RankView(scores, pos, neg, step, b % 2 == 0)
            assert (counting.step, view.step) == (None, step)
            assert view.neg_index is None and view.below == 0
            for name in set(RankView.__slots__) - {"step"}:
                got, want = getattr(view, name), getattr(counting, name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(_bits(got), _bits(want))
                else:
                    assert got == want

    @pytest.mark.parametrize(
        "call, sorts",
        [
            (lambda b: grad_accelerated(b, StepConfig.heaviside()), 2),
            (lambda b: grad_accelerated(b, StepConfig.piecewise(0.5)), 2),
            (lambda b: auc_grad(b, StepConfig.piecewise(0.5)), 2),
            (exact_metrics, 2),
            (lambda b: grad_accelerated(b, StepConfig.sigmoid(0.5)), 1),
            (lambda b: auc_grad(b, StepConfig.sigmoid(0.5)), 1),
        ],
        ids=["ed_heaviside", "ed_ramp", "auc_ramp", "exact_metrics", "ed_sigmoid", "auc_sigmoid"],
    )
    def test_each_call_orders_each_class_its_kernel_walks_once(self, monkeypatch, call, sorts):
        # One packed-key sort per class whose order the kernel reads: the
        # kept negatives for a bounded step, in its view, and the positives,
        # in the kernel.  The counts sort the positives with ``np.sort``.
        calls = []
        sorted_order = _pairwise._sorted_order
        monkeypatch.setattr(
            _pairwise, "_sorted_order", lambda *args: calls.append(1) or sorted_order(*args)
        )
        rng = np.random.default_rng(53)
        for _ in range(10):
            scores, labels = random_batch_arrays(rng, max_n=60, max_pos=8)
            call(SampleBatch(scores, labels))
            assert len(calls) == sorts
            calls.clear()

    def test_exact_metrics_sorts_its_positives_twice(self, monkeypatch):
        # Once by ``np.sort`` for the AP's rank denominators and once by a
        # packed-key sort for the interpolated AP's kernel; the AUC reads
        # only the numerators, which sort no positives.
        sorted_arrays = []
        sort, sorted_order = np.sort, _pairwise._sorted_order

        def counting_sort(a, *args, **kwargs):
            sorted_arrays.append(np.array(a))
            return sort(a, *args, **kwargs)

        def counting_order(*args):
            if len(args) == 1:
                sorted_arrays.append(np.array(args[0]))
            return sorted_order(*args)

        monkeypatch.setattr(np, "sort", counting_sort)
        monkeypatch.setattr(_pairwise, "_sorted_order", counting_order)
        rng = np.random.default_rng(59)
        for _ in range(10):
            scores, labels = random_batch_arrays(rng, max_n=60, max_pos=8)
            exact_metrics(SampleBatch(scores, labels))
            s_pos = scores[labels == 1]
            assert sum(np.array_equal(a, s_pos) for a in sorted_arrays) == 2
            sorted_arrays.clear()


def _sigmoid_reference(s, p, k):
    """sigmoid((s_j - s_i)/k) and k sigmoid' in long double, one row per
    score in ``s[:p]``, one column per score in ``s``, 0 on own columns."""
    s = s.astype(np.longdouble)
    z = (s[None, :] - s[:p, None]) / np.longdouble(k)
    e = np.exp(-np.abs(z))
    sig, slope = np.where(z >= 0, 1, e) / (1 + e), e / (1 + e) ** 2
    own = np.eye(p, s.shape[0], dtype=bool)
    sig[own] = slope[own] = 0
    return sig, slope


def _sigmoid_sums_case(kind):
    """(s, p) for ``sigmoid_sums``: positives first, then negatives, k = 0.5."""
    rng = np.random.default_rng(31)
    p = 1 if kind == "one_positive" else 6
    s = rng.standard_normal(p + 40) * 2.0
    if kind == "tied":
        s = np.round(s) / 2.0
    elif kind == "offset":
        s += 1e6
    elif kind == "past_span":  # (max - min)/k past 350 at k = 0.5
        s[-1] = 180.0
    elif kind == "lattice_edges":  # runs of ties on bin edges: (s - min)/k * 2^e is whole
        s = np.round(s * 2.0) / 8.0
    elif kind == "packed_fallback":  # within 2^6 ulps of 1e6, so the negatives' sort falls back
        s = 1e6 + rng.integers(0, 64, p + 40) * np.spacing(1e6)
    return s, p


class TestSigmoidSums:
    """The one sigmoid kernel, on each route, against long double."""

    K = 0.5

    @staticmethod
    def sums(s, p, k, slope):
        """The kernel's columns, the sums each chunk of rows was handed
        (rescaled by the handed factor), and the chunks' (i0, i1)."""
        got, chunks = np.zeros((4, p)), []

        def weigh(i0, i1, pos, neg, pos_slope=None, neg_slope=None, a=None):
            chunks.append((i0, i1))
            got[:2, i0:i1] = pos, neg
            if not slope:
                return 1.0 / (1.0 + pos + neg)
            got[2:, i0:i1] = a * pos_slope, a * neg_slope
            return a * (pos / (1.0 + neg) + got[2, i0:i1]), a * (1.0 / (1.0 + neg + pos) + got[3, i0:i1])

        return _pairwise.sigmoid_sums(s, p, k, weigh, slope), got, chunks

    @pytest.mark.parametrize("chunk_rows", [None, 2])
    @pytest.mark.parametrize("slope", [False, True], ids=["sigmoid", "slope"])
    @pytest.mark.parametrize("series", [False, True], ids=["dispatched", "series"])
    @pytest.mark.parametrize(
        "kind",
        ["spread", "tied", "offset", "one_positive", "past_span", "lattice_edges", "packed_fallback"],
    )
    def test_matches_the_long_double_sums(self, kind, series, slope, chunk_rows):
        s, p = _sigmoid_sums_case(kind)
        with sigmoid_chunk_rows(chunk_rows, s.shape[0]), per_pair_sigmoid() as per_pair, \
                sigmoid_series_path(series) as taken:
            col, got, chunks = self.sums(s, p, self.K, slope)
        assert taken == [series and kind != "past_span"]
        assert per_pair.called == (kind == "past_span")
        assert [i for c in chunks for i in range(*c)] == list(range(p))
        sig, dsig = _sigmoid_reference(s, p, self.K)
        pos, neg = sig[:, :p].sum(axis=1), sig[:, p:].sum(axis=1)
        ref = [pos, neg]
        if slope:
            pos_slope, neg_slope = dsig[:, :p].sum(axis=1), dsig[:, p:].sum(axis=1)
            ref += [pos_slope, neg_slope]
            v, w = pos / (1 + neg) + pos_slope, 1 / (1 + neg + pos) + neg_slope
            ref_col = np.concatenate([-(v @ dsig[:, :p]), w @ dsig[:, p:]])
        else:
            ref_col = np.concatenate([np.zeros(p), 1 / (1 + pos + neg) @ sig[:, p:]])
        for mine, theirs in zip(got, ref):
            assert np.abs(mine - theirs).max() <= 1e-12 * np.abs(theirs).max() + 1e-300
        assert np.abs(col - ref_col).max() <= 1e-12 * np.abs(ref_col).max()
        if not slope:
            assert (col[:p] == 0.0).all()

    def test_the_fallback_case_takes_the_argsort(self, monkeypatch):
        s, p = _sigmoid_sums_case("packed_fallback")
        assert TestSortedOrder._fallbacks(monkeypatch, s[p:]) == 1

    def test_the_series_takes_no_argsort_on_the_fallback_case(self):
        # The series bins sorted scores, which ``np.sort`` gives with no
        # fallback, so the negatives that make the packed-key order fall
        # back to the stable ``np.argsort`` cost the series no argsort.
        s, p = _sigmoid_sums_case("packed_fallback")
        with sigmoid_series_path(force=True) as taken, count_calls(np, "argsort") as argsort:
            self.sums(s, p, self.K, False)
        assert taken == [True]
        assert argsort.call_count == 0

    def test_the_route_is_the_cheapest_width_where_the_rule_says_so(self):
        # The series is taken, at the width of least modelled cost, exactly
        # where that cost is below 0.8 p (p + n), within the separable span.
        k, routes = 0.5, []
        for p, n, span in itertools.product(
            (1, 5, 20, 50, 200),
            (100, 2_000, 5_000, 50_000),
            (0.0, 0.3, 1.0, 4.0, 9.9, 10.1, 30.0, 100.0, 170.0, 349.0, 351.0),
        ):
            costs = {}
            for e, order in _pairwise._SERIES_ORDERS.items():
                span_bins = math.floor(span * 2.0**e) + 1
                costs[e] = _pairwise._series_cost(p, n, min(n, span_bins), span_bins, order)
            e = min(costs, key=costs.get)
            pays = span <= _pairwise._SEPARABLE_SPAN and costs[e] < 0.8 * p * (p + n)
            s = np.zeros(p + n)
            s[-1] = span * k
            series = _pairwise.sigmoid_series(s, p, k, (0.0, span * k))
            assert (series is not None) == pays, (p, n, span)
            assert series is None or series.e == e
            routes.append(pays)
        assert 20 < sum(routes) < len(routes) - 20

    def test_a_series_sums_the_same_on_every_call(self):
        # The bins outlive each call, so the sums of a second call, and of
        # the slope after them, hold as the first call's do.
        rng = np.random.default_rng(37)
        p, k = 20, 0.5
        s = rng.standard_normal(p + 5_000)
        series = _pairwise.SigmoidSeries(
            s[p:], np.sort(s[p:]), float(s.min()), k, min(_pairwise._SERIES_ORDERS)
        )
        sig, dsig = _sigmoid_reference(s, p, k)
        for slope, ref in ((False, sig), (False, sig), (True, dsig), (False, sig)):
            out = np.empty(s.shape[0] - p)
            series.sums(s[:p], lambda i0, i1, *_: np.ones(i1 - i0), slope, out)
            ref_col = ref[:, p:].sum(axis=0)
            assert np.abs(out - ref_col).max() <= 1e-12 * np.abs(ref_col).max()
