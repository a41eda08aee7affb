"""Linear-model training harnesses for the ranking losses.

A linear model scores each sample by an inner product with its feature
vector.  Training iterates one of four updates:

* ``error_driven_ap``  -- the error-driven ranking update: each pairwise
  loss term pushes its positive's and negative's scores apart through the
  feature difference, generalizing perceptron learning.  On linearly
  separable data this reaches exact zero loss in finitely many steps.
* ``smoothed_ap_gd``   -- plain gradient descent on the sigmoid-smoothed
  loss (the differentiable baseline).
* ``auc``              -- error-driven update for the pair-counting loss.
* ``inseparable_ap``   -- the margin-modified update (ramp numerator, hard
  rank denominator).  With step size delta / R^2 its accumulated exact
  loss obeys a regret-style bound against any comparator weight vector,
  which ``verify_regret_bound`` checks numerically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import _pairwise
from ._pairwise import RankView
from .baselines import SmoothedApConfig, _smoothed_core
from .batch import RankingDataset, SampleBatch, partition
from .gradients import GradOptions, _accelerated_core
from .losses import _ap_loss_core, _auc_core
from .steps import (
    HEAVISIDE,
    PIECEWISE_KIND,
    StepConfig,
    ramp_integral,
)


@dataclass(frozen=True)
class LinearModel:
    """Weight vector of a linear scorer."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1:
            raise ValueError("theta must be one-dimensional")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return int(self.theta.shape[0])


@dataclass
class TrainConfig:
    """Knobs for one training run.

    ``step_size=None`` resolves per loss kind: 1.0 for the error-driven
    and baseline updates, delta / R^2 for the inseparable update (the
    value its accumulated-loss bound assumes).  ``update_scope`` picks
    between joint updates on the whole dataset and online updates on one
    group at a time (a group with nonzero exact loss, chosen by seeded
    uniform draw).
    """

    loss_kind: str = "error_driven_ap"
    step_size: float | None = None
    max_iters: int = 1000
    step_cfg: StepConfig = HEAVISIDE
    stop_at_zero_loss: bool = True
    grad_opts: GradOptions = field(default_factory=GradOptions)
    smoothed: SmoothedApConfig = field(default_factory=SmoothedApConfig)
    update_scope: str = "joint"
    seed: int = 0
    record_weights: bool = False

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}; expected one of {LOSS_KINDS}")
        if self.step_size is not None and not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.update_scope not in ("joint", "per_group"):
            raise ValueError("update_scope must be 'joint' or 'per_group'")
        if self.loss_kind == "inseparable_ap" and self.step_cfg.kind != PIECEWISE_KIND:
            raise ValueError("inseparable_ap requires a piecewise step_cfg (supplies delta)")


@dataclass
class TrainTrace:
    """Per-iteration record of one training run.

    ``ap_loss`` holds the exact hard-step loss of the batch used at each
    step, evaluated before the update; ``surrogate`` holds the value of
    whatever objective the update rule itself optimizes.  Weight snapshots
    (pre-update) and chosen group ids are kept when requested so the
    accumulated-loss bound can be replayed afterwards.
    """

    loss_kind: str
    step_size: float
    delta: float | None = None
    ap_loss: list[float] = field(default_factory=list)
    surrogate: list[float] = field(default_factory=list)
    wall_ns: list[int] = field(default_factory=list)
    pruned_neg: list[int] = field(default_factory=list)
    group_id: list[int] = field(default_factory=list)
    thetas: list[np.ndarray] | None = None
    final_joint_ap_loss: float = float("nan")

    @property
    def iterations(self) -> int:
        return len(self.ap_loss)

    def rows(self):
        """Yield (iter, loss_kind, ap_loss, surrogate, wall_ns, pruned_neg)."""
        for t in range(self.iterations):
            yield (
                t + 1,
                self.loss_kind,
                self.ap_loss[t],
                self.surrogate[t],
                self.wall_ns[t],
                self.pruned_neg[t],
            )


def score_dataset(model: LinearModel, data: RankingDataset) -> SampleBatch:
    """Score every sample with the model: one inner product per row."""
    if model.dim != data.dim:
        raise ValueError(f"model dim {model.dim} does not match feature dim {data.dim}")
    return SampleBatch(data.features @ model.theta, data.labels, data.group_ids)


def _inseparable_grad(view: RankView) -> tuple[float, np.ndarray, int]:
    """Margin-modified update: ramp numerator over a hard-rank denominator.

    Returns the smooth surrogate value (ramp-integral numerator over the
    same denominators), the normalized score gradient and the pruned
    count; the update is exactly gradient descent on that surrogate with
    the denominators frozen at the current weights.  The denominators are
    the view's hard counts, and the update is the accelerated kernel on
    the view, built for the ramp, with them in place of its soft
    denominators.
    """
    pos, neg = view.pos, view.neg
    p = pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return 0.0, np.zeros(view.scores.shape[0]), 0
    denom = _pairwise.rank_counts(view)[1]
    res = _accelerated_core(view, GradOptions(), denom)
    surrogate = float((_ramp_row_sums(view.scores, pos, neg, view.step.delta) / denom).sum() / p)
    return surrogate, res.grad, res.pruned_negatives


def jacobian_norm_bound(data: RankingDataset) -> float:
    """Upper bound R on the norm of the score-difference Jacobian.

    Uses the Frobenius norm of the positive-minus-negative feature
    difference rows stacked over the whole dataset: a valid (conservative)
    upper bound on the induced 2-norm of the pairwise-difference map for
    the full batch and for every group within it.
    """
    fpos = data.features[data.labels == 1]
    fneg = data.features[data.labels == 0]
    if fpos.shape[0] == 0 or fneg.shape[0] == 0:
        return 0.0
    sq = (
        fneg.shape[0] * (fpos**2).sum()
        + fpos.shape[0] * (fneg**2).sum()
        - 2.0 * fpos.sum(axis=0) @ fneg.sum(axis=0)
    )
    return float(np.sqrt(max(sq, 0.0)))


def _resolve_step_size(cfg: TrainConfig, data: RankingDataset) -> float:
    if cfg.step_size is not None:
        return cfg.step_size
    if cfg.loss_kind == "inseparable_ap":
        r = jacobian_norm_bound(data)
        if r == 0.0:
            raise ValueError("cannot derive step size: dataset has no positive-negative pair")
        return cfg.step_cfg.delta / (r * r)
    return 1.0


def _error_driven_rule(view: RankView, cfg: TrainConfig):
    res = _accelerated_core(view, cfg.grad_opts)
    return res.loss, res.grad, res.pruned_negatives


# The update rule of each loss kind, on a batch's rank view built for
# ``cfg.step_cfg`` (no step for the smoothed rule, whose sigmoid sums
# need every negative sorted): (view, cfg) -> (surrogate, score gradient,
# pruned).
_UPDATE_RULES = {
    "error_driven_ap": _error_driven_rule,
    "smoothed_ap_gd": lambda v, cfg: (*_smoothed_core(v, cfg.smoothed), 0),
    "auc": lambda v, cfg: _auc_core(v),
    "inseparable_ap": lambda v, cfg: _inseparable_grad(v),
}
LOSS_KINDS = tuple(_UPDATE_RULES)

_ONE_JOINT_ITERATION = dict(max_iters=1, stop_at_zero_loss=False, update_scope="joint")


def error_driven_step(model: LinearModel, data: RankingDataset, cfg: TrainConfig) -> LinearModel:
    """One joint error-driven update: one iteration of ``train`` as ``error_driven_ap``.

    New weights are theta - eta * features^T g, with g the error-driven
    score gradient under ``cfg.grad_opts`` (the classic convergence
    argument uses the unnormalized form, ``normalize_by_positives=False``)
    and eta ``cfg.step_size`` (1.0 when None, whatever ``cfg.loss_kind``).
    """
    return train(model, data, replace(cfg, loss_kind="error_driven_ap", **_ONE_JOINT_ITERATION))[0]


def inseparable_step(model: LinearModel, data: RankingDataset, cfg: TrainConfig) -> LinearModel:
    """One joint margin-modified update: one iteration of ``train`` as ``inseparable_ap``.

    ``cfg.step_cfg`` must be a piecewise ramp of half-width delta; the step
    is ``cfg.step_size`` (delta / R^2 when None, whatever ``cfg.loss_kind``).
    """
    return train(model, data, replace(cfg, loss_kind="inseparable_ap", **_ONE_JOINT_ITERATION))[0]


def _errs(scores: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> bool:
    """Whether the batch's exact hard-step loss is above 0: some negative
    scores at or above some positive, ties counting against the positive."""
    return bool(pos.shape[0] and neg.shape[0] and scores[neg].max() >= scores[pos].min())


def _finite_scores(features: np.ndarray, theta: np.ndarray, iteration: int, kind: str):
    scores = features @ theta
    if not np.isfinite(scores).all():
        raise ValueError(
            f"{kind} training diverged: scores became non-finite at iteration "
            f"{iteration}; lower the step size"
        )
    return scores


def train(
    model: LinearModel,
    data: RankingDataset,
    cfg: TrainConfig,
    timing: bool = False,
) -> tuple[LinearModel, TrainTrace]:
    """Run the configured update until zero exact loss or the iteration cap.

    Each iteration evaluates the update batch (whole dataset, or one
    erring group in ``per_group`` scope) at the current weights, records a
    trace row, and then applies the weight update.  A group errs exactly
    when its highest negative scores at or above its lowest positive, so
    ``per_group`` scope finds the erring groups without sorting them.  The
    update batch's negatives are sorted once per iteration into a rank
    view built for the rule's step, which gives both the traced exact loss
    and the rule's input, and which is dropped before the weights move.
    Group id -1 marks the whole dataset in the trace, so ``per_group``
    scope refuses a dataset that uses it.
    Non-convergence is a recorded outcome, not an error; scores that
    overflow to inf or NaN raise ``ValueError`` naming the iteration.
    ``timing`` fills the trace's wall_ns column with measured times of the
    update rule, which include the kernel's sort of the positives;
    building the update batch's view, with its negatives' sort, is outside
    them.  Otherwise the column is zero so traces stay byte-reproducible.
    """
    if model.dim != data.dim:
        raise ValueError(f"model dim {model.dim} does not match feature dim {data.dim}")
    theta = np.array(model.theta, dtype=np.float64)
    features = data.features
    eta = _resolve_step_size(cfg, data)
    delta = cfg.step_cfg.delta if cfg.step_cfg.kind == PIECEWISE_KIND else None
    trace = TrainTrace(cfg.loss_kind, eta, delta)
    if cfg.record_weights:
        trace.thetas = []

    joint_pos, joint_neg = partition(data)
    rule = _UPDATE_RULES[cfg.loss_kind]
    # Update batches as (rows, pos, neg) with their group ids: the whole
    # dataset (a slice, so no copy) or one batch per group, split off its labels.
    per_group = cfg.update_scope == "per_group"
    if per_group:
        gids = data.groups()
        if -1 in gids:
            raise ValueError("per-group training refuses group id -1, the whole dataset's mark")
        labelled = [(rows, data.labels[rows]) for rows in map(data.group_rows, gids)]
        batches = [(rows, np.flatnonzero(y == 1), np.flatnonzero(y == 0)) for rows, y in labelled]
        # Each group's classes as dataset rows, so the erring test gathers no group's scores.
        classes = [(rows[p], rows[n]) for rows, p, n in batches]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    else:
        gids = [-1]
        batches = [(slice(None), joint_pos, joint_neg)]
    # The smoothed rule runs no band kernel and needs every negative sorted,
    # so its view has no step and prunes nothing.
    step = None if cfg.loss_kind == "smoothed_ap_gd" else cfg.step_cfg
    prune = cfg.grad_opts.prune_trivial_negatives

    # A diverging run overflows; the finiteness checks, not numpy's warnings, report it.
    with np.errstate(over="ignore"):
        for it in range(1, cfg.max_iters + 1):
            scores = _finite_scores(features, theta, it, cfg.loss_kind)
            chosen = 0
            if per_group:
                erring = [k for k, (p, n) in enumerate(classes) if _errs(scores, p, n)]
                if not erring:
                    if cfg.stop_at_zero_loss:
                        break
                    erring = list(range(len(gids)))
                chosen = erring[int(rng.integers(len(erring)))]
            rows, pos, neg = batches[chosen]
            view = RankView(scores[rows], pos, neg, step, prune)
            loss = _ap_loss_core(view)

            t0 = time.perf_counter_ns()
            surrogate, grad, pruned = rule(view, cfg)
            wall = time.perf_counter_ns() - t0 if timing else 0
            del view

            trace.ap_loss.append(float(loss))
            trace.surrogate.append(float(surrogate))
            trace.wall_ns.append(int(wall))
            trace.pruned_neg.append(int(pruned))
            trace.group_id.append(int(gids[chosen]))
            if cfg.record_weights:
                trace.thetas.append(theta.copy())

            # Only a joint batch can reach here at zero loss with stopping on:
            # it records the zero-loss row, then stops.
            if cfg.stop_at_zero_loss and loss == 0.0:
                break
            theta -= eta * (features[rows].T @ grad)

        final_scores = _finite_scores(features, theta, it + 1, cfg.loss_kind)
    trace.final_joint_ap_loss = _ap_loss_core(RankView(final_scores, joint_pos, joint_neg))
    return LinearModel(theta), trace


def surrogate_loss(
    u: np.ndarray, data: RankingDataset, theta_hat: np.ndarray, delta: float
) -> float:
    """Smooth surrogate of the ranking loss at comparator weights ``u``.

    Numerators are ramp integrals of the pairwise differences scored by
    ``u``; denominators are the hard ranks scored by ``theta_hat`` (a
    training trajectory point).  Always at least delta/4 times the exact
    loss when both arguments coincide.  Both must be finite: the rank
    counts assume finite scores.
    """
    u = np.asarray(u, dtype=np.float64)
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    if u.shape[0] != data.dim or theta_hat.shape[0] != data.dim:
        raise ValueError("weight dimension does not match feature dimension")
    if not (np.isfinite(u).all() and np.isfinite(theta_hat).all()):
        raise ValueError("u and theta_hat must be finite")
    pos, neg = partition(data)
    p = pos.shape[0]
    if p == 0 or neg.shape[0] == 0:
        return 0.0
    denom = _pairwise.rank_counts(RankView(data.features @ theta_hat, pos, neg))[1]
    return float((_ramp_row_sums(data.features @ u, pos, neg, delta) / denom).sum() / p)


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the accumulated-loss bound for one comparator."""

    T: int
    accumulated_ap_loss: float
    bound_value: float
    surrogate_sum_at_u: float
    R: float
    Z_u: float | None
    satisfied: bool
    # Offline (fixed update batch) refinements of the average loss bound;
    # None when the run used varying groups.
    offline_bound_log: float | None = None
    offline_bound_saturating: float | None = None
    offline_satisfied: bool | None = None


def _ramp_row_sums(su: np.ndarray, pos: np.ndarray, neg: np.ndarray, delta: float) -> np.ndarray:
    """Per-positive sums over the negatives j of ramp_integral(s_j - s_i)."""
    return ramp_integral(_pairwise.diff_block(su, pos, neg), delta).sum(axis=1)


def verify_regret_bound(
    trace: TrainTrace,
    data: RankingDataset,
    u: np.ndarray,
    delta: float,
    R: float | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    """Check the accumulated-loss bound of the margin-modified update.

    The summed exact loss over the run must not exceed (8/delta) times the
    summed surrogate at the comparator plus (4 R^2 / delta^2) times the
    squared distance from the initial weights to the comparator.  Requires
    a trace recorded with weight snapshots, with the ramp half-width
    ``delta`` and the step size delta / R^2 the bound's derivation assumes.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and not negative, got {tol}")
    if trace.loss_kind != "inseparable_ap":
        raise ValueError("bound verification requires an inseparable_ap training trace")
    if trace.thetas is None or len(trace.thetas) != trace.iterations:
        raise ValueError("trace must carry a weight snapshot for every iteration")
    if trace.iterations == 0:
        raise ValueError("trace has no iterations (training began at zero loss); nothing to bound")
    if delta != trace.delta:
        raise ValueError(f"delta {delta} does not match the trace's ramp half-width {trace.delta}")
    if R is None:
        R = jacobian_norm_bound(data)
    if not R > 0.0:
        raise ValueError(
            f"R must be positive, got {R}: no positive-negative pair has differing features"
        )
    expected_eta = delta / (R * R)
    if abs(trace.step_size - expected_eta) > 1e-9 * max(expected_eta, 1.0):
        raise ValueError(
            f"step size {trace.step_size} does not match delta/R^2 = {expected_eta}; "
            "the bound derivation assumes that step size"
        )
    u = np.asarray(u, dtype=np.float64)
    T = trace.iterations
    groups = {g: data if g == -1 else data.subset(data.group_rows(g)) for g in set(trace.group_id)}
    surrogate_sum = 0.0
    for gid, theta in zip(trace.group_id, trace.thetas):
        surrogate_sum += surrogate_loss(u, groups[gid], theta, delta)

    accumulated = float(np.sum(trace.ap_loss))
    distance_sq = float(np.sum((u - trace.thetas[0]) ** 2))
    bound = (8.0 / delta) * surrogate_sum + (4.0 * R * R / delta**2) * distance_sq
    satisfied = accumulated <= bound + tol

    z_u = None
    b_log = b_sat = off_ok = None
    if len(groups) == 1:
        (gdata,) = groups.values()
        row_sums = _ramp_row_sums(gdata.features @ u, *partition(gdata), delta)
        if row_sums.size:
            z_u = float(row_sums.max())
            p = row_sums.shape[0]
            tail = (4.0 * R * R / delta**2) * distance_sq / T
            b_log = (np.log(p) + 1.0) / p * (8.0 / delta) * z_u + tail
            zb = (8.0 / delta) * z_u
            b_sat = zb / (1.0 + zb) + tail
            off_ok = accumulated / T <= min(b_log, b_sat) + tol

    return BoundReport(
        T=T,
        accumulated_ap_loss=accumulated,
        bound_value=bound,
        surrogate_sum_at_u=surrogate_sum,
        R=R,
        Z_u=z_u,
        satisfied=satisfied,
        offline_bound_log=b_log,
        offline_bound_saturating=b_sat,
        offline_satisfied=off_ok,
    )
