"""Experiment orchestration: sweeps, benches, oracle checks, CSV output.

Everything here is deterministic for a fixed config and seed.  Trace CSVs
use the fixed header ``iter,loss_kind,ap_loss,surrogate,wall_ns,pruned_neg``;
wall-clock columns are written as 0 unless a run explicitly enables timing
(benches always do), because measured times can never be byte-reproducible
while every other column can.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .baselines import SmoothedApConfig
from .batch import RankingDataset, SampleBatch, partition
from .gradients import GradOptions, grad_accelerated, grad_bruteforce, grad_reference
from .steps import StepConfig
from .synth import SynthConfig, generate
from .trainer import (
    LinearModel,
    TrainConfig,
    TrainTrace,
    jacobian_norm_bound,
    surrogate_loss,
    train,
    verify_regret_bound,
)
from .losses import ap_loss

TRACE_HEADER = ("iter", "loss_kind", "ap_loss", "surrogate", "wall_ns", "pruned_neg")
RESULT_HEADER = (
    "loss_kind",
    "negatives",
    "repetition",
    "final_ap_loss",
    "iterations",
    "wall_ns_total",
)

THREADS_ENV_VAR = "RANKLOSSLAB_THREADS"


def thread_count() -> int:
    """Worker cap from the environment, defaulting to the hardware count."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be at least 1, got {value}")
    return value


def _at_least_one(**counts: int) -> None:
    """Raise a ValueError naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def child_seed(base: int, *keys: int) -> int:
    """Derive an independent 64-bit stream seed from (base, keys)."""
    seq = np.random.SeedSequence([int(base), *map(int, keys)])
    return int(seq.generate_state(1, np.uint64)[0])


def _fmt(value) -> str:
    # repr of a Python float is the shortest round-trip form, identical
    # across platforms; numpy scalars are unwrapped first.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_trace_csv(path: str | Path, trace: TrainTrace) -> None:
    write_csv(path, TRACE_HEADER, trace.rows())


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a generator config plus a trainer config per loss.

    ``negatives_grid`` widens the run into an imbalance sweep; ``None``
    means a single run at ``synth.negatives``.  ``timing`` opts into
    measured wall-clock columns (sacrificing byte-reproducibility of the
    output files).  Each ``train`` key must be its entry's ``loss_kind``,
    which names the output files.
    """

    synth: SynthConfig
    train: dict[str, TrainConfig]
    repetitions: int = 1
    output_path: str | Path = "."
    negatives_grid: tuple[int, ...] | None = None
    timing: bool = False

    def __post_init__(self):
        _at_least_one(repetitions=self.repetitions)
        if self.negatives_grid is not None and not self.negatives_grid:
            raise ValueError("negatives_grid must hold at least one negatives count")
        if not self.train:
            raise ValueError("at least one training config is required")
        for key, cfg in self.train.items():
            if key != cfg.loss_kind:
                raise ValueError(f"train entry {key!r} holds loss_kind {cfg.loss_kind!r}")


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[tuple]
    traces: dict[tuple[str, int, int], TrainTrace]


def _run_one(
    spec: ExperimentSpec, loss_kind: str, negatives: int, rep: int
) -> tuple[tuple, TrainTrace]:
    synth_cfg = replace(
        spec.synth,
        negatives=negatives,
        seed=child_seed(spec.synth.seed, rep),
    )
    data = generate(synth_cfg)
    model = LinearModel(np.zeros(synth_cfg.dim))
    _, trace = train(model, data, spec.train[loss_kind], timing=spec.timing)
    row = (
        loss_kind,
        negatives,
        rep,
        trace.final_joint_ap_loss,
        trace.iterations,
        int(np.sum(trace.wall_ns)),
    )
    return row, trace


def run_experiment(spec: ExperimentSpec, write: bool = True) -> ExperimentResult:
    """Train every configured loss over the imbalance grid and repetitions.

    Returns one result row per (loss, negatives, repetition) and the full
    traces; optionally writes ``results.csv`` plus one trace file per run
    under ``spec.output_path``.  Tasks run in parallel (capped by the
    RANKLOSSLAB_THREADS environment variable) unless timing is on, in
    which case one worker runs them in turn so measurements do not contend.
    When a task raises, every other task still runs, the finished ones are
    written (``results.csv`` then holds only their rows), and the first
    error in task order is raised again.
    """
    grid = spec.negatives_grid or (spec.synth.negatives,)
    tasks = [
        (loss, n_neg, rep)
        for loss in sorted(spec.train)
        for n_neg in grid
        for rep in range(spec.repetitions)
    ]
    workers = 1 if spec.timing else min(thread_count(), len(tasks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_one, spec, *task) for task in tasks]
    errors = [f.exception() for f in futures if f.exception() is not None]
    finished = {task: f.result() for task, f in zip(tasks, futures) if f.exception() is None}
    rows = [row for row, _ in finished.values()]
    traces = {task: trace for task, (_, trace) in finished.items()}
    if write:
        out = Path(spec.output_path)
        write_csv(out / "results.csv", RESULT_HEADER, rows)
        for (loss, n_neg, rep), trace in traces.items():
            write_trace_csv(out / f"trace_{loss}_n{n_neg}_r{rep}.csv", trace)
    if errors:
        raise errors[0]
    return ExperimentResult(rows=rows, traces=traces)


# ---------------------------------------------------------------------------
# Gradient oracle suite


@dataclass(frozen=True)
class GradcheckReport:
    batches: int
    failures: int
    worst_rel_error: float
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rel_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    scale = np.maximum(np.abs(b), 1e-300)
    err = np.abs(a - b)
    # Entries that are exactly zero on both sides contribute no error.
    mask = err > 0
    if not mask.any():
        return 0.0
    return float((err[mask] / scale[mask]).max())


def _random_batch(rng: np.random.Generator, max_n: int, max_pos: int) -> SampleBatch:
    n = int(rng.integers(2, max_n + 1))
    n_pos = int(rng.integers(1, min(max_pos, n - 1) + 1))
    n_ignored = int(rng.integers(0, max(n // 10, 1) + 1))
    n_ignored = min(n_ignored, n - n_pos - 1)
    labels = np.zeros(n, dtype=np.int64)
    labels[:n_pos] = 1
    labels[n_pos : n_pos + n_ignored] = -1
    rng.shuffle(labels)
    scores = rng.standard_normal(n)
    if rng.random() < 0.5:
        # Coarse quantization injects plenty of exact ties.
        scores = np.round(scores, 1)
    return SampleBatch(scores, labels)


def run_gradcheck(
    batches: int = 500,
    seed: int = 0,
    max_n: int = 200,
    max_pos: int = 20,
    rtol: float = 1e-9,
) -> GradcheckReport:
    """Accelerated-vs-oracle equivalence over random batches.

    For each batch (random sizes, ignored labels, injected ties, cycling
    through all three step kinds) the accelerated path with interpolation
    off must match the brute-force double loop, and with interpolation on
    must match the dense reference, within ``rtol`` relative error.
    """
    _at_least_one(batches=batches)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    configs = [
        StepConfig.heaviside(),
        StepConfig.piecewise(0.5),
        StepConfig.piecewise(1.0),
        StepConfig.piecewise(2.0),
        StepConfig.sigmoid(0.25),
        StepConfig.sigmoid(0.5),
        StepConfig.sigmoid(1.0),
    ]
    failures = 0
    worst = 0.0
    started = time.perf_counter()
    for b in range(batches):
        batch = _random_batch(rng, max_n, max_pos)
        cfg = configs[b % len(configs)]

        loss_bf, grad_bf = grad_bruteforce(batch, cfg)
        plain = grad_accelerated(batch, cfg, GradOptions(interpolated=False))
        err = max(
            _rel_error(plain.loss, loss_bf),
            _rel_error(plain.grad, grad_bf),
        )

        ref = grad_reference(batch, cfg, interpolated=True)
        interp = grad_accelerated(batch, cfg, GradOptions(interpolated=True))
        err = max(
            err,
            _rel_error(interp.loss, ref.loss),
            _rel_error(interp.grad, ref.grad),
        )

        worst = max(worst, err)
        if err > rtol:
            failures += 1
    return GradcheckReport(
        batches=batches,
        failures=failures,
        worst_rel_error=worst,
        elapsed_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Gradient-descent failure construction


def gd_failure_dataset() -> RankingDataset:
    """Three-sample dataset on which smoothed gradient descent stalls.

    One negative at the origin and two positives, separable by any weight
    vector with 0 < theta_1 < theta_2 / 3, yet plain gradient descent on
    the sigmoid-smoothed loss started at (10, 5) drifts away from the
    separating region for good and its loss converges to 1/6 instead of 0.
    """
    features = np.array([[0.0, 0.0], [1.0, 0.0], [-3.0, 1.0]])
    labels = np.array([0, 1, 1])
    return RankingDataset(features, labels)


GD_FAILURE_INIT = (10.0, 5.0)


def run_counterexample(
    out_dir: str | Path | None = None,
    gd_iters: int = 100_000,
) -> dict[str, TrainTrace]:
    """Train both updates on the failure construction from (10, 5).

    The error-driven update reaches exact loss zero; plain gradient
    descent on the smoothed loss (slope scale 1, raw objective) keeps an
    exact loss of 1/6 forever while its smooth loss approaches 1/6.
    """
    data = gd_failure_dataset()
    init = LinearModel(np.array(GD_FAILURE_INIT))

    error_cfg = TrainConfig(
        loss_kind="error_driven_ap",
        step_size=1.0,
        max_iters=1000,
        grad_opts=GradOptions(normalize_by_positives=False),
    )
    gd_cfg = TrainConfig(
        loss_kind="smoothed_ap_gd",
        step_size=1.0,
        max_iters=gd_iters,
        smoothed=SmoothedApConfig(k=1.0, log_space=False),
    )
    _, error_trace = train(init, data, error_cfg)
    _, gd_trace = train(init, data, gd_cfg)
    traces = {"error_driven_ap": error_trace, "smoothed_ap_gd": gd_trace}
    if out_dir is not None:
        out = Path(out_dir)
        for kind, trace in traces.items():
            write_trace_csv(out / f"trace_{kind}.csv", trace)
    return traces


# ---------------------------------------------------------------------------
# Accumulated-loss bound verification


BOUNDS_HEADER = (
    "run",
    "u_index",
    "T",
    "accumulated_ap_loss",
    "bound_value",
    "surrogate_sum_at_u",
    "R",
    "satisfied",
)


def run_bounds(
    runs: int = 10,
    u_per_run: int = 50,
    iters: int = 150,
    delta: float = 1.0,
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> list[tuple]:
    """Inseparable training runs checked against the accumulated-loss bound.

    Each run draws overlapping-class data, trains the margin-modified
    update with the step size the bound assumes, and checks the inequality
    for randomly scaled comparator vectors.  Returns one row per
    (run, comparator).
    """
    _at_least_one(runs=runs, u_per_run=u_per_run)
    rows = []
    for r in range(runs):
        synth = SynthConfig(
            dim=10,
            positives=20,
            negatives=100,
            margin=-0.5,
            noise_sigma=1.0,
            seed=child_seed(seed, r),
        )
        data = generate(synth)
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(delta),
            max_iters=iters,
            stop_at_zero_loss=False,
            record_weights=True,
        )
        _, trace = train(LinearModel(np.zeros(synth.dim)), data, cfg)
        r_bound = jacobian_norm_bound(data)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(child_seed(seed, r, 1))))
        scales = (0.1, 1.0, 10.0)
        for i in range(u_per_run):
            u = rng.standard_normal(synth.dim) * scales[i % len(scales)]
            report = verify_regret_bound(trace, data, u, delta, R=r_bound)
            rows.append(
                (
                    r,
                    i,
                    report.T,
                    report.accumulated_ap_loss,
                    report.bound_value,
                    report.surrogate_sum_at_u,
                    report.R,
                    int(report.satisfied),
                )
            )
    if out_dir is not None:
        write_csv(Path(out_dir) / "bounds.csv", BOUNDS_HEADER, rows)
    return rows


def surrogate_domination_slack(instances: int = 200, delta: float = 1.0, seed: int = 0) -> float:
    """Smallest value of l(x, x) - (delta/4) * exact loss over random data.

    Non-negative values certify that the surrogate dominates the scaled
    exact loss on every tested instance.
    """
    _at_least_one(instances=instances)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    worst = np.inf
    for _ in range(instances):
        dim = int(rng.integers(2, 8))
        synth = SynthConfig(
            dim=dim,
            positives=int(rng.integers(1, 8)),
            negatives=int(rng.integers(1, 30)),
            margin=-0.3,
            noise_sigma=1.0,
            seed=int(rng.integers(0, 2**32)),
        )
        data = generate(synth)
        theta = rng.standard_normal(dim)
        batch = data.features @ theta
        exact = ap_loss(SampleBatch(batch, data.labels))
        slack = surrogate_loss(theta, data, theta, delta) - (delta / 4.0) * exact
        worst = min(worst, slack)
    return float(worst)


# ---------------------------------------------------------------------------
# Acceleration benches


TIMELINE_HEADER = (
    "iter",
    "wall_pruned_ns",
    "wall_full_ns",
    "pruned_neg",
    "grad_max_diff",
    "loss_diff",
)
SCALING_HEADER = ("negatives", "wall_ns")


@dataclass(frozen=True)
class BenchResult:
    timeline: list[tuple]
    scaling: list[tuple]


def bench_acceleration(spec: ExperimentSpec, write: bool = True) -> BenchResult:
    """Timing study of trivial-negative pruning.

    Timeline: ``train`` runs the error-driven entry on ``spec.synth`` data
    with pruning on for exactly ``max_iters`` iterations, recording its
    weights; at each recorded weight vector the bench then times the
    gradient with and without pruning and records how far the two results
    diverge.  Scaling: times the unpruned path on fresh random batches of
    growing negative count at fixed positive count.  The spec must hold
    only an ``error_driven_ap`` entry in joint scope and one repetition;
    ``stop_at_zero_loss`` and ``timing`` do not apply.
    """
    if list(spec.train) != ["error_driven_ap"]:
        raise ValueError(f"the pruning bench times only 'error_driven_ap', got {list(spec.train)}")
    cfg = spec.train["error_driven_ap"]
    if cfg.update_scope != "joint":
        raise ValueError("the pruning bench trains jointly; update_scope must be 'joint'")
    if spec.repetitions != 1:
        raise ValueError(f"the pruning bench runs once; repetitions is {spec.repetitions}, not 1")
    data = generate(spec.synth)
    pos, neg = partition(data)
    timeline, scaling = [], []
    if pos.size and neg.size:  # with nothing to rank, both tables stay empty
        prune = replace(cfg.grad_opts, prune_trivial_negatives=True)
        no_prune = replace(cfg.grad_opts, prune_trivial_negatives=False)
        run = replace(cfg, grad_opts=prune, stop_at_zero_loss=False, record_weights=True)
        _, trace = train(LinearModel(np.zeros(spec.synth.dim)), data, run)
        for it, theta in enumerate(trace.thetas, 1):
            batch = SampleBatch(data.features @ theta, data.labels, data.group_ids)
            t0 = time.perf_counter_ns()
            pruned_res = grad_accelerated(batch, cfg.step_cfg, prune)
            t1 = time.perf_counter_ns()
            full_res = grad_accelerated(batch, cfg.step_cfg, no_prune)
            t2 = time.perf_counter_ns()
            timeline.append(
                (
                    it,
                    t1 - t0,
                    t2 - t1,
                    pruned_res.pruned_negatives,
                    float(np.abs(pruned_res.grad - full_res.grad).max()),
                    abs(pruned_res.loss - full_res.loss),
                )
            )

        grid = spec.negatives_grid or (1000, 2000, 4000, 8000, 16000)
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(child_seed(spec.synth.seed, 999)))
        )
        n_pos = spec.synth.positives
        for n_neg in grid:
            labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, np.int64)])
            batch = SampleBatch(rng.standard_normal(n_pos + n_neg), labels)
            best = min(
                _timed_ns(lambda: grad_accelerated(batch, cfg.step_cfg, no_prune)) for _ in range(5)
            )
            scaling.append((int(n_neg), best))

    if write:
        out = Path(spec.output_path)
        write_csv(out / "bench_timeline.csv", TIMELINE_HEADER, timeline)
        write_csv(out / "bench_scaling.csv", SCALING_HEADER, scaling)
    return BenchResult(timeline=timeline, scaling=scaling)


def _timed_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Shipped experiment defaults (used by the CLI when no config is given)


def default_sweep_spec(seed: int = 0, out: str | Path = "runs") -> ExperimentSpec:
    """Imbalance sweep: fixed positives, negatives 10x/100x/1000x.

    The error-driven arm trains the ramp-step update with pruning; the
    baseline arm runs gradient descent on the sigmoid-smoothed loss in log
    space with a fixed iteration budget shared across all ratios.
    """
    return ExperimentSpec(
        synth=SynthConfig(
            dim=20, positives=50, negatives=500, margin=0.1, noise_sigma=1.0, seed=seed
        ),
        train={
            "error_driven_ap": TrainConfig(
                loss_kind="error_driven_ap",
                step_size=1.0,
                max_iters=2000,
                step_cfg=StepConfig.piecewise(1.0),
                grad_opts=GradOptions(normalize_by_positives=False),
            ),
            "smoothed_ap_gd": TrainConfig(
                loss_kind="smoothed_ap_gd",
                step_size=0.5,
                max_iters=300,
                smoothed=SmoothedApConfig(k=0.5, log_space=True, epsilon=1e-2),
            ),
        },
        repetitions=1,
        output_path=out,
        negatives_grid=(500, 5000, 50000),
    )


def default_train_spec(seed: int = 0, out: str | Path = "runs") -> ExperimentSpec:
    """Single error-driven training run: the sweep's error-driven arm at 1:10, no grid."""
    spec = default_sweep_spec(seed, out)
    return replace(
        spec, train={"error_driven_ap": spec.train["error_driven_ap"]}, negatives_grid=None
    )


def default_bench_spec(seed: int = 0, out: str | Path = "runs", iters: int = 100) -> ExperimentSpec:
    """Pruning bench: large negative pool, training long enough to prune all.

    The scaling grid stays small enough that every per-row working set
    fits in cache, so the fitted exponent reflects the algorithm rather
    than memory-hierarchy cliffs.
    """
    return ExperimentSpec(
        synth=SynthConfig(
            dim=20, positives=20, negatives=20000, margin=0.5, noise_sigma=1.0, seed=seed
        ),
        train={
            "error_driven_ap": TrainConfig(
                loss_kind="error_driven_ap",
                step_size=2.0,
                max_iters=iters,
                step_cfg=StepConfig.piecewise(1.0),
            )
        },
        output_path=out,
        negatives_grid=(4000, 8000, 16000, 32000, 64000),
    )
