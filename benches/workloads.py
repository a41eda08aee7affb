"""The benchmark's workloads, their correctness checks and traced replays.

Every workload drives the library only through the functions a user of
``ranklosslab`` calls.  One *pass* is the unit that is timed; each
workload also knows how to check a pass's outputs and how to replay a
traced pass through the per-module public functions.

Why these workloads:

* ``sweep_ed_1to1000`` -- the error-driven arm of ``ranklosslab sweep``
  (ramp step delta=1, pruning on, unnormalized, step 1, cap 2000) trained
  to exact zero loss on 50 positives against 50,000 negatives.  It is the
  paper's method at the imbalance it targets; time goes to the exact
  hard-step loss and the accelerated gradient on 20 MB blocks.
* ``sweep_smoothed`` -- the smoothed-AP gradient-descent arm of ``sweep``
  at 1:1000 (log space, k=0.5, step 0.5), cut from 300 to 2 iterations
  per pass so that a run holds many passes; per-iteration work is
  unchanged.  It never calls ``gradients``, so gradient-kernel work
  should leave it unchanged.

Three more workloads were tried and left out, because other tenants of
a shared machine move their times too far for a bound of 0.25: the
sweep's error-driven arm at 1:10, ``ranklosslab bounds`` and
``ranklosslab gradcheck``.  All three spend their time in the
interpreter on small arrays, and on a 2-CPU VM their times swung by
about 60% between load phases lasting minutes.  Over sets of ten runs
of 20-25 s, their spread (quartile distance over median) reached 0.28
to 0.47, and two sets' medians differed by up to 33%.  The two workloads
kept work on large arrays and swung less (0.07-0.15 for the 1:1000
sweep).  The layers only the dropped workloads reached are still timed:
the traced run of ``sweep_ed_1to1000`` also replays the bound check of
one ``ranklosslab bounds`` run and the gradient oracles on
gradcheck-shaped batches (``_bound_replay``, ``_oracle_replay``).

Each pass's time is taken over a yardstick timed around it, and the
median of these ratios over many passes is reported (see ``run.py``).

The error-driven sweep trains one fixed instance, the CLI default (seed
0), whatever ``--seed`` is; the seed only picks the instance of a run
for ``--holdout-seed`` and the inputs of the traced run's side replays.
Time to exact zero loss depends on the instance far more than on any
code change: over 16 instances at 1:100 it took 87 to 304 iterations,
and even a rounding-level change of the inputs moves it by 12%.
``sweep_smoothed`` does the same work for every seed, so it draws its
inputs from it.

The counts ``losses.ap_loss_calls`` and ``trainer.surrogate_loss_calls``
are counted from the program: a counted pass wraps the library functions
named in ``COUNTED_CALLS`` where their callers look them up.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter_ns

import numpy as np

from ranklosslab import (
    GradOptions,
    LinearModel,
    SampleBatch,
    StepConfig,
    SynthConfig,
    TrainConfig,
    ap_loss,
    generate,
    grad_accelerated,
    grad_bruteforce,
    grad_reference,
    jacobian_norm_bound,
    partition,
    ramp_integral,
    score_dataset,
    smoothed_ap_loss_and_grad,
    step_value,
    surrogate_domination_slack,
    surrogate_loss,
    train,
    verify_regret_bound,
)
from ranklosslab.experiments import (
    RESULT_HEADER,
    child_seed,
    default_sweep_spec,
    write_csv,
    write_trace_csv,
)

SMOOTHED_ITERS = 2
# Sizes of the layers the traced run of ``sweep_ed_1to1000`` replays
# besides its own: the ``bounds`` defaults for one run, 20 slack
# instances, and 30 gradcheck-shaped batches.
SIDE_REPLAY = {"oracle_batches": 30, "comparators": 50, "iters": 150, "slack_instances": 20}
SMALL_SIDE_REPLAY = {"oracle_batches": 6, "comparators": 5, "iters": 20, "slack_instances": 5}
# The seed of the fixed instance, the CLI's default.
FIXED_SEED = 0
GRAD_RTOL = 1e-9
FD_RTOL = 1e-4
RAMP_DELTA = 1.0

PER_LAYER_UNITS = {
    "synth.generate_ms": "ms",
    "batch.construct_us": "us",
    "batch.partition_us": "us",
    "steps.heaviside_ms": "ms",
    "steps.piecewise_ms": "ms",
    "steps.sigmoid_ms": "ms",
    "steps.ramp_integral_ms": "ms",
    "losses.ap_loss_ms": "ms",
    "losses.ap_loss_calls": "count",
    "gradients.accelerated_ms": "ms",
    "gradients.accelerated_p90_ms": "ms",
    "gradients.accelerated_ms.heaviside": "ms",
    "gradients.accelerated_ms.piecewise": "ms",
    "gradients.accelerated_ms.sigmoid": "ms",
    "gradients.kept_neg_ratio": "ratio",
    "gradients.active_pairs": "count",
    "gradients.band_pairs": "count",
    "gradients.bruteforce_ms": "ms",
    "gradients.reference_ms": "ms",
    "baselines.smoothed_ms": "ms",
    "baselines.smoothed_alloc_mb": "MB",
    "trainer.score_ms": "ms",
    "trainer.update_ms": "ms",
    "trainer.iterations": "count",
    "trainer.train_ms": "ms",
    "trainer.surrogate_loss_us": "us",
    "trainer.surrogate_loss_calls": "count",
    "trainer.verify_bound_ms": "ms",
    "experiments.csv_write_ms": "ms",
    "experiments.csv_bytes": "count",
    "experiments.slack_ms": "ms",
    "trace.overhead_s": "s",
    "trace.unattributed_ms": "ms",
    "trace.wall_ms": "ms",
}
MODULES = ("synth", "batch", "steps", "losses", "gradients", "baselines", "trainer", "experiments")
PER_LAYER_UNITS.update({f"{m}.self_ms": "ms" for m in MODULES})


# The library functions whose calls a counted pass tallies, per metric.
# Each is named in the module whose code calls it, since that module's
# globals are where the call looks the name up.  A name the library no
# longer has is skipped, and its calls then go uncounted.
COUNTED_CALLS = {
    "losses.ap_loss_calls": (("trainer", "_ap_loss_core"), ("experiments", "ap_loss")),
    "trainer.surrogate_loss_calls": (("trainer", "surrogate_loss"),
                                     ("experiments", "surrogate_loss")),
}


@contextmanager
def counting_calls():
    """Count calls to ``COUNTED_CALLS`` made inside the block; yields the
    per-metric counts and restores the library's functions on exit."""
    counts = dict.fromkeys(COUNTED_CALLS, 0)
    patched = []

    def counted(metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    try:
        for metric, sites in COUNTED_CALLS.items():
            for module_name, attr in sites:
                module = importlib.import_module(f"ranklosslab.{module_name}")
                fn = getattr(module, attr, None)
                if fn is not None:
                    patched.append((module, attr, fn))
                    setattr(module, attr, counted(metric, fn))
        yield counts
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def span(tracer, name: str, op: int | None = None):
    return nullcontext() if tracer is None else tracer.span(name, op)


def _ms(ns: float) -> float:
    return ns / 1e6


def _timed_ns(fn, repeat: int) -> float:
    """Median wall time of ``repeat`` calls, in nanoseconds."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return median(times)


def _percentile(values, q: float) -> float:
    """Linearly interpolated percentile, as ``np.percentile`` gives it.

    Pure Python, because the first ``np.percentile`` call of a process
    spends about 13 ms importing, which a traced replay would charge to
    no module.
    """
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _rel_error(a, b) -> float:
    """Largest relative difference over entries that differ at all."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    err = np.abs(a - b)
    mask = err > 0
    if not mask.any():
        return 0.0
    return float((err[mask] / np.maximum(np.abs(b[mask]), 1e-300)).max())


def _file_bytes(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths)


@dataclass
class PassOutput:
    """What one pass produced: its op count, the counts that must repeat
    exactly for a fixed seed, and the objects the checks and replay read."""

    ops: int
    counts: dict
    keep: dict = field(default_factory=dict)


def _micro_common(scores: np.ndarray, labels: np.ndarray, pos_rows: np.ndarray) -> dict:
    """Batch and step timings on the workload's own scores, each the
    median of a few calls.

    The step block is the positives-by-valid difference matrix every dense
    kernel in the library builds for this batch.
    """
    repeat = 3
    batch = SampleBatch(scores, labels)
    valid = np.flatnonzero(labels >= 0)
    diffs = scores[valid][None, :] - scores[pos_rows][:, None]
    ramp = StepConfig.piecewise(RAMP_DELTA)
    sig = StepConfig.sigmoid(0.5)
    heavy = StepConfig.heaviside()
    return {
        "batch.construct_us": _timed_ns(lambda: SampleBatch(scores, labels), 20) / 1e3,
        "batch.partition_us": _timed_ns(lambda: partition(batch), 20) / 1e3,
        "steps.heaviside_ms": _ms(_timed_ns(lambda: step_value(diffs, heavy), repeat)),
        "steps.piecewise_ms": _ms(_timed_ns(lambda: step_value(diffs, ramp), repeat)),
        "steps.sigmoid_ms": _ms(_timed_ns(lambda: step_value(diffs, sig), repeat)),
        "steps.ramp_integral_ms": _ms(_timed_ns(lambda: ramp_integral(diffs, RAMP_DELTA), repeat)),
    }


class Sweep:
    """One arm of ``ranklosslab sweep`` at one imbalance ratio.

    A pass is what ``run_experiment`` does for one task: generate the
    data, train from zero weights, write ``results.csv`` and the trace
    CSV.  The three calls are made here one by one so that a traced pass
    can time each of them from this file.  ``side_replay`` holds the
    sizes of the layers the traced replay times besides the sweep's own.
    """

    op_name = "training iteration"

    def __init__(self, name: str, arm: str, negatives: int, seed: int, work_dir: Path,
                 positives: int = 50, max_iters: int | None = None, holdout: bool = False,
                 side_replay: dict | None = None):
        self.name = name
        self.arm = arm
        self.seed = seed
        self.side_replay = side_replay
        fixed_instance = arm == "error_driven_ap" and not holdout
        spec = default_sweep_spec(seed=FIXED_SEED if fixed_instance else seed)
        cfg = spec.train[arm]
        if max_iters is not None:
            cfg = replace(cfg, max_iters=max_iters)
        self.cfg = cfg
        self.synth = replace(
            spec.synth,
            positives=positives,
            negatives=negatives,
            seed=child_seed(spec.synth.seed, 0),
        )
        self.block_shape = (positives, positives + negatives)
        self.work_dir = work_dir
        self.results_csv = work_dir / "results.csv"
        self.trace_csv = work_dir / f"trace_{arm}_n{negatives}_r0.csv"

    def run_pass(self, tracer=None, record: bool = False) -> PassOutput:
        with span(tracer, "synth.generate"):
            data = generate(self.synth)
        cfg = replace(self.cfg, record_weights=record)
        with span(tracer, "trainer.train"):
            model, trace = train(LinearModel(np.zeros(self.synth.dim)), data, cfg)
        row = (
            self.arm,
            self.synth.negatives,
            0,
            trace.final_joint_ap_loss,
            trace.iterations,
            int(np.sum(trace.wall_ns)),
        )
        with span(tracer, "experiments.csv_write"):
            write_csv(self.results_csv, RESULT_HEADER, [row])
            write_trace_csv(self.trace_csv, trace)
        counts = {
            "trainer.iterations": trace.iterations,
            "experiments.csv_bytes": _file_bytes(self.results_csv, self.trace_csv),
            "final_ap_loss": trace.final_joint_ap_loss,
        }
        if self.arm == "error_driven_ap":
            kept = trace.iterations * self.synth.negatives - int(np.sum(trace.pruned_neg))
            counts["gradients.kept_negatives"] = kept
        return PassOutput(trace.iterations, counts, {"data": data, "trace": trace, "model": model})

    def checks(self, out: PassOutput) -> list[tuple[str, bool, str]]:
        data, trace, model = out.keep["data"], out.keep["trace"], out.keep["model"]
        if self.arm == "error_driven_ap":
            reached = trace.final_joint_ap_loss == 0.0 and trace.ap_loss[-1] == 0.0
            found = [("exact_zero_loss", reached,
                      f"final exact loss {trace.final_joint_ap_loss!r} "
                      f"after {trace.iterations} iterations")]
            worst = 0.0
            for t in _sample_points(len(trace.thetas), 5):
                batch = score_dataset(LinearModel(trace.thetas[t]), data)
                fast = grad_accelerated(batch, self.cfg.step_cfg, self.cfg.grad_opts)
                ref = grad_reference(
                    batch, self.cfg.step_cfg, interpolated=self.cfg.grad_opts.interpolated,
                    normalize=self.cfg.grad_opts.normalize_by_positives,
                )
                worst = max(worst, _rel_error(fast.loss, ref.loss), _rel_error(fast.grad, ref.grad))
            found.append(("accelerated_matches_reference", worst <= GRAD_RTOL,
                          f"worst relative error {worst:.3e} at 5 trajectory points"))
            return found
        batch = score_dataset(model, data)
        smoothed = self.cfg.smoothed
        _, grad = smoothed_ap_loss_and_grad(batch, smoothed)
        pos, neg = partition(batch)
        coords = [int(pos[np.argmax(np.abs(grad[pos]))]), int(neg[np.argmax(np.abs(grad[neg]))]),
                  int(neg[0])]
        eps = 1e-6
        numeric = []
        for c in coords:
            plus = batch.scores.copy()
            plus[c] += eps
            minus = batch.scores.copy()
            minus[c] -= eps
            f_plus = smoothed_ap_loss_and_grad(SampleBatch(plus, batch.labels), smoothed)[0]
            f_minus = smoothed_ap_loss_and_grad(SampleBatch(minus, batch.labels), smoothed)[0]
            numeric.append((f_plus - f_minus) / (2 * eps))
        numeric = np.array(numeric)
        scale = max(float(np.abs(numeric).max()), 1e-8)
        err = float(np.abs(grad[coords] - numeric).max()) / scale
        return [("smoothed_grad_matches_central_difference", err <= FD_RTOL,
                 f"relative error {err:.3e} on {len(coords)} coordinates")]

    def replay(self, tracer, out: PassOutput) -> dict:
        data, trace = out.keep["data"], out.keep["trace"]
        ed = self.arm == "error_driven_ap"
        grad_ns = []
        for t, theta in enumerate(trace.thetas):
            with span(tracer, "trainer.score", t):
                batch = score_dataset(LinearModel(theta), data)
            with span(tracer, "losses.ap_loss", t):
                ap_loss(batch)
            if ed:
                with span(tracer, "gradients.accelerated", t) as s:
                    g = grad_accelerated(batch, self.cfg.step_cfg, self.cfg.grad_opts).grad
                grad_ns.append(s.duration_ns)
            else:
                with span(tracer, "baselines.smoothed", t):
                    g = smoothed_ap_loss_and_grad(batch, self.cfg.smoothed)[1]
            with span(tracer, "trainer.update", t):
                data.features.T @ g
        stats = {}
        if ed:
            stats["gradients.accelerated_ms"] = _ms(_percentile(grad_ns, 50))
            stats["gradients.accelerated_p90_ms"] = _ms(_percentile(grad_ns, 90))
        if self.side_replay:
            side = self.side_replay
            stats.update(_oracle_replay(tracer, self.seed, side["oracle_batches"]))
            stats.update(_bound_replay(tracer, self.seed, side["comparators"], side["iters"],
                                       side["slack_instances"]))
        return stats

    def micro(self, out: PassOutput) -> dict:
        data, trace, model = out.keep["data"], out.keep["trace"], out.keep["model"]
        pos, neg = partition(SampleBatch(np.zeros(data.n), data.labels))
        mid = trace.thetas[len(trace.thetas) // 2]
        stats = _micro_common(data.features @ mid, data.labels, pos)
        if self.arm == "error_driven_ap":
            stats["gradients.kept_neg_ratio"] = (
                out.counts["gradients.kept_negatives"] / (trace.iterations * neg.shape[0])
            )
            active = band = 0
            for theta in trace.thetas:
                scores = data.features @ theta
                s_neg = scores[neg]
                for i in pos:
                    d = s_neg - scores[i]
                    active += int(np.count_nonzero(d > -RAMP_DELTA))
                    band += int(np.count_nonzero(np.abs(d) < RAMP_DELTA))
            stats["gradients.active_pairs"] = active
            stats["gradients.band_pairs"] = band
        else:
            batch = score_dataset(model, data)
            tracemalloc.start()
            try:
                smoothed_ap_loss_and_grad(batch, self.cfg.smoothed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            stats["baselines.smoothed_alloc_mb"] = peak / 2**20
        return stats


def _sample_points(count: int, k: int) -> list[int]:
    return sorted({int(round(x)) for x in np.linspace(0, count - 1, min(k, count))})


STEP_KINDS = (
    ("heaviside", StepConfig.heaviside()),
    ("piecewise", StepConfig.piecewise(1.0)),
    ("sigmoid", StepConfig.sigmoid(0.5)),
)


def _oracle_batches(seed: int, count: int):
    """Random batches shaped like the ``ranklosslab gradcheck`` suite's:
    n <= 200, up to 20 positives, some ignored labels, ties in half."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 11])))
    for _ in range(count):
        n = int(rng.integers(2, 201))
        n_pos = int(rng.integers(1, min(20, n - 1) + 1))
        n_ign = min(int(rng.integers(0, max(n // 10, 1) + 1)), n - n_pos - 1)
        labels = np.zeros(n, dtype=np.int64)
        labels[:n_pos] = 1
        labels[n_pos:n_pos + n_ign] = -1
        rng.shuffle(labels)
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        yield scores, labels


def _oracle_replay(tracer, seed: int, count: int) -> dict:
    """Time batch construction, both gradient oracles and the accelerated
    kernel (plain and interpolated) of every step kind on small batches."""
    per_kind = {kind: [] for kind, _ in STEP_KINDS}
    brute, ref = [], []
    plain, interp = GradOptions(interpolated=False), GradOptions(interpolated=True)
    for b, (scores, labels) in enumerate(_oracle_batches(seed, count)):
        kind, cfg = STEP_KINDS[b % len(STEP_KINDS)]
        with span(tracer, "batch.construct", b):
            batch = SampleBatch(scores, labels)
        with span(tracer, "gradients.bruteforce", b) as s:
            grad_bruteforce(batch, cfg)
        brute.append(s.duration_ns)
        with span(tracer, "gradients.accelerated_small", b) as s:
            grad_accelerated(batch, cfg, plain)
        per_kind[kind].append(s.duration_ns)
        with span(tracer, "gradients.reference", b) as s:
            grad_reference(batch, cfg, interpolated=True)
        ref.append(s.duration_ns)
        with span(tracer, "gradients.accelerated_small", b) as s:
            grad_accelerated(batch, cfg, interp)
        per_kind[kind].append(s.duration_ns)
    stats = {
        "gradients.bruteforce_ms": _ms(median(brute)),
        "gradients.reference_ms": _ms(median(ref)),
    }
    for kind, vs in per_kind.items():
        stats[f"gradients.accelerated_ms.{kind}"] = _ms(median(vs))
    return stats


def _bound_replay(tracer, seed: int, comparators: int, iters: int,
                  slack_instances: int) -> dict:
    """Time the regret-bound check as ``ranklosslab bounds`` runs it.

    Run 0 of ``run_bounds`` (inseparable data, 20/100 samples, ramp step)
    is trained for ``iters`` iterations and its bound checked against
    ``comparators`` comparators, counting the ``surrogate_loss`` calls the
    library makes; then ``surrogate_domination_slack`` runs on
    ``slack_instances`` instances.  Span names differ from the sweep's
    where sizes differ, so that no per-span median mixes the two.
    """
    synth = SynthConfig(dim=10, positives=20, negatives=100, margin=-0.5, noise_sigma=1.0,
                        seed=child_seed(seed, 0))
    cfg = TrainConfig(loss_kind="inseparable_ap", step_cfg=StepConfig.piecewise(RAMP_DELTA),
                      max_iters=iters, stop_at_zero_loss=False, record_weights=True)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(child_seed(seed, 0, 1))))
    scales = (0.1, 1.0, 10.0)
    us = [rng.standard_normal(synth.dim) * scales[i % 3] for i in range(comparators)]
    with span(tracer, "synth.generate_inseparable"):
        data = generate(synth)
    with span(tracer, "trainer.train_inseparable"):
        _, trace = train(LinearModel(np.zeros(synth.dim)), data, cfg)
    r_bound = jacobian_norm_bound(data)
    with counting_calls() as calls:
        for i, u in enumerate(us):
            with span(tracer, "trainer.verify_bound", i):
                verify_regret_bound(trace, data, u, RAMP_DELTA, R=r_bound)
    for t, theta in enumerate(trace.thetas):
        for u in us[:3]:
            with span(tracer, "trainer.surrogate_loss", t):
                surrogate_loss(u, data, theta, RAMP_DELTA)
    with span(tracer, "experiments.slack"):
        surrogate_domination_slack(instances=slack_instances, seed=seed)
    return {"trainer.surrogate_loss_calls": calls["trainer.surrogate_loss_calls"]}


def build(name: str, seed: int, work_dir: Path, small: bool = False,
          holdout: bool = False) -> Sweep:
    """Construct a workload; ``small`` shrinks every size for the smoke test.

    A ``holdout`` error-driven sweep draws its instance from the seed
    instead of training the fixed one, so that its checks see new data.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    positives = 10 if small else 50
    negatives = positives * (100 if small else 1000)
    if name == "sweep_ed_1to1000":
        return Sweep(name, "error_driven_ap", negatives, seed, work_dir, positives=positives,
                     holdout=holdout, side_replay=SMALL_SIDE_REPLAY if small else SIDE_REPLAY)
    if name == "sweep_smoothed":
        return Sweep(name, "smoothed_ap_gd", negatives, seed, work_dir, positives=positives,
                     max_iters=SMOOTHED_ITERS)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep_ed_1to1000", "sweep_smoothed")
