"""Error-driven optimization of ranking losses under class imbalance.

The package implements a pairwise average-precision-style ranking loss,
its error-driven update scheme (which passes update signals through the
non-differentiable step activation instead of differentiating it),
differentiable and pair-counting baselines, linear-model training
harnesses with convergence and accumulated-loss-bound checks, and a
seeded synthetic-data lab for imbalance and timing experiments.
"""

from .batch import RankingDataset, SampleBatch, aggregate_batches, partition
from .steps import (
    DEFAULT_DELTA,
    DEFAULT_SIGMOID_K,
    HEAVISIDE,
    STEP_KINDS,
    StepConfig,
    ramp_integral,
    step_value,
)
from .losses import RankMetrics, ap_loss, auc_loss, exact_metrics, primary_terms
from .gradients import (
    GradOptions,
    GradResult,
    grad_accelerated,
    grad_bruteforce,
    grad_reference,
)
from .baselines import (
    SmoothedApConfig,
    auc_grad,
    hinge_error_driven,
    smoothed_ap_loss_and_grad,
    softmax_error_driven,
)
from .trainer import (
    BoundReport,
    LinearModel,
    TrainConfig,
    TrainTrace,
    error_driven_step,
    inseparable_step,
    jacobian_norm_bound,
    score_dataset,
    surrogate_loss,
    train,
    verify_regret_bound,
)
from .synth import SynthConfig, generate
from .experiments import (
    ExperimentSpec,
    bench_acceleration,
    run_bounds,
    run_counterexample,
    run_experiment,
    run_gradcheck,
    surrogate_domination_slack,
    thread_count,
)

__version__ = "0.1.0"

__all__ = [
    "SampleBatch",
    "aggregate_batches",
    "partition",
    "StepConfig",
    "HEAVISIDE",
    "STEP_KINDS",
    "DEFAULT_DELTA",
    "DEFAULT_SIGMOID_K",
    "step_value",
    "ramp_integral",
    "RankMetrics",
    "ap_loss",
    "auc_loss",
    "exact_metrics",
    "primary_terms",
    "GradOptions",
    "GradResult",
    "grad_accelerated",
    "grad_bruteforce",
    "grad_reference",
    "SmoothedApConfig",
    "auc_grad",
    "hinge_error_driven",
    "smoothed_ap_loss_and_grad",
    "softmax_error_driven",
    "BoundReport",
    "LinearModel",
    "RankingDataset",
    "TrainConfig",
    "TrainTrace",
    "error_driven_step",
    "inseparable_step",
    "jacobian_norm_bound",
    "score_dataset",
    "surrogate_loss",
    "train",
    "verify_regret_bound",
    "SynthConfig",
    "generate",
    "ExperimentSpec",
    "bench_acceleration",
    "run_bounds",
    "run_counterexample",
    "run_experiment",
    "run_gradcheck",
    "surrogate_domination_slack",
    "thread_count",
    "__version__",
]
