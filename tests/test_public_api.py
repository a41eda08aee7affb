"""The package's public names, pinned: refactors keep ``__all__`` as it is."""

import ranklosslab

PUBLIC_API = [
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


def test_all_is_pinned_in_order():
    assert ranklosslab.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    for name in PUBLIC_API:
        assert hasattr(ranklosslab, name), name
