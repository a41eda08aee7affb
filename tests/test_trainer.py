from dataclasses import replace

import numpy as np
import pytest

from ranklosslab import (
    GradOptions,
    LinearModel,
    RankingDataset,
    SampleBatch,
    SmoothedApConfig,
    StepConfig,
    auc_grad,
    SynthConfig,
    TrainConfig,
    ap_loss,
    error_driven_step,
    generate,
    grad_accelerated,
    grad_bruteforce,
    partition,
    inseparable_step,
    jacobian_norm_bound,
    score_dataset,
    smoothed_ap_loss_and_grad,
    surrogate_loss,
    train,
    verify_regret_bound,
)
from ranklosslab.experiments import GD_FAILURE_INIT, gd_failure_dataset
from ranklosslab import trainer as trainer_module
from ranklosslab.trainer import LOSS_KINDS, _UPDATE_RULES
from helpers import random_batch_arrays


class TestScoreDataset:
    def test_zero_weights(self):
        data = gd_failure_dataset()
        batch = score_dataset(LinearModel(np.zeros(2)), data)
        np.testing.assert_array_equal(batch.scores, np.zeros(3))

    def test_failure_dataset_scores(self):
        batch = score_dataset(LinearModel(np.array([1.0, 1.0])), gd_failure_dataset())
        np.testing.assert_array_equal(batch.scores, [0.0, 1.0, -2.0])

    def test_identity_features_pick_coordinate(self):
        data = RankingDataset(np.eye(3), np.array([1, 0, 0]))
        batch = score_dataset(LinearModel(np.array([1.0, 0.0, 0.0])), data)
        np.testing.assert_array_equal(batch.scores, [1.0, 0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            score_dataset(LinearModel(np.zeros(4)), gd_failure_dataset())


class TestErrorDrivenStep:
    def test_all_tied_hand_update(self):
        # All scores zero so every pairwise term is 1/3; the unnormalized
        # update sums (1/3) (f_i - f_j) over both positive-negative pairs.
        data = gd_failure_dataset()
        cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=1.0,
            grad_opts=GradOptions(normalize_by_positives=False),
        )
        new = error_driven_step(LinearModel(np.zeros(2)), data, cfg)
        np.testing.assert_allclose(new.theta, [-2 / 3, 1 / 3], rtol=1e-12)

    def test_perfect_ranking_is_fixed_point(self):
        data = RankingDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 0]))
        cfg = TrainConfig(loss_kind="error_driven_ap", step_size=1.0)
        model = LinearModel(np.array([5.0, -5.0]))
        np.testing.assert_array_equal(error_driven_step(model, data, cfg).theta, model.theta)

    def test_single_pair_moves_score_difference(self):
        # Orthonormal features, tied scores: term is 1/2, so the score gap
        # closes by eta * term * ||f_i - f_j||^2 = 0.7 * 0.5 * 2 = 0.7.
        data = RankingDataset(np.eye(2), np.array([1, 0]))
        cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=0.7,
            grad_opts=GradOptions(normalize_by_positives=False),
        )
        new = error_driven_step(LinearModel(np.zeros(2)), data, cfg)
        scores = data.features @ new.theta
        np.testing.assert_allclose(scores[0] - scores[1], 0.7, rtol=1e-12)

    def test_equals_transposed_bruteforce_gradient(self):
        synth = SynthConfig(dim=6, positives=4, negatives=20, margin=-0.2, seed=3)
        data = generate(synth)
        theta = np.linspace(-1, 1, 6)
        cfg = TrainConfig(loss_kind="error_driven_ap", step_size=0.3)
        new = error_driven_step(LinearModel(theta), data, cfg)
        _, grad = grad_bruteforce(SampleBatch(data.features @ theta, data.labels))
        np.testing.assert_allclose(new.theta, theta - 0.3 * (data.features.T @ grad), rtol=1e-12)

    def test_step_follows_the_rule_not_cfg_loss_kind(self):
        # An inseparable config without a step size still steps by 1.0 here.
        data = generate(SynthConfig(dim=5, positives=5, negatives=40, margin=-0.5, seed=0))
        model = LinearModel(np.linspace(-1, 1, 5))
        cfg = TrainConfig(loss_kind="inseparable_ap", step_cfg=StepConfig.piecewise(1.0))
        expected = error_driven_step(model, data, replace(cfg, loss_kind="error_driven_ap"))
        np.testing.assert_array_equal(error_driven_step(model, data, cfg).theta, expected.theta)
        assert not np.array_equal(expected.theta, model.theta)


class TestTrainConvergence:
    def test_separable_reaches_zero(self):
        data = generate(SynthConfig(dim=20, positives=30, negatives=300, margin=0.1, seed=0))
        cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=1.0,
            max_iters=2000,
            grad_opts=GradOptions(normalize_by_positives=False),
        )
        model, trace = train(LinearModel(np.zeros(20)), data, cfg)
        assert trace.final_joint_ap_loss == 0.0
        assert trace.iterations < 2000
        assert trace.ap_loss[-1] == 0.0

    def test_separable_reaches_zero_with_ramp_step(self):
        data = generate(SynthConfig(dim=20, positives=30, negatives=300, margin=0.1, seed=1))
        cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=1.0,
            max_iters=3000,
            step_cfg=StepConfig.piecewise(1.0),
            grad_opts=GradOptions(normalize_by_positives=False),
        )
        _, trace = train(LinearModel(np.zeros(20)), data, cfg)
        assert trace.final_joint_ap_loss == 0.0

    def test_trace_is_deterministic(self):
        data = generate(SynthConfig(dim=8, positives=5, negatives=40, margin=0.2, seed=2))
        cfg = TrainConfig(loss_kind="error_driven_ap", step_size=1.0, max_iters=200)
        _, t1 = train(LinearModel(np.zeros(8)), data, cfg)
        _, t2 = train(LinearModel(np.zeros(8)), data, cfg)
        assert t1.ap_loss == t2.ap_loss
        assert t1.surrogate == t2.surrogate

    def test_max_iters_respected_without_convergence(self):
        data = generate(SynthConfig(dim=4, positives=5, negatives=20, margin=-0.5, seed=3))
        cfg = TrainConfig(loss_kind="auc", step_size=0.1, max_iters=25, stop_at_zero_loss=False)
        _, trace = train(LinearModel(np.zeros(4)), data, cfg)
        assert trace.iterations == 25

    def test_per_group_evaluates_each_group_once_per_iteration(self, monkeypatch):
        # The chosen group's traced loss is the one computed to pick it.
        calls = []
        counted = trainer_module._ap_loss_core
        monkeypatch.setattr(
            trainer_module, "_ap_loss_core", lambda *a: calls.append(1) or counted(*a)
        )
        data = generate(
            SynthConfig(dim=4, positives=9, negatives=30, groups=3, margin=-0.5, seed=2)
        )
        cfg = TrainConfig(max_iters=40, stop_at_zero_loss=False, update_scope="per_group")
        _, trace = train(LinearModel(np.zeros(4)), data, cfg)
        assert trace.iterations == 40
        assert len(calls) == 40 * 3 + 1  # every group each iteration, plus the final joint loss

    @pytest.mark.parametrize("scope, rows", [("joint", 1), ("per_group", 0)])
    def test_stop_rule_of_each_scope_from_a_separating_start(self, scope, rows):
        # A joint run records its zero-loss row and stops; a per-group run
        # stops before recording once no group errs.
        data = generate(SynthConfig(dim=5, positives=9, negatives=30, groups=3, margin=0.2, seed=4))
        cfg = TrainConfig(update_scope=scope, record_weights=True)
        model, trace = train(LinearModel(data.separator), data, cfg)
        assert trace.iterations == rows
        assert trace.ap_loss == [0.0] * rows
        assert trace.group_id == [-1] * rows
        assert trace.final_joint_ap_loss == 0.0
        np.testing.assert_array_equal(model.theta, data.separator)


class TestGdFailureDichotomy:
    def test_gradient_descent_stalls_but_error_driven_escapes(self):
        data = gd_failure_dataset()
        init = LinearModel(np.array(GD_FAILURE_INIT))
        gd_cfg = TrainConfig(
            loss_kind="smoothed_ap_gd",
            step_size=1.0,
            max_iters=10_000,
            smoothed=SmoothedApConfig(k=1.0, log_space=False),
        )
        _, gd_trace = train(init, data, gd_cfg)
        assert min(gd_trace.ap_loss) > 0.0
        assert gd_trace.ap_loss[-1] == pytest.approx(1 / 6, abs=0)

        ed_cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=1.0,
            max_iters=500,
            grad_opts=GradOptions(normalize_by_positives=False),
        )
        _, ed_trace = train(init, data, ed_cfg)
        assert ed_trace.final_joint_ap_loss == 0.0

    def test_partial_derivative_ordering_at_init(self):
        # At (10, 5) the smoothed loss decreases in both coordinates and
        # more steeply in the first, so descent drags the weights deeper
        # into the non-separating region.
        data = gd_failure_dataset()
        batch = score_dataset(LinearModel(np.array(GD_FAILURE_INIT)), data)
        _, g_scores = smoothed_ap_loss_and_grad(batch, SmoothedApConfig(k=1.0))
        g_theta = data.features.T @ g_scores
        assert g_theta[0] < g_theta[1] < 0.0


class TestInseparableStep:
    def test_no_update_when_all_pairs_clear_margin(self):
        data = RankingDataset(np.eye(2), np.array([1, 0]))
        cfg = TrainConfig(
            loss_kind="inseparable_ap", step_cfg=StepConfig.piecewise(1.0), step_size=1.0
        )
        model = LinearModel(np.array([2.0, -2.0]))  # gap 4 > delta
        np.testing.assert_array_equal(inseparable_step(model, data, cfg).theta, model.theta)

    def test_tied_pair_quarter_update(self):
        # Ramp numerator at zero is 0.5, hard-rank denominator is 2, so
        # the term is 0.25 and orthonormal features receive +/-0.25.
        data = RankingDataset(np.eye(2), np.array([1, 0]))
        cfg = TrainConfig(
            loss_kind="inseparable_ap", step_cfg=StepConfig.piecewise(1.0), step_size=1.0
        )
        new = inseparable_step(LinearModel(np.zeros(2)), data, cfg)
        np.testing.assert_allclose(new.theta, [0.25, -0.25], rtol=1e-12)

    def test_default_loss_kind_steps_by_delta_over_r_squared(self):
        # On this overlapping instance delta / R^2 is about 5.1e-4, far from 1.0.
        data = generate(SynthConfig(dim=5, positives=5, negatives=40, margin=-0.5, seed=0))
        model = LinearModel(np.linspace(-1, 1, 5))
        ramp = StepConfig.piecewise(1.0)
        new = inseparable_step(model, data, TrainConfig(step_cfg=ramp))
        same = inseparable_step(model, data, TrainConfig(loss_kind="inseparable_ap", step_cfg=ramp))
        np.testing.assert_array_equal(new.theta, same.theta)
        pos, neg = partition(data)
        _, grad = trainer_module._inseparable_grad(data.features @ model.theta, pos, neg, 1.0)
        eta = 1.0 / jacobian_norm_bound(data) ** 2
        np.testing.assert_allclose(
            new.theta, model.theta - eta * (data.features.T @ grad), rtol=1e-12
        )

    def test_heaviside_config_is_refused(self):
        data = RankingDataset(np.eye(2), np.array([1, 0]))
        with pytest.raises(ValueError, match="piecewise"):
            inseparable_step(LinearModel(np.zeros(2)), data, TrainConfig(step_size=1.0))

    def test_matches_error_driven_outside_transition_band(self):
        # When every pairwise difference clears the ramp band the soft and
        # hard numerators agree, so the updates coincide.
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((6, 3))
        labels = np.array([1, 1, 0, 0, 0, 0])
        data = RankingDataset(feats, labels)
        theta = rng.standard_normal(3)
        diffs = []
        scores = feats @ theta
        for i in np.flatnonzero(labels == 1):
            for j in np.flatnonzero(labels == 0):
                diffs.append(abs(scores[j] - scores[i]))
        theta = theta * (1.5 / min(diffs))  # push every pair beyond delta=1
        scores = feats @ theta
        ins_cfg = TrainConfig(
            loss_kind="inseparable_ap", step_cfg=StepConfig.piecewise(1.0), step_size=0.5
        )
        ed_cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_cfg=StepConfig.heaviside(),
            step_size=0.5,
            grad_opts=GradOptions(normalize_by_positives=True),
        )
        a = inseparable_step(LinearModel(theta), data, ins_cfg)
        b = error_driven_step(LinearModel(theta), data, ed_cfg)
        np.testing.assert_allclose(a.theta, b.theta, rtol=1e-12)


class TestSurrogateLoss:
    def test_zero_beyond_margin(self):
        data = RankingDataset(np.eye(2), np.array([1, 0]))
        u = np.array([3.0, -3.0])  # gap 6 > delta
        assert surrogate_loss(u, data, u, 1.0) == 0.0

    def test_tied_pair_closed_form(self):
        # Ramp integral at zero is delta/4 and the hard rank is 2.
        data = RankingDataset(np.eye(2), np.array([1, 0]))
        u = np.zeros(2)
        for delta in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(
                surrogate_loss(u, data, u, delta), delta / 8.0, rtol=1e-12
            )

    def test_dominates_scaled_exact_loss(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            data = generate(
                SynthConfig(
                    dim=dim,
                    positives=int(rng.integers(1, 6)),
                    negatives=int(rng.integers(1, 20)),
                    margin=-0.3,
                    seed=int(rng.integers(0, 1000)),
                )
            )
            theta = rng.standard_normal(dim)
            delta = 1.0
            exact = ap_loss(SampleBatch(data.features @ theta, data.labels))
            assert surrogate_loss(theta, data, theta, delta) >= (delta / 4.0) * exact - 1e-12

    def test_dimension_mismatch(self):
        data = gd_failure_dataset()
        with pytest.raises(ValueError):
            surrogate_loss(np.zeros(3), data, np.zeros(2), 1.0)

    def test_two_argument_form_hand_case(self):
        # Identity features: one positive (row 0), two negatives.  The
        # numerator integrates comparator differences, the denominator
        # counts hard ranks at the trajectory point.
        data = RankingDataset(np.eye(3), np.array([1, 0, 0]))
        u = np.array([0.0, 0.5, -2.0])
        # Q(0.5) = (1.5)^2/4 = 0.5625, Q(-2) = 0 at delta = 1.
        theta_hat = np.array([0.0, 1.0, -1.0])  # one negative outranks: denom 2
        np.testing.assert_allclose(
            surrogate_loss(u, data, theta_hat, 1.0), 0.5625 / 2.0, rtol=1e-12
        )
        theta_hat = np.array([5.0, 0.0, 0.0])  # clean ranking: denom 1
        np.testing.assert_allclose(
            surrogate_loss(u, data, theta_hat, 1.0), 0.5625, rtol=1e-12
        )


class TestRegretBound:
    @staticmethod
    def _run(seed=0, iters=80, delta=1.0):
        data = generate(
            SynthConfig(dim=6, positives=8, negatives=40, margin=-0.5, noise_sigma=1.0, seed=seed)
        )
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(delta),
            max_iters=iters,
            stop_at_zero_loss=False,
            record_weights=True,
        )
        _, trace = train(LinearModel(np.zeros(6)), data, cfg)
        return data, trace

    def test_initial_weights_as_comparator(self):
        data, trace = self._run()
        report = verify_regret_bound(trace, data, np.zeros(6), 1.0)
        assert report.satisfied
        assert report.T == trace.iterations
        assert report.accumulated_ap_loss == pytest.approx(sum(trace.ap_loss))

    def test_separating_comparator_on_separable_data(self):
        data = generate(SynthConfig(dim=6, positives=8, negatives=40, margin=0.2, seed=1))
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(1.0),
            max_iters=60,
            stop_at_zero_loss=False,
            record_weights=True,
        )
        _, trace = train(LinearModel(np.zeros(6)), data, cfg)
        # Scale the certifying separator until every pairwise gap exceeds
        # the ramp width; its surrogate vanishes at every step.
        u = data.separator * (1.5 / data.margin)
        report = verify_regret_bound(trace, data, u, 1.0)
        assert report.surrogate_sum_at_u == 0.0
        assert report.satisfied
        assert report.accumulated_ap_loss <= report.bound_value

    def test_random_comparators_all_satisfied(self):
        data, trace = self._run(seed=2)
        rng = np.random.default_rng(6)
        for scale in (0.1, 1.0, 10.0):
            for _ in range(5):
                report = verify_regret_bound(trace, data, rng.standard_normal(6) * scale, 1.0)
                assert report.satisfied
                assert report.offline_satisfied  # single update batch
                assert report.Z_u is not None and report.Z_u >= 0.0

    def test_step_size_mismatch_rejected(self):
        data, trace = self._run(seed=3)
        trace.step_size *= 2.0
        with pytest.raises(ValueError, match="step size"):
            verify_regret_bound(trace, data, np.zeros(6), 1.0)

    def test_delta_mismatch_rejected(self):
        # Trained with delta 1 at step size 2/R^2, which is exactly delta/R^2
        # for delta 2: only the delta check can tell the runs apart.
        data = generate(SynthConfig(dim=6, positives=8, negatives=40, margin=-0.5, seed=0))
        r_bound = jacobian_norm_bound(data)
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(1.0),
            step_size=2.0 / r_bound**2,
            max_iters=30,
            stop_at_zero_loss=False,
            record_weights=True,
        )
        _, trace = train(LinearModel(np.zeros(6)), data, cfg)
        with pytest.raises(ValueError, match="delta 2.0 does not match"):
            verify_regret_bound(trace, data, np.zeros(6), 2.0, R=r_bound)
        with pytest.raises(ValueError, match="step size"):
            verify_regret_bound(trace, data, np.zeros(6), 1.0, R=r_bound)

    def test_zero_iteration_trace_rejected(self):
        # Per-group training from a separating start records no iteration.
        data = generate(SynthConfig(dim=4, positives=6, negatives=20, groups=2, margin=0.2, seed=3))
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(1.0),
            record_weights=True,
            update_scope="per_group",
        )
        _, trace = train(LinearModel(data.separator), data, cfg)
        assert trace.iterations == 0
        with pytest.raises(ValueError, match="no iterations"):
            verify_regret_bound(trace, data, np.zeros(4), 1.0)

    def test_zero_jacobian_bound_rejected(self):
        # No positive-negative pair: R is 0, so delta/R^2 is undefined.
        data = RankingDataset(np.random.default_rng(0).standard_normal((6, 3)), np.zeros(6))
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(1.0),
            step_size=0.1,
            max_iters=3,
            stop_at_zero_loss=False,
            record_weights=True,
        )
        _, trace = train(LinearModel(np.zeros(3)), data, cfg)
        assert jacobian_norm_bound(data) == 0.0
        with pytest.raises(ValueError, match="R must be positive"):
            verify_regret_bound(trace, data, np.zeros(3), 1.0)

    def test_requires_weight_snapshots(self):
        data = generate(SynthConfig(dim=4, positives=3, negatives=10, margin=-0.5, seed=4))
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(1.0),
            max_iters=10,
            stop_at_zero_loss=False,
        )
        _, trace = train(LinearModel(np.zeros(4)), data, cfg)
        with pytest.raises(ValueError, match="snapshot"):
            verify_regret_bound(trace, data, np.zeros(4), 1.0)

    def test_jacobian_bound_matches_dense_frobenius(self):
        data = generate(SynthConfig(dim=5, positives=4, negatives=9, margin=0.1, seed=5))
        fpos = data.features[data.labels == 1]
        fneg = data.features[data.labels == 0]
        stacked = np.array([fi - fj for fi in fpos for fj in fneg])
        np.testing.assert_allclose(
            jacobian_norm_bound(data), np.linalg.norm(stacked), rtol=1e-12
        )

    def test_online_per_group_runs_satisfy_bound(self):
        # Online setting: each step updates on one erring group; the bound
        # replays each step's surrogate on the group actually used.
        data = generate(
            SynthConfig(
                dim=6, positives=12, negatives=48, groups=4, margin=-0.5, noise_sigma=1.0, seed=9
            )
        )
        cfg = TrainConfig(
            loss_kind="inseparable_ap",
            step_cfg=StepConfig.piecewise(1.0),
            max_iters=80,
            stop_at_zero_loss=False,
            record_weights=True,
            update_scope="per_group",
            seed=1,
        )
        _, trace = train(LinearModel(np.zeros(6)), data, cfg)
        assert len(set(trace.group_id)) > 1  # several groups actually chosen
        rng = np.random.default_rng(10)
        for scale in (0.1, 1.0, 10.0):
            report = verify_regret_bound(trace, data, rng.standard_normal(6) * scale, 1.0)
            assert report.satisfied
            assert report.offline_satisfied is None  # varying groups: no offline refinement


class TestScoreShift:
    def test_per_group_training_leaves_joint_loss_behind(self):
        # Groups carry offsets along a direction the separator cannot see.
        # Training one group at a time fixes every within-group ranking but
        # never removes the offset direction from the weights, so the
        # jointly-ranked batch stays broken; aggregated training fixes it.
        synth = SynthConfig(
            dim=10,
            positives=12,
            negatives=60,
            groups=3,
            margin=0.2,
            noise_sigma=1.0,
            seed=11,
            score_shift=4.0,
        )
        data = generate(synth)
        mean0 = data.features[data.group_ids == 0].mean(axis=0)
        mean1 = data.features[data.group_ids == 1].mean(axis=0)
        shift_dir = (mean1 - mean0) / synth.score_shift
        init = LinearModel(10.0 * shift_dir)

        per_group_cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=1.0,
            max_iters=3000,
            update_scope="per_group",
            grad_opts=GradOptions(normalize_by_positives=False),
            seed=0,
        )
        model_pg, _ = train(init, data, per_group_cfg)
        batch = score_dataset(model_pg, data)
        group_losses = [
            ap_loss(batch.subset(data.group_rows(g))) for g in data.groups()
        ]
        joint = ap_loss(batch)
        assert all(v == 0.0 for v in group_losses)
        assert joint > np.mean(group_losses)

        joint_cfg = TrainConfig(
            loss_kind="error_driven_ap",
            step_size=1.0,
            max_iters=3000,
            grad_opts=GradOptions(normalize_by_positives=False),
        )
        _, joint_trace = train(init, data, joint_cfg)
        assert joint_trace.final_joint_ap_loss == 0.0


class TestConfigValidation:
    def test_unknown_loss_kind(self):
        with pytest.raises(ValueError, match="loss kind"):
            TrainConfig(loss_kind="nope")

    def test_inseparable_requires_ramp(self):
        with pytest.raises(ValueError, match="piecewise"):
            TrainConfig(loss_kind="inseparable_ap", step_cfg=StepConfig.heaviside())

    def test_nonpositive_step_size(self):
        with pytest.raises(ValueError, match="step_size"):
            TrainConfig(step_size=0.0)


class TestRunawayTraining:
    @pytest.mark.parametrize("max_iters", [50, 1])
    def test_non_finite_scores_raise_with_iteration(self, max_iters):
        # A huge step overflows the scores after the first update; the
        # run must not pass the NaN losses off as a finished trace, nor
        # report a final loss from overflowed scores (max_iters=1).
        cfg = TrainConfig(step_size=1e308, max_iters=max_iters)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite at iteration 2"):
                train(LinearModel(np.zeros(20)), generate(SynthConfig()), cfg)


class TestUpdateRules:
    def test_loss_kinds_are_the_table_keys(self):
        assert LOSS_KINDS == tuple(_UPDATE_RULES)
        assert LOSS_KINDS == ("error_driven_ap", "smoothed_ap_gd", "auc", "inseparable_ap")

    def test_rules_equal_public_counterparts_bitwise(self):
        rng = np.random.default_rng(5)
        steps = (StepConfig.heaviside(), StepConfig.piecewise(0.5), StepConfig.sigmoid(0.5))
        for b in range(60):
            scores, labels = random_batch_arrays(rng)
            batch = SampleBatch(scores, labels)
            pos, neg = partition(batch)
            step = steps[b % len(steps)]
            opts = GradOptions(interpolated=b % 2 == 0, normalize_by_positives=b % 4 < 2)
            smoothed = SmoothedApConfig(k=0.25 + 0.25 * (b % 3), log_space=b % 2 == 1)
            cfg = TrainConfig(step_cfg=step, grad_opts=opts, smoothed=smoothed)

            def rule(kind):
                return _UPDATE_RULES[kind](batch.scores, pos, neg, cfg)

            res = grad_accelerated(batch, step, opts)
            surrogate, grad, pruned = rule("error_driven_ap")
            assert (surrogate, pruned) == (res.loss, res.pruned_negatives)
            np.testing.assert_array_equal(grad, res.grad)

            value, expected = smoothed_ap_loss_and_grad(batch, smoothed)
            surrogate, grad, pruned = rule("smoothed_ap_gd")
            assert (surrogate, pruned) == (value, 0)
            np.testing.assert_array_equal(grad, expected)

            value, expected = auc_grad(batch, step)
            surrogate, grad, pruned = rule("auc")
            assert (surrogate, pruned) == (value, 0)
            np.testing.assert_array_equal(grad, expected)
