import os
from dataclasses import replace

import numpy as np
import pytest

from ranklosslab import (
    ExperimentSpec,
    GradOptions,
    LinearModel,
    StepConfig,
    SynthConfig,
    TrainConfig,
    bench_acceleration,
    generate,
    run_bounds,
    run_counterexample,
    run_experiment,
    run_gradcheck,
    surrogate_domination_slack,
    thread_count,
    train,
)
from ranklosslab import experiments
from ranklosslab.experiments import (
    RESULT_HEADER,
    TRACE_HEADER,
    child_seed,
    default_bench_spec,
    default_sweep_spec,
    write_csv,
)


def small_spec(out, reps=1, grid=None, timing=False):
    return ExperimentSpec(
        synth=SynthConfig(dim=5, positives=5, negatives=40, margin=0.2, noise_sigma=1.0, seed=0),
        train={
            "error_driven_ap": TrainConfig(
                loss_kind="error_driven_ap",
                step_size=1.0,
                max_iters=300,
                step_cfg=StepConfig.piecewise(1.0),
                grad_opts=GradOptions(normalize_by_positives=False),
            )
        },
        repetitions=reps,
        output_path=out,
        negatives_grid=grid,
        timing=timing,
    )


class TestRunExperiment:
    def test_rows_and_files(self, tmp_path):
        res = run_experiment(small_spec(tmp_path, reps=2, grid=(20, 40)))
        assert len(res.rows) == 4
        assert (tmp_path / "results.csv").exists()
        content = (tmp_path / "results.csv").read_text().splitlines()
        assert content[0] == ",".join(RESULT_HEADER)
        assert len(content) == 5
        trace_file = tmp_path / "trace_error_driven_ap_n20_r0.csv"
        assert trace_file.exists()
        assert trace_file.read_text().splitlines()[0] == ",".join(TRACE_HEADER)

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(small_spec(a, reps=2, grid=(20, 40)))
        run_experiment(small_spec(b, reps=2, grid=(20, 40)))
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_parallel_equals_sequential(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("RANKLOSSLAB_THREADS", "1")
        run_experiment(small_spec(a, reps=3))
        monkeypatch.setenv("RANKLOSSLAB_THREADS", "3")
        run_experiment(small_spec(b, reps=3))
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_single_task_run_reads_the_worker_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANKLOSSLAB_THREADS", "zero")
        with pytest.raises(ValueError, match="RANKLOSSLAB_THREADS"):
            run_experiment(small_spec(tmp_path), write=False)

    def test_wall_columns_zero_without_timing(self, tmp_path):
        res = run_experiment(small_spec(tmp_path), write=False)
        assert all(row[-1] == 0 for row in res.rows)

    def test_timing_fills_wall_columns(self, tmp_path):
        res = run_experiment(small_spec(tmp_path, timing=True), write=False)
        assert all(row[-1] > 0 for row in res.rows)

    def test_repetitions_validated(self, tmp_path):
        with pytest.raises(ValueError):
            small_spec(tmp_path, reps=0)

    def test_empty_negatives_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="negatives_grid"):
            small_spec(tmp_path, grid=())

    def test_repeated_negatives_grid_entry_rejected(self, tmp_path):
        # Tasks are keyed by (loss, negatives, rep): a repeated count would
        # train twice and keep one row and one trace.
        with pytest.raises(ValueError, match="negatives_grid repeats 40"):
            small_spec(tmp_path, grid=(20, 40, 40))

    @pytest.mark.parametrize("grid", [(0, 40), (40, -3)])
    def test_negatives_grid_entry_without_negatives_rejected(self, tmp_path, grid):
        # A batch with nothing to rank would report a perfect ranking.
        with pytest.raises(ValueError, match="negatives_grid entry must be at least 1"):
            small_spec(tmp_path, grid=grid)

    @pytest.mark.parametrize(
        "field, grid", [("positives", None), ("positives", (20, 40)), ("negatives", None)]
    )
    def test_run_needs_a_positive_and_a_negative(self, tmp_path, field, grid):
        # A batch with nothing to rank would report a perfect ranking.
        spec = small_spec(tmp_path, grid=grid)
        spec = replace(spec, synth=replace(spec.synth, **{field: 0}))
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            run_experiment(spec)
        assert list(tmp_path.iterdir()) == []

    def test_train_key_must_be_its_loss_kind(self, tmp_path):
        # Output files are named by the key, so a mismatch would write the
        # error-driven run as an "auc" row and trace.
        cfg = TrainConfig(loss_kind="error_driven_ap")
        with pytest.raises(ValueError, match="'auc'.*'error_driven_ap'"):
            replace(small_spec(tmp_path), train={"auc": cfg})


class TestThreadCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RANKLOSSLAB_THREADS", "2")
        assert thread_count() == 2

    def test_default_is_hardware(self, monkeypatch):
        monkeypatch.delenv("RANKLOSSLAB_THREADS", raising=False)
        assert thread_count() == (os.cpu_count() or 1)

    def test_invalid_values(self, monkeypatch):
        monkeypatch.setenv("RANKLOSSLAB_THREADS", "zero")
        with pytest.raises(ValueError):
            thread_count()
        monkeypatch.setenv("RANKLOSSLAB_THREADS", "0")
        with pytest.raises(ValueError):
            thread_count()


class TestChildSeed:
    def test_deterministic_and_distinct(self):
        assert child_seed(1, 2) == child_seed(1, 2)
        assert child_seed(1, 2) != child_seed(1, 3)
        assert child_seed(1, 2) != child_seed(2, 2)


class TestGradcheck:
    def test_quick_run_passes(self):
        report = run_gradcheck(batches=80, seed=123)
        assert report.passed
        assert report.worst_rel_error < 1e-9

    def test_nan_gradient_entries_fail(self, monkeypatch):
        # A NaN against a finite oracle entry is an unbounded error, not agreement.
        accelerated = experiments.grad_accelerated

        def poisoned(*args, **kwargs):
            res = accelerated(*args, **kwargs)
            res.grad[0] = np.nan
            return res

        monkeypatch.setattr(experiments, "grad_accelerated", poisoned)
        report = run_gradcheck(batches=20)
        assert not report.passed
        assert report.failures == 20
        assert report.worst_rel_error == np.inf


    @pytest.mark.parametrize("rtol", [np.nan, np.inf, -1e-9], ids=["nan", "inf", "negative"])
    def test_a_tolerance_that_cannot_fail_is_refused(self, monkeypatch, rtol):
        # Every accelerated gradient off by 1 passes any NaN or infinite
        # rtol: no error compares above either.
        accelerated = experiments.grad_accelerated

        def shifted(*args, **kwargs):
            res = accelerated(*args, **kwargs)
            res.grad[...] += 1.0
            return res

        monkeypatch.setattr(experiments, "grad_accelerated", shifted)
        assert not run_gradcheck(batches=5).passed
        with pytest.raises(ValueError, match="^rtol must be finite and not negative"):
            run_gradcheck(batches=5, rtol=rtol)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            (dict(max_n=1), "max_n must be at least 2"),
            (dict(max_pos=0), "max_pos must be at least 1"),
        ],
        ids=["max_n", "max_pos"],
    )
    def test_sizes_it_cannot_draw_are_named(self, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}, got"):
            run_gradcheck(batches=1, **sizes)


class TestCounterexample:
    def test_traces_and_files(self, tmp_path):
        traces = run_counterexample(out_dir=tmp_path, gd_iters=2000)
        assert traces["error_driven_ap"].ap_loss[-1] == 0.0
        assert traces["smoothed_ap_gd"].ap_loss[-1] == pytest.approx(1 / 6, abs=0)
        for kind in traces:
            path = tmp_path / f"trace_{kind}.csv"
            assert path.exists()
            assert path.read_text().splitlines()[0] == ",".join(TRACE_HEADER)


class TestBounds:
    def test_small_run_all_satisfied(self, tmp_path):
        rows = run_bounds(runs=2, u_per_run=6, iters=50, out_dir=tmp_path)
        assert len(rows) == 12
        assert all(row[-1] == 1 for row in rows)
        assert (tmp_path / "bounds.csv").exists()

    def test_domination_slack_nonnegative(self):
        assert surrogate_domination_slack(instances=40, seed=5) >= 0.0


class TestCountsBelowOne:
    # A count below 1 would run nothing and look like success.
    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda out: run_gradcheck(batches=-3), "batches"),
            (lambda out: run_gradcheck(batches=0), "batches"),
            (lambda out: run_bounds(runs=0, out_dir=out), "runs"),
            (lambda out: run_bounds(u_per_run=0, out_dir=out), "u_per_run"),
            (lambda out: surrogate_domination_slack(instances=0), "instances"),
        ],
        ids=["gradcheck-negative", "gradcheck-zero", "runs", "u_per_run", "instances"],
    )
    def test_raises_naming_the_argument_before_any_work(self, call, name, tmp_path):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            call(tmp_path)
        assert not any(tmp_path.iterdir())


class TestBench:
    def test_structure_and_pruning_soundness(self, tmp_path):
        spec = replace(
            default_bench_spec(seed=0, out=tmp_path, iters=30),
            synth=SynthConfig(
                dim=10, positives=10, negatives=2000, margin=0.5, noise_sigma=1.0, seed=0
            ),
            negatives_grid=(500, 1000, 2000),
        )
        result = bench_acceleration(spec)
        assert len(result.timeline) == 30
        assert len(result.scaling) == 3
        assert max(r[4] for r in result.timeline) <= 1e-12  # grad diff
        assert max(r[5] for r in result.timeline) <= 1e-12  # loss diff
        assert (tmp_path / "bench_timeline.csv").exists()
        assert (tmp_path / "bench_scaling.csv").exists()

    def test_times_the_trajectory_train_takes(self):
        spec = replace(
            default_bench_spec(seed=0, iters=40),
            synth=SynthConfig(dim=6, positives=8, negatives=1500, margin=0.5, seed=0),
        )
        result = bench_acceleration(spec, write=False)
        cfg = replace(spec.train["error_driven_ap"], stop_at_zero_loss=False)
        _, trace = train(LinearModel(np.zeros(6)), generate(spec.synth), cfg)
        assert [row[3] for row in result.timeline] == trace.pruned_neg
        assert len(set(trace.pruned_neg)) > 2  # the trajectory moves the pruned count

    def test_empty_dataset_yields_empty_tables(self, tmp_path):
        spec = replace(
            default_bench_spec(seed=0, out=tmp_path),
            synth=SynthConfig(dim=4, positives=0, negatives=50, margin=0.1, seed=0),
        )
        result = bench_acceleration(spec)
        assert result.timeline == [] and result.scaling == []
        assert (tmp_path / "bench_timeline.csv").read_text().splitlines() == [
            "iter,wall_pruned_ns,wall_full_ns,pruned_neg,grad_max_diff,loss_diff"
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s, c: replace(s, train={c.loss_kind: replace(c, update_scope="per_group")}),
             "update_scope"),
            (lambda s, c: replace(s, repetitions=3), "repetitions"),
            (lambda s, c: replace(s, train={**s.train, "auc": TrainConfig(loss_kind="auc")}),
             "times only"),
        ],
        ids=["per_group", "repetitions", "extra_arm"],
    )
    def test_settings_the_bench_would_ignore_are_rejected(self, edit, message, tmp_path):
        spec = default_bench_spec(seed=0, out=tmp_path / "out", iters=3)
        with pytest.raises(ValueError, match=message):
            bench_acceleration(edit(spec, spec.train["error_driven_ap"]))
        assert not (tmp_path / "out").exists()


class TestWriteCsv:
    def test_float_formatting_roundtrips(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b"), [(1 / 3, np.float64(0.1)), (2, True)])
        lines = path.read_text().splitlines()
        assert lines[1] == "0.3333333333333333,0.1"
        assert lines[2] == "2,1"

    def test_io_error_names_path(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(OSError, match=str(target)):
            write_csv(target, ("a",), [(1,)])


class TestDefaultSpecs:
    def test_sweep_spec_shape(self):
        spec = default_sweep_spec(seed=3)
        assert spec.negatives_grid == (500, 5000, 50000)
        assert set(spec.train) == {"error_driven_ap", "smoothed_ap_gd"}
        assert spec.synth.seed == 3
