import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import ranklosslab
from ranklosslab.cli import load_spec, main
from ranklosslab.experiments import TRACE_HEADER, default_sweep_spec

CONFIG = """
synth:
  dim: 5
  positives: 5
  negatives: 40
  margin: 0.2
  noise_sigma: 1.0
  seed: 0
train:
  error_driven_ap:
    step_size: 1.0
    max_iters: 200
    step: {kind: piecewise, delta: 1.0}
    normalize_by_positives: false
run:
  repetitions: 1
"""

# Three groups shifted 1e9 apart: the separating gap rounds below the
# margin, and the generator's certificate fails inside every run.
SCORE_SHIFT = "  seed: 0\n  groups: 3\n  score_shift: 1000000000"


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_config_is_io_error(self, capsys):
        rc = main(["train", "--config", "/no/such/config.yaml"])
        assert rc == 2
        assert "/no/such/config.yaml" in capsys.readouterr().err

    def test_bad_format_rejected(self, capsys):
        assert main(["gradcheck", "--format", "xml"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--config", "x.yaml"],
            ["counterexample", "--config", "x.yaml"],
            ["bounds", "--config", "x.yaml"],
            ["gradcheck", "--out", "runs"],
            ["train", "--format", "csv"],
            ["counterexample", "--seed", "1"],
        ],
    )
    def test_options_a_subcommand_does_not_read_are_rejected(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def _with_value(key: str, value) -> str:
    """CONFIG with the dotted ``key`` set to ``value``, as YAML text."""
    raw = yaml.safe_load(CONFIG)
    *path, last = key.split(".")
    node = raw
    for part in path:
        node = node.setdefault(part, {})
    node[last] = value
    return yaml.safe_dump(raw)


BAD_VALUES = [
    ("train.error_driven_ap.interpolated", "false"),
    ("train.error_driven_ap.stop_at_zero_loss", "no"),
    ("train.error_driven_ap.max_iters", 2.9),
    ("train.error_driven_ap.step_size", True),
    ("run.negatives_grid", 500),
    ("train.error_driven_ap.step.delta", "x"),
    ("synth.dim", "abc"),
    ("synth.dim", 2.5),
]


class TestConfigValues:
    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_mistyped_value_names_its_key(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(_with_value(key, value))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("ranklosslab: ")
        assert key in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,ok",
        [("1e-3", False), ("1.0e8", False), ("1e+8", False), ("1.0e-3", True), ("1.0e+8", True)],
    )
    def test_yaml_exponents_need_a_point_and_a_sign(self, text, ok, tmp_path):
        # PyYAML reads an exponent without both as a string; the README says so.
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG.replace("step_size: 1.0", f"step_size: {text}"))
        if ok:
            assert load_spec(cfg, None, None).train["error_driven_ap"].step_size == float(text)
        else:
            with pytest.raises(ValueError, match="step_size must be a number"):
                load_spec(cfg, None, None)

    def test_readme_example_is_the_default_sweep(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        spec = load_spec(cfg, None, None)
        assert replace(spec, output_path="runs") == default_sweep_spec()

    def test_entry_point_reports_bad_value_without_traceback(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(_with_value("synth.dim", "abc"))
        env = {**os.environ, "PYTHONPATH": str(Path(ranklosslab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "ranklosslab.cli", "train", "--config", str(cfg)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "synth.dim" in proc.stderr


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--batches", "40"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck ok" in out

    def test_negative_batch_count_fails(self, capsys):
        assert main(["gradcheck", "--batches", "-3"]) == 1
        captured = capsys.readouterr()
        assert "gradcheck ok" not in captured.out
        assert "batches must be at least 1" in captured.err


class TestTrainCommand:
    def test_with_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG)
        out_dir = tmp_path / "out"
        rc = main(["train", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "results.csv").exists()
        assert "final_ap_loss=0" in capsys.readouterr().out

    def test_diverging_arm_keeps_the_finished_arms(self, tmp_path, capsys):
        arms = """
synth: {dim: 5, positives: 5, negatives: 40, margin: 0.2, noise_sigma: 1.0, seed: 0}
train:
  auc: {max_iters: 50}
"""
        (tmp_path / "auc.yaml").write_text(arms)
        (tmp_path / "both.yaml").write_text(
            arms + "  error_driven_ap: {step_size: 1.0e+308, max_iters: 50}\n"
        )

        def run(config, out):
            return main(["train", "--config", str(tmp_path / config), "--out", str(tmp_path / out)])

        assert run("auc.yaml", "a") == 0
        capsys.readouterr()
        assert run("both.yaml", "b") == 1
        assert "error_driven_ap training diverged" in capsys.readouterr().err
        # results.csv holds only the finished arm's row, byte for byte.
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
            "results.csv", "trace_auc_n40_r0.csv"
        ]
        for name in ("results.csv", "trace_auc_n40_r0.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize("field", ["positives", "negatives"])
    def test_dataset_with_nothing_to_rank_rejected(self, field, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG.replace(f"  {field}: ", f"  {field}: 0 #"))
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert f"{field} must be at least 1, got 0" in captured.err
        assert "final_ap_loss" not in captured.out
        assert not out_dir.exists()

    def test_failed_separability_certificate_is_reported(self, tmp_path, capsys):
        # A shift of 1e9 per group rounds the separating gap below the margin.
        # The run's only task fails, so nothing is written.
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG.replace("  seed: 0", SCORE_SHIFT))
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "ranklosslab: separability certificate failed: gap" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG + "\nextra_section: {}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_synth_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text("synth: {dim: 3, nope: 1}\ntrain: {error_driven_ap: {}}\n")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "nope" in err and "synth" in err


class TestSweepCommand:
    def test_small_grid_via_config(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG + "\n")
        out_dir = tmp_path / "out"
        # Config without a grid still sweeps the built-in default when the
        # sweep command is used; keep it tiny by injecting a grid.
        cfg.write_text(CONFIG.replace("repetitions: 1", "repetitions: 1\n  negatives_grid: [20, 40]"))
        rc = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two grid points

    def test_run_whose_every_task_fails_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            CONFIG.replace("  seed: 0", SCORE_SHIFT)
            .replace("repetitions: 1", "repetitions: 1\n  negatives_grid: [20, 40]")
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert "ranklosslab: separability certificate failed: gap" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(CONFIG.replace("repetitions: 1", "repetitions: 1\n  negatives_grid: []"))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert "negatives_grid" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "grid, positives, message",
        [("[20, 40, 40]", 5, "negatives_grid repeats 40"),
         ("[0, 40]", 5, "negatives_grid entry must be at least 1, got 0"),
         ("[20, 40]", 0, "positives must be at least 1, got 0")],
        ids=["repeated", "no_negatives", "no_positives"],
    )
    def test_grid_point_that_is_not_one_ranking_run_rejected(
        self, grid, positives, message, tmp_path, capsys
    ):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            CONFIG.replace("positives: 5", f"positives: {positives}")
            .replace("repetitions: 1", f"repetitions: 1\n  negatives_grid: {grid}")
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out_dir.exists()


class TestCounterexampleCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["counterexample", "--out", str(out_a), "--gd-iters", "500"]) == 0
        assert main(["counterexample", "--out", str(out_b), "--gd-iters", "500"]) == 0
        for name in ("trace_error_driven_ap.csv", "trace_smoothed_ap_gd.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            assert (out_a / name).read_text().splitlines()[0] == ",".join(TRACE_HEADER)
        out = capsys.readouterr().out
        assert "final exact ap_loss=0 " in out


class TestBoundsCommand:
    def test_quick_run(self, tmp_path, capsys):
        rc = main(["bounds", "--runs", "1", "--u-count", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out
        assert (tmp_path / "bounds.csv").exists()

    @pytest.mark.parametrize("option,name", [("--runs", "runs"), ("--u-count", "u_per_run")])
    def test_zero_count_fails_without_writing(self, option, name, tmp_path, capsys):
        assert main(["bounds", option, "0", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "comparators" not in captured.out
        assert f"{name} must be at least 1" in captured.err
        assert not (tmp_path / "bounds.csv").exists()


class TestBenchCommand:
    def test_quick_run_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.yaml"
        cfg.write_text(
            """
synth: {dim: 6, positives: 8, negatives: 1500, margin: 0.5, noise_sigma: 1.0, seed: 0}
train:
  error_driven_ap:
    step_size: 2.0
    max_iters: 25
    step: {kind: piecewise, delta: 1.0}
    stop_at_zero_loss: false
run:
  negatives_grid: [400, 800]
"""
        )
        out_dir = tmp_path / "out"
        rc = main(["bench", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "bench_timeline.csv").exists()
        assert (out_dir / "bench_scaling.csv").exists()
        assert "median pruned-path time" in capsys.readouterr().out

    def test_dataset_with_nothing_to_rank(self, tmp_path, capsys):
        cfg = tmp_path / "bench.yaml"
        cfg.write_text(
            "synth: {dim: 4, positives: 0, negatives: 50}\n"
            "train: {error_driven_ap: {max_iters: 5, step: {kind: piecewise}}}\n"
        )
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "nan" not in captured.out
        assert "bench: 0 iterations, nothing to rank" in captured.out

    def test_config_settings_the_bench_would_ignore_are_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bench.yaml"
        cfg.write_text(
            """
synth: {dim: 4, positives: 6, negatives: 60, groups: 3}
train:
  error_driven_ap: {max_iters: 5, update_scope: per_group}
  smoothed_ap_gd: {max_iters: 5}
run: {repetitions: 3}
"""
        )
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ranklosslab: the pruning bench")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("arm", ["inseparable_ap", "smoothed_ap_gd"])
    def test_config_without_error_driven_arm_is_rejected(self, arm, tmp_path, capsys):
        cfg = tmp_path / "bench.yaml"
        cfg.write_text(
            f"synth: {{dim: 3, positives: 4, negatives: 20}}\n"
            f"train: {{{arm}: {{step: {{kind: piecewise}}}}}}\n"
        )
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error_driven_ap" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
