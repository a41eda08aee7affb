"""Reduced-size smoke test of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q benches/test_smoke.py

Every workload runs at toy sizes for a fraction of a second, untraced and
traced.  The test checks that each metric named in ``BENCHMARK.json`` is
emitted with its unit, that the correctness checks pass, that the spans
written by the traced run are well formed, and that the benchmark refuses
to run without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

os.environ.update(run.PINNED_ENV)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_the_workloads_and_units_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER_UNITS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric_and_passes_its_checks(name, trace):
    result, lines = run.run_benchmark(name, seed=3, seconds=0.2, trace=trace, small=True)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = result["metrics"]
    assert sorted(emitted) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(emitted[metric["name"]]["value"], float)
    if not trace:
        assert all(emitted[m]["value"] > 0 for m in emitted)
        return
    for check in ("spans_well_formed", "spans_cover_traced_time", "traced_counts_repeat"):
        assert any(line.startswith(f"check {check}: ok") for line in lines)
    spans = [json.loads(s) for s in
             (ROOT / ".bench_work" / f"{name}-s3" / "spans.jsonl").read_text().splitlines()]
    ids = {s["id"] for s in spans}
    assert spans and all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["end_ns"] >= s["start_ns"] for s in spans)
    assert emitted["losses.ap_loss_calls"]["value"] > 0
    if name == "sweep_ed_1to1000":
        assert emitted["trainer.surrogate_loss_calls"]["value"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_holdout_seed_runs_the_checks_again(name):
    result, lines = run.run_benchmark(name, seed=3, seconds=0.1, trace=False,
                                      holdout_seed=4, small=True)
    assert result["correct"], "\n".join(lines)
    assert any(line.startswith("check holdout_counts_repeat: ok") for line in lines)


def test_counting_calls_counts_library_calls_and_restores_them():
    import ranklosslab.experiments as experiments
    import ranklosslab.trainer as trainer

    before = trainer.surrogate_loss, trainer._ap_loss_core, experiments.ap_loss
    with workloads.counting_calls() as calls:
        experiments.surrogate_domination_slack(instances=3, seed=1)
    assert calls == {"losses.ap_loss_calls": 3, "trainer.surrogate_loss_calls": 3}
    assert (trainer.surrogate_loss, trainer._ap_loss_core, experiments.ap_loss) == before


def test_tracer_flags_malformed_spans():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("losses.ap_loss"):
            pass
    assert tracer.problems() == []
    tracer.spans[1].end_ns = tracer.spans[0].end_ns + 1
    assert any("escapes" in p for p in tracer.problems())


def test_refuses_to_run_without_the_library_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep_smoothed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
