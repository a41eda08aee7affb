"""ranklosslab benchmark: one workload, timed passes, checked outputs.

Usage, from the repository root:

    python3 benches/run.py --workload sweep_ed_1to1000 --seed 1 --seconds 45 --trace 0

It imports the library from ``src/`` next to this directory, sets up the
workload, runs one untimed warm-up pass, then times whole passes until
``--seconds`` is used up.  The correctness checks and the counts that must
repeat exactly run outside the timed region.  The last line of standard
output is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-module metrics of a traced pass and a
replay of its recorded weight snapshots (spans go to
``.bench_work/<workload>-s<seed>/spans.jsonl``).  ``--holdout-seed``
repeats the checks and counts on a second seed.

End-to-end metrics:
  setup_s      interpreter start to a built workload spec (imports and
               spec), median over child processes spread over the run
  wall_ref     one pass's wall time in units of the yardstick, a fixed
               calibration task timed just before and just after the pass
               (see ``yardstick.py``); median over the timed passes
  ops_per_ref  training iterations in a pass over ``wall_ref``
  peak_rss_mb  the process's peak resident set after the timed passes
Pass times are ratios to the yardstick, not seconds, because tenants of
a shared host slow this process's CPU by 30-60% for minutes at a time,
so that a whole run can fall in a slow phase.  Raw pass times in seconds
still vary that much between runs: on a 2-CPU VM, two sets of ten 45-s
runs of the error-driven sweep spread by 0.27 (quartile distance over
median, across runs) in the lower quartile of its pass times.  The
yardstick slows with the passes, and the ratio cancels most of it.  The
raw median pass time and yardstick time are printed beside the metrics.
The failure ratio (failed checks and raised ops over attempted) is printed
and carried by the result's ``attempted`` and ``failed`` fields.

The run pins RANKLOSSLAB_THREADS=1 and a single BLAS thread, so it stays on
one core and nothing overlaps in a thread pool.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
# Least share of the traced time, as a clock outside the tracer sees it,
# that the root spans must cover.
MIN_SPAN_COVERAGE = 0.95
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "ops_per_ref": "1/ref",
                    "peak_rss_mb": "MB"}
PINNED_ENV = {"RANKLOSSLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SPAN_METRICS = {
    "synth.generate_ms": ("synth.generate", 1e6),
    "losses.ap_loss_ms": ("losses.ap_loss", 1e6),
    "baselines.smoothed_ms": ("baselines.smoothed", 1e6),
    "trainer.score_ms": ("trainer.score", 1e6),
    "trainer.update_ms": ("trainer.update", 1e6),
    "trainer.train_ms": ("trainer.train", 1e6),
    "trainer.surrogate_loss_us": ("trainer.surrogate_loss", 1e3),
    "trainer.verify_bound_ms": ("trainer.verify_bound", 1e6),
    "experiments.csv_write_ms": ("experiments.csv_write", 1e6),
    "experiments.slack_ms": ("experiments.slack", 1e6),
}
COUNT_METRICS = ("trainer.iterations", "losses.ap_loss_calls", "trainer.surrogate_loss_calls",
                 "experiments.csv_bytes")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_bytes() -> dict:
    """L2/L3 sizes of CPU 0 as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and size.endswith("K"):
            sizes[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return sizes


def _blas_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def manifest(name: str, seed: int, holdout_seed, wl, passes: int) -> dict:
    import numpy as np

    p, n = wl.block_shape
    return {
        "workload": name,
        "seed": seed,
        "holdout_seed": holdout_seed,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas_info(np),
        "RANKLOSSLAB_THREADS": os.environ.get("RANKLOSSLAB_THREADS"),
        **_cache_bytes(),
        "largest_block": f"{p}x{n} float64",
        "largest_block_bytes": p * n * 8,
        "timed_passes": passes,
    }


def probe_setup(name: str, seed: int, work_dir: Path) -> float:
    """Seconds from spawning a child interpreter to the end of its set-up.

    The child prints its monotonic clock when the spec is built; the clock
    is system-wide, so the difference to the spawn time needs no waiting
    on the child's exit, whose detection ``subprocess`` polls coarsely.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(work_dir)]
    t0 = perf_counter_ns()
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return (int(done.stdout.split()[-1]) - t0) / 1e9


@dataclass
class Timing:
    walls: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    rel: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    ops: int = 0
    failed_ops: int = 0
    mismatched: int = 0


def timed_passes(wl, ref, seconds: float, yard, probe, probes: int) -> Timing:
    """Run passes until the next one would take the time spent on passes
    and yardstick timings past ``seconds``, counting ops, ops lost to
    exceptions and passes whose exact counts differ from the warm-up pass.
    Each pass's time is also taken over the mean of the yardstick timings
    just before and just after it.

    The set-up probes are spread evenly over the run, between passes, so
    that their median does not hang on one phase of the machine's load.
    """
    t = Timing()
    busy = 0.0
    attempts = 0
    before = None
    while True:
        if len(t.setup) < probes and busy >= len(t.setup) * seconds / probes:
            t.setup.append(probe())
            before = None
            continue
        t0 = perf_counter()
        if before is None:
            before = yard.seconds()
            t.refs.append(before)
        # The last pass's outputs are freed now, not whenever the collector
        # next runs, so that they never add to the peak resident set.
        gc.collect()
        t1 = perf_counter()
        try:
            out = wl.run_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            t.failed_ops += ref.ops
            wall = None
        else:
            wall = perf_counter() - t1
            t.ops += out.ops
            # Timed passes count no library calls; compare the counts they have.
            t.mismatched += any(out.counts[k] != ref.counts[k] for k in out.counts)
            del out
        after = yard.seconds()
        t.refs.append(after)
        if wall is not None:
            t.walls.append(wall)
            t.rel.append(wall / ((before + after) / 2))
        before = after
        busy += perf_counter() - t0
        attempts += 1
        if busy + busy / attempts > seconds or (not t.walls and t.failed_ops >= 3 * ref.ops):
            break
    while len(t.setup) < probes:
        t.setup.append(probe())
    return t


def traced_metrics(wl, ref, untraced_wall_s: float, spans_path: Path):
    """Per-module metrics from one traced pass plus its replay, and the
    checks on them: the spans are well formed, they cover the time a clock
    outside the tracer saw, and the pass's counts repeat."""
    from tracing import Tracer
    from workloads import MODULES, PER_LAYER_UNITS

    tracer = Tracer()
    t0 = perf_counter_ns()
    with tracer.span("pass"):
        out = counted_pass(wl, tracer)
    with tracer.span("replay"):
        stats = wl.replay(tracer, out)
    outside_ns = perf_counter_ns() - t0
    problems = tracer.problems()
    tracer.write(spans_path)
    stats.update(wl.micro(out))

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for metric, (span_name, scale) in SPAN_METRICS.items():
        durations = tracer.durations_ns(span_name)
        if durations:
            metrics[metric] = median(durations) / scale
    for metric in COUNT_METRICS:
        metrics[metric] = out.counts.get(metric, 0)
    metrics.update(stats)
    self_ns = tracer.module_self_ns()
    for module in MODULES:
        metrics[f"{module}.self_ms"] = self_ns.get(module, 0) / 1e6
    metrics["trace.unattributed_ms"] = self_ns.get(None, 0) / 1e6
    metrics["trace.wall_ms"] = tracer.wall_ns() / 1e6
    # Against the median untraced pass, since the traced pass is one sample.
    metrics["trace.overhead_s"] = tracer.durations_ns("pass")[0] / 1e9 - untraced_wall_s
    units = {name: PER_LAYER_UNITS[name] for name in metrics}

    coverage = tracer.wall_ns() / outside_ns
    attributed = 1 - self_ns.get(None, 0) / tracer.wall_ns()
    checks = [
        ("spans_well_formed", not problems, "; ".join(problems) or "ok"),
        ("spans_cover_traced_time", coverage >= MIN_SPAN_COVERAGE,
         f"spans cover {coverage:.2%} of {outside_ns / 1e6:.1f} ms timed outside the "
         f"tracer, module spans {attributed:.2%} of the spans' time"),
        ("traced_counts_repeat", out.counts == ref.counts,
         f"traced pass counts {out.counts}"),
    ]
    return metrics, units, checks


def counted_pass(wl, tracer=None):
    """A recording pass whose counts include the library calls it made."""
    from workloads import counting_calls

    with counting_calls() as calls:
        out = wl.run_pass(tracer, record=True)
    out.counts.update(calls)
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  holdout_seed: int | None = None,
                  small: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines."""
    import workloads
    from yardstick import Yardstick

    work_dir = ROOT / ".bench_work" / f"{name}-s{seed}"
    wl = workloads.build(name, seed, work_dir, small=small)

    ref = counted_pass(wl)
    timing = timed_passes(wl, ref, seconds, Yardstick(),
                          lambda: probe_setup(name, seed, work_dir), 2 if small else SETUP_PROBES)
    walls = timing.walls
    if not walls:
        raise RuntimeError(f"every pass of {name} raised")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_ref = median(timing.rel)

    checks = wl.checks(ref)
    checks.append(("counts_repeat", timing.mismatched == 0,
                   f"{timing.mismatched} of {len(walls)} timed passes differ from the warm-up "
                   f"pass in {sorted(ref.counts)}"))
    lines = []
    if holdout_seed is not None:
        held = workloads.build(name, holdout_seed, work_dir.with_name(f"{name}-s{holdout_seed}"),
                               small=small, holdout=True)
        first, second = counted_pass(held), counted_pass(held)
        checks += [(f"holdout_{c}", ok, why) for c, ok, why in held.checks(first)]
        checks.append(("holdout_counts_repeat", first.counts == second.counts,
                       f"seed {holdout_seed} counts {first.counts}"))

    if trace:
        metrics, units, trace_checks = traced_metrics(wl, ref, median(walls),
                                                      work_dir / "spans.jsonl")
        checks += trace_checks
    else:
        metrics = {
            "setup_s": median(timing.setup),
            "wall_ref": wall_ref,
            "ops_per_ref": ref.ops / wall_ref,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    attempted = timing.ops + timing.failed_ops + len(checks)
    failed = timing.failed_ops + failed_checks
    lines.append("manifest " + json.dumps(manifest(name, seed, holdout_seed, wl, len(walls))))
    lines.append("counts " + json.dumps(ref.counts))
    for check, ok, why in checks:
        lines.append(f"check {check}: {'ok' if ok else 'FAILED'} ({why})")
    lines.append(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted}; "
                 f"op = {wl.op_name})")
    lines.append(f"raw: median pass {median(walls):.6g} s, median yardstick "
                 f"{median(timing.refs):.6g} s (not gated)")
    for metric, value in metrics.items():
        lines.append(f"{metric} = {value:.6g} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ranklosslab" / "__init__.py").is_file():
        print(f"benchmark: no ranklosslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.holdout_seed)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
