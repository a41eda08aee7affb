"""Command-line front end for the ranking-loss lab.

Subcommands: ``gradcheck`` (oracle-equivalence suite), ``train`` (one
experiment), ``counterexample`` (the gradient-descent failure
construction), ``bounds`` (accumulated-loss bound verification), ``bench``
(pruning/timing study), ``sweep`` (imbalance grid).  Exit codes: 0 on
success, 1 on validation errors (including unknown subcommands), 2 on I/O
errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .experiments import (
    ExperimentSpec,
    GradcheckReport,
    bench_acceleration,
    default_bench_spec,
    default_sweep_spec,
    default_train_spec,
    run_bounds,
    run_counterexample,
    run_experiment,
    run_gradcheck,
    surrogate_domination_slack,
)
from .gradients import GradOptions
from .synth import SynthConfig
from .trainer import TrainConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


_OUT = "runs"
"""Output directory when neither ``--out`` nor the config's ``run.out`` names one."""

_YAML_KEYS = {"step_cfg": "step", "output_path": "out"}
"""Config fields whose YAML key differs from the field name."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_SCALARS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer", _is_int),
    # An integer past the float range would overflow in float().
    float: (
        "a number",
        lambda v: isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max,
    ),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"section '{where}' must be a mapping")
    return value


def _check_keys(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValueError(f"unknown key '{sorted(unknown)[0]}' in section '{where}'")


def _keys(cls, *exclude: str) -> dict[str, tuple[str, object]]:
    """YAML key -> (field name, annotation) for each field of a config dataclass."""
    hints = get_type_hints(cls)
    return {
        _YAML_KEYS.get(f.name, f.name): (f.name, hints[f.name])
        for f in fields(cls)
        if f.name not in exclude
    }


def _kwargs(raw, keys: dict[str, tuple[str, object]], where: str) -> dict:
    """Constructor arguments from a YAML mapping, each value checked against its field."""
    raw = _require_mapping(raw, where)
    _check_keys(raw, keys, where)
    return {keys[k][0]: _value(v, keys[k][1], f"{where}.{k}") for k, v in raw.items()}


def _value(raw, hint, where: str):
    """``raw`` as a value of the annotation ``hint``, or a ValueError naming ``where``.

    A bool field takes only a YAML boolean, an int field only an integer,
    a float field an integer or a float (stored as a float), a
    ``tuple[int, ...]`` field a list of integers, a str field a string,
    and ``null`` only where the annotation allows ``None``.  The first
    member of any other union (``str | Path``) is the form YAML can spell.
    A dataclass field takes a mapping of that dataclass's own fields.
    """
    if is_dataclass(hint):
        return hint(**_kwargs(raw, _keys(hint), where))
    nullable = False
    if get_origin(hint) is UnionType:
        args = get_args(hint)
        nullable = type(None) in args
        if raw is None and nullable:
            return None
        hint = args[0]
    if get_origin(hint) is tuple:
        expected = "a list of integers"
        if isinstance(raw, list) and all(map(_is_int, raw)):
            return tuple(raw)
    else:
        expected, fits = _SCALARS[hint]
        if fits(raw):
            return float(raw) if hint is float else raw
    raise ValueError(f"{where} must be {expected}{' or null' if nullable else ''}, got {raw!r}")


def _parse_train(name: str, raw) -> TrainConfig:
    """One ``train`` entry: its key is the loss kind, and the ``GradOptions``
    fields sit flat beside the ``TrainConfig`` ones."""
    keys = _keys(TrainConfig, "loss_kind", "grad_opts", "record_weights") | _keys(GradOptions)
    kwargs = _kwargs(raw, keys, f"train.{name}")
    opts = {f.name: kwargs.pop(f.name) for f in fields(GradOptions) if f.name in kwargs}
    return TrainConfig(loss_kind=name, grad_opts=GradOptions(**opts), **kwargs)


def _overridden(spec: ExperimentSpec, seed: int | None, out: str | None) -> ExperimentSpec:
    if seed is not None:
        spec = replace(spec, synth=replace(spec.synth, seed=seed))
    if out is not None:
        spec = replace(spec, output_path=out)
    return spec


def load_spec(path: str | Path, seed: int | None, out: str | None) -> ExperimentSpec:
    """Load an experiment spec from a YAML config file.

    Top-level sections are ``synth`` (``SynthConfig`` fields), ``train``
    (one sub-mapping per loss kind) and ``run`` (the remaining
    ``ExperimentSpec`` fields).  Keys and value types come from the config
    dataclasses, which also supply every omitted value; any unknown key or
    mistyped value is a validation error.  ``seed`` and ``out`` given on
    the command line override the file.
    """
    path = Path(path)
    if not path.exists():
        raise OSError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"config {path} is not valid YAML: {exc}") from exc
    raw = _require_mapping(raw if raw is not None else {}, "<config>")
    _check_keys(raw, ("synth", "train", "run"), "<config>")

    train = _require_mapping(raw.get("train", {}), "train")
    run = _kwargs(raw.get("run", {}), _keys(ExperimentSpec, "synth", "train"), "run")
    run.setdefault("output_path", _OUT)
    spec = ExperimentSpec(
        synth=_value(raw.get("synth", {}), SynthConfig, "synth"),
        train={name: _parse_train(name, cfg) for name, cfg in train.items()},
        **run,
    )
    return _overridden(spec, seed, out)


def _spec_for(args, default_factory) -> ExperimentSpec:
    if args.config is not None:
        return load_spec(args.config, args.seed, args.out)
    return _overridden(default_factory(), args.seed, args.out)


def _cmd_gradcheck(args) -> int:
    report: GradcheckReport = run_gradcheck(batches=args.batches, seed=args.seed)
    status = "ok" if report.passed else "FAILED"
    print(
        f"gradcheck {status}: {report.batches} batches, "
        f"{report.failures} failures, worst relative error {report.worst_rel_error:.3e}, "
        f"{report.elapsed_s:.1f}s"
    )
    return 0 if report.passed else 1


def _cmd_train(args) -> int:
    spec = _spec_for(args, default_train_spec)
    return _print_rows(run_experiment(spec), spec)


def _cmd_sweep(args) -> int:
    spec = _spec_for(args, default_sweep_spec)
    if spec.negatives_grid is None:
        spec = replace(spec, negatives_grid=default_sweep_spec().negatives_grid)
    return _print_rows(run_experiment(spec), spec)


def _print_rows(result, spec) -> int:
    for row in result.rows:
        print(
            f"{row[0]}: negatives={row[1]} rep={row[2]} "
            f"final_ap_loss={row[3]:.6g} iterations={row[4]}"
        )
    print(f"wrote results to {spec.output_path}")
    return 0


def _cmd_counterexample(args) -> int:
    traces = run_counterexample(out_dir=args.out, gd_iters=args.gd_iters)
    err = traces["error_driven_ap"]
    gd = traces["smoothed_ap_gd"]
    print(
        f"error_driven_ap: final exact ap_loss={err.ap_loss[-1]:.6g} "
        f"after {err.iterations} iterations"
    )
    print(
        f"smoothed_ap_gd: final exact ap_loss={gd.ap_loss[-1]:.6g}, "
        f"final smooth loss={gd.surrogate[-1]:.6g} after {gd.iterations} iterations"
    )
    print(f"wrote traces to {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    rows = run_bounds(runs=args.runs, u_per_run=args.u_count, seed=args.seed, out_dir=args.out)
    violations = sum(1 for row in rows if not row[-1])
    slack = surrogate_domination_slack(seed=args.seed)
    print(
        f"bound checks: {len(rows)} comparators, {violations} violations; "
        f"surrogate domination slack {slack:.3e}"
    )
    print(f"wrote bounds table to {args.out}")
    return 0 if violations == 0 and slack >= 0 else 1


def _cmd_bench(args) -> int:
    spec = _spec_for(args, default_bench_spec)
    result = bench_acceleration(spec)
    times = [r[1] / 1e6 for r in result.timeline]
    tenth = max(len(times) // 10, 1)
    if times:
        print(
            f"bench: {len(times)} iterations; median pruned-path time first 10% "
            f"{np.median(times[:tenth]):.3f}ms -> last 10% {np.median(times[-tenth:]):.3f}ms"
        )
    else:
        print("bench: 0 iterations, nothing to rank")
    print(f"wrote bench tables to {spec.output_path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ranklosslab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_text: str, *, config=False, seed=True, out=True):
        p = sub.add_parser(name, help=help_text)
        # Under --config, an omitted --seed or --out keeps the config's value.
        if config:
            p.add_argument("--config", help="YAML experiment config")
        if seed:
            p.add_argument("--seed", type=int, default=None if config else 0, help="base seed")
        if out:
            p.add_argument("--out", default=None if config else _OUT, help="output directory")
        return p

    add("gradcheck", "run the gradient oracle-equivalence suite", out=False).add_argument(
        "--batches", type=int, default=500
    )
    add("train", "run one training experiment", config=True)
    add("sweep", "run the imbalance-ratio sweep", config=True)
    add(
        "counterexample", "reproduce the gradient-descent failure construction", seed=False
    ).add_argument("--gd-iters", type=int, default=100_000)
    bounds = add("bounds", "verify the accumulated-loss bound on inseparable runs")
    bounds.add_argument("--runs", type=int, default=10)
    bounds.add_argument("--u-count", type=int, default=50)
    add("bench", "time the gradient path with and without pruning", config=True)
    return parser


_COMMANDS = {
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "counterexample": _cmd_counterexample,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"ranklosslab: I/O error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ranklosslab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
