"""Command-line benchmark driver.

Subcommands: ``run`` (one ensemble from a config file), ``sweep``
(method x task matrix), ``variance`` (estimator variance tables) and
``summarize`` (threshold tables from exported traces).

Config files use INI syntax.  ``run`` reads a ``[run]`` section whose
keys are ``RunConfig`` fields, each coerced to its field's type
(booleans take 1/0, true/false, yes/no or on/off).  ``sweep`` reads a
``[sweep]`` section with comma-separated ``methods`` and ``tasks`` plus
any ``RunConfig`` fields shared by every cell; each method keeps only the
keys it accepts, so one section can hold both ``lr`` and the Newton-CG
settings.  For ``run`` and ``sweep``, ``--seed``, ``--budget-seconds``,
``--budget-evals`` and ``--deterministic`` override the file;
``variance`` takes only ``--seed`` and ``--out`` of these.  A sweep
builds every cell's config before its first run, so a bad method, task or key
in any cell exits before anything runs.

Bad input and unreadable files exit 2 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import harness
from .estimators import SamplingMode
from .harness import RunConfig, VarianceReport, run_ensemble
from .tasks import TASK_NAMES, make_task

def _coerce(key: str, raw: str):
    kind = harness.CONFIG_TYPES.get(key)
    if kind is None:
        raise ValueError(f"unknown config key {key!r}")
    if kind is bool:
        word = raw.strip().lower()
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"config key {key!r}: expected 1/0, true/false, yes/no "
                             f"or on/off, got {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    if kind is str:
        return raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected {'an integer' if kind is int else 'a number'}, "
                         f"got {raw!r}") from None


def _section_to_kwargs(section) -> dict:
    return {key: _coerce(key, raw) for key, raw in section.items()}


def _apply_overrides(kwargs: dict, args) -> dict:
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.budget_seconds is not None:
        kwargs["budget_seconds"] = args.budget_seconds
        kwargs.pop("budget_evals", None)
    if args.budget_evals is not None:
        kwargs["budget_evals"] = args.budget_evals
        kwargs.pop("budget_seconds", None)
    if args.deterministic:
        kwargs["deterministic"] = True
    return kwargs


def _read_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return parser


def _kwargs_for_method(base: dict, method: str) -> dict:
    # a sweep config may carry both first- and second-order keys; keep
    # only the ones the method accepts
    drop = harness.foreign_keys(method)
    return {**{key: value for key, value in base.items() if key not in drop}, "method": method}


def cmd_run(args) -> int:
    parser = _read_config(args.config)
    if "run" not in parser:
        raise ValueError(f"{args.config}: missing [run] section")
    kwargs = _apply_overrides(_section_to_kwargs(parser["run"]), args)
    cfg = RunConfig(**kwargs)
    result = run_ensemble(cfg)
    print(f"task={cfg.task} method={cfg.method} ensemble={cfg.ensemble} seed={cfg.seed}")
    print(harness.summarize_traces(result.traces))
    if args.out:
        harness.export_traces(result, args.out, args.format)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    parser = _read_config(args.config)
    if "sweep" not in parser:
        raise ValueError(f"{args.config}: missing [sweep] section")
    section = dict(parser["sweep"])
    for key in ("methods", "tasks"):
        if key not in section:
            raise ValueError(f"{args.config}: [sweep] section needs a {key!r} key")
    methods = [m.strip() for m in section.pop("methods").split(",")]
    tasks = [t.strip() for t in section.pop("tasks").split(",")]
    base = _section_to_kwargs(section)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    cells = [RunConfig(**_apply_overrides({**_kwargs_for_method(base, method), "task": task}, args))
             for task in tasks for method in methods]
    for cfg in cells:
        result = run_ensemble(cfg)
        print(f"--- task={cfg.task} method={cfg.method}")
        print(harness.summarize_traces(result.traces))
        if out_dir:
            path = out_dir / f"{cfg.task}_{cfg.method}.{args.format}"
            harness.export_traces(result, path, args.format)
            print(f"wrote {path}")
    return 0


def _listed(option: str, raw: str, kind) -> list:
    try:
        return [kind(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"{option}: expected comma-separated {kind.__name__}s, got {raw!r}") from None


def cmd_variance(args) -> int:
    task = make_task(args.task)
    theta = np.array(_listed("--theta", args.theta, float)) if args.theta else np.full(task.dim, 0.5)
    modes = [SamplingMode.parse(m) for m in args.modes.split(",")]
    budgets = _listed("--budgets", args.budgets, int)
    report = harness.variance_report(
        task, theta, modes, budgets,
        orders=tuple(o.strip() for o in args.orders.split(",")), reps=args.reps,
        sigma=args.sigma, seed=args.seed if args.seed is not None else 0,
    )
    print(report.format_table())
    if args.out:
        Path(args.out).write_text(report.format_table() + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_summarize(args) -> int:
    for path in args.paths:
        traces, _cfg = harness.load_traces(path)
        print(f"=== {path} ({len(traces)} runs)")
        print(harness.summarize_traces(traces))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothdiff",
        description="Smoothed-derivative estimation benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    def add_overrides(p):
        add_common(p)
        p.add_argument("--budget-seconds", type=float, default=None, dest="budget_seconds")
        p.add_argument("--budget-evals", type=int, default=None, dest="budget_evals")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--deterministic", action="store_true")

    p_run = sub.add_parser("run", help="run one ensemble from a config file")
    p_run.add_argument("--config", required=True)
    add_overrides(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a method x task matrix")
    p_sweep.add_argument("--config", required=True)
    add_overrides(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_var = sub.add_parser("variance", help="estimator variance tables")
    p_var.add_argument("--task", default="neg_gauss", choices=TASK_NAMES)
    p_var.add_argument("--theta", default=None, help="comma-separated point, default 0.5 vector")
    p_var.add_argument("--sigma", type=float, default=1.0)
    p_var.add_argument("--modes", default="per_element,aggregate,uniform")
    p_var.add_argument("--orders", default="G,H,HVP")
    p_var.add_argument("--budgets", default="24,96,384,1536")
    p_var.add_argument("--reps", type=int, default=100)
    add_common(p_var)
    p_var.set_defaults(fn=cmd_variance)

    p_sum = sub.add_parser("summarize", help="threshold tables from trace files")
    p_sum.add_argument("paths", nargs="+")
    p_sum.set_defaults(fn=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
