"""smoothdiff benchmark: one workload, one seed, untraced or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lowdim --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh interpreters), then whole passes over the
workload's cells until ``--seconds`` have elapsed.  ``--trace 1``
alternates untraced and traced passes for the same time and reports the
per-layer metrics.  Both run the correctness gate first.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller report (machine, cell configs, per-cell figures)
goes to ``.bench_out/`` in the checkout, and a traced run also writes its
spans there.  The exit code is non-zero when the gate or any consistency
check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
if not (SRC / "smoothdiff" / "__init__.py").is_file():
    sys.exit(f"bench: no smoothdiff sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np

import smoothdiff.harness as harness
from smoothdiff.estimators import EstimationError
from smoothdiff.harness import RunConfig, first_crossings

import gate
from hostspeed import REF_NOMINAL_S, host_reference
from tracer import Tracer, patch_targets
from workloads import QUALITY_WORKLOADS, WORKLOADS, seeded

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower"),
    "us_per_eval": ("us", "lower"),
    "evals_to_90": ("evals", "lower"),
    "evals_to_99": ("evals", "lower"),
    "evals_to_999": ("evals", "lower"),
    "seconds_to_99": ("s", "lower"),
    "final_error_ratio": ("ratio", "lower"),
    "completed_runs": ("share", "higher"),
}
PER_LAYER = {
    "samplers.sample_s": ("s", "lower"),
    "samplers.sample_calls": ("count", "lower"),
    "samplers.rows": ("count", "lower"),
    "samplers.density_ratio_s": ("s", "lower"),
    "samplers.density_ratio_calls": ("count", "lower"),
    "kernels.gaussian_pdf_1d_calls": ("count", "lower"),
    "kernels.inverse_cdf_calls": ("count", "lower"),
    "estimators.self_s": ("s", "lower"),
    "estimators.gradient_calls": ("count", "lower"),
    "estimators.hvp_calls": ("count", "lower"),
    "estimators.hessian_calls": ("count", "lower"),
    "estimators.evals_per_call": ("evals/call", "lower"),
    "estimators.errors": ("count", "lower"),
    "tasks.objective_s": ("s", "lower"),
    "tasks.evals": ("count", "lower"),
    "tasks.us_per_eval": ("us", "lower"),
    "optimizers.self_s": ("s", "lower"),
    "optimizers.psd_modify_s": ("s", "lower"),
    "optimizers.outer_iters": ("count", "higher"),
    "optimizers.inner_steps": ("count", "higher"),
    "optimizers.nonpos_curvature": ("count", "lower"),
    "optimizers.fallbacks": ("count", "lower"),
    "optimizers.aborted_runs": ("count", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.overhead_us_per_eval": ("us", "lower"),
    "harness.trace_overhead": ("ratio", "lower"),
    "harness.warnings": ("count", "lower"),
    "harness.reached_99": ("share", "higher"),
}
# per-layer metrics that are times; the rest are counts, exact for a seed
_LAYER_TIMES = {name for name, (unit, _) in PER_LAYER.items() if unit in ("s", "us", "ratio")}

SETUP_REPEATS = 5
# set-up as a user pays it: import the package, build the workload's
# tasks, fill the lazily built inverse-CDF table; then time the host
# reference in the same interpreter
_SETUP_CODE = """
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from smoothdiff.samplers import default_hessian_diag_table
from smoothdiff.tasks import make_task
for name in sys.argv[3:]:
    make_task(name)
default_hessian_diag_table()
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from hostspeed import host_reference
print(repr(setup), repr(statistics.median(host_reference() for _ in range(3))))
"""

# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """One run of every cell of a workload, in order.

    ``run_scale`` converts a run's wall seconds to seconds at nominal host
    speed: ``REF_NOMINAL_S`` over the mean of the reference job timed just
    before and just after the run.
    """

    run_seconds: list[list[float]]  # per cell, per run
    run_scale: list[list[float]]
    traces: list[list]  # per cell, per run: ConvergenceTrace, or None on EstimationError
    warnings: int

    def outcome(self) -> list[list]:
        return [[None if t is None else gate.record_key(t) for t in runs] for runs in self.traces]

    @property
    def attempted(self) -> int:
        return sum(len(runs) for runs in self.traces)

    @property
    def failed(self) -> int:
        return sum(t is None or t.aborted for runs in self.traces for t in runs)

    @property
    def speed(self) -> float:
        return statistics.median(x for row in self.run_scale for x in row)


def run_pass(cells: list[RunConfig]) -> Pass:
    """Run every cell's ensemble, one run per ``run_ensemble`` call.

    Run r of a cell is ``run_ensemble`` on the cell with seed + r and
    ensemble 1, which replays exactly run r of the whole ensemble; one
    call per run lets an ``EstimationError`` cost only its own run.
    """
    run_seconds, run_scale, traces = [], [], []
    ref_before = host_reference()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        for cfg in cells:
            times, scales, runs = [], [], []
            for r in range(cfg.ensemble):
                t0 = time.perf_counter()
                try:
                    result = harness.run_ensemble(replace(cfg, seed=cfg.seed + r, ensemble=1))
                except EstimationError:
                    runs.append(None)
                else:
                    runs.append(result.traces[0])
                times.append(time.perf_counter() - t0)
                ref_after = host_reference()
                scales.append(2.0 * REF_NOMINAL_S / (ref_before + ref_after))
                ref_before = ref_after
            run_seconds.append(times)
            run_scale.append(scales)
            traces.append(runs)
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return Pass(run_seconds=run_seconds, run_scale=run_scale, traces=traces, warnings=n_warn)


def warm_up(cells: list[RunConfig]) -> None:
    """One outer iteration of each cell, so lazy state is built before timing."""
    host_reference()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for cfg in cells:
            try:
                harness.run_ensemble(replace(cfg, ensemble=1, budget_evals=2))
            except EstimationError:
                pass


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _crossing(trace, frac: float) -> tuple[float, int]:
    """(seconds, evals) at the first ``frac`` param_error reduction; a run
    that never crosses counts at its final record."""
    hit = first_crossings(trace, "param_error")[frac]
    last = trace.records[-1]
    return hit if hit is not None else (last.wall_time, last.evals)


def _completed(p: Pass) -> list:
    return [t for runs in p.traces for t in runs if t is not None]


def _per_run(passes: list[Pass], seconds) -> list[float]:
    """Per completed run, the median over passes of ``seconds(pass, cell,
    run)`` at nominal host speed."""
    first = passes[0]
    return [statistics.median(seconds(p, k, r) * p.run_scale[k][r] for p in passes)
            for k, runs in enumerate(first.traces) for r in range(len(runs))
            if runs[r] is not None]


def _run_wall(passes: list[Pass]) -> float:
    return sum(_per_run(passes, lambda p, k, r: p.run_seconds[k][r]))


def _reached(p: Pass, frac: float) -> float:
    hits = sum(first_crossings(t, "param_error")[frac] is not None for t in _completed(p))
    return hits / p.attempted


def _final_error_ratio(p: Pass) -> float:
    """Mean over runs of final over initial ``param_error``, capped at 1.

    A run that ends no closer than it started counts as 1, so one
    diverging run cannot outweigh the rest.  Medians would sit on the gap
    between converging and diverging cells and jump from seed to seed.
    """
    return statistics.fmean(min(t.records[-1].param_error / t.records[0].param_error, 1.0)
                            for t in _completed(p))


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """The metrics of README.md's end-to-end table.

    Counts come from the first pass; every pass repeats them exactly.
    Times are at nominal host speed, median over passes per run, then
    summed or averaged over runs.
    """
    done = _completed(passes[0])
    evals = sum(t.records[-1].evals for t in done)
    return {
        "setup_s": statistics.median(setup),
        "us_per_eval": 1e6 * _run_wall(passes) / evals,
        "evals_to_90": statistics.fmean(_crossing(t, 0.9)[1] for t in done),
        "evals_to_99": statistics.fmean(_crossing(t, 0.99)[1] for t in done),
        "evals_to_999": statistics.fmean(_crossing(t, 0.999)[1] for t in done),
        "seconds_to_99": statistics.fmean(
            _per_run(passes, lambda p, k, r: _crossing(p.traces[k][r], 0.99)[0])),
        "final_error_ratio": _final_error_ratio(passes[0]),
        "completed_runs": 1.0 - passes[0].failed / passes[0].attempted,
    }


def per_layer(p: Pass, tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass; times at nominal host speed."""
    summary = tracer.span_summary()
    counts = tracer.counts

    def pick(prefix: str, key: str) -> float:
        total = sum(row[key] for name, row in summary.items() if name.startswith(prefix))
        return total * p.speed if key.endswith("_s") else total

    est_calls = pick("estimators.", "calls")
    objective_s = pick("tasks.objective", "total_s")
    evals = counts["tasks.evals"]
    return {
        "samplers.sample_s": pick("samplers.sample", "total_s"),
        "samplers.sample_calls": pick("samplers.sample", "calls"),
        "samplers.rows": counts["samplers.rows"],
        "samplers.density_ratio_s": pick("samplers.density_ratio", "total_s"),
        "samplers.density_ratio_calls": pick("samplers.density_ratio", "calls"),
        "kernels.gaussian_pdf_1d_calls": counts["kernels.gaussian_pdf_1d_calls"],
        "kernels.inverse_cdf_calls": counts["kernels.inverse_cdf_calls"],
        "estimators.self_s": pick("estimators.", "self_s"),
        "estimators.gradient_calls": pick("estimators.gradient", "calls"),
        "estimators.hvp_calls": pick("estimators.hvp", "calls"),
        "estimators.hessian_calls": pick("estimators.hessian", "calls"),
        "estimators.evals_per_call": counts["estimators.evals"] / est_calls if est_calls else 0.0,
        "estimators.errors": counts["estimators.errors"],
        "tasks.objective_s": objective_s,
        "tasks.evals": evals,
        "tasks.us_per_eval": 1e6 * objective_s / evals,
        "optimizers.self_s": pick("optimizers.", "self_s"),
        "optimizers.psd_modify_s": pick("optimizers.psd_modify", "total_s"),
        "optimizers.outer_iters": counts["optimizers.outer_iters"],
        "optimizers.inner_steps": counts["optimizers.inner_steps"],
        "optimizers.nonpos_curvature": counts["optimizers.nonpos_curvature"],
        "optimizers.fallbacks": counts["optimizers.fallbacks"],
        "optimizers.aborted_runs": counts["optimizers.aborted_runs"],
        "harness.self_s": pick("harness.", "self_s"),
        "harness.overhead_us_per_eval": 1e6 * (sum(map(sum, p.run_seconds)) * p.speed
                                               - objective_s) / evals,
        "harness.warnings": p.warnings,
        "harness.reached_99": _reached(p, 0.99),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(cells: list[RunConfig]) -> list[float]:
    """Set-up seconds of fresh interpreters, at nominal host speed."""
    tasks = sorted({cfg.task for cfg in cells})
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH), *tasks],
                             capture_output=True, text=True, check=True, timeout=120)
        setup, ref = map(float, out.stdout.split()[-2:])
        times.append(setup * REF_NOMINAL_S / ref)
    return times


def _check_passes(passes: list[Pass], what: str) -> list[str]:
    ref = passes[0]
    failures = []
    for k, p in enumerate(passes[1:], start=1):
        if p.outcome() != ref.outcome():
            failures.append(f"{what} pass {k} records differ from pass 0")
        if p.warnings != ref.warnings:
            failures.append(f"{what} pass {k} emitted {p.warnings} warnings, pass 0 {ref.warnings}")
    return failures


def measure_untraced(cells: list[RunConfig], seconds: float) -> tuple[dict, list[Pass], list[str]]:
    setup = measure_setup(cells)
    warm_up(cells)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cells))
    metrics = end_to_end(passes, setup)
    return metrics, passes, _check_passes(passes, "untraced")


def measure_traced(cells: list[RunConfig], seconds: float,
                   spans_path: Path) -> tuple[dict, list[Pass], list[str]]:
    """Alternate untraced and traced passes; per-layer metrics come from
    the traced ones, and both kinds must give the same records."""
    warm_up(cells)
    untraced, traced, layer_runs = [], [], []
    failures = []
    originals = [getattr(owner, attr) for owner, attr in patch_targets()]
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cells))
        tracer = Tracer()
        with tracer:
            traced.append(run_pass(cells))
        layer_runs.append(per_layer(traced[-1], tracer))
        failures.extend(tracer.evals_mismatch)
    failures.extend(_check_passes(untraced, "untraced"))
    failures.extend(_check_passes(traced, "traced"))
    if traced[0].outcome() != untraced[0].outcome():
        failures.append("traced records differ from untraced records")
    if [getattr(owner, attr) for owner, attr in patch_targets()] != originals:
        failures.append("tracer left patched attributes in place")
    metrics = {}
    for name in PER_LAYER:
        if name == "harness.trace_overhead":
            continue
        values = [run[name] for run in layer_runs]
        if name in _LAYER_TIMES:
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                failures.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["harness.trace_overhead"] = _run_wall(traced) / _run_wall(untraced)
    tracer.write_spans(spans_path)
    return metrics, untraced + traced, failures


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
    }


def cell_report(cells: list[RunConfig], passes: list[Pass]) -> list[dict]:
    first = passes[0]
    out = []
    for k, cfg in enumerate(cells):
        runs = first.traces[k]
        done = [t for t in runs if t is not None]
        out.append({
            "cell": f"{cfg.task}:{cfg.method}",
            "config": asdict(cfg),
            "wall_seconds_median": statistics.median(sum(p.run_seconds[k]) for p in passes),
            "evals": sum(t.records[-1].evals for t in done),
            "reached": {str(f): sum(first_crossings(t, "param_error")[f] is not None for t in done)
                        for f in (0.9, 0.99, 0.999)},
            "aborted": sum(t.aborted for t in done),
            "errors": len(runs) - len(done),
        })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload: str, seed: int, seconds: float, trace: bool,
        cells: list[RunConfig] | None = None) -> int:
    """Measure one workload and print the result; returns the exit code.

    ``cells`` overrides the workload's cells (smoke tests shrink them).
    """
    cells = seeded(workload, seed) if cells is None else cells
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{workload}_seed{seed}_trace{int(trace)}"

    failures = gate.estimator_checks()
    failures += gate.determinism_checks(seeded("lowdim", seed)[0])
    if trace:
        metrics, passes, more = measure_traced(cells, seconds, OUT_DIR / f"spans_{workload}.jsonl")
        table = PER_LAYER
    else:
        metrics, passes, more = measure_untraced(cells, seconds)
        table = END_TO_END
    failures += more
    failures += [f"metric {name} is not finite: {value}"
                 for name, value in metrics.items() if not math.isfinite(value)]
    correct = not failures

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        # nominal over measured reference time, per pass: above 1 means the host ran fast
        "host_scale": [p.speed for p in passes],
        "quality_metrics_meaningful": workload in QUALITY_WORKLOADS,
        "machine": machine(),
        "metrics": {name: {"value": metrics[name], "unit": unit, "better": better}
                    for name, (unit, better) in table.items()},
        "cells": cell_report(cells, passes),
        "failures": failures,
    }
    with open(OUT_DIR / f"BENCH_{label}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, (unit, better) in table.items():
        print(f"{name:32s} {metrics[name]:>16.6g} {unit:10s} ({better} is better)")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in table.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
