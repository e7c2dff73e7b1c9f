"""Correctness gate run before every measurement.

* Estimator fidelity: gradient, HVP and Hessian estimates, per-element and
  aggregate, on ``quad`` and ``neg_gauss`` must match the closed-form
  ``smoothed_grad`` / ``smoothed_hess`` within ``Z_BOUND`` standard errors
  over a fixed batch of estimates.  The batch is seeded with ``GATE_SEED``,
  not the workload seed, so the verdict does not depend on ``--seed``.
* Determinism: a lowdim cell re-run with ``deterministic=True`` gives
  bit-identical records, and the same cell under the tracer gives the
  same records again, with the objective's call count equal to each
  run's last recorded ``evals`` and every patched attribute restored.

Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import smoothdiff.harness as harness
from smoothdiff.estimators import (
    EstimatorConfig,
    SamplingMode,
    estimate_gradient,
    estimate_hessian,
    estimate_hvp,
)
from smoothdiff.harness import RunConfig
from smoothdiff.kernels import KernelSpec
from smoothdiff.samplers import RngStream
from smoothdiff.tasks import make_task

from tracer import Tracer, patch_targets

GATE_SEED = 20241204
GATE_ESTIMATES = 400
GATE_PAIRS = 4
Z_BOUND = 5.0
# (task, theta, sigma): points away from the optimum, where the smoothed
# derivatives are far from zero
GATE_POINTS = (
    ("quad", (0.7, -0.4), 0.5),
    ("neg_gauss", (0.5, 0.3), 0.7),
)
GATE_DIRECTION = np.array([0.6, -0.8])
GATE_ENSEMBLE = 5


def estimator_checks() -> list[str]:
    failures = []
    stream = 0
    for task_name, theta, sigma in GATE_POINTS:
        task = make_task(task_name)
        theta = np.array(theta)
        hess = task.smoothed_hess(theta, sigma)
        upper = np.triu_indices(task.dim)
        truths = {
            "gradient": task.smoothed_grad(theta, sigma),
            "hvp": hess @ GATE_DIRECTION,
            "hessian": hess[upper],
        }
        for mode in (SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE):
            cfg = EstimatorConfig(spec=KernelSpec(sigma=sigma, dim=task.dim),
                                  samples=GATE_PAIRS, mode=mode)
            for order, truth in truths.items():
                stream += 1
                rng = RngStream(GATE_SEED, stream_id=stream)
                obj = task.objective()
                if order == "gradient":
                    draw = lambda: estimate_gradient(obj, theta, cfg, rng).g
                elif order == "hvp":
                    draw = lambda: estimate_hvp(obj, theta, GATE_DIRECTION, cfg, rng).hv
                else:
                    draw = lambda: estimate_hessian(obj, theta, cfg, rng).h[upper]
                ests = np.array([draw() for _ in range(GATE_ESTIMATES)])
                z = _z_scores(ests, truth)
                if not np.all(z <= Z_BOUND):
                    failures.append(f"{task_name} {mode.value} {order}: |z| = {np.round(z, 2).tolist()}"
                                    f" exceeds {Z_BOUND} (mean {ests.mean(axis=0).tolist()},"
                                    f" truth {truth.tolist()})")
    return failures


def _z_scores(ests: np.ndarray, truth: np.ndarray) -> np.ndarray:
    err = np.abs(ests.mean(axis=0) - truth)
    se = ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
    # a zero-variance component must match its truth to rounding
    exact = np.where(err <= 1e-9 * (1.0 + np.abs(truth)), 0.0, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(se > 0, err / se, exact)


def record_key(trace) -> tuple:
    """A run's outcome without its wall-clock times."""
    return (trace.aborted, trace.note,
            tuple((r.iteration, r.evals, r.loss, r.param_error) for r in trace.records))


def determinism_checks(cell: RunConfig) -> list[str]:
    cfg = replace(cell, deterministic=True, threads=1, ensemble=GATE_ENSEMBLE)
    first = harness.run_ensemble(cfg)
    second = harness.run_ensemble(cfg)
    failures = []
    label = f"{cfg.task}:{cfg.method}"
    if [t.records for t in first.traces] != [t.records for t in second.traces]:
        failures.append(f"{label}: deterministic re-run records differ")
    originals = [getattr(owner, attr) for owner, attr in patch_targets()]
    with Tracer() as tracer:
        traced = harness.run_ensemble(cfg)
    if [getattr(owner, attr) for owner, attr in patch_targets()] != originals:
        failures.append("tracer left patched attributes in place")
    if [t.records for t in traced.traces] != [t.records for t in first.traces]:
        failures.append(f"{label}: traced records differ from untraced records")
    failures.extend(f"{label}: {msg}" for msg in tracer.evals_mismatch)
    return failures
