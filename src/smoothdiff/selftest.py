"""Fast invariant battery behind the ``selftest`` CLI subcommand.

A condensed version of the test suite: checks the kernel closed forms
against finite differences, sampler distributions against their CDFs,
estimator evaluation budgets and unbiasedness on the quadratic, and the
optimizer exactness identities.  Prints one line per check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from .estimators import EstimatorConfig, Objective, SamplingMode, estimate_gradient, estimate_hessian
from .kernels import (
    KernelSpec,
    gaussian_pdf,
    gradient_cdf,
    gradient_inverse_cdf,
    gradient_kernel,
    hessian_diag_cdf,
)
from .optimizers import OptimizerState, TrustRegion, newton_step
from .samplers import (
    RngStream,
    build_hessian_diag_table,
    element_density_ratios,
    mixture_pdf,
    sample_aggregate_offsets,
    sample_gradient_offsets,
)
from .tasks import quad_task
from .estimators import GradientEstimate, HessianEstimate
from .kernels import hessian_elements


def run_selftest() -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name} {detail}")

    rng = np.random.default_rng(2024)

    # kernels: finite-difference consistency
    worst = 0.0
    for _ in range(25):
        sigma = rng.uniform(0.1, 3.0)
        spec = KernelSpec(sigma=sigma, dim=3)
        tau = rng.uniform(-2.0, 2.0, size=3)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (gaussian_pdf(tau + e, spec) - gaussian_pdf(tau - e, spec)) / (2 * h)
            worst = max(worst, abs(fd - gradient_kernel(tau, i, spec)))
    check("kernel gradient vs finite differences", worst < 1e-6, f"worst={worst:.2e}")

    xi = np.linspace(0.01, 0.99, 99)
    rt = np.abs(gradient_cdf(gradient_inverse_cdf(xi, 1.3), 1.3) - xi).max()
    check("gradient inverse CDF round trip", rt < 1e-12, f"max={rt:.2e}")

    check("hessian diag CDF anchors",
          hessian_diag_cdf(-2.0, 2.0) == 0.25 and hessian_diag_cdf(0.0, 2.0) == 0.5
          and hessian_diag_cdf(2.0, 2.0) == 0.75)

    # samplers: KS fidelity and mixture density recomputation
    spec = KernelSpec(sigma=1.0, dim=2)
    taus, _ = sample_gradient_offsets(0, spec, RngStream(11), 20000)
    ks = stats.kstest(taus[:, 0], lambda u: gradient_cdf(u, 1.0))
    check("gradient sampler KS", ks.pvalue > 0.001, f"p={ks.pvalue:.4f}")

    table = build_hessian_diag_table(2048)
    u = table.lookup(np.clip(np.random.default_rng(5).random(20000), 1e-12, 1 - 1e-12))
    ks2 = stats.kstest(u, lambda x: hessian_diag_cdf(x, 1.0))
    check("hessian diag sampler KS", ks2.pvalue > 0.001, f"p={ks2.pvalue:.4f}")

    elements = hessian_elements(2)
    ataus, _ = sample_aggregate_offsets(elements, spec, table, RngStream(13), 200)
    ratios = element_density_ratios(ataus, elements, spec.sigma).mean(axis=1)
    recomputed = np.array([mixture_pdf(t, elements, spec) for t in ataus])
    rel = np.abs(ratios * [gaussian_pdf(t, spec) for t in ataus] - recomputed) / recomputed
    check("mixture density recomputation", rel.max() < 1e-12, f"max rel={rel.max():.2e}")

    # estimators: evaluation budgets and quadratic unbiasedness
    task = quad_task()
    obj = task.objective()
    cfg = EstimatorConfig(spec=KernelSpec(sigma=1.0, dim=2), samples=7, mode=SamplingMode.AGGREGATE)
    estimate_hessian(obj, np.zeros(2), cfg, RngStream(1))
    check("aggregate Hessian evals = 2 per pair", obj.eval_count == 2 * 7, f"got {obj.eval_count}")

    obj2 = task.objective()
    cfg_pe = EstimatorConfig(spec=KernelSpec(sigma=1.0, dim=2), samples=7, mode=SamplingMode.PER_ELEMENT)
    estimate_hessian(obj2, np.zeros(2), cfg_pe, RngStream(1))
    check("per-element Hessian evals = n(n+1) per pair", obj2.eval_count == 6 * 7, f"got {obj2.eval_count}")

    theta = np.array([1.0, 1.0])
    obj3 = task.objective()
    cfg_g = EstimatorConfig(spec=KernelSpec(sigma=1.0, dim=2), samples=20000, mode=SamplingMode.PER_ELEMENT)
    g = estimate_gradient(obj3, theta, cfg_g, RngStream(8)).g
    check("quad gradient unbiased", np.abs(g - np.array([17.5, 17.5])).max() < 0.5, f"g={g}")

    # optimizers: one exact Newton step solves the quadratic
    state = OptimizerState(theta=np.array([2.0, -1.5]))
    grad = GradientEstimate(g=task.analytic_grad(state.theta), evals_used=0)
    hess = HessianEstimate(h=task.analytic_hess(state.theta), evals_used=0)
    new = newton_step(state, grad, hess, TrustRegion(delta=1e9))
    check("exact Newton step solves quad", np.linalg.norm(new.theta) < 1e-10,
          f"|theta|={np.linalg.norm(new.theta):.2e}")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failure(s)")
    return 0 if failures == 0 else 1
