"""Optimization loops driven by sampled derivatives.

Two flavors: Adam gradient descent and trust-region Newton conjugate
gradient (Steihaug-Toint truncated CG with Fletcher-Reeves directions;
Steihaug 1983, Nocedal & Wright, *Numerical Optimization*, Sec. 7.2).
Newton-CG bounds the whole step of an outer iteration by the trust
radius, runs at most ``dim`` conjugate steps, and keeps a trial point
only if its exact loss does not rise.  Second-order methods take raw
steps; Adam preconditioning applies to gradient descent only.

Both are step closures over one outer loop, ``_outer_loop``, which owns
theta, the iteration number, the records, sigma, the clock and the trace.
A closure keeps only what the loop does not know: Adam its moment
estimates m and v, Newton-CG its working-radius factor ``radius_scale``.
The loop checks that ``init`` has the objective's dimension, then
evaluates and records the loss at ``init`` as iteration 0 before any
derivative is asked for; then, while the share of the budget spent
(``Budget.spent``) is below 1, iteration k runs at the bandwidth
``anneal_sigma`` gives for the share spent when it starts and records
loss, parameter error, evaluations and wall time at its new theta.  A
non-finite recorded loss raises ``NonFiniteStateError`` after its
record; an ``EstimationError`` from the derivative provider is raised
again as one, its note the error's text, which names the point.  Every
abort note names its iteration, and an abort inside iteration k leaves
the records of iterations 0 to k - 1.  A deterministic clock reads a
nominal microsecond per evaluation, so repeated runs give equal traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimators import EstimationError, GradientEstimate, Objective, _all_finite
from .kernels import fixed_operand
from .trace import Budget, ConvergenceTrace, NonFiniteStateError, TraceRecord

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the step's constant factors (see fixed_operand)
_BETA1, _BETA2, _EPS, _GAIN1, _GAIN2 = map(
    fixed_operand, (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2))

# Newton-CG acceptance: halvings of a trial step whose loss rose, and the
# working-radius factor after an outer iteration with no accepted try (the
# 1/4 of Nocedal & Wright's Algorithm 4.1)
CG_HALVINGS = 4
CG_RADIUS_SHRINK = 0.25


@dataclass(frozen=True)
class SigmaSchedule:
    """Bandwidth annealed linearly from start to end over a run's budget (see ``anneal_sigma``)."""

    sigma_start: float
    sigma_end: float

    def __post_init__(self):
        if not all(math.isfinite(s) and s > 0 for s in (self.sigma_start, self.sigma_end)):
            raise ValueError(f"schedule endpoints must be finite and > 0, got "
                             f"{self.sigma_start} and {self.sigma_end}")


def anneal_sigma(schedule: SigmaSchedule, spent: float) -> float:
    """Bandwidth at share ``spent`` of the budget (``Budget.spent``), linear and clamped at 1."""
    if not spent >= 0.0:
        raise ValueError(f"budget share must be >= 0, got {spent}")
    t = min(spent, 1.0)
    return (1.0 - t) * schedule.sigma_start + t * schedule.sigma_end


@dataclass(frozen=True)
class TrustRegion:
    """Trust radius delta: the bound on the step ||theta - theta_outer|| of one outer iteration.

    ``newton_cg_run`` bounds the cumulative Steihaug-Toint step of each
    outer iteration, scaling delta with the annealed bandwidth.  A delta
    that is not finite and > 0 is a ValueError.
    """

    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"trust region radius must be finite and > 0, got {self.delta}")


def psd_modify(h: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues from below so the matrix is safely positive definite.

    The floor is 1e-6 * max(|lambda|_max, 1); the clamped matrix keeps the
    original eigenvectors, so Newton directions through it always have a
    nonnegative component along the negative gradient.
    """
    lam, vecs = np.linalg.eigh(np.asarray(h, dtype=float))
    lam = np.maximum(lam, 1e-6 * max(float(np.abs(lam).max()), 1.0))
    return (vecs * lam) @ vecs.T


# Newton-CG's local quadratic model: model(theta, sigma) -> (gradient, v -> H v)
LocalModel = Callable[[np.ndarray, float], tuple[GradientEstimate, Callable[[np.ndarray], np.ndarray]]]


def _boundary_step(p: np.ndarray, v: np.ndarray, delta: float) -> float:
    """The tau >= 0 with ||p + tau v|| = delta, for ||p|| <= delta."""
    pv = float(p.dot(v))
    vv = float(v.dot(v))
    room = max(delta * delta - float(p.dot(p)), 0.0)
    return (math.sqrt(pv * pv + vv * room) - pv) / vv


def _steihaug_step(
    model: LocalModel,
    theta: np.ndarray,
    sigma: float,
    delta: float,
    max_steps: int,
    ls_tol: float,
    recompute: int,
    trace: ConvergenceTrace,
    iteration: int,
    on_inner_step: Callable[[dict], None] | None,
) -> np.ndarray:
    """Steihaug-Toint truncated CG from ``theta``; returns the step p, ||p|| <= delta.

    The step runs in one ``np.errstate`` scope, the model's calls included,
    in which overflow and invalid values warn of nothing.  The floats the
    recursion computes anyway are tested instead: g . g, the curvature
    v . H v, which is finite only if every entry of H v is, and the
    Fletcher-Reeves beta, finite only if ||r||^2 is.  The step p and each
    new direction are tested whole.  The residual is updated only for a
    step that follows.
    """

    def fault(what: str) -> NonFiniteStateError:
        return NonFiniteStateError(f"{what}, in iteration {iteration}", trace)

    def residual(center: np.ndarray):
        est, hvp = model(center, sigma)
        g = est.g
        gg = float(g.dot(g))
        # a finite g . g has only finite terms; otherwise a term is not finite or g . g overflows
        if not math.isfinite(gg):
            raise fault("non-finite gradient estimate" if not _all_finite(g)
                        else "squared norm of the gradient estimate overflows")
        return -g, gg, hvp

    # norms are sqrt(x.dot(x)), bit-equal to np.linalg.norm on 1-D float arrays
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.zeros(theta.shape)
        r, rr, hvp = residual(theta)
        v = r.copy()
        r0_norm = math.sqrt(rr)
        if r0_norm == 0.0:
            return p
        for k in range(max_steps):
            if k > 0 and k % recompute == 0:
                r, rr, hvp = residual(theta + p)
                v = r.copy()
            if math.sqrt(rr) <= ls_tol * r0_norm:
                break
            hv = hvp(v)
            curv = float(v.dot(hv))
            if not math.isfinite(curv):
                raise fault("non-finite parameters in CG step" if not _all_finite(hv)
                            else "curvature of the CG direction overflows")
            fallback = curv <= 0.0
            alpha = 0.0 if fallback else float(r.dot(v)) / curv
            p_next = None if fallback else p + alpha * v
            at_boundary = fallback or math.sqrt(float(p_next.dot(p_next))) >= delta
            if at_boundary:
                alpha = _boundary_step(p, v, delta)
                p_next = p + alpha * v
            if on_inner_step is not None:
                on_inner_step({"outer": iteration, "alpha": alpha, "v": v.copy(), "curv": curv,
                               "fallback": fallback})
            p = p_next
            if not _all_finite(p):
                raise fault("non-finite parameters in CG step")
            if at_boundary or k == max_steps - 1:
                break
            r_new = r - alpha * hv
            rr_new = float(r_new.dot(r_new))
            beta = rr_new / rr  # rr > 0: a zero residual stopped the loop
            if not math.isfinite(beta):
                raise fault("squared norm of the CG residual overflows")
            v = r_new + beta * v
            if not _all_finite(v):
                raise fault("CG direction overflows")
            r, rr = r_new, rr_new
    return p


def _outer_loop(obj: Objective, init: np.ndarray, schedule: SigmaSchedule, budget: Budget,
                step: Callable[[np.ndarray, float, float, int, ConvergenceTrace],
                               tuple[np.ndarray, float]],
                param_error_fn: Callable[[np.ndarray], float] | None,
                deterministic_clock: bool) -> ConvergenceTrace:
    """The outer loop of both optimizers, as the module docstring states it.

    ``step(theta, loss, sigma, k, trace)`` makes iteration k from theta,
    whose loss is ``loss``, and returns the new theta and its loss.
    """
    theta = np.asarray(init, dtype=float).copy()
    if theta.shape != (obj.dim,):
        raise ValueError(f"init has shape {theta.shape}, but the objective's dimension is {obj.dim}")
    trace = ConvergenceTrace()
    err_fn = param_error_fn if param_error_fn is not None else lambda th: math.nan
    t0 = time.perf_counter()
    now = (lambda: obj.eval_count * 1e-6) if deterministic_clock else (lambda: time.perf_counter() - t0)
    loss = obj.evaluate(theta)
    iteration = 0
    while True:
        trace.append(TraceRecord(now(), iteration, obj.eval_count, loss, err_fn(theta)))
        if not math.isfinite(loss):
            raise NonFiniteStateError(f"non-finite loss at iteration {iteration}: {loss}", trace)
        if (spent := budget.spent(now(), obj.eval_count)) >= 1.0:
            return trace
        iteration += 1
        try:
            theta, loss = step(theta, loss, anneal_sigma(schedule, spent), iteration, trace)
        except EstimationError as err:
            raise NonFiniteStateError(f"{err}, in iteration {iteration}", trace) from err


def newton_cg_run(
    obj: Objective,
    model: LocalModel,
    init: np.ndarray,
    schedule: SigmaSchedule,
    tr: TrustRegion,
    ls_iters: int,
    ls_tol: float,
    recompute: int,
    budget: Budget,
    *,
    param_error_fn: Callable[[np.ndarray], float] | None = None,
    deterministic_clock: bool = False,
    on_inner_step: Callable[[dict], None] | None = None,
) -> ConvergenceTrace:
    """Trust-region Newton conjugate gradient (Steihaug-Toint) with Fletcher-Reeves directions.

    Per outer iteration: ask ``model`` for the gradient estimate at
    theta_outer and the bandwidth sigma, with the HVP operator bound to
    it, then run truncated CG on that local quadratic model (Steihaug
    1983; Nocedal & Wright, *Numerical Optimization*, 2nd ed., Sec. 7.2,
    Algorithm 7.2).  Step k moves by
    alpha = r^T v / (v^T H v) along v; the residual updates as
    r <- r - alpha H v and the next direction is r + beta v with the
    Fletcher-Reeves beta.  The cumulative step p obeys ||p|| <= delta:
    CG stops on the boundary when a step would cross it, steps to the
    boundary along v when the curvature v^T H v is non-positive (the
    ``fallback`` of ``on_inner_step``), and otherwise stops after
    ``min(ls_iters, dim)`` steps -- in exact arithmetic CG is done after
    ``dim`` steps, so further steps would follow nothing but HVP noise --
    or when ||r|| <= ``ls_tol`` ||r_0||.  Every ``recompute`` inner steps
    ``model`` is called again at the current point and the recursion
    restarts from its gradient and operator; the bound is still measured
    from theta_outer.  The products of a sampled model contract the batch
    its gradient evaluated, so each model call costs one batch and the
    products cost no evaluation.  ``on_inner_step`` gets a dict per inner
    step: ``outer``, the iteration k its record and abort notes name, the
    step ``alpha`` along the direction ``v``, ``curv`` and ``fallback``.

    The working radius is ``tr.delta`` times sigma / ``sigma_start``: the
    smoothed quadratic model is only trustworthy within about one
    smoothing radius.  The trial point theta_outer + p is accepted only
    if its exact loss does not exceed the current one; otherwise p is
    halved up to ``CG_HALVINGS`` times, one evaluation per try.  If no
    try is accepted, theta stays at theta_outer and the working radius
    shrinks by ``CG_RADIUS_SHRINK`` for the rest of the run.  This is
    what stops unbiased but heavy-tailed curvature estimates from
    throwing the iterate out of a basin it has reached.

    The accepted trial's evaluation is the record's, and a rejected
    iteration records theta_outer's loss.  A non-finite loss at a trial
    or halving raises ``NonFiniteStateError``, and so do a non-finite
    gradient, HVP product or CG step, and a finite gradient, curvature,
    residual or direction that overflows, each with a note naming its
    iteration and no RuntimeWarning before it.  ``ls_iters`` or
    ``recompute`` below 1 and an ``ls_tol`` that is not finite and > 0
    are ValueErrors, raised before any evaluation.
    """
    if ls_iters < 1:
        raise ValueError("ls_iters must be >= 1")
    if not (math.isfinite(ls_tol) and ls_tol > 0):
        raise ValueError(f"ls_tol must be finite and > 0, got {ls_tol}")
    if recompute < 1:
        raise ValueError("recompute must be >= 1")
    max_steps = min(ls_iters, np.size(init))
    radius_scale = 1.0

    def cg_iteration(theta, loss, sigma, iteration, trace):
        nonlocal radius_scale
        delta = radius_scale * tr.delta * sigma / schedule.sigma_start
        step = _steihaug_step(model, theta, sigma, delta, max_steps, ls_tol, recompute,
                              trace, iteration, on_inner_step)
        # the trial evaluation also guarantees budget progress when the
        # derivative estimates consume no evaluations
        for halvings in range(CG_HALVINGS + 1):
            trial = theta + step
            trial_loss = obj.evaluate(trial)
            if not math.isfinite(trial_loss):
                where = f"halving {halvings} of iteration" if halvings else "iteration"
                raise NonFiniteStateError(
                    f"non-finite trial loss at {where} {iteration}: {trial_loss}", trace)
            if trial_loss <= loss:
                return trial, trial_loss
            step = 0.5 * step
        radius_scale *= CG_RADIUS_SHRINK
        return theta, loss

    return _outer_loop(obj, init, schedule, budget, cg_iteration, param_error_fn, deterministic_clock)


def gd_adam_run(
    obj: Objective,
    gradient_fn: Callable[[np.ndarray, float], GradientEstimate],
    init: np.ndarray,
    schedule: SigmaSchedule,
    lr: float,
    budget: Budget,
    *,
    param_error_fn: Callable[[np.ndarray], float] | None = None,
    deterministic_clock: bool = False,
) -> ConvergenceTrace:
    """Adam gradient descent on ``gradient_fn(theta, sigma)`` (Kingma & Ba 2015).

    Iteration t updates the moments m and v in place, made at the first
    step, and records the loss at theta - lr * m_hat / (sqrt(v_hat) + eps),
    bias-corrected with the loop's t.  The step is worked in two scratch
    arrays, the second of which becomes the new theta, so no array handed
    to or returned by ``gradient_fn`` is written.  An ``lr`` that is not
    finite and > 0 is a ValueError, raised before any evaluation.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    m = v = None

    def adam_iteration(theta, loss, sigma, t, trace):
        nonlocal m, v
        g = np.asarray(gradient_fn(theta, sigma).g, dtype=float)
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} does not match theta {theta.shape}")
        if not _all_finite(g):
            raise NonFiniteStateError(f"non-finite gradient in Adam step, in iteration {t}", trace)
        if m is None:
            m, v = np.zeros_like(g), np.zeros_like(g)
        m *= _BETA1
        scratch = _GAIN1 * g
        m += scratch
        v *= _BETA2
        np.multiply(_GAIN2, g, scratch)
        scratch *= g
        v += scratch
        # step = lr * m_hat / (sqrt(v_hat) + eps), then theta - step
        step = m / (1.0 - ADAM_BETA1 ** t)
        step *= lr
        np.divide(v, 1.0 - ADAM_BETA2 ** t, scratch)
        np.sqrt(scratch, scratch)
        scratch += _EPS
        step /= scratch
        theta = np.subtract(theta, step, step)
        if not _all_finite(theta):
            raise NonFiniteStateError(f"non-finite parameters in Adam step, in iteration {t}", trace)
        return theta, obj.evaluate(theta)

    return _outer_loop(obj, init, schedule, budget, adam_iteration, param_error_fn, deterministic_clock)
