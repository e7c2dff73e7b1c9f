"""Optimization loops driven by sampled derivatives.

Three flavors: Adam gradient descent, a full Newton step with eigenvalue
clamping and a trust region, and trust-region Newton conjugate gradient
(Steihaug-Toint truncated CG with Fletcher-Reeves directions; Steihaug
1983, Nocedal & Wright, *Numerical Optimization*, Sec. 7.2).  Newton-CG
bounds the whole step of an outer iteration by the trust radius, runs at
most ``dim`` conjugate steps, and keeps a trial point only if its exact
loss does not rise.  Second-order methods take raw steps; Adam
preconditioning applies to gradient descent only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

import numpy as np

from .estimators import GradientEstimate, HessianEstimate, HvpEstimate, Objective
from .trace import Budget, ConvergenceTrace, NonFiniteStateError, RunClock, TraceRecord

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Newton-CG acceptance: halvings of a trial step whose loss rose, and the
# working-radius factor after an outer iteration with no accepted try (the
# 1/4 of Nocedal & Wright's Algorithm 4.1)
CG_HALVINGS = 4
CG_RADIUS_SHRINK = 0.25


@dataclass(frozen=True)
class SigmaSchedule:
    """Linear bandwidth annealing from start to end over total_iters."""

    sigma_start: float
    sigma_end: float
    total_iters: int

    def __post_init__(self):
        if self.sigma_start <= 0 or self.sigma_end <= 0:
            raise ValueError("schedule endpoints must be positive")
        if self.total_iters < 1:
            raise ValueError("total_iters must be >= 1")


def anneal_sigma(schedule: SigmaSchedule, iteration: int) -> float:
    """Linearly interpolated bandwidth, clamped to the endpoints."""
    if iteration < 0:
        raise ValueError("iteration must be >= 0")
    t = min(iteration, schedule.total_iters) / schedule.total_iters
    return (1.0 - t) * schedule.sigma_start + t * schedule.sigma_end


@dataclass(frozen=True)
class TrustRegion:
    """Trust radius delta: the bound on the step ||theta - theta_outer|| of one outer iteration.

    ``newton_step`` truncates the Newton direction to length delta.
    ``newton_cg_run`` bounds the cumulative Steihaug-Toint step of each
    outer iteration, scaling delta with the annealed bandwidth.
    """

    delta: float

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError(f"trust region radius must be > 0, got {self.delta}")


@dataclass
class OptimizerState:
    theta: np.ndarray
    iteration: int = 0
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    cg_direction: np.ndarray | None = None
    cg_residual: np.ndarray | None = None
    trace: ConvergenceTrace = field(default_factory=ConvergenceTrace)


def gd_adam_step(state: OptimizerState, grad: GradientEstimate, lr: float) -> OptimizerState:
    """One Adam update on a (possibly stochastic) gradient."""
    if not (lr > 0):
        raise ValueError(f"lr must be > 0, got {lr}")
    g = np.asarray(grad.g, dtype=float)
    if g.shape != state.theta.shape:
        raise ValueError(f"gradient shape {g.shape} does not match theta {state.theta.shape}")
    if not np.all(np.isfinite(g)):
        raise NonFiniteStateError("non-finite gradient in Adam step", state.trace)
    m = state.adam_m if state.adam_m is not None else np.zeros_like(g)
    v = state.adam_v if state.adam_v is not None else np.zeros_like(g)
    t = state.iteration + 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    theta = state.theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return replace(state, theta=theta, iteration=t, adam_m=m, adam_v=v)


def _clamped_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of symmetric h, eigenvalues floored at 1e-6 * max(|lambda|_max, 1)."""
    lam, vecs = np.linalg.eigh(h)
    floor = 1e-6 * max(float(np.max(np.abs(lam))), 1.0)
    return np.maximum(lam, floor), vecs


def psd_modify(h: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues from below so the matrix is safely positive definite.

    The floor is 1e-6 * max(|lambda|_max, 1); the clamped matrix keeps the
    original eigenvectors, so Newton directions through it always have a
    nonnegative component along the negative gradient.
    """
    lam, vecs = _clamped_eigh(np.asarray(h, dtype=float))
    return (vecs * lam) @ vecs.T


def newton_step(
    state: OptimizerState, grad: GradientEstimate, hess: HessianEstimate, tr: TrustRegion
) -> OptimizerState:
    """Full Newton update with PSD modification and trust-region truncation."""
    g = np.asarray(grad.g, dtype=float)
    h = np.asarray(hess.h, dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise NonFiniteStateError("non-finite derivative in Newton step", state.trace)
    lam, vecs = _clamped_eigh(h)
    v = -(vecs @ ((vecs.T @ g) / lam))
    norm = float(np.linalg.norm(v))
    scale = min(1.0, tr.delta / norm) if norm > 0 else 1.0
    return replace(state, theta=state.theta + scale * v, iteration=state.iteration + 1)


class DerivativeProvider(Protocol):
    """Derivative source for the Newton-CG loop.

    ``hvp`` may be backed by a sampled estimator or by an explicit
    (modified) Hessian; ``refresh`` re-estimates whatever the provider
    caches for the current point and bandwidth.
    """

    def gradient(self, theta: np.ndarray, sigma: float) -> GradientEstimate: ...

    def hvp(self, theta: np.ndarray, v: np.ndarray, sigma: float) -> HvpEstimate: ...

    def refresh(self, theta: np.ndarray, sigma: float) -> None: ...


def _boundary_step(p: np.ndarray, v: np.ndarray, delta: float) -> float:
    """The tau >= 0 with ||p + tau v|| = delta, for ||p|| <= delta."""
    pv = float(p @ v)
    vv = float(v @ v)
    room = max(delta * delta - float(p @ p), 0.0)
    return (math.sqrt(pv * pv + vv * room) - pv) / vv


def _steihaug_step(
    provider: DerivativeProvider,
    theta: np.ndarray,
    sigma: float,
    delta: float,
    max_steps: int,
    ls_tol: float,
    recompute: int,
    trace: ConvergenceTrace,
    outer: int,
    on_inner_step: Callable[[dict], None] | None,
) -> np.ndarray:
    """Steihaug-Toint truncated CG from ``theta``; returns the step p, ||p|| <= delta."""

    def residual(center: np.ndarray) -> np.ndarray:
        g = provider.gradient(center, sigma).g
        if not np.all(np.isfinite(g)):
            raise NonFiniteStateError("non-finite gradient estimate", trace)
        return -g

    p = np.zeros_like(theta)
    center = theta
    r = residual(center)
    v = r.copy()
    r0_norm = float(np.linalg.norm(r))
    if r0_norm == 0.0:
        return p
    for k in range(max_steps):
        if k > 0 and k % recompute == 0:
            center = theta + p
            provider.refresh(center, sigma)
            r = residual(center)
            v = r.copy()
        if float(np.linalg.norm(r)) <= ls_tol * r0_norm:
            break
        hv = provider.hvp(center, v, sigma).hv
        curv = float(v @ hv)
        fallback = curv <= 0.0
        alpha = 0.0 if fallback else float(r @ v) / curv
        at_boundary = fallback or float(np.linalg.norm(p + alpha * v)) >= delta
        if at_boundary:
            alpha = _boundary_step(p, v, delta)
        if on_inner_step is not None:
            on_inner_step({"outer": outer, "inner": k, "alpha": alpha, "v": v.copy(),
                           "hv": hv.copy(), "curv": curv, "fallback": fallback})
        p = p + alpha * v
        if not np.all(np.isfinite(p)):
            raise NonFiniteStateError("non-finite parameters in CG step", trace)
        if at_boundary:
            break
        r_new = r - alpha * hv
        rr = float(r @ r)
        beta = float(r_new @ r_new) / rr if rr > 0 else 0.0
        v = r_new + beta * v
        r = r_new
    return p


def newton_cg_run(
    obj: Objective,
    provider: DerivativeProvider,
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

    Per outer iteration: estimate the gradient at theta_outer and the
    annealed bandwidth, then run truncated CG on the local quadratic
    model (Steihaug 1983; Nocedal & Wright, *Numerical Optimization*,
    2nd ed., Sec. 7.2, Algorithm 7.2).  Step k moves by
    alpha = r^T v / (v^T H v) along v; the residual updates as
    r <- r - alpha H v and the next direction is r + beta v with the
    Fletcher-Reeves beta.  The cumulative step p obeys ||p|| <= delta:
    CG stops on the boundary when a step would cross it, steps to the
    boundary along v when the curvature v^T H v is non-positive (the
    ``fallback`` of ``on_inner_step``), and otherwise stops after
    ``min(ls_iters, dim)`` steps -- in exact arithmetic CG is done after
    ``dim`` steps, so further steps would follow nothing but HVP noise --
    or when ||r|| <= ``ls_tol`` ||r_0||.  Every ``recompute`` inner steps
    the derivative estimates are refreshed at the current point and the
    recursion restarts there; the bound is still measured from
    theta_outer.

    ``tr.delta`` is the initial radius; the working radius shrinks
    proportionally with the annealed bandwidth, since the smoothed
    quadratic model is only trustworthy within about one smoothing
    radius.  The trial point theta_outer + p is accepted only if its
    exact loss does not exceed the current one; otherwise p is halved up
    to ``CG_HALVINGS`` times, one evaluation per try.  If no try is
    accepted, theta stays at theta_outer and the working radius shrinks by
    ``CG_RADIUS_SHRINK`` for the rest of the run.  This is what stops
    unbiased but heavy-tailed curvature estimates from throwing the
    iterate out of a basin it has reached.

    The trace records loss, parameter error, evaluation count and wall
    time at every outer iteration; the accepted trial's evaluation is the
    record's, and a rejected iteration records theta_outer's loss at the
    current count.  The budget is checked between outer iterations and
    termination by budget is the normal exit.
    """
    if ls_iters < 1:
        raise ValueError("ls_iters must be >= 1")
    if not (ls_tol > 0):
        raise ValueError("ls_tol must be > 0")
    if recompute < 1:
        raise ValueError("recompute must be >= 1")
    theta = np.asarray(init, dtype=float).copy()
    trace = ConvergenceTrace()
    clock = RunClock(obj, deterministic=deterministic_clock)
    err_fn = param_error_fn if param_error_fn is not None else lambda th: float("nan")
    max_steps = min(ls_iters, theta.size)

    def record(iteration: int, loss: float) -> None:
        trace.append(TraceRecord(clock.now(), iteration, obj.eval_count, loss, err_fn(theta)))

    loss = obj.evaluate(theta)
    record(0, loss)
    radius_scale = 1.0
    outer = 0
    while not budget.exhausted(clock.now(), obj.eval_count):
        sigma = anneal_sigma(schedule, outer)
        delta = radius_scale * tr.delta * sigma / schedule.sigma_start
        provider.refresh(theta, sigma)
        step = _steihaug_step(provider, theta, sigma, delta, max_steps, ls_tol, recompute,
                              trace, outer, on_inner_step)
        outer += 1
        # the trial evaluation also guarantees budget progress when the
        # derivative estimates consume no evaluations
        trial_loss = obj.evaluate(theta + step)
        for _ in range(CG_HALVINGS):
            if trial_loss <= loss:
                break
            step = 0.5 * step
            trial_loss = obj.evaluate(theta + step)
        if trial_loss <= loss:
            theta = theta + step
            loss = trial_loss
        else:
            radius_scale *= CG_RADIUS_SHRINK
        record(outer, loss)
    return trace


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
    """Adam gradient descent over an annealed-bandwidth gradient source."""
    theta = np.asarray(init, dtype=float).copy()
    trace = ConvergenceTrace()
    state = OptimizerState(theta=theta, trace=trace)
    clock = RunClock(obj, deterministic=deterministic_clock)
    err_fn = param_error_fn if param_error_fn is not None else lambda th: float("nan")

    def record(iteration: int) -> None:
        loss = obj.evaluate(state.theta)
        trace.append(TraceRecord(clock.now(), iteration, obj.eval_count, loss, err_fn(state.theta)))

    record(0)
    while not budget.exhausted(clock.now(), obj.eval_count):
        sigma = anneal_sigma(schedule, state.iteration)
        grad = gradient_fn(state.theta, sigma)
        state = gd_adam_step(state, grad, lr)
        if not np.all(np.isfinite(state.theta)):
            raise NonFiniteStateError("non-finite parameters in Adam step", trace)
        record(state.iteration)
    return trace
