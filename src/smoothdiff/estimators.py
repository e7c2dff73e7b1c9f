"""Monte Carlo estimators of smoothed derivatives of black-box objectives.

The smoothed gradient, Hessian, and Hessian-vector product of an
objective f are integrals of f against derivative kernels of the
smoothing Gaussian.  Estimators importance-sample offsets from the
positivized kernel densities and weight each evaluation f(theta - tau)
by kernel(tau) / pdf(tau).

Every estimator runs the same four stages:

1. **Draw** blocks of antithetic rows (tau, -tau), each with the output
   elements it serves and its density ratio q = pdf / N, where N is the
   smoothing Gaussian.  Only this stage depends on the sampling mode:

   * ``PER_ELEMENT``: one block per derivative element, drawn from that
     element's optimally importance-sampled density and serving only that
     element (n evaluations per pair-half for a gradient, n(n+1)/2 for a
     Hessian).
   * ``AGGREGATE``: one block drawn from the uniform mixture of all
     element densities serves every element, so a pair-half costs a
     single evaluation regardless of dimension or derivative order.
   * ``UNIFORM``: one block drawn uniformly on [-10 sigma, 10 sigma]^n; a
     control for variance analysis, not for production use.

   The FR22 baseline draws per-element gradient blocks with the other
   axes left unblurred.
2. **Weight** each row by the kernel factor kernel / N of every element
   the block serves, divided by q.  Both are ratios to N, free of
   Gaussian normalization factors, so weights stay finite in high
   dimension.
3. **Evaluate** f once per row, through one check that aborts the
   estimate on a non-finite value.
4. **Reduce** antithetic pairs to the estimate: pair means for the odd
   gradient weights, a baseline-corrected mean for the even Hessian and
   HVP weights.

The HVP weight is the directional central difference of shifted
gradient kernels; the same draws and the same evaluations serve both
shifted gradient estimates, which is what keeps its cost at one
evaluation per pair-half.  Per call, accumulation runs in a fixed order,
so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .kernels import (
    SQRT_TWO_PI,
    ElementKind,
    ElementSet,
    KernelSpec,
    gradient_elements,
    gradient_inverse_cdf,
    hessian_elements,
)
from .samplers import (
    RngStream,
    default_hessian_diag_table,
    element_density_ratios,
    open_unit,
    sample_aggregate_offsets,
    sample_gradient_offsets,
    sample_hessian_offsets,
)


class EstimationError(RuntimeError):
    """Raised when the objective returns a non-finite value.

    Skipping bad samples would bias the estimator, so the whole estimate
    is aborted; ``point`` carries the offending evaluation location.
    """

    def __init__(self, message: str, point: np.ndarray | None = None):
        super().__init__(message)
        self.point = point


class SamplingMode(Enum):
    PER_ELEMENT = "per_element"
    AGGREGATE = "aggregate"
    UNIFORM = "uniform"

    @staticmethod
    def parse(name: str) -> "SamplingMode":
        norm = name.strip().lower().replace("-", "_")
        aliases = {
            "per_element": SamplingMode.PER_ELEMENT,
            "perelementis": SamplingMode.PER_ELEMENT,
            "per_element_is": SamplingMode.PER_ELEMENT,
            "aggregate": SamplingMode.AGGREGATE,
            "aggregateis": SamplingMode.AGGREGATE,
            "aggregate_is": SamplingMode.AGGREGATE,
            "uniform": SamplingMode.UNIFORM,
        }
        if norm not in aliases:
            raise ValueError(f"unknown sampling mode {name!r}")
        return aliases[norm]


class Objective:
    """Black-box scalar objective with an exact evaluation counter.

    ``evaluate`` may be stochastic; the counter increments exactly once
    per call.  A single instance is meant to be owned by one run; share
    across threads only if the wrapped function tolerates it.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int, name: str = ""):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._fn = fn
        self.dim = dim
        self.name = name
        self._evals = 0

    def evaluate(self, theta: np.ndarray) -> float:
        self._evals += 1
        return float(self._fn(theta))

    @property
    def eval_count(self) -> int:
        return self._evals


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration shared by the derivative estimators.

    ``samples`` counts antithetic pairs; every estimate touches 2*samples
    offsets.  ``hvp_epsilon`` defaults to 0.01 * sigma when unset: large
    enough that the kernel difference dominates MC noise, small against
    the kernel bandwidth.
    """

    spec: KernelSpec
    samples: int = 1
    hvp_epsilon: float | None = None
    mode: SamplingMode = SamplingMode.AGGREGATE

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.hvp_epsilon is not None and not (self.hvp_epsilon > 0):
            raise ValueError(f"hvp_epsilon must be > 0, got {self.hvp_epsilon}")

    def epsilon(self) -> float:
        return self.hvp_epsilon if self.hvp_epsilon is not None else 0.01 * self.spec.sigma


@dataclass(frozen=True)
class GradientEstimate:
    g: np.ndarray
    evals_used: int


@dataclass(frozen=True)
class HessianEstimate:
    h: np.ndarray
    evals_used: int


@dataclass(frozen=True)
class HvpEstimate:
    hv: np.ndarray
    direction: np.ndarray
    evals_used: int


# ---------------------------------------------------------------------------
# the estimator path: draw -> weight -> evaluate -> reduce
# ---------------------------------------------------------------------------

# (rows, served elements, their output positions, q = pdf / N per row)
_Block = tuple[np.ndarray, ElementSet, slice, np.ndarray]


def _check_theta(theta, dim: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({dim},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return theta


def _mixture_ratio(rows: np.ndarray, elements: ElementSet, sigma: float) -> np.ndarray:
    """q = pdf / N per row for the uniform mixture over ``elements`` (one element: its own density)."""
    ratios = element_density_ratios(rows, elements, sigma)
    return ratios.sum(axis=1) / ratios.shape[1]


def _draw(cfg: EstimatorConfig, rng: RngStream, elements: ElementSet) -> Iterator[_Block]:
    """Antithetic row blocks for ``cfg.mode``; the only stage that knows the mode."""
    spec, count = cfg.spec, cfg.samples
    if cfg.mode is SamplingMode.PER_ELEMENT:
        for k, (elem, single) in enumerate(zip(elements, elements.singles)):
            if elem.kind is ElementKind.GRADIENT:
                pair = sample_gradient_offsets(elem.i, spec, rng, count)
            else:
                pair = sample_hessian_offsets(elem, spec, default_hessian_diag_table(), rng, count)
            rows = np.concatenate(pair)
            yield rows, single, slice(k, k + 1), _mixture_ratio(rows, single, spec.sigma)
    elif cfg.mode is SamplingMode.AGGREGATE:
        pair = sample_aggregate_offsets(elements, spec, default_hessian_diag_table(), rng, count)
        rows = np.concatenate(pair)
        yield rows, elements, slice(None), _mixture_ratio(rows, elements, spec.sigma)
    else:
        sigma = spec.sigma
        taus = (rng.uniform((count, spec.dim)) * 2.0 - 1.0) * (10.0 * sigma)
        rows = np.concatenate((taus, -taus))
        # uniform density over N, normalizations folded into one exponent;
        # rows far out in high dimension overflow to q = inf, i.e. weight 0
        with np.errstate(over="ignore"):
            q = np.exp(np.sum(rows * rows, axis=1) / (2.0 * sigma * sigma)
                       - spec.dim * math.log(20.0 / SQRT_TWO_PI))
        yield rows, elements, slice(None), q


def _draw_axis_blur(cfg: EstimatorConfig, rng: RngStream, elements: ElementSet) -> Iterator[_Block]:
    """FR22 draws: per-element gradient blocks that blur only their own axis."""
    spec, count = cfg.spec, cfg.samples
    for k, single in enumerate(elements.singles):
        u = gradient_inverse_cdf(open_unit(rng.uniform(count)), spec.sigma)
        rows = np.zeros((2 * count, spec.dim))
        rows[:count, k] = u
        rows[count:, k] = -u
        yield rows, single, slice(k, k + 1), _mixture_ratio(rows, single, spec.sigma)


def _weighted(blocks: Iterator[_Block], factor) -> Iterator[tuple[np.ndarray, slice, np.ndarray]]:
    """Weight stage: kernel factor (kernel / N) over q, per row and served element."""
    for rows, elements, pos, q in blocks:
        yield rows, pos, factor(rows, elements) / q[:, None]


def _evaluate(obj: Objective, point: np.ndarray) -> float:
    v = obj.evaluate(point)
    if not math.isfinite(v):
        raise EstimationError(f"objective returned non-finite value {v} at {point}", point=point)
    return v


def _reduce_blocks(obj: Objective, theta: np.ndarray, weighted, reduce, size: int) -> np.ndarray:
    """Evaluate f(theta - row) for every row and reduce each block into its positions."""
    out = np.empty(size)
    for rows, pos, weights in weighted:
        vals = np.array([_evaluate(obj, theta - row) for row in rows])
        out[pos] = reduce(vals, weights)
    return out


def _pair_mean(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Collapse mirrored rows pairwise, then average over pairs.

    Fixes the reduction order: each antithetic pair combines before any
    cross-pair summation, so odd-weight cancellations are exact.
    """
    per_row = vals[:, None] * weights
    m = per_row.shape[0] // 2
    return (0.5 * (per_row[:m] + per_row[m:])).sum(axis=0) / m


def _even_weight_estimate(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Baseline-corrected mean for estimators with even (pair-symmetric) weights.

    Hessian and HVP weights are even in tau, so a pair contributes
    (pair value) * (pair weight) and the objective's absolute level does
    not cancel between mirrored samples the way it does for gradients.
    Each pair's value is therefore centered against the mean of the other
    pairs; the weights integrate to zero and pairs are independent, so
    the correction is exactly unbiased while removing the dominant
    value-level variance term.  A constant objective yields exactly zero
    once there are at least two pairs.
    """
    pairs = len(vals) // 2
    pv = 0.5 * (vals[:pairs] + vals[pairs:])
    w = 0.5 * (weights[:pairs] + weights[pairs:])
    if pairs == 1:
        return pv[0] * w[0]
    return ((pv - pv.mean()) @ w) / (pairs - 1)


def _gradient_factor(rows: np.ndarray, elements: ElementSet, sigma: float) -> np.ndarray:
    return -rows[:, elements.i] / sigma ** 2


def _hessian_factor(rows: np.ndarray, elements: ElementSet, sigma: float) -> np.ndarray:
    s2 = sigma * sigma
    out = np.empty((rows.shape[0], len(elements)))
    for kind, pos, i, j in elements.groups:
        u = rows[:, i]
        if kind is ElementKind.HESSIAN_DIAG:
            out[:, pos] = (u - sigma) * (u + sigma) / (s2 * s2)
        else:
            out[:, pos] = u * rows[:, j] / (s2 * s2)
    return out


def _hvp_factor(rows: np.ndarray, elements: ElementSet, sigma: float, v: np.ndarray, eps: float) -> np.ndarray:
    """Directional difference of shifted gradient kernels over N.

    (grad-kernel(tau + eps v) - grad-kernel(tau - eps v)) / (2 eps N(tau))
    for the served axes; over q it equals the central difference of the
    two shifted smoothed-gradient estimators computed from one shared set
    of draws and evaluations.
    """
    s2 = sigma * sigma
    tv = rows @ v
    vv = float(v @ v)
    r_plus = np.exp(-(2.0 * eps * tv + eps * eps * vv) / (2.0 * s2))[:, None]
    r_minus = np.exp(-(-2.0 * eps * tv + eps * eps * vv) / (2.0 * s2))[:, None]
    u = rows[:, elements.i]
    ev = eps * v[elements.i]
    return (-(u + ev) * r_plus + (u - ev) * r_minus) / (2.0 * eps * s2)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _gradient(obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream, draw) -> GradientEstimate:
    n = cfg.spec.dim
    theta = _check_theta(theta, n)
    start = obj.eval_count
    elements = gradient_elements(n)
    weighted = _weighted(draw(cfg, rng, elements), partial(_gradient_factor, sigma=cfg.spec.sigma))
    g = _reduce_blocks(obj, theta, weighted, _pair_mean, n)
    return GradientEstimate(g=g, evals_used=obj.eval_count - start)


def estimate_gradient(
    obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream
) -> GradientEstimate:
    """Unbiased estimate of the sigma-smoothed gradient at ``theta``."""
    return _gradient(obj, theta, cfg, rng, _draw)


def estimate_gradient_fr22(
    obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream
) -> GradientEstimate:
    """Single-axis-blur gradient baseline.

    Each dimension's offset perturbs only that coordinate, so one
    evaluation serves one dimension; distributionally identical to
    ``estimate_gradient`` at dim == 1.
    """
    return _gradient(obj, theta, cfg, rng, _draw_axis_blur)


def estimate_gradient_fd(obj: Objective, theta: np.ndarray, step: float) -> GradientEstimate:
    """Classic central-difference gradient; 2n evaluations."""
    if not (step > 0):
        raise ValueError(f"step must be > 0, got {step}")
    theta = _check_theta(theta, obj.dim)
    start = obj.eval_count
    g = np.empty(obj.dim)
    for i in range(obj.dim):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (_evaluate(obj, hi) - _evaluate(obj, lo)) / (2.0 * step)
    return GradientEstimate(g=g, evals_used=obj.eval_count - start)


def estimate_hessian(
    obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream
) -> HessianEstimate:
    """Unbiased estimate of the sigma-smoothed Hessian at ``theta``.

    Only the diagonal and upper triangle are sampled; the lower triangle
    is mirrored, so the result is symmetric exactly.
    """
    n = cfg.spec.dim
    theta = _check_theta(theta, n)
    start = obj.eval_count
    elements = hessian_elements(n)
    weighted = _weighted(_draw(cfg, rng, elements), partial(_hessian_factor, sigma=cfg.spec.sigma))
    values = _reduce_blocks(obj, theta, weighted, _even_weight_estimate, len(elements))
    h = np.zeros((n, n))
    h[elements.i, elements.j] = values
    h[elements.j, elements.i] = values
    return HessianEstimate(h=h, evals_used=obj.eval_count - start)


def estimate_hvp(
    obj: Objective, theta: np.ndarray, v: np.ndarray, cfg: EstimatorConfig, rng: RngStream
) -> HvpEstimate:
    """Unbiased estimate of the smoothed Hessian applied to direction ``v``.

    Computed as the difference of gradient estimates at theta + eps*v and
    theta - eps*v under common random numbers: both shifted estimates
    share the same offset draws and the same function evaluations, so the
    cost matches a single gradient estimate.

    The product is linear in v, so the kernels are shifted along the unit
    direction and the result rescaled by ||v||; this keeps eps*||v||
    small against the bandwidth no matter how large a direction the
    caller passes.
    """
    n = cfg.spec.dim
    theta = _check_theta(theta, n)
    v_raw = np.asarray(v, dtype=float)
    if v_raw.shape != (n,):
        raise ValueError(f"direction has shape {v_raw.shape}, expected ({n},)")
    if not np.any(v_raw != 0.0):
        raise ValueError("direction must be nonzero")
    v_scale = float(np.linalg.norm(v_raw))
    start = obj.eval_count
    factor = partial(_hvp_factor, sigma=cfg.spec.sigma, v=v_raw / v_scale, eps=cfg.epsilon())
    weighted = _weighted(_draw(cfg, rng, gradient_elements(n)), factor)
    hv = _reduce_blocks(obj, theta, weighted, _even_weight_estimate, n)
    return HvpEstimate(hv=v_scale * hv, direction=v_raw, evals_used=obj.eval_count - start)


# ---------------------------------------------------------------------------
# grey-box composition
# ---------------------------------------------------------------------------

def greybox_gradient(inner_jacobian: np.ndarray, outer_grad: GradientEstimate) -> GradientEstimate:
    """Chain rule through a known inner map: J^T g.

    The sampled gradient handles only the black-box outer function; the
    white-box inner Jacobian composes analytically.
    """
    jac = np.asarray(inner_jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != outer_grad.g.shape[0]:
        raise ValueError(f"jacobian shape {jac.shape} does not match gradient length {outer_grad.g.shape}")
    return GradientEstimate(g=jac.T @ outer_grad.g, evals_used=outer_grad.evals_used)


def greybox_hessian(inner_jacobian: np.ndarray, outer_hess: HessianEstimate) -> HessianEstimate:
    """Gauss-Newton-style composition J^T H J; symmetric by construction."""
    jac = np.asarray(inner_jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != outer_hess.h.shape[0]:
        raise ValueError(f"jacobian shape {jac.shape} does not match hessian shape {outer_hess.h.shape}")
    h = jac.T @ outer_hess.h @ jac
    h = 0.5 * (h + h.T)
    return HessianEstimate(h=h, evals_used=outer_hess.evals_used)
