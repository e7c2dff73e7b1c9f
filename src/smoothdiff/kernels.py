"""Gaussian smoothing kernels and their derivative families.

Smoothing a black-box objective by convolution with an isotropic Gaussian
makes it differentiable; the derivatives of the smoothed objective are
convolutions of the objective with *derivative kernels* of the Gaussian.
This module provides the closed forms of those kernels (first derivative,
Hessian diagonal and off-diagonal), the positivized and normalized
probability densities built from them, their CDFs, and the exact inverse
CDF of the first-derivative density.

Everything here is a pure function of its arguments.  Scalar-offset
functions (``gradient_pdf``, ``hessian_diag_cdf``, ...) accept numpy
arrays and broadcast elementwise.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def fixed_operand(x: float) -> np.ndarray:
    """``x`` as a read-only 0-d float64 array.

    A ufunc takes a 0-d array operand faster than a Python float, for the
    same float64 arithmetic, so the per-call hot paths hold their
    constants this way.
    """
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_ZERO, _HALF, _ONE, _TWO, _MINUS_TWO = map(fixed_operand, (0.0, 0.5, 1.0, 2.0, -2.0))


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic Gaussian smoothing kernel: per-axis deviation and dimension.

    The n-dimensional kernel factorizes into a product of identical 1D
    Gaussians with standard deviation ``sigma`` along every axis.
    Degenerate bandwidths are rejected at construction rather than
    clamped; silent clamping would hide scheduling bugs in annealing.
    """

    sigma: float
    dim: int

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


class ElementKind(Enum):
    GRADIENT = "gradient"
    HESSIAN_DIAG = "hessian_diag"
    HESSIAN_OFF_DIAG = "hessian_off_diag"


@dataclass(frozen=True)
class KernelElement:
    """One element of a derivative-kernel family.

    Off-diagonal Hessian elements are symmetric; (i, j) and (j, i) are
    normalized to the same element at construction.
    """

    kind: ElementKind
    i: int = -1
    j: int = -1

    @staticmethod
    def gradient(i: int) -> "KernelElement":
        return KernelElement(ElementKind.GRADIENT, i)

    @staticmethod
    def hessian_diag(i: int) -> "KernelElement":
        return KernelElement(ElementKind.HESSIAN_DIAG, i)

    @staticmethod
    def hessian_off_diag(i: int, j: int) -> "KernelElement":
        if i == j:
            raise ValueError("off-diagonal element requires i != j")
        lo, hi = (i, j) if i < j else (j, i)
        return KernelElement(ElementKind.HESSIAN_OFF_DIAG, lo, hi)

    def check_index_bounds(self, dim: int) -> None:
        for idx in self.indices():
            if not (0 <= idx < dim):
                raise ValueError(f"element index {idx} out of range for dim {dim}")

    def indices(self) -> tuple[int, ...]:
        if self.kind is ElementKind.HESSIAN_OFF_DIAG:
            return (self.i, self.j)
        return (self.i,)


class ElementSet(tuple):
    """An ordered, immutable tuple of kernel elements, also held as index arrays.

    ``i`` and ``j`` give every element's axes (``j == i`` for single-axis
    elements) and ``group`` the position of its kind in ``groups``.  Each
    entry of ``groups`` is ``(kind, positions, i, j)`` for one kind present,
    so work done per element runs as one numpy call per kind.
    """

    def __init__(self, elements: Iterable[KernelElement]):
        # the tuple already holds the elements; a generator is spent by now
        self.i = np.array([e.i for e in self], dtype=np.intp)
        self.j = np.array([e.indices()[-1] for e in self], dtype=np.intp)
        self.group = np.empty(len(self), dtype=np.intp)
        # i <= j for every element, so an axis leaves [0, dim) exactly when one of these does
        self._lowest, self._highest = int(self.i.min(initial=0)), int(self.j.max(initial=0))
        groups = []
        for kind in ElementKind:
            pos = np.flatnonzero([e.kind is kind for e in self])
            if pos.size:
                self.group[pos] = len(groups)
                groups.append((kind, pos, self.i[pos], self.j[pos]))
        self.groups = tuple(groups)
        # sets are shared through the caches below, so their arrays stay read-only
        for arr in (self.i, self.j, self.group, *(a for g in groups for a in g[1:])):
            arr.flags.writeable = False

    def check_index_bounds(self, dim: int) -> None:
        """ValueError unless every element's axes lie in [0, dim)."""
        if self._lowest < 0 or self._highest >= dim:
            raise ValueError(f"element index out of range for dim {dim}")

    @staticmethod
    def of(elements: Sequence[KernelElement]) -> "ElementSet":
        return elements if isinstance(elements, ElementSet) else ElementSet(elements)


@functools.lru_cache(maxsize=None)
def row_index(count: int) -> np.ndarray:
    """``np.arange(count)``, read-only and shared: the index of a block's ``count`` rows."""
    rows = np.arange(count)
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def gradient_elements(dim: int) -> ElementSet:
    """All gradient-kernel elements of an n-dimensional problem."""
    return ElementSet(KernelElement.gradient(i) for i in range(dim))


@functools.lru_cache(maxsize=None)
def hessian_elements(dim: int) -> ElementSet:
    """Unique Hessian elements: the diagonal plus the upper triangle.

    The lower triangle is recovered by symmetry and never sampled.
    """
    elems = [KernelElement.hessian_diag(i) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            elems.append(KernelElement.hessian_off_diag(i, j))
    return ElementSet(elems)


# ---------------------------------------------------------------------------
# 1D building blocks (vectorized over the offset argument)
# ---------------------------------------------------------------------------

def gaussian_pdf_1d(u, sigma: float):
    """Density of the 1D Gaussian N(0, sigma^2)."""
    u = np.asarray(u, dtype=float)
    return np.exp(-u * u / (2.0 * sigma * sigma)) / (sigma * SQRT_TWO_PI)


def gaussian_cdf_1d(u, sigma: float):
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)(u / (sigma * math.sqrt(2.0))))


def gradient_partition(sigma: float) -> float:
    """Total mass of |d/du N(u; sigma)|, i.e. the positivization constant.

    Equals 2/(sigma*sqrt(2*pi)); its reciprocal is also the constant
    magnitude of the importance weight kernel/pdf for per-axis gradient
    sampling.
    """
    return 2.0 / (sigma * SQRT_TWO_PI)


def hessian_diag_scale(sigma: float) -> float:
    """Scale factor making the positivized |d^2/du^2 N| integrate to one.

    Chosen so the resulting CDF equals 1/4 at u = -sigma, where the
    second-derivative kernel changes sign.  Closed form
    sigma^2 * sqrt(2*pi) * e^(1/2) / 4.
    """
    return sigma * sigma * SQRT_TWO_PI * math.exp(0.5) / 4.0


# ---------------------------------------------------------------------------
# kernels (n-dimensional)
# ---------------------------------------------------------------------------

def _check_tau(tau, spec: KernelSpec) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if tau.ndim == 0:
        tau = tau.reshape(1)
    if tau.shape != (spec.dim,):
        raise ValueError(f"offset has shape {tau.shape}, expected ({spec.dim},)")
    return tau


def gaussian_pdf(tau, spec: KernelSpec) -> float:
    """Isotropic n-dimensional Gaussian density at offset ``tau``.

    Factorizes as the product of per-axis 1D densities.
    """
    tau = _check_tau(tau, spec)
    s2 = spec.sigma * spec.sigma
    return float(math.exp(-0.5 * float(tau @ tau) / s2) / (spec.sigma * SQRT_TWO_PI) ** spec.dim)


def gradient_kernel(tau, i: int, spec: KernelSpec) -> float:
    """First-derivative kernel along axis i:  -tau_i / sigma^2 * N(tau)."""
    tau = _check_tau(tau, spec)
    if not (0 <= i < spec.dim):
        raise ValueError(f"axis index {i} out of range for dim {spec.dim}")
    return float(-tau[i] / spec.sigma ** 2 * gaussian_pdf(tau, spec))


def hessian_kernel(tau, elem: KernelElement, spec: KernelSpec) -> float:
    """Second-derivative kernel for one Hessian element.

    Diagonal:     (tau_i^2 - sigma^2) / sigma^4 * N(tau), with exact
                  roots at tau_i = +-sigma (the factored form keeps the
                  roots exact in floating point).
    Off-diagonal: tau_i * tau_j / sigma^4 * N(tau).
    """
    tau = _check_tau(tau, spec)
    elem.check_index_bounds(spec.dim)
    s = spec.sigma
    if elem.kind is ElementKind.HESSIAN_DIAG:
        factor = (tau[elem.i] - s) * (tau[elem.i] + s) / s ** 4
    elif elem.kind is ElementKind.HESSIAN_OFF_DIAG:
        factor = tau[elem.i] * tau[elem.j] / s ** 4
    else:
        raise ValueError(f"hessian_kernel requires a Hessian element, got {elem.kind}")
    return float(factor * gaussian_pdf(tau, spec))


def axis_blur_gradient_kernel(u, sigma: float):
    """Gradient kernel that blurs only along the differentiated axis.

    The single-axis baseline: -u / sigma^2 * N(u; sigma) with a 1D
    Gaussian.  Coincides with ``gradient_kernel`` for dim == 1.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    return -u / sigma ** 2 * gaussian_pdf_1d(u, sigma)


# ---------------------------------------------------------------------------
# positivized densities and CDFs
# ---------------------------------------------------------------------------

def gradient_pdf(u, sigma: float):
    """Normalized positivized first-derivative density.

    p(u) = |u| / (2 sigma^2) * exp(-u^2 / (2 sigma^2)); integrates to 1.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    return np.abs(u) / (2.0 * sigma * sigma) * np.exp(-u * u / (2.0 * sigma * sigma))


def gradient_cdf(u, sigma: float):
    """CDF of ``gradient_pdf``:  0.5*exp(-u^2/2s^2) for u <= 0, mirrored above."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    half = 0.5 * np.exp(-u * u / (2.0 * sigma * sigma))
    return np.where(u <= 0.0, half, 1.0 - half)


def gradient_inverse_cdf(xi, sigma: float):
    """Exact inverse of ``gradient_cdf``.

    u = -sigma*sqrt(-2 ln(2 xi))       for xi <= 1/2
    u = +sigma*sqrt(-2 ln(2 (1-xi)))   for xi >  1/2

    Monotone nondecreasing, antisymmetric about xi = 1/2, and scales
    exactly linearly in sigma.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    xi_arr = np.asarray(xi, dtype=float)
    # one new array, worked in place: the mass beyond u on the nearer side,
    # halved, then |u| / sigma, then u
    out = np.subtract(_ONE, xi_arr, np.empty(xi_arr.shape))
    tail = np.minimum(xi_arr, out, out=out)
    # a NaN fails the comparison too
    if np.count_nonzero(tail > _ZERO) < tail.size:
        raise ValueError(f"xi must lie in the open interval (0, 1), got {xi}")
    out *= _TWO
    np.log(out, out)
    out *= _MINUS_TWO
    np.sqrt(out, out)
    # the sign of xi - 1/2: negative below the median, +0.0 at it, where |u| is -0.0
    np.copysign(out, xi_arr - _HALF, out)
    out *= sigma
    return float(out) if xi_arr.ndim == 0 else out


def hessian_diag_pdf(u, sigma: float):
    """Normalized positivized second-derivative density (diagonal case)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    u = np.asarray(u, dtype=float)
    beta = hessian_diag_scale(sigma)
    return beta * np.abs((u - sigma) * (u + sigma)) / sigma ** 4 * gaussian_pdf_1d(u, sigma)


def hessian_diag_cdf(u, sigma: float):
    """CDF of the positivized second-derivative density, in three branches.

    -(u/4s) exp(1/2 - u^2/2s^2)        for u < -sigma
    1/2 + (u/4s) exp(1/2 - u^2/2s^2)   for -sigma <= u <= sigma
    1 - (u/4s) exp(1/2 - u^2/2s^2)     for u > sigma

    Continuous and nondecreasing with value exactly 1/4 at u = -sigma
    and 3/4 at u = +sigma.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    scalar = np.isscalar(u) or np.asarray(u).ndim == 0
    t = np.asarray(u, dtype=float) / sigma
    with np.errstate(invalid="ignore", over="ignore"):
        core = t / 4.0 * np.exp(0.5 - t * t / 2.0)
    core = np.where(np.isfinite(core), core, 0.0)  # tail term vanishes at +-inf
    out = np.where(t < -1.0, -core, np.where(t <= 1.0, 0.5 + core, 1.0 - core))
    return float(out) if scalar else out
