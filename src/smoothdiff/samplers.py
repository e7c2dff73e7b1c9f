"""Offset sampling for the positivized derivative-kernel densities.

Each derivative-kernel element induces a sampling density over offset
vectors: the differentiated axis follows the positivized kernel (exact
inverse-CDF for gradients, a tabulated inverse for the transcendental
Hessian-diagonal CDF) and the remaining axes stay Gaussian.  Aggregate
sampling draws one offset from the uniform mixture of all element
densities so a single function evaluation can serve every element.

All sampling is driven by ``RngStream``, a counter-based generator:
identical (seed, stream_id, draw sequence) reproduces identical samples
bit-exactly, and distinct stream ids give independent streams that are
safe to use concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    SQRT_TWO_PI,
    ElementKind,
    ElementSet,
    KernelElement,
    KernelSpec,
    gaussian_pdf_1d,
    gradient_inverse_cdf,
    gradient_pdf,
    hessian_diag_cdf,
    hessian_diag_pdf,
)

_MASK64 = (1 << 64) - 1
_TINY = np.finfo(float).tiny


@dataclass
class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Backed by the counter-based Philox generator, so streams with
    different ids are statistically independent and reproducible under
    parallel execution.  The stream is stateful: draws advance it, and a
    freshly constructed stream with the same address replays the same
    sequence.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, high: int, size=None):
        return self._gen.integers(0, high, size=size)


@dataclass(frozen=True)
class TabulatedInverseCdf:
    """Tabulated inverse of the Hessian-diagonal CDF on [-10, 10] (sigma=1).

    The CDF is transcendental, so the inverse is found by binary search
    over precomputed CDF values plus linear interpolation between grid
    points.  Immutable and safe to share between threads.
    """

    grid: np.ndarray
    cdf_values: np.ndarray
    resolution: int

    def lookup(self, xi):
        """Map uniform variates to offsets with cdf(lookup(xi)) ~= xi."""
        xi_arr = np.asarray(xi, dtype=float)
        idx = np.clip(np.searchsorted(self.cdf_values, xi_arr), 1, self.resolution - 1)
        c0 = self.cdf_values[idx - 1]
        c1 = self.cdf_values[idx]
        # cells may collapse where the CDF saturates in float64 at the tails
        width = np.where(c1 > c0, c1 - c0, 1.0)
        frac = np.clip((xi_arr - c0) / width, 0.0, 1.0)
        out = self.grid[idx - 1] + frac * (self.grid[idx] - self.grid[idx - 1])
        if np.isscalar(xi) or np.asarray(xi).ndim == 0:
            return float(out)
        return out


def build_hessian_diag_table(resolution: int = 8192) -> TabulatedInverseCdf:
    """Tabulate the Hessian-diagonal CDF for O(log) inverse lookups.

    The table spans 10 sigma in normalized units; the truncated tail mass
    is below 1e-20 and is not corrected for.
    """
    if resolution < 1024:
        raise ValueError(f"resolution must be >= 1024, got {resolution}")
    grid = np.linspace(-10.0, 10.0, resolution)
    cdf = hessian_diag_cdf(grid, 1.0)
    if not np.all(np.diff(cdf) >= 0):
        raise AssertionError("tabulated CDF is not nondecreasing")
    if cdf[0] > 1e-9 or cdf[-1] < 1.0 - 1e-9:
        raise AssertionError("tabulated CDF endpoints out of tolerance")
    return TabulatedInverseCdf(grid=grid, cdf_values=cdf, resolution=resolution)


_DEFAULT_TABLE: TabulatedInverseCdf | None = None


def default_hessian_diag_table() -> TabulatedInverseCdf:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = build_hessian_diag_table()
    return _DEFAULT_TABLE


# ---------------------------------------------------------------------------
# per-element densities
# ---------------------------------------------------------------------------

def element_pdf(tau, element: KernelElement, spec: KernelSpec) -> float:
    """Sampling density of one element at a given offset vector.

    Product of the positivized density along the element's own axes and
    plain Gaussians along all other axes.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (spec.dim,):
        raise ValueError(f"offset has shape {tau.shape}, expected ({spec.dim},)")
    element.check_index_bounds(spec.dim)
    s = spec.sigma
    dens = np.prod(gaussian_pdf_1d(tau, s))
    for idx in element.indices():
        axis = gaussian_pdf_1d(tau[idx], s)
        if element.kind is ElementKind.HESSIAN_DIAG:
            dens *= hessian_diag_pdf(tau[idx], s) / axis
        else:
            dens *= gradient_pdf(tau[idx], s) / axis
    return float(dens)


def mixture_pdf(tau, elements: Sequence[KernelElement], spec: KernelSpec) -> float:
    """Uniform mixture density over a set of elements."""
    if not elements:
        raise ValueError("mixture requires a nonempty element list")
    return sum(element_pdf(tau, e, spec) for e in elements) / len(elements)


def element_density_ratios(taus: np.ndarray, elements: Sequence[KernelElement], sigma: float) -> np.ndarray:
    """Ratios element_pdf / gaussian_pdf for a batch of offsets, shape (S, K).

    The ratios involve no exponentials, which keeps mixture weights
    stable in high dimension where the Gaussian factor under- or
    overflows.
    """
    elements = ElementSet.of(elements)
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    out = np.empty((taus.shape[0], len(elements)))
    grad_scale = SQRT_TWO_PI / (2.0 * sigma)
    hess_scale = SQRT_TWO_PI * math.exp(0.5) / (4.0 * sigma * sigma)
    for kind, pos, i, j in elements.groups:
        u = taus[:, i]
        if kind is ElementKind.GRADIENT:
            out[:, pos] = np.abs(u) * grad_scale
        elif kind is ElementKind.HESSIAN_DIAG:
            out[:, pos] = np.abs((u - sigma) * (u + sigma)) * hess_scale
        else:
            out[:, pos] = (np.abs(u) * grad_scale) * (np.abs(taus[:, j]) * grad_scale)
    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
#
# Every sampler returns the antithetic pair (taus, -taus) of (count, dim)
# offset blocks.  All sampling densities are even, so the mirrored block
# is drawn from the same density.

def sample_gradient_offsets(i: int, spec: KernelSpec, rng: RngStream, count: int):
    """Batch of offsets for gradient element i.

    Axis i follows the positivized gradient density via the exact inverse
    CDF; all other axes are Gaussian.

    Draw order: ``count`` uniforms for axis i, then the Gaussian block.
    """
    if not (0 <= i < spec.dim):
        raise ValueError(f"axis index {i} out of range for dim {spec.dim}")
    special = gradient_inverse_cdf(open_unit(rng.uniform(count)), spec.sigma)
    others = rng.normal((count, spec.dim - 1)) * spec.sigma
    taus = np.empty((count, spec.dim))
    taus[:, :i] = others[:, :i]
    taus[:, i] = special
    taus[:, i + 1:] = others[:, i:]
    return taus, -taus


def sample_hessian_offsets(
    elem: KernelElement,
    spec: KernelSpec,
    table: TabulatedInverseCdf,
    rng: RngStream,
    count: int,
):
    """Batch of offsets for one Hessian element.

    Diagonal axes use the tabulated inverse CDF scaled by sigma;
    off-diagonal elements draw both axes independently from the gradient
    density.
    """
    elem.check_index_bounds(spec.dim)
    s = spec.sigma
    taus = rng.normal((count, spec.dim)) * s
    if elem.kind is ElementKind.HESSIAN_DIAG:
        taus[:, elem.i] = table.lookup(open_unit(rng.uniform(count))) * s
    elif elem.kind is ElementKind.HESSIAN_OFF_DIAG:
        taus[:, elem.i] = gradient_inverse_cdf(open_unit(rng.uniform(count)), s)
        taus[:, elem.j] = gradient_inverse_cdf(open_unit(rng.uniform(count)), s)
    else:
        raise ValueError(f"expected a Hessian element, got {elem.kind}")
    return taus, -taus


def sample_aggregate_offsets(
    elements: Sequence[KernelElement],
    spec: KernelSpec,
    table: TabulatedInverseCdf,
    rng: RngStream,
    count: int,
):
    """Batch of offsets from the uniform mixture over ``elements``.

    One draw serves every element's estimator term; the density to weight
    it by is the full mixture density (1/K) * sum_k pdf_k(tau), not the
    chosen component's density.

    Draw order per batch: element choices, the Gaussian base block, then
    two uniform blocks for the special axes (consumed unconditionally so
    the stream layout does not depend on the choices).
    """
    if not elements:
        raise ValueError("aggregate sampling requires a nonempty element list")
    elements = ElementSet.of(elements)
    choices = rng.integers(len(elements), count)
    s = spec.sigma
    taus = rng.normal((count, spec.dim)) * s
    xi_a = open_unit(rng.uniform(count))
    xi_b = open_unit(rng.uniform(count))
    group, axis_i, axis_j = elements.group[choices], elements.i[choices], elements.j[choices]
    for g, (kind, _, _, _) in enumerate(elements.groups):
        rows = np.flatnonzero(group == g)
        if not rows.size:
            continue
        if kind is ElementKind.HESSIAN_DIAG:
            taus[rows, axis_i[rows]] = table.lookup(xi_a[rows]) * s
        else:
            taus[rows, axis_i[rows]] = gradient_inverse_cdf(xi_a[rows], s)
        if kind is ElementKind.HESSIAN_OFF_DIAG:
            taus[rows, axis_j[rows]] = gradient_inverse_cdf(xi_b[rows], s)
    return taus, -taus


def open_unit(xi: np.ndarray) -> np.ndarray:
    """Clip uniforms strictly inside (0, 1) for the inverse CDFs."""
    return np.minimum(np.maximum(xi, _TINY), 1.0 - 1e-16)
