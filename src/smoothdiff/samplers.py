"""Offset sampling for the positivized derivative-kernel densities.

Each derivative-kernel element induces a sampling density over offset
vectors: the differentiated axis follows the positivized kernel (exact
inverse-CDF for gradients, a tabulated inverse for the transcendental
Hessian-diagonal CDF) and the remaining axes stay Gaussian.  Aggregate
sampling draws one offset from the uniform mixture of all element
densities so a single function evaluation can serve every element.
The per-element samplers also draw the blocks of many elements in one
call: one Gaussian block for all of them and one block of uniforms for
their special axes, with everything after the draws run once over the
stacked blocks.

All sampling is driven by ``RngStream``, an SFC64 generator seeded
through ``SeedSequence`` with the stream id as its spawn key: identical
(seed, stream_id, draw sequence) reproduces identical samples
bit-exactly, and distinct (seed, stream_id) addresses give independent
streams that are safe to use concurrently.
"""

from __future__ import annotations

import functools
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
    fixed_operand,
    gaussian_pdf_1d,
    gradient_elements,
    gradient_inverse_cdf,
    gradient_pdf,
    hessian_diag_cdf,
    hessian_diag_pdf,
    row_index,
)

_MASK64 = (1 << 64) - 1
# open_unit's bounds, and the unit interval's
_TINY, _BELOW_ONE = fixed_operand(np.finfo(float).tiny), fixed_operand(1.0 - 1e-16)
_ZERO, _ONE = fixed_operand(0.0), fixed_operand(1.0)


@dataclass
class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Backed by SFC64, seeded by ``SeedSequence(seed, spawn_key=(stream_id,))``.
    The seed is padded to the sequence's fixed pool before the spawn key is
    appended, so distinct addresses hash distinct words; the shorter
    ``SeedSequence([seed, stream_id])`` would pad ``(2**32, 0)`` and
    ``(0, 1)`` to the same words.  Streams with different addresses are
    statistically independent and reproducible under parallel execution.
    Both parts are taken modulo 2**64, so -1 addresses as 2**64 - 1.  The
    stream is stateful: draws advance it, and a freshly constructed stream
    with the same address replays the same sequence.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        # int(): a numpy integer would mask in its own fixed width and overflow
        seq = np.random.SeedSequence(int(self.seed) & _MASK64,
                                     spawn_key=(int(self.stream_id) & _MASK64,))
        self._gen = np.random.Generator(np.random.SFC64(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self, size=None):
        """Uniforms on [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None):
        """Standard normals."""
        return self._gen.standard_normal(size)


@dataclass(frozen=True)
class TabulatedInverseCdf:
    """Tabulated inverse of the Hessian-diagonal CDF on [-10, 10] (sigma=1).

    The CDF is transcendental, so the inverse interpolates linearly
    between grid points over the tabulated CDF values.  Immutable and
    safe to share between threads.
    """

    grid: np.ndarray
    cdf_values: np.ndarray

    def __post_init__(self):
        if np.shape(self.cdf_values) != np.shape(self.grid):
            raise ValueError(f"cdf_values has shape {np.shape(self.cdf_values)}, "
                             f"grid {np.shape(self.grid)}")

    @property
    def resolution(self) -> int:
        """Grid points in the table."""
        return len(self.grid)

    def lookup(self, xi):
        """Map uniform variates in [0, 1] to offsets with cdf(lookup(xi)) ~= xi."""
        xi_arr = np.asarray(xi, dtype=float)
        # a NaN fails both comparisons
        inside = xi_arr >= _ZERO
        inside &= xi_arr <= _ONE
        if np.count_nonzero(inside) < xi_arr.size:
            raise ValueError(f"xi must lie in [0, 1], got {xi}")
        # The table is non-decreasing, not increasing: 666 cells of the right
        # tail are flat where the CDF reaches 1 in float64.  np.interp returns
        # the right end of such a run and never divides by a flat cell's width.
        out = np.interp(xi_arr, self.cdf_values, self.grid)
        return float(out) if xi_arr.ndim == 0 else out


def build_hessian_diag_table() -> TabulatedInverseCdf:
    """Tabulate the Hessian-diagonal CDF at 8192 points for the inverse lookups.

    The table spans 10 sigma in normalized units; the truncated tail mass
    is below 1e-20 and is not corrected for.
    """
    grid = np.linspace(-10.0, 10.0, 8192)
    cdf = hessian_diag_cdf(grid, 1.0)
    if not np.all(np.diff(cdf) >= 0):
        raise AssertionError("tabulated CDF is not nondecreasing")
    if cdf[0] > 1e-9 or cdf[-1] < 1.0 - 1e-9:
        raise AssertionError("tabulated CDF endpoints out of tolerance")
    return TabulatedInverseCdf(grid=grid, cdf_values=cdf)


@functools.lru_cache(maxsize=None)
def default_hessian_diag_table() -> TabulatedInverseCdf:
    return build_hessian_diag_table()


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
    """Ratios element_pdf / gaussian_pdf for a batch of offsets.

    A batch of shape (S, dim) is taken against every element, giving shape
    (S, K).  Stacked blocks of shape (K, S, dim) are taken block k against
    element k, giving shape (K, S).
    """
    elements = ElementSet.of(elements)
    taus = np.asarray(taus, dtype=float)
    stacked = taus.ndim == 3
    if stacked:
        if len(taus) != len(elements):
            raise ValueError(f"{len(taus)} stacked blocks for {len(elements)} elements")
    elif taus.ndim < 2:
        taus = np.atleast_2d(taus)

    def ratios(kind, pos, i, j):
        # shape (len(pos), S) for stacked blocks, (S, len(pos)) for one batch;
        # both C-ordered, since summing a batch's ratios over elements follows
        # memory order.  Each gather is a new array, which _ratios_into overwrites.
        u = taus[pos, :, i] if stacked else taus.take(i, axis=1)
        w = None
        if kind is ElementKind.HESSIAN_OFF_DIAG:
            w = taus[pos, :, j] if stacked else taus.take(j, axis=1)
        return _ratios_into(kind, u, w, sigma)

    if len(elements.groups) == 1:
        return ratios(*elements.groups[0])
    out = np.empty(taus.shape[:2] if stacked else (taus.shape[0], len(elements)))
    for group in elements.groups:
        pos = group[1]
        if stacked:
            out[pos] = ratios(*group)
        else:
            out[:, pos] = ratios(*group)
    return out


def _ratios_into(kind: ElementKind, u: np.ndarray, w: np.ndarray | None, sigma: float) -> np.ndarray:
    """element_pdf / gaussian_pdf, written into ``u``, the element's values on its axis i.

    ``w``, an off-diagonal element's values on axis j, is overwritten too.  No
    exponentials, so the ratios stay finite where the Gaussian factor under- or overflows.
    """
    if kind is ElementKind.HESSIAN_DIAG:
        u_plus = u + sigma
        u -= sigma
        u *= u_plus
        np.abs(u, u)
        u *= SQRT_TWO_PI * math.exp(0.5) / (4.0 * sigma * sigma)
        return u
    grad_scale = SQRT_TWO_PI / (2.0 * sigma)
    np.abs(u, u)
    u *= grad_scale
    if kind is ElementKind.HESSIAN_OFF_DIAG:
        np.abs(w, w)
        w *= grad_scale
        u *= w
    return u


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------
#
# Every sampler returns (taus, q): offsets of shape (rows, dim), stacked
# element by element when a per-element sampler is given K elements, and q,
# shape (rows,), each row's density ratio pdf / N under the density it was
# drawn from: its own element's, or the mixture's for the aggregate sampler.
# N is the smoothing Gaussian.  Every density is even, so q is also -tau's ratio.


def sample_gradient_offsets(i: int | np.ndarray | ElementSet, spec: KernelSpec, rng: RngStream, count: int):
    """Batch of offsets for gradient element i, or stacked batches for an array of axes.

    Axis i follows the positivized gradient density via the exact inverse
    CDF; all other axes are Gaussian.  For an array of axes the blocks
    are stacked in its order: rows ``k * count`` to ``(k + 1) * count``
    serve axis ``i[k]``.  An ``ElementSet`` of gradient elements stands
    for the array of its elements' axes, ``i.i``, and is checked against
    the bounds it holds, not entry by entry.

    Draw order: one uniform block of shape (K, count) for the special
    entries, then one Gaussian block of shape (K, count, dim) for the K
    axes, whose entries on each block's own axis the special entries
    overwrite.  The uniforms come first, as the FR22 baseline draws them,
    so at dim 1, where every entry is special, the two draw alike.
    """
    n = spec.dim
    if isinstance(i, ElementSet):
        if len(i.groups) != 1 or i.groups[0][0] is not ElementKind.GRADIENT:
            raise ValueError("expected a set of gradient elements")
        i.check_index_bounds(n)
        axes = i.i
    else:
        axes = np.asarray(i, dtype=np.intp).reshape(-1)
        # one test: a negative axis, viewed unsigned, is huge
        if np.count_nonzero(axes.view(np.uintp) >= n):
            raise ValueError(f"axis index {i} out of range for dim {n}")
    k = len(axes)
    gen = rng.generator
    xi = gen.random((k, count))
    taus = gen.standard_normal((k, count, n))
    taus *= spec.sigma
    u = gradient_inverse_cdf(open_unit(xi), spec.sigma)
    taus[row_index(k), :, axes] = u
    q = _ratios_into(ElementKind.GRADIENT, u, None, spec.sigma)
    return taus.reshape(k * count, n), q.reshape(-1)


def sample_hessian_offsets(
    elem: KernelElement | Sequence[KernelElement],
    spec: KernelSpec,
    rng: RngStream,
    count: int,
):
    """Batch of offsets for one Hessian element, or stacked batches for a sequence of them.

    Diagonal axes use the tabulated inverse CDF scaled by sigma;
    off-diagonal elements draw both axes independently from the gradient
    density.  For a sequence the blocks are stacked in its order, ``count``
    rows each.

    Draw order: one Gaussian block of shape (K, count, dim) for the K
    elements, then one uniform block of shape (K, 2, count) for their
    special axes, consumed for every element, diagonal ones too, so the
    stream layout does not depend on the element kinds.  Each inverse CDF
    runs once per element kind.
    """
    elements = ElementSet.of((elem,) if isinstance(elem, KernelElement) else elem)
    for kind, *_ in elements.groups:
        if kind is ElementKind.GRADIENT:
            raise ValueError(f"expected a Hessian element, got {kind}")
    elements.check_index_bounds(spec.dim)
    s, k, gen = spec.sigma, len(elements), rng.generator
    taus = gen.standard_normal((k, count, spec.dim))
    taus *= s
    xi = gen.random((k, 2, count))
    q = np.empty((k, count))
    for kind, pos, i, j in elements.groups:
        if kind is ElementKind.HESSIAN_DIAG:
            # no open_unit: the table maps 0.0 to -10, as it maps the tiny open_unit gives
            u = default_hessian_diag_table().lookup(xi[pos, 0])
            u *= s
            taus[pos, :, i] = u
            q[pos] = _ratios_into(kind, u, None, s)
        else:
            u = gradient_inverse_cdf(open_unit(xi[pos]), s)
            taus[pos, :, i] = u[:, 0]
            taus[pos, :, j] = u[:, 1]
            q[pos] = _ratios_into(kind, u[:, 0], u[:, 1], s)
    return taus.reshape(k * count, spec.dim), q.reshape(-1)


def sample_aggregate_offsets(
    elements: Sequence[KernelElement],
    spec: KernelSpec,
    rng: RngStream,
    count: int,
):
    """Batch of offsets from the uniform mixture over ``elements``.

    One draw serves every element's estimator term; the density to weight
    it by, and so q, is the full mixture density (1/K) * sum_k pdf_k(tau),
    not the chosen component's density.

    Draw order per batch: one uniform block u of shape (3, count), then
    the Gaussian base block of shape (count, dim).  Row r draws component
    floor(K u[0, r]) (Veach & Guibas 1995's one-sample mixture draw):
    for every u <= 1 - 2^-53 and K < 2^53 the rounded product is below K,
    so the component is at most K - 1, and each component's probability
    is off from 1/K by at most K 2^-53.  u[1] and u[2] are the special
    axes' uniforms, consumed for every row so the stream layout does not
    depend on the choices.
    """
    if not elements:
        raise ValueError("aggregate sampling requires a nonempty element list")
    elements = ElementSet.of(elements)
    elements.check_index_bounds(spec.dim)
    gen, s, k = rng.generator, spec.sigma, len(elements)
    u = gen.random((3, count))
    choices = np.multiply(u[0], float(k)).astype(np.intp)  # a float operand converts faster
    taus = gen.standard_normal((count, spec.dim))
    taus *= s
    xi_a = open_unit(u[1])
    xi_b = u[2]
    if len(elements.groups) == 1:
        # every row draws the one kind: no split into groups
        kind, _, i, j = elements.groups[0]
        if kind is ElementKind.GRADIENT and elements is gradient_elements(spec.dim):
            # element k differentiates axis k, so i[choices] is choices and the
            # ratios of every axis in order are _ratios_into's gradient ratios of
            # the block, written out: the call cost 1-2 % of an aggregate HVP run
            taus[row_index(count), choices] = gradient_inverse_cdf(xi_a, s)
            ratios = np.abs(taus)
            ratios *= SQRT_TWO_PI / (2.0 * s)
        elif kind is ElementKind.GRADIENT:
            taus[row_index(count), i[choices]] = gradient_inverse_cdf(xi_a, s)
            ratios = _ratios_into(kind, taus.take(i, axis=1), None, s)
        else:
            _set_special_axes(taus, kind, row_index(count), i, j, choices, xi_a, xi_b, s)
            off = kind is ElementKind.HESSIAN_OFF_DIAG
            ratios = _ratios_into(kind, taus.take(i, axis=1), taus.take(j, axis=1) if off else None, s)
    else:
        group = elements.group[choices]
        for g, (kind, *_) in enumerate(elements.groups):
            rows = np.flatnonzero(group == g)
            if rows.size:
                _set_special_axes(taus, kind, rows, elements.i, elements.j, choices[rows],
                                  xi_a[rows], xi_b[rows], s)
        ratios = element_density_ratios(taus, elements, s)
    q = np.add.reduce(ratios, 1)
    q /= k
    return taus, q


def _set_special_axes(taus, kind: ElementKind, rows, i, j, picked, xi_a, xi_b, sigma: float) -> None:
    """Write the special axes of ``rows``, drawn for the elements of ``kind`` at ``picked``, into ``taus``.

    The elements' axes are i[picked] (and j[picked]).  ``xi_a`` is open
    already; ``xi_b``, read only for off-diagonal elements, is not.
    """
    if kind is ElementKind.HESSIAN_DIAG:
        u = default_hessian_diag_table().lookup(xi_a)
        u *= sigma
        taus[rows, i[picked]] = u
    else:
        taus[rows, i[picked]] = gradient_inverse_cdf(xi_a, sigma)
    if kind is ElementKind.HESSIAN_OFF_DIAG:
        taus[rows, j[picked]] = gradient_inverse_cdf(open_unit(xi_b), sigma)


def open_unit(xi: np.ndarray) -> np.ndarray:
    """Clip uniforms strictly inside (0, 1) for the inverse CDFs."""
    return np.minimum(np.maximum(xi, _TINY), _BELOW_ONE)
