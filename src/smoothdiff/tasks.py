"""Benchmark objectives with known ground truth.

Four families: an analytic quadratic, a negated Gaussian whose smoothed
derivatives have closed forms (a non-PSD testbed), plateaued
box-placement and texture tasks on a tiny software rasterizer, and a
Phong-shaded sphere.  Only the two analytic tasks carry derivative
oracles (see ``Task``).  Every objective is a deterministic function of
its parameters, so exact finite-difference oracles apply.

The rendered losses are evaluated in separable form rather than pixel by
pixel.  A box channel image is the outer product of the box's y and x
coverage rows, so its squared error against the reference reduces to dot
products of rows of length w and h (see ``box_task``).  The Phong image
is two outer products, RGB colors times per-pixel diffuse and specular
intensities, made by ``np.einsum``, and the specular power is taken on
lit pixels only.  Both equal the loss of the full image to rounding.

Every shipped loss carries a batched form: ``fn.rows(points)`` takes an
(m, dim) float array and returns the loss at each row, a new array of
shape (m,), and ``Objective.evaluate_rows`` makes one ``rows`` call per
batch.  The box, texture and Phong losses are written once, over a
batch, and ``fn(theta)`` is their one-row case.  The two analytic losses
are written once on two Python floats (``_float_loss``), which ``fn``
calls once and ``rows`` once per row.  ``rows`` never writes into
``points``, which ``EstimationError`` reads after the call, so each loss
works in arrays it allocates itself.
Phong rows are shaded in blocks of at most ``_PHONG_BLOCK`` = 8, which
keeps a block's images in cache, and texture rows are clamped in blocks
of ``_TEXTURE_BLOCK_BYTES`` = 256 KiB, four to a 512-row texture16
batch, which keeps a 256-D estimate from page-faulting fresh memory in
about a fifth less time than 64 KiB blocks.  What does not depend on the
parameters is built once per task (see ``box_task`` and ``_PhongScene``),
clamps call ``np.maximum``/``np.minimum``, since ``np.clip``'s Python
wrapper costs more than the arithmetic on these small arrays, and the box
and Phong losses hold their constants as 0-d operands (``fixed_operand``)
and work in place where they can: most ``box10`` loss calls on the
render benchmark take one point, about two dozen numpy calls whose fixed
costs are most of the price.  Each row's loss is bit for bit its
one-point value, and a rendered loss's is that of its first separable
single-point form, which ``tests/test_tasks.py`` keeps as reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .estimators import Objective
from .kernels import fixed_operand

TWO_PI = 2.0 * math.pi
_ZERO, _TWO = fixed_operand(0.0), fixed_operand(2.0)


@dataclass
class Task:
    """An objective with ground truth and optional derivative oracles.

    Only ``quad`` and ``neg_gauss`` carry oracles.  ``smoothed_grad`` /
    ``smoothed_hess`` take (theta, kernel_sigma) and return derivatives of
    the Gaussian-smoothed objective; the benchmark's correctness gate and
    the estimator tests read them.  At kernel_sigma = 0 they are the plain
    derivatives, which the exact local models of the optimizer tests read.
    """

    dim: int
    fn: Callable[[np.ndarray], float]
    theta_true: np.ndarray
    init_sampler: Callable[[np.random.Generator], np.ndarray]
    smoothed_grad: Callable[[np.ndarray, float], np.ndarray] | None = None
    smoothed_hess: Callable[[np.ndarray, float], np.ndarray] | None = None
    plateau_points: list[np.ndarray] = field(default_factory=list)

    def objective(self) -> Objective:
        return Objective(self.fn, self.dim)

    def param_error(self, theta: np.ndarray) -> float:
        d = np.asarray(theta, dtype=float) - self.theta_true
        return math.sqrt(float(d.dot(d)))  # bit-equal to np.linalg.norm(d)


def _row_loss(rows: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], float]:
    """The loss f(theta) as the one-row case of ``rows``, which it carries as ``fn.rows``.

    ``rows(points)`` takes an (m, dim) float array and returns f at each
    row, shape (m,); ``Objective.evaluate_rows`` calls it once per batch.
    """
    def fn(theta):
        return float(rows(np.asarray(theta, dtype=float)[None])[0])

    fn.rows = rows
    return fn


def _blockwise(block_rows: Callable[[np.ndarray], np.ndarray], block: int):
    """A batched loss that calls ``block_rows`` on consecutive blocks of at most ``block`` rows."""
    def rows(points):
        if len(points) <= block:
            return block_rows(points)
        return np.concatenate([block_rows(points[start:start + block])
                               for start in range(0, len(points), block)])

    return rows


# ---------------------------------------------------------------------------
# analytic tasks
# ---------------------------------------------------------------------------

def _float_loss(loss: Callable[[float, float], float]) -> Callable[[np.ndarray], float]:
    """A 2-D loss written once as ``loss(x0, x1)`` on Python floats, carrying ``fn.rows``.

    ``fn(theta)`` calls it on theta's two entries and ``fn.rows(points)``
    on each row of ``points.tolist()``, so a row's value is bit for bit
    its one-point value.  Python floats and ``math.exp`` cost less than
    numpy's per-call overhead on two numbers, and ``np.exp`` can differ
    from ``math.exp`` in the last bit.
    """
    def fn(theta):
        return loss(float(theta[0]), float(theta[1]))

    def rows(points):
        return np.array([loss(x0, x1) for x0, x1 in points.tolist()])

    fn.rows = rows
    return fn


QUAD_A = 5.0
QUAD_B = 5.0
QUAD_C = 7.5
QUAD_HESSIAN = np.array([[2.0 * QUAD_A, QUAD_C], [QUAD_C, 2.0 * QUAD_B]])


def quad_task() -> Task:
    """Two-dimensional quadratic bowl a*x0^2 + b*x1^2 + c*x0*x1.

    Gaussian smoothing adds only a constant, so the smoothed gradient and
    Hessian coincide with the plain ones at every bandwidth.
    """

    def loss(x0, x1):
        return QUAD_A * x0 * x0 + QUAD_B * x1 * x1 + QUAD_C * x0 * x1

    return Task(
        dim=2,
        fn=_float_loss(loss),
        theta_true=np.zeros(2),
        init_sampler=lambda gen: gen.uniform(-3.0, 3.0, size=2),
        smoothed_grad=lambda th, s: QUAD_HESSIAN @ np.asarray(th, dtype=float),
        smoothed_hess=lambda th, s: QUAD_HESSIAN.copy(),
    )


def negated_gaussian_task(sigma1: float = 1.0) -> Task:
    """Negated 2D Gaussian: a bowl whose Hessian is indefinite everywhere.

    Convolving with a Gaussian of bandwidth sigma2 gives another negated
    Gaussian of scale sqrt(sigma1^2 + sigma2^2), so smoothed derivatives
    of any order are available in closed form.
    """
    if sigma1 <= 0:
        raise ValueError(f"sigma1 must be > 0, got {sigma1}")
    s1sq = sigma1 * sigma1

    def loss(x0, x1):
        return -math.exp(-(x0 * x0 + x1 * x1) / (2.0 * s1sq)) / (TWO_PI * s1sq)

    def _neg_gauss_value(th, ssq):
        th = np.asarray(th, dtype=float)
        return -math.exp(-float(th @ th) / (2.0 * ssq)) / (TWO_PI * ssq)

    def grad(th, ssq):
        th = np.asarray(th, dtype=float)
        return -_neg_gauss_value(th, ssq) * th / ssq

    def hess(th, ssq):
        th = np.asarray(th, dtype=float)
        val = _neg_gauss_value(th, ssq)
        return -val * (np.eye(2) / ssq - np.outer(th, th) / (ssq * ssq))

    return Task(
        dim=2,
        fn=_float_loss(loss),
        theta_true=np.zeros(2),
        init_sampler=lambda gen: gen.uniform(-3.0, 3.0, size=2),
        smoothed_grad=lambda th, s2: grad(th, s1sq + s2 * s2),
        smoothed_hess=lambda th, s2: hess(th, s1sq + s2 * s2),
    )


# ---------------------------------------------------------------------------
# rasterized tasks
# ---------------------------------------------------------------------------

BOX_SIDE = 1.0 / 8.0  # in canvas widths

_BOX_TARGETS = np.array([
    [0.50, 0.50],
    [0.25, 0.25],
    [0.75, 0.25],
    [0.25, 0.75],
    [0.75, 0.75],
    [0.50, 0.20],
    [0.20, 0.50],
    [0.80, 0.50],
])


@dataclass(frozen=True)
class RasterScene:
    """Axis-aligned square rasterizer with analytic coverage antialiasing.

    Pixel values are the exact overlap area between the square and the
    pixel cell, so the image is a deterministic, piecewise-smooth
    function of the square centers.  One square's image is the outer
    product of its y and x coverage rows (``axis_coverage``); with
    coverages in [0, 1], clipping a single square's image changes
    nothing, which is what lets ``box_task`` evaluate its loss from the
    coverage rows alone.
    """

    width: int
    height: int
    box_half: float

    @staticmethod
    def axis_grid(npix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pixel cells of one axis for ``axis_coverage``, built once.

        ``npix`` is the axis's pixel count, or one count per coverage
        row: cells then run to the largest count.  Returns the counts,
        the cell indices k and the caps ``min(k + 1, count)`` on each
        cell's upper edge, which zero the coverage past a row's count.
        """
        counts = np.asarray(npix, dtype=float)[..., None]
        cells = np.arange(int(counts.max()), dtype=float)
        return counts, cells, np.minimum(cells + 1.0, counts)

    def axis_coverage(self, centers, grid: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Overlap of the square with each pixel cell of ``grid`` along one axis.

        Returns one row of cells per center, shape ``centers.shape +
        (cells,)``: a single row for a scalar center, and (m, dim, cells)
        for m rows of dim centers, whose last axis pairs with ``grid``'s
        counts.  The overlap needs no clip at 1: it is at most
        (k + 1) - k = 1, and rounded subtraction is monotone.
        """
        counts, cells, caps = grid
        c = np.asarray(centers, dtype=float)[..., None]
        cov = np.minimum((c + self._half) * counts, caps)
        cov -= np.maximum((c - self._half) * counts, cells)
        return np.maximum(cov, _ZERO, out=cov)

    @cached_property
    def _half(self) -> np.ndarray:
        """``box_half`` as a 0-d operand (see ``fixed_operand``)."""
        return fixed_operand(self.box_half)

    def render(self, centers: np.ndarray) -> np.ndarray:
        """Coverage image for a set of square centers, clipped to [0, 1]."""
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        img = np.zeros((self.height, self.width))
        for cov_y, cov_x in zip(self.axis_coverage(centers[:, 1], self.axis_grid(self.height)),
                                self.axis_coverage(centers[:, 0], self.axis_grid(self.width))):
            img += np.outer(cov_y, cov_x)
        return np.clip(img, 0.0, 1.0)


def _box_plateau_points(num_boxes: int, count: int) -> list[np.ndarray]:
    # diagonal positions with both coordinates beyond the visibility clamp:
    # the rendered image is exactly invariant there, so classic finite
    # differences are 0.0 bit-for-bit
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    k = np.arange(count)[:, None]
    b = np.arange(num_boxes)
    reach = 0.48 + 0.28 * ((7 * k + 3 * b) % 5) / 4.0
    points = 0.5 + corners[(k + b) % 4] * reach[..., None]
    return [p.ravel() for p in points]


def box_task(num_boxes: int, resolution: tuple[int, int] = (64, 64)) -> Task:
    """Match square placements to a reference image by MSE.

    Each square renders into its own color channel, so squares cannot
    hide behind one another and every square is matched against its own
    target.  Centers clamp to the visible range inside the objective, so
    a square never leaves the canvas: parameters pushed past the clamp
    are legal and sit on an exactly flat plateau where classic gradients
    vanish identically, while the smoothed gradient still pulls toward
    the target.  Disjoint in-canvas placements are near-flat as well (the
    image error no longer depends on where a stray square sits, up to
    sub-pixel coverage ripple).

    The loss is evaluated without forming images.  A channel holds one
    square, so its image is exactly ``outer(a_y, a_x)`` of the coverage
    rows (the render clip is a no-op there), and with ``d = a - r`` the
    difference from the reference ``outer(r_y, r_x)`` is
    ``outer(d_y, a_x) + outer(r_y, d_x)``.  Its squared norm is
    ``|d_y|^2 |a_x|^2 + 2 (d_y . r_y)(a_x . d_x) + |r_y|^2 |d_x|^2``:
    row dot products of length w and h instead of a sum over w*h pixels.
    It matches the rasterized loss to rounding and is exactly 0 at the
    truth, where every ``d`` is 0.

    Built once: the pixel grid of ``RasterScene.axis_grid``, the
    reference rows ``r`` and their ``|r|^2``, and the clamp bounds and
    norm as 0-d operands.  A batch of m points makes its coverage rows
    (m, dim, cells) in one pass, the row reductions ``|d|^2`` and
    ``d . r`` with one ``einsum`` each, and the per-box terms as (m, boxes)
    arrays, worked in place and summed per point.  Each point's loss is
    bit-identical to the single-point form, whose einsum, elementwise
    operations and pairwise sum round the same way: the in-place terms
    only swap the operands of a sum or product, and ``2 d . r`` is taken
    once for x and y.  ``np.matmul`` in place of either ``einsum`` rounds
    the sparse coverage rows differently.  On a 2-core x86-64 VM one
    ``box10`` call costs 23.1 us at 1 row and 39.3 us at 8 rows, against
    25.3 and 41.8 us with Python-float constants and new arrays per term.
    """
    if not (1 <= num_boxes <= 8):
        raise ValueError(f"num_boxes must be in 1..8, got {num_boxes}")
    w, h = resolution
    if w < 32 or h < 32:
        raise ValueError(f"resolution must be at least 32x32, got {resolution}")
    scene = RasterScene(width=w, height=h, box_half=BOX_SIDE / 2.0)
    targets = _BOX_TARGETS[:num_boxes]
    # rows alternate x, y per box, as the flattened parameter vector does
    grid = scene.axis_grid(np.tile([float(w), float(h)], num_boxes))
    ref = scene.axis_coverage(targets.reshape(-1), grid)
    ref_sq = np.einsum("ij,ij->i", ref, ref)
    ref_x_sq, ref_y_sq = ref_sq[0::2], ref_sq[1::2]
    # squared image error in units of one box footprint: a lost square
    # costs about 2.0, which keeps gradient scales usable at wide sigma
    norm = fixed_operand((w * BOX_SIDE) * (h * BOX_SIDE))
    lo = fixed_operand(scene.box_half)
    hi = fixed_operand(1.0 - scene.box_half)

    def rows(points):
        c = np.maximum(points, lo)
        np.minimum(c, hi, out=c)
        d = scene.axis_coverage(c, grid)
        d -= ref
        d_sq = np.einsum("mij,mij->mi", d, d)
        d_ref = np.einsum("mij,ij->mi", d, ref)
        dx_sq, dy_sq = d_sq[:, 0::2], d_sq[:, 1::2]
        twice_ref = d_ref * _TWO
        # a_x . a_x and a_x . d_x from a_x = r_x + d_x:
        # dy_sq (r_x^2 + 2 dx_ref + dx_sq) + 2 dy_ref (dx_ref + dx_sq) + r_y^2 dx_sq
        per_box = twice_ref[:, 0::2] + ref_x_sq
        per_box += dx_sq
        per_box *= dy_sq
        term = d_ref[:, 0::2] + dx_sq
        term *= twice_ref[:, 1::2]
        per_box += term
        np.multiply(dx_sq, ref_y_sq, out=term)
        per_box += term
        loss = np.add.reduce(per_box, 1)
        loss /= norm
        return loss

    def init(gen):
        return gen.uniform(0.15, 0.85, size=2 * num_boxes)

    return Task(
        dim=2 * num_boxes,
        fn=_row_loss(rows),
        theta_true=targets.reshape(-1).copy(),
        init_sampler=init,
        plateau_points=_box_plateau_points(num_boxes, 20),
    )


def _texture_reference(side: int) -> np.ndarray:
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    ref = 0.5 + 0.45 * np.sin(TWO_PI * jj / side) * np.cos(TWO_PI * ii / side)
    return ref.reshape(-1)


# Bytes of a texture loss block's working copy, 128 rows at n = 256.  Clamped
# whole, the (512, 256) batch of a per-element texture16 estimate needs a 1 MiB
# copy, which, with the estimate's other MiB-scale arrays, made the heap grow
# and trim on every call, so each call page-faulted fresh memory.  A block
# this size is past glibc's initial mmap threshold (128 KiB), but once the
# process has freed a larger mapped block, such as an estimate's 1 MiB points
# buffer, glibc raises the threshold and takes blocks from the heap.  On a
# 2-core x86-64 VM that 512-row batch took 268 / 240 / 217 us in blocks of
# 64 / 128 / 256 KiB, and a highdim pass after a process's first took 0-4
# minor faults at each size.
_TEXTURE_BLOCK_BYTES = 256 << 10


def texture_task(side: int = 16) -> Task:
    """Per-texel intensity recovery: separable, convex, n = side^2.

    Texels clamp to [0, 1] inside the objective, so the loss is flat in
    any texel pushed past the clamp.  A batch is evaluated
    ``_TEXTURE_BLOCK_BYTES`` of rows at a time.
    """
    if side < 4:
        raise ValueError(f"side must be >= 4, got {side}")
    ref = _texture_reference(side)
    n = side * side

    def block_rows(points):
        d = np.maximum(points, 0.0)
        np.minimum(d, 1.0, out=d)
        d -= ref
        # each row's d @ d, a stacked matmul: bit-equal to the 1-D product
        loss = np.matmul(d[:, None], d[:, :, None]).reshape(len(d))
        loss /= n
        return loss

    return Task(
        dim=n,
        fn=_row_loss(_blockwise(block_rows, max(1, _TEXTURE_BLOCK_BYTES // (8 * n)))),
        theta_true=ref.copy(),
        init_sampler=lambda gen: gen.uniform(0.0, 1.0, size=n),
    )


# ---------------------------------------------------------------------------
# Phong sphere
# ---------------------------------------------------------------------------

PHONG_TRUE = np.array([0.6, 0.3, 0.2, 0.4, 0.4, 0.4, 2.0])
_SHININESS_FLOOR = 1e-3
_SHININESS_UNIT = 10.0  # th[6] carries the exponent in tens, keeping all
                        # seven parameters on commensurate scales


# Rows per Phong shading block.  At the default resolution a block's image,
# (8, 3, 688) floats, takes 132 KB.  On the render benchmark (2-core x86-64
# VM), blocks of 16 or 32 rows cost more per row than 8: their images outgrow
# the cache, and their temporaries page-fault fresh memory on every call.
# With the image made by einsum an 8-row block takes about 60 us (73 us with
# broadcast products).  Blocks of 12 rows, whose image takes 198 KB, made a
# whole phong:OurH pass take 1.56 times as long as blocks of 8 (20 rounds in
# one interpreter).  A row's loss does not depend on the block size, which
# ``tests/test_tasks.py`` checks.
_PHONG_BLOCK = 8


class _PhongScene:
    """Direct per-pixel shading of a sphere under one point light.

    Geometry, light and the specular base are fixed, so the diffuse
    intensities, the lit-pixel index and its bases are built once; a
    shade call pays the power on lit pixels, one scatter and two outer
    products.  ``np.einsum`` makes each image entry as one rounded
    product, as ``np.outer`` does, so the image keeps its bits up to the
    sign of a zero (see ``shade``).
    """

    def __init__(self, resolution: int = 32):
        radius = 0.95
        xs = np.linspace(-1.0, 1.0, resolution)
        xx, yy = np.meshgrid(xs, xs)
        rr = xx * xx + yy * yy
        mask = rr <= radius * radius
        nx = xx[mask] / radius
        ny = yy[mask] / radius
        nz = np.sqrt(np.clip(radius * radius - rr[mask], 0.0, None)) / radius
        light = np.array([0.4, 0.4, 0.8])
        light = light / np.linalg.norm(light)
        ndotl = nx * light[0] + ny * light[1] + nz * light[2]
        self.diffuse = np.clip(ndotl, 0.0, None)
        # view direction (0, 0, 1): specular base is the z component of
        # the reflected light direction
        refl_z = 2.0 * ndotl * nz - light[2]
        self.spec_base = np.clip(refl_z, 0.0, 1.0)
        # about half the pixels get no highlight; only the others pay the power
        self._lit = np.flatnonzero(self.spec_base > 0.0)
        self._lit_base = self.spec_base[self._lit]
        self.total_pixels = resolution * resolution

    def shade(self, kd: np.ndarray, ks: np.ndarray, alpha) -> np.ndarray:
        """The sphere's pixels, channel-major: shape (..., 3, pixels).

        ``kd`` and ``ks`` are RGB rows of shape (..., 3) and ``alpha`` the
        exponents, shape (...): one image for a single point, or one per
        row for (m, 3), (m, 3) and (m,).  The specular intensity is
        spec_base ** alpha where lit, else 0.

        The products kd x diffuse and ks x spec are ``np.einsum`` calls,
        which on an 8-row block take about 10 us each, where broadcast
        multiplies took 16-19 us.  einsum writes 0 + a*b, so a product of
        -0.0 comes out +0.0; every other entry is the rounded product
        itself.  A loss squares each difference from its reference, so
        that sign never reaches it, and NaN and inf products are kept.
        """
        alpha = np.asarray(alpha)
        spec = np.zeros(alpha.shape + self.spec_base.shape)
        spec[..., self._lit] = self._lit_base ** alpha[..., None]
        img = np.einsum("...c,p->...cp", kd, self.diffuse)
        img += np.einsum("...c,...p->...cp", ks, spec)
        return img


def phong_sphere_task(resolution: int = 32) -> Task:
    """Recover 7 reflectance unknowns of a shaded sphere from its image.

    Parameters are diffuse RGB, specular RGB, and the shininess exponent
    (expressed in tens, so all seven unknowns are order one); geometry,
    camera, and light stay fixed.  Exponents at or below zero are clamped
    to a small floor inside the objective.

    A batch is shaded ``_PHONG_BLOCK`` rows at a time; each row's loss is
    bit-identical to the single-point form, whose elementwise operations
    and ``einsum`` round the same way.
    """
    scene = _PhongScene(resolution)
    ref = scene.shade(PHONG_TRUE[0:3], PHONG_TRUE[3:6], PHONG_TRUE[6] * _SHININESS_UNIT)
    norm = fixed_operand(3.0 * scene.total_pixels)
    unit, floor, low, high = map(fixed_operand, (_SHININESS_UNIT, _SHININESS_FLOOR, -1e300, 1e300))

    def block_rows(points):
        # past +-1e300 tens the exponent acts as it would at +-inf (lit bases
        # ** alpha are 0 or 1, or alpha is the floor); the clamp keeps the
        # scaling from overflowing
        alpha = np.maximum(points[:, 6], low)
        np.minimum(alpha, high, out=alpha)
        alpha *= unit
        np.maximum(alpha, floor, out=alpha)
        diff = scene.shade(points[:, 0:3], points[:, 3:6], alpha)
        diff -= ref
        loss = np.einsum("mij,mij->m", diff, diff)
        loss /= norm
        return loss

    def init(gen):
        th = np.empty(7)
        th[0:6] = gen.uniform(0.05, 0.95, size=6)
        th[6] = gen.uniform(0.5, 5.0)
        return th

    return Task(
        dim=7,
        fn=_row_loss(_blockwise(block_rows, _PHONG_BLOCK)),
        theta_true=PHONG_TRUE.copy(),
        init_sampler=init,
    )


# ---------------------------------------------------------------------------
# task registry
# ---------------------------------------------------------------------------

_BUILDERS = {"quad": quad_task, "neg_gauss": negated_gaussian_task,
             "box2": partial(box_task, 1), "box10": partial(box_task, 5),
             "phong": phong_sphere_task}


def task_builder(name: str) -> Callable[[], Task]:
    """The builder of the task registered as ``name``, found without building the task.

    ``texture<side>`` takes an integer side of at least 4, and a bare
    ``texture`` means side 16.  An unknown name is a ValueError.
    """
    key = name.strip().lower()
    if key.startswith("texture"):
        side = key.removeprefix("texture") or "16"
        if not side.isdecimal() or int(side) < 4:
            raise ValueError(f"unknown task {name!r}: texture tasks are texture<side>, "
                             f"with an integer side >= 4")
        return partial(texture_task, int(side))
    if key not in _BUILDERS:
        raise ValueError(f"unknown task {name!r}; expected one of {TASK_NAMES}")
    return _BUILDERS[key]


def make_task(name: str) -> Task:
    """Build a task from its registry name (used by configs and the CLI)."""
    return task_builder(name)()


TASK_NAMES = ("quad", "neg_gauss", "box2", "box10", "texture8", "texture16", "phong")
