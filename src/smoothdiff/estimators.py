"""Monte Carlo estimators of smoothed derivatives of black-box objectives.

The smoothed gradient, Hessian, and Hessian-vector product of an
objective f are integrals of f against derivative kernels of the
smoothing Gaussian.  Estimators importance-sample offsets from the
positivized kernel densities, and each evaluation f(theta - tau) counts
with weight kernel(tau) / pdf(tau).

Every estimator makes one pass over the stacks of offsets it draws, in
three stages, each stack drawn, evaluated and contracted before the next
is drawn.  Per stack the pass is straight: one evaluate call and one
contract call on plain slices of 2-D arrays, and a multi-chunk estimate
loops over that same pass.  A draw that makes one stack -- aggregate,
uniform, or per-element blocks that fit one chunk -- returns it as a
1-tuple; only per-element blocks that span several chunks come from a
generator, which draws each chunk when the pass asks for it:

1. **Draw** offsets tau with the output elements they serve and the
   density ratio q = pdf / N of each drawn row, where N is the smoothing
   Gaussian, through one sampler call per chunk.  Each drawn row tau
   stands for the antithetic pair (tau, -tau); the mirrored half is never
   stored.  Only this stage depends on the sampling mode:

   * ``PER_ELEMENT``: one block per derivative element, drawn from that
     element's optimally importance-sampled density and serving only that
     element (n evaluations per pair-half for a gradient, n(n+1)/2 for a
     Hessian), stacked as (blocks, samples, dim).  Elements are taken in
     chunks, so that the stacked rows of a large Hessian stay within a
     fixed memory bound.  Each chunk's blocks are drawn in one Gaussian
     call and one uniform call, and inverse CDFs, density ratios and every
     later stage run once over the chunk's stacked blocks.
   * ``AGGREGATE``: one block of shape (samples, dim), drawn from the
     uniform mixture of all element densities, serves every element, so a
     pair-half costs a single evaluation regardless of dimension or
     derivative order.
   * ``UNIFORM``: one block of shape (samples, dim) drawn uniformly on
     [-10 sigma, 10 sigma]^n; a control for variance analysis, not for
     production use.

   The FR22 baseline draws per-element gradient blocks with the other
   axes left unblurred.
2. **Evaluate** f at theta - tau for each block's drawn rows, then at
   theta + tau for their mirror images, in one ``Objective.evaluate_rows``
   call per stack, whatever its leading block axes.  An estimate writes
   its points into one buffer, made at its first stack's size; later
   chunks, never larger, fill its leading rows.  A loss that carries a
   batched form (``fn.rows``) is evaluated in one call over all the
   rows, any other loss row by row, to float64 values either way.  It aborts the estimate on
   the first non-finite value.  A shared block's values have shape
   (2 * samples,), per-element blocks' (blocks, 2 * samples).
3. **Contract** each block's values into one coefficient per drawn row,
   contracted against the drawn offsets (see the contract stage below):
   a shared block whole, per-element blocks element by element.  Kernel /
   N and q are free of Gaussian normalization factors, so they stay finite
   in high dimension, and no mirror row is ever weighted.

The HVP weight is the Hessian kernel contracted with the direction v,
sum_j (tau_i tau_j - sigma^2 delta_ij) v_j / sigma^4 over q (Stein's
second-order identity for Gaussian smoothing).  An HVP draws the
gradient's offsets, and the direction enters only ``_contract_hvp``, the
one HVP contraction, which is exactly linear in v.  So one evaluated
batch gives the gradient and the HVP along every direction:
``estimate_gradient`` with ``keep_batch`` forms, in its own pass, a
``SampledBatch`` of each stack with its HVP coefficients, and
``SampledBatch.hvp`` contracts them with no further evaluation.  The
operator is bound to its batch, so it gives products only at the point
and bandwidth the batch was drawn for; Newton-CG's sampled local model
returns it with the gradient.  ``estimate_hvp`` is the per-call form,
which contracts a batch of its own, chunk by chunk, with the same
function.  Per call, accumulation runs in a fixed order, so results are
reproducible.

On small problems the fixed work of a call weighs as much as its
arithmetic.  So a pass checks only what changes from call to call --
theta, the objective's values and an HVP's direction -- and, in one
integer comparison, that the kernel's dimension is the objective's; it
leaves what a run fixes to the objects that hold it: the cached element
sets and the configuration the caller builds.  Each stage writes its
results into the arrays it has just made, never into its inputs, and a
single stack's contraction is returned as the estimate without a copy.
The operations and their order are those of the plain expressions in the
docstrings, so the results are bit-identical to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .kernels import (
    SQRT_TWO_PI,
    ElementKind,
    ElementSet,
    KernelSpec,
    fixed_operand,
    gradient_elements,
    gradient_inverse_cdf,
    hessian_elements,
    row_index,
)
from .samplers import (
    RngStream,
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
        """The mode whose value is ``name``, in any case and with - for _."""
        try:
            return SamplingMode(name.strip().lower().replace("-", "_"))
        except ValueError:
            raise ValueError(f"unknown sampling mode {name!r}") from None


class Objective:
    """Black-box scalar objective with an exact evaluation counter.

    ``evaluate`` may be stochastic; the counter increments exactly once
    per call, and once per row through ``evaluate_rows``, the estimators'
    entry point.  A loss may carry a batched form as an attribute,
    ``fn.rows(points) -> values``: f at each row of an (m, dim) float
    array, equal to calling ``fn`` on each row.  Then ``evaluate_rows``
    makes one ``rows`` call per batch; otherwise it calls ``fn`` row by
    row.  ``rows`` returns a new array of shape (m,) and must not write
    into ``points``: ``EstimationError`` copies the offending row from
    ``points`` after the call.  So a batched loss works in arrays it
    allocates itself.  A single instance is meant to be owned by one run.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._fn = fn
        self._rows = getattr(fn, "rows", None)
        self.dim = dim
        self._evals = 0

    def evaluate(self, theta: np.ndarray) -> float:
        self._evals += 1
        return float(self._fn(theta))

    def evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        """f at each row of ``points`` (m, dim), counted once per row, as float64 values.

        A ``rows`` result of another dtype is converted.  Raises
        ``EstimationError`` at the first non-finite value, carrying an
        owned copy of its row.  A batched call (``fn.rows``) evaluates
        and counts all m rows before it checks them; the row loop stops at
        the bad row, so later rows are neither evaluated nor counted.  A
        ``rows`` result of any shape but (m,) is a ValueError.
        """
        if self._rows is not None:
            m = len(points)
            self._evals += m
            vals = np.asarray(self._rows(points), dtype=float)
            if vals.shape != (m,):
                raise ValueError(f"fn.rows returned shape {vals.shape} for {m} points, "
                                 f"expected ({m},)")
            if _all_finite(vals):
                return vals
            k = np.flatnonzero(~np.isfinite(vals))[0]
            raise _non_finite(float(vals[k]), points[k])
        fn = self._fn
        vals = np.empty(len(points))
        for k, point in enumerate(points):
            self._evals += 1
            v = float(fn(point))
            if not math.isfinite(v):
                raise _non_finite(v, point)
            vals[k] = v
        return vals

    @property
    def eval_count(self) -> int:
        return self._evals


def _non_finite(value: float, point: np.ndarray) -> EstimationError:
    return EstimationError(f"objective returned non-finite value {value} at {point}",
                           point=point.copy())


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling configuration shared by the derivative estimators.

    ``samples`` counts antithetic pairs; every estimate touches 2*samples
    offsets per block (see ``evals_per_estimate``).
    """

    spec: KernelSpec
    samples: int = 1
    mode: SamplingMode = SamplingMode.AGGREGATE

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def evals_per_estimate(mode: SamplingMode, elements: int, samples: int) -> int:
    """Evaluations of one estimate: 2 * samples per element in per-element mode
    (and FR22; central differences are one pair), 2 * samples for one shared block."""
    return 2 * samples * (elements if mode is SamplingMode.PER_ELEMENT else 1)


@dataclass(frozen=True)
class GradientEstimate:
    g: np.ndarray
    evals_used: int
    batch: SampledBatch | None = None


@dataclass(frozen=True)
class HessianEstimate:
    h: np.ndarray
    evals_used: int


@dataclass(frozen=True)
class HvpEstimate:
    hv: np.ndarray
    evals_used: int


# ---------------------------------------------------------------------------
# the estimate path: draw -> evaluate -> contract
# ---------------------------------------------------------------------------

_HALF = fixed_operand(0.5)

# Scratch memory one chunk of per-element blocks may take.  A chunk's
# evaluation points, two per drawn row, get a quarter of it, and its drawn
# rows half that.  An estimate's chunks share one points buffer, and each
# chunk's drawn rows are dropped before the next chunk is drawn.
_CHUNK_BYTES = 8 << 20


class _Stack(NamedTuple):
    """Drawn offsets and the elements they serve.

    ``taus`` holds the drawn half of the antithetic rows, whose mirror
    images -taus are the other half: shape (samples, dim) for one block
    shared by every element of ``elements``, or (B, samples, dim) for
    per-element blocks, block k serving element k.  ``q``, of shape
    ``taus.shape[:-1]``, is the density ratio pdf / N of the drawn rows,
    and of their mirror images too, since every density is even.  The
    contract stage reads a stack by this layout, whatever the mode.
    """

    taus: np.ndarray
    elements: ElementSet
    q: np.ndarray


def _axis(rows: np.ndarray, idx: np.ndarray, pos: np.ndarray | None = None) -> np.ndarray:
    """Shape (len(idx), R): axis idx[k] of the rows serving element pos[k].

    ``rows`` is a shared (R, dim) block or (B, R, dim) per-element blocks;
    ``pos`` defaults to every block in order.
    """
    if rows.ndim == 2:
        return rows.T[idx]
    return rows[np.arange(len(rows)) if pos is None else pos, :, idx]


# the most entries _all_finite tests one by one: past about a dozen, one count costs less
_FEW_ENTRIES = 8


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite.

    Up to ``_FEW_ENTRIES`` entries are tested as Python floats, which costs
    less than numpy's per-call overhead; more are counted, which is cheaper
    than ``.all()`` on small arrays.  Unlike a test of x . x, neither can
    overflow, so it warns of nothing.
    """
    if x.size <= _FEW_ENTRIES:
        return all(map(math.isfinite, x.ravel().tolist()))
    return np.count_nonzero(np.isfinite(x)) == x.size


def _check_theta(theta, dim: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({dim},)")
    if not _all_finite(theta):
        raise ValueError("theta must be finite")
    return theta


def _sampled_dim(obj: Objective, cfg: EstimatorConfig) -> int:
    """The kernel's dimension, checked against the objective's."""
    n = cfg.spec.dim
    if n != obj.dim:
        raise ValueError(f"kernel dimension {n} does not match the objective's dimension {obj.dim}")
    return n


def _check_direction(v, dim: int) -> np.ndarray:
    """``v`` as floats; it must be finite and nonzero."""
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"direction has shape {v.shape}, expected ({dim},)")
    if not _all_finite(v):
        raise ValueError("direction must be finite")
    if not np.count_nonzero(v):
        raise ValueError("direction must be nonzero")
    return v


def _chunks(elements: ElementSet, count: int, dim: int) -> Sequence[ElementSet]:
    """In-order chunks of ``elements`` whose evaluation points fit a quarter of _CHUNK_BYTES.

    ``(elements,)`` itself when they all fit one chunk.
    """
    size = max(1, _CHUNK_BYTES // (4 * 8 * 2 * count * dim))
    if size >= len(elements):
        return (elements,)
    return [ElementSet(elements[start:start + size]) for start in range(0, len(elements), size)]


def _per_chunk(draw_chunk: Callable[[ElementSet, KernelSpec, RngStream, int], _Stack],
               chunks: Sequence[ElementSet], spec: KernelSpec, rng: RngStream, count: int) -> Iterable[_Stack]:
    """One chunk's stack as a 1-tuple, or a generator that draws each chunk when the pass asks for it.

    The pass drops a chunk's stack before it asks for the next one, so a
    multi-chunk estimate holds one chunk of drawn rows at a time.
    """
    if len(chunks) == 1:
        return (draw_chunk(chunks[0], spec, rng, count),)
    return (draw_chunk(chunk, spec, rng, count) for chunk in chunks)


def _draw(cfg: EstimatorConfig, rng: RngStream, elements: ElementSet) -> Iterable[_Stack]:
    """Stacks of drawn offsets for ``cfg.mode``; the only stage that knows the mode.

    One stack comes as a 1-tuple; per-element blocks in several chunks
    come from a generator (``_per_chunk``).
    """
    spec, count, mode = cfg.spec, cfg.samples, cfg.mode
    if mode is SamplingMode.PER_ELEMENT:
        return _per_chunk(_element_blocks, _chunks(elements, count, spec.dim), spec, rng, count)
    if mode is SamplingMode.AGGREGATE:
        taus, q = sample_aggregate_offsets(elements, spec, rng, count)
    else:
        sigma = spec.sigma
        taus = (rng.uniform((count, spec.dim)) * 2.0 - 1.0) * (10.0 * sigma)
        # uniform density over N, normalizations folded into one exponent;
        # rows far out in high dimension overflow to q = inf, i.e. weight 0
        with np.errstate(over="ignore"):
            q = np.exp(np.sum(taus * taus, axis=1) / (2.0 * sigma * sigma)
                       - spec.dim * math.log(20.0 / SQRT_TWO_PI))
    return (_Stack(taus, elements, q),)


def _element_blocks(chunk: ElementSet, spec: KernelSpec, rng: RngStream, count: int) -> _Stack:
    """A chunk's per-element blocks, drawn in one Gaussian call and one uniform call."""
    if chunk[0].kind is ElementKind.GRADIENT:
        taus, q = sample_gradient_offsets(chunk, spec, rng, count)
    else:
        taus, q = sample_hessian_offsets(chunk, spec, rng, count)
    return _Stack(taus.reshape(len(chunk), count, spec.dim), chunk, q.reshape(len(chunk), count))


def _draw_axis_blur(cfg: EstimatorConfig, rng: RngStream, elements: ElementSet) -> Iterable[_Stack]:
    """FR22 draws: per-element gradient blocks that blur only their own axis."""
    spec, count = cfg.spec, cfg.samples
    return _per_chunk(_axis_blur_blocks, _chunks(elements, count, spec.dim), spec, rng, count)


def _axis_blur_blocks(chunk: ElementSet, spec: KernelSpec, rng: RngStream, count: int) -> _Stack:
    """A chunk's FR22 blocks: each block's own axis from one uniform call, every other axis zero."""
    k = len(chunk)
    u = gradient_inverse_cdf(open_unit(rng.uniform((k, count))), spec.sigma)
    taus = np.zeros((k, count, spec.dim))
    taus[row_index(k), :, chunk.i] = u
    return _Stack(taus, chunk, element_density_ratios(taus, chunk, spec.sigma))


def _evaluate(obj: Objective, theta: np.ndarray, taus: np.ndarray,
              points: np.ndarray | None = None) -> np.ndarray:
    """The evaluate stage: values of shape ``taus.shape[:-2] + (2 * samples,)``.

    A block's points are theta - tau for its drawn rows, then theta + tau
    for their mirror images, for a shared (samples, dim) block and stacked
    (blocks, samples, dim) ones alike.  They are written straight into
    the leading rows of ``points``, a (rows, dim) buffer at least as long
    as they need, or of a new one, and evaluated in one ``evaluate_rows``
    call.
    """
    dim = taus.shape[-1]
    rows = 2 * (taus.size // dim)
    if points is None:
        points = np.empty((rows, dim))
    elif len(points) != rows:
        points = points[:rows]
    if taus.ndim == 2:
        count = len(taus)
        np.subtract(theta, taus, points[:count])
        np.add(theta, taus, points[count:])
        return obj.evaluate_rows(points)
    blocks, count = len(taus), taus.shape[1]
    stacked = points.reshape(blocks, 2 * count, dim)
    np.subtract(theta, taus, stacked[:, :count])
    np.add(theta, taus, stacked[:, count:])
    return obj.evaluate_rows(points).reshape(blocks, 2 * count)


def _estimate(obj: Objective, theta: np.ndarray, stacks: Iterable[_Stack],
              contract: Callable[[_Stack, np.ndarray, float], np.ndarray], sigma: float,
              kept: list | None = None) -> np.ndarray:
    """One pass: each stack evaluated and contracted before the next is drawn.

    ``contract(stack, vals, sigma)`` turns a stack and the values
    ``_evaluate`` gives for it into the estimates of the elements it
    serves; stacks arrive in the order of those elements, and a single
    stack's contraction is the estimate as it is.  Every stack is
    evaluated in one points buffer, made at the first stack's size; later
    chunks, never larger, fill its leading rows.  With ``kept``, each
    stack is appended to it with its HVP coefficients.
    """
    points = None
    parts = []
    for stack in stacks:
        if points is None:
            points = np.empty((2 * stack.q.size, len(theta)))
        vals = _evaluate(obj, theta, stack.taus, points)
        parts.append(contract(stack, vals, sigma))
        if kept is not None:
            kept.append((stack, _even_coefficients(vals, stack.q)))
        del stack, vals  # a chunk's stack is not held while the next one is drawn
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# The contract stage.  A served element's weight, kernel / N over q, is a
# polynomial in its block's coordinates, so the weighted sums over a block's
# pairs regroup, exactly in real arithmetic, into one coefficient per drawn
# row (c, of q's shape) contracted against tau.  A shared block is
# contracted whole, at O(samples * dim) per gradient or HVP; per-element
# blocks each gather their own element's axes.

def _even_coefficients(vals: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each block's pair values over q, for the even Hessian and HVP weights.

    Even weights keep the objective's level in every pair.  One pair keeps
    its uncentred value; more are centred against their block's mean and
    divided by pairs - 1, which stays unbiased (the weights integrate to
    zero) and removes the dominant value-level variance term.
    """
    pairs = q.shape[-1]
    pv = np.add(*_halves(vals, pairs))
    pv *= _HALF
    if pairs > 1:
        # a shared block's mean is one number: the same sum, divided as a scalar
        pv -= (np.add.reduce(pv) if pv.ndim == 1 else np.add.reduce(pv, 1, keepdims=True)) / pairs
        pv /= pairs - 1
    pv /= q
    return pv


def _halves(vals: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """The values at the drawn rows and at their mirror images, sliced from 1-D or 2-D ``vals``."""
    if vals.ndim == 1:
        return vals[:pairs], vals[pairs:]
    return vals[:, :pairs], vals[:, pairs:]


def _reduce_gradient(stack: _Stack, vals: np.ndarray, sigma: float) -> np.ndarray:
    """g_i = sum_r c_r tau_ri, c = (f(theta + tau) - f(theta - tau)) / (2 sigma^2 q samples)."""
    taus, q = stack.taus, stack.q
    count = q.shape[-1]
    minus, plus = _halves(vals, count)
    c = np.subtract(plus, minus)
    c /= 2.0 * sigma * sigma * count * q
    if taus.ndim == 2:
        return c.dot(taus)  # a vector times a matrix: the BLAS product of @, called faster
    (_, pos, i, _), = stack.elements.groups  # gradient elements, one kind
    c *= _axis(taus, i, pos)
    return np.add.reduce(c, 1)


def _reduce_hessian(stack: _Stack, vals: np.ndarray, sigma: float) -> np.ndarray:
    """H_ij = sum_r c_r (tau_ri tau_rj - sigma^2 delta_ij) / sigma^4, c from ``_even_coefficients``."""
    taus, s2 = stack.taus, sigma * sigma
    c = _even_coefficients(vals, stack.q)
    if taus.ndim == 2:
        h = (taus.T * c) @ taus
        h.flat[::len(h) + 1] -= s2 * c.sum()
        return h[stack.elements.i, stack.elements.j] / (s2 * s2)
    out = np.empty(len(stack.elements))
    for kind, pos, i, j in stack.elements.groups:
        u = _axis(taus, i, pos)
        if kind is ElementKind.HESSIAN_DIAG:
            both = u - sigma
            both *= u + sigma
        else:
            both = u * _axis(taus, j, pos)
        both *= c[pos]
        out[pos] = np.add.reduce(both, 1)
    out /= s2 * s2
    return out


def _contract_hvp(stack: _Stack, c: np.ndarray, sigma: float, v: np.ndarray,
                  c_sum: np.ndarray | None = None) -> np.ndarray:
    """hv_i = sum_r c_r (tau_ri (tau_r . v) - sigma^2 v_i) / sigma^4, c from ``_even_coefficients``.

    The weight is the Hessian kernel contracted with v, over N and q.  It
    is even in tau, so a mirror row weighs as its drawn row, and linear
    in v.  c, and ``c_sum``, each block's sum of c, do not depend on v, so
    a batch forms them once for every direction (``SampledBatch``).
    """
    taus, s2 = stack.taus, sigma * sigma
    if c_sum is None:
        c_sum = np.add.reduce(c, -1)
    if taus.ndim == 2:
        return _shared_hvp(taus, c, s2 * float(c_sum), s2 * s2, v)
    (_, pos, i, _), = stack.elements.groups  # gradient elements, one kind
    a = taus @ v
    a *= c
    a *= _axis(taus, i, pos)
    hv = np.add.reduce(a, 1)
    level = s2 * v[i]
    level *= c_sum
    hv -= level
    hv /= s2 * s2
    return hv


def _shared_hvp(taus: np.ndarray, c: np.ndarray, level: float, s4: float, v: np.ndarray) -> np.ndarray:
    """A shared block's HVP, (sum_r c_r tau_r (tau_r . v) - level v) / s4, for level = sigma^2 sum c."""
    a = taus.dot(v)  # bit-equal to taus @ v for a 2-D block and a 1-D direction, and called faster
    a *= c
    hv = a.dot(taus)
    hv -= level * v
    hv /= s4
    return hv


# ---------------------------------------------------------------------------
# the evaluated batch of a gradient estimate
# ---------------------------------------------------------------------------

class SampledBatch:
    """The evaluated offsets of one gradient estimate: a sampled quadratic model.

    It keeps ``terms``, each drawn stack with its HVP coefficients c and
    their sum per block, and ``cfg``, the bandwidth they were drawn for; the model is centred where
    the estimate was made.  The direction of an HVP enters only the
    contraction, so ``hvp(v)`` contracts the terms for any v at no further
    evaluation.  Every product comes from the same samples, so they form
    one fixed operator, linear in v to rounding.  It is symmetric to
    rounding for a shared block (``AGGREGATE``, ``UNIFORM``); in
    ``PER_ELEMENT`` mode each row of it comes from a block of its own, so
    it is not symmetric.

    What does not depend on v is formed once per batch: in the estimate's
    own pass, each stack's coefficients c (``_even_coefficients``), from
    the values the gradient was contracted from; here, their sum per
    block, and for a shared block, the batch's one term, sigma^4 and the
    level term sigma^2 sum c as well.  ``hvp`` checks ``v`` and contracts
    each term with it, nothing more; ``product`` only contracts, for a
    caller that has checked its directions itself, as Newton-CG does.
    """

    def __init__(self, cfg: EstimatorConfig, coefficients: Iterable[tuple[_Stack, np.ndarray]]):
        self.cfg = cfg
        self.terms = tuple((stack, c, np.add.reduce(c, -1)) for stack, c in coefficients)
        s2 = cfg.spec.sigma * cfg.spec.sigma
        self._s4 = s2 * s2
        (stack, c, c_sum), *rest = self.terms
        self._level = None if rest or stack.taus.ndim != 2 else s2 * float(c_sum)

    def hvp(self, v: np.ndarray) -> np.ndarray:
        """The smoothed Hessian applied to ``v``, from this batch alone."""
        return self.product(_check_direction(v, self.cfg.spec.dim))

    def product(self, v: np.ndarray) -> np.ndarray:
        """``hvp`` of a float direction of shape (dim,), finite and nonzero, which it does not check."""
        if self._level is not None:
            stack, c, _ = self.terms[0]
            return _shared_hvp(stack.taus, c, self._level, self._s4, v)
        sigma = self.cfg.spec.sigma
        parts = [_contract_hvp(stack, c, sigma, v, c_sum) for stack, c, c_sum in self.terms]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _gradient(obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream,
              draw, keep_batch: bool = False) -> GradientEstimate:
    n = _sampled_dim(obj, cfg)
    theta = _check_theta(theta, n)
    start = obj.eval_count
    kept = [] if keep_batch else None
    g = _estimate(obj, theta, draw(cfg, rng, gradient_elements(n)), _reduce_gradient, cfg.spec.sigma, kept)
    return GradientEstimate(g, obj.eval_count - start, None if kept is None else SampledBatch(cfg, kept))


def estimate_gradient(
    obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream, *,
    keep_batch: bool = False,
) -> GradientEstimate:
    """Unbiased estimate of the sigma-smoothed gradient at ``theta``.

    Stacks are drawn, evaluated and contracted one chunk at a time, so the
    estimate stays within ``_CHUNK_BYTES`` of scratch memory.  With
    ``keep_batch`` the estimate also carries its evaluated offsets as a
    ``SampledBatch`` (``batch``), whose ``hvp`` gives HVPs at ``theta`` at
    no further evaluation; the batch holds every stack at once, with its
    HVP coefficients in place of its values.
    """
    return _gradient(obj, theta, cfg, rng, _draw, keep_batch)


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
    if not (0 < step < math.inf):
        raise ValueError(f"step must be finite and > 0, got {step}")
    n = obj.dim
    theta = _check_theta(theta, n)
    start = obj.eval_count
    # rows theta + step e_i, theta - step e_i for each axis i in turn: in
    # the flat (n, 2, n) buffer, entry (i, 0, i) is i (2n + 1) and (i, 1, i) n more
    points = np.empty((n, 2, n))
    points[...] = theta
    flat = points.reshape(-1)
    flat[::2 * n + 1] = theta + step
    flat[n::2 * n + 1] = theta - step
    vals = obj.evaluate_rows(points.reshape(2 * n, n))
    g = (vals[0::2] - vals[1::2]) / (2.0 * step)
    return GradientEstimate(g=g, evals_used=obj.eval_count - start)


def estimate_hessian(
    obj: Objective, theta: np.ndarray, cfg: EstimatorConfig, rng: RngStream
) -> HessianEstimate:
    """Unbiased estimate of the sigma-smoothed Hessian at ``theta``.

    Only the diagonal and upper triangle are sampled; the lower triangle
    is mirrored, so the result is symmetric exactly.
    """
    n = _sampled_dim(obj, cfg)
    theta = _check_theta(theta, n)
    start = obj.eval_count
    elements = hessian_elements(n)
    values = _estimate(obj, theta, _draw(cfg, rng, elements), _reduce_hessian, cfg.spec.sigma)
    h = np.zeros((n, n))
    h[elements.i, elements.j] = values
    h[elements.j, elements.i] = values
    return HessianEstimate(h=h, evals_used=obj.eval_count - start)


def estimate_hvp(
    obj: Objective, theta: np.ndarray, v: np.ndarray, cfg: EstimatorConfig, rng: RngStream
) -> HvpEstimate:
    """Unbiased estimate of the smoothed Hessian applied to direction ``v``.

    Importance-samples f against the Hessian kernel contracted with v,
    on the gradient's offset draws, so it costs what a gradient estimate
    costs.

    This is the per-call form: every call draws and evaluates a batch of
    its own, as ``variance_report`` and equal-budget comparisons need, and
    contracts each stack's coefficients with ``_contract_hvp`` one chunk
    at a time.  Products along many directions at one point come from one
    batch instead (``estimate_gradient`` with ``keep_batch``, then
    ``SampledBatch.hvp``), which is what Newton-CG uses; both contract
    the same terms to the same bits.
    """
    n = _sampled_dim(obj, cfg)
    theta = _check_theta(theta, n)
    v = _check_direction(v, n)
    start = obj.eval_count
    hv = _estimate(obj, theta, _draw(cfg, rng, gradient_elements(n)),
                   lambda stack, vals, sigma: _contract_hvp(stack, _even_coefficients(vals, stack.q), sigma, v),
                   cfg.spec.sigma)
    return HvpEstimate(hv=hv, evals_used=obj.eval_count - start)
