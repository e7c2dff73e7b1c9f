"""Formula references the tests compare the package against.

Each reference computes what a fast path of the package computes, the
slow and plain way: the separable box and Phong losses pixel by pixel,
the stacked per-element estimators one element's block at a time (drawn
chunk by chunk, as the samplers draw them), and the estimators' per-row
contractions as the weighted sums of a weight stage (kernel over density
per row).  The tests require the two to agree, bit for bit or to a
stated tolerance.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from smoothdiff.estimators import (
    EstimatorConfig,
    Objective,
    _axis,
    _chunks,
    _contract_hvp,
    _draw,
    _draw_axis_blur,
    _even_coefficients,
    _reduce_gradient,
    _reduce_hessian,
    estimate_gradient,
    estimate_gradient_fr22,
    estimate_hessian,
    estimate_hvp,
)
from smoothdiff.kernels import (
    ElementKind,
    gradient_elements,
    gradient_inverse_cdf,
    hessian_elements,
)
from smoothdiff.samplers import (
    RngStream,
    default_hessian_diag_table,
    element_density_ratios,
    open_unit,
)
from smoothdiff.tasks import (
    BOX_SIDE,
    PHONG_TRUE,
    RasterScene,
    _PhongScene,
    _SHININESS_FLOOR,
    _SHININESS_UNIT,
)


def rasterized_box_loss(targets: np.ndarray, resolution: tuple[int, int], theta) -> float:
    """``box_task``'s loss from full rendered channel images, one per box."""
    w, h = resolution
    scene = RasterScene(width=w, height=h, box_half=BOX_SIDE / 2.0)
    centers = np.clip(np.asarray(theta, dtype=float).reshape(-1, 2),
                      scene.box_half, 1.0 - scene.box_half)
    total = 0.0
    for center, target in zip(centers, np.asarray(targets).reshape(-1, 2)):
        diff = scene.render(center[None, :]) - scene.render(target[None, :])
        total += float(np.sum(diff * diff))
    return total / ((w * BOX_SIDE) * (h * BOX_SIDE))


def per_pixel_phong_loss(theta, resolution: int = 32) -> float:
    """``phong_sphere_task``'s loss, shading every sphere pixel directly."""
    scene = _PhongScene(resolution)

    def image(th):
        alpha = max(float(th[6]) * _SHININESS_UNIT, _SHININESS_FLOOR)
        spec = np.where(scene.spec_base > 0.0, scene.spec_base ** alpha, 0.0)
        return scene.diffuse[:, None] * th[None, 0:3] + spec[:, None] * th[None, 3:6]

    diff = image(np.asarray(theta, dtype=float)) - image(PHONG_TRUE)
    return float(np.sum(diff * diff)) / (3.0 * scene.total_pixels)


def per_element_reference(order: str, obj: Objective, theta, cfg: EstimatorConfig,
                          rng: RngStream, v=None) -> np.ndarray:
    """A per-element estimate computed one element's block at a time.

    ``order`` is "gradient", "hessian", "hvp" (along ``v``) or "fr22".
    The blocks are drawn straight from ``rng``, chunk by chunk over the
    estimators' ``_chunks``, in the draw order the per-element samplers
    document: a gradient chunk's uniforms, then its Gaussian block (FR22:
    the uniforms only), and a Hessian chunk's Gaussian block, then its
    uniforms.  Then each element's special axes are set, and its block
    evaluated and contracted on its own, with its own density ratio: the
    loop that the estimators run as one stacked pass.  Each block's
    arithmetic is the estimators' per-row coefficient contraction, taken
    in the same order, so the two agree bit for bit.  Returns the
    gradient, the symmetric Hessian or the HVP.
    """
    spec, count = cfg.spec, cfg.samples
    n, sigma = spec.dim, spec.sigma
    s2 = sigma * sigma
    theta = np.asarray(theta, dtype=float)
    elements = hessian_elements(n) if order == "hessian" else gradient_elements(n)
    if order == "hvp":
        v = np.asarray(v, dtype=float)
    values = np.empty(len(elements))
    blocks = []
    for chunk in _chunks(elements, count, n):
        shape = (len(chunk), count, n)
        if order == "hessian":
            gauss = rng.normal(shape) * sigma
            xi = rng.uniform((len(chunk), 2, count))
        else:
            xi = rng.uniform(shape[:2])
            gauss = np.zeros(shape) if order == "fr22" else rng.normal(shape) * sigma
        blocks.extend(zip(gauss, xi))
    for k, (elem, (taus, xi)) in enumerate(zip(elements, blocks)):
        if elem.kind is ElementKind.GRADIENT:
            taus[:, k] = gradient_inverse_cdf(open_unit(xi), sigma)
        elif elem.kind is ElementKind.HESSIAN_DIAG:
            taus[:, elem.i] = default_hessian_diag_table().lookup(open_unit(xi[0])) * sigma
        else:
            taus[:, elem.i] = gradient_inverse_cdf(open_unit(xi[0]), sigma)
            taus[:, elem.j] = gradient_inverse_cdf(open_unit(xi[1]), sigma)
        q = element_density_ratios(taus, [elem], sigma)[:, 0]
        vals = np.array([obj.evaluate(theta - row) for row in np.concatenate((taus, -taus))])
        u = taus[:, elem.i]
        if order in ("gradient", "fr22"):
            values[k] = (u * ((vals[count:] - vals[:count]) / (2.0 * sigma * sigma * count * q))).sum()
            continue
        pv = 0.5 * (vals[:count] + vals[count:])
        if count > 1:
            pv = (pv - pv.sum() / count) / (count - 1)
        c = pv / q
        if order == "hessian":
            both = (u - sigma) * (u + sigma) if elem.kind is ElementKind.HESSIAN_DIAG else u * taus[:, elem.j]
            values[k] = (both * c).sum() / (s2 * s2)
            continue
        values[k] = ((u * (c * (taus @ v))).sum() - s2 * v[k] * c.sum()) / (s2 * s2)
    if order == "hessian":
        h = np.zeros((n, n))
        h[elements.i, elements.j] = values
        h[elements.j, elements.i] = values
        return h
    return values


def stacked_estimate(order: str, obj: Objective, theta, cfg: EstimatorConfig,
                     rng: RngStream, v=None) -> np.ndarray:
    """The estimator's own result for an ``order`` of ``per_element_reference``."""
    if order == "hessian":
        return estimate_hessian(obj, theta, cfg, rng).h
    if order == "hvp":
        return estimate_hvp(obj, theta, v, cfg, rng).hv
    estimate = estimate_gradient_fr22 if order == "fr22" else estimate_gradient
    return estimate(obj, theta, cfg, rng).g


# The weight stage, the formula reference of the contractions: each row of
# a stack and its mirror image weighted by the kernel factor (kernel / N)
# of every element the block serves, over q.  The mirror rows' weights
# follow from the drawn rows' by parity, exactly in IEEE arithmetic: q is
# even, the gradient factor odd and the Hessian and HVP factors even.

def _weights(stack, weigh) -> tuple[np.ndarray, np.ndarray]:
    """The weights of a stack's drawn rows and of their mirror images.

    ``weigh(stack)`` gives both, each of shape (elements, samples) for one
    shared block and (B, samples) for per-element blocks; both come back
    with shape (B, samples, elements per block).
    """
    drawn, mirror = weigh(stack)
    if stack.taus.ndim == 3:
        return drawn[:, :, None], mirror[:, :, None]
    return drawn.T[None], mirror.T[None]


def _gradient_weights(stack, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    drawn = -_axis(stack.taus, stack.elements.i) / sigma ** 2 / stack.q
    return drawn, -drawn


def _hessian_weights(stack, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    s2 = sigma * sigma
    k, count = len(stack.elements), stack.taus.shape[-2]
    factor = np.empty((k, count))
    for kind, pos, i, j in stack.elements.groups:
        u = _axis(stack.taus, i, pos)
        if kind is ElementKind.HESSIAN_DIAG:
            factor[pos] = (u - sigma) * (u + sigma) / (s2 * s2)
        else:
            factor[pos] = u * _axis(stack.taus, j, pos) / (s2 * s2)
    drawn = factor / stack.q
    return drawn, drawn


def _hvp_weights(stack, sigma: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_j (tau_i tau_j - sigma^2 delta_ij) v_j / sigma^4 over q per served axis i: even in tau."""
    s2 = sigma * sigma
    i = stack.elements.i
    factor = (_axis(stack.taus, i) * (stack.taus @ v) - s2 * v[i][:, None]) / (s2 * s2)
    drawn = factor / stack.q
    return drawn, drawn


def _weighted_terms(vals: np.ndarray, weights: tuple[np.ndarray, np.ndarray], even: bool) -> np.ndarray:
    """Each block's weighted terms, shape (B, terms, elements per block).

    An element's estimate is the sum of its terms.  Odd (gradient)
    weights: each evaluated row's weighted value, halved and over pairs,
    two terms per pair.  Even (Hessian, HVP) weights: one term per pair,
    its mean value, centred against the mean of all pairs when there are
    more than one and then divided by pairs - 1, times its mean weight.
    """
    drawn, mirror = weights
    pairs = drawn.shape[1]
    if not even:
        rows = np.concatenate((vals[:, :pairs, None] * drawn, vals[:, pairs:, None] * mirror), 1)
        return 0.5 * rows / pairs
    pv = 0.5 * (vals[:, :pairs] + vals[:, pairs:])
    if pairs > 1:
        pv = (pv - pv.sum(axis=1, keepdims=True) / pairs) / (pairs - 1)
    return pv[:, :, None] * (0.5 * (drawn + mirror))


def reduce_estimates(order: str, fn, theta, cfg: EstimatorConfig, rng: RngStream,
                     v=None) -> tuple[np.ndarray, np.ndarray]:
    """Every stack's estimates contracted, and their weighted terms: (contraction, terms).

    ``order`` is "gradient", "hessian", "hvp" (along ``v``) or "fr22"
    (per-element mode only).  Draws every stack the estimator would for
    ``cfg.mode``, evaluates ``fn`` at its points and reduces the same
    values both ways: by the contraction the estimators run, and by the
    weight stage above, as the terms of each element's weighted sum.
    Both come back in the estimate's element order, the terms with shape
    (elements, terms); an element's weighted estimate is the sum of its row.
    """
    sigma, n = cfg.spec.sigma, cfg.spec.dim
    elements = hessian_elements(n) if order == "hessian" else gradient_elements(n)
    draw = _draw_axis_blur if order == "fr22" else _draw
    contract, weigh = {"gradient": (_reduce_gradient, _gradient_weights),
                       "fr22": (_reduce_gradient, _gradient_weights),
                       "hessian": (_reduce_hessian, _hessian_weights),
                       "hvp": (_contract_hvp, _hvp_weights)}[order]
    along = dict(v=np.asarray(v, dtype=float)) if order == "hvp" else {}
    theta = np.asarray(theta, dtype=float)
    contracted, terms = [], []
    for stack in draw(cfg, rng, elements):
        points = np.concatenate((theta - stack.taus, theta + stack.taus), axis=-2)
        vals = np.array([fn(point) for point in points.reshape(-1, n)]).reshape(points.shape[:-1])
        x = _even_coefficients(vals, stack.q) if order == "hvp" else vals
        contracted.append(contract(stack, x, sigma=sigma, **along).ravel())
        weights = _weights(stack, partial(weigh, sigma=sigma, **along))
        block_terms = _weighted_terms(np.atleast_2d(vals), weights, order in ("hessian", "hvp"))
        terms.append(block_terms.transpose(0, 2, 1).reshape(-1, block_terms.shape[1]))
    return np.concatenate(contracted), np.concatenate(terms)
