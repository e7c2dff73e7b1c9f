"""Fast invariant battery behind the ``selftest`` CLI subcommand.

A condensed version of the test suite: checks the kernel closed forms
against finite differences, sampler distributions against their CDFs,
estimator evaluation budgets and unbiasedness on the quadratic, the
stacked per-element estimators against a block-by-block reference loop,
the estimators' per-row contractions against the weighted sums of a
weight stage (kernel over density per row, kept here as their formula
reference), and the separable box and Phong losses against their
pixel-by-pixel references.  Prints one line per check.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import stats

from .estimators import (
    EstimatorConfig,
    Objective,
    SamplingMode,
    _axis,
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
from .kernels import (
    ElementKind,
    KernelSpec,
    gaussian_pdf,
    gradient_cdf,
    gradient_elements,
    gradient_inverse_cdf,
    gradient_kernel,
    hessian_diag_cdf,
    hessian_elements,
)
from .samplers import (
    RngStream,
    build_hessian_diag_table,
    default_hessian_diag_table,
    element_density_ratios,
    mixture_pdf,
    open_unit,
    sample_aggregate_offsets,
    sample_gradient_offsets,
)
from .tasks import (
    BOX_SIDE,
    PHONG_TRUE,
    RasterScene,
    _PhongScene,
    _SHININESS_FLOOR,
    _SHININESS_UNIT,
    box_task,
    phong_sphere_task,
    quad_task,
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
    Each element draws its own block straight from ``rng``, in the draw
    order the per-element samplers document (FR22: uniforms for its own
    axis only), evaluates it and contracts it on its own, with its own
    density ratio: the loop that the estimators run as one stacked pass.
    Each block's arithmetic is the estimators' per-row coefficient
    contraction, taken in the same order, so the two agree bit for bit.
    Returns the gradient, the symmetric Hessian or the HVP.
    """
    spec, count = cfg.spec, cfg.samples
    n, sigma = spec.dim, spec.sigma
    s2 = sigma * sigma
    theta = np.asarray(theta, dtype=float)
    elements = hessian_elements(n) if order == "hessian" else gradient_elements(n)
    if order == "hvp":
        v = np.asarray(v, dtype=float)
    values = np.empty(len(elements))
    for k, elem in enumerate(elements):
        if order == "fr22":
            taus = np.zeros((count, n))
            taus[:, k] = gradient_inverse_cdf(open_unit(rng.uniform(count)), sigma)
        elif elem.kind is ElementKind.GRADIENT:
            special = gradient_inverse_cdf(open_unit(rng.uniform(count)), sigma)
            taus = np.insert(rng.normal((count, n - 1)) * sigma, k, special, axis=1)
        else:
            taus = rng.normal((count, n)) * sigma
            if elem.kind is ElementKind.HESSIAN_DIAG:
                taus[:, elem.i] = default_hessian_diag_table().lookup(open_unit(rng.uniform(count))) * sigma
            else:
                taus[:, elem.i] = gradient_inverse_cdf(open_unit(rng.uniform(count)), sigma)
                taus[:, elem.j] = gradient_inverse_cdf(open_unit(rng.uniform(count)), sigma)
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
    if len(stack.taus) > 1:
        return drawn[:, :, None], mirror[:, :, None]
    return drawn.T[None], mirror.T[None]


def _gradient_weights(stack, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    drawn = -_axis(stack.taus, stack.elements.i) / sigma ** 2 / stack.q
    return drawn, -drawn


def _hessian_weights(stack, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    s2 = sigma * sigma
    k, count = len(stack.elements), stack.taus.shape[1]
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


def _weighted_sums(vals: np.ndarray, weights: tuple[np.ndarray, np.ndarray], even: bool) -> np.ndarray:
    """Each block's weighted pairs summed, shape (B, elements per block).

    Odd (gradient) weights: the mean over pairs of each pair's mean
    weighted value.  Even (Hessian, HVP) weights: each pair's mean value,
    centred against the mean of all pairs when there are more than one
    and then divided by pairs - 1, times its mean weight.
    """
    drawn, mirror = weights
    pairs = drawn.shape[1]
    if not even:
        return (0.5 * (vals[:, :pairs, None] * drawn + vals[:, pairs:, None] * mirror)).sum(axis=1) / pairs
    pv = 0.5 * (vals[:, :pairs] + vals[:, pairs:])
    w = 0.5 * (drawn + mirror)
    if pairs == 1:
        return pv * w[:, 0]
    centered = (pv - pv.sum(axis=1, keepdims=True) / pairs).reshape(len(pv), 1, pairs)
    return (centered @ w)[:, 0] / (pairs - 1)


def reduce_estimates(order: str, fn, theta, cfg: EstimatorConfig, rng: RngStream,
                     v=None) -> tuple[np.ndarray, np.ndarray]:
    """Every stack's estimates contracted and weighted: (contraction, weighted sums).

    ``order`` is "gradient", "hessian", "hvp" (along ``v``) or "fr22"
    (per-element mode only).  Draws every stack the estimator would for
    ``cfg.mode``, evaluates ``fn`` at its points and reduces the same
    values both ways: by the contraction the estimators run, and by the
    weight stage above summed over antithetic pairs.  Both come back in
    the estimate's element order.
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
    contracted, weighted = [], []
    for stack in draw(cfg, rng, elements):
        points = np.concatenate((theta - stack.taus, theta + stack.taus), axis=1)
        vals = np.array([[fn(point) for point in block] for block in points])
        x = _even_coefficients(vals, stack.q) if order == "hvp" else vals
        contracted.append(contract(stack, x, sigma=sigma, **along).ravel())
        weights = _weights(stack, partial(weigh, sigma=sigma, **along))
        weighted.append(_weighted_sums(vals, weights, order in ("hessian", "hvp")).ravel())
    return np.concatenate(contracted), np.concatenate(weighted)


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

    # estimators: stacked per-element blocks equal the block-by-block loop
    def wavy(th):
        return float(np.sin(3.0 * th).sum() + th @ th)

    cfg_ref = EstimatorConfig(spec=KernelSpec(sigma=0.4, dim=4), samples=3, mode=SamplingMode.PER_ELEMENT)
    theta_ref, v_ref = np.array([0.3, -0.2, 0.5, 0.1]), np.array([1.0, -2.0, 0.5, 0.25])
    mismatched = []
    for order in ("gradient", "hessian", "hvp", "fr22"):
        obj_s, obj_r = Objective(wavy, 4), Objective(wavy, 4)
        got = stacked_estimate(order, obj_s, theta_ref, cfg_ref, RngStream(21), v_ref)
        want = per_element_reference(order, obj_r, theta_ref, cfg_ref, RngStream(21), v_ref)
        if not (np.array_equal(got, want) and obj_s.eval_count == obj_r.eval_count):
            mismatched.append(order)
    check("stacked per-element estimates equal the block loop", not mismatched, f"differ: {mismatched}")

    # estimators: every stack's contraction equals its weighted reduction;
    # per-element gradients at n = 256 and 4 samples span two chunks
    reduce_cases = [(mode, order, 4) for mode in (SamplingMode.AGGREGATE, SamplingMode.PER_ELEMENT)
                    for order in ("gradient", "hessian", "hvp")]
    reduce_cases += [(SamplingMode.PER_ELEMENT, "fr22", 4), (SamplingMode.PER_ELEMENT, "gradient", 256)]
    worst = 0.0
    for mode, order, n in reduce_cases:
        cfg_red = EstimatorConfig(spec=KernelSpec(sigma=0.4, dim=n), samples=3 if n == 4 else 4, mode=mode)
        got, want = reduce_estimates(order, wavy, np.linspace(-0.7, 0.9, n), cfg_red, RngStream(22),
                                     np.cos(np.arange(n) + 0.3))
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
    check("contractions equal the weighted reductions", worst <= 1e-12, f"worst rel={worst:.2e}")

    # tasks: separable losses against pixel-by-pixel references
    box = box_task(5)
    phong = phong_sphere_task()
    pairs = [(box.fn(th), rasterized_box_loss(box.theta_true, (64, 64), th))
             for th in (np.linspace(0.2, 0.8, 10), np.full(10, 1.7), box.theta_true + 1e-4)]
    pairs += [(phong.fn(th), per_pixel_phong_loss(th))
              for th in (np.array([0.3, 0.5, 0.7, 0.2, 0.6, 0.1, 1.3]), PHONG_TRUE + 1e-4)]
    worst = max(abs(got - want) / max(1.0, want) for got, want in pairs)
    check("box and Phong losses match rasterized references", worst < 1e-12,
          f"worst={worst:.2e}")

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failure(s)")
    return 0 if failures == 0 else 1
