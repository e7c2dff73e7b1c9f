"""Estimator correctness: oracles on closed-form objectives, eval budgets."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothdiff.estimators import (
    EstimationError,
    EstimatorConfig,
    GradientEstimate,
    HessianEstimate,
    Objective,
    SamplingMode,
    estimate_gradient,
    estimate_gradient_fd,
    estimate_gradient_fr22,
    estimate_hessian,
    estimate_hvp,
    greybox_gradient,
    greybox_hessian,
)
from smoothdiff.estimators import (
    _draw,
    _draw_axis_blur,
    _gradient_factor,
    _hessian_factor,
    _hvp_factor,
    _weighted,
)
from smoothdiff.kernels import (
    KernelSpec,
    axis_blur_gradient_kernel,
    gradient_elements,
    gradient_kernel,
    gradient_pdf,
    hessian_elements,
    hessian_kernel,
)
from smoothdiff.samplers import (
    RngStream,
    default_hessian_diag_table,
    element_pdf,
    mixture_pdf,
    sample_aggregate_offsets,
)
from smoothdiff.tasks import negated_gaussian_task, quad_task

QUAD_H = np.array([[10.0, 7.5], [7.5, 10.0]])


def cfg(sigma=1.0, dim=2, samples=1, mode=SamplingMode.PER_ELEMENT, eps=None):
    return EstimatorConfig(spec=KernelSpec(sigma=sigma, dim=dim), samples=samples,
                           mode=mode, hvp_epsilon=eps)


def chunked(fn, chunks):
    """Mean and standard error of a vector-valued estimator over chunks."""
    vals = np.array([fn(k) for k in range(chunks)])
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(chunks)


def assert_within_se(mean, target, se, factor):
    assert np.all(np.abs(mean - np.asarray(target)) <= factor * se + 1e-12), (
        f"mean {mean} not within {factor} SE {se} of {target}")


class TestObjective:
    def test_counter_increments_exactly_once_per_call(self):
        obj = Objective(lambda th: float(th.sum()), dim=2)
        for k in range(5):
            obj.evaluate(np.zeros(2))
        assert obj.eval_count == 5

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Objective(lambda th: 0.0, dim=0)


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(samples=0)
        with pytest.raises(ValueError):
            cfg(eps=0.0)

    def test_epsilon_default_tracks_sigma(self):
        assert cfg(sigma=2.5).epsilon() == pytest.approx(0.025)
        assert cfg(sigma=2.5, eps=0.1).epsilon() == 0.1


class TestGradient:
    def test_constant_objective_exactly_zero_per_pair(self):
        # antithetic weights are odd, so a constant cancels exactly
        obj = Objective(lambda th: 4.25, dim=3)
        for mode in SamplingMode:
            g = estimate_gradient(obj, np.zeros(3), cfg(dim=3, samples=1, mode=mode), RngStream(3)).g
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_linear_objective_unbiased(self, mode):
        c = np.array([2.0, -3.0])

        def run(k):
            obj = Objective(lambda th: float(c @ th), dim=2)
            return estimate_gradient(obj, np.zeros(2), cfg(samples=400, mode=mode), RngStream(50, k)).g

        mean, se = chunked(run, 40)
        assert_within_se(mean, c, se, 4)

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_quad_gradient_unbiased(self, mode):
        task = quad_task()
        theta = np.array([1.0, 1.0])

        def run(k):
            obj = task.objective()
            return estimate_gradient(obj, theta, cfg(samples=500, mode=mode), RngStream(51, k)).g

        mean, se = chunked(run, 40)
        assert_within_se(mean, [17.5, 17.5], se, 3)

    def test_eval_budget(self):
        task = quad_task()
        for mode, per_pair in ((SamplingMode.PER_ELEMENT, 4), (SamplingMode.AGGREGATE, 2),
                               (SamplingMode.UNIFORM, 2)):
            obj = task.objective()
            est = estimate_gradient(obj, np.zeros(2), cfg(samples=9, mode=mode), RngStream(1))
            assert obj.eval_count == per_pair * 9
            assert est.evals_used == per_pair * 9

    @pytest.mark.parametrize("estimate", [
        lambda obj: estimate_gradient(obj, np.zeros(2), cfg(samples=2), RngStream(0)),
        lambda obj: estimate_gradient_fd(obj, np.zeros(2), step=1e-3),
        lambda obj: estimate_gradient_fr22(obj, np.zeros(2), cfg(samples=2), RngStream(0)),
        lambda obj: estimate_hessian(obj, np.zeros(2), cfg(samples=2), RngStream(0)),
        lambda obj: estimate_hvp(obj, np.zeros(2), np.ones(2), cfg(samples=2), RngStream(0)),
    ], ids=["gradient", "fd", "fr22", "hessian", "hvp"])
    def test_non_finite_objective_aborts_with_point(self, estimate):
        obj = Objective(lambda th: float("nan"), dim=2)
        with pytest.raises(EstimationError) as err:
            estimate(obj)
        assert err.value.point is not None
        assert obj.eval_count == 1

    def test_deterministic_given_stream(self):
        task = quad_task()
        a = estimate_gradient(task.objective(), np.ones(2), cfg(samples=32), RngStream(7, 3)).g
        b = estimate_gradient(task.objective(), np.ones(2), cfg(samples=32), RngStream(7, 3)).g
        assert np.array_equal(a, b)


class TestFr22:
    def test_matches_full_blur_in_one_dimension(self):
        # at n=1 both estimators consume the same draws and coincide bit-for-bit
        obj_a = Objective(lambda th: math.sin(float(th[0])), dim=1)
        obj_b = Objective(lambda th: math.sin(float(th[0])), dim=1)
        c = cfg(dim=1, samples=64)
        a = estimate_gradient(obj_a, np.array([0.3]), c, RngStream(9)).g
        b = estimate_gradient_fr22(obj_b, np.array([0.3]), c, RngStream(9)).g
        assert np.array_equal(a, b)

    def test_linear_objective_unbiased(self):
        c = np.array([2.0, -3.0])

        def run(k):
            obj = Objective(lambda th: float(c @ th), dim=2)
            return estimate_gradient_fr22(obj, np.zeros(2), cfg(samples=400), RngStream(52, k)).g

        mean, se = chunked(run, 40)
        assert_within_se(mean, c, se, 4)

    def test_quad_gradient_unbiased(self):
        task = quad_task()

        def run(k):
            obj = task.objective()
            return estimate_gradient_fr22(obj, np.array([1.0, 1.0]), cfg(samples=500), RngStream(53, k)).g

        mean, se = chunked(run, 40)
        assert_within_se(mean, [17.5, 17.5], se, 3)

    def test_eval_budget(self):
        task = quad_task()
        obj = task.objective()
        estimate_gradient_fr22(obj, np.zeros(2), cfg(samples=9), RngStream(1))
        assert obj.eval_count == 4 * 9


class TestFd:
    def test_linear_exact(self):
        c = np.array([2.0, -3.0, 0.5])
        obj = Objective(lambda th: float(c @ th), dim=3)
        g = estimate_gradient_fd(obj, np.zeros(3), step=1e-3).g
        assert np.abs(g - c).max() < 1e-10

    def test_quad_no_third_order_error(self):
        task = quad_task()
        obj = task.objective()
        g = estimate_gradient_fd(obj, np.array([1.0, 1.0]), step=1e-4).g
        assert np.abs(g - np.array([17.5, 17.5])).max() < 1e-6

    def test_eval_budget_always_2n(self):
        for dim in (1, 2, 7):
            obj = Objective(lambda th: float(th @ th), dim=dim)
            est = estimate_gradient_fd(obj, np.zeros(dim), step=1e-4)
            assert obj.eval_count == 2 * dim
            assert est.evals_used == 2 * dim

    def test_step_validation(self):
        obj = Objective(lambda th: 0.0, dim=1)
        with pytest.raises(ValueError):
            estimate_gradient_fd(obj, np.zeros(1), step=0.0)


class TestHessian:
    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_quad_hessian_unbiased(self, mode):
        task = quad_task()
        theta = np.array([1.0, 1.0])

        def run(k):
            obj = task.objective()
            return estimate_hessian(obj, theta, cfg(samples=500, mode=mode), RngStream(54, k)).h.ravel()

        mean, se = chunked(run, 40)
        assert_within_se(mean, QUAD_H.ravel(), se, 3)

    def test_constant_objective_zero_in_expectation(self):
        # even weights do not cancel within a pair; the estimator is
        # unbiased, so the mean over many pairs goes to zero
        def run(k):
            obj = Objective(lambda th: 4.25, dim=2)
            return estimate_hessian(obj, np.zeros(2), cfg(samples=500), RngStream(55, k)).h.ravel()

        mean, se = chunked(run, 40)
        assert_within_se(mean, np.zeros(4), se, 4)

    def test_symmetry_exact(self):
        task = quad_task()
        for mode in SamplingMode:
            h = estimate_hessian(task.objective(), np.ones(2), cfg(samples=16, mode=mode), RngStream(5)).h
            assert np.array_equal(h, h.T)

    def test_eval_budget(self):
        task = quad_task()
        for mode, per_pair in ((SamplingMode.PER_ELEMENT, 6), (SamplingMode.AGGREGATE, 2)):
            obj = task.objective()
            est = estimate_hessian(obj, np.zeros(2), cfg(samples=9, mode=mode), RngStream(1))
            assert obj.eval_count == per_pair * 9
            assert est.evals_used == per_pair * 9

    def test_negated_gaussian_smoothed_hessian(self):
        # closed-form oracle: the convolution of two Gaussians is a Gaussian
        task = negated_gaussian_task(1.0)
        theta = np.array([0.7, -0.4])
        sigma2 = 1.0
        target = task.smoothed_hess(theta, sigma2).ravel()

        def run(k):
            obj = task.objective()
            return estimate_hessian(obj, theta, cfg(sigma=sigma2, samples=500,
                                                    mode=SamplingMode.AGGREGATE), RngStream(56, k)).h.ravel()

        mean, se = chunked(run, 40)
        assert_within_se(mean, target, se, 4)


class TestHvp:
    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_quad_hvp_unbiased(self, mode):
        task = quad_task()
        v = np.array([1.0, 0.0])

        def run(k):
            obj = task.objective()
            return estimate_hvp(obj, np.array([1.0, 1.0]), v, cfg(samples=500, mode=mode),
                                RngStream(57, k)).hv

        mean, se = chunked(run, 60)
        assert_within_se(mean, QUAD_H @ v, se, 3)

    def test_linear_objective_zero_where_value_vanishes(self):
        # common random numbers: both shifted gradient estimates share draws
        # and evaluations, so for a linear objective the estimate collapses
        # to f(theta) * (weight); it vanishes identically where f(theta) = 0
        c = np.array([1.0, -1.0])
        obj = Objective(lambda th: float(c @ th), dim=2)
        theta = np.array([1.0, 1.0])
        hv = estimate_hvp(obj, theta, np.array([0.5, 1.0]), cfg(samples=64), RngStream(6)).hv
        assert np.abs(hv).max() < 1e-10

    def test_linear_objective_zero_in_expectation(self):
        c = np.array([1.0, 2.0])

        def run(k):
            obj = Objective(lambda th: float(c @ th), dim=2)
            return estimate_hvp(obj, np.array([0.3, -0.2]), np.array([1.0, 1.0]),
                                cfg(samples=500, mode=SamplingMode.AGGREGATE), RngStream(58, k)).hv

        mean, se = chunked(run, 40)
        assert_within_se(mean, np.zeros(2), se, 4)

    def test_linear_in_direction(self):
        task = quad_task()
        v = np.array([0.6, -0.2])

        def run_scaled(scale, k):
            obj = task.objective()
            return estimate_hvp(obj, np.array([1.0, 1.0]), scale * v,
                                cfg(samples=500, mode=SamplingMode.AGGREGATE), RngStream(59, k)).hv

        mean1, se1 = chunked(lambda k: run_scaled(1.0, k), 40)
        mean2, se2 = chunked(lambda k: run_scaled(2.0, k), 40)
        assert_within_se(mean2, 2.0 * (QUAD_H @ v), se2, 4)
        assert_within_se(mean1, QUAD_H @ v, se1, 4)

    def test_zero_direction_rejected(self):
        task = quad_task()
        with pytest.raises(ValueError):
            estimate_hvp(task.objective(), np.zeros(2), np.zeros(2), cfg(), RngStream(0))

    def test_eval_budget(self):
        task = quad_task()
        v = np.array([1.0, 1.0])
        for mode, per_pair in ((SamplingMode.PER_ELEMENT, 4), (SamplingMode.AGGREGATE, 2),
                               (SamplingMode.UNIFORM, 2)):
            obj = task.objective()
            est = estimate_hvp(obj, np.zeros(2), v, cfg(samples=9, mode=mode), RngStream(1))
            assert obj.eval_count == per_pair * 9
            assert est.evals_used == per_pair * 9


class TestGreybox:
    def test_identity_jacobian_leaves_gradient(self):
        g = GradientEstimate(g=np.array([1.0, -2.0]), evals_used=10)
        out = greybox_gradient(np.eye(2), g)
        assert np.array_equal(out.g, g.g)
        assert out.evals_used == 10

    def test_zero_jacobian_gives_zero(self):
        g = GradientEstimate(g=np.array([1.0, -2.0]), evals_used=4)
        assert np.all(greybox_gradient(np.zeros((2, 2)), g).g == 0.0)

    def test_linear_inner_sampled_outer_gradient(self):
        # inner y = A x, outer f(y) = y0 + y1; composite gradient is A^T (1,1)
        inner = np.array([[2.0, 0.0], [0.0, 3.0]])

        def run(k):
            obj = Objective(lambda y: float(y[0] + y[1]), dim=2)
            outer = estimate_gradient(obj, inner @ np.array([0.2, -0.1]),
                                      cfg(samples=400, mode=SamplingMode.AGGREGATE), RngStream(60, k))
            return greybox_gradient(inner, outer).g

        mean, se = chunked(run, 40)
        assert_within_se(mean, [2.0, 3.0], se, 3)

    def test_identity_jacobian_leaves_hessian(self):
        h = HessianEstimate(h=np.array([[2.0, 1.0], [1.0, 4.0]]), evals_used=6)
        assert np.array_equal(greybox_hessian(np.eye(2), h).h, h.h)

    def test_linear_inner_sampled_outer_hessian(self):
        # outer f(y) = ||y||^2 / 2 has unit Hessian; composite is A^T A
        inner = np.array([[2.0, 0.0], [0.0, 3.0]])

        def run(k):
            obj = Objective(lambda y: 0.5 * float(y @ y), dim=2)
            outer = estimate_hessian(obj, np.array([0.1, 0.4]),
                                     cfg(samples=400, mode=SamplingMode.AGGREGATE), RngStream(61, k))
            return greybox_hessian(inner, outer).h.ravel()

        mean, se = chunked(run, 40)
        assert_within_se(mean, np.diag([4.0, 9.0]).ravel(), se, 3)

    def test_composite_symmetry_exact(self):
        h = HessianEstimate(h=np.array([[2.0, 1.3], [1.3, 4.0]]), evals_used=0)
        jac = np.array([[1.0, 2.0], [0.5, -1.0]])
        out = greybox_hessian(jac, h).h
        assert np.array_equal(out, out.T)

    def test_shape_mismatch(self):
        g = GradientEstimate(g=np.zeros(3), evals_used=0)
        with pytest.raises(ValueError):
            greybox_gradient(np.eye(2), g)
        h = HessianEstimate(h=np.zeros((3, 3)), evals_used=0)
        with pytest.raises(ValueError):
            greybox_hessian(np.eye(2), h)


# (mode, order) pairs of the weight stage; FR22 draws only gradients
WEIGHT_CASES = [(mode, order) for mode in ("per_element", "aggregate", "uniform")
                for order in ("gradient", "hessian", "hvp")] + [("fr22", "gradient")]


@pytest.mark.parametrize("mode,order", WEIGHT_CASES)
def test_weight_stage_equals_kernel_over_pdf(mode, order):
    """The weights equal the reference kernel over the reference density on the drawn rows."""
    spec = KernelSpec(sigma=0.8, dim=3)
    sigma = spec.sigma
    v = np.array([0.6, -0.48, 0.64])
    c = cfg(sigma=sigma, dim=3, samples=5, mode=SamplingMode.PER_ELEMENT if mode == "fr22" else SamplingMode(mode))
    eps = c.epsilon()
    elements = hessian_elements(3) if order == "hessian" else gradient_elements(3)
    factor = {"gradient": partial(_gradient_factor, sigma=sigma),
              "hessian": partial(_hessian_factor, sigma=sigma),
              "hvp": partial(_hvp_factor, sigma=sigma, v=v, eps=eps)}[order]
    kernel = {"gradient": lambda t, e: gradient_kernel(t, e.i, spec),
              "hessian": lambda t, e: hessian_kernel(t, e, spec),
              "hvp": lambda t, e: (gradient_kernel(t + eps * v, e.i, spec)
                                   - gradient_kernel(t - eps * v, e.i, spec)) / (2.0 * eps)}[order]
    draw = _draw_axis_blur if mode == "fr22" else _draw
    blocks = list(_weighted(draw(c, RngStream(3), elements), factor))
    assert len(blocks) == (1 if mode in ("aggregate", "uniform") else len(elements))
    for rows, pos, weights in blocks:
        served = elements[pos]
        assert rows.shape == (10, 3) and weights.shape == (10, len(served))
        if mode == "fr22":
            (e,) = served
            ref = [[axis_blur_gradient_kernel(t[e.i], sigma) / gradient_pdf(t[e.i], sigma)] for t in rows]
        else:
            pdf = {"per_element": lambda t: element_pdf(t, served[0], spec),
                   "aggregate": lambda t: mixture_pdf(t, elements, spec),
                   "uniform": lambda t: (20.0 * sigma) ** -3}[mode]
            ref = [[kernel(t, e) / pdf(t) for e in served] for t in rows]
        ref = np.array(ref)
        assert np.max(np.abs(weights - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_high_dimension_small_sigma_emits_no_warnings():
    # sampler densities at n = 256, sigma = 0.01 overflowed float64 before
    # the estimators stopped computing them
    spec = KernelSpec(sigma=0.01, dim=256)
    obj = Objective(lambda th: float(th @ th), dim=256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_aggregate_offsets(gradient_elements(256), spec, default_hessian_diag_table(), RngStream(0), 8)
        estimate_hvp(obj, np.zeros(256), np.ones(256),
                     EstimatorConfig(spec=spec, samples=4, mode=SamplingMode.AGGREGATE), RngStream(1))


def test_table1_eval_complexity_across_dimensions():
    """Aggregate costs 2 per pair at any n; per-element scales with n."""
    for dim in (2, 10, 64):
        obj = Objective(lambda th: float(th @ th), dim=dim)
        c = cfg(dim=dim, samples=3, mode=SamplingMode.AGGREGATE)
        estimate_gradient(obj, np.zeros(dim), c, RngStream(1))
        estimate_hessian(obj, np.zeros(dim), c, RngStream(2))
        estimate_hvp(obj, np.zeros(dim), np.ones(dim), c, RngStream(3))
        assert obj.eval_count == 3 * (2 * 3)
        obj2 = Objective(lambda th: float(th @ th), dim=dim)
        estimate_hessian(obj2, np.zeros(dim), cfg(dim=dim, samples=3, mode=SamplingMode.PER_ELEMENT),
                         RngStream(4))
        assert obj2.eval_count == dim * (dim + 1) * 3


@pytest.mark.slow
def test_smoothed_gradient_matches_brute_force_convolution():
    """Cross-check on a non-quadratic objective without closed-form smoothing.

    Oracle: finite differences of a brute-force smoothed objective built
    by Monte Carlo convolution with common random numbers across the FD
    probes.
    """
    from smoothdiff.tasks import box_task

    task = box_task(1, resolution=(32, 32))
    theta = task.theta_true + np.array([0.06, 0.03])  # overlapping, non-plateau
    sigma = 0.05
    n_conv = 200_000
    offsets = np.random.default_rng(99).standard_normal((n_conv, 2)) * sigma
    step = 1e-3

    obj_oracle = task.objective()

    def smoothed(point):
        return float(np.mean([obj_oracle.evaluate(point - off) for off in offsets]))

    fd = np.empty(2)
    fd_se = np.empty(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        diffs = np.array([
            (obj_oracle.evaluate(theta + e - off) - obj_oracle.evaluate(theta - e - off)) / (2 * step)
            for off in offsets[:50_000]
        ])
        fd[i] = diffs.mean()
        fd_se[i] = diffs.std(ddof=1) / math.sqrt(len(diffs))

    def run(k):
        obj = task.objective()
        return estimate_gradient(obj, theta, cfg(sigma=sigma, samples=500,
                                                 mode=SamplingMode.AGGREGATE), RngStream(62, k)).g

    mean, se = chunked(run, 20)
    combined = np.sqrt(se**2 + fd_se**2)
    assert np.all(np.abs(mean - fd) <= 4 * combined + 1e-9)
