"""Estimator correctness: oracles on closed-form objectives, eval budgets."""

import math
import re
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import smoothdiff.estimators
from smoothdiff.estimators import (
    EstimationError,
    EstimatorConfig,
    Objective,
    SamplingMode,
    estimate_gradient,
    estimate_gradient_fd,
    estimate_gradient_fr22,
    estimate_hessian,
    estimate_hvp,
    evals_per_estimate,
)
from smoothdiff.estimators import (
    _CHUNK_BYTES,
    _contract_hvp,
    _draw,
    _draw_axis_blur,
    _evaluate,
    _even_coefficients,
    _reduce_gradient,
)
from smoothdiff.kernels import (
    KernelElement,
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
    sample_gradient_offsets,
)
from reference import (
    _gradient_weights,
    _hessian_weights,
    _hvp_weights,
    _weights,
    per_element_reference,
    reduce_estimates,
    stacked_estimate,
)
from smoothdiff.tasks import box_task, make_task, negated_gaussian_task, quad_task

QUAD_H = np.array([[10.0, 7.5], [7.5, 10.0]])


def cfg(sigma=1.0, dim=2, samples=1, mode=SamplingMode.PER_ELEMENT):
    return EstimatorConfig(spec=KernelSpec(sigma=sigma, dim=dim), samples=samples,
                           mode=mode)


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

    def test_evaluate_rows_counts_each_row(self):
        obj = Objective(lambda th: float(th.sum()), dim=3)
        points = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(obj.evaluate_rows(points), points.sum(axis=1))
        assert obj.eval_count == 4

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_evaluate_rows_aborts_at_first_non_finite_row(self, j):
        obj = Objective(lambda th: float(th[0]), dim=2)
        points = np.arange(10.0).reshape(5, 2)
        points[j, 0] = np.nan
        points[4, 0] = np.inf
        with pytest.raises(EstimationError) as err:
            obj.evaluate_rows(points)
        assert obj.eval_count == j + 1
        assert np.array_equal(err.value.point, points[j], equal_nan=True)
        assert err.value.point.flags.owndata

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Objective(lambda th: 0.0, dim=0)


def summed_loss():
    """A loss whose batched form ``rows`` records the batches it is called with."""
    def fn(th):
        return float(th.sum())

    def rows(points):
        fn.calls.append(len(points))
        return points.sum(axis=1)

    fn.rows, fn.calls = rows, []
    return fn


class TestBatchedObjective:
    def test_rows_counts_every_row_of_one_call(self):
        fn = summed_loss()
        obj = Objective(fn, dim=3)
        points = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(obj.evaluate_rows(points), points.sum(axis=1))
        assert obj.eval_count == 4 and fn.calls == [4]
        obj.evaluate(points[0])
        assert obj.eval_count == 5 and fn.calls == [4]

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_non_finite_row_raises_with_an_owned_copy_of_it(self, k):
        obj = Objective(summed_loss(), dim=2)
        points = np.arange(10.0).reshape(5, 2)
        points[k, 1] = np.nan
        if k < 4:
            points[4, 0] = np.inf
        with pytest.raises(EstimationError) as err:
            obj.evaluate_rows(points)
        # a batched call evaluates and counts every row before its check
        assert obj.eval_count == 5
        assert np.array_equal(err.value.point, points[k], equal_nan=True)
        assert err.value.point.flags.owndata
        assert "non-finite value nan" in str(err.value)

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), (3,), ()])
    def test_rows_of_another_shape_is_a_value_error(self, shape):
        def fn(th):
            return float(th.sum())

        fn.rows = lambda points: np.zeros(shape)
        obj = Objective(fn, dim=3)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape} for 4 points, expected (4,)")):
            obj.evaluate_rows(np.zeros((4, 3)))

    @pytest.mark.parametrize("name", ["box10", "phong", "texture16"])
    def test_plain_wrapper_takes_the_row_loop_with_the_same_values(self, name):
        task = make_task(name)
        calls = []

        def wrapped(th):
            calls.append(th)
            return task.fn(th)

        points = task.theta_true + 0.1 * np.random.default_rng(3).standard_normal((9, task.dim))
        batched, looped = task.objective(), Objective(wrapped, task.dim)
        assert np.array_equal(batched.evaluate_rows(points), looped.evaluate_rows(points))
        assert batched.eval_count == looped.eval_count == len(calls) == 9

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_rows_of_another_dtype_give_the_row_loops_float64_estimates(self, dtype, mode):
        # int64 values once made the contraction raise, float32 ones a float32 or rounded gradient
        def looped(th):
            return float(dtype(1000.0 * wavy(th)))

        def batched(th):
            return looped(th)

        batched.rows = lambda points: np.array([1000.0 * wavy(p) for p in points]).astype(dtype)
        points = np.arange(12.0).reshape(4, 3) / 7.0
        vals = Objective(batched, 3).evaluate_rows(points)
        assert vals.dtype == np.float64
        assert np.array_equal(vals, Objective(looped, 3).evaluate_rows(points))
        c = cfg(sigma=0.6, dim=3, samples=3, mode=mode)
        theta = np.array([0.4, -0.7, 0.2])
        got = estimate_gradient(Objective(batched, 3), theta, c, RngStream(8)).g
        want = estimate_gradient(Objective(looped, 3), theta, c, RngStream(8)).g
        assert got.dtype == np.float64 and np.array_equal(got, want)


class TestEvaluateStage:
    def test_one_rows_call_per_stack_minus_rows_then_plus_rows_block_by_block(self):
        weights = np.array([1.0, -2.0, 0.5])
        calls = []

        def fn(th):
            return float(th @ weights)

        def rows(points):
            calls.append(points.copy())
            return points @ weights

        fn.rows = rows
        obj = Objective(fn, 3)
        theta = np.array([0.5, -1.0, 2.0])
        stacked = np.random.default_rng(2).standard_normal((4, 3, 3))
        # a shared (samples, dim) block, then (blocks, samples, dim) stacked blocks
        for taus in (stacked[0], stacked):
            calls.clear()
            vals = _evaluate(obj, theta, taus)
            blocks = taus.reshape(-1, 3, 3)
            want = np.concatenate([np.concatenate((theta - b, theta + b)) for b in blocks])
            assert len(calls) == 1 and np.array_equal(calls[0], want)
            assert vals.shape == taus.shape[:-2] + (6,)
            assert np.array_equal(vals.reshape(-1), want @ weights)
        assert obj.eval_count == 6 + 4 * 6


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(samples=0)


class TestSamplingMode:
    def test_parse_takes_each_mode_by_value(self):
        for mode in SamplingMode:
            assert SamplingMode.parse(f" {mode.value.upper().replace('_', '-')} ") is mode

    @pytest.mark.parametrize("name", ["perelementis", "per_element_is", "aggregateis",
                                      "aggregate_is", "per element"])
    def test_parse_rejects_other_names(self, name):
        with pytest.raises(ValueError, match=f"unknown sampling mode {name!r}"):
            SamplingMode.parse(name)


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

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1e-6])
    def test_bad_step_rejected_before_any_evaluation(self, step):
        # box10 clamps its centres, so an infinite step used to spend 20
        # evaluations and return an all-zero gradient
        obj = box_task(5).objective()
        with pytest.raises(ValueError, match="step"):
            estimate_gradient_fd(obj, np.full(10, 0.5), step=step)
        assert obj.eval_count == 0


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
        # the HVP weight is even in tau, so an antithetic pair counts only
        # through its mean value, which for a linear objective is f(theta);
        # the estimate vanishes identically where f(theta) = 0
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_non_finite_direction_rejected_before_any_evaluation(self, bad, mode):
        # checked before the draw: it would spend 2 * samples evaluations on an all-nan estimate
        obj = Objective(lambda th: float(th @ th), dim=3)
        with pytest.raises(ValueError, match="finite"):
            estimate_hvp(obj, np.zeros(3), np.array([bad, 1.0, 0.0]), cfg(dim=3, samples=2, mode=mode),
                         RngStream(0))
        assert obj.eval_count == 0

    def test_eval_budget(self):
        task = quad_task()
        v = np.array([1.0, 1.0])
        for mode, per_pair in ((SamplingMode.PER_ELEMENT, 4), (SamplingMode.AGGREGATE, 2),
                               (SamplingMode.UNIFORM, 2)):
            obj = task.objective()
            est = estimate_hvp(obj, np.zeros(2), v, cfg(samples=9, mode=mode), RngStream(1))
            assert obj.eval_count == per_pair * 9
            assert est.evals_used == per_pair * 9


class TestSampledBatch:
    """The evaluated batch a gradient estimate keeps, and the HVPs contracted from it."""

    THETA = np.array([0.4, -0.7, 0.2])
    V = np.array([0.3, -1.1, 0.5])
    U = np.array([-0.8, 0.2, 1.4])

    def keep(self, mode, seed=8, samples=3, obj=None):
        obj = obj or Objective(wavy, 3)
        return estimate_gradient(obj, self.THETA, cfg(sigma=0.6, dim=3, samples=samples, mode=mode),
                                 RngStream(seed), keep_batch=True)

    def evaluated(self, mode):
        """The stacks and values ``keep`` evaluates, re-drawn from a fresh stream at its address."""
        stacks = _draw(cfg(sigma=0.6, dim=3, samples=3, mode=mode), RngStream(8), gradient_elements(3))
        obj = Objective(wavy, 3)
        return [(s, _evaluate(obj, self.THETA, s.taus)) for s in stacks]

    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_estimates_equal_reductions_of_the_same_stacks_and_values(self, mode):
        est = self.keep(mode)
        batch = est.batch
        sigma = batch.cfg.spec.sigma
        evaluated = self.evaluated(mode)
        assert np.array_equal(est.g, np.concatenate(
            [_reduce_gradient(stack, vals, sigma) for stack, vals in evaluated]))
        for v in (self.V, -2.0 * self.V, np.array([0.0, 0.0, 3.0])):
            want = np.concatenate(
                [_contract_hvp(stack, _even_coefficients(vals, stack.q), sigma, v)
                 for stack, vals in evaluated])
            assert np.array_equal(batch.hvp(v), want)

    @pytest.mark.parametrize("mode,chunk_bytes", [pytest.param(m, None, id=str(m)) for m in SamplingMode] + [
        # one element per chunk: the batch keeps a term per chunk
        pytest.param(SamplingMode.PER_ELEMENT, 1, id="SamplingMode.PER_ELEMENT-in-chunks")])
    def test_same_bits_as_the_per_call_estimators(self, mode, chunk_bytes, monkeypatch):
        if chunk_bytes is not None:
            monkeypatch.setattr(smoothdiff.estimators, "_CHUNK_BYTES", chunk_bytes)
        c = cfg(sigma=0.6, dim=3, samples=3, mode=mode)
        kept = self.keep(mode)
        assert len(kept.batch.terms) == (1 if chunk_bytes is None else 3)
        streamed = estimate_gradient(Objective(wavy, 3), self.THETA, c, RngStream(8))
        assert streamed.batch is None
        assert np.array_equal(kept.g, streamed.g) and kept.evals_used == streamed.evals_used
        per_call = estimate_hvp(Objective(wavy, 3), self.THETA, self.V, c, RngStream(8)).hv
        assert np.array_equal(kept.batch.hvp(self.V), per_call)

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    @pytest.mark.parametrize("a", [2.5, -0.3, 1e-4])
    def test_homogeneous_in_direction(self, mode, a):
        batch = self.keep(mode).batch
        assert_allclose(batch.hvp(a * self.V), a * batch.hvp(self.V), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_additive_in_direction(self, mode):
        batch = self.keep(mode).batch
        both = batch.hvp(self.U + self.V)
        assert np.linalg.norm(both - batch.hvp(self.U) - batch.hvp(self.V)) <= 1e-12 * np.linalg.norm(both)

    @pytest.mark.parametrize("mode", [SamplingMode.AGGREGATE, SamplingMode.UNIFORM])
    def test_symmetric_for_a_shared_block(self, mode):
        # per-element rows come from blocks of their own, so only a shared block is symmetric
        batch = self.keep(mode).batch
        uhv = self.U @ batch.hvp(self.V)
        assert abs(uhv - self.V @ batch.hvp(self.U)) <= 1e-12 * abs(uhv)

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_products_spend_no_evaluation(self, mode):
        obj = Objective(wavy, 3)
        est = self.keep(mode, obj=obj)
        assert obj.eval_count == est.evals_used == evals_per_estimate(mode, 3, 3)
        for k in range(4):
            est.batch.hvp(np.roll(self.V, k))
        assert obj.eval_count == est.evals_used

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_even_coefficients_formed_once_per_batch(self, mode, monkeypatch):
        calls = []
        real = smoothdiff.estimators._even_coefficients
        monkeypatch.setattr(smoothdiff.estimators, "_even_coefficients",
                            lambda vals, q: calls.append(1) or real(vals, q))
        batch = self.keep(mode).batch
        for k in range(3):
            batch.hvp(np.roll(self.V, k))
        assert len(calls) == len(self.evaluated(mode))

    def test_bad_direction_rejected(self):
        batch = self.keep(SamplingMode.AGGREGATE).batch
        for bad in (np.zeros(3), np.array([math.nan, 1.0, 0.0]), np.ones(2)):
            with pytest.raises(ValueError, match="direction"):
                batch.hvp(bad)


# Every estimate, called on one objective at theta; two pairs per block, so
# that the even (Hessian and HVP) coefficients of a constant loss are centred to 0
FINITENESS_ESTIMATES = {
    "gradient": lambda obj, th: estimate_gradient(obj, th, cfg(samples=2), RngStream(1)).g,
    "gradient_aggregate": lambda obj, th: estimate_gradient(
        obj, th, cfg(samples=2, mode=SamplingMode.AGGREGATE), RngStream(1)).g,
    "fr22": lambda obj, th: estimate_gradient_fr22(obj, th, cfg(samples=2), RngStream(1)).g,
    "fd": lambda obj, th: estimate_gradient_fd(obj, th, 1e-4).g,
    "hessian": lambda obj, th: estimate_hessian(obj, th, cfg(samples=2), RngStream(1)).h,
    "hvp": lambda obj, th: estimate_hvp(obj, th, np.array([1.0, 0.5]), cfg(samples=2), RngStream(1)).hv,
}


class TestFinitenessEdges:
    """The finiteness checks accept every finite input, also where a square over- or underflows."""

    @pytest.mark.parametrize("name", list(FINITENESS_ESTIMATES))
    def test_theta_whose_squares_overflow_is_accepted(self, name):
        obj = Objective(lambda th: 1.0, dim=2)
        assert math.isinf(1e200 * 1e200)
        out = FINITENESS_ESTIMATES[name](obj, np.array([1e200, -1e200]))
        assert np.all(out == 0.0) and obj.eval_count > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(FINITENESS_ESTIMATES))
    def test_non_finite_theta_is_rejected_before_any_evaluation(self, name, bad):
        obj = Objective(lambda th: 1.0, dim=2)
        with pytest.raises(ValueError, match="^theta must be finite$"):
            FINITENESS_ESTIMATES[name](obj, np.array([0.5, bad]))
        assert obj.eval_count == 0

    @pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
    @pytest.mark.parametrize("name", list(FINITENESS_ESTIMATES))
    def test_theta_of_another_shape_is_rejected_before_any_evaluation(self, name, shape):
        obj = Objective(lambda th: 1.0, dim=2)
        with pytest.raises(ValueError, match=re.escape(f"theta has shape {shape}, expected (2,)")):
            FINITENESS_ESTIMATES[name](obj, np.zeros(shape))
        assert obj.eval_count == 0

    @pytest.mark.parametrize("kept", [False, True])
    def test_direction_whose_square_underflows_is_accepted(self, kept):
        v = np.array([1e-200, -1e-200])
        assert v @ v == 0.0
        c = cfg(samples=3, mode=SamplingMode.AGGREGATE)
        obj = Objective(wavy, 2)
        if kept:
            hv = estimate_gradient(obj, np.zeros(2), c, RngStream(2), keep_batch=True).batch.hvp(v)
        else:
            hv = estimate_hvp(obj, np.zeros(2), v, c, RngStream(2)).hv
        assert np.all(np.isfinite(hv)) and np.any(hv != 0.0)

    @pytest.mark.parametrize("kept", [False, True])
    @pytest.mark.parametrize("bad,message", [
        (np.array([math.nan, 1.0]), "direction must be finite"),
        (np.array([1.0, math.inf]), "direction must be finite"),
        (np.array([-math.inf, 0.0]), "direction must be finite"),
        (np.array([1e200, math.nan]), "direction must be finite"),
        (np.zeros(2), "direction must be nonzero"),
        (np.array([-0.0, 0.0]), "direction must be nonzero"),
    ])
    def test_non_finite_or_zero_direction_is_rejected(self, kept, bad, message):
        c = cfg(samples=3, mode=SamplingMode.AGGREGATE)
        obj = Objective(wavy, 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            if kept:
                estimate_gradient(obj, np.zeros(2), c, RngStream(2), keep_batch=True).batch.hvp(bad)
            else:
                estimate_hvp(obj, np.zeros(2), bad, c, RngStream(2))


@pytest.mark.parametrize("obj_dim", [1, 3])
@pytest.mark.parametrize("name", [name for name in FINITENESS_ESTIMATES if name != "fd"])  # FD has no kernel
def test_kernel_of_another_dimension_is_rejected_before_any_evaluation(name, obj_dim):
    # a kernel of another dimension used to be drawn and evaluated anyway:
    # on a 3-D objective a 2-D estimate came back, blind to the third axis
    obj = Objective(lambda th: 1.0, obj_dim)
    with pytest.raises(ValueError,
                       match=f"^kernel dimension 2 does not match the objective's dimension {obj_dim}$"):
        FINITENESS_ESTIMATES[name](obj, np.zeros(2))
    assert obj.eval_count == 0


def hessian_element(i, j):
    return KernelElement.hessian_diag(i) if i == j else KernelElement.hessian_off_diag(i, j)


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
    elements = hessian_elements(3) if order == "hessian" else gradient_elements(3)
    weigh = {"gradient": partial(_gradient_weights, sigma=sigma),
             "hessian": partial(_hessian_weights, sigma=sigma),
             "hvp": partial(_hvp_weights, sigma=sigma, v=v)}[order]
    kernel = {"gradient": lambda t, e: gradient_kernel(t, e.i, spec),
              "hessian": lambda t, e: hessian_kernel(t, e, spec),
              "hvp": lambda t, e: sum(hessian_kernel(t, hessian_element(e.i, j), spec) * v[j]
                                      for j in range(3))}[order]
    draw = _draw_axis_blur if mode == "fr22" else _draw
    (stack,) = draw(c, RngStream(3), elements)
    # a stack holds the drawn rows, and the stage weights them and their mirror images
    weights = np.concatenate(_weights(stack, weigh), axis=1)
    blocks = 1 if mode in ("aggregate", "uniform") else len(elements)
    per_block = len(elements) // blocks
    # a shared block is drawn as (samples, dim), per-element blocks as (blocks, samples, dim)
    assert stack.taus.shape == ((5, 3) if blocks == 1 else (blocks, 5, 3))
    assert weights.shape == (blocks, 10, per_block)
    taus = stack.taus.reshape(blocks, 5, 3)
    for b, rows in enumerate(np.concatenate((taus, -taus), axis=1)):
        served = elements[b * per_block:(b + 1) * per_block]
        if mode == "fr22":
            (e,) = served
            ref = [[axis_blur_gradient_kernel(t[e.i], sigma) / gradient_pdf(t[e.i], sigma)] for t in rows]
        else:
            pdf = {"per_element": lambda t: element_pdf(t, served[0], spec),
                   "aggregate": lambda t: mixture_pdf(t, elements, spec),
                   "uniform": lambda t: (20.0 * sigma) ** -3}[mode]
            ref = [[kernel(t, e) / pdf(t) for e in served] for t in rows]
        ref = np.array(ref)
        assert np.max(np.abs(weights[b] - ref)) <= 1e-12 * np.max(np.abs(ref))


def wavy(th):
    return float(np.sin(3.0 * th).sum() + 0.5 * th @ th + np.cos(th[0] * th[-1]))


# n = 256 stacks its gradient and HVP blocks in several chunks from 4 samples
# on, n = 64 its Hessian blocks from 1 sample on
STACKED_SIZES = [(order, n) for order in ("gradient", "hessian", "hvp", "fr22") for n in (1, 2, 3, 7)]
STACKED_SIZES += [("gradient", 256), ("hvp", 256)]
STACKED_CASES = [(order, n, samples, sigma) for order, n in STACKED_SIZES
                 for samples in (1, 2, 4, 9) for sigma in (0.01, 0.3, 1.0)]
STACKED_CASES += [("hessian", 64, 1, 0.3), ("hessian", 64, 2, 0.01)]


@pytest.mark.parametrize("order,n,samples,sigma", STACKED_CASES)
def test_stacked_per_element_equals_block_loop(order, n, samples, sigma):
    c = cfg(sigma=sigma, dim=n, samples=samples)
    theta = np.linspace(-0.7, 0.9, n)
    v = np.cos(np.arange(n) + 0.3)
    obj, obj_ref = Objective(wavy, n), Objective(wavy, n)
    got = stacked_estimate(order, obj, theta, c, RngStream(5, samples), v)
    want = per_element_reference(order, obj_ref, theta, c, RngStream(5, samples), v)
    assert np.array_equal(got, want)
    assert obj.eval_count == obj_ref.eval_count


# n = 256 for gradients and HVPs and n = 64 for Hessians: the sizes of the
# stacked per-element cases above, where per-element stacks span several
# chunks; FR22 ("fr22") draws per-element gradient blocks only
REDUCE_CASES = [(mode, order, n, samples, sigma)
                for mode in (SamplingMode.AGGREGATE, SamplingMode.UNIFORM, SamplingMode.PER_ELEMENT)
                for order in ("gradient", "hessian", "hvp", "fr22")
                if order != "fr22" or mode is SamplingMode.PER_ELEMENT
                for n in (1, 2, 3, 7, 64 if order == "hessian" else 256)
                for samples in (1, 2, 4, 9) for sigma in (0.01, 0.3, 1.0)]


@pytest.mark.parametrize("mode,order,n,samples,sigma", REDUCE_CASES)
def test_reduce_equals_weighted_reduction(mode, order, n, samples, sigma):
    c = cfg(sigma=sigma, dim=n, samples=samples, mode=mode)
    theta = np.linspace(-0.7, 0.9, n)
    got, terms = reduce_estimates(order, wavy, theta, c, RngStream(6, samples),
                                  np.cos(np.arange(n) + 0.3))
    assert got.shape == terms.shape[:1]
    assert sums_agree(got, terms).all()
    # the bound still catches a 1e-9 relative error in each element's largest term
    scale = np.abs(terms).sum(axis=1)
    nudged = terms.copy()
    nudged[np.arange(len(terms)), np.abs(terms).argmax(axis=1)] *= 1.0 + 1e-9
    assert not sums_agree(got, nudged)[scale > 0].any()


def sums_agree(got: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Whether each got[k] is the sum of terms[k] to 1e-12 of that sum's error scale, sum |terms[k]|.

    A floating-point sum errs in proportion to the magnitudes it adds, not
    to its result, which cancels to about 1e-17 in some Hessian cases.
    """
    return np.abs(got - terms.sum(axis=1)) <= 1e-12 * np.abs(terms).sum(axis=1)


def test_non_finite_in_later_element_aborts_at_its_row():
    # element 2's block holds calls 9-12; only calls from 10 on are non-finite
    n, samples = 3, 2
    c = cfg(dim=n, samples=samples)
    theta = np.array([0.1, -0.2, 0.3])
    obj = Objective(lambda th: float("nan") if obj.eval_count >= 10 else float(th @ th), dim=n)
    with pytest.raises(EstimationError) as err:
        estimate_gradient(obj, theta, c, RngStream(4))
    assert obj.eval_count == 10
    taus = sample_gradient_offsets(np.arange(n), c.spec, RngStream(4), samples)[0].reshape(n, samples, n)[2]
    row = np.concatenate((taus, -taus))[1]
    assert np.array_equal(err.value.point, theta - row)
    assert err.value.point.flags.owndata


@pytest.mark.parametrize("name", ["box10", "phong", "texture16"])
def test_batched_objective_gives_the_row_loops_estimates_bit_for_bit(name):
    # every estimator, fed one rows call per batch or one call per row
    task = make_task(name)
    n = task.dim
    theta = task.init_sampler(np.random.default_rng(9))
    per_element, aggregate = (cfg(sigma=0.05, dim=n, samples=2, mode=mode)
                              for mode in (SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE))
    estimates = [
        lambda obj: estimate_gradient(obj, theta, per_element, RngStream(5)).g,
        lambda obj: estimate_gradient(obj, theta, aggregate, RngStream(5)).g,
        lambda obj: estimate_gradient_fd(obj, theta, 1e-4).g,
        # one pair per element: n (n + 1) = 65,792 rows at n = 256
        lambda obj: estimate_hessian(obj, theta, cfg(sigma=0.05, dim=n), RngStream(5)).h,
    ]
    for estimate in estimates:
        batched, looped = task.objective(), Objective(lambda th: task.fn(th), n)
        assert np.array_equal(estimate(batched), estimate(looped))
        assert batched.eval_count == looped.eval_count


def test_per_element_hessian_memory_stays_within_chunk_bound():
    # unchunked, the stacked rows alone would take 8256 * 2 * 128 * 8 = 16.9 MB
    n = 128
    obj = Objective(lambda th: float(th[0]), dim=n)
    hessian_elements(n), default_hessian_diag_table()  # cached set-up, not part of an estimate
    tracemalloc.start()
    try:
        estimate_hessian(obj, np.zeros(n), cfg(dim=n, samples=1), RngStream(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obj.eval_count == n * (n + 1)
    assert peak < _CHUNK_BYTES


def test_per_element_gradient_memory_stays_within_chunk_bound():
    # Adam's streamed estimate; its 512 blocks of 4 drawn rows, held whole
    # as a kept batch holds them, would take 512 * 4 * 512 * 8 = 8.4 MB
    n, samples = 512, 4
    obj = Objective(lambda th: float(th[0]), dim=n)
    gradient_elements(n)  # cached set-up, not part of an estimate
    tracemalloc.start()
    try:
        est = estimate_gradient(obj, np.zeros(n), cfg(dim=n, samples=samples), RngStream(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.batch is None and obj.eval_count == 2 * samples * n
    assert peak < _CHUNK_BYTES


def test_texture_gradient_estimate_holds_no_mirror_block_or_batch_copy():
    # one per-element texture16 estimate: its points take 1 MiB and its drawn
    # rows 0.5 MiB; the sampler's staged draws and the loss's working block
    # are far smaller.  Holding the sampler's mirror block through the later
    # stages, and clamping the whole batch into working copies, took it to 4 MiB
    task = make_task("texture16")
    obj, c = task.objective(), cfg(sigma=0.3, dim=task.dim)
    theta = task.init_sampler(np.random.default_rng(0))
    estimate_gradient(obj, theta, c, RngStream(0))  # cached set-up, not part of an estimate
    tracemalloc.start()
    try:
        estimate_gradient(obj, theta, c, RngStream(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


# n = 5 per-element blocks, two per chunk: three chunks, the last a block short
CHUNKED_N, CHUNKED_SAMPLES = 5, 2
CHUNKED_ESTIMATES = {
    "gradient": lambda obj, th, c: estimate_gradient(obj, th, c, RngStream(7)).g,
    "fr22": lambda obj, th, c: estimate_gradient_fr22(obj, th, c, RngStream(7)).g,
    "hessian": lambda obj, th, c: upper(estimate_hessian(obj, th, c, RngStream(7)).h),
}


def upper(h):
    """The entries of a symmetric matrix in the order of ``hessian_elements``."""
    elements = hessian_elements(len(h))
    return h[elements.i, elements.j]


def two_blocks_per_chunk(monkeypatch):
    monkeypatch.setattr(smoothdiff.estimators, "_CHUNK_BYTES", 2 * 4 * 8 * 2 * CHUNKED_SAMPLES * CHUNKED_N)


@pytest.mark.parametrize("order", list(CHUNKED_ESTIMATES))
def test_chunks_share_one_points_buffer_and_give_the_same_estimate(order, monkeypatch):
    # the Hessian's 15 elements, two per chunk, make eight chunks
    two_blocks_per_chunk(monkeypatch)
    inputs = []
    real = Objective.evaluate_rows
    monkeypatch.setattr(Objective, "evaluate_rows", lambda obj, points: inputs.append(points) or real(obj, points))
    c = cfg(sigma=0.6, dim=CHUNKED_N, samples=CHUNKED_SAMPLES)
    theta = np.linspace(-0.7, 0.9, CHUNKED_N)
    got = CHUNKED_ESTIMATES[order](Objective(wavy, CHUNKED_N), theta, c)
    assert len(inputs) >= 3 and len(inputs[-1]) < len(inputs[0])
    assert all(np.shares_memory(inputs[0], points) for points in inputs[1:])
    # the same draws, each chunk's points built on their own and evaluated row by row
    want, _ = reduce_estimates(order, wavy, theta, c, RngStream(7))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", list(CHUNKED_ESTIMATES))
def test_a_multi_chunk_draw_draws_each_chunk_after_the_last_one_is_evaluated(order, monkeypatch):
    # a draw held whole would make every sampler call before the first evaluation
    two_blocks_per_chunk(monkeypatch)
    events = []
    for name in ("sample_gradient_offsets", "sample_hessian_offsets", "element_density_ratios"):
        real_draw = getattr(smoothdiff.estimators, name)
        monkeypatch.setattr(smoothdiff.estimators, name,
                            partial(lambda fn, *args: events.append("draw") or fn(*args), real_draw))
    real = Objective.evaluate_rows
    monkeypatch.setattr(Objective, "evaluate_rows",
                        lambda obj, points: events.append("evaluate") or real(obj, points))
    c = cfg(sigma=0.6, dim=CHUNKED_N, samples=CHUNKED_SAMPLES)
    CHUNKED_ESTIMATES[order](Objective(wavy, CHUNKED_N), np.zeros(CHUNKED_N), c)
    assert len(events) >= 6 and events == ["draw", "evaluate"] * (len(events) // 2)


@pytest.mark.parametrize("mode", list(SamplingMode))
def test_a_draw_of_one_stack_is_a_tuple_of_it(mode):
    draws = _draw(cfg(dim=3, samples=2, mode=mode), RngStream(1), gradient_elements(3))
    assert type(draws) is tuple and len(draws) == 1
    assert type(_draw_axis_blur(cfg(dim=3, samples=2), RngStream(1), gradient_elements(3))) is tuple


def test_high_dimension_small_sigma_emits_no_warnings():
    # sampler densities at n = 256, sigma = 0.01 overflowed float64 before
    # the estimators stopped computing them
    spec = KernelSpec(sigma=0.01, dim=256)
    obj = Objective(lambda th: float(th @ th), dim=256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample_aggregate_offsets(gradient_elements(256), spec, RngStream(0), 8)
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


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
@pytest.mark.parametrize("samples", [1, 3])
def test_evals_per_estimate_matches_evals_used(dim, samples):
    """The cost model the harness plans with is what every estimator spends."""
    obj = Objective(lambda th: float(th @ th), dim=dim)
    theta, v = np.full(dim, 0.25), np.ones(dim)
    for mode in SamplingMode:
        c = cfg(dim=dim, samples=samples, mode=mode)
        assert estimate_gradient(obj, theta, c, RngStream(1)).evals_used == \
            evals_per_estimate(mode, dim, samples)
        assert estimate_hessian(obj, theta, c, RngStream(2)).evals_used == \
            evals_per_estimate(mode, dim * (dim + 1) // 2, samples)
        assert estimate_hvp(obj, theta, v, c, RngStream(3)).evals_used == \
            evals_per_estimate(mode, dim, samples)
    c = cfg(dim=dim, samples=samples)
    assert estimate_gradient_fr22(obj, theta, c, RngStream(4)).evals_used == \
        evals_per_estimate(SamplingMode.PER_ELEMENT, dim, samples)
    assert estimate_gradient_fd(obj, theta, 1e-6).evals_used == \
        evals_per_estimate(SamplingMode.PER_ELEMENT, dim, 1)


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


@pytest.mark.parametrize("layout", ["aggregate", "per_element", "chunks"])
def test_a_batch_product_is_its_checked_hvp_bit_for_bit(monkeypatch, layout):
    if layout == "chunks":
        monkeypatch.setattr(smoothdiff.estimators, "_CHUNK_BYTES", 4 * 8 * 2 * 3 * 4)  # one element a chunk
    mode = SamplingMode.AGGREGATE if layout == "aggregate" else SamplingMode.PER_ELEMENT
    batch = estimate_gradient(Objective(wavy, 4), np.full(4, 0.3), cfg(dim=4, samples=3, mode=mode),
                              RngStream(5), keep_batch=True).batch
    assert (len(batch.terms) > 1) == (layout == "chunks")
    for v in (np.array([0.6, -0.48, 0.64, 1.0]), np.full(4, 1e-170)):
        assert np.array_equal(batch.product(v), batch.hvp(v))
    with pytest.raises(ValueError, match="^direction must be nonzero$"):
        batch.hvp(np.zeros(4))
