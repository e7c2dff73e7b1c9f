"""Optimizer identities: Newton exactness, conjugacy, trust region, Adam."""

import itertools
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothdiff import optimizers
from smoothdiff.estimators import EstimationError, GradientEstimate, Objective, _check_direction
from smoothdiff.optimizers import (
    SigmaSchedule,
    TrustRegion,
    anneal_sigma,
    gd_adam_run,
    newton_cg_run,
    psd_modify,
)
from smoothdiff.tasks import negated_gaussian_task, quad_task
from smoothdiff.trace import Budget, NonFiniteStateError

QUAD_H = np.array([[10.0, 7.5], [7.5, 10.0]])


def nan_beyond_five():
    """Objective th . th that is NaN wherever th[0] >= 5."""
    return Objective(lambda th: th @ th if th[0] < 5 else math.nan, 2)


def push_along_x(theta, sigma):
    """Local model with gradient -e_x and flat curvature: every step runs +x to the boundary."""
    return GradientEstimate(g=np.array([-1.0, 0.0]), evals_used=0), lambda v: 1e-3 * v


def analytic_model(task, scale=1.0, log=None):
    """Exact local model with the curvature scaled by ``scale``; logs each call to ``log``."""

    def model(theta, sigma):
        if log is not None:
            log.append(("model", np.array(theta), sigma))
        hess = task.smoothed_hess(theta, 0.0)
        return (GradientEstimate(g=task.smoothed_grad(theta, 0.0), evals_used=0),
                lambda v: scale * (hess @ v))

    return model


class TestAnnealSigma:
    def test_endpoints(self):
        sched = SigmaSchedule(2.0, 0.2)
        assert anneal_sigma(sched, 0.0) == 2.0
        assert anneal_sigma(sched, 1.0) == 0.2

    def test_midpoint_is_mean(self):
        assert anneal_sigma(SigmaSchedule(2.0, 1.0), 0.5) == pytest.approx(1.5)

    def test_clamps_past_the_whole_budget(self):
        # a run's last iteration can start just short of 1 and overrun it
        assert anneal_sigma(SigmaSchedule(2.0, 0.2), 1.7) == 0.2

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SigmaSchedule(0.0, 1.0)
        with pytest.raises(ValueError, match="share"):
            anneal_sigma(SigmaSchedule(1.0, 0.1), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_endpoints(self, bad):
        # anneal_sigma would interpolate to sigma = nan or inf
        with pytest.raises(ValueError, match="finite"):
            SigmaSchedule(bad, 0.1)
        with pytest.raises(ValueError, match="finite"):
            SigmaSchedule(1.0, bad)


def test_budget_share_is_the_larger_share_and_reaches_one_at_a_limit():
    budget = Budget(seconds=2.0, evals=10)
    assert budget.spent(0.5, 5) == 0.5 and budget.spent(1.5, 5) == 0.75
    assert budget.spent(0.0, 9) < 1.0 <= budget.spent(0.0, 10)
    assert Budget(evals=3).spent(100.0, 1) == 1 / 3
    for bad in (dict(evals=0), dict(seconds=0.0), dict(seconds=math.nan)):
        with pytest.raises(ValueError, match="> 0"):
            Budget(**bad)


@pytest.mark.parametrize("bad", [dict(seconds=math.inf), dict(seconds=math.inf, evals=10),
                                 dict(evals=math.inf), dict(seconds=-math.inf)])
def test_budget_rejects_an_infinite_limit(bad):
    # Budget(seconds=inf) spent a share of 0 forever: a run with no evals limit never ended
    with pytest.raises(ValueError, match="finite"):
        Budget(**bad)


def test_budget_needs_a_limit():
    with pytest.raises(ValueError, match="budget needs seconds or evals"):
        Budget()


def record_thetas(gradient):
    """A gradient_fn returning ``gradient(theta)``, and the list of the thetas it is handed."""
    thetas = []

    def grad_fn(theta, sigma):
        thetas.append(theta)
        return GradientEstimate(g=gradient(theta), evals_used=0)

    return grad_fn, thetas


class TestAdam:
    def test_zero_gradient_leaves_theta(self):
        init = np.array([1.0, -2.0])
        task = quad_task()
        grad_fn, thetas = record_thetas(lambda th: np.zeros(2))
        trace = gd_adam_run(task.objective(), grad_fn, init, SigmaSchedule(1.0, 0.1), 0.3,
                            Budget(evals=10), param_error_fn=task.param_error)
        assert len(thetas) == 9 and all(np.array_equal(theta, init) for theta in thetas)
        errors = [r.param_error for r in trace.records]
        assert errors == [errors[0]] * len(errors)

    def test_quad_converges_with_exact_gradients(self):
        # Adam at lr=0.5 overshoots near the bottom, so the loss is not
        # monotone; it still contracts by >99% over 50 iterations
        task = quad_task()
        grad_fn = lambda th, s: GradientEstimate(g=task.smoothed_grad(th, 0.0), evals_used=0)
        trace = gd_adam_run(task.objective(), grad_fn, np.array([3.0, 3.0]), SigmaSchedule(1.0, 0.1),
                            0.5, Budget(evals=51))
        losses = [r.loss for r in trace.records]
        assert len(losses) == 51
        assert all(b < a for a, b in zip(losses[:6], losses[1:7]))
        assert losses[-1] < 0.01 * losses[0]

    def test_bias_correction_uses_the_loops_iteration(self):
        # with a constant g, m_hat = g and v_hat = g^2 at every t, so each
        # step is lr g / (|g| + eps); a t off by one moves the first step
        g, lr, init = np.array([0.3, -0.2, 1e-3]), 0.01, np.array([1.0, -2.0, 0.5])
        grad_fn, thetas = record_thetas(lambda th: g.copy())
        gd_adam_run(Objective(lambda th: float(th @ th), 3), grad_fn, init, SigmaSchedule(1.0, 0.1),
                    lr, Budget(evals=51))
        assert len(thetas) == 50
        for k, theta in enumerate(thetas, start=1):
            assert_allclose(theta, init - (k - 1) * lr * g / (np.abs(g) + 1e-8), rtol=1e-12,
                            err_msg=f"iteration {k}")

    def test_determinism_of_full_runs(self):
        task = quad_task()

        def run():
            obj = task.objective()
            sched = SigmaSchedule(1.0, 0.1)
            grad_fn = lambda th, s: GradientEstimate(g=task.smoothed_grad(th, 0.0), evals_used=0)
            return gd_adam_run(obj, grad_fn, np.array([2.0, 1.0]), sched, 0.3,
                               Budget(evals=25), param_error_fn=task.param_error,
                               deterministic_clock=True)

        t1, t2 = run(), run()
        assert t1.records == t2.records

    def test_non_finite_loss_is_recorded_then_raises(self):
        # walking +x into the NaN region used to record nan and run on
        grad_fn = lambda th, s: GradientEstimate(g=np.array([-1.0, 0.0]), evals_used=0)
        with pytest.raises(NonFiniteStateError, match="loss at iteration 2: nan") as err:
            gd_adam_run(nan_beyond_five(), grad_fn, np.array([3.5, 0.0]),
                        SigmaSchedule(1.0, 0.1), 1.0, Budget(evals=50))
        trace = err.value.trace
        assert trace.aborted and "iteration 2" in trace.note
        losses = [r.loss for r in trace.records]
        assert [r.iteration for r in trace.records] == [0, 1, 2]
        assert all(math.isfinite(x) for x in losses[:2]) and math.isnan(losses[-1])

    def test_non_finite_initial_loss_raises_with_one_record(self):
        grad_fn = lambda th, s: GradientEstimate(g=np.zeros(2), evals_used=0)
        with pytest.raises(NonFiniteStateError, match="iteration 0") as err:
            gd_adam_run(nan_beyond_five(), grad_fn, np.array([6.0, 0.0]),
                        SigmaSchedule(1.0, 0.1), 0.1, Budget(evals=50))
        assert len(err.value.trace.records) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_run_rejects_lr_before_any_evaluation(self, bad):
        # lr = 0 used to spend an evaluation and a gradient before the Adam
        # step raised, and lr = inf ran until its parameters went non-finite
        obj = quad_task().objective()
        calls = []
        grad_fn = lambda th, s: calls.append(s) or GradientEstimate(g=np.ones(2), evals_used=0)
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            gd_adam_run(obj, grad_fn, np.ones(2), SigmaSchedule(1.0, 0.1), bad, Budget(evals=20))
        assert obj.eval_count == 0 and calls == []

    @pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
    def test_gradient_of_another_shape_is_rejected(self, shape):
        grad_fn = lambda th, s: GradientEstimate(g=np.ones(shape), evals_used=0)
        with pytest.raises(ValueError, match=re.escape(f"gradient shape {shape} does not match theta (2,)")):
            gd_adam_run(quad_task().objective(), grad_fn, np.ones(2), SigmaSchedule(1.0, 0.1),
                        0.1, Budget(evals=20))

    def test_non_finite_gradient_note_names_the_iteration(self):
        calls = []

        def grad_fn(theta, sigma):
            calls.append(sigma)
            return GradientEstimate(g=np.array([math.nan if len(calls) == 3 else 1.0, 0.0]),
                                    evals_used=0)

        with pytest.raises(NonFiniteStateError) as err:
            gd_adam_run(quad_task().objective(), grad_fn, np.ones(2), SigmaSchedule(1.0, 0.1),
                        0.1, Budget(evals=20))
        trace = err.value.trace
        assert trace.note == "non-finite gradient in Adam step, in iteration 3"
        assert trace.aborted and [r.iteration for r in trace.records] == [0, 1, 2]

    def test_non_finite_parameters_note_names_the_iteration(self):
        # a constant gradient moves Adam by lr per step: 1e308 -> 1.5e308 -> inf
        obj = Objective(lambda th: 0.0, 2)
        grad_fn = lambda th, s: GradientEstimate(g=np.array([-1.0, 0.0]), evals_used=0)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as err:
            gd_adam_run(obj, grad_fn, np.array([1e308, 0.0]), SigmaSchedule(1.0, 0.1), 5e307,
                        Budget(evals=20))
        trace = err.value.trace
        assert trace.note == "non-finite parameters in Adam step, in iteration 2"
        assert trace.aborted and [r.iteration for r in trace.records] == [0, 1]

    def test_run_keeps_held_arrays(self):
        # init, every theta handed to gradient_fn and every g it returned
        # keep their values through the later iterations
        init = np.array([1.0, -2.0])
        rng = np.random.default_rng(3)
        held = []

        def grad_fn(theta, sigma):
            g = rng.normal(size=2)
            held.append((theta, g, theta.copy(), g.copy()))
            return GradientEstimate(g=g, evals_used=0)

        gd_adam_run(quad_task().objective(), grad_fn, init, SigmaSchedule(1.0, 0.1), 0.1,
                    Budget(evals=8))
        assert np.array_equal(init, [1.0, -2.0]) and len(held) == 7
        for theta, g, theta_then, g_then in held:
            assert np.array_equal(theta, theta_then) and np.array_equal(g, g_then)


class TestPsdModify:
    def test_floor_on_smallest_eigenvalue(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            h = 0.5 * (a + a.T)
            modified = psd_modify(h)
            lam = np.linalg.eigvalsh(modified)
            floor = 1e-6 * max(np.abs(np.linalg.eigvalsh(h)).max(), 1.0)
            assert lam.min() >= floor - 1e-12

    def test_newton_direction_is_descent(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            h = 0.5 * (a + a.T)
            g = rng.standard_normal(3)
            v = -np.linalg.solve(psd_modify(h), g)
            assert float(v @ (-g)) >= 0.0


class TestNewtonCg:
    def test_quad_converges_in_two_outer_iterations(self):
        task = quad_task()
        obj = task.objective()
        trace = newton_cg_run(obj, analytic_model(task), np.array([2.0, -3.0]),
                              SigmaSchedule(1.0, 0.1), TrustRegion(1e12),
                              ls_iters=5, ls_tol=1e-10,
                              budget=Budget(evals=3), param_error_fn=task.param_error)
        assert trace.records[-1].iteration <= 2
        assert trace.records[-1].param_error < 1e-6

    def test_alpha_hand_check(self):
        # from theta=(1,1): r = v = -g = (-17.5,-17.5); v^T H v = 17.5^2*35
        task = quad_task()
        seen = []
        newton_cg_run(task.objective(), analytic_model(task), np.array([1.0, 1.0]),
                      SigmaSchedule(1.0, 0.1), TrustRegion(1e12),
                      ls_iters=2, ls_tol=1e-12,
                      budget=Budget(evals=2), on_inner_step=seen.append)
        assert abs(seen[0]["alpha"] - 2.0 / 35.0) <= 1e-12

    def test_fletcher_reeves_conjugacy(self):
        task = quad_task()
        seen = []
        newton_cg_run(task.objective(), analytic_model(task), np.array([2.0, -3.0]),
                      SigmaSchedule(1.0, 0.1), TrustRegion(1e12),
                      ls_iters=5, ls_tol=1e-12,
                      budget=Budget(evals=2), on_inner_step=seen.append)
        dirs = [s["v"] for s in seen if s["outer"] == 1]
        assert len(dirs) >= 2
        for a in range(len(dirs)):
            for b in range(a + 1, len(dirs)):
                cross = float(dirs[a] @ QUAD_H @ dirs[b])
                scale = math.sqrt(float(dirs[a] @ QUAD_H @ dirs[a]) * float(dirs[b] @ QUAD_H @ dirs[b]))
                assert abs(cross) <= 1e-8 * scale

    def test_inner_steps_name_the_iteration_of_their_record(self):
        # every outer iteration k >= 1 runs CG steps and then records as k
        task = quad_task()
        seen = []
        trace = newton_cg_run(task.objective(), analytic_model(task), np.array([4.0, 4.0]),
                              SigmaSchedule(1.0, 0.1), TrustRegion(0.25),
                              ls_iters=4, ls_tol=1e-10,
                              budget=Budget(evals=6), on_inner_step=seen.append)
        outers = [s["outer"] for s in seen]
        assert outers == sorted(outers)
        assert set(outers) == {r.iteration for r in trace.records[1:]}
        assert len(trace.records) > 2

    def test_one_model_call_per_outer_iteration(self):
        # three distinct curvatures take all ls_iters = dim = 3 CG steps, and
        # no step reaches the radius, so nothing but the outer loop calls the model
        a = np.array([1.0, 4.0, 9.0])
        log = []

        def model(theta, sigma):
            log.append("model")
            return GradientEstimate(g=a * theta, evals_used=0), lambda v: a * v

        obj = Objective(lambda th: 0.5 * float(th @ (a * th)), 3)
        trace = newton_cg_run(obj, model, np.ones(3), SigmaSchedule(1.0, 0.1), TrustRegion(1e12),
                              ls_iters=3, ls_tol=1e-12, budget=Budget(evals=6),
                              param_error_fn=lambda th: log.append("record") or 0.0,
                              on_inner_step=lambda info: log.append("step"))
        iterations = " ".join(log).split("record")[1:-1]
        assert len(iterations) == len(trace.records) - 1 >= 3
        assert all(it.split().count("model") == 1 and it.split()[0] == "model" for it in iterations)
        assert iterations[0].split() == ["model", "step", "step", "step"]

    def test_inner_steps_name_the_iteration_of_the_abort_note(self):
        # the loss falls along +x until it turns NaN at x = 5; the trial
        # step that reaches it aborts the iteration its inner steps named
        obj = Objective(lambda th: -th[0] if th[0] < 5 else math.nan, 2)
        seen = []
        with pytest.raises(NonFiniteStateError) as err:
            newton_cg_run(obj, push_along_x, np.array([0.0, 0.0]), SigmaSchedule(1.0, 1.0),
                          TrustRegion(1.0), ls_iters=2, ls_tol=1e-3,
                          budget=Budget(evals=50), on_inner_step=seen.append)
        trace = err.value.trace
        k = seen[-1]["outer"]
        assert k >= 2
        assert f"iteration {k}:" in trace.note
        assert [r.iteration for r in trace.records] == list(range(k))

    def test_trust_region_bounds_every_step(self):
        task = quad_task()
        delta = 0.25
        seen = []
        newton_cg_run(task.objective(), analytic_model(task), np.array([4.0, 4.0]),
                      SigmaSchedule(1.0, 0.1), TrustRegion(delta),
                      ls_iters=4, ls_tol=1e-10,
                      budget=Budget(evals=6), on_inner_step=seen.append)
        assert seen
        for s in seen:
            assert s["alpha"] * np.linalg.norm(s["v"]) <= delta + 1e-12

    def test_negative_curvature_falls_back_and_descends(self):
        # outside the inflection ring the negated Gaussian has negative
        # curvature along the radius; the run must still descend
        task = negated_gaussian_task(1.0)
        obj = task.objective()
        seen = []
        trace = newton_cg_run(obj, analytic_model(task), np.array([1.8, 1.8]),
                              SigmaSchedule(1.0, 1.0), TrustRegion(0.5),
                              ls_iters=3, ls_tol=1e-10,
                              budget=Budget(evals=40), param_error_fn=task.param_error,
                              on_inner_step=seen.append)
        assert any(s["fallback"] for s in seen)
        assert trace.records[-1].loss < trace.records[0].loss
        assert trace.records[-1].param_error < 0.1

    def test_understated_curvature_keeps_outer_step_in_trust_region(self):
        # an HVP 100x too small makes every CG step 100x too long; every
        # point evaluated in an outer iteration (its trial steps) must stay
        # within delta(sigma) of the point the iteration started from
        task = quad_task()
        log = []

        def fn(th):
            log.append(("eval", np.array(th)))
            return task.fn(th)

        obj = Objective(fn, 2)
        model = analytic_model(task, 0.01, log)
        sched = SigmaSchedule(1.0, 0.1)
        tr = TrustRegion(0.5)
        newton_cg_run(obj, model, np.array([2.0, -3.0]), sched, tr,
                      ls_iters=5, ls_tol=1e-10, budget=Budget(evals=12))
        outer_starts = 0
        center = None
        for entry in log:
            if entry[0] == "model":
                center, delta = entry[1], tr.delta * entry[2] / sched.sigma_start
                outer_starts += 1
            elif center is not None:
                assert np.linalg.norm(entry[1] - center) <= delta * (1 + 1e-12)
        assert outer_starts >= 5

    def test_overshooting_hvp_never_raises_recorded_loss(self):
        # an HVP 20x too small overshoots the minimum along every direction;
        # on a deterministic objective the recorded loss must not rise
        task = quad_task()
        obj = task.objective()
        trace = newton_cg_run(obj, analytic_model(task, 0.05), np.array([2.0, -3.0]),
                              SigmaSchedule(1.0, 0.1), TrustRegion(1e12),
                              ls_iters=5, ls_tol=1e-10, budget=Budget(evals=40))
        losses = [r.loss for r in trace.records]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 0.5 * losses[0]
        assert trace.records[-1].evals == obj.eval_count

    def test_budget_is_normal_termination(self):
        task = quad_task()
        obj = task.objective()
        trace = newton_cg_run(obj, analytic_model(task), np.array([1.0, 1.0]),
                              SigmaSchedule(1.0, 0.1), TrustRegion(1e12),
                              ls_iters=2, ls_tol=1e-10, budget=Budget(evals=5))
        assert not trace.aborted
        assert trace.records[-1].evals >= 5

    def test_non_finite_initial_loss_raises_with_one_record(self):
        # a NaN start used to record nan at every outer iteration, not aborted
        with pytest.raises(NonFiniteStateError, match="loss at iteration 0: nan") as err:
            newton_cg_run(nan_beyond_five(), push_along_x, np.array([6.0, 0.0]),
                          SigmaSchedule(1.0, 0.1), TrustRegion(1.0), ls_iters=2,
                          ls_tol=1e-3, budget=Budget(evals=20))
        trace = err.value.trace
        assert trace.aborted and len(trace.records) == 1 and math.isnan(trace.records[0].loss)

    def test_non_finite_trial_and_halving_losses_raise(self):
        # NaN on the band 5 <= x < 6, th . th + 100 beyond it; from x = 3 a
        # radius-4 step goes to x = 7 and a radius-2.5 step into the band
        band = lambda th: math.nan if 5 <= th[0] < 6 else th @ th + 100 * (th[0] >= 6)
        cases = ((2.5, 2, "trial loss at iteration 1: nan"),
                 (4.0, 3, "trial loss at halving 1 of iteration 1: nan"))
        for delta, evals, message in cases:
            obj = Objective(band, 2)
            with pytest.raises(NonFiniteStateError, match=message) as err:
                newton_cg_run(obj, push_along_x, np.array([3.0, 0.0]), SigmaSchedule(1.0, 1.0),
                              TrustRegion(delta), ls_iters=2, ls_tol=1e-3, budget=Budget(evals=20))
            assert [r.iteration for r in err.value.trace.records] == [0]
            assert obj.eval_count == evals

    @pytest.mark.parametrize("where,value", [pytest.param("gradient", math.nan, id="gradient"),
                                             pytest.param("hvp", math.nan, id="hvp"),
                                             pytest.param("gradient", math.inf, id="gradient-inf")])
    def test_non_finite_model_note_names_the_iteration(self, where, value):
        # the model's third call returns a NaN or inf gradient, or an operator
        # whose products are NaN, which makes the CG step NaN
        calls = []

        def model(theta, sigma):
            calls.append(theta)
            bad = len(calls) == 3
            g = np.array([1.0, value]) if bad and where == "gradient" else 2.0 * theta
            return (GradientEstimate(g=g, evals_used=0),
                    lambda v: np.full(2, value) if bad else 2.0 * v)

        with pytest.raises(NonFiniteStateError) as err:
            newton_cg_run(Objective(lambda th: float(th @ th), 2), model, np.array([2.0, -1.0]),
                          SigmaSchedule(1.0, 0.1), TrustRegion(0.5), ls_iters=2, ls_tol=1e-12,
                          budget=Budget(evals=20))
        trace = err.value.trace
        what = {"gradient": "gradient estimate", "hvp": "parameters in CG step"}[where]
        assert trace.note == f"non-finite {what}, in iteration 3"
        assert trace.aborted and [r.iteration for r in trace.records] == [0, 1, 2]

    def test_overflowing_gradient_norm_ends_the_run_with_a_note(self):
        # the model's second gradient is finite, but g . g overflows
        calls = []

        def model(theta, sigma):
            calls.append(theta)
            g = np.array([1e200, 0.0]) if len(calls) == 2 else 2.0 * theta
            return GradientEstimate(g=g, evals_used=0), lambda v: 2.0 * v

        with warnings.catch_warnings(), pytest.raises(NonFiniteStateError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            newton_cg_run(Objective(lambda th: float(th @ th), 2), model, np.array([2.0, -1.0]),
                          SigmaSchedule(1.0, 0.1), TrustRegion(0.5), ls_iters=2, ls_tol=1e-12,
                          budget=Budget(evals=20))
        trace = err.value.trace
        assert trace.note == "squared norm of the gradient estimate overflows, in iteration 2"
        assert trace.aborted and [r.iteration for r in trace.records] == [0, 1]

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_products_keep_the_cg_step_note_without_a_warning(self, value):
        # v . hv is inf - inf for v = -g = [-1, 1]
        def model(theta, sigma):
            return GradientEstimate(g=np.array([1.0, -1.0]), evals_used=0), lambda v: np.full(2, value)

        with warnings.catch_warnings(), pytest.raises(NonFiniteStateError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            newton_cg_run(Objective(lambda th: float(th @ th), 2), model, np.array([2.0, -1.0]),
                          SigmaSchedule(1.0, 0.1), TrustRegion(0.5), ls_iters=2, ls_tol=1e-12,
                          budget=Budget(evals=20))
        trace = err.value.trace
        assert trace.note == "non-finite parameters in CG step, in iteration 1"
        assert trace.aborted and [r.iteration for r in trace.records] == [0]

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_boundary_step_ends_the_run_with_a_note(self, monkeypatch, alpha):
        # the exact step to the trust-region boundary is finite for finite input; force it not to be
        monkeypatch.setattr(optimizers, "_boundary_step", lambda p, v, delta: alpha)

        def model(theta, sigma):
            return GradientEstimate(g=2.0 * theta, evals_used=0), lambda v: 2.0 * v

        with warnings.catch_warnings(), pytest.raises(NonFiniteStateError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            newton_cg_run(Objective(lambda th: float(th @ th), 2), model, np.array([2.0, -1.0]),
                          SigmaSchedule(1.0, 0.1), TrustRegion(0.5), ls_iters=2, ls_tol=1e-12,
                          budget=Budget(evals=20))
        trace = err.value.trace
        assert trace.note == "non-finite parameters in CG step, in iteration 1"
        assert trace.aborted and [r.iteration for r in trace.records] == [0]


    # finite models whose CG recursion overflows: the curvature v . H v, the
    # residual's ||r||^2, or the next direction r + beta v
    OVERFLOWS = {
        "curvature": ([1e150, 0.0], [[1e300, 0.0]], 2.0, 2,
                      "curvature of the CG direction overflows"),
        "residual": ([-1.0, 0.0], np.array([[1.0, 0.0], [1e155, 1.0]]), 2.0, 2,
                     "squared norm of the CG residual overflows"),
        # beta = 1e200, then 1e250 on a direction of norm 1e100; every ||r||^2 stays finite
        "direction": ([-1e-100, 0.0, 0.0], [[1e-100, -1.0, 0.0], [1e-100, 0.0, 1e125]], 1e120, 3,
                      "CG direction overflows"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWS))
    def test_overflowing_cg_recursion_ends_the_run_with_a_note(self, case):
        g, products, delta, dim, note = self.OVERFLOWS[case]
        calls = []

        def hvp(v):
            # checks its direction as SampledBatch.hvp does
            v = _check_direction(v, dim)
            calls.append(v)
            if isinstance(products, np.ndarray):
                return products @ v
            return np.array(products[len(calls) - 1])

        def model(theta, sigma):
            return GradientEstimate(g=np.array(g), evals_used=0), hvp

        obj = Objective(lambda th: float(th @ th), dim)
        with warnings.catch_warnings(), pytest.raises(NonFiniteStateError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            newton_cg_run(obj, model, np.ones(dim), SigmaSchedule(1.0, 0.1), TrustRegion(delta),
                          ls_iters=dim, ls_tol=1e-3, budget=Budget(evals=10))
        trace = err.value.trace
        assert trace.note == f"{note}, in iteration 1"
        assert trace.aborted and [r.iteration for r in trace.records] == [0]
        assert obj.eval_count == 1

    def test_parameter_validation(self):
        task = quad_task()
        with pytest.raises(ValueError):
            newton_cg_run(task.objective(), analytic_model(task), np.zeros(2),
                          SigmaSchedule(1.0, 0.1), TrustRegion(1.0),
                          ls_iters=0, ls_tol=1e-3, budget=Budget(evals=5))
        with pytest.raises(ValueError):
            TrustRegion(delta=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_trust_radius(self, bad):
        # an infinite radius used to surface only as a non-finite CG step
        with pytest.raises(ValueError, match="finite"):
            TrustRegion(bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1.0])
    def test_rejects_non_finite_ls_tol(self, bad):
        # a tolerance of 1 or more used to stop CG before its first step, every iteration
        task = quad_task()
        obj = task.objective()
        with pytest.raises(ValueError, match="finite"):
            newton_cg_run(obj, analytic_model(task), np.zeros(2), SigmaSchedule(1.0, 0.1),
                          TrustRegion(1.0), ls_iters=1, ls_tol=bad, budget=Budget(evals=5))
        assert obj.eval_count == 0


def test_trace_monotonicity_invariants():
    task = quad_task()
    obj = task.objective()
    sched = SigmaSchedule(1.0, 0.1)
    grad_fn = lambda th, s: GradientEstimate(g=task.smoothed_grad(th, 0.0), evals_used=0)
    trace = gd_adam_run(obj, grad_fn, np.array([2.0, 1.0]), sched, 0.3, Budget(evals=40),
                        param_error_fn=task.param_error)
    evals = [r.evals for r in trace.records]
    times = [r.wall_time for r in trace.records]
    assert evals == sorted(evals)
    assert times == sorted(times)
    assert trace.records[-1].evals == obj.eval_count


CONTRACT_SCHEDULE = SigmaSchedule(1.0, 0.1)


def contract_run(run, obj, probe, budget, param_error_fn=None, deterministic_clock=True):
    """``run`` on ``obj`` with ``probe(theta, sigma) -> g`` as its provider.

    Newton-CG gets the exact curvature of th . th and a trust radius of
    0.5; it calls ``probe`` once per outer iteration, as Adam does.
    """
    if run == "adam":
        return gd_adam_run(obj, lambda th, s: GradientEstimate(g=probe(th, s), evals_used=0),
                           np.array([2.0, -1.0]), CONTRACT_SCHEDULE, 0.1, budget,
                           param_error_fn=param_error_fn, deterministic_clock=deterministic_clock)
    model = lambda th, s: (GradientEstimate(g=probe(th, s), evals_used=0), lambda v: 2.0 * v)
    return newton_cg_run(obj, model, np.array([2.0, -1.0]), CONTRACT_SCHEDULE, TrustRegion(0.5),
                         ls_iters=2, ls_tol=1e-12, budget=budget,
                         param_error_fn=param_error_fn, deterministic_clock=deterministic_clock)


@pytest.mark.parametrize("run", ["adam", "newton_cg"])
class TestOuterLoopContract:
    """What Adam and Newton-CG share: records, sigma, stopping and estimate errors."""

    def test_records_sigma_and_stopping(self, run):
        log = []
        obj = Objective(lambda th: log.append(("eval", th.copy())) or float(th @ th), 2)

        def probe(theta, sigma):
            log.append(("provider", obj.eval_count, sigma))
            for _ in range(3):
                obj.evaluate(theta + 0.1)
            return 2.0 * theta

        def param_error(theta):
            log.append(("record", theta.copy()))
            return math.sqrt(float(theta @ theta))

        trace = contract_run(run, obj, probe, Budget(evals=30), param_error)
        # iteration 0 is evaluated and recorded at init before any provider call
        assert [entry[0] for entry in log[:3]] == ["eval", "record", "provider"]
        assert np.array_equal(log[0][1], [2.0, -1.0]) and np.array_equal(log[1][1], [2.0, -1.0])
        first = trace.records[0]
        assert (first.iteration, first.evals, first.loss) == (0, 1, 5.0)
        assert [r.iteration for r in trace.records] == list(range(len(trace.records)))
        # iteration k's sigma follows the share spent when it starts: the
        # evaluations of record k - 1
        calls = [entry for entry in log if entry[0] == "provider"]
        assert len(calls) == len(trace.records) - 1 >= 3
        for (_, evals, sigma), start in zip(calls, trace.records):
            assert evals == start.evals
            assert sigma == anneal_sigma(CONTRACT_SCHEDULE, start.evals / 30)
        # the run stops at the first record whose share is >= 1
        shares = [r.evals / 30 for r in trace.records]
        assert all(share < 1 for share in shares[:-1]) and shares[-1] >= 1
        assert not trace.aborted and trace.records[-1].evals == obj.eval_count

    def test_a_wall_clock_stop_shows_in_the_records(self, run, monkeypatch):
        # a fake clock that reads 0.25 s more at every reading, 0 at the run's start
        readings = itertools.count()
        monkeypatch.setattr(optimizers, "time", SimpleNamespace(perf_counter=lambda: 0.25 * next(readings)))
        obj = Objective(lambda th: float(th @ th), 2)
        trace = contract_run(run, obj, lambda th, s: 2.0 * th, Budget(seconds=1.0, evals=10**6),
                             deterministic_clock=False)
        # one reading per record, and the stop is read from the record's own reading
        times = [r.wall_time for r in trace.records]
        assert times == [0.25, 0.5, 0.75, 1.0]
        assert all(t < 1.0 for t in times[:-1]) and times[-1] >= 1.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_estimation_error_names_its_iteration(self, run, k):
        obj = Objective(lambda th: float(th @ th), 2)
        calls = []

        def probe(theta, sigma):
            calls.append(theta.copy())
            if len(calls) == k:
                raise EstimationError(f"objective returned non-finite value nan at {theta}", theta)
            obj.evaluate(theta)
            return 2.0 * theta

        with pytest.raises(NonFiniteStateError) as err:
            contract_run(run, obj, probe, Budget(evals=100))
        trace = err.value.trace
        assert isinstance(err.value.__cause__, EstimationError)
        assert trace.aborted
        assert trace.note == f"objective returned non-finite value nan at {calls[-1]}, in iteration {k}"
        assert [r.iteration for r in trace.records] == list(range(k))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_init_of_another_dimension_is_rejected_before_any_evaluation(self, run, dim):
        # an init of 3 coordinates on the 2-D quad used to run, ignoring the third
        obj = Objective(lambda th: float(th @ th), dim)
        calls = []
        with pytest.raises(ValueError, match=rf"init has shape \(2,\).* dimension is {dim}$"):
            contract_run(run, obj, lambda th, s: calls.append(s) or 2.0 * th, Budget(evals=20))
        assert obj.eval_count == 0 and calls == []
