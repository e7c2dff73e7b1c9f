"""Harness behavior: config validation, determinism, export formats, CLI."""

import configparser
import gc
import json
import math
import re
import subprocess
import sys
import typing
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import smoothdiff
from smoothdiff import harness
from smoothdiff.cli import _coerce, _section_to_kwargs, main
from smoothdiff.estimators import (
    EstimatorConfig,
    Objective,
    SamplingMode,
    estimate_gradient,
    estimate_hessian,
    estimate_hvp,
    evals_per_estimate,
)
from smoothdiff.harness import (
    CSV_HEADER,
    RunConfig,
    compute_thresholds,
    export_traces,
    first_crossings,
    load_traces,
    run_ensemble,
    sampled_model,
    summarize_traces,
    variance_report,
)
from smoothdiff.kernels import KernelSpec
from smoothdiff.optimizers import SigmaSchedule, TrustRegion, anneal_sigma, newton_cg_run, psd_modify
from smoothdiff.samplers import RngStream
from smoothdiff.tasks import make_task, negated_gaussian_task, quad_task
from smoothdiff.trace import Budget, ConvergenceTrace, TraceRecord

QUAD_CFG = dict(task="quad", method="OurHVPA", samples=4, sigma_start=1.0, sigma_end=0.05,
                trust_region=50.0, ls_iters=5, ls_tol=1e-3, recompute=5,
                seed=3, budget_evals=600, ensemble=3, deterministic=True)


class TestRunConfig:
    def test_first_order_requires_lr(self):
        with pytest.raises(ValueError):
            RunConfig(task="quad", method="OurG", budget_evals=10)

    def test_first_order_rejects_second_order_keys(self):
        with pytest.raises(ValueError):
            RunConfig(task="quad", method="OurG", lr=0.1, trust_region=1.0, budget_evals=10)

    def test_second_order_rejects_lr(self):
        with pytest.raises(ValueError):
            RunConfig(task="quad", method="OurHVPA", lr=0.1, trust_region=1.0, budget_evals=10)

    def test_requires_budget(self):
        with pytest.raises(ValueError):
            RunConfig(task="quad", method="FD", lr=0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            RunConfig(task="quad", method="LBFGS", lr=0.1, budget_evals=10)

    @pytest.mark.parametrize("key,value", [
        ("trust_region", 0.0), ("trust_region", math.inf), ("trust_region", math.nan),
        ("ls_tol", 0.0), ("ls_tol", -1e-3), ("ls_tol", math.inf),
        ("ls_iters", 0), ("ls_iters", -1), ("recompute", 0),
        ("sigma_start", 0.0), ("sigma_start", math.inf), ("sigma_end", -0.01),
        ("sigma_end", math.nan),
        ("budget_evals", 0), ("budget_evals", -5),
        # a NaN time budget never runs out; checked by construction only
        ("budget_seconds", math.nan), ("budget_seconds", math.inf),
        ("budget_seconds", 0.0), ("budget_seconds", -1.0),
        ("threads", 0), ("threads", -1), ("threads", 2),
    ])
    def test_second_order_rejects_bad_numbers(self, key, value):
        with pytest.raises(ValueError, match=key):
            RunConfig(**{**QUAD_CFG, key: value})

    @pytest.mark.parametrize("key,value", [
        ("samples", 1.5), ("ensemble", 1.5), ("samples", True), ("samples", math.nan),
        ("budget_evals", 20.5), ("seed", 0.5), ("seed", False), ("ls_iters", 3.0),
        ("recompute", np.float64(5.0)), ("threads", 2.0),
    ])
    def test_integer_keys_reject_non_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got "):
            RunConfig(**{**QUAD_CFG, key: value})

    def test_integer_keys_take_numpy_integers(self):
        cfg = RunConfig(**{**QUAD_CFG, "samples": np.int64(4), "seed": np.int32(3),
                           "budget_evals": np.int64(600), "ensemble": np.uint8(3)})
        assert all(type(getattr(cfg, key)) is int for key in ("samples", "seed", "budget_evals"))
        plain = run_ensemble(RunConfig(**QUAD_CFG))
        for t1, t2 in zip(run_ensemble(cfg).traces, plain.traces, strict=True):
            assert t1.records == t2.records

    def test_plateau_start_needs_plateau_points(self):
        with pytest.raises(ValueError, match="task quad has no plateau starting points"):
            RunConfig(task="quad", method="FD", lr=0.5, budget_evals=20, init="plateau")
        RunConfig(task="box2", method="FD", lr=0.5, budget_evals=20, init="plateau")

    @pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
    def test_first_order_rejects_bad_lr(self, value):
        with pytest.raises(ValueError, match="lr"):
            RunConfig(task="quad", method="OurG", lr=value, budget_evals=10)

    def test_unset_inner_loop_keys_take_defaults(self):
        cfg = RunConfig(task="quad", method="OurHVPA", trust_region=1.0, budget_evals=10)
        assert cfg.cg_settings() == (1, 1e-3, 1)
        assert RunConfig(**QUAD_CFG).cg_settings() == (5, 1e-3, 5)


class TestRunEnsemble:
    def test_deterministic_repeatability(self):
        r1 = run_ensemble(RunConfig(**QUAD_CFG))
        r2 = run_ensemble(RunConfig(**QUAD_CFG))
        for t1, t2 in zip(r1.traces, r2.traces):
            assert t1.records == t2.records

    def test_fd_baseline_steps_fd_step(self, monkeypatch):
        # the central-difference step is a module constant; no config sets it
        steps = []
        fd = harness.estimate_gradient_fd
        monkeypatch.setattr(harness, "estimate_gradient_fd",
                            lambda obj, theta, step: steps.append(step) or fd(obj, theta, step))
        run_ensemble(RunConfig(task="quad", method="FD", lr=0.1, seed=1, budget_evals=40,
                               ensemble=2, deterministic=True))
        assert steps and set(steps) == {harness.FD_STEP} and harness.FD_STEP == 1e-6

    def test_quad_reaches_full_reduction(self):
        result = run_ensemble(RunConfig(**QUAD_CFG))
        stat = result.thresholds["param_error"][0.999]
        assert stat.reached_runs == 3
        assert stat.median_evals is not None

    def test_threshold_monotonicity(self):
        result = run_ensemble(RunConfig(**QUAD_CFG))
        for trace in result.traces:
            crossings = first_crossings(trace, "param_error")
            reached = [crossings[f] for f in (0.9, 0.99, 0.999) if crossings[f] is not None]
            times = [c[0] for c in reached]
            assert times == sorted(times)

    def test_unreached_thresholds_are_null(self):
        # FD from plateau starts never moves, mirroring an empty results cell
        cfg = RunConfig(task="box2", method="FD", lr=0.05, seed=0, budget_evals=500,
                        ensemble=2, init="plateau", deterministic=True)
        result = run_ensemble(cfg)
        for frac, stat in result.thresholds["param_error"].items():
            assert stat.median_time is None
            assert stat.reached_runs == 0

    @pytest.mark.parametrize("initial", [-0.5, 0.0, -0.0, math.nan, -math.inf])
    def test_no_reduction_from_a_start_at_or_below_zero(self, initial):
        trace = ConvergenceTrace()
        for k, (loss, err) in enumerate(zip([initial, -1.0, -2.0, 0.0, 1e-9],
                                            [1.0, 0.05, 0.005, 5e-4, 0.0])):
            trace.append(TraceRecord(float(k), k, k + 1, loss, err))
        assert first_crossings(trace, "loss") == {0.9: None, 0.99: None, 0.999: None}
        assert first_crossings(trace, "param_error") == {0.9: (1.0, 2), 0.99: (2.0, 3),
                                                         0.999: (3.0, 4)}

    @pytest.mark.parametrize("metric", ["Loss", "param-error", "evals", ""])
    def test_unknown_metric_is_rejected(self, metric):
        # any name but "loss" used to read param_error: "Loss" found no
        # crossing in a loss that fell from 10 to 0.001
        trace = ConvergenceTrace()
        for k, loss in enumerate([10.0, 0.5, 0.001]):
            trace.append(TraceRecord(float(k), k, k + 1, loss, 1.0))
        assert first_crossings(trace, "loss")[0.999] == (2.0, 3)
        for call in (lambda: first_crossings(trace, metric),
                     lambda: compute_thresholds([trace], metric),
                     lambda: compute_thresholds([], metric)):
            with pytest.raises(ValueError, match="'loss' or 'param_error'"):
                call()

    def test_neg_gauss_loss_crosses_no_threshold(self):
        # the loss starts below zero in every run, so a reduction of it
        # means nothing; it used to count as crossed at the first record
        cfg = RunConfig(task="neg_gauss", method="OurG", lr=0.3, samples=2, sigma_end=0.05,
                        budget_evals=200, ensemble=4, deterministic=True)
        result = run_ensemble(cfg)
        assert all(t.records[0].loss < 0 for t in result.traces)
        for stat in result.thresholds["loss"].values():
            assert stat.reached_runs == 0 and stat.median_evals is None
        param = result.thresholds["param_error"]
        assert (param[0.9].reached_runs, param[0.9].median_evals) == (3, 127.0)
        assert param[0.99].reached_runs == param[0.999].reached_runs == 0


class TestSampledProvider:
    """Newton-CG's local model: sampled HVPs contract the batch of the gradient they come with."""

    THETA = np.array([1.5, -2.0])

    def model(self, obj, mode=SamplingMode.AGGREGATE, kind="batch"):
        return sampled_model(obj, 4, RngStream(9, 1), mode, kind)

    def run_one_outer_iteration(self, model, obj, recompute, on_inner_step=None):
        # the initial loss leaves the budget of 2 unspent, so exactly one outer iteration runs
        newton_cg_run(obj, model, self.THETA, SigmaSchedule(1.0, 0.05), TrustRegion(50.0),
                      5, 1e-9, recompute, Budget(evals=2), on_inner_step=on_inner_step)

    @pytest.mark.parametrize("mode", [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE])
    def test_hvps_of_an_outer_iteration_spend_no_evaluation(self, mode):
        obj = quad_task().objective()
        counts = []
        self.run_one_outer_iteration(self.model(obj, mode), obj, 5,
                                     lambda info: counts.append(obj.eval_count))
        assert len(counts) == 2  # min(ls_iters, dim) inner steps, both after one gradient
        assert counts == [1 + evals_per_estimate(mode, 2, 4)] * 2

    def test_recompute_one_costs_one_batch_per_refresh_at_the_new_centre(self):
        obj = quad_task().objective()
        model = self.model(obj)
        log = []

        def logged(theta, sigma):
            before = obj.eval_count
            est, hvp = model(theta, sigma)
            centre = theta.copy()
            log.append(("gradient", centre, obj.eval_count - before))

            def logged_hvp(v):
                before = obj.eval_count
                hv = hvp(v)
                log.append(("hvp", centre, obj.eval_count - before))
                return hv

            return est, logged_hvp

        self.run_one_outer_iteration(logged, obj, 1)
        assert [entry[0] for entry in log] == ["gradient", "hvp", "gradient", "hvp"]
        assert not np.array_equal(log[0][1], log[2][1])
        assert [entry[2] for entry in log] == [8, 0, 8, 0]

    def test_hessian_model_is_the_hessian_then_the_gradient(self):
        # OurH: per-element Hessian, then the gradient, from one stream
        obj = quad_task().objective()
        est, hvp = self.model(obj, SamplingMode.PER_ELEMENT, "hessian")(self.THETA, 0.5)
        spent = obj.eval_count
        ref_obj, rng = quad_task().objective(), RngStream(9, 1)
        cfg = EstimatorConfig(spec=KernelSpec(sigma=0.5, dim=2), samples=4,
                              mode=SamplingMode.PER_ELEMENT)
        h = estimate_hessian(ref_obj, self.THETA, cfg, rng)
        g = estimate_gradient(ref_obj, self.THETA, cfg, rng)
        assert np.array_equal(est.g, g.g)
        assert spent == ref_obj.eval_count == h.evals_used + g.evals_used
        v = np.array([1.0, 0.5])
        assert np.array_equal(hvp(v), psd_modify(h.h) @ v)
        assert obj.eval_count == spent

    @pytest.mark.parametrize("task", ["quad", "neg_gauss"])
    def test_quad_cfg_reaches_99_percent_within_200_evals(self, task):
        # 343.5 (quad) and 235.3 (neg_gauss) when every CG step drew a batch of its own
        result = run_ensemble(RunConfig(**{**QUAD_CFG, "task": task, "ensemble": 10}))
        evals = []
        for trace in result.traces:
            hit = first_crossings(trace, "param_error")[0.99]
            evals.append(hit[1] if hit is not None else trace.records[-1].evals)
        assert sum(evals) / len(evals) < 200


def record_sigmas(monkeypatch) -> list[list[tuple[int, float]]]:
    """Make each run log (evaluations at the call, sigma) for every call of its gradient or model."""
    logs = []

    def logging(factory, obj_at):
        def make(*args):
            source, obj, log = factory(*args), args[obj_at], []
            logs.append(log)

            def logged(theta, sigma):
                log.append((obj.eval_count, sigma))
                return source(theta, sigma)

            return logged

        return make

    monkeypatch.setattr(harness, "_gradient_fn", logging(harness._gradient_fn, 2))
    monkeypatch.setattr(harness, "sampled_model", logging(harness.sampled_model, 0))
    return logs


def assert_sigma_follows_the_share_spent(result, logs, share):
    """Every sigma is anneal_sigma at ``share(record)`` of the record its iteration started from."""
    cfg = result.config
    schedule = SigmaSchedule(cfg.sigma_start, cfg.sigma_end)
    for trace, log in zip(result.traces, logs, strict=True):
        assert log and not trace.aborted
        for evals, sigma in log:
            start = [rec for rec in trace.records if rec.evals <= evals][-1]
            assert sigma == anneal_sigma(schedule, share(start))


@pytest.mark.parametrize("method,keys", [
    ("OurG", dict(samples=2, lr=0.3)),
    ("OurHVPA", dict(samples=4, trust_region=50.0, ls_iters=5, recompute=5)),
    # a fresh model at every CG step that stays inside the radius
    ("OurHVPA", dict(samples=4, trust_region=50.0, ls_iters=3, recompute=1)),
    ("OurH", dict(samples=2, trust_region=1.0, ls_iters=2, recompute=1)),
])
def test_sigma_follows_the_share_of_evaluations_spent(monkeypatch, method, keys):
    logs = record_sigmas(monkeypatch)
    result = run_ensemble(RunConfig(task="quad", method=method, sigma_end=0.05, budget_evals=400,
                                    ensemble=2, seed=4, **keys))
    assert_sigma_follows_the_share_spent(result, logs, lambda rec: rec.evals / 400)
    if keys.get("recompute") == 1:
        # some outer iteration called its model more than once
        assert any(len(log) > len(trace.records) - 1 for trace, log in zip(result.traces, logs))


class TestExport:
    @pytest.fixture()
    def result(self):
        return run_ensemble(RunConfig(**QUAD_CFG))

    def test_csv_header_exact(self, result, tmp_path):
        path = tmp_path / "t.csv"
        export_traces(result, path, "csv")
        first = path.read_text().splitlines()[0]
        assert first == "run,wall_time_s,iter,evals,loss,param_error"
        assert first == CSV_HEADER

    def test_csv_round_trip_exact(self, result, tmp_path):
        path = tmp_path / "t.csv"
        export_traces(result, path, "csv")
        traces, cfg = load_traces(path)
        assert cfg is None
        for orig, back in zip(result.traces, traces):
            assert orig.records == back.records

    def test_json_round_trip_exact(self, result, tmp_path):
        path = tmp_path / "t.json"
        export_traces(result, path, "json")
        traces, cfg = load_traces(path)
        assert cfg["task"] == "quad"
        for orig, back in zip(result.traces, traces):
            assert orig.records == back.records

    def test_empty_trace_rejected(self, result, tmp_path):
        result.traces[0] = ConvergenceTrace()
        with pytest.raises(ValueError):
            export_traces(result, tmp_path / "t.csv", "csv")

    def test_unknown_format_rejected(self, result, tmp_path):
        with pytest.raises(ValueError):
            export_traces(result, tmp_path / "t.xml", "xml")

    def test_summarize_runs(self, result):
        text = summarize_traces(result.traces)
        assert "param_error" in text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_load_closes_its_files(self, result, tmp_path, fmt):
        path = tmp_path / f"t.{fmt}"
        export_traces(result, path, fmt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_traces(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            load_traces(path)

    @pytest.mark.parametrize("name,content,missing", [
        ("t.json", "{}", "'runs'"),
        ("t.json", json.dumps({"runs": [{"records": [
            {"iter": 0, "evals": 1, "loss": 1.0, "param_error": 1.0}]}]}), "'wall_time_s'"),
        ("t.csv", CSV_HEADER + "\n0,1.0\n", "line 2 has 2 of the 6 columns"),
        ("t.json", json.dumps({"runs": 5}), "'runs' = 5, not a list"),
        ("t.json", json.dumps({"runs": [1]}), "run 0 is not a JSON object"),
        ("t.json", json.dumps({"runs": [{"records": [
            {"wall_time_s": 0.0, "iter": 0, "evals": 1, "loss": "a", "param_error": 1.0}]}]}),
         "run 0 record 0 has 'loss' = 'a', not a number"),
        ("t.json", json.dumps({"runs": [{"records": [
            {"wall_time_s": 0.0, "iter": 0, "evals": 1, "loss": None, "param_error": 1.0}]}]}),
         "run 0 record 0 has 'loss' = None, not a number"),
        ("t.json", "{runs", "not valid JSON"),
        ("t.csv", CSV_HEADER + "\nx,0,0,0,1,1\n", "line 2: invalid literal for int()"),
        ("t.csv", CSV_HEADER + "\n0,0.5,0,4,1,1\n1,0.1,0,1,1,1\n0,0.5,1,3,1,1\n",
         "line 4: trace records must have nondecreasing time and evals"),
        ("t.json", json.dumps({"runs": [{"records": [
            {"wall_time_s": 0.5, "iter": 0, "evals": 4, "loss": 1.0, "param_error": 1.0},
            {"wall_time_s": 0.4, "iter": 1, "evals": 5, "loss": 1.0, "param_error": 1.0}]}]}),
         "run 0 record 1: trace records must have nondecreasing time and evals"),
        ("t.json", json.dumps({"runs": [{"aborted": "no", "records": []}]}),
         "run 0 has 'aborted' = 'no', not a boolean"),
        ("t.json", json.dumps({"runs": [{"note": 5, "records": []}]}), "run 0 has 'note' = 5, not a string"),
    ], ids=["json_without_runs", "json_record_without_wall_time", "csv_short_row",
            "json_runs_not_a_list", "json_run_not_an_object", "json_loss_a_string",
            "json_loss_null", "json_invalid", "csv_run_not_an_integer", "csv_evals_go_back",
            "json_time_goes_back", "json_aborted_a_string", "json_note_a_number"])
    def test_malformed_file_rejected_naming_file_and_missing_part(self, tmp_path, capsys, name,
                                                                  content, missing):
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(ValueError) as err:
            load_traces(path)
        assert str(path) in str(err.value) and missing in str(err.value)
        assert main(["summarize", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and missing in lines[0]

    def test_exported_bytes(self, result, tmp_path):
        # the layout spelled out field by field, apart from the code that writes it
        export_traces(result, tmp_path / "t.csv", "csv")
        export_traces(result, tmp_path / "t.json", "json")
        lines = ["run,wall_time_s,iter,evals,loss,param_error"]
        lines += [f"{run},{rec.wall_time!r},{rec.iteration},{rec.evals},{rec.loss!r},{rec.param_error!r}"
                  for run, trace in enumerate(result.traces) for rec in trace.records]
        assert (tmp_path / "t.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        payload = {
            "config": asdict(result.config),
            "thresholds": {metric: {str(frac): {"reached_runs": stat.reached_runs,
                                                "median_time": stat.median_time,
                                                "median_evals": stat.median_evals}
                                    for frac, stat in stats.items()}
                           for metric, stats in result.thresholds.items()},
            "runs": [{"run": run, "aborted": trace.aborted, "note": trace.note,
                      "records": [{"wall_time_s": rec.wall_time, "iter": rec.iteration,
                                   "evals": rec.evals, "loss": rec.loss,
                                   "param_error": rec.param_error} for rec in trace.records]}
                     for run, trace in enumerate(result.traces)],
        }
        expected = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        assert (tmp_path / "t.json").read_bytes() == expected.encode()


class TestVarianceReport:
    def test_slope_and_rows(self):
        task = negated_gaussian_task(1.0)
        report = variance_report(task, np.array([0.5, 0.5]),
                                 [SamplingMode.AGGREGATE], budgets=[24, 96, 384],
                                 orders=("G",), reps=40, sigma=1.0, seed=5)
        assert len(report.rows) == 3
        slope = report.slopes[("aggregate", "G")]
        assert -1.35 < slope < -0.65
        variances = [r.variance for r in report.rows]
        assert variances[0] > variances[-1]

    def test_constant_function_zero_gradient_variance(self):
        from smoothdiff.tasks import Task

        task = Task(dim=2, fn=lambda th: 1.0, theta_true=np.zeros(2),
                    init_sampler=lambda gen: np.zeros(2))
        report = variance_report(task, np.zeros(2), [SamplingMode.PER_ELEMENT],
                                 budgets=[16], orders=("G",), reps=10, sigma=1.0, seed=6)
        assert report.rows[0].variance == 0.0

    @pytest.mark.parametrize("reps", [1, 0])
    def test_rejects_fewer_than_two_reps(self, reps):
        # one estimate has no unbiased variance: the report would read nan
        with pytest.raises(ValueError, match="reps"):
            variance_report(negated_gaussian_task(), np.full(2, 0.5), [SamplingMode.AGGREGATE], [16],
                            orders=("G",), reps=reps)

    @pytest.mark.parametrize("budgets,bad", [([0], "0"), ([16, -8], "-8"), ([0, -8], "0")])
    def test_rejects_budget_below_one_before_any_estimate(self, budgets, bad):
        # such budgets used to buy one pair each, run every estimate and
        # then fail in the slope fit on log(0) or log(-8)
        calls = []
        task = replace(negated_gaussian_task(), fn=lambda th: calls.append(1) or 0.0)
        with pytest.raises(ValueError, match=f"budgets must be >= 1, got {bad}$"):
            variance_report(task, np.full(2, 0.5), [SamplingMode.AGGREGATE], budgets,
                            orders=("G",), reps=3)
        assert calls == []

    def test_rejects_repeated_budget_before_any_estimate(self):
        # one distinct budget left np.polyfit a rank-deficient fit
        calls = []
        task = replace(negated_gaussian_task(), fn=lambda th: calls.append(1) or 0.0)
        with pytest.raises(ValueError, match=r"budgets must be distinct, got \[24, 96, 24\]$"):
            variance_report(task, np.full(2, 0.5), [SamplingMode.AGGREGATE], [24, 96, 24],
                            orders=("G",), reps=3)
        assert calls == []


    def test_zero_variance_cell_has_no_slope(self):
        # at the optimum of an even quadratic every gradient estimate is exactly 0,
        # and a slope fit through log(0) reads nan
        report = variance_report(quad_task(), np.zeros(2), [SamplingMode.AGGREGATE], [8, 16],
                                 orders=("G",), reps=3)
        assert [row.variance for row in report.rows] == [0.0, 0.0]
        assert report.slopes == {}
        assert report.format_table().endswith("slope aggregate G: none, a variance is 0 or not finite")

    @pytest.mark.parametrize("bad,match", [(np.ones(3), "shape"), (np.array([math.nan, 1.0]), "finite"),
                                           (np.zeros(2), "nonzero")])
    def test_rejects_bad_direction_before_any_estimate(self, bad, match):
        calls = []
        task = replace(negated_gaussian_task(), fn=lambda th: calls.append(1) or 0.0)
        with pytest.raises(ValueError, match=f"^direction .*{match}"):
            variance_report(task, np.full(2, 0.5), [SamplingMode.AGGREGATE], [8, 16],
                            orders=("G", "HVP"), reps=5, direction=bad)
        assert calls == []

    def test_every_mode_order_and_budget_has_the_row_of_its_estimator(self):
        task, theta, v = negated_gaussian_task(), np.array([0.5, -0.3]), np.ones(2) / math.sqrt(2)
        modes, budgets, reps, seed = [SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE], [24, 96], 3, 9
        report = variance_report(task, theta, modes, budgets, reps=reps, seed=seed)
        estimate = {"G": lambda obj, cfg, rng: estimate_gradient(obj, theta, cfg, rng).g,
                    "H": lambda obj, cfg, rng: estimate_hessian(obj, theta, cfg, rng).h.ravel(),
                    "HVP": lambda obj, cfg, rng: estimate_hvp(obj, theta, v, cfg, rng).hv}
        expected, stream = [], 0
        for mode in modes:
            for order in ("G", "H", "HVP"):
                elements = 3 if order == "H" else 2
                for budget in budgets:
                    cfg = EstimatorConfig(KernelSpec(sigma=1.0, dim=2),
                                          budget // evals_per_estimate(mode, elements, 1), mode)
                    ests = []
                    for _ in range(reps):
                        stream += 1
                        obj = task.objective()
                        ests.append(estimate[order](obj, cfg, RngStream(seed, stream_id=stream)))
                        assert obj.eval_count <= budget
                    expected.append((mode.value, order, budget,
                                     float(np.array(ests).var(axis=0, ddof=1).sum())))
        assert [(r.mode, r.order, r.budget_evals, r.variance) for r in report.rows] == expected
        assert set(report.slopes) == {(mode.value, order) for mode in modes for order in ("G", "H", "HVP")}


class TestCli:
    def write_cfg(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\n"
            "task = quad\nmethod = OurHVPA\nsamples = 4\n"
            "sigma_start = 1.0\nsigma_end = 0.05\n"
            "trust_region = 50\nls_iters = 5\nls_tol = 1e-3\nrecompute = 5\n"
            "seed = 3\nbudget_evals = 600\nensemble = 2\n"
        )
        return cfg

    def test_run_writes_byte_identical_deterministic_traces(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--deterministic", "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--deterministic", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_json_output(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "a.json"
        assert main(["run", "--config", str(cfg), "--deterministic", "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["task"] == "quad"
        assert payload["runs"][0]["records"]

    def test_summarize_reads_export(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "a.csv"
        main(["run", "--config", str(cfg), "--deterministic", "--out", str(out)])
        capsys.readouterr()
        assert main(["summarize", str(out)]) == 0
        assert "param_error" in capsys.readouterr().out

    def test_sweep_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[sweep]\n"
            "methods = FD, OurHVPA\ntasks = quad\n"
            "samples = 2\nsigma_start = 1.0\nsigma_end = 0.05\n"
            "lr = 0.5\ntrust_region = 50\nls_iters = 3\nls_tol = 1e-3\nrecompute = 5\n"
            "seed = 1\nbudget_evals = 200\nensemble = 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--deterministic",
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "quad_FD.csv").exists()
        assert (out_dir / "quad_OurHVPA.csv").exists()

    @pytest.mark.parametrize("missing", ["methods", "tasks"])
    def test_sweep_without_methods_or_tasks_exits_2(self, tmp_path, capsys, missing):
        cfg = tmp_path / "sweep.ini"
        keys = {"methods": "FD", "tasks": "quad"}
        del keys[missing]
        cfg.write_text("[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       + "lr = 0.5\nbudget_evals = 20\nensemble = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(missing) in err

    def test_sweep_with_unknown_method_exits_2_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\nmethods = FD, Bogus\ntasks = quad\n"
                       "lr = 0.5\nseed = 1\nbudget_evals = 20\nensemble = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "'Bogus'" in captured.err
        assert "--- task=" not in captured.out

    def test_sweep_with_unknown_task_exits_2_before_any_run(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\nmethods = FD\ntasks = quad, qaud\n"
                       "lr = 0.5\nseed = 1\nbudget_evals = 20\nensemble = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "'qaud'" in captured.err
        assert "--- task=" not in captured.out

    def test_sweep_with_plateau_start_on_a_task_without_plateaus_exits_2_before_any_run(
            self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[sweep]\nmethods = FD\ntasks = box2, quad\ninit = plateau\n"
                       "lr = 0.5\nseed = 1\nbudget_evals = 20\nensemble = 1\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: task quad has no plateau starting points"]
        assert "--- task=" not in captured.out

    @pytest.mark.parametrize("name", ["qaud", "texturex", "texture2", "texture-8", "neggauss",
                                      "negated_gaussian"])
    def test_unknown_task_is_named(self, name):
        with pytest.raises(ValueError, match=f"unknown task {name!r}"):
            RunConfig(task=name, method="FD", lr=0.5, budget_evals=20)
        with pytest.raises(ValueError, match=f"unknown task {name!r}"):
            make_task(name)

    def test_config_checks_its_task_without_building_it(self, monkeypatch):
        # box tasks render their references when built
        import smoothdiff.tasks

        built = []
        monkeypatch.setitem(smoothdiff.tasks._BUILDERS, "box10", lambda: built.append(1))
        RunConfig(task="box10", method="FD", lr=0.5, budget_evals=20)
        assert not built

    def test_variance_rejects_run_overrides(self, capsys):
        # variance reads only --seed and --out; a flag it would ignore is an
        # error, and run has no --threads either: ensembles run serially
        for argv in (["variance", "--task", "neg_gauss", "--modes", "aggregate", "--orders", "G",
                      "--budgets", "16", "--reps", "2", "--threads", "2"],
                     ["run", "--config", "run.ini", "--threads", "2"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            assert "--threads" in capsys.readouterr().err

    def test_variance_unknown_order_exits_2(self, capsys):
        # an unknown order used to run the HVP estimator under its name
        assert main(["variance", "--task", "neg_gauss", "--modes", "aggregate", "--orders", "G,X",
                     "--budgets", "16,64", "--reps", "2"]) == 2
        assert "'X'" in capsys.readouterr().err
        with pytest.raises(ValueError):
            variance_report(negated_gaussian_task(), np.full(2, 0.5), [SamplingMode.AGGREGATE], [16],
                            orders=("hvp",), reps=2)

    def test_variance_single_rep_exits_2(self, capsys):
        assert main(["variance", "--task", "neg_gauss", "--modes", "aggregate", "--orders", "G",
                     "--budgets", "16,64", "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert "reps" in captured.err
        assert "nan" not in captured.out

    def test_variance_budget_below_one_exits_2(self, capsys):
        assert main(["variance", "--task", "quad", "--modes", "aggregate", "--orders", "G",
                     "--budgets", "0,-8", "--reps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: budgets must be >= 1, got 0"]
        assert captured.out == ""

    def test_variance_repeated_budget_exits_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["variance", "--task", "quad", "--modes", "aggregate", "--orders", "G",
                         "--budgets", "24,24", "--reps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: budgets must be distinct, got [24, 24]"]
        assert captured.out == ""

    @pytest.mark.parametrize("option,raw,kind", [
        ("--budgets", "24,x", "ints"), ("--budgets", "24,1.5", "ints"),
        ("--theta", "0.5,y", "floats"),
    ])
    def test_variance_unparsed_value_names_its_option(self, capsys, option, raw, kind):
        assert main(["variance", "--task", "quad", "--modes", "aggregate", "--orders", "G",
                     "--reps", "3", option, raw]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {option}: expected comma-separated {kind}, got {raw!r}"]
        assert captured.out == ""

    def test_variance_subcommand(self, tmp_path, capsys):
        assert main(["variance", "--task", "neg_gauss", "--theta", "0.5,0.5",
                     "--modes", "aggregate", "--orders", "G", "--budgets", "16,64",
                     "--reps", "10"]) == 0
        assert "slope" in capsys.readouterr().out

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\ntask = quad\nmethod = OurG\nbudget_evals = 10\n")
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("word", ["ture", "2", "", "y"])
    def test_unrecognized_boolean_exits_2(self, tmp_path, capsys, word):
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + f"deterministic = {word}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "'deterministic'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,bad", [("samples", "four"), ("sigma_start", "1.0.5")])
    def test_malformed_number_exits_2_naming_its_key(self, tmp_path, capsys, key, bad):
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {bad}", cfg.read_text(), flags=re.M))
        assert main(["run", "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("word,value", [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                                            ("0", False), ("false", False), ("NO", False), ("Off", False)])
    def test_boolean_words(self, word, value):
        assert _coerce("deterministic", f" {word} ") is value

    @pytest.mark.parametrize("key", ["ls_iters", "ls_tol", "recompute"])
    def test_zero_inner_loop_setting_exits_2(self, tmp_path, capsys, key):
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = 0", cfg.read_text(), flags=re.M))
        assert main(["run", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.ini"]) == 2

    def test_summarize_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        assert main(["summarize", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "empty" in err[0]

    def test_summarize_directory_exits_2(self, tmp_path, capsys):
        # an OSError other than a missing file used to escape as a traceback
        assert main(["summarize", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_zero_eval_budget_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(re.sub(r"^budget_evals = .*$", "budget_evals = 0", cfg.read_text(), flags=re.M))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "budget_evals" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
    def test_every_run_config_field_is_a_key_of_its_type(self, field):
        hint = typing.get_type_hints(RunConfig)[field]
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        raw, value = {int: ("3", 3), float: ("0.25", 0.25), bool: ("yes", True),
                      str: (" quad ", "quad")}[kind]
        parser = configparser.ConfigParser()
        parser.read_string(f"[run]\n{field} = {raw}\n")
        kwargs = _section_to_kwargs(parser["run"])
        assert kwargs == {field: value} and type(kwargs[field]) is kind

    def test_removed_anneal_iters_key_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + "anneal_iters = 5\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "'anneal_iters'" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [("fd_step = 1e-6", "'fd_step'"),
                                            ("threads = 2", "threads must be 1")],
                             ids=["fd_step", "threads"])
    def test_fd_step_key_and_threads_other_than_1_exit_2(self, tmp_path, capsys, line, named):
        # the FD step is a module constant and ensembles run serially
        cfg = self.write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + line + "\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only; a fresh interpreter that cannot
        # import it still imports the package and completes a run
        cfg = self.write_cfg(tmp_path)
        src = str(Path(smoothdiff.__file__).parents[1])
        code = (f"import sys\nsys.path.insert(0, {src!r})\nsys.modules['scipy'] = None\n"
                "import smoothdiff, smoothdiff.cli\n"
                f"sys.exit(smoothdiff.cli.main(['run', '--config', {str(cfg)!r}, "
                "'--deterministic', '--budget-evals', '100']))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "task=quad method=OurHVPA" in done.stdout

    def test_import_loads_no_thread_pool(self):
        # ensembles run serially: a fresh interpreter that imports the
        # package and its CLI loads neither the pool nor the logging it pulls in
        src = str(Path(smoothdiff.__file__).parents[1])
        code = (f"import sys\nsys.path.insert(0, {src!r})\n"
                "import smoothdiff, smoothdiff.cli\n"
                "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("flags,changes", [
        (["--seed", "7"], dict(seed=7)),
        (["--budget-seconds", "1.5e-4"], dict(budget_seconds=1.5e-4, budget_evals=None)),
        (["--budget-evals", "150"], dict(budget_evals=150, budget_seconds=None)),
    ], ids=["seed", "budget_seconds", "budget_evals"])
    def test_override_flags_give_the_records_of_their_config(self, tmp_path, flags, changes):
        # either budget of the file stops a run before the flag's would, so a
        # budget flag that kept the other budget would cut the runs short
        base = dict(task="quad", method="OurHVPA", samples=4, sigma_end=0.05, trust_region=50.0,
                    ls_iters=5, seed=3, ensemble=2, budget_seconds=5e-5, budget_evals=60)
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\n" + "".join(f"{key} = {value}\n" for key, value in base.items()))
        out = tmp_path / "t.json"
        assert main(["run", "--config", str(ini), "--deterministic", "--format", "json",
                     "--out", str(out), *flags]) == 0
        expected = RunConfig(**{**base, **changes, "deterministic": True})
        traces, config = load_traces(out)
        assert config == asdict(expected)
        for back, orig in zip(traces, run_ensemble(expected).traces, strict=True):
            assert back.records == orig.records

    def test_variance_out_writes_the_printed_table(self, tmp_path, capsys):
        out = tmp_path / "var.csv"
        assert main(["variance", "--task", "quad", "--modes", "per_element,aggregate",
                     "--budgets", "24,96", "--reps", "3", "--seed", "2", "--out", str(out)]) == 0
        table = out.read_text()
        assert capsys.readouterr().out == f"{table}wrote {out}\n"
        rows = [line.split(",")[:3] for line in table.splitlines()[1:13]]
        assert rows == [[mode, order, budget] for mode in ("per_element", "aggregate")
                        for order in ("G", "H", "HVP") for budget in ("24", "96")]


def test_budget_accounting_matches_counter():
    # the exported evals column is the objective's counter verbatim
    result = run_ensemble(RunConfig(**QUAD_CFG))
    for trace in result.traces:
        evals = [r.evals for r in trace.records]
        assert evals == sorted(evals)
        assert evals[-1] >= QUAD_CFG["budget_evals"]


@pytest.mark.parametrize("method,keys", [("OurG", dict(samples=2, lr=0.3)),
                                         ("OurHVPA", dict(samples=4, trust_region=50.0, ls_iters=5))])
def test_wall_clock_budget_stops_at_the_first_record_past_it(monkeypatch, method, keys):
    # the deterministic clock reads evals x 1e-6 s, so the stopping point is exact
    logs = record_sigmas(monkeypatch)
    result = run_ensemble(RunConfig(task="quad", method=method, budget_seconds=1e-4, ensemble=2,
                                    seed=5, deterministic=True, **keys))
    assert_sigma_follows_the_share_spent(result, logs, lambda rec: rec.evals * 1e-6 / 1e-4)
    for trace in result.traces:
        times = [rec.wall_time for rec in trace.records]
        assert times == [rec.evals * 1e-6 for rec in trace.records]
        assert max(times[:-1]) < 1e-4 <= times[-1] and not trace.aborted


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("method,keys", [("OurG", dict(samples=2, lr=0.3)),
                                         ("OurHVPA", dict(samples=4, trust_region=1.0, ls_iters=5))])
def test_non_finite_value_inside_an_estimate_aborts_only_its_run(monkeypatch, method, keys, seed):
    # runs 1 and 3 get NaN at their 25th estimate row, counted through the
    # loss's batched form, which only estimates call; records and trial
    # points go through fn itself, so the abort does not depend on the draws
    quad = quad_task()
    chosen, nan_row = (1, 3), 25
    made = []  # per run: (the NaN row, the evaluations up to and including it)

    def objective():
        run = len(made)
        made.append(None)
        evals = rows_seen = 0

        def fn(th):
            nonlocal evals
            evals += 1
            return quad.fn(th)

        def rows(points):
            nonlocal evals, rows_seen
            vals = np.array([quad.fn(point) for point in points])
            k = nan_row - 1 - rows_seen
            if run in chosen and 0 <= k < len(points):
                vals[k] = math.nan
                made[run] = (points[k].copy(), evals + k + 1)
            rows_seen += len(points)
            evals += len(points)
            return vals

        fn.rows = rows
        return Objective(fn, quad.dim)

    task = replace(quad)
    task.objective = objective  # one Objective per run, in run order
    monkeypatch.setattr(harness, "make_task", lambda name: task)
    result = run_ensemble(RunConfig(task="quad", method=method, sigma_end=0.05, budget_evals=300,
                                    ensemble=4, seed=seed, deterministic=True, **keys))
    assert len(result.traces) == 4
    for run, trace in enumerate(result.traces):
        if run not in chosen:
            assert made[run] is None and not trace.aborted and trace.records[-1].evals >= 300
            continue
        point, at = made[run]
        match = re.fullmatch(r"objective returned non-finite value nan at (\[.*\]), in iteration (\d+)",
                             trace.note)
        assert trace.aborted and match, trace.note
        assert match[1] == f"{point}"
        # the row was evaluated in the iteration after the last record
        assert int(match[2]) == len(trace.records)
        assert trace.records[-1].evals < at


def test_non_finite_hessian_estimate_aborts_with_a_note_that_names_it(monkeypatch):
    # psd_modify used to get the estimate as it was: eigh returns NaN eigenvalues
    # without a warning, and the run aborted on a NaN CG step instead
    real = harness.estimate_hessian
    points = []

    def poisoned(obj, theta, cfg, rng):
        est = real(obj, theta, cfg, rng)
        est.h[0, 0] = math.inf
        points.append(theta.copy())
        return est

    monkeypatch.setattr(harness, "estimate_hessian", poisoned)
    result = run_ensemble(RunConfig(task="neg_gauss", method="OurH", samples=2, trust_region=1.0,
                                    ls_iters=2, budget_evals=200, ensemble=1, seed=2,
                                    deterministic=True))
    (trace,) = result.traces
    assert trace.aborted and len(points) == 1
    assert trace.note == f"non-finite Hessian estimate at {points[0]}, in iteration 1"
    assert [rec.iteration for rec in trace.records] == [0]


# Each (owner, attribute) the benchmark's tracer wraps, with the calls each
# method makes of it per estimate of the kind named, or per run ("run").
_BOUNDARIES = {
    "OurHVPA": {("harness", "estimate_gradient"): "gradient",
                ("estimators", "sample_aggregate_offsets"): "gradient",
                ("samplers", "gradient_inverse_cdf"): "gradient",
                ("harness", "newton_cg_run"): "run"},
    "OurG": {("harness", "estimate_gradient"): "gradient",
             ("estimators", "sample_gradient_offsets"): "gradient",
             ("samplers", "gradient_inverse_cdf"): "gradient",
             ("harness", "gd_adam_run"): "run"},
    # a 2-D Hessian has one diagonal group, drawn through the table, and one
    # off-diagonal group, drawn through the gradient's inverse CDF
    "OurH": {("harness", "estimate_hessian"): "hessian",
             ("harness", "psd_modify"): "hessian",
             ("harness", "estimate_gradient"): "hessian",
             ("estimators", "sample_hessian_offsets"): "hessian",
             ("estimators", "sample_gradient_offsets"): "hessian",
             ("table", "lookup"): "hessian",
             ("samplers", "gradient_inverse_cdf"): "hessian x2",
             ("harness", "newton_cg_run"): "run"},
    "FR22": {("harness", "estimate_gradient_fr22"): "gradient",
             ("estimators", "gradient_inverse_cdf"): "gradient",
             ("estimators", "element_density_ratios"): "gradient",
             ("harness", "gd_adam_run"): "run"},
    "FD": {("harness", "estimate_gradient_fd"): "gradient",
           ("harness", "gd_adam_run"): "run"},
}
_TRACED = [("harness", a) for a in ("estimate_gradient", "estimate_gradient_fd", "estimate_gradient_fr22",
                                    "estimate_hessian", "estimate_hvp", "psd_modify", "newton_cg_run",
                                    "gd_adam_run", "make_task")]
_TRACED += [("estimators", a) for a in ("sample_gradient_offsets", "sample_hessian_offsets",
                                        "sample_aggregate_offsets", "element_density_ratios",
                                        "gradient_inverse_cdf")]
_TRACED += [("samplers", "gaussian_pdf_1d"), ("samplers", "gradient_inverse_cdf"), ("table", "lookup")]


@pytest.mark.parametrize("task", ["quad", "neg_gauss"])
@pytest.mark.parametrize("method", list(_BOUNDARIES))
def test_each_traced_boundary_is_reached_once_per_estimate(monkeypatch, task, method):
    # the benchmark's tracer counts and times the package at these attributes;
    # a path that stopped calling one would read zero in a traced pass
    import smoothdiff.estimators
    import smoothdiff.samplers
    owners = {"harness": harness, "estimators": smoothdiff.estimators, "samplers": smoothdiff.samplers,
              "table": smoothdiff.samplers.TabulatedInverseCdf}
    calls = {key: 0 for key in _TRACED}
    evals_used = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            out = fn(*args, **kwargs)
            if key[1].startswith("estimate_"):
                evals_used.append(out.evals_used)
            return out

        return wrapper

    for key in _TRACED:
        owner, attr = owners[key[0]], key[1]
        monkeypatch.setattr(owner, attr, counting(key, getattr(owner, attr)))
    rows = []
    real_rows = Objective.evaluate_rows
    monkeypatch.setattr(Objective, "evaluate_rows",
                        lambda obj, points: rows.append(len(points)) or real_rows(obj, points))
    keys = dict(samples=2, lr=0.3) if method in ("OurG", "FR22", "FD") else dict(
        samples=2, trust_region=1.0, ls_iters=2)
    run_ensemble(RunConfig(task=task, method=method, budget_evals=120, ensemble=2, seed=3,
                           deterministic=True, **keys))
    expected = _BOUNDARIES[method]
    per_estimate = calls[next(key for key, per in expected.items() if per != "run" and key[0] == "harness")]
    assert per_estimate > 0
    for key in _TRACED:
        per = expected.get(key)
        want = {None: 0, "run": 2, "hessian x2": 2 * per_estimate}.get(per, per_estimate)
        if key == ("harness", "make_task"):
            want = 1
        assert calls[key] == want, key
    assert sum(evals_used) == sum(rows) > 0
