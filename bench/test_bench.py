"""Tests of the benchmark itself: metric tables, gate, tracer, smoke runs."""

import json
import math
from pathlib import Path

import pytest

import gate
import run
from tracer import Tracer, patch_targets
from workloads import WORKLOADS, seeded

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


def test_benchmark_json_matches_metric_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table


def test_gate_passes_and_catches_bias(monkeypatch):
    assert gate.estimator_checks() == []
    real = gate.estimate_gradient

    def biased(obj, theta, cfg, rng):
        est = real(obj, theta, cfg, rng)
        return type(est)(g=est.g + 0.05, evals_used=est.evals_used)

    monkeypatch.setattr(gate, "estimate_gradient", biased)
    failures = gate.estimator_checks()
    assert failures and all("gradient" in msg for msg in failures)


def test_tracer_restores_attributes_after_error():
    originals = [getattr(owner, attr) for owner, attr in patch_targets()]
    with pytest.raises(RuntimeError):
        with Tracer():
            assert [getattr(owner, attr) for owner, attr in patch_targets()] != originals
            raise RuntimeError("boom")
    assert [getattr(owner, attr) for owner, attr in patch_targets()] == originals


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric(workload, trace, monkeypatch, tmp_path, capsys):
    # the estimator gate has its own test above; skip it here to keep runs tiny
    monkeypatch.setattr(gate, "estimator_checks", lambda: [])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    originals = [getattr(owner, attr) for owner, attr in patch_targets()]
    cells = seeded(workload, 7, budget_scale=0.01, ensemble=1)

    code = run.run(workload, 7, 0.001, bool(trace), cells=cells)

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= len(cells) and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == table[name][0]
    report = json.loads((tmp_path / f"BENCH_{workload}_seed7_trace{trace}.json").read_text())
    for name, metric in report["metrics"].items():
        assert (metric["unit"], metric["better"]) == table[name]
    assert [getattr(owner, attr) for owner, attr in patch_targets()] == originals
    if trace:
        spans = (tmp_path / f"spans_{workload}.jsonl").read_text().splitlines()
        assert spans and all(len(json.loads(line)) == 4 for line in spans)


def test_seeded_cells_are_distinct_and_reproducible():
    a = seeded("lowdim", 3)
    assert a == seeded("lowdim", 3)
    seeds = [cfg.seed + r for cfg in a for r in range(cfg.ensemble)]
    assert len(set(seeds)) == len(seeds)
    assert all(cfg.threads == 1 for cfg in a)
