"""The summary of ``tools/ab_pairs.py`` on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def line(us, runs, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 6, "failed": failed,
                       "metrics": {"us_per_eval": {"value": us, "unit": "us"},
                                   "completed_runs": {"value": runs, "unit": "share"}}})


def canned(rows):
    return [(json.loads(parent), json.loads(change)) for parent, change in rows]


BETTER = {"us_per_eval": "lower", "completed_runs": "higher"}


def test_medians_quartiles_and_wins_per_metric():
    pairs = canned([(line(15.0, 1.0), line(14.0, 1.0)),
                    (line(16.0, 1.0), line(14.5, 1.0)),
                    (line(15.5, 0.5), line(15.6, 1.0)),
                    (line(15.2, 1.0), line(14.2, 0.5))])
    lines = ab_pairs.summarize(pairs, BETTER)
    assert lines == [
        "us_per_eval: 15.35 [15.15, 15.625] -> 14.35 [14.15, 14.775] (-6.5%), "
        "change better in 3 of 4 pairs",
        # a tie counts for neither side
        "completed_runs: 1 [0.875, 1] -> 1 [0.875, 1] (+0.0%), change better in 1 of 4 pairs",
    ]


def test_a_metric_not_listed_is_lower_is_better():
    pairs = canned([(line(2.0, 1.0), line(1.0, 1.0))])
    assert ab_pairs.summarize(pairs, {})[1].endswith("change better in 0 of 1 pairs")
    assert ab_pairs.summarize(pairs, {})[0] == ("us_per_eval: 2 [2, 2] -> 1 [1, 1] (-50.0%), "
                                                "change better in 1 of 1 pairs")


@pytest.mark.parametrize("correct,failed,why", [(False, 0, "correct: False, failed: 0"),
                                                (True, 2, "correct: True, failed: 2")])
def test_runs_that_are_not_correct_or_failed_are_flagged(correct, failed, why):
    pairs = canned([(line(15.0, 1.0), line(14.0, 1.0)),
                    (line(15.0, 1.0), line(14.0, 1.0, correct=correct, failed=failed))])
    assert ab_pairs.summarize(pairs, BETTER)[-1] == f"FLAGGED: pair 1 change: {why}"


def test_a_run_without_a_result_is_flagged_and_left_out_of_the_metrics():
    missing = {"correct": False, "failed": None, "metrics": {}, "error": "Traceback"}
    pairs = canned([(line(15.0, 1.0), line(14.0, 1.0))]) + [(missing, json.loads(line(14.0, 1.0)))]
    lines = ab_pairs.summarize(pairs, BETTER)
    assert lines[0].endswith("change better in 1 of 1 pairs")
    assert lines[-1] == "FLAGGED: pair 1 parent: no result (Traceback)"
    assert len(lines) == 3


def test_better_directions_come_from_the_checkouts_benchmark_file():
    better = ab_pairs.better_directions(_PATH.parent.parent)
    assert better["us_per_eval"] == "lower" and better["completed_runs"] == "higher"


BOUNDS = {"us_per_eval": ("lower", 0.25), "completed_runs": ("higher", 0.003)}


def verdict_of(parent_us, change_us, parent_runs=(1.0,) * 4, change_runs=(1.0,) * 4):
    pairs = canned([(line(a, r), line(b, s))
                    for a, b, r, s in zip(parent_us, change_us, parent_runs, change_runs)])
    return {text.split(": ")[0]: text.split(": ")[1].split(" (")[0]
            for text in ab_pairs.verdicts(pairs, BOUNDS)}


def test_verdict_line_states_the_bound_medians_and_spread():
    pairs = canned([(line(a, 1.0), line(b, 1.0)) for a, b in [(15.0, 16.0), (16.0, 17.0)]])
    assert ab_pairs.verdicts(pairs, BOUNDS)[0] == (
        "us_per_eval: within bound (bound 0.25 allows 3.875; medians 15.5 -> 16.5, "
        "parent quartile spread 0.5)")


@pytest.mark.parametrize("parent,change,verdict", [
    # allowance 0.25 * 15.15 = 3.79 against a parent spread of 0.15
    ([15.0, 15.2, 15.1, 15.3], [18.0, 18.9, 18.5, 18.7], "within bound"),
    ([15.0, 15.2, 15.1, 15.3], [19.0, 19.2, 18.9, 19.4], "WORSE than bound"),
    # a parent spread of 10 exceeds the allowance of 3.75
    ([10.0, 20.0, 10.0, 20.0], [15.0, 15.0, 15.0, 15.0], "unresolved"),
    ([10.0, 20.0, 10.0, 20.0], [30.0, 30.0, 30.0, 30.0], "unresolved"),
    # ... unless every change run reads better than every parent run
    ([10.0, 20.0, 10.0, 20.0], [9.0, 9.5, 9.0, 9.9], "within bound"),
])
def test_verdicts_of_a_lower_is_better_metric(parent, change, verdict):
    assert verdict_of(parent, change)["us_per_eval"] == verdict


@pytest.mark.parametrize("parent,change,verdict", [
    ([1.0] * 4, [1.0, 1.0, 1.0, 0.5], "within bound"),
    ([1.0] * 4, [0.99] * 4, "WORSE than bound"),
    # a parent spread of 0.4 exceeds the allowance of 0.0021, unless the change beats every run
    ([0.5, 0.9, 0.5, 0.9], [1.0] * 4, "within bound"),
    ([0.5, 0.9, 0.5, 0.9], [0.5, 0.5, 0.5, 1.0], "unresolved"),
])
def test_verdicts_of_a_higher_is_better_metric(parent, change, verdict):
    assert verdict_of([15.0] * 4, [15.0] * 4, parent, change)["completed_runs"] == verdict


def test_only_bounded_end_to_end_metrics_get_a_verdict():
    bounds = ab_pairs.end_to_end_bounds(_PATH.parent.parent)
    assert bounds["us_per_eval"] == ("lower", 0.25) and bounds["completed_runs"] == ("higher", 0.003)
    assert "samplers.sample_s" not in bounds
    # one verdict per bounded metric the runs report, and none for one they do not
    assert list(verdict_of([15.0], [15.0])) == ["us_per_eval", "completed_runs"]
    pairs = canned([(line(15.0, 1.0), line(15.0, 1.0))])
    assert ab_pairs.verdicts(pairs, {"setup_s": ("lower", 0.25)}) == []


CANNED_RUN_PY = '''"""A benchmark script."""
import sys

SETUP_REPEATS = 5
_OTHER: str = "not this"
_SETUP_CODE = """
import sys
print(repr(0.25), repr(0.007))
"""
'''


def test_setup_code_is_read_from_the_script_text_without_running_it():
    assert ab_pairs.setup_code(CANNED_RUN_PY) == '\nimport sys\nprint(repr(0.25), repr(0.007))\n'
    with pytest.raises(ValueError, match="no _SETUP_CODE"):
        ab_pairs.setup_code(CANNED_RUN_PY.replace("_SETUP_CODE =", "SETUP_CODE ="))


def test_the_benchmarks_own_setup_code_is_found():
    code = ab_pairs.setup_code((_PATH.parent.parent / "bench" / "run.py").read_text())
    assert "host_reference" in code and "make_task" in code
    compile(code, "<setup>", "exec")


def test_report_tasks_are_the_sorted_tasks_of_its_cells():
    report = {"cells": [{"cell": f"{t}:{m}", "config": {"task": t, "method": m}}
                        for t, m in [("quad", "OurG"), ("neg_gauss", "OurH"), ("quad", "FD")]]}
    assert ab_pairs.report_tasks(report) == ["neg_gauss", "quad"]


def probe(setup, ref):
    return ab_pairs.probe_result(f"warming up\n{setup!r} {ref!r}\n")


def test_probes_summarize_raw_setup_and_reference_seconds():
    probes = [(probe(0.19, 0.0068), probe(0.18, 0.0043)),
              (probe(0.20, 0.0069), probe(0.21, 0.0044))]
    assert ab_pairs.summarize(probes, {}) == [
        "setup_raw_s: 0.195 [0.1925, 0.1975] -> 0.195 [0.1875, 0.2025] (+0.0%), "
        "change better in 1 of 2 pairs",
        "host_reference_s: 0.00685 [0.006825, 0.006875] -> 0.00435 [0.004325, 0.004375] "
        "(-36.5%), change better in 2 of 2 pairs",
    ]
    with pytest.raises(ValueError):
        ab_pairs.probe_result("Traceback (most recent call last):\n")


def test_a_probe_runs_the_code_in_the_checkout_and_flags_a_failure(tmp_path):
    code = ab_pairs.setup_code(CANNED_RUN_PY)
    result = ab_pairs.probe_once(tmp_path, code, ["quad"])
    assert result["metrics"]["setup_raw_s"]["value"] == 0.25 and ab_pairs.flagged(result) is None
    failed = ab_pairs.probe_once(tmp_path, "raise SystemExit('no tasks')", ["quad"])
    assert ab_pairs.flagged(failed) == "no result (no tasks)"


def test_alternate_runs_the_parent_first_in_even_pairs(capsys):
    order = []
    pairs = ab_pairs.alternate(3, "probe", lambda side: order.append(side) or {"side": side})
    assert order == [0, 1, 1, 0, 0, 1]
    assert pairs == [({"side": 0}, {"side": 1})] * 3
    assert capsys.readouterr().out.splitlines()[:2] == ['probe 0 parent: {"side": 0}',
                                                        'probe 0 change: {"side": 1}']


def test_alternate_rotates_three_sides_so_each_runs_in_every_slot(capsys):
    order = []
    results = ab_pairs.alternate(4, "pair", lambda side: order.append(side) or {"side": side}, 3)
    assert order == [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]
    assert results == [({"side": 0}, {"side": 1}, {"side": 2})] * 4
    assert capsys.readouterr().out.splitlines()[3:6] == ['pair 1 change: {"side": 1}',
                                                         'pair 1 control: {"side": 2}',
                                                         'pair 1 parent: {"side": 0}']


def canned_triples(rows):
    return [tuple(json.loads(result) for result in row) for row in rows]


def test_the_control_is_summarized_and_judged_against_the_same_parent_runs():
    results = canned_triples([(line(15.0, 1.0), line(14.0, 1.0), line(15.2, 1.0)),
                              (line(16.0, 1.0), line(14.5, 1.0), line(15.8, 1.0)),
                              (line(15.5, 1.0), line(14.2, 1.0), line(15.4, 1.0, correct=False))])
    lines = ab_pairs.against_parent(results, BETTER, BOUNDS, "== vs ")
    assert lines == [
        "== vs change",
        "us_per_eval: 15.5 [15.25, 15.75] -> 14.2 [14.1, 14.35] (-8.4%), "
        "change better in 3 of 3 pairs",
        "completed_runs: 1 [1, 1] -> 1 [1, 1] (+0.0%), change better in 0 of 3 pairs",
        "us_per_eval: within bound (bound 0.25 allows 3.875; medians 15.5 -> 14.2, "
        "parent quartile spread 0.5)",
        "completed_runs: within bound (bound 0.003 allows 0.003; medians 1 -> 1, "
        "parent quartile spread 0)",
        "== vs control",
        "us_per_eval: 15.5 [15.25, 15.75] -> 15.4 [15.3, 15.6] (-0.6%), "
        "control better in 2 of 3 pairs",
        "completed_runs: 1 [1, 1] -> 1 [1, 1] (+0.0%), control better in 0 of 3 pairs",
        "FLAGGED: pair 2 control: correct: False, failed: 0",
        "us_per_eval: within bound (bound 0.25 allows 3.875; medians 15.5 -> 15.4, "
        "parent quartile spread 0.5)",
        "completed_runs: within bound (bound 0.003 allows 0.003; medians 1 -> 1, "
        "parent quartile spread 0)",
    ]
    # without a control, one block, and without bounds no verdicts
    assert ab_pairs.against_parent([r[:2] for r in results], BETTER, {}, "== vs ") == lines[:3]


def test_main_runs_the_control_in_every_pair_and_reports_it(tmp_path, monkeypatch, capsys):
    roots = {}
    for side in ab_pairs.SIDES:
        root = roots[side] = tmp_path / side
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(CANNED_RUN_PY)
        (root / ".bench_out").mkdir()
        (root / ".bench_out" / "BENCH_render_seed1_trace0.json").write_text(json.dumps(
            {"cells": [{"config": {"task": "phong"}}, {"config": {"task": "box10"}}]}))
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "us_per_eval", "better": "lower", "bound": 0.25}]}))
    us = {"parent": 28.9, "change": 27.4, "control": 28.8}
    side_of = {root.resolve(): side for side, root in roots.items()}
    ran = []

    def run_once(checkout, workload, seed, seconds):
        ran.append(side_of[checkout])
        return json.loads(line(us[side_of[checkout]], 1.0))

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs, "probe_once", lambda checkout, code, tasks: probe(0.1, 0.004))
    argv = [str(roots["parent"]), str(roots["change"]), "--control", str(roots["control"]),
            "--workload", "render", "--seeds", "1", "--pairs", "3", "--seconds", "1"]
    assert ab_pairs.main(argv) == 0
    assert ran == ["parent", "change", "control", "change", "control", "parent",
                   "control", "parent", "change"]
    out = [text for text in capsys.readouterr().out.splitlines() if not text.startswith("seed 1")]
    assert out[0] == "== render seed 1, 3 pairs of 1 s: parent median [quartiles] -> change"
    assert out[1].endswith("(-5.2%), change better in 3 of 3 pairs")
    assert out[3].startswith("us_per_eval: within bound")
    assert out[4] == "== render seed 1, 3 pairs of 1 s: parent median [quartiles] -> control"
    assert out[5].endswith("(-0.3%), control better in 3 of 3 pairs")
    assert out[7].startswith("us_per_eval: within bound")
    assert out[8] == ("== render seed 1, 3 set-up probes of box10, phong: "
                      "parent median [quartiles] -> change")
    assert out[11] == ("== render seed 1, 3 set-up probes of box10, phong: "
                       "parent median [quartiles] -> control")
    assert len(out) == 14


def claim_of(parent_us, change_us, better="lower"):
    pairs = canned([(line(a, 1.0), line(b, 1.0)) for a, b in zip(parent_us, change_us)])
    return ab_pairs.claim_verdict(pairs, "us_per_eval", better)


# ten parent runs with quartiles 14.125 and 14.275: a spread of 0.15
CLAIM_PARENT = [14.0, 14.1, 14.1, 14.2, 14.2, 14.2, 14.2, 14.3, 14.3, 14.4]


@pytest.mark.parametrize("change,verdict", [
    # better in 10 of 10 pairs, median 13.5: a gain of 0.7 against the spread of 0.15
    ([13.5] * 10, "claim met"),
    # better in 9 of 10 pairs is enough ...
    ([13.5] * 9 + [14.5], "claim met"),
    # ... 8 of 10 is not, and a tie counts for neither side
    ([13.5] * 8 + [14.5, 14.5], "claim not met"),
    ([13.5] * 8 + [14.5, 14.4], "claim not met"),
    # better in every pair, but by less than the parent's own spread
    ([x - 0.1 for x in CLAIM_PARENT], "claim not met"),
])
def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_parent_spread(change, verdict):
    assert claim_of(CLAIM_PARENT, change).split(" (")[0] == f"us_per_eval: {verdict}"


def test_a_claim_line_states_wins_gain_and_spread():
    assert claim_of(CLAIM_PARENT, [13.5] * 10) == (
        "us_per_eval: claim met (change better in 10 of 10 pairs; median gain 0.7 against "
        "parent quartile spread 0.15)")
    # higher is better: a lower change gains nothing
    assert claim_of([1.0] * 10, [1.1] * 10, "higher").startswith("us_per_eval: claim met")
    assert claim_of([1.1] * 10, [1.0] * 10, "higher").startswith(
        "us_per_eval: claim not met (change better in 0 of 10 pairs; median gain -0.1")


def test_a_pair_without_the_metric_counts_against_the_claim():
    missing = {"correct": False, "failed": None, "metrics": {}, "error": "Traceback"}
    pairs = canned([(line(14.2, 1.0), line(13.5, 1.0))] * 9) + [(json.loads(line(14.2, 1.0)), missing)]
    assert ab_pairs.claim_verdict(pairs, "us_per_eval", "lower").startswith(
        "us_per_eval: claim met (change better in 9 of 10 pairs")
    assert ab_pairs.claim_verdict(pairs[1:], "us_per_eval", "lower").startswith(
        "us_per_eval: claim not met (change better in 8 of 9 pairs")
    assert ab_pairs.claim_verdict(pairs, "setup_s", "lower") == "setup_s: claim not met (no pair reports it)"


def test_with_a_claim_each_sides_block_ends_with_its_claim_line():
    results = canned_triples([(line(15.0 + k / 10, 1.0), line(14.0, 1.0), line(15.0 + k / 10, 1.0))
                              for k in range(10)])
    lines = ab_pairs.against_parent(results, BETTER, {}, "== vs ", "us_per_eval")
    assert lines[3].startswith("us_per_eval: claim met (change better in 10 of 10 pairs")
    assert lines[7].startswith("us_per_eval: claim not met (control better in 0 of 10 pairs")
    assert len(lines) == 8
