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
