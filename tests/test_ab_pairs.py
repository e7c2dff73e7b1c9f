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
