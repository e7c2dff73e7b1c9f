"""``tools/same_records.py`` on canned traces and timings, and on this checkout loaded twice."""

import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

import smoothdiff.harness
from smoothdiff.trace import ConvergenceTrace, TraceRecord

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_records", _ROOT / "tools" / "same_records.py")
same_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_records)


def trace(*losses, param_error=1.0, note=""):
    out = ConvergenceTrace(aborted=bool(note), note=note)
    for k, loss in enumerate(losses):
        out.append(TraceRecord(k * 1e-6, k, k + 1, loss, param_error))
    return out


def test_equal_traces_have_no_difference():
    # NaN counts as equal to NaN, as a run without a parameter error records it
    traces = [trace(3.0, 2.0, 1.0), trace(4.0, param_error=math.nan)]
    again = [trace(3.0, 2.0, 1.0), trace(4.0, param_error=math.nan)]
    assert same_records.first_difference(traces, again) is None


@pytest.mark.parametrize("change,message", [
    ([trace(3.0, 2.0, 1.0), trace(4.0, 2.5)],
     "run 1 record 1 differs: parent TraceRecord(wall_time=1e-06, iteration=1, evals=2, loss=2.0, "
     "param_error=1.0), change TraceRecord(wall_time=1e-06, iteration=1, evals=2, loss=2.5, "
     "param_error=1.0)"),
    ([trace(3.0, 2.0, 1.0), trace(4.0)],
     "run 1 record 1 differs: parent TraceRecord(wall_time=1e-06, iteration=1, evals=2, loss=2.0, "
     "param_error=1.0), change None"),
    ([trace(3.0, 2.0, 1.0), trace(4.0, 2.0, note="non-finite loss")],
     "run 1 ends differently: parent aborted=False note='', change aborted=True "
     "note='non-finite loss'"),
    ([trace(3.0, 2.0, 1.0)], "2 runs in the parent, 1 in the change"),
], ids=["value", "missing_record", "note", "run_count"])
def test_first_difference_names_run_record_and_both_values(change, message):
    parent = [trace(3.0, 2.0, 1.0), trace(4.0, 2.0)]
    assert same_records.first_difference(parent, change) == message


@pytest.fixture(scope="module")
def twice():
    """This checkout's package under two names, and its workloads against the second."""
    packages = tuple(same_records.load_package(_ROOT / "src" / "smoothdiff", f"_twice_{side}")
                     for side in same_records.SIDES)
    return packages, same_records.load_workloads(_ROOT / "bench" / "workloads.py", packages[1])


def test_a_checkout_loaded_twice_has_two_packages_whose_records_never_compare_equal(twice):
    (a, b), workloads = twice
    assert a.harness is not b.harness and a.trace.TraceRecord is not b.trace.TraceRecord
    ra, rb = (p.trace.TraceRecord(0.0, 0, 1, 1.0, 1.0) for p in (a, b))
    assert ra != rb  # hence the comparison by value
    assert same_records.first_difference([a.trace.ConvergenceTrace([ra])],
                                         [b.trace.ConvergenceTrace([rb])]) is None
    # the workloads' RunConfig is the change's, and no smoothdiff name was left pointing at it
    assert workloads.RunConfig is b.harness.RunConfig
    assert sys.modules["smoothdiff"] is smoothdiff and sys.modules["smoothdiff.harness"] is smoothdiff.harness


@pytest.mark.parametrize("workload", ["lowdim", "render", "highdim"])
def test_a_checkout_loaded_twice_reads_identical(twice, workload):
    packages, workloads = twice
    for cell in workloads.seeded(workload, 1, budget_scale=0.05, ensemble=1):
        assert same_records.compare_cell(packages, cell) == "identical", cell


def test_an_unknown_workload_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_:
        same_records.main([str(_ROOT), str(_ROOT), "--workload", "lowdims", "--seeds", "1"])
    assert exit_.value.code == 2 and "unknown workload 'lowdims'" in capsys.readouterr().err


def test_main_runs_twice_in_one_process(monkeypatch, capsys):
    # a second run used to find the first run's submodules in sys.modules and
    # die with "module '_same_records_change' has no attribute 'harness'"
    monkeypatch.setattr(same_records, "compare_cell", lambda packages, cell: "identical")
    for _ in range(2):
        assert same_records.main([str(_ROOT), str(_ROOT), "--workload", "render", "--seeds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == out[4:] == ["== render seed 1", "box10:OurHVPA: identical", "box10:FD: identical",
                                  "phong:OurH: identical"]


def test_timing_line_gives_each_sides_per_round_ratio_to_the_parent():
    # change ratios 0.9, 0.9, 1.1, 0.6; control ratios 1.0, 1.1, 1.0, 0.9
    line = same_records.timing_line("texture16:OurG", [1.0, 2.0, 4.0, 2.0], [0.9, 1.8, 4.4, 1.2],
                                    [1.0, 2.2, 4.0, 1.8])
    assert line == ("texture16:OurG: parent 2000.0 ms per round; "
                    "change / parent 0.900 [0.825, 0.950], faster in 3 of 4 rounds; "
                    "control / parent 1.000 [0.975, 1.025], faster in 1 of 4 rounds")
    assert same_records.timing_line("quad:FD", [0.5], [0.25], [0.5]) == (
        "quad:FD: parent 500.0 ms per round; change / parent 0.500 [0.500, 0.500], faster in 1 of 1 "
        "rounds; control / parent 1.000 [1.000, 1.000], faster in 0 of 1 rounds")


def test_time_cell_warms_up_then_runs_each_run_from_every_package_cycling_the_order():
    @dataclass
    class Cell:
        seed: int = 100
        ensemble: int = 2
        budget_evals: int = 50

    calls = []

    def package(name):
        def run_ensemble(cfg):
            calls.append((name, cfg["seed"], cfg["ensemble"], cfg["budget_evals"], cfg["deterministic"]))

        return SimpleNamespace(harness=SimpleNamespace(RunConfig=dict, run_ensemble=run_ensemble))

    times = same_records.time_cell((package("p"), package("c"), package("k")), Cell(), 2)
    assert [len(t) for t in times] == [2, 2, 2] and all(s >= 0.0 for t in times for s in t)
    warm_up = [(name, 100, 1, 2, True) for name in "pck"]
    assert calls == warm_up + [(name, seed, 1, 50, True)
                               for order, seed in (("pck", 100), ("pck", 101), ("pkc", 100), ("pkc", 101))
                               for name in order]


def test_workload_times_sum_every_cell_per_round_and_side():
    # two cells, three packages, two rounds
    cells = [[[1.0, 2.0], [0.75, 1.5], [1.0, 2.5]],
             [[3.0, 2.0], [2.25, 1.5], [3.0, 1.5]]]
    assert same_records.workload_times(cells) == [[4.0, 4.0], [3.0, 3.0], [4.0, 4.0]]


def test_timing_rounds_end_each_seed_with_a_whole_workload_line(monkeypatch, capsys):
    # every cell reads 1 s at the parent, 0.9 s at the change and 1 s at the control in round 0,
    # and 2 s, 1.6 s and 1.8 s in round 1
    monkeypatch.setattr(same_records, "time_cell",
                        lambda packages, cell, rounds: [[1.0, 2.0], [0.9, 1.6], [1.0, 1.8]])
    # every side runs this checkout's package as imported, so no package is loaded again
    monkeypatch.setattr(same_records, "load_package", lambda package_dir, name: smoothdiff)
    assert same_records.main([str(_ROOT), str(_ROOT), "--workload", "render", "--seeds", "1", "7",
                              "--rounds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [text.split(":")[0] for text in out] == [
        "== render seed 1", "box10", "box10", "phong", "render seed 1, all cells",
        "== render seed 7", "box10", "box10", "phong", "render seed 7, all cells"]
    assert out[4] == ("render seed 1, all cells: parent 4500.0 ms per round; "
                      "change / parent 0.850 [0.825, 0.875], faster in 2 of 2 rounds; "
                      "control / parent 0.950 [0.925, 0.975], faster in 1 of 2 rounds")
