"""Seeded records pinned against a stored reference.

``golden_records.json`` holds the deterministic records of short
ensembles over every cell of the benchmark's workloads, plus
``neg_gauss:OurHVP``, which no workload runs.  A change
that is meant to leave the numbers alone must reproduce them exactly:
same iterations and evaluation counts, bit-equal losses and parameter
errors.  Regenerate the file only for a change that is meant to move
records, and say so where the change is described:

    python tests/test_golden_records.py [CELL ...]

rewrites the named cells (all of them when none is named) and leaves the
other keys as they are; run as a script, it puts the checkout's ``src/``
on the path itself, as ``bench/run.py`` does.  With ``--diff`` it writes
nothing and prints, per cell, "identical" or whether every (iteration,
evals) pair still matches, with the largest relative change in loss and
in param_error; it exits 1 when any compared cell is not identical and 0
otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from smoothdiff.harness import RunConfig, run_ensemble

GOLDEN = Path(__file__).with_name("golden_records.json")

_NEWTON = dict(samples=4, sigma_start=1.0, sigma_end=0.05, trust_region=50.0,
               ls_iters=5, ls_tol=1e-3, recompute=5)
_FIRST = dict(samples=2, lr=0.3, sigma_start=1.0, sigma_end=0.05)
_SHORT = dict(budget_evals=120, ensemble=2, deterministic=True)

CELLS = {
    "quad:OurHVPA": RunConfig(task="quad", method="OurHVPA", seed=11, **_NEWTON, **_SHORT),
    "quad:OurG": RunConfig(task="quad", method="OurG", seed=12, **_FIRST, **_SHORT),
    "quad:FR22": RunConfig(task="quad", method="FR22", seed=13, **_FIRST, **_SHORT),
    "quad:FD": RunConfig(task="quad", method="FD", seed=14, **_FIRST, **_SHORT),
    "neg_gauss:OurHVPA": RunConfig(task="neg_gauss", method="OurHVPA", seed=15, **_NEWTON, **_SHORT),
    "neg_gauss:OurH": RunConfig(task="neg_gauss", method="OurH", seed=16, **_NEWTON, **_SHORT),
    "neg_gauss:OurHVP": RunConfig(task="neg_gauss", method="OurHVP", seed=18, **_NEWTON, **_SHORT),
    "neg_gauss:OurG": RunConfig(task="neg_gauss", method="OurG", seed=17, **_FIRST, **_SHORT),
    "texture16:OurG": RunConfig(task="texture16", method="OurG", samples=1, lr=0.05, sigma_start=0.3,
                                sigma_end=0.01, budget_evals=1100, ensemble=1, seed=21,
                                deterministic=True),
    "texture16:OurHVPA": RunConfig(task="texture16", method="OurHVPA", samples=4, trust_region=4.0,
                                   ls_iters=3, ls_tol=1e-3, recompute=5, sigma_start=0.3,
                                   sigma_end=0.01, budget_evals=300, ensemble=1, seed=22,
                                   deterministic=True),
    "box10:OurHVPA": RunConfig(task="box10", method="OurHVPA", samples=4, trust_region=0.3,
                               ls_iters=3, sigma_start=0.2, sigma_end=0.01, budget_evals=300,
                               ensemble=2, seed=23, deterministic=True),
    "box10:FD": RunConfig(task="box10", method="FD", lr=0.01, budget_evals=300, ensemble=2, seed=25,
                          deterministic=True),
    "phong:OurH": RunConfig(task="phong", method="OurH", samples=2, trust_region=1.0, ls_iters=3,
                            sigma_start=0.3, sigma_end=0.01, budget_evals=600, ensemble=1,
                            seed=24, deterministic=True),
}


def records(cfg: RunConfig) -> list[list[list]]:
    """Per run, the (iteration, evals, loss, param_error) of every record."""
    return [[[r.iteration, r.evals, r.loss, r.param_error] for r in trace.records]
            for trace in run_ensemble(cfg).traces]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_records_equal_golden(cell):
    golden = json.loads(GOLDEN.read_text())[cell]
    assert records(CELLS[cell]) == golden


def _max_rel(old: list, new: list, column: int) -> float:
    pairs = [(a[column], b[column]) for run_a, run_b in zip(old, new) for a, b in zip(run_a, run_b)]
    return max((abs(b - a) / abs(a) if a else abs(b - a) for a, b in pairs), default=0.0)


def _describe_change(old: list | None, new: list) -> str:
    """Either "identical", or whether the (iteration, evals) pairs match and how far values moved."""
    if old is None:
        return "new cell"
    if old == new:
        return "identical"
    keys = [[r[:2] for r in run] for run in old] == [[r[:2] for r in run] for run in new]
    return (f"(iteration, evals) pairs {'all match' if keys else 'DIFFER'}; max relative "
            f"difference: loss {_max_rel(old, new, 2):.3g}, param_error {_max_rel(old, new, 3):.3g}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or compare the golden records.")
    parser.add_argument("cells", nargs="*", metavar="CELL",
                        help="cells to rewrite or compare (default: all)")
    parser.add_argument("--diff", action="store_true", help="compare only; write nothing")
    args = parser.parse_args()
    unknown = sorted(set(args.cells) - set(CELLS))
    if unknown:
        parser.error(f"unknown cells {unknown}; expected some of {sorted(CELLS)}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    fresh = {name: records(CELLS[name]) for name in args.cells or sorted(CELLS)}
    if args.diff:
        changes = {name: _describe_change(golden.get(name), new) for name, new in fresh.items()}
        for name, change in changes.items():
            print(f"{name}: {change}")
        sys.exit(any(change != "identical" for change in changes.values()))
    else:
        GOLDEN.write_text(json.dumps({**golden, **fresh}, indent=0, sort_keys=True) + "\n")
        print(f"wrote {', '.join(fresh)} to {GOLDEN}")
