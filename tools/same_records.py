"""Seeded records of two checkouts compared in one interpreter, or timed.

Usage, from anywhere:

    python3 tools/same_records.py PARENT CHANGE --workload lowdim --seeds 1 7
    python3 tools/same_records.py PARENT CHANGE --workload highdim --seeds 1 --rounds 60

Loads each checkout's ``src/smoothdiff`` under a package name of its own,
so both run in this one process; the package imports only relatively.
For each seed, takes the cells of ``seeded(workload, seed)`` from the
change's ``bench/workloads.py`` and builds each side's ``RunConfig`` from
the cell's fields with ``deterministic=True``, so both sides do the same
work.

Without ``--rounds``, runs both ensembles and compares their traces
record by record.  Prints per cell ``identical``, or the first run and
record that differ with both sides' values, and exits 1 when any cell
differs.  Records are compared by value, field by field, with NaN equal
to NaN: the two packages' ``TraceRecord`` classes are distinct, so ``==``
between their records is always False.

With ``--rounds N``, times each cell instead.  The parent checkout is
loaded a second time as a control, which runs the same code from a third
package.  After one warm-up run per side, each round runs the cell's
runs one by one (run r as ``ensemble=1`` with the cell's seed + r, which
replays run r of the ensemble), each run from the three packages in
turn, in an order that cycles through all six from round to round, so
that every package runs in every slot equally often.  A side's time in a
round is the sum of its runs' wall times.  Prints per
cell the median and quartiles of the per-round ratios change / parent
and control / parent, and in how many rounds each read faster than the
parent.  After a seed's cells, one more line reports the whole
workload the same way: a side's time in a round is then the sum of its
times for every cell in that round.  The control shows how far apart
two copies of the same code read in this interpreter; a change's ratio
means something only beyond that.

Standard library only, apart from what the loaded packages import;
nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from dataclasses import asdict, astuple
from itertools import permutations, zip_longest
from pathlib import Path
from types import ModuleType

SIDES = ("parent", "change")
# the parent checkout's package loaded once more, timed against the parent
CONTROL = "control"


def _exec_module(path: Path, name: str, package_dir: Path | None = None) -> ModuleType:
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(package_dir: Path, name: str) -> ModuleType:
    """The ``smoothdiff`` package in ``package_dir``, imported as ``name``.

    A package loaded as ``name`` before is dropped from ``sys.modules`` first,
    with its submodules: the new ``__init__`` would find them there and
    import them without binding them as its attributes.
    """
    for loaded in [key for key in sys.modules if key == name or key.startswith(f"{name}.")]:
        del sys.modules[loaded]
    return _exec_module(package_dir / "__init__.py", name, package_dir)


def load_workloads(workloads_py: Path, package: ModuleType) -> ModuleType:
    """A ``bench/workloads.py``, its ``smoothdiff.harness`` import resolved to ``package``'s."""
    names = ("smoothdiff", "smoothdiff.harness")
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules.update(zip(names, (package, package.harness)))
    try:
        return _exec_module(workloads_py, f"{package.__name__}_workloads")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN


def _same_values(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))


def first_difference(parent: list, change: list) -> str | None:
    """Where two ensembles' traces first differ, with both values, or None when they do not."""
    if len(parent) != len(change):
        return f"{len(parent)} runs in the parent, {len(change)} in the change"
    for k, (a, b) in enumerate(zip(parent, change)):
        for j, (ra, rb) in enumerate(zip_longest(a.records, b.records)):
            if ra is None or rb is None or not _same_values(astuple(ra), astuple(rb)):
                return f"run {k} record {j} differs: parent {ra!r}, change {rb!r}"
        if (a.aborted, a.note) != (b.aborted, b.note):
            return (f"run {k} ends differently: parent aborted={a.aborted} note={a.note!r}, "
                    f"change aborted={b.aborted} note={b.note!r}")
    return None


def _config(package: ModuleType, cell, **changes):
    """The package's deterministic ``RunConfig`` of the cell, with ``changes`` applied."""
    return package.harness.RunConfig(**{**asdict(cell), "deterministic": True, **changes})


def compare_cell(packages: tuple[ModuleType, ModuleType], cell) -> str:
    """``identical``, or the first difference of the cell's deterministic records on both sides."""
    traces = [package.harness.run_ensemble(_config(package, cell)).traces for package in packages]
    return first_difference(*traces) or "identical"


def time_cell(packages: tuple[ModuleType, ...], cell, rounds: int) -> list[list[float]]:
    """Per package, the cell's wall time in each of ``rounds`` rounds.

    Round k runs each run from the packages in the k-th of their orders,
    cycled.  One warm-up run per package comes first.
    """
    runs = [[_config(package, cell, seed=cell.seed + r, ensemble=1) for r in range(cell.ensemble)]
            for package in packages]
    for package in packages:
        package.harness.run_ensemble(_config(package, cell, ensemble=1, budget_evals=2))
    times = [[] for _ in packages]
    orders = list(permutations(range(len(packages))))
    for k in range(rounds):
        spent = [0.0] * len(packages)
        order = orders[k % len(orders)]
        for r in range(cell.ensemble):
            for side in order:
                t0 = time.perf_counter()
                packages[side].harness.run_ensemble(runs[side][r])
                spent[side] += time.perf_counter() - t0
        for side, seconds in enumerate(spent):
            times[side].append(seconds)
    return times


def _ratio_summary(name: str, ratios: list[float]) -> str:
    if len(ratios) == 1:
        q1 = median = q3 = ratios[0]
    else:
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    faster = sum(ratio < 1.0 for ratio in ratios)
    return f"{name} / parent {median:.3f} [{q1:.3f}, {q3:.3f}], faster in {faster} of {len(ratios)} rounds"


def timing_line(cell_name: str, parent: list[float], change: list[float], control: list[float]) -> str:
    """One cell's report: the per-round time ratios of the change and the control to the parent."""
    return "; ".join([f"{cell_name}: parent {statistics.median(parent) * 1e3:.1f} ms per round",
                      *(_ratio_summary(name, [t / p for t, p in zip(times, parent)])
                        for name, times in (("change", change), (CONTROL, control)))])


def workload_times(cells: list[list[list[float]]]) -> list[list[float]]:
    """Per package, its summed time over ``cells`` in each round, from each cell's ``time_cell``."""
    return [[sum(times) for times in zip(*(cell[side] for cell in cells))] for side in range(len(cells[0]))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, default=None,
                        help="time each cell over this many rounds instead of comparing records")
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    checkouts = (args.parent.resolve(), args.change.resolve())
    packages = tuple(load_package(c / "src" / "smoothdiff", f"_same_records_{side}")
                     for side, c in zip(SIDES, checkouts))
    workloads = load_workloads(checkouts[1] / "bench" / "workloads.py", packages[1])
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    if args.rounds is not None:
        packages += (load_package(checkouts[0] / "src" / "smoothdiff", f"_same_records_{CONTROL}"),)
    differ = False
    for seed in args.seeds:
        print(f"== {args.workload} seed {seed}", flush=True)
        timed = []
        for cell in workloads.seeded(args.workload, seed):
            name = f"{cell.task}:{cell.method}"
            if args.rounds is not None:
                timed.append(time_cell(packages, cell, args.rounds))
                print(timing_line(name, *timed[-1]), flush=True)
                continue
            verdict = compare_cell(packages, cell)
            differ |= verdict != "identical"
            print(f"{name}: {verdict}", flush=True)
        if timed:
            print(timing_line(f"{args.workload} seed {seed}, all cells", *workload_times(timed)), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
