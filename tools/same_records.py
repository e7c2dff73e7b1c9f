"""Seeded records of two checkouts compared in one interpreter.

Usage, from anywhere:

    python3 tools/same_records.py PARENT CHANGE --workload lowdim --seeds 1 7

Loads each checkout's ``src/smoothdiff`` under a package name of its own,
so both run in this one process; the package imports only relatively.
For each seed, takes the cells of ``seeded(workload, seed)`` from the
change's ``bench/workloads.py``, builds each side's ``RunConfig`` from
the cell's fields with ``deterministic=True``, runs both ensembles and
compares their traces record by record.  Prints per cell ``identical``,
or the first run and record that differ with both sides' values, and
exits 1 when any cell differs.

Records are compared by value, field by field, with NaN equal to NaN:
the two packages' ``TraceRecord`` classes are distinct, so ``==`` between
their records is always False.  Standard library only, apart from what
the loaded packages import; nothing in either checkout is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from dataclasses import asdict, astuple
from itertools import zip_longest
from pathlib import Path
from types import ModuleType

SIDES = ("parent", "change")


def _exec_module(path: Path, name: str, package_dir: Path | None = None) -> ModuleType:
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(package_dir: Path, name: str) -> ModuleType:
    """The ``smoothdiff`` package in ``package_dir``, imported as ``name``."""
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


def compare_cell(packages: tuple[ModuleType, ModuleType], cell) -> str:
    """``identical``, or the first difference of the cell's deterministic records on both sides."""
    traces = []
    for package in packages:
        cfg = package.harness.RunConfig(**{**asdict(cell), "deterministic": True})
        traces.append(package.harness.run_ensemble(cfg).traces)
    return first_difference(*traces) or "identical"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    packages = tuple(load_package(c / "src" / "smoothdiff", f"_same_records_{side}")
                     for side, c in zip(SIDES, checkouts))
    workloads = load_workloads(checkouts[1] / "bench" / "workloads.py", packages[1])
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    differ = False
    for seed in args.seeds:
        print(f"== {args.workload} seed {seed}", flush=True)
        for cell in workloads.seeded(args.workload, seed):
            verdict = compare_cell(packages, cell)
            differ |= verdict != "identical"
            print(f"{cell.task}:{cell.method}: {verdict}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
