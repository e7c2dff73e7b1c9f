"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

Usage, from anywhere:

    python3 tools/ab_pairs.py PARENT CHANGE --workload lowdim --seeds 1 7 --pairs 10 --seconds 20

For each seed, runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` in the root of each checkout, ``--pairs`` times,
and alternates which side runs first: the parent in even pairs, the
change in odd ones.  The last line of a run's standard output is its
JSON result, which is echoed as it arrives.  After each seed, prints per
metric each side's median and quartiles, the change of the medians and
the pairs in which the change read better, ties counting for neither; a
metric's better direction comes from the change's ``BENCHMARK.json``
(lower when it is not listed there).  Then, for each end-to-end metric
that file gives a bound, prints one verdict: ``within bound`` when the
change's median is worse than the parent's by at most bound times the
parent's median in magnitude, ``WORSE than bound`` when by more, and
``unresolved`` when the parent's interquartile range exceeds that
allowance, unless every change run reads better than every parent
run.  Any run whose result reads ``correct: false`` or ``failed > 0``,
or that printed no result, is flagged, and the exit code is then 1.
Standard library only; nothing in either checkout is written but what
``bench/run.py`` writes itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its JSON result, or a failed stand-in."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"correct": False, "failed": None, "metrics": {}, "error": tail[0]}


def _benchmark_spec(checkout: Path) -> dict:
    path = checkout / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def better_directions(checkout: Path) -> dict[str, str]:
    """Each metric's better direction, "lower" or "higher", from the checkout's BENCHMARK.json."""
    spec = _benchmark_spec(checkout)
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def end_to_end_bounds(checkout: Path) -> dict[str, tuple[str, float]]:
    """(better direction, bound) of each end-to-end metric the checkout's BENCHMARK.json bounds."""
    return {m["name"]: (m["better"], m["bound"])
            for m in _benchmark_spec(checkout).get("end_to_end", []) if "bound" in m}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median and the inclusive quartiles (numpy's linear percentiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def flagged(result: dict) -> str | None:
    """Why a run's result is suspect, or None when it reads correct with 0 failed."""
    if "error" in result:
        return f"no result ({result['error']})"
    if result.get("correct") is not True or result.get("failed"):
        return f"correct: {result.get('correct')}, failed: {result.get('failed')}"
    return None


def _paired_values(pairs: list[tuple[dict, dict]], name: str) -> list[list[float]]:
    """[parent, change] values of metric ``name`` in the pairs where both sides report it."""
    return [[p[k]["metrics"][name]["value"] for k in range(2)] for p in pairs
            if all(name in p[k].get("metrics", {}) for k in range(2))]


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """Lines summarizing (parent, change) result pairs: per metric, then every flagged run."""
    names = []
    for pair in pairs:
        for result in pair:
            names += [name for name in result.get("metrics", {}) if name not in names]
    lines = []
    for name in names:
        values = _paired_values(pairs, name)
        if not values:
            continue
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (change - parent) > 0 for parent, change in values)
        (m0, a0, b0), (m1, a1, b1) = (_quartiles([v[k] for v in values]) for k in range(2))
        rel = f"{(m1 - m0) / abs(m0):+.1%}" if m0 else "n/a"
        lines.append(f"{name}: {m0:.6g} [{a0:.6g}, {b0:.6g}] -> {m1:.6g} [{a1:.6g}, {b1:.6g}] "
                     f"({rel}), change better in {wins} of {len(values)} pairs")
    for k, pair in enumerate(pairs):
        for side, result in zip(SIDES, pair):
            why = flagged(result)
            if why is not None:
                lines.append(f"FLAGGED: pair {k} {side}: {why}")
    return lines


def verdicts(pairs: list[tuple[dict, dict]], bounds: dict[str, tuple[str, float]]) -> list[str]:
    """One line per bounded metric that both sides report: its verdict against the bound."""
    lines = []
    for name, (better, bound) in bounds.items():
        values = _paired_values(pairs, name)
        if not values:
            continue
        parent, change = ([v[k] for v in values] for k in range(2))
        (m0, q1, q3), (m1, _, _) = _quartiles(parent), _quartiles(change)
        allowance = bound * abs(m0)
        if better == "lower":
            worse_by, beats_all = m1 - m0, max(change) < min(parent)
        else:
            worse_by, beats_all = m0 - m1, min(change) > max(parent)
        if q3 - q1 > allowance and not beats_all:
            verdict = "unresolved"
        elif worse_by > allowance:
            verdict = "WORSE than bound"
        else:
            verdict = "within bound"
        lines.append(f"{name}: {verdict} (bound {bound:g} allows {allowance:.6g}; medians "
                     f"{m0:.6g} -> {m1:.6g}, parent quartile spread {q3 - q1:.6g})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = (args.parent.resolve(), args.change.resolve())
    better = better_directions(checkouts[1])
    bounds = end_to_end_bounds(checkouts[1])
    any_flagged = False
    for seed in args.seeds:
        pairs = []
        for k in range(args.pairs):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            pair = [None, None]
            for side in order:
                pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
                print(f"seed {seed} pair {k} {SIDES[side]}: {json.dumps(pair[side])}", flush=True)
            pairs.append(tuple(pair))
        print(f"== {args.workload} seed {seed}, {args.pairs} pairs of {args.seconds:g} s: "
              f"parent median [quartiles] -> change")
        lines = summarize(pairs, better)
        print("\n".join(lines + verdicts(pairs, bounds)), flush=True)
        any_flagged |= any(line.startswith("FLAGGED") for line in lines)
    return 1 if any_flagged else 0


if __name__ == "__main__":
    sys.exit(main())
