"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

Usage, from anywhere:

    python3 tools/ab_pairs.py PARENT CHANGE --workload lowdim --seeds 1 7 --pairs 10 --seconds 20
    python3 tools/ab_pairs.py PARENT CHANGE --control PARENT_COPY --workload render --seeds 1 --pairs 10 --seconds 20
    python3 tools/ab_pairs.py PARENT CHANGE --claim us_per_eval --workload lowdim --seeds 1 7 --pairs 10 --seconds 20

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
run.

``--claim METRIC`` names a metric the change claims to improve.  After
each side's verdicts follows one line for it: ``claim met`` when that
side reads better in at least nine tenths of all pairs run, ties
counting for neither, and its median is better than the parent's by
more than the parent's interquartile range; ``claim not met`` otherwise.

``--control DIR`` names a third checkout holding the parent's code at
another path.  Each pair then runs parent, change and control, in an
order that rotates by one side from pair to pair, so that each side
runs first, second and third equally often over three pairs.  After the
change's summary and verdicts, the control's follow, against the same
parent runs.  Two checkouts of the same code can read apart by a
per-process effect alone; a change's reading means something only
beyond the control's.

Then, for each seed, a set-up probe: ``--pairs`` times, in the order
the pairs take, each checkout's own set-up code
(the ``_SETUP_CODE`` string of its ``bench/run.py``, read with ``ast``,
not imported) runs in a fresh interpreter on the tasks of the
workload's cells, taken from the report the seed's runs wrote to
``.bench_out/``.  It prints the raw set-up seconds and the host
reference time of that interpreter the way it prints the pairs, without
verdicts: ``setup_s`` is set-up scaled by the reference, and the two
readings show whether a move in ``setup_s`` came from the set-up or
from the reference.

Any run whose result reads ``correct: false`` or ``failed > 0``, and any
run or probe that printed no result, is flagged, and the exit code is
then 1.  Standard library only; nothing in either checkout is written
but what ``bench/run.py`` and its set-up code write themselves.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change", "control")


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
        return _no_result(proc)


def _no_result(proc: subprocess.CompletedProcess) -> dict:
    """A failed stand-in for a process that printed no result, naming its last error line."""
    tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
    return {"correct": False, "failed": None, "metrics": {}, "error": tail[0]}


def setup_code(run_py: str) -> str:
    """The ``_SETUP_CODE`` string assigned at the top level of a ``bench/run.py`` text."""
    for node in ast.parse(run_py).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                and [getattr(t, "id", None) for t in node.targets] == ["_SETUP_CODE"]
                and isinstance(node.value.value, str)):
            return node.value.value
    raise ValueError("bench/run.py assigns no _SETUP_CODE string")


def report_tasks(report: dict) -> list[str]:
    """The sorted task names of a ``bench/run.py`` report's cells, as its set-up takes them."""
    return sorted({cell["config"]["task"] for cell in report["cells"]})


def probe_result(stdout: str) -> dict:
    """A set-up probe's output as a run result: raw set-up and host reference seconds."""
    setup, ref = map(float, stdout.split()[-2:])
    return {"correct": True, "failed": 0,
            "metrics": {"setup_raw_s": {"value": setup, "unit": "s"},
                        "host_reference_s": {"value": ref, "unit": "s"}}}


def probe_once(checkout: Path, code: str, tasks: list[str]) -> dict:
    """One fresh interpreter running ``code`` on ``tasks`` as ``bench/run.py`` runs it."""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(checkout / "src"), str(checkout / "bench"), *tasks],
        cwd=checkout, capture_output=True, text=True)
    try:
        return probe_result(proc.stdout)
    except ValueError:
        return _no_result(proc)


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


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              side: str = "change") -> list[str]:
    """Lines summarizing (parent, ``side``) result pairs: per metric, then every flagged run."""
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
                     f"({rel}), {side} better in {wins} of {len(values)} pairs")
    for k, pair in enumerate(pairs):
        for name, result in zip((SIDES[0], side), pair):
            why = flagged(result)
            if why is not None:
                lines.append(f"FLAGGED: pair {k} {name}: {why}")
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


def claim_verdict(pairs: list[tuple[dict, dict]], name: str, better: str, side: str = "change") -> str:
    """Whether (parent, ``side``) pairs meet a claimed gain in metric ``name``.

    It is met when ``side`` reads better in at least nine tenths of all
    pairs, ties and pairs that lack the metric counting for neither, and
    its median is better than the parent's by more than the parent's
    interquartile range.
    """
    values = _paired_values(pairs, name)
    if not values:
        return f"{name}: claim not met (no pair reports it)"
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (change - parent) > 0 for parent, change in values)
    (m0, q1, q3), (m1, _, _) = (_quartiles([v[k] for v in values]) for k in range(2))
    gain = sign * (m1 - m0)
    met = 10 * wins >= 9 * len(pairs) and gain > q3 - q1
    return (f"{name}: {'claim met' if met else 'claim not met'} ({side} better in {wins} of "
            f"{len(pairs)} pairs; median gain {gain:.6g} against parent quartile spread {q3 - q1:.6g})")


def alternate(pairs: int, label: str, run: Callable[[int], dict],
              sides: int = 2) -> list[tuple[dict, ...]]:
    """``pairs`` results of ``run(side)`` per side, in ``SIDES`` order.

    Pair k runs the sides from side k mod ``sides`` on, wrapping round: of
    two sides, the parent first in even pairs.
    """
    out = []
    for k in range(pairs):
        pair = [None] * sides
        for side in [(k + j) % sides for j in range(sides)]:
            pair[side] = run(side)
            print(f"{label} {k} {SIDES[side]}: {json.dumps(pair[side])}", flush=True)
        out.append(tuple(pair))
    return out


def against_parent(results: list[tuple[dict, ...]], better: dict[str, str],
                   bounds: dict[str, tuple[str, float]], header: str,
                   claim: str | None = None) -> list[str]:
    """Per side after the parent, a ``header`` line naming it, then its summary and verdicts.

    With ``claim``, a metric's name, each side's block ends with its
    ``claim_verdict``.
    """
    lines = []
    for side in range(1, len(results[0])):
        pairs = [(result[0], result[side]) for result in results]
        lines += [f"{header}{SIDES[side]}", *summarize(pairs, better, SIDES[side]),
                  *verdicts(pairs, bounds)]
        if claim is not None:
            lines.append(claim_verdict(pairs, claim, better.get(claim, "lower"), SIDES[side]))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--control", type=Path, default=None,
                        help="root of a second checkout of the parent's code, run in every pair")
    parser.add_argument("--claim", default=None, metavar="METRIC",
                        help="a metric the change claims to improve, judged per side and seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = tuple(c.resolve() for c in (args.parent, args.change, args.control) if c is not None)
    sides = len(checkouts)
    better = better_directions(checkouts[1])
    bounds = end_to_end_bounds(checkouts[1])
    codes = [setup_code((c / "bench" / "run.py").read_text()) for c in checkouts]
    any_flagged = False
    for seed in args.seeds:
        pairs = alternate(args.pairs, f"seed {seed} pair",
                          lambda side: run_once(checkouts[side], args.workload, seed, args.seconds),
                          sides)
        lines = against_parent(pairs, better, bounds, f"== {args.workload} seed {seed}, "
                               f"{args.pairs} pairs of {args.seconds:g} s: "
                               f"parent median [quartiles] -> ", args.claim)
        print("\n".join(lines), flush=True)
        report = Path(".bench_out") / f"BENCH_{args.workload}_seed{seed}_trace0.json"
        tasks = [report_tasks(json.loads((c / report).read_text())) for c in checkouts]
        probes = alternate(args.pairs, f"seed {seed} set-up probe",
                           lambda side: probe_once(checkouts[side], codes[side], tasks[side]), sides)
        probe_lines = against_parent(probes, better, {}, f"== {args.workload} seed {seed}, "
                                     f"{args.pairs} set-up probes of {', '.join(tasks[1])}: "
                                     f"parent median [quartiles] -> ")
        print("\n".join(probe_lines), flush=True)
        any_flagged |= any(line.startswith("FLAGGED") for line in lines + probe_lines)
    return 1 if any_flagged else 0


if __name__ == "__main__":
    sys.exit(main())
