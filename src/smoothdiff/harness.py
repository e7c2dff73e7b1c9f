"""Ensemble benchmark runner, threshold metrics, and trace export.

A run config names a task and a method; an ensemble executes it from
``ensemble`` starting points with seeds seed+0 .. seed+k-1 and reports,
per error-reduction threshold, the median first-crossing time and
evaluation count.  Traces export to CSV or JSON and reload losslessly.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import asdict, astuple, dataclass
from typing import Callable, Iterable, Literal, NamedTuple, get_args, get_type_hints

import numpy as np

# the gradient estimators are also looked up by name (see _Method)
from .estimators import (
    EstimationError,
    EstimatorConfig,
    GradientEstimate,
    Objective,
    SamplingMode,
    _all_finite,
    _check_direction,
    estimate_gradient,
    estimate_gradient_fd,
    estimate_gradient_fr22,
    estimate_hessian,
    estimate_hvp,
    evals_per_estimate,
)
from .kernels import KernelSpec
from .optimizers import (
    LocalModel,
    SigmaSchedule,
    TrustRegion,
    gd_adam_run,
    newton_cg_run,
    psd_modify,
)
from .samplers import RngStream
from .tasks import Task, make_task, task_builder
from .trace import Budget, ConvergenceTrace, NonFiniteStateError, TraceRecord

# the central-difference step of the FD baseline
FD_STEP = 1e-6

THRESHOLD_FRACTIONS = (0.9, 0.99, 0.999)
# the record fields a threshold can be measured on
THRESHOLD_METRICS = ("loss", "param_error")

# each column of an exported trace record with its type, in TraceRecord field order
TRACE_COLUMNS = {"wall_time_s": float, "iter": int, "evals": int, "loss": float, "param_error": float}
CSV_HEADER = ",".join(["run", *TRACE_COLUMNS])


class _Method(NamedTuple):
    """A method's derivative estimators and optimizer.

    ``gradient`` names a gradient estimator of this module, looked up when
    a run starts so that a patched attribute takes effect; ``mode`` is its
    sampling mode, None for central differences.  ``model`` is None for
    Adam; otherwise the method runs Newton-CG with ``estimate_gradient`` on
    the local model ``sampled_model`` builds of that kind: "batch" HVPs
    are contracted from the gradient's evaluated batch, "hessian" ones are
    products with the PSD-modified Hessian estimated in ``mode``.
    """

    gradient: str
    mode: SamplingMode | None
    model: Literal["batch", "hessian"] | None = None


_PER, _AGG = SamplingMode.PER_ELEMENT, SamplingMode.AGGREGATE
_METHODS = {
    "FD": _Method("estimate_gradient_fd", None),
    "FR22": _Method("estimate_gradient_fr22", _PER),
    "OurG": _Method("estimate_gradient", _PER),
    "OurH": _Method("estimate_gradient", _PER, "hessian"),
    "OurHVP": _Method("estimate_gradient", _PER, "batch"),
    "OurHVPA": _Method("estimate_gradient", _AGG, "batch"),
}
METHODS = tuple(_METHODS)
_NEWTON_KEYS = ("trust_region", "ls_iters", "ls_tol", "recompute")


def _method(name: str) -> _Method:
    if name not in _METHODS:
        raise ValueError(f"unknown method {name!r}; expected one of {METHODS}")
    return _METHODS[name]


def foreign_keys(method: str) -> tuple[str, ...]:
    """The ``RunConfig`` keys ``method`` rejects: the other optimizer's settings."""
    return _NEWTON_KEYS if _method(method).model is None else ("lr",)


@dataclass(frozen=True)
class RunConfig:
    """One benchmark cell: task, method, and every knob either needs.

    First-order methods take a learning rate; second-order ones take a
    trust region plus the inner-loop controls.  Mixing them up is a config
    error, caught here rather than deep in a run, and so are an unknown
    task name (checked without building the task), a plateau start on a
    task without plateau points and a numeric setting no run can use: a
    float field must be finite and > 0 when set, an int field an integer,
    not a bool, and at least 1 except ``seed`` (see ``CONFIG_TYPES``).

    ``ls_tol`` must also be below 1.  ``threads`` accepts only 1, as
    ensembles run serially, and ``recompute`` only ``ls_iters`` (1 when
    unset) or more, as Newton-CG no longer restarts CG; both have no effect
    and stay only because the benchmark's cell configs set them.
    """

    task: str
    method: str
    samples: int = 1
    sigma_start: float = 1.0
    sigma_end: float = 0.01
    lr: float | None = None
    trust_region: float | None = None
    ls_iters: int | None = None
    ls_tol: float | None = None
    recompute: int | None = None
    seed: int = 0
    budget_seconds: float | None = None
    budget_evals: int | None = None
    ensemble: int = 20
    init: str = "default"
    threads: int = 1
    deterministic: bool = False

    def __post_init__(self):
        newton = _method(self.method).model is not None
        build = task_builder(self.task)
        if self.budget_seconds is None and self.budget_evals is None:
            raise ValueError("config needs budget_seconds or budget_evals")
        if self.init not in ("default", "plateau"):
            raise ValueError(f"init must be 'default' or 'plateau', got {self.init!r}")
        for key in foreign_keys(self.method):
            if getattr(self, key) is not None:
                order = "second" if newton else "first"
                raise ValueError(f"{key} is not valid for {order}-order method {self.method}")
        required = "trust_region" if newton else "lr"
        if getattr(self, required) is None:
            raise ValueError(f"method {self.method} requires {required}")
        for key, kind in CONFIG_TYPES.items():
            value = getattr(self, key)
            if value is None:
                continue
            if kind is float and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")
            if kind is not int:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))  # a numpy integer becomes a plain int
            if value < 1 and key != "seed":
                raise ValueError(f"{key} must be >= 1, got {value}")
        ls_iters, ls_tol = self.cg_settings()
        if not ls_tol < 1:
            raise ValueError(f"ls_tol must be finite and in (0, 1), got {ls_tol}")
        if self.recompute is not None and self.recompute < ls_iters:
            raise ValueError(f"recompute {self.recompute} < ls_iters: Newton-CG no longer restarts")
        if self.threads != 1:
            raise ValueError(f"threads must be 1: ensembles run serially, got {self.threads}")
        if self.init == "plateau" and not build().plateau_points:
            raise ValueError(f"task {self.task} has no plateau starting points")

    def cg_settings(self) -> tuple[int, float]:
        """``ls_iters`` and ``ls_tol``, with 1 and 1e-3 for unset keys."""
        return (1 if self.ls_iters is None else self.ls_iters,
                1e-3 if self.ls_tol is None else self.ls_tol)


# each RunConfig field's type, with ``X | None`` read as X
CONFIG_TYPES = {key: next(t for t in get_args(hint) or (hint,) if t is not type(None))
                for key, hint in get_type_hints(RunConfig).items()}


@dataclass(frozen=True)
class ThresholdStat:
    reached_runs: int
    median_time: float | None
    median_evals: float | None


@dataclass
class EnsembleResult:
    config: RunConfig
    traces: list[ConvergenceTrace]

    @property
    def thresholds(self) -> dict[str, dict[float, ThresholdStat]]:
        """Each metric's threshold statistics over ``traces``, computed when read."""
        return {metric: compute_thresholds(self.traces, metric) for metric in THRESHOLD_METRICS}


# ---------------------------------------------------------------------------
# method dispatch
# ---------------------------------------------------------------------------

def _gradient_fn(method: _Method, cfg: RunConfig, obj: Objective,
                 rng: RngStream) -> Callable[[np.ndarray, float], GradientEstimate]:
    """``method``'s gradient estimator as grad_fn(theta, sigma), built once per run.

    Fixed for the run: the estimator, looked up here, the dimension, the
    pairs per estimate and the sampling mode (or the central-difference
    step ``FD_STEP``).  Per call: the bandwidth, whose ``KernelSpec`` is
    built anew.
    """
    estimate = globals()[method.gradient]
    if method.mode is None:
        return lambda theta, sigma: estimate(obj, theta, FD_STEP)
    dim, samples, mode = obj.dim, cfg.samples, method.mode
    return lambda theta, sigma: estimate(
        obj, theta, EstimatorConfig(KernelSpec(sigma, dim), samples, mode), rng)


def sampled_model(obj: Objective, samples: int, rng: RngStream, mode: SamplingMode,
                  model: Literal["batch", "hessian"]) -> LocalModel:
    """Newton-CG's local model backed by the Monte Carlo estimators, built once per run.

    Every call at (theta, sigma) draws and evaluates one batch of offsets
    in ``mode`` through ``estimate_gradient``.  For a "batch" model the
    operator it returns contracts that batch and spends no evaluation: CG
    runs on one sampled quadratic model, the subsampled-Newton model of
    Byrd, Chin, Neveitt & Nocedal (2011) and Roosta-Khorasani & Mahoney
    (2019).  For a "hessian" model, each call first estimates the Hessian
    in ``mode`` (per-element for ``OurH``), and the operator multiplies by
    its PSD modification; a Hessian estimate that is not finite raises
    ``EstimationError`` naming theta, before ``psd_modify`` sees it.

    Fixed for the run: the dimension, the pairs per estimate, the mode
    and the model kind.  Per call: the bandwidth, whose ``KernelSpec`` is
    built anew, and the estimators and ``psd_modify``, looked up when
    called, so that a patched attribute takes effect.
    """
    dim = obj.dim
    if model == "batch":
        def local(theta: np.ndarray, sigma: float):
            est = estimate_gradient(obj, theta, EstimatorConfig(KernelSpec(sigma, dim), samples, mode), rng,
                                    keep_batch=True)
            return est, est.batch.hvp
    else:
        def local(theta: np.ndarray, sigma: float):
            cfg = EstimatorConfig(KernelSpec(sigma, dim), samples, mode)
            h = estimate_hessian(obj, theta, cfg, rng).h
            if not _all_finite(h):
                raise EstimationError(f"non-finite Hessian estimate at {theta}", point=np.array(theta))
            h = psd_modify(h)
            return estimate_gradient(obj, theta, cfg, rng), lambda v: h @ v

    return local


def _single_run(cfg: RunConfig, task: Task, run_index: int) -> ConvergenceTrace:
    seed_k = cfg.seed + run_index
    init_rng = RngStream(seed_k, stream_id=0)
    est_rng = RngStream(seed_k, stream_id=1)
    if cfg.init == "plateau":
        theta0 = task.plateau_points[run_index % len(task.plateau_points)].copy()
    else:
        theta0 = task.init_sampler(init_rng.generator)
    obj = task.objective()
    budget = Budget(seconds=cfg.budget_seconds, evals=cfg.budget_evals)
    schedule = SigmaSchedule(cfg.sigma_start, cfg.sigma_end)
    method = _METHODS[cfg.method]

    try:
        if method.model is None:
            return gd_adam_run(obj, _gradient_fn(method, cfg, obj, est_rng), theta0, schedule,
                               cfg.lr, budget, param_error_fn=task.param_error,
                               deterministic_clock=cfg.deterministic)
        model = sampled_model(obj, cfg.samples, est_rng, method.mode, method.model)
        return newton_cg_run(obj, model, theta0, schedule,
                             TrustRegion(cfg.trust_region), *cfg.cg_settings(),
                             budget, param_error_fn=task.param_error,
                             deterministic_clock=cfg.deterministic)
    except NonFiniteStateError as err:
        return err.trace


def run_ensemble(cfg: RunConfig) -> EnsembleResult:
    """Execute an ensemble; its threshold statistics are computed when read.

    A run that aborts on non-finite state, a non-finite objective value
    inside an estimate included, keeps its partial trace and its note and
    simply never reaches the remaining thresholds; the other runs go on.
    """
    task = make_task(cfg.task)
    return EnsembleResult(config=cfg, traces=[_single_run(cfg, task, k) for k in range(cfg.ensemble)])


# ---------------------------------------------------------------------------
# threshold metrics
# ---------------------------------------------------------------------------

def _check_metric(metric: str) -> None:
    if metric not in THRESHOLD_METRICS:
        raise ValueError(f"unknown metric {metric!r}: expected 'loss' or 'param_error'")


def first_crossings(trace: ConvergenceTrace, metric: str) -> dict[float, tuple[float, int] | None]:
    """First (time, evals) at which each error-reduction fraction is met.

    Reduction is measured against the metric's first value in the run; a
    run whose first value is not finite and > 0 crosses no threshold.  A
    metric not in ``THRESHOLD_METRICS`` is a ValueError.
    """
    _check_metric(metric)
    values = [getattr(rec, metric) for rec in trace.records]
    initial = values[0] if values else math.nan
    if not (math.isfinite(initial) and initial > 0):
        return {frac: None for frac in THRESHOLD_FRACTIONS}
    out: dict[float, tuple[float, int] | None] = {}
    for frac in THRESHOLD_FRACTIONS:
        target = (1.0 - frac) * initial
        hit = None
        for rec, val in zip(trace.records, values):
            if math.isfinite(val) and val <= target:
                hit = (rec.wall_time, rec.evals)
                break
        out[frac] = hit
    return out


def compute_thresholds(traces: list[ConvergenceTrace], metric: str) -> dict[float, ThresholdStat]:
    """Ensemble medians of per-run first crossings.

    A threshold counts as reached only when at least half the ensemble
    crossed it; otherwise the stat carries null medians, mirroring an
    empty cell in a results table.
    """
    _check_metric(metric)
    per_run = [first_crossings(t, metric) for t in traces]
    out: dict[float, ThresholdStat] = {}
    for frac in THRESHOLD_FRACTIONS:
        hits = [pr[frac] for pr in per_run if pr[frac] is not None]
        if len(hits) * 2 >= len(traces) and hits:
            out[frac] = ThresholdStat(
                reached_runs=len(hits),
                median_time=float(statistics.median(h[0] for h in hits)),
                median_evals=float(statistics.median(h[1] for h in hits)),
            )
        else:
            out[frac] = ThresholdStat(reached_runs=len(hits), median_time=None, median_evals=None)
    return out


# ---------------------------------------------------------------------------
# variance analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceRow:
    mode: str
    order: str
    budget_evals: int
    variance: float


@dataclass
class VarianceReport:
    rows: list[VarianceRow]
    slopes: dict[tuple[str, str], float]

    def format_table(self) -> str:
        lines = ["mode,order,budget_evals,variance"]
        for row in self.rows:
            lines.append(f"{row.mode},{row.order},{row.budget_evals},{row.variance!r}")
        lines.append("")
        for cell in sorted({(row.mode, row.order) for row in self.rows}):
            if cell in self.slopes:
                lines.append(f"slope {cell[0]} {cell[1]}: {self.slopes[cell]:.3f}")
            elif sum((row.mode, row.order) == cell for row in self.rows) >= 2:
                lines.append(f"slope {cell[0]} {cell[1]}: none, a variance is 0 or not finite")
        return "\n".join(lines)


def _pairs_for_budget(mode: SamplingMode, order: str, budget: int, dim: int) -> int:
    elements = dim * (dim + 1) // 2 if order == "H" else dim
    return max(1, budget // evals_per_estimate(mode, elements, 1))


def variance_report(
    task: Task,
    theta: np.ndarray,
    modes: Iterable[SamplingMode],
    budgets: Iterable[int],
    *,
    orders: Iterable[str] = ("G", "H", "HVP"),
    reps: int = 100,
    sigma: float = 1.0,
    seed: int = 0,
    direction: np.ndarray | None = None,
) -> VarianceReport:
    """Estimator variance per derivative order at equal evaluation budgets.

    For each (mode, order, budget) cell the estimator runs ``reps`` times
    with as many antithetic pairs as the budget buys; the reported
    variance sums the elementwise variances over repetitions.  Slopes of
    log-variance against log-budget come from a least-squares fit, for
    each cell whose variances are all finite and > 0; other cells have no
    slope.  ``orders`` takes "G", "H" and "HVP"; any other name is a
    ValueError, and so is ``reps`` below 2, since an unbiased variance
    needs two estimates, a budget below 1 or a repeated one, which leave
    no slope to fit, and, with "HVP" among the orders, a ``direction`` of
    the wrong shape, not finite or zero.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2, got {reps}")
    orders = tuple(orders)
    for order in orders:
        if order not in ("G", "H", "HVP"):
            raise ValueError(f"unknown derivative order {order!r}; expected G, H or HVP")
    budgets = list(budgets)
    for budget in budgets:
        if budget < 1:
            raise ValueError(f"budgets must be >= 1, got {budget}")
    if len(set(budgets)) < len(budgets):
        raise ValueError(f"budgets must be distinct, got {budgets}")
    theta = np.asarray(theta, dtype=float)
    modes = list(modes)
    v = direction if direction is not None else np.ones(task.dim) / math.sqrt(task.dim)
    if "HVP" in orders:
        v = _check_direction(v, task.dim)
    rows: list[VarianceRow] = []
    slopes: dict[tuple[str, str], float] = {}
    stream = 0
    for mode in modes:
        for order in orders:
            cell_vars = []
            for budget in budgets:
                pairs = _pairs_for_budget(mode, order, budget, task.dim)
                ests = []
                for rep in range(reps):
                    stream += 1
                    rng = RngStream(seed, stream_id=stream)
                    obj = task.objective()
                    cfg = EstimatorConfig(spec=KernelSpec(sigma=sigma, dim=task.dim),
                                          samples=pairs, mode=mode)
                    if order == "G":
                        ests.append(estimate_gradient(obj, theta, cfg, rng).g)
                    elif order == "H":
                        ests.append(estimate_hessian(obj, theta, cfg, rng).h.ravel())
                    else:
                        ests.append(estimate_hvp(obj, theta, v, cfg, rng).hv)
                arr = np.array(ests)
                var = float(arr.var(axis=0, ddof=1).sum())
                cell_vars.append(var)
                rows.append(VarianceRow(mode=mode.value, order=order, budget_evals=budget, variance=var))
            if len(budgets) >= 2 and all(0.0 < var < math.inf for var in cell_vars):
                slope = float(np.polyfit(np.log(budgets), np.log(cell_vars), 1)[0])
                slopes[(mode.value, order)] = slope
    return VarianceReport(rows=rows, slopes=slopes)


# ---------------------------------------------------------------------------
# trace export / import
# ---------------------------------------------------------------------------

def _require_nonempty(result: EnsembleResult) -> None:
    for k, trace in enumerate(result.traces):
        if not trace.records:
            raise ValueError(f"run {k} has an empty trace; refusing to export")


def export_traces(result: EnsembleResult, path, fmt: str = "csv") -> None:
    """Write ensemble traces to ``path`` as CSV or JSON.

    CSV columns are ``CSV_HEADER``: the run, then ``TRACE_COLUMNS``; JSON
    mirrors the same records and echoes the config.  Floats are
    written with shortest round-trip formatting, so a reload reproduces
    the records bit-for-bit.
    """
    _require_nonempty(result)
    fmt = fmt.lower()
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            for run, trace in enumerate(result.traces):
                for rec in trace.records:
                    writer.writerow([run, *astuple(rec)])
    elif fmt == "json":
        payload = {
            "config": asdict(result.config),
            "thresholds": {metric: {str(frac): asdict(stat) for frac, stat in stats.items()}
                           for metric, stats in result.thresholds.items()},
            "runs": [
                {
                    "run": run,
                    "aborted": trace.aborted,
                    "note": trace.note,
                    "records": [dict(zip(TRACE_COLUMNS, astuple(rec))) for rec in trace.records],
                }
                for run, trace in enumerate(result.traces)
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


_RUN_KEYS = (("aborted", bool), ("note", str))
_TYPE_NAMES = {list: "a list", int: "an integer", float: "a number", bool: "a boolean",
               str: "a string"}


def _field(path, entry, key: str, where: str, kind):
    """``entry[key]``, checked to be of ``kind``; a ValueError names the file and ``where``.

    A float field also takes a JSON integer.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: {where} is not a JSON object")
    if key not in entry:
        raise ValueError(f"{path}: {where} has no {key!r}")
    value = entry[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{path}: {where} has {key!r} = {value!r}, not {_TYPE_NAMES[kind]}")
    return value


def load_traces(path) -> tuple[list[ConvergenceTrace], dict | None]:
    """Reload traces written by ``export_traces``; returns (traces, config).

    A file that lacks a field or column the export writes, holds one of
    the wrong type, or has a run whose time or evals go backwards, is a
    ValueError naming the file and the run and record or line.  A JSON
    run without ``aborted`` or ``note`` keeps that field's default.
    """
    with open(path, "rb") as fh:
        head = fh.read(1)
    if not head:
        raise ValueError(f"{path}: empty trace file")
    if head == b"{":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: not valid JSON: {err}") from None
        traces = []
        for k, run in enumerate(_field(path, payload, "runs", "JSON trace file", list)):
            records = _field(path, run, "records", f"run {k}", list)
            trace = ConvergenceTrace(**{key: _field(path, run, key, f"run {k}", kind)
                                        for key, kind in _RUN_KEYS if key in run})
            for j, rec in enumerate(records):
                record = TraceRecord(*(_field(path, rec, key, f"run {k} record {j}", kind)
                                       for key, kind in TRACE_COLUMNS.items()))
                try:
                    trace.append(record)
                except ValueError as err:
                    raise ValueError(f"{path}: run {k} record {j}: {err}") from None
            traces.append(trace)
        return traces, payload.get("config")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        by_run: dict[int, ConvergenceTrace] = {}
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} of the "
                                 f"{len(header)} columns {CSV_HEADER}")
            try:
                run = int(row[0])
                rec = TraceRecord(*(kind(raw) for kind, raw in zip(TRACE_COLUMNS.values(), row[1:])))
                by_run.setdefault(run, ConvergenceTrace()).append(rec)
            except ValueError as err:
                raise ValueError(f"{path}: line {reader.line_num}: {err}") from None
    return [by_run[k] for k in sorted(by_run)], None


def summarize_traces(traces: list[ConvergenceTrace]) -> str:
    """Threshold table for a list of traces (both metrics)."""
    lines = []
    for metric in THRESHOLD_METRICS:
        stats = compute_thresholds(traces, metric)
        lines.append(f"[{metric}]")
        for frac in THRESHOLD_FRACTIONS:
            stat = stats[frac]
            if stat.median_time is None:
                lines.append(f"  {frac:>6}: unreached ({stat.reached_runs}/{len(traces)} runs)")
            else:
                lines.append(
                    f"  {frac:>6}: median_time={stat.median_time:.6g}s "
                    f"median_evals={stat.median_evals:.0f} ({stat.reached_runs}/{len(traces)} runs)"
                )
    return "\n".join(lines)
