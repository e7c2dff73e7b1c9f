"""Tracing of the benchmark's traced pass, applied from outside the package.

Tracing wraps the module attributes that callers inside ``smoothdiff``
resolve at call time, so it needs no change to the package itself:

* ``smoothdiff.harness.run_ensemble``: the benchmark's own call into the
  harness layer;
* ``smoothdiff.harness.newton_cg_run`` / ``gd_adam_run`` / ``psd_modify``:
  the optimizer layer;
* ``smoothdiff.harness.estimate_*``: the estimator layer;
* ``smoothdiff.estimators.sample_*`` / ``element_density_ratios``: the
  sampler layer;
* task ``fn`` through ``smoothdiff.harness.make_task``: the objective.

These get timed spans (name, start, end, parent).  The kernel entry points
``gaussian_pdf_1d`` and ``gradient_inverse_cdf`` (as the samplers and the
FR22 estimator resolve them) and ``TabulatedInverseCdf.lookup`` get
counters only: they run hundreds of thousands of times per pass, and a
timer on each would distort the pass it measures.

Spans stay in memory; a layer's self time is its spans' durations minus
the durations of their direct children.  Every patched attribute is
restored when the ``Tracer`` context exits.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter

import smoothdiff.estimators
import smoothdiff.harness
import smoothdiff.samplers
from smoothdiff.estimators import EstimationError
from smoothdiff.samplers import TabulatedInverseCdf
from smoothdiff.trace import NonFiniteStateError

# (module, attribute, span name); the span's layer is the name's prefix
_TIMED = (
    (smoothdiff.harness, "run_ensemble", "harness.run_ensemble"),
    (smoothdiff.harness, "psd_modify", "optimizers.psd_modify"),
    (smoothdiff.harness, "estimate_gradient", "estimators.gradient"),
    (smoothdiff.harness, "estimate_gradient_fd", "estimators.gradient_fd"),
    (smoothdiff.harness, "estimate_gradient_fr22", "estimators.gradient_fr22"),
    (smoothdiff.harness, "estimate_hessian", "estimators.hessian"),
    (smoothdiff.harness, "estimate_hvp", "estimators.hvp"),
    (smoothdiff.estimators, "sample_gradient_offsets", "samplers.sample"),
    (smoothdiff.estimators, "sample_hessian_offsets", "samplers.sample"),
    (smoothdiff.estimators, "sample_aggregate_offsets", "samplers.sample"),
    (smoothdiff.estimators, "element_density_ratios", "samplers.density_ratio"),
)
_COUNTED = (
    (smoothdiff.samplers, "gaussian_pdf_1d", "kernels.gaussian_pdf_1d_calls"),
    (smoothdiff.samplers, "gradient_inverse_cdf", "kernels.inverse_cdf_calls"),
    (smoothdiff.estimators, "gradient_inverse_cdf", "kernels.inverse_cdf_calls"),
    (TabulatedInverseCdf, "lookup", "kernels.inverse_cdf_calls"),
)
_OPTIMIZERS = (
    (smoothdiff.harness, "newton_cg_run", "optimizers.newton_cg_run"),
    (smoothdiff.harness, "gd_adam_run", "optimizers.gd_adam_run"),
)


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) a ``Tracer`` replaces while active."""
    groups = _TIMED + _COUNTED + _OPTIMIZERS
    return [(owner, attr) for owner, attr, _ in groups] + [(smoothdiff.harness, "make_task")]


class Tracer:
    """Context manager that patches the layer boundaries and records spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.evals_mismatch: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in _TIMED:
                self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
            for owner, attr, key in _COUNTED:
                self._patch(owner, attr, self._counted(key, getattr(owner, attr)))
            for owner, attr, name in _OPTIMIZERS:
                self._patch(owner, attr, self._optimizer(name, getattr(owner, attr)))
            self._patch(smoothdiff.harness, "make_task", self._make_task(smoothdiff.harness.make_task))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        estimator = name.startswith("estimators.")

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except EstimationError:
                if estimator:
                    counts["estimators.errors"] += 1
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if estimator:
                counts["estimators.evals"] += out.evals_used
            elif name == "samplers.sample":
                counts["samplers.rows"] += len(out[0])
            return out

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _optimizer(self, name: str, fn):
        """Timed optimizer run that also checks the objective's eval count.

        Newton-CG gets an ``on_inner_step`` collector; it reads only the
        keys present, so an optimizer that reports fewer keys still runs.
        """
        timed = self._timed(name, fn)
        counts = self.counts

        def on_inner(info: dict) -> None:
            counts["optimizers.inner_steps"] += 1
            if "curv" in info and not info["curv"] > 0.0:
                counts["optimizers.nonpos_curvature"] += 1
            if info.get("fallback"):
                counts["optimizers.fallbacks"] += 1

        def wrapper(*args, **kwargs):
            if name == "optimizers.newton_cg_run":
                caller = kwargs.get("on_inner_step")
                kwargs["on_inner_step"] = on_inner if caller is None else (
                    lambda info: (on_inner(info), caller(info)))
            before = counts["tasks.evals"]
            try:
                trace = timed(*args, **kwargs)
            except NonFiniteStateError as err:
                counts["optimizers.aborted_runs"] += 1
                self._check_run(err.trace, counts["tasks.evals"] - before, aborted=True)
                raise
            self._check_run(trace, counts["tasks.evals"] - before, aborted=False)
            return trace

        return wrapper

    def _check_run(self, trace, evals: int, aborted: bool) -> None:
        # an aborted run may have spent evaluations after its last record
        self.counts["optimizers.outer_iters"] += max(len(trace.records) - 1, 0)
        last = trace.records[-1].evals if trace.records else 0
        if evals != last and not (aborted and evals > last):
            self.evals_mismatch.append(f"objective counted {evals} evals, last record says {last}")

    def _make_task(self, fn):
        def wrapper(*args, **kwargs):
            task = fn(*args, **kwargs)
            return dataclasses.replace(task, fn=self._timed_objective(task.fn))

        return wrapper

    def _timed_objective(self, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(theta):
            counts["tasks.evals"] += 1
            start = clock()
            out = fn(theta)
            spans.append(["tasks.objective", start, clock(), stack[-1] if stack else -1])
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[k]
        return out

    def write_spans(self, path) -> None:
        """Write spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
