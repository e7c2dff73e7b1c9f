"""Convergence traces and run budgets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceRecord:
    wall_time: float
    iteration: int
    evals: int
    loss: float
    param_error: float


@dataclass
class ConvergenceTrace:
    """Per-iteration history of one optimization run.

    ``wall_time`` and ``evals`` are nondecreasing across records.  A run
    that hit non-finite state carries its partial history plus a note.
    """

    records: list[TraceRecord] = field(default_factory=list)
    aborted: bool = False
    note: str = ""

    def append(self, record: TraceRecord) -> None:
        if self.records:
            last = self.records[-1]
            if record.wall_time < last.wall_time or record.evals < last.evals:
                raise ValueError("trace records must have nondecreasing time and evals")
        self.records.append(record)


class NonFiniteStateError(RuntimeError):
    """Optimization reached non-finite parameters or derivative estimates."""

    def __init__(self, message: str, trace: ConvergenceTrace):
        super().__init__(message)
        trace.aborted = True
        trace.note = message
        self.trace = trace


@dataclass(frozen=True)
class Budget:
    """Stopping rule: wall-clock seconds, evaluation count, or both, each finite and > 0 when set."""

    seconds: float | None = None
    evals: int | None = None

    def __post_init__(self):
        if self.seconds is None and self.evals is None:
            raise ValueError("budget needs seconds or evals")
        if not all(limit is None or 0 < limit < math.inf for limit in (self.seconds, self.evals)):
            raise ValueError(f"budget limits must be finite and > 0: {self.seconds} s, {self.evals} evals")

    def spent(self, elapsed: float, evals: int) -> float:
        """Share spent: the larger of elapsed / seconds and evals / evals over the limits set.

        A run is over at a share of 1, which division, being correctly
        rounded, gives exactly when a limit is reached.
        """
        share = 0.0 if self.seconds is None else elapsed / self.seconds
        return share if self.evals is None else max(share, evals / self.evals)

