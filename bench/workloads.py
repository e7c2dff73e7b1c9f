"""The benchmark's workloads: fixed lists of task:method cells.

Each workload is one closed loop in a single process: cells run one
after another, and within a cell the ensemble's runs run one after
another (``threads=1``).  Cell configs carry ``seed=0``; ``seeded``
derives every cell's seed from the workload seed.  Why each workload is
in the benchmark is set out in README.md.
"""

from __future__ import annotations

from dataclasses import replace

from smoothdiff.harness import RunConfig

# second-order settings from tests/test_harness.py (QUAD_CFG)
_LOWDIM_NEWTON = dict(samples=4, sigma_start=1.0, sigma_end=0.05, trust_region=50.0,
                      ls_iters=5, ls_tol=1e-3, recompute=5)
_LOWDIM_FIRST = dict(samples=2, lr=0.3, sigma_start=1.0, sigma_end=0.05)
_LOWDIM = dict(budget_evals=600, ensemble=40)

WORKLOADS: dict[str, list[RunConfig]] = {
    "highdim": [
        RunConfig(task="texture16", method="OurG", samples=1, lr=0.05,
                  sigma_start=0.3, sigma_end=0.01, budget_evals=1500, ensemble=3),
        RunConfig(task="texture16", method="OurHVPA", samples=4, trust_region=4.0,
                  ls_iters=3, ls_tol=1e-3, recompute=5, sigma_start=0.3, sigma_end=0.01,
                  budget_evals=600, ensemble=3),
    ],
    "render": [
        RunConfig(task="box10", method="OurHVPA", samples=4, trust_region=0.3, ls_iters=3,
                  sigma_start=0.2, sigma_end=0.01, budget_evals=1000, ensemble=6),
        RunConfig(task="box10", method="FD", lr=0.01, budget_evals=1500, ensemble=3),
        RunConfig(task="phong", method="OurH", samples=2, trust_region=1.0, ls_iters=3,
                  sigma_start=0.3, sigma_end=0.01, budget_evals=1000, ensemble=6),
    ],
    "lowdim": [
        RunConfig(task="quad", method="OurHVPA", **_LOWDIM_NEWTON, **_LOWDIM),
        RunConfig(task="quad", method="OurG", **_LOWDIM_FIRST, **_LOWDIM),
        RunConfig(task="quad", method="FR22", **_LOWDIM_FIRST, **_LOWDIM),
        RunConfig(task="quad", method="FD", **_LOWDIM_FIRST, **_LOWDIM),
        RunConfig(task="neg_gauss", method="OurHVPA", **_LOWDIM_NEWTON, **_LOWDIM),
        RunConfig(task="neg_gauss", method="OurH", **_LOWDIM_NEWTON, **_LOWDIM),
        RunConfig(task="neg_gauss", method="OurG", **_LOWDIM_FIRST, **_LOWDIM),
    ],
}

# the quality metrics carry meaning only where runs cross the thresholds
QUALITY_WORKLOADS = ("lowdim",)


def seeded(workload: str, seed: int, budget_scale: float = 1.0,
           ensemble: int | None = None) -> list[RunConfig]:
    """The workload's cells with seeds derived from ``seed``.

    Cell k's run r uses seed ``seed * 10_000 + 100 * k + r``, so cells and
    runs never share a stream.  ``budget_scale`` and ``ensemble`` shrink
    a workload for smoke tests; measured runs use the defaults.
    """
    cells = []
    for k, cfg in enumerate(WORKLOADS[workload]):
        cells.append(replace(
            cfg,
            seed=seed * 10_000 + 100 * k,
            budget_evals=max(2, round(cfg.budget_evals * budget_scale)),
            ensemble=cfg.ensemble if ensemble is None else min(ensemble, cfg.ensemble),
        ))
    return cells
