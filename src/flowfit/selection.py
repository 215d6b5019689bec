"""Specification-grid fitting and information-criterion ranking.

The grid crosses hazard degree {0,1,2} x routing degree {0,1,2} x forcing
{off,on}: 18 candidate specifications.  Each is fitted with its own seeded
multi-start, then ranked by AIC (BIC and parameter count break ties).
Every start of every cell is one lane of a batched BFGS, and the lane set
may carry other fits' lanes too (see :func:`run_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimation import FitOptions, FitResult, LaneJob, default_starts, fit_lane_set
from .model import ModelSpec, ObservedSeries

GRID_DEGREES = (0, 1, 2)

# A spec's optimal SSE is never above that of a spec nested in it (lower
# degrees, or no forcing); anything beyond this slack marks a local-optimum
# miss.
NESTED_SSE_SLACK = 1e-8


@dataclass
class GridEntry:
    """One fitted (or skipped/failed) grid cell with its ranking scores."""

    spec: ModelSpec
    k: int
    fit: Optional[FitResult] = None
    aic: Optional[float] = None
    bic: Optional[float] = None
    delta_aic: Optional[float] = None
    delta_bic: Optional[float] = None
    status: str = "ok"
    reason: str = ""
    local_optimum_warning: bool = False


def information_criteria(sse: float, k: int, n: int) -> tuple[float, float]:
    """AIC = 2k + N log(SSE/N) and BIC = k log N + N log(SSE/N), natural log."""
    if sse < 0:
        raise ValueError("sse must be nonnegative")
    if sse == 0:
        raise ValueError("information criteria undefined for a perfect fit (sse = 0)")
    if n <= 0:
        raise ValueError("n must be positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    goodness = n * math.log(sse / n)
    return 2.0 * k + goodness, k * math.log(n) + goodness


def enumerate_grid() -> list[ModelSpec]:
    """All grid specifications in deterministic index order."""
    return [ModelSpec(deg_gamma=deg_gamma, deg_rho=deg_rho, forcing=forcing)
            for deg_gamma in GRID_DEGREES for deg_rho in GRID_DEGREES
            for forcing in (False, True)]


def unfittable_reason(spec: ModelSpec, obs: ObservedSeries) -> Optional[str]:
    """Why ``spec`` cannot be fitted to ``obs``, or None if it can.

    A series needs more fitted residuals than ``spec`` has coefficients,
    the condition of :func:`~flowfit.estimation.covariance`'s variance.
    """
    if spec.forcing and obs.p_intl is None:
        return "forcing requires a p_intl series"
    if obs.grid.n_eff <= spec.n_params:
        return f"series too short: N_eff={obs.grid.n_eff} <= k={spec.n_params}"
    return None


def run_grid(
    obs: ObservedSeries,
    options: Optional[FitOptions] = None,
    n: Optional[int] = None,
    jobs: int = 1,
    refits: Sequence[LaneJob] = (),
) -> list[GridEntry]:
    """Fit the full grid and rank by AIC (BIC, then parsimony, break ties).

    Forcing specifications are skipped with a recorded reason when the
    data carry no proxy series, and so is every spec with as many
    coefficients as fitted residuals or more (:func:`unfittable_reason`).
    ``n`` is the observation count in the criteria, by default N = 2 * years.

    Cell i's seeded starts (seed ``options.seed + i``) make one lane job.
    Every fittable cell's job is in one lane set
    (:func:`~flowfit.estimation.fit_lane_set`) on ``jobs`` workers, and so
    are ``refits``, further lane jobs whose ``fit`` this sets.  A lane's fit
    does not depend on the lanes it runs with, so neither ``refits`` nor
    ``jobs`` changes a cell's fit.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    opts = options or FitOptions()
    if n is None:
        n = 2 * obs.grid.n_years
    entries = [GridEntry(spec=spec, k=spec.n_params) for spec in enumerate_grid()]
    cells = []
    for index, entry in enumerate(entries):
        spec = entry.spec
        reason = unfittable_reason(spec, obs)
        if reason is not None:
            entry.status, entry.reason = "skipped", reason
            continue
        cells.append(LaneJob(spec, obs, np.stack(default_starts(
            spec, obs, n_starts=opts.n_starts, seed=opts.seed + index, start_sd=opts.start_sd))))
    fitted = [e for e in entries if e.status == "ok"]
    fit_lane_set(cells + list(refits), opts, workers=jobs)
    for entry, cell in zip(fitted, cells):
        entry.fit = cell.fit
        try:
            entry.aic, entry.bic = information_criteria(cell.fit.sse, entry.k, n)
        except ValueError as exc:
            entry.status = "failed"
            entry.reason = str(exc)

    ranked = [e for e in fitted if e.status == "ok"]
    if ranked:
        best_aic = min(e.aic for e in ranked)
        best_bic = min(e.bic for e in ranked)
        for e in ranked:
            e.delta_aic = e.aic - best_aic
            e.delta_bic = e.bic - best_bic
    _flag_nested_misses(entries)

    ranked.sort(key=lambda e: (e.aic, e.bic, e.k))
    return ranked + [e for e in entries if e.status != "ok"]


def _nests(inner: ModelSpec, outer: ModelSpec) -> bool:
    """Whether ``inner`` is ``outer`` with some coefficients held out."""
    return (inner != outer and inner.deg_gamma <= outer.deg_gamma
            and inner.deg_rho <= outer.deg_rho and inner.forcing <= outer.forcing)


def _flag_nested_misses(entries: Sequence[GridEntry]) -> None:
    """Flag every fitted cell whose SSE is above that of a cell nested in it."""
    fitted = [e for e in entries if e.fit is not None]
    for entry in fitted:
        for base in fitted:
            if not _nests(base.spec, entry.spec):
                continue
            slack = NESTED_SSE_SLACK * max(1.0, base.fit.sse)
            if entry.fit.sse > base.fit.sse + slack:
                entry.local_optimum_warning = True


def select_best(entries: list[GridEntry], criterion: str = "aic") -> GridEntry:
    """Entry with the minimal criterion; ties go to smaller k, then spec order."""
    if criterion not in ("aic", "bic"):
        raise ValueError("criterion must be 'aic' or 'bic'")
    candidates = [e for e in entries if e.status == "ok" and getattr(e, criterion) is not None]
    if not candidates:
        raise ValueError("no successfully fitted grid entries to select from")
    return min(
        candidates,
        key=lambda e: (
            getattr(e, criterion),
            e.k,
            (e.spec.deg_gamma, e.spec.deg_rho, e.spec.forcing),
        ),
    )
