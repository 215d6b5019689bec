"""Specification-grid fitting and information-criterion ranking.

The grid crosses hazard degree {0,1,2} x routing degree {0,1,2} x forcing
{off,on}: 18 candidate specifications.  Each is fitted independently with
its own seeded multi-start, then ranked by AIC (BIC and parameter count
break ties).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .estimation import FitOptions, FitResult, default_starts, minimize_bfgs
from .model import ModelSpec, ObservedSeries

GRID_DEGREES = (0, 1, 2)

# Forcing may lower the optimal SSE (the non-forcing model is nested) but
# never raise it; anything beyond this slack marks a local-optimum miss.
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


def enumerate_grid(include_forcing: bool = True) -> list[ModelSpec]:
    """All grid specifications in deterministic index order."""
    specs = []
    for deg_gamma in GRID_DEGREES:
        for deg_rho in GRID_DEGREES:
            for forcing in (False, True):
                if forcing and not include_forcing:
                    continue
                specs.append(ModelSpec(deg_gamma=deg_gamma, deg_rho=deg_rho, forcing=forcing))
    return specs


def _fit_one(args) -> tuple[int, FitResult]:
    index, spec, obs, options = args
    starts = default_starts(
        spec,
        obs,
        n_starts=options.n_starts,
        seed=options.seed + index,
        start_sd=options.start_sd,
    )
    return index, minimize_bfgs(spec, obs, starts, options)


def unfittable_reason(spec: ModelSpec, obs: ObservedSeries) -> Optional[str]:
    """Why ``spec`` cannot be fitted to ``obs``, or None if it can."""
    if spec.forcing and obs.p_intl is None:
        return "forcing requires a p_intl series"
    return None


def run_grid(
    obs: ObservedSeries,
    options: Optional[FitOptions] = None,
    n: Optional[int] = None,
    use_n_eff: bool = False,
    jobs: int = 1,
) -> list[GridEntry]:
    """Fit the full grid and rank by AIC (BIC, then parsimony, break ties).

    Forcing specifications are skipped with a recorded reason when the
    data carry no proxy series.  ``n`` overrides the observation count in
    the criteria; by default N = 2 * years, or 2 * years - 2 with
    ``use_n_eff``.  ``jobs`` > 1 fits grid cells in parallel, on at most
    one worker per cell and per CPU; results are merged by grid index, so
    parallel and serial runs are identical.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    opts = options or FitOptions()
    if n is None:
        n = 2 * obs.grid.n_years - (2 if use_n_eff else 0)
    specs = enumerate_grid()
    entries: dict[int, GridEntry] = {}
    tasks = []
    for index, spec in enumerate(specs):
        reason = unfittable_reason(spec, obs)
        if reason is not None:
            entries[index] = GridEntry(spec=spec, k=spec.n_params, status="skipped", reason=reason)
        else:
            tasks.append((index, spec, obs, opts))

    # The pool starts all its workers up front, so never ask for more
    # than can run at once.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            fitted = list(pool.map(_fit_one, tasks))
    else:
        fitted = [_fit_one(t) for t in tasks]

    for index, fit in fitted:
        spec = specs[index]
        entry = GridEntry(spec=spec, k=spec.n_params, fit=fit)
        try:
            entry.aic, entry.bic = information_criteria(fit.sse, spec.n_params, n)
        except ValueError as exc:
            entry.status = "failed"
            entry.reason = str(exc)
        entries[index] = entry

    ranked = [e for e in entries.values() if e.status == "ok"]
    if ranked:
        best_aic = min(e.aic for e in ranked)
        best_bic = min(e.bic for e in ranked)
        for e in ranked:
            e.delta_aic = e.aic - best_aic
            e.delta_bic = e.bic - best_bic
    _flag_nested_misses(entries, specs)

    ranked.sort(key=lambda e: (e.aic, e.bic, e.k))
    rest = [entries[i] for i in sorted(entries) if entries[i].status != "ok"]
    return ranked + rest


def _flag_nested_misses(entries: dict[int, GridEntry], specs: list[ModelSpec]) -> None:
    by_spec = {specs[i]: e for i, e in entries.items()}
    for spec, entry in by_spec.items():
        if not spec.forcing or entry.fit is None:
            continue
        base = by_spec.get(ModelSpec(spec.deg_gamma, spec.deg_rho, forcing=False))
        if base is None or base.fit is None:
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
