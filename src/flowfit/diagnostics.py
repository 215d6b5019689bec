"""Residual diagnostics and robustness protocols.

Two refit-based checks probe the stability of a fitted specification:
start-year truncation (drop the earliest years and refit on the remaining
window) and rolling-origin hindcasting (refit on data through a cutoff
year, then predict the next year's completions out of sample).  Every
window's refit is a lane job, and the windows run as one lane set.  A
hindcast prediction is :func:`~flowfit.model.simulate` on the refit's
window and the year after it, read at that year.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .estimation import (
    FitOptions,
    LaneJob,
    NumericalError,
    default_starts,
    fit_lane_set,
    residuals,
)
from .model import (
    ModelSpec,
    ObservedSeries,
    SimulationResult,
    YearGrid,
    eval_param_trajectories,
    rescale_coefficients,
    simulate,
)

HISTOGRAM_EDGE = 0.12
HISTOGRAM_BIN_WIDTH = 0.02


@dataclass
class ResidualReport:
    years: np.ndarray
    r_m: np.ndarray
    r_p: np.ndarray
    summary: dict[str, dict[str, float]]
    bin_edges: np.ndarray
    counts_m: np.ndarray
    counts_p: np.ndarray


@dataclass
class TruncationRow:
    start_year: int
    converged: bool
    k: int
    sse: float
    pooled_log_rmse: float
    n_years: int
    rescale: str


@dataclass
class HindcastPrediction:
    cutoff: int
    converged: bool
    fit_sse: float
    m_pred: float
    m_obs: float
    log_err_m: float
    p_pred: float
    p_obs: float
    log_err_p: float


@dataclass
class HindcastResult:
    rmse_m: float
    rmse_p: float
    rmse_pooled: float
    predictions: list[HindcastPrediction]
    rescale: str


@dataclass
class RobustnessReport:
    truncation_rows: list[TruncationRow] = field(default_factory=list)
    hindcast: Optional[HindcastResult] = None


def log_rmse(sse: float, n: int) -> float:
    """Root mean squared log residual sqrt(SSE/N)."""
    if sse < 0:
        raise ValueError("sse must be nonnegative")
    if n <= 0:
        raise ValueError("n must be positive")
    return math.sqrt(sse / n)


def residual_report(obs: ObservedSeries, sim: SimulationResult) -> ResidualReport:
    """Per-year residual table, summary statistics, and fixed-bin histograms.

    Histogram bins are ``HISTOGRAM_BIN_WIDTH`` = 0.02 wide over [-0.12, 0.12]
    with one overflow bin on each side, enough to resolve the few-percent
    residuals a good fit leaves.
    """
    res = residuals(obs, sim)
    n_edges = round(2 * HISTOGRAM_EDGE / HISTOGRAM_BIN_WIDTH) + 1
    inner = np.linspace(-HISTOGRAM_EDGE, HISTOGRAM_EDGE, n_edges)
    edges = np.concatenate(([-np.inf], inner, [np.inf]))
    summary = {}
    for name, r in (("m", res.r_m), ("p", res.r_p)):
        summary[name] = {
            "mean": float(np.mean(r)),
            "sd": float(np.std(r)),
            "min": float(np.min(r)),
            "max": float(np.max(r)),
        }
    counts_m, _ = np.histogram(res.r_m, bins=edges)
    counts_p, _ = np.histogram(res.r_p, bins=edges)
    return ResidualReport(
        years=obs.grid.years,
        r_m=res.r_m,
        r_p=res.r_p,
        summary=summary,
        bin_edges=edges,
        counts_m=counts_m,
        counts_p=counts_p,
    )


def check_rescale(rescale: str) -> None:
    if rescale not in ("window", "full"):
        raise ValueError("rescale must be 'window' or 'full'")


def window_fits(n_years: int, spec: ModelSpec) -> bool:
    """Whether a refit window of ``n_years`` years is long enough for ``spec``."""
    return n_years >= spec.n_params / 2 + 1


def _check_distinct(name: str, years: Sequence[int]) -> None:
    repeated = sorted(year for year, count in Counter(years).items() if count > 1)
    if repeated:
        raise ValueError(f"{name} {', '.join(map(str, repeated))} given more than once")


def check_truncation_starts(
    grid: YearGrid, start_years: Sequence[int], spec: Optional[ModelSpec] = None
) -> None:
    """Reject repeated start years, ones outside ``grid`` and, given ``spec``, too short windows."""
    _check_distinct("start year", start_years)
    for start in start_years:
        if start < grid.t_min or start > grid.t_max:
            raise ValueError(f"start year {start} outside the grid")
        n_years = grid.t_max - start + 1
        if spec is not None and not window_fits(n_years, spec):
            raise ValueError(
                f"window starting {start} has {n_years} years, too short for k={spec.n_params}"
            )


def check_cutoffs(
    grid: YearGrid, cutoffs: Sequence[int], spec: Optional[ModelSpec] = None
) -> None:
    """Reject an empty list of hindcast cutoffs, a repeated one, one not strictly inside
    ``grid`` or, given ``spec``, one leaving too short a window."""
    if not cutoffs:
        raise ValueError("the hindcast needs at least one cutoff")
    _check_distinct("cutoff", cutoffs)
    for cutoff in cutoffs:
        if not grid.t_min < cutoff < grid.t_max:
            raise ValueError(
                f"cutoff {cutoff} must lie strictly inside ({grid.t_min}, {grid.t_max})"
            )
        n_years = cutoff - grid.t_min + 1
        if spec is not None and not window_fits(n_years, spec):
            raise ValueError(
                f"window ending {cutoff} has {n_years} years, too short for k={spec.n_params}"
            )


def robustness_jobs(
    obs: ObservedSeries,
    spec: ModelSpec,
    start_years: Sequence[int],
    cutoffs: Sequence[int],
    options: Optional[FitOptions] = None,
    rescale: str = "window",
) -> list[LaneJob]:
    """The lane jobs of the truncation and hindcast refits of ``spec``.

    One job per start year (the window from it through the end of the
    sample), then one per cutoff (the window from the first year through
    the cutoff), each with rescaled time anchored on its own window.
    Every window has the whole-sample fit's starts (seed ``options.seed``),
    with ``rescale='full'`` mapped from the full sample's time scale by
    :func:`~flowfit.model.rescale_coefficients`: it picks the starts, not
    the model.  So no window's fit depends on the others, and the jobs are
    lanes whatever their number.  Their fits, in this order, make up
    :func:`robustness_report`, with ``rescale`` as its label.
    """
    check_rescale(rescale)
    check_truncation_starts(obs.grid, start_years, spec)
    if cutoffs:
        check_cutoffs(obs.grid, cutoffs, spec)
    opts = options or FitOptions()
    starts = np.stack(default_starts(spec, obs, n_starts=opts.n_starts, seed=opts.seed,
                                     start_sd=opts.start_sd))
    windows = ([obs.window(start, obs.grid.t_max) for start in start_years]
               + [obs.window(obs.grid.t_min, cutoff) for cutoff in cutoffs])
    return [LaneJob(spec, window, starts if rescale == "window"
                    else rescale_coefficients(starts, spec, obs.grid, window.grid))
            for window in windows]


def robustness_report(jobs: Sequence[LaneJob], obs: ObservedSeries,
                      rescale: str) -> RobustnessReport:
    """The truncation rows and the hindcast from :func:`robustness_jobs`'s fitted jobs.

    Pooled log-RMSE uses N = 2 * window years.  Each hindcast window's
    year-T+1 completions are predicted by simulating its fit on the sample
    through T+1, with trajectories extrapolated to T+1; the hindcast
    reports per-series and pooled RMSE of the one-step log errors, and is
    None without cutoffs.
    """
    report = RobustnessReport()
    predictions = []
    for job in jobs:
        window, fit = job.obs, job.fit
        # A truncation window ends with the sample, a hindcast window before it.
        if window.grid.t_max == obs.grid.t_max:
            n_years = window.grid.n_years
            report.truncation_rows.append(TruncationRow(
                start_year=window.grid.t_min,
                converged=fit.converged,
                k=job.spec.n_params,
                sse=fit.sse,
                pooled_log_rmse=log_rmse(fit.sse, 2 * n_years),
                n_years=n_years,
                rescale=rescale,
            ))
        else:
            predictions.append(_hindcast_prediction(obs, job))
    if predictions:
        sq_m = [pred.log_err_m * pred.log_err_m for pred in predictions]
        sq_p = [pred.log_err_p * pred.log_err_p for pred in predictions]
        report.hindcast = HindcastResult(
            rmse_m=math.sqrt(sum(sq_m) / len(sq_m)),
            rmse_p=math.sqrt(sum(sq_p) / len(sq_p)),
            rmse_pooled=math.sqrt((sum(sq_m) + sum(sq_p)) / (len(sq_m) + len(sq_p))),
            predictions=predictions,
            rescale=rescale,
        )
    return report


def _hindcast_prediction(obs: ObservedSeries, job: LaneJob) -> HindcastPrediction:
    window, fit = job.obs, job.fit
    cutoff = window.grid.t_max
    ahead = obs.window(window.grid.t_min, cutoff + 1)
    m_pred, p_pred = _predict_next_year(ahead, job.spec, fit.theta_hat)
    m_obs = float(ahead.m[-1])
    p_obs = float(ahead.p[-1])
    if not (0.0 < m_pred < math.inf and 0.0 < p_pred < math.inf):
        raise NumericalError(
            f"hindcast for {cutoff + 1} predicts non-positive or non-finite completions "
            f"(master's {m_pred!r}, PhD {p_pred!r})"
        )
    return HindcastPrediction(
        cutoff=cutoff,
        converged=fit.converged,
        fit_sse=fit.sse,
        m_pred=m_pred,
        m_obs=m_obs,
        log_err_m=math.log(m_obs) - math.log(m_pred),
        p_pred=p_pred,
        p_obs=p_obs,
        log_err_p=math.log(p_obs) - math.log(p_pred),
    )


def robustness(
    obs: ObservedSeries,
    spec: ModelSpec,
    start_years: Sequence[int],
    cutoffs: Sequence[int],
    options: Optional[FitOptions] = None,
    rescale: str = "window",
) -> RobustnessReport:
    """Every truncation and hindcast refit of ``spec`` as one lane set, and their report."""
    jobs = robustness_jobs(obs, spec, start_years, cutoffs, options, rescale)
    fit_lane_set(jobs, options)
    return robustness_report(jobs, obs, rescale)


def truncation_study(
    obs: ObservedSeries,
    spec: ModelSpec,
    start_years: Sequence[int],
    options: Optional[FitOptions] = None,
    rescale: str = "window",
) -> list[TruncationRow]:
    """Refit on late-start windows and report pooled log-RMSE per window.

    Each window runs from the given start year through the end of the
    sample, with rescaled time and initial stocks recomputed for the
    window (``rescale='full'`` maps the starts from the full-sample time
    scale).  Pooled log-RMSE uses N = 2 * window years.  The windows'
    refits are one lane set.
    """
    return robustness(obs, spec, start_years, (), options, rescale).truncation_rows


def rolling_origin_hindcast(
    obs: ObservedSeries,
    spec: ModelSpec,
    cutoffs: Sequence[int],
    options: Optional[FitOptions] = None,
    rescale: str = "window",
) -> HindcastResult:
    """One-step-ahead out-of-sample check over a set of cutoff years.

    For each cutoff T the specification is re-estimated on [t_min, T]
    alone (the truncated series never sees later data) and the year-T+1
    completions are predicted by running the recurrence one year further,
    with trajectories extrapolated to T+1.  Reports per-series and pooled
    RMSE of the one-step log errors.  The windows' refits are one lane set.
    """
    check_rescale(rescale)
    check_cutoffs(obs.grid, cutoffs)
    return robustness(obs, spec, (), cutoffs, options, rescale).hindcast


def _predict_next_year(ahead: ObservedSeries, spec: ModelSpec,
                       theta: np.ndarray) -> tuple[float, float]:
    """The flows of ``ahead``'s last year, a refit window's next, by :func:`simulate`.

    Rescaled time is anchored on the refit's window, ``ahead`` but its
    last year, whose inputs never reach its flows: the prediction reads
    the window's data alone.
    """
    window = YearGrid(ahead.grid.t_min, ahead.grid.t_max - 1)
    traj = eval_param_trajectories(theta, spec, window, years=ahead.grid.years)
    sim = simulate(ahead, traj, spec)
    return float(sim.flow_m[-1]), float(sim.flow_p[-1])
