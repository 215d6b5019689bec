"""Data ingestion and deterministic report serialization.

Input files are comma-separated UTF-8 text with a header row naming
``year,bachelors,masters,phd`` and optionally ``phd_intl``.  Reports are
written with fixed 10-significant-digit float formatting and no
timestamps, so identical configurations and seeds reproduce identical
bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .diagnostics import ResidualReport, RobustnessReport
from .estimation import FitResult, TrajectoryBands, UncertaintyResult
from .model import (
    ModelSpec,
    ObservedSeries,
    ParamTrajectories,
    SimulationResult,
    TRAJECTORY_NAMES,
    YearGrid,
    theta_labels,
)
from .selection import GridEntry


class DataError(ValueError):
    """A data or configuration problem the caller must fix."""


REQUIRED_COLUMNS = ("year", "bachelors", "masters", "phd")
OPTIONAL_COLUMN = "phd_intl"


def _cell(value) -> str:
    """One CSV cell: a float to 10 significant digits, an int, flag or string as is, None empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, str)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10g}"


def _round10(x: float) -> float:
    return float(_cell(float(x)))


def load_series(path) -> ObservedSeries:
    """Load and validate an annual completion-count file.

    Enforces the contiguous-annual-grid assumption: duplicate years and
    gaps are rejected (nonannual records cannot be represented).  Rows may
    arrive unsorted.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    with io.StringIO(text, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (header row required)") from None
        header = [h.strip() for h in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: header missing required column(s) {', '.join(missing)}")
        col = {name: header.index(name) for name in REQUIRED_COLUMNS}
        has_intl = OPTIONAL_COLUMN in header
        if has_intl:
            col[OPTIONAL_COLUMN] = header.index(OPTIONAL_COLUMN)

        rows = {}
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            try:
                year = int(raw[col["year"]])
                values = {
                    name: float(raw[col[name]])
                    for name in ("bachelors", "masters", "phd")
                }
                if has_intl:
                    values[OPTIONAL_COLUMN] = float(raw[col[OPTIONAL_COLUMN]])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: row {line_no}: unparseable value ({exc})") from None
            if year in rows:
                raise DataError(f"{path}: row {line_no}: duplicate year {year}")
            if values["masters"] <= 0:
                raise DataError(
                    f"{path}: row {line_no}: masters must be positive (log scale), got "
                    f"{values['masters']}"
                )
            if values["phd"] <= 0:
                raise DataError(
                    f"{path}: row {line_no}: phd must be positive (log scale), got {values['phd']}"
                )
            if values["bachelors"] < 0:
                raise DataError(f"{path}: row {line_no}: bachelors must be nonnegative")
            if has_intl and values[OPTIONAL_COLUMN] < 0:
                raise DataError(f"{path}: row {line_no}: phd_intl must be nonnegative")
            rows[year] = values

    if len(rows) < 2:
        raise DataError(f"{path}: need at least two data rows, got {len(rows)}")
    years = sorted(rows)
    # Missing runs between consecutive years, so a wide span costs nothing.
    gaps = [str(a + 1) if b - a == 2 else f"{a + 1}-{b - 1}"
            for a, b in zip(years, years[1:]) if b - a > 1]
    if gaps:
        raise DataError(f"{path}: year grid has gaps: {', '.join(gaps)}")
    grid = YearGrid(years[0], years[-1])
    try:
        return ObservedSeries(
            grid=grid,
            b=np.array([rows[y]["bachelors"] for y in years]),
            m=np.array([rows[y]["masters"] for y in years]),
            p=np.array([rows[y]["phd"] for y in years]),
            p_intl=np.array([rows[y][OPTIONAL_COLUMN] for y in years]) if has_intl else None,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_series(obs: ObservedSeries, path) -> int:
    """Write a series in the loader's format; returns the data-row count."""
    header = list(REQUIRED_COLUMNS)
    columns = [obs.grid.years, obs.b, obs.m, obs.p]
    if obs.p_intl is not None:
        header.append(OPTIONAL_COLUMN)
        columns.append(obs.p_intl)
    return _write_table(Path(path), header, list(zip(*columns)))


@dataclass
class ReportBundle:
    """Everything one run produced; absent pieces are simply not serialized."""

    config_echo: dict = field(default_factory=dict)
    obs: Optional[ObservedSeries] = None
    spec: Optional[ModelSpec] = None
    fit: Optional[FitResult] = None
    trajectories: Optional[ParamTrajectories] = None
    simulation: Optional[SimulationResult] = None
    uncertainty: Optional[UncertaintyResult] = None
    bands: Optional[TrajectoryBands] = None
    residual_report: Optional[ResidualReport] = None
    grid_entries: Optional[list[GridEntry]] = None
    robustness: Optional[RobustnessReport] = None
    n: Optional[int] = None
    aic: Optional[float] = None
    bic: Optional[float] = None
    notes: list[str] = field(default_factory=list)
    # Emit the observed series itself in the loader's format (synth output).
    emit_data: bool = False


def write_reports(results: ReportBundle, out_dir, formats: Sequence[str] = ("csv", "json")) -> dict[str, int]:
    """Serialize a run bundle; returns {filename: data-row count}.

    Emits a machine-readable run report (json), plus per-year trajectory,
    residual, grid-comparison, and robustness tables (csv), depending on
    what the bundle carries.  Output is deterministic: rerunning with the
    same configuration and seeds reproduces every byte.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise DataError(f"unknown output format {fmt!r}")
    manifest: dict[str, int] = {}

    if "json" in formats:
        manifest["run_report.json"] = _write_run_report(results, out / "run_report.json")
    if "csv" in formats:
        if results.emit_data and results.obs is not None:
            manifest["data.csv"] = write_series(results.obs, out / "data.csv")
        if results.simulation is not None:
            manifest["trajectories.csv"] = _write_trajectories(results, out / "trajectories.csv")
        if results.residual_report is not None:
            manifest["residuals.csv"] = _write_residuals(
                results.residual_report, out / "residuals.csv"
            )
        if results.grid_entries is not None:
            manifest["grid.csv"] = _write_grid(results.grid_entries, out / "grid.csv")
        if results.robustness is not None:
            if results.robustness.truncation_rows:
                manifest["truncation.csv"] = _write_records(
                    out / "truncation.csv", results.robustness.truncation_rows
                )
            if results.robustness.hindcast is not None:
                manifest["hindcast.csv"] = _write_records(
                    out / "hindcast.csv", results.robustness.hindcast.predictions
                )

    with (out / "manifest.json").open("w", encoding="utf-8", newline="\n") as handle:
        json.dump({"files": manifest}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _jsonify(value):
    if isinstance(value, (np.floating, float)):
        return _round10(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _write_run_report(results: ReportBundle, path: Path) -> int:
    report: dict = {"config": _jsonify(results.config_echo)}
    if results.notes:
        report["notes"] = list(results.notes)
    if results.obs is not None:
        grid = results.obs.grid
        report["data"] = {
            "t_min": grid.t_min,
            "t_max": grid.t_max,
            "n_years": grid.n_years,
            "has_p_intl": results.obs.p_intl is not None,
        }
    if results.spec is not None:
        report["spec"] = {
            "deg_gamma": results.spec.deg_gamma,
            "deg_rho": results.spec.deg_rho,
            "forcing": results.spec.forcing,
            "k": results.spec.n_params,
        }
    if results.fit is not None and results.spec is not None:
        labels = theta_labels(results.spec)
        fit = results.fit
        entry = {
            "theta_hat": {lab: _round10(v) for lab, v in zip(labels, fit.theta_hat)},
            "sse": _round10(fit.sse),
            "converged": fit.converged,
            "n_iterations": fit.n_iterations,
            "n_starts_used": fit.n_starts_used,
            "grad_norm_at_opt": _round10(fit.grad_norm_at_opt),
        }
        if results.obs is not None:
            grid = results.obs.grid
            entry["n"] = results.n if results.n is not None else 2 * grid.n_years
            entry["n_eff"] = grid.n_eff
        if results.aic is not None:
            entry["aic"] = _round10(results.aic)
            entry["bic"] = _round10(results.bic)
        report["fit"] = entry
    if results.uncertainty is not None:
        unc = results.uncertainty
        report["uncertainty"] = {
            "sigma2_hat": _round10(unc.sigma2_hat),
            "regularization_applied": unc.regularization_applied,
            "covariance_diagonal": _jsonify(np.diag(unc.covariance)),
        }
    if results.residual_report is not None:
        rep = results.residual_report
        report["residual_summary"] = _jsonify(rep.summary)
        report["residual_histogram"] = {
            "bin_edges": _jsonify(rep.bin_edges[1:-1]),
            "counts_m": _jsonify(rep.counts_m),
            "counts_p": _jsonify(rep.counts_p),
        }
    if results.robustness is not None and results.robustness.hindcast is not None:
        hc = results.robustness.hindcast
        report["hindcast_summary"] = {
            "rmse_m": _round10(hc.rmse_m),
            "rmse_p": _round10(hc.rmse_p),
            "rmse_pooled": _round10(hc.rmse_pooled),
            "n_cutoffs": len(hc.predictions),
            "rescale": hc.rescale,
        }
    if results.grid_entries is not None:
        ok = [e for e in results.grid_entries if e.status == "ok"]
        report["grid_summary"] = {
            "n_entries": len(results.grid_entries),
            "n_ok": len(ok),
            "best_spec_aic": ok[0].spec.label() if ok else None,
        }
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 1


def _write_table(path: Path, header: list[str], rows: list[list]) -> int:
    """Write ``header`` and one line per row, each value through :func:`_cell`."""
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(_cell, row)) + "\n")
    return len(rows)


def _write_records(path: Path, records: Sequence) -> int:
    """A table of dataclass records, one column per field, in field order."""
    names = [f.name for f in fields(records[0])]
    return _write_table(path, names, [[getattr(r, name) for name in names] for r in records])


def _write_trajectories(results: ReportBundle, path: Path) -> int:
    obs = results.obs
    sim = results.simulation
    traj = results.trajectories
    header = ["year", "observed_m", "observed_p", "fitted_m", "fitted_p", "stock_m", "stock_p"]
    header += list(TRAJECTORY_NAMES)
    if results.bands is not None:
        for name in TRAJECTORY_NAMES:
            header += [f"{name}_lower", f"{name}_upper"]
    rows = []
    traj_map = traj.as_dict()
    for i, year in enumerate(obs.grid.years):
        row = [year, obs.m[i], obs.p[i], sim.flow_m[i], sim.flow_p[i], sim.stock_m[i],
               sim.stock_p[i]]
        row += [traj_map[name][i] for name in TRAJECTORY_NAMES]
        if results.bands is not None:
            for name in TRAJECTORY_NAMES:
                row += [results.bands.lower[name][i], results.bands.upper[name][i]]
        rows.append(row)
    return _write_table(path, header, rows)


def _write_residuals(rep: ResidualReport, path: Path) -> int:
    rows = [[year, rep.r_m[i], rep.r_p[i]] for i, year in enumerate(rep.years)]
    return _write_table(path, ["year", "residual_m", "residual_p"], rows)


def _write_grid(entries: list[GridEntry], path: Path) -> int:
    header = [
        "rank", "deg_gamma", "deg_rho", "forcing", "k", "sse",
        "aic", "delta_aic", "bic", "delta_bic",
        "converged", "status", "reason", "local_optimum_warning",
    ]
    rows = [
        [rank, e.spec.deg_gamma, e.spec.deg_rho, "intl" if e.spec.forcing else "none", e.k,
         e.fit.sse if e.fit else None, e.aic, e.delta_aic, e.bic, e.delta_bic,
         e.fit.converged if e.fit else None, e.status, e.reason.replace(",", ";"),
         e.local_optimum_warning]
        for rank, e in enumerate(entries, start=1)
    ]
    return _write_table(path, header, rows)
