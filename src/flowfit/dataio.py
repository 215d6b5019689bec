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
import math
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
        # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports begin with.
        text = path.read_bytes().decode("utf-8-sig")
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
                values = {name: float(raw[i]) for name, i in col.items() if name != "year"}
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: row {line_no}: unparseable value ({exc})") from None
            if year in rows:
                raise DataError(f"{path}: row {line_no}: duplicate year {year}")
            for name, value in values.items():
                positive = name in ("masters", "phd")   # the fit takes their logarithms
                if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                    need = "positive (log scale)" if positive else "nonnegative"
                    raise DataError(
                        f"{path}: row {line_no}: {name} must be finite and {need}, got {value}"
                    )
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
    return _write_table(Path(path), _series_columns(obs))


def _series_columns(obs: ObservedSeries) -> dict:
    columns = {"year": obs.grid.years, "bachelors": obs.b, "masters": obs.m, "phd": obs.p}
    if obs.p_intl is not None:
        columns[OPTIONAL_COLUMN] = obs.p_intl
    return columns


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
    # Checked before the directory is made, so a rejected call leaves none behind.
    formats = tuple(formats)
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise DataError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    manifest: dict[str, int] = {}

    if "json" in formats:
        manifest["run_report.json"] = _write_run_report(results, out / "run_report.json")
    if "csv" in formats:
        for name, columns in _tables(results):
            manifest[name] = _write_table(out / name, columns)

    with (out / "manifest.json").open("w", encoding="utf-8", newline="\n") as handle:
        json.dump({"files": manifest}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def _jsonify(value):
    """A report value as JSON data, every float at 10 significant digits as in :func:`_cell`."""
    if isinstance(value, (np.floating, float)):
        return float(_cell(value))
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
    report: dict = {"config": results.config_echo}
    if results.notes:
        report["notes"] = results.notes
    if results.obs is not None:
        grid = results.obs.grid
        report["data"] = {
            "t_min": grid.t_min,
            "t_max": grid.t_max,
            "n_years": grid.n_years,
            "has_p_intl": results.obs.p_intl is not None,
        }
    if results.spec is not None:
        report["spec"] = {**_record(results.spec), "k": results.spec.n_params}
    if results.fit is not None and results.spec is not None:
        fit = results.fit
        entry = _record(fit)
        entry["theta_hat"] = dict(zip(theta_labels(results.spec), fit.theta_hat))
        if results.obs is not None:
            grid = results.obs.grid
            entry["n"] = results.n if results.n is not None else 2 * grid.n_years
            entry["n_eff"] = grid.n_eff
        if results.aic is not None:
            entry["aic"] = results.aic
            entry["bic"] = results.bic
        report["fit"] = entry
    if results.uncertainty is not None:
        unc = results.uncertainty
        report["uncertainty"] = {
            "sigma2_hat": unc.sigma2_hat,
            "regularization_applied": unc.regularization_applied,
            "covariance_diagonal": np.diag(unc.covariance),
        }
    if results.residual_report is not None:
        rep = results.residual_report
        report["residual_summary"] = rep.summary
        report["residual_histogram"] = {
            "bin_edges": rep.bin_edges[1:-1],
            "counts_m": rep.counts_m,
            "counts_p": rep.counts_p,
        }
    if results.robustness is not None and results.robustness.hindcast is not None:
        summary = _record(results.robustness.hindcast)
        summary["n_cutoffs"] = len(summary.pop("predictions"))
        report["hindcast_summary"] = summary
    if results.grid_entries is not None:
        ok = [e for e in results.grid_entries if e.status == "ok"]
        report["grid_summary"] = {
            "n_entries": len(results.grid_entries),
            "n_ok": len(ok),
            "best_spec_aic": ok[0].spec.label() if ok else None,
        }
    path.write_text(
        json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 1


def _tables(results: ReportBundle):
    """Each CSV file the bundle carries, as (file name, {column name: values})."""
    if results.emit_data and results.obs is not None:
        yield "data.csv", _series_columns(results.obs)
    if results.simulation is not None:
        obs, sim, bands = results.obs, results.simulation, results.bands
        columns = {
            "year": obs.grid.years,
            "observed_m": obs.m,
            "observed_p": obs.p,
            "fitted_m": sim.flow_m,
            "fitted_p": sim.flow_p,
            "stock_m": sim.stock_m,
            "stock_p": sim.stock_p,
            **results.trajectories.as_dict(),
        }
        if bands is not None:
            for name in TRAJECTORY_NAMES:
                columns[f"{name}_lower"] = bands.lower[name]
                columns[f"{name}_upper"] = bands.upper[name]
        yield "trajectories.csv", columns
    if results.residual_report is not None:
        rep = results.residual_report
        yield "residuals.csv", {"year": rep.years, "residual_m": rep.r_m, "residual_p": rep.r_p}
    if results.grid_entries is not None:
        entries = results.grid_entries
        fits = [e.fit for e in entries]
        yield "grid.csv", {
            "rank": range(1, len(entries) + 1),
            "deg_gamma": [e.spec.deg_gamma for e in entries],
            "deg_rho": [e.spec.deg_rho for e in entries],
            "forcing": ["intl" if e.spec.forcing else "none" for e in entries],
            "k": [e.k for e in entries],
            "sse": [fit.sse if fit else None for fit in fits],
            "aic": [e.aic for e in entries],
            "delta_aic": [e.delta_aic for e in entries],
            "bic": [e.bic for e in entries],
            "delta_bic": [e.delta_bic for e in entries],
            "converged": [fit.converged if fit else None for fit in fits],
            "status": [e.status for e in entries],
            "reason": [e.reason.replace(",", ";") for e in entries],
            "local_optimum_warning": [e.local_optimum_warning for e in entries],
        }
    robustness = results.robustness
    if robustness is not None and robustness.truncation_rows:
        yield "truncation.csv", _record_columns(robustness.truncation_rows)
    if robustness is not None and robustness.hindcast is not None:
        yield "hindcast.csv", _record_columns(robustness.hindcast.predictions)


def _write_table(path: Path, columns: dict) -> int:
    """Write the header and one line per row of equally long ``columns``, cells by :func:`_cell`."""
    rows = list(zip(*columns.values(), strict=True))
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(map(_cell, row)) + "\n")
    return len(rows)


def _record(record) -> dict:
    """A dataclass instance as {field name: value}, in field order."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _record_columns(records: Sequence) -> dict:
    """Dataclass records as one column per field, in field order."""
    return {f.name: [getattr(r, f.name) for r in records] for f in fields(records[0])}
