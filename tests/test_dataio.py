import json
from dataclasses import fields, replace

import numpy as np
import pytest

from flowfit import (
    DataError,
    FitOptions,
    FitResult,
    ModelSpec,
    ReportBundle,
    TrajectoryBands,
    UncertaintyResult,
    YearGrid,
    eval_param_trajectories,
    generate,
    load_series,
    minimize_bfgs,
    run_grid,
    simulate,
    write_reports,
    write_series,
)
from flowfit.diagnostics import (
    HindcastPrediction,
    RobustnessReport,
    TruncationRow,
    residual_report,
    rolling_origin_hindcast,
    truncation_study,
)

from _scenarios import RECOVERY_SPEC, RECOVERY_THETA, recovery_scenario

HEADER = "year,bachelors,masters,phd"


def write_csv(path, rows, header=HEADER):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestLoadSeries:
    def test_well_formed_49_rows(self, tmp_path):
        rows = [f"{1969 + i},{1000 + i},{100 + i},{40 + i}" for i in range(49)]
        obs = load_series(write_csv(tmp_path / "d.csv", rows))
        assert obs.grid.n_years == 49
        assert obs.grid.t_min == 1969 and obs.grid.t_max == 2017
        assert obs.p_intl is None

    def test_optional_intl_column(self, tmp_path):
        rows = [f"{2000 + i},1000,100,40,{5 + i}" for i in range(5)]
        obs = load_series(write_csv(tmp_path / "d.csv", rows, HEADER + ",phd_intl"))
        assert obs.p_intl is not None
        assert obs.p_intl[2] == 7.0

    def test_rows_may_be_unsorted(self, tmp_path):
        rows = ["2002,3,30,3", "2000,1,10,1", "2001,2,20,2"]
        obs = load_series(write_csv(tmp_path / "d.csv", rows))
        assert list(obs.b) == [1.0, 2.0, 3.0]

    def test_gap_error_names_missing_year(self, tmp_path):
        rows = ["1969,1,1,1", "1971,1,1,1"]
        with pytest.raises(DataError, match="1970"):
            load_series(write_csv(tmp_path / "d.csv", rows))

    def test_duplicate_year_rejected(self, tmp_path):
        rows = ["2000,1,1,1", "2000,2,2,2", "2001,1,1,1"]
        with pytest.raises(DataError, match="duplicate year 2000"):
            load_series(write_csv(tmp_path / "d.csv", rows))

    def test_nonpositive_masters_names_row(self, tmp_path):
        rows = ["2000,1,1,1", "2001,1,0,1", "2002,1,1,1"]
        with pytest.raises(DataError, match="row 3"):
            load_series(write_csv(tmp_path / "d.csv", rows))

    def test_negative_bachelors_rejected(self, tmp_path):
        rows = ["2000,1,1,1", "2001,-5,1,1"]
        with pytest.raises(DataError, match="bachelors"):
            load_series(write_csv(tmp_path / "d.csv", rows))

    @pytest.mark.parametrize("column, value", [
        ("bachelors", "nan"),
        ("masters", "inf"),
        ("phd", "1e400"),
        ("phd_intl", "-inf"),
    ])
    def test_nonfinite_value_names_row_and_column(self, column, value, tmp_path):
        names = HEADER.split(",") + ["phd_intl"]
        bad = ",".join(value if name == column else "1" for name in names[1:])
        rows = ["2000,1,1,1,1", f"2001,{bad}", "2002,1,1,1,1"]
        with pytest.raises(DataError, match=f"row 3: {column} must be finite"):
            load_series(write_csv(tmp_path / "d.csv", rows, ",".join(names)))

    def test_first_bad_row_is_named(self, tmp_path):
        rows = ["2000,1,1,1,nan", "2001,1,1,1,1", "2002,inf,1,1,1"]
        with pytest.raises(DataError, match="row 2: phd_intl"):
            load_series(write_csv(tmp_path / "d.csv", rows, HEADER + ",phd_intl"))

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2000,1,1"], header="year,bachelors,masters")
        with pytest.raises(DataError, match="phd"):
            load_series(path)

    def test_unparseable_value_names_row(self, tmp_path):
        rows = ["2000,1,1,1", "2001,one,1,1"]
        with pytest.raises(DataError, match="row 3"):
            load_series(write_csv(tmp_path / "d.csv", rows))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_series(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_series(path)

    def test_extra_columns_ignored(self, tmp_path):
        rows = ["2000,1,1,1,junk", "2001,1,1,1,junk"]
        obs = load_series(write_csv(tmp_path / "d.csv", rows, HEADER + ",note"))
        assert obs.grid.n_years == 2

    def test_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark in front.
        rows = [f"{2000 + i},{1000 + i},{100 + i},{40 + i},{5 + i}" for i in range(5)]
        plain = write_csv(tmp_path / "plain.csv", rows, HEADER + ",phd_intl")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_series(plain), load_series(marked)
        assert got.grid == want.grid
        for name in ("b", "m", "p", "p_intl"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestRoundTrip:
    def test_write_then_load_equal(self, tmp_path):
        obs, _ = generate(recovery_scenario(grid=YearGrid(1990, 2005), p_intl=True))
        path = tmp_path / "series.csv"
        n = write_series(obs, path)
        assert n == 16
        back = load_series(path)
        assert back.grid == obs.grid
        # 10 significant digits survive the trip at these magnitudes
        assert np.allclose(back.m, obs.m, rtol=1e-9)
        assert np.allclose(back.p_intl, obs.p_intl, rtol=1e-9)


@pytest.fixture(scope="module")
def fitted_bundle():
    obs, _ = generate(recovery_scenario(grid=YearGrid(1985, 2004)))
    opts = FitOptions(n_starts=1, max_iter=300)
    fit = minimize_bfgs(RECOVERY_SPEC, obs, [RECOVERY_THETA], opts)
    traj = eval_param_trajectories(fit.theta_hat, RECOVERY_SPEC, obs.grid)
    sim = simulate(obs, traj, RECOVERY_SPEC)
    entries = run_grid(obs, FitOptions(n_starts=1, max_iter=30))
    robustness = RobustnessReport(
        truncation_rows=truncation_study(obs, RECOVERY_SPEC, [1990], opts),
        hindcast=rolling_origin_hindcast(obs, RECOVERY_SPEC, [1995], opts),
    )
    return ReportBundle(
        config_echo={"command": "test", "seed": 0},
        obs=obs,
        spec=RECOVERY_SPEC,
        fit=fit,
        trajectories=traj,
        simulation=sim,
        residual_report=residual_report(obs, sim),
        grid_entries=entries,
        robustness=robustness,
        n=40,
    )


class TestWriteReports:
    def test_manifest_lists_files_with_row_counts(self, fitted_bundle, tmp_path):
        manifest = write_reports(fitted_bundle, tmp_path / "out")
        assert manifest["trajectories.csv"] == 20
        assert manifest["residuals.csv"] == 20
        assert manifest["grid.csv"] == 18
        assert manifest["truncation.csv"] == 1
        assert manifest["hindcast.csv"] == 1
        assert manifest["run_report.json"] == 1
        listed = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert listed["files"] == manifest

    def test_trajectory_file_has_grid_length(self, fitted_bundle, tmp_path):
        write_reports(fitted_bundle, tmp_path / "out")
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        assert len(lines) == 1 + 20

    def test_reruns_byte_identical(self, fitted_bundle, tmp_path):
        out = tmp_path / "out"
        write_reports(fitted_bundle, out)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        write_reports(fitted_bundle, out)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_formats_filter(self, fitted_bundle, tmp_path):
        manifest = write_reports(fitted_bundle, tmp_path / "json_only", formats=("json",))
        assert set(manifest) == {"run_report.json"}
        manifest = write_reports(fitted_bundle, tmp_path / "csv_only", formats=("csv",))
        assert "run_report.json" not in manifest
        with pytest.raises(DataError, match="format"):
            write_reports(fitted_bundle, tmp_path / "bad", formats=("yaml",))

    def test_unknown_format_leaves_no_directory(self, fitted_bundle, tmp_path):
        out = tmp_path / "bad" / "sub"
        with pytest.raises(DataError, match="format"):
            write_reports(fitted_bundle, out, formats=("json", "yaml"))
        assert not (tmp_path / "bad").exists()

    def test_run_report_contents(self, fitted_bundle, tmp_path):
        write_reports(fitted_bundle, tmp_path / "out")
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["spec"]["k"] == 15
        assert report["fit"]["n_eff"] == 2 * 20 - 2
        assert "theta_hat" in report["fit"]
        assert len(report["fit"]["theta_hat"]) == 15
        assert report["config"]["seed"] == 0
        assert report["hindcast_summary"]["n_cutoffs"] == 1

    def test_float_formatting_ten_significant_digits(self, fitted_bundle, tmp_path):
        write_reports(fitted_bundle, tmp_path / "out")
        lines = (tmp_path / "out" / "trajectories.csv").read_text().splitlines()
        cell = lines[1].split(",")[7]  # a trajectory value in (0, 1)
        mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) <= 10

    def test_unwritable_directory(self, fitted_bundle, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(DataError, match="directory"):
            write_reports(fitted_bundle, target / "sub")


TRAJECTORY_HEADER = ("year,observed_m,observed_p,fitted_m,fitted_p,stock_m,stock_p,"
                     "rho_bm,rho_bp,rho_mp,gamma_m,gamma_p")
BAND_HEADER = ("rho_bm_lower,rho_bm_upper,rho_bp_lower,rho_bp_upper,rho_mp_lower,rho_mp_upper,"
               "gamma_m_lower,gamma_m_upper,gamma_p_lower,gamma_p_upper")
GRID_HEADER = ("rank,deg_gamma,deg_rho,forcing,k,sse,aic,delta_aic,bic,delta_bic,"
               "converged,status,reason,local_optimum_warning")


@pytest.fixture(scope="module")
def full_bundle(fitted_bundle):
    """``fitted_bundle`` with every optional piece: bands, uncertainty, criteria, notes, data."""
    k = fitted_bundle.spec.n_params
    traj = fitted_bundle.trajectories.as_dict()
    return replace(
        fitted_bundle,
        config_echo={"command": "test", "seed": 0, "gtol": 1 / 3},
        uncertainty=UncertaintyResult(hessian=np.eye(k), sigma2_hat=1 / 3,
                                      covariance=np.eye(k) / 7, regularization_applied=False),
        bands=TrajectoryBands(level=0.95, lower={n: v / 3 for n, v in traj.items()},
                              upper={n: v * 2 / 3 for n, v in traj.items()}),
        aic=-1 / 3,
        bic=2 / 3,
        notes=["a note"],
        emit_data=True,
    )


def floats_in(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from floats_in(item)
    elif isinstance(value, list):
        for item in value:
            yield from floats_in(item)


class TestReportLayout:
    """The exact columns and keys of every report file."""

    def header(self, out, name):
        return (out / name).read_text().splitlines()[0]

    def test_trajectories_header_without_bands(self, fitted_bundle, tmp_path):
        write_reports(fitted_bundle, tmp_path)
        assert self.header(tmp_path, "trajectories.csv") == TRAJECTORY_HEADER

    def test_trajectories_header_with_bands(self, full_bundle, tmp_path):
        write_reports(full_bundle, tmp_path)
        assert self.header(tmp_path, "trajectories.csv") == TRAJECTORY_HEADER + "," + BAND_HEADER
        row = (tmp_path / "trajectories.csv").read_text().splitlines()[1].split(",")
        assert len(row) == 22
        # each band pair follows its trajectory's order, lower then upper
        assert float(row[12]) < float(row[13])

    @pytest.mark.parametrize("p_intl, header", [
        (False, "year,bachelors,masters,phd"),
        (True, "year,bachelors,masters,phd,phd_intl"),
    ])
    def test_data_header(self, p_intl, header, tmp_path):
        obs, _ = generate(recovery_scenario(grid=YearGrid(1990, 2005), p_intl=p_intl))
        manifest = write_reports(ReportBundle(obs=obs, emit_data=True), tmp_path)
        assert manifest == {"run_report.json": 1, "data.csv": 16}
        assert self.header(tmp_path, "data.csv") == header

    def test_grid_header_and_skipped_cells(self, fitted_bundle, tmp_path):
        write_reports(fitted_bundle, tmp_path)
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == GRID_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 14 for row in rows)
        skipped = [row for row in rows if row[11] == "skipped"]
        assert len(skipped) == 9   # the fixture has no phd_intl proxy
        for row in skipped:
            assert row[3] == "intl"
            assert row[5:11] == [""] * 6   # sse, criteria and converged
            assert row[12] == "forcing requires a p_intl series"
            assert row[13] == "False"

    def test_robustness_headers_are_field_names(self, fitted_bundle, tmp_path):
        write_reports(fitted_bundle, tmp_path)
        for name, record in (("truncation.csv", TruncationRow), ("hindcast.csv", HindcastPrediction)):
            assert self.header(tmp_path, name) == ",".join(f.name for f in fields(record))

    def test_run_report_section_keys(self, full_bundle, tmp_path):
        write_reports(full_bundle, tmp_path)
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert set(report) == {
            "config", "notes", "data", "spec", "fit", "uncertainty", "residual_summary",
            "residual_histogram", "hindcast_summary", "grid_summary",
        }
        assert set(report["config"]) == {"command", "seed", "gtol"}
        assert report["notes"] == ["a note"]
        assert set(report["data"]) == {"t_min", "t_max", "n_years", "has_p_intl"}
        assert set(report["spec"]) == {"deg_gamma", "deg_rho", "forcing", "k"}
        assert set(report["fit"]) == {f.name for f in fields(FitResult)} | {"n", "n_eff", "aic", "bic"}
        assert set(report["uncertainty"]) == {
            "sigma2_hat", "regularization_applied", "covariance_diagonal",
        }
        assert len(report["uncertainty"]["covariance_diagonal"]) == 15
        assert set(report["residual_summary"]) == {"m", "p"}
        for series in ("m", "p"):
            assert set(report["residual_summary"][series]) == {"mean", "sd", "min", "max"}
        assert set(report["residual_histogram"]) == {"bin_edges", "counts_m", "counts_p"}
        assert set(report["hindcast_summary"]) == {
            "rmse_m", "rmse_p", "rmse_pooled", "n_cutoffs", "rescale",
        }
        assert set(report["grid_summary"]) == {"n_entries", "n_ok", "best_spec_aic"}

    def test_run_report_floats_have_ten_significant_digits(self, full_bundle, tmp_path):
        write_reports(full_bundle, tmp_path)
        report = json.loads((tmp_path / "run_report.json").read_text())
        values = list(floats_in(report))
        assert len(values) > 50
        for value in values:
            assert float(f"{value:.10g}") == value
        assert report["config"]["gtol"] == 0.3333333333
        assert report["fit"]["aic"] == -0.3333333333
        assert report["uncertainty"]["covariance_diagonal"][0] == 0.1428571429
