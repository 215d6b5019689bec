import csv
import json

import numpy as np
import pytest

from flowfit import YearGrid, diagnostics, estimation, generate, run_cli, selection, write_series

from _scenarios import RECOVERY_THETA, recovery_scenario

SCENARIO = {
    "t_min": 1969,
    "t_max": 2017,
    "spec": {"deg_gamma": 2, "deg_rho": 2, "forcing": False},
    "theta_true": list(RECOVERY_THETA),
    "b_input": {"kind": "piecewise",
                "points": [[1969, 25000], [1980, 12000], [2000, 15000], [2017, 28000]]},
    "stock_m0": 9000.0,
    "stock_p0": 4000.0,
    "noise_sd": 0.0,
    "seed": 0,
}

FAST = ["--n-starts", "1", "--max-iter", "400"]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "degrees.csv"
    obs, _ = generate(recovery_scenario(grid=YearGrid(1985, 2004)))
    write_series(obs, path)
    return path


@pytest.fixture(scope="module")
def data_csv_49(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "degrees49.csv"
    obs, _ = generate(recovery_scenario())
    write_series(obs, path)
    return path


@pytest.fixture(scope="module")
def data_csv_intl(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "degrees_intl.csv"
    obs, _ = generate(recovery_scenario(grid=YearGrid(1985, 2004), p_intl=True))
    write_series(obs, path)
    return path


class TestArgumentHandling:
    def test_no_command_exits_1(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        code = run_cli(["fit", "--no-such-flag"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_command_exits_1(self):
        assert run_cli(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_bad_spec_string(self, data_csv, tmp_path):
        code = run_cli(["fit", "--data", str(data_csv), "--spec", "5,2,none",
                        "--out", str(tmp_path)])
        assert code == 1

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = run_cli(["fit", "--data", str(missing), "--out", str(tmp_path)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err


class TestFit:
    def test_noise_free_fit_exit_0_and_tiny_sse(self, data_csv_49, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["fit", "--data", str(data_csv_49), "--spec", "2,2,none",
                        "--out", str(out), "--n-starts", "4"])
        assert code == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["fit"]["sse"] <= 1e-10
        assert report["fit"]["converged"] is True
        assert (out / "trajectories.csv").exists()
        assert (out / "residuals.csv").exists()

    def test_unconverged_fit_exits_2(self, data_csv, tmp_path):
        code = run_cli(["fit", "--data", str(data_csv), "--out", str(tmp_path / "x"),
                        "--n-starts", "1", "--max-iter", "0"])
        assert code == 2


class TestGrid:
    def test_grid_without_proxy_writes_18_rows(self, data_csv, tmp_path):
        out = tmp_path / "grid"
        code = run_cli(["grid", "--data", str(data_csv), "--out", str(out),
                        "--n-starts", "1", "--max-iter", "400"])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 18
        assert sum("skipped" in line for line in lines) == 9

    def test_jobs_below_one_exits_1(self, data_csv, tmp_path, capsys):
        code = run_cli(["grid", "--data", str(data_csv), "--out", str(tmp_path / "g"),
                        "--jobs", "0"])
        assert code == 1
        assert "jobs" in capsys.readouterr().err

    def test_grid_with_proxy_fits_everything(self, data_csv_intl, tmp_path):
        out = tmp_path / "grid"
        code = run_cli(["grid", "--data", str(data_csv_intl), "--out", str(out),
                        "--n-starts", "1", "--max-iter", "400", "--jobs", "2"])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 18
        assert not any("skipped" in line for line in lines)


class TestBandsAndDiagnose:
    def test_bands_columns_inside_unit_interval(self, data_csv, tmp_path):
        out = tmp_path / "bands"
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(out),
                        "--n-draws", "300", "--level", "0.95", *FAST])
        assert code == 0
        lines = (out / "trajectories.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "rho_bm_lower" in header and "gamma_p_upper" in header
        lo = header.index("rho_bm_lower")
        hi = header.index("rho_bm_upper")
        for line in lines[1:]:
            cells = line.split(",")
            assert 0.0 < float(cells[lo]) <= float(cells[hi]) < 1.0
        report = json.loads((out / "run_report.json").read_text())
        assert "sigma2_hat" in report["uncertainty"]

    def test_diagnose_writes_residual_table(self, data_csv, tmp_path):
        out = tmp_path / "diag"
        code = run_cli(["diagnose", "--data", str(data_csv), "--out", str(out), *FAST])
        assert code == 0
        lines = (out / "residuals.csv").read_text().splitlines()
        assert len(lines) == 1 + 20


class TestNumericalFailureExits2:
    """Numerical failures past a converged fit exit 2, not 1 (data/config)."""

    def test_nonfinite_hessian(self, data_csv, tmp_path, monkeypatch, capsys):
        real = estimation.loss_batch

        def nan_on_hessian_stencil(thetas, *args, **kwargs):
            values = real(thetas, *args, **kwargs)
            if len(thetas) > 2 * thetas.shape[1]:   # wider than a gradient stencil
                values[:] = np.nan
            return values

        monkeypatch.setattr(estimation, "loss_batch", nan_on_hessian_stencil)
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(tmp_path / "b"),
                        "--n-draws", "50", *FAST])
        assert code == 2
        assert "non-finite Hessian" in capsys.readouterr().err

    def test_hessian_without_positive_curvature(self, data_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(estimation, "numerical_hessian",
                            lambda theta, *args, **kwargs: -np.eye(len(theta)))
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(tmp_path / "b"),
                        "--n-draws", "50", *FAST])
        assert code == 2
        assert "no positive curvature" in capsys.readouterr().err

    def test_nonpositive_hindcast_prediction(self, data_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(diagnostics, "_predict_next_year", lambda *args: (0.0, 10.0))
        code = run_cli(["robust", "--data", str(data_csv), "--out", str(tmp_path / "r"),
                        "--truncation-starts", "1990", "--cutoffs", "1995", *FAST])
        assert code == 2
        assert "hindcast for 1996" in capsys.readouterr().err


class TestRobust:
    def test_robust_tables(self, data_csv, tmp_path):
        out = tmp_path / "robust"
        code = run_cli(["robust", "--data", str(data_csv), "--out", str(out),
                        "--truncation-starts", "1990", "--cutoffs", "1995,1999", *FAST])
        assert code == 0
        trunc = (out / "truncation.csv").read_text().splitlines()
        assert len(trunc) == 1 + 1
        hind = (out / "hindcast.csv").read_text().splitlines()
        assert len(hind) == 1 + 2
        report = json.loads((out / "run_report.json").read_text())
        assert report["hindcast_summary"]["n_cutoffs"] == 2


class TestSynth:
    def test_synth_writes_loadable_data(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(SCENARIO))
        out = tmp_path / "synth"
        code = run_cli(["synth", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == 0
        data = (out / "data.csv").read_text().splitlines()
        assert len(data) == 1 + 49
        fit_out = tmp_path / "fitback"
        code = run_cli(["fit", "--data", str(out / "data.csv"), "--out", str(fit_out),
                        "--n-starts", "4"])
        assert code == 0
        report = json.loads((fit_out / "run_report.json").read_text())
        assert report["fit"]["sse"] <= 1e-10

    def test_synth_requires_scenario(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path)]) == 1

    def test_invalid_scenario_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["synth", "--scenario", str(bad), "--out", str(tmp_path)]) == 1


class TestConfigAndEnvironment:
    def test_config_file_supplies_defaults(self, data_csv, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "data": str(data_csv),
            "optimizer": {"n_starts": 1, "max_iter": 50},
        }))
        out = tmp_path / "out"
        code = run_cli(["fit", "--config", str(config), "--out", str(out)])
        assert code in (0, 2)  # rough fit may stop unconverged; config was honored
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["optimizer"]["n_starts"] == 1
        assert report["config"]["optimizer"]["max_iter"] == 50

    def test_flag_overrides_config(self, data_csv, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"data": str(data_csv),
                                      "optimizer": {"n_starts": 5}}))
        out = tmp_path / "out"
        run_cli(["fit", "--config", str(config), "--out", str(out),
                 "--n-starts", "1", "--max-iter", "60"])
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["optimizer"]["n_starts"] == 1

    @pytest.mark.parametrize("config, message", [
        ({"optimizer": [1]}, "'optimizer' must be an object"),
        ({"formats": 5}, "'formats' must be a string or a list of strings"),
        ({"optimizer": {"n_starts": "8"}}, "'optimizer.n_starts' must be an integer"),
        ({"uncertainty": {"level": None}}, "'uncertainty.level' must be a number"),
        ({"robustness": {"cutoffs": [1995, "2000"]}}, "must be a list of integers"),
        ({"jobs": True}, "'jobs' must be an integer"),
    ])
    def test_config_value_of_wrong_type_exits_1(self, data_csv, tmp_path, capsys,
                                                config, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = run_cli(["fit", "--config", str(path), "--data", str(data_csv),
                        "--out", str(tmp_path / "out"), *FAST])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_dir_env_default(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOWFIT_OUT_DIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        code = run_cli(["fit", "--data", str(data_csv), "--n-starts", "1",
                        "--max-iter", "60"])
        assert code in (0, 2)
        assert (tmp_path / "from_env" / "run_report.json").exists()


class TestReport:
    def test_report_selects_best_spec_when_unspecified(self, data_csv, tmp_path):
        out = tmp_path / "report"
        code = run_cli(["report", "--data", str(data_csv), "--out", str(out),
                        "--n-starts", "1", "--max-iter", "400", "--n-draws", "200",
                        "--truncation-starts", "1990", "--cutoffs", "1995"])
        assert code in (0, 2)
        report = json.loads((out / "run_report.json").read_text())
        assert "spec" in report and "grid_summary" in report
        picked = report["spec"]
        label = (f"{picked['deg_gamma']},{picked['deg_rho']},"
                 f"{'intl' if picked['forcing'] else 'none'}")
        assert report["grid_summary"]["best_spec_aic"] == label
        assert (out / "grid.csv").exists()
        assert (out / "truncation.csv").exists()


    def test_report_fit_is_the_grid_row(self, data_csv, tmp_path):
        out = tmp_path / "report"
        code = run_cli(["report", "--data", str(data_csv), "--out", str(out), "--seed", "3",
                        "--n-starts", "2", "--max-iter", "200", "--n-draws", "200",
                        "--truncation-starts", "1990", "--cutoffs", "1995"])
        assert code in (0, 2)
        report = json.loads((out / "run_report.json").read_text())
        picked = report["spec"]
        with (out / "grid.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        (row,) = [r for r in rows
                  if (int(r["deg_gamma"]), int(r["deg_rho"]), r["forcing"] == "intl")
                  == (picked["deg_gamma"], picked["deg_rho"], picked["forcing"])]
        assert report["fit"]["sse"] == float(row["sse"])
        assert report["fit"]["converged"] == (row["converged"] == "True")

    def test_report_on_unfittable_spec_exits_1_with_reason(self, data_csv, tmp_path, capsys):
        code = run_cli(["report", "--data", str(data_csv), "--spec", "0,0,intl",
                        "--out", str(tmp_path / "r"), "--n-starts", "1", "--max-iter", "20",
                        "--truncation-starts", "1990", "--cutoffs", "1995"])
        assert code == 1
        assert "forcing requires a p_intl series" in capsys.readouterr().err


class TestSettingsCheckedBeforeFitting:
    """A bad setting exits 1 with a message before the grid or the fit runs."""

    BAD = [
        (["--formats", "xml"], "unknown format 'xml'"),
        (["--level", "1.5"], "level must lie strictly inside (0, 1)"),
        (["--level", "0"], "level must lie strictly inside (0, 1)"),
        (["--n-draws", "1"], "n_draws must be at least 2"),
        (["--spec", "0,0,intl"], "forcing requires a p_intl series"),
    ]

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("fitting started before the settings were checked")

    @pytest.mark.parametrize("flags, message", BAD + [
        (["--cutoffs", "1800"], "cutoff 1800 must lie strictly inside (1985, 2004)"),
        (["--cutoffs", "2004"], "cutoff 2004 must lie strictly inside"),
        (["--truncation-starts", "1700"], "start year 1700 outside the grid"),
        (["--truncation-starts", "2003"], "window starting 2003 has 2 years, too short for k=15"),
    ])
    def test_report(self, data_csv, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        argv = ["report", "--data", str(data_csv), "--out", str(tmp_path / "r"),
                "--spec", "2,2,none", "--truncation-starts", "1990", "--cutoffs", "1995"]
        assert run_cli(argv + flags) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_report_config_rescale(self, data_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"robustness": {"rescale": "sideways"}}))
        code = run_cli(["report", "--data", str(data_csv), "--config", str(config),
                        "--out", str(tmp_path / "r")])
        assert code == 1
        assert "rescale must be 'window' or 'full'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", BAD)
    def test_bands(self, data_csv, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(estimation, "minimize_bfgs", self.refuse)
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(tmp_path / "b"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_bad_level_on_unconverged_fit_exits_1(self, data_csv, tmp_path, capsys):
        # Without the up-front check the bands were skipped and this exited 2.
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(tmp_path / "b"),
                        "--n-starts", "1", "--max-iter", "0", "--level", "1.5"])
        assert code == 1
        assert "level must lie strictly inside (0, 1)" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_same_directory_byte_identical(self, data_csv, tmp_path):
        out = tmp_path / "out"
        argv = ["report", "--data", str(data_csv), "--spec", "2,2,none",
                "--out", str(out), "--n-starts", "1", "--max-iter", "120",
                "--n-draws", "200", "--truncation-starts", "1990",
                "--cutoffs", "1995"]
        assert run_cli(argv) in (0, 2)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli(argv) in (0, 2)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert "grid.csv" in first and "trajectories.csv" in first
