import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowfit import (YearGrid, cli, diagnostics, estimation, generate, logit, run_cli,
                     selection, synthetic, write_series)
from flowfit.cli import SETTINGS, build_parser, main
from flowfit.model import SUPERSET_SPEC, ModelSpec

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

    @pytest.mark.parametrize("argv", [[], ["--help"], ["frobnicate"], ["fi"]]
                             + [[command, flag] for command in cli.COMMANDS
                                for flag in ("--help", "--no-such-flag", "--config")])
    def test_output_is_the_full_parsers(self, argv, capsys, monkeypatch):
        # run_cli builds only the subparser argv[0] names; its help, usage
        # and errors are the bytes the parser of every command gives.
        want = run_cli(argv), capsys.readouterr()
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert (run_cli(argv), capsys.readouterr()) == want

    @pytest.mark.parametrize("command", ["fit", "bands", "diagnose", "robust", "report"])
    def test_help_names_the_spec_default_the_run_uses(self, command, capsys, monkeypatch):
        # report without --spec reports the grid's AIC-best spec; the
        # other commands fit the default spec.  A wide terminal keeps each
        # help on one line.
        monkeypatch.setenv("COLUMNS", "200")
        assert run_cli([command, "--help"]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.lstrip().startswith("--spec")]
        default = ("(default: the grid's AIC-best spec)" if command == "report"
                   else "(default 2,2,none)")
        assert line.endswith("DEG_GAMMA,DEG_RHO,none|intl " + default)

    def test_bad_spec_string(self, data_csv, tmp_path):
        code = run_cli(["fit", "--data", str(data_csv), "--spec", "5,2,none",
                        "--out", str(tmp_path)])
        assert code == 1

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = run_cli(["fit", "--data", str(missing), "--out", str(tmp_path)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code", [("synth", 0), ("fit", 1)])
    def test_main_exits_with_run_cli_code(self, tmp_path, monkeypatch, capsys, command, code):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        flags = ["--scenario", str(scenario)] if command == "synth" else []
        monkeypatch.setattr(sys, "argv", ["flowfit", command, "--out", str(tmp_path / "r"),
                                          *flags])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code
        if code == 1:
            assert "--data is required" in capsys.readouterr().err

    @staticmethod
    def run_python(tmp_path, *args):
        """A fresh interpreter on this source tree, run in ``tmp_path``."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(estimation.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    def test_module_run_exits_with_run_cli_code(self, tmp_path):
        # ``python -m flowfit.cli`` runs ``main``, as the installed script
        # does.  ``import flowfit`` leaves the CLI module unloaded, so runpy
        # warns of nothing: under -W error a warning would end the run with
        # a traceback before the error line.
        missing = tmp_path / "nope.csv"
        done = self.run_python(tmp_path, "-W", "error::RuntimeWarning", "-m", "flowfit.cli",
                               "fit", "--data", str(missing), "--out", str(tmp_path / "r"))
        assert done.returncode == 1
        assert done.stderr.splitlines() == [f"error: data file not found: {missing}"]
        assert not (tmp_path / "r").exists()

    def test_import_loads_neither_the_cli_nor_the_process_pool(self, tmp_path):
        # argparse comes with the CLI and multiprocessing with the process
        # pool; a plain ``import flowfit`` needs neither, nor mmap (lane
        # kernels work in heap buffers), and ``run_cli`` still resolves, by
        # attribute and by name.
        done = self.run_python(tmp_path, "-c", "import sys, flowfit; print(sorted(\n"
                               "    m for m in ('argparse', 'mmap', 'multiprocessing',\n"
                               "                'flowfit.cli')\n"
                               "    if m in sys.modules))\n"
                               "from flowfit import run_cli\n"
                               "import flowfit.cli\n"
                               "assert run_cli is flowfit.run_cli is flowfit.cli.run_cli\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]"]


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

    def test_jobs_below_one_exits_1(self, tmp_path, capsys):
        # The data file does not exist: --jobs is checked before the load.
        code = run_cli(["grid", "--data", str(tmp_path / "missing.csv"),
                        "--out", str(tmp_path / "g"), "--jobs", "0"])
        assert code == 1
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

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
        real = estimation._spec_lanes

        def nan_gradients(*args, **kwargs):
            values, grads = real(*args, **kwargs)
            grads[:] = np.nan
            return values, grads

        # The Hessian's one kernel call returns NaN gradients.
        monkeypatch.setattr(estimation, "_spec_lanes", nan_gradients)
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


    def test_default_truncation_starts_leave_windows_the_spec_fits(self, data_csv, tmp_path):
        # 1985-2004: the default start 2000 would leave 5 years, too few for
        # the default spec's k = 15; it is dropped, and 1990 and 1995 remain.
        out = tmp_path / "robust"
        code = run_cli(["robust", "--data", str(data_csv), "--out", str(out), *FAST])
        assert code in (0, 2)
        with (out / "truncation.csv").open() as handle:
            assert [row["start_year"] for row in csv.DictReader(handle)] == ["1990", "1995"]
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["robustness"]["truncation_starts"] == [1990, 1995]

    def test_default_cutoffs_leave_windows_the_spec_fits(self, data_csv, tmp_path):
        # 1985-2004: the default cutoff 1990 would leave a 6-year window, too
        # few for k = 15; it is dropped, and 1995 and 2000 remain.
        out = tmp_path / "robust"
        code = run_cli(["robust", "--data", str(data_csv), "--out", str(out),
                        "--truncation-starts", "1990", *FAST])
        assert code in (0, 2)
        with (out / "hindcast.csv").open() as handle:
            assert [row["cutoff"] for row in csv.DictReader(handle)] == ["1995", "2000"]
        report = json.loads((out / "run_report.json").read_text())
        assert report["config"]["robustness"]["cutoffs"] == [1995, 2000]

    @pytest.mark.parametrize("spec, cutoffs", [
        (SUPERSET_SPEC, [2005, 2010, 2015]),
        (ModelSpec(2, 2, False), [2000, 2005, 2010, 2015]),
        # 4 years leave N_eff = 6: enough for k = 5, not for k = 6.
        (ModelSpec(0, 0, True), [2000, 2005, 2010, 2015]),
        (ModelSpec(0, 0, False), [1995, 2000, 2005, 2010, 2015]),
    ], ids=["2,2,intl", "2,2,none", "0,0,intl", "0,0,none"])
    def test_default_years_are_those_whose_window_fits_the_spec(self, spec, cutoffs):
        # 1992-2017: the cutoffs 1995 and 2000 leave 4 and 9 years, every
        # default start at least 11.
        defaults = {row.name: row.default for row in SETTINGS}
        grid = YearGrid(1992, 2017)
        assert defaults["cutoffs"](grid, spec) == cutoffs
        assert defaults["truncation_starts"](grid, spec) == [1997, 2002, 2007]

    @pytest.mark.parametrize("flags, cutoffs", [
        (["--spec", "2,2,none"], [2000, 2005, 2010, 2015]),
        # The grid picks the spec, so the 9-year window to 2000 must fit k = 16.
        ([], [2005, 2010, 2015]),
    ], ids=["spec", "grid-picks"])
    def test_report_echoes_the_default_cutoffs_of_its_spec(self, tmp_path, flags, cutoffs):
        obs, _ = generate(recovery_scenario(grid=YearGrid(1992, 2017)))
        data = tmp_path / "d26.csv"
        write_series(obs, data)
        out = tmp_path / "report"
        # No fit converges in 0 iterations, so the run exits 2, but it reports.
        code = run_cli(["report", "--data", str(data), "--out", str(out), "--n-starts", "1",
                        "--max-iter", "0", "--n-draws", "2", *flags])
        assert code == 2
        robustness = json.loads((out / "run_report.json").read_text())["config"]["robustness"]
        assert robustness["cutoffs"] == cutoffs
        assert robustness["truncation_starts"] == [1997, 2002, 2007]


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

    def test_scenario_with_byte_order_mark(self, tmp_path):
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{encoding}.json"
            path.write_text(json.dumps(SCENARIO), encoding=encoding)
            out = tmp_path / encoding
            assert run_cli(["synth", "--scenario", str(path), "--out", str(out)]) == 0
        assert ((tmp_path / "utf-8-sig" / "data.csv").read_bytes()
                == (tmp_path / "utf-8" / "data.csv").read_bytes())

    def test_scenario_not_utf8_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"t_min": 1969, "t_max": \xff}')
        assert run_cli(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "scenario file is not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_scenario_with_overflowing_flows_is_degenerate(self, tmp_path, capsys):
        # A PhD stock near the largest float that hardly drains, fed by a
        # master's stock as large, overflows a year on; the error blames
        # the scenario, not a PhD series the user never gave.
        path = tmp_path / "scenario.json"
        theta = [logit(0.3), logit(0.05), logit(0.9), logit(0.5), logit(1e-6)]
        path.write_text(json.dumps({
            **SCENARIO, "spec": {"deg_gamma": 0, "deg_rho": 0}, "theta_true": theta,
            "stock_m0": 1.7e308, "stock_p0": 1.7e308}))
        assert run_cli(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "degenerate scenario: implied flows must stay finite and positive" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("noise_sd", float("nan")), ("noise_sd", float("inf")), ("stock_m0", float("nan")),
        ("stock_p0", float("inf"))])
    def test_non_finite_scenario_number_exits_1_naming_it(self, tmp_path, capsys, field,
                                                          value):
        # Python's json reads NaN and Infinity; the error names the field
        # rather than a series or the implied flows it would spoil.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, field: value}))
        assert run_cli(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be finite" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_synth_requires_scenario(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path)]) == 1

    def test_invalid_scenario_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["synth", "--scenario", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("named, scenario", [
        ("scenario must be a JSON object", [SCENARIO]),
        ("'t_min'", {**SCENARIO, "t_min": [1]}),
        ("'spec'", {**SCENARIO, "spec": 3}),
        ("'b_input'", {**SCENARIO, "b_input": "x"}),
        ("'p_intl_input'", {**SCENARIO, "p_intl_input": None}),
        ("'seed'", {**SCENARIO, "seed": None}),
        ("'t_max'", {**SCENARIO, "t_max": 1e400}),
    ], ids=["top_level_list", "list_year", "int_spec", "str_input", "null_proxy", "null_seed",
            "inf_year"])
    def test_scenario_of_wrong_shape_exits_1_naming_the_field(self, tmp_path, capsys,
                                                             named, scenario):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert run_cli(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("named, spec, fields", [
        ("'forcing'", {"forcing": "false"}, {}),
        ("'forcing'", {"forcing": 0}, {}),
        ("'deg_gamma'", {"deg_gamma": True}, {}),
        ("'deg_rho'", {"deg_rho": 2.0}, {}),
        ("'t_min'", {}, {"t_min": 1969.7}),
        ("'t_max'", {}, {"t_max": "2017"}),
        ("'seed'", {}, {"seed": 1.5}),
        ("'seed'", {}, {"seed": True}),
        ("'t_min'", {}, {"t_min": -5, "t_max": 40}),
        ("'t_min'", {}, {"t_min": 10**30, "t_max": 10**30 + 48,
                         "b_input": {"kind": "constant", "level": 20000.0}}),
    ], ids=["string_forcing", "int_forcing", "bool_degree", "float_degree", "float_year",
            "string_year", "float_seed", "bool_seed", "negative_year", "huge_year"])
    def test_scenario_field_of_wrong_json_type_exits_1_naming_it(self, tmp_path, capsys,
                                                                 named, spec, fields):
        # Converting with bool() or int() would read each of these as some
        # other scenario, or fail later with a traceback.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, "spec": {**SCENARIO["spec"], **spec}, **fields}))
        assert run_cli(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_scenario_year_span_is_bounded(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(synthetic, "generate", lambda scenario: pytest.fail("generated"))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, "t_min": 1000, "t_max": 2000}))
        assert run_cli(["synth", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "MAX_SCENARIO_YEARS = 1000" in capsys.readouterr().err


# Each config file of these tests starts from this, so the runs stay short.
QUICK_CONFIG = {"optimizer": {"n_starts": 1, "max_iter": 30},
                "robustness": {"truncation_starts": [1990], "cutoffs": [1995]}}
# Per setting: its flag's argument (none for a switch), a value other than
# the default that the flag gives, and another value for the config file.
# Paths are relative to the run's directory, which holds degrees.csv and
# scenario.json; the flag's output directory echoes without its slash.
PRECEDENCE = {
    "out": (["results/"], "results", "elsewhere"),
    "formats": (["json,csv"], ["json", "csv"], "json"),
    "scenario": (["scenario.json"], "scenario.json", "missing.json"),
    "data": (["degrees.csv"], "degrees.csv", "missing.csv"),
    "spec": (["1,1,none"], "1,1,none", "0,0,none"),
    "n_starts": (["2"], 2, 3),
    "seed": (["3"], 3, 4),
    "max_iter": (["40"], 40, 20),
    "gtol": (["0.001"], 0.001, 0.01),
    "ftol_rel": (["1e-09"], 1e-09, 1e-08),
    "n_draws": (["60"], 60, 50),
    "level": (["0.9"], 0.9, 0.8),
    "draw_seed": (["5"], 5, 6),
    "truncation_starts": (["1992"], [1992], [1991]),
    "cutoffs": (["1997"], [1997], [1996]),
    "rescale": (["full"], "full", "window"),
    "jobs": (["2"], 2, 3),
    "use_n_eff": ([], True, False),
}


class TestConfigAndEnvironment:
    @staticmethod
    def echoed(data_csv, tmp_path, monkeypatch, row, config_value, flags=()):
        """The value at ``row``'s echo path after a run of the first command that takes
        ``row``, with ``config_value`` in its config."""
        monkeypatch.chdir(tmp_path)
        shutil.copy(data_csv, "degrees.csv")
        Path("scenario.json").write_text(json.dumps(SCENARIO))
        cfg = json.loads(json.dumps(QUICK_CONFIG))
        cfg.update(data="degrees.csv", scenario="scenario.json")
        section, field = row.path
        (cfg.setdefault(section, {}) if section else cfg)[field] = config_value
        Path("run.json").write_text(json.dumps(cfg))
        out = [] if row.name == "out" else ["--out", "out"]
        code = run_cli([row.commands[0], "--config", "run.json", *out, *flags])
        assert code in (0, 2)   # a rough fit may stop unconverged
        (report,) = tmp_path.glob("*/run_report.json")
        echo = json.loads(report.read_text())["config"]
        return (echo[section] if section else echo)[field]

    @pytest.mark.parametrize("row", SETTINGS, ids=lambda row: row.name)
    def test_config_file_supplies_defaults(self, data_csv, tmp_path, monkeypatch, row):
        _, value, _ = PRECEDENCE[row.name]
        assert value != row.default
        assert self.echoed(data_csv, tmp_path, monkeypatch, row, value) == value

    @pytest.mark.parametrize("row", SETTINGS, ids=lambda row: row.name)
    def test_flag_overrides_config(self, data_csv, tmp_path, monkeypatch, row):
        flag_args, value, config_value = PRECEDENCE[row.name]
        flags = ["--" + row.name.replace("_", "-"), *flag_args]
        assert self.echoed(data_csv, tmp_path, monkeypatch, row, config_value, flags) == value

    @pytest.mark.parametrize("config, message", [
        ({"optimizer": [1]}, "'optimizer' must be an object"),
        ({"formats": 5}, "'formats' must be a string or a list of strings"),
        ({"optimizer": {"n_starts": "8"}}, "'optimizer.n_starts' must be an integer"),
        ({"uncertainty": {"level": None}}, "'uncertainty.level' must be a number"),
        ({"robustness": {"cutoffs": [1995, "2000"]}}, "must be a list of integers"),
        ({"jobs": True}, "'jobs' must be an integer"),
        # Keys that no setting reads, and a number too large for a float.
        ({"uncertainty": {"draw_seed": 3, "n_draw": 50}, "optimizer": {"n_start": 1}},
         "unknown config keys 'uncertainty.draw_seed', 'uncertainty.n_draw', "
         "'optimizer.n_start'"),
        ({"n_starts": 1}, "unknown config key 'n_starts'"),
        ({"robust": {"cutoffs": [1995]}}, "unknown config key 'robust'"),
        ({"optimizer": {"gtol": 10 ** 400}}, "gtol must be a finite number >= 0, got inf"),
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

    def test_config_with_byte_order_mark(self, data_csv, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"optimizer": {"n_starts": 2}}), encoding="utf-8-sig")
        code = run_cli(["fit", "--config", str(path), "--data", str(data_csv),
                        "--out", str(tmp_path / "out"), "--max-iter", "400"])
        assert code in (0, 2)
        echo = json.loads((tmp_path / "out" / "run_report.json").read_text())["config"]
        assert echo["optimizer"]["n_starts"] == 2

    def test_config_not_utf8_exits_1_naming_it(self, data_csv, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"optimizer": {"n_starts": \xff}}')
        code = run_cli(["fit", "--config", str(path), "--data", str(data_csv),
                        "--out", str(tmp_path / "out"), *FAST])
        assert code == 1
        err = capsys.readouterr().err
        assert "config file is not UTF-8 text: 'utf-8' codec can't decode byte 0xff" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_dir_env_default(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOWFIT_OUT_DIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        code = run_cli(["fit", "--data", str(data_csv), "--n-starts", "1",
                        "--max-iter", "60"])
        assert code in (0, 2)
        assert (tmp_path / "from_env" / "run_report.json").exists()

    def test_out_dir_precedence_over_the_environment(self, data_csv, tmp_path, monkeypatch):
        # A config file's ``out`` beats $FLOWFIT_OUT_DIR, and --out beats both.
        monkeypatch.setenv("FLOWFIT_OUT_DIR", str(tmp_path / "from_env"))
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"out": "from_config"}))
        argv = ["fit", "--config", "run.json", "--data", str(data_csv), *FAST]
        for flags, used in (([], "from_config"), (["--out", "from_flag"], "from_flag")):
            assert run_cli(argv + flags) in (0, 2)
            echo = json.loads((tmp_path / used / "run_report.json").read_text())["config"]
            assert echo["out"] == used
        assert not (tmp_path / "from_env").exists()


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


    @staticmethod
    def report_and_grid_row(data_csv, out, flags=()):
        """``run_report.json`` of a quick report and the ``grid.csv`` row of its spec."""
        code = run_cli(["report", "--data", str(data_csv), "--out", str(out), "--seed", "3",
                        "--n-starts", "2", "--max-iter", "200", "--n-draws", "200",
                        "--truncation-starts", "1990", "--cutoffs", "1995", *flags])
        assert code in (0, 2)
        report = json.loads((out / "run_report.json").read_text())
        picked = report["spec"]
        with (out / "grid.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        (row,) = [r for r in rows
                  if (int(r["deg_gamma"]), int(r["deg_rho"]), r["forcing"] == "intl")
                  == (picked["deg_gamma"], picked["deg_rho"], picked["forcing"])]
        return report, row

    def test_report_fit_is_the_grid_row(self, data_csv, tmp_path):
        report, row = self.report_and_grid_row(data_csv, tmp_path / "report")
        assert report["fit"]["sse"] == float(row["sse"])
        assert report["fit"]["converged"] == (row["converged"] == "True")
        assert report["fit"]["n"] == 2 * 20
        assert report["fit"]["aic"] == float(row["aic"])
        assert report["fit"]["bic"] == float(row["bic"])

    def test_use_n_eff_report_criteria_are_the_grid_row(self, data_csv, tmp_path):
        report, row = self.report_and_grid_row(data_csv, tmp_path / "report", ["--use-n-eff"])
        assert report["fit"]["n"] == 2 * 20 - 2
        assert report["fit"]["aic"] == float(row["aic"])
        assert report["fit"]["bic"] == float(row["bic"])

    def test_unconverged_report_notes_skipped_bands(self, data_csv, tmp_path):
        out = tmp_path / "report"
        code = run_cli(["report", "--data", str(data_csv), "--spec", "2,2,none",
                        "--out", str(out), "--n-starts", "1", "--max-iter", "0",
                        "--truncation-starts", "1990", "--cutoffs", "1995"])
        assert code == 2
        report = json.loads((out / "run_report.json").read_text())
        assert report["fit"]["converged"] is False
        assert "bands skipped: fit did not converge" in report["notes"]
        assert "bands" not in report

    def test_report_with_default_truncation_starts(self, data_csv, tmp_path):
        # The grid picks the spec, so the default starts must suit any spec.
        out = tmp_path / "report"
        code = run_cli(["report", "--data", str(data_csv), "--out", str(out),
                        "--n-draws", "200", *FAST])
        assert code in (0, 2)
        with (out / "truncation.csv").open() as handle:
            assert [row["start_year"] for row in csv.DictReader(handle)] == ["1990", "1995"]

    def test_report_on_unfittable_spec_exits_1_with_reason(self, data_csv, tmp_path, capsys):
        code = run_cli(["report", "--data", str(data_csv), "--spec", "0,0,intl",
                        "--out", str(tmp_path / "r"), "--n-starts", "1", "--max-iter", "20",
                        "--truncation-starts", "1990", "--cutoffs", "1995"])
        assert code == 1
        assert "forcing requires a p_intl series" in capsys.readouterr().err


# The spec a command's default refit windows must fit, as its messages name it.
WINDOW_SPEC = {"robust": "spec 2,2,none (k=15)", "report": "every spec (k=16)"}


class TestSettingsCheckedBeforeFitting:
    """A bad setting exits 1 with a message before the grid or the fit runs."""

    BAD = [
        (["--formats", "xml"], "unknown format 'xml'"),
        (["--level", "1.5"], "level must lie strictly inside (0, 1)"),
        (["--level", "0"], "level must lie strictly inside (0, 1)"),
        (["--n-draws", "1"], "n_draws must be at least 2"),
        (["--spec", "0,0,intl"], "forcing requires a p_intl series"),
    ]
    # Sizes and tolerances, checked before the data are loaded.
    BOUNDS = [
        (["--n-draws", "100001"], "n_draws must be at most 100000"),
        (["--n-draws", "1000000000000"], "n_draws must be at most 100000"),
        (["--n-starts", "0"], "n_starts must be at least 1"),
        (["--n-starts", "1001"], "n_starts must be at most 1000"),
        (["--max-iter", "-1"], "max_iter must be at least 0"),
        (["--max-iter", "100001"], "max_iter must be at most 100000"),
        (["--gtol", "-1"], "gtol must be a finite number >= 0"),
        (["--gtol", "nan"], "gtol must be a finite number >= 0"),
        (["--gtol", "inf"], "gtol must be a finite number >= 0"),
        (["--ftol-rel", "-1"], "ftol_rel must be a finite number >= 0"),
        (["--seed", "-1"], "seed must be at least 0"),
        (["--draw-seed", "-1"], "draw_seed must be at least 0"),
    ]

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("fitting started before the settings were checked")

    @pytest.mark.parametrize("flags, message", BAD + [
        (["--cutoffs", "1800"], "cutoff 1800 must lie strictly inside (1985, 2004)"),
        (["--cutoffs", "2004"], "cutoff 2004 must lie strictly inside"),
        (["--truncation-starts", "1700"], "start year 1700 outside the grid"),
        (["--truncation-starts", "2003"], "window starting 2003 has 2 years, too short for k=15"),
    ] + BOUNDS + [
        (["--cutoffs", ","], "the hindcast needs at least one cutoff"),
        (["--cutoffs", "1995,1990"],
         "--cutoffs: window ending 1990 has 6 years, too short for k=15"),
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

    @pytest.mark.parametrize("years, argv, message", [
        (5, ["fit"], "spec 2,2,none cannot be fitted: series too short: N_eff=8 <= k=15"),
        (5, ["fit", "--spec", "1,1,none"], "spec 1,1,none cannot be fitted: series too short: "
                                           "N_eff=8 <= k=10"),
        (8, ["bands"], "spec 2,2,none cannot be fitted: series too short: N_eff=14 <= k=15"),
        (8, ["diagnose"], "spec 2,2,none cannot be fitted: series too short: N_eff=14 <= k=15"),
        (8, ["report", "--spec", "2,2,none"],
         "spec 2,2,none cannot be fitted: series too short: N_eff=14 <= k=15"),
        # Without --spec the grid's smallest spec, k = 5, must fit.
        (3, ["report"], "no grid spec can be fitted, not even 0,0,none: series too short: "
                        "N_eff=4 <= k=5"),
        (3, ["grid"], "no grid spec can be fitted, not even 0,0,none: series too short: "
                      "N_eff=4 <= k=5"),
    ], ids=["fit", "fit-k10", "bands", "diagnose", "report-spec", "report", "grid"])
    def test_series_too_short_for_the_spec(self, tmp_path, monkeypatch, capsys, years, argv,
                                           message):
        # A fit needs more fitted residuals, N_eff = 2 * years - 2, than
        # coefficients: the bands' residual variance divides by N_eff - k.
        obs, _ = generate(recovery_scenario(grid=YearGrid(1990, 1989 + years)))
        data = tmp_path / "short.csv"
        write_series(obs, data)
        for module, name in ((selection, "run_grid"), (estimation, "fit_lane_set"),
                             (estimation, "minimize_bfgs")):
            monkeypatch.setattr(module, name, self.refuse)
        code = run_cli(argv + ["--data", str(data), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["robust", "report"])
    def test_no_default_truncation_start_fits(self, tmp_path, monkeypatch, capsys, command):
        # 13 years: the first default start leaves 8 years, too few for k = 15 or 16.
        obs, _ = generate(recovery_scenario(grid=YearGrid(1990, 2002)))
        data = tmp_path / "short.csv"
        write_series(obs, data)
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli([command, "--data", str(data), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert ("no default truncation start leaves a window long enough for "
                f"{WINDOW_SPEC[command]}; pass --truncation-starts") in err
        assert "Traceback" not in err and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("argv, message", [
        (["robust", "--cutoffs", "1988"], "--cutoffs: window ending 1988 has 4 years, too short "
                                          "for k=15"),
        # Before the grid picks the spec, a window must fit every spec: 8
        # years fit k = 13 but not k = 16.
        (["report", "--cutoffs", "1992"], "--cutoffs: window ending 1992 has 8 years, too short "
                                          "for k=16"),
    ], ids=["robust", "report"])
    def test_cutoff_window_too_short(self, data_csv, tmp_path, monkeypatch, capsys, argv,
                                     message):
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli(argv + ["--data", str(data_csv), "--out", str(tmp_path / "r"),
                               "--truncation-starts", "1990"])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_truncation_window_too_short_before_the_grid(self, data_csv, tmp_path,
                                                          monkeypatch, capsys):
        # As for cutoffs: before the grid picks the spec, the window from a
        # start year must fit every spec (8 years fit k = 15 but not k = 16).
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli(["report", "--data", str(data_csv), "--out", str(tmp_path / "r"),
                        "--truncation-starts", "1997", "--cutoffs", "1995"])
        assert code == 1
        err = capsys.readouterr().err
        assert ("--truncation-starts: window starting 1997 has 8 years, too short for k=16"
                in err)
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["robust", "report"])
    @pytest.mark.parametrize("flags, message", [
        (["--truncation-starts", "1990,1990,1990", "--cutoffs", "1995"],
         "--truncation-starts: start year 1990 given more than once"),
        (["--truncation-starts", "1990", "--cutoffs", "1995,1997,1995"],
         "--cutoffs: cutoff 1995 given more than once"),
    ], ids=["truncation-starts", "cutoffs"])
    def test_repeated_year_exits_1(self, data_csv, tmp_path, monkeypatch, capsys, command,
                                   flags, message):
        # A repeated year would refit its window again and count it twice.
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli([command, "--data", str(data_csv), "--out", str(tmp_path / "r"),
                        "--spec", "2,2,none", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_cutoff_window_fits_the_given_spec(self, data_csv, tmp_path, monkeypatch):
        # With --spec 1,1,none (k = 13) the 8-year window fits: the run gets as far as fitting.
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        with pytest.raises(AssertionError, match="fitting started"):
            run_cli(["report", "--spec", "1,1,none", "--cutoffs", "1992", "--data", str(data_csv),
                     "--out", str(tmp_path / "r"), "--truncation-starts", "1990"])

    @pytest.mark.parametrize("command", ["robust", "report"])
    def test_no_default_cutoff_fits(self, tmp_path, monkeypatch, capsys, command):
        # 1998-2006: the default cutoffs 2000 and 2005 leave 3 and 8 years,
        # too few for k = 15 or 16.
        obs, _ = generate(recovery_scenario(grid=YearGrid(1998, 2006)))
        data = tmp_path / "short.csv"
        write_series(obs, data)
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli([command, "--data", str(data), "--out", str(tmp_path / "r"),
                        "--truncation-starts", "1998"])
        assert code == 1
        err = capsys.readouterr().err
        assert ("no default hindcast cutoff leaves a window long enough for "
                f"{WINDOW_SPEC[command]}; pass --cutoffs") in err
        assert "Traceback" not in err and not (tmp_path / "r").exists()

    @pytest.mark.parametrize("t_min, t_max, flags, message", [
        # None of the default cutoffs 1990-2015 lies in 1800-1825.
        (1800, 1825, [], "no default hindcast cutoff lies inside the data's years 1800-1825; "
                         "pass --cutoffs"),
        # The first default start, 1995, lies past the last year.
        (1990, 1994, ["--spec", "0,0,none"],
         "no default truncation start lies inside the data's years 1990-1994; "
         "pass --truncation-starts"),
    ], ids=["cutoffs", "truncation-starts"])
    def test_no_default_year_inside_the_data(self, tmp_path, monkeypatch, capsys, t_min, t_max,
                                             flags, message):
        obs, _ = generate(recovery_scenario(grid=YearGrid(t_min, t_max)))
        data = tmp_path / "old.csv"
        write_series(obs, data)
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli(["robust", "--data", str(data), "--out", str(tmp_path / "r"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--truncation-starts", "2009", "--cutoffs", "2009"],
         "--truncation-starts: window starting 2009 has 9 years, too short for k=16"),
        (["--truncation-starts", "1997", "--cutoffs", "2000"],
         "--cutoffs: window ending 2000 has 9 years, too short for k=16"),
    ], ids=["truncation-starts", "cutoffs"])
    def test_window_with_as_many_residuals_as_coefficients(self, tmp_path, monkeypatch, capsys,
                                                          flags, message):
        # 9 years leave N_eff = 16 = k fitted residuals: the grid would skip
        # 2,2,intl on such a series, so a refit window of 9 years is refused too.
        obs, _ = generate(recovery_scenario(grid=YearGrid(1992, 2017), p_intl=True))
        data = tmp_path / "d26.csv"
        write_series(obs, data)
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        monkeypatch.setattr(estimation, "fit_lane_set", self.refuse)
        code = run_cli(["robust", "--spec", "2,2,intl", "--data", str(data),
                        "--out", str(tmp_path / "r"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_data_years_are_bounded(self, tmp_path, monkeypatch, capsys, command):
        # The lane kernel's workspace and the bands grow with the years: a
        # data file spans at most MAX_SCENARIO_YEARS years, as a scenario does.
        for module, name in ((selection, "run_grid"), (estimation, "fit_lane_set"),
                             (estimation, "minimize_bfgs")):
            monkeypatch.setattr(module, name, self.refuse)

        def run(n_years):
            data = tmp_path / f"long{n_years}.csv"
            data.write_text("year,bachelors,masters,phd\n" + "".join(
                f"{year},1000,100,10\n" for year in range(1000, 1000 + n_years)))
            return run_cli([command, "--data", str(data), "--out", str(tmp_path / "r")])

        assert run(cli.MAX_SCENARIO_YEARS + 1) == 1
        err = capsys.readouterr().err
        assert "data file spans 1001 years, more than MAX_SCENARIO_YEARS = 1000" in err
        assert "Traceback" not in err and not (tmp_path / "r").exists()
        with pytest.raises(AssertionError, match="fitting started"):
            run(cli.MAX_SCENARIO_YEARS)

    def test_report_config_rescale(self, data_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(selection, "run_grid", self.refuse)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"robustness": {"rescale": "sideways"}}))
        code = run_cli(["report", "--data", str(data_csv), "--config", str(config),
                        "--out", str(tmp_path / "r")])
        assert code == 1
        assert "rescale must be 'window' or 'full'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", BAD + BOUNDS)
    def test_bands(self, data_csv, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setattr(estimation, "minimize_bfgs", self.refuse)
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(tmp_path / "b"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--max-iter", "-1"], "max_iter must be at least 0"),
        (["--gtol", "-1"], "gtol must be a finite number >= 0"),
        (["--ftol-rel", "nan"], "ftol_rel must be a finite number >= 0"),
    ])
    def test_fit_before_loading(self, tmp_path, monkeypatch, capsys, flags, message):
        # The data file does not exist: the setting is checked before the load.
        monkeypatch.setattr(estimation, "minimize_bfgs", self.refuse)
        code = run_cli(["fit", "--data", str(tmp_path / "missing.csv"),
                        "--out", str(tmp_path / "f"), *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_bad_level_on_unconverged_fit_exits_1(self, data_csv, tmp_path, capsys):
        # Without the up-front check the bands were skipped and this exited 2.
        code = run_cli(["bands", "--data", str(data_csv), "--out", str(tmp_path / "b"),
                        "--n-starts", "1", "--max-iter", "0", "--level", "1.5"])
        assert code == 1
        assert "level must lie strictly inside (0, 1)" in capsys.readouterr().err


COMMON_ECHO = {"command", "out", "formats", "data", "optimizer"}
FIT_FILES = {"run_report.json", "manifest.json", "trajectories.csv", "residuals.csv"}
ROBUST_ECHO = {"robustness"}
ROBUST_FILES = {"truncation.csv", "hindcast.csv"}


class TestCommandStages:
    """Each command writes the files and echoes the settings of its stages."""

    @pytest.mark.parametrize("command, files, echo", [
        ("fit", FIT_FILES, COMMON_ECHO | {"spec"}),
        ("diagnose", FIT_FILES, COMMON_ECHO | {"spec"}),
        ("bands", FIT_FILES, COMMON_ECHO | {"spec", "uncertainty"}),
        ("grid", {"run_report.json", "manifest.json", "grid.csv"},
         COMMON_ECHO | {"jobs", "use_n_eff"}),
        ("robust", {"run_report.json", "manifest.json"} | ROBUST_FILES,
         COMMON_ECHO | {"spec"} | ROBUST_ECHO),
        ("report", FIT_FILES | ROBUST_FILES | {"grid.csv"},
         COMMON_ECHO | {"spec", "uncertainty", "jobs", "use_n_eff"} | ROBUST_ECHO),
        ("synth", {"run_report.json", "manifest.json", "data.csv", "trajectories.csv"},
         {"command", "out", "formats", "scenario"}),
    ])
    def test_files_and_config_echo(self, data_csv, tmp_path, command, files, echo):
        out = tmp_path / command
        if command == "synth":
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(SCENARIO))
            argv = ["synth", "--scenario", str(scenario)]
        else:
            argv = [command, "--data", str(data_csv), "--n-starts", "1", "--max-iter", "100"]
        if command in ("bands", "report"):
            argv += ["--n-draws", "50"]
        if command in ("robust", "report"):
            argv += ["--truncation-starts", "1990", "--cutoffs", "1995"]
        assert run_cli(argv + ["--out", str(out)]) in (0, 2)
        assert {p.name for p in out.iterdir()} == files
        assert set(json.loads((out / "run_report.json").read_text())["config"]) == echo


class TestConfigEchoReplays:
    """A run's config echo, fed back as ``--config``, reruns the same run."""

    @pytest.mark.parametrize("command", ["robust", "report", "synth"])
    def test_replay_is_byte_identical(self, data_csv, tmp_path, command):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = [command, "--data", str(data_csv), "--out", str(first), "--seed", "3",
                "--n-starts", "2", "--max-iter", "150", "--gtol", "1e-4",
                "--truncation-starts", "1990,1993", "--cutoffs", "1995,2000",
                "--rescale", "full"]
        if command == "report":
            argv += ["--n-draws", "200", "--level", "0.9", "--draw-seed", "7", "--use-n-eff"]
        if command == "synth":
            # The echo names the scenario file as given.
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(dict(SCENARIO, noise_sd=0.02, seed=4)))
            argv = [command, "--scenario", str(scenario), "--out", str(first)]
        code = run_cli(argv)
        assert code in (0, 2)
        config = json.loads((first / "run_report.json").read_text())["config"]
        config["out"] = str(second)
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(replay)]) == code
        before = {p.name: p.read_bytes() for p in first.iterdir()}
        after = {p.name: p.read_bytes().replace(str(second).encode(), str(first).encode())
                 for p in second.iterdir()}
        assert after == before


class TestRefitsInOneLaneSet:
    """The robust stage's refits give the same tables in every lane set they run in.

    ``report --spec S`` fits them in the grid's lane set, ``robust --spec S``
    as a set of their own, and a ``report`` whose grid picks S as a set
    after the grid.  Each window's 2 starts give 6 refit lanes, so every
    set runs on lanes.
    """

    def test_truncation_and_hindcast_tables_match(self, data_csv, tmp_path):
        settings = ["--data", str(data_csv), "--n-starts", "2", "--max-iter", "150",
                    "--seed", "2", "--truncation-starts", "1988,1991", "--cutoffs", "1997",
                    "--n-draws", "50"]
        picked = tmp_path / "picked"
        assert run_cli(["report", *settings, "--out", str(picked)]) in (0, 2)
        spec = json.loads((picked / "run_report.json").read_text())["config"]["spec"]
        runs = {"picked": picked}
        for command in ("report", "robust"):
            runs[command] = tmp_path / command
            argv = [command, *settings, "--spec", spec, "--out", str(runs[command])]
            if command == "robust":
                argv.remove("--n-draws")
                argv.remove("50")
            assert run_cli(argv) in (0, 2)
        for name in ("truncation.csv", "hindcast.csv"):
            tables = {run: (out / name).read_bytes() for run, out in runs.items()}
            assert tables["report"] == tables["robust"] == tables["picked"], name


class TestOneFitPerSpec:
    """Every command that fits spec S reports one fit of S: its grid cell's.

    ``fit`` and ``bands`` start S from the seeded starts of S's grid cell,
    as ``report --spec S`` does, so their files agree with the report's.
    ``robust``'s tables are the report's too (:class:`TestRefitsInOneLaneSet`).
    """

    SPEC = "0,2,none"
    FLAGS = {"optimizer": ["--n-starts", "2", "--max-iter", "150", "--seed", "2"],
             "bands": ["--n-draws", "50"],
             "robust": ["--truncation-starts", "1990", "--cutoffs", "1995"]}

    @classmethod
    def run(cls, command, data_csv, out, spec, stages=()):
        flags = [flag for stage in ("optimizer", *stages) for flag in cls.FLAGS[stage]]
        assert run_cli([command, "--data", str(data_csv), "--out", str(out), "--spec", spec,
                        *flags]) in (0, 2)
        return out

    @pytest.fixture(scope="class")
    def report(self, data_csv, tmp_path_factory):
        return self.run("report", data_csv, tmp_path_factory.mktemp("report"), self.SPEC,
                        ("bands", "robust"))

    def test_fit_is_the_grid_row(self, data_csv, report, tmp_path):
        with (report / "grid.csv").open() as handle:
            rows = [row for row in csv.DictReader(handle) if row["status"] == "ok"]
        assert len(rows) == 9
        for row in rows:
            spec = f"{row['deg_gamma']},{row['deg_rho']},{row['forcing']}"
            out = self.run("fit", data_csv, tmp_path / spec, spec)
            fit = json.loads((out / "run_report.json").read_text())["fit"]
            assert fit["sse"] == float(row["sse"]), spec

    def test_bands_trajectories_are_the_reports(self, data_csv, report, tmp_path):
        out = self.run("bands", data_csv, tmp_path / "bands", self.SPEC, ("bands",))
        assert (out / "trajectories.csv").read_bytes() == (report / "trajectories.csv").read_bytes()


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


def readme_cli_lines():
    """The ``flowfit ...`` lines of the first code block under README's "## CLI"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("flowfit ")]


def test_readme_cli_lines_exist():
    assert {line.split()[1] for line in readme_cli_lines()} >= {"fit", "grid", "report", "synth"}


@pytest.mark.parametrize("line", readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_example_parses(line):
    # A renamed or removed flag makes argparse exit instead of parsing.
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert args.command == line.split()[1]
