"""Command-line interface.

Subcommands: ``fit`` (single specification), ``grid`` (full comparison
table), ``bands`` (uncertainty and trajectory bands), ``diagnose``
(residual report), ``robust`` (truncation and hindcast protocols),
``synth`` (synthetic scenario generation), ``report`` (everything).

Exit codes: 0 success, 1 data or configuration error, 2 numerical
failure (no converged fit, or a ``NumericalError`` such as a Hessian
without positive curvature).  Defaults may be placed in a JSON config
file (``--config``); explicit flags win over the config file, which wins
over built-in defaults.  The config echo in ``run_report.json`` has the
config file's layout, so it replays the run.  The ``FLOWFIT_OUT_DIR`` environment variable
selects the default output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from . import diagnostics, estimation, selection, synthetic
from .dataio import DataError, ReportBundle, load_series, write_reports
from .estimation import FitOptions
from .model import SUPERSET_SPEC, ModelSpec, ObservedSeries, eval_param_trajectories, simulate

OUT_DIR_ENV = "FLOWFIT_OUT_DIR"

DEFAULT_SPEC = "2,2,none"
DEFAULT_CUTOFFS = (1990, 1995, 2000, 2005, 2010, 2015)
TRUNCATION_OFFSETS = (5, 10, 15)

# Upper bounds on the work and memory one run may ask for: the bands of
# MAX_N_DRAWS draws on 49 years take about 100 MB.
MAX_N_DRAWS = 100_000
MAX_SCENARIO_YEARS = 1000
MAX_N_STARTS = 1000
MAX_ITER = 100_000

_FORCING_TOKENS = {
    "none": False, "no": False, "n": False, "false": False, "0": False,
    "intl": True, "yes": True, "y": True, "true": True, "1": True,
}


class CliError(DataError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants 1.
    def error(self, message):
        raise CliError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


def parse_spec(text: str) -> ModelSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CliError(f"spec must look like 'DEG_GAMMA,DEG_RHO,none|intl', got {text!r}")
    try:
        deg_gamma, deg_rho = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"spec degrees must be integers, got {text!r}") from None
    forcing = _FORCING_TOKENS.get(parts[2].lower())
    if forcing is None:
        raise CliError(f"spec forcing token must be 'none' or 'intl', got {parts[2]!r}")
    try:
        return ModelSpec(deg_gamma=deg_gamma, deg_rho=deg_rho, forcing=forcing)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise CliError(f"expected comma-separated years, got {text!r}") from None


def _float(value) -> float:
    """``float(value)``, but infinite for a JSON integer too large for a float."""
    return (-math.inf, math.inf)[value > 0] if abs(value) > sys.float_info.max else float(value)


# Stages of the data commands, in the order a run takes them.  ``grid``
# fits and ranks every spec, ``fit`` fits one (or takes the grid's fit),
# ``bands`` adds curvature-based bands and ``robust`` runs the truncation
# and hindcast refits.
STAGES = ("grid", "fit", "bands", "robust")

# Each command's stages and help line.  ``synth`` reads a scenario, not
# data, so it has no stages and a function of its own.
COMMANDS = {
    "fit": (("fit",), "fit a single specification"),
    "grid": (("grid",), "fit and rank the 18-specification grid"),
    "bands": (("fit", "bands"), "fit, quantify uncertainty, emit trajectory bands"),
    "diagnose": (("fit",), "fit and report residual diagnostics"),
    "robust": (("robust",), "start-year truncation and rolling-origin hindcast"),
    "synth": (None, "generate synthetic data from a scenario file"),
    "report": (STAGES, "grid, best-spec fit, bands, diagnostics, robustness"),
}


class _Type(NamedTuple):
    """A JSON type: config-value check, name in messages, conversion, argparse keywords."""
    check: Callable[[object], bool]
    expected: str
    convert: Callable = str
    flag: dict = {}


INTEGER = _Type(lambda v: type(v) is int, "an integer", int, dict(type=int))
NUMBER = _Type(lambda v: type(v) in (int, float), "a number", _float, dict(type=float))
# A switch that is None when absent, so that a config file can still set it.
BOOLEAN = _Type(lambda v: type(v) is bool, "true or false", bool,
                dict(action="store_true", default=None))
# Comma-separated on the command line, a JSON list in a config file.
YEARS = _Type(lambda v: type(v) is list and all(type(y) is int for y in v),
              "a list of integers", lambda v: _int_list(v) if isinstance(v, str) else v)
STRING = _Type(lambda v: isinstance(v, str), "a string")


@dataclass(frozen=True)
class Setting:
    """One stage setting: ``name`` gives the flag and the name in messages, ``key`` the
    ``section.key`` in the config file and the echo; ``stage`` None is every data command's;
    a callable default maps the year grid to the value.  ``bounds`` are an integer's (low,
    high), inclusive; a number's (low, high), exclusive, or (low, None) for finite and >= low;
    a string's choices."""
    name: str
    stage: Optional[str]
    key: str
    type: _Type
    default: object
    bounds: tuple = (None, None)
    help: str = ""

    @property
    def path(self) -> tuple[str, str]:   # (section or "", field)
        return tuple(self.key.rpartition(".")[::2])

    def add_flag(self, parser: argparse.ArgumentParser) -> None:
        hide = callable(self.default) or self.type is BOOLEAN
        choices = dict(choices=self.bounds) if self.type is STRING else {}
        parser.add_argument("--" + self.name.replace("_", "-"), **self.type.flag, **choices,
                            help=self.help + ("" if hide else f" (default {self.default})"))

    def check(self, value) -> None:
        if self.type is STRING:
            if value not in self.bounds:
                raise CliError(f"{self.name} must be {' or '.join(map(repr, self.bounds))}")
            return
        low, high = self.bounds
        if self.type is INTEGER and low is not None and value < low:
            raise CliError(f"{self.name} must be at least {low}, got {value}")
        if self.type is INTEGER and high is not None and value > high:
            raise CliError(f"{self.name} must be at most {high}, got {value}")
        if self.type is NUMBER and high is not None and not low < value < high:
            raise CliError(f"{self.name} must lie strictly inside ({low}, {high}), got {value}")
        if self.type is NUMBER and high is None and not (math.isfinite(value) and value >= low):
            raise CliError(f"{self.name} must be a finite number >= {low}, got {value}")


def _default_truncation_starts(grid) -> list[int]:
    # Windows long enough for every grid spec, so the grid's pick refits too.
    starts = [grid.t_min + off for off in TRUNCATION_OFFSETS
              if diagnostics.window_fits(grid.t_max - grid.t_min - off + 1, SUPERSET_SPEC)]
    if not starts:
        raise CliError("no default truncation start leaves a window long enough for every "
                       "spec; pass --truncation-starts")
    return starts


def _default_cutoffs(grid) -> list[int]:
    # Windows long enough for every grid spec, as the truncation starts'.
    cutoffs = [c for c in DEFAULT_CUTOFFS if grid.t_min < c < grid.t_max
               and diagnostics.window_fits(c - grid.t_min + 1, SUPERSET_SPEC)]
    if not cutoffs:
        raise CliError("no default hindcast cutoff leaves a window long enough for every "
                       "spec; pass --cutoffs")
    return cutoffs


_FIT = FitOptions()
# Seeds may be any non-negative integer, as NumPy's generators take.
SETTINGS = (
    Setting("n_starts", None, "optimizer.n_starts", INTEGER, _FIT.n_starts, (1, MAX_N_STARTS),
            "multi-start count"),
    Setting("seed", None, "optimizer.seed", INTEGER, _FIT.seed, (0, None), "base seed for starts"),
    Setting("max_iter", None, "optimizer.max_iter", INTEGER, _FIT.max_iter, (0, MAX_ITER),
            "iteration cap per start"),
    Setting("gtol", None, "optimizer.gtol", NUMBER, _FIT.gtol, (0, None),
            "gradient max-norm tolerance"),
    Setting("ftol_rel", None, "optimizer.ftol_rel", NUMBER, _FIT.ftol_rel, (0, None),
            "relative decrease stop"),
    Setting("n_draws", "bands", "uncertainty.n_draws", INTEGER, 4000, (2, MAX_N_DRAWS),
            "parameter draws for bands"),
    Setting("level", "bands", "uncertainty.level", NUMBER, 0.95, (0, 1), "band level"),
    Setting("draw_seed", "bands", "uncertainty.seed", INTEGER, 0, (0, None),
            "seed for parameter draws"),
    Setting("truncation_starts", "robust", "robustness.truncation_starts", YEARS,
            _default_truncation_starts,
            help="comma-separated start years (default: first year + "
                 f"{', '.join(map(str, TRUNCATION_OFFSETS))} where every spec fits the window)"),
    Setting("cutoffs", "robust", "robustness.cutoffs", YEARS, _default_cutoffs,
            help="comma-separated hindcast cutoff years (default: "
                 f"{','.join(map(str, DEFAULT_CUTOFFS))} where every spec fits the window)"),
    Setting("rescale", "robust", "robustness.rescale", STRING, "window", ("window", "full"),
            "time rescaling for truncated refits"),
    Setting("jobs", "grid", "jobs", INTEGER, 1, (1, None),
            "parallel workers for the grid's lane chunks"),
    Setting("use_n_eff", "grid", "use_n_eff", BOOLEAN, False,
            help="use N_eff = 2*years - 2 in the criteria instead of N = 2*years"),
)


def build_parser(command: Optional[str] = None) -> _Parser:
    """The CLI's parser, with every command's subparser or only ``command``'s.

    A subparser's flags, help and errors do not depend on the others, so
    parsing a command's arguments needs only its own; building every
    subparser costs far more than the parse.
    """
    parser = _Parser(prog="flowfit", description=__doc__.splitlines()[0])
    # The usage in an error names every command, whichever are built.
    sub = parser.add_subparsers(dest="command", parser_class=_Parser,
                                metavar="{" + ",".join(COMMANDS) + "}")
    for name, (stages, help_line) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="JSON config file with defaults for any option")
        p.add_argument("--out", help="output directory (default: $FLOWFIT_OUT_DIR or '.')")
        p.add_argument("--formats", help="comma-separated subset of csv,json (default both)")
        if stages is None:
            p.add_argument("--scenario", help="JSON scenario definition")
            continue
        p.add_argument("--data", help="input CSV: year,bachelors,masters,phd[,phd_intl]")
        if "fit" in stages or "robust" in stages:
            p.add_argument("--spec", help=f"DEG_GAMMA,DEG_RHO,none|intl (default {DEFAULT_SPEC})")
        for row in SETTINGS:
            if row.stage in (None, *stages):
                row.add_flag(p)
    return parser


# The JSON type of each config-file (section, key), inside the table and out;
# ``command`` is written by the config echo and read by nothing.
_CONFIG_KEYS = {
    **{("", key): STRING for key in ("command", "data", "out", "spec", "scenario")},
    ("", "formats"): _Type(lambda v: STRING.check(v) or type(v) is list
                           and all(map(STRING.check, v)), "a string or a list of strings"),
    **{row.path: row.type for row in SETTINGS},
}
_SECTIONS = {row.path[0] for row in SETTINGS} - {""}


def _validate_config(cfg: dict) -> None:
    """Reject unknown keys and values of the wrong JSON type before anything runs."""
    items = []   # ((section, field), value) of every setting in the file
    for key, value in cfg.items():
        if key not in _SECTIONS:
            items.append((("", key), value))
        elif isinstance(value, dict):
            items += [((key, field), item) for field, item in value.items()]
        else:
            raise CliError(f"config '{key}' must be an object, got {json.dumps(value)}")
    unknown = [".".join(filter(None, path)) for path, _ in items if path not in _CONFIG_KEYS]
    if unknown:
        raise CliError(f"unknown config key{'s' if len(unknown) > 1 else ''} "
                       + ", ".join(map(repr, unknown)))
    for path, value in items:
        if not _CONFIG_KEYS[path].check(value):
            raise CliError(f"config '{'.'.join(filter(None, path))}' must be "
                           f"{_CONFIG_KEYS[path].expected}, got {json.dumps(value)}")


def _read_json(path: str, what: str):
    """The JSON value in the ``what`` file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} file is not valid JSON: {exc}") from None


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    cfg = _read_json(path, "config")
    if not isinstance(cfg, dict):
        raise CliError("config file must contain a JSON object")
    _validate_config(cfg)
    return cfg


class Settings:
    """Flag > config-file > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = vars(args)
        self._config = config
        # Every command writes reports, so the formats are checked before any runs.
        self.formats = self._resolve_formats()

    def get(self, name: str, default=None):
        value = self._args.get(name)
        if value is not None:
            return value
        if name in self._config:
            return self._config[name]
        return default

    def resolve(self, rows: Sequence[Setting]) -> dict:
        """Each row's value by name: flag > config file > default, converted and checked;
        a default that depends on the data stays a function of its year grid."""
        values = {}
        for row in rows:
            value = self._args.get(row.name)
            if value is None:
                section, field = row.path
                value = (self._config.get(section, {}) if section else self._config).get(
                    field, row.default)
            if not callable(value):
                value = row.type.convert(value)
                row.check(value)
            values[row.name] = value
        return values

    def out_dir(self) -> Path:
        return Path(self.get("out", os.environ.get(OUT_DIR_ENV, ".")))

    def _resolve_formats(self) -> tuple[str, ...]:
        raw = self.get("formats")
        if raw is None:
            return ("csv", "json")
        if isinstance(raw, str):
            items = tuple(p.strip() for p in raw.split(",") if p.strip())
        else:
            items = tuple(raw)
        for fmt in items:
            if fmt not in ("csv", "json"):
                raise CliError(f"unknown format {fmt!r} (expected csv and/or json)")
        if not items:
            raise CliError("--formats must name at least one of csv,json")
        return items

    def spec(self) -> ModelSpec:
        return parse_spec(str(self.get("spec", DEFAULT_SPEC)))

    def data_path(self) -> str:
        path = self.get("data")
        if path is None:
            raise CliError("--data is required (or provide 'data' in the config file)")
        return str(path)


def _fit_bundle(obs: ObservedSeries, spec: ModelSpec, fit: estimation.FitResult,
                n: int) -> ReportBundle:
    """Report bundle of one fitted spec: trajectories, flows, residuals and criteria at N."""
    traj = eval_param_trajectories(fit.theta_hat, spec, obs.grid)
    sim = simulate(obs, traj, spec)
    bundle = ReportBundle(obs=obs, spec=spec, fit=fit, trajectories=traj, simulation=sim, n=n)
    try:
        bundle.residual_report = diagnostics.residual_report(obs, sim)
    except ValueError:
        bundle.notes.append("residual report unavailable: non-positive implied flows")
    try:
        bundle.aic, bundle.bic = selection.information_criteria(fit.sse, spec.n_params, n)
    except ValueError:
        bundle.notes.append("perfect fit (sse = 0): information criteria undefined")
    return bundle


def _run_pipeline(settings: Settings) -> int:
    """Run a data command's stages in ``STAGES`` order and write one report.

    Every setting the stages need is resolved and checked before anything
    is fitted; the resolved settings make up the report's config echo.
    """
    command = settings.get("command")
    stages = COMMANDS[command][0]
    # A run that ranks the grid reports the grid's AIC-best spec unless one is given.
    wants_spec = "fit" in stages or "robust" in stages
    spec = None
    if wants_spec and ("grid" not in stages or settings.get("spec") is not None):
        spec = settings.spec()
    rows = [row for row in SETTINGS if row.stage in (None, *stages)]
    values = settings.resolve(rows)
    opts = FitOptions(**{row.name: values[row.name] for row in rows if row.stage is None})
    data = settings.data_path()
    obs = load_series(data)
    if spec is not None:
        reason = selection.unfittable_reason(spec, obs)
        if reason is not None:
            raise CliError(f"spec {spec.label()} cannot be fitted: {reason}")
    elif "grid" in stages:
        # The grid runs, and picks the spec if one is wanted. Its first spec
        # has the fewest coefficients and no forcing, so it fits unless no
        # grid spec does.
        first = selection.enumerate_grid()[0]
        reason = selection.unfittable_reason(first, obs)
        if reason is not None:
            raise CliError(f"no grid spec can be fitted, not even {first.label()}: {reason}")
    values = {name: value(obs.grid) if callable(value) else value
              for name, value in values.items()}
    if "robust" in stages:
        trunc_starts, cutoffs = values["truncation_starts"], values["cutoffs"]
        # Before the grid has picked the spec, a refit window must fit every spec.
        for flag, check, years in (
                ("--truncation-starts", diagnostics.check_truncation_starts, trunc_starts),
                ("--cutoffs", diagnostics.check_cutoffs, cutoffs)):
            try:
                check(obs.grid, years, spec or SUPERSET_SPEC)
            except ValueError as exc:
                raise CliError(f"{flag}: {exc}") from None

    # ``outcomes`` are the fits whose convergence sets the exit code: the
    # fit if there is one, else the grid's, else the robustness refits.
    entries = fit = outcomes = None
    # The robust stage's lane jobs.
    refits = None
    if "robust" in stages and spec is not None:
        refits = diagnostics.robustness_jobs(obs, spec, trunc_starts, cutoffs, opts,
                                             values["rescale"])
    # The criteria's observation count, the same in the grid and the fit's report.
    n = obs.grid.n_eff if values.get("use_n_eff") else 2 * obs.grid.n_years
    if "grid" in stages:
        # A spec known up front brings its refits into the grid's lane set.
        entries = selection.run_grid(obs, opts, n=n, jobs=values["jobs"], refits=refits or ())
        outcomes = [e.fit for e in entries if e.fit is not None]
        if wants_spec and spec is None:
            try:
                spec = selection.select_best(entries, "aic").spec
            except ValueError as exc:   # the grid fitted no spec
                raise estimation.NumericalError(str(exc)) from None
            if "robust" in stages:
                refits = diagnostics.robustness_jobs(obs, spec, trunc_starts, cutoffs, opts,
                                                     values["rescale"])
                estimation.fit_lane_set(refits, opts, workers=values["jobs"])
    if "fit" in stages:
        if entries is None:
            starts = estimation.default_starts(spec, obs, n_starts=opts.n_starts, seed=opts.seed,
                                               start_sd=opts.start_sd)
            fit = estimation.minimize_bfgs(spec, obs, starts, opts)
        else:   # the grid has fitted every spec it could, this one included
            fit = next(e.fit for e in entries if e.spec == spec)
        bundle = _fit_bundle(obs, spec, fit, n)
        outcomes = [fit]
    else:
        bundle = ReportBundle(obs=obs, spec=spec)
    if "bands" in stages:
        if fit.converged:
            hess = estimation.numerical_hessian(fit.theta_hat, spec, obs)
            bundle.uncertainty = estimation.covariance(hess, fit.sse, spec, obs.grid)
            draws = estimation.sample_parameters(bundle.uncertainty, fit.theta_hat,
                                                 values["n_draws"], values["draw_seed"])
            bundle.bands = estimation.confidence_bands(draws, spec, obs.grid, values["level"])
        else:
            bundle.notes.append("bands skipped: fit did not converge")
    if "robust" in stages:
        if "grid" not in stages:
            estimation.fit_lane_set(refits, opts)
        bundle.robustness = diagnostics.robustness_report(refits, obs, values["rescale"])
        if outcomes is None:
            outcomes = bundle.robustness.truncation_rows + bundle.robustness.hindcast.predictions

    # The echo has the config file's layout, so it replays the run as ``--config``.
    echo = {"command": command, "out": str(settings.out_dir()),
            "formats": list(settings.formats), "data": data}
    for row in rows:
        section, field = row.path
        (echo.setdefault(section, {}) if section else echo)[field] = values[row.name]
    if spec is not None:
        echo["spec"] = spec.label()
    bundle.config_echo, bundle.grid_entries = echo, entries
    write_reports(bundle, settings.out_dir(), settings.formats)
    return 0 if any(f.converged for f in outcomes) else 2


def _run_synth(settings: Settings) -> int:
    scenario_path = settings.get("scenario")
    if scenario_path is None:
        raise CliError("--scenario is required (or provide 'scenario' in the config file)")
    try:
        scenario = synthetic.scenario_from_dict(_read_json(scenario_path, "scenario"))
        if scenario.grid.n_years > MAX_SCENARIO_YEARS:
            raise ValueError(f"scenario spans {scenario.grid.n_years} years, more than "
                             f"MAX_SCENARIO_YEARS = {MAX_SCENARIO_YEARS}")
        obs, truth = synthetic.generate(scenario)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    traj = eval_param_trajectories(scenario.theta_true, scenario.spec, scenario.grid)
    bundle = ReportBundle(
        config_echo={"command": "synth", "scenario": str(scenario_path),
                     "out": str(settings.out_dir()), "formats": list(settings.formats)},
        obs=obs,
        spec=scenario.spec,
        trajectories=traj,
        simulation=truth,
        emit_data=True,
    )
    write_reports(bundle, settings.out_dir(), settings.formats)
    return 0


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The full parser answers --help and names the commands in its errors.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        config = _load_config(getattr(args, "config", None))
        settings = Settings(args, config)
        if args.command == "synth":
            return _run_synth(settings)
        return _run_pipeline(settings)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except estimation.NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:   # DataError and CliError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
