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
# MAX_N_DRAWS draws on 49 years take about 100 MB.  A scenario or data file
# spans at most MAX_SCENARIO_YEARS years, where the default grid's kernel
# workspace is about 71 MB (144 lanes x 62 doubles per lane-year) and the
# bands' draws 1,000 years x 100,000 draws x 8 B, about 0.8 GB.
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
    """A JSON type: config-value check, name in messages, conversion, argparse keywords and
    the value's form in the config echo."""
    check: Callable[[object], bool]
    expected: str
    convert: Callable = str
    flag: dict = {}
    echo: Callable = lambda value: value


def _formats(value) -> tuple[str, ...]:
    items = (tuple(p.strip() for p in value.split(",") if p.strip())
             if isinstance(value, str) else tuple(value))
    for fmt in items:
        if fmt not in ("csv", "json"):
            raise CliError(f"unknown format {fmt!r} (expected csv and/or json)")
    if not items:
        raise CliError("--formats must name at least one of csv,json")
    return items


INTEGER = _Type(lambda v: type(v) is int, "an integer", int, dict(type=int))
NUMBER = _Type(lambda v: type(v) in (int, float), "a number", _float, dict(type=float))
# A switch that is None when absent, so that a config file can still set it.
BOOLEAN = _Type(lambda v: type(v) is bool, "true or false", bool,
                dict(action="store_true", default=None))
# Comma-separated on the command line, a JSON list in a config file.
YEARS = _Type(lambda v: type(v) is list and all(type(y) is int for y in v),
              "a list of integers", lambda v: _int_list(v) if isinstance(v, str) else v)
STRING = _Type(lambda v: isinstance(v, str), "a string")
FORMATS = _Type(lambda v: STRING.check(v) or type(v) is list and all(map(STRING.check, v)),
                "a string or a list of strings", _formats)
# One of the row's ``bounds``.
CHOICE = _Type(STRING.check, "a string")
# The echo of a path is the path's own spelling, ``results`` for ``results/``.
PATH = STRING._replace(convert=Path, echo=str)
# The echo is the label of the spec that ran, ``2,2,intl`` for ``2,2,yes``.
SPEC = STRING._replace(convert=parse_spec, echo=ModelSpec.label)


@dataclass(frozen=True)
class Setting:
    """One CLI value: ``name`` gives the flag and the name in messages, ``key`` the key, or
    ``section.key``, in the config file and the echo, and ``commands`` the commands that take
    it.  A default of None is no default: the run needs the value.  A callable default maps
    the year grid and the refits' spec to the value; ``env`` names an environment variable
    that stands in for the default.  ``bounds`` are an integer's (low, high), inclusive; a
    number's (low, high), exclusive, or (low, None) for finite and >= low; a choice's choices."""
    name: str
    commands: tuple[str, ...]
    key: str
    type: _Type
    default: object
    bounds: tuple = (None, None)
    help: str = ""
    env: Optional[str] = None

    @property
    def path(self) -> tuple[str, str]:   # (section or "", field)
        return tuple(self.key.rpartition(".")[::2])

    def grid_picks(self, command: str) -> bool:
        """Whether ``command`` ranks the grid and so takes no default spec: the grid picks it."""
        return self.type is SPEC and "grid" in (COMMANDS[command][0] or ())

    def add_flag(self, parser: argparse.ArgumentParser, command: str) -> None:
        # The help itself describes a default that is not a plain number or string,
        # or that an environment variable stands in for.
        shown = (isinstance(self.default, (int, float, str)) and self.type is not BOOLEAN
                 and self.env is None)
        default = (" (default: the grid's AIC-best spec)" if self.grid_picks(command)
                   else f" (default {self.default})" if shown else "")
        choices = dict(choices=self.bounds) if self.type is CHOICE else {}
        parser.add_argument("--" + self.name.replace("_", "-"), **self.type.flag, **choices,
                            help=self.help + default)

    def check(self, value) -> None:
        if self.type is CHOICE:
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


def _fitting_years(flag: str, what: str, grid, spec: ModelSpec, windows) -> list[int]:
    """The years of ``windows``, (default year inside ``grid``, refit window length) pairs,
    whose window ``spec`` fits."""
    if not windows:
        raise CliError(f"no default {what} lies inside the data's years "
                       f"{grid.t_min}-{grid.t_max}; pass {flag}")
    years = [year for year, n_years in windows if spec.fits(n_years)]
    if not years:
        fitted = "every spec" if spec == SUPERSET_SPEC else f"spec {spec.label()}"
        raise CliError(f"no default {what} leaves a window long enough for {fitted} "
                       f"(k={spec.n_params}); pass {flag}")
    return years


def _data_commands(*stages: str) -> tuple[str, ...]:
    """The data commands with any of ``stages``, or every data command."""
    return tuple(name for name, (own, _) in COMMANDS.items()
                 if own is not None and (not stages or set(stages) & set(own)))


_FIT = FitOptions()
# Seeds may be any non-negative integer, as NumPy's generators take.  The flags
# are added, and the config echo is laid out, in this order.
SETTINGS = (
    Setting("out", tuple(COMMANDS), "out", PATH, ".", env=OUT_DIR_ENV,
            help=f"output directory (default: ${OUT_DIR_ENV} or '.')"),
    Setting("formats", tuple(COMMANDS), "formats", FORMATS, ("csv", "json"),
            help="comma-separated subset of csv,json (default both)"),
    Setting("scenario", ("synth",), "scenario", STRING, None, help="JSON scenario definition"),
    Setting("data", _data_commands(), "data", STRING, None,
            help="input CSV: year,bachelors,masters,phd[,phd_intl]"),
    # A run that ranks the grid reports the grid's AIC-best spec unless given one.
    Setting("spec", _data_commands("fit", "robust"), "spec", SPEC, DEFAULT_SPEC,
            help="DEG_GAMMA,DEG_RHO,none|intl"),
    Setting("n_starts", _data_commands(), "optimizer.n_starts", INTEGER, _FIT.n_starts,
            (1, MAX_N_STARTS), "multi-start count"),
    Setting("seed", _data_commands(), "optimizer.seed", INTEGER, _FIT.seed, (0, None),
            "base seed for starts: a spec's starts are seeded this plus its index in the grid"),
    Setting("max_iter", _data_commands(), "optimizer.max_iter", INTEGER, _FIT.max_iter,
            (0, MAX_ITER), "iteration cap per start"),
    Setting("gtol", _data_commands(), "optimizer.gtol", NUMBER, _FIT.gtol, (0, None),
            "gradient max-norm tolerance"),
    Setting("ftol_rel", _data_commands(), "optimizer.ftol_rel", NUMBER, _FIT.ftol_rel, (0, None),
            "relative decrease stop"),
    Setting("n_draws", _data_commands("bands"), "uncertainty.n_draws", INTEGER, 4000,
            (2, MAX_N_DRAWS), "parameter draws for bands"),
    Setting("level", _data_commands("bands"), "uncertainty.level", NUMBER, 0.95, (0, 1),
            "band level"),
    Setting("draw_seed", _data_commands("bands"), "uncertainty.seed", INTEGER, 0, (0, None),
            "seed for parameter draws"),
    Setting("truncation_starts", _data_commands("robust"), "robustness.truncation_starts", YEARS,
            lambda grid, spec: _fitting_years(
                "--truncation-starts", "truncation start", grid, spec,
                [(grid.t_min + off, grid.n_years - off)
                 for off in TRUNCATION_OFFSETS if off < grid.n_years]),
            help="comma-separated start years (default: first year + "
                 f"{', '.join(map(str, TRUNCATION_OFFSETS))} where the spec, or every spec "
                 "the grid may pick, fits the window)"),
    Setting("cutoffs", _data_commands("robust"), "robustness.cutoffs", YEARS,
            lambda grid, spec: _fitting_years("--cutoffs", "hindcast cutoff", grid, spec, [
                (c, c - grid.t_min + 1) for c in DEFAULT_CUTOFFS if grid.t_min < c < grid.t_max]),
            help="comma-separated hindcast cutoff years (default: "
                 f"{','.join(map(str, DEFAULT_CUTOFFS))} where the spec, or every spec the "
                 "grid may pick, fits the window)"),
    Setting("rescale", _data_commands("robust"), "robustness.rescale", CHOICE, "window",
            ("window", "full"), "time scale the refits' starts are drawn on"),
    Setting("jobs", _data_commands("grid"), "jobs", INTEGER, 1, (1, None),
            "parallel workers for the grid's lane chunks of at most "
            f"{estimation.LANE_CHUNK} lanes; a worker pool starts only for a lane set "
            f"of more than {estimation.LANE_CHUNK} lanes"),
    Setting("use_n_eff", _data_commands("grid"), "use_n_eff", BOOLEAN, False,
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
    for name, (_, help_line) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="JSON config file with defaults for any option")
        for row in SETTINGS:
            if name in row.commands:
                row.add_flag(p, name)
    return parser


# The JSON type of each config-file (section, key); ``command`` is written by
# the config echo and read by nothing.
_CONFIG_KEYS = {("", "command"): STRING, **{row.path: row.type for row in SETTINGS}}
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
        # utf-8-sig accepts a file saved with a byte-order mark.
        with open(path, "r", encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} file is not UTF-8 text: {exc}") from None
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


def _resolve(command: str, args: argparse.Namespace, config: dict) -> dict:
    """``command``'s values by name: flag > config file > default, converted and checked.

    A default that depends on the data stays a function of its year grid.  A run that
    ranks the grid takes no default spec: the grid picks it, and the value stays None.
    A value without a default is required, but only after every other value is checked.
    """
    flags, values, missing = vars(args), {}, []
    for row in SETTINGS:
        if command not in row.commands:
            continue
        value = flags.get(row.name)
        if value is None:
            section, field = row.path
            value = (config.get(section, {}) if section else config).get(field)
        if value is None and not row.grid_picks(command):
            value = os.environ.get(row.env, row.default) if row.env else row.default
            if value is None:
                missing.append(row.name)
        if value is not None and not callable(value):
            value = row.type.convert(value)
            row.check(value)
        values[row.name] = value
    if missing:
        raise CliError(f"--{missing[0]} is required "
                       f"(or provide '{missing[0]}' in the config file)")
    return values


def _config_echo(command: str, values: dict) -> dict:
    """The config file of the run: it replays the run as ``--config``."""
    echo = {"command": command}
    for row in SETTINGS:
        if row.name in values:
            section, field = row.path
            target = echo.setdefault(section, {}) if section else echo
            target[field] = row.type.echo(values[row.name])
    return echo


def _fit_bundle(obs: ObservedSeries, spec: ModelSpec, fit: estimation.FitResult,
                n: int) -> ReportBundle:
    """Report bundle of one fitted spec: trajectories, flows, residuals and criteria at N."""
    traj = eval_param_trajectories(fit.theta_hat, spec, obs.grid)
    sim = simulate(obs, traj, spec)
    bundle = ReportBundle(obs=obs, spec=spec, fit=fit, trajectories=traj, simulation=sim, n=n)
    try:
        bundle.residual_report = diagnostics.residual_report(obs, sim)
    except ValueError:
        bundle.notes.append("residual report unavailable: implied flows not finite and positive")
    try:
        bundle.aic, bundle.bic = selection.information_criteria(fit.sse, spec.n_params, n)
    except ValueError:
        bundle.notes.append("perfect fit (sse = 0): information criteria undefined")
    return bundle


def _run_pipeline(command: str, values: dict) -> int:
    """Run a data command's stages in ``STAGES`` order and write one report.

    ``values`` are the command's settings, all checked before anything is
    fitted; they make up the report's config echo.
    """
    stages = COMMANDS[command][0]
    opts = FitOptions(**{row.name: values[row.name] for row in SETTINGS
                         if row.path[0] == "optimizer"})
    spec = values.get("spec")
    obs = load_series(values["data"])
    if obs.grid.n_years > MAX_SCENARIO_YEARS:
        raise CliError(f"data file spans {obs.grid.n_years} years, more than "
                       f"MAX_SCENARIO_YEARS = {MAX_SCENARIO_YEARS}")
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
    # Before the grid has picked the spec, a refit window must fit every spec.
    window_spec = spec or SUPERSET_SPEC
    values = {name: value(obs.grid, window_spec) if callable(value) else value
              for name, value in values.items()}
    if "robust" in stages:
        trunc_starts, cutoffs = values["truncation_starts"], values["cutoffs"]
        for flag, check, years in (
                ("--truncation-starts", diagnostics.check_truncation_starts, trunc_starts),
                ("--cutoffs", diagnostics.check_cutoffs, cutoffs)):
            try:
                check(obs.grid, years, window_spec)
            except ValueError as exc:
                raise CliError(f"{flag}: {exc}") from None

    def robust_refits():   # the robust stage's lane jobs, for the spec known by then
        return diagnostics.robustness_jobs(obs, spec, trunc_starts, cutoffs, opts,
                                           values["rescale"])

    # ``outcomes`` are the fits whose convergence sets the exit code: the
    # fit if there is one, else the grid's, else the robustness refits.
    entries = fit = outcomes = None
    # A spec known before the grid brings its refits into the grid's lane set.
    refits_in_grid = "grid" in stages and "robust" in stages and spec is not None
    # The criteria's observation count, the same in the grid and the fit's report.
    n = obs.grid.n_eff if values.get("use_n_eff") else 2 * obs.grid.n_years
    if "grid" in stages:
        refits = robust_refits() if refits_in_grid else ()
        entries = selection.run_grid(obs, opts, n=n, jobs=values["jobs"], refits=refits)
        outcomes = [e.fit for e in entries if e.fit is not None]
        if "spec" in values and spec is None:
            try:
                spec = values["spec"] = selection.select_best(entries, "aic").spec
            except ValueError as exc:   # the grid fitted no spec
                raise estimation.NumericalError(str(exc)) from None
    if "fit" in stages:
        if entries is None:
            fit = estimation.minimize_bfgs(spec, obs, selection.spec_starts(spec, obs, opts),
                                           opts)
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
        if not refits_in_grid:   # the grid picked the spec, or there is no grid
            refits = robust_refits()
            estimation.fit_lane_set(refits, opts, workers=values.get("jobs", 1))
        bundle.robustness = diagnostics.robustness_report(refits, obs, values["rescale"])
        if outcomes is None:
            outcomes = bundle.robustness.truncation_rows + bundle.robustness.hindcast.predictions

    bundle.config_echo, bundle.grid_entries = _config_echo(command, values), entries
    write_reports(bundle, values["out"], values["formats"])
    return 0 if any(f.converged for f in outcomes) else 2


def _run_synth(values: dict) -> int:
    try:
        scenario = synthetic.scenario_from_dict(_read_json(values["scenario"], "scenario"))
        if scenario.grid.n_years > MAX_SCENARIO_YEARS:
            raise ValueError(f"scenario spans {scenario.grid.n_years} years, more than "
                             f"MAX_SCENARIO_YEARS = {MAX_SCENARIO_YEARS}")
        obs, truth = synthetic.generate(scenario)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    traj = eval_param_trajectories(scenario.theta_true, scenario.spec, scenario.grid)
    bundle = ReportBundle(
        config_echo=_config_echo("synth", values),
        obs=obs,
        spec=scenario.spec,
        trajectories=traj,
        simulation=truth,
        emit_data=True,
    )
    write_reports(bundle, values["out"], values["formats"])
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
        values = _resolve(args.command, args, _load_config(getattr(args, "config", None)))
        if args.command == "synth":
            return _run_synth(values)
        return _run_pipeline(args.command, values)
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
