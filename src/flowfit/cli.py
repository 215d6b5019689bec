"""Command-line interface.

Subcommands: ``fit`` (single specification), ``grid`` (full comparison
table), ``bands`` (uncertainty and trajectory bands), ``diagnose``
(residual report), ``robust`` (truncation and hindcast protocols),
``synth`` (synthetic scenario generation), ``report`` (everything).

Exit codes: 0 success, 1 data or configuration error, 2 numerical
failure (no converged fit, or a ``NumericalError`` such as a Hessian
without positive curvature).  Defaults may be placed in a JSON config
file (``--config``); explicit flags win over the config file, which wins
over built-in defaults.  The ``FLOWFIT_OUT_DIR`` environment variable
selects the default output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import diagnostics, estimation, selection, synthetic
from .dataio import DataError, ReportBundle, load_series, write_reports
from .diagnostics import RobustnessReport
from .estimation import FitOptions
from .model import ModelSpec, ObservedSeries, eval_param_trajectories, simulate

OUT_DIR_ENV = "FLOWFIT_OUT_DIR"

DEFAULT_SPEC = "2,2,none"
DEFAULT_CUTOFFS = (1990, 1995, 2000, 2005, 2010, 2015)
TRUNCATION_OFFSETS = (5, 10, 15)

# Upper bounds on the work and memory one run may ask for: the bands of
# MAX_N_DRAWS draws on 49 years take about 100 MB.
MAX_N_DRAWS = 100_000
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

# Every data command fits, so every one takes the optimizer flags.
_OPTIMIZER_FLAGS = (
    ("--n-starts", dict(type=int, help="multi-start count (default 8)")),
    ("--seed", dict(type=int, help="base seed for starts (default 0)")),
    ("--max-iter", dict(type=int, help="iteration cap per start (default 2000)")),
    ("--gtol", dict(type=float, help="gradient max-norm tolerance (default 1e-6)")),
    ("--ftol-rel", dict(type=float, help="relative decrease stop (default 1e-12)")),
)

# Flags of the stages that take their own settings.
_STAGE_FLAGS = {
    "bands": (
        ("--n-draws", dict(type=int, help="parameter draws for bands (default 4000)")),
        ("--level", dict(type=float, help="band level (default 0.95)")),
        ("--draw-seed", dict(type=int, help="seed for parameter draws (default 0)")),
    ),
    "robust": (
        ("--truncation-starts",
         dict(help="comma-separated start years (default: first year + 5, 10, 15)")),
        ("--cutoffs",
         dict(help="comma-separated hindcast cutoff years (default: "
                   f"{','.join(str(c) for c in DEFAULT_CUTOFFS)} where inside the grid)")),
        ("--rescale", dict(choices=("window", "full"),
                           help="time rescaling for truncated refits (default window)")),
    ),
    "grid": (
        ("--jobs", dict(type=int, help="parallel workers for the grid's lane chunks (default 1)")),
        ("--use-n-eff", dict(action="store_true", default=None,
                             help="use N_eff = 2*years - 2 in the criteria instead of N = 2*years")),
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="flowfit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, (stages, help_line) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON config file with defaults for any option")
        p.add_argument("--out", help="output directory (default: $FLOWFIT_OUT_DIR or '.')")
        p.add_argument("--formats", help="comma-separated subset of csv,json (default both)")
        if stages is None:
            p.add_argument("--scenario", help="JSON scenario definition")
            continue
        p.add_argument("--data", help="input CSV: year,bachelors,masters,phd[,phd_intl]")
        if "fit" in stages or "robust" in stages:
            p.add_argument("--spec", help=f"DEG_GAMMA,DEG_RHO,none|intl (default {DEFAULT_SPEC})")
        flags = _OPTIMIZER_FLAGS + tuple(
            flag for stage, group in _STAGE_FLAGS.items() if stage in stages for flag in group
        )
        for name, kwargs in flags:
            p.add_argument(name, **kwargs)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_list_of(check):
    return lambda value: isinstance(value, list) and all(check(item) for item in value)


_IS_OBJECT = (lambda value: isinstance(value, dict), "an object")
_IS_INT = (_is_int, "an integer")
_IS_NUMBER = (_is_number, "a number")
_IS_STR = (_is_str, "a string")
_IS_YEARS = (_is_list_of(_is_int), "a list of integers")

# (check, description) of each config key's JSON value; other keys are ignored.
_CONFIG_TYPES = {
    "data": _IS_STR, "out": _IS_STR, "spec": _IS_STR, "scenario": _IS_STR,
    "formats": (lambda v: _is_str(v) or _is_list_of(_is_str)(v),
                "a string or a list of strings"),
    "jobs": _IS_INT,
    "use_n_eff": (lambda v: isinstance(v, bool), "true or false"),
    "optimizer": _IS_OBJECT, "uncertainty": _IS_OBJECT, "robustness": _IS_OBJECT,
}
_SECTION_TYPES = {
    "optimizer": {"n_starts": _IS_INT, "seed": _IS_INT, "gtol": _IS_NUMBER,
                  "ftol_rel": _IS_NUMBER, "max_iter": _IS_INT},
    "uncertainty": {"n_draws": _IS_INT, "level": _IS_NUMBER, "seed": _IS_INT},
    "robustness": {"truncation_starts": _IS_YEARS, "cutoffs": _IS_YEARS, "rescale": _IS_STR},
}


def _check_types(table: dict, rules: dict, prefix: str = "") -> None:
    for key, (check, expected) in rules.items():
        if key in table and not check(table[key]):
            raise CliError(f"config '{prefix}{key}' must be {expected}, "
                           f"got {json.dumps(table[key])}")


def _validate_config(cfg: dict) -> None:
    """Reject config values of the wrong JSON type before anything runs."""
    _check_types(cfg, _CONFIG_TYPES)   # sections are objects from here on
    for section, rules in _SECTION_TYPES.items():
        _check_types(cfg.get(section, {}), rules, f"{section}.")


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError("config file must contain a JSON object")
    _validate_config(cfg)
    return cfg


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if value < low:
        raise CliError(f"{name} must be at least {low}, got {value}")
    if value > high:
        raise CliError(f"{name} must be at most {high}, got {value}")


def _check_seed(name: str, value: int) -> None:
    # NumPy's generators take any non-negative integer.
    if value < 0:
        raise CliError(f"{name} must be at least 0, got {value}")


class Settings:
    """Flag > config-file > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = vars(args)
        self._config = config
        # Every command writes reports, so the formats are checked before any runs.
        self._formats = self._resolve_formats()

    def get(self, name: str, default=None):
        value = self._args.get(name)
        if value is not None:
            return value
        if name in self._config:
            return self._config[name]
        return default

    def _pick(self, section: str, flag: str, key: str, default):
        """Flag > ``section.key`` in the config file > default."""
        value = self._args.get(flag)
        if value is not None:
            return value
        return self._config.get(section, {}).get(key, default)

    def optimizer(self) -> FitOptions:
        opts = FitOptions(
            n_starts=int(self._pick("optimizer", "n_starts", "n_starts", 8)),
            seed=int(self._pick("optimizer", "seed", "seed", 0)),
            gtol=float(self._pick("optimizer", "gtol", "gtol", 1e-6)),
            ftol_rel=float(self._pick("optimizer", "ftol_rel", "ftol_rel", 1e-12)),
            max_iter=int(self._pick("optimizer", "max_iter", "max_iter", 2000)),
        )
        _check_range("n_starts", opts.n_starts, 1, MAX_N_STARTS)
        _check_range("max_iter", opts.max_iter, 0, MAX_ITER)
        _check_seed("seed", opts.seed)
        for name in ("gtol", "ftol_rel"):
            value = getattr(opts, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise CliError(f"{name} must be a finite number >= 0, got {value}")
        return opts

    def uncertainty(self) -> tuple[int, float, int]:
        n_draws = int(self._pick("uncertainty", "n_draws", "n_draws", 4000))
        level = float(self._pick("uncertainty", "level", "level", 0.95))
        _check_range("n_draws", n_draws, 2, MAX_N_DRAWS)
        if not 0.0 < level < 1.0:
            raise CliError(f"level must lie strictly inside (0, 1), got {level}")
        draw_seed = int(self._pick("uncertainty", "draw_seed", "seed", 0))
        _check_seed("draw_seed", draw_seed)
        return n_draws, level, draw_seed

    def _years(self, key: str) -> Optional[list[int]]:
        """Flag (comma-separated) > ``robustness.key`` in the config file > None."""
        years = self._pick("robustness", key, key, None)
        return _int_list(years) if isinstance(years, str) else years

    def robustness(self, grid, spec: Optional[ModelSpec] = None) -> tuple[list[int], list[int], str]:
        """Truncation start years, hindcast cutoffs and rescaling, checked against ``grid``.

        Without ``spec`` the start years are checked only against the grid,
        not for leaving enough years for the spec's parameters.
        """
        starts = self._years("truncation_starts")
        if starts is None:
            starts = [grid.t_min + off for off in TRUNCATION_OFFSETS if grid.t_min + off < grid.t_max]
        cutoffs = self._years("cutoffs")
        if cutoffs is None:
            cutoffs = [c for c in DEFAULT_CUTOFFS if grid.t_min < c < grid.t_max]
            if not cutoffs:
                raise CliError(
                    "no default hindcast cutoffs fall inside the data window; pass --cutoffs"
                )
        rescale = self._pick("robustness", "rescale", "rescale", "window")
        diagnostics.check_rescale(rescale)
        diagnostics.check_truncation_starts(grid, starts, spec)
        diagnostics.check_cutoffs(grid, cutoffs)
        return starts, cutoffs, rescale

    def out_dir(self) -> Path:
        return Path(self.get("out", os.environ.get(OUT_DIR_ENV, ".")))

    def formats(self) -> tuple[str, ...]:
        return self._formats

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
    opts = settings.optimizer()
    echo = {"command": command, "out": str(settings.out_dir()),
            "formats": list(settings.formats()), "data": settings.data_path(),
            "optimizer": {key: getattr(opts, key)
                          for key in ("n_starts", "seed", "gtol", "ftol_rel", "max_iter")}}
    if "bands" in stages:
        n_draws, level, draw_seed = settings.uncertainty()
        echo["uncertainty"] = {"n_draws": n_draws, "level": level, "seed": draw_seed}
    if "grid" in stages:
        echo["jobs"] = int(settings.get("jobs", 1))
        echo["use_n_eff"] = bool(settings.get("use_n_eff", False))
    obs = load_series(echo["data"])
    if spec is not None:
        reason = selection.unfittable_reason(spec, obs)
        if reason is not None:
            raise CliError(f"spec {spec.label()} cannot be fitted: {reason}")
    if "robust" in stages:
        trunc_starts, cutoffs, rescale = settings.robustness(obs.grid, spec)
        echo.update(truncation_starts=trunc_starts, cutoffs=cutoffs, rescale=rescale)

    # ``outcomes`` are the fits whose convergence sets the exit code: the
    # fit if there is one, else the grid's, else the robustness refits.
    entries = fit = outcomes = None
    # The criteria's observation count, the same in the grid and the fit's report.
    n = obs.grid.n_eff if echo.get("use_n_eff") else 2 * obs.grid.n_years
    if "grid" in stages:
        entries = selection.run_grid(obs, opts, n=n, jobs=echo["jobs"])
        outcomes = [e.fit for e in entries if e.fit is not None]
        if wants_spec and spec is None:
            try:
                spec = selection.select_best(entries, "aic").spec
            except ValueError as exc:   # the grid fitted no spec
                raise estimation.NumericalError(str(exc)) from None
            if "robust" in stages:
                diagnostics.check_truncation_starts(obs.grid, trunc_starts, spec)
    if "fit" in stages:
        if entries is None:
            starts = estimation.default_starts(spec, obs, n_starts=opts.n_starts, seed=opts.seed)
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
                                                 n_draws, draw_seed)
            bundle.bands = estimation.confidence_bands(draws, spec, obs.grid, level)
        else:
            bundle.notes.append("bands skipped: fit did not converge")
    if "robust" in stages:
        rows = diagnostics.truncation_study(obs, spec, trunc_starts, opts, rescale=rescale)
        hindcast = diagnostics.rolling_origin_hindcast(obs, spec, cutoffs, opts, rescale=rescale)
        bundle.robustness = RobustnessReport(truncation_rows=rows, hindcast=hindcast)
        if outcomes is None:
            outcomes = rows + hindcast.predictions

    if spec is not None:
        echo["spec"] = spec.label()
    bundle.config_echo, bundle.grid_entries = echo, entries
    write_reports(bundle, settings.out_dir(), settings.formats())
    return 0 if any(f.converged for f in outcomes) else 2


def _run_synth(settings: Settings) -> int:
    scenario_path = settings.get("scenario")
    if scenario_path is None:
        raise CliError("--scenario is required (or provide 'scenario' in the config file)")
    try:
        with open(scenario_path, "r", encoding="utf-8") as handle:
            scenario_dict = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"scenario file is not valid JSON: {exc}") from None
    try:
        scenario = synthetic.scenario_from_dict(scenario_dict)
        obs, truth = synthetic.generate(scenario)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    traj = eval_param_trajectories(scenario.theta_true, scenario.spec, scenario.grid)
    bundle = ReportBundle(
        config_echo={"command": "synth", "scenario": scenario_dict,
                     "out": str(settings.out_dir()), "formats": list(settings.formats())},
        obs=obs,
        spec=scenario.spec,
        trajectories=traj,
        simulation=truth,
        emit_data=True,
    )
    write_reports(bundle, settings.out_dir(), settings.formats())
    return 0


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
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
