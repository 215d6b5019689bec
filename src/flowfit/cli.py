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


def build_parser() -> _Parser:
    parser = _Parser(prog="flowfit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_common(p, data=True, spec=False):
        p.add_argument("--config", help="JSON config file with defaults for any option")
        p.add_argument("--out", help="output directory (default: $FLOWFIT_OUT_DIR or '.')")
        p.add_argument("--formats", help="comma-separated subset of csv,json (default both)")
        if data:
            p.add_argument("--data", help="input CSV: year,bachelors,masters,phd[,phd_intl]")
        if spec:
            p.add_argument("--spec", help=f"DEG_GAMMA,DEG_RHO,none|intl (default {DEFAULT_SPEC})")

    def add_optimizer(p):
        p.add_argument("--n-starts", type=int, help="multi-start count (default 8)")
        p.add_argument("--seed", type=int, help="base seed for starts (default 0)")
        p.add_argument("--max-iter", type=int, help="iteration cap per start (default 2000)")
        p.add_argument("--gtol", type=float, help="gradient max-norm tolerance (default 1e-6)")
        p.add_argument("--ftol-rel", type=float, help="relative decrease stop (default 1e-12)")

    def add_uncertainty(p):
        p.add_argument("--n-draws", type=int, help="parameter draws for bands (default 4000)")
        p.add_argument("--level", type=float, help="band level (default 0.95)")
        p.add_argument("--draw-seed", type=int, help="seed for parameter draws (default 0)")

    def add_robust(p):
        p.add_argument(
            "--truncation-starts",
            help="comma-separated start years (default: first year + 5, 10, 15)",
        )
        p.add_argument(
            "--cutoffs",
            help="comma-separated hindcast cutoff years "
            f"(default: {','.join(str(c) for c in DEFAULT_CUTOFFS)} where inside the grid)",
        )
        p.add_argument("--rescale", choices=("window", "full"),
                       help="time rescaling for truncated refits (default window)")

    p = sub.add_parser("fit", help="fit a single specification")
    add_common(p, spec=True)
    add_optimizer(p)

    p = sub.add_parser("grid", help="fit and rank the 18-specification grid")
    add_common(p)
    add_optimizer(p)
    p.add_argument("--jobs", type=int, help="parallel workers for grid cells (default 1)")
    p.add_argument("--use-n-eff", action="store_true", default=None,
                   help="use N_eff = 2*years - 2 in the criteria instead of N = 2*years")

    p = sub.add_parser("bands", help="fit, quantify uncertainty, emit trajectory bands")
    add_common(p, spec=True)
    add_optimizer(p)
    add_uncertainty(p)

    p = sub.add_parser("diagnose", help="fit and report residual diagnostics")
    add_common(p, spec=True)
    add_optimizer(p)

    p = sub.add_parser("robust", help="start-year truncation and rolling-origin hindcast")
    add_common(p, spec=True)
    add_optimizer(p)
    add_robust(p)

    p = sub.add_parser("synth", help="generate synthetic data from a scenario file")
    add_common(p, data=False)
    p.add_argument("--scenario", help="JSON scenario definition", required=False)

    p = sub.add_parser("report", help="grid, best-spec fit, bands, diagnostics, robustness")
    add_common(p, spec=True)
    add_optimizer(p)
    add_uncertainty(p)
    add_robust(p)
    p.add_argument("--jobs", type=int, help="parallel workers for grid cells (default 1)")
    p.add_argument("--use-n-eff", action="store_true", default=None)

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
        return FitOptions(
            n_starts=int(self._pick("optimizer", "n_starts", "n_starts", 8)),
            seed=int(self._pick("optimizer", "seed", "seed", 0)),
            gtol=float(self._pick("optimizer", "gtol", "gtol", 1e-6)),
            ftol_rel=float(self._pick("optimizer", "ftol_rel", "ftol_rel", 1e-12)),
            max_iter=int(self._pick("optimizer", "max_iter", "max_iter", 2000)),
        )

    def uncertainty(self) -> tuple[int, float, int]:
        n_draws = int(self._pick("uncertainty", "n_draws", "n_draws", 4000))
        level = float(self._pick("uncertainty", "level", "level", 0.95))
        if n_draws < 2:
            raise CliError(f"n_draws must be at least 2, got {n_draws}")
        if not 0.0 < level < 1.0:
            raise CliError(f"level must lie strictly inside (0, 1), got {level}")
        return n_draws, level, int(self._pick("uncertainty", "draw_seed", "seed", 0))

    def robustness(self, grid, spec: Optional[ModelSpec] = None) -> tuple[list[int], list[int], str]:
        """Truncation start years, hindcast cutoffs and rescaling, checked against ``grid``.

        Without ``spec`` the start years are checked only against the grid,
        not for leaving enough years for the spec's parameters.
        """
        section = self._config.get("robustness", {})
        starts = self._args.get("truncation_starts")
        if starts is not None:
            starts = _int_list(starts)
        elif "truncation_starts" in section:
            starts = [int(y) for y in section["truncation_starts"]]
        else:
            starts = [grid.t_min + off for off in TRUNCATION_OFFSETS if grid.t_min + off < grid.t_max]
        cutoffs = self._args.get("cutoffs")
        if cutoffs is not None:
            cutoffs = _int_list(cutoffs)
        elif "cutoffs" in section:
            cutoffs = [int(y) for y in section["cutoffs"]]
        else:
            cutoffs = [c for c in DEFAULT_CUTOFFS if grid.t_min < c < grid.t_max]
            if not cutoffs:
                raise CliError(
                    "no default hindcast cutoffs fall inside the data window; pass --cutoffs"
                )
        rescale = self._args.get("rescale") or section.get("rescale", "window")
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


def _echo(settings: Settings, command: str, opts: FitOptions, **extra) -> dict:
    echo = {
        "command": command,
        "out": str(settings.out_dir()),
        "formats": list(settings.formats()),
        "optimizer": {
            "n_starts": opts.n_starts,
            "seed": opts.seed,
            "gtol": opts.gtol,
            "ftol_rel": opts.ftol_rel,
            "max_iter": opts.max_iter,
        },
    }
    echo.update(extra)
    return echo


def _fit_bundle(settings: Settings, command: str, obs: ObservedSeries, spec: ModelSpec,
                fit: estimation.FitResult, opts: FitOptions, **echo) -> ReportBundle:
    """Report bundle of one fitted spec: trajectories, flows, residuals and criteria."""
    traj = eval_param_trajectories(fit.theta_hat, spec, obs.grid)
    sim = simulate(obs, traj, spec)
    bundle = ReportBundle(
        config_echo=_echo(settings, command, opts,
                          data=str(settings.data_path()), spec=spec.label(), **echo),
        obs=obs,
        spec=spec,
        fit=fit,
        trajectories=traj,
        simulation=sim,
        n=2 * obs.grid.n_years,
    )
    try:
        bundle.residual_report = diagnostics.residual_report(obs, sim)
    except ValueError:
        bundle.notes.append("residual report unavailable: non-positive implied flows")
    try:
        bundle.aic, bundle.bic = selection.information_criteria(
            fit.sse, spec.n_params, 2 * obs.grid.n_years
        )
    except ValueError:
        bundle.notes.append("perfect fit (sse = 0): information criteria undefined")
    return bundle


def _check_fittable(spec: ModelSpec, obs: ObservedSeries) -> None:
    reason = selection.unfittable_reason(spec, obs)
    if reason is not None:
        raise CliError(f"spec {spec.label()} cannot be fitted: {reason}")


def _fit_one_spec(settings: Settings) -> ReportBundle:
    """Load the data and fit the one spec of ``fit``, ``diagnose`` and ``bands``."""
    spec = settings.spec()
    obs = load_series(settings.data_path())
    _check_fittable(spec, obs)
    opts = settings.optimizer()
    starts = estimation.default_starts(spec, obs, n_starts=opts.n_starts, seed=opts.seed)
    fit = estimation.minimize_bfgs(spec, obs, starts, opts)
    return _fit_bundle(settings, settings.get("command"), obs, spec, fit, opts)


def _add_bands(bundle: ReportBundle, n_draws: int, level: float, draw_seed: int) -> None:
    """Hessian, covariance, parameter draws and trajectory bands at the bundle's fit."""
    fit, spec, obs = bundle.fit, bundle.spec, bundle.obs
    hess = estimation.numerical_hessian(fit.theta_hat, spec, obs)
    bundle.uncertainty = estimation.covariance(hess, fit.sse, spec, obs.grid)
    draws = estimation.sample_parameters(bundle.uncertainty, fit.theta_hat, n_draws, draw_seed)
    bundle.bands = estimation.confidence_bands(draws, spec, obs.grid, level)


def _cmd_fit(settings: Settings) -> int:
    """``fit`` and ``diagnose``: one fitted spec with its residual report."""
    bundle = _fit_one_spec(settings)
    write_reports(bundle, settings.out_dir(), settings.formats())
    return 0 if bundle.fit.converged else 2


def _cmd_bands(settings: Settings) -> int:
    n_draws, level, draw_seed = settings.uncertainty()
    bundle = _fit_one_spec(settings)
    bundle.config_echo["uncertainty"] = {"n_draws": n_draws, "level": level, "seed": draw_seed}
    if bundle.fit.converged:
        _add_bands(bundle, n_draws, level, draw_seed)
    else:
        bundle.notes.append("bands skipped: fit did not converge")
    write_reports(bundle, settings.out_dir(), settings.formats())
    return 0 if bundle.fit.converged else 2


def _cmd_grid(settings: Settings) -> int:
    obs = load_series(settings.data_path())
    opts = settings.optimizer()
    jobs = int(settings.get("jobs", 1))
    use_n_eff = bool(settings.get("use_n_eff", False))
    entries = selection.run_grid(obs, opts, use_n_eff=use_n_eff, jobs=jobs)
    bundle = ReportBundle(
        config_echo=_echo(settings, "grid", opts, data=str(settings.data_path()),
                          jobs=jobs, use_n_eff=use_n_eff),
        obs=obs,
        grid_entries=entries,
    )
    write_reports(bundle, settings.out_dir(), settings.formats())
    any_converged = any(e.fit is not None and e.fit.converged for e in entries)
    return 0 if any_converged else 2


def _cmd_robust(settings: Settings) -> int:
    spec = settings.spec()
    obs = load_series(settings.data_path())
    _check_fittable(spec, obs)
    opts = settings.optimizer()
    starts, cutoffs, rescale = settings.robustness(obs.grid, spec)
    rows = diagnostics.truncation_study(obs, spec, starts, opts, rescale=rescale)
    hindcast = diagnostics.rolling_origin_hindcast(obs, spec, cutoffs, opts, rescale=rescale)
    bundle = ReportBundle(
        config_echo=_echo(settings, "robust", opts, data=str(settings.data_path()),
                          spec=spec.label(), truncation_starts=starts,
                          cutoffs=cutoffs, rescale=rescale),
        obs=obs,
        spec=spec,
        robustness=RobustnessReport(truncation_rows=rows, hindcast=hindcast),
    )
    write_reports(bundle, settings.out_dir(), settings.formats())
    any_converged = any(r.converged for r in rows) or any(
        p.converged for p in hindcast.predictions
    )
    return 0 if any_converged else 2


def _cmd_synth(settings: Settings) -> int:
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


def _cmd_report(settings: Settings) -> int:
    # Every setting is resolved and checked before the grid runs.
    spec = settings.spec() if settings.get("spec") is not None else None
    n_draws, level, draw_seed = settings.uncertainty()
    obs = load_series(settings.data_path())
    if spec is not None:
        _check_fittable(spec, obs)
    opts = settings.optimizer()
    trunc_starts, cutoffs, rescale = settings.robustness(obs.grid, spec)
    jobs = int(settings.get("jobs", 1))
    use_n_eff = bool(settings.get("use_n_eff", False))
    entries = selection.run_grid(obs, opts, use_n_eff=use_n_eff, jobs=jobs)
    if spec is None:
        try:
            spec = selection.select_best(entries, "aic").spec
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        diagnostics.check_truncation_starts(obs.grid, trunc_starts, spec)
    # The grid has fitted every spec it could, this one included; report that fit.
    entry = next(e for e in entries if e.spec == spec)
    bundle = _fit_bundle(settings, "report", obs, spec, entry.fit, opts,
                         jobs=jobs, use_n_eff=use_n_eff,
                         uncertainty={"n_draws": n_draws, "level": level, "seed": draw_seed},
                         truncation_starts=trunc_starts, cutoffs=cutoffs, rescale=rescale)
    bundle.grid_entries = entries
    if entry.fit.converged:
        _add_bands(bundle, n_draws, level, draw_seed)
    rows = diagnostics.truncation_study(obs, spec, trunc_starts, opts, rescale=rescale)
    hindcast = diagnostics.rolling_origin_hindcast(obs, spec, cutoffs, opts, rescale=rescale)
    bundle.robustness = RobustnessReport(truncation_rows=rows, hindcast=hindcast)
    write_reports(bundle, settings.out_dir(), settings.formats())
    return 0 if entry.fit.converged else 2


_COMMANDS = {
    "fit": _cmd_fit,
    "grid": _cmd_grid,
    "bands": _cmd_bands,
    "diagnose": _cmd_fit,
    "robust": _cmd_robust,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        config = _load_config(getattr(args, "config", None))
        settings = Settings(args, config)
        return _COMMANDS[args.command](settings)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except estimation.NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
