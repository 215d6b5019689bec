"""Synthetic data generation from known parameter trajectories.

Scenarios pin down a true coefficient vector, an exogenous bachelor's
input shape, and explicit initial stocks; observations are the implied
flows with optional multiplicative log-normal noise.  First-year
observations are always the noise-free implied flows, so the anchoring
convention used in estimation is exactly satisfiable and a noise-free
scenario can be refitted to zero loss.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    ModelSpec,
    ObservedSeries,
    SimulationResult,
    YearGrid,
    eval_param_trajectories,
    run_recurrence,
)


@dataclass(frozen=True)
class ConstantInput:
    level: float

    def values(self, grid: YearGrid) -> np.ndarray:
        return np.full(grid.n_years, float(self.level))


@dataclass(frozen=True)
class ExponentialInput:
    """level * exp(rate * (t - t_min)): smooth exponential trend."""

    level: float
    rate: float

    def values(self, grid: YearGrid) -> np.ndarray:
        return float(self.level) * np.exp(float(self.rate) * (grid.years - grid.t_min))


@dataclass(frozen=True)
class PiecewiseLinearInput:
    """Linear interpolation through (year, value) breakpoints, flat beyond them."""

    points: tuple[tuple[float, float], ...]

    def values(self, grid: YearGrid) -> np.ndarray:
        if len(self.points) < 2:
            raise ValueError("piecewise-linear input needs at least two breakpoints")
        xs = np.array([p[0] for p in self.points], dtype=float)
        ys = np.array([p[1] for p in self.points], dtype=float)
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoint years must be strictly increasing")
        return np.interp(grid.years, xs, ys)


InputSeries = Union[ConstantInput, ExponentialInput, PiecewiseLinearInput]


@dataclass
class SyntheticScenario:
    grid: YearGrid
    spec: ModelSpec
    theta_true: np.ndarray
    b_input: InputSeries
    stock_m0: float
    stock_p0: float
    noise_sd: float = 0.0
    seed: int = 0
    # Proxy-series shape; required by forcing specs, optional otherwise
    # (emitting one lets forcing specs be fitted against the data).
    p_intl_input: Optional[InputSeries] = None


def generate(scenario: SyntheticScenario) -> tuple[ObservedSeries, SimulationResult]:
    """Simulate the true system and wrap its flows as noisy observations.

    Returns the observed series together with the true latent simulation.
    """
    for name in ("stock_m0", "stock_p0"):
        if not 0.0 < getattr(scenario, name) < math.inf:
            raise ValueError(f"{name} must be finite and strictly positive")
    if not 0.0 <= scenario.noise_sd < math.inf:
        raise ValueError("noise_sd must be finite and nonnegative")
    grid = scenario.grid
    b = scenario.b_input.values(grid)
    if np.any(b <= 0):
        raise ValueError("degenerate input generator: bachelor's series must stay positive")
    p_intl = None
    if scenario.p_intl_input is not None:
        p_intl = scenario.p_intl_input.values(grid)
        if np.any(p_intl < 0):
            raise ValueError("degenerate input generator: p_intl series must be nonnegative")
    if scenario.spec.forcing and p_intl is None:
        raise ValueError("forcing scenario requires a p_intl input")

    traj = eval_param_trajectories(scenario.theta_true, scenario.spec, grid)
    truth = run_recurrence(
        b,
        traj,
        scenario.stock_m0,
        scenario.stock_p0,
        p_intl=p_intl if scenario.spec.forcing else None,
    )
    flows = np.stack([truth.flow_m, truth.flow_p])
    if not np.all(np.isfinite(flows) & (flows > 0)):
        raise ValueError("degenerate scenario: implied flows must stay finite and positive")

    rng = np.random.default_rng(scenario.seed)
    n = grid.n_years
    m = truth.flow_m * np.exp(rng.normal(0.0, scenario.noise_sd, n))
    p = truth.flow_p * np.exp(rng.normal(0.0, scenario.noise_sd, n))
    # Anchor the first observations at the noise-free flows.
    m[0] = truth.flow_m[0]
    p[0] = truth.flow_p[0]
    obs = ObservedSeries(grid=grid, b=b, m=m, p=p, p_intl=p_intl)
    return obs, truth


def _object(value, name: str = "value") -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _field(d: dict, name: str, convert, *default):
    """``convert(d[name])``, or the default; a missing or bad field raises ValueError naming it."""
    if name not in d:
        if not default:
            raise ValueError(f"scenario config missing required field {name!r}")
        return default[0]
    try:
        return convert(d[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"scenario field {name!r}: {exc}") from None


def _json_int(value) -> int:
    # A JSON integer only: bool is an int subclass, and int() truncates floats.
    if type(value) is not int:
        raise ValueError(f"must be a JSON integer, got {value!r}")
    return value


def _json_bool(value) -> bool:
    if type(value) is not bool:
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _year(value) -> int:
    """A JSON integer in the calendar's range of years, ``datetime``'s 1-9999."""
    year = _json_int(value)
    if not datetime.MINYEAR <= year <= datetime.MAXYEAR:
        raise ValueError(f"must be a year in [{datetime.MINYEAR}, {datetime.MAXYEAR}], got {year}")
    return year


def input_from_dict(d: dict) -> InputSeries:
    kind = _object(d).get("kind")
    if kind == "constant":
        return ConstantInput(level=_field(d, "level", float))
    if kind == "exponential":
        return ExponentialInput(level=_field(d, "level", float), rate=_field(d, "rate", float))
    if kind == "piecewise":
        return PiecewiseLinearInput(points=_field(
            d, "points", lambda points: tuple((float(y), float(v)) for y, v in points)))
    raise ValueError(f"unknown input generator kind {kind!r}")


def scenario_from_dict(d: dict) -> SyntheticScenario:
    """Build a scenario from the CLI's JSON; a malformed field raises ValueError naming it."""
    d = _object(d, "scenario")
    spec_d = _field(d, "spec", _object)
    spec = ModelSpec(deg_gamma=_field(spec_d, "deg_gamma", _json_int),
                     deg_rho=_field(spec_d, "deg_rho", _json_int),
                     forcing=_field(spec_d, "forcing", _json_bool, False))
    scenario = SyntheticScenario(
        grid=YearGrid(_field(d, "t_min", _year), _field(d, "t_max", _year)),
        spec=spec,
        theta_true=_field(d, "theta_true", lambda theta: np.asarray(theta, dtype=float)),
        b_input=_field(d, "b_input", input_from_dict),
        stock_m0=_field(d, "stock_m0", float),
        stock_p0=_field(d, "stock_p0", float),
        noise_sd=_field(d, "noise_sd", float, 0.0),
        seed=_field(d, "seed", _json_int, 0),
        p_intl_input=_field(d, "p_intl_input", input_from_dict, None),
    )
    if scenario.theta_true.shape != (spec.n_params,):
        raise ValueError(
            f"theta_true has length {scenario.theta_true.size}, spec needs {spec.n_params}"
        )
    return scenario
