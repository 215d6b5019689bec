"""Latent two-compartment stock-flow system and its forward simulation.

Two unobserved stocks (a master's-level and a PhD-level degree-producing
population) are driven by an exogenous bachelor's completion flow.  Each
year a fraction of bachelor's completions is routed into each stock, a
fraction of master's completions feeds the PhD stock, and each stock
releases completions at a per-year hazard.  Routing fractions and hazards
are logistic images of low-degree polynomials in rescaled time, so the
whole system is parameterized by a single unconstrained coefficient
vector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Optional, Sequence

import numpy as np

# Logistic outputs are clamped away from {0, 1} before they enter the
# recurrences: hazards and routing fractions must stay in the open interval.
LOGISTIC_CLAMP = 1e-12

# Floor on the unconstrained forcing coefficient; exp(-40) is numerically
# zero at the scale of the flows and avoids subnormal underflow.
LAMBDA_RAW_FLOOR = -40.0

TRAJECTORY_NAMES = ("rho_bm", "rho_bp", "rho_mp", "gamma_m", "gamma_p")


@dataclass(frozen=True)
class YearGrid:
    """Contiguous annual observation window, inclusive of both endpoints."""

    t_min: int
    t_max: int

    def __post_init__(self) -> None:
        if self.t_max <= self.t_min:
            raise ValueError(
                f"year grid must span at least two years, got [{self.t_min}, {self.t_max}]"
            )

    @property
    def n_years(self) -> int:
        return self.t_max - self.t_min + 1

    @property
    def t_mid(self) -> float:
        # Exact real midpoint, never rounded to an integer year.
        return (self.t_min + self.t_max) / 2.0

    @property
    def half_width(self) -> float:
        return (self.t_max - self.t_min) / 2.0

    @property
    def years(self) -> np.ndarray:
        return np.arange(self.t_min, self.t_max + 1)


@dataclass(frozen=True)
class ModelSpec:
    """One point of the specification grid: polynomial degrees plus forcing flag."""

    deg_gamma: int
    deg_rho: int
    forcing: bool = False

    def __post_init__(self) -> None:
        if self.deg_gamma not in (0, 1, 2):
            raise ValueError(f"deg_gamma must be in {{0, 1, 2}}, got {self.deg_gamma}")
        if self.deg_rho not in (0, 1, 2):
            raise ValueError(f"deg_rho must be in {{0, 1, 2}}, got {self.deg_rho}")

    @property
    def n_params(self) -> int:
        """Free-parameter count: three routing blocks, two hazard blocks, optional forcing."""
        return 3 * (self.deg_rho + 1) + 2 * (self.deg_gamma + 1) + (1 if self.forcing else 0)

    def label(self) -> str:
        return f"{self.deg_gamma},{self.deg_rho},{'intl' if self.forcing else 'none'}"


def theta_labels(spec: ModelSpec) -> list[str]:
    """Coefficient names in the fixed parameter-vector order.

    Routing blocks (bachelor's->master's, bachelor's->PhD, master's->PhD)
    come first, each ordered constant, linear, quadratic; then the two
    hazard blocks (master's, PhD); then the raw forcing coefficient.
    """
    labels = []
    for block in ("rho_bm", "rho_bp", "rho_mp"):
        labels += [f"{block}_{j}" for j in range(spec.deg_rho + 1)]
    for block in ("gamma_m", "gamma_p"):
        labels += [f"{block}_{j}" for j in range(spec.deg_gamma + 1)]
    if spec.forcing:
        labels.append("lambda_raw")
    return labels


@dataclass
class ObservedSeries:
    """Annual completion counts on a contiguous year grid.

    ``b`` may touch zero; ``m`` and ``p`` must be strictly positive because
    the fit works with their logarithms.  ``p_intl`` is an optional proxy
    series used only by forcing specifications.
    """

    grid: YearGrid
    b: np.ndarray
    m: np.ndarray
    p: np.ndarray
    p_intl: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        n = self.grid.n_years
        for name, arr in (("b", self.b), ("m", self.m), ("p", self.p)):
            if arr.shape != (n,):
                raise ValueError(f"series {name!r} must have {n} entries, got shape {arr.shape}")
        if np.any(self.b < 0) or not np.all(np.isfinite(self.b)):
            raise ValueError("bachelor's series must be finite and nonnegative")
        if np.any(self.m <= 0) or not np.all(np.isfinite(self.m)):
            raise ValueError("master's series must be finite and strictly positive")
        if np.any(self.p <= 0) or not np.all(np.isfinite(self.p)):
            raise ValueError("PhD series must be finite and strictly positive")
        if self.p_intl is not None:
            self.p_intl = np.asarray(self.p_intl, dtype=float)
            if self.p_intl.shape != (n,):
                raise ValueError(
                    f"p_intl must cover the same {n}-year grid, got shape {self.p_intl.shape}"
                )
            if np.any(self.p_intl < 0) or not np.all(np.isfinite(self.p_intl)):
                raise ValueError("p_intl series must be finite and nonnegative")

    def window(self, t_min: int, t_max: int) -> "ObservedSeries":
        """Return the sub-series on [t_min, t_max]; rejects years outside the grid."""
        if t_min < self.grid.t_min or t_max > self.grid.t_max:
            raise ValueError(
                f"window [{t_min}, {t_max}] not contained in grid "
                f"[{self.grid.t_min}, {self.grid.t_max}]"
            )
        lo = t_min - self.grid.t_min
        hi = t_max - self.grid.t_min + 1
        return ObservedSeries(
            grid=YearGrid(t_min, t_max),
            b=self.b[lo:hi].copy(),
            m=self.m[lo:hi].copy(),
            p=self.p[lo:hi].copy(),
            p_intl=None if self.p_intl is None else self.p_intl[lo:hi].copy(),
        )


@dataclass
class ParamTrajectories:
    """Per-year routing fractions and hazards, all strictly inside (0, 1).

    For a batch of B parameter vectors each array is ``(n_years, B)`` and
    ``lam`` is a ``(B,)`` array.
    """

    rho_bm: np.ndarray
    rho_bp: np.ndarray
    rho_mp: np.ndarray
    gamma_m: np.ndarray
    gamma_p: np.ndarray
    lam: float = 0.0

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TRAJECTORY_NAMES}


@dataclass
class SimulationResult:
    """Latent stocks and the completion flows they imply at every grid year."""

    stock_m: np.ndarray
    stock_p: np.ndarray
    flow_m: np.ndarray
    flow_p: np.ndarray


def rescale_time(t, grid: YearGrid):
    """Map calendar year(s) to the dimensionless index with endpoints at -1 and +1.

    Defined for any year, including years outside the grid; values beyond
    the window land outside [-1, 1] and are used for hindcast extrapolation.
    """
    s = (np.asarray(t, dtype=float) - grid.t_mid) / grid.half_width
    if s.ndim == 0:
        return float(s)
    return s


def logit(x):
    x = np.asarray(x, dtype=float)
    return np.log(x / (1.0 - x))


def _logistic_two_branch(y: np.ndarray) -> np.ndarray:
    """1/(1+exp(-y)) for y >= 0 and exp(y)/(1+exp(y)) otherwise, computed in ``y``'s buffer."""
    pos = y >= 0
    e = np.exp(np.negative(np.abs(y, out=y), out=y), out=y)
    denom = e + 1.0
    np.copyto(e, 1.0, where=pos)
    return np.divide(e, denom, out=e)


def inv_logit(y):
    """Logistic inverse 1/(1+exp(-y)), overflow-safe for large |y|.

    Saturating inputs are pinned at the nearest representable values
    inside (0, 1), so the result never touches the endpoints exactly.
    """
    out = _logistic_two_branch(np.array(y, dtype=float))
    out = np.clip(out, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def _clamped_logistic(eta: np.ndarray) -> np.ndarray:
    """Logistic of ``eta`` clamped to [LOGISTIC_CLAMP, 1 - LOGISTIC_CLAMP], in place."""
    out = _logistic_two_branch(eta)
    # np.clip's result (nan stays nan), without its Python-level overhead.
    np.maximum(out, LOGISTIC_CLAMP, out=out)
    return np.minimum(out, 1.0 - LOGISTIC_CLAMP, out=out)


def _coefficient_blocks(spec: ModelSpec) -> dict[str, slice]:
    """Slice of the parameter vector holding each trajectory's coefficients."""
    widths = (spec.deg_rho + 1,) * 3 + (spec.deg_gamma + 1,) * 2
    blocks = {}
    start = 0
    for name, width in zip(TRAJECTORY_NAMES, widths):
        blocks[name] = slice(start, start + width)
        start += width
    return blocks


@dataclass(frozen=True)
class _Designs:
    """Vandermonde designs of one (spec, grid, years), read-only.

    ``blocks`` holds ``(name, coefficient slice, design)`` for each
    trajectory; ``stacked`` is the ``(5 n_years, k)`` block design whose
    product with a parameter vector gives the five linear predictors one
    after another.
    """

    blocks: tuple[tuple[str, slice, np.ndarray], ...]
    stacked: np.ndarray


def _trajectory_designs(
    spec: ModelSpec, grid: YearGrid, years: Optional[Sequence[int]] = None
) -> _Designs:
    """Designs of the five trajectories at ``years`` (default: the grid's own).

    The design's columns are 1, s, s^2, ... up to the block's degree, at the
    rescaled years; blocks of one width share one design.  Designs are built
    once per (spec, grid, years).
    """
    years_key = None if years is None else np.asarray(years, dtype=float).tobytes()
    return _designs_for(spec, grid, years_key)


@functools.lru_cache(maxsize=64)
def _designs_for(spec: ModelSpec, grid: YearGrid, years_key: Optional[bytes]) -> _Designs:
    s = rescale_time(grid.years if years_key is None else np.frombuffer(years_key), grid)
    n = s.size
    designs: dict[int, np.ndarray] = {}
    blocks = []
    stacked = np.zeros((len(TRAJECTORY_NAMES) * n, spec.n_params))
    for row, (name, block) in enumerate(_coefficient_blocks(spec).items()):
        width = block.stop - block.start
        if width not in designs:
            designs[width] = np.vander(s, width, increasing=True)
            designs[width].flags.writeable = False
        blocks.append((name, block, designs[width]))
        stacked[row * n:(row + 1) * n, block] = designs[width]
    stacked.flags.writeable = False
    return _Designs(blocks=tuple(blocks), stacked=stacked)


def _forcing_weight(lambda_raw):
    """exp(lambda_raw) floored at exp(LAMBDA_RAW_FLOOR), elementwise."""
    # May overflow to inf for absurd coefficients; the loss penalty path
    # rejects the resulting non-finite flows.
    with np.errstate(over="ignore"):
        return np.exp(np.maximum(lambda_raw, LAMBDA_RAW_FLOOR))


def _checked_theta(theta: np.ndarray, spec: ModelSpec) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != spec.n_params:
        raise ValueError(
            f"theta has length {theta.shape[-1] if theta.ndim else 1}, "
            f"spec {spec.label()!r} needs {spec.n_params}"
        )
    return theta


def _linear_predictors(
    theta: np.ndarray,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]] = None,
) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, eta)`` for the five trajectories before the clamped logistic.

    ``theta`` is one parameter vector (``eta`` of shape ``(n_years,)``) or a
    ``(B, k)`` batch of them (``eta`` of shape ``(n_years, B)``, one column
    per row of ``theta``), one Vandermonde product per trajectory.
    """
    theta = _checked_theta(theta, spec)
    for name, block, design in _trajectory_designs(spec, grid, years).blocks:
        yield name, design @ theta[..., block].T


def iter_trajectories(
    theta: np.ndarray,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]] = None,
) -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, values)`` for the five parameter trajectories, one at a time.

    Shapes as in :func:`_linear_predictors`; each trajectory is one
    clamped logistic for the whole batch, and yielding them one at a time
    lets a caller reduce each before the next is built.
    """
    for name, eta in _linear_predictors(theta, spec, grid, years):
        yield name, _clamped_logistic(eta)


def eval_param_trajectories(
    theta: np.ndarray,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]] = None,
) -> ParamTrajectories:
    """Evaluate the five parameter trajectories at the given years.

    ``grid`` anchors the time rescaling; ``years`` defaults to the grid
    itself but may extend beyond it (polynomial extrapolation).  The five
    linear predictors are one product with the stacked block design, so the
    clamped logistic runs once for all of them; an infinite coefficient
    therefore turns the other trajectories into ``nan`` (0 * inf).
    """
    if np.ndim(theta) != 1:
        raise ValueError(f"theta must be one parameter vector, got shape {np.shape(theta)}")
    theta = _checked_theta(theta, spec)
    stacked = _trajectory_designs(spec, grid, years).stacked
    values = _clamped_logistic(stacked @ theta).reshape(len(TRAJECTORY_NAMES), -1)
    lam = float(_forcing_weight(float(theta[-1]))) if spec.forcing else 0.0
    return ParamTrajectories(*values, lam=lam)


def eval_param_trajectories_batch(
    thetas: np.ndarray,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]] = None,
) -> ParamTrajectories:
    """Trajectories for a ``(B, k)`` batch of parameter vectors.

    Each trajectory array has shape ``(n_years, B)`` and ``lam`` has shape
    ``(B,)``; column ``j`` holds what :func:`eval_param_trajectories` gives
    for ``thetas[j]``, up to round-off in the polynomial product.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError(f"thetas must be a (B, k) array, got shape {thetas.shape}")
    values = dict(iter_trajectories(thetas, spec, grid, years))
    lam = _forcing_weight(thetas[:, -1]) if spec.forcing else np.zeros(thetas.shape[0])
    return ParamTrajectories(**values, lam=lam)


def trajectories_vjp(
    theta: np.ndarray,
    traj: ParamTrajectories,
    traj_bar: ParamTrajectories,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Pull adjoints of the trajectories back to the parameter vector.

    ``traj`` is what :func:`eval_param_trajectories` gave for ``theta`` at
    ``years``, and ``traj_bar`` holds the adjoint (the derivative of some
    scalar) of each of its arrays and of ``lam``.
    """
    p, p_bar = (np.concatenate([getattr(t, name) for name in TRAJECTORY_NAMES])
                for t in (traj, traj_bar))
    return _pull_back(theta, p, p_bar, traj.lam, traj_bar.lam, spec, grid, years)


def _pull_back(
    theta: np.ndarray,
    p: np.ndarray,
    p_bar: np.ndarray,
    lam: float,
    lam_bar: float,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]],
) -> np.ndarray:
    """:func:`trajectories_vjp` on the five trajectories stacked into ``(5 n_years,)``.

    The clamped logistic has derivative p(1-p) strictly inside the clamp
    and 0 where the clip is active; the result then goes back through the
    stacked design of the forward product in one product.  The forcing
    entry is ``lam_bar * lam`` above ``LAMBDA_RAW_FLOOR`` and 0 at or below
    the floor or once ``lam`` has overflowed.
    """
    inside = (p > LOGISTIC_CLAMP) & (p < 1.0 - LOGISTIC_CLAMP)
    eta_bar = np.where(inside, p_bar * (p * (1.0 - p)), 0.0)
    theta_bar = eta_bar @ _trajectory_designs(spec, grid, years).stacked
    if spec.forcing and float(theta[-1]) > LAMBDA_RAW_FLOOR and math.isfinite(lam):
        theta_bar[-1] = lam_bar * lam
    return theta_bar


def initialize_stocks(obs: ObservedSeries, traj: ParamTrajectories) -> tuple[float, float]:
    """Initial stocks that reproduce the first observed completions exactly."""
    m0 = float(obs.m[0])
    p0 = float(obs.p[0])
    if m0 <= 0 or p0 <= 0:
        raise ValueError("first-year master's and PhD completions must be positive")
    return m0 / float(traj.gamma_m[0]), p0 / float(traj.gamma_p[0])


def _annual_updates(
    b: list[float],
    rho_bm: list[float],
    rho_bp: list[float],
    rho_mp: list[float],
    gamma_m: list[float],
    gamma_p: list[float],
    forcing: Optional[list[float]],
    stock_m0: float,
    stock_p0: float,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """The annual update on Python floats: stocks and flows of every year.

    Every argument but the initial stocks is a list of one length;
    ``forcing`` holds the forcing terms ``lam * p_intl`` or is None.
    Returns the lists ``stock_m, stock_p, flow_m, flow_p``.
    """
    stock_m = []
    stock_p = []
    flow_m = []
    flow_p = []
    sm = stock_m0
    sp = stock_p0
    # The update after the last year is computed and dropped.
    for b_i, rbm, rbp, rmp, gm, gp, f in zip(
        b, rho_bm, rho_bp, rho_mp, gamma_m, gamma_p, repeat(None) if forcing is None else forcing
    ):
        fm = gm * sm
        fp = gp * sp
        stock_m.append(sm)
        stock_p.append(sp)
        flow_m.append(fm)
        flow_p.append(fp)
        sp = sp + rbp * b_i + rmp * fm - fp
        if f is not None:
            sp += f
        sm = sm + rbm * b_i - fm
    return stock_m, stock_p, flow_m, flow_p


def run_recurrence(
    b: np.ndarray,
    traj: ParamTrajectories,
    stock_m0: float,
    stock_p0: float,
    p_intl: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Iterate the annual update equations from explicit initial stocks.

    Each year the master's stock gains a routed share of bachelor's
    completions and loses that year's implied completions; the PhD stock
    gains routed shares of bachelor's and implied master's completions
    (plus the forcing term when a proxy series is supplied) and loses its
    own completions.  Flows satisfy flow = hazard * stock exactly.
    """
    # Scalar float arithmetic in the loop; numpy scalars are much slower here.
    forcing = None
    if p_intl is not None:
        lam = traj.lam
        forcing = [lam * float(x) for x in p_intl]
    lists = _annual_updates(
        [float(x) for x in b],
        *(getattr(traj, name).tolist() for name in TRAJECTORY_NAMES),
        forcing,
        float(stock_m0),
        float(stock_p0),
    )
    return SimulationResult(*(np.array(values) for values in lists))


def _adjoint_sweep(
    b: list[float],
    rho_mp: list[float],
    gamma_m: list[float],
    gamma_p: list[float],
    p_intl: Optional[list[float]],
    stock_m: list[float],
    stock_p: list[float],
    flow_m: list[float],
    flow_m_bar: list[float],
    flow_p_bar: list[float],
) -> tuple[list[float], float]:
    """Reverse sweep of :func:`_annual_updates` and the initial stocks, on Python floats.

    The flow adjoints cover the first ``len(flow_m_bar)`` years; the sweep
    runs from the last of them back to year 0.  Returns the adjoints of
    the five trajectories as one flat list of ``5 n`` floats, in
    ``TRAJECTORY_NAMES`` order and zero past the swept years, and the
    adjoint of the forcing weight.
    """
    n = len(b)
    stop = len(flow_m_bar)
    rbm_bar = [0.0] * n
    rbp_bar = [0.0] * n
    rmp_bar = [0.0] * n
    gm_bar = [0.0] * n
    gp_bar = [0.0] * n
    lam_bar = 0.0
    # Adjoints of the stocks one year ahead of year i.
    am = 0.0
    ap = 0.0
    for i in range(stop - 1, -1, -1):
        g_fm = flow_m_bar[i] + ap * rho_mp[i] - am
        g_fp = flow_p_bar[i] - ap
        rbm_bar[i] = am * b[i]
        rbp_bar[i] = ap * b[i]
        rmp_bar[i] = ap * flow_m[i]
        if p_intl is not None:
            lam_bar += ap * p_intl[i]
        gm_bar[i] = g_fm * stock_m[i]
        gp_bar[i] = g_fp * stock_p[i]
        am += g_fm * gamma_m[i]
        ap += g_fp * gamma_p[i]
    if stop:
        # stock_m0 = m0 / gamma_m[0], so d stock_m0 / d gamma_m[0] = -stock_m0 / gamma_m[0].
        gm_bar[0] -= am * stock_m[0] / gamma_m[0]
        gp_bar[0] -= ap * stock_p[0] / gamma_p[0]
    return rbm_bar + rbp_bar + rmp_bar + gm_bar + gp_bar, lam_bar


def simulate_adjoint(
    obs: ObservedSeries,
    traj: ParamTrajectories,
    spec: ModelSpec,
    sim: SimulationResult,
    flow_m_bar: Sequence[float],
    flow_p_bar: Sequence[float],
) -> ParamTrajectories:
    """Reverse sweep of :func:`simulate`: trajectory adjoints from flow adjoints.

    ``sim`` is what :func:`simulate` gave for ``traj``.  ``flow_m_bar`` and
    ``flow_p_bar`` are the adjoints (derivatives of some scalar) of the
    flows of the first ``len(flow_m_bar)`` years; later years carry none,
    so their stocks and flows are never read.  One Python-float loop runs
    from the last of those years back to year 0 through the annual update,
    the forcing term and the initial stocks ``m0 / gamma_m[0]`` and
    ``p0 / gamma_p[0]``.  The result holds the adjoint of every trajectory
    entry (zero past the swept years) and, in ``lam``, that of the forcing
    weight.
    """
    n = len(obs.b)
    stop = len(flow_m_bar)
    if len(flow_p_bar) != stop or stop > n:
        raise ValueError(f"flow adjoints must cover the same leading years of the {n}-year grid")
    flat, lam_bar = _adjoint_sweep(
        obs.b.tolist(),
        traj.rho_mp.tolist(),
        traj.gamma_m.tolist(),
        traj.gamma_p.tolist(),
        obs.p_intl.tolist() if spec.forcing else None,
        sim.stock_m.tolist(),
        sim.stock_p.tolist(),
        sim.flow_m.tolist(),
        np.asarray(flow_m_bar, dtype=float).tolist(),
        np.asarray(flow_p_bar, dtype=float).tolist(),
    )
    return ParamTrajectories(*np.array(flat).reshape(len(TRAJECTORY_NAMES), n), lam=lam_bar)


def simulate(obs: ObservedSeries, traj: ParamTrajectories, spec: ModelSpec) -> SimulationResult:
    """Deterministic forward simulation over the observation grid.

    Initial stocks come from :func:`initialize_stocks`, so the first-year
    implied flows match the first-year observations.
    """
    if spec.forcing and obs.p_intl is None:
        raise ValueError("forcing specification requires the p_intl series")
    stock_m0, stock_p0 = initialize_stocks(obs, traj)
    p_intl = obs.p_intl if spec.forcing else None
    return run_recurrence(obs.b, traj, stock_m0, stock_p0, p_intl=p_intl)


def simulate_batch(
    obs: ObservedSeries, traj: ParamTrajectories, spec: ModelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Implied master's and PhD flows, each ``(n_years, B)``, for batched trajectories.

    ``traj`` comes from :func:`eval_param_trajectories_batch`.  The
    recurrence steps through the years once with width-B vectors, in the
    same operation order as :func:`run_recurrence`, so each column equals
    what :func:`simulate` gives for the same trajectories.
    """
    if spec.forcing and obs.p_intl is None:
        raise ValueError("forcing specification requires the p_intl series")
    b = obs.b[:, None]
    gm, gp, rmp = traj.gamma_m, traj.gamma_p, traj.rho_mp
    flow_m = np.empty_like(gm)
    flow_p = np.empty_like(gp)
    last = len(b) - 1
    # Overflow to inf/nan is allowed, as in the scalar path; the loss
    # penalizes non-finite flows.
    with np.errstate(over="ignore", invalid="ignore"):
        inflow_m = traj.rho_bm * b
        inflow_p = traj.rho_bp * b
        forcing = traj.lam * obs.p_intl[:, None] if spec.forcing else None
        sm = float(obs.m[0]) / gm[0]
        sp = float(obs.p[0]) / gp[0]
        for i in range(last):
            fm = np.multiply(gm[i], sm, out=flow_m[i])
            fp = np.multiply(gp[i], sp, out=flow_p[i])
            sp = sp + inflow_p[i] + rmp[i] * fm - fp
            if forcing is not None:
                sp += forcing[i]
            sm = sm + inflow_m[i] - fm
        np.multiply(gm[last], sm, out=flow_m[last])
        np.multiply(gp[last], sp, out=flow_p[last])
    return flow_m, flow_p
