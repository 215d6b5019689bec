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

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

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
    def n_eff(self) -> int:
        """Residuals that are fit: both series in every year but the first (imposed)."""
        return 2 * self.n_years - 2

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


# Every grid spec is the superset spec with some coefficients held out: its
# lower-degree blocks are the superset's blocks with the higher coefficients
# at 0, and a spec without forcing has no forcing term at all.
SUPERSET_SPEC = ModelSpec(deg_gamma=2, deg_rho=2, forcing=True)

# The superset's coefficient order, the one order of every parameter vector:
# each trajectory's constant, linear and quadratic coefficients in
# ``TRAJECTORY_NAMES`` order, then the raw forcing coefficient.
SUPERSET_LABELS = (*(f"{name}_{j}" for name in TRAJECTORY_NAMES for j in range(3)),
                   "lambda_raw")


def superset_mask(spec: ModelSpec) -> np.ndarray:
    """Which of the superset spec's coefficients ``spec`` has, as a ``(16,)`` bool array."""
    mask = np.zeros(SUPERSET_SPEC.n_params, dtype=bool)
    degrees = (spec.deg_rho,) * 3 + (spec.deg_gamma,) * 2
    for row, degree in enumerate(degrees):
        mask[3 * row:3 * row + degree + 1] = True
    mask[-1] = spec.forcing
    return mask


def theta_labels(spec: ModelSpec) -> list[str]:
    """Coefficient names of ``spec``'s parameter vector: ``SUPERSET_LABELS`` masked."""
    return [label for label, kept in zip(SUPERSET_LABELS, superset_mask(spec)) if kept]


def embed(theta: np.ndarray, spec: ModelSpec) -> np.ndarray:
    """``spec``'s parameter vector or ``(B, k)`` batch as superset vectors, 0 where absent."""
    theta = _checked_theta(theta, spec)
    out = np.zeros(theta.shape[:-1] + (SUPERSET_SPEC.n_params,))
    out[..., superset_mask(spec)] = theta
    return out


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

    Each trajectory is an ``(n_years,)`` array; ``lam`` is the forcing
    weight, 0 for a spec without forcing.
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


def _logistic_two_branch(y: np.ndarray, numerator: Optional[np.ndarray] = None) -> np.ndarray:
    """1/(1+exp(-y)) for y >= 0 and exp(y)/(1+exp(y)) otherwise, computed in ``y``'s buffer.

    ``numerator``, if given, is a buffer of ``y``'s shape for the scratch work.
    One exp serves both branches: e = exp(-|y|) is exp(y) for y < 0, so
    the numerator, 1 for y >= 0 and e otherwise, is max(e, [y >= 0]) with
    e in [0, 1]: bitwise the exp(min(y, 0)) it replaces.  -|y| is formed
    as min(y, -y), which keeps a nan's sign as abs would not, so a nan
    ``y`` gives back its own bits as before.
    """
    numerator = np.negative(y, out=np.empty_like(y) if numerator is None else numerator)
    e = np.minimum(y, numerator, out=y)
    # y >= 0 exactly where -y <= 0 (nan: neither), as 1.0 or 0.0.
    np.less_equal(numerator, 0.0, out=numerator)
    np.exp(e, out=e)
    np.maximum(e, numerator, out=numerator)
    return np.divide(numerator, np.add(e, 1.0, out=e), out=e)


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


def _clamped_logistic(eta: np.ndarray, numerator: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic of ``eta`` clamped to [LOGISTIC_CLAMP, 1 - LOGISTIC_CLAMP], in place."""
    out = _logistic_two_branch(eta, numerator)
    # np.clip's result (nan stays nan), without its Python-level overhead.
    np.maximum(out, LOGISTIC_CLAMP, out=out)
    return np.minimum(out, 1.0 - LOGISTIC_CLAMP, out=out)


def _stacked_design(
    spec: ModelSpec, grid: YearGrid, years: Optional[Sequence[int]] = None
) -> np.ndarray:
    """The ``(5 n_years, k)`` block design of ``spec`` at ``years`` (default: the grid's own).

    Row block i holds 1, s, s^2 at the rescaled years under trajectory i's
    superset coefficients; ``spec`` keeps the columns of its mask.
    """
    s = rescale_time(grid.years if years is None else np.asarray(years, dtype=float), grid)
    n = s.size
    vander = np.vander(s, 3, increasing=True)
    design = np.zeros((len(TRAJECTORY_NAMES) * n, SUPERSET_SPEC.n_params))
    for row in range(len(TRAJECTORY_NAMES)):
        design[row * n:(row + 1) * n, 3 * row:3 * row + 3] = vander
    # design[:, mask] comes out F-ordered, and BLAS rounds a product with a
    # matrix differently for each memory order (fits move by about 1e-9).
    # One order, C, keeps every fit and report reproducible.
    return np.ascontiguousarray(design[:, superset_mask(spec)])


def _forcing_weight(lambda_raw):
    """exp(lambda_raw) floored at exp(LAMBDA_RAW_FLOOR), elementwise."""
    # May overflow to inf for absurd coefficients; the loss is +inf at the
    # resulting non-finite flows.
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


def _trajectory_values(
    theta: np.ndarray, spec: ModelSpec, design: np.ndarray
) -> tuple[np.ndarray, float]:
    """The five trajectories, stacked as ``(5 n_years,)``, and the forcing weight (0 if none).

    One product with ``spec``'s :func:`_stacked_design` gives all five linear
    predictors, so an infinite coefficient turns the other trajectories
    into ``nan`` (0 * inf).
    """
    if np.ndim(theta) != 1:
        raise ValueError(f"theta must be one parameter vector, got shape {np.shape(theta)}")
    theta = _checked_theta(theta, spec)
    lam = float(_forcing_weight(float(theta[-1]))) if spec.forcing else 0.0
    return _clamped_logistic(design @ theta), lam


def eval_param_trajectories(
    theta: np.ndarray,
    spec: ModelSpec,
    grid: YearGrid,
    years: Optional[Sequence[int]] = None,
) -> ParamTrajectories:
    """Evaluate the five parameter trajectories at the given years.

    ``grid`` anchors the time rescaling; ``years`` defaults to the grid
    itself but may extend beyond it (polynomial extrapolation).
    """
    values, lam = _trajectory_values(theta, spec, _stacked_design(spec, grid, years))
    return ParamTrajectories(*values.reshape(len(TRAJECTORY_NAMES), -1), lam=lam)


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


def _retention_steps(windows: np.ndarray, gammas: np.ndarray) -> tuple:
    """The views :func:`_retention_windows` fills ``windows`` through, from ``gammas``.

    ``gammas`` is ``(m, n, B)``: m hazards of n years.  Entry k of
    ``windows``, ``(K, m, n, B)``, is to hold at year i the product of
    ``1 - gammas`` over years i - 2^k .. i - 1, formed for i >= 2^k only,
    as a balanced product: the later half times the earlier half.  The
    forward scan of a stock and the reverse scan of its adjoint both read
    these products; a reverse scan forming its own would multiply the same
    two halves the other way round, which gives the same bits.
    """
    n = gammas.shape[1]
    products = []
    for k in range(1, len(windows)):
        d = 1 << (k - 1)
        products.append((windows[k - 1, :, 2 * d:], windows[k - 1, :, d:n - d],
                         windows[k, :, 2 * d:]))
    return gammas[:, :-1], windows[0, :, 1:], tuple(products)


def _retention_windows(gammas: np.ndarray, first: np.ndarray, products: tuple) -> None:
    """Products of ``1 - gammas`` over runs of 1, 2, 4, ... years, by :func:`_retention_steps`."""
    np.subtract(1.0, gammas, first)
    for later, earlier, out in products:
        np.multiply(later, earlier, out)


def _scan_steps(windows: np.ndarray, carry: np.ndarray, stocks: np.ndarray,
                stock_bars: np.ndarray) -> tuple:
    """The ``(window, tail, carry, head)`` views of each step of the four :func:`_affine_scan` runs.

    ``stocks`` and ``stock_bars`` are ``(2, n, B)``; ``windows`` holds each
    hazard's products of ``a`` over the windows of each step
    (:func:`_retention_steps`, with ``a[i] = 1 - gamma[i-1]``), and
    ``carry`` is an ``(n, B)`` buffer.  The step of distance d adds to each
    head entry its window times the tail entry d before it.  The adjoint
    scans run from the last entry down with ``a[i] = 1 - gamma[i]``,
    ``u[i] <- a[i] u[i+1] + u[i]``, the tail entry d after: the same products
    as a forward scan of the reversed arrays, without their copies.  Returns
    the two stock scans, then the two adjoint scans, each hazard's reading
    the same windows.
    """
    n = carry.shape[0]
    forward = ([], [])
    reverse = ([], [])
    for k in range(len(windows)):
        d = 1 << k
        step_carry = carry[:n - d]
        for h in range(2):
            window = windows[k, h, d:]
            u = stocks[h]
            v = stock_bars[h]
            forward[h].append((window, u[:n - d], step_carry, u[d:]))
            reverse[h].append((window, v[d:], step_carry, v[:n - d]))
    return forward, reverse


def _affine_scan(steps: tuple) -> None:
    """``u[i] <- a[i] u[i-1] + u[i]`` along axis 0, in place, in log-depth steps.

    Hillis-Steele: after the step of distance d every entry holds the
    composition of the affine maps over the last 2d entries, so
    ceil(log2 n) vectorised steps replace n - 1 sequential ones.
    ``steps`` are :func:`_scan_steps`' views of ``u``.
    """
    for window, tail, carry, head in steps:
        np.multiply(window, tail, carry)
        np.add(head, carry, head)


def _buffer_sizes(n: int) -> dict:
    """Entries per lane and dtype of each flat buffer of a kernel call on ``n`` years."""
    # The retention windows' buffer later holds the trajectories' adjoints.
    windows = max(2 * (n - 1).bit_length(), len(TRAJECTORY_NAMES)) * n
    sizes = {"coef": 15, "totals": 18, "corner": 2, "lam": 1, "p": 5 * n, "quad": 5 * n,
             "stocks": 2 * n, "flows": 2 * n, "flow_bars": 2 * n, "stock_bars": 2 * (n + 1),
             "carry": n, "windows": windows, "terms": 18 * n}
    flags = {"clipped": 5 * n, "below": 5 * n}
    return {**{name: (size, float) for name, size in sizes.items()},
            **{name: (size, bool) for name, size in flags.items()}}


class _Workspace:
    """A :class:`LaneKernel` call's arrays at ``width`` lanes and the views it reads.

    The workspace allocates one block of floats and one of flags and cuts
    them into the buffers :func:`_buffer_sizes` lists.  Each array is a
    prefix of one buffer, reshaped: C-ordered, quantity by years by lanes.
    A buffer may serve two arrays whose uses do not overlap.
    """

    def __init__(self, inputs: tuple, width: int):
        s, _, b, _, _, p_intl, _ = inputs
        n = s.shape[0]
        k = len(TRAJECTORY_NAMES)
        steps = (n - 1).bit_length()
        sizes = _buffer_sizes(n)
        memory = {dtype: np.empty(width * sum(size for size, kind in sizes.values()
                                              if kind is dtype), dtype)
                  for dtype in (float, bool)}
        start = dict.fromkeys(memory, 0)
        buffers = {}
        for name, (size, dtype) in sizes.items():
            buffers[name] = memory[dtype][start[dtype]:start[dtype] + size * width]
            start[dtype] += size * width

        def block(name, *shape):
            return buffers[name][:math.prod(shape) * width].reshape(*shape, width)

        self.width = width
        # Predictors: coefficients, the five trajectories and their scratch.
        self.coef = block("coef", 3 * k)
        coef = self.coef.reshape(k, 3, 1, width)
        self.c0, self.c1, self.c2 = coef[:, 0], coef[:, 1], coef[:, 2]
        p = self.p = block("p", k, n)
        self.quad = block("quad", k, n)
        self.rho_mp = p[2]
        gammas = p[3:]
        self.gamma_m, self.gamma_p = p[3], p[4]
        self.gamma_first = gammas[:, 0]
        self.lam = block("lam")
        # The forward pass: initial stocks, inflows placed a year ahead,
        # the retention windows and the two stock scans.
        stocks = self.stocks = block("stocks", 2, n)
        flows = self.flows = block("flows", 2, n)
        carry = self.carry = block("carry", n)
        windows = block("windows", steps, 2, n)
        self.stock_m, self.stock_p = stocks[0], stocks[1]
        self.flow_m, self.flow_p = flows[0], flows[1]
        self.stock_first = stocks[:, 0]
        self.routes = p[:2, :-1]
        self.b_head = b[:-1]
        self.inflows = stocks[:, 1:]
        self.inflow_p = stocks[1, 1:]
        self.rho_mp_head = p[2, :-1]
        self.flow_m_head = flows[0, :-1]
        self.p_intl_head = p_intl[:-1]
        self.carry_head = carry[:-1]
        self.retention = _retention_steps(windows, gammas)
        # Residuals, then the flows' adjoints; the stocks' adjoints and
        # their scans; the trajectories' adjoints, in the windows' buffer.
        self.flow_bars = block("flow_bars", 2, n)
        self.flow_bar_m, self.flow_bar_p = self.flow_bars[0], self.flow_bars[1]
        self.flow_bars_first = self.flow_bars[:, 0]
        stock_bars = block("stock_bars", 2, n + 1)
        self.stock_bars_m, self.stock_bars_p = stock_bars[0, :n], stock_bars[1, :n]
        self.stock_bars_first = stock_bars[:, 0]
        self.stock_bars_end = stock_bars[:, n]
        self.ahead = stock_bars[:, 1:]
        self.ahead_p = stock_bars[1, 1:]
        self.scans, self.reverse = _scan_steps(windows, carry, stocks, stock_bars[:, :n])
        p_bar = self.p_bar = block("windows", k, n)
        self.p_bar_routes = p_bar[:2]
        self.p_bar_mp = p_bar[2]
        self.p_bar_gammas = p_bar[3:]
        self.p_bar_first = p_bar[3:, 0]
        self.corner = block("corner", 2)
        # The logistic's clip masks.
        self.clipped = block("clipped", k, n)
        self.below = block("below", k, n)
        # Per year: the two squared residuals, the adjoints of the 5 x 3
        # coefficients and that of the forcing weight, summed at the end.
        self.terms = block("terms", n, 18)
        columns = self.terms.transpose(1, 0, 2)
        self.squares = columns[:2]
        # Each trajectory's three columns: its predictor's adjoint, times s, times s^2.
        adjoints = columns[2:17].reshape(k, 3, n, width)
        self.eta_bar, self.eta_bar_s, self.eta_bar_s2 = (adjoints[:, 0], adjoints[:, 1],
                                                          adjoints[:, 2])
        self.lambda_column = columns[17]
        self.totals = block("totals", 18)
        self.coef_totals = self.totals[2:17].T


class LaneKernel:
    """Log-residual loss and its exact gradient for a batch of lanes.

    Each lane is a superset parameter vector (a row of a ``(B, 16)`` array)
    and a mask of the coefficients its spec has.  Absent coefficients are
    read as 0 and get a zero gradient; a lane without forcing has no
    forcing term.  A lane is invalid when a counted year (any year but
    year 0 and the pad years below) has a flow that is not finite and
    positive: its value is +inf and its gradient nan on its own
    coefficients.  Such a year's squared residual is inf or nan, and a
    finite positive flow's is finite, so the lane's sum of squares
    decides.  It is the one evaluator of the loss at a point:
    ``estimation.loss`` and ``estimation.loss_gradient`` are one-lane calls,
    and a fit's SSE is its winning lane's value, for the spec the mask
    describes.  Every fit runs on it as the lanes of one
    ``estimation.bfgs_lanes`` batch, whatever its start count.

    Arrays are quantity by years by lanes, so each quantity's block is a
    contiguous ``(n, B)`` array.  A ufunc's own output follows its
    inputs' memory order, and the coefficients arrive lanes first (a
    transposed view), so a sum over them would come out strided; the
    predictors are therefore written into a C-ordered buffer, and every
    array built from them (stocks, flows, residuals, adjoints) is C-ordered
    too.  The two stock recurrences
    ``x[i+1] = (1 - gamma[i]) x[i] + u[i]`` (every input >= 0, so no
    cancellation) and their two adjoint recurrences run as
    :func:`_affine_scan` on such blocks.  Every other operation is
    elementwise, and every sum over years is one ``np.add.reduce`` over
    axis 0 of a years by 18 by lanes block, which NumPy adds row by row, in
    year order.  So a lane's value and gradient are bitwise the same
    whatever the other lanes in its batch.  (A single column would be
    summed pairwise instead.)  A batch without a forcing lane skips the
    forcing term: adding a forcing weight of 0 leaves every inflow, a
    non-negative number, bitwise unchanged.

    A call allocates what it returns and a few lane vectors.  Every
    array it works in (the predictors and the logistic's numerator,
    stocks, flows, retention windows, the scans' carry, residuals,
    adjoints, masks, the per-year terms and their totals) lives in a
    workspace built on the kernel's first call at a lane width, with the
    views each step reads ready-made, the ``(window, tail, carry, head)``
    of every scan step among them; so a call is a flat run of ufuncs
    writing into their positional ``out``.  The workspace owns its
    buffers, reshaped C-ordered with the lane axis last, and the kernel
    keeps it for its later calls at that width.  A kernel :meth:`lanes`
    narrows builds its own, so kernels share no mutable memory, and a
    call writes every entry whose value it uses, so no state passes from
    one call to the next.  The workspace is not pickled: a kernel sent to
    a worker builds its own there.  One kernel is called from one thread.

    A kernel is bound to its lanes: it holds each lane's inputs, C-ordered
    with the lane axis last, so every call reads them as they are.
    ``LaneKernel(obs, scale_grid)`` holds one window's inputs with a lane
    axis of width 1, which broadcasts over any lanes.  :meth:`of_windows`
    binds each lane to one of several observation windows, each with its
    own time rescaling.  The windows are aligned at row 0 and padded to the
    longest with uncounted years: there ``b``, the log observations and
    ``p_intl`` are 0 and rescaled time repeats the window's last value, so
    the trajectories stay finite, and the year is never counted.  Its
    stocks may still overflow (the last year's forcing lands there), so
    the call zeroes its residuals, its flows' adjoints and its
    trajectories' adjoints.  A stock recurrence's entry i never reads the
    years after it, and a pad year adds exact zeros to the adjoint scans
    and the sums over years, so a lane's value and gradient do not depend
    on the padding either.  :meth:`lanes` narrows a kernel to some of its
    lanes.

    Two checks let a call skip the work that only the rare lane needs;
    each picks the shortcut only where it gives the general path's bits.
    The general path stays the definition, and a nan or a value near a
    bound fails a check and takes it.

    - One sum of all the log residuals, pad years included, before any
      mask: if it is finite, every flow of every lane is finite and
      positive, so no lane is invalid.  The call then skips the search
      for invalid lanes and the second zeroing of the pad years'
      adjoints, which would write the zeros already there: 0 / flow is 0
      at a finite positive flow, and every adjoint of a pad year is 0
      (its flows' adjoints, its stocks' and ``b``).
    - One minimum of the logistic's slopes p (1 - p): at either clip it
      is below 2 ``LOGISTIC_CLAMP``, so a minimum above that (not nan)
      means no clip is active, and the clip masks and the zeroing of the
      clipped slopes do not run.
    """

    def __init__(self, obs: ObservedSeries, scale_grid: Optional[YearGrid] = None):
        self._stack([(obs, scale_grid)])

    @classmethod
    def of_windows(
        cls, windows: Sequence[tuple[ObservedSeries, Optional[YearGrid]]], window: np.ndarray
    ) -> "LaneKernel":
        """Lanes on ``(obs, scale_grid)`` windows; lane i reads ``windows[window[i]]``."""
        kernel = cls.__new__(cls)
        kernel._stack(windows)
        return kernel.lanes(window)

    def _stack(self, windows: Sequence[tuple[ObservedSeries, Optional[YearGrid]]]) -> None:
        # Per-window inputs with the window as the last axis, padded to n years.
        lengths = np.array([obs.grid.n_years for obs, _ in windows])
        n = lengths.max()
        s = np.empty((n, len(windows)))
        b = np.zeros_like(s)
        p_intl = np.zeros_like(s)
        log_obs = np.zeros((2, n, len(windows)))
        first = np.empty((2, len(windows)))
        self.has_intl = np.array([obs.p_intl is not None for obs, _ in windows])
        for w, ((obs, scale_grid), m) in enumerate(zip(windows, lengths)):
            s[:m, w] = rescale_time(obs.grid.years, obs.grid if scale_grid is None else scale_grid)
            s[m:, w] = s[m - 1, w]
            b[:m, w] = obs.b
            log_obs[:, :m, w] = np.log(np.stack([obs.m, obs.p]))
            first[:, w] = obs.m[0], obs.p[0]
            if obs.p_intl is not None:
                p_intl[:m, w] = obs.p_intl
        padded = np.arange(n)[:, None] >= lengths
        # s, s^2, b, log observations, first observations, p_intl and the
        # pad mask, each with the lane (here the window) as its last axis.
        self.inputs = (s, s * s, b, log_obs, first, p_intl, padded if padded.any() else None)
        self._workspace = None

    def lanes(self, index) -> "LaneKernel":
        """The kernel of the lanes ``index`` picks on the lane axis; a width-1 kernel is its own."""
        if len(self.has_intl) == 1:
            return self
        index = np.arange(len(self.has_intl))[index]
        kernel = LaneKernel.__new__(LaneKernel)
        kernel.has_intl = self.has_intl[index]
        # np.take keeps the lane axis last in C order (a[..., index] puts it first).
        kernel.inputs = tuple(None if a is None else np.take(a, index, axis=-1)
                              for a in self.inputs)
        kernel._workspace = None
        return kernel

    def __getstate__(self) -> dict:
        return {"has_intl": self.has_intl, "inputs": self.inputs}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._workspace = None

    def _workspace_at(self, width: int) -> _Workspace:
        """This kernel's workspace for a call of ``width`` lanes, kept for its next call."""
        w = self._workspace
        if w is None or w.width != width:
            self._workspace = None
            w = self._workspace = _Workspace(self.inputs, width)
        return w

    def __call__(self, thetas: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Loss ``(B,)`` and gradient ``(B, 16)`` of every lane."""
        forcing = mask[:, -1]
        forced = np.logical_or.reduce(forcing)
        if forced and np.logical_or.reduce(forcing & ~self.has_intl):
            raise ValueError("forcing specification requires the p_intl series")
        s, s2, b, log_obs, first, p_intl, pad = self.inputs
        w = self._workspace_at(len(thetas))
        # The lane's own coefficients, 0 for the others, in a C-ordered block.
        w.coef.fill(0.0)
        np.copyto(w.coef, thetas[:, :-1].T, where=mask[:, :-1].T)
        # Overflow to inf/nan is allowed; it makes a lane invalid, or falls
        # in its pad years.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # (5, n, B): each trajectory's predictor (c0 + c1 s) + c2 s^2,
            # summed in that order (an infinite coefficient times s = 0 is nan).
            p = w.p
            np.multiply(w.c1, s, p)
            np.add(w.c0, p, p)
            np.multiply(w.c2, s2, w.quad)
            np.add(p, w.quad, p)
            _clamped_logistic(p, w.quad)

            if forced:
                # The forcing weight, 0 for a lane without forcing.
                lam = w.lam
                np.maximum(thetas[:, -1], LAMBDA_RAW_FLOOR, out=lam)
                np.exp(lam, lam)
                np.copyto(lam, 0.0, where=~forcing)
            # (2, n, B) stocks and flows: master's, then PhD.  A scan fills
            # each stock from its initial value and its inflows, placed a
            # year ahead.
            flows = w.flows
            np.divide(first, w.gamma_first, w.stock_first)
            np.multiply(w.routes, w.b_head, w.inflows)
            _retention_windows(*w.retention)
            _affine_scan(w.scans[0])
            np.multiply(w.gamma_m, w.stock_m, w.flow_m)
            np.multiply(w.rho_mp_head, w.flow_m_head, w.carry_head)
            np.add(w.inflow_p, w.carry_head, w.inflow_p)
            if forced:
                np.multiply(lam, w.p_intl_head, w.carry_head)
                np.add(w.inflow_p, w.carry_head, w.inflow_p)
            _affine_scan(w.scans[1])
            np.multiply(w.gamma_p, w.stock_p, w.flow_p)

            # Residuals r = log(observed) - log(flow).  Their sum is finite
            # only if every flow of every lane, pad years included, is
            # finite and positive.
            flow_bars = w.flow_bars
            np.log(flows, flow_bars)
            np.subtract(log_obs, flow_bars, flow_bars)
            all_valid = math.isfinite(np.add.reduce(flow_bars, None))
            # Residuals over the counted years (neither year 0 nor a pad
            # year), 0 elsewhere, and their squares; then the flows'
            # adjoints, without the factor -2 of d(r^2)/d(flow) = -2 r / flow:
            # the sweep is linear in them, so the factor (a power of two,
            # exact) comes last.  0 / flow is 0 again where the flow is
            # finite and positive.  Past its window a lane's stocks may
            # overflow; its pad years carry no residual and no adjoint.
            w.flow_bars_first.fill(0.0)
            if pad is not None:
                np.copyto(flow_bars, 0.0, where=pad)
            np.multiply(flow_bars, flow_bars, w.squares)
            np.divide(flow_bars, flows, flow_bars)
            if not all_valid and pad is not None:
                np.copyto(flow_bars, 0.0, where=pad)
            # stock_bars[:, i] = d loss / d stocks[:, i] for i = 0..n, with
            # nothing after the last year; ``ahead`` is its entries 1..n.
            ahead, ahead_p = w.ahead, w.ahead_p
            w.stock_bars_end.fill(0.0)
            np.multiply(w.gamma_p, w.flow_bar_p, w.stock_bars_p)
            _affine_scan(w.reverse[1])
            # The master's flow also feeds the PhD stock.
            np.multiply(w.rho_mp, ahead_p, w.carry)
            np.add(w.flow_bar_m, w.carry, w.flow_bar_m)
            np.multiply(w.gamma_m, w.flow_bar_m, w.stock_bars_m)
            _affine_scan(w.reverse[0])
            p_bar = w.p_bar
            np.multiply(ahead, b, w.p_bar_routes)
            np.multiply(ahead_p, w.flow_m, w.p_bar_mp)
            np.subtract(flow_bars, ahead, flow_bars)
            np.multiply(flow_bars, w.stocks, w.p_bar_gammas)
            # Initial stocks m0 / gamma_m[0] and p0 / gamma_p[0].
            np.multiply(w.stock_bars_first, w.stock_first, w.corner)
            np.divide(w.corner, w.gamma_first, w.corner)
            np.subtract(w.p_bar_first, w.corner, w.p_bar_first)
            # A pad year's stocks may be inf or nan.  Where every flow is
            # finite and positive its adjoints are already 0: its flows'
            # adjoints are 0, so are its stocks', and b is 0 there.
            if not all_valid and pad is not None:
                np.copyto(p_bar, 0.0, where=pad)
            if forced:
                np.multiply(ahead_p, p_intl, w.lambda_column)

            # Back through the clamped logistic (derivative 0 where the
            # clip is active) and the three powers of rescaled time.
            # At either clip p (1 - p) is below 2 LOGISTIC_CLAMP, so a
            # smallest slope above it (not nan) means no clip is active.
            slope = w.quad
            np.subtract(1.0, p, slope)
            np.multiply(p, slope, slope)
            if not np.minimum.reduce(slope, None) > 2.0 * LOGISTIC_CLAMP:
                clipped = w.clipped
                np.greater(p, LOGISTIC_CLAMP, clipped)
                np.less(p, 1.0 - LOGISTIC_CLAMP, w.below)
                np.logical_and(clipped, w.below, clipped)
                np.logical_not(clipped, clipped)
                np.copyto(slope, 0.0, where=clipped)
            eta_bar = w.eta_bar
            np.multiply(p_bar, slope, eta_bar)
            np.multiply(eta_bar, s, w.eta_bar_s)
            np.multiply(eta_bar, s2, w.eta_bar_s2)

            # A batch without forcing leaves column 17 as it was and never
            # reads its total.
            totals = np.add.reduce(w.terms, 0, None, w.totals)
            values = totals[0] + totals[1]
            # The factor -2 on the lane's own coefficients, 0 on the others.
            grads = np.zeros(thetas.shape)
            np.multiply(w.coef_totals, -2.0, grads[:, :-1], where=mask[:, :-1])
            if forced:
                live = forcing & (thetas[:, -1] > LAMBDA_RAW_FLOOR)
                np.multiply(np.where(live, totals[17] * lam, 0.0), -2.0, out=grads[:, -1],
                            where=forcing)
            if not all_valid:
                # An invalid lane's sum of squares is inf or nan.
                invalid = ~np.isfinite(values)
                np.copyto(values, np.inf, where=invalid)
                np.copyto(grads, np.nan, where=invalid[:, None] & mask)
        return values, grads
