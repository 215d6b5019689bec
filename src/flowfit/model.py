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


def _logistic_two_branch(y: np.ndarray) -> np.ndarray:
    """1/(1+exp(-y)) for y >= 0 and exp(y)/(1+exp(y)) otherwise, computed in ``y``'s buffer."""
    # The numerator exp(min(y, 0)) is 1 for y >= 0 and exp(y) otherwise.
    numerator = np.exp(np.minimum(y, 0.0))
    e = np.exp(np.negative(np.abs(y, out=y), out=y), out=y)
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


def _clamped_logistic(eta: np.ndarray) -> np.ndarray:
    """Logistic of ``eta`` clamped to [LOGISTIC_CLAMP, 1 - LOGISTIC_CLAMP], in place."""
    out = _logistic_two_branch(eta)
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


def _pull_back(
    theta: np.ndarray,
    p: np.ndarray,
    p_bar: np.ndarray,
    lam: float,
    lam_bar: float,
    forcing: bool,
    design: np.ndarray,
) -> np.ndarray:
    """Pull adjoints of the trajectories back to the parameter vector.

    ``p`` and ``lam`` are what :func:`_trajectory_values` gave for
    ``theta`` and ``design``; ``p_bar`` holds the adjoint (the derivative of
    some scalar) of each entry of ``p``, and ``lam_bar`` that of ``lam``.

    The clamped logistic has derivative p(1-p) strictly inside the clamp
    and 0 where the clip is active; the result then goes back through the
    design of the forward product in one product.  With ``forcing`` the
    last entry is ``lam_bar * lam`` above ``LAMBDA_RAW_FLOOR`` and 0 at or
    below the floor or once ``lam`` has overflowed.
    """
    inside = (p > LOGISTIC_CLAMP) & (p < 1.0 - LOGISTIC_CLAMP)
    eta_bar = np.where(inside, p_bar * (p * (1.0 - p)), 0.0)
    theta_bar = eta_bar @ design
    if forcing and float(theta[-1]) > LAMBDA_RAW_FLOOR and math.isfinite(lam):
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


# Each year with a non-positive or non-finite implied flow adds this to the
# loss, on top of the squared residuals accumulated before the first bad
# year.  Keeps the objective finite and pushes iterates back toward the
# feasible region instead of raising inside the optimizer loop.
PENALTY_PER_INVALID_YEAR = 1e6


def _retention_windows(gammas: np.ndarray) -> np.ndarray:
    """Products of ``1 - gammas`` over runs of 1, 2, 4, ... years, for :func:`_affine_scan`.

    ``gammas`` is ``(m, n, B)``: m hazards of n years.  Entry k of the
    result holds at year i the product of ``1 - gammas`` over years
    i - 2^k .. i - 1, formed for i >= 2^k only, as a balanced product:
    the later half times the earlier half.  The forward scan of a stock
    and the reverse scan of its adjoint both read these products; a
    reverse scan forming its own would multiply the same two halves the
    other way round, which gives the same bits.
    """
    n = gammas.shape[1]
    windows = np.empty(((n - 1).bit_length(),) + gammas.shape)
    np.subtract(1.0, gammas[:, :-1], out=windows[0, :, 1:])
    for k in range(1, len(windows)):
        d = 1 << (k - 1)
        np.multiply(windows[k - 1, :, 2 * d:], windows[k - 1, :, d:n - d],
                    out=windows[k, :, 2 * d:])
    return windows


def _affine_scan(windows: np.ndarray, u: np.ndarray, reverse: bool = False) -> np.ndarray:
    """``u[i] <- a[i] u[i-1] + u[i]`` along axis 0, in place, in log-depth steps.

    Hillis-Steele: after the step of distance d every entry holds the
    composition of the affine maps over the last 2d entries, so
    ceil(log2 n) vectorised steps replace n - 1 sequential ones.
    ``windows`` holds one hazard's products of ``a`` over the windows
    of each step (:func:`_retention_windows`, with ``a[i] = 1 - gamma[i-1]``).
    With ``reverse`` the scan runs from the last entry down with
    ``a[i] = 1 - gamma[i]``, ``u[i] <- a[i] u[i+1] + u[i]``: the same
    products as a forward scan of the reversed arrays, without their copies.
    """
    n = u.shape[0]
    carry = np.empty_like(u)
    d = 1
    for window in windows:
        # The entries that read the entry d before them (after, with
        # ``reverse``), and the entries they read.
        head, tail = (u[:n - d], u[d:]) if reverse else (u[d:], u[:n - d])
        step = carry[:n - d]
        np.multiply(window[d:], tail, out=step)
        np.add(head, step, out=head)
        d *= 2
    return u


class LaneKernel:
    """Penalized log-residual loss and its exact gradient for a batch of lanes.

    Each lane is a superset parameter vector (a row of a ``(B, 16)`` array)
    and a mask of the coefficients its spec has.  Absent coefficients are
    read as 0 and get a zero gradient; a lane without forcing has no
    forcing term.  It is the one evaluator of the loss at a point:
    ``estimation.loss`` and ``estimation.loss_gradient`` are one-lane calls,
    and a fit's SSE is its winning lane's value, for the spec the mask
    describes.  ``estimation._Objective``, the list-level BFGS objective of
    fits with few starts, computes the same value and gradient up to
    round-off.

    Arrays are quantity by years by lanes, so each quantity's block is a
    contiguous ``(n, B)`` array.  The two stock recurrences
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

    A kernel may hold several observation windows (:meth:`of_windows`),
    each with its own time rescaling, and each lane reads the window its
    index names.  The windows are aligned at row 0 and padded to the
    longest with uncounted years: there ``b``, the log observations and
    ``p_intl`` are 0 and rescaled time repeats the window's last value, so
    the trajectories stay finite, and the year is always valid and never
    counted.  A stock recurrence's entry i never reads the years after it,
    and a pad year adds exact zeros to the adjoint scans and the sums over
    years, so a lane's value and gradient do not depend on the padding
    either.  ``LaneKernel(obs, scale_grid)`` is the one-window kernel.
    """

    def __init__(self, obs: ObservedSeries, scale_grid: Optional[YearGrid] = None):
        self._stack([(obs, scale_grid)])

    @classmethod
    def of_windows(
        cls, windows: Sequence[tuple[ObservedSeries, Optional[YearGrid]]]
    ) -> "LaneKernel":
        """A kernel of several ``(obs, scale_grid)`` windows; lane index i reads ``windows[i]``."""
        kernel = cls.__new__(cls)
        kernel._stack(windows)
        return kernel

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
        # pad mask, each with the window as its last axis.
        self.inputs = (s, s * s, b, log_obs, first,
                       p_intl if self.has_intl.any() else None,
                       padded if padded.any() else None)
        # Window 0's inputs, which broadcast over lanes that all read it.
        self.window0 = tuple(None if a is None else a[..., :1] for a in self.inputs)

    def __call__(
        self, thetas: np.ndarray, mask: np.ndarray, window: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Loss ``(B,)`` and gradient ``(B, 16)`` of every lane.

        ``window`` holds each lane's window index; None puts every lane on
        window 0.
        """
        forcing = mask[:, -1]
        forced = forcing.any()
        if len(self.has_intl) == 1 or window is None:
            s, s2, b, log_obs, first, p_intl, pad = self.window0
            lacking = forced and not self.has_intl[0]
        else:
            s, s2, b, log_obs, first, p_intl, pad = (
                None if a is None else a[..., window] for a in self.inputs)
            lacking = forced and not self.has_intl[window[forcing]].all()
        if lacking:
            raise ValueError("forcing specification requires the p_intl series")
        thetas = np.where(mask, thetas, 0.0)
        n_lanes = thetas.shape[0]
        coef = thetas[:, :-1].T.reshape(len(TRAJECTORY_NAMES), 3, 1, n_lanes)
        # (5, n, B): each trajectory's predictor, summed in a fixed order.
        p = _clamped_logistic(coef[:, 0] + coef[:, 1] * s + coef[:, 2] * s2)
        n = p.shape[1]
        rho_mp = p[2]
        gammas = p[3:]
        if forced:
            lambda_raw = thetas[:, -1]
            lam = np.where(forcing, _forcing_weight(lambda_raw), 0.0)
        # Per year: the two squared residuals, the adjoints of the 5 x 3
        # coefficients and that of the forcing weight, summed at the end.
        terms = np.zeros((n, 18, n_lanes))
        columns = terms.transpose(1, 0, 2)

        # Overflow to inf/nan is allowed; such years are invalid and penalized.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # (2, n, B) stocks and flows: master's, then PhD.  A scan fills
            # each stock from its initial value and its inflows, placed a
            # year ahead.
            stocks = np.empty_like(gammas)
            flows = np.empty_like(gammas)
            stocks[:, 0] = first / gammas[:, 0]
            np.multiply(p[:2, :-1], b[:-1], out=stocks[:, 1:])
            windows = _retention_windows(gammas)
            _affine_scan(windows[:, 0], stocks[0])
            np.multiply(gammas[0], stocks[0], out=flows[0])
            inflow_p = stocks[1, 1:]
            inflow_p += rho_mp[:-1] * flows[0, :-1]
            if forced:
                inflow_p += lam * p_intl[:-1]
            _affine_scan(windows[:, 1], stocks[1])
            np.multiply(gammas[1], stocks[1], out=flows[1])

            # A year is valid while both flows are finite and positive.
            positive = (flows > 0.0) & (flows < np.inf)
            valid = positive[0] & positive[1]
            if pad is not None:
                valid |= pad
            n_invalid = n - valid.sum(axis=0)
            prefix = np.logical_and.accumulate(valid, axis=0)
            if pad is not None:
                # Past its window a lane's stocks may overflow; its pad years
                # carry no residual and no adjoint.
                prefix &= ~pad
            # Years from the first invalid one on carry no adjoint, and
            # those and year 0 no residual.
            skipped = ~prefix
            uncounted = skipped.copy()
            uncounted[0] = True
            r = np.log(flows)
            np.subtract(log_obs, r, out=r)
            np.copyto(r, 0.0, where=uncounted)
            np.multiply(r, r, out=columns[:2])

            # Adjoints of the flows over the counted years, without the
            # factor -2 of d(r^2)/d(flow) = -2 r / flow: the sweep is linear
            # in them, so the factor (a power of two, exact) comes last.
            flow_bars = r / flows
            np.copyto(flow_bars, 0.0, where=uncounted)
            # stock_bars[:, i] = d loss / d stocks[:, i] for i = 0..n, with
            # nothing after the last year.
            stock_bars = np.zeros((2, n + 1, n_lanes))
            np.multiply(gammas[1], flow_bars[1], out=stock_bars[1, :n])
            _affine_scan(windows[:, 1], stock_bars[1, :n], reverse=True)
            ahead = stock_bars[:, 1:]
            # The master's flow also feeds the PhD stock.
            flow_bars[0] += rho_mp * ahead[1]
            np.multiply(gammas[0], flow_bars[0], out=stock_bars[0, :n])
            _affine_scan(windows[:, 0], stock_bars[0, :n], reverse=True)
            p_bar = np.empty_like(p)
            np.multiply(ahead, b, out=p_bar[:2])
            np.multiply(ahead[1], flows[0], out=p_bar[2])
            np.multiply(flow_bars - ahead, stocks, out=p_bar[3:])
            # Initial stocks m0 / gamma_m[0] and p0 / gamma_p[0].
            p_bar[3:, 0] -= stock_bars[:, 0] * stocks[:, 0] / gammas[:, 0]
            # The stocks of skipped years may be inf or nan.
            np.copyto(p_bar, 0.0, where=skipped)
            if forced:
                np.multiply(ahead[1], p_intl, out=columns[17])

            # Back through the clamped logistic (derivative 0 where the
            # clip is active) and the three powers of rescaled time.
            inside = (p > LOGISTIC_CLAMP) & (p < 1.0 - LOGISTIC_CLAMP)
            eta_bar = columns[2:17:3]
            np.multiply(p_bar, np.where(inside, p * (1.0 - p), 0.0), out=eta_bar)
            np.multiply(eta_bar, s, out=columns[3:17:3])
            np.multiply(eta_bar, s2, out=columns[4:17:3])

            totals = np.add.reduce(terms, axis=0)
            values = totals[0] + totals[1] + PENALTY_PER_INVALID_YEAR * n_invalid
            # The factor -2 on the lane's own coefficients, 0 on the others.
            grads = np.zeros_like(thetas)
            np.multiply(totals[2:17].T, -2.0, out=grads[:, :-1], where=mask[:, :-1])
            if forced:
                live = forcing & (lambda_raw > LAMBDA_RAW_FLOOR) & np.isfinite(lam)
                np.multiply(np.where(live, totals[17] * lam, 0.0), -2.0, out=grads[:, -1],
                            where=forcing)
        return values, grads
