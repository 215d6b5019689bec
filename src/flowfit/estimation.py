"""Log-residual loss, quasi-Newton fitting, and curvature-based uncertainty.

The loss is the sum of squared log-scale residuals of the implied master's
and PhD completion flows against the observed counts.  It is minimized in
the unconstrained transformed parameter space with a BFGS iteration using
a backtracking (Armijo) line search and the exact gradient, which one
reverse (adjoint) sweep computes from the line search's last forward pass.
Parameter uncertainty comes from the numerical Hessian at the optimum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    TRAJECTORY_NAMES,
    ModelSpec,
    ObservedSeries,
    ParamTrajectories,
    SimulationResult,
    YearGrid,
    _adjoint_sweep,
    _annual_updates,
    _clamped_logistic,
    _linear_predictors,
    _pull_back,
    eval_param_trajectories,
    eval_param_trajectories_batch,
    logit,
    simulate_batch,
)

# Each year with a non-positive or non-finite implied flow adds this to the
# loss, on top of the squared residuals accumulated before the first bad
# year.  Keeps the objective finite and pushes iterates back toward the
# feasible region instead of raising inside the optimizer loop.
PENALTY_PER_INVALID_YEAR = 1e6

GRADIENT_REL_STEP = 1e-5
HESSIAN_REL_STEP = 1e-4

# Eigenvalue-floor regularization of the Hessian before inversion.
HESSIAN_COND_LIMIT = 1e12
HESSIAN_EIG_FLOOR_REL = 1e-8


class NumericalError(ValueError):
    """A numerical failure, as opposed to bad data or configuration.

    Raised for a non-finite Hessian, a Hessian without positive curvature
    and a non-positive hindcast prediction; the CLI exits 2 on it.
    """


@dataclass
class ResidualSet:
    """Log-scale residuals for both flow series.

    First-year entries are imposed as exactly zero: the initialization
    matches the first observations by construction, so those residuals
    carry no information (and a float divide/multiply round trip could
    otherwise leave one-ulp noise).
    """

    r_m: np.ndarray
    r_p: np.ndarray
    n_eff: int


@dataclass
class FitResult:
    theta_hat: np.ndarray
    sse: float
    converged: bool
    n_iterations: int
    n_starts_used: int
    grad_norm_at_opt: float


@dataclass
class UncertaintyResult:
    hessian: np.ndarray
    sigma2_hat: float
    covariance: np.ndarray
    regularization_applied: bool


@dataclass
class FitOptions:
    """Optimizer configuration; defaults match the documented conventions."""

    n_starts: int = 8
    seed: int = 0
    start_sd: float = 0.5
    gtol: float = 1e-6
    ftol_rel: float = 1e-12
    max_iter: int = 2000


@dataclass
class TrajectoryBands:
    """Pointwise percentile bands for the five parameter trajectories."""

    level: float
    lower: dict[str, np.ndarray]
    upper: dict[str, np.ndarray]


def residuals(obs: ObservedSeries, sim: SimulationResult) -> ResidualSet:
    """Log residuals log(observed) - log(implied) for both series."""
    if np.any(sim.flow_m <= 0) or np.any(sim.flow_p <= 0):
        raise ValueError("implied flows must be strictly positive to form log residuals")
    r_m = np.log(obs.m) - np.log(sim.flow_m)
    r_p = np.log(obs.p) - np.log(sim.flow_p)
    r_m[0] = 0.0
    r_p[0] = 0.0
    return ResidualSet(r_m=r_m, r_p=r_p, n_eff=2 * obs.grid.n_years - 2)


def _valid_flows(flow_m: np.ndarray, flow_p: np.ndarray) -> np.ndarray:
    """Years (rows) whose implied flows are both finite and positive."""
    return np.isfinite(flow_m) & (flow_m > 0) & np.isfinite(flow_p) & (flow_p > 0)


def _counted_residuals(
    obs: ObservedSeries, flow_m: np.ndarray, flow_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log residuals of ``(n_years, B)`` implied flows over their counted years.

    A column's counted years are those after the first and before its
    first invalid (non-positive or non-finite) year; its residuals are 0
    elsewhere.  Also returns each column's number of invalid years.
    """
    valid = _valid_flows(flow_m, flow_p)
    n_invalid = valid.shape[0] - np.count_nonzero(valid, axis=0)
    counted = np.logical_and.accumulate(valid, axis=0)
    counted[0] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        r_m = np.where(counted, np.log(obs.m)[:, None] - np.log(flow_m), 0.0)
        r_p = np.where(counted, np.log(obs.p)[:, None] - np.log(flow_p), 0.0)
    return r_m, r_p, n_invalid


def _penalized_sse(r_m: np.ndarray, r_p: np.ndarray, n_invalid: np.ndarray) -> np.ndarray:
    """The loss of each column: counted squared residuals plus the invalid-year penalty."""
    sse = np.einsum("ij,ij->j", r_m, r_m) + np.einsum("ij,ij->j", r_p, r_p)
    return sse + PENALTY_PER_INVALID_YEAR * n_invalid


@dataclass
class _Forward:
    """One scalar evaluation of :func:`loss` and the state its gradient reuses.

    Everything but ``theta`` and ``traj`` is a Python float or a list of
    them; the residual lists cover the counted years and year 0 (as 0).
    """

    theta: np.ndarray
    value: float
    traj: ParamTrajectories
    rho_mp: list[float]
    gamma_m: list[float]
    gamma_p: list[float]
    stock_m: list[float]
    stock_p: list[float]
    flow_m: list[float]
    flow_p: list[float]
    r_m: list[float]
    r_p: list[float]


class _Objective:
    """:func:`loss` and its exact gradient for one fit, sharing forward passes.

    The per-fit data are turned into lists once.  ``value`` keeps the point
    and forward state of its last call.  ``gradient`` at that point runs
    only the reverse sweep; at any other point it runs the forward pass
    first.  BFGS asks for the gradient at the point its line search
    accepted last, so each iteration's gradient costs one reverse sweep.
    """

    def __init__(self, spec: ModelSpec, obs: ObservedSeries, scale_grid: Optional[YearGrid]):
        if spec.forcing and obs.p_intl is None:
            raise ValueError("forcing specification requires the p_intl series")
        self.spec = spec
        # Trajectories at the data's years on the (possibly wider) rescaling grid.
        self.grid = obs.grid if scale_grid is None else scale_grid
        self.years = None if scale_grid is None else obs.grid.years
        self.b = obs.b.tolist()
        self.log_m = np.log(obs.m).tolist()
        self.log_p = np.log(obs.p).tolist()
        self.m0 = float(obs.m[0])
        self.p0 = float(obs.p[0])
        self.p_intl = obs.p_intl.tolist() if spec.forcing else None
        self._last: Optional[_Forward] = None

    def _forward(self, theta: np.ndarray) -> _Forward:
        """Trajectories, recurrence, counted log residuals and loss at one point."""
        theta = np.array(theta, dtype=float)
        traj = eval_param_trajectories(theta, self.spec, self.grid, years=self.years)
        rho_bm, rho_bp, rho_mp, gamma_m, gamma_p = (
            getattr(traj, name).tolist() for name in TRAJECTORY_NAMES
        )
        forcing = None
        if self.p_intl is not None:
            lam = traj.lam
            forcing = [lam * x for x in self.p_intl]
        stock_m, stock_p, flow_m, flow_p = _annual_updates(
            self.b, rho_bm, rho_bp, rho_mp, gamma_m, gamma_p, forcing,
            self.m0 / gamma_m[0], self.p0 / gamma_p[0],
        )
        # A year counts while both flows are finite and positive; the first
        # invalid year ends the residual prefix, and every invalid year in
        # the window is penalized.
        # (The sum is nan or inf if any flow is; min() alone can miss a nan.)
        if min(flow_m) > 0.0 and min(flow_p) > 0.0 and math.isfinite(sum(flow_m) + sum(flow_p)):
            n_invalid = 0
            stop = len(flow_m)
        else:
            valid = [0.0 < fm < math.inf and 0.0 < fp < math.inf
                     for fm, fp in zip(flow_m, flow_p)]
            n_invalid = valid.count(False)
            stop = valid.index(False) if n_invalid else len(valid)
        r_m = [0.0, *map(operator.sub, self.log_m[1:stop], map(math.log, flow_m[1:stop]))]
        r_p = [0.0, *map(operator.sub, self.log_p[1:stop], map(math.log, flow_p[1:stop]))]
        value = sum(map(operator.mul, r_m, r_m)) + sum(map(operator.mul, r_p, r_p))
        return _Forward(
            theta=theta, value=value + PENALTY_PER_INVALID_YEAR * n_invalid, traj=traj,
            rho_mp=rho_mp, gamma_m=gamma_m, gamma_p=gamma_p,
            stock_m=stock_m, stock_p=stock_p, flow_m=flow_m, flow_p=flow_p,
            r_m=r_m[:stop], r_p=r_p[:stop],
        )

    def _reverse(self, state: _Forward) -> np.ndarray:
        """Exact gradient of :func:`loss` at ``state.theta`` by one reverse sweep.

        Only the counted years carry residuals: the sweep starts at the last
        valid year, and the per-invalid-year penalty, a step function, adds
        nothing.
        """
        # d(r^2)/d(flow) = -2 r / flow, with r = log(observed) - log(flow).  The
        # sweep is linear in its flow adjoints, so it runs on r / flow and
        # the factor -2, a power of two, is applied once at the end: exact.
        flat_bar, lam_bar = _adjoint_sweep(
            self.b, state.rho_mp, state.gamma_m, state.gamma_p, self.p_intl,
            state.stock_m, state.stock_p, state.flow_m,
            list(map(operator.truediv, state.r_m, state.flow_m)),
            list(map(operator.truediv, state.r_p, state.flow_p)),
        )
        traj = state.traj
        p = np.concatenate([getattr(traj, name) for name in TRAJECTORY_NAMES])
        p_bar = np.fromiter(flat_bar, dtype=float, count=len(flat_bar))
        p_bar *= -2.0
        return _pull_back(state.theta, p, p_bar, traj.lam, -2.0 * lam_bar,
                          self.spec, self.grid, self.years)

    def value(self, theta: np.ndarray) -> float:
        self._last = self._forward(theta)
        return self._last.value

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        if self._last is None or not (theta == self._last.theta).all():
            self.value(theta)
        return self._reverse(self._last)


def loss(
    theta: np.ndarray,
    spec: ModelSpec,
    obs: ObservedSeries,
    scale_grid: Optional[YearGrid] = None,
) -> float:
    """Sum of squared log residuals, with a finite penalty for invalid flows.

    Configurations whose implied flows go non-positive (or non-finite)
    are not rejected with an exception: the loss is the residual sum over
    the years before the first invalid one plus a large per-invalid-year
    penalty, so the optimizer sees a finite, descent-friendly surface.

    ``scale_grid`` optionally anchors the time rescaling to a different
    window than the data (used when refits on truncated windows should
    keep the full-sample rescaling).
    """
    return _Objective(spec, obs, scale_grid).value(theta)


def loss_gradient(
    theta: np.ndarray,
    spec: ModelSpec,
    obs: ObservedSeries,
    scale_grid: Optional[YearGrid] = None,
) -> np.ndarray:
    """Exact gradient of :func:`loss`: one forward pass, then one reverse sweep.

    Where the loss is penalized only the residual prefix contributes, so
    the gradient stays finite; its forcing entry is 0 at or below the
    forcing floor and where the forcing weight overflows.
    """
    return _Objective(spec, obs, scale_grid).gradient(theta)


def loss_batch(
    thetas: np.ndarray,
    spec: ModelSpec,
    obs: ObservedSeries,
    scale_grid: Optional[YearGrid] = None,
) -> np.ndarray:
    """:func:`loss` of every row of a ``(B, k)`` array, in one vectorised pass.

    Agrees with :func:`loss` to round-off.  It costs a few scalar calls at
    B=1 but little more at B=30, so it serves callers that evaluate many
    points at once (finite-difference stencils); single points use
    :func:`loss`.
    """
    traj = eval_param_trajectories_batch(
        thetas, spec, scale_grid if scale_grid is not None else obs.grid, years=obs.grid.years
    )
    return _penalized_sse(*_counted_residuals(obs, *simulate_batch(obs, traj, spec)))


def _gradient_stencil(x: np.ndarray, rel_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference points (x + h_i e_i for every i, then x - h_i e_i) and steps h."""
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    points = np.tile(x, (2 * n, 1))
    axis = np.arange(n)
    points[axis, axis] += h
    points[n + axis, axis] -= h
    return points, h


def _gradient_from_stencil(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    n = h.size
    return (values[:n] - values[n:]) / (2.0 * h)


def _hessian_stencil(x: np.ndarray, rel_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-difference points and steps h.

    Rows: x; the gradient stencil's 2n axial points; then, for the pairs
    i < j in ``np.triu_indices`` order, four blocks x +/- h_i e_i +/- h_j e_j
    with signs (+,+), (+,-), (-,+), (-,-).
    """
    axial, h = _gradient_stencil(x, rel_step)
    i, j = np.triu_indices(x.size, 1)
    pairs = np.tile(x, (4 * i.size, 1))
    rows = np.arange(i.size)
    for sign_i, sign_j in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        pairs[rows, i] += sign_i * h[i]
        pairs[rows, j] += sign_j * h[j]
        rows = rows + i.size
    return np.vstack([x, axial, pairs]), h


def _hessian_from_stencil(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central second differences, symmetrized as (H + H^T)/2; rejects non-finite entries."""
    n = h.size
    f0 = values[0]
    f_plus = values[1:1 + n]
    f_minus = values[1 + n:1 + 2 * n]
    i, j = np.triu_indices(n, 1)
    f_pp, f_pm, f_mp, f_mm = values[1 + 2 * n:].reshape(4, i.size)
    hess = np.empty((n, n))
    axis = np.arange(n)
    hess[axis, axis] = (f_plus - 2.0 * f0 + f_minus) / (h * h)
    off = (f_pp - f_pm - f_mp + f_mm) / (4.0 * h[i] * h[j])
    hess[i, j] = off
    hess[j, i] = off
    if not np.all(np.isfinite(hess)):
        bad = np.argwhere(~np.isfinite(hess))[0]
        raise NumericalError(f"non-finite Hessian entry at coordinate pair ({bad[0]}, {bad[1]})")
    return 0.5 * (hess + hess.T)


def _on_rows(f: Callable[[np.ndarray], float], points: np.ndarray) -> np.ndarray:
    return np.array([f(point) for point in points], dtype=float)


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, rel_step: float = GRADIENT_REL_STEP) -> np.ndarray:
    """Central-difference gradient with per-coordinate step rel_step*max(1, |x_i|)."""
    points, h = _gradient_stencil(np.asarray(x, dtype=float), rel_step)
    return _gradient_from_stencil(_on_rows(f, points), h)


def gradient_fd(
    theta: np.ndarray,
    spec: ModelSpec,
    obs: ObservedSeries,
    scale_grid: Optional[YearGrid] = None,
) -> np.ndarray:
    """Central-difference gradient of :func:`loss`; all 2k points in one batched call.

    The fit uses the exact gradient (:func:`loss_gradient`); this one is its
    independent check.
    """
    points, h = _gradient_stencil(np.asarray(theta, dtype=float), GRADIENT_REL_STEP)
    return _gradient_from_stencil(loss_batch(points, spec, obs, scale_grid), h)


def fd_hessian(f: Callable[[np.ndarray], float], x: np.ndarray, rel_step: float = HESSIAN_REL_STEP) -> np.ndarray:
    """Central second differences, symmetrized as (H + H^T)/2."""
    points, h = _hessian_stencil(np.asarray(x, dtype=float), rel_step)
    return _hessian_from_stencil(_on_rows(f, points), h)


def numerical_hessian(
    theta_hat: np.ndarray,
    spec: ModelSpec,
    obs: ObservedSeries,
    scale_grid: Optional[YearGrid] = None,
) -> np.ndarray:
    """Hessian of :func:`loss`; all 1 + 2k^2 stencil points in one batched call."""
    points, h = _hessian_stencil(np.asarray(theta_hat, dtype=float), HESSIAN_REL_STEP)
    return _hessian_from_stencil(loss_batch(points, spec, obs, scale_grid), h)


@dataclass
class OptimizeOutcome:
    x: np.ndarray
    fun: float
    n_iterations: int
    grad_max_norm: float
    converged: bool


def bfgs_minimize(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    gtol: float = 1e-6,
    ftol_rel: float = 1e-12,
    max_iter: int = 2000,
) -> OptimizeOutcome:
    """BFGS with a backtracking line search enforcing Armijo sufficient decrease.

    Stops when the gradient max-norm drops to ``gtol`` (the only condition
    that marks convergence), when the relative objective decrease over one
    iteration falls to ``ftol_rel``, when the line search fails, or at the
    iteration cap.  Accepted iterates have strictly decreasing objective.
    """
    x = np.asarray(x0, dtype=float).copy()
    if grad is None:
        grad = lambda z: fd_gradient(f, z)
    fx = f(x)
    g = grad(x)
    n = x.size
    h_inv = np.eye(n)
    n_iter = 0
    first_update = True
    g_max = float(np.abs(g).max())
    converged = g_max <= gtol
    while not converged and n_iter < max_iter:
        d = -h_inv @ g
        slope = float(g @ d)
        if not math.isfinite(slope) or slope >= 0.0:
            # Curvature information went bad; restart from steepest descent.
            h_inv = np.eye(n)
            d = -g
            slope = -float(g @ g)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = x + alpha * d
            f_new = f(x_new)
            if math.isfinite(f_new) and f_new <= fx + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        g_new = grad(x_new)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if first_update and sy > 0.0:
            # Scale the initial inverse Hessian before the first update.
            h_inv *= sy / float(y @ y)
            first_update = False
        if sy > 1e-10 * math.sqrt(s @ s) * math.sqrt(y @ y):
            rho = 1.0 / sy
            hy = h_inv @ y
            yhy = float(y @ hy)
            # Outer products by broadcasting: np.outer's result, without its overhead.
            s_col = s[:, None]
            h_inv += s_col * s * (rho * rho * yhy + rho) - rho * (hy[:, None] * s + s_col * hy)
        n_iter += 1
        rel_decrease = (fx - f_new) / max(abs(fx), 1e-300)
        x, fx, g = x_new, f_new, g_new
        g_max = float(np.abs(g).max())
        if g_max <= gtol:
            converged = True
            break
        if rel_decrease <= ftol_rel:
            break
    return OptimizeOutcome(x=x, fun=fx, n_iterations=n_iter, grad_max_norm=g_max, converged=converged)


def default_starts(
    spec: ModelSpec,
    obs: ObservedSeries,
    n_starts: int = 8,
    seed: int = 0,
    start_sd: float = 0.5,
) -> list[np.ndarray]:
    """Heuristic center plus seeded Gaussian perturbations.

    The center puts plausible constant levels on every block (routing
    0.3 / 0.05 / 0.3, hazards 0.4 / 0.15), zeroes the time-variation
    coefficients, and starts the forcing coefficient effectively at zero.
    The data are not consulted.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    center = []
    for level in (0.3, 0.05, 0.3):
        center += [float(logit(level))] + [0.0] * spec.deg_rho
    for level in (0.4, 0.15):
        center += [float(logit(level))] + [0.0] * spec.deg_gamma
    if spec.forcing:
        center.append(-5.0)
    center = np.array(center)
    starts = [center]
    rng = np.random.default_rng(seed)
    for _ in range(n_starts - 1):
        starts.append(center + rng.normal(0.0, start_sd, size=center.size))
    return starts


def minimize_bfgs(
    spec: ModelSpec,
    obs: ObservedSeries,
    starts: Sequence[np.ndarray],
    options: Optional[FitOptions] = None,
    scale_grid: Optional[YearGrid] = None,
) -> FitResult:
    """Minimize the loss from every start and keep the best local minimum."""
    if len(starts) == 0:
        raise ValueError("at least one start is required")
    opts = options or FitOptions()
    objective = _Objective(spec, obs, scale_grid)
    best: Optional[OptimizeOutcome] = None
    for x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (spec.n_params,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"start must be a finite vector of length {spec.n_params}")
        outcome = bfgs_minimize(
            objective.value,
            x0,
            grad=objective.gradient,
            gtol=opts.gtol,
            ftol_rel=opts.ftol_rel,
            max_iter=opts.max_iter,
        )
        if best is None or outcome.fun < best.fun:
            best = outcome
    # ``best.fun`` is the loss at ``best.x``, from the same forward pass as :func:`loss`.
    sse = best.fun
    # A gradient that flatlines inside the penalty region is not convergence.
    converged = best.converged and sse < PENALTY_PER_INVALID_YEAR
    return FitResult(
        theta_hat=best.x,
        sse=float(sse),
        converged=converged,
        n_iterations=best.n_iterations,
        n_starts_used=len(starts),
        grad_norm_at_opt=best.grad_max_norm,
    )


def covariance(
    hessian: np.ndarray,
    sse: float,
    spec: ModelSpec,
    grid: YearGrid,
) -> UncertaintyResult:
    """Curvature-based parameter covariance 2*sigma2*H^-1 with inversion safeguards.

    sigma2 is the residual variance estimate SSE/(N_eff - k) where N_eff
    counts the informative residual components (the two first-year
    residuals are imposed, not fit).  When the Hessian is ill-conditioned
    its eigenvalues are floored at a small fraction of the largest before
    inversion, and the flag records whether that fired.
    """
    k = spec.n_params
    n_eff = 2 * grid.n_years - 2
    if n_eff <= k:
        raise ValueError(f"residual variance undefined: N_eff={n_eff} <= k={k}")
    hessian = np.asarray(hessian, dtype=float)
    if hessian.shape != (k, k):
        raise ValueError(f"hessian must be {k}x{k}, got {hessian.shape}")
    sigma2 = float(sse) / (n_eff - k)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (hessian + hessian.T))
    eig_max = float(eigvals[-1])
    if eig_max <= 0:
        raise NumericalError("Hessian has no positive curvature; covariance undefined")
    eig_min = float(eigvals[0])
    regularize = eig_min <= 0 or eig_max / eig_min > HESSIAN_COND_LIMIT
    if regularize:
        floor = HESSIAN_EIG_FLOOR_REL * eig_max
        eigvals = np.maximum(eigvals, floor)
    cov = (eigvecs * (2.0 * sigma2 / eigvals)) @ eigvecs.T
    cov = 0.5 * (cov + cov.T)
    return UncertaintyResult(
        hessian=hessian,
        sigma2_hat=sigma2,
        covariance=cov,
        regularization_applied=bool(regularize),
    )


def sample_parameters(
    uncertainty: UncertaintyResult,
    theta_hat: np.ndarray,
    n_draws: int = 4000,
    seed: int = 0,
) -> np.ndarray:
    """Seeded Gaussian draws around the optimum, shape (n_draws, k).

    Uses the symmetric square root of the covariance (eigendecomposition
    with negative eigenvalues clipped to zero), so a zero covariance
    degenerates to repeated copies of the point estimate.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    cov = uncertainty.covariance
    eigvals, eigvecs = np.linalg.eigh(cov)
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, theta_hat.size))
    return theta_hat[None, :] + z @ root


def confidence_bands(
    draws: np.ndarray,
    spec: ModelSpec,
    grid: YearGrid,
    level: float = 0.95,
) -> TrajectoryBands:
    """Pointwise empirical percentile bands for the parameter trajectories.

    Every draw is pushed through the same clamped logistic evaluation as
    the simulation, so band values always lie strictly inside (0, 1).  The
    bands are ``np.quantile``'s (linear interpolation) of those values,
    computed from order statistics: the clamped logistic never decreases,
    so the k-th smallest trajectory value is the logistic of the k-th
    smallest linear predictor.  Each year's predictors are sorted across
    the draws (a vectorised sort, faster here than a partition), and only
    the two order statistics around each quantile go through the logistic.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[0] < 2:
        raise ValueError("need at least two parameter draws")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be inside (0, 1)")
    q_lo = (1.0 - level) / 2.0
    # np.quantile's virtual index (n - 1) q, its floor and the next order
    # statistic (the last one when q rounds to 1), and the weight g.
    last = draws.shape[0] - 1
    picks = []
    for q in (q_lo, 1.0 - q_lo):
        h = last * q
        below = min(math.floor(h), last)
        picks.append((below, min(below + 1, last), h - below))
    columns = [i for below, above, _ in picks for i in (below, above)]
    lower = {}
    upper = {}
    for name, eta in _linear_predictors(draws, spec, grid):
        values = _clamped_logistic(np.sort(eta, axis=1)[:, columns])
        bands = []
        for j, (_, _, g) in enumerate(picks):
            a = values[:, 2 * j]
            b = values[:, 2 * j + 1]
            d = b - a
            # np.quantile's interpolation, which switches form at g = 0.5.
            bands.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
        lower[name], upper[name] = bands
    return TrajectoryBands(level=level, lower=lower, upper=upper)
