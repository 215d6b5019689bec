"""Log-residual loss, quasi-Newton fitting, and curvature-based uncertainty.

The loss is the sum of squared log-scale residuals of the implied master's
and PhD completion flows against the observed counts.  It is minimized in
the unconstrained transformed parameter space with a BFGS iteration using
a backtracking (Armijo) line search and the exact gradient.  One evaluator,
:class:`~flowfit.model.LaneKernel`, gives the loss at a point: :func:`loss`,
every fit's SSE, the lanes of a multi-start BFGS and the Hessian (central
differences of the exact gradient) are lanes of its calls.  Every fit,
:func:`minimize_bfgs` included, is a lane set (:func:`fit_lane_set`) and
runs as lanes of :func:`bfgs_lanes`, the package's one BFGS:
:func:`bfgs_minimize`, the public driver for other objectives, is one of
its lanes on callables.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import (
    TRAJECTORY_NAMES,
    LaneKernel,
    ModelSpec,
    ObservedSeries,
    SUPERSET_SPEC,
    SimulationResult,
    YearGrid,
    _checked_theta,
    _clamped_logistic,
    embed,
    logit,
    rescale_coefficients,
    rescale_time,
    superset_mask,
)

GRADIENT_REL_STEP = 1e-5

# Eigenvalue-floor regularization of the Hessian before inversion.
HESSIAN_COND_LIMIT = 1e12
HESSIAN_EIG_FLOOR_REL = 1e-8

# Trial steps 1, 1/2, 1/4, ... a BFGS line search makes before it gives up.
LINE_SEARCH_TRIES = 60

# Most lanes one batched BFGS runs at once, and the unit of work of a lane
# set's workers.  The kernel's cost per lane stops falling at about this
# width.  A lane set narrows its windows' inputs to a chunk's lanes only
# when that chunk runs, so this bounds the set's lane inputs and workspace
# whatever the start count.
LANE_CHUNK = 256


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

    def __post_init__(self) -> None:
        # A float count would fail in NumPy or cap a fit at its ceiling; a
        # bool's type is not int, and NumPy's bool is no np.integer.
        for name, least in (("n_starts", 1), ("max_iter", 0), ("seed", 0)):
            value = getattr(self, name)
            if not (type(value) is int or isinstance(value, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        for name in ("start_sd", "gtol", "ftol_rel"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass
class TrajectoryBands:
    """Pointwise percentile bands for the five parameter trajectories."""

    level: float
    lower: dict[str, np.ndarray]
    upper: dict[str, np.ndarray]


def residuals(obs: ObservedSeries, sim: SimulationResult) -> ResidualSet:
    """Log residuals log(observed) - log(implied) for both series.

    Implied flows that are not all finite and positive raise ``ValueError``.
    """
    flows = np.stack([sim.flow_m, sim.flow_p])
    if not np.all(np.isfinite(flows) & (flows > 0)):
        raise ValueError("implied flows must be finite and strictly positive "
                         "to form log residuals")
    r_m = np.log(obs.m) - np.log(sim.flow_m)
    r_p = np.log(obs.p) - np.log(sim.flow_p)
    r_m[0] = 0.0
    r_p[0] = 0.0
    return ResidualSet(r_m=r_m, r_p=r_p, n_eff=obs.grid.n_eff)


def _at_point(theta: np.ndarray, spec: ModelSpec, obs: ObservedSeries) -> tuple[float, np.ndarray]:
    """:func:`_spec_lanes` at one finite parameter vector: its loss and exact gradient."""
    if np.ndim(theta) != 1:
        raise ValueError(f"theta must be one parameter vector, got shape {np.shape(theta)}")
    theta = _checked_theta(theta, spec)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    values, grads = _spec_lanes(theta[None], spec, obs)
    return float(values[0]), grads[0]


def loss(theta: np.ndarray, spec: ModelSpec, obs: ObservedSeries,
         scale_grid: Optional[YearGrid] = None) -> float:
    """Sum of squared log residuals of the implied flows, year 0 excluded.

    A point whose implied flows go non-positive or non-finite in a
    counted year is not rejected with an exception: its loss is +inf,
    which a line search rejects as it rejects any step that does not
    descend.  A non-finite ``theta`` raises ``ValueError``.

    ``scale_grid``, if given, is the time scale of ``theta``'s
    coefficients, which :func:`~flowfit.model.rescale_coefficients` maps to
    ``obs``'s own first; coefficients it maps to non-finite ones raise
    ``ValueError`` as a non-finite ``theta`` does.  The value is one lane of a
    :class:`LaneKernel` call, so a fit's SSE, its winning lane's value,
    is bitwise the loss at its ``theta_hat``.
    """
    if scale_grid is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            theta = rescale_coefficients(theta, spec, scale_grid, obs.grid)
    return _at_point(theta, spec, obs)[0]


def loss_gradient(theta: np.ndarray, spec: ModelSpec, obs: ObservedSeries) -> np.ndarray:
    """Exact gradient of :func:`loss`, from the same :class:`LaneKernel` call.

    Where the loss is +inf every entry is nan.  The forcing entry is 0 at
    or below the forcing floor.
    """
    return _at_point(theta, spec, obs)[1]


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
    # Where both sides of a coordinate's stencil are invalid (+inf), its entry is nan.
    with np.errstate(invalid="ignore"):
        return (values[:n] - values[n:]) / (2.0 * h)


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, rel_step: float = GRADIENT_REL_STEP) -> np.ndarray:
    """Central-difference gradient with per-coordinate step rel_step*max(1, |x_i|)."""
    points, h = _gradient_stencil(np.asarray(x, dtype=float), rel_step)
    return _gradient_from_stencil(np.array([f(point) for point in points], dtype=float), h)


def _spec_lanes(
    points: np.ndarray, spec: ModelSpec, obs: ObservedSeries
) -> tuple[np.ndarray, np.ndarray]:
    """:class:`LaneKernel` at a ``(B, k)`` array of ``spec``'s parameter vectors.

    Returns the loss of every row and its exact gradient in ``spec``'s
    coefficients, ``(B,)`` and ``(B, k)``, from one kernel call.
    """
    mask = superset_mask(spec)
    values, grads = LaneKernel(obs)(embed(points, spec), np.tile(mask, (len(points), 1)))
    return values, grads[:, mask]


def _symmetrized(hess: np.ndarray) -> np.ndarray:
    """(H + H^T)/2; rejects non-finite entries."""
    if not np.all(np.isfinite(hess)):
        bad = np.argwhere(~np.isfinite(hess))[0]
        raise NumericalError(f"non-finite Hessian entry at coordinate pair ({bad[0]}, {bad[1]})")
    return 0.5 * (hess + hess.T)


def gradient_fd(theta: np.ndarray, spec: ModelSpec, obs: ObservedSeries) -> np.ndarray:
    """Central-difference gradient of :func:`loss`; all 2k points in one kernel call.

    The fit uses the exact gradient (:func:`loss_gradient`); this one is its
    independent check: it reads only the values of the call.
    """
    points, h = _gradient_stencil(np.asarray(theta, dtype=float), GRADIENT_REL_STEP)
    values, _ = _spec_lanes(points, spec, obs)
    return _gradient_from_stencil(values, h)


def numerical_hessian(theta_hat: np.ndarray, spec: ModelSpec, obs: ObservedSeries) -> np.ndarray:
    """Hessian of :func:`loss`: central differences of its exact gradient.

    Row i is (g(x + h_i e_i) - g(x - h_i e_i)) / 2 h_i, with the gradient
    stencil's steps h_i = ``GRADIENT_REL_STEP`` * max(1, |x_i|); all 2k
    gradients come from one :class:`LaneKernel` call.  The result is
    symmetrized as (H + H^T)/2, so it is exactly symmetric; a non-finite
    entry raises :class:`NumericalError`.
    """
    points, h = _gradient_stencil(np.asarray(theta_hat, dtype=float), GRADIENT_REL_STEP)
    _, grads = _spec_lanes(points, spec, obs)
    n = h.size
    return _symmetrized((grads[:n] - grads[n:]) / (2.0 * h[:, None]))


@dataclass
class OptimizeOutcome:
    x: np.ndarray
    fun: float
    n_iterations: int
    grad_max_norm: float
    converged: bool


class _Callables:
    """``f`` and its gradient ``grad`` as the kernel of :func:`bfgs_lanes`' lanes.

    A call returns each row's value and gradient; where the value is not
    finite it does not call ``grad`` and the gradient is nan, as a
    :class:`LaneKernel` lane's is.  Every lane reads the same callables, so
    narrowing keeps the kernel.
    """

    def __init__(self, f: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray]):
        self.f, self.grad = f, grad

    def __call__(self, thetas: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.array([self.f(theta) for theta in thetas], dtype=float)
        grads = np.full(thetas.shape, np.nan)
        for row in np.flatnonzero(np.isfinite(values)):
            grads[row] = self.grad(thetas[row])
        return values, grads

    def lanes(self, index) -> "_Callables":
        return self


def bfgs_minimize(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    grad: Callable[[np.ndarray], np.ndarray],
    gtol: float = 1e-6,
    ftol_rel: float = 1e-12,
    max_iter: int = 2000,
) -> OptimizeOutcome:
    """BFGS on ``f`` and its gradient ``grad``, with a backtracking Armijo line search.

    One lane of :func:`bfgs_lanes`, so it takes a lane's steps bit for bit:
    on :func:`loss` and :func:`loss_gradient` of the superset spec it
    stops where that spec's lane of :class:`LaneKernel` stops.  Stops when
    the gradient max-norm drops to ``gtol`` (the only condition that marks
    convergence), when the relative objective decrease over one iteration
    falls to ``ftol_rel``, when the line search fails, or at the iteration
    cap.  Accepted iterates have strictly decreasing objective.  As a
    lane's, ``grad`` is evaluated at every trial point whose value is
    finite, accepted or not, and never at one whose value is not; a start
    whose value is not finite stops unconverged after 0 iterations.
    """
    x0 = np.asarray(x0, dtype=float)[None]
    lane = bfgs_lanes(_Callables(f, grad), x0, np.ones(x0.shape, dtype=bool),
                      gtol=gtol, ftol_rel=ftol_rel, max_iter=max_iter)
    return OptimizeOutcome(x=lane.x[0], fun=float(lane.fun[0]),
                           n_iterations=int(lane.n_iterations[0]),
                           grad_max_norm=float(lane.grad_max_norm[0]),
                           converged=bool(lane.converged[0]))


# The fields of :class:`LaneOutcomes`, in order; :class:`OptimizeOutcome` has the same.
_OUTCOME_FIELDS = ("x", "fun", "n_iterations", "grad_max_norm", "converged")


@dataclass
class LaneOutcomes:
    """Where each lane of :func:`bfgs_lanes` stopped, one row or entry per lane.

    ``x`` holds superset vectors; the other fields are as in
    :class:`OptimizeOutcome`.
    """

    x: np.ndarray
    fun: np.ndarray
    n_iterations: np.ndarray
    grad_max_norm: np.ndarray
    converged: np.ndarray

    def rows(self, index) -> "LaneOutcomes":
        return LaneOutcomes(*(getattr(self, name)[index] for name in _OUTCOME_FIELDS))

    @staticmethod
    def concatenate(parts: Sequence["LaneOutcomes"]) -> "LaneOutcomes":
        return LaneOutcomes(*(np.concatenate([getattr(part, name) for part in parts])
                              for name in _OUTCOME_FIELDS))


def _lane_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(L, k)`` arrays.

    Each row is reduced by itself along the contiguous last axis, so its
    sum does not depend on the other rows.
    """
    return np.add.reduce(u * v, axis=-1)


def _lane_matvec(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``h[l] @ v[l]`` for every lane of an ``(L, k, k)`` stack, one ``np.matmul`` over the stack.

    Each lane's product reads only its own matrix and vector, so it does
    not depend on the other lanes; BLAS rounds it differently from a
    row-by-row :func:`_lane_dot` reduction.
    """
    return np.matmul(h, v[:, :, None])[:, :, 0]


def _bfgs_step(h: np.ndarray, s: np.ndarray, y: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Each lane's BFGS inverse-Hessian update, ``(L, k, k)``, for ``rho = 1 / s'y``.

    The textbook ``c s s' - rho (hy s' + s hy')`` with
    ``c = rho^2 y'hy + rho`` (Nocedal & Wright, *Numerical Optimization*,
    2nd ed., 2006, sec. 6.1), formed as ``a + a'`` with ``a = s w'`` and
    ``w = (c/2) s - rho hy``: the same matrix in exact arithmetic, in three
    passes over the stack, and exactly symmetric, so each lane's ``h``
    stays so.
    """
    hy = _lane_matvec(h, y)
    c = rho * rho * _lane_dot(y, hy) + rho
    w = (0.5 * c)[:, None] * s - rho[:, None] * hy
    a = s[:, :, None] * w[:, None, :]
    return a + a.transpose(0, 2, 1)


def bfgs_lanes(
    kernel: LaneKernel,
    x0: np.ndarray,
    mask: np.ndarray,
    gtol: float = 1e-6,
    ftol_rel: float = 1e-12,
    max_iter: int = 2000,
) -> LaneOutcomes:
    """BFGS from every row of ``x0`` at once, one lane per row.

    ``x0`` holds ``(B, 16)`` superset start vectors and ``mask`` the
    coefficients each lane's spec has; ``kernel`` is bound to these lanes
    (see :class:`LaneKernel`), so the loop carries no window index.  Each lane
    steps in its spec's coefficients: the quasi-Newton direction with a
    steepest-descent restart, Armijo backtracking, a scaled first update,
    the BFGS update and four stop rules (those of :func:`bfgs_minimize`,
    which is one lane of this loop), with a ``(B, 16, 16)`` stack of
    inverse Hessians that is 0 off the lane's coefficients.  A lane whose
    start value is not finite (the kernel's gradient there is nan) stops
    before the first tick, unconverged, after 0 iterations.

    Each tick evaluates one trial point of every lane in the batch, value
    and gradient in one kernel call.  A lane whose trial passes the Armijo
    test moves there and takes its next direction; the others halve their
    step.  The update (:func:`_bfgs_step`) is computed for every lane, in
    place and with floating-point warnings off, and written only to the
    lanes that moved (``np.copyto`` or a ufunc's ``where``), so a lane that
    did not move keeps every bit of its state.  A lane's outcome is taken
    on the tick it stops.  Stopped lanes stay in the batch, and their later
    values are never read, until the live lanes are half the batch or
    fewer; then the batch keeps only the live lanes and
    :meth:`LaneKernel.lanes` narrows the kernel to them.  A lane's
    arithmetic never mixes with another's, so its iterates do not depend on
    the batch it runs in nor on when stopped lanes leave it.

    In the common tick every lane moves, and the masks select everything.
    So a tick whose ``moved`` is all True (one ufunc reduction decides)
    takes the trial points, values, gradients, directions and slopes by
    reference, resets every step to 1 and takes the moved lanes' stop
    rule, which gives the bits of the masked copies it replaces.
    """
    x0 = np.array(x0, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    fx, g = kernel(x0, mask)
    g_max = np.maximum.reduce(np.abs(g), 1)
    out = LaneOutcomes(x=x0.copy(), fun=fx, n_iterations=np.zeros(len(fx), dtype=int),
                       grad_max_norm=g_max, converged=g_max <= gtol)
    # A lane whose start value is not finite stops here: its gradient is nan.
    ids = (np.flatnonzero(~out.converged & np.isfinite(fx)) if max_iter > 0
           else np.empty(0, dtype=int))
    if ids.size < len(x0):
        kernel = kernel.lanes(ids)
    x, fx, g, mask = x0[ids], fx[ids], g[ids], mask[ids]
    h = _masked_eye(mask)
    scaled = np.zeros(len(ids), dtype=bool)
    n_iter = np.zeros(len(ids), dtype=int)
    d, slope = _lane_directions(h, g, mask, np.ones(len(ids), dtype=bool))
    alpha = np.ones(len(ids))
    live = np.ones(len(ids), dtype=bool)
    # Lanes that did not move may hold anything; nothing of theirs is kept.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while ids.size:
            trial = x + alpha[:, None] * d
            f_new, g_new = kernel(trial, mask)
            # fx is finite (a lane enters with a finite value and moves
            # only to a value below a finite bound) and slope is finite and
            # negative or -inf, so the bound is finite or -inf, and the
            # test alone rejects a nan or +inf.
            moved = f_new <= fx + 1e-4 * alpha * slope
            all_moved = np.logical_and.reduce(moved)
            s = trial - x
            y = g_new - g
            sy = _lane_dot(s, y)
            yy = _lane_dot(y, y)
            # Scale the initial inverse Hessian before the first update.
            first = moved & ~scaled & (sy > 0.0)
            if np.logical_or.reduce(first):
                np.multiply(h, (sy / yy)[:, None, None], out=h, where=first[:, None, None])
                scaled |= first
            update = moved & (sy > 1e-10 * np.sqrt(_lane_dot(s, s)) * np.sqrt(yy))
            if np.logical_or.reduce(update):
                np.add(h, _bfgs_step(h, s, y, 1.0 / sy), out=h, where=update[:, None, None])
            n_iter += moved
            rel_decrease = (fx - f_new) / np.maximum(np.abs(fx), 1e-300)
            if all_moved:
                # Every lane takes its trial's state, as the masked copies
                # below would write it.
                x, fx, g = trial, f_new, g_new
            else:
                rows = moved[:, None]
                np.copyto(x, trial, where=rows)
                np.copyto(fx, f_new, where=moved)
                np.copyto(g, g_new, where=rows)
            g_max = np.maximum.reduce(np.abs(g), 1)
            done = (g_max <= gtol) | (rel_decrease <= ftol_rel) | (n_iter >= max_iter)
            d_new, slope_new = _lane_directions(h, g, mask, moved)
            if all_moved:
                stop, d, slope = done, d_new, slope_new
                alpha.fill(1.0)
            else:
                # After k failed trials alpha is exactly 0.5**k.
                alpha *= 0.5
                stop = np.where(moved, done, alpha <= 0.5 ** LINE_SEARCH_TRIES)
                np.copyto(d, d_new, where=rows)
                np.copyto(slope, slope_new, where=moved)
                np.copyto(alpha, 1.0, where=moved)
            stop &= live
            if np.logical_or.reduce(stop):
                for name, value in zip(_OUTCOME_FIELDS, (x, fx, n_iter, g_max, g_max <= gtol)):
                    getattr(out, name)[ids[stop]] = value[stop]
                live &= ~stop
                n_live = np.count_nonzero(live)
                if 2 * n_live <= live.size:
                    keep = live
                    ids, x, fx, g, mask, h, scaled, n_iter, d, slope, alpha, live = (
                        a[keep] for a in (ids, x, fx, g, mask, h, scaled, n_iter, d, slope,
                                          alpha, live))
                    if n_live:
                        kernel = kernel.lanes(keep)
    return out


def _masked_eye(mask: np.ndarray) -> np.ndarray:
    """The ``(B, 16, 16)`` identity of each lane's coefficients, 0 elsewhere."""
    return np.where(mask[:, :, None] & np.eye(mask.shape[1], dtype=bool), 1.0, 0.0)


def _lane_directions(
    h: np.ndarray, g: np.ndarray, mask: np.ndarray, lanes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-Newton directions ``-h g`` and slopes ``g . d`` of a stack of lanes.

    A lane of ``lanes`` whose slope is not finite and negative restarts
    from steepest descent: its ``h`` (changed in place) becomes the
    identity of its coefficients.  The other lanes' ``h`` is left as it is.
    """
    d = -_lane_matvec(h, g)
    slope = _lane_dot(g, d)
    bad = lanes & (~np.isfinite(slope) | (slope >= 0.0))
    if np.logical_or.reduce(bad):
        np.copyto(h, _masked_eye(mask), where=bad[:, None, None])
        d[bad] = -g[bad]
        slope[bad] = -_lane_dot(g[bad], g[bad])
    return d, slope


def _best_start(spec: ModelSpec, lanes: LaneOutcomes) -> FitResult:
    """The first start with the lowest ``lanes.fun``, as a :class:`FitResult`.

    Its SSE is that ``fun``, a :class:`LaneKernel` value, so
    ``sse == loss(theta_hat)`` exactly.
    """
    best = int(np.argmin(lanes.fun))
    theta_hat = lanes.x[best][superset_mask(spec)]
    sse = float(lanes.fun[best])
    return FitResult(
        theta_hat=theta_hat,
        sse=sse,
        converged=bool(lanes.converged[best]),
        n_iterations=int(lanes.n_iterations[best]),
        n_starts_used=len(lanes.fun),
        grad_norm_at_opt=float(lanes.grad_max_norm[best]),
    )


def default_starts(
    spec: ModelSpec,
    obs: ObservedSeries,
    n_starts: int = 8,
    seed: int = 0,
    start_sd: float = 0.5,
) -> list[np.ndarray]:
    """Heuristic center plus seeded Gaussian perturbations.

    The center is a superset vector masked: plausible levels on the
    constant coefficients (the 0,0,none spec's: routing 0.3 / 0.05 / 0.3,
    hazards 0.4 / 0.15), 0 on the time-variation coefficients, and -5 on
    the forcing one, effectively zero forcing.  The data are not consulted.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    center = np.zeros(SUPERSET_SPEC.n_params)
    center[superset_mask(ModelSpec(0, 0))] = logit([0.3, 0.05, 0.3, 0.4, 0.15])
    center[-1] = -5.0
    center = center[superset_mask(spec)]
    steps = np.random.default_rng(seed).normal(0.0, start_sd, size=(n_starts - 1, center.size))
    return [center, *(center + steps)]


def minimize_bfgs(spec: ModelSpec, obs: ObservedSeries, starts: Sequence[np.ndarray],
                  options: Optional[FitOptions] = None) -> FitResult:
    """Minimize the loss from every start and keep the best local minimum.

    The starts, however many, are one :class:`LaneJob` of
    :func:`fit_lane_set`, so the fit is bitwise that job's in any lane
    set.  The first start with the lowest value wins, and its
    :class:`LaneKernel` value is the fit's SSE: ``sse == loss(theta_hat)``
    exactly.
    """
    if len(starts) == 0:
        raise ValueError("at least one start is required")
    starts = [np.asarray(x0, dtype=float) for x0 in starts]
    for x0 in starts:
        if x0.shape != (spec.n_params,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"start must be a finite vector of length {spec.n_params}")
    return fit_lane_set([LaneJob(spec, obs, np.stack(starts))], options)[0]


@dataclass
class LaneJob:
    """One multi-start fit: ``spec`` on ``obs`` from each row of ``starts`` (``(n, k)``).

    ``obs`` is the job's window, and rescaled time is anchored on its own
    grid.  ``fit`` is None until :func:`fit_lane_set` has fitted the job.
    """

    spec: ModelSpec
    obs: ObservedSeries
    starts: np.ndarray
    fit: Optional[FitResult] = None


def _fit_chunk(args) -> LaneOutcomes:
    # The chunk's kernel is narrowed from the per-window stack here, in the
    # worker that runs it, so it lives only while the chunk runs.
    stack, window, options, x0, mask = args
    return bfgs_lanes(stack.lanes(window), x0, mask, gtol=options.gtol,
                      ftol_rel=options.ftol_rel, max_iter=options.max_iter)


def fit_lane_set(
    jobs: Sequence[LaneJob],
    options: Optional[FitOptions] = None,
    workers: int = 1,
) -> list[FitResult]:
    """Fit every job: set each job's ``fit`` to the best of its starts and return the fits.

    Every start of every job is one lane of one lane set, bound to its
    job's window, so the window index lives only here.  The windows'
    inputs are stacked once (:meth:`LaneKernel.of_windows`).  The lanes,
    in job order, are cut into chunks of at most ``LANE_CHUNK``; each
    chunk is one :func:`bfgs_lanes` run on the stack narrowed to its lanes
    when it runs, so the set holds one chunk's lane inputs at a time.
    ``workers`` > 1 runs the chunks in parallel, on at most one worker per
    chunk and per CPU.  A lane's fit does not
    depend on the lanes it runs with nor on its window's padding, so
    chunks, windows and workers never change a result, and a set of one
    lane runs as lanes too.  Each fit's SSE is its winning lane's kernel
    value, bitwise its :func:`loss`.
    """
    if not jobs:
        return []
    opts = options or FitOptions()
    # One kernel window per distinct series, in order of first use.
    windows = {id(job.obs): job.obs for job in jobs}
    index = {key: w for w, key in enumerate(windows)}
    counts = [len(job.starts) for job in jobs]
    x0 = np.concatenate([embed(job.starts, job.spec) for job in jobs])
    mask = np.repeat([superset_mask(job.spec) for job in jobs], counts, axis=0)
    window = np.repeat([index[id(job.obs)] for job in jobs], counts)
    stack = LaneKernel.of_windows(list(windows.values()))

    chunks = [(stack, window[i:i + LANE_CHUNK], opts, x0[i:i + LANE_CHUNK],
               mask[i:i + LANE_CHUNK]) for i in range(0, len(x0), LANE_CHUNK)]
    # The pool starts all its workers up front, so never ask for more than
    # can run at once.
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool pulls in multiprocessing, which
        # only a run with a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            lanes = LaneOutcomes.concatenate(list(pool.map(_fit_chunk, chunks)))
    else:
        lanes = LaneOutcomes.concatenate([_fit_chunk(chunk) for chunk in chunks])

    for job, end, count in zip(jobs, np.cumsum(counts), counts):
        job.fit = _best_start(job.spec, lanes.rows(slice(end - count, end)))
    return [job.fit for job in jobs]


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
    n_eff = grid.n_eff
    if not spec.fits(grid.n_years):
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
    # theta_hat is added into the product's own buffer, bitwise
    # theta_hat + z @ root.  That buffer is allocated before z, so freeing z
    # leaves no hole below it in the heap; allocated after z, it raised a
    # report's peak RSS by about 0.4 MB.
    draws = np.empty((n_draws, theta_hat.size))
    np.matmul(rng.standard_normal((n_draws, theta_hat.size)), root, out=draws)
    draws += theta_hat
    return draws


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
    smallest linear predictor.  Each tail needs the two order statistics
    around its quantile.  They are selected, not sorted: one in-place
    partition of each year's predictors, on the ranks not yet placed, puts
    one of the two in place, and a max or min over the shorter remainder
    gives the other.  Only these four predictors per year go through the
    logistic, once for all five trajectories.  A non-finite draw raises
    ``ValueError``.
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
    draws = _checked_theta(draws, spec)
    if not np.isfinite(draws).all():
        # The per-draw check, only to name the first bad row.
        raise ValueError(f"draw {int(np.argmin(np.isfinite(draws).all(axis=1)))} is not finite")
    # Each trajectory's predictors are its Vandermonde columns times its own
    # coefficients: the spec's kept columns of its superset block, which are
    # contiguous columns of the draws.
    vander = np.vander(rescale_time(grid.years, grid), 3, increasing=True)
    widths = superset_mask(spec)[:-1].reshape(len(TRAJECTORY_NAMES), 3).sum(axis=1)
    eta = np.empty((grid.n_years, draws.shape[0]))
    picked = np.empty((len(TRAJECTORY_NAMES), grid.n_years, len(columns)))
    col = 0
    for i, width in enumerate(widths):
        # Trajectory i's predictors, one column per draw.  The coefficient
        # operand is copied to a C-ordered (width, n_draws) array: with an
        # F-ordered one, OpenBLAS may run the product on a second thread that
        # spins after it, for up to twice the CPU time and no gain in wall
        # time.  Finite draws may overflow their predictors to inf, as in the
        # kernel; the clamped logistic maps inf inside (0, 1).
        with np.errstate(over="ignore"):
            np.matmul(np.ascontiguousarray(vander[:, :width]),
                      draws[:, col:col + width].T.copy(), out=eta)
        col += width
        # Each year's predictors at the picked ranks.  Columns left of
        # ``start`` hold the ranks below it.  A tail partitions the rest at
        # whichever of its two ranks leaves the shorter remainder to reduce:
        # at the higher rank, the lower one is the largest of the columns
        # left of it; at the lower rank, the higher one is the smallest of
        # the columns right of it.  A rank an earlier tail found needs no
        # work.  Where a sort and the max or min would pick different
        # zeros, +0.0 and -0.0, the logistic maps both to 0.5.
        ranked = {}
        start = 0
        for below, above, _ in picks:
            if below in ranked and above in ranked:
                continue
            if above - start <= last - below:
                eta[:, start:].partition(above - start, axis=1)
                ranked[above] = eta[:, above]
                if below not in ranked:
                    ranked[below] = np.maximum.reduce(eta[:, start:above], axis=1)
                start = above + 1
            else:
                eta[:, start:].partition(below - start, axis=1)
                ranked[below] = eta[:, below]
                if above not in ranked:
                    ranked[above] = np.minimum.reduce(eta[:, below + 1:], axis=1)
                start = below + 1
        np.stack([ranked[rank] for rank in columns], axis=1, out=picked[i])
    values = _clamped_logistic(picked)
    bands = []
    for j, (_, _, g) in enumerate(picks):
        a = values[..., 2 * j]
        b = values[..., 2 * j + 1]
        d = b - a
        # np.quantile's interpolation, which switches form at g = 0.5.
        bands.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
    lower, upper = (dict(zip(TRAJECTORY_NAMES, band)) for band in bands)
    return TrajectoryBands(level=level, lower=lower, upper=upper)
