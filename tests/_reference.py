"""Frozen reference values and reference computations shared across test modules.

``REFERENCE_GRID`` is the published 18-specification comparison for the
1969-2017 U.S. mathematics degree series (NCES data): columns are
(deg_gamma, deg_rho, forcing, k, sse, aic, delta_aic, bic, delta_bic),
in published rank order.  SSE values are rounded to 3 decimals, so
criteria recomputed from them match the published AIC/BIC to about
+/- 0.5.

``fd_hessian`` is the second-difference Hessian of any scalar function,
the reference for ``numerical_hessian``.

``_Objective`` is the list-level kernel: the loss and its exact gradient
by one forward pass and one reverse sweep (``_adjoint_sweep``,
``_pull_back``) on Python floats, year by year.  It shares no code with
:class:`~flowfit.model.LaneKernel` past the trajectories and the annual
update, so it is the sequential oracle the lane kernel is held to.

``sorted_bands`` is :func:`~flowfit.estimation.confidence_bands` by a full
sort of each year's linear predictors, the oracle the bands' order
statistic selection is held to.
"""

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from flowfit.estimation import TrajectoryBands, _symmetrized
from flowfit.model import (
    LAMBDA_RAW_FLOOR,
    LOGISTIC_CLAMP,
    TRAJECTORY_NAMES,
    ModelSpec,
    ObservedSeries,
    YearGrid,
    _annual_updates,
    _clamped_logistic,
    _stacked_design,
    _trajectory_values,
)

REFERENCE_GRID = [
    (2, 2, False, 15, 0.129, -619.7, 0.0, -581.0, 0.0),
    (2, 2, True, 16, 0.129, -617.7, 2.0, -576.4, 4.6),
    (1, 2, False, 13, 0.170, -597.2, 22.5, -563.6, 17.3),
    (1, 2, True, 14, 0.170, -594.8, 24.9, -558.6, 22.4),
    (2, 1, False, 12, 0.229, -569.8, 50.0, -538.7, 42.2),
    (2, 1, True, 13, 0.229, -567.8, 52.0, -534.1, 46.8),
    (1, 1, False, 10, 0.297, -548.4, 71.3, -522.6, 58.4),
    (1, 1, True, 11, 0.297, -546.4, 73.3, -518.0, 62.9),
    (0, 2, False, 11, 0.299, -545.7, 74.1, -517.2, 63.7),
    (0, 2, True, 12, 0.299, -543.7, 76.1, -512.7, 68.3),
    (0, 1, False, 8, 0.656, -474.6, 145.1, -454.0, 127.0),
    (0, 1, True, 9, 0.656, -472.6, 147.1, -449.4, 131.6),
    (2, 0, False, 9, 0.684, -468.5, 151.2, -445.3, 135.7),
    (2, 0, True, 10, 0.684, -466.5, 153.2, -440.7, 140.3),
    (0, 0, False, 5, 6.028, -263.3, 356.5, -250.3, 330.6),
    (0, 0, True, 6, 6.028, -261.3, 358.5, -245.8, 335.2),
    (1, 0, False, 7, 6.029, -259.3, 360.5, -241.2, 339.8),
    (1, 0, True, 8, 6.029, -257.3, 362.5, -236.6, 344.4),
]

N_TOTAL = 98       # 49 master's + 49 PhD observations
N_EFF = 96         # first-year residuals are imposed, not fit
PREFERRED_SSE = 0.129
PREFERRED_K = 15

# Start-year sensitivity reference: start year -> (sse, pooled log rmse)
REFERENCE_TRUNCATION = {
    1974: (0.0899, 0.0320),
    1979: (0.0804, 0.0321),
    1984: (0.0664, 0.0312),
}

# One-step hindcast reference over cutoffs 1990..2015 step 5
REFERENCE_HINDCAST = {"m": 0.0723, "p": 0.0735, "pooled": 0.0729}
REFERENCE_CUTOFFS = [1990, 1995, 2000, 2005, 2010, 2015]


def fd_hessian(f, x, rel_step=1e-4):
    """Central second differences of ``f``, symmetrized as (H + H^T)/2.

    1 + 2k^2 values of ``f`` and no gradient, with per-coordinate steps
    ``rel_step * max(1, |x_i|)``; a non-finite entry raises naming its
    coordinate pair, as ``numerical_hessian`` does.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    e = np.diag(h)
    f0 = f(x)
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (f(x + e[i]) - 2.0 * f0 + f(x - e[i])) / (h[i] * h[i])
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j]) + f(x - e[i] - e[j])
            ) / (4.0 * h[i] * h[j])
    return _symmetrized(hess)


def sorted_bands(draws, spec, grid, level=0.95):
    """``confidence_bands`` of finite ``draws`` from fully sorted predictors.

    Each trajectory's predictors, one row per year and one column per
    draw, are sorted along the draws; ``np.quantile``'s linear
    interpolation then runs on the logistic of the two order statistics
    around each tail's virtual index (n - 1) q.
    """
    q_lo = (1.0 - level) / 2.0
    last = draws.shape[0] - 1
    picks = []
    for q in (q_lo, 1.0 - q_lo):
        h = last * q
        below = min(math.floor(h), last)
        picks.append((below, min(below + 1, last), h - below))
    columns = [i for below, above, _ in picks for i in (below, above)]
    design = _stacked_design(spec, grid)
    lower = {}
    upper = {}
    for i, name in enumerate(TRAJECTORY_NAMES):
        block = design[i * grid.n_years:(i + 1) * grid.n_years]
        used = block.any(axis=0)
        eta = np.ascontiguousarray(block[:, used]) @ draws[:, used].T
        eta.sort(axis=1)
        values = _clamped_logistic(eta[:, columns])
        bands = []
        for j, (_, _, g) in enumerate(picks):
            a = values[:, 2 * j]
            b = values[:, 2 * j + 1]
            d = b - a
            # np.quantile's interpolation, which switches form at g = 0.5.
            bands.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
        lower[name], upper[name] = bands
    return TrajectoryBands(level=level, lower=lower, upper=upper)


@dataclass
class _Forward:
    """One evaluation of :class:`_Objective` and the state its gradient reuses.

    ``p`` and ``lam`` are as :func:`~flowfit.model._trajectory_values` gives
    them; the rest are Python floats or lists of them.  The residual lists
    cover every year, year 0 as 0; at an invalid point ``value`` is +inf
    and they are empty.
    """

    theta: np.ndarray
    value: float
    p: np.ndarray
    lam: float
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
    """The list-level kernel: the loss at one point and its exact gradient.

    Its value and gradient are :func:`loss`'s and :func:`loss_gradient`'s up
    to round-off, on Python floats.  With :func:`_adjoint_sweep` and
    :func:`_pull_back` below it is the whole reference.  The per-fit data
    are turned into lists and the stacked design is built once.  ``value``
    keeps the point and forward state of its last call.  ``gradient`` at
    that point runs only the reverse sweep; at any other point it runs the
    forward pass first.  At a point where a counted flow (any but year
    0's) is not finite and positive the value is +inf and the gradient
    nan.
    """

    def __init__(self, spec: ModelSpec, obs: ObservedSeries, scale_grid: Optional[YearGrid]):
        if spec.forcing and obs.p_intl is None:
            raise ValueError("forcing specification requires the p_intl series")
        self.spec = spec
        # Trajectories at the data's years on the (possibly wider) rescaling grid.
        self.design = _stacked_design(spec, obs.grid if scale_grid is None else scale_grid,
                                      None if scale_grid is None else obs.grid.years)
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
        p, lam = _trajectory_values(theta, self.spec, self.design)
        rho_bm, rho_bp, rho_mp, gamma_m, gamma_p = (
            row.tolist() for row in p.reshape(len(TRAJECTORY_NAMES), -1)
        )
        forcing = None
        if self.p_intl is not None:
            forcing = [lam * x for x in self.p_intl]
        stock_m, stock_p, flow_m, flow_p = _annual_updates(
            self.b, rho_bm, rho_bp, rho_mp, gamma_m, gamma_p, forcing,
            self.m0 / gamma_m[0], self.p0 / gamma_p[0],
        )
        if all(0.0 < f < math.inf for f in flow_m[1:] + flow_p[1:]):
            r_m = [0.0, *map(operator.sub, self.log_m[1:], map(math.log, flow_m[1:]))]
            r_p = [0.0, *map(operator.sub, self.log_p[1:], map(math.log, flow_p[1:]))]
            value = sum(map(operator.mul, r_m, r_m)) + sum(map(operator.mul, r_p, r_p))
        else:
            r_m = r_p = []
            value = math.inf
        return _Forward(
            theta=theta, value=value, p=p, lam=lam,
            rho_mp=rho_mp, gamma_m=gamma_m, gamma_p=gamma_p,
            stock_m=stock_m, stock_p=stock_p, flow_m=flow_m, flow_p=flow_p,
            r_m=r_m, r_p=r_p,
        )

    def _reverse(self, state: _Forward) -> np.ndarray:
        """Exact gradient of the value at ``state.theta`` by one reverse sweep, nan at +inf."""
        if state.value == math.inf:
            return np.full(state.theta.size, math.nan)
        # d(r^2)/d(flow) = -2 r / flow, with r = log(observed) - log(flow).  The
        # sweep is linear in its flow adjoints, so it runs on r / flow and
        # the factor -2, a power of two, is applied once at the end: exact.
        flat_bar, lam_bar = _adjoint_sweep(
            self.b, state.rho_mp, state.gamma_m, state.gamma_p, self.p_intl,
            state.stock_m, state.stock_p, state.flow_m,
            list(map(operator.truediv, state.r_m, state.flow_m)),
            list(map(operator.truediv, state.r_p, state.flow_p)),
        )
        p_bar = np.fromiter(flat_bar, dtype=float, count=len(flat_bar))
        p_bar *= -2.0
        return _pull_back(state.theta, state.p, p_bar, state.lam, -2.0 * lam_bar,
                          self.spec.forcing, self.design)

    def value(self, theta: np.ndarray) -> float:
        self._last = self._forward(theta)
        return self._last.value

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        if self._last is None or not (theta == self._last.theta).all():
            self.value(theta)
        return self._reverse(self._last)


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
    below the floor.
    """
    inside = (p > LOGISTIC_CLAMP) & (p < 1.0 - LOGISTIC_CLAMP)
    eta_bar = np.where(inside, p_bar * (p * (1.0 - p)), 0.0)
    theta_bar = eta_bar @ design
    if forcing and float(theta[-1]) > LAMBDA_RAW_FLOOR:
        theta_bar[-1] = lam_bar * lam
    return theta_bar
