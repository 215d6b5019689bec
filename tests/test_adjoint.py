"""The exact (reverse-mode) gradient of the loss against the finite-difference one.

``gradient_fd`` is the independent check: central differences of the
same loss, with no shared derivative code.  Both exact gradients are held
to it: ``loss_gradient`` (the lane kernel's reverse scans) and the
list-level kernel's reverse sweep (``_reference._Objective``).
"""

import numpy as np
import pytest

import flowfit as ff
from flowfit import estimation
from flowfit.model import LAMBDA_RAW_FLOOR, LaneKernel

from _reference import _Objective, _adjoint_sweep
from _scenarios import RECOVERY_SPEC, RECOVERY_THETA, recovery_scenario
from test_kernel_properties import evaluators

SPECS = [(0, 0), (1, 2), (2, 2)]


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


@pytest.fixture(scope="module")
def intl_obs():
    obs, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=5))
    return obs


@pytest.fixture(scope="module")
def late_proxy_case():
    # An overflowing forcing term: the proxy is zero for twelve years, so a
    # huge forcing weight invalidates the flows only after some valid years.
    base, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=3))
    p_intl = base.p_intl.copy()
    p_intl[:12] = 0.0
    obs = ff.ObservedSeries(base.grid, base.b, base.m, base.p, p_intl=p_intl)
    return obs, ff.ModelSpec(2, 2, forcing=True)


def center(spec, obs):
    return ff.default_starts(spec, obs, n_starts=1)[0]


def gradients(theta, spec, obs, scale_grid=None):
    """The exact gradient at ``theta`` from both kernels, by name."""
    return {name: gradient_of(theta)
            for name, (_, gradient_of) in evaluators(spec, obs, scale_grid).items()}


@pytest.mark.parametrize("forcing", [False, True])
@pytest.mark.parametrize("degrees", SPECS)
@pytest.mark.parametrize("rescaled", [False, True])
def test_matches_gradient_fd(intl_obs, degrees, forcing, rescaled):
    spec = ff.ModelSpec(*degrees, forcing=forcing)
    scale_grid = ff.YearGrid(1960, 2020) if rescaled else None
    rng = np.random.default_rng([*degrees, forcing, rescaled])
    base = center(spec, intl_obs)
    if forcing:
        base[-1] = 2.0   # a forcing weight that moves the PhD flows
    for _ in range(8):
        theta = base + rng.normal(0.0, 0.5, spec.n_params)
        want = ff.gradient_fd(theta, spec, intl_obs, scale_grid)
        assert np.isfinite(ff.loss(theta, spec, intl_obs, scale_grid))
        for name, got in gradients(theta, spec, intl_obs, scale_grid).items():
            assert rel_err(got, want) <= 1e-6, name


def test_matches_gradient_fd_on_window_with_full_rescaling(intl_obs):
    # The truncation and hindcast refits: a late window on the full-sample scale.
    window = intl_obs.window(1990, 2017)
    rng = np.random.default_rng(11)
    for _ in range(8):
        theta = RECOVERY_THETA + rng.normal(0.0, 0.3, RECOVERY_THETA.size)
        want = ff.gradient_fd(theta, RECOVERY_SPEC, window, intl_obs.grid)
        for name, got in gradients(theta, RECOVERY_SPEC, window, intl_obs.grid).items():
            assert rel_err(got, want) <= 1e-6, name


def test_nan_gradient_where_flows_go_invalid(late_proxy_case):
    obs, spec = late_proxy_case
    # At 700 the flows stay finite, the loss above 1e7.
    for raw, valid in ((-5.0, True), (6.0, True), (700.0, True), (705.0, False),
                       (800.0, False)):
        theta = np.concatenate([RECOVERY_THETA, [raw]])
        assert np.isfinite(ff.loss(theta, spec, obs)) == valid, raw
        for name, grad in gradients(theta, spec, obs).items():
            assert np.all(np.isfinite(grad) if valid else np.isnan(grad)), (raw, name)
    # At 800 the forcing weight itself overflows.
    theta = np.concatenate([RECOVERY_THETA, [800.0]])
    assert ff.eval_param_trajectories(theta, spec, obs.grid).lam == np.inf


def test_unpenalized_penalty_case_points_match_fd(late_proxy_case):
    obs, spec = late_proxy_case
    for raw in (-5.0, 6.0):
        theta = np.concatenate([RECOVERY_THETA, [raw]])
        assert np.isfinite(ff.loss(theta, spec, obs))
        want = ff.gradient_fd(theta, spec, obs)
        for name, got in gradients(theta, spec, obs).items():
            assert rel_err(got, want) <= 1e-6, (raw, name)


def test_forcing_entry_zero_at_or_below_floor(late_proxy_case):
    obs, spec = late_proxy_case
    for raw in (LAMBDA_RAW_FLOOR, LAMBDA_RAW_FLOOR - 10.0):
        theta = np.concatenate([RECOVERY_THETA, [raw]])
        for name, grad in gradients(theta, spec, obs).items():
            assert grad[-1] == 0.0, (raw, name)
            assert np.all(np.isfinite(grad)), (raw, name)


def test_clamped_trajectory_has_zero_entries(intl_obs):
    # rho_bp pinned at LOGISTIC_CLAMP in every year: its coefficients have
    # no effect on the loss, exactly.
    block = np.array([label.startswith("rho_bp_") for label in ff.theta_labels(RECOVERY_SPEC)])
    theta = RECOVERY_THETA.copy()
    theta[block] = [-60.0, 0.0, 0.0]
    traj = ff.eval_param_trajectories(theta, RECOVERY_SPEC, intl_obs.grid)
    assert np.all(traj.rho_bp == ff.LOGISTIC_CLAMP)
    others = np.ones(theta.size, dtype=bool)
    others[block] = False
    want = ff.gradient_fd(theta, RECOVERY_SPEC, intl_obs)
    for name, grad in gradients(theta, RECOVERY_SPEC, intl_obs).items():
        assert np.all(grad[block] == 0.0), name
        assert np.any(grad != 0.0), name
        assert rel_err(grad[others], want[others]) <= 1e-6, name


def adjoint_sweep(obs, traj, sim, flow_m_bar, flow_p_bar):
    """``_adjoint_sweep`` on arrays: trajectory adjoints by name and the forcing weight's."""
    flat, lam_bar = _adjoint_sweep(
        obs.b.tolist(), traj.rho_mp.tolist(), traj.gamma_m.tolist(), traj.gamma_p.tolist(),
        obs.p_intl.tolist(), sim.stock_m.tolist(), sim.stock_p.tolist(), sim.flow_m.tolist(),
        np.asarray(flow_m_bar, dtype=float).tolist(), np.asarray(flow_p_bar, dtype=float).tolist(),
    )
    bars = np.reshape(flat, (len(ff.TRAJECTORY_NAMES), -1))
    return dict(zip(ff.TRAJECTORY_NAMES, bars)), lam_bar


def test_adjoint_sweep_is_transpose_of_tangent(intl_obs):
    # <flow_bar, J v> == <J^T flow_bar, v> for a random trajectory direction v,
    # with J v taken by central differences of simulate.
    spec = ff.ModelSpec(2, 2, forcing=True)
    theta = np.concatenate([RECOVERY_THETA, [2.0]])
    traj = ff.eval_param_trajectories(theta, spec, intl_obs.grid)
    sim = ff.simulate(intl_obs, traj, spec)
    rng = np.random.default_rng(12)
    n = intl_obs.grid.n_years
    flow_m_bar = rng.normal(size=n)
    flow_p_bar = rng.normal(size=n)
    bar, lam_bar = adjoint_sweep(intl_obs, traj, sim, flow_m_bar, flow_p_bar)
    direction = {name: rng.normal(size=n) for name in ff.TRAJECTORY_NAMES}
    d_lam = rng.normal()
    h = 1e-7

    def flows(sign):
        moved = ff.ParamTrajectories(
            **{name: getattr(traj, name) + sign * h * direction[name] for name in direction},
            lam=traj.lam + sign * h * d_lam,
        )
        out = ff.simulate(intl_obs, moved, spec)
        return out.flow_m, out.flow_p

    (m_plus, p_plus), (m_minus, p_minus) = flows(1.0), flows(-1.0)
    tangent = (flow_m_bar @ (m_plus - m_minus) + flow_p_bar @ (p_plus - p_minus)) / (2 * h)
    adjoint = sum(direction[name] @ bar[name] for name in direction) + d_lam * lam_bar
    assert adjoint == pytest.approx(tangent, rel=1e-6)


def test_adjoint_sweep_ignores_years_past_its_adjoints(intl_obs):
    spec = ff.ModelSpec(1, 1, forcing=True)
    theta = np.concatenate([center(spec, intl_obs)[:-1], [1.0]])
    traj = ff.eval_param_trajectories(theta, spec, intl_obs.grid)
    sim = ff.simulate(intl_obs, traj, spec)
    rng = np.random.default_rng(13)
    fm_bar, fp_bar = rng.normal(size=(2, 20))
    bar, lam_bar = adjoint_sweep(intl_obs, traj, sim, fm_bar, fp_bar)
    for name in ff.TRAJECTORY_NAMES:
        assert np.all(bar[name][20:] == 0.0)
    # Zero adjoints on later years give the same sweep.
    pad = np.zeros(intl_obs.grid.n_years - 20)
    full, full_lam_bar = adjoint_sweep(intl_obs, traj, sim,
                                       np.concatenate([fm_bar, pad]), np.concatenate([fp_bar, pad]))
    for name in ff.TRAJECTORY_NAMES:
        assert np.array_equal(full[name], bar[name])
    assert full_lam_bar == lam_bar


def test_one_start_fit_makes_one_kernel_call_per_tick(intl_obs, monkeypatch):
    # A 1-start fit is one lane of bfgs_lanes: a call at the start, then one
    # per tick, whose value and gradient come from the same pass.  Each
    # call of _lane_directions, at the start and after every tick, marks one.
    counts = {"kernel": 0, "directions": 0}
    real_kernel = LaneKernel.__call__
    real_directions = estimation._lane_directions

    def counting_kernel(*args, **kwargs):
        counts["kernel"] += 1
        return real_kernel(*args, **kwargs)

    def counting_directions(*args, **kwargs):
        counts["directions"] += 1
        return real_directions(*args, **kwargs)

    monkeypatch.setattr(LaneKernel, "__call__", counting_kernel)
    monkeypatch.setattr(estimation, "_lane_directions", counting_directions)
    spec = ff.ModelSpec(1, 2, forcing=True)
    start = ff.default_starts(spec, intl_obs, n_starts=3, seed=4)[2]
    fit = ff.minimize_bfgs(spec, intl_obs, [start], ff.FitOptions(max_iter=40))
    assert counts["kernel"] == counts["directions"] > fit.n_iterations > 0
    assert fit.sse == ff.loss(fit.theta_hat, spec, intl_obs)


def test_gradient_away_from_last_value_runs_its_own_forward_pass(intl_obs):
    # The list-level reference keeps the point of its last value.
    def fresh(theta):
        return _Objective(RECOVERY_SPEC, intl_obs, None).gradient(theta)

    objective = _Objective(RECOVERY_SPEC, intl_obs, None)
    a = RECOVERY_THETA + 0.1
    b = RECOVERY_THETA - 0.1
    objective.value(a)
    assert np.array_equal(objective.gradient(b), fresh(b))
    assert np.array_equal(objective.gradient(b), fresh(b))
    objective.value(a)
    assert np.array_equal(objective.gradient(a), fresh(a))
