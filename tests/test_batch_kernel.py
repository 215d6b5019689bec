"""The batched evaluation path against the scalar one it replaces.

``loss``, ``eval_param_trajectories`` and ``simulate`` stay the reference;
the batched kernel may differ only by round-off in the polynomial product
and the residual sums.
"""

import numpy as np
import pytest

import flowfit as ff
from flowfit.estimation import fd_gradient, fd_hessian, loss_batch
from flowfit.model import LOGISTIC_CLAMP, _clamped_logistic

from _scenarios import RECOVERY_SPEC, RECOVERY_THETA, random_instance, recovery_scenario

GRID = ff.YearGrid(1969, 2017)


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


@pytest.fixture(scope="module")
def noisy():
    obs, _ = ff.generate(recovery_scenario(noise_sd=0.02, seed=1))
    return obs


def test_clamped_logistic_is_inv_logit_then_clamp():
    y = np.concatenate([np.linspace(-800, 800, 4001), [0.0, -0.0, 27.6, -27.6, 40.0, -40.0]])
    want = np.clip(ff.inv_logit(y), LOGISTIC_CLAMP, 1.0 - LOGISTIC_CLAMP)
    assert np.array_equal(_clamped_logistic(y.copy()), want)


def test_batched_trajectories_match_scalar_columns():
    rng = np.random.default_rng(3)
    for forcing in (False, True):
        spec = ff.ModelSpec(2, 1, forcing)
        thetas = rng.uniform(-60, 60, size=(9, spec.n_params))
        years = np.arange(1960, 2031)
        batch = ff.eval_param_trajectories_batch(thetas, spec, GRID, years=years)
        for col, theta in enumerate(thetas):
            point = ff.eval_param_trajectories(theta, spec, GRID, years=years)
            for name, values in point.as_dict().items():
                # Linear predictors reach |eta| ~ 200 here; one ulp of
                # eta is a relative 3e-14 of the logistic in its tails.
                assert np.allclose(getattr(batch, name)[:, col], values, rtol=1e-13, atol=0.0)
            assert batch.lam[col] == pytest.approx(point.lam, rel=1e-15)


def test_batched_recurrence_is_the_scalar_recurrence():
    # Same trajectories in, so the year-by-year arithmetic must agree exactly.
    rng = np.random.default_rng(4)
    for trial in range(40):
        obs, spec, _, _ = random_instance(rng, forcing=trial % 2 == 0)
        thetas = rng.uniform(-3, 3, size=(5, spec.n_params))
        points = [ff.eval_param_trajectories(t, spec, obs.grid) for t in thetas]
        stacked = {name: np.stack([getattr(p, name) for p in points], axis=1)
                   for name in ff.TRAJECTORY_NAMES}
        batch = ff.ParamTrajectories(**stacked, lam=np.array([p.lam for p in points]))
        flow_m, flow_p = ff.simulate_batch(obs, batch, spec)
        for col, traj in enumerate(points):
            sim = ff.simulate(obs, traj, spec)
            assert np.array_equal(flow_m[:, col], sim.flow_m)
            assert np.array_equal(flow_p[:, col], sim.flow_p)


def test_loss_batch_matches_loss():
    rng = np.random.default_rng(5)
    for trial in range(150):
        obs, spec, theta, _ = random_instance(rng, forcing=trial % 3 == 0)
        near = theta + rng.normal(0.0, 0.5, size=(4, spec.n_params))
        wild = rng.uniform(-60, 60, size=(4, spec.n_params))
        thetas = np.vstack([near, wild])
        scale_grid = None
        if trial % 2:
            scale_grid = ff.YearGrid(obs.grid.t_min - 7, obs.grid.t_max + 3)
        got = loss_batch(thetas, spec, obs, scale_grid=scale_grid)
        want = np.array([ff.loss(t, spec, obs, scale_grid=scale_grid) for t in thetas])
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_loss_batch_penalty_prefix():
    # A huge forcing weight overflows the PhD stock once the proxy turns
    # on, so the flows go non-finite part-way through the window and the
    # loss is a residual prefix plus the per-year penalty.
    base, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=3))
    p_intl = base.p_intl.copy()
    p_intl[:12] = 0.0
    obs = ff.ObservedSeries(base.grid, base.b, base.m, base.p, p_intl=p_intl)
    spec = ff.ModelSpec(2, 2, forcing=True)
    raws = (-5.0, 6.0, 700.0, 705.0, 800.0)
    thetas = np.array([np.concatenate([RECOVERY_THETA, [raw]]) for raw in raws])
    want = np.array([ff.loss(t, spec, obs) for t in thetas])
    penalty = ff.estimation.PENALTY_PER_INVALID_YEAR
    assert np.all(want[2:] >= penalty)
    assert np.all(want[2:4] % penalty > 0.0)   # a nonempty residual prefix counts
    assert np.allclose(loss_batch(thetas, spec, obs), want, rtol=1e-12, atol=0.0)


def test_batched_gradient_matches_per_coordinate(noisy):
    rng = np.random.default_rng(6)
    for _ in range(10):
        theta = RECOVERY_THETA + rng.normal(0.0, 0.3, RECOVERY_THETA.size)
        want = fd_gradient(lambda z: ff.loss(z, RECOVERY_SPEC, noisy), theta)
        assert rel_err(ff.gradient_fd(theta, RECOVERY_SPEC, noisy), want) <= 1e-8


def test_numerical_hessian_matches_fd_hessian(noisy):
    theta = RECOVERY_THETA + 0.05
    hess = ff.numerical_hessian(theta, RECOVERY_SPEC, noisy)
    assert np.all(np.isfinite(hess))
    assert np.array_equal(hess, hess.T)
    want = fd_hessian(lambda z: ff.loss(z, RECOVERY_SPEC, noisy), theta)
    assert rel_err(hess, want) <= 1e-6


def test_hessian_stencil_matches_generic_on_forcing_spec():
    obs, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=2))
    spec = ff.ModelSpec(1, 2, forcing=True)
    theta = np.concatenate([RECOVERY_THETA[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13]], [-3.0]])
    scale_grid = ff.YearGrid(1960, 2017)
    hess = ff.numerical_hessian(theta, spec, obs, scale_grid=scale_grid)
    want = fd_hessian(lambda z: ff.loss(z, spec, obs, scale_grid=scale_grid), theta)
    assert rel_err(hess, want) <= 1e-6


def test_bands_match_per_draw_loop():
    rng = np.random.default_rng(7)
    draws = RECOVERY_THETA + rng.normal(0.0, 0.6, size=(700, RECOVERY_THETA.size))
    bands = ff.confidence_bands(draws, RECOVERY_SPEC, GRID, level=0.9)
    stacks = {name: [] for name in ff.TRAJECTORY_NAMES}
    for theta in draws:
        for name, values in ff.eval_param_trajectories(theta, RECOVERY_SPEC, GRID).as_dict().items():
            stacks[name].append(values)
    for name, rows in stacks.items():
        stack = np.array(rows)
        assert np.allclose(bands.lower[name], np.quantile(stack, 0.05, axis=0), rtol=0, atol=1e-15)
        assert np.allclose(bands.upper[name], np.quantile(stack, 0.95, axis=0), rtol=0, atol=1e-15)
