"""The batched routes against the scalar references.

The finite-difference gradient and the Hessian run on one
:class:`~flowfit.model.LaneKernel` call; ``fd_gradient`` and ``fd_hessian``
of the list kernel's loss (``estimation._Objective``) are their references.  The bands' batched
trajectories are checked against ``eval_param_trajectories`` per draw.
"""

import numpy as np
import pytest

import flowfit as ff
from flowfit import estimation
from flowfit.estimation import fd_gradient
from flowfit.model import LOGISTIC_CLAMP, _clamped_logistic, embed, superset_mask

from _reference import fd_hessian
from _scenarios import RECOVERY_SPEC, RECOVERY_THETA, recovery_scenario

GRID = ff.YearGrid(1969, 2017)


def list_loss(spec, obs, scale_grid=None):
    """The list kernel's loss, the reference independent of the lane kernel."""
    return estimation._Objective(spec, obs, scale_grid).value


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


def test_batched_gradient_matches_per_coordinate(noisy):
    rng = np.random.default_rng(6)
    for _ in range(10):
        theta = RECOVERY_THETA + rng.normal(0.0, 0.3, RECOVERY_THETA.size)
        want = fd_gradient(list_loss(RECOVERY_SPEC, noisy), theta)
        assert rel_err(ff.gradient_fd(theta, RECOVERY_SPEC, noisy), want) <= 1e-8


def test_numerical_hessian_matches_fd_hessian(noisy):
    theta = RECOVERY_THETA + 0.05
    hess = ff.numerical_hessian(theta, RECOVERY_SPEC, noisy)
    assert np.all(np.isfinite(hess))
    assert np.array_equal(hess, hess.T)
    want = fd_hessian(list_loss(RECOVERY_SPEC, noisy), theta)
    assert rel_err(hess, want) <= 1e-6


@pytest.fixture(scope="module")
def intl_obs():
    obs, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=2))
    return obs


@pytest.mark.parametrize("spec", ff.enumerate_grid(), ids=lambda s: s.label())
def test_numerical_hessian_matches_fd_hessian_on_every_spec(intl_obs, spec):
    # Each spec's coefficients of one superset point near the generator's.
    point = embed(RECOVERY_THETA + 0.05, RECOVERY_SPEC)
    point[-1] = -3.0
    theta = point[superset_mask(spec)]
    hess = ff.numerical_hessian(theta, spec, intl_obs)
    assert np.array_equal(hess, hess.T)
    want = fd_hessian(list_loss(spec, intl_obs), theta)
    assert rel_err(hess, want) <= 1e-6


def test_hessian_stencil_matches_generic_on_forcing_spec(intl_obs):
    spec = ff.ModelSpec(1, 2, forcing=True)
    theta = np.concatenate([RECOVERY_THETA[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13]], [-3.0]])
    scale_grid = ff.YearGrid(1960, 2017)
    hess = ff.numerical_hessian(theta, spec, intl_obs, scale_grid=scale_grid)
    assert np.array_equal(hess, hess.T)
    want = fd_hessian(list_loss(spec, intl_obs, scale_grid), theta)
    assert rel_err(hess, want) <= 1e-6


@pytest.mark.parametrize("spec", ff.enumerate_grid(), ids=lambda s: s.label())
def test_bands_match_per_draw_loop(spec):
    point = embed(RECOVERY_THETA, RECOVERY_SPEC)
    point[-1] = -3.0
    rng = np.random.default_rng(7)
    draws = point[superset_mask(spec)] + rng.normal(0.0, 0.6, size=(700, spec.n_params))
    bands = ff.confidence_bands(draws, spec, GRID, level=0.9)
    stacks = {name: [] for name in ff.TRAJECTORY_NAMES}
    for theta in draws:
        for name, values in ff.eval_param_trajectories(theta, spec, GRID).as_dict().items():
            stacks[name].append(values)
    for name, rows in stacks.items():
        stack = np.array(rows)
        assert np.allclose(bands.lower[name], np.quantile(stack, 0.05, axis=0), rtol=0, atol=1e-15)
        assert np.allclose(bands.upper[name], np.quantile(stack, 0.95, axis=0), rtol=0, atol=1e-15)
