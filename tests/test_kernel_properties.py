"""Property tests of the scalar list-level kernel against the batched path.

``loss`` (one list-level forward pass) must agree with ``loss_batch`` (the
vectorised path of the finite-difference stencils) to 1e-12 relative, and
``loss_gradient`` (one reverse sweep) with ``gradient_fd`` to 1e-6, over
every grid spec, random parameters, truncated windows, forcing and a
separate rescaling grid.  Forcing coefficients near and past the overflow
of exp drive the penalty branch, with invalid years after the first.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowfit as ff
from flowfit.estimation import PENALTY_PER_INVALID_YEAR

from _scenarios import recovery_scenario

OBS, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=5))
SPECS = ff.enumerate_grid()

KERNEL = settings(max_examples=200, derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw):
    spec = draw(st.sampled_from(SPECS))
    t_min = draw(st.integers(OBS.grid.t_min, OBS.grid.t_max - 8))
    t_max = draw(st.integers(t_min + 7, OBS.grid.t_max))
    obs = OBS.window(t_min, t_max)
    if spec.forcing and draw(st.booleans()):
        # A proxy that is zero for a while: a huge forcing weight then
        # invalidates the flows only after a residual prefix.
        p_intl = obs.p_intl.copy()
        p_intl[:draw(st.integers(1, obs.grid.n_years - 2))] = 0.0
        obs = ff.ObservedSeries(obs.grid, obs.b, obs.m, obs.p, p_intl=p_intl)
    scale_grid = draw(st.sampled_from([None, OBS.grid, ff.YearGrid(1950, 2030)]))
    theta = ff.default_starts(spec, obs, n_starts=1)[0]
    theta = theta + np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=spec.n_params,
                                           max_size=spec.n_params)))
    if spec.forcing:
        # Moderate weights, weights whose forcing term overflows the flows,
        # and weights past the overflow of exp itself.
        theta[-1] = draw(st.floats(-45.0, 4.0) | st.floats(690.0, 709.0) | st.floats(710.0, 900.0))
    return spec, obs, theta, scale_grid


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


@KERNEL
@given(case=cases())
def test_loss_matches_loss_batch(case):
    spec, obs, theta, scale_grid = case
    value = ff.loss(theta, spec, obs, scale_grid)
    (batched,) = ff.loss_batch(theta[None, :], spec, obs, scale_grid)
    assert math.isfinite(value)
    assert abs(value - batched) <= 1e-12 * abs(batched)


@KERNEL
@given(case=cases())
def test_loss_gradient_matches_gradient_fd(case):
    spec, obs, theta, scale_grid = case
    value = ff.loss(theta, spec, obs, scale_grid)
    grad = ff.loss_gradient(theta, spec, obs, scale_grid)
    assert np.all(np.isfinite(grad))
    if value < PENALTY_PER_INVALID_YEAR:
        assert _rel_err(grad, ff.gradient_fd(theta, spec, obs, scale_grid)) <= 1e-6
    elif theta[-1] >= 710.0:
        # exp(lambda_raw) is inf at every stencil point: the forcing entry is 0.
        assert grad[-1] == 0.0


def test_penalty_counts_every_invalid_year():
    # A weight whose forcing term overflows the PhD stock a year after the
    # proxy turns on: the prefix is the zero-proxy years, and every later
    # year is invalid, not only the first.
    spec = ff.ModelSpec(0, 0, forcing=True)
    p_intl = OBS.p_intl.copy()
    p_intl[:10] = 0.0
    obs = ff.ObservedSeries(OBS.grid, OBS.b, OBS.m, OBS.p, p_intl=p_intl)
    theta = ff.default_starts(spec, obs, n_starts=1)[0]
    theta[-1] = 705.0
    traj = ff.eval_param_trajectories(theta, spec, obs.grid)
    sim = ff.simulate(obs, traj, spec)
    valid = np.isfinite(sim.flow_p) & (sim.flow_p > 0) & np.isfinite(sim.flow_m)
    first_bad = int(np.argmin(valid))
    n_invalid = int(np.count_nonzero(~valid))
    assert 10 <= first_bad and n_invalid == obs.grid.n_years - first_bad > 1
    r_m = np.log(obs.m[1:first_bad]) - np.log(sim.flow_m[1:first_bad])
    r_p = np.log(obs.p[1:first_bad]) - np.log(sim.flow_p[1:first_bad])
    want = r_m @ r_m + r_p @ r_p + PENALTY_PER_INVALID_YEAR * n_invalid
    assert abs(ff.loss(theta, spec, obs) - want) <= 1e-12 * want
