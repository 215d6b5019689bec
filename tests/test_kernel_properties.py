"""Property tests of both evaluators of the loss at a point.

``loss`` and ``loss_gradient`` (one-lane ``LaneKernel`` calls) and the
list-level kernel ``_reference._Objective`` (one reverse sweep) must each
give an exact gradient within 1e-6 of ``gradient_fd`` (central
differences of the lane kernel's values), over every grid spec, random
parameters, truncated windows, forcing and a separate rescaling grid: the
list kernel evaluates on that grid's time scale, the lane kernel, which
knows only its window's own, at the point ``rescale_coefficients`` maps.
``test_lanes.py`` checks the lane kernel against the list kernel on the
same cases.  Forcing coefficients near and past the overflow of exp make
points invalid, some only after a run of valid years: there both give
+inf and a nan gradient.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowfit as ff
from flowfit.model import rescale_coefficients

from _reference import _Objective
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
        # invalidates the flows only after some valid years.
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


def pull_back(spec, from_grid, to_grid):
    """The transpose of ``rescale_coefficients``' (linear) map, as a ``(k, k)`` matrix.

    Row i is the image of the i-th unit vector, so ``pull_back @ g`` takes
    a gradient in ``to_grid``'s coefficients to ``from_grid``'s.
    """
    return rescale_coefficients(np.eye(spec.n_params), spec, from_grid, to_grid)


def evaluators(spec, obs, scale_grid=None):
    """Value and gradient functions of both kernels at ``spec``, ``obs`` and ``scale_grid``.

    ``lane`` is ``loss`` and ``loss_gradient``, one-lane ``LaneKernel``
    calls; ``list`` is the list-level ``_reference._Objective``.  With
    ``scale_grid``, ``theta`` is on its time scale: ``loss`` maps it to
    ``obs``'s own, and so does the gradient, which :func:`pull_back` takes back.
    """
    objective = _Objective(spec, obs, scale_grid)
    if scale_grid is None:
        lane = (lambda theta: ff.loss(theta, spec, obs),
                lambda theta: ff.loss_gradient(theta, spec, obs))
    else:
        back = pull_back(spec, scale_grid, obs.grid)
        lane = (lambda theta: ff.loss(theta, spec, obs, scale_grid),
                lambda theta: back @ ff.loss_gradient(
                    rescale_coefficients(theta, spec, scale_grid, obs.grid), spec, obs))
    return {"lane": lane, "list": (objective.value, objective.gradient)}


def gradient_fd(theta, spec, obs, scale_grid=None):
    """``ff.gradient_fd``, or with ``scale_grid`` the same stencil on ``loss``'s mapped values."""
    if scale_grid is None:
        return ff.gradient_fd(theta, spec, obs)
    return ff.fd_gradient(lambda point: ff.loss(point, spec, obs, scale_grid), theta)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


@KERNEL
@given(case=cases())
def test_loss_gradient_matches_gradient_fd(case):
    spec, obs, theta, scale_grid = case
    # At an invalid point the stencil's inf - inf is nan, without a warning.
    want = gradient_fd(theta, spec, obs, scale_grid)
    for name, (value_of, gradient_of) in evaluators(spec, obs, scale_grid).items():
        value = value_of(theta)
        grad = gradient_of(theta)
        if value == np.inf:
            assert np.all(np.isnan(grad)), name
        else:
            assert np.all(np.isfinite(grad)), name
            assert _rel_err(grad, want) <= 1e-6, name


@KERNEL
@given(case=cases())
def test_value_is_inf_exactly_where_a_counted_flow_is_invalid(case):
    # The kernel's and the list kernel's validity is simulate's: a counted
    # year, any but year 0, with a flow that is not finite and positive.
    spec, obs, theta, scale_grid = case
    traj = ff.eval_param_trajectories(theta, spec, scale_grid or obs.grid, obs.grid.years)
    sim = ff.simulate(obs, traj, spec)
    flows = np.stack([sim.flow_m, sim.flow_p])[:, 1:]
    invalid = not np.all(np.isfinite(flows) & (flows > 0.0))
    for name, (value_of, _) in evaluators(spec, obs, scale_grid).items():
        value = value_of(theta)
        assert value == np.inf if invalid else np.isfinite(value), name


def test_overflow_after_valid_years_scores_inf():
    # A weight whose forcing term overflows the PhD stock a year after the
    # proxy turns on: the zero-proxy years are valid, every later year is
    # invalid, and the point scores +inf with a nan gradient.
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
    assert 10 <= first_bad and not valid[first_bad:].any()
    for name, (value_of, gradient_of) in evaluators(spec, obs).items():
        assert value_of(theta) == np.inf, name
        assert np.all(np.isnan(gradient_of(theta))), name
