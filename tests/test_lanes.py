"""The lane path: the batched scan kernel, the ticked BFGS and the lane-chunked grid.

The list-level kernel (``estimation._Objective``, the narrow fits' BFGS
objective) is the reference for :class:`LaneKernel`, on the inputs of
``test_kernel_properties.py``; ``loss`` and ``loss_gradient`` are the
kernel's one-lane value and gradient, bit for bit.
A lane's value, gradient and iterates must not depend on the other lanes
it runs with, bit for bit, so the grid's chunking and ``--jobs`` cannot
change a result.
"""

import math

import numpy as np
import pytest
from hypothesis import given

import flowfit as ff
from flowfit import estimation
from flowfit.estimation import PENALTY_PER_INVALID_YEAR, bfgs_lanes, bfgs_minimize
from flowfit.model import LaneKernel, embed, superset_mask

from _scenarios import recovery_scenario
from test_kernel_properties import KERNEL, OBS, SPECS, cases


def lane_eval(spec, obs, theta, scale_grid=None):
    """Value and gradient of one lane, the gradient in ``spec``'s coefficients."""
    mask = superset_mask(spec)
    values, grads = LaneKernel(obs, scale_grid)(embed(theta, spec)[None], mask[None])
    return float(values[0]), grads[0][mask]


def assert_matches_list_kernel(spec, obs, theta, scale_grid):
    value, grad = lane_eval(spec, obs, theta, scale_grid)
    objective = estimation._Objective(spec, obs, scale_grid)
    want = objective.value(theta)
    want_grad = objective.gradient(theta)
    assert math.isfinite(value) and np.all(np.isfinite(grad))
    assert ff.loss(theta, spec, obs, scale_grid) == value
    assert np.array_equal(ff.loss_gradient(theta, spec, obs, scale_grid), grad)
    assert abs(value - want) <= 1e-12 * abs(want)
    floor = max(float(np.max(np.abs(want_grad))), 1.0)
    assert float(np.max(np.abs(grad - want_grad))) <= 1e-10 * floor


@KERNEL
@given(case=cases())
def test_kernel_matches_list_kernel(case):
    assert_matches_list_kernel(*case)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_kernel_matches_list_kernel_on_every_spec(spec):
    rng = np.random.default_rng(17)
    zero_start = OBS.p_intl.copy()
    zero_start[:12] = 0.0
    late_proxy = ff.ObservedSeries(OBS.grid, OBS.b, OBS.m, OBS.p, p_intl=zero_start)
    for obs, scale_grid in ((OBS, None), (OBS.window(1980, 2004), OBS.grid),
                            (late_proxy, ff.YearGrid(1950, 2030))):
        for lambda_raw in (-45.0, -3.0, 700.0, 900.0):
            theta = ff.default_starts(spec, obs, n_starts=1)[0]
            theta = theta + rng.uniform(-1.5, 1.5, size=spec.n_params)
            if spec.forcing:
                theta[-1] = lambda_raw
            assert_matches_list_kernel(spec, obs, theta, scale_grid)


def mixed_lanes(n_lanes, seed):
    """Superset vectors and masks of every grid spec, some deep in the penalty region."""
    rng = np.random.default_rng(seed)
    thetas, masks = [], []
    for lane in range(n_lanes):
        spec = SPECS[lane % len(SPECS)]
        theta = ff.default_starts(spec, OBS, n_starts=1)[0]
        theta = theta + rng.uniform(-1.5, 1.5, size=spec.n_params)
        if spec.forcing and lane % 4 == 1:
            # Forcing terms that overflow the flows, and a forcing weight that overflows.
            theta[-1] = (695.0, 705.0, 800.0)[lane % 3]
        thetas.append(embed(theta, spec))
        masks.append(superset_mask(spec))
    return np.stack(thetas), np.stack(masks)


def test_lane_alone_equals_lane_in_shuffled_batch():
    p_intl = OBS.p_intl.copy()
    p_intl[:10] = 0.0
    obs = ff.ObservedSeries(OBS.grid, OBS.b, OBS.m, OBS.p, p_intl=p_intl)
    kernel = LaneKernel(obs, ff.YearGrid(1960, 2020))
    thetas, masks = mixed_lanes(37, seed=4)
    values, grads = kernel(thetas, masks)
    penalized = values >= PENALTY_PER_INVALID_YEAR
    assert penalized.any() and not penalized.all()
    # Some penalized lanes have a residual prefix before their invalid years.
    assert np.any(penalized & (values % PENALTY_PER_INVALID_YEAR > 0.0))
    order = np.random.default_rng(5).permutation(len(values))
    shuffled_values, shuffled_grads = kernel(thetas[order], masks[order])
    assert np.array_equal(shuffled_values, values[order])
    assert np.array_equal(shuffled_grads, grads[order])
    for lane in range(len(values)):
        alone_value, alone_grad = kernel(thetas[lane:lane + 1], masks[lane:lane + 1])
        assert alone_value[0] == values[lane]
        assert np.array_equal(alone_grad[0], grads[lane])


def assert_bitwise(got, want):
    """Equal arrays, bit for bit: signed zeros and nan payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_batch_without_forcing_lane_skips_the_proxy():
    # A batch without a forcing lane skips the forcing term: on a series
    # with p_intl it gives what the same series without p_intl gives.
    thetas, masks = mixed_lanes(36, seed=8)
    unforced = ~masks[:, -1]
    no_proxy = ff.ObservedSeries(OBS.grid, OBS.b, OBS.m, OBS.p)
    for scale_grid in (None, ff.YearGrid(1960, 2020)):
        with_proxy = LaneKernel(OBS, scale_grid)(thetas[unforced], masks[unforced])
        without = LaneKernel(no_proxy, scale_grid)(thetas[unforced], masks[unforced])
        for got, want in zip(with_proxy, without):
            assert_bitwise(got, want)
    # In a batch with forcing lanes each lane still gets what it gets alone,
    # and a lane alone without forcing is a batch that skips the term.
    assert unforced.any() and not unforced.all()
    kernel = LaneKernel(OBS)
    values, grads = kernel(thetas, masks)
    for lane in range(len(thetas)):
        alone_value, alone_grad = kernel(thetas[lane:lane + 1], masks[lane:lane + 1])
        assert_bitwise(alone_value[0], values[lane])
        assert_bitwise(alone_grad[0], grads[lane])


def test_absent_coefficients_are_ignored_and_get_no_gradient():
    thetas, masks = mixed_lanes(18, seed=6)
    kernel = LaneKernel(OBS)
    values, grads = kernel(thetas, masks)
    noisy = thetas + np.where(masks, 0.0, 3.0)
    noisy_values, noisy_grads = kernel(noisy, masks)
    assert np.array_equal(noisy_values, values) and np.array_equal(noisy_grads, grads)
    assert np.all(grads[~masks] == 0.0)


def test_forcing_lane_needs_proxy():
    obs, _ = ff.generate(recovery_scenario(grid=ff.YearGrid(1980, 1999)))
    spec = ff.ModelSpec(0, 0, forcing=True)
    with pytest.raises(ValueError, match="p_intl"):
        LaneKernel(obs)(embed(np.zeros(spec.n_params), spec)[None], superset_mask(spec)[None])


@pytest.fixture(scope="module")
def obs49():
    obs, _ = ff.generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=1))
    return obs


@pytest.mark.parametrize("spec", [ff.ModelSpec(0, 0, False), ff.ModelSpec(1, 1, False)],
                         ids=lambda s: s.label())
def test_lane_fit_matches_list_fit_from_each_start(obs49, spec):
    starts = ff.default_starts(spec, obs49, n_starts=8, seed=3)
    lanes = bfgs_lanes(LaneKernel(obs49), np.stack([embed(x, spec) for x in starts]),
                       np.tile(superset_mask(spec), (len(starts), 1)))
    objective = estimation._Objective(spec, obs49, None)
    for lane, x0 in enumerate(starts):
        want = bfgs_minimize(objective.value, x0, grad=objective.gradient)
        assert lanes.converged[lane] and want.converged
        assert lanes.grad_max_norm[lane] <= 1e-6
        # Both land on the same minimum from the same start (or the lane
        # lower).  A gradient of 1e-6 pins the loss there to about 1e-9
        # relative: 1-ulp changes to a start move the list fit that much.
        assert lanes.fun[lane] <= want.fun * (1.0 + 1e-8)
        assert np.all(lanes.x[lane][~superset_mask(spec)] == 0.0)


def test_lanes_stop_at_max_iter_and_keep_start_at_zero(obs49):
    spec = ff.ModelSpec(2, 2, False)
    x0 = np.stack([embed(x, spec) for x in ff.default_starts(spec, obs49, n_starts=5)])
    mask = np.tile(superset_mask(spec), (5, 1))
    capped = bfgs_lanes(LaneKernel(obs49), x0, mask, max_iter=7)
    assert np.all(capped.n_iterations == 7) and not capped.converged.any()
    untouched = bfgs_lanes(LaneKernel(obs49), x0, mask, max_iter=0)
    assert np.array_equal(untouched.x, x0) and np.all(untouched.n_iterations == 0)


# Objectives of ``toy_kernel``'s lanes, as value and gradient of a (16,)
# vector; each reads x[0] and x[1] only.
TOYS = {
    # A bowl: the first full step passes the Armijo test.
    "moves": lambda x: (0.5 * (x[0] ** 2 + 0.5 * x[1] ** 2), (x[0], 0.5 * x[1])),
    # A steep valley: full steps overshoot and fail the Armijo test.
    "overshoots": lambda x: (50.0 * x[0] ** 2 + 0.5 * x[1] ** 2, (100.0 * x[0], x[1])),
    # Past a wall at x[0] = 2 the value is nan, or carries a penalty.
    "non-finite": lambda x: (x[0] ** 2 + 0.5 * x[1] ** 2 if x[0] < 2.0 else math.nan,
                             (2.0 * x[0], x[1])),
    "penalized": lambda x: (x[0] ** 2 + 0.5 * x[1] ** 2
                            + (PENALTY_PER_INVALID_YEAR if x[0] >= 2.0 else 0.0),
                            (2.0 * x[0], x[1])),
    # A gradient that promises descent where every step climbs a steep
    # wall: no trial passes, and the line search runs out of halvings.
    "exhausted": lambda x: (1.0 + 1e20 * (x[0] - 1.0) ** 2, (1e6, 0.0)),
}
TOY_STARTS = {"moves": (1.0, 1.0), "overshoots": (1.0, 1.0), "non-finite": (-3.0, 1.0),
              "penalized": (-3.0, 1.0), "exhausted": (1.0, 0.0)}


def toy_kernel(x, mask, kind):
    """A stand-in for :class:`LaneKernel`: row i is objective ``list(TOYS)[kind[i]]``."""
    names = list(TOYS)
    values = np.empty(len(x))
    grads = np.zeros_like(x)
    for row, k in enumerate(kind):
        values[row], grads[row, :2] = TOYS[names[k]](x[row])
    return values, np.where(mask, grads, 0.0)


def test_lane_that_moves_beside_rejected_lanes_equals_its_run_alone():
    # In the first tick one lane moves, one fails the Armijo test, one
    # trial is nan and one penalized; one lane fails every tick until it
    # runs out of halvings.  The update written only to the lanes that
    # moved leaves each lane's run bitwise what it is alone.
    names = list(TOYS)
    kind = np.arange(len(names)).repeat(2)
    x0 = np.zeros((len(kind), 16))
    x0[:, :2] = [TOY_STARTS[names[k]] for k in kind]
    x0[1::2, 1] += 0.5   # a second start of each objective
    mask = np.ones(x0.shape, dtype=bool)
    first_trial = {}
    for lane, k in enumerate(kind):
        value, grad = TOYS[names[k]](x0[lane])
        # The first direction is steepest descent, with a full step.
        trial_value, _ = TOYS[names[k]](x0[lane] - np.pad(grad, (0, 14)))
        passes = trial_value <= value - 1e-4 * float(np.dot(grad, grad))
        first_trial.setdefault(names[k], []).append((passes, trial_value))
    assert all(passes for passes, _ in first_trial["moves"])
    assert not any(passes for passes, _ in first_trial["overshoots"])
    assert all(math.isnan(value) for _, value in first_trial["non-finite"])
    assert all(value >= PENALTY_PER_INVALID_YEAR for _, value in first_trial["penalized"])

    together = bfgs_lanes(toy_kernel, x0, mask, kind, max_iter=50)
    exhausted = kind == names.index("exhausted")
    assert np.all(together.n_iterations[exhausted] == 0)
    assert not together.converged[exhausted].any()
    assert np.array_equal(together.x[exhausted], x0[exhausted])
    assert np.all(together.n_iterations[~exhausted] > 0)
    assert together.converged[kind == names.index("moves")].all()
    for lane in range(len(kind)):
        alone = bfgs_lanes(toy_kernel, x0[lane:lane + 1], mask[lane:lane + 1],
                           kind[lane:lane + 1], max_iter=50)
        row = together.rows(slice(lane, lane + 1))
        for name in estimation._OUTCOME_FIELDS:
            assert_bitwise(getattr(row, name), getattr(alone, name))
        # And the lane takes bfgs_minimize's steps, up to round-off.
        objective = TOYS[names[kind[lane]]]
        want = bfgs_minimize(lambda z: objective(z)[0], x0[lane],
                             grad=lambda z: np.pad(objective(z)[1], (0, 14)), max_iter=50)
        assert (row.n_iterations[0], row.converged[0]) == (want.n_iterations, want.converged)
        assert np.allclose(row.x[0], want.x, rtol=1e-9, atol=1e-12)


def test_minimize_bfgs_runs_lanes_from_lane_min_starts(obs49, monkeypatch):
    spec = ff.ModelSpec(1, 0, True)
    calls = []
    real_lanes, real_list = estimation.bfgs_lanes, estimation.bfgs_minimize
    monkeypatch.setattr(estimation, "bfgs_lanes",
                        lambda *a, **k: calls.append("lanes") or real_lanes(*a, **k))
    monkeypatch.setattr(estimation, "bfgs_minimize",
                        lambda *a, **k: calls.append("list") or real_list(*a, **k))
    opts = ff.FitOptions(max_iter=50)
    few = estimation.LANE_MIN_STARTS - 1
    ff.minimize_bfgs(spec, obs49, ff.default_starts(spec, obs49, n_starts=few), opts)
    assert calls == ["list"] * few
    calls.clear()
    starts = ff.default_starts(spec, obs49, n_starts=estimation.LANE_MIN_STARTS)
    fit = ff.minimize_bfgs(spec, obs49, starts, opts)
    assert calls == ["lanes"]
    assert fit.sse == ff.loss(fit.theta_hat, spec, obs49)
    assert fit.n_starts_used == len(starts) and fit.theta_hat.shape == (spec.n_params,)


@pytest.fixture(scope="module")
def small_obs_with_intl():
    obs, _ = ff.generate(recovery_scenario(grid=ff.YearGrid(1980, 1999), p_intl=True,
                                           noise_sd=0.02))
    return obs


def test_grid_chunks_and_jobs_do_not_change_results(small_obs_with_intl, monkeypatch):
    opts = ff.FitOptions(n_starts=2, max_iter=60)
    serial = ff.run_grid(small_obs_with_intl, opts)   # 36 lanes, one chunk
    monkeypatch.setattr(estimation, "LANE_CHUNK", 5)
    parallel = ff.run_grid(small_obs_with_intl, opts, jobs=2)   # 8 chunks on 2 workers
    for x, y in zip(serial, parallel):
        assert x.spec == y.spec
        assert np.array_equal(x.fit.theta_hat, y.fit.theta_hat)
        assert (x.fit.sse, x.fit.n_iterations, x.fit.converged, x.aic, x.local_optimum_warning) == (
            y.fit.sse, y.fit.n_iterations, y.fit.converged, y.aic, y.local_optimum_warning)


def test_cli_grid_bytes_do_not_depend_on_jobs_or_chunks(small_obs_with_intl, tmp_path,
                                                        monkeypatch):
    data = tmp_path / "degrees.csv"
    ff.write_series(small_obs_with_intl, data)
    argv = ["grid", "--data", str(data), "--n-starts", "2", "--max-iter", "60"]
    assert ff.run_cli(argv + ["--out", str(tmp_path / "serial")]) in (0, 2)
    monkeypatch.setattr(estimation, "LANE_CHUNK", 7)
    assert ff.run_cli(argv + ["--out", str(tmp_path / "jobs2"), "--jobs", "2"]) in (0, 2)
    assert ((tmp_path / "serial" / "grid.csv").read_bytes()
            == (tmp_path / "jobs2" / "grid.csv").read_bytes())
