"""Lane sets of several windows: the padded kernel, the runner and the refits.

A lane's value, gradient and BFGS run must not depend on the windows it
shares a kernel with, bit for bit: a window set of truncation and
hindcast windows, padded to the longest, must give every lane what a
kernel of its own window gives it.  So the robustness refits, whatever
lane set they run in, equal per-window ``fit_lane_set`` runs, and a lane
set of any width runs on lanes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowfit as ff
from flowfit import estimation
from flowfit.estimation import LaneJob, bfgs_lanes, fit_lane_set
from flowfit.model import LaneKernel, embed, superset_mask

from _scenarios import recovery_scenario
from test_kernel_properties import OBS, SPECS
from test_lanes import general_path_lanes, kernel_paths, mixed_lanes

SMALL, _ = ff.generate(recovery_scenario(grid=ff.YearGrid(1980, 2001), p_intl=True,
                                         noise_sd=0.02, seed=3))

LANE_SETS = settings(max_examples=25, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def window_sets(draw):
    """Truncation and hindcast windows of ``SMALL``, each with a time scale and specs."""
    grid = SMALL.grid
    windows = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            window = SMALL.window(draw(st.integers(grid.t_min, grid.t_max - 8)), grid.t_max)
        else:
            window = SMALL.window(grid.t_min, draw(st.integers(grid.t_min + 8, grid.t_max - 1)))
        windows.append((window, draw(st.sampled_from([None, grid]))))
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        window, scale_grid = windows[draw(st.integers(0, len(windows) - 1))]
        spec = draw(st.sampled_from(SPECS))
        starts = ff.default_starts(spec, window, n_starts=draw(st.integers(1, 4)),
                                   seed=draw(st.integers(0, 50)))
        jobs.append(LaneJob(spec, window, np.stack(starts), scale_grid))
    return windows, jobs


# Windows of two lengths for the lanes that force the kernel's general
# paths, so that every drawn window set is padded.
HARD_WINDOWS = [(SMALL, None), (SMALL.window(SMALL.grid.t_min, SMALL.grid.t_max - 6), None)]
HARD_THETAS, HARD_MASKS = general_path_lanes(forcing=True)


@LANE_SETS
@given(case=window_sets())
def test_lane_in_window_set_equals_lane_alone(case):
    # The drawn lanes share the set with a lane at the clamp, a lane with a
    # nan coefficient and one whose forcing overflows the flows, each on
    # both of two windows of different lengths.
    windows, jobs = case
    x0 = np.concatenate([embed(job.starts, job.spec) for job in jobs] + [HARD_THETAS] * 2)
    mask = np.concatenate([np.repeat([superset_mask(job.spec) for job in jobs],
                                     [len(job.starts) for job in jobs], axis=0)]
                          + [HARD_MASKS] * 2)
    index = [next(w for w, (obs, scale_grid) in enumerate(windows)
                  if obs is job.obs and scale_grid == job.scale_grid) for job in jobs]
    lane_windows = [(job.obs, job.scale_grid) for job in jobs for _ in job.starts]
    lane_windows += [pair for pair in HARD_WINDOWS for _ in HARD_THETAS]
    window = np.concatenate([np.repeat(index, [len(job.starts) for job in jobs]),
                             len(windows) + np.arange(2).repeat(len(HARD_THETAS))])
    together = bfgs_lanes(LaneKernel.of_windows(windows + HARD_WINDOWS, window), x0, mask,
                          max_iter=40)
    with kernel_paths() as paths:
        for lane, (obs, scale_grid) in enumerate(lane_windows):
            alone = bfgs_lanes(LaneKernel(obs, scale_grid), x0[lane:lane + 1],
                               mask[lane:lane + 1], max_iter=40)
            row = together.rows(slice(lane, lane + 1))
            for name in ("x", "fun", "n_iterations", "grad_max_norm", "converged"):
                assert getattr(row, name).tobytes() == getattr(alone, name).tobytes(), (
                    lane, name)
    # Alone, some calls take both of the kernel's shortcuts.
    assert [True, True] in paths


@LANE_SETS
@given(case=window_sets())
def test_minimize_bfgs_is_its_job_in_any_lane_set(case):
    # minimize_bfgs, from 1 to 4 starts, is one job of fit_lane_set: its
    # fit is bitwise that job's alone and in a set of several windows.
    _, jobs = case
    opts = ff.FitOptions(max_iter=40)
    in_set = fit_lane_set(jobs, opts)
    for job, fit in zip(jobs, in_set):
        (alone,) = fit_lane_set([LaneJob(job.spec, job.obs, job.starts, job.scale_grid)], opts)
        got = ff.minimize_bfgs(job.spec, job.obs, list(job.starts), opts, job.scale_grid)
        for want in (alone, fit):
            for field in dataclasses.fields(got):
                assert (np.asarray(getattr(got, field.name)).tobytes()
                        == np.asarray(getattr(want, field.name)).tobytes()), field.name


def test_padded_kernel_equals_each_window_kernel():
    # Lanes of every spec, some invalid, on windows of three lengths and
    # two time scales.
    p_intl = OBS.p_intl.copy()
    p_intl[:10] = 0.0
    obs = ff.ObservedSeries(OBS.grid, OBS.b, OBS.m, OBS.p, p_intl=p_intl)
    windows = [(obs, None), (obs.window(1980, obs.grid.t_max), obs.grid),
               (obs.window(obs.grid.t_min, 1995), None), (obs.window(1975, 2000), None)]
    thetas, masks = mixed_lanes(40, seed=8)
    window = np.arange(40) % len(windows)
    values, grads = LaneKernel.of_windows(windows, window)(thetas, masks)
    invalid = values == np.inf
    assert invalid.any() and not invalid.all()
    assert np.all(np.isnan(grads[invalid][masks[invalid]]))
    for w, (series, scale_grid) in enumerate(windows):
        on = window == w
        alone_values, alone_grads = LaneKernel(series, scale_grid)(thetas[on], masks[on])
        assert np.array_equal(values[on], alone_values)
        assert np.array_equal(grads[on], alone_grads, equal_nan=True)


def test_lane_whose_pad_years_overflow_keeps_its_value():
    # The proxy of a short window is 0 but in its last year, whose forcing
    # term lands in the first pad year: there a huge forcing weight
    # overflows the stocks, while the window's own years stay valid.
    short = OBS.window(OBS.grid.t_min, 1995)
    p_intl = np.zeros(short.grid.n_years)
    p_intl[-1] = short.p_intl[-1]
    short = ff.ObservedSeries(short.grid, short.b, short.m, short.p, p_intl=p_intl)
    spec = ff.ModelSpec(1, 1, forcing=True)
    theta = embed(ff.default_starts(spec, short, n_starts=1)[0], spec)
    theta[-1] = 705.0
    thetas = np.stack([theta, theta])
    masks = np.tile(superset_mask(spec), (2, 1))
    kernel = LaneKernel.of_windows([(short, None), (OBS, None)], np.array([0, 1]))
    values, grads = kernel(thetas, masks)
    assert not np.isfinite(kernel._workspace.flow_p[short.grid.n_years:, 0]).any()
    alone_values, alone_grads = LaneKernel(short)(thetas[:1], masks[:1])
    assert np.isfinite(alone_values[0]) and np.all(np.isfinite(alone_grads))
    assert values[0] == alone_values[0] and np.array_equal(grads[0], alone_grads[0])
    # The lane on the long window has the proxy in every year: it is invalid.
    assert values[1] == np.inf


def test_forcing_lane_needs_its_own_window_proxy():
    plain = ff.ObservedSeries(SMALL.grid, SMALL.b, SMALL.m, SMALL.p)
    windows = [(SMALL, None), (plain, None)]
    spec = ff.ModelSpec(0, 0, forcing=True)
    theta = embed(ff.default_starts(spec, SMALL, n_starts=1)[0], spec)[None]
    mask = superset_mask(spec)[None]
    assert np.isfinite(LaneKernel.of_windows(windows, np.array([0]))(theta, mask)[0]).all()
    with pytest.raises(ValueError, match="p_intl"):
        LaneKernel.of_windows(windows, np.array([1]))(theta, mask)


def refit_windows(obs, start_years, cutoffs):
    return ([obs.window(start, obs.grid.t_max) for start in start_years],
            [obs.window(obs.grid.t_min, cutoff) for cutoff in cutoffs])


@pytest.mark.parametrize("rescale", ["window", "full"])
@pytest.mark.parametrize("n_starts", [1, 2, 3, 4])
def test_refits_equal_per_window_fit_lane_set(n_starts, rescale):
    # The studies fit all windows as one lane set, each from the fit
    # stage's starts; each window alone is a lane set of its own.
    spec = ff.ModelSpec(1, 1, forcing=True)
    opts = ff.FitOptions(n_starts=n_starts, max_iter=60, seed=4)
    start_years, cutoffs = [1984, 1989], [1993, 1998, 2000]
    scale_grid = SMALL.grid if rescale == "full" else None
    starts = np.stack(ff.default_starts(spec, SMALL, n_starts=n_starts, seed=opts.seed))
    truncation, hindcast = refit_windows(SMALL, start_years, cutoffs)
    want = {kind: [fit_lane_set([LaneJob(spec, window, starts, scale_grid)], opts)[0]
                   for window in windows]
            for kind, windows in (("truncation", truncation), ("hindcast", hindcast))}
    rows = ff.truncation_study(SMALL, spec, start_years, opts, rescale=rescale)
    assert [row.sse for row in rows] == [fit.sse for fit in want["truncation"]]
    assert [row.converged for row in rows] == [fit.converged for fit in want["truncation"]]
    result = ff.rolling_origin_hindcast(SMALL, spec, cutoffs, opts, rescale=rescale)
    assert [p.fit_sse for p in result.predictions] == [fit.sse for fit in want["hindcast"]]
    for prediction, window, fit in zip(result.predictions, hindcast, want["hindcast"]):
        m_pred, p_pred = ff.diagnostics._predict_next_year(window, spec, fit.theta_hat,
                                                           rescale, SMALL.grid)
        assert (prediction.m_pred, prediction.p_pred) == (m_pred, p_pred)
    both = ff.diagnostics.robustness(SMALL, spec, start_years, cutoffs, opts, rescale)
    assert both.truncation_rows == rows and both.hindcast == result


def test_small_lane_set_runs_on_lanes(monkeypatch):
    # A lane set of any width, here 1 to 4 lanes, is one bfgs_lanes run.
    calls = []
    real_lanes = estimation.bfgs_lanes
    monkeypatch.setattr(estimation, "bfgs_lanes",
                        lambda *a, **k: calls.append("lanes") or real_lanes(*a, **k))
    spec = ff.ModelSpec(1, 0, False)
    opts = ff.FitOptions(n_starts=1, max_iter=30)
    for n_windows in range(1, 5):
        calls.clear()
        ff.truncation_study(SMALL, spec, list(range(1981, 1981 + n_windows)), opts)
        assert calls == ["lanes"]


def test_fit_lane_set_sets_and_returns_each_jobs_fit():
    spec = ff.ModelSpec(0, 1, False)
    jobs = [LaneJob(spec, SMALL.window(start, SMALL.grid.t_max),
                    np.stack(ff.default_starts(spec, SMALL, n_starts=3, seed=start)))
            for start in (1980, 1985)]
    fits = fit_lane_set(jobs, ff.FitOptions(max_iter=50))
    assert all(fit is job.fit is not None for fit, job in zip(fits, jobs))
    for job in jobs:
        assert job.fit.sse == ff.loss(job.fit.theta_hat, spec, job.obs)
        assert job.fit.n_starts_used == 3


@pytest.mark.parametrize("rescale", ["window", "full"])
@pytest.mark.parametrize("n_starts", [1, 2, 3, 4, 8])
def test_fit_sse_is_bitwise_its_loss(n_starts, rescale):
    # A fit's SSE is its winning lane's kernel value, whatever the start
    # count: alone on one window, and in a set of two windows of different
    # lengths (so the shorter one is padded).
    scale_grid = SMALL.grid if rescale == "full" else None
    windows = [(SMALL.window(1984, SMALL.grid.t_max), ff.ModelSpec(1, 1, forcing=True)),
               (SMALL.window(SMALL.grid.t_min, 1995), ff.ModelSpec(0, 2, forcing=False))]
    opts = ff.FitOptions(max_iter=40)
    jobs = [LaneJob(spec, window, np.stack(ff.default_starts(spec, window, n_starts=n_starts,
                                                             seed=n_starts)), scale_grid)
            for window, spec in windows]
    alone = [ff.minimize_bfgs(job.spec, job.obs, job.starts, opts, scale_grid)
             for job in jobs]
    fit_lane_set(jobs, opts)
    for job, fit in zip(jobs, alone):
        for got in (fit, job.fit):
            assert got.sse == ff.loss(got.theta_hat, job.spec, job.obs, scale_grid)
