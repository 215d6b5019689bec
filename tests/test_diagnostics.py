import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfit import (
    FitOptions,
    ModelSpec,
    ObservedSeries,
    YearGrid,
    default_starts,
    eval_param_trajectories,
    generate,
    log_rmse,
    minimize_bfgs,
    residual_report,
    rolling_origin_hindcast,
    simulate,
    truncation_study,
)
from flowfit import diagnostics, selection
from flowfit.estimation import FitResult, LaneJob, covariance, fit_lane_set
from flowfit.model import rescale_coefficients

from _reference import N_TOTAL, PREFERRED_SSE
from _scenarios import RECOVERY_SPEC, RECOVERY_THETA, recovery_scenario

SMALL_GRID = YearGrid(1980, 1999)


@pytest.fixture(scope="module")
def small_noise_free():
    obs, truth = generate(recovery_scenario(grid=SMALL_GRID))
    return obs, truth


@pytest.fixture(scope="module")
def quick_options():
    return FitOptions(n_starts=2, max_iter=400)


class TestLogRmse:
    def test_reference_full_sample(self):
        value = log_rmse(PREFERRED_SSE, N_TOTAL)
        assert 0.0360 <= value <= 0.0366

    def test_reference_truncated(self):
        assert log_rmse(0.0899, 88) == pytest.approx(0.0320, abs=5e-4)

    def test_zero(self):
        assert log_rmse(0.0, 10) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            log_rmse(-0.1, 10)
        with pytest.raises(ValueError):
            log_rmse(0.1, 0)

    @given(st.floats(-0.5, 0.5))
    def test_multiplicative_bridge(self, r):
        # expm1 avoids cancellation that would swamp r^2 for tiny r
        assert abs(math.expm1(r) - r) <= r * r + 1e-16

    def test_typical_multiplicative_error(self):
        rmse = log_rmse(PREFERRED_SSE, N_TOTAL)
        assert 0.036 <= math.exp(rmse) - 1 <= 0.038


class TestResidualReport:
    def test_perfect_fit(self, small_noise_free):
        obs, _ = small_noise_free
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        sim = simulate(obs, traj, RECOVERY_SPEC)
        rep = residual_report(obs, sim)
        assert np.allclose(rep.r_m, 0.0, atol=1e-12)
        assert rep.summary["m"]["sd"] == pytest.approx(0.0, abs=1e-12)
        # zero sits on a bin edge; ulp-level residual noise may straddle it
        zero_edge = np.searchsorted(rep.bin_edges, 0.0) - 1
        center_mass = rep.counts_m[zero_edge] + rep.counts_m[zero_edge + 1]
        assert center_mass == obs.grid.n_years
        assert rep.counts_m.sum() == obs.grid.n_years

    def test_histogram_shape(self, small_noise_free):
        obs, _ = small_noise_free
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        rep = residual_report(obs, simulate(obs, traj, RECOVERY_SPEC))
        # 12 interior bins of width 0.02 plus one overflow bin each side
        assert len(rep.counts_m) == 14
        assert rep.bin_edges[0] == -np.inf and rep.bin_edges[-1] == np.inf
        inner = rep.bin_edges[1:-1]
        assert inner[0] == -0.12 and inner[-1] == 0.12
        assert np.allclose(np.diff(inner), 0.02)
        # The bin count comes from HISTOGRAM_BIN_WIDTH, with the edges of
        # the literal 13-point grid bit for bit.
        assert np.array_equal(inner, np.linspace(-0.12, 0.12, 13))

    def test_histogram_bins_follow_the_bin_width(self, small_noise_free, monkeypatch):
        obs, _ = small_noise_free
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        sim = simulate(obs, traj, RECOVERY_SPEC)
        monkeypatch.setattr(diagnostics, "HISTOGRAM_BIN_WIDTH", 0.04)
        rep = residual_report(obs, sim)
        assert np.array_equal(rep.bin_edges[1:-1], np.linspace(-0.12, 0.12, 7))
        assert len(rep.counts_m) == 8

    def test_overflow_bins_catch_tails(self, small_noise_free):
        obs, _ = small_noise_free
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        sim = simulate(obs, traj, RECOVERY_SPEC)
        shifted = ObservedSeries(obs.grid, b=obs.b, m=obs.m * 1.5, p=obs.p)
        rep = residual_report(shifted, sim)
        assert rep.counts_m[-1] > 0  # log(1.5) lands beyond +0.12

    def test_noise_injection_sd_recovered(self):
        # Refit data carrying log-noise of sd 0.05; the residual spread
        # must sit near the injected level.
        obs, _ = generate(recovery_scenario(noise_sd=0.05, seed=4))
        starts = [RECOVERY_THETA] + default_starts(RECOVERY_SPEC, obs, n_starts=2, seed=0)[1:]
        fit = minimize_bfgs(RECOVERY_SPEC, obs, starts, FitOptions())
        traj = eval_param_trajectories(fit.theta_hat, RECOVERY_SPEC, obs.grid)
        rep = residual_report(obs, simulate(obs, traj, RECOVERY_SPEC))
        assert 0.03 <= rep.summary["m"]["sd"] <= 0.07
        assert 0.03 <= rep.summary["p"]["sd"] <= 0.07


class TestTruncationStudy:
    def test_start_at_t_min_is_identity(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        rows = truncation_study(obs, RECOVERY_SPEC, [obs.grid.t_min], quick_options)
        # The whole sample's fit from the spec's starts, one lane job as
        # every refit window is.
        starts = selection.spec_starts(RECOVERY_SPEC, obs, quick_options)
        (full,) = fit_lane_set([LaneJob(RECOVERY_SPEC, obs, starts)], quick_options)
        assert rows[0].sse == full.sse
        assert rows[0].pooled_log_rmse == log_rmse(full.sse, 2 * obs.grid.n_years)
        assert rows[0].n_years == obs.grid.n_years

    def test_window_oracle(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        rows = truncation_study(
            obs, RECOVERY_SPEC, [1985, 1990], FitOptions(n_starts=2, gtol=1e-8)
        )
        for row in rows:
            assert row.pooled_log_rmse <= 1e-5

    def test_rejects_start_outside_grid(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        with pytest.raises(ValueError, match="outside"):
            truncation_study(obs, RECOVERY_SPEC, [1950], quick_options)

    def test_rejects_too_short_window(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        # k = 15 needs more than 8 remaining years
        with pytest.raises(ValueError, match="too short"):
            truncation_study(obs, RECOVERY_SPEC, [1994], quick_options)

    def test_full_rescale_mode_recorded(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        rows = truncation_study(obs, RECOVERY_SPEC, [1985], quick_options, rescale="full")
        assert rows[0].rescale == "full"
        with pytest.raises(ValueError, match="rescale"):
            truncation_study(obs, RECOVERY_SPEC, [1985], quick_options, rescale="both")


class TestRollingOriginHindcast:
    def test_noise_free_oracle(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        # The 15-year window's loss is flat near the truth: a fit stopped at
        # gtol 1e-8 may sit at an SSE of 1e-9 and miss the next year by 3e-4,
        # depending on its starts.  At 1e-10 both windows fit to 4e-12 or less.
        result = rolling_origin_hindcast(
            obs, RECOVERY_SPEC, [1990, 1994], FitOptions(n_starts=2, gtol=1e-10)
        )
        assert result.rmse_m <= 1e-4
        assert result.rmse_p <= 1e-4
        assert result.rmse_pooled <= 1e-4

    def test_single_cutoff_reduction(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        result = rolling_origin_hindcast(obs, RECOVERY_SPEC, [1992], quick_options)
        (pred,) = result.predictions
        assert result.rmse_m == pytest.approx(abs(pred.log_err_m), rel=1e-12)
        assert result.rmse_p == pytest.approx(abs(pred.log_err_p), rel=1e-12)

    def test_pooled_consistency(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        result = rolling_origin_hindcast(obs, RECOVERY_SPEC, [1990, 1993], quick_options)
        pooled = math.sqrt((result.rmse_m ** 2 + result.rmse_p ** 2) / 2)
        assert result.rmse_pooled == pytest.approx(pooled, rel=1e-12)

    def test_invalid_cutoffs_rejected(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        for bad in (obs.grid.t_min, obs.grid.t_max, 1900):
            with pytest.raises(ValueError, match="cutoff"):
                rolling_origin_hindcast(obs, RECOVERY_SPEC, [bad], quick_options)

    def test_rejects_too_short_window(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        # k = 15 needs at least 9 years through the cutoff
        with pytest.raises(ValueError, match="window ending 1987 has 8 years, too short"):
            rolling_origin_hindcast(obs, RECOVERY_SPEC, [1987], quick_options)

    def test_repeated_years_rejected(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        with pytest.raises(ValueError, match="cutoff 1990 given more than once"):
            rolling_origin_hindcast(obs, RECOVERY_SPEC, [1990, 1992, 1990], quick_options)
        with pytest.raises(ValueError, match="start year 1985, 1988 given more than once"):
            truncation_study(obs, RECOVERY_SPEC, [1988, 1985, 1985, 1988, 1988], quick_options)
        diagnostics.check_cutoffs(obs.grid, [1990, 1992])
        diagnostics.check_truncation_starts(obs.grid, [1985, 1988])

    def test_empty_cutoffs_rejected(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        with pytest.raises(ValueError, match="at least one cutoff"):
            rolling_origin_hindcast(obs, RECOVERY_SPEC, [], quick_options)

    def test_never_reads_beyond_cutoff(self, small_noise_free, quick_options):
        obs, _ = small_noise_free
        cutoff = 1992
        poisoned = ObservedSeries(
            obs.grid, b=obs.b.copy(), m=obs.m.copy(), p=obs.p.copy()
        )
        # Wreck everything after the scored year; results must not move.
        beyond = slice(cutoff + 2 - obs.grid.t_min, None)
        poisoned.b[beyond] = 9e9
        poisoned.m[beyond] = 7e9
        poisoned.p[beyond] = 5e9
        clean = rolling_origin_hindcast(obs, RECOVERY_SPEC, [cutoff], quick_options)
        dirty = rolling_origin_hindcast(poisoned, RECOVERY_SPEC, [cutoff], quick_options)
        assert clean.rmse_pooled == dirty.rmse_pooled
        assert clean.predictions[0].m_pred == dirty.predictions[0].m_pred
        assert clean.predictions[0].p_pred == dirty.predictions[0].p_pred


def test_dropping_a_window_leaves_the_others_unchanged(small_noise_free, quick_options):
    # Every window starts from the spec's own starts, so no window's fit
    # depends on which other windows there are.
    obs, _ = small_noise_free
    full = diagnostics.robustness(obs, RECOVERY_SPEC, [1985, 1988], [1990, 1992, 1995],
                                  quick_options)
    fewer = diagnostics.robustness(obs, RECOVERY_SPEC, [1988], [1990, 1995], quick_options)
    assert fewer.truncation_rows == full.truncation_rows[1:]
    kept = [full.hindcast.predictions[0], full.hindcast.predictions[2]]
    assert fewer.hindcast.predictions == kept


@pytest.mark.parametrize("rescale", ["window", "full"])
def test_rescale_picks_the_starts_and_labels_the_report(small_noise_free, quick_options,
                                                        rescale):
    # Each window's job starts from the spec's starts on the sample, those
    # of its grid cell, with 'full' mapped from the sample's time scale to
    # the window's; the report labels its rows and its hindcast with the
    # rescale it is given.
    obs, _ = small_noise_free
    jobs = diagnostics.robustness_jobs(obs, RECOVERY_SPEC, [1985], [1990], quick_options, rescale)
    starts = selection.spec_starts(RECOVERY_SPEC, obs, quick_options)
    for job in jobs:
        want = (starts if rescale == "window"
                else rescale_coefficients(starts, RECOVERY_SPEC, obs.grid, job.obs.grid))
        assert np.array_equal(job.starts, want)
    fit_lane_set(jobs, quick_options)
    report = diagnostics.robustness_report(jobs, obs, rescale)
    assert [row.rescale for row in report.truncation_rows] == [rescale]
    assert report.hindcast.rescale == rescale


def hand_coded_next_year(window, spec, theta, scale_grid):
    """The one-step update written out by hand: the oracle for the hindcast's predictions.

    ``theta`` is on ``scale_grid``'s time scale.
    """
    traj = eval_param_trajectories(theta, spec, scale_grid, years=window.grid.years)
    sim = simulate(window, traj, spec)
    next_traj = eval_param_trajectories(theta, spec, scale_grid,
                                        years=np.array([window.grid.t_max + 1]))
    b_last = float(window.b[-1])
    stock_m_next = sim.stock_m[-1] + traj.rho_bm[-1] * b_last - sim.flow_m[-1]
    stock_p_next = (sim.stock_p[-1] + traj.rho_bp[-1] * b_last
                    + traj.rho_mp[-1] * sim.flow_m[-1] - sim.flow_p[-1])
    if spec.forcing:
        stock_p_next += traj.lam * float(window.p_intl[-1])
    return float(next_traj.gamma_m[0] * stock_m_next), float(next_traj.gamma_p[0] * stock_p_next)


@pytest.mark.parametrize("forcing", [False, True])
@pytest.mark.parametrize("rescale", ["window", "full"])
def test_predict_next_year_is_the_recurrence_one_year_on(rescale, forcing):
    # A hindcast row of a fitted window job: its predictions against the
    # oracle, its observations the sample's next year.  The oracle runs on
    # the window's time scale or on the sample's, where the job's
    # coefficients are the oracle's mapped to the window's.
    obs, _ = generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=2))
    spec = ModelSpec(2, 2, forcing=forcing)
    rng = np.random.default_rng(21)
    for cutoff in (1975, 1995, 2016):
        window = obs.window(obs.grid.t_min, cutoff)
        i_next = cutoff + 1 - obs.grid.t_min
        for _ in range(5):
            theta = rng.normal(0.0, 0.5, spec.n_params)
            theta[:RECOVERY_THETA.size] += RECOVERY_THETA
            scale_grid = obs.grid if rescale == "full" else window.grid
            theta_hat = rescale_coefficients(theta, spec, scale_grid, window.grid)
            fit = FitResult(theta_hat=theta_hat, sse=1.0, converged=True, n_iterations=1,
                            n_starts_used=1, grad_norm_at_opt=0.0)
            job = LaneJob(spec, window, theta_hat[None], fit)
            got = diagnostics._hindcast_prediction(obs, job)
            want = hand_coded_next_year(window, spec, theta, scale_grid)
            assert (got.m_pred, got.p_pred) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert (got.m_obs, got.p_obs) == (obs.m[i_next], obs.p[i_next])
            assert got.cutoff == cutoff and got.fit_sse == 1.0


@pytest.mark.parametrize("spec", selection.enumerate_grid(), ids=ModelSpec.label)
def test_refit_windows_follow_the_grids_size_rule(spec):
    # One size rule for every window: a truncation start or a cutoff is
    # accepted, and the covariance defined, exactly when the grid would fit
    # the spec to the window the year leaves.
    grid = YearGrid(1900, 1970)
    for n_years in range(2, 61):
        window = YearGrid(1900, 1899 + n_years)
        ones = np.ones(n_years)
        fits = selection.unfittable_reason(spec, ObservedSeries(window, ones, ones, ones,
                                                                ones)) is None
        for check, year in ((diagnostics.check_truncation_starts, grid.t_max - n_years + 1),
                            (diagnostics.check_cutoffs, grid.t_min + n_years - 1)):
            try:
                check(grid, [year], spec)
            except ValueError as exc:
                assert not fits and "too short for k=" in str(exc), (check.__name__, n_years)
            else:
                assert fits, (check.__name__, n_years)
        try:
            covariance(np.eye(spec.n_params), 1.0, spec, window)
        except ValueError as exc:
            assert not fits and "residual variance undefined" in str(exc), n_years
        else:
            assert fits, n_years
