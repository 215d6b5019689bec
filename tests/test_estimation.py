import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfit import (
    FitOptions,
    ModelSpec,
    ObservedSeries,
    UncertaintyResult,
    YearGrid,
    confidence_bands,
    covariance,
    default_starts,
    enumerate_grid,
    eval_param_trajectories,
    generate,
    gradient_fd,
    logit,
    loss,
    loss_gradient,
    minimize_bfgs,
    numerical_hessian,
    residuals,
    sample_parameters,
    simulate,
)
from flowfit.model import TRAJECTORY_NAMES, superset_mask
from flowfit.estimation import (
    GRADIENT_REL_STEP,
    NumericalError,
    bfgs_minimize,
    fd_gradient,
)

from _reference import fd_hessian, sorted_bands
from _scenarios import RECOVERY_SPEC, RECOVERY_THETA, random_instance, recovery_scenario
from test_kernel_properties import evaluators

GRID = YearGrid(1969, 2017)


def overflow_case(lambda_raw):
    """Seed 1 of the recovery scenario with the proxy, and spec 2,2,intl at ``lambda_raw``.

    At lambda_raw 800 the forcing weight overflows; from about 701.686 on
    the forcing term overflows the PhD stock and its flows go invalid.
    """
    obs, _ = generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=1))
    return obs, ModelSpec(2, 2, forcing=True), np.concatenate([RECOVERY_THETA, [lambda_raw]])


@pytest.fixture(scope="module")
def noise_free():
    obs, truth = generate(recovery_scenario())
    return obs, truth


@pytest.fixture(scope="module")
def warm_fit(noise_free):
    """Fit started at the generator optimum; converges in a few iterations."""
    obs, _ = noise_free
    return minimize_bfgs(RECOVERY_SPEC, obs, [RECOVERY_THETA], FitOptions(n_starts=1))


class TestResiduals:
    def test_perfect_fit_zero(self, noise_free):
        obs, _ = noise_free
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        sim = simulate(obs, traj, RECOVERY_SPEC)
        res = residuals(obs, sim)
        assert np.allclose(res.r_m, 0.0, atol=1e-12)
        assert np.allclose(res.r_p, 0.0, atol=1e-12)
        assert res.r_m[0] == 0.0 and res.r_p[0] == 0.0

    def test_n_eff(self, noise_free):
        obs, _ = noise_free
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        res = residuals(obs, simulate(obs, traj, RECOVERY_SPEC))
        assert res.n_eff == 2 * 49 - 2 == 96

    def test_log_definition(self):
        grid = YearGrid(2000, 2004)
        spec = ModelSpec(0, 0)
        theta = np.array([logit(0.3), logit(0.05), logit(0.3), logit(0.5), logit(0.2)])
        traj = eval_param_trajectories(theta, spec, grid)
        obs = ObservedSeries(grid, b=np.full(5, 100.0), m=np.full(5, 50.0), p=np.full(5, 8.0))
        sim = simulate(obs, traj, spec)
        scaled = ObservedSeries(grid, b=obs.b, m=obs.m, p=obs.p)
        scaled.m = sim.flow_m.copy()
        scaled.m[2] = np.e * sim.flow_m[2]
        res = residuals(scaled, sim)
        assert res.r_m[2] == pytest.approx(1.0, abs=1e-12)

    def test_multiplicative_error_bridge(self):
        grid = YearGrid(2000, 2004)
        spec = ModelSpec(0, 0)
        theta = np.array([logit(0.3), logit(0.05), logit(0.3), logit(0.5), logit(0.2)])
        traj = eval_param_trajectories(theta, spec, grid)
        obs = ObservedSeries(grid, b=np.full(5, 100.0), m=np.full(5, 50.0), p=np.full(5, 8.0))
        sim = simulate(obs, traj, spec)
        # implied flows 3.7% above observed: residual ~ -log(1.037)
        fitted = ObservedSeries(grid, b=obs.b, m=sim.flow_m / 1.037, p=obs.p)
        res = residuals(fitted, sim)
        assert res.r_m[2] == pytest.approx(-0.0363, abs=5e-4)

    def test_rejects_nonpositive_flow(self, noise_free):
        obs, truth = noise_free
        bad = type(truth)(
            stock_m=truth.stock_m, stock_p=truth.stock_p,
            flow_m=truth.flow_m.copy(), flow_p=truth.flow_p,
        )
        bad.flow_m[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            residuals(obs, bad)

    def test_rejects_non_finite_flow(self):
        # The PhD flows go inf, then nan: no residual report may summarize them.
        obs, spec, theta = overflow_case(800.0)
        sim = simulate(obs, eval_param_trajectories(theta, spec, obs.grid), spec)
        assert not np.isfinite(sim.flow_p[1:]).any()
        with pytest.raises(ValueError, match="finite"):
            residuals(obs, sim)


class TestLoss:
    """``loss`` (the lane kernel) and the list kernel, ``_reference._Objective``, alike."""

    def test_zero_at_generator(self, noise_free):
        obs, _ = noise_free
        for name, (value_of, _) in evaluators(RECOVERY_SPEC, obs).items():
            assert value_of(RECOVERY_THETA) <= 1e-18, name

    def test_matches_residual_sum(self, noise_free):
        obs, _ = noise_free
        rng = np.random.default_rng(5)
        theta = RECOVERY_THETA + rng.normal(0, 0.2, RECOVERY_THETA.size)
        traj = eval_param_trajectories(theta, RECOVERY_SPEC, obs.grid)
        res = residuals(obs, simulate(obs, traj, RECOVERY_SPEC))
        for name, (value_of, _) in evaluators(RECOVERY_SPEC, obs).items():
            assert value_of(theta) == pytest.approx(
                float(res.r_m @ res.r_m + res.r_p @ res.r_p), rel=1e-14
            ), name

    def test_inf_for_invalid_flows(self):
        # Forcing coefficient large enough to overflow the PhD stock.
        scen = recovery_scenario(p_intl=True)
        obs, _ = generate(scen)
        spec = ModelSpec(2, 2, forcing=True)
        theta = np.concatenate([RECOVERY_THETA, [800.0]])
        for name, (value_of, gradient_of) in evaluators(spec, obs).items():
            assert value_of(theta) == np.inf, name
            assert np.all(np.isnan(gradient_of(theta))), name

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_totality(self, seed):
        rng = np.random.default_rng(seed)
        obs, spec, theta, _ = random_instance(rng, forcing=bool(seed % 2))
        wild = rng.uniform(-60, 60, size=spec.n_params)
        for name, (value_of, _) in evaluators(spec, obs).items():
            assert np.isfinite(value_of(wild)), name

    def test_length_mismatch(self, noise_free):
        obs, _ = noise_free
        for name, (value_of, _) in evaluators(RECOVERY_SPEC, obs).items():
            with pytest.raises(ValueError, match="length"):
                value_of(np.zeros(3))

    @pytest.mark.parametrize("evaluate", [loss, loss_gradient], ids=["loss", "loss_gradient"])
    @pytest.mark.parametrize("shape, match", [
        ((RECOVERY_SPEC.n_params + 1,), "length"),
        ((3, RECOVERY_SPEC.n_params), "one parameter vector"),
    ], ids=["length", "batch"])
    def test_theta_must_be_one_vector_of_the_spec(self, noise_free, evaluate, shape, match):
        obs, _ = noise_free
        with pytest.raises(ValueError, match=match):
            evaluate(np.zeros(shape), RECOVERY_SPEC, obs)

    @pytest.mark.parametrize("evaluate", [loss, loss_gradient], ids=["loss", "loss_gradient"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_nonfinite_theta_rejected(self, evaluate, bad):
        # With +inf in rho_bm_0 the two kernels disagreed here: 130.58 on
        # the lane kernel, 4.9e7 on the list kernel (0 * inf in its design
        # product made every trajectory nan).  Neither is a loss.
        obs, _ = generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=1))
        spec = ModelSpec(2, 2, forcing=True)
        theta = np.concatenate([RECOVERY_THETA, [-3.0]])
        theta[0] = bad
        with pytest.raises(ValueError, match="finite"):
            evaluate(theta, spec, obs)


class TestGradient:
    def test_quadratic_closed_form(self):
        f = lambda x: float(x @ x)
        x = np.array([0.3, -1.2, 2.0, 0.0])
        assert np.allclose(fd_gradient(f, x), 2 * x, atol=1e-6)

    def test_deterministic(self, noise_free):
        obs, _ = noise_free
        theta = RECOVERY_THETA + 0.1
        g1 = gradient_fd(theta, RECOVERY_SPEC, obs)
        g2 = gradient_fd(theta, RECOVERY_SPEC, obs)
        assert np.array_equal(g1, g2)

    def test_stationary_at_synthetic_optimum(self, noise_free, warm_fit):
        obs, _ = noise_free
        g = gradient_fd(warm_fit.theta_hat, RECOVERY_SPEC, obs)
        assert np.max(np.abs(g)) <= 1e-4


class TestBfgs:
    def test_rosenbrock(self):
        rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        out = bfgs_minimize(
            rosen,
            np.array([-1.2, 1.0]),
            grad=lambda z: fd_gradient(rosen, z, rel_step=1e-6),
            gtol=1e-8,
        )
        assert out.converged
        assert np.max(np.abs(out.x - 1.0)) <= 1e-6

    def test_monotone_objective_along_iterations(self):
        rosen = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        x0 = np.array([-1.2, 1.0])
        values = [
            bfgs_minimize(rosen, x0, grad=lambda z: fd_gradient(rosen, z), max_iter=j).fun
            for j in range(0, 25)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_convex_quadratic(self):
        rng = np.random.default_rng(11)
        a_mat = rng.normal(size=(5, 5))
        a_mat = a_mat @ a_mat.T + np.eye(5)
        f = lambda x: float(x @ a_mat @ x)
        out = bfgs_minimize(f, rng.normal(size=5), grad=lambda z: fd_gradient(f, z), gtol=1e-9)
        assert np.max(np.abs(out.x)) < 1e-6


class TestMinimizeBfgs:
    def test_recovers_generator_from_nearby_start(self, noise_free):
        obs, truth = noise_free
        rng = np.random.default_rng(1)
        start = RECOVERY_THETA + rng.normal(0, 0.05, RECOVERY_THETA.size)
        fit = minimize_bfgs(RECOVERY_SPEC, obs, [start], FitOptions(gtol=1e-9))
        assert fit.sse <= 1e-10
        traj = eval_param_trajectories(fit.theta_hat, RECOVERY_SPEC, obs.grid)
        sim = simulate(obs, traj, RECOVERY_SPEC)
        assert np.allclose(sim.flow_m, truth.flow_m, rtol=1e-5)
        assert np.allclose(sim.flow_p, truth.flow_p, rtol=1e-5)

    def test_converged_implies_gradient_tolerance(self, warm_fit):
        assert warm_fit.converged
        assert warm_fit.grad_norm_at_opt <= 1e-6
        assert warm_fit.n_starts_used == 1

    def test_sse_is_recomputed_loss(self, noise_free, warm_fit):
        obs, _ = noise_free
        assert warm_fit.sse == loss(warm_fit.theta_hat, RECOVERY_SPEC, obs)

    def test_penalty_region_start_reports_unconverged(self):
        # Only invalid starts: each stops before its first iteration.
        obs, spec, theta = overflow_case(800.0)
        starts = [theta, np.concatenate([theta[:-1], [705.0]])]
        for options in (FitOptions(max_iter=0), FitOptions()):
            fit = minimize_bfgs(spec, obs, starts, options)
            assert (fit.sse, fit.converged, fit.n_iterations) == (np.inf, False, 0)

    def test_invalid_start_leaves_the_valid_starts_fit(self):
        obs, spec, bad = overflow_case(800.0)
        good = np.concatenate([bad[:-1], [-3.0]])
        options = FitOptions(max_iter=100)
        alone = minimize_bfgs(spec, obs, [good], options)
        for starts in ([bad, good], [good, bad]):
            fit = minimize_bfgs(spec, obs, starts, options)
            assert fit.n_starts_used == 2
            for field in ("theta_hat", "sse", "converged", "n_iterations", "grad_norm_at_opt"):
                assert (np.asarray(getattr(fit, field)).tobytes()
                        == np.asarray(getattr(alone, field)).tobytes()), field

    def test_requires_starts(self, noise_free):
        obs, _ = noise_free
        with pytest.raises(ValueError, match="start"):
            minimize_bfgs(RECOVERY_SPEC, obs, [])


class TestDefaultStarts:
    def test_single_start_is_heuristic_center(self, noise_free):
        obs, _ = noise_free
        spec = ModelSpec(2, 2, forcing=True)
        (start,) = default_starts(spec, obs, n_starts=1, seed=123)
        expected = np.array([
            logit(0.3), 0, 0, logit(0.05), 0, 0, logit(0.3), 0, 0,
            logit(0.4), 0, 0, logit(0.15), 0, 0, -5.0,
        ])
        assert np.array_equal(start, expected)

    @pytest.mark.parametrize("spec", enumerate_grid(), ids=lambda s: s.label())
    def test_center_is_the_superset_center_masked(self, noise_free, spec):
        obs, _ = noise_free
        superset = ModelSpec(2, 2, forcing=True)
        (center,) = default_starts(spec, obs, n_starts=1)
        (full,) = default_starts(superset, obs, n_starts=1)
        assert np.array_equal(center, full[superset_mask(spec)])

    def test_seed_reproducibility(self, noise_free):
        obs, _ = noise_free
        a = default_starts(RECOVERY_SPEC, obs, n_starts=8, seed=7)
        b = default_starts(RECOVERY_SPEC, obs, n_starts=8, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_distinct_seeds_differ(self, noise_free):
        obs, _ = noise_free
        a = default_starts(RECOVERY_SPEC, obs, n_starts=8, seed=1)
        b = default_starts(RECOVERY_SPEC, obs, n_starts=8, seed=2)
        assert np.array_equal(a[0], b[0])  # shared center
        assert not np.array_equal(a[1], b[1])


class TestNumericalHessian:
    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(42)
        a_mat = rng.normal(size=(6, 6))
        a_mat = a_mat @ a_mat.T + 6 * np.eye(6)
        f = lambda x: float(x @ a_mat @ x)
        hess = fd_hessian(f, rng.normal(size=6))
        assert np.max(np.abs(hess - 2 * a_mat)) / np.max(np.abs(2 * a_mat)) <= 1e-4

    def test_symmetry(self, noise_free, warm_fit):
        obs, _ = noise_free
        hess = numerical_hessian(warm_fit.theta_hat, RECOVERY_SPEC, obs)
        assert np.array_equal(hess, hess.T)

    def test_psd_at_synthetic_optimum(self, noise_free, warm_fit):
        obs, _ = noise_free
        hess = numerical_hessian(warm_fit.theta_hat, RECOVERY_SPEC, obs)
        eigvals = np.linalg.eigvalsh(hess)
        assert eigvals.min() >= -1e-6

    def test_stencil_into_invalid_flows_raises(self):
        # A valid point half a step below the overflow of the PhD flows:
        # the +h point of the forcing coordinate's stencil is invalid.
        raw = 701.6860672
        obs, spec, theta = overflow_case(raw - GRADIENT_REL_STEP * raw / 2)
        assert np.isfinite(loss(theta, spec, obs))
        with pytest.raises(NumericalError, match="non-finite"):
            numerical_hessian(theta, spec, obs)

    def test_nonfinite_entry_identified(self):
        def f(x):
            return float("nan") if abs(x[1]) > 1e-5 else float(x @ x)

        with pytest.raises(ValueError, match=r"\(.*1.*\)"):
            fd_hessian(f, np.zeros(3))


class TestCovariance:
    def test_identity_case(self):
        # sse chosen so sigma2 = sse/(96-15) = 0.5; with H = I the
        # covariance is 2*0.5*I = I.
        spec = ModelSpec(2, 2, False)
        sse = 0.5 * (96 - 15)
        unc = covariance(np.eye(15), sse, spec, GRID)
        assert np.allclose(unc.covariance, np.eye(15), atol=1e-12)
        assert not unc.regularization_applied

    def test_reference_sigma2(self):
        unc = covariance(np.eye(15), 0.129, ModelSpec(2, 2, False), GRID)
        assert unc.sigma2_hat == 0.129 / 81

    def test_inverse_identity_random_spd(self):
        rng = np.random.default_rng(3)
        b_mat = rng.normal(size=(15, 15))
        hess = b_mat @ b_mat.T + 15 * np.eye(15)
        unc = covariance(hess, 0.129, ModelSpec(2, 2, False), GRID)
        assert not unc.regularization_applied
        product = unc.covariance @ hess
        assert np.max(np.abs(product - 2 * unc.sigma2_hat * np.eye(15))) <= 1e-8

    def test_regularization_fires_and_records(self):
        eigvals = np.array([1e-15] + [1.0] * 14)
        rng = np.random.default_rng(9)
        q_mat, _ = np.linalg.qr(rng.normal(size=(15, 15)))
        hess = (q_mat * eigvals) @ q_mat.T
        unc = covariance(hess, 0.129, ModelSpec(2, 2, False), GRID)
        assert unc.regularization_applied
        assert np.all(np.linalg.eigvalsh(unc.covariance) >= 0)
        assert np.max(np.abs(unc.covariance - unc.covariance.T)) <= 1e-10

    def test_rejects_insufficient_data(self):
        spec = ModelSpec(2, 2, False)
        with pytest.raises(ValueError, match="N_eff"):
            covariance(np.eye(15), 0.1, spec, YearGrid(2000, 2007))


class TestSampleParameters:
    def test_zero_covariance_degenerate(self):
        unc = UncertaintyResult(np.eye(3), 1.0, np.zeros((3, 3)), False)
        theta = np.array([1.0, -2.0, 0.5])
        draws = sample_parameters(unc, theta, n_draws=40, seed=0)
        assert np.array_equal(draws, np.tile(theta, (40, 1)))

    def test_moments(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        unc = UncertaintyResult(np.eye(2), 1.0, cov, False)
        theta = np.array([0.3, -0.7])
        draws = sample_parameters(unc, theta, n_draws=100_000, seed=7)
        mean_err = np.abs(draws.mean(axis=0) - theta)
        assert np.all(mean_err <= 4 * np.sqrt(np.diag(cov)) / np.sqrt(1e5))
        sample_cov = np.cov(draws.T)
        assert np.max(np.abs(sample_cov - cov) / np.abs(cov)) <= 0.05

    def test_seeded_determinism(self):
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        unc = UncertaintyResult(np.eye(2), 1.0, cov, False)
        theta = np.zeros(2)
        a = sample_parameters(unc, theta, n_draws=100, seed=3)
        b = sample_parameters(unc, theta, n_draws=100, seed=3)
        assert np.array_equal(a, b)


class TestConfidenceBands:
    def test_degenerate_draws_collapse(self):
        draws = np.tile(RECOVERY_THETA, (10, 1))
        bands = confidence_bands(draws, RECOVERY_SPEC, GRID)
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, GRID)
        for name, vals in traj.as_dict().items():
            assert np.allclose(bands.lower[name], vals, atol=1e-14)
            assert np.allclose(bands.upper[name], vals, atol=1e-14)

    def test_bands_inside_unit_interval_and_ordered(self):
        rng = np.random.default_rng(0)
        draws = RECOVERY_THETA + rng.normal(0, 0.8, size=(500, RECOVERY_THETA.size))
        bands = confidence_bands(draws, RECOVERY_SPEC, GRID)
        for name in bands.lower:
            assert np.all(bands.lower[name] > 0)
            assert np.all(bands.upper[name] < 1)
            assert np.all(bands.lower[name] <= bands.upper[name])

    def test_logit_width_scales_with_covariance(self):
        cov = 0.005 * np.eye(RECOVERY_THETA.size)
        unc1 = UncertaintyResult(np.eye(15), 1.0, cov, False)
        unc4 = UncertaintyResult(np.eye(15), 1.0, 4 * cov, False)
        draws1 = sample_parameters(unc1, RECOVERY_THETA, n_draws=60_000, seed=5)
        draws4 = sample_parameters(unc4, RECOVERY_THETA, n_draws=60_000, seed=5)
        b1 = confidence_bands(draws1, RECOVERY_SPEC, GRID)
        b4 = confidence_bands(draws4, RECOVERY_SPEC, GRID)
        for name in b1.lower:
            w1 = logit(b1.upper[name]) - logit(b1.lower[name])
            w4 = logit(b4.upper[name]) - logit(b4.lower[name])
            assert np.all(np.abs(w4 / w1 - 2.0) <= 0.2)

    def test_requires_two_draws(self):
        with pytest.raises(ValueError, match="two"):
            confidence_bands(RECOVERY_THETA[None, :], RECOVERY_SPEC, GRID)

    def test_finite_draws_whose_predictors_overflow_do_not_warn(self):
        # 1e308 + 1e308 s overflows to inf in the later years; the suite
        # turns an overflow warning of the product into an error.
        draws = np.tile(RECOVERY_THETA, (4, 1))
        draws[:2, :2] = 1e308
        bands = confidence_bands(draws, RECOVERY_SPEC, GRID)
        for name in bands.lower:
            assert np.all(bands.lower[name] > 0)
            assert np.all(bands.upper[name] < 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_is_rejected_by_row(self, bad):
        draws = np.tile(RECOVERY_THETA, (10, 1))
        draws[3, 7] = bad
        draws[6, 0] = np.nan
        with pytest.raises(ValueError, match="^draw 3 is not finite$"):
            confidence_bands(draws, RECOVERY_SPEC, GRID)


@st.composite
def band_cases(draw):
    """Draws, spec, grid and level whose bands the sort-based oracle also gives.

    Levels near 0 put both tails' order statistics on the same or adjacent
    ranks; levels near 1 put them on the first and last ranks, and
    1 - 2^-53 makes the upper quantile 1.0, one rank twice.  Resampled rows
    repeat predictors across draws, and a trajectory whose coefficients
    are all +-0.0 has only +-0.0 predictors, which a sort and a selection
    may place in different orders.
    """
    n_draws = draw(st.one_of(st.integers(2, 300), st.sampled_from([4000, 4001])))
    level = draw(st.one_of(st.floats(1e-12, 0.05), st.floats(0.05, 0.9),
                           st.floats(0.9, 1.0, exclude_max=True),
                           st.sampled_from([2.0 ** -52, 0.5, 0.95, 1.0 - 2.0 ** -53])))
    n_years = draw(st.integers(3, 60))
    spec = draw(st.sampled_from(enumerate_grid()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    draws = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 30.0])), (n_draws, spec.n_params))
    if draw(st.booleans()):
        draws = draws[rng.integers(0, n_draws, n_draws)]
    zeroed = draw(st.sampled_from([None, *range(len(TRAJECTORY_NAMES))]))
    if zeroed is not None:
        # Spec columns of trajectory ``zeroed``'s superset coefficients.
        superset_columns = np.flatnonzero(superset_mask(spec))
        columns = np.flatnonzero(superset_columns // 3 == zeroed)
        draws[:, columns] = np.where(rng.random((n_draws, columns.size)) < 0.5, 0.0, -0.0)
    return draws, spec, YearGrid(1990, 1989 + n_years), level


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=band_cases())
def test_bands_equal_the_sorted_oracle_bit_for_bit(case):
    draws, spec, grid, level = case
    kept = draws.copy()
    got = confidence_bands(draws, spec, grid, level)
    want = sorted_bands(kept, spec, grid, level)
    assert draws.tobytes() == kept.tobytes()
    for side in ("lower", "upper"):
        for name in TRAJECTORY_NAMES:
            assert getattr(got, side)[name].tobytes() == getattr(want, side)[name].tobytes()
