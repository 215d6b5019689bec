import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowfit import (
    LOGISTIC_CLAMP,
    ModelSpec,
    ObservedSeries,
    YearGrid,
    enumerate_grid,
    eval_param_trajectories,
    generate,
    initialize_stocks,
    inv_logit,
    logit,
    loss,
    rescale_time,
    run_recurrence,
    simulate,
    theta_labels,
)
from flowfit.estimation import residuals
from flowfit.model import (
    SUPERSET_LABELS,
    TRAJECTORY_NAMES,
    LaneKernel,
    _clamped_logistic,
    _logistic_two_branch,
    embed,
    rescale_coefficients,
    superset_mask,
)

from _reference import _Objective, block_design
from _scenarios import (RECOVERY_SPEC, RECOVERY_THETA, oracle_recurrence, random_instance,
                        recovery_scenario)

GRID = YearGrid(1969, 2017)

ALL_SPECS = pytest.mark.parametrize("spec", enumerate_grid(), ids=lambda s: s.label())


def constant_traj(rho_bm=0.3, rho_bp=0.05, rho_mp=0.3, gamma_m=0.4, gamma_p=0.15,
                  grid=GRID, forcing=False):
    spec = ModelSpec(0, 0, forcing)
    theta = [logit(rho_bm), logit(rho_bp), logit(rho_mp), logit(gamma_m), logit(gamma_p)]
    if forcing:
        theta.append(0.0)
    return eval_param_trajectories(np.array(theta), spec, grid), spec


class TestYearGrid:
    def test_midpoint_is_exact_real(self):
        assert GRID.t_mid == 1993.0
        assert YearGrid(1969, 2016).t_mid == 1992.5

    def test_length(self):
        assert GRID.n_years == 49
        assert len(GRID.years) == 49

    def test_n_eff_drops_the_first_year_of_both_series(self):
        assert GRID.n_eff == 96
        assert YearGrid(2000, 2001).n_eff == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            YearGrid(2000, 2000)
        with pytest.raises(ValueError):
            YearGrid(2000, 1990)


class TestRescaleTime:
    def test_midpoint_maps_to_zero(self):
        assert rescale_time(1993, GRID) == 0.0

    def test_endpoints(self):
        assert rescale_time(1969, GRID) == -1.0
        assert rescale_time(2017, GRID) == +1.0

    def test_defined_outside_grid(self):
        assert rescale_time(2018, GRID) > 1.0
        assert rescale_time(1950, GRID) < -1.0

    def test_affine(self):
        years = np.array([1969, 1980, 2000, 2017])
        s = rescale_time(years, GRID)
        diffs = np.diff(s) / np.diff(years)
        assert np.allclose(diffs, diffs[0])


class TestRescaleCoefficients:
    # A sample, the refit windows of its truncation and hindcast, and a
    # wider grid; each case's coefficients start on the first grid's scale.
    OBS, _ = generate(recovery_scenario(noise_sd=0.02, seed=4, p_intl=True))
    CASES = [(GRID, OBS.window(1979, 2017)), (GRID, OBS.window(1969, 2005)),
             (YearGrid(1950, 2030), OBS.window(1980, 2004))]

    @staticmethod
    def thetas(spec, n=20):
        rng = np.random.default_rng([spec.deg_gamma, spec.deg_rho, spec.forcing])
        truth = np.append(RECOVERY_THETA, -1.0)[superset_mask(spec)]
        return truth + rng.normal(0.0, 0.3, (n, spec.n_params))

    @ALL_SPECS
    def test_loss_matches_the_oracle_on_the_old_scale(self, spec):
        # The list-level oracle evaluates on the old scale itself; loss
        # maps the coefficients to the window's and runs the kernel there.
        for scale_grid, window in self.CASES:
            objective = _Objective(spec, window, scale_grid)
            for theta in self.thetas(spec):
                want = objective.value(theta)
                mapped = rescale_coefficients(theta, spec, scale_grid, window.grid)
                got = loss(theta, spec, window, scale_grid)
                assert got == loss(mapped, spec, window)
                assert np.isfinite(want) and abs(got - want) <= 1e-12 * want

    @ALL_SPECS
    def test_trajectories_agree(self, spec):
        for scale_grid, window in self.CASES:
            for theta in self.thetas(spec):
                old = eval_param_trajectories(theta, spec, scale_grid, window.grid.years)
                new = eval_param_trajectories(
                    rescale_coefficients(theta, spec, scale_grid, window.grid), spec, window.grid)
                for name in TRAJECTORY_NAMES:
                    assert np.max(np.abs(getattr(new, name) - getattr(old, name))) <= 1e-12
                assert new.lam == old.lam

    @ALL_SPECS
    def test_round_trip_and_batch(self, spec):
        for scale_grid, window in self.CASES:
            thetas = self.thetas(spec)
            mapped = rescale_coefficients(thetas, spec, scale_grid, window.grid)
            # A batch maps row by row, and lambda_raw passes through.
            for theta, row in zip(thetas, mapped):
                assert rescale_coefficients(theta, spec, scale_grid, window.grid).tobytes() \
                    == row.tobytes()
            if spec.forcing:
                assert np.array_equal(mapped[:, -1], thetas[:, -1])
            back = rescale_coefficients(mapped, spec, window.grid, scale_grid)
            assert np.all(np.abs(back - thetas) <= 1e-12 * np.maximum(1.0, np.abs(thetas)))

    def test_loss_rejects_coefficients_the_map_overflows(self):
        # A quadratic coefficient finite on a 24-year scale is 4 times as
        # large on the 48-year one, past the largest float: rejected as a
        # non-finite point is, without a floating-point warning.
        theta = self.thetas(RECOVERY_SPEC, 1)[0]
        theta[2] = 1e308
        with pytest.raises(ValueError, match="theta must be finite"):
            loss(theta, RECOVERY_SPEC, self.OBS, YearGrid(1981, 2005))

    def test_known_map(self):
        # From [2000, 2002] to [2001, 2005]: s = 2 u + 2, so c0 + c1 s + c2 s^2
        # has the coefficients (c0 + 2 c1 + 4 c2, 2 (c1 + 4 c2), 4 c2) in u;
        # the constant-only routing blocks keep theirs.
        spec = ModelSpec(2, 0)
        theta = np.array([0.1, 0.2, 0.3, 0.5, -0.5, 0.25, 1.0, 2.0, -1.0])
        got = rescale_coefficients(theta, spec, YearGrid(2000, 2002), YearGrid(2001, 2005))
        assert got.tolist() == [0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 1.0, -4.0, -4.0]


class TestInvLogit:
    def test_symmetry_point(self):
        assert inv_logit(0.0) == 0.5

    def test_saturation_no_overflow(self):
        v = inv_logit(50.0)
        assert 1 - 1e-15 < v < 1
        assert 0.0 < inv_logit(-800.0) < inv_logit(800.0) < 1.0

    def test_round_trip(self):
        assert abs(inv_logit(logit(0.2)) - 0.2) < 1e-12

    @given(st.floats(-40, 40))
    def test_reflection(self, y):
        assert abs(inv_logit(-y) - (1 - inv_logit(y))) < 1e-12

    @given(st.floats(-700, 700), st.floats(-700, 700))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert inv_logit(lo) <= inv_logit(hi)

    @staticmethod
    def masked_two_branch(y):
        """The two-branch logistic with a masked numerator of 1 where y >= 0."""
        pos = y >= 0
        e = np.exp(np.negative(np.abs(y, out=y), out=y), out=y)
        denom = e + 1.0
        np.copyto(e, 1.0, where=pos)
        return np.divide(e, denom, out=e)

    def test_two_branch_numerator_is_bitwise_the_masked_formula(self):
        rng = np.random.default_rng(11)
        edges = [0.0, -0.0, 800.0, -800.0, np.nan, np.inf, -np.inf,
                 float(logit(LOGISTIC_CLAMP)), float(logit(1.0 - LOGISTIC_CLAMP)),
                 np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0), 709.8, -745.2]
        for y in (rng.normal(0.0, 10.0, size=(49, 5, 36)), rng.uniform(-40, 40, size=1000),
                  np.array(edges), np.array(-3.5)):
            want = self.masked_two_branch(np.array(y))
            got = _logistic_two_branch(np.array(y))
            # Bit for bit, signed zeros included; a nan's sign bit carries no value.
            nan = np.isnan(want)
            assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


    @staticmethod
    def two_exp(y):
        """The two-exp logistic, exp(min(y, 0)) / (1 + exp(-|y|))."""
        return np.exp(np.minimum(y, 0.0)) / (np.exp(-np.abs(y)) + 1.0)

    def test_one_exp_is_bitwise_the_two_exp_formula(self):
        # Every bit, signed zeros and the sign and payload of a nan included.
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                         0xFFF8000000000123], dtype=np.uint64).view(float)
        edges = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
                                 709.8, -745.2, np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0)],
                                nans])
        rng = np.random.default_rng(12)
        for y in (edges, np.concatenate([edges, rng.normal(0.0, 30.0, size=10**6)]),
                  rng.standard_cauchy(size=(49, 5, 3)), np.array(-3.5), np.array(np.nan)):
            want = self.two_exp(y)
            got = _logistic_two_branch(np.array(y))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            clipped = np.clip(want, np.finfo(float).tiny, np.nextafter(1.0, 0.0))
            assert np.asarray(inv_logit(y)).tobytes() == clipped.tobytes()
            numerator = np.empty_like(y)
            assert _logistic_two_branch(np.array(y), numerator).tobytes() == want.tobytes()


class TestModelSpec:
    def test_parameter_count(self):
        assert ModelSpec(2, 2, False).n_params == 15
        assert ModelSpec(2, 2, True).n_params == 16
        assert ModelSpec(0, 0, False).n_params == 5

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(3, 0)
        with pytest.raises(ValueError):
            ModelSpec(0, -1)

    def test_theta_labels(self):
        labels = theta_labels(ModelSpec(1, 0, True))
        assert labels == ["rho_bm_0", "rho_bp_0", "rho_mp_0",
                          "gamma_m_0", "gamma_m_1", "gamma_p_0", "gamma_p_1",
                          "lambda_raw"]


class TestCoefficientLayout:
    def test_superset_labels(self):
        assert len(SUPERSET_LABELS) == 16
        assert SUPERSET_LABELS[:4] == ("rho_bm_0", "rho_bm_1", "rho_bm_2", "rho_bp_0")
        assert SUPERSET_LABELS[-2:] == ("gamma_p_2", "lambda_raw")

    @ALL_SPECS
    def test_theta_labels_are_the_masked_superset_labels(self, spec):
        mask = superset_mask(spec)
        assert theta_labels(spec) == [label for label, kept in zip(SUPERSET_LABELS, mask) if kept]
        assert len(theta_labels(spec)) == spec.n_params

    @ALL_SPECS
    def test_stacked_design_is_the_block_design(self, spec):
        # The superset's stacked design, masked to ``spec``, is the oracle's
        # block design, and the trajectories are the logistic of its product.
        theta = np.random.default_rng(5).normal(size=spec.n_params)
        for years in (None, [1960, 1993, 2020, 2025]):
            s = rescale_time(GRID.years if years is None else np.asarray(years, dtype=float), GRID)
            superset = np.zeros((5 * s.size, 16))
            superset[:, :15] = np.kron(np.eye(5), np.vander(s, 3, increasing=True))
            design = block_design(spec, GRID, years)
            assert np.array_equal(design, superset[:, superset_mask(spec)])
            traj = eval_param_trajectories(theta, spec, GRID, years)
            got = np.concatenate([traj.as_dict()[name] for name in TRAJECTORY_NAMES])
            np.testing.assert_allclose(got, _clamped_logistic(design @ theta), rtol=1e-13)

    @ALL_SPECS
    def test_embed_takes_one_vector_or_a_batch(self, spec):
        thetas = np.random.default_rng(3).normal(size=(4, spec.n_params))
        batch = embed(thetas, spec)
        assert batch.shape == (4, 16)
        assert np.array_equal(batch, np.stack([embed(theta, spec) for theta in thetas]))
        assert np.array_equal(batch[:, superset_mask(spec)], thetas)
        assert np.all(batch[:, ~superset_mask(spec)] == 0.0)


class TestEvalParamTrajectories:
    def test_constant_block(self):
        traj, _ = constant_traj(rho_bm=0.3)
        assert np.allclose(traj.rho_bm, 0.3, atol=1e-14)

    def test_linear_hazard_endpoints(self):
        spec = ModelSpec(1, 0)
        theta = np.array([logit(0.3), logit(0.05), logit(0.3), 0.0, 1.0, logit(0.15), 0.0])
        traj = eval_param_trajectories(theta, spec, GRID)
        assert traj.gamma_m[0] == pytest.approx(inv_logit(-1.0), abs=1e-12)
        assert traj.gamma_m[-1] == pytest.approx(inv_logit(+1.0), abs=1e-12)
        assert traj.gamma_m[0] == pytest.approx(0.2689, abs=5e-5)
        assert traj.gamma_m[-1] == pytest.approx(0.7311, abs=5e-5)

    def test_pure_quadratic(self):
        spec = ModelSpec(0, 2)
        theta = np.array([0.0, 0.0, 1.0] + [0.0, 0.0, 1.0] * 2 + [logit(0.4), logit(0.15)])
        traj = eval_param_trajectories(theta, spec, GRID)
        mid = GRID.n_years // 2
        assert traj.rho_bm[mid] == pytest.approx(0.5, abs=1e-12)
        assert traj.rho_bm[0] == pytest.approx(inv_logit(1.0), abs=1e-12)
        assert traj.rho_bm[-1] == pytest.approx(inv_logit(1.0), abs=1e-12)

    @ALL_SPECS
    def test_trajectories_are_the_kernels(self, spec):
        # Bit for bit the trajectories a one-lane kernel call works on, on a
        # series and on a window of it, each on its own time scale, clipped
        # lanes included.
        rng = np.random.default_rng(11)
        full, _, _, _ = random_instance(np.random.default_rng(2), forcing=True, n_years=25)
        for obs in (full, full.window(full.grid.t_min + 3, full.grid.t_max - 5)):
            kernel = LaneKernel(obs)
            for scale in (0.5, 3.0, 40.0):
                theta = rng.normal(0.0, scale, spec.n_params)
                kernel(embed(theta, spec)[None], superset_mask(spec)[None])
                traj = eval_param_trajectories(theta, spec, obs.grid)
                got = np.stack([traj.as_dict()[name] for name in TRAJECTORY_NAMES])
                assert got.tobytes() == kernel._workspace.p[:, :, 0].tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            eval_param_trajectories(np.zeros(7), ModelSpec(2, 2), GRID)

    def test_batch_rejected(self):
        with pytest.raises(ValueError, match="one parameter vector"):
            eval_param_trajectories(np.zeros((2, 15)), ModelSpec(2, 2), GRID)

    def test_clamped_inside_open_interval(self):
        spec = ModelSpec(0, 0)
        theta = np.array([100.0, -100.0, 0.0, 60.0, -60.0])
        traj = eval_param_trajectories(theta, spec, GRID)
        assert np.all(traj.rho_bm <= 1 - LOGISTIC_CLAMP)
        assert np.all(traj.rho_bp >= LOGISTIC_CLAMP)

    def test_extrapolation_years(self):
        traj, spec = constant_traj()
        beyond = eval_param_trajectories(
            np.array([logit(0.3), logit(0.05), logit(0.3), logit(0.4), logit(0.15)]),
            spec, GRID, years=np.array([2018, 2020]),
        )
        assert beyond.gamma_m.shape == (2,)

    def test_forcing_lambda(self):
        spec = ModelSpec(0, 0, forcing=True)
        theta = np.array([0.0] * 5 + [np.log(2.5)])
        traj = eval_param_trajectories(theta, spec, GRID)
        assert traj.lam == pytest.approx(2.5, rel=1e-12)
        theta[-1] = -500.0  # floored, not underflowed
        assert eval_param_trajectories(theta, spec, GRID).lam == pytest.approx(np.exp(-40))


class TestObservedSeries:
    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError, match="master"):
            ObservedSeries(YearGrid(2000, 2002), b=[1, 1, 1], m=[1, 0, 1], p=[1, 1, 1])

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError, match="bachelor"):
            ObservedSeries(YearGrid(2000, 2002), b=[1, -1, 1], m=[1, 1, 1], p=[1, 1, 1])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="entries"):
            ObservedSeries(YearGrid(2000, 2002), b=[1, 1], m=[1, 1, 1], p=[1, 1, 1])

    def test_rejects_misaligned_p_intl(self):
        with pytest.raises(ValueError, match="p_intl"):
            ObservedSeries(YearGrid(2000, 2002), b=[1, 1, 1], m=[1, 1, 1], p=[1, 1, 1],
                           p_intl=[1, 1])

    def test_window(self):
        obs = ObservedSeries(YearGrid(2000, 2009), b=np.arange(10) + 1.0,
                             m=np.ones(10), p=np.ones(10))
        sub = obs.window(2003, 2006)
        assert sub.grid.t_min == 2003 and sub.grid.n_years == 4
        assert sub.b[0] == 4.0
        with pytest.raises(ValueError):
            obs.window(1999, 2005)


class TestInitializeStocks:
    def test_definition(self):
        grid = YearGrid(2000, 2004)
        traj, spec = constant_traj(gamma_m=0.5, gamma_p=0.25, grid=grid)
        obs = ObservedSeries(grid, b=np.full(5, 10.0), m=np.full(5, 100.0), p=np.full(5, 50.0))
        m0, p0 = initialize_stocks(obs, traj)
        assert m0 == pytest.approx(200.0)
        assert p0 == pytest.approx(200.0)

    def test_first_year_residuals_anchor(self):
        grid = YearGrid(2000, 2009)
        traj, spec = constant_traj(grid=grid)
        obs = ObservedSeries(grid, b=np.full(10, 500.0), m=np.full(10, 100.0),
                             p=np.full(10, 40.0))
        sim = simulate(obs, traj, spec)
        res = residuals(obs, sim)
        assert res.r_m[0] == 0.0
        assert res.r_p[0] == 0.0


class TestSimulate:
    def test_full_turnover_drain(self):
        # gamma_m -> 1 and rho_bm -> 0 via saturated logits
        grid = YearGrid(2000, 2004)
        spec = ModelSpec(0, 0)
        theta = np.array([-80.0, logit(0.05), logit(0.3), +80.0, logit(0.2)])
        traj = eval_param_trajectories(theta, spec, grid)
        obs = ObservedSeries(grid, b=np.full(5, 100.0), m=np.full(5, 10.0), p=np.full(5, 5.0))
        sim = simulate(obs, traj, spec)
        assert sim.stock_m[0] == pytest.approx(10.0, abs=1e-6)  # m0 / gamma with gamma ~ 1
        assert sim.flow_m[0] == pytest.approx(10.0, abs=1e-6)
        assert abs(sim.stock_m[1]) < 1e-6

    def test_fixed_point(self):
        grid = YearGrid(2000, 2009)
        traj, spec = constant_traj(rho_bm=0.5, gamma_m=0.5, grid=grid)
        obs = ObservedSeries(grid, b=np.full(10, 100.0), m=np.full(10, 50.0),
                             p=np.full(10, 10.0))
        sim = simulate(obs, traj, spec)
        # m0/gamma = 50/0.5 = 100 and rho*b/gamma = 100: stationary
        assert np.allclose(sim.stock_m, 100.0, atol=1e-10)

    def test_three_step_hand_recurrence(self):
        grid = YearGrid(2000, 2002)
        traj, spec = constant_traj(rho_bm=0.4, rho_bp=0.05, rho_mp=0.3,
                                   gamma_m=0.5, gamma_p=0.2, grid=grid)
        b = [100.0, 100.0, 100.0]
        m0, p0 = 80.0, 50.0
        sim = run_recurrence(np.array(b), traj, m0, p0)
        sm, sp, fm, fp = oracle_recurrence(
            b, traj.rho_bm, traj.rho_bp, traj.rho_mp, traj.gamma_m, traj.gamma_p, m0, p0
        )
        assert np.allclose(sim.stock_m, sm, rtol=1e-12, atol=1e-12)
        assert np.allclose(sim.stock_p, sp, rtol=1e-12, atol=1e-12)
        assert np.allclose(sim.flow_m, fm, rtol=1e-12, atol=1e-12)
        assert np.allclose(sim.flow_p, fp, rtol=1e-12, atol=1e-12)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(20250810)
        for trial in range(100):
            forcing = trial % 3 == 0
            obs, spec, theta, traj = random_instance(rng, forcing=forcing, n_years=20)
            sim = simulate(obs, traj, spec)
            m0 = obs.m[0] / traj.gamma_m[0]
            p0 = obs.p[0] / traj.gamma_p[0]
            sm, sp, fm, fp = oracle_recurrence(
                obs.b, traj.rho_bm, traj.rho_bp, traj.rho_mp,
                traj.gamma_m, traj.gamma_p, m0, p0,
                lam=traj.lam, p_intl=obs.p_intl if forcing else None,
            )
            for got, want in ((sim.stock_m, sm), (sim.stock_p, sp),
                              (sim.flow_m, fm), (sim.flow_p, fp)):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_forcing_requires_p_intl(self):
        grid = YearGrid(2000, 2004)
        traj, spec = constant_traj(grid=grid, forcing=True)
        obs = ObservedSeries(grid, b=np.full(5, 100.0), m=np.full(5, 10.0), p=np.full(5, 5.0))
        with pytest.raises(ValueError, match="p_intl"):
            simulate(obs, traj, spec)

    @pytest.mark.parametrize("years", [np.arange(1969, 1980), np.arange(1969, 2030), []],
                             ids=["short", "long", "none"])
    def test_trajectories_must_cover_the_years(self, years):
        obs, _ = generate(recovery_scenario())
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid, years=years)
        message = f"trajectories cover {len(years)} years, b has 49"
        with pytest.raises(ValueError, match=message):
            simulate(obs, traj, RECOVERY_SPEC)
        with pytest.raises(ValueError, match=message):
            run_recurrence(obs.b, traj, 9000.0, 4000.0)

    def test_p_intl_must_cover_the_years(self):
        obs, _ = generate(recovery_scenario(p_intl=True))
        traj = eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, obs.grid)
        for p_intl in (obs.p_intl[:-1], np.append(obs.p_intl, 1.0)):
            with pytest.raises(ValueError, match=f"p_intl has {len(p_intl)} years, b has 49"):
                run_recurrence(obs.b, traj, 9000.0, 4000.0, p_intl=p_intl)

    @ALL_SPECS
    def test_loss_is_the_sum_of_squared_simulate_residuals(self, spec):
        # simulate runs the kernel's recurrence, so the residuals the report
        # prints are the fit's: the loss is bitwise their squares summed in
        # year order, with and without the proxy, on the data's time scale
        # and, through the coefficient map, on a wider one.
        rng = np.random.default_rng(17)
        truth = np.append(RECOVERY_THETA, -1.0)
        for seed in (1, 2, 3):
            with_proxy, _ = generate(recovery_scenario(noise_sd=0.05, seed=seed, p_intl=True))
            without = ObservedSeries(with_proxy.grid, with_proxy.b, with_proxy.m, with_proxy.p)
            wider = YearGrid(with_proxy.grid.t_min - 10, with_proxy.grid.t_max + 7)
            for obs in (with_proxy, without)[:1 if spec.forcing else 2]:
                for scale_grid in (None, wider):
                    theta = (truth + rng.normal(0.0, 0.5, truth.size))[superset_mask(spec)]
                    mapped = rescale_coefficients(theta, spec, scale_grid or obs.grid, obs.grid)
                    traj = eval_param_trajectories(mapped, spec, obs.grid)
                    res = residuals(obs, simulate(obs, traj, spec))
                    sum_m = sum_p = 0.0
                    for r_m, r_p in zip(res.r_m[1:], res.r_p[1:]):
                        sum_m += r_m * r_m
                        sum_p += r_p * r_p
                    assert loss(theta, spec, obs, scale_grid) == sum_m + sum_p


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_nonnegative_stocks(seed):
    rng = np.random.default_rng(seed)
    obs, spec, theta, traj = random_instance(rng, forcing=bool(seed % 2))
    sim = simulate(obs, traj, spec)
    assert np.all(sim.stock_m >= 0)
    assert np.all(sim.stock_p >= 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_flow_identity_exact(seed):
    rng = np.random.default_rng(seed)
    obs, spec, theta, traj = random_instance(rng)
    sim = simulate(obs, traj, spec)
    assert np.array_equal(sim.flow_m, traj.gamma_m * sim.stock_m)
    assert np.array_equal(sim.flow_p, traj.gamma_p * sim.stock_p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_exponential_forgetting(seed):
    rng = np.random.default_rng(seed)
    obs, spec, theta, traj = random_instance(rng)
    m0 = obs.m[0] / traj.gamma_m[0]
    p0 = obs.p[0] / traj.gamma_p[0]
    # Perturb the master's stock only: the difference contracts by the
    # exact survival product each year.  Differencing two simulations
    # cancels to roundoff at the stock scale, so the law is checked down
    # to that noise floor only.
    delta = 1.0 + rng.uniform(0, 100)
    base = run_recurrence(obs.b, traj, m0, p0)
    bumped = run_recurrence(obs.b, traj, m0 + delta, p0)
    diff = np.abs(bumped.stock_m - base.stock_m)
    survival = np.concatenate(([1.0], np.cumprod(1.0 - traj.gamma_m[:-1])))
    expected = delta * survival
    noise = 1e-12 * max(1.0, float(np.max(base.stock_m)))
    assert np.allclose(diff, expected, rtol=1e-9, atol=100 * noise)
    mask = expected > 1e6 * noise
    assert np.all(np.diff(diff[mask]) < 0)
    # Perturb the PhD stock only: |difference| decreases monotonically.
    bumped_p = run_recurrence(obs.b, traj, m0, p0 + delta)
    diff_p = np.abs(bumped_p.stock_p - base.stock_p)
    noise_p = 1e-12 * max(1.0, float(np.max(base.stock_p)))
    expected_p = delta * np.concatenate(([1.0], np.cumprod(1.0 - traj.gamma_p[:-1])))
    mask_p = expected_p > 1e6 * noise_p
    assert np.all(np.diff(diff_p[mask_p]) < 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_property_affine_superposition(seed):
    rng = np.random.default_rng(seed)
    obs, spec, theta, traj = random_instance(rng)
    alpha = rng.uniform(0, 1)
    a = (rng.uniform(1, 1e4), rng.uniform(1, 1e4))
    b_init = (rng.uniform(1, 1e4), rng.uniform(1, 1e4))
    mix = (alpha * a[0] + (1 - alpha) * b_init[0], alpha * a[1] + (1 - alpha) * b_init[1])
    sim_a = run_recurrence(obs.b, traj, *a)
    sim_b = run_recurrence(obs.b, traj, *b_init)
    sim_mix = run_recurrence(obs.b, traj, *mix)
    assert np.allclose(sim_mix.stock_m, alpha * sim_a.stock_m + (1 - alpha) * sim_b.stock_m,
                       rtol=1e-9, atol=1e-9)
    assert np.allclose(sim_mix.stock_p, alpha * sim_a.stock_p + (1 - alpha) * sim_b.stock_p,
                       rtol=1e-9, atol=1e-9)
