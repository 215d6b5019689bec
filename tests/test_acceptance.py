"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 4 needs the real degree-completion dataset (not
bundled); point FLOWFIT_DEGREES_CSV at the CSV to enable it, otherwise
it is skipped and the synthetic criteria 5-10 stand in.
"""

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import flowfit as ff
from flowfit import estimation, run_cli

from _reference import (
    N_TOTAL,
    PREFERRED_K,
    PREFERRED_SSE,
    REFERENCE_CUTOFFS,
    REFERENCE_GRID,
    REFERENCE_HINDCAST,
    REFERENCE_TRUNCATION,
    fd_hessian,
)
from _scenarios import (
    RECOVERY_SPEC,
    RECOVERY_THETA,
    oracle_recurrence,
    random_instance,
    recovery_scenario,
)

REAL_DATA = os.environ.get("FLOWFIT_DEGREES_CSV")
if not REAL_DATA:
    _default = Path(__file__).parent / "data" / "degrees.csv"
    REAL_DATA = str(_default) if _default.exists() else None


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} FAIL  {label}")
        raise
    print(f"[acceptance] criterion {num:2d} PASS  {label}")


@pytest.fixture(scope="module")
def noise_free():
    obs, truth = ff.generate(recovery_scenario())
    return obs, truth


@pytest.fixture(scope="module")
def recovery_fit(noise_free):
    obs, _ = noise_free
    starts = ff.default_starts(RECOVERY_SPEC, obs, n_starts=4, seed=0)
    return ff.minimize_bfgs(RECOVERY_SPEC, obs, starts, ff.FitOptions(n_starts=4, seed=0))


def test_criterion_1_information_criterion_arithmetic():
    with criterion(1, "published AIC/BIC table reproduced within +/-0.5"):
        for _, _, _, k, sse, aic_ref, _, bic_ref, _ in REFERENCE_GRID:
            aic, bic = ff.information_criteria(sse, k, N_TOTAL)
            assert abs(aic - aic_ref) <= 0.5
            assert abs(bic - bic_ref) <= 0.5


def test_criterion_2_parameter_count_column():
    with criterion(2, "18-spec parameter counts match the published k column"):
        for deg_gamma, deg_rho, forcing, k, *_ in REFERENCE_GRID:
            assert ff.ModelSpec(deg_gamma, deg_rho, forcing).n_params == k
        grid_specs = {(s.deg_gamma, s.deg_rho, s.forcing) for s in ff.enumerate_grid()}
        assert grid_specs == {(dg, dr, f) for dg, dr, f, *_ in REFERENCE_GRID}


def test_criterion_3_rmse_bridge():
    with criterion(3, "log-RMSE 0.0363 and ~3.7% multiplicative error"):
        rmse = ff.log_rmse(PREFERRED_SSE, N_TOTAL)
        assert 0.0360 <= rmse <= 0.0366
        assert 0.036 <= math.exp(rmse) - 1 <= 0.038


@pytest.mark.skipif(REAL_DATA is None, reason="degree dataset not supplied "
                    "(set FLOWFIT_DEGREES_CSV); criteria 5-10 substitute")
def test_criterion_4_full_data_reproduction():
    with criterion(4, "full-data fit, selection, truncation, hindcast reproduced"):
        obs = ff.load_series(REAL_DATA)
        opts = ff.FitOptions(n_starts=8, seed=0)
        entries = ff.run_grid(obs, opts, jobs=2)
        best_aic = ff.select_best(entries, "aic")
        best_bic = ff.select_best(entries, "bic")
        preferred = ff.ModelSpec(2, 2, False)
        assert best_aic.spec == preferred
        assert best_bic.spec == preferred
        assert best_aic.fit.sse <= 0.135
        rows = ff.truncation_study(obs, preferred, sorted(REFERENCE_TRUNCATION), opts)
        for row in rows:
            _, rmse_ref = REFERENCE_TRUNCATION[row.start_year]
            assert abs(row.pooled_log_rmse - rmse_ref) <= 0.003
        hindcast = ff.rolling_origin_hindcast(obs, preferred, REFERENCE_CUTOFFS, opts)
        assert abs(hindcast.rmse_pooled - REFERENCE_HINDCAST["pooled"]) <= 0.01


def test_criterion_5_noise_free_recovery(noise_free, recovery_fit):
    with criterion(5, "noise-free synthetic refit: SSE <= 1e-10, flows to 1e-5"):
        obs, truth = noise_free
        assert recovery_fit.sse <= 1e-10
        traj = ff.eval_param_trajectories(recovery_fit.theta_hat, RECOVERY_SPEC, obs.grid)
        sim = ff.simulate(obs, traj, RECOVERY_SPEC)
        assert np.allclose(sim.flow_m, truth.flow_m, rtol=1e-5, atol=0)
        assert np.allclose(sim.flow_p, truth.flow_p, rtol=1e-5, atol=0)


def test_criterion_6_selection_recovery(noise_free):
    with criterion(6, "grid ranks the generating spec first by AIC"):
        obs, _ = noise_free
        entries = ff.run_grid(obs, ff.FitOptions(n_starts=4, seed=0), jobs=2)
        by_spec = {e.spec: e for e in entries if e.status == "ok"}
        assert by_spec[RECOVERY_SPEC].delta_aic == 0.0
        for spec, entry in by_spec.items():
            if spec.deg_gamma == 0:
                assert entry.delta_aic > 10.0


def test_criterion_7_oracle_equivalence():
    with criterion(7, "simulate matches an independent recurrence to 1e-12"):
        rng = np.random.default_rng(20250810)
        for trial in range(100):
            forcing = trial % 3 == 0
            obs, spec, theta, traj = random_instance(rng, forcing=forcing, n_years=20)
            sim = ff.simulate(obs, traj, spec)
            m0 = obs.m[0] / traj.gamma_m[0]
            p0 = obs.p[0] / traj.gamma_p[0]
            oracle = oracle_recurrence(
                obs.b, traj.rho_bm, traj.rho_bp, traj.rho_mp,
                traj.gamma_m, traj.gamma_p, m0, p0,
                lam=traj.lam, p_intl=obs.p_intl if forcing else None,
            )
            for got, want in zip(
                (sim.stock_m, sim.stock_p, sim.flow_m, sim.flow_p), oracle
            ):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_criterion_8_invariant_suite():
    with criterion(8, "model invariants hold over 1000 random instances"):
        rng = np.random.default_rng(20250811)
        checked = 0
        for _ in range(1000):
            forcing = bool(rng.random() < 0.3)
            obs, spec, theta, traj = random_instance(rng, forcing=forcing)
            sim = ff.simulate(obs, traj, spec)

            # nonnegative latent stocks
            assert np.all(sim.stock_m >= 0) and np.all(sim.stock_p >= 0)
            # exact flow identities
            assert np.array_equal(sim.flow_m, traj.gamma_m * sim.stock_m)
            assert np.array_equal(sim.flow_p, traj.gamma_p * sim.stock_p)
            # first-year residual anchoring
            res = ff.residuals(obs, sim)
            assert res.r_m[0] == 0.0 and res.r_p[0] == 0.0

            # exponential forgetting: exact survival product for the
            # master's stock, checked above the float cancellation floor
            m0 = obs.m[0] / traj.gamma_m[0]
            p0 = obs.p[0] / traj.gamma_p[0]
            delta = 1.0 + rng.uniform(0, 50)
            p_intl = obs.p_intl if forcing else None
            base = ff.run_recurrence(obs.b, traj, m0, p0, p_intl=p_intl)
            bumped = ff.run_recurrence(obs.b, traj, m0 + delta, p0, p_intl=p_intl)
            diff = np.abs(bumped.stock_m - base.stock_m)
            expected = delta * np.concatenate(
                ([1.0], np.cumprod(1.0 - traj.gamma_m[:-1]))
            )
            noise = 1e-12 * max(1.0, float(np.max(base.stock_m)))
            assert np.allclose(diff, expected, rtol=1e-9, atol=100 * noise)
            mask = expected > 1e6 * noise
            assert np.all(np.diff(diff[mask]) < 0)

            # affine superposition in the initial state
            alpha = rng.uniform(0, 1)
            other = (rng.uniform(1, 1e4), rng.uniform(1, 1e4))
            sim_o = ff.run_recurrence(obs.b, traj, *other, p_intl=p_intl)
            mix = ff.run_recurrence(
                obs.b, traj,
                alpha * m0 + (1 - alpha) * other[0],
                alpha * p0 + (1 - alpha) * other[1],
                p_intl=p_intl,
            )
            assert np.allclose(
                mix.stock_m, alpha * base.stock_m + (1 - alpha) * sim_o.stock_m,
                rtol=1e-9, atol=1e-9,
            )
            assert np.allclose(
                mix.stock_p, alpha * base.stock_p + (1 - alpha) * sim_o.stock_p,
                rtol=1e-9, atol=1e-9,
            )

            # loss totality for arbitrary finite parameters, on the lane
            # kernel (``loss``) and the list kernel alike
            wild = rng.uniform(-60, 60, size=spec.n_params)
            assert np.isfinite(ff.loss(wild, spec, obs))
            assert np.isfinite(estimation._Objective(spec, obs, None).value(wild))
            checked += 1
        assert checked >= 1000


def test_criterion_9_curvature_machinery():
    with criterion(9, "Hessian recovery, covariance identity, sigma2 exact"):
        rng = np.random.default_rng(42)
        a_mat = rng.normal(size=(6, 6))
        a_mat = a_mat @ a_mat.T + 6 * np.eye(6)
        f = lambda x: float(x @ a_mat @ x)
        hess = fd_hessian(f, rng.normal(size=6))
        assert np.max(np.abs(hess - 2 * a_mat)) / np.max(np.abs(2 * a_mat)) <= 1e-4

        grid = ff.YearGrid(1969, 2017)
        spec = ff.ModelSpec(2, 2, False)
        b_mat = rng.normal(size=(15, 15))
        spd = b_mat @ b_mat.T + 15 * np.eye(15)
        unc = ff.covariance(spd, PREFERRED_SSE, spec, grid)
        assert not unc.regularization_applied
        product = unc.covariance @ spd
        assert np.max(np.abs(product - 2 * unc.sigma2_hat * np.eye(15))) <= 1e-8
        assert unc.sigma2_hat == PREFERRED_SSE / (96 - PREFERRED_K)


def test_criterion_10_band_sanity():
    with criterion(10, "bands collapse at zero covariance, stay in (0,1), moments ok"):
        grid = ff.YearGrid(1969, 2017)
        draws = np.tile(RECOVERY_THETA, (10, 1))
        bands = ff.confidence_bands(draws, RECOVERY_SPEC, grid)
        traj = ff.eval_param_trajectories(RECOVERY_THETA, RECOVERY_SPEC, grid)
        for name, vals in traj.as_dict().items():
            assert np.allclose(bands.lower[name], vals, atol=1e-14)
            assert np.allclose(bands.upper[name], vals, atol=1e-14)

        rng = np.random.default_rng(0)
        spread = RECOVERY_THETA + rng.normal(0, 1.5, size=(2000, RECOVERY_THETA.size))
        wide = ff.confidence_bands(spread, RECOVERY_SPEC, grid)
        for name in wide.lower:
            assert np.all(wide.lower[name] > 0)
            assert np.all(wide.upper[name] < 1)
            assert np.all(wide.lower[name] <= wide.upper[name])

        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        unc = ff.UncertaintyResult(np.eye(2), 1.0, cov, False)
        theta = np.array([0.3, -0.7])
        sample = ff.sample_parameters(unc, theta, n_draws=100_000, seed=7)
        mean_err = np.abs(sample.mean(axis=0) - theta)
        assert np.all(mean_err <= 4 * np.sqrt(np.diag(cov)) / math.sqrt(1e5))
        sample_cov = np.cov(sample.T)
        assert np.max(np.abs(sample_cov - cov) / np.abs(cov)) <= 0.05


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical reports on rerun, serial == parallel"):
        data = tmp_path / "data.csv"
        obs, _ = ff.generate(recovery_scenario(grid=ff.YearGrid(1985, 2004)))
        ff.write_series(obs, data)

        out = tmp_path / "report"
        argv = ["report", "--data", str(data), "--spec", "2,2,none",
                "--out", str(out), "--n-starts", "2", "--max-iter", "300",
                "--n-draws", "300", "--truncation-starts", "1990",
                "--cutoffs", "1995,1999"]
        assert run_cli(argv) in (0, 2)
        first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert run_cli(argv) in (0, 2)
        second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert first == second

        # Parallel workers must not change any result; only the config
        # echo may differ (it records the jobs setting).
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        for jobs, dest in (("1", serial_out), ("2", parallel_out)):
            code = run_cli(["grid", "--data", str(data), "--out", str(dest),
                            "--n-starts", "2", "--max-iter", "300",
                            "--jobs", jobs])
            assert code in (0, 2)
        assert (serial_out / "grid.csv").read_bytes() == \
            (parallel_out / "grid.csv").read_bytes()
