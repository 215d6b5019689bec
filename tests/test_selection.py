import concurrent.futures
import math

import numpy as np
import pytest

from flowfit import (
    FitOptions,
    ModelSpec,
    YearGrid,
    default_starts,
    enumerate_grid,
    generate,
    information_criteria,
    minimize_bfgs,
    run_grid,
    select_best,
)
from flowfit import estimation, selection
from flowfit.estimation import FitResult
from flowfit.selection import GridEntry, _flag_nested_misses

from _reference import N_EFF, N_TOTAL, REFERENCE_GRID
from _scenarios import recovery_scenario


def reference_entries():
    """GridEntry list built from the published comparison values."""
    entries = []
    for deg_gamma, deg_rho, forcing, k, sse, aic, daic, bic, dbic in REFERENCE_GRID:
        entries.append(
            GridEntry(
                spec=ModelSpec(deg_gamma, deg_rho, forcing),
                k=k, aic=aic, bic=bic, delta_aic=daic, delta_bic=dbic,
                status="ok",
            )
        )
    return entries


class TestInformationCriteria:
    @pytest.mark.parametrize("row", REFERENCE_GRID)
    def test_reference_table_reproduced(self, row):
        _, _, _, k, sse, aic_ref, _, bic_ref, _ = row
        aic, bic = information_criteria(sse, k, N_TOTAL)
        assert aic == pytest.approx(aic_ref, abs=0.5)
        assert bic == pytest.approx(bic_ref, abs=0.5)

    def test_unit_ratio(self):
        aic, bic = information_criteria(98.0, 4, 98)
        assert aic == pytest.approx(8.0, abs=1e-12)
        assert bic == pytest.approx(4 * math.log(98), abs=1e-12)

    def test_perfect_fit_rejected(self):
        with pytest.raises(ValueError, match="perfect fit"):
            information_criteria(0.0, 5, 98)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            information_criteria(-1.0, 5, 98)
        with pytest.raises(ValueError):
            information_criteria(1.0, 0, 98)
        with pytest.raises(ValueError):
            information_criteria(1.0, 5, 0)

    def test_strictly_increasing_in_k(self):
        values = [information_criteria(0.5, k, 98) for k in range(1, 20)]
        aics = [v[0] for v in values]
        bics = [v[1] for v in values]
        assert all(b > a for a, b in zip(aics, aics[1:]))
        assert all(b > a for a, b in zip(bics, bics[1:]))

    def test_bic_penalizes_more_when_log_n_exceeds_two(self):
        assert math.log(98) > 2
        for k in range(2, 17):
            aic, bic = information_criteria(0.5, k, 98)
            aic1, bic1 = information_criteria(0.5, k - 1, 98)
            assert (bic - bic1) > (aic - aic1)

    def test_n_eff_does_not_change_winner(self):
        best = {}
        for n in (N_TOTAL, N_EFF):
            scored = [
                (information_criteria(sse, k, n), (dg, dr, f))
                for dg, dr, f, k, sse, *_ in REFERENCE_GRID
            ]
            best[n] = (
                min(scored, key=lambda t: t[0][0])[1],
                min(scored, key=lambda t: t[0][1])[1],
            )
        assert best[N_TOTAL] == best[N_EFF] == ((2, 2, False), (2, 2, False))


class TestParameterCounts:
    def test_reference_k_column_exact(self):
        for deg_gamma, deg_rho, forcing, k, *_ in REFERENCE_GRID:
            assert ModelSpec(deg_gamma, deg_rho, forcing).n_params == k

    def test_grid_covers_reference_specs(self):
        ours = {(s.deg_gamma, s.deg_rho, s.forcing) for s in enumerate_grid()}
        published = {(dg, dr, f) for dg, dr, f, *_ in REFERENCE_GRID}
        assert ours == published
        assert len(enumerate_grid()) == 18


class TestSelectBest:
    def test_reference_grid_winner(self):
        entries = reference_entries()
        for criterion in ("aic", "bic"):
            winner = select_best(entries, criterion)
            assert winner.spec == ModelSpec(2, 2, False)

    def test_singleton(self):
        entry = reference_entries()[3]
        assert select_best([entry]) is entry

    def test_parsimony_tie_break(self):
        a = GridEntry(spec=ModelSpec(0, 0, False), k=5, aic=-100.0, bic=-90.0, status="ok")
        b = GridEntry(spec=ModelSpec(1, 0, False), k=7, aic=-100.0, bic=-95.0, status="ok")
        assert select_best([b, a], "aic") is a

    def test_all_failed(self):
        entry = GridEntry(spec=ModelSpec(0, 0), k=5, status="failed", reason="x")
        with pytest.raises(ValueError, match="no successfully fitted"):
            select_best([entry])

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            select_best(reference_entries(), "rmse")


class TestNestedMissFlag:
    @staticmethod
    def entry(spec, sse):
        fit = FitResult(theta_hat=np.zeros(spec.n_params), sse=sse, converged=True,
                        n_iterations=1, n_starts_used=1, grad_norm_at_opt=0.0)
        return GridEntry(spec=spec, k=spec.n_params, fit=fit, status="ok")

    def test_forcing_fit_worse_than_nested_base_is_flagged(self):
        base = self.entry(ModelSpec(2, 2, False), sse=0.10)
        good = self.entry(ModelSpec(2, 2, True), sse=0.10)
        miss = self.entry(ModelSpec(1, 1, True), sse=0.35)
        miss_base = self.entry(ModelSpec(1, 1, False), sse=0.30)
        # A higher degree stuck above a lower one it nests, without forcing.
        degree_miss = self.entry(ModelSpec(2, 1, False), sse=0.31)
        _flag_nested_misses([base, good, miss_base, miss, degree_miss])
        assert miss.local_optimum_warning
        assert degree_miss.local_optimum_warning
        assert not good.local_optimum_warning
        assert not base.local_optimum_warning
        assert not miss_base.local_optimum_warning


@pytest.fixture(scope="module")
def quick_options():
    # Structural grid checks only need rough fits.
    return FitOptions(n_starts=1, max_iter=60)


@pytest.fixture(scope="module")
def small_obs_with_intl():
    obs, _ = generate(recovery_scenario(grid=YearGrid(1980, 1999), p_intl=True))
    return obs


@pytest.fixture(scope="module")
def small_obs_plain():
    obs, _ = generate(recovery_scenario(grid=YearGrid(1980, 1999)))
    return obs


class TestRunGrid:
    def test_cardinality_with_proxy(self, small_obs_with_intl, quick_options):
        entries = run_grid(small_obs_with_intl, quick_options)
        assert len(entries) == 18
        assert all(e.status == "ok" for e in entries)

    def test_cardinality_without_proxy(self, small_obs_plain, quick_options):
        entries = run_grid(small_obs_plain, quick_options)
        assert len(entries) == 18
        ok = [e for e in entries if e.status == "ok"]
        skipped = [e for e in entries if e.status == "skipped"]
        assert len(ok) == 9
        assert len(skipped) == 9
        assert all("p_intl" in e.reason for e in skipped)
        assert all(e.spec.forcing for e in skipped)

    def test_sorted_by_aic_with_deltas(self, small_obs_plain, quick_options):
        entries = run_grid(small_obs_plain, quick_options)
        ok = [e for e in entries if e.status == "ok"]
        aics = [e.aic for e in ok]
        assert aics == sorted(aics)
        assert ok[0].delta_aic == 0.0
        assert all(e.delta_aic >= 0 for e in ok)
        assert sum(1 for e in ok if e.delta_aic == 0.0) == 1
        assert min(e.delta_bic for e in ok) == 0.0

    def test_reproducible_with_same_seed(self, small_obs_plain, quick_options):
        a = run_grid(small_obs_plain, quick_options)
        b = run_grid(small_obs_plain, quick_options)
        for x, y in zip(a, b):
            assert x.spec == y.spec
            if x.fit is not None:
                assert np.array_equal(x.fit.theta_hat, y.fit.theta_hat)
                assert x.fit.sse == y.fit.sse

    def test_parallel_matches_serial(self, small_obs_with_intl, quick_options, monkeypatch):
        serial = run_grid(small_obs_with_intl, quick_options, jobs=1)
        # 18 lanes in chunks of 5: a real 2-worker pool runs the bound kernels.
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(estimation, "LANE_CHUNK", 5)
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 2)
        # fit_lane_set imports the pool class when it starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers)
                            or real_pool(max_workers=max_workers))
        parallel = run_grid(small_obs_with_intl, quick_options, jobs=2)
        assert pools == [2]
        for x, y in zip(serial, parallel):
            assert x.spec == y.spec
            assert x.aic == y.aic
            assert np.array_equal(x.fit.theta_hat, y.fit.theta_hat)

    def test_n_override(self, small_obs_plain, quick_options):
        default_n = run_grid(small_obs_plain, quick_options)
        explicit = run_grid(small_obs_plain, quick_options, n=2 * 20)
        for x, y in zip(default_n, explicit):
            assert x.aic == y.aic
        n_eff = run_grid(small_obs_plain, quick_options, n=small_obs_plain.grid.n_eff)
        assert n_eff[0].aic != default_n[0].aic

    def test_cells_with_too_few_residuals_are_skipped(self, quick_options, monkeypatch):
        # 5 years with the proxy: N_eff = 8 fits k = 5, 6 and 7 only.
        obs, _ = generate(recovery_scenario(grid=YearGrid(1990, 1994), p_intl=True))
        fitted = []
        real = selection.fit_lane_set

        def spy(jobs, *args, **kwargs):
            fitted.extend(job.spec for job in jobs)
            return real(jobs, *args, **kwargs)

        monkeypatch.setattr(selection, "fit_lane_set", spy)
        entries = run_grid(obs, quick_options)
        assert sorted(spec.n_params for spec in fitted) == [5, 6, 7]
        skipped = [e for e in entries if e.status == "skipped"]
        assert len(skipped) == 15
        assert all(e.k >= 8 and e.fit is None for e in skipped)
        assert all(e.reason == f"series too short: N_eff=8 <= k={e.k}" for e in skipped)



class TestJobsBound:
    @pytest.fixture
    def requested(self, monkeypatch):
        """max_workers of every pool run_grid asks for; the cells run in process."""
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return seen

    @pytest.fixture(scope="class")
    def tiny_options(self):
        return FitOptions(n_starts=1, max_iter=2)

    def test_workers_clamped_to_cpus_and_tasks(self, requested, monkeypatch, small_obs_plain,
                                              small_obs_with_intl, tiny_options):
        # One start per cell in chunks of two lanes: the unit of work is a chunk.
        monkeypatch.setattr(estimation, "LANE_CHUNK", 2)
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 4)
        run_grid(small_obs_plain, tiny_options, jobs=10_000)
        run_grid(small_obs_plain, tiny_options, jobs=3)
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: 64)
        run_grid(small_obs_plain, tiny_options, jobs=10_000)       # 9 lanes, 5 chunks
        run_grid(small_obs_with_intl, tiny_options, jobs=10_000)   # 18 lanes, 9 chunks
        assert requested == [4, 3, 5, 9]

    def test_single_worker_runs_serially(self, requested, monkeypatch, small_obs_plain,
                                         tiny_options):
        monkeypatch.setattr(estimation.os, "cpu_count", lambda: None)
        entries = run_grid(small_obs_plain, tiny_options, jobs=8)
        assert requested == []
        assert sum(e.status == "ok" for e in entries) == 9

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, requested, small_obs_plain, tiny_options, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_grid(small_obs_plain, tiny_options, jobs=jobs)
        assert requested == []


class TestOneStartsRule:
    """Every fit of a spec starts from its grid cell's seeded starts."""

    OPTIONS = FitOptions(n_starts=3, max_iter=200)

    @pytest.fixture(scope="class")
    def obs_and_grid(self):
        obs, _ = generate(recovery_scenario(p_intl=True, noise_sd=0.02, seed=1))
        return obs, {entry.spec: entry.fit for entry in run_grid(obs, self.OPTIONS)}

    def test_starts_are_seeded_by_the_specs_grid_index(self, obs_and_grid):
        obs, _ = obs_and_grid
        opts = FitOptions(n_starts=3, seed=7, start_sd=0.3)
        for index, spec in enumerate(enumerate_grid()):
            want = np.stack(default_starts(spec, obs, n_starts=3, seed=7 + index, start_sd=0.3))
            assert np.array_equal(selection.spec_starts(spec, obs, opts), want)

    @pytest.mark.parametrize("spec", enumerate_grid(), ids=ModelSpec.label)
    def test_fit_stage_fit_is_the_grid_row(self, obs_and_grid, spec):
        # The fit stage fits the spec alone from the rule's starts, the grid
        # among every cell's lanes; a lane's fit does not depend on its batch.
        obs, grid = obs_and_grid
        fit = minimize_bfgs(spec, obs, selection.spec_starts(spec, obs, self.OPTIONS),
                            self.OPTIONS)
        row = grid[spec]
        assert np.array_equal(fit.theta_hat, row.theta_hat)
        assert (fit.sse, fit.n_iterations, fit.converged) == (
            row.sse, row.n_iterations, row.converged)
