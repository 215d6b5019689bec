"""Seeded inputs, the three workloads and their correctness checks.

Every workload follows one shape: ``setup(seed, workdir)`` builds a state
from the seed alone, ``op(state)`` is the timed unit of work, and
``check(state, out)`` returns a list of problems (empty when the output is
correct).  ``result_sse(state, out)`` gives the fit quality guard.

A workload may draw several datasets from one seed (``datasets``); its ops
take them in turn.  The fitted SSE relative to the truth's varies by tens
of percent with the noise draw, so a run's median over several draws is
steadier than one draw's value.

The scenario mirrors the 49-year recovery scenario used by the test suite
(quadratic-quadratic truth, piecewise bachelor's input, a ``phd_intl``
proxy, noise 0.02); it is restated here so the benchmark depends on the
package's public API only.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import flowfit as ff
from flowfit import FitOptions, ModelSpec, PiecewiseLinearInput, SyntheticScenario, YearGrid, logit

SPEC = ModelSpec(deg_gamma=2, deg_rho=2, forcing=False)
GRID49 = YearGrid(1969, 2017)
WINDOW26 = (1992, 2017)
NOISE_SD = 0.02

THETA_TRUE = np.array([
    logit(0.28), 0.45, -0.25,    # rho_bm
    logit(0.05), 0.20, 0.15,     # rho_bp
    logit(0.35), 0.60, -0.50,    # rho_mp
    logit(0.45), 0.50, 0.30,     # gamma_m
    logit(0.18), 0.35, 0.20,     # gamma_p
])

REPORT_FILES = frozenset({
    "run_report.json", "manifest.json", "trajectories.csv", "residuals.csv",
    "grid.csv", "truncation.csv", "hindcast.csv",
})


@dataclass
class Inputs:
    """What the seed generates: the 49-year series and the 26-year CSV."""

    obs49: ff.ObservedSeries
    csv49: Path
    csv26: Path
    sse_true49: float   # loss of the true parameters on the 49-year series
    sse_true26: float   # same, on the 26-year CSV as the CLI reads it


def make_inputs(seed: int, workdir: Path) -> Inputs:
    """Generate the scenario from ``seed`` and write both input files."""
    scenario = SyntheticScenario(
        grid=GRID49,
        spec=SPEC,
        theta_true=THETA_TRUE.copy(),
        b_input=PiecewiseLinearInput(((1969, 25000), (1980, 12000), (2000, 15000), (2017, 28000))),
        stock_m0=9000.0,
        stock_p0=4000.0,
        noise_sd=NOISE_SD,
        seed=seed,
        p_intl_input=PiecewiseLinearInput(((1969, 100), (2017, 900))),
    )
    obs49, _ = ff.generate(scenario)
    workdir.mkdir(parents=True, exist_ok=True)
    csv49 = workdir / "series49.csv"
    csv26 = workdir / "series26.csv"
    ff.write_series(obs49, csv49)
    ff.write_series(obs49.window(*WINDOW26), csv26)
    # The CSV rounds to 10 significant digits, so the 26-year reference is
    # taken on the file as loaded; the full-sample time scaling makes
    # THETA_TRUE the true trajectories on the window.
    obs26 = ff.load_series(csv26)
    return Inputs(
        obs49=obs49,
        csv49=csv49,
        csv26=csv26,
        sse_true49=ff.loss(THETA_TRUE, SPEC, obs49),
        sse_true26=ff.loss(THETA_TRUE, SPEC, obs26, scale_grid=GRID49),
    )


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Noise seeds of the ``count`` datasets drawn from benchmark seed ``seed``."""
    return [seed * count + j for j in range(count)]


class Workload:
    datasets = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        data = [self.setup_one(make_inputs(s, workdir / f"data{j}"))
                for j, s in enumerate(dataset_seeds(seed, self.datasets))]
        return {"data": data, "turn": -1}

    def prepare(self, state: dict) -> None:
        """Untimed step before each op: move on to the next dataset."""
        state["turn"] += 1

    @staticmethod
    def index(state: dict) -> int:
        """Index of the current op's dataset."""
        return state["turn"] % len(state["data"])

    @classmethod
    def current(cls, state: dict) -> dict:
        """The dataset of the current op."""
        return state["data"][cls.index(state)]


class Fit49(Workload):
    """Multi-start BFGS on the 49-year series: kernel, FD gradient, BFGS only.

    Every start stops at ``max_iter`` on this scenario, so each op makes
    nearly the same number of loss calls (about 15,180) whatever the seed;
    an uncapped fit takes a seed-dependent 77k-134k calls.
    """

    def __init__(self, n_starts: int = 8, max_iter: int = 60, datasets: int = 4):
        self.options = FitOptions(n_starts=n_starts, max_iter=max_iter)
        self.datasets = datasets

    def setup_one(self, inputs: Inputs) -> dict:
        opts = self.options
        starts = ff.default_starts(SPEC, inputs.obs49, n_starts=opts.n_starts, seed=opts.seed,
                                   start_sd=opts.start_sd)
        ff.gradient_fd(starts[0], SPEC, inputs.obs49)   # warm-up
        return {"inputs": inputs, "starts": starts}

    def op(self, state: dict) -> ff.FitResult:
        data = self.current(state)
        return ff.minimize_bfgs(SPEC, data["inputs"].obs49, data["starts"], self.options)

    def check(self, state: dict, fit: ff.FitResult) -> list[str]:
        inputs = self.current(state)["inputs"]
        problems = []
        if not (np.all(np.isfinite(fit.theta_hat)) and np.isfinite(fit.sse)):
            return ["non-finite fit result"]
        if fit.sse > inputs.sse_true49:
            problems.append(f"sse {fit.sse!r} above the true parameters' {inputs.sse_true49!r}")
        recomputed = ff.loss(fit.theta_hat, SPEC, inputs.obs49)
        if abs(recomputed - fit.sse) > 1e-12 * max(1.0, fit.sse):
            problems.append(f"sse {fit.sse!r} disagrees with loss(theta_hat) {recomputed!r}")
        if fit.n_starts_used != self.options.n_starts:
            problems.append(f"{fit.n_starts_used} starts used, expected {self.options.n_starts}")
        if not 0 <= fit.n_iterations <= self.options.max_iter:
            problems.append(f"{fit.n_iterations} iterations outside [0, {self.options.max_iter}]")
        if fit.converged and not fit.grad_norm_at_opt <= self.options.gtol:
            problems.append(f"converged with gradient norm {fit.grad_norm_at_opt!r}")
        return problems

    def result_sse(self, state: dict, fit: ff.FitResult) -> float:
        return fit.sse / self.current(state)["inputs"].sse_true49


@dataclass
class BandsOutput:
    hessian: np.ndarray
    uncertainty: ff.UncertaintyResult
    draws: np.ndarray
    bands: ff.TrajectoryBands


class Bands49(Workload):
    """Hessian, covariance, 4000 draws and 95% bands at a fitted optimum.

    Each dataset's optimum is fitted once in set-up, from the true
    parameters, and counts in ``setup_s``.  No recurrence and no BFGS run in
    the op apart from the Hessian's loss calls.
    """

    def __init__(self, n_draws: int = 4000, level: float = 0.95, datasets: int = 2):
        self.n_draws = n_draws
        self.level = level
        self.datasets = datasets

    def setup_one(self, inputs: Inputs) -> dict:
        fit = ff.minimize_bfgs(SPEC, inputs.obs49, [THETA_TRUE], FitOptions())
        # A start can stop short of gtol (relative-decrease test or a failed
        # line search); a fresh start from where it stopped converges fast.
        for _ in range(2):
            if fit.converged:
                break
            fit = ff.minimize_bfgs(SPEC, inputs.obs49, [fit.theta_hat], FitOptions())
        point = ff.eval_param_trajectories(fit.theta_hat, SPEC, GRID49).as_dict()
        ff.confidence_bands(np.repeat(fit.theta_hat[None, :], 2, axis=0), SPEC, GRID49)  # warm-up
        return {"inputs": inputs, "fit": fit, "point": point}

    def op(self, state: dict) -> BandsOutput:
        data = self.current(state)
        fit = data["fit"]
        obs = data["inputs"].obs49
        hess = ff.numerical_hessian(fit.theta_hat, SPEC, obs)
        unc = ff.covariance(hess, fit.sse, SPEC, obs.grid)
        draws = ff.sample_parameters(unc, fit.theta_hat, n_draws=self.n_draws, seed=0)
        bands = ff.confidence_bands(draws, SPEC, obs.grid, level=self.level)
        return BandsOutput(hessian=hess, uncertainty=unc, draws=draws, bands=bands)

    def check(self, state: dict, out: BandsOutput) -> list[str]:
        problems = []
        hess = out.hessian
        if not np.all(np.isfinite(hess)):
            problems.append("non-finite Hessian")
        elif not np.array_equal(hess, hess.T):
            problems.append("asymmetric Hessian")
        eig = np.linalg.eigvalsh(out.uncertainty.covariance)
        if eig[0] < -1e-10 * max(1.0, float(np.max(np.abs(eig)))):
            problems.append(f"covariance eigenvalue {eig[0]!r} below round-off")
        if out.draws.shape != (self.n_draws, SPEC.n_params) or not np.all(np.isfinite(out.draws)):
            problems.append(f"draws have shape {out.draws.shape} or non-finite values")
        for name, point in self.current(state)["point"].items():
            lo = out.bands.lower[name]
            hi = out.bands.upper[name]
            # A trajectory pinned at the logistic clamp (a routing fraction
            # fitted to zero) legitimately gives a collapsed band there.
            interior = (point > ff.LOGISTIC_CLAMP) & (point < 1.0 - ff.LOGISTIC_CLAMP)
            if not (np.all(lo <= hi) and np.all(lo[interior] < hi[interior])):
                problems.append(f"{name}: lower above upper, or equal to it off the clamp")
            if not (np.all(lo > 0.0) and np.all(hi < 1.0)):
                problems.append(f"{name}: band leaves (0, 1)")
            if not np.all((lo <= point) & (point <= hi)):
                problems.append(f"{name}: point trajectory outside the band")
        return problems

    def result_sse(self, state: dict, out: BandsOutput) -> float:
        data = self.current(state)
        return data["fit"].sse / data["inputs"].sse_true49


@dataclass
class ReportOutput:
    exit_code: int
    files: dict[str, bytes] = field(default_factory=dict)


class Report26(Workload):
    """The whole CLI ``report`` run on the 26-year CSV, with a 2-worker grid.

    Every stage runs (18-cell grid, refit, Hessian and bands, truncation,
    hindcast, writing).  Starts, the iteration cap and the gradient
    tolerance are trimmed so an op fits in a few seconds; the spec is
    fixed to the scenario's so every seed runs the same stages on the same
    model.
    """

    def __init__(self, n_starts: int = 2, truncation_starts: Optional[str] = None,
                 cutoffs: Optional[str] = None, n_draws: int = 4000, jobs: int = 2,
                 datasets: int = 3):
        self.datasets = datasets
        self.n_starts = n_starts
        self.truncation_starts = truncation_starts
        self.cutoffs = cutoffs
        self.n_draws = n_draws
        self.jobs = jobs

    def setup_one(self, inputs: Inputs) -> dict:
        ff.load_series(inputs.csv26)   # warm-up
        return {"inputs": inputs, "out": inputs.csv26.parent / "report", "reference": None}

    def argv(self, data: dict) -> list[str]:
        argv = [
            "report", "--data", str(data["inputs"].csv26), "--out", str(data["out"]),
            "--jobs", str(self.jobs), "--spec", SPEC.label(), "--n-starts", str(self.n_starts),
            "--max-iter", "40", "--gtol", "1e-2", "--n-draws", str(self.n_draws),
        ]
        if self.truncation_starts:
            argv += ["--truncation-starts", self.truncation_starts]
        if self.cutoffs:
            argv += ["--cutoffs", self.cutoffs]
        return argv

    def prepare(self, state: dict) -> None:
        """Move on to the next dataset, with a fresh, empty output directory."""
        super().prepare(state)
        shutil.rmtree(self.current(state)["out"], ignore_errors=True)

    def op(self, state: dict) -> ReportOutput:
        data = self.current(state)
        code = ff.run_cli(self.argv(data))
        files = {p.name: p.read_bytes() for p in sorted(data["out"].iterdir())}
        return ReportOutput(exit_code=code, files=files)

    def check(self, state: dict, out: ReportOutput) -> list[str]:
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}"]
        if set(out.files) != REPORT_FILES:
            return [f"file set {sorted(out.files)} differs from {sorted(REPORT_FILES)}"]
        data = self.current(state)
        if data["reference"] is None:
            data["reference"] = dict(out.files)
        changed = [name for name in sorted(REPORT_FILES) if out.files[name] != data["reference"][name]]
        return [f"{name} differs from the first op's bytes on this dataset" for name in changed]

    def result_sse(self, state: dict, out: ReportOutput) -> float:
        sse = json.loads(out.files["run_report.json"])["fit"]["sse"]
        return sse / self.current(state)["inputs"].sse_true26


def make(name: str, smoke: bool = False):
    """The workload called ``name``; ``smoke`` shrinks it to a quick run."""
    if name == "fit49":
        return Fit49(n_starts=1) if smoke else Fit49()
    if name == "bands49":
        return Bands49(n_draws=200, datasets=1) if smoke else Bands49()
    if name == "report26":
        if smoke:
            return Report26(n_starts=1, truncation_starts="2002", cutoffs="2010", n_draws=200)
        return Report26()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fit49", "bands49", "report26")
