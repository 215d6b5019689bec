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
import mmap
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowfit as ff
from flowfit import estimation, model
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


class _LogRecorder:
    """``numpy`` as ``model`` sees it, keeping each array ``np.log`` is given (the flows)."""

    def __init__(self):
        self.logged = []

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x, *args, **kwargs):
        self.logged.append(x)
        return np.log(x, *args, **kwargs)


@pytest.mark.parametrize("windowed", [False, True], ids=["one_window", "of_windows"])
@pytest.mark.parametrize("n_lanes", [2, 8, 33])
def test_kernel_blocks_are_c_ordered(monkeypatch, n_lanes, windowed):
    # The predictors are built in C-ordered buffers (a ufunc's own output
    # would follow the lanes-first coefficients' strides), so the stock and
    # flow blocks, and every array the scans derive from them, are too.
    if windowed:
        kernel = LaneKernel.of_windows([(OBS.window(OBS.grid.t_min, 1995), None),
                                        (OBS, ff.YearGrid(1960, 2020)),
                                        (OBS.window(1980, OBS.grid.t_max), None)],
                                       np.arange(n_lanes) % 3)
        # The kernel holds each lane's inputs, gathered once, lane axis last.
        assert kernel.has_intl.shape == (n_lanes,)
        assert all(a.shape[-1] == n_lanes and a.flags.c_contiguous for a in kernel.inputs)
        narrowed = kernel.lanes(np.arange(n_lanes) % 2 == 0)
        assert all(a.shape[-1] == (n_lanes + 1) // 2 and a.flags.c_contiguous
                   for a in narrowed.inputs)
    else:
        kernel = LaneKernel(OBS)
        assert kernel.lanes(np.arange(n_lanes) % 2 == 0) is kernel
    s, s2 = kernel.inputs[:2]
    thetas, masks = mixed_lanes(n_lanes, seed=n_lanes)
    predictors, scanned = [], []
    logistic, scan = model._clamped_logistic, model._affine_scan

    def spy_logistic(eta, numerator=None):
        predictors.append((eta, eta.copy()))
        return logistic(eta, numerator)

    def spy_scan(steps):
        scanned.append(steps)
        return scan(steps)

    kernel(thetas, masks)   # the spied call below runs in the kernel's kept workspace
    recorder = _LogRecorder()
    monkeypatch.setattr(model, "_clamped_logistic", spy_logistic)
    monkeypatch.setattr(model, "_affine_scan", spy_scan)
    monkeypatch.setattr(model, "np", recorder)
    kernel(thetas, masks)
    monkeypatch.undo()

    (eta, eta_values), = predictors
    assert eta.shape == (5, kernel.inputs[0].shape[0], n_lanes)
    assert eta.flags.c_contiguous
    # Bitwise the broadcast sum it replaces, (c0 + c1 s) + c2 s^2.
    coef = np.where(masks, thetas, 0.0)[:, :-1].T.reshape(5, 3, 1, n_lanes)
    assert_bitwise(eta_values, coef[:, 0] + coef[:, 1] * s + coef[:, 2] * s2)
    # The two forward scans run in the stock blocks, then the two adjoint
    # scans elsewhere; every view a scan step reads or writes is C-ordered.
    (flows,) = recorder.logged
    stocks = kernel._workspace.stocks
    assert stocks.shape == flows.shape == (2,) + eta.shape[1:]
    assert stocks.flags.c_contiguous and flows.flags.c_contiguous
    assert len(scanned) == 4
    for h, steps in enumerate(scanned[:2]):
        assert all(np.shares_memory(head, stocks[h]) and np.shares_memory(tail, stocks[h])
                   for _, tail, _, head in steps)
    assert not any(np.shares_memory(head, stocks) for steps in scanned[2:] for *_, head in steps)
    assert all(a.flags.c_contiguous for steps in scanned for step in steps for a in step)


WINDOWS = [(OBS.window(OBS.grid.t_min, 1995), None), (OBS, ff.YearGrid(1960, 2020)),
           (OBS.window(1980, OBS.grid.t_max), None)]


def test_narrowed_kernels_work_in_one_arena():
    # A kernel's first call works in buffers it drops on return.  From the
    # second call on, the kernel and every kernel narrowed from it work in
    # one mapped arena, as prefixes of its flat buffers; a wider call grows
    # it for all of them.
    thetas, masks = mixed_lanes(12, seed=3)
    kernel = LaneKernel.of_windows(WINDOWS, np.arange(12) % 3)
    narrowed = kernel.lanes(np.arange(12) < 7)
    assert narrowed._arena is kernel._arena
    kernel(thetas, masks)
    assert kernel._workspace is None and not kernel._arena.buffers
    kernel(thetas, masks)
    buffers = kernel._arena.buffers
    owner = buffers["p"]
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(getattr(owner, "obj", owner), mmap.mmap)
    narrowed(thetas[:7], masks[:7])
    assert kernel._arena.buffers is buffers
    work = narrowed._workspace
    assert np.shares_memory(work.p, buffers["p"]) and work.p.flags.c_contiguous
    assert work.p.shape == (5, OBS.grid.n_years, 7)
    one = LaneKernel(OBS)
    one(thetas[:3], masks[:3])
    one(thetas[:3], masks[:3])
    small = one._arena.buffers
    one(thetas, masks)
    assert one._arena.buffers is not small and one._arena.width == 12
    assert np.shares_memory(one._workspace.p, one._arena.buffers["p"])


def test_workspace_is_not_pickled():
    # After its first call a kernel keeps its workspace and arena; they are
    # not pickled.
    thetas, masks = mixed_lanes(9, seed=2)
    for kernel in (LaneKernel(OBS), LaneKernel.of_windows(WINDOWS, np.arange(9) % 3)):
        size = len(pickle.dumps(kernel))
        kernel(thetas, masks)
        values, grads = kernel(thetas, masks)
        assert kernel._workspace is not None and kernel._arena.buffers
        assert len(pickle.dumps(kernel)) == size
        copy = pickle.loads(pickle.dumps(kernel))
        for got, want in zip(copy(thetas, masks), (values, grads)):
            assert_bitwise(got, want)


@st.composite
def call_sequences(draw):
    """A kernel kind and the lanes of each call, forcing and unforced batches alternating."""
    windowed = draw(st.booleans())
    forced = draw(st.booleans())
    calls = []
    for _ in range(draw(st.integers(3, 6))):
        pool = FORCED_LANES if forced else UNFORCED_LANES
        calls.append(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2 * len(pool))))
        forced = not forced
    return windowed, calls


POOL_THETAS, POOL_MASKS = mixed_lanes(24, seed=11)
FORCED_LANES = [int(i) for i in np.flatnonzero(POOL_MASKS[:, -1])]
UNFORCED_LANES = [int(i) for i in np.flatnonzero(~POOL_MASKS[:, -1])]
POOL_WINDOW = np.arange(24) % len(WINDOWS)


def test_call_sequence_pool_has_every_kind_of_lane():
    values, _ = LaneKernel(OBS)(POOL_THETAS, POOL_MASKS)
    penalized = values >= PENALTY_PER_INVALID_YEAR
    assert FORCED_LANES and UNFORCED_LANES
    assert penalized[FORCED_LANES].any() and not penalized.all()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=call_sequences())
def test_no_state_passes_between_calls(case):
    # Calls on kernels that share one arena, at changing widths and with
    # and without forcing lanes, each equal the call on a fresh kernel, and
    # never touch what an earlier call returned.  (The first call's buffers
    # are dropped; from the third call on the arena holds an earlier call's
    # values.)
    windowed, calls = case
    base = LaneKernel.of_windows(WINDOWS, POOL_WINDOW) if windowed else LaneKernel(OBS)
    returned = []
    for lanes in calls:
        index = np.array(lanes)
        got = base.lanes(index)(POOL_THETAS[index], POOL_MASKS[index])
        fresh = (LaneKernel.of_windows(WINDOWS, POOL_WINDOW[index]) if windowed
                 else LaneKernel(OBS))
        for a, b in zip(got, fresh(POOL_THETAS[index], POOL_MASKS[index])):
            assert_bitwise(a, b)
        for array, copy in returned:
            assert_bitwise(array, copy)
        returned += [(a, a.copy()) for a in got]


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


# Objectives of ``ToyKernel``'s lanes, as value and gradient of a (16,)
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


class ToyKernel:
    """A stand-in for :class:`LaneKernel`: lane i is objective ``list(TOYS)[kind[i]]``."""

    def __init__(self, kind):
        self.kind = kind

    def lanes(self, index):
        return ToyKernel(self.kind[index])

    def __call__(self, x, mask):
        names = list(TOYS)
        values = np.empty(len(x))
        grads = np.zeros_like(x)
        for row, k in enumerate(self.kind):
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

    together = bfgs_lanes(ToyKernel(kind), x0, mask, max_iter=50)
    exhausted = kind == names.index("exhausted")
    assert np.all(together.n_iterations[exhausted] == 0)
    assert not together.converged[exhausted].any()
    assert np.array_equal(together.x[exhausted], x0[exhausted])
    assert np.all(together.n_iterations[~exhausted] > 0)
    assert together.converged[kind == names.index("moves")].all()
    for lane in range(len(kind)):
        alone = bfgs_lanes(ToyKernel(kind[lane:lane + 1]), x0[lane:lane + 1],
                           mask[lane:lane + 1], max_iter=50)
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
    # Fewer starts run one by one on the list kernel (bands49's set-up fits).
    for few in range(1, estimation.LANE_MIN_STARTS):
        calls.clear()
        fit = ff.minimize_bfgs(spec, obs49, ff.default_starts(spec, obs49, n_starts=few), opts)
        assert calls == ["list"] * few
        assert fit.sse == ff.loss(fit.theta_hat, spec, obs49)
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
