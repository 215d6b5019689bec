"""The lane path: the batched scan kernel, the ticked BFGS and the lane-chunked grid.

The list-level kernel (``_reference._Objective``, a sequential oracle)
is the reference for :class:`LaneKernel`, on the inputs of
``test_kernel_properties.py``; ``loss`` and ``loss_gradient`` are the
kernel's one-lane value and gradient, bit for bit.
A lane's value, gradient and iterates must not depend on the other lanes
it runs with, bit for bit, so the grid's chunking and ``--jobs`` cannot
change a result.
"""

import collections
import contextlib
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowfit as ff
from flowfit import estimation, model
from flowfit.estimation import bfgs_lanes, bfgs_minimize
from flowfit.model import LaneKernel, embed, superset_mask

from _reference import _Objective
from _scenarios import recovery_scenario
from test_kernel_properties import KERNEL, OBS, SPECS, cases


def lane_eval(spec, obs, theta, scale_grid=None):
    """Value and gradient of one lane, the gradient in ``spec``'s coefficients."""
    mask = superset_mask(spec)
    values, grads = LaneKernel(obs, scale_grid)(embed(theta, spec)[None], mask[None])
    return float(values[0]), grads[0][mask]


def assert_matches_list_kernel(spec, obs, theta, scale_grid):
    value, grad = lane_eval(spec, obs, theta, scale_grid)
    objective = _Objective(spec, obs, scale_grid)
    want = objective.value(theta)
    want_grad = objective.gradient(theta)
    assert ff.loss(theta, spec, obs, scale_grid) == value
    assert np.array_equal(ff.loss_gradient(theta, spec, obs, scale_grid), grad, equal_nan=True)
    if want == math.inf:
        # An invalid point: both kernels give +inf and a nan gradient.
        assert value == want and np.all(np.isnan(grad)) and np.all(np.isnan(want_grad))
        return
    assert math.isfinite(value) and np.all(np.isfinite(grad))
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
    """Superset vectors and masks of every grid spec, some of them invalid."""
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


def general_path_lanes(forcing):
    """Lanes that force the kernel's general paths, as superset vectors and masks.

    A constant coefficient of +inf puts a predictor at the clamp with
    every flow valid; a nan slope makes one trajectory nan, so every year
    is invalid and fails both tests.  With ``forcing``, a forcing weight
    that overflows the flows adds an invalid lane with nothing clamped.
    """
    spec = ff.ModelSpec(2, 2, forcing)
    center = embed(ff.default_starts(spec, OBS, n_starts=1)[0], spec)
    clamped, nan, overflow = center.copy(), center.copy(), center.copy()
    clamped[3] = np.inf   # rho_bp's constant
    nan[10] = np.nan      # gamma_m's slope
    overflow[-1] = 705.0
    thetas = [clamped, nan] + ([overflow] if forcing else [])
    return np.stack(thetas), np.tile(superset_mask(spec), (len(thetas), 1))


@contextlib.contextmanager
def kernel_paths(general=False):
    """The shortcuts each :class:`LaneKernel` call in the block takes.

    Yields a list that gets ``[every flow valid, no clip active]`` per
    call: the kernel's two tests, a finite sum of the residuals and a
    smallest logistic slope above 2 ``LOGISTIC_CLAMP``, read by wrapping
    ``math.isfinite`` and ``np.minimum.reduce`` as ``model`` sees them.
    With ``general`` both tests fail, so every call takes the general paths.
    """
    calls = []

    class Math:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def isfinite(x):
            calls.append([math.isfinite(x)])
            return calls[-1][0] and not general

    class Minimum:
        __call__ = staticmethod(np.minimum)

        @staticmethod
        def reduce(*args, **kwargs):
            least = np.minimum.reduce(*args, **kwargs)
            calls[-1].append(bool(least > 2.0 * model.LOGISTIC_CLAMP))
            return np.nan if general else least

    class Numpy:
        minimum = Minimum()

        def __getattr__(self, name):
            return getattr(np, name)

    saved = model.math, model.np
    model.math, model.np = Math(), Numpy()
    try:
        yield calls
    finally:
        model.math, model.np = saved


def assert_each_lane_is_its_one_lane_call(kernel, thetas, masks, values, grads):
    """Each lane's value and gradient are bitwise its call alone; returns the paths alone."""
    with kernel_paths() as paths:
        for lane in range(len(thetas)):
            alone_value, alone_grad = kernel.lanes([lane])(thetas[lane:lane + 1],
                                                           masks[lane:lane + 1])
            assert_bitwise(alone_value[0], values[lane])
            assert_bitwise(alone_grad[0], grads[lane])
    return paths


def test_lane_alone_equals_lane_in_shuffled_batch():
    # Lanes that take both shortcuts alone share a batch with lanes that
    # force each general path, so the batch takes both general paths.
    p_intl = OBS.p_intl.copy()
    p_intl[:10] = 0.0
    obs = ff.ObservedSeries(OBS.grid, OBS.b, OBS.m, OBS.p, p_intl=p_intl)
    kernel = LaneKernel(obs, ff.YearGrid(1960, 2020))
    thetas, masks = mixed_lanes(37, seed=4)
    hard, hard_masks = general_path_lanes(forcing=True)
    thetas, masks = np.concatenate([thetas, hard]), np.concatenate([masks, hard_masks])
    with kernel_paths() as paths:
        values, grads = kernel(thetas, masks)
    assert paths == [[False, False]]
    invalid = values == np.inf
    assert invalid.any() and not invalid.all()
    assert np.all(np.isnan(grads[invalid][masks[invalid]]))
    assert np.all(grads[invalid][~masks[invalid]] == 0.0)
    order = np.random.default_rng(5).permutation(len(values))
    shuffled_values, shuffled_grads = kernel(thetas[order], masks[order])
    assert_bitwise(shuffled_values, values[order])
    assert_bitwise(shuffled_grads, grads[order])
    paths = assert_each_lane_is_its_one_lane_call(kernel, thetas, masks, values, grads)
    assert [True, True] in paths[:37]
    # The clamped lane, the nan lane and the overflowing lane.
    assert paths[37:] == [[True, False], [False, False], [False, True]]


def assert_bitwise(got, want):
    """Equal arrays, bit for bit: signed zeros and nan payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("windowed", [False, True], ids=["one_window", "of_windows"])
def test_kernel_shortcuts_give_the_general_paths_bits(windowed):
    # Made to fail both of its tests, the kernel takes the general paths,
    # the masks over valid and clipped years, on every batch; the shortcuts
    # must give the same bits where they run.
    batches = [mixed_lanes(n, seed=n) for n in (1, 8, 30)]
    for forcing in (False, True):
        batches.append(general_path_lanes(forcing))
        batches.append(tuple(np.concatenate(parts) for parts in zip(batches[-1], batches[0])))
    taken = []
    for thetas, masks in batches:
        window = np.arange(len(thetas)) % len(WINDOWS)
        kernel = (LaneKernel.of_windows(WINDOWS, window) if windowed
                  else LaneKernel(OBS, ff.YearGrid(1960, 2020)))
        with kernel_paths() as paths:
            got = kernel(thetas, masks)
        taken += paths
        with kernel_paths(general=True):
            want = kernel(thetas, masks)
        for a, b in zip(got, want):
            assert_bitwise(a, b)
        for lane in range(len(thetas)):
            with kernel_paths() as paths:
                got = kernel.lanes([lane])(thetas[lane:lane + 1], masks[lane:lane + 1])
            taken += paths
            with kernel_paths(general=True):
                want = kernel.lanes([lane])(thetas[lane:lane + 1], masks[lane:lane + 1])
            for a, b in zip(got, want):
                assert_bitwise(a, b)
    assert all(path in taken for path in ([True, True], [True, False], [False, True],
                                          [False, False]))


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


def test_second_call_reuses_the_first_calls_workspace():
    # A kernel builds its workspace on its first call at a lane width and
    # keeps it for its later calls at that width; a call at another width
    # builds another.
    thetas, masks = mixed_lanes(12, seed=3)
    for kernel in (LaneKernel(OBS), LaneKernel.of_windows(WINDOWS, np.arange(12) % 3)):
        assert kernel._workspace is None
        values, grads = kernel(thetas, masks)
        work = kernel._workspace
        assert work.width == 12 and work.p.shape == (5, OBS.grid.n_years, 12)
        assert work.p.flags.c_contiguous
        for got, want in zip(kernel(thetas, masks), (values, grads)):
            assert_bitwise(got, want)
        assert kernel._workspace is work
    one = LaneKernel(OBS)
    one(thetas[:3], masks[:3])
    small = one._workspace
    one(thetas, masks)
    assert one._workspace is not small and one._workspace.width == 12


def workspace_arrays(kernel):
    """The arrays of ``kernel``'s workspace and their views, nested tuples included."""
    arrays, stack = [], list(vars(kernel._workspace).values())
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            stack += item
    return arrays


def test_every_buffer_backs_a_view():
    # The workspace cuts its two blocks, floats then flags, into the
    # buffers of ``_buffer_sizes`` in order; a buffer no view reads is dead.
    thetas, masks = mixed_lanes(3, seed=1)
    kernel = LaneKernel.of_windows(WINDOWS, np.arange(3))
    kernel(thetas, masks)
    arrays = workspace_arrays(kernel)
    sizes = model._buffer_sizes(kernel.inputs[0].shape[0])
    for dtype in (float, bool):
        total = 3 * sum(size for size, kind in sizes.values() if kind is dtype)
        roots = {id(root): root for root in map(base_of, arrays)
                 if root.dtype == dtype and root.size == total}
        (memory,) = roots.values()
        start = 0
        for name, (size, kind) in sizes.items():
            if kind is dtype:
                buffer = memory[start:start + 3 * size]
                assert any(np.shares_memory(a, buffer) for a in arrays), name
                start += 3 * size


def base_of(array):
    """The array that owns ``array``'s memory."""
    while array.base is not None:
        array = array.base
    return array


def test_narrowed_kernels_share_no_memory():
    # Each kernel works in buffers of its own: one narrowed from another
    # shares no memory with it or with a sibling.
    thetas, masks = mixed_lanes(12, seed=3)
    kernel = LaneKernel.of_windows(WINDOWS, np.arange(12) % 3)
    kernels = [kernel, kernel.lanes(np.arange(12) < 7), kernel.lanes(np.arange(12) >= 5)]
    kernels.append(kernels[1].lanes(np.arange(7) % 2 == 0))
    for k in kernels:
        lanes = len(k.has_intl)
        for _ in range(2):
            k(thetas[:lanes], masks[:lanes])
    for i, a in enumerate(kernels):
        for b in kernels[i + 1:]:
            assert not any(np.shares_memory(x, y)
                           for x in workspace_arrays(a) for y in workspace_arrays(b))


def test_workspace_is_not_pickled():
    # After its first call a kernel keeps its workspace; it is not pickled.
    thetas, masks = mixed_lanes(9, seed=2)
    for kernel in (LaneKernel(OBS), LaneKernel.of_windows(WINDOWS, np.arange(9) % 3)):
        size = len(pickle.dumps(kernel))
        kernel(thetas, masks)
        values, grads = kernel(thetas, masks)
        assert kernel._workspace is not None
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
        lanes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2 * len(pool)))
        # One lane that forces a general path, at some place in the batch.
        lanes.insert(draw(st.integers(0, len(lanes))),
                     draw(st.sampled_from(GENERAL_LANES[forced])))
        calls.append(lanes)
        forced = not forced
    return windowed, calls


# Mixed lanes, then the lanes that force the general paths, unforced and forced.
POOL_THETAS, POOL_MASKS = (np.concatenate(parts) for parts in zip(
    mixed_lanes(24, seed=11), general_path_lanes(False), general_path_lanes(True)))
FORCED_LANES = [int(i) for i in np.flatnonzero(POOL_MASKS[:24, -1])]
UNFORCED_LANES = [int(i) for i in np.flatnonzero(~POOL_MASKS[:24, -1])]
GENERAL_LANES = {False: [24, 25], True: [26, 27, 28]}
POOL_WINDOW = np.arange(len(POOL_THETAS)) % len(WINDOWS)


def test_call_sequence_pool_has_every_kind_of_lane():
    with kernel_paths() as paths:
        values, _ = LaneKernel(OBS)(POOL_THETAS[:24], POOL_MASKS[:24])
        for forced, lanes in GENERAL_LANES.items():
            assert POOL_MASKS[lanes, -1].all() == forced
            for lane in lanes:
                LaneKernel(OBS)(POOL_THETAS[lane:lane + 1], POOL_MASKS[lane:lane + 1])
    invalid = values == np.inf
    assert FORCED_LANES and UNFORCED_LANES
    assert invalid[FORCED_LANES].any() and not invalid.all()
    assert paths[1:] == [[True, False], [False, False]] * 2 + [[False, True]]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=call_sequences())
def test_no_state_passes_between_calls(case):
    # Calls on kernels narrowed from one kernel, at changing widths and
    # with and without forcing lanes, each equal the call on a fresh
    # kernel, and never touch what an earlier call returned.  Each kernel
    # is first called on its lanes in reverse order, so the call compared
    # runs in a workspace that holds another call's values.  Each batch has
    # a lane that forces a general path, and each lane gets what its
    # one-lane call gives it.
    windowed, calls = case
    base = LaneKernel.of_windows(WINDOWS, POOL_WINDOW) if windowed else LaneKernel(OBS)
    returned = []
    for lanes in calls:
        index = np.array(lanes)
        kernel = base.lanes(index)
        kernel(POOL_THETAS[index[::-1]], POOL_MASKS[index[::-1]])
        got = kernel(POOL_THETAS[index], POOL_MASKS[index])
        fresh = (LaneKernel.of_windows(WINDOWS, POOL_WINDOW[index]) if windowed
                 else LaneKernel(OBS))
        for a, b in zip(got, fresh(POOL_THETAS[index], POOL_MASKS[index])):
            assert_bitwise(a, b)
        for array, copy in returned:
            assert_bitwise(array, copy)
        assert_each_lane_is_its_one_lane_call(kernel, POOL_THETAS[index], POOL_MASKS[index],
                                              *got)
        returned += [(a, a.copy()) for a in got]


def test_infinite_coefficient_is_an_invalid_lane_without_warnings():
    # An infinite slope times the year where rescaled time is 0 gives a nan
    # predictor there: the lane is invalid from that year on, and the
    # call raises no floating-point warning (the suite makes one an error).
    spec = ff.ModelSpec(2, 2, False)
    theta = embed(ff.default_starts(spec, OBS, n_starts=1)[0], spec)
    theta[10] = np.inf   # gamma_m's slope
    assert 0.0 in LaneKernel(OBS).inputs[0]
    values, grads = LaneKernel(OBS)(theta[None], superset_mask(spec)[None])
    assert values[0] == np.inf and np.all(np.isnan(grads[0][superset_mask(spec)]))
    with kernel_paths(general=True):
        want = LaneKernel(OBS)(theta[None], superset_mask(spec)[None])
    assert_bitwise(values, want[0])
    assert_bitwise(grads, want[1])


@pytest.mark.parametrize("windowed", [False, True], ids=["one_window", "of_windows"])
def test_year_zero_residuals_are_exactly_zero(windowed):
    # The initial stocks first / gamma reproduce the first observations
    # only up to round-off, so year 0's residuals are imposed: its squared
    # residuals, kept in the workspace after a call, are exact zeros on
    # both paths, also where the year-0 flow misses the observation.
    thetas, masks = (np.concatenate(parts) for parts in zip(
        mixed_lanes(300, seed=9), general_path_lanes(True)))
    kernel = (LaneKernel.of_windows(WINDOWS, np.arange(len(thetas)) % len(WINDOWS))
              if windowed else LaneKernel(OBS))
    for lanes in (np.arange(300), np.arange(len(thetas))):
        narrowed = kernel.lanes(lanes)
        narrowed(thetas[lanes], masks[lanes])
        work = narrowed._workspace
        first = np.broadcast_to(narrowed.inputs[4], (2, len(lanes)))
        assert np.any(work.flows[:, 0] != first)
        assert_bitwise(work.squares[:, 0], np.zeros((2, len(lanes))))


def test_absent_coefficients_are_ignored_and_get_no_gradient():
    thetas, masks = mixed_lanes(18, seed=6)
    kernel = LaneKernel(OBS)
    values, grads = kernel(thetas, masks)
    noisy = thetas + np.where(masks, 0.0, 3.0)
    noisy_values, noisy_grads = kernel(noisy, masks)
    assert np.array_equal(noisy_values, values)
    assert np.array_equal(noisy_grads, grads, equal_nan=True)
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
    objective = _Objective(spec, obs49, None)
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
    # Past a wall at x[0] = 2 the value is nan, or +inf with a nan gradient
    # as at a lane kernel's invalid point.
    "non-finite": lambda x: (x[0] ** 2 + 0.5 * x[1] ** 2 if x[0] < 2.0 else math.nan,
                             (2.0 * x[0], x[1])),
    "infinite": lambda x: ((x[0] ** 2 + 0.5 * x[1] ** 2, (2.0 * x[0], x[1])) if x[0] < 2.0
                           else (math.inf, (math.nan, math.nan))),
    # A gradient that promises descent where every step climbs a steep
    # wall: no trial passes, and the line search runs out of halvings.
    "exhausted": lambda x: (1.0 + 1e20 * (x[0] - 1.0) ** 2, (1e6, 0.0)),
    # Rosenbrock's valley: some full steps pass and some backtrack, so a
    # batch of its lanes alternates between ticks where every lane moved
    # and ticks where some did not.
    "valley": lambda x: ((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2,
                         (-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                          200.0 * (x[1] - x[0] ** 2))),
}
TOY_STARTS = {"moves": (1.0, 1.0), "overshoots": (1.0, 1.0), "non-finite": (-3.0, 1.0),
              "infinite": (-3.0, 1.0), "exhausted": (1.0, 0.0), "valley": (-1.2, 1.0)}


class ToyKernel:
    """A stand-in for :class:`LaneKernel`: lane i is objective ``list(toys)[kind[i]]``."""

    def __init__(self, kind, toys=TOYS):
        self.kind = kind
        self.toys = toys

    def lanes(self, index):
        return ToyKernel(self.kind[index], self.toys)

    def __call__(self, x, mask):
        objectives = list(self.toys.values())
        values = np.empty(len(x))
        grads = np.zeros_like(x)
        for row, k in enumerate(self.kind):
            values[row], grads[row, :2] = objectives[k](x[row])
        return values, np.where(mask, grads, 0.0)


def toy_starts(kinds):
    """Two starts of each toy objective in ``kinds``: its kind per lane and its ``x0``."""
    names = list(TOYS)
    kind = np.array([names.index(name) for name in kinds]).repeat(2)
    x0 = np.zeros((len(kind), 16))
    x0[:, :2] = [TOY_STARTS[names[k]] for k in kind]
    x0[1::2, 1] += 0.5   # a second start of each objective
    return kind, x0


@contextlib.contextmanager
def tick_kinds():
    """Whether every lane moved, per :func:`bfgs_lanes` tick in the block (after the first call)."""
    ticks = []
    directions = estimation._lane_directions

    def spy(h, g, mask, lanes):
        ticks.append(bool(lanes.all()))
        return directions(h, g, mask, lanes)

    estimation._lane_directions = spy
    try:
        yield ticks
    finally:
        estimation._lane_directions = directions


def test_lane_that_moves_beside_rejected_lanes_equals_its_run_alone():
    # In the first tick one lane moves, one fails the Armijo test, one
    # trial is nan and one +inf; one lane fails every tick until it
    # runs out of halvings.  In a second batch without that lane, ticks
    # where every lane moved (whose state is taken whole) alternate with
    # ticks where some did not (whose update is written only to the lanes
    # that moved).  Either way each lane's run is bitwise what it is alone.
    names = list(TOYS)
    kind, x0 = toy_starts(names)
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
    assert all(value == math.inf for _, value in first_trial["infinite"])

    for exhausting in (True, False):
        kind, x0 = toy_starts([name for name in names if exhausting or name != "exhausted"])
        mask = np.ones(x0.shape, dtype=bool)
        with tick_kinds() as ticks:
            together = bfgs_lanes(ToyKernel(kind), x0, mask, max_iter=50)
        moved_all = ticks[1:]
        exhausted = kind == names.index("exhausted")
        if exhausting:
            assert not any(moved_all)
            assert np.all(together.n_iterations[exhausted] == 0)
            assert not together.converged[exhausted].any()
            assert np.array_equal(together.x[exhausted], x0[exhausted])
        else:
            switches = sum(a != b for a, b in zip(moved_all, moved_all[1:]))
            assert any(moved_all) and not all(moved_all) and switches >= 6
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
            assert (row.n_iterations[0], row.converged[0]) == (want.n_iterations,
                                                               want.converged)
            assert np.allclose(row.x[0], want.x, rtol=1e-9, atol=1e-12)


@contextlib.contextmanager
def general_ticks():
    """Every :func:`bfgs_lanes` tick in the block on its general path.

    As ``estimation`` sees NumPy, ``np.logical_and.reduce`` (its test that
    every lane moved, is scaled or updates) answers False, and the
    reductions with an ``initial`` value (``_lane_directions``' test of
    the slopes) answer nan: so every tick takes its masked copies and
    updates, and every direction is checked lane by lane.

    Yields a count of the general paths' work, so a caller can see that
    they ran: ``"directions"`` and ``"matvecs"`` (calls of
    ``_lane_directions`` and ``_lane_matvec``; each update adds one
    matvec to the directions' own), ``"slope tests"`` (the forced slope
    tests), ``"selects"`` (``np.where`` on a lane vector, the masked stop
    select) and ``"masked updates"`` (``np.add`` with ``where``).
    """
    seen = collections.Counter()

    class Ufunc:
        def __init__(self, ufunc, answer=None, counts=None):
            self.ufunc, self.answer, self.counts = ufunc, answer, counts

        def __call__(self, *args, **kwargs):
            if self.counts and "where" in kwargs:
                seen[self.counts] += 1
            return self.ufunc(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

        def reduce(self, *args, **kwargs):
            result = self.ufunc.reduce(*args, **kwargs)
            return self.answer(result, kwargs) if self.answer else result

    def slope_test(result, kwargs):
        if "initial" not in kwargs:
            return result
        seen["slope tests"] += 1
        return np.nan

    class Numpy:
        logical_and = Ufunc(np.logical_and, lambda result, kwargs: np.False_)
        maximum = Ufunc(np.maximum, slope_test)
        minimum = Ufunc(np.minimum, slope_test)
        add = Ufunc(np.add, counts="masked updates")

        @staticmethod
        def where(condition, *args):
            seen["selects"] += np.ndim(condition) == 1
            return np.where(condition, *args)

        def __getattr__(self, name):
            return getattr(np, name)

    def counted(name, function):
        def call(*args):
            seen[name] += 1
            return function(*args)
        return call

    saved = estimation.np, estimation._lane_directions, estimation._lane_matvec
    estimation.np = Numpy()
    estimation._lane_directions = counted("directions", saved[1])
    estimation._lane_matvec = counted("matvecs", saved[2])
    try:
        yield seen
    finally:
        estimation.np, estimation._lane_directions, estimation._lane_matvec = saved


def test_tick_shortcuts_give_the_general_paths_bits(obs49):
    # Toy lanes of every kind, and lane kernels on the 49-year series and
    # on padded windows, run as they do and with every tick on its
    # general path: every outcome is the same, bit for bit.
    runs = []
    for kinds in (list(TOYS), [name for name in TOYS if name != "exhausted"]):
        kind, x0 = toy_starts(kinds)
        runs.append((ToyKernel(kind), x0, np.ones(x0.shape, dtype=bool), 50))
    spec = ff.ModelSpec(2, 2, False)
    starts = np.stack([embed(x, spec) for x in ff.default_starts(spec, obs49, n_starts=8)])
    runs.append((LaneKernel(obs49), starts, np.tile(superset_mask(spec), (8, 1)), 60))
    thetas, masks = (np.concatenate(parts) for parts in zip(
        mixed_lanes(12, seed=21), general_path_lanes(True)))
    runs.append((LaneKernel.of_windows(WINDOWS, np.arange(len(thetas)) % len(WINDOWS)),
                 thetas, masks, 40))
    moved_all = []
    for kernel, x0, mask, max_iter in runs:
        with tick_kinds() as ticks:
            got = bfgs_lanes(kernel, x0, mask, max_iter=max_iter)
        moved_all += ticks[1:]
        with general_ticks() as seen:
            want = bfgs_lanes(kernel, x0, mask, max_iter=max_iter)
        # The forced run took every general path: a masked stop select per
        # tick, a lane-by-lane slope test per direction, a masked add per update.
        assert seen["selects"] == seen["directions"] - 1 > 0
        assert seen["slope tests"] == seen["directions"]
        assert seen["masked updates"] == seen["matvecs"] - seen["directions"] > 0
        for name in estimation._OUTCOME_FIELDS:
            assert_bitwise(getattr(got, name), getattr(want, name))
    assert any(moved_all) and not all(moved_all)


def steepens(x):
    """A toy objective whose slope overflows to -inf after one BFGS update.

    Its gradient is (1, 0) right of x[0] = 0.5, and (1 - 2^-40, 0) down to
    x[0] = -0.5: the first step, from x[0] = 1.25, scales and updates the
    inverse Hessian to 2^40 I, and the second, 2^40 - 1 long, takes x[0]
    past -0.5.  There the gradient gains a 1e150 in x[1], where that step
    did not move, so no update follows, ``-h g . g`` is -inf and
    ``g . g`` is 1e300.  The value falls 1e147 per unit of x[1] below 0.
    """
    slope = 1.0 if x[0] > 0.5 else 1.0 - 2.0 ** -40
    return x[0] + 1e147 * min(x[1], 0.0), (slope, 0.0 if x[0] > -0.5 else 1e150)


def test_lane_whose_slope_overflows_restarts(monkeypatch):
    # Beside a lane that converges, two starts of ``steepens`` reach a
    # slope of -inf on their third direction.  They restart from steepest
    # descent and move on to max_iter; kept, the -inf slope would fail
    # every Armijo test.  The run equals its forced general path, bit for bit.
    toys = {"moves": TOYS["moves"], "steepens": steepens}
    kind = np.array([1, 0, 1])
    x0 = np.zeros((3, 16))
    x0[:, :2] = [(1.25, 1.0), TOY_STARTS["moves"], (1.25, 1.5)]
    mask = np.ones(x0.shape, dtype=bool)
    restarted = []
    directions = estimation._lane_directions

    def spy(h, g, mask, lanes):
        kept_slope = -estimation._lane_dot(g, estimation._lane_matvec(h, g))
        d, slope = directions(h, g, mask, lanes)
        restarted.append(np.isneginf(kept_slope) & np.isfinite(slope) & (slope < 0.0))
        return d, slope

    monkeypatch.setattr(estimation, "_lane_directions", spy)
    got = bfgs_lanes(ToyKernel(kind, toys), x0, mask, max_iter=50)
    monkeypatch.undo()
    # Both starts restart on their third direction, and only there.
    assert [r.tolist() for r in restarted[:3]] == [[False] * 3, [False] * 3, [True, False, True]]
    assert not any(r.any() for r in restarted[3:])
    assert np.array_equal(got.n_iterations[kind == 1], [50, 50])
    assert np.all(got.x[kind == 1, 1] < -1e151)
    assert got.converged[kind == 0].all()
    with general_ticks():
        want = bfgs_lanes(ToyKernel(kind, toys), x0, mask, max_iter=50)
    for name in estimation._OUTCOME_FIELDS:
        assert_bitwise(getattr(got, name), getattr(want, name))


def test_bfgs_minimize_overflows_without_warnings():
    # ``steepens`` takes bfgs_minimize to an overflowing slope, -inf, as it
    # takes bfgs_lanes; it restarts and moves on to max_iter.  From a start
    # valued 0 the first step falls by 1e20, and the relative decrease,
    # divided by 1e-300, overflows to inf.  Neither may warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0 in ((1.25, 1.0), (1.25, 1.5)):
            got = bfgs_minimize(lambda x: steepens(x)[0], np.array(x0),
                                lambda x: np.array(steepens(x)[1]), max_iter=50)
            assert got.n_iterations == 50 and got.x[1] < -1e151
        got = bfgs_minimize(lambda x: 1e10 * x[0], np.zeros(2),
                            lambda x: np.array([1e10, 0.0]), max_iter=50)
    assert got.n_iterations == 50 and got.x[0] == -5e11 and not got.converged


def test_minimize_bfgs_runs_every_start_count_on_lanes(obs49, monkeypatch):
    spec = ff.ModelSpec(1, 0, True)
    widths = []
    real_lanes = estimation.bfgs_lanes
    monkeypatch.setattr(estimation, "bfgs_lanes",
                        lambda kernel, x0, *a, **k: widths.append(len(x0))
                        or real_lanes(kernel, x0, *a, **k))
    opts = ff.FitOptions(max_iter=50)
    # One start is bands49's set-up fit.
    for n_starts in range(1, 5):
        widths.clear()
        starts = ff.default_starts(spec, obs49, n_starts=n_starts)
        fit = ff.minimize_bfgs(spec, obs49, starts, opts)
        assert widths == [n_starts]
        assert fit.sse == ff.loss(fit.theta_hat, spec, obs49)
        assert fit.n_starts_used == n_starts and fit.theta_hat.shape == (spec.n_params,)


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
