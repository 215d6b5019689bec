"""In-memory span tracing of flowfit's layers, installed from outside the package.

``Tracer.install()`` wraps each function in ``TRACED`` and rebinds every
attribute of every loaded ``flowfit`` module that refers to it, because
several modules import the kernel functions by name.  Spans (name,
parent, start, end) are kept in flat arrays until ``layer_metrics``
reduces them.

Pool workers of ``selection.run_grid`` inherit the wrappers when they
fork, but the wrappers pass straight through outside the tracing
process, so a grid run is a single span whose children are not seen;
only its wall time and its reaped children's CPU time are recorded.
"""

from __future__ import annotations

import importlib
import os
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED = (
    "model.eval_param_trajectories",
    "model.simulate",
    "model.run_recurrence",
    "estimation.loss",
    "estimation.fd_gradient",
    "estimation.bfgs_minimize",
    "estimation.minimize_bfgs",
    "estimation.numerical_hessian",
    "estimation.sample_parameters",
    "estimation.confidence_bands",
    "selection.run_grid",
    "diagnostics.truncation_study",
    "diagnostics.rolling_origin_hindcast",
    "dataio.load_series",
    "dataio.write_reports",
    "cli.run_cli",
)
OP_SPAN = "bench.op"

# (name, unit, better) of every per-layer metric; values are per op unless
# the unit is a ratio.
PER_LAYER = (
    ("model.eval_param_trajectories.calls", "count/op", "lower"),
    ("model.eval_param_trajectories.self_s", "s/op", "lower"),
    ("model.run_recurrence.calls", "count/op", "lower"),
    ("model.run_recurrence.self_s", "s/op", "lower"),
    ("estimation.loss.calls", "count/op", "lower"),
    ("estimation.loss.self_s", "s/op", "lower"),
    ("estimation.loss.share_of_op", "ratio", "lower"),
    ("estimation.fd_gradient.calls", "count/op", "lower"),
    ("estimation.fd_gradient.loss_share", "ratio", "lower"),
    ("estimation.bfgs_minimize.starts", "count/op", "lower"),
    ("estimation.bfgs_minimize.iters", "count/op", "lower"),
    ("estimation.bfgs_minimize.converged_ratio", "ratio", "higher"),
    ("estimation.bfgs_minimize.best_share", "ratio", "higher"),
    ("estimation.bfgs_minimize.linesearch_evals_per_iter", "count", "lower"),
    ("estimation.numerical_hessian.self_s", "s/op", "lower"),
    ("estimation.numerical_hessian.loss_calls", "count/op", "lower"),
    ("estimation.confidence_bands.self_s", "s/op", "lower"),
    ("estimation.confidence_bands.draws", "count/op", "higher"),
    ("estimation.sample_parameters.self_s", "s/op", "lower"),
    ("selection.run_grid.wall_s", "s/op", "lower"),
    ("selection.run_grid.cells", "count/op", "higher"),
    ("selection.run_grid.child_cpu_s", "s/op", "lower"),
    ("selection.run_grid.parallel_eff", "ratio", "higher"),
    ("diagnostics.truncation_study.wall_s", "s/op", "lower"),
    ("diagnostics.truncation_study.refits", "count/op", "higher"),
    ("diagnostics.rolling_origin_hindcast.wall_s", "s/op", "lower"),
    ("diagnostics.rolling_origin_hindcast.refits", "count/op", "higher"),
    ("diagnostics.refit_converged_ratio", "ratio", "higher"),
    ("dataio.load_series.wall_s", "s/op", "lower"),
    ("dataio.write_reports.wall_s", "s/op", "lower"),
    ("dataio.write_reports.bytes", "B/op", "lower"),
    ("cli.run_cli.self_s", "s/op", "lower"),
    ("cli.report_refit_s", "s/op", "lower"),
    ("bench.op_s_untraced", "s", "lower"),
    ("bench.op_s_traced", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _bfgs_info(args, kwargs, result, extra):
    return (result.n_iterations, result.converged, result.fun)


def _grid_info(args, kwargs, result, extra):
    cells = sum(1 for e in result if e.fit is not None)
    return (cells, extra, int(kwargs.get("jobs", args[4] if len(args) > 4 else 1)))


def _write_info(args, kwargs, result, extra):
    out = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else None))
    return sum((out / name).stat().st_size for name in list(result) + ["manifest.json"])


def _bands_info(args, kwargs, result, extra):
    return len(kwargs.get("draws", args[0] if args else None))


# What each span keeps besides its times.
ANNOTATE = {
    "estimation.bfgs_minimize": _bfgs_info,
    "estimation.minimize_bfgs": lambda args, kwargs, result, extra: result.converged,
    "estimation.confidence_bands": _bands_info,
    "selection.run_grid": _grid_info,
    "dataio.write_reports": _write_info,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.info: dict[int, object] = {}
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_id[name]
        annotate = ANNOTATE.get(name)
        wants_child_cpu = name == "selection.run_grid"
        stack = self._stack

        def traced(*args, **kwargs):
            if os.getpid() != self._pid:   # forked pool worker
                return fn(*args, **kwargs)
            idx = len(self.name_ids)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(idx)
            cpu0 = children_cpu_s() if wants_child_cpu else 0.0
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                extra = children_cpu_s() - cpu0 if wants_child_cpu else None
                self.info[idx] = annotate(args, kwargs, result, extra)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "flowfit" or key.startswith("flowfit."))]
        for qualified in TRACED:
            mod_name, attr = qualified.split(".")
            original = getattr(importlib.import_module(f"flowfit.{mod_name}"), attr)
            wrapper = self.wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def layer_metrics(tracer: Tracer, op_s_untraced: float, op_s_traced: float) -> dict[str, float]:
    """Reduce the spans to the ``PER_LAYER`` metrics, averaged over traced ops."""
    name_ids = np.frombuffer(tracer.name_ids, dtype=np.int32)
    parents = np.frombuffer(tracer.parents, dtype=np.int32)
    dur = np.frombuffer(tracer.ends) - np.frombuffer(tracer.starts)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def where(name):
        return np.flatnonzero(name_ids == ids[name]) if name in ids else np.empty(0, dtype=int)

    def ancestor_named(idx, name):
        target = ids.get(name, -2)
        p = parents[idx]
        while p >= 0:
            if name_ids[p] == target:
                return True
            p = parents[p]
        return False

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    n_ops = max(1, len(where(OP_SPAN)))
    op_total = float(dur[where(OP_SPAN)].sum())
    per_op = lambda x: float(x) / n_ops
    calls = lambda name: per_op(len(where(name)))
    self_s = lambda name: per_op(self_t[where(name)].sum())
    wall_s = lambda name: per_op(dur[where(name)].sum())

    loss = where("estimation.loss")
    loss_parent_names = name_ids[parents[loss]]
    fd_losses = sum(1 for i in loss if ancestor_named(i, "estimation.fd_gradient"))
    hess_losses = sum(1 for i in loss if ancestor_named(i, "estimation.numerical_hessian"))

    bfgs = where("estimation.bfgs_minimize")
    iters = sum(tracer.info[i][0] for i in bfgs)
    converged = sum(1 for i in bfgs if tracer.info[i][1])
    linesearch = int(np.sum(loss_parent_names == ids.get("estimation.bfgs_minimize", -2))) - len(bfgs)

    # Starts landing within 1e-6 relative of their multi-start's best.
    by_fit: dict[int, list[float]] = {}
    for i in bfgs:
        by_fit.setdefault(int(parents[i]), []).append(tracer.info[i][2])
    near_best = 0
    for funs in by_fit.values():
        best = min(funs)
        near_best += sum(1 for f in funs if f - best <= 1e-6 * max(abs(best), 1e-300))

    fits = where("estimation.minimize_bfgs")
    refits = {
        stage: [i for i in fits if ancestor_named(i, stage)]
        for stage in ("diagnostics.truncation_study", "diagnostics.rolling_origin_hindcast")
    }
    all_refits = [i for group in refits.values() for i in group]
    run_cli_id = ids.get("cli.run_cli", -2)
    report_refits = [i for i in fits if parents[i] >= 0 and name_ids[parents[i]] == run_cli_id]

    grids = where("selection.run_grid")
    grid_cpu = sum(tracer.info[i][1] for i in grids)
    grid_slots = sum(float(dur[i]) * tracer.info[i][2] for i in grids)

    return {
        "model.eval_param_trajectories.calls": calls("model.eval_param_trajectories"),
        "model.eval_param_trajectories.self_s": self_s("model.eval_param_trajectories"),
        "model.run_recurrence.calls": calls("model.run_recurrence"),
        "model.run_recurrence.self_s": self_s("model.run_recurrence"),
        "estimation.loss.calls": calls("estimation.loss"),
        "estimation.loss.self_s": self_s("estimation.loss"),
        "estimation.loss.share_of_op": ratio(dur[loss].sum(), op_total),
        "estimation.fd_gradient.calls": calls("estimation.fd_gradient"),
        "estimation.fd_gradient.loss_share": ratio(fd_losses, len(loss)),
        "estimation.bfgs_minimize.starts": per_op(len(bfgs)),
        "estimation.bfgs_minimize.iters": per_op(iters),
        "estimation.bfgs_minimize.converged_ratio": ratio(converged, len(bfgs)),
        "estimation.bfgs_minimize.best_share": ratio(near_best, len(bfgs)),
        "estimation.bfgs_minimize.linesearch_evals_per_iter": ratio(linesearch, iters),
        "estimation.numerical_hessian.self_s": self_s("estimation.numerical_hessian"),
        "estimation.numerical_hessian.loss_calls": per_op(hess_losses),
        "estimation.confidence_bands.self_s": self_s("estimation.confidence_bands"),
        "estimation.confidence_bands.draws": per_op(sum(tracer.info[i] for i in where("estimation.confidence_bands"))),
        "estimation.sample_parameters.self_s": self_s("estimation.sample_parameters"),
        "selection.run_grid.wall_s": wall_s("selection.run_grid"),
        "selection.run_grid.cells": per_op(sum(tracer.info[i][0] for i in grids)),
        "selection.run_grid.child_cpu_s": per_op(grid_cpu),
        "selection.run_grid.parallel_eff": ratio(grid_cpu, grid_slots),
        "diagnostics.truncation_study.wall_s": wall_s("diagnostics.truncation_study"),
        "diagnostics.truncation_study.refits": per_op(len(refits["diagnostics.truncation_study"])),
        "diagnostics.rolling_origin_hindcast.wall_s": wall_s("diagnostics.rolling_origin_hindcast"),
        "diagnostics.rolling_origin_hindcast.refits": per_op(len(refits["diagnostics.rolling_origin_hindcast"])),
        "diagnostics.refit_converged_ratio": ratio(sum(1 for i in all_refits if tracer.info[i]), len(all_refits)),
        "dataio.load_series.wall_s": wall_s("dataio.load_series"),
        "dataio.write_reports.wall_s": wall_s("dataio.write_reports"),
        "dataio.write_reports.bytes": per_op(sum(tracer.info[i] for i in where("dataio.write_reports"))),
        "cli.run_cli.self_s": self_s("cli.run_cli"),
        "cli.report_refit_s": per_op(dur[report_refits].sum()),
        "bench.op_s_untraced": op_s_untraced,
        "bench.op_s_traced": op_s_traced,
        "bench.trace_overhead_s": op_s_traced - op_s_untraced,
    }
