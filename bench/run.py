"""flowfit benchmark: one workload per invocation, one closed-loop client.

    python3 bench/run.py --workload fit49 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, input generation, warm-up) is repeated and its
median reported as ``setup_s``.  Then ops run back to back for
``--seconds``; each op's output is checked outside the timed region.
Every timing is rescaled for the host's speed while it was taken
(``hostspeed.py``): a fixed reference loop is sampled during and around
each measured step.  The raw timings are kept in the detail line.
With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced run (preceded by
as long a run of untraced ops, so the tracing overhead is reported too).  The line before
it records the environment and the per-op samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_REPEATS = 9
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Timings are rescaled for host speed, which removes most, not all, of a
# shared host's drift; result_sse varies with the seed's noise draw, which
# the ratio to the true parameters' SSE only partly cancels.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.05),
    ("result_sse", "ratio", "lower", 0.25),
)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children report their largest member.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def import_seconds() -> float:
    """Time to import flowfit (with NumPy) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import flowfit; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip())


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, jobs) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "jobs": jobs,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_ops(workload, state, seconds, op=None, whole_cycles=False):
    """Run ops back to back for about ``seconds``; returns the samples.

    A new op starts only when the median op so far still fits in the
    remaining time, so a run ends near its budget; at least one op runs.
    With ``whole_cycles`` every dataset gets the same number of ops, so
    per-op averages of work counts do not depend on where the run stopped.
    ``walls`` and ``cpus`` are rescaled for host speed; ``raw_walls`` are not.
    ``quality`` maps a dataset's index to the ``result_sse`` of its last
    correct op (the same for every op on the dataset).
    """
    op = op or workload.op
    raw_walls, walls, cpus, factors, problems = [], [], [], [], []
    quality = {}
    start = time.perf_counter()
    while (not raw_walls or (whole_cycles and len(raw_walls) % workload.datasets)
           or time.perf_counter() - start + statistics.median(raw_walls) <= seconds):
        workload.prepare(state)
        with hostspeed.Measured() as m:
            try:
                out, error = op(state), None
            except Exception as exc:   # a raising op counts as failed; the run goes on
                out, error = None, f"op raised {exc!r}"
        raw_walls.append(m.raw_wall)
        walls.append(m.wall)
        cpus.append(m.cpu)
        factors.append(m.factor)
        found = [error] if error else workload.check(state, out)
        problems.append(found)
        if not found:
            quality[workload.index(state)] = workload.result_sse(state, out)
    return {"walls": walls, "cpus": cpus, "raw_walls": raw_walls, "factors": factors,
            "quality": quality, "problems": problems}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit49", "bands49", "report26"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a quick run (for the smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "flowfit" / "__init__.py").is_file():
        print(f"error: no flowfit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Tiny matrices: pin BLAS/OpenMP pools so the 2-worker grid does not
    # oversubscribe the cores.  Values already set by the caller win.
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    import_s = []
    for _ in range(0 if args.trace else IMPORT_REPEATS):
        with hostspeed.Measured() as m:
            t = import_seconds()
        import_s.append(t * m.factor)

    workload = workloads.make(args.workload, smoke=args.smoke)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            with hostspeed.Measured() as m:
                state = workload.setup(args.seed, workdir)
            setup_s.append(m.wall)

        if args.trace:
            untraced = run_ops(workload, state, args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_ops(workload, state, args.seconds / 2.0,
                                 op=tracer.wrap(tracing.OP_SPAN, workload.op), whole_cycles=True)
            finally:
                tracer.uninstall()
            runs = [untraced, traced]
            values = tracing.layer_metrics(tracer, statistics.median(untraced["walls"]),
                                           statistics.median(traced["walls"]))
            # Span times are raw; rescale them like the ops they ran in.
            f = statistics.median(traced["factors"])
            values.update({name: values[name] * f
                           for name, unit, _ in tracing.PER_LAYER if unit == "s/op"})
            metrics = {name: metric(values[name], unit) for name, unit, _ in tracing.PER_LAYER}
        else:
            run = run_ops(workload, state, args.seconds)
            runs = [run]
            n = len(run["walls"])
            values = {
                "setup_s": statistics.median(import_s) + statistics.median(setup_s),
                "op_s": statistics.median(run["walls"]),
                "cpu_s_per_op": statistics.median(run["cpus"]),
                "peak_rss_mb": peak_rss_mb(),
                "ok_ratio": sum(1 for p in run["problems"] if not p) / n,
                # Median over datasets, so each counts once however many ops
                # it got.  With no correct op there is no quality to report;
                # read as worst.
                "result_sse": (statistics.median(run["quality"].values()) if run["quality"]
                               else sys.float_info.max),
            }
            metrics = {name: metric(values[name], unit) for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    problems = [p for run in runs for p in run["problems"]]
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    for i, found in enumerate(problems):
        for problem in found:
            print(f"op {i} failed: {problem}", file=sys.stderr)

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{args.workload:9} {name:{width}} {m['value']:.6g} {m['unit']}")
    detail = {
        "workload": args.workload,
        "env": environment(args, getattr(workload, "jobs", 1)),
        "samples": {
            "op_walls_s": [w for run in runs for w in run["walls"]],
            "op_cpus_s": [c for run in runs for c in run["cpus"]],
            "op_raw_walls_s": [w for run in runs for w in run["raw_walls"]],
            "speed_factors": [f for run in runs for f in run["factors"]],
            "setup_s": setup_s,
            "import_s": import_s,
        },
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
