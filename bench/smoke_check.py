"""Smoke test of the benchmark itself.

    python3 -m pytest bench/smoke_check.py

Runs every workload at minimal size, untraced and traced, and checks that
every metric declared in BENCHMARK.json is emitted with its unit; checks
that each workload's correctness check rejects a corrupted output; and
checks that the benchmark fails cleanly without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]}
    assert e2e == {name: (unit, better, bound) for name, unit, better, bound in run.END_TO_END}
    layers = {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]}
    assert layers == {name: (unit, better) for name, unit, better in tracing.PER_LAYER}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) or isinstance(got["value"], int)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_fit_check_rejects_sse_above_truth(tmp_path):
    workload = workloads.make("fit49", smoke=True)
    state = workload.setup(3, tmp_path)
    workload.prepare(state)
    fit = workload.op(state)
    assert workload.check(state, fit) == []
    worse = dataclasses.replace(fit, sse=workload.current(state)["inputs"].sse_true49 * 1.01)
    assert workload.check(state, worse)


def test_bands_check_rejects_crossed_band(tmp_path):
    workload = workloads.make("bands49", smoke=True)
    state = workload.setup(3, tmp_path)
    workload.prepare(state)
    out = workload.op(state)
    assert workload.check(state, out) == []
    bands = out.bands
    lower = dict(bands.lower, gamma_m=bands.upper["gamma_m"])
    upper = dict(bands.upper, gamma_m=bands.lower["gamma_m"])
    crossed = dataclasses.replace(out, bands=dataclasses.replace(bands, lower=lower, upper=upper))
    assert workload.check(state, crossed)


def test_report_check_rejects_one_changed_byte(tmp_path):
    workload = workloads.make("report26", smoke=True)
    state = workload.setup(3, tmp_path)
    workload.prepare(state)
    out = workload.op(state)
    assert workload.check(state, out) == []
    data = bytearray(out.files["grid.csv"])
    data[len(data) // 2] ^= 1
    changed = dataclasses.replace(out, files=dict(out.files, **{"grid.csv": bytes(data)}))
    assert workload.check(state, changed)


def test_host_speed_correction_samples_inside_the_step():
    def spin(seconds):
        end = hostspeed.cpu_s() + seconds
        while hostspeed.cpu_s() < end:
            pass

    with hostspeed.Measured() as m:
        spin(0.5)
    # Edge samples on both sides plus timer samples taken during the step.
    assert len(m.samples) > 2 * hostspeed.EDGE_SAMPLES + 3
    assert 0.0 < m.raw_wall and m.overhead > 0.0
    assert m.wall == pytest.approx(m.raw_wall * m.factor)
    assert m.cpu == pytest.approx(m.raw_cpu * m.factor)

    # A child forked during the step (as the grid's pool workers are) sends
    # its own samples back; the waiting parent takes none inside the step.
    with hostspeed.Measured() as m:
        child = multiprocessing.get_context("fork").Process(target=spin, args=(0.5,))
        child.start()
        child.join()
    assert child.exitcode == 0
    assert len(m.samples) > 2 * hostspeed.EDGE_SAMPLES + 3
    assert m.overhead == 0.0 and m.raw_cpu > 0.0


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fit49", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
