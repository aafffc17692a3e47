"""Tests of the benchmark itself (not of specdet).

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of the checkout.  Each test starts real benchmark runs of
one second per phase, so the file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def test_calibration_rescales_to_the_nominal_kernel_time():
    cal = Calibration("verify-n64")
    cal.times[:] = [cal.nominal_s, cal.nominal_s, 2 * cal.nominal_s, 4 * cal.nominal_s]
    assert cal.scale(0.5, 0, 1) == 0.5
    assert cal.scale(0.9, 2, 3) == 0.3


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_names_and_units(workload):
    metrics = _run(workload, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_outputs_and_counts_repeat(workload):
    # Every traced pass is checked against the same reference digests as the
    # untraced passes of the run, so a correct traced run has equal outputs.
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    spec_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec_units
    counts = [k for k, unit in spec_units.items() if unit in ("count", "B", "ratio")]
    assert counts
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}


def test_refuses_without_the_program(tmp_path):
    # A directory holding only the benchmark: no result line, nonzero exit.
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
