"""Smoke test of the benchmark at small n.

Every workload, untraced and traced, must print one result line holding
exactly the metrics BENCHMARK.json names and pass its checks; without src/
the benchmark must exit non-zero and print no result.  Run from the root of
a checkout (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import self_times  # noqa: E402

WORKLOADS = ("four-panel", "deep-profile", "monte-carlo")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_checked_result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = _bench()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_without_program_exits_nonzero_and_prints_no_result():
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("four-panel", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))


def test_word_counter_on_a_hand_case():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    # m = 2, length 2: windows (1,1), (0,1), (1,0)
    assert sorted(checks.word_counts(bits, 2, 2, 3)) == [1, 1, 1]
    # m = 1, length 1 over the first 4 starts: three 1s and one 0
    assert sorted(checks.word_counts(bits, 1, 1, 4)) == [1, 3]


def test_self_time_subtracts_direct_children():
    spans = [{"start": 0.0, "end": 10.0, "parent": None},
             {"start": 1.0, "end": 4.0, "parent": 0},
             {"start": 2.0, "end": 3.0, "parent": 1},
             {"start": 5.0, "end": 6.0, "parent": 0}]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
