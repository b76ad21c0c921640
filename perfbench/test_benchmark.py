"""The benchmark's own quick-mode test.

Runs every workload in quick mode, untraced and traced, and checks that
each run emits exactly the metrics ``BENCHMARK.json`` names, with its
units, and that every output was correct. Run from the checkout root:

    python3 -m pytest perfbench/test_benchmark.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

sys.path.insert(0, HERE)
from harness import proc_pids  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench_command(workload, trace, seconds=0.5):
    return SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", str(seconds),
        "--trace", str(trace), "--quick",
    ]


def run_bench(workload, trace, cwd=ROOT, seconds=0.5):
    return subprocess.run(bench_command(workload, trace, seconds), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_leaves_no_process_behind(trace):
    # The run starts a worker pool, multiprocessing's resource tracker
    # and, traced, a worker cluster; each must be gone when it exits.
    proc = subprocess.Popen(bench_command("sat-warm", trace), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    assert proc.wait(timeout=300) == 0
    assert proc_pids("session", proc.pid) == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_cold_shapes_are_distinct_and_span_the_range():
    from sat_workloads import cold_shapes

    shapes = cold_shapes(30, 5, (16, 128))
    assert len(set(shapes)) == 30
    assert (512, 512) in shapes and (4096, 4096) in shapes
    assert all(512 <= min(s) and max(s) <= 4096 for s in shapes)
    assert sum(s[0] != s[1] for s in shapes) == 5
