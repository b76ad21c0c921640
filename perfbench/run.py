#!/usr/bin/env python3
"""The repo benchmark: SAT compute and SAT serving, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sat-warm --seed 1 --seconds 30 --trace 0

Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every output is checked against an oracle; a wrong answer makes the
command exit 1. Everything the run writes stays under ``.bench_build/``
in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sat-warm", "sat-cold")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes and rates, for the benchmark's own test")
    return parser.parse_args(argv)


def hermetic_env(workdir: str) -> None:
    """Point every cache the program keeps at this run's directory and
    pin the settings that change which code path runs."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    os.environ["REPRO_NATIVE_CACHE_DIR"] = os.path.join(workdir, "native")
    os.environ["REPRO_AUTOTUNE_PATH"] = os.path.join(workdir, "autotune.json")
    os.environ["REPRO_FUSED_BACKEND"] = "numpy"
    os.environ.pop("REPRO_OBS", None)
    os.environ.pop("REPRO_NATIVE_JIT", None)
    os.environ.pop("REPRO_PLAN_CACHE_SIZE", None)


def import_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter starting and importing the
    program: the part of set-up that one process can measure only once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    code = "import numpy, repro, repro.sat, repro.service, repro.autotune"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(base, f"run-{os.getpid()}")
    hermetic_env(workdir)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        return run(args, workdir, os.path.join(base, "traces"))
    finally:
        import harness

        harness.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str, trace_dir: str) -> int:
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    import config
    import harness
    import workloads

    cfg = config.QUICK if args.quick else config.FULL
    ref_start = harness.host_reference_s()
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    outcome = harness.Outcome()
    report = workloads.run_workload(
        args.workload, cfg, args.seed, args.seconds, tracer, outcome,
        workdir, traced=bool(args.trace),
    )
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        report["detail"]["trace_file"] = os.path.relpath(path, ROOT)
        metrics = report["layer"]
    else:
        import_s = import_seconds(cfg.import_repeats)
        metrics = dict(report["metrics"])
        metrics["setup_s"] = import_s + report["setup_s"]
        report["detail"]["import_s"] = import_s
    units = workloads.units()
    report["detail"]["host"] = harness.host_record(args.seed)
    report["detail"]["host"]["ref_s_start_end"] = [ref_start, harness.host_reference_s()]
    report["detail"]["host"]["native_toolchain"] = harness.native_toolchain()
    report["detail"]["fail_frac"] = outcome.failed / max(1, outcome.attempted)
    if outcome.errors:
        report["detail"]["errors"] = outcome.errors
    print("detail " + json.dumps(report["detail"], default=str, sort_keys=True))
    for name in sorted(metrics):
        print(f"metric {args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": harness.finite(value), "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct and report.get("checks_ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
