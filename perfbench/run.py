"""mktinfo benchmark: run one workload for one seed and print one JSON line.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload four-panel --seed 1 --seconds 10 --trace 0

Workloads: four-panel, deep-profile, monte-carlo (see perfbench/README.md).
With --trace 0 the result holds the end-to-end metrics; with --trace 1 an
untraced phase is followed by a traced one, and the result holds the
per-layer metrics and the tracing overhead.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every check passed.  --small shrinks every input (smoke test).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, suppress

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# A set-up repetition starts the interpreter and imports the CLI, as every
# command a user runs does; workloads with an input then build it.
IMPORT_PROBE = ["-c", "import mktinfo.cli"]
MIN_ROUNDS = {"four-panel": 3, "deep-profile": 3, "monte-carlo": 16}
WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("four-panel", "deep-profile", "monte-carlo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def prepare_environment(root: str) -> str:
    """Point this process and its children at ./src and cap BLAS threads."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mktinfo", "__init__.py")):
        raise SystemExit(f"error: {src}/mktinfo not found; run from the root of a checkout")
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    return src


def measure(workload, seconds, min_rounds, tracer=None):
    """Whole rounds until `seconds` have passed and `min_rounds` are done.

    A traced phase first repeats one set-up from cleared caches, untimed, so
    that its spans hold the cold sampler calls; rounds then run warm, as in
    the untraced phase.
    """
    from workloads import clear_caches

    patch = tracer.installed() if tracer is not None and workload.in_process else nullcontext()
    round_times, failed = [], 0
    with patch:
        if tracer is not None:
            clear_caches()
            tracer.reset_cache_state()
            tracer.round = None
            workload.build_inputs()
        start = time.perf_counter()
        while len(round_times) < min_rounds or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.round = len(round_times)
            t0 = time.perf_counter()
            failed += workload.run_round(len(round_times), tracer)
            round_times.append(time.perf_counter() - t0)
    return {"round_times": round_times,
            "attempted": len(round_times) * workload.ops_per_round, "failed": failed}


def setup(workload):
    """Set up SETUP_REPEATS times from cold caches; return the median time.

    The last set-up's inputs and warm caches are what the rounds use.
    """
    from workloads import clear_caches, run_child

    times = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        t0 = time.perf_counter()
        if run_child([sys.executable] + IMPORT_PROBE) != 0:
            raise SystemExit("error: `import mktinfo.cli` failed in a child process")
        workload.build_inputs()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = prepare_environment(root)

    t0 = time.perf_counter()
    import mktinfo.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(mktinfo.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported mktinfo from {mktinfo.cli.__file__}, not {src}")

    from spans import Tracer, layer_metrics, summary
    from workloads import WORKLOADS

    work = os.path.join(root, WORK_DIR, args.workload)
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.small, work)
        setup_s = setup(workload)
        plain = measure(workload, args.seconds, MIN_ROUNDS[args.workload])
        peak_rss_mb = workload.peak_rss_mb()
        attempted, failed = plain["attempted"], plain["failed"]
        if args.trace:
            tracer = Tracer()
            traced = measure(workload, args.seconds, 1, tracer)
            attempted += traced["attempted"]
            failed += traced["failed"]
            n_traced = len(traced["round_times"])
            metrics = layer_metrics(tracer.spans, n_traced)
            print("\n".join(summary(tracer.spans, n_traced)), file=sys.stderr)
            metrics.update({"cli.import_s": import_s, "cli.bytes_read": 0,
                            "cli.bytes_written": 0, "cli.simulate_cmd_s": 0.0,
                            "cli.analyze_cmd_s": 0.0, "cli.hurst_cmd_s": 0.0,
                            "cli.theory_cmd_s": 0.0})
            metrics.update(workload.cli_metrics())
            metrics["trace.overhead_s"] = (statistics.median(traced["round_times"])
                                           - statistics.median(plain["round_times"]))
            section = "per_layer"
        else:
            metrics = {
                "setup_s": setup_s,
                "round_s": statistics.median(plain["round_times"]),
                "peak_rss_mb": peak_rss_mb,
            }
            section = "end_to_end"
        failures = workload.checks(traced_too=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(work))

    units = metric_units(section)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
