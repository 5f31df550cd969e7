"""Run the benchmark on two source trees in alternating pairs and compare
each end-to-end metric.

    python3 tools/compare.py PARENT CHANGE [--pairs 10] [--seconds S]
        [--workload NAME ...] [--small]

PARENT and CHANGE each name a source tree: the root of a checkout, or a
git revision of this checkout, such as HEAD~1.  Both sides run this
checkout's perfbench/run.py and BENCHMARK.json, each against a copy of its
own tree's src/ (a revision's is extracted by `git archive`), made in a
temporary directory that is removed, with every process the runs started,
before this exits.  Each run starts with an empty parsed-file cache
(XDG_CACHE_HOME) of its own in that directory.  For each workload
(default: every one BENCHMARK.json names), pair i runs both sides with
seed i, the parent first in even pairs and the change first in odd ones;
--seconds (default: BENCHMARK.json's run_seconds) and --small are passed
to every run.

Per workload it prints each side's `correct`, `attempted` and `failed`
over its runs, then per end-to-end metric each side's median and
quartiles, the median paired difference (change - parent), the pairs each
side won (ties count for neither) and one verdict:

    gain          the change won at least 9 of every 10 pairs and the
                  medians differ by more than the parent's quartile spread
    worse         the change's median is worse than the parent's by more
                  than the metric's bound, a fraction of the parent's median
    unresolved    neither, and the parent's quartile spread is wider than
                  that bound
    within bound  none of these

The exit code is 0 when every run printed a result that reads correct, 1
when one did not, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def verdict(parent: list, change: list, bound: float, better: str = "lower") -> dict:
    """Compare one metric's paired values (parent[i] and change[i] ran with
    one seed): each side's median and quartiles, the median paired
    difference, the pairs each side won, and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    wins = {"change": sum(g > 0 for g in gains), "parent": sum(g < 0 for g in gains)}
    median = {"parent": statistics.median(parent), "change": statistics.median(change)}
    quartiles = {side: statistics.quantiles(values, n=4)[::2]
                 for side, values in zip(SIDES, (parent, change))}
    iqr = quartiles["parent"][1] - quartiles["parent"][0]
    gained = sign * (median["parent"] - median["change"])
    if 10 * wins["change"] >= 9 * len(gains) and gained > iqr:
        outcome = "gain"
    elif -gained > bound * median["parent"]:
        outcome = "worse"
    elif iqr > bound * median["parent"]:
        outcome = "unresolved"
    else:
        outcome = "within bound"
    return {"median": median, "quartiles": quartiles, "wins": wins, "verdict": outcome,
            "difference": statistics.median(c - p for p, c in zip(parent, change))}


def run(side_dir: str, workload: str, seed: int, args) -> dict | None:
    """One benchmark run in `side_dir`: its result line, or None when it
    printed none.  Its process group is killed before this returns, so no
    process it started outlives it."""
    cmd = [sys.executable, os.path.join(CHECKOUT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.small:
        cmd.append("--small")
    # a parsed-file cache of its own, empty: no run reads what another stored
    with tempfile.TemporaryDirectory(prefix="cache-", dir=side_dir) as cache:
        proc = subprocess.Popen(cmd, cwd=side_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True,
                                env={**os.environ, "XDG_CACHE_HOME": cache})
        try:
            out, err = proc.communicate()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{workload} seed {seed} in {side_dir}: exit {proc.returncode}, no result\n{err}",
              file=sys.stderr)
        return None


def compare(workload: str, side_dirs: dict, specs: list, args) -> bool:
    """Run and report one workload's pairs; whether every run read correct."""
    values = {side: {spec["name"]: [] for spec in specs} for side in SIDES}
    totals = {side: {"correct": True, "attempted": 0, "failed": 0} for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run(side_dirs[side], workload, i, args)
            if result is None:
                return False
            totals[side]["correct"] &= result["correct"] is True
            totals[side]["attempted"] += result["attempted"]
            totals[side]["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                values[side][name].append(metric["value"])
            print(f"  pair {i + 1} {side}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                file=sys.stderr, flush=True)

    print(f"{workload}: {args.pairs} pairs, --seconds {args.seconds:g}, seeds "
          f"0-{args.pairs - 1}{', --small' if args.small else ''}")
    for side in SIDES:
        t = totals[side]
        print(f"  {side}: correct {str(t['correct']).lower()}, attempted {t['attempted']},"
              f" failed {t['failed']}")
    for spec in specs:
        name = spec["name"]
        v = verdict(values["parent"][name], values["change"][name], spec["bound"], spec["better"])
        sides = "  ".join(f"{side} {v['median'][side]:.4g} [{v['quartiles'][side][0]:.4g},"
                          f" {v['quartiles'][side][1]:.4g}]" for side in SIDES)
        print(f"  {name:<12} {sides}  diff {v['difference']:+.4g} {spec['unit']}"
              f"  wins change {v['wins']['change']} parent {v['wins']['parent']}"
              f"  bound {spec['bound']:g}  {v['verdict']}")
    return all(t["correct"] for t in totals.values())


def copy_src(tree: str, dest: str, repo: str = CHECKOUT) -> None:
    """Copy the src/ of `tree` into `dest`: a directory holding
    src/mktinfo, or else a revision of the git checkout `repo`, extracted
    by `git archive`; ValueError when `tree` is neither."""
    if os.path.isdir(tree):
        if not os.path.isfile(os.path.join(tree, "src", "mktinfo", "__init__.py")):
            raise ValueError(f"{tree} has no src/mktinfo")
        shutil.copytree(os.path.join(tree, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar", tree, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise ValueError(f"{tree} is neither a directory nor a revision with src/:"
                         f" {archive.stderr.decode(errors='replace').strip()}")
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    if not os.path.isfile(os.path.join(dest, "src", "mktinfo", "__init__.py")):
        raise ValueError(f"revision {tree} has no src/mktinfo")


def main(argv=None) -> int:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a checkout's root, or a git revision of this one")
    parser.add_argument("change", help="a checkout's root, or a git revision of this one")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two values")
    trees = dict(zip(SIDES, (args.parent, args.change)))

    with tempfile.TemporaryDirectory(prefix="mktinfo-compare-") as tmp:
        side_dirs = {}
        for side, tree in trees.items():
            side_dirs[side] = os.path.join(tmp, side)
            try:
                copy_src(tree, side_dirs[side])
            except ValueError as exc:
                parser.error(f"{side}: {exc}")
        ok = True
        for workload in args.workload or workloads:
            ok = compare(workload, side_dirs, bench["end_to_end"], args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
