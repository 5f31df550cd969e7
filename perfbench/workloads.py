"""The three workloads: the README's four-panel CLI recipe, one deep in-memory
profile, and a Monte Carlo over seeds.

A workload builds its inputs from the seed (`build_inputs`, timed as set-up),
runs whole rounds of the same operations (`run_round`, returns how many
failed), and checks its outputs afterwards (`checks`, never timed).  Rounds
of a traced phase record spans into the Tracer handed to `run_round`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time

import numpy as np

# Program calls go through the package namespace, so that a Tracer's
# wrappers (installed there) see them.
import mktinfo
from mktinfo import DelampertizedParams, FbmParams, NumericError

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_CHILD = os.path.join(HERE, "cli_child.py")
CHILD_TIMEOUT_S = 170

# fBm log-prices use sigma = 0.001: at n = 1e6 and H = 0.7 the log-price
# spread is then about 16, far from the exp() overflow at 709 that larger
# sigmas reach on some seeds.  Signs, hence all information measures, do
# not depend on sigma.
FBM = FbmParams(0.7, 0.001)
DELAMPERTIZED = DelampertizedParams(0.3, 2.0, 0.01)
PP_BETA, PP_TAU = -0.9, 5
PP_SCALE = 0.01  # the CLI's scale: unit-variance returns cannot compound into prices


def run_child(cmd: list[str]) -> int:
    """Run a child process to its end and return its exit code (-1 on timeout).

    Waits on a pidfd rather than Popen.wait(timeout), which polls with sleeps
    of up to 50 ms and would round every timed command up to its next poll.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    pidfd = os.pidfd_open(proc.pid)
    try:
        finished, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
    finally:
        os.close(pidfd)
    if not finished:
        proc.kill()
        proc.wait()
        return -1
    return proc.wait()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _profile_failures(label, ep_H, ip_I, ip_bounds, n, m_values, confidence, prices, cells):
    return (checks.check_profile_properties(label, ep_H, ip_I)
            + checks.check_cells(label, prices, ep_H, ip_I, m_values, cells)
            + checks.check_bounds(label, ip_bounds, n, m_values, confidence))


class FourPanel:
    """simulate fbm -> analyze -> hurst -> theory, each a fresh `mktinfo` process."""

    in_process = False
    OUTPUTS = ("prices.csv", "profile.json", "loglog.json", "curves.json")

    def __init__(self, seed: int, small: bool, work: str):
        self.seed = seed
        self.n = 20_000 if small else 1_000_000
        self.ops_per_round = 4
        self.work = work
        self.cmd_times: dict[str, list[float]] = {}
        self.import_times: list[float] = []
        self.bytes_read: list[int] = []
        self.bytes_written: list[int] = []

    def _dir(self, traced: bool) -> str:
        return os.path.join(self.work, "traced" if traced else "plain")

    def _commands(self, d: str):
        csv = os.path.join(d, "prices.csv")
        return [
            ("simulate", ["simulate", "fbm", "--hurst", str(FBM.hurst), "--sigma", str(FBM.sigma),
                          "--n", str(self.n), "--seed", str(self.seed), "-o", csv]),
            ("analyze", ["analyze", csv, "--L-max", "7", "--m-values", "1", "2", "3",
                         "-o", os.path.join(d, "profile.json")]),
            ("hurst", ["hurst", csv, "-o", os.path.join(d, "loglog.json")]),
            ("theory", ["theory", "delampertized", "--theta", "0.1", "15", "--format", "json",
                        "-o", os.path.join(d, "curves.json")]),
        ]

    def build_inputs(self) -> None:
        """The inputs are made by the first timed command; only the directories are needed."""
        for traced in (False, True):
            os.makedirs(self._dir(traced), exist_ok=True)

    def run_round(self, r: int, tracer) -> int:
        d = self._dir(tracer is not None)
        for name in self.OUTPUTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(d, name))
        failed = 0
        for name, argv in self._commands(d):
            if tracer is None:
                cmd = [sys.executable, "-m", "mktinfo"] + argv
            else:
                spans_path = os.path.join(d, f"spans_{name}.json")
                cmd = [sys.executable, CLI_CHILD, spans_path, "--"] + argv
            start = time.perf_counter()
            code = run_child(cmd)
            wall = time.perf_counter() - start
            if code != 0:
                print(f"error: `mktinfo {' '.join(argv)}` exited with {code}", file=sys.stderr)
                failed += 1
                continue
            if tracer is None:
                self.cmd_times.setdefault(name, []).append(wall)
            else:
                self._merge_spans(tracer, spans_path, r)
        if failed:
            return failed
        if tracer is None:
            # keep this round's file (a link costs nothing) for the same-seed check
            os.link(os.path.join(d, "prices.csv"), os.path.join(d, f"prices_{r}.csv"))
        else:
            csv_size = os.path.getsize(os.path.join(d, "prices.csv"))
            self.bytes_read.append(2 * csv_size)  # analyze and hurst each read it once
            self.bytes_written.append(sum(os.path.getsize(os.path.join(d, f))
                                          for f in self.OUTPUTS))
        return 0

    def _merge_spans(self, tracer, path: str, r: int) -> None:
        with open(path) as fh:
            payload = json.load(fh)
        offset = len(tracer.spans)
        for span in payload["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            span["round"] = r
            tracer.spans.append(span)
        self.import_times.append(payload["import_s"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def cli_metrics(self) -> dict:
        out = {f"cli.{name}_cmd_s": statistics.median(self.cmd_times.get(name, [0.0]))
               for name in ("simulate", "analyze", "hurst", "theory")}
        out["cli.import_s"] = statistics.median(self.import_times or [0.0])
        out["cli.bytes_read"] = statistics.median(self.bytes_read or [0])
        out["cli.bytes_written"] = statistics.median(self.bytes_written or [0])
        return out

    def checks(self, traced_too: bool) -> list[str]:
        d = self._dir(False)
        failures = []
        rounds = [f for f in os.listdir(d) if f.startswith("prices_")]
        if not rounds:
            return ["four-panel: no round completed"]
        if len({_file_sha(os.path.join(d, f)) for f in rounds}) != 1:
            failures.append("four-panel: the same seed wrote different price files")
        table = np.loadtxt(os.path.join(d, "prices.csv"), delimiter=",", skiprows=2)
        timestamps, prices = table[:, 0], table[:, 1]
        if len(prices) != self.n or not np.array_equal(timestamps, np.arange(self.n)):
            failures.append(f"four-panel: price file has {len(prices)} rows, expected {self.n}")
        with open(os.path.join(d, "profile.json")) as fh:
            profile = json.load(fh)
        H, I = profile["H"], profile["I"]
        if profile["n"] != len(prices) - 1:
            failures.append(f"four-panel: profile n = {profile['n']}, expected {len(prices) - 1}")
        cells = checks.sample_cells(np.random.default_rng(self.seed), len(H), profile["m_values"], 4)
        failures += _profile_failures(
            "four-panel profile", np.array(H, dtype=float), np.array(I, dtype=float),
            profile["bounds"], profile["n"], profile["m_values"], profile["confidence"],
            prices, cells)
        failures += self._check_hurst(d, prices)
        failures += self._check_curves(d)
        if traced_too:
            for name in self.OUTPUTS:
                if _file_sha(os.path.join(d, name)) != _file_sha(os.path.join(self._dir(True), name)):
                    failures.append(f"four-panel: traced run wrote a different {name}")
        return failures

    def _check_hurst(self, d: str, prices: np.ndarray) -> list[str]:
        with open(os.path.join(d, "loglog.json")) as fh:
            loglog = json.load(fh)
        failures = []
        logp = np.log(prices)
        scales = np.array(loglog["scales"])
        moments = np.array([np.mean((logp[s:] - logp[:-s]) ** 2) for s in scales])
        if not np.allclose(np.log2(moments), loglog["log2_moment"], rtol=0.0, atol=1e-9):
            failures.append("four-panel: structure function differs from the reference")
        lo, hi = loglog["fit_range"]
        mask = (scales >= lo) & (scales <= hi)
        slope = np.polyfit(np.log2(scales[mask]), np.log2(moments[mask]), 1)[0]
        if not abs(slope / 2.0 - loglog["hurst_estimate"]) <= 1e-9:
            failures.append(f"four-panel: Hurst estimate {loglog['hurst_estimate']!r},"
                            f" reference fit gives {slope / 2.0!r}")
        if not abs(loglog["hurst_estimate"] - FBM.hurst) <= checks.HURST_TOL:
            failures.append(f"four-panel: Hurst estimate {loglog['hurst_estimate']!r}"
                            f" far from {FBM.hurst}")
        return failures

    def _check_curves(self, d: str) -> list[str]:
        with open(os.path.join(d, "curves.json")) as fh:
            curves = json.load(fh)
        thetas = sorted(c["fixed_params"]["theta"] for c in curves)
        if thetas != [0.1, 15.0]:
            return [f"four-panel: theory curves for theta {thetas}, expected [0.1, 15.0]"]
        failures = []
        for c in curves:
            m_theta = c["fixed_params"]["theta"] * c["fixed_params"]["m"]
            failures += checks.check_curve(f"four-panel theta={c['fixed_params']['theta']}",
                                           "delampertized", c["abscissa"], c["I2"], m_theta)
        return failures


class DeepProfile:
    """profile_from_prices(prices, L_max=15, m_values=1..5) on one n = 1e6 fBm series."""

    in_process = True
    L_MAX = 15
    M_VALUES = (1, 2, 3, 4, 5)

    def __init__(self, seed: int, small: bool, work: str):
        self.seed = seed
        self.n = 20_000 if small else 1_000_000
        self.ops_per_round = 1
        self.prices = None
        self.input_hashes: list[str] = []
        self.outputs: dict[bool, list] = {False: [], True: []}

    def build_inputs(self) -> None:
        path = mktinfo.simulate_fbm(FBM, self.n, 1.0, self.seed)
        self.prices = mktinfo.to_price_series(path)
        self.input_hashes.append(hashlib.sha256(self.prices.prices.tobytes()).hexdigest())

    def run_round(self, r: int, tracer) -> int:
        try:
            ep, ip = mktinfo.profile_from_prices(self.prices, L_max=self.L_MAX,
                                                 m_values=self.M_VALUES)
        except (ValueError, NumericError) as exc:
            print(f"error: deep profile: {exc}", file=sys.stderr)
            return 1
        self.outputs[tracer is not None].append((ep, ip))
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli_metrics(self) -> dict:
        return {}

    def checks(self, traced_too: bool) -> list[str]:
        failures = []
        if len(set(self.input_hashes)) != 1:
            failures.append("deep-profile: the same seed built different price series")
        runs = self.outputs[False] + (self.outputs[True] if traced_too else [])
        if not runs:
            return failures + ["deep-profile: no round completed"]
        ep, ip = runs[0]
        for other_ep, other_ip in runs[1:]:
            if not (np.array_equal(other_ep.H, ep.H, equal_nan=True)
                    and np.array_equal(other_ip.I, ip.I, equal_nan=True)):
                failures.append("deep-profile: repeated profiles of one series differ")
                break
        cells = checks.sample_cells(np.random.default_rng(self.seed), self.L_MAX + 1,
                                    self.M_VALUES, 4)
        failures += _profile_failures("deep-profile", ep.H, ip.I, ip.bounds, ip.n,
                                      self.M_VALUES, ip.confidence, self.prices.prices, cells)
        return failures


class MonteCarlo:
    """One path per model per round: simulate, to_price_series, profile, Hurst."""

    in_process = True
    MODELS = ("fbm", "delampertized", "pseudo-periodic")
    L_MAX = 7
    M_VALUES = (1, 2, 3)

    def __init__(self, seed: int, small: bool, work: str):
        self.seed = seed
        self.sizes = (20_000, 500, 20_000) if small else (100_000, 3000, 100_000)
        self.ops_per_round = len(self.MODELS)
        self.outputs: dict[bool, list] = {False: [], True: []}
        self.first_paths: dict[int, object] = {}

    def build_inputs(self) -> None:
        """Draw one path of each model, so the rounds reuse warm sampler
        caches: the cold factorisation is paid here, once per set-up."""
        for j in range(len(self.MODELS)):
            self.simulate(j, self.seed)

    def path_seed(self, r: int, j: int) -> int:
        return int(np.random.SeedSequence([self.seed, r, j]).generate_state(1)[0])

    def simulate(self, j: int, seed: int):
        n = self.sizes[j]
        if j == 0:
            return mktinfo.simulate_fbm(FBM, n, 1.0, seed)
        if j == 1:
            return mktinfo.simulate_delampertized(DELAMPERTIZED, n, 1.0, seed)
        path = mktinfo.simulate_pseudo_periodic(PP_BETA, PP_TAU, n, seed)
        return dataclasses.replace(path, values=PP_SCALE * path.values)

    def run_round(self, r: int, tracer) -> int:
        failed = 0
        row = []
        for j in range(len(self.MODELS)):
            try:
                path = self.simulate(j, self.path_seed(r, j))
                prices = mktinfo.to_price_series(path)
                ep, ip = mktinfo.profile_from_prices(prices, L_max=self.L_MAX,
                                                     m_values=self.M_VALUES)
                curve = mktinfo.estimate_hurst(np.log(prices.prices))
            except (ValueError, NumericError) as exc:
                print(f"error: {self.MODELS[j]} path {r}: {exc}", file=sys.stderr)
                failed += 1
                row.append(None)
                continue
            row.append((ep, ip, curve.hurst_estimate))
            if r == 0 and tracer is None:
                self.first_paths[j] = path
        self.outputs[tracer is not None].append(row)
        return failed

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli_metrics(self) -> dict:
        return {}

    def checks(self, traced_too: bool) -> list[str]:
        rounds = self.outputs[False]
        failures = []
        if traced_too:
            for r, (plain, traced) in enumerate(zip(rounds, self.outputs[True])):
                for a, b in zip(plain, traced):
                    if a is not None and b is not None and not np.array_equal(
                            a[1].I, b[1].I, equal_nan=True):
                        failures.append(f"monte-carlo: traced round {r} differs")
        per_model = [[row[j] for row in rounds if row[j] is not None]
                     for j in range(len(self.MODELS))]
        if min(len(p) for p in per_model) < 2:
            return failures + ["monte-carlo: fewer than two paths of a model completed"]
        for j, paths in enumerate(per_model):
            for k, (ep, ip, _) in enumerate(paths):
                failures += checks.check_profile_properties(
                    f"monte-carlo {self.MODELS[j]} path {k}", ep.H, ip.I)
        failures += self._check_theory(per_model)
        hurst = float(np.mean([h for _, _, h in per_model[0]]))
        if not abs(hurst - FBM.hurst) <= checks.HURST_TOL:
            failures.append(f"monte-carlo: mean fBm Hurst estimate {hurst!r}")
        peaks = {int(np.nanargmax(ip.partial[:, 0])) + 1 for _, ip, _ in per_model[2]}
        if peaks != {PP_TAU + 1}:
            failures.append(f"monte-carlo: pseudo-periodic partial information peaks at"
                            f" orders {sorted(peaks)}, expected {PP_TAU + 1}")
        failures += self._check_first_round(rounds[0])
        return failures

    def _check_theory(self, per_model) -> list[str]:
        fbm_ref = checks.orthant_information(checks.rho_fbm_reference(FBM.hurst))
        del_ref = checks.orthant_information(checks.rho_delampertized_reference(
            DELAMPERTIZED.hurst, 1.0 * DELAMPERTIZED.theta))
        failures = []
        for label, program, ref in (
                ("info_fbm(0.7)", mktinfo.info_fbm(FBM.hurst), fbm_ref),
                ("info_delampertized(0.3, 1, 2)",
                 mktinfo.info_delampertized(DELAMPERTIZED.hurst, 1.0, DELAMPERTIZED.theta),
                 del_ref)):
            if not abs(program - ref) <= checks.THEORY_ABS_TOL:
                failures.append(f"monte-carlo: {label} = {program!r}, orthant reference {ref!r}")
        i2 = [[ip.cell(2, 1) for _, ip, _ in paths] for paths in per_model[:2]]
        failures += checks.check_mean("monte-carlo fBm I(2, m=1)", i2[0], fbm_ref,
                                      checks.fbm_bias_allowance(FBM.hurst, self.sizes[0]))
        failures += checks.check_mean("monte-carlo delampertized I(2, m=1)", i2[1], del_ref)
        return failures

    def _check_first_round(self, row) -> list[str]:
        """Replay round 0: same seed, bit-identical path; sample cells and bounds."""
        failures = []
        rng = np.random.default_rng(self.seed)
        for j, out in enumerate(row):
            if out is None:
                continue
            _, ip0, _ = out
            label = f"monte-carlo {self.MODELS[j]} path 0"
            replay = self.simulate(j, self.path_seed(0, j))
            if replay.values.tobytes() != self.first_paths[j].values.tobytes():
                failures.append(f"{label}: the same seed gave a different path")
            prices = mktinfo.to_price_series(replay)
            ep, ip = mktinfo.profile_from_prices(prices, L_max=self.L_MAX, m_values=self.M_VALUES)
            if not np.array_equal(ip.I, ip0.I, equal_nan=True):
                failures.append(f"{label}: replayed profile differs from the timed one")
            cells = checks.sample_cells(rng, self.L_MAX + 1, self.M_VALUES, 3)
            failures += _profile_failures(label, ep.H, ip.I, ip.bounds, ip.n, self.M_VALUES,
                                          ip.confidence, prices.prices, cells)
        return failures


WORKLOADS = {"four-panel": FourPanel, "deep-profile": DeepProfile, "monte-carlo": MonteCarlo}


def clear_caches() -> None:
    """Empty every functools cache in the package, so a phase starts cold as a
    fresh process would (the samplers cache their factorisations)."""
    for name, module in list(sys.modules.items()):
        if name == "mktinfo" or name.startswith("mktinfo."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

