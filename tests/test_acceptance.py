"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every test runs a fixed, seeded protocol and prints

    criterion NN <label>: PASS|FAIL (detail)

directly to the terminal (outside pytest capture), so the one-line verdicts
always appear in the run log.  Criteria 2 and 3 contain legs that are
analytically out of reach of the stated tolerances (finite-sample bias of
the plug-in estimator under strong long-range dependence; slow convergence
of the stationary correlation to its selfsimilar limit near H = 1).  Those
tests assert the stated tolerance anyway and are expected to fail; the
detail line quantifies by how much.
"""

import dataclasses
import json
import math
from itertools import product

import numpy as np

import mktinfo.cli as cli
from mktinfo.information import (
    entropy_rate_slope,
    market_information,
    profile_from_prices,
    significance_bound,
)
from mktinfo.scaling import estimate_hurst
from mktinfo.series import to_indicators
from mktinfo.simulate import (
    simulate_fbm,
    simulate_pseudo_periodic,
    to_price_series,
)
from mktinfo.theory import (
    FbmParams,
    info_delampertized,
    info_fbm,
    info_from_rho,
    orthant_probability,
    rho_delampertized,
    rho_fbm,
)

from markov_oracle import entropy_curve


def report(capsys, number, label, ok, detail):
    line = f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return line


def estimated_information(hurst, seed, n=3000, sigma=0.01, lags=1):
    path = simulate_fbm(FbmParams(hurst, sigma), n, seed=seed)
    j = to_indicators(to_price_series(path), 1)
    return market_information(j, lags)


def test_criterion_01_zero_point_and_limits(capsys):
    zero = abs(info_fbm(0.5))
    ok = zero <= 1e-12 and info_from_rho(1.0) == 1.0 and info_from_rho(-1.0) == 1.0
    msg = report(capsys, 1, "closed-form zero point and determinism limits", ok,
                 f"|info_fbm(0.5)|={zero:.2e}, info_from_rho(+-1)="
                 f"{info_from_rho(1.0)}/{info_from_rho(-1.0)}")
    assert ok, msg


def test_criterion_02_simulated_information_matches_closed_form(capsys):
    # 500 geometric fBm paths per H, debiased by the H = 0.5 baseline drawn
    # with its own fixed seed block; all seeds chosen a priori
    n_paths = 500

    def leg(hurst, base_seed):
        vals = np.array([estimated_information(hurst, base_seed + i)
                         for i in range(n_paths)])
        return vals.mean(), vals.var(ddof=1)

    base_mean, base_var = leg(0.5, 55555)
    pieces, ok = [], True
    for hurst, base_seed in ((0.3, 11111), (0.4, 22222), (0.6, 33333), (0.7, 44444)):
        mean, var = leg(hurst, base_seed)
        debiased = mean - base_mean
        se = math.sqrt(var / n_paths + base_var / n_paths)
        z = (debiased - info_fbm(hurst)) / se
        good = abs(z) <= 3.0
        ok &= good
        pieces.append(f"H={hurst} z={z:+.2f}{'' if good else ' EXCEEDS 3 SE'}")
    msg = report(capsys, 2, "simulated fBm information matches closed form", ok,
                 "; ".join(pieces))
    assert ok, msg


def test_criterion_03_stationary_correlation_limits(capsys):
    grid = np.linspace(0.05, 0.95, 181)
    devs = np.array([abs(rho_delampertized(h, 1e-6) - rho_fbm(h)) for h in grid])
    sup = float(devs.max())
    at = float(grid[devs.argmax()])
    clause1 = sup < 1e-3
    ou_dev = max(abs(rho_delampertized(0.5, x) - 0.5 * (math.exp(-0.5 * x) - 1.0))
                 for x in (0.5, 1.0, 2.0, 5.0))
    clause2 = ou_dev <= 1e-10
    ok = clause1 and clause2
    note = ("" if clause1 else
            " EXCEEDED: the gap decays like (m*theta)**(2-2H), too slowly near H=1")
    msg = report(capsys, 3, "stationary-process correlation limits", ok,
                 f"sup |rho - rho_fbm| at m*theta=1e-6 is {sup:.2e} at H={at:.2f}"
                 f" (tolerance 1e-3{note}); H=0.5 closed form dev {ou_dev:.1e}")
    assert ok, msg


def test_criterion_04_information_shape_across_reversion(capsys):
    strong = {h: info_delampertized(h, 1.0, 15.0) for h in (0.05, 0.5, 0.9)}
    grid = np.round(np.arange(0.05, 0.951, 0.05), 10)
    weak = np.array([info_delampertized(float(h), 1.0, 0.1) for h in grid])
    minimizer = float(grid[weak.argmin()])
    ok = (strong[0.5] > strong[0.9] and strong[0.05] > strong[0.9]
          and abs(minimizer - 0.5) <= 0.05 + 1e-12)
    msg = report(capsys, 4, "information vs Hurst under strong and weak reversion",
                 ok,
                 f"theta=15: I(0.5)={strong[0.5]:.4f} > I(0.9)={strong[0.9]:.4f},"
                 f" I(0.05)={strong[0.05]:.4f} > I(0.9);"
                 f" theta=0.1 minimizer H={minimizer:.2f}")
    assert ok, msg


def test_criterion_05_entropy_rate_slope(capsys):
    def mean_slope(hurst):
        slopes = []
        for seed in range(50):
            path = simulate_fbm(FbmParams(hurst, 0.01), 3000, seed=seed)
            ep, _ = profile_from_prices(to_price_series(path), L_max=7,
                                        m_values=(1,))
            slopes.append(entropy_rate_slope(ep, 1, range(1, 8)))
        return float(np.mean(slopes))

    s4, s5 = mean_slope(0.4), mean_slope(0.5)
    ok = abs(s4 - 0.98) <= 0.01 and abs(s5 - 0.99) <= 0.01
    msg = report(capsys, 5, "entropy-rate slope on simulated fBm", ok,
                 f"H=0.4 slope {s4:.4f} (want 0.98 +- 0.01),"
                 f" H=0.5 slope {s5:.4f} (want 0.99 +- 0.01)")
    assert ok, msg


def test_criterion_06_lag_recursion_partial_information_peak(capsys):
    hits_m1 = hits_m2 = 0
    for seed in range(100):
        path = simulate_pseudo_periodic(-0.9, 5, 3000, seed=seed)
        path = dataclasses.replace(path, values=0.01 * path.values)
        _, ip = profile_from_prices(to_price_series(path), L_max=7,
                                    m_values=(1, 2))
        # partial information of the order-(L+1) word, indexed by lag L
        pl1 = ip.partial[1:, 0]
        pl2 = ip.partial[1:, 1]
        hits_m1 += int(np.argmax(pl1)) + 1 == 5
        # at horizon 2 the recursion is straddled by shorter words: the peak
        # moves below 5, showing up as an interior local maximum
        hits_m2 += any(pl2[L - 1] > pl2[L - 2] and pl2[L - 1] > pl2[L]
                       for L in (2, 3, 4))
    ok = hits_m1 >= 90 and hits_m2 >= 90
    msg = report(capsys, 6, "partial-information peak of the lag-recursion toy",
                 ok,
                 f"m=1 argmax at lag 5 in {hits_m1}/100 seeds;"
                 f" m=2 peak below lag 5 in {hits_m2}/100 seeds")
    assert ok, msg


def test_criterion_07_significance_bound_calibration(capsys):
    bound = significance_bound(2999, 1, 1, 0.95)
    exceed = sum(estimated_information(0.5, seed) > bound
                 for seed in range(10000, 10400))
    rate = exceed / 400.0
    ok = abs(bound - 1.441e-3) <= 1e-5 and 0.025 <= rate <= 0.075
    msg = report(capsys, 7, "null significance-bound calibration", ok,
                 f"bound {bound:.4e}; exceedance {exceed}/400 = {100 * rate:.2f}%"
                 f" (want 2.5%..7.5%)")
    assert ok, msg


def test_criterion_08_markov_entropy_concavity_exact(capsys):
    probs = np.round(np.arange(0.1, 0.91, 0.1), 10)
    worst_mono = -np.inf
    worst_curv = -np.inf
    n_chains = 0
    for order in (1, 2):
        for combo in product(probs, repeat=2 ** order):
            curve = entropy_curve(np.array(combo), order, 6)
            diffs = np.diff(curve)
            worst_mono = max(worst_mono, float((-diffs).max()))
            worst_curv = max(worst_curv, float(np.diff(diffs).max()))
            n_chains += 1
    ok = worst_mono <= 1e-12 and worst_curv <= 1e-12
    msg = report(capsys, 8, "Markov word-law entropy concavity by enumeration",
                 ok,
                 f"{n_chains} chains; worst monotonicity violation"
                 f" {worst_mono:.2e}, worst second difference {worst_curv:.2e}")
    assert ok, msg


def test_criterion_09_orthant_probability_monte_carlo(capsys):
    rng = np.random.default_rng(99)
    n = 10_000_000
    pieces, ok = [], True
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        hits = 0
        for _ in range(10):
            z1 = rng.standard_normal(n // 10)
            z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n // 10)
            hits += int(np.count_nonzero((z1 > 0.0) & (z2 <= 0.0)))
        p = orthant_probability(rho)
        tol = 3.0 * math.sqrt(p * (1.0 - p) / n)
        dev = abs(hits / n - p)
        good = dev < tol
        ok &= good
        pieces.append(f"rho={rho:+.1f} dev={dev:.1e}{'' if good else ' > tol'}")
    msg = report(capsys, 9, "orthant probability vs Monte Carlo", ok,
                 "; ".join(pieces))
    assert ok, msg


def test_criterion_10_hurst_estimator_accuracy(capsys):
    pieces, ok = [], True
    for hurst in (0.3, 0.5, 0.7):
        ests = [estimate_hurst(simulate_fbm(FbmParams(hurst), 3000,
                                            seed=20000 + s).values).hurst_estimate
                for s in range(100)]
        err = float(np.mean(ests)) - hurst
        good = abs(err) <= 0.05
        ok &= good
        pieces.append(f"H={hurst} mean err {err:+.4f}")
    msg = report(capsys, 10, "structure-function Hurst estimator accuracy", ok,
                 "; ".join(pieces))
    assert ok, msg


def test_criterion_11_end_to_end_four_panel(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    assert cli.main(["simulate", "fbm", "--hurst", "0.6", "--sigma", "0.01",
                     "--n", "500", "--seed", "42", "-o", str(csv)]) == 0

    assert cli.main(["analyze", str(csv), "--L-max", "7",
                     "--m-values", "1", "2", "3"]) == 0
    profile = json.loads(capsys.readouterr().out)

    assert cli.main(["hurst", str(csv), "--max-scale", "12"]) == 0
    loglog = json.loads(capsys.readouterr().out)

    assert cli.main(["theory", "delampertized", "--theta", "0.1", "15",
                     "--format", "json"]) == 0
    curves = json.loads(capsys.readouterr().out)

    panels = {
        "entropy": np.asarray(profile["H"], dtype=np.float64),
        "information": np.asarray(profile["I"], dtype=np.float64),
        "partial": np.asarray(profile["partial"], dtype=np.float64),
        "loglog": np.asarray([loglog["log2_scale"], loglog["log2_moment"]]),
    }
    ok = (all(a.size and np.all(np.isfinite(a)) for a in panels.values())
          and panels["entropy"].shape == (8, 3)
          and profile["n"] == 499
          and len(loglog["scales"]) == 12
          and np.isfinite(loglog["hurst_estimate"])
          and len(curves) == 2 and len(curves[0]["I2"]) == 19)
    msg = report(capsys, 11, "end-to-end four-panel run from one CSV", ok,
                 "entropy/information/partial grids 8x3, log-log 12 scales,"
                 f" hurst_estimate={loglog['hurst_estimate']:.3f},"
                 " two closed-form curves")
    assert ok, msg
