"""Timing comparison of the compiled kernels against the pure-Python fallback,
and timing of the significance bound, CSV ingest and CSV writing.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--quick]

Times the two backends on word counting across series lengths, word lengths,
and strides, and on the sequential lag recursion, reporting best-of-5 wall
time and the speedup of the compiled extension.  It also times one
`significance_bound` call at lag counts L = 7, 12, 16 and 20 (Gamma shape
2**(L-1)), and `write_prices` (the `simulate` CSV writer) and `load_prices`
on a file of n = 1e5 and 1e6 prices (1e5 only with --quick).
"""

import argparse
import os
import tempfile
import time

import numpy as np

import mktinfo._kernels_py as kpy
from mktinfo.information import significance_bound
from mktinfo.series import PriceSeries, load_prices, write_prices

try:
    import mktinfo._kernels as kc
except ImportError:
    kc = None


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f} ms"
    return f"{seconds:8.3f} s "


def bench_word_counts(quick):
    rng = np.random.default_rng(0)
    sizes = (3_000, 100_000) if quick else (3_000, 100_000, 1_000_000)
    cases = [(L, m) for L in (1, 7, 10) for m in (1, 3)]
    print(f"{'word_counts':<28}{'python':>12}{'compiled':>12}{'speedup':>9}")
    for n in sizes:
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        for L, m in cases:
            n_win = n - (L - 1) * m
            if n_win < 1:
                continue
            t_py = best_of(lambda: kpy.word_counts(bits, L, m, n_win))
            label = f"n={n:<9} L={L:<3} m={m}"
            if kc is None:
                print(f"{label:<28}{fmt(t_py):>12}{'-':>12}{'-':>9}")
                continue
            t_c = best_of(lambda: kc.word_counts(bits, L, m, n_win))
            np.testing.assert_array_equal(kpy.word_counts(bits, L, m, n_win),
                                          kc.word_counts(bits, L, m, n_win))
            print(f"{label:<28}{fmt(t_py):>12}{fmt(t_c):>12}{t_py / t_c:>8.1f}x")


def bench_recursion(quick):
    rng = np.random.default_rng(1)
    sizes = (3_000, 100_000) if quick else (3_000, 100_000, 1_000_000)
    print(f"\n{'ar_lagged_recursion':<28}{'python':>12}{'compiled':>12}{'speedup':>9}")
    for n in sizes:
        shocks = rng.standard_normal(n)
        t_py = best_of(lambda: kpy.ar_lagged_recursion(shocks, -0.9, 5, 0.436))
        label = f"n={n:<9} lag=5"
        if kc is None:
            print(f"{label:<28}{fmt(t_py):>12}{'-':>12}{'-':>9}")
            continue
        t_c = best_of(lambda: kc.ar_lagged_recursion(shocks, -0.9, 5, 0.436))
        np.testing.assert_array_equal(
            kpy.ar_lagged_recursion(shocks, -0.9, 5, 0.436),
            kc.ar_lagged_recursion(shocks, -0.9, 5, 0.436))
        print(f"{label:<28}{fmt(t_py):>12}{fmt(t_c):>12}{t_py / t_c:>8.1f}x")


def bench_bound():
    print(f"\n{'significance_bound':<28}{'per call':>12}")
    for lags in (7, 12, 16, 20):
        t = best_of(lambda: significance_bound(1_000_000, lags, 1, 0.95))
        print(f"{f'L={lags:<3} shape=2^{lags - 1}':<28}{fmt(t):>12}")


def bench_ingest(quick):
    rng = np.random.default_rng(2)
    sizes = (100_000,) if quick else (100_000, 1_000_000)
    print(f"\n{'price CSV':<28}{'write':>12}{'load':>12}{'rows/s load':>14}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prices.csv")
        for n in sizes:
            prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, n)))
            series = PriceSeries(tuple(range(n)), prices)

            def write():
                with open(path, "w") as fh:
                    write_prices(series, fh)

            t_write = best_of(write)
            t_load = best_of(lambda: load_prices(path))
            assert load_prices(path).prices.tobytes() == prices.tobytes()
            print(f"{f'n={n}':<28}{fmt(t_write):>12}{fmt(t_load):>12}{n / t_load:>14.3g}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the million-point cases")
    args = parser.parse_args()
    if kc is None:
        print("compiled extension not available; timing the fallback only\n")
    bench_word_counts(args.quick)
    bench_recursion(args.quick)
    bench_bound()
    bench_ingest(args.quick)


if __name__ == "__main__":
    main()
