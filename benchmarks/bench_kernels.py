"""Timing of the hot kernels, the significance bound, CSV ingest and CSV writing.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--quick]

Reports best-of-5 wall time of word counting (`series._word_count_array`,
the counter behind `extract_words`, `empirical_entropy` and
`market_information`) across series lengths, word lengths and strides, and
of the sequential lag recursion of the pseudo-periodic simulator
(`simulate._lagged_recursion`), at n = 3e3, 1e5 and 1e6 (1e6 skipped with
--quick).  It also times one `significance_bound` call at lag counts L = 7,
12, 16 and 20 (Gamma shape 2**(L-1)), and `write_prices` (the `simulate` CSV
writer) and `load_prices` on a file of n = 1e5 and 1e6 prices (1e5 only
with --quick).
"""

import argparse
import os
import tempfile
import time

import numpy as np

from mktinfo.information import significance_bound
from mktinfo.series import IndicatorSeries, PriceSeries, load_prices, write_prices, \
    _word_count_array
from mktinfo.simulate import _lagged_recursion


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
    print(f"{'word counts':<28}{'time':>12}")
    for n in sizes:
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        for L in (1, 7, 10, 20):
            for m in (1, 3):
                j = IndicatorSeries(m, bits)
                t = best_of(lambda: _word_count_array(j, L))
                print(f"{f'n={n:<9} L={L:<3} m={m}':<28}{fmt(t):>12}")


def bench_recursion(quick):
    rng = np.random.default_rng(1)
    sizes = (3_000, 100_000) if quick else (3_000, 100_000, 1_000_000)
    print(f"\n{'lagged recursion':<28}{'time':>12}")
    for n in sizes:
        shocks = rng.standard_normal(n)
        t = best_of(lambda: _lagged_recursion(shocks, -0.9, 5, 0.436))
        print(f"{f'n={n:<9} lag=5':<28}{fmt(t):>12}")


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
            series = PriceSeries(np.arange(n), prices)

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
    bench_word_counts(args.quick)
    bench_recursion(args.quick)
    bench_bound()
    bench_ingest(args.quick)


if __name__ == "__main__":
    main()
