"""Word counts, entropy, market information, the null gamma bound, and profiles."""

import itertools
import json
import math
import time
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.stats

import mktinfo.information as information
from mktinfo.information import (
    MAX_L,
    EntropyProfile,
    InformationProfile,
    empirical_entropy,
    entropy_rate_slope,
    gamma_quantile,
    information_profile,
    market_information,
    profile_from_prices,
    profile_to_csv,
    profile_to_json,
    significance_bound,
)
from mktinfo.series import IndicatorSeries, PriceSeries, compute_returns, to_indicators
from mktinfo.simulate import simulate_fbm, to_price_series
from mktinfo.theory import FbmParams

from markov_oracle import entropy_curve

LN2 = math.log(2.0)


def bisection_quantile(shape, p):
    """Unit-scale Erlang quantile by bisection on the survival sum, term by term."""
    def survival(y):
        log_term, total = -y, 0.0
        for j in range(shape):
            total += math.exp(log_term)
            log_term += math.log(y) - math.log(j + 1)
        return total

    lo, hi = 0.0, float(shape)
    while survival(hi) > 1.0 - p:
        hi *= 2.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if survival(mid) > 1.0 - p else (lo, mid)
    return 0.5 * (lo + hi)


def bits_series(bits, m=1):
    return IndicatorSeries(m, np.asarray(bits, dtype=np.uint8))


def reference_information(bits, lags):
    """Plain-dict recount of 1 + H(prefix) - H(full) on the common range."""
    bits = list(int(b) for b in bits)
    n_win = len(bits) - lags
    full = Counter(tuple(bits[i:i + lags + 1]) for i in range(n_win))
    pre = Counter(tuple(bits[i:i + lags]) for i in range(n_win))

    def ent(counter):
        return -sum((c / n_win) * math.log2(c / n_win) for c in counter.values())

    return 1.0 + ent(pre) - ent(full)


class TestEntropy:
    def test_uniform_pair(self):
        assert empirical_entropy(bits_series([0, 1] * 5), 1) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate(self):
        # seven windows (b_i, b_{i+7}), each the word 01
        assert empirical_entropy(bits_series([0] * 7 + [1] * 7, m=7), 2) == 0.0

    def test_hand_value(self):
        want = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert empirical_entropy(bits_series([0, 1, 0, 0]), 1) == pytest.approx(want, rel=1e-15)

    def test_too_short(self):
        with pytest.raises(ValueError, match=r"series too short for \(L=2, m=3\)"):
            empirical_entropy(bits_series([1, 0, 1], m=3), 2)

    def test_bounded_by_word_length(self):
        rng = np.random.default_rng(6)
        j = bits_series(rng.integers(0, 2, size=64))
        for L in range(1, 6):
            assert 0.0 <= empirical_entropy(j, L) <= L + 1e-12

    def test_deep_word_length_counts_only_occurring_words(self):
        # 2**31 possible words over 170 windows: a dense count would need 16 GB
        bits = np.random.default_rng(8).integers(0, 2, size=200)
        L = MAX_L + 1
        windows = Counter(tuple(bits[i:i + L]) for i in range(200 - L + 1))
        want = -sum(c / 170 * math.log2(c / 170) for c in windows.values())
        assert empirical_entropy(bits_series(bits), L) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("L", [MAX_L + 2, 40])
    def test_word_length_beyond_the_limit_rejected(self, L):
        j = bits_series(np.zeros(200, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_L + 1}"):
            empirical_entropy(j, L)


class TestMarketInformation:
    def test_deterministic_alternation(self):
        j = bits_series([1, 0] * 6)
        assert market_information(j, 1) == pytest.approx(1.0, abs=1e-14)
        assert market_information(j, 2) == pytest.approx(1.0, abs=1e-14)

    def test_matches_plain_recount(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=300)
        j = bits_series(bits)
        for lags in (1, 2, 3, 4):
            assert market_information(j, lags) == pytest.approx(
                reference_information(bits, lags), abs=1e-13)

    def test_nonnegative(self):
        for seed in range(8):
            bits = np.random.default_rng(seed).integers(0, 2, size=97)
            j = bits_series(bits)
            for lags in (1, 2, 3):
                assert market_information(j, lags) >= 0.0

    def test_lags_validation(self):
        j = bits_series([0, 1, 0, 1])
        with pytest.raises(ValueError, match="positive integer"):
            market_information(j, 0)

    def test_deepest_lag_count(self):
        bits = np.random.default_rng(9).integers(0, 2, size=200)
        assert market_information(bits_series(bits), MAX_L) == pytest.approx(
            reference_information(bits, MAX_L), abs=1e-13)

    @pytest.mark.parametrize("lags", [MAX_L + 1, 39])
    def test_lags_beyond_the_limit_rejected(self, lags):
        j = bits_series(np.zeros(200, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_L + 1}"):
            market_information(j, lags)

    def test_against_markov_law(self):
        # persistent order-1 chain; the plug-in estimate must approach the
        # population value 1 + H^1 - H^2 from the exact word law
        transition = np.array([0.25, 0.75])
        curve = entropy_curve(transition, 1, 3)
        true_i2 = 1.0 + curve[0] - curve[1]
        rng = np.random.default_rng(123)
        n = 200_000
        u = rng.random(n)
        bits = np.empty(n, dtype=np.uint8)
        bits[0] = 1
        for i in range(1, n):
            bits[i] = u[i] < transition[bits[i - 1]]
        est = market_information(bits_series(bits), 1)
        assert est == pytest.approx(true_i2, abs=5e-3)
        assert true_i2 == pytest.approx(1.0 - (-0.25 * math.log2(0.25)
                                               - 0.75 * math.log2(0.75)), rel=1e-12)


@pytest.mark.parametrize("estimate, message", [
    (lambda j: empirical_entropy(j, np.float64(3)), "word length must be a positive integer"),
    (lambda j: empirical_entropy(j, True), "word length must be a positive integer"),
    (lambda j: market_information(j, 1.5), "lags must be a positive integer"),
    (lambda j: market_information(j, True), "lags must be a positive integer"),
], ids=["entropy-float", "entropy-bool", "information-float", "information-bool"])
def test_non_integer_word_lengths_rejected(estimate, message):
    j = bits_series(np.random.default_rng(4).integers(0, 2, size=16))
    with pytest.raises(ValueError, match=message):
        estimate(j)


class TestGammaQuantile:
    def test_exponential_closed_form(self):
        for scale in (1.0, 2.5e-4, 40.0):
            for p in (1e-6, 1e-3, 0.05, 0.5, 0.95, 0.999):
                want = -scale * math.log1p(-p)
                assert gamma_quantile(1, scale, p) == pytest.approx(want, rel=1e-11)

    def test_against_scipy(self):
        for shape in (1, 2, 3, 8, 64):
            for scale in (1.0, 3.7e-4):
                for p in (0.05, 0.5, 0.95, 0.999):
                    want = scipy.stats.gamma.ppf(p, a=shape, scale=scale)
                    assert gamma_quantile(shape, scale, p) == pytest.approx(
                        want, rel=1e-9)
        # deep lower tail: the Wilson-Hilferty start is negative here, so the
        # quantile starts from the y**k / k! bound instead
        for shape in (1, 2):
            want = scipy.stats.gamma.ppf(1e-6, a=shape)
            assert gamma_quantile(shape, 1.0, 1e-6) == pytest.approx(want, rel=1e-9)

    def test_median_of_shape_two(self):
        assert gamma_quantile(2, 1.0, 0.5) == pytest.approx(1.67835, abs=1e-5)

    def test_monotone_in_p(self):
        qs = [gamma_quantile(4, 0.5, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_numpy_integer_shape(self):
        assert gamma_quantile(np.int64(2), 1.0, 0.5) == pytest.approx(
            gamma_quantile(2, 1.0, 0.5), rel=1e-12)

    def test_word_order_shapes_against_scipy(self):
        # the null's shapes 2**(L-1) up to the deepest supported order
        for L in range(1, 31):
            for p in (1e-3, 0.5, 0.9, 0.95, 0.99, 0.999):
                want = scipy.stats.gamma.ppf(p, a=2 ** (L - 1))
                assert gamma_quantile(2 ** (L - 1), 1.0, p) == pytest.approx(
                    want, rel=1e-9), (L, p)

    def test_word_order_shapes_deep_lower_tail(self):
        # At p = 1e-6 scipy's gamma.ppf drifts from shape 2**20 on (its own
        # distribution function at the quantile it returns is off by 1e-5 at
        # 2**20 and by 70% at 2**27), so the reference here is mpmath's
        # incomplete gamma.  (F(y) - p) / f(y) is the quantile's error to first
        # order, since F is smooth and increasing.
        p = 1e-6
        with mpmath.workdps(40):
            for L in range(1, 31):
                k = 2 ** (L - 1)
                y = mpmath.mpf(gamma_quantile(k, 1.0, p))
                cdf = 1 - mpmath.gammainc(k, y, mpmath.inf, regularized=True)
                pdf = mpmath.exp((k - 1) * mpmath.log(y) - y - mpmath.loggamma(k))
                assert abs(float((cdf - p) / (pdf * y))) < 1e-9, L

    def test_against_bisection(self):
        for L in range(1, 13):
            for p in (0.05, 0.5, 0.9, 0.95, 0.99, 0.999):
                assert gamma_quantile(2 ** (L - 1), 1.0, p) == pytest.approx(
                    bisection_quantile(2 ** (L - 1), p), rel=1e-10), (L, p)

    def test_log_poisson_pmf_against_mpmath(self):
        # Stirling's series from j = 30 on: 1/(361 j**3) in place of its
        # 1/(360 j**3) term moves the value by 2.9e-10 at j = 30, while the
        # term it omits, -1/(1680 j**7), is 2.7e-14 there
        with mpmath.workdps(50):
            for j in (30, 31, 40, 64, 100, 1000, 2 ** 14, 2 ** 20, 2 ** 29):
                for y in (j / 2, 0.9 * j, j - 1.0, float(j), j + 0.5, 1.1 * j, 2.0 * j):
                    want = float(-mpmath.mpf(y) + j * mpmath.log(y) - mpmath.loggamma(j + 1))
                    got = information._log_poisson_pmf(j, y)
                    assert abs(got - want) <= 5e-14 + 2e-15 * abs(want), (j, y)

    def test_wilson_hilferty_start_pins_the_newton_steps(self, monkeypatch):
        # one Erlang tail sum per Newton step, counted from a cleared cache:
        # a start other than k * (1 - c + z*sqrt(c))**3, c = 1/(9k), or the
        # deep-tail bound (shape 1 at p = 1e-12) changes these counts
        calls = []
        tail = information._log_poisson_sum
        monkeypatch.setattr(information, "_log_poisson_sum",
                            lambda *args: calls.append(args) or tail(*args))
        want = {1: [1, 5, 2, 2, 2], 2: [2, 4, 3, 3, 4], 8: [6, 3, 3, 3, 4],
                2 ** 14: [2, 2, 1, 2, 2], 2 ** 29: [1, 1, 1, 1, 1]}
        got = {}
        for shape in want:
            got[shape] = []
            for p in (1e-12, 0.05, 0.5, 0.95, 1.0 - 1e-9):
                information._unit_gamma_quantile.cache_clear()
                calls.clear()
                information._unit_gamma_quantile(shape, p)
                got[shape].append(len(calls))
        information._unit_gamma_quantile.cache_clear()
        assert got == want

    def test_deepest_shape_is_fast(self):
        start = time.perf_counter()
        gamma_quantile(2 ** 29, 1.0, 0.95)
        assert time.perf_counter() - start < 0.5

    def test_shape_past_the_deepest_order_raises(self):
        # the deepest profile's shape is the largest taken: the quantile
        # search's arrays grow like the shape's square root
        assert gamma_quantile(2 ** (MAX_L - 1), 1.0, 0.5) > 0.0
        with pytest.raises(ValueError, match=rf"^shape must be at most 2\*\*{MAX_L - 1}$"):
            gamma_quantile(2 ** (MAX_L - 1) + 1, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="shape must be an integer >= 1"):
            gamma_quantile(0, 1.0, 0.5)
        with pytest.raises(ValueError, match="shape must be an integer >= 1"):
            gamma_quantile(1.5, 1.0, 0.5)
        with pytest.raises(ValueError, match="scale must be positive"):
            gamma_quantile(1, 0.0, 0.5)
        with pytest.raises(ValueError, match="quantile level"):
            gamma_quantile(1, 1.0, 1.0)


class TestSignificanceBound:
    def test_order_two_closed_form(self):
        # shape 1 reduces to an exponential quantile
        b = significance_bound(2999, 1, 1, 0.95)
        assert type(b) is float
        assert b == pytest.approx(-math.log(0.05) / (2998 * LN2), rel=1e-10)
        assert b == pytest.approx(1.4417e-3, abs=5e-7)
        assert f"{b:.4e}" == "1.4416e-03"  # as criterion 7 reports it

    def test_shape_doubles_with_lags(self):
        # the Gamma(2**(lags-1), 1/((n - m*lags) ln 2)) quantile, bit for bit
        for lags in (1, 2, 3, 4):
            want = 1 / ((3000 - lags) * LN2) * gamma_quantile(2 ** (lags - 1), 1.0, 0.95)
            assert significance_bound(3000, lags, 1, 0.95) == want

    def test_bound_grows_with_m(self):
        assert significance_bound(500, 3, 3, 0.95) > significance_bound(500, 3, 1, 0.95)

    def test_dof_exhausted(self):
        with pytest.raises(ValueError, match="degrees of freedom exhausted"):
            significance_bound(10, 5, 2, 0.95)

    def test_lags_past_the_deepest_order_raise(self):
        # as information_profile's L_max, whatever n allows
        assert significance_bound(100, MAX_L, 1, 0.95) > 0.0
        with pytest.raises(ValueError, match=f"^lags must be at most {MAX_L}$"):
            significance_bound(100, MAX_L + 1, 1, 0.95)
        with pytest.raises(ValueError, match=f"^lags must be at most {MAX_L}$"):
            significance_bound(100, 40, 1, 0.95)

    def test_validation(self):
        with pytest.raises(ValueError, match="lags"):
            significance_bound(100, 0, 1, 0.95)
        with pytest.raises(ValueError, match="m must be"):
            significance_bound(100, 1, 0, 0.95)
        with pytest.raises(ValueError, match="confidence"):
            significance_bound(100, 1, 1, 1.0)


def alternating_prices(n):
    # up, down, up, down ... by a fixed factor
    steps = np.where(np.arange(n - 1) % 2 == 0, 1.01, 1.0 / 1.02)
    prices = np.concatenate([[100.0], 100.0 * np.cumprod(steps)])
    return PriceSeries(tuple(range(n)), prices)


class TestInformationProfile:
    def test_deterministic_prices(self):
        ep, ip = profile_from_prices(alternating_prices(12), L_max=2, m_values=(1,))
        # 11 returns alternate [1, 0, ...]: six ones, five zeros
        p1 = 6.0 / 11.0
        h1 = -(p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1))
        assert ep.cell(1, 1) == pytest.approx(h1, rel=1e-14)
        assert ip.cell(1, 1) == pytest.approx(1.0 - h1, rel=1e-13)
        assert ip.cell(2, 1) == pytest.approx(1.0, abs=1e-14)
        assert ip.cell(3, 1) == pytest.approx(1.0, abs=1e-14)
        assert ip.n == 11

    def test_partial_telescopes(self):
        rng = np.random.default_rng(11)
        prices = PriceSeries(tuple(range(400)),
                             100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(400))))
        _, ip = profile_from_prices(prices, L_max=5, m_values=(1, 2, 3))
        np.testing.assert_allclose(np.cumsum(ip.partial, axis=0), ip.I, atol=1e-12)

    def test_partials_are_exact_first_differences(self):
        # 9 prices: the deepest orders have no windows at m = 2 and 3, so
        # their I cells, and every difference with them, are NaN
        rng = np.random.default_rng(13)
        prices = PriceSeries(tuple(range(9)), np.exp(np.cumsum(rng.normal(0, 0.01, 9))))
        _, ip = profile_from_prices(prices, L_max=6, m_values=(1, 2, 3))
        assert np.isnan(ip.I).any()
        partial = np.full_like(ip.I, np.nan)
        partial[0] = ip.I[0]
        for row in range(1, 7):
            for col in range(3):
                if np.isfinite(ip.I[row, col]) and np.isfinite(ip.I[row - 1, col]):
                    partial[row, col] = ip.I[row, col] - ip.I[row - 1, col]
        assert np.array_equal(ip.partial, partial, equal_nan=True)

    def test_nan_pattern_short_series(self):
        j = [bits_series(np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8))]
        ep, ip = information_profile(j, L_max=7)
        assert ep.H.shape == (8, 1)
        assert np.all(np.isfinite(ep.H[:6, 0]))
        assert np.all(~np.isfinite(ep.H[6:, 0]))
        assert np.all(ep.n_obs[6:, 0] == 0)
        assert np.all(~np.isfinite(ip.I[6:, 0]))
        # on every cell of a grid of lengths, horizons and depths, the n_obs
        # the record works out is the counter's window count, and a cell too
        # short to count has 0 and NaN entropy
        rng = np.random.default_rng(16)
        for n, m_values, L_max in itertools.product(
                (13, 100, 4096), ((1,), (1, 2, 3), (2, 5)), (1, 3, 10, 14)):
            prices = PriceSeries(range(n + 1), np.exp(np.cumsum(rng.normal(0, 0.01, n + 1))))
            ep, _ = profile_from_prices(prices, L_max, m_values)
            want = np.zeros((L_max + 1, len(m_values)), dtype=np.int64)
            for col, m in enumerate(m_values):
                bits = to_indicators(prices, m).bits
                for order, n_windows, _, _ in information._marginal_counts(bits, m, L_max + 1):
                    want[order - 1, col] = n_windows
            assert ep.n_obs.dtype == np.int64 and not ep.n_obs.flags.writeable
            assert ep.n_obs.tobytes() == want.tobytes(), (n, m_values, L_max)
            assert np.array_equal(np.isnan(ep.H), want == 0), (n, m_values, L_max)

    def test_bounds_layout(self):
        rng = np.random.default_rng(12)
        prices = PriceSeries(tuple(range(300)),
                             100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(300))))
        _, ip = profile_from_prices(prices, L_max=4, m_values=(1, 2))
        assert np.all(~np.isfinite(ip.bounds[0]))
        assert np.all(np.isfinite(ip.bounds[1:]))
        # bound columns reproduce the standalone function
        want = significance_bound(ip.n, 2, 2, 0.95)
        assert ip.bounds[2, 1] == want

    @pytest.mark.parametrize("n_prices, L_max, m_values, confidence", [
        (300, 4, (1, 2), 0.95), (9, 6, (1, 2, 3), 0.95), (40, 12, (2, 5, 3), 0.99),
        (2000, 10, (1, 4), 0.95), (1000, 8, (3, 1, 7), 0.99)])
    def test_every_bound_is_significance_bound(self, n_prices, L_max, m_values, confidence):
        # the short series leave their deepest cells without windows
        rng = np.random.default_rng(n_prices)
        prices = PriceSeries(tuple(range(n_prices)),
                             np.exp(np.cumsum(rng.normal(0, 0.01, n_prices))))
        _, ip = profile_from_prices(prices, L_max, m_values, confidence)
        absent = np.isnan(ip.I)
        absent[0] = True  # order 1 has no null bound
        assert np.array_equal(np.isnan(ip.bounds), absent)
        for row, col in zip(*np.nonzero(~absent)):
            want = significance_bound(ip.n, int(row), m_values[col], confidence)
            assert ip.bounds[row, col] == want, (row, col)

    def test_one_bound_call_per_bound_cell(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return significance_bound(*args)

        monkeypatch.setattr(information, "significance_bound", counted)
        rng = np.random.default_rng(13)
        prices = PriceSeries(tuple(range(9)), np.exp(np.cumsum(rng.normal(0, 0.01, 9))))
        _, ip = profile_from_prices(prices, L_max=6, m_values=(1, 2, 3))
        cells = [(ip.n, int(row), ip.m_values[col], ip.confidence)
                 for row, col in zip(*np.nonzero(np.isfinite(ip.bounds)))]
        assert sorted(calls) == sorted(cells)

    def test_order_one_is_one_minus_the_entropy(self):
        rng = np.random.default_rng(14)
        prices = PriceSeries(tuple(range(500)), np.exp(np.cumsum(rng.normal(0, 0.01, 500))))
        ep, ip = profile_from_prices(prices, L_max=3, m_values=(1, 2, 5))
        assert (1.0 - ep.H[0]).tobytes() == ip.I[0].tobytes()

    @pytest.mark.parametrize("n_prices, L_max, m_values", [
        (9, 6, (1, 2, 3)), (400, 5, (3, 1, 2)), (5, 3, (1,))])
    def test_records_rebuilt_from_their_grids_are_the_same(self, n_prices, L_max, m_values):
        rng = np.random.default_rng(n_prices)
        prices = PriceSeries(range(n_prices), np.exp(np.cumsum(rng.normal(0, 0.01, n_prices))))
        ep, ip = profile_from_prices(prices, L_max, m_values)
        # writable copies, which the records copy and freeze
        H, I, bounds = ep.H.copy(), ip.I.copy(), ip.bounds.copy()
        ep2 = EntropyProfile(list(m_values), ep.n, H)
        ip2 = InformationProfile(m_values, ip.n, ip.confidence, I, bounds)
        H[:], I[:], bounds[:] = 0.5, 0.5, 0.5
        assert ep2.m_values == ip2.m_values == m_values
        assert ep2.n == ip2.n == n_prices - 1
        assert ep2.L_max == ip2.L_max == ep.L_max == ip.L_max == L_max
        for got, want in [(ep2.H, ep.H), (ep2.n_obs, ep.n_obs), (ip2.I, ip.I),
                          (ip2.partial, ip.partial), (ip2.bounds, ip.bounds)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert profile_to_json(ep2, ip2) == profile_to_json(ep, ip)
        assert profile_to_csv(ep2, ip2) == profile_to_csv(ep, ip)

    def test_what_the_records_work_out_cannot_be_given(self):
        prices = PriceSeries(range(5), [1.0, 2.0, 1.5, 3.0, 2.0])
        ep, ip = profile_from_prices(prices, L_max=3, m_values=(1,))
        # a wrong L_max, n_obs or partial cannot be passed, and the grid's
        # own rows are each a cell
        with pytest.raises(TypeError):
            InformationProfile((1,), 2, ip.n, ip.confidence, ip.I, ip.partial, ip.bounds)
        with pytest.raises(TypeError):
            InformationProfile((1,), ip.n, ip.confidence, ip.I, ip.bounds,
                               partial=np.zeros_like(ip.I))
        with pytest.raises(TypeError):
            EntropyProfile((1,), ep.n, ep.H, n_obs=ep.n_obs)
        ip2 = InformationProfile((1,), ip.n, ip.confidence, ip.I, ip.bounds)
        assert ip2.cell(4, 1) == ip.cell(4, 1)
        assert json.loads(profile_to_json(EntropyProfile((1,), ep.n, ep.H), ip2))["L_max"] == 3
        # a horizon far past the series has no window at any order: no int64 product wraps
        far = EntropyProfile((1, 2 ** 62), 10, np.ones((3, 2)))
        assert far.n_obs.tolist() == [[10, 0], [9, 0], [8, 0]]

    def test_a_grid_that_disagrees_is_a_value_error(self):
        prices = PriceSeries(range(5), [1.0, 2.0, 1.5, 3.0, 2.0])
        ep, ip = profile_from_prices(prices, L_max=3, m_values=(1,))
        grid = "^{} must be a 2-D grid of at least one row and one column per m value$"
        for H in (ep.H, ep.H[:, 0], np.zeros((0, 2)), np.array([["a", "b"]]),
                  np.ones((4, 2), dtype=bool)):
            with pytest.raises(ValueError, match=grid.format("H")):
                EntropyProfile((1, 2), ep.n, H)
        with pytest.raises(ValueError, match=grid.format("I")):
            InformationProfile((1, 2), ip.n, ip.confidence, ip.I, ip.bounds)
        with pytest.raises(ValueError, match=grid.format("bounds")):
            InformationProfile((1,), ip.n, ip.confidence, ip.I, ip.bounds[:, 0])
        with pytest.raises(ValueError, match="^bounds must have the shape of I$"):
            InformationProfile((1,), ip.n, ip.confidence, ip.I, ip.bounds[:-1])
        for m_values in ((1, 1), ()):
            with pytest.raises(ValueError, match="^m_values must be nonempty and distinct$"):
                EntropyProfile(m_values, ep.n, np.ones((4, len(m_values))))
            with pytest.raises(ValueError, match="^m_values must be nonempty and distinct$"):
                InformationProfile(m_values, ip.n, ip.confidence, np.ones((4, len(m_values))),
                                   np.ones((4, len(m_values))))

    def test_n_is_held_by_an_int64_window_count(self):
        # order 1 at m = 1 has n windows, so n = 2**63 would wrap n_obs
        grid = np.ones((2, 1))
        ep = EntropyProfile((1,), 2 ** 63 - 1, grid)
        assert ep.n == 2 ** 63 - 1 and ep.n_obs.tolist() == [[2 ** 63 - 1], [2 ** 63 - 2]]
        assert InformationProfile((1,), 2 ** 63 - 1, 0.95, grid, grid).n == 2 ** 63 - 1
        for n in (2 ** 63, np.uint64(2 ** 63), 10 ** 30):
            with pytest.raises(ValueError, match=r"^n must be below 2\*\*63$"):
                EntropyProfile((1,), n, grid)
            with pytest.raises(ValueError, match=r"^n must be below 2\*\*63$"):
                InformationProfile((1,), n, 0.95, grid, grid)

    def test_price_count_disagreement(self):
        j = [bits_series(np.ones(8, dtype=np.uint8), m=1),
             bits_series(np.ones(6, dtype=np.uint8), m=2)]
        with pytest.raises(ValueError, match="disagree on underlying price count"):
            information_profile(j, L_max=2)

    def test_columns_follow_the_series_and_a_generator_is_read_once(self):
        rng = np.random.default_rng(15)
        prices = PriceSeries(tuple(range(400)), np.exp(np.cumsum(rng.normal(0, 0.01, 400))))
        want_ep, want_ip = profile_from_prices(prices, L_max=5, m_values=(3, 1, 2))
        ep, ip = information_profile((to_indicators(prices, m) for m in (3, 1, 2)), 5)
        assert ep.m_values == ip.m_values == (3, 1, 2)
        assert ip.n == 399
        for got, want in [(ep.H, want_ep.H), (ip.I, want_ip.I), (ip.bounds, want_ip.bounds)]:
            assert np.array_equal(got, want, equal_nan=True)

    def test_validation(self):
        j = [bits_series(np.ones(8, dtype=np.uint8))]
        with pytest.raises(ValueError, match="L_max"):
            information_profile(j, L_max=0)
        with pytest.raises(ValueError, match="L_max must be at most 30"):
            information_profile(j, L_max=31)
        with pytest.raises(ValueError, match="confidence"):
            information_profile(j, L_max=2, confidence=0.0)
        with pytest.raises(ValueError, match="^m_values must be nonempty and distinct$"):
            information_profile(j * 2, L_max=2)
        with pytest.raises(ValueError, match="^m_values must be nonempty and distinct$"):
            information_profile([], L_max=2)

    @pytest.mark.parametrize("indicators", [
        {1: IndicatorSeries(1, np.ones(8, np.uint8))},  # iterated, it yields its keys
        [np.ones(8, np.uint8)],
    ], ids=["horizon-keyed-mapping", "bare-bits"])
    def test_an_entry_that_is_not_an_indicator_series(self, indicators):
        with pytest.raises(ValueError, match="^indicators must be IndicatorSeries$"):
            information_profile(indicators, 2)

    @pytest.mark.parametrize("confidence", [1.0, 1.5, -0.5])
    def test_confidence_checked_where_no_bound_is_computed(self, confidence):
        # one indicator has no order-2 word, so no cell calls significance_bound
        j = [bits_series(np.ones(1, dtype=np.uint8))]
        _, ip = information_profile(j, L_max=2)
        assert np.isnan(ip.bounds).all()
        with pytest.raises(ValueError, match=r"^confidence must be in \(0, 1\)$"):
            information_profile(j, L_max=2, confidence=confidence)

    def test_price_signs_match_the_returns_route(self):
        prices = to_price_series(simulate_fbm(FbmParams(0.7, 0.01), 100_000, seed=3))
        m_values = (1, 2, 3, 4, 5)
        ep, ip = profile_from_prices(prices, 15, m_values)
        indicators = [IndicatorSeries(m, compute_returns(prices, m) > 0.0) for m in m_values]
        want_ep, want_ip = information_profile(indicators, 15)
        assert np.array_equal(ep.n_obs, want_ep.n_obs)
        for got, want in [(ep.H, want_ep.H), (ip.I, want_ip.I), (ip.partial, want_ip.partial),
                          (ip.bounds, want_ip.bounds)]:
            assert np.array_equal(got, want, equal_nan=True)

    def test_deep_profile_matches_per_order_recount(self):
        # every cell at n = 1e5, L_max 15, m = 1..5, against words counted
        # afresh at each order: dense bincounts, entropies summed here
        rng = np.random.default_rng(8)
        prices = PriceSeries(np.arange(100_000), np.exp(np.cumsum(rng.normal(0, 0.01, 100_000))))
        m_values = (1, 2, 3, 4, 5)
        ep, ip = profile_from_prices(prices, 15, m_values)

        def entropy(counts, total):
            p = counts[counts > 0] / float(total)
            return float(-(p * np.log2(p)).sum())

        for col, m in enumerate(m_values):
            bits = (prices.prices[m:] > prices.prices[:-m]).astype(np.int64)
            for order in range(1, 17):
                n_windows = len(bits) - (order - 1) * m
                codes = np.zeros(n_windows, dtype=np.int64)
                for k in range(order):
                    codes = (codes << 1) | bits[k * m : k * m + n_windows]
                counts = np.bincount(codes, minlength=1 << order)
                h = entropy(counts, n_windows)
                h_prefix = entropy(counts[0::2] + counts[1::2], n_windows) if order > 1 else 0.0
                assert ep.n_obs[order - 1, col] == n_windows
                assert ep.H[order - 1, col] == h
                assert ip.I[order - 1, col] == 1.0 + h_prefix - h


class TestEntropyRateSlope:
    def synthetic_profile(self, slope=0.9, intercept=0.2, L_max=6):
        orders = np.arange(1, L_max + 2, dtype=float)
        H = (intercept + slope * (orders - 1.0))[:, None]
        return EntropyProfile((1,), 100, H)

    def test_exact_linear(self):
        ep = self.synthetic_profile(slope=0.9)
        assert entropy_rate_slope(ep, 1, range(1, 7)) == pytest.approx(0.9, abs=1e-12)

    def test_skips_nan(self):
        ep = self.synthetic_profile(slope=0.8)
        H = ep.H.copy()
        H[3, 0] = np.nan
        ep2 = EntropyProfile((1,), ep.n, H)
        assert entropy_rate_slope(ep2, 1, range(1, 7)) == pytest.approx(0.8, abs=1e-12)

    def test_lags_past_l_max_are_skipped(self):
        ep = self.synthetic_profile(slope=0.7, L_max=6)
        assert entropy_rate_slope(ep, 1, [1, 2, 6, 7, 50]) == entropy_rate_slope(ep, 1, [1, 2, 6])

    def test_insufficient_range(self):
        ep = self.synthetic_profile()
        with pytest.raises(ValueError, match="insufficient range"):
            entropy_rate_slope(ep, 1, [2])

    def test_lag_pairs_with_the_word_one_letter_longer(self):
        # an order-2 chain's exact entropies, which are not linear in the
        # order: H(L+1) - H(L) is the entropy rate from L = 2 on, not below.
        # Lags 1-3 read words of 2-4 letters, so their slope is the rate;
        # words of 1-3 letters would give another slope
        transition = np.array([0.1, 0.6, 0.7, 0.2])
        H = entropy_curve(transition, 2, 5)
        rate = H[3] - H[2]
        assert H[2] - H[1] == pytest.approx(rate, abs=1e-12)
        assert abs(H[1] - H[0] - rate) > 0.05
        ep = EntropyProfile((1,), 100, H[:, None])
        assert entropy_rate_slope(ep, 1, [1, 2, 3]) == pytest.approx(rate, abs=1e-12)


class TestSerialization:
    @pytest.fixture()
    def profile(self):
        rng = np.random.default_rng(13)
        prices = PriceSeries(tuple(range(60)),
                             100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(60))))
        return profile_from_prices(prices, L_max=3, m_values=(1, 2))

    def test_json_schema(self, profile):
        ep, ip = profile
        doc = json.loads(profile_to_json(ep, ip))
        assert set(doc) == {"m_values", "L_max", "H", "I", "partial",
                            "bounds", "confidence", "n"}
        assert doc["m_values"] == [1, 2]
        assert doc["L_max"] == 3
        assert len(doc["H"]) == 4 and len(doc["H"][0]) == 2
        assert doc["bounds"][0] == [None, None]
        assert doc["n"] == 59
        assert doc["H"][0][0] == pytest.approx(ep.cell(1, 1), rel=1e-15)

    def test_a_pair_of_two_series_raises(self, profile):
        ep, ip = profile
        prices = PriceSeries(tuple(range(60)), np.linspace(1.0, 2.0, 60))
        other_ep, other_ip = profile_from_prices(prices, L_max=5, m_values=(1,))
        wider, _ = profile_from_prices(prices, L_max=3, m_values=(1, 2))
        longer = EntropyProfile(ep.m_values, ep.n + 1, ep.H)
        mismatched = [(ep, other_ip), (other_ep, ip), (longer, ip),
                      (EntropyProfile((1, 3), ep.n, ep.H), ip),
                      (EntropyProfile((1,), ep.n, ep.H[:, :1]), InformationProfile(
                          (1,), ip.n, ip.confidence, ip.I[:2, :1], ip.bounds[:2, :1]))]
        for write in (profile_to_json, profile_to_csv):
            for pair in mismatched:
                with pytest.raises(ValueError, match="^the entropy and information profiles "
                                                     "differ in m_values, n or L_max$"):
                    write(*pair)
            # the same m_values, n and L_max pair, whatever prices gave the grids
            assert write(wider, ip)

    def test_csv_layout(self, profile):
        ep, ip = profile
        lines = profile_to_csv(ep, ip).strip().split("\n")
        assert lines[0].startswith("# n=59 confidence=0.95")
        assert lines[1] == "L,m,H,I,partial,bound"
        assert len(lines) == 2 + 4 * 2
        first = lines[2].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert float(first[2]) == pytest.approx(ep.cell(1, 1), rel=1e-15)
        assert first[5] == ""  # no order-1 bound


def reference_words(bits, L, m, n_windows):
    """Word counts by reading each window's letters one by one."""
    return dict(Counter("".join(str(bits[i + k * m]) for k in range(L))
                        for i in range(n_windows)))


def marginals(bits, m, top):
    """information._marginal_counts as lists: (order, n_windows, counts, prefix)
    per order, deepest first.  A dense count is indexed by code; a sparse one
    holds the counts of the words that occur, in code order."""
    bits = np.asarray(bits, dtype=np.uint8)
    return [(order, n_windows, counts.tolist(), prefix.tolist())
            for order, n_windows, counts, prefix in information._marginal_counts(bits, m, top)]


def check_counts(counts, want, order):
    """`counts`, dense or sparse, are the word counts `want` in code order."""
    assert [c for c in counts if c] == [want[word] for word in sorted(want)]
    if order and len(counts) == 1 << order:  # dense, or every word occurs
        assert counts == [want.get(format(code, f"0{order}b"), 0) for code in range(1 << order)]


def check_against_reference(bits, m, top):
    """Every order _marginal_counts yields against brute force: the counts
    over every start that holds a word, and the prefix counts over the same
    starts."""
    got = marginals(bits, m, top)
    deepest = min(top, (len(bits) - 1) // m + 1)
    assert [order for order, *_ in got] == list(range(deepest, 0, -1))
    for order, n_windows, counts, prefix in got:
        assert n_windows == len(bits) - (order - 1) * m
        want = reference_words(bits, order, m, n_windows)
        check_counts(counts, want, order)
        prefixes = Counter()
        for word, c in want.items():
            prefixes[word[:-1]] += c
        check_counts(prefix, prefixes, order - 1)


class TestExtractWords:
    """Word counts at each order, deepest first.  A dense count is indexed
    by code, so it shows which word each count is."""

    def test_stride_one(self):
        # windows 10, 01, 11, 10 -> codes 2, 1, 3, 2; then the letters 1, 0, 1, 1, 0
        assert marginals([1, 0, 1, 1, 0], 1, 2) == [(2, 4, [0, 1, 2, 1], [1, 3]),
                                                   (1, 5, [2, 3], [5])]

    def test_stride_two(self):
        # windows (b0, b2), (b1, b3), (b2, b4), (b3, b5) = 11, 01, 10, 11
        assert marginals([1, 0, 1, 1, 0, 1], 2, 2) == [(2, 4, [0, 1, 1, 2], [1, 3]),
                                                      (1, 6, [2, 4], [6])]

    def test_restricted_windows(self):
        # the prefixes count the 3 starts that hold a 2-letter word, not all 4
        (_, _, _, prefix), (_, _, counts, _) = marginals([1, 0, 1, 1], 1, 2)
        assert prefix == [1, 2]
        assert counts == [1, 3]

    def test_earliest_bit_is_leftmost(self):
        # the first window reads 100: code 4, not 1
        assert marginals([1] + [0] * 9, 1, 3)[0] == (3, 8, [7, 0, 0, 0, 1, 0, 0, 0], [7, 0, 1, 0])

    def test_deep_words_count_only_those_that_occur(self):
        bits = np.random.default_rng(11).integers(0, 2, size=200, dtype=np.uint8)
        top = MAX_L + 1  # 2**31 possible words, 170 windows
        order, n_windows, counts, _ = marginals(bits, 1, top)[0]
        assert (order, n_windows) == (top, 170) and len(counts) <= 170
        check_against_reference(bits, 1, top)


class TestWordCountArray:
    """Sparse counts hold the words that occur, in code order; each order's
    prefix counts are over that order's starts."""

    def test_hand_case(self):
        # windows 101, 010, 101, 011 -> sparse counts of codes 2, 3, 5; then
        # 2**2 <= 5 windows of 2 letters -> dense
        assert marginals([1, 0, 1, 0, 1, 1], 1, 3) == [(3, 4, [1, 1, 2], [2, 2]),
                                                      (2, 5, [0, 2, 2, 1], [2, 3]),
                                                      (1, 6, [2, 4], [6])]

    def test_stride_skips(self):
        # windows at stride 2: (b0, b2) = 11, (b1, b3) = 01
        assert marginals([1, 0, 1, 1], 2, 2) == [(2, 2, [1, 1], [1, 1]), (1, 4, [1, 3], [4])]

    def test_window_restriction(self):
        # the prefixes of the 3 words at stride 2 are the letters 1, 1, 0 at starts 0..2
        (_, n_windows, _, prefix), _ = marginals([1, 1, 0, 0, 1], 2, 2)
        assert n_windows == 3 and prefix == [1, 2]

    def test_against_reference(self, monkeypatch):
        # dense (2**order <= windows) and sparse (more words than windows)
        # counts, and every way _add_codes takes a count one order down
        cases = set()
        add_codes = information._add_codes

        def recorded(words, counts, extra, order, n_windows):
            if 1 << order <= n_windows:
                cases.add("dense from dense" if words is None else "dense from sparse")
            else:
                cases.add("sparse, new words" if np.setdiff1d(extra, words).size else
                          "sparse, no new words")
            return add_codes(words, counts, extra, order, n_windows)

        monkeypatch.setattr(information, "_add_codes", recorded)
        rng = np.random.default_rng(0)
        # constant bits too: there the m windows added at a sparse order repeat one word
        for bits in [rng.integers(0, 2, size=n, dtype=np.uint8) for n in (13, 100, 4096)] + [
                np.zeros(100, dtype=np.uint8)]:
            for top in (1, 2, 3, 7, 10, 14):
                for m in (1, 2, 3):
                    check_against_reference(bits, m, top)
        assert cases == {"dense from dense", "dense from sparse", "sparse, new words",
                         "sparse, no new words"}
