"""Entropy, market information, the null gamma bound, and profiles."""

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

    def test_deepest_shape_is_fast(self):
        start = time.perf_counter()
        gamma_quantile(2 ** 29, 1.0, 0.95)
        assert time.perf_counter() - start < 0.5

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
        assert b.shape == 1
        assert b.scale == pytest.approx(1.0 / (2998 * LN2), rel=1e-14)
        assert b.value == pytest.approx(-math.log(0.05) / (2998 * LN2), rel=1e-10)
        assert b.value == pytest.approx(1.4417e-3, abs=5e-7)
        assert f"{b.value:.4e}" == "1.4416e-03"  # as criterion 7 reports it

    def test_shape_doubles_with_lags(self):
        for lags in (1, 2, 3, 4):
            b = significance_bound(3000, lags, 1, 0.95)
            assert b.shape == 2 ** (lags - 1)
            assert b.scale == pytest.approx(1.0 / ((3000 - lags) * LN2), rel=1e-14)

    def test_bound_grows_with_m(self):
        assert (significance_bound(500, 3, 3, 0.95).value
                > significance_bound(500, 3, 1, 0.95).value)

    def test_dof_exhausted(self):
        with pytest.raises(ValueError, match="degrees of freedom exhausted"):
            significance_bound(10, 5, 2, 0.95)

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
        # their I and bound cells, and every difference with them, are NaN
        rng = np.random.default_rng(13)
        prices = PriceSeries(tuple(range(9)), np.exp(np.cumsum(rng.normal(0, 0.01, 9))))
        _, ip = profile_from_prices(prices, L_max=6, m_values=(1, 2, 3))
        assert np.isnan(ip.I).any() and np.isnan(ip.bounds[1:]).any()
        partial = np.full_like(ip.I, np.nan)
        partial_bounds = np.full_like(ip.bounds, np.nan)
        partial[0] = ip.I[0]
        partial_bounds[1] = ip.bounds[1]
        for row in range(1, 7):
            for col in range(3):
                if np.isfinite(ip.I[row, col]) and np.isfinite(ip.I[row - 1, col]):
                    partial[row, col] = ip.I[row, col] - ip.I[row - 1, col]
                if row > 1 and np.isfinite(ip.bounds[row, col]) \
                        and np.isfinite(ip.bounds[row - 1, col]):
                    partial_bounds[row, col] = ip.bounds[row, col] - ip.bounds[row - 1, col]
        assert np.array_equal(ip.partial, partial, equal_nan=True)
        assert np.array_equal(ip.partial_bounds, partial_bounds, equal_nan=True)

    def test_nan_pattern_short_series(self):
        j = {1: bits_series(np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8))}
        ep, ip = information_profile(j, L_max=7, m_values=(1,))
        assert ep.H.shape == (8, 1)
        assert np.all(np.isfinite(ep.H[:6, 0]))
        assert np.all(~np.isfinite(ep.H[6:, 0]))
        assert np.all(ep.n_obs[6:, 0] == 0)
        assert np.all(~np.isfinite(ip.I[6:, 0]))

    def test_bounds_layout(self):
        rng = np.random.default_rng(12)
        prices = PriceSeries(tuple(range(300)),
                             100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(300))))
        _, ip = profile_from_prices(prices, L_max=4, m_values=(1, 2))
        assert np.all(~np.isfinite(ip.bounds[0]))
        assert np.all(np.isfinite(ip.bounds[1:]))
        np.testing.assert_allclose(ip.partial_bounds[1], ip.bounds[1], rtol=0)
        np.testing.assert_allclose(ip.partial_bounds[2:],
                                   np.diff(ip.bounds[1:], axis=0), atol=1e-18)
        # bound columns reproduce the standalone function
        want = significance_bound(ip.n, 2, 2, 0.95).value
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
            want = significance_bound(ip.n, int(row), m_values[col], confidence).value
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

    def test_price_count_disagreement(self):
        j = {1: bits_series(np.ones(8, dtype=np.uint8), m=1),
             2: bits_series(np.ones(6, dtype=np.uint8), m=2)}
        with pytest.raises(ValueError, match="disagree on underlying price count"):
            information_profile(j, L_max=2, m_values=(1, 2))

    def test_horizon_key_mismatch(self):
        j = {1: bits_series(np.ones(8, dtype=np.uint8), m=2)}
        with pytest.raises(ValueError, match="has horizon"):
            information_profile(j, L_max=2, m_values=(1,))

    def test_validation(self):
        j = {1: bits_series(np.ones(8, dtype=np.uint8))}
        with pytest.raises(ValueError, match="L_max"):
            information_profile(j, L_max=0, m_values=(1,))
        with pytest.raises(ValueError, match="L_max must be at most 30"):
            information_profile(j, L_max=31, m_values=(1,))
        with pytest.raises(ValueError, match="confidence"):
            information_profile(j, L_max=2, m_values=(1,), confidence=0.0)
        with pytest.raises(ValueError, match="distinct"):
            information_profile(j, L_max=2, m_values=(1, 1))

    @pytest.mark.parametrize("confidence", [1.0, 1.5, -0.5])
    def test_confidence_checked_where_no_bound_is_computed(self, confidence):
        # one indicator has no order-2 word, so no cell calls significance_bound
        j = {1: bits_series(np.ones(1, dtype=np.uint8))}
        _, ip = information_profile(j, L_max=2, m_values=(1,))
        assert np.isnan(ip.bounds).all()
        with pytest.raises(ValueError, match=r"^confidence must be in \(0, 1\)$"):
            information_profile(j, L_max=2, m_values=(1,), confidence=confidence)

    def test_price_signs_match_the_returns_route(self):
        prices = to_price_series(simulate_fbm(FbmParams(0.7, 0.01), 100_000, seed=3))
        m_values = (1, 2, 3, 4, 5)
        ep, ip = profile_from_prices(prices, 15, m_values)
        j_family = {m: to_indicators(compute_returns(prices, m)) for m in m_values}
        want_ep, want_ip = information_profile(j_family, 15, m_values)
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
        return EntropyProfile((1,), L_max, H, np.ones_like(H, dtype=np.int64))

    def test_exact_linear(self):
        ep = self.synthetic_profile(slope=0.9)
        assert entropy_rate_slope(ep, 1, range(1, 7)) == pytest.approx(0.9, abs=1e-12)

    def test_skips_nan(self):
        ep = self.synthetic_profile(slope=0.8)
        H = ep.H.copy()
        H[3, 0] = np.nan
        ep2 = EntropyProfile((1,), ep.L_max, H, ep.n_obs)
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
        ep = EntropyProfile((1,), 4, H[:, None], np.ones((5, 1), dtype=np.int64))
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
