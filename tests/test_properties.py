"""Invariants checked over generated inputs."""

import dataclasses
import io
import math
import re
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from mktinfo.information import (
    _entropy_bits,
    empirical_entropy,
    entropy_rate_slope,
    gamma_quantile,
    information_profile,
    market_information,
    profile_from_prices,
    significance_bound,
)
from mktinfo.scaling import LogLogCurve, estimate_hurst, fit_loglog, structure_function
from mktinfo.series import IndicatorSeries, PriceSeries, ReturnSeries, compute_returns, \
    load_prices, write_prices, _timestamp_keys
from mktinfo.simulate import SimulatedPath, simulate_delampertized, simulate_fbm, \
    simulate_pseudo_periodic, to_price_series
from mktinfo.simulate import PseudoPeriodicParams
from mktinfo.theory import DelampertizedParams, FbmParams, TheoryCurve, f_xlog2x, h_lamperti, \
    delampertized_autocovariance, fbm_covariance, info_delampertized, info_from_rho, \
    orthant_probability, rho_delampertized, rho_fbm, theory_curve

from markov_oracle import entropy_curve

bit_lists = st.lists(st.integers(0, 1), min_size=12, max_size=200)

tick_prices = st.lists(st.integers(1, 400), min_size=8, max_size=60).map(
    lambda v: np.asarray(v, dtype=np.float64) / 8.0)


def as_series(bits, m=1):
    return IndicatorSeries(m, np.asarray(bits, dtype=np.uint8))


@given(bit_lists, st.integers(1, 4))
def test_information_is_chain_rule_residual(bits, lags):
    if len(bits) <= lags:
        return
    n_win = len(bits) - lags
    full = Counter(tuple(bits[i:i + lags + 1]) for i in range(n_win))
    pre = Counter(tuple(bits[i:i + lags]) for i in range(n_win))

    def ent(c):
        return -sum((k / n_win) * math.log2(k / n_win) for k in c.values())

    want = 1.0 + ent(pre) - ent(full)
    got = market_information(as_series(bits), lags)
    assert got == pytest.approx(want, abs=1e-12)
    assert got >= 0.0


@given(bit_lists, st.integers(1, 5))
def test_entropy_bounds(bits, L):
    if len(bits) < L:
        return
    j = as_series(bits)
    h = empirical_entropy(j, L)
    n_win = len(bits) - L + 1
    assert -1e-12 <= h <= min(L, math.log2(n_win)) + 1e-12


@given(tick_prices, st.sampled_from([0.5, 1.0, 2.0, 3.0]),
       st.sampled_from([0.1, 1.0, 7.5]))
def test_profile_invariant_under_monotone_transform(prices, power, factor):
    a = PriceSeries(tuple(range(len(prices))), prices)
    b = PriceSeries(tuple(range(len(prices))), factor * prices ** power)
    ep_a, ip_a = profile_from_prices(a, L_max=3, m_values=(1, 2))
    ep_b, ip_b = profile_from_prices(b, L_max=3, m_values=(1, 2))
    assert np.array_equal(ep_a.H, ep_b.H, equal_nan=True)
    assert np.array_equal(ip_a.I, ip_b.I, equal_nan=True)
    assert np.array_equal(ip_a.partial, ip_b.partial, equal_nan=True)


@given(tick_prices)
def test_partials_telescope(prices):
    p = PriceSeries(tuple(range(len(prices))), prices)
    _, ip = profile_from_prices(p, L_max=4, m_values=(1,))
    col = ip.I[:, 0]
    finite = np.isfinite(col)
    np.testing.assert_allclose(np.cumsum(ip.partial[finite, 0]), col[finite],
                               atol=1e-12)


@given(st.floats(-0.999, 0.999))
def test_orthant_symmetry(rho):
    assert orthant_probability(rho) + orthant_probability(-rho) == pytest.approx(
        0.5, abs=1e-15)
    assert info_from_rho(rho) == pytest.approx(info_from_rho(-rho), abs=1e-15)
    assert 0.0 <= info_from_rho(rho) <= 1.0


@given(st.integers(1, 10), st.floats(1e-4, 10.0), st.floats(0.01, 0.99))
def test_gamma_quantile_inverts_cdf(shape, scale, p):
    q = gamma_quantile(shape, scale, p)
    assert scipy.stats.gamma.cdf(q, a=shape, scale=scale) == pytest.approx(
        p, abs=1e-9)


def recount(bits, L, m):
    """(positive word counts, positive prefix counts, windows) of the length-L
    words, each window's code read letter by letter and the codes sorted."""
    n_windows = len(bits) - (L - 1) * m
    codes = np.zeros(n_windows, dtype=np.int64)
    for k in range(L):
        codes = (codes << 1) | bits[k * m : k * m + n_windows]
    _, counts = np.unique(codes, return_counts=True)
    _, prefix = np.unique(codes >> 1, return_counts=True)
    return counts, prefix, n_windows


@st.composite
def profile_cases(draw):
    """(bits, L_max, m); half the series put 2**order windows, or one more
    or fewer, at some order, where counting turns from sparse to dense."""
    L_max, m = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        order = draw(st.integers(1, min(L_max + 1, 7)))
        n_bits = (1 << order) + (order - 1) * m + draw(st.integers(-1, 1))
        bits = draw(st.lists(st.integers(0, 1), min_size=n_bits, max_size=n_bits))
    else:
        bits = draw(bit_lists)
    return bits, L_max, m


@given(profile_cases())
def test_profile_matches_per_order_recount(case):
    bits, L_max, m = case
    j = as_series(bits, m)
    ep, ip = information_profile({m: j}, L_max, (m,))
    for order in range(1, L_max + 2):
        row = order - 1
        if len(bits) - row * m < 1:
            assert ep.n_obs[row, 0] == 0 and np.isnan(ep.H[row, 0])
            continue
        counts, prefix, n_windows = recount(j.bits, order, m)
        assert ep.n_obs[row, 0] == n_windows
        assert ep.H[row, 0] == _entropy_bits(counts, n_windows)
        if order > 1:
            assert ip.I[row, 0] == 1.0 + _entropy_bits(prefix, n_windows) - ep.H[row, 0]


@given(profile_cases())
def test_public_estimators_equal_profile_cells(case):
    bits, L_max, m = case
    j = as_series(bits, m)
    ep, ip = information_profile({m: j}, L_max, (m,))
    for order in range(1, L_max + 2):
        row = order - 1
        if ep.n_obs[row, 0] == 0:
            with pytest.raises(ValueError, match="series too short"):
                empirical_entropy(j, order)
            continue
        assert empirical_entropy(j, order) == ep.H[row, 0]
        if order > 1:
            assert market_information(j, order - 1) == ip.I[row, 0]


@given(st.integers(1, 3), st.data())
def test_markov_entropy_curve_concave(order, data):
    probs = data.draw(st.lists(st.floats(0.05, 0.95), min_size=2 ** order,
                               max_size=2 ** order))
    curve = entropy_curve(np.asarray(probs), order, 6)
    diffs = np.diff(curve)
    assert np.all(diffs >= -1e-12)          # longer words carry no less entropy
    assert np.all(np.diff(diffs) <= 1e-12)  # at a non-increasing rate


@given(st.lists(st.floats(-0.9, 3.0), min_size=1, max_size=40))
def test_pseudo_periodic_prices_compound(returns):
    path = SimulatedPath("pseudo_periodic", PseudoPeriodicParams(0.5, 2), 1.0, 0,
                         np.asarray(returns))
    prices = to_price_series(path, p0=10.0)
    assert len(prices) == len(returns) + 1
    assert np.all(prices.prices > 0.0)
    np.testing.assert_allclose(prices.prices[1:] / prices.prices[:-1] - 1.0,
                               returns, atol=1e-9)



# Labels load_prices reads back: no line break or whitespace, and commas,
# quotes and '#' anywhere, which write_prices quotes.  A leading "t", '#' or
# quote keeps every label from parsing as a number, so they order as text.
_label_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                      max_size=8)
_labels = st.one_of(
    st.builds(lambda first, v: sorted(first + s for s in v), st.sampled_from('t#"'),
              st.lists(_label_text, min_size=2, max_size=30, unique=True)),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=2, max_size=30, unique=True).map(sorted),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30,
             unique=True).map(lambda v: [repr(x) for x in sorted(v)]),
)
_prices = st.floats(min_value=5e-324, max_value=1e308)


@given(_labels, st.data())
def test_write_then_load_returns_the_series(labels, data):
    prices = np.array(data.draw(st.lists(_prices, min_size=len(labels), max_size=len(labels))))
    p = PriceSeries(labels, prices)
    buf = io.StringIO()
    write_prices(p, buf)
    back = load_prices(io.StringIO(buf.getvalue()))
    assert back.timestamps.dtype.kind == "S"
    assert [t.decode() for t in back.timestamps.tolist()] == [str(t) for t in labels]
    assert back.prices.tobytes() == prices.tobytes()


@given(st.lists(st.text("0123456789", min_size=1, max_size=17), min_size=1, max_size=40))
def test_digit_label_keys_are_python_floats(labels):
    # digit labels beyond 2**53 too must give what float() of the str gives
    keys = _timestamp_keys(np.array([t.encode() for t in labels]))
    assert keys.tobytes() == np.array([float(t) for t in labels]).tobytes()


# inputs of the count table: 40 prices, their sign series and log-prices
_PRICES = PriceSeries(range(40), np.exp(np.cumsum(np.random.default_rng(5).normal(size=40))))
_BITS = (np.diff(_PRICES.prices) > 0).view(np.uint8)
_LOGP = np.log(_PRICES.prices)
_EP, _IP = profile_from_prices(_PRICES, L_max=4, m_values=(1, 2))


def _bad(floor, *extra):
    """Values every count of floor `floor` rejects, then the cases `extra`."""
    return (2.0, np.float64(2), True, floor - 1) + extra


def _in_list(values, *rest):
    """Each value as the first entry of a list argument ending in `rest`."""
    return [[v, *rest] for v in values]


# fit ranges every fit_range argument rejects: each end a count, two ends
_FIT_RANGES = [(lo, 5) for lo in _bad(1)] + [(1, hi) for hi in _bad(1)] + [
    ("a", "b"), "ab", (1,), (1, 2, 3), 5]

# (call of one count argument, its message, values it rejects, and a numpy
# integer value with the Python value it must act as)
COUNT_ARGUMENTS = {
    "compute_returns-m": (lambda m: compute_returns(_PRICES, m),
                          "return horizon m must be a positive integer", _bad(1), (np.int64(2), 2)),
    "ReturnSeries-m": (lambda m: ReturnSeries(m, np.ones(3)),
                       "return horizon m must be a positive integer", _bad(1), (np.int64(2), 2)),
    "IndicatorSeries-m": (lambda m: IndicatorSeries(m, _BITS),
                          "indicator horizon m must be a positive integer", _bad(1),
                          (np.int64(2), 2)),
    "empirical_entropy-word_length": (lambda L: empirical_entropy(IndicatorSeries(1, _BITS), L),
                                      "word length must be a positive integer", _bad(1),
                                      (np.int64(2), 2)),
    "market_information-lags": (lambda k: market_information(IndicatorSeries(1, _BITS), k),
                                "lags must be a positive integer", _bad(1), (np.int64(2), 2)),
    "gamma_quantile-shape": (lambda k: gamma_quantile(k, 1.0, 0.5),
                             "shape must be an integer >= 1", _bad(1), (np.int64(2), 2)),
    "significance_bound-lags": (lambda k: significance_bound(100, k, 1, 0.95),
                                "lags must be a positive integer", _bad(1), (np.int64(2), 2)),
    "significance_bound-m": (lambda m: significance_bound(100, 2, m, 0.95),
                             "m must be a positive integer", _bad(1, 1.5), (np.int64(2), 2)),
    "significance_bound-n": (lambda n: significance_bound(n, 2, 1, 0.95),
                             "n must be a positive integer", _bad(1, 100.5, math.nan, math.inf),
                             (np.int64(100), 100)),
    "information_profile-L_max": (
        lambda L: information_profile({1: IndicatorSeries(1, _BITS)}, L, (1,)),
        "L_max must be a positive integer", _bad(1, 2.5), (np.int64(2), 2)),
    "information_profile-m_values": (
        lambda ms: information_profile({1: IndicatorSeries(1, _BITS)}, 2, ms),
        "m_values must be positive integers", _in_list(_bad(1)), ([np.int64(1)], [1])),
    "profile_from_prices-L_max": (lambda L: profile_from_prices(_PRICES, L, (1,)),
                                  "L_max must be a positive integer", _bad(1, 2.5),
                                  (np.int64(2), 2)),
    "profile_from_prices-m_values": (lambda ms: profile_from_prices(_PRICES, 2, ms),
                                     "return horizon m must be a positive integer",
                                     _in_list(_bad(1, 1.5)), ([np.int64(2)], [2])),
    "entropy_rate_slope-lags": (lambda lags: entropy_rate_slope(_EP, 1, lags),
                                "lags must be non-negative integers",
                                _in_list(_bad(0), 3) + [[0.5, 1.5]],
                                ([np.int64(2), 3], [2, 3])),
    "PseudoPeriodicParams-tau": (lambda tau: PseudoPeriodicParams(0.5, tau),
                                 "tau must be a positive integer", _bad(1), (np.int64(2), 2)),
    "simulate_fbm-n": (lambda n: simulate_fbm(FbmParams(0.6), n, seed=1),
                       "n must be an integer >= 2", _bad(2), (np.int64(3), 3)),
    "simulate_delampertized-n": (
        lambda n: simulate_delampertized(DelampertizedParams(0.6, 1.0), n, seed=1),
        "n must be an integer >= 2", _bad(2), (np.int64(3), 3)),
    "simulate_pseudo_periodic-n": (lambda n: simulate_pseudo_periodic(0.5, 2, n, seed=1),
                                   "n must be an integer >= 1", _bad(1), (np.int64(2), 2)),
    "estimate_hurst-scales": (lambda scales: estimate_hurst(_LOGP, scales),
                              "scales must be positive integers",
                              _in_list(_bad(1), 3) + [[1.5, 2.7, 3.2]],
                              ([np.int64(2), 3], [2, 3])),
    "structure_function-scales": (lambda scales: structure_function(_LOGP, scales),
                                  "scales must be positive integers", _in_list(_bad(1), 3),
                                  ([np.int64(2), 3], [2, 3])),
    "LogLogCurve-scales": (
        lambda scales: LogLogCurve(scales, [1.0, 2.0], (1, 2), 1.0, 0.0, 0.5),
        "scales must be positive integers",
        _in_list(_bad(1), 2) + [[1.5, 2.5], np.array([1.5, 2.5]), np.array([True, True]),
                                np.array([0, 2]), np.array([1, -2]),
                                range(0, 2), np.array([[1, 2]])],
        (np.array([1, 2], dtype=np.int32), [1, 2])),
    "fit_loglog-scales": (
        lambda scales: fit_loglog(scales, [1.0, 2.0, 4.0], (1, 3)),
        "scales must be positive integers",
        _in_list(_bad(1), 2, 3) + [[1.5, 2, 3], np.array([1.5, 2.0, 3.0]), ["1", "2", "3"],
                                   np.array(["1", "2", "3"]), np.array([True, True, True])],
        (np.array([1, 2, 3], dtype=np.int32), [1, 2, 3])),
    "EntropyProfile.cell-order": (lambda order: _EP.cell(order, 1),
                                  "order must be an integer in 1..5", _bad(1, 6), (np.int64(2), 2)),
    "InformationProfile.cell-order": (lambda order: _IP.cell(order, 2),
                                      "order must be an integer in 1..5", _bad(1, -1, 6),
                                      (np.int64(5), 5)),
    "EntropyProfile.cell-m": (lambda m: _EP.cell(3, m),
                              "m must be one of the profile's m_values (1, 2)", _bad(1, 3),
                              (np.int64(2), 2)),
    "InformationProfile.cell-m": (lambda m: _IP.cell(3, m),
                                  "m must be one of the profile's m_values (1, 2)", _bad(1, 3),
                                  (np.int64(1), 1)),
    "entropy_rate_slope-m": (lambda m: entropy_rate_slope(_EP, m, [1, 2, 3]),
                             "m must be one of the profile's m_values (1, 2)", _bad(1, 3),
                             (np.int64(2), 2)),
    "estimate_hurst-fit_range": (lambda fit: estimate_hurst(_LOGP, fit_range=fit),
                                 "fit_range must be two positive integers", _FIT_RANGES,
                                 (np.array([1, 5]), (1, 5))),
    "fit_loglog-fit_range": (lambda fit: fit_loglog([1, 2, 3], [1.0, 2.0, 4.0], fit),
                             "fit_range must be two positive integers", _FIT_RANGES,
                             ((np.int64(1), np.int32(3)), (1, 3))),
    "LogLogCurve-fit_range": (lambda fit: LogLogCurve([1, 2], [1.0, 2.0], fit, 1.0, 0.0, 0.5),
                              "fit_range must be two positive integers", _FIT_RANGES,
                              (np.array([1, 2], dtype=np.uint8), (1, 2))),
    "LogLogCurve-dropped_scales": (
        lambda dropped: LogLogCurve([1, 2], [1.0, 2.0], (1, 2), 1.0, 0.0, 0.5, dropped),
        "scales must be positive integers", _in_list(_bad(1)), ([np.int64(50)], [50])),
}


def _same(a, b) -> bool:
    """Equal results, down to the type of each scalar and the dtype of each array."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("call, message, rejected, numpy_and_python",
                         COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
def test_count_arguments_take_only_integers(call, message, rejected, numpy_and_python):
    for value in rejected:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    numpy_value, python_value = numpy_and_python
    assert _same(call(numpy_value), call(python_value))


_maybe_counts = st.one_of(st.integers(-3, 8), st.floats(allow_nan=True), st.booleans())


@given(_maybe_counts)
def test_a_count_is_an_integer_or_a_value_error(x):
    """Each call raises ValueError unless x is a non-bool integer at or above
    its floor, and then acts as int(x)."""
    calls = [(lambda v: profile_from_prices(_PRICES, 3, (v,)), 1),
             (lambda v: estimate_hurst(_LOGP, [v, v + 1], fit_range=(1, 9)), 1),
             (lambda v: estimate_hurst(_LOGP, fit_range=(v, 9)), 1),
             (lambda v: significance_bound(100, v, 1, 0.95), 1)]
    for call, floor in calls:
        if isinstance(x, int) and not isinstance(x, bool) and x >= floor:
            assert _same(call(x), call(int(x)))
        else:
            with pytest.raises(ValueError):
                call(x)


def _outside(low, high, closed=False, like=None):
    """Values a real argument bounded by (low, high), or [low, high] when
    `closed`, rejects: NaN, a bool, a string, the nearest float outside each
    finite bound (the bound itself when open) and the infinity beyond it, and
    an infinite bound that is open.  With `like`, an array, each value is put
    in an array argument: the last entry of `like` replaced by it, or for a
    bool or a string, which a float array cannot hold, an array of that value
    alone, and a list and a tuple holding a bool entry are rejected too."""
    values = [math.nan, True, "0.5"]
    for bound, beyond in ((low, -math.inf), (high, math.inf)):
        if math.isfinite(bound):
            values += [np.nextafter(bound, beyond) if closed else bound, beyond]
        elif not closed:
            values.append(bound)
    if like is None:
        return values
    arrays = []
    for v in values:
        if isinstance(v, (bool, str)):
            arrays.append(np.full(len(like), v))
        else:
            arrays.append(np.array(like, dtype=np.float64))
            arrays[-1][-1] = v
    return arrays + [[*like[:-1], True], (np.True_, *like[1:])]


_HURST = "hurst must lie in (0, 1)"
_UNIT = (0.0, 1.0)
_POSITIVE = (0.0, math.inf)
_PATH = simulate_fbm(FbmParams(0.6), 16, seed=1)

# (call of one real argument, its message, values it rejects, and a numpy
# value with the Python value it must act as)
REAL_ARGUMENTS = {
    "FbmParams-hurst": (lambda h: simulate_fbm(FbmParams(h), 16, seed=1).values, _HURST,
                        _outside(*_UNIT), (np.float64(0.3), 0.3)),
    "FbmParams-sigma": (lambda s: simulate_fbm(FbmParams(0.5, s), 16, seed=1).values,
                        "sigma must be positive and finite", _outside(*_POSITIVE),
                        (np.float64(2.5), 2.5)),
    "DelampertizedParams-hurst": (
        lambda h: simulate_delampertized(DelampertizedParams(h, 1.0), 16, seed=1).values,
        _HURST, _outside(*_UNIT), (np.float64(0.3), 0.3)),
    "DelampertizedParams-theta": (
        lambda t: simulate_delampertized(DelampertizedParams(0.3, t), 16, seed=1).values,
        "theta must be positive and finite", _outside(*_POSITIVE), (np.float64(2.5), 2.5)),
    "DelampertizedParams-sigma": (
        lambda s: simulate_delampertized(DelampertizedParams(0.3, 1.0, s), 16, seed=1).values,
        "sigma must be positive and finite", _outside(*_POSITIVE), (np.float64(2.5), 2.5)),
    "f_xlog2x-x": (f_xlog2x, "f_xlog2x requires x >= 0", _outside(0.0, math.inf, closed=True),
                   (np.float64(0.3), 0.3)),
    "f_xlog2x-x-array": (f_xlog2x, "f_xlog2x requires x >= 0",
                         _outside(0.0, math.inf, closed=True, like=[0.5, 0.25]),
                         (np.array([0.5, 0.0]), [0.5, 0.0])),
    "h_lamperti-x": (lambda x: h_lamperti(0.5, x), "h_lamperti requires x >= 0",
                     _outside(0.0, math.inf, closed=True), (np.float64(3.0), 3.0)),
    "h_lamperti-x-array": (lambda x: h_lamperti(0.3, x), "h_lamperti requires x >= 0",
                           _outside(0.0, math.inf, closed=True, like=[0.5, 3.0]),
                           (np.array([0.5, 3.0]), [0.5, 3.0])),
    "h_lamperti-hurst": (lambda h: h_lamperti(h, 1.5), _HURST, _outside(*_UNIT),
                         (np.float64(0.3), 0.3)),
    "rho_fbm-hurst": (rho_fbm, _HURST, _outside(*_UNIT), (np.float64(0.3), 0.3)),
    "rho_delampertized-hurst": (lambda h: rho_delampertized(h, 1.0), _HURST, _outside(*_UNIT),
                                (np.float64(0.3), 0.3)),
    "rho_delampertized-m_theta": (lambda x: rho_delampertized(0.3, x),
                                  "m_theta must be positive and finite", _outside(*_POSITIVE),
                                  (np.float64(2.5), 2.5)),
    "orthant_probability-rho": (orthant_probability, "rho must lie in (-1, 1)",
                                _outside(-1.0, 1.0), (np.float64(-0.3), -0.3)),
    "info_from_rho-rho": (info_from_rho, "rho must lie in [-1, 1]",
                          _outside(-1.0, 1.0, closed=True), (np.float64(-0.3), -0.3)),
    "info_delampertized-m": (lambda m: info_delampertized(0.3, m, 1.0),
                             "m must be positive and finite", _outside(*_POSITIVE),
                             (np.float64(2.5), 2.5)),
    "info_delampertized-theta": (lambda t: info_delampertized(0.3, 1.0, t),
                                 "theta must be positive and finite", _outside(*_POSITIVE),
                                 (np.float64(2.5), 2.5)),
    "theory_curve-grid": (lambda h: theory_curve("fbm", [h]), _HURST, _outside(*_UNIT),
                          (np.float64(0.3), 0.3)),
    "theory_curve-hurst": (lambda h: theory_curve("delampertized", [1.0], {"hurst": h}), _HURST,
                           _outside(*_UNIT), (np.float64(0.3), 0.3)),
    "theory_curve-m": (lambda m: theory_curve("delampertized", [0.3], {"theta": 1.0, "m": m}),
                       "m must be positive and finite", _outside(*_POSITIVE),
                       (np.float64(2.5), 2.5)),
    "theory_curve-m_theta-grid": (
        lambda g: theory_curve("delampertized", g, {"hurst": 0.3}),
        "m_theta must be positive and finite", _outside(*_POSITIVE, like=[1.0, 2.0]),
        (np.array([1.0, 2.0]), [1.0, 2.0])),
    "TheoryCurve-abscissa": (lambda a: TheoryCurve("fbm", a, [0.1, 0.2]), "abscissa must be finite",
                             _outside(-math.inf, math.inf, like=[0.1, 0.2]),
                             (np.array([0.1, 0.2]), [0.1, 0.2])),
    "TheoryCurve-ordinate": (lambda o: TheoryCurve("fbm", [0.1, 0.2], o), "ordinate out of [0, 1]",
                             _outside(-1e-12, 1.0 + 1e-12, closed=True, like=[0.1, 0.2])
                             + [[math.nan, 0.1]], (np.array([0.0, 1.0]), [0.0, 1.0])),
    "TheoryCurve-fixed_params": (
        lambda x: TheoryCurve("fbm", [0.1], [0.2], {"x": x}).to_json(),
        "fixed parameter x must be finite", _outside(-math.inf, math.inf),
        (np.float64(2.5), 2.5)),
    "gamma_quantile-scale": (lambda s: gamma_quantile(1, s, 0.5),
                             "scale must be positive and finite", _outside(*_POSITIVE),
                             (np.float64(2.5), 2.5)),
    "gamma_quantile-p": (lambda p: gamma_quantile(3, 1.0, p), "quantile level must be in (0, 1)",
                         _outside(*_UNIT), (np.float64(0.3), 0.3)),
    "significance_bound-confidence": (lambda c: significance_bound(100, 2, 1, c),
                                      "confidence must be in (0, 1)", _outside(*_UNIT),
                                      (np.float64(0.3), 0.3)),
    "information_profile-confidence": (
        lambda c: information_profile({1: IndicatorSeries(1, _BITS)}, 2, (1,), c),
        "confidence must be in (0, 1)", _outside(*_UNIT), (np.float64(0.3), 0.3)),
    "PseudoPeriodicParams-beta": (lambda b: simulate_pseudo_periodic(b, 2, 16, seed=1).values,
                                  "beta must lie in (-1, 1)", _outside(-1.0, 1.0),
                                  (np.float64(-0.3), -0.3)),
    "simulate_fbm-dt": (lambda dt: simulate_fbm(FbmParams(0.6), 16, dt, seed=1).values,
                        "dt must be positive and finite", _outside(*_POSITIVE),
                        (np.float64(2.5), 2.5)),
    "simulate_delampertized-dt": (
        lambda dt: simulate_delampertized(DelampertizedParams(0.3, 1.0), 16, dt, seed=1).values,
        "dt must be positive and finite", _outside(*_POSITIVE), (np.float64(2.5), 2.5)),
    "to_price_series-p0": (lambda p0: to_price_series(_PATH, p0).prices,
                           "p0 must be positive and finite", _outside(*_POSITIVE),
                           (np.float64(2.5), 2.5)),
    "structure_function-logprices": (lambda x: structure_function(x, [1, 2]),
                                     "log-prices must be finite",
                                     _outside(-math.inf, math.inf, like=_LOGP),
                                     (_LOGP, list(_LOGP))),
    "estimate_hurst-logprices": (estimate_hurst, "log-prices must be finite",
                                 _outside(-math.inf, math.inf, like=_LOGP), (_LOGP, list(_LOGP))),
    "fbm_covariance-s": (lambda s: fbm_covariance(s, 2.0, FbmParams(0.7)), "times must be finite",
                         _outside(-math.inf, math.inf), (np.float64(2.5), 2.5)),
    "fbm_covariance-t": (lambda t: fbm_covariance([1.0, 2.0], t, FbmParams(0.7)),
                         "times must be finite", _outside(-math.inf, math.inf),
                         (np.float64(2.5), 2.5)),
    "delampertized_autocovariance-tau": (
        lambda tau: delampertized_autocovariance(tau, DelampertizedParams(0.5, 1.0)),
        "lags must be finite", _outside(-math.inf, math.inf, like=[0.0, 1.0]),
        (np.array([0.0, -1.5]), [0.0, -1.5])),
    "PriceSeries-prices": (lambda p: PriceSeries(range(2), p).prices, "prices must be finite",
                           _outside(-math.inf, math.inf, like=[1.0, 2.0]),
                           (np.array([1.0, 2.0]), [1.0, 2.0])),
    "LogLogCurve-moments": (lambda m: LogLogCurve([1, 2], m, (1, 2), 1.0, 0.0, 0.5).moments,
                            "moments must be finite and non-negative",
                            _outside(0.0, math.inf, closed=True, like=[1.0, 2.0])
                            + [[1.0, math.inf]],
                            (np.array([0.0, 2.0]), [0.0, 2.0])),
    "LogLogCurve-slope": (lambda s: LogLogCurve([1, 2], [1.0, 2.0], (1, 2), s, 0.0, 0.5).to_json(),
                          "slope must be finite", _outside(-math.inf, math.inf),
                          (np.float64(2.5), 2.5)),
    "SimulatedPath-values": (lambda v: SimulatedPath("fbm", FbmParams(0.5), 1.0, 0, v).values,
                             "values must be finite",
                             _outside(-math.inf, math.inf, like=[1.0, 2.0]),
                             (np.array([1.0, 2.0]), [1.0, 2.0])),
    # the last moment lies outside the fit range, and is checked all the same
    "fit_loglog-moments": (lambda mo: fit_loglog(np.array([1, 2, 3]), mo, (1, 2)),
                           "moments must be finite and non-negative",
                           _outside(0.0, math.inf, closed=True, like=[1.0, 2.0, 4.0])
                           + [[1.0, 2.0, math.inf]],
                           (np.array([1.0, 2.0, 4.0]), [1.0, 2.0, 4.0])),
}


@pytest.mark.parametrize("call, message, rejected, numpy_and_python",
                         REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS.keys())
def test_real_arguments_take_only_values_in_range(call, message, rejected, numpy_and_python):
    for value in rejected:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
    numpy_value, python_value = numpy_and_python
    assert _same(call(numpy_value), call(python_value))


@pytest.mark.parametrize("call, big", [
    (lambda s: simulate_fbm(FbmParams(0.5, s), 16, seed=1).values, 2 ** 64),
    (lambda p0: to_price_series(_PATH, p0).prices, 10 ** 20),
    (lambda s: gamma_quantile(1, s, 0.5), 10 ** 20)],
    ids=["FbmParams-sigma", "to_price_series-p0", "gamma_quantile-scale"])
def test_a_python_int_past_int64_is_its_float(call, big):
    assert _same(call(big), call(float(big)))


def test_a_python_int_past_the_floats_is_infinite():
    with pytest.raises(ValueError, match="^scale must be positive and finite$"):
        gamma_quantile(1, 10 ** 400, 0.5)
    with pytest.raises(ValueError, match=r"^f_xlog2x requires x >= 0$"):
        f_xlog2x(-10 ** 400)
    assert f_xlog2x(10 ** 400) == math.inf


def test_closed_bound_at_infinity_takes_infinity():
    assert f_xlog2x(math.inf) == math.inf
    assert h_lamperti(0.3, math.inf) == 0.0
    assert np.array_equal(f_xlog2x(np.array([0.0, math.inf])), [0.0, math.inf])


_maybe_reals = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.booleans())


@given(_maybe_reals)
def test_a_real_is_in_range_or_a_value_error(x):
    """Each call raises ValueError unless x is a non-bool float in its range,
    and then gives a float in the range of its result."""
    in_unit = not isinstance(x, bool) and 0.0 < x < 1.0
    positive = not isinstance(x, bool) and 0.0 < x < math.inf
    calls = [(lambda v: FbmParams(v).hurst, in_unit, (0.0, 1.0)),
             (lambda v: info_delampertized(0.3, 1.0, v), positive, (0.0, 1.0)),
             (lambda v: gamma_quantile(1, 1.0, v), in_unit, (0.0, math.inf))]
    for call, accepted, (low, high) in calls:
        if accepted:
            result = call(x)
            assert isinstance(result, float) and math.isfinite(result) and low <= result <= high
        else:
            with pytest.raises(ValueError):
                call(x)
