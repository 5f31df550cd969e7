"""Invariants checked over generated inputs."""

import io
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from mktinfo.information import (
    _entropy_bits,
    empirical_entropy,
    gamma_quantile,
    information_profile,
    market_information,
    profile_from_prices,
)
from mktinfo.series import IndicatorSeries, PriceSeries, load_prices, write_prices, \
    _timestamp_keys
from mktinfo.simulate import SimulatedPath, to_price_series
from mktinfo.simulate import PseudoPeriodicParams
from mktinfo.theory import info_from_rho, orthant_probability

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



# Labels write_prices can write unquoted and load_prices reads back: no
# comma, quote, '#', line break or whitespace.  A leading "t" keeps every
# label from parsing as a number, so they order as text.
_label_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                                    blacklist_characters=',"#'), max_size=8)
_labels = st.one_of(
    st.lists(_label_text, min_size=2, max_size=30, unique=True).map(
        lambda v: sorted("t" + s for s in v)),
    st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=2, max_size=30, unique=True).map(sorted),
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
