"""Sign-word counts, their Shannon entropies, market information, and the
significance bound of a zero-information null.

A word is L signs spaced m steps apart, counted over overlapping windows.
Market information at order L+1 is 1 + H(L-word) - H((L+1)-word), computed
with both word distributions aligned on a common start-index range so the
chain rule holds exactly and the value is guaranteed nonnegative.  Under the
no-information null the estimator is asymptotically Gamma(2**(L-1),
1/((n - m*L) ln 2)), which yields the one-sided confidence bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._common import _count, _csv_table, _freeze, _held, _json_text, _real
from .series import IndicatorSeries, PriceSeries, to_indicators

LN2 = math.log(2.0)

# Deepest supported lag count, so the longest word has MAX_L + 1 letters: its
# code fits in the uint32 that _word_codes builds, and the significance
# bound's Gamma shape 2**(MAX_L - 1) still takes only tens of milliseconds.
# A larger shape is refused: the Poisson sum's arrays grow like its square
# root, to about 0.7 GiB at lags 40.
MAX_L = 30


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    """Plug-in Shannon entropy in bits; zero-count cells contribute nothing."""
    c = counts[counts > 0]
    p = c / float(total)
    # 0.0 - s, not -s, so that a zero entropy is +0.0
    return 0.0 - float((p * np.log2(p)).sum())


def _word_codes(bits: np.ndarray, order: int, m: int, n_windows: int) -> np.ndarray:
    """Codes of the `order`-letter words at the first n_windows starts.

    Window i reads bits[i], bits[i+m], ..., and its earliest letter is the
    leading bit.  Codes are built by doubling, following the binary form of
    `order`: the a-letter codes shifted left by a, or-ed with the same codes
    a*m further on, are the 2a-letter codes, and a 1 digit appends one
    letter, so there are about 2*log2(order) passes.  The dtype is the
    narrowest unsigned one that holds `order` bits.
    """
    dtype = np.uint8 if order <= 8 else np.uint16 if order <= 16 else np.uint32
    # the a-letter codes are needed at the first n_windows + (order - a)*m starts
    codes = bits[: n_windows + (order - 1) * m].astype(dtype)
    a = 1
    for digit in bin(order)[3:]:
        size = n_windows + (order - 2 * a) * m
        doubled = codes[:size] << a
        doubled |= codes[a * m : a * m + size]
        codes, a = doubled, 2 * a
        if digit == "1":
            size -= m
            codes = codes[:size] << 1
            codes |= bits[a * m : a * m + size]
            a += 1
    return codes


def _count_codes(codes: np.ndarray, order: int):
    """(words, counts) of the order-`order` codes.

    Dense while there are no more possible words than windows: words is None
    and counts is a bincount indexed by code.  Sparse above that, so memory
    stays O(len(codes)) at any order: the sorted words that occur and their
    counts.  Either way the positive counts, in code order, are the same.
    """
    if (1 << order) <= len(codes):
        return None, np.bincount(codes, minlength=1 << order)
    return np.unique(codes, return_counts=True)


def _prefix_counts(words, counts):
    """(words, counts) as from _count_codes, of the counted words' prefixes (code >> 1)."""
    if words is None:
        return None, counts[0::2] + counts[1::2]
    heads = words >> 1
    starts = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
    return heads[starts], np.add.reduceat(counts, starts)


def _add_codes(words, counts, extra: np.ndarray, order: int, n_windows: int):
    """(words, counts) as from _count_codes over n_windows codes: the counted
    words plus the order-`order` codes `extra`.

    A sparse count takes its few extra words by binary search and insertion,
    O(words), and is not sorted again.
    """
    size = 1 << order
    if size <= n_windows:
        dense = np.bincount(extra, minlength=size)
        if words is None:
            dense += counts
        else:
            dense[words] += counts
        return None, dense
    extra, extra_counts = np.unique(extra, return_counts=True)
    at = np.searchsorted(words, extra)
    new = words[np.minimum(at, len(words) - 1)] != extra
    words = np.insert(words, at[new], extra[new])
    counts = np.insert(counts, at[new], 0)
    counts[np.searchsorted(words, extra)] += extra_counts
    return words, counts


def _marginal_counts(bits: np.ndarray, m: int, top: int):
    """Word counts at horizon m for orders min(top, deepest)..1, deepest first.

    Yields (order, n_windows, counts, prefix): the counts of the `order`-letter
    words over all n_windows = len(bits) - (order-1)*m starts and of their
    prefixes over the same starts, as from _count_codes.  Codes are built and
    counted once, at the deepest order; each lower order's counts are the
    prefix counts above it plus the m windows at the end that have no room
    for one more letter, so a lower order costs O(2**order + m*order), or
    O(words) where sparse.
    """
    order = min(top, (len(bits) - 1) // m + 1)
    n_windows = len(bits) - (order - 1) * m
    words, counts = _count_codes(_word_codes(bits, order, m, n_windows), order)
    while True:
        words, prefix = _prefix_counts(words, counts)
        yield order, n_windows, counts, prefix
        if order == 1:
            return
        extra = _word_codes(bits[n_windows:], order - 1, m, m)
        order, n_windows = order - 1, n_windows + m
        words, counts = _add_codes(words, prefix, extra, order, n_windows)


def _word_windows(j: IndicatorSeries, word_length) -> int:
    """word_length as an int, checked: at most MAX_L + 1 letters, with room
    in the series for at least one length-L word at horizon j.m."""
    word_length = _count(word_length, "word length must be a positive integer")
    if word_length > MAX_L + 1:
        raise ValueError(f"word length {word_length} exceeds the limit of {MAX_L + 1}")
    if len(j.bits) - (word_length - 1) * j.m < 1:
        raise ValueError(f"series too short for (L={word_length}, m={j.m})")
    return word_length


def empirical_entropy(j: IndicatorSeries, word_length: int) -> float:
    """Plug-in entropy of length-L words over the maximal window range."""
    word_length = _word_windows(j, word_length)
    # the deepest order comes first, and the generator counts no lower one
    _, n_windows, counts, _ = next(_marginal_counts(j.bits, j.m, word_length))
    return _entropy_bits(counts, n_windows)


def market_information(j: IndicatorSeries, lags: int) -> float:
    """Information the last `lags` indicators carry about the next one.

    Equals 1 + H(lags-word) - H((lags+1)-word) in bits; zero when the next
    indicator is an unbiased coin flip regardless of the preceding word, and
    1 when the word determines the next indicator.  Both distributions use
    the start-index range of the longer word, so the prefix counts are exact
    marginals of the full counts.
    """
    lags = _count(lags, "lags must be a positive integer")
    order = _word_windows(j, lags + 1)
    _, n_windows, counts, prefix = next(_marginal_counts(j.bits, j.m, order))
    return 1.0 + _entropy_bits(prefix, n_windows) - _entropy_bits(counts, n_windows)


def _log_poisson_pmf(j: int, y: float) -> float:
    """log(exp(-y) * y**j / j!), accurate to rounding even when j and y are huge.

    For large j the direct form cancels terms of size j*log(y); Stirling's
    series with log1p keeps only the small difference.
    """
    if j < 30:
        return -y + j * math.log(y) - math.lgamma(j + 1)
    d = y - j
    stirling = 1.0 / (12.0 * j) - 1.0 / (360.0 * j ** 3) + 1.0 / (1260.0 * j ** 5)
    return j * math.log1p(d / j) - d - 0.5 * math.log(2.0 * math.pi * j) - stirling


def _log_poisson_sum(lo: int, hi: int | None, y: float) -> float:
    """log sum_{j=lo..hi} exp(-y) y**j / j! (hi None: no upper end).

    The terms peak at the j in [lo, hi] nearest floor(y); those more than
    about 40*sqrt(y) away from the peak are below exp(-800) of it and are
    skipped, so the cost grows like sqrt(y), not like the range.
    """
    width = int(40.0 * math.sqrt(y)) + 40
    top = max(lo, int(y))
    last = top + width
    if hi is not None:
        top, last = min(top, hi), min(last, hi)
    first = max(lo, top - width)
    # log(term_j / term_first) for j = first..last, by cumulative log(y / j) ratios
    rel = np.empty(last - first + 1)
    rel[0] = 0.0
    np.cumsum(math.log(y) - np.log(np.arange(first + 1, last + 1, dtype=np.float64)),
              out=rel[1:])
    rel -= rel[top - first]
    return _log_poisson_pmf(top, y) + math.log(float(np.exp(rel).sum()))


# a profile asks for the same few (shape, p) pairs on every call
@lru_cache(maxsize=64)
def _unit_gamma_quantile(shape: int, p: float) -> float:
    """Quantile of Gamma(shape, 1) for integer shape >= 1 and p in (0, 1).

    Newton's method on the log of the smaller Erlang tail, from a
    Wilson-Hilferty start: for p >= 0.5 the survival function
    S(y) = P(Poisson(y) < shape), solved for S = 1 - p; below 0.5 the
    distribution function F(y) = P(Poisson(y) >= shape), solved for F = p,
    which keeps full relative precision however small p is.  Both logs are
    concave (the Erlang density is log-concave), so the iterates approach
    the root monotonically from the side where the tail is too small, and a
    start on the other side crosses over in one step.
    """
    import statistics  # here: only a bound needs it, and it adds 3 ms to every import

    k = float(shape)
    c = 1.0 / (9.0 * k)
    base = 1.0 - c + statistics.NormalDist().inv_cdf(p) * math.sqrt(c)
    if base > 0.0:
        y = k * base ** 3
    else:
        # deep lower tail: P(Gamma(k,1) <= y) <= y**k / k!, so this start is left of the root
        y = math.exp((math.log(p) + math.lgamma(k + 1.0)) / k)
    if p < 0.5:  # F(y) = sum over j >= shape
        log_target, lo, hi, sign = math.log(p), shape, None, -1.0
    else:  # S(y) = sum over j < shape
        log_target, lo, hi, sign = math.log1p(-p), 0, shape - 1, 1.0
    for _ in range(50):
        log_tail = _log_poisson_sum(lo, hi, y)
        # d log F / dy = -d log S / dy = pmf(shape - 1; y) / tail
        step = sign * (log_tail - log_target) * math.exp(log_tail - _log_poisson_pmf(shape - 1, y))
        y += step
        if abs(step) <= 1e-10 * y:
            break
    return y


def gamma_quantile(shape: int, scale: float, p: float) -> float:
    """Quantile of Gamma(shape, scale) for integer shape in 1..2**(MAX_L - 1).

    The quantile scales exactly with `scale`, so it is scale times the
    unit-scale quantile, found from the finite (Erlang) survival sum
    exp(-y) * sum_{j<shape} y**j/j! without any incomplete-gamma machinery.
    """
    shape = _count(shape, "shape must be an integer >= 1")
    if shape > 2 ** (MAX_L - 1):
        raise ValueError(f"shape must be at most 2**{MAX_L - 1}")
    scale = _real(scale, "scale must be positive and finite", 0.0, math.inf)
    p = _real(p, "quantile level must be in (0, 1)", 0.0, 1.0)
    return scale * _unit_gamma_quantile(shape, p)


def significance_bound(n: int, lags: int, m: int, confidence: float) -> float:
    """Bound below which an estimated information is consistent with zero.

    n is the number of prices minus one.  The null distribution of the
    order-(lags+1) information estimate is Gamma(2**(lags-1),
    1/((n - m*lags) ln 2)); the bound is its `confidence` quantile.  lags
    is at most MAX_L, as in a profile.
    """
    n = _count(n, "n must be a positive integer")
    lags = _count(lags, "lags must be a positive integer")
    if lags > MAX_L:
        raise ValueError(f"lags must be at most {MAX_L}")
    m = _count(m, "m must be a positive integer")
    confidence = _real(confidence, "confidence must be in (0, 1)", 0.0, 1.0)
    dof = _count(n - m * lags, "degrees of freedom exhausted")
    shape = 2 ** (lags - 1)
    scale = 1.0 / (dof * LN2)
    return scale * _unit_gamma_quantile(shape, confidence)


def _m_values(values) -> tuple:
    """`values` as a tuple of Python ints, checked positive, nonempty and distinct."""
    values = tuple(_count(m, "m_values must be positive integers") for m in values)
    if len(set(values)) != len(values) or not values:
        raise ValueError("m_values must be nonempty and distinct")
    return values


def _profile_n(value) -> int:
    """A profile's n, checked a positive integer that the int64 window
    counts of EntropyProfile can hold."""
    n = _count(value, "n must be a positive integer")
    if n >= 2 ** 63:
        raise ValueError("n must be below 2**63")
    return n


def _grid(values, m_values: tuple, name: str) -> np.ndarray:
    """`values` as a read-only float64 grid held by _held, checked 2-D, with
    one row per order (at least one) and one column per m value."""
    grid = np.asarray(values)
    if grid.dtype.kind not in "iuf" or grid.ndim != 2 or grid.shape[0] < 1 \
            or grid.shape[1] != len(m_values):
        raise ValueError(f"{name} must be a 2-D grid of at least one row and one column "
                         "per m value")
    return _held(grid.astype(np.float64, copy=False), values)


@dataclass(frozen=True)
class EntropyProfile:
    """Word entropies H[order, m] for order = 1..L_max+1 (rows) and each m (columns).

    n is the number of prices minus one.  L_max and n_obs, the window count
    of each cell, are worked out from n and the grid: order L at horizon m
    has n - L*m + 1 windows.  Cells that cannot be estimated (series too
    short) hold NaN and n_obs 0.
    """

    m_values: tuple
    n: int
    H: np.ndarray
    L_max: int = field(init=False)
    n_obs: np.ndarray = field(init=False)

    def __post_init__(self):
        m_values = _m_values(self.m_values)
        n = _profile_n(self.n)
        H = _grid(self.H, m_values, "H")
        object.__setattr__(self, "m_values", m_values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "L_max", H.shape[0] - 1)
        # in Python ints, so no order * m can wrap; each count is at most n
        n_obs = [[max(n - order * m + 1, 0) for m in m_values] for order in range(1, len(H) + 1)]
        object.__setattr__(self, "n_obs", _freeze(np.array(n_obs, dtype=np.int64)))

    def cell(self, order: int, m: int) -> float:
        return float(self.H[_cell_index(self, order, m)])


@dataclass(frozen=True)
class InformationProfile:
    """Market information I[order, m], partial information, and null bounds.

    Rows index the word order: row ell-1 holds the order-ell information
    1 + H(order ell-1) - H(order ell) with the convention H(order 0) = 0, so
    the first row is 1 - H(single indicator).  L_max and the partial
    information, the first difference of rows (base case: first row of I
    itself; a difference with an absent cell is NaN), are worked out from
    I.  Bounds, a grid of I's shape, are null quantiles for orders >= 2; the
    order-1 cell has no integer-shape null and is NaN.
    """

    m_values: tuple
    n: int
    confidence: float
    I: np.ndarray
    bounds: np.ndarray
    L_max: int = field(init=False)
    partial: np.ndarray = field(init=False)

    def __post_init__(self):
        m_values = _m_values(self.m_values)
        n = _profile_n(self.n)
        confidence = _real(self.confidence, "confidence must be in (0, 1)", 0.0, 1.0)
        I = _grid(self.I, m_values, "I")
        bounds = _grid(self.bounds, m_values, "bounds")
        if bounds.shape != I.shape:
            raise ValueError("bounds must have the shape of I")
        object.__setattr__(self, "m_values", m_values)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "confidence", confidence)
        object.__setattr__(self, "I", I)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "L_max", I.shape[0] - 1)
        object.__setattr__(self, "partial", _freeze(np.diff(I, axis=0, prepend=0.0)))

    def cell(self, order: int, m: int) -> float:
        return float(self.I[_cell_index(self, order, m)])


def _cell_index(profile, order: int, m: int) -> tuple[int, int]:
    """Grid index of the cell at `order`, one of 1..L_max+1, and horizon m,
    one of the profile's m_values."""
    orders = f"order must be an integer in 1..{profile.L_max + 1}"
    if _count(order, orders) > profile.L_max + 1:
        raise ValueError(orders)
    m_values = f"m must be one of the profile's m_values {profile.m_values}"
    if _count(m, m_values) not in profile.m_values:
        raise ValueError(m_values)
    return int(order) - 1, profile.m_values.index(m)


def information_profile(
    indicators: Sequence[IndicatorSeries],
    L_max: int,
    confidence: float = 0.95,
) -> tuple[EntropyProfile, InformationProfile]:
    """Entropy and information grids over orders 1..L_max+1, one column per
    indicator series in the given order; the series come from one price
    series, each at its own horizon m, so all must imply the same price count."""
    L_max = _count(L_max, "L_max must be a positive integer")
    if L_max > MAX_L:
        raise ValueError(f"L_max must be at most {MAX_L}")
    confidence = _real(confidence, "confidence must be in (0, 1)", 0.0, 1.0)
    indicators = tuple(indicators)
    if not all(isinstance(j, IndicatorSeries) for j in indicators):
        raise ValueError("indicators must be IndicatorSeries")
    m_values = _m_values(j.m for j in indicators)
    # the price count minus one, which every series must imply
    price_steps = {len(j.bits) + j.m - 1 for j in indicators}
    if len(price_steps) > 1:
        raise ValueError("indicator series disagree on underlying price count")
    n = price_steps.pop()

    n_orders = L_max + 1
    shape = (n_orders, len(m_values))
    H = np.full(shape, np.nan)
    I = np.full(shape, np.nan)
    bounds = np.full(shape, np.nan)

    for col, j in enumerate(indicators):
        for order, n_windows, counts, prefix in _marginal_counts(j.bits, j.m, n_orders):
            row = order - 1
            H[row, col] = _entropy_bits(counts, n_windows)
            # order 1's prefix is the empty word, whose entropy is 0
            I[row, col] = 1.0 + _entropy_bits(prefix, n_windows) - H[row, col]
            if order > 1:
                # row is the lag count; a counted cell has n_windows >= 1, so
                # its null has dof = n - m*row = n_windows + m - 1 >= 1
                bounds[row, col] = significance_bound(n, row, j.m, confidence)

    ep = EntropyProfile(m_values, n, _freeze(H))
    ip = InformationProfile(m_values, n, confidence, _freeze(I), _freeze(bounds))
    return ep, ip


def profile_from_prices(
    prices: PriceSeries,
    L_max: int = 7,
    m_values: Sequence[int] = (1, 2, 3),
    confidence: float = 0.95,
) -> tuple[EntropyProfile, InformationProfile]:
    """Build indicator series at each m from one price series, then profile them."""
    return information_profile([to_indicators(prices, m) for m in m_values], L_max, confidence)


def entropy_rate_slope(profile: EntropyProfile, m: int, lags: Sequence[int]) -> float:
    """OLS slope of word entropy against the lag count.

    Fits H(order lag+1) against lag for the given lag values: lag L pairs
    with the order-(L+1) word, matching the axis on which the entropy growth
    is usually read.  A sign sequence with no memory has slope 1.
    """
    _, col = _cell_index(profile, 1, m)
    xs, ys = [], []
    for lag in lags:
        order = _count(lag, "lags must be non-negative integers", minimum=0) + 1
        if not 1 <= order <= profile.L_max + 1:
            continue
        h = profile.H[order - 1, col]
        if np.isfinite(h):
            xs.append(float(lag))
            ys.append(float(h))
    if len(xs) < 2:
        raise ValueError("insufficient range")
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)


def _check_pair(ep: EntropyProfile, ip: InformationProfile) -> None:
    """Raise unless ep and ip describe one series: the same m_values, n and L_max."""
    if ep.m_values != ip.m_values or ep.n != ip.n or ep.L_max != ip.L_max:
        raise ValueError("the entropy and information profiles differ in m_values, n or L_max")


def profile_to_json(ep: EntropyProfile, ip: InformationProfile) -> str:
    """Serialize a profile pair to a JSON object with null for absent cells."""
    _check_pair(ep, ip)
    return _json_text({"m_values": ep.m_values, "L_max": ep.L_max, "H": ep.H, "I": ip.I,
                       "partial": ip.partial, "bounds": ip.bounds,
                       "confidence": ip.confidence, "n": ip.n})


def profile_to_csv(ep: EntropyProfile, ip: InformationProfile) -> str:
    """Long-format CSV: one row per (order L, m) cell, blank for absent values."""
    _check_pair(ep, ip)
    header = {"n": ip.n, "confidence": ip.confidence, "m_values": ",".join(map(str, ep.m_values))}
    orders = np.arange(1, ep.L_max + 2)
    return _csv_table(header, {"L": np.repeat(orders, len(ep.m_values)),
                               "m": np.tile(ep.m_values, len(orders)), "H": ep.H.ravel(),
                               "I": ip.I.ravel(), "partial": ip.partial.ravel(),
                               "bound": ip.bounds.ravel()})
