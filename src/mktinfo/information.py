"""Shannon entropy of word distributions, market information, and the
significance bound of a zero-information null.

Market information at order L+1 is 1 + H(L-word) - H((L+1)-word), computed
with both word distributions aligned on a common start-index range so the
chain rule holds exactly and the value is guaranteed nonnegative.  Under the
no-information null the estimator is asymptotically Gamma(2**(L-1),
1/((n - m*L) ln 2)), which yields the one-sided confidence bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .series import MAX_L, IndicatorSeries, PriceSeries, WordDistribution, _is_integer, \
    _marginal_counts, _sign_indicators, _word_windows

LN2 = math.log(2.0)


def _entropy_bits(counts: np.ndarray, total: int) -> float:
    """Plug-in Shannon entropy in bits; zero-count cells contribute nothing."""
    c = counts[counts > 0]
    if c.size == 0:
        raise ValueError("no observations")
    p = c / float(total)
    return float(-(p * np.log2(p)).sum())


def shannon_entropy(dist: WordDistribution) -> float:
    """Shannon entropy of a word distribution, in bits."""
    counts = np.array([c for c in dist.counts.values() if c > 0], dtype=np.int64)
    return _entropy_bits(counts, dist.total)


def empirical_entropy(j: IndicatorSeries, word_length: int) -> float:
    """Plug-in entropy of length-L words over the maximal window range."""
    word_length, _ = _word_windows(j, word_length)
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
    if not _is_integer(lags) or lags < 1:
        raise ValueError("lags must be a positive integer")
    order, _ = _word_windows(j, lags + 1)
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


def _normal_quantile(p: float) -> float:
    """Standard normal quantile to about 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return z if p > 0.5 else -z


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
    k = float(shape)
    c = 1.0 / (9.0 * k)
    base = 1.0 - c + _normal_quantile(p) * math.sqrt(c)
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
    """Quantile of Gamma(shape, scale) for integer shape >= 1.

    The quantile scales exactly with `scale`, so it is scale times the
    unit-scale quantile, found from the finite (Erlang) survival sum
    exp(-y) * sum_{j<shape} y**j/j! without any incomplete-gamma machinery.
    """
    if not isinstance(shape, (int, np.integer)) or shape < 1:
        raise ValueError("shape must be an integer >= 1")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    return scale * _unit_gamma_quantile(int(shape), p)


@dataclass(frozen=True)
class SignificanceBound:
    """One-sided confidence bound for market information under the null."""

    shape: int
    scale: float
    confidence: float
    value: float


def significance_bound(n: int, lags: int, m: int, confidence: float) -> SignificanceBound:
    """Bound below which an estimated information is consistent with zero.

    n is the number of prices minus one.  The null distribution of the
    order-(lags+1) information estimate is Gamma(2**(lags-1),
    1/((n - m*lags) ln 2)); the bound is its `confidence` quantile.
    """
    if lags < 1:
        raise ValueError("lags must be a positive integer")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    dof = n - m * lags
    if dof <= 0:
        raise ValueError("degrees of freedom exhausted")
    shape = 2 ** (lags - 1)
    scale = 1.0 / (dof * LN2)
    return SignificanceBound(shape, scale, confidence, gamma_quantile(shape, scale, confidence))


@dataclass(frozen=True)
class EntropyProfile:
    """Word entropies H[order, m] for order = 1..L_max+1 (rows) and each m (columns).

    Cells that cannot be estimated (series too short) hold NaN and n_obs 0.
    """

    m_values: tuple
    L_max: int
    H: np.ndarray
    n_obs: np.ndarray

    def cell(self, order: int, m: int) -> float:
        return float(self.H[order - 1, self.m_values.index(m)])


@dataclass(frozen=True)
class InformationProfile:
    """Market information I[order, m], partial information, and null bounds.

    Rows index the word order: row ell-1 holds the order-ell information
    1 + H(order ell-1) - H(order ell) with the convention H(order 0) = 0, so
    the first row is 1 - H(single indicator).  Partial information is the
    first difference of rows (base case: first row of I itself).  Bounds are
    null quantiles for orders >= 2; the order-1 cell has no integer-shape
    null and is NaN.  partial_bounds are first differences of bounds with the
    absent order-1 bound treated as zero.
    """

    m_values: tuple
    L_max: int
    n: int
    confidence: float
    I: np.ndarray
    partial: np.ndarray
    bounds: np.ndarray
    partial_bounds: np.ndarray

    def cell(self, order: int, m: int) -> float:
        return float(self.I[order - 1, self.m_values.index(m)])


def information_profile(
    j_family: Mapping[int, IndicatorSeries],
    L_max: int,
    m_values: Sequence[int],
    confidence: float = 0.95,
) -> tuple[EntropyProfile, InformationProfile]:
    """Entropy and information grids over orders 1..L_max+1 and the given m values.

    j_family maps each m to the indicator series built at horizon m from one
    underlying price series; all series must imply the same price count.
    """
    if L_max < 1:
        raise ValueError("L_max must be a positive integer")
    if L_max > MAX_L:
        raise ValueError(f"L_max must be at most {MAX_L}")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    m_values = tuple(int(m) for m in m_values)
    if len(set(m_values)) != len(m_values) or not m_values:
        raise ValueError("m_values must be nonempty and distinct")

    n_underlying = None
    for m in m_values:
        j = j_family[m]
        if j.m != m:
            raise ValueError(f"indicator series at key {m} has horizon {j.m}")
        n = len(j.bits) + m - 1  # price count minus one
        if n_underlying is None:
            n_underlying = n
        elif n != n_underlying:
            raise ValueError("indicator series disagree on underlying price count")
    n = n_underlying

    # The null quantile scales as 1/dof, so one unit-scale quantile per lag
    # count serves every m.  An order-(lags+1) cell has n + 1 - m*(lags+1)
    # windows, so it exists for some m exactly when it exists for the smallest.
    m_min = min(m_values)
    unit_bound = {}
    for lags in range(1, L_max + 1):
        if n >= m_min * (lags + 1):
            b = significance_bound(n, lags, m_min, confidence)
            unit_bound[lags] = b.value / b.scale

    n_orders = L_max + 1
    shape = (n_orders, len(m_values))
    H = np.full(shape, np.nan)
    n_obs = np.zeros(shape, dtype=np.int64)
    I = np.full(shape, np.nan)
    bounds = np.full(shape, np.nan)
    partial_bounds = np.full(shape, np.nan)

    for col, m in enumerate(m_values):
        for order, n_windows, counts, prefix in _marginal_counts(j_family[m].bits, m, n_orders):
            row = order - 1
            H[row, col] = _entropy_bits(counts, n_windows)
            n_obs[row, col] = n_windows
            if order == 1:
                I[row, col] = 1.0 - H[row, col]
            else:
                I[row, col] = 1.0 + _entropy_bits(prefix, n_windows) - H[row, col]
                lags = row
                bounds[row, col] = unit_bound[lags] / ((n - m * lags) * LN2)

    # first differences down the orders; a difference with an absent cell is NaN
    partial = np.diff(I, axis=0, prepend=0.0)
    # no order-1 bound exists, so the bounds' first difference starts from zero
    partial_bounds[1:] = np.diff(bounds[1:], axis=0, prepend=0.0)

    for arr in (H, I, partial, bounds, partial_bounds):
        arr.flags.writeable = False
    n_obs.flags.writeable = False
    ep = EntropyProfile(m_values, L_max, H, n_obs)
    ip = InformationProfile(m_values, L_max, int(n_underlying), confidence,
                            I, partial, bounds, partial_bounds)
    return ep, ip


def profile_from_prices(
    prices: PriceSeries,
    L_max: int = 7,
    m_values: Sequence[int] = (1, 2, 3),
    confidence: float = 0.95,
) -> tuple[EntropyProfile, InformationProfile]:
    """Build indicator series at each m from one price series, then profile them."""
    j_family = {int(m): _sign_indicators(prices, int(m)) for m in m_values}
    return information_profile(j_family, L_max, m_values, confidence)


def entropy_rate_slope(profile: EntropyProfile, m: int, lags: Sequence[int]) -> float:
    """OLS slope of word entropy against the lag count.

    Fits H(order lag+1) against lag for the given lag values: lag L pairs
    with the order-(L+1) word, matching the axis on which the entropy growth
    is usually read.  A sign sequence with no memory has slope 1.
    """
    col = profile.m_values.index(m)
    xs, ys = [], []
    for lag in lags:
        order = lag + 1
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


def _matrix_to_lists(arr: np.ndarray) -> list:
    return [[None if not np.isfinite(v) else float(v) for v in row] for row in arr]


def profile_to_json(ep: EntropyProfile, ip: InformationProfile) -> str:
    """Serialize a profile pair to a JSON object with null for absent cells."""
    payload = {
        "m_values": list(ep.m_values),
        "L_max": ep.L_max,
        "H": _matrix_to_lists(ep.H),
        "I": _matrix_to_lists(ip.I),
        "partial": _matrix_to_lists(ip.partial),
        "bounds": _matrix_to_lists(ip.bounds),
        "confidence": ip.confidence,
        "n": ip.n,
    }
    return json.dumps(payload, indent=2)


def profile_to_csv(ep: EntropyProfile, ip: InformationProfile) -> str:
    """Long-format CSV: one row per (order L, m) cell, blank for absent values."""
    def fmt(v: float) -> str:
        return "" if not np.isfinite(v) else repr(float(v))

    lines = [
        f"# n={ip.n} confidence={ip.confidence} m_values={','.join(map(str, ep.m_values))}",
        "L,m,H,I,partial,bound",
    ]
    for row in range(ep.L_max + 1):
        for col, m in enumerate(ep.m_values):
            lines.append(",".join([
                str(row + 1), str(m),
                fmt(ep.H[row, col]), fmt(ip.I[row, col]),
                fmt(ip.partial[row, col]), fmt(ip.bounds[row, col]),
            ]))
    return "\n".join(lines) + "\n"
