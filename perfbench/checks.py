"""Checks of the program's outputs, made apart from the program.

Every function returns a list of failure messages (empty when the check
passes).  None of them is timed.  References come from code written here
(a sort-based word counter), from scipy (gamma quantiles, the bivariate
normal CDF) and from mpmath (the stationary autocovariance), never from the
mktinfo functions under test.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances.
CELL_ABS_TOL = 1e-12      # H / I cells against the independent counter
BOUND_REL_TOL = 1e-9      # significance bounds against scipy
THEORY_ABS_TOL = 1e-9     # closed forms against the orthant reference
NONNEG_TOL = 1e-12        # I >= -tol, H monotone to within tol
HURST_TOL = 0.02          # |mean Hurst estimate - true H|
Z_BOUND = 5.0             # standard errors of the Monte Carlo mean
# The plug-in information estimate of fBm carries a positive bias of about
# 0.45 * n**(2H-2) bits under long-range dependence (+4.5e-4 measured at
# H = 0.7, n = 1e5 over 40 paths; it is what fails acceptance criterion 2 at
# n = 3000).  The fBm comparison allows twice that above the closed form.
FBM_BIAS_COEF = 0.9


# ---- word counts -----------------------------------------------------------

def indicator_bits(prices: np.ndarray, m: int) -> np.ndarray:
    """1 where the price rose over m steps (ties count as 0)."""
    return (prices[m:] > prices[:-m]).astype(np.uint8)


def word_counts(bits: np.ndarray, length: int, m: int, n_windows: int) -> np.ndarray:
    """Counts of the distinct length-`length` words over the first n_windows
    starts, entries m apart: rows of a sliding window, weighted into codes,
    counted by sorting (np.unique).  Order of the counts is irrelevant."""
    span = (length - 1) * m + 1
    rows = np.lib.stride_tricks.sliding_window_view(bits, span)[:n_windows, ::m]
    weights = np.int64(2) ** np.arange(length, dtype=np.int64)
    codes = np.concatenate([rows[i:i + 65536] @ weights
                            for i in range(0, n_windows, 65536)])
    return np.unique(codes, return_counts=True)[1]


def entropy_bits(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / float(total)
    return float(-(p * np.log2(p)).sum())


def cell_reference(prices: np.ndarray, order: int, m: int) -> tuple[float, float]:
    """(H, I) of one profile cell recomputed from the prices."""
    bits = indicator_bits(prices, m)
    n_windows = len(bits) - (order - 1) * m
    h = entropy_bits(word_counts(bits, order, m, n_windows), n_windows)
    if order == 1:
        return h, 1.0 - h
    h_prefix = entropy_bits(word_counts(bits, order - 1, m, n_windows), n_windows)
    return h, 1.0 + h_prefix - h


def check_cells(label, prices, H, I, m_values, cells) -> list[str]:
    """Compare the given (order, m) cells of H and I with the counter here."""
    failures = []
    for order, m in cells:
        col = list(m_values).index(m)
        h_ref, i_ref = cell_reference(prices, order, m)
        h, i = H[order - 1][col], I[order - 1][col]
        if not (abs(h - h_ref) <= CELL_ABS_TOL and abs(i - i_ref) <= CELL_ABS_TOL):
            failures.append(f"{label}: cell (order {order}, m {m}) H={h!r} I={i!r},"
                            f" reference H={h_ref!r} I={i_ref!r}")
    return failures


def sample_cells(rng: np.random.Generator, n_orders: int, m_values, k: int) -> list:
    """k distinct (order, m) cells, always including the deepest one."""
    cells = [(o, m) for o in range(1, n_orders + 1) for m in m_values]
    picked = {(n_orders, max(m_values))}
    for idx in rng.permutation(len(cells)):
        if len(picked) >= k:
            break
        picked.add(cells[idx])
    return sorted(picked)


# ---- properties of the method ---------------------------------------------

def check_profile_properties(label, H, I) -> list[str]:
    """I >= 0; H non-decreasing in word order and at most the order."""
    H = np.asarray(H, dtype=np.float64)
    I = np.asarray(I, dtype=np.float64)
    failures = []
    finite_i = I[np.isfinite(I)]
    if finite_i.size and finite_i.min() < -NONNEG_TOL:
        failures.append(f"{label}: negative information {finite_i.min()!r}")
    orders = np.arange(1, H.shape[0] + 1, dtype=np.float64)
    for col in range(H.shape[1]):
        h = H[:, col]
        ok = np.isfinite(h)
        if np.any(h[ok] > orders[ok] + NONNEG_TOL):
            failures.append(f"{label}: entropy above word order in column {col}")
        if np.any(np.diff(h[ok]) < -NONNEG_TOL):
            failures.append(f"{label}: entropy decreases with word order in column {col}")
    return failures


# ---- significance bounds ---------------------------------------------------

def check_bounds(label, bounds, n, m_values, confidence) -> list[str]:
    """bounds[order-1][m] = gamma.ppf(conf, 2**(L-1), scale=1/((n-m L) ln 2)), L = order-1."""
    from scipy.stats import gamma

    failures = []
    checked = 0
    for row, values in enumerate(bounds):
        lags = row
        for m, value in zip(m_values, values):
            dof = n - m * lags
            if lags < 1 or dof <= 0:
                if value is not None and np.isfinite(value):
                    failures.append(f"{label}: bound present at order {row + 1}, m {m}")
                continue
            ref = gamma.ppf(confidence, 2 ** (lags - 1), scale=1.0 / (dof * math.log(2.0)))
            checked += 1
            if value is None or not abs(value - ref) <= BOUND_REL_TOL * ref:
                failures.append(f"{label}: bound at order {row + 1}, m {m} is {value!r},"
                                f" scipy gives {ref!r}")
    if not checked:
        failures.append(f"{label}: no bound to check")
    return failures


# ---- closed forms ----------------------------------------------------------

def _f(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def orthant_information(rho: float) -> float:
    """1 + f(x) + f(1-x) with x = P(consecutive increments share a sign),
    from scipy's bivariate normal CDF: x = 2 P(Y <= 0, Z <= 0)."""
    from scipy.stats import multivariate_normal

    both_down = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]]).cdf([0.0, 0.0])
    x = 2.0 * float(both_down)
    return 1.0 + _f(x) + _f(1.0 - x)


def rho_fbm_reference(hurst: float) -> float:
    """Correlation of B(1) - B(0) and B(2) - B(1) from the fBm covariance."""
    def cov(s, t):
        return 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - abs(t - s) ** (2 * hurst))
    c12 = cov(1.0, 2.0) - cov(1.0, 1.0)
    var = cov(1.0, 1.0)
    return c12 / var


def rho_delampertized_reference(hurst: float, m_theta: float) -> float:
    """Correlation of consecutive m-step increments of the stationary process
    with autocovariance c(tau) proportional to 2 cosh(H x) - (2 sinh(x/2))**(2H),
    x = theta * tau, evaluated at 60 digits to avoid cancellation."""
    import mpmath

    with mpmath.workdps(60):
        H = mpmath.mpf(hurst)
        x = mpmath.mpf(m_theta)

        def c(u):
            if u == 0:
                return mpmath.mpf(2)
            return 2 * mpmath.cosh(H * u) - (2 * mpmath.sinh(u / 2)) ** (2 * H)

        cov = 2 * c(x) - c(0) - c(2 * x)
        var = 2 * (c(0) - c(x))
        return float(cov / var)


def check_curve(label, model, hurst_grid, ordinate, m_theta=None) -> list[str]:
    failures = []
    for h, value in zip(hurst_grid, ordinate):
        rho = rho_fbm_reference(h) if model == "fbm" else rho_delampertized_reference(h, m_theta)
        ref = orthant_information(rho)
        if not abs(value - ref) <= THEORY_ABS_TOL:
            failures.append(f"{label}: I2 at H={h!r} is {value!r}, orthant reference {ref!r}")
    return failures


# ---- Monte Carlo agreement -------------------------------------------------

def check_mean(label, values, reference, bias_allowance=0.0) -> list[str]:
    """Mean of per-path estimates within Z_BOUND standard errors of the
    reference, plus an allowance for a known upward estimator bias."""
    v = np.asarray(values, dtype=np.float64)
    se = float(v.std(ddof=1)) / math.sqrt(len(v))
    diff = float(v.mean()) - reference
    if not -Z_BOUND * se <= diff <= Z_BOUND * se + bias_allowance:
        return [f"{label}: mean {v.mean()!r} over {len(v)} paths vs {reference!r}"
                f" (z = {diff / se:.2f}, allowance {bias_allowance:.2e})"]
    return []


def fbm_bias_allowance(hurst: float, n: int) -> float:
    return FBM_BIAS_COEF * n ** (2.0 * hurst - 2.0)
