"""Closed-form market information for fractional Brownian log-prices and
their stationary (delampertized) counterpart.

For a Gaussian log-price the sign of the next increment given the sign of
the previous one is a bivariate-orthant computation, so the order-2 market
information depends only on the correlation rho of consecutive increments:

    I = 1 + f(1/2 - asin(rho)/pi) + f(1/2 + asin(rho)/pi),  f(x) = x log2 x.

fBm gives rho = 2**(2H-1) - 1 at every horizon m; the stationary process
obtained by inverting the Lamperti scaling gives a rho depending on the
product m*theta through h(x) = 2 cosh(Hx) - (2 sinh(x/2))**(2H).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

_RHO_EPS = 1e-15


@dataclass(frozen=True)
class FbmParams:
    """Fractional Brownian motion: Hurst exponent in (0,1), scale sigma > 0."""

    hurst: float
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")


@dataclass(frozen=True)
class DelampertizedParams:
    """Stationary counterpart of fBm under inverse Lamperti time change.

    theta is the reversion rate of the exponential time change; theta -> 0
    recovers fBm increments, and hurst = 1/2 is an Ornstein-Uhlenbeck process.
    """

    hurst: float
    theta: float
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie in (0, 1)")
        if not 0.0 < self.theta < math.inf:
            raise ValueError("theta must be positive and finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")


def f_xlog2x(x):
    """x * log2(x) extended by continuity with f(0) = 0; domain x >= 0."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("f_xlog2x requires x >= 0")
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = arr[pos] * np.log2(arr[pos])
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def rho_fbm(hurst: float) -> float:
    """Correlation of consecutive equal-horizon fBm increments: 2**(2H-1) - 1."""
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    return 2.0 ** (2.0 * hurst - 1.0) - 1.0


def h_lamperti(hurst: float, x):
    """h(x) = 2 cosh(H x) - (2 sinh(x/2))**(2H) for x >= 0.

    The stationary autocovariance at time separation tau is (sigma**2/2) *
    h(theta * tau).  Evaluated piecewise: the definition is stable for small
    x, while for large x both terms grow like exp(Hx) and the difference is
    reconstructed from exp(-Hx) - exp(Hx) * expm1(2H * log1p(-exp(-x))).
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("h_lamperti requires x >= 0")
    out = np.empty_like(arr)
    small = arr <= 1.0
    xs = arr[small]
    with np.errstate(divide="ignore"):
        # (2 sinh(x/2))**(2H) via exp(2H log(.)); log(0) -> -inf -> term 0
        term = np.exp(2.0 * hurst * np.log(2.0 * np.sinh(0.5 * xs)))
    out[small] = 2.0 * np.cosh(hurst * xs) - term
    xl = arr[~small]
    # exp(Hx) * (1 - (1-exp(-x))**(2H)) assembled in log space so that huge
    # x underflows to 0 instead of overflowing the exp(Hx) factor; from x = 40
    # on, 1 - (1-exp(-x))**(2H) = 2H exp(-x) to a relative O(exp(-x)), which
    # keeps the tail where exp(-x) underflows
    log_tail = math.log(2.0 * hurst) - (1.0 - hurst) * xl
    mid = xl < 40.0
    xm = xl[mid]
    log_tail[mid] = hurst * xm + np.log(-np.expm1(2.0 * hurst * np.log1p(-np.exp(-xm))))
    out[~small] = np.exp(-hurst * xl) + np.exp(log_tail)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _two_minus_h(hurst: float, x):
    """2 - h(x) without cancellation: (2 sinh(x/2))**(2H) - 4 sinh(Hx/2)**2 for small x."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    small = arr <= 1.0
    xs = arr[small]
    with np.errstate(divide="ignore"):
        term = np.exp(2.0 * hurst * np.log(2.0 * np.sinh(0.5 * xs)))
    out[small] = term - 4.0 * np.sinh(0.5 * hurst * xs) ** 2
    out[~small] = 2.0 - h_lamperti(hurst, arr[~small])
    return out if arr.ndim else float(out)


def rho_delampertized(hurst: float, m_theta: float) -> float:
    """Correlation of consecutive increments of the stationary process.

    Depends on m and theta only through their product.  Tends to rho_fbm(H)
    as m_theta -> 0 and to -1/2 as m_theta -> infinity; for hurst = 1/2 it
    reduces to (exp(-m_theta/2) - 1)/2.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if not m_theta > 0.0:
        raise ValueError("m_theta must be positive")
    num = _two_minus_h(hurst, 2.0 * m_theta)
    den = _two_minus_h(hurst, m_theta)
    return float(num / (2.0 * den) - 1.0)


def orthant_probability(rho: float) -> float:
    """P(Y > 0, Z <= 0) for standard bivariate normals with correlation rho."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie in (-1, 1)")
    return 0.25 - math.asin(rho) / (2.0 * math.pi)


def info_from_rho(rho: float) -> float:
    """Market information of a Gaussian walk whose consecutive increments
    have correlation rho: 1 + f(1/2 - asin(rho)/pi) + f(1/2 + asin(rho)/pi)."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    if abs(abs(rho) - 1.0) < _RHO_EPS:
        return 1.0  # deterministic sign: limit of the entropy expression
    t = math.asin(rho) / math.pi
    return 1.0 + f_xlog2x(0.5 - t) + f_xlog2x(0.5 + t)


def info_fbm(hurst: float) -> float:
    """Closed-form market information of fBm log-prices; zero iff H = 1/2,
    independent of the return horizon m."""
    return info_from_rho(rho_fbm(hurst))


def info_delampertized(hurst: float, m: float, theta: float) -> float:
    """Closed-form market information of the stationary counterpart at horizon m."""
    if not m > 0.0:
        raise ValueError("m must be positive")
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    return info_from_rho(rho_delampertized(hurst, m * theta))


def fbm_covariance(s, t, params: FbmParams):
    """Cov(B_s, B_t) = sigma**2/2 (|s|**2H + |t|**2H - |t-s|**2H)."""
    H2 = 2.0 * params.hurst
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    out = 0.5 * np.float64(params.sigma) ** 2 * (
        np.abs(s) ** H2 + np.abs(t) ** H2 - np.abs(t - s) ** H2)
    return float(out) if out.ndim == 0 else out


def delampertized_autocovariance(tau, params: DelampertizedParams):
    """Stationary autocovariance (sigma**2/2) h(theta * |tau|)."""
    tau = np.abs(np.asarray(tau, dtype=np.float64))
    out = 0.5 * np.float64(params.sigma) ** 2 * h_lamperti(params.hurst, params.theta * tau)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TheoryCurve:
    """Closed-form information curve on a parameter grid."""

    model: str
    abscissa: np.ndarray
    ordinate: np.ndarray
    fixed_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.abscissa, dtype=np.float64)
        o = np.asarray(self.ordinate, dtype=np.float64)
        a.flags.writeable = False
        o.flags.writeable = False
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "ordinate", o)
        object.__setattr__(self, "fixed_params", dict(self.fixed_params))
        if a.shape != o.shape or a.ndim != 1 or a.size < 1:
            raise ValueError("abscissa and ordinate must be 1-D and same length")
        if np.any(np.diff(a) <= 0.0):
            raise ValueError("abscissa must be strictly increasing")
        if np.any(o < -1e-12) or np.any(o > 1.0 + 1e-12):
            raise ValueError("ordinate out of [0, 1]")

    def to_csv(self) -> str:
        fixed = " ".join(f"{k}={v}" for k, v in self.fixed_params.items())
        lines = [f"# model={self.model}" + (f" {fixed}" if fixed else ""),
                 "abscissa,I2"]
        lines += [f"{repr(float(a))},{repr(float(o))}"
                  for a, o in zip(self.abscissa, self.ordinate)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "fixed_params": dict(self.fixed_params),
            "abscissa": [float(v) for v in self.abscissa],
            "I2": [float(v) for v in self.ordinate],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def theory_curve(model: str, param_grid: Sequence[float],
                 fixed: Mapping[str, float] | None = None) -> TheoryCurve:
    """Evaluate the closed-form information on a grid.

    model 'fbm': grid of Hurst values, no fixed parameters needed.
    model 'delampertized': grid of Hurst values with fixed {'theta', 'm'}
    (m defaults to 1), or a grid of m*theta values when fixed contains
    'hurst'.
    """
    fixed = dict(fixed or {})
    grid = np.asarray(list(param_grid), dtype=np.float64)
    if model == "fbm":
        ordinate = np.array([info_fbm(h) for h in grid])
    elif model == "delampertized":
        if "hurst" in fixed:
            hurst = float(fixed["hurst"])
            ordinate = np.array([info_from_rho(rho_delampertized(hurst, x))
                                 for x in grid])
        else:
            if "theta" not in fixed:
                raise ValueError("delampertized curve needs 'theta' (or 'hurst') in fixed")
            m = float(fixed.get("m", 1.0))
            theta = float(fixed["theta"])
            fixed["m"] = m
            ordinate = np.array([info_delampertized(h, m, theta) for h in grid])
    else:
        raise ValueError(f"unknown model {model!r}")
    return TheoryCurve(model, grid, ordinate, fixed)
