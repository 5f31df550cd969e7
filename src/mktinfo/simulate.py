"""Exact Gaussian simulators and a pseudo-periodic toy model, plus the map
from simulated paths to price series.

fBm is sampled by circulant embedding of the increment covariance (FFT,
exact in distribution), with a dense Cholesky fallback when the embedding is
not nonnegative definite.  The stationary delampertized process is sampled
by dense factorization of its autocovariance matrix.  All randomness comes
from numpy's default PCG64 generator seeded explicitly, so identical inputs
give bit-identical paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .series import PriceSeries
from .theory import DelampertizedParams, FbmParams, h_lamperti


class NumericError(RuntimeError):
    """A covariance factorization failed beyond repair."""


@dataclass(frozen=True)
class PseudoPeriodicParams:
    """Toy return model R[i] = beta * R[i-tau] + sqrt(1-beta**2) * eps[i]."""

    beta: float
    tau: int

    def __post_init__(self):
        if not -1.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (-1, 1)")
        if not isinstance(self.tau, (int, np.integer)) or self.tau < 1:
            raise ValueError("tau must be a positive integer")
        object.__setattr__(self, "tau", int(self.tau))


ModelParams = Union[FbmParams, DelampertizedParams, PseudoPeriodicParams]


@dataclass(frozen=True)
class SimulatedPath:
    """A simulated series: log-prices for the Gaussian models, returns for
    the pseudo-periodic model."""

    model: str
    params: ModelParams
    dt: float
    seed: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _fgn_autocovariance(hurst: float, sigma: float, dt: float, n_lags: int) -> np.ndarray:
    """Autocovariance of fBm increments at lags 0..n_lags."""
    k = np.arange(n_lags + 1, dtype=np.float64)
    h2 = 2.0 * hurst
    scale = 0.5 * sigma ** 2 * dt ** h2
    return scale * (np.abs(k + 1) ** h2 - 2.0 * k ** h2 + np.abs(k - 1) ** h2)


@lru_cache(maxsize=8)
def _fgn_spectrum(hurst: float, sigma: float, dt: float, n: int):
    """Square roots of circulant-embedding eigenvalues, or None if not PSD."""
    gamma = _fgn_autocovariance(hurst, sigma, dt, n)
    circ = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2n
    lam = np.fft.fft(circ).real
    if lam.min() < -1e-8 * lam.max():
        return None
    root = np.sqrt(np.clip(lam, 0.0, None))
    root.flags.writeable = False
    return root


def _cholesky_with_jitter(cov: np.ndarray, unit: float) -> np.ndarray:
    """Cholesky factor, retrying with diagonal jitter up to 1e-8 * unit."""
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(cov + jitter * unit * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            continue
    raise NumericError("covariance not factorizable")


@lru_cache(maxsize=4)
def _fgn_cholesky(hurst: float, sigma: float, dt: float, n: int) -> np.ndarray:
    gamma = _fgn_autocovariance(hurst, sigma, dt, n - 1)
    idx = np.arange(n)
    cov = gamma[np.abs(idx[:, None] - idx[None, :])]
    factor = _cholesky_with_jitter(cov, gamma[0])
    factor.flags.writeable = False
    return factor


@lru_cache(maxsize=4)
def _stationary_cholesky(hurst: float, sigma: float, theta: float, dt: float, n: int) -> np.ndarray:
    idx = np.arange(n)
    tau = dt * np.abs(idx[:, None] - idx[None, :])
    cov = 0.5 * sigma ** 2 * h_lamperti(hurst, theta * tau)
    factor = _cholesky_with_jitter(cov, sigma ** 2)
    factor.flags.writeable = False
    return factor


def simulate_fbm(params: FbmParams, n: int, dt: float = 1.0, seed: int = 0,
                 method: str = "auto") -> SimulatedPath:
    """Exact sample of fBm at times dt, 2*dt, ..., n*dt.

    method 'auto' uses circulant embedding and falls back to dense Cholesky
    if the embedding fails; 'circulant' and 'dense' force one route.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if method not in ("auto", "circulant", "dense"):
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)

    root = None
    if method in ("auto", "circulant"):
        root = _fgn_spectrum(params.hurst, params.sigma, dt, n)
        if root is None and method == "circulant":
            raise NumericError("covariance not factorizable")
    if root is not None:
        m2 = 2 * n
        draws = rng.standard_normal(m2)
        z = np.empty(m2, dtype=np.complex128)
        z[0] = draws[0]
        z[n] = draws[1]
        half = (draws[2 : n + 1] + 1j * draws[n + 1 : m2]) / np.sqrt(2.0)
        z[1:n] = half
        z[n + 1 :] = half[::-1].conj()
        increments = np.sqrt(m2) * np.fft.ifft(root * z).real[:n]
    else:
        factor = _fgn_cholesky(params.hurst, params.sigma, dt, n)
        increments = factor @ rng.standard_normal(n)
    return SimulatedPath("fbm", params, dt, seed, np.cumsum(increments))


def simulate_delampertized(params: DelampertizedParams, n: int, dt: float = 1.0,
                           seed: int = 0) -> SimulatedPath:
    """Exact sample of the stationary delampertized process on a uniform grid."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    factor = _stationary_cholesky(params.hurst, params.sigma, params.theta, dt, n)
    values = factor @ rng.standard_normal(n)
    return SimulatedPath("delampertized", params, dt, seed, values)


def simulate_pseudo_periodic(beta: float, tau: int, n: int, seed: int = 0) -> SimulatedPath:
    """Returns following R[i] = beta * R[i-tau] + sqrt(1-beta**2) * eps[i].

    The first tau values are drawn N(0,1), the stationary marginal of the
    recursion, so the whole series is stationary with unit variance.
    """
    params = PseudoPeriodicParams(beta, tau)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(n)
    scale = float(np.sqrt(1.0 - params.beta ** 2))
    values = _lagged_recursion(shocks, params.beta, params.tau, scale)
    return SimulatedPath("pseudo_periodic", params, 1.0, seed, values)


_RECURSION_BLOCK = 4096


def _lagged_recursion(shocks: np.ndarray, feedback: float, lag: int,
                      innovation_scale: float) -> np.ndarray:
    """out[i] = shocks[i] for i < lag, else feedback*out[i-lag] + innovation_scale*shocks[i]."""
    # sequential by construction; Python floats are the same IEEE doubles as
    # numpy's but far cheaper to index one at a time, so each block of
    # _RECURSION_BLOCK outputs is computed in a list (with the `lag` outputs
    # before it in front) and written back, keeping the extra memory O(block)
    out = np.array(shocks, dtype=np.float64)
    feedback, innovation_scale = float(feedback), float(innovation_scale)
    for start in range(lag, len(out), _RECURSION_BLOCK):
        stop = min(start + _RECURSION_BLOCK, len(out))
        buf = out[start - lag : stop].tolist()
        for i in range(lag, len(buf)):
            buf[i] = feedback * buf[i - lag] + innovation_scale * buf[i]
        out[start:stop] = buf[lag:]
    return out


def to_price_series(path: SimulatedPath, p0: float = 100.0) -> PriceSeries:
    """Turn a simulated path into prices.

    Gaussian models are log-prices: P[i] = p0 * exp(v[i] - v[0]).  The
    pseudo-periodic model holds returns: P[0] = p0 and P[i] = P[i-1] *
    (1 + R[i]); a return <= -1 would drive the price nonpositive and is
    rejected.
    """
    if not p0 > 0.0:
        raise ValueError("p0 must be positive")
    if path.model in ("fbm", "delampertized"):
        centered = path.values - path.values[0]
        with np.errstate(over="ignore"):
            prices = p0 * np.exp(centered)
        if not np.all(np.isfinite(prices)):
            raise ValueError("log-price range too wide to convert to prices;"
                             " lower sigma or p0")
    elif path.model == "pseudo_periodic":
        bad = np.nonzero(path.values <= -1.0)[0]
        if bad.size:
            raise ValueError(f"price would become non-positive at step {int(bad[0]) + 1}")
        prices = np.concatenate([[p0], p0 * np.cumprod(1.0 + path.values)])
    else:
        raise ValueError(f"unknown model {path.model!r}")
    return PriceSeries(tuple(range(len(prices))), prices, "close")
