"""Exact Gaussian simulators and a pseudo-periodic toy model, plus the map
from simulated paths to price series.

Both Gaussian models are sampled by circulant embedding (Wood & Chan 1994)
of a stationary autocovariance: fBm through its increments, the
delampertized process directly.  Lags 0..M embed in a circulant of length
2M whose eigenvalues one real FFT gives; M starts at n and doubles until
they are nonnegative, which makes the sample exact in distribution.  All
randomness comes from numpy's default PCG64 generator seeded explicitly, so
identical inputs give bit-identical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .series import PriceSeries
from .theory import DelampertizedParams, FbmParams, delampertized_autocovariance


class NumericError(RuntimeError):
    """A covariance has no usable circulant embedding."""


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


def _autocovariance(params: FbmParams | DelampertizedParams, dt: float,
                    n_lags: int) -> np.ndarray:
    """Autocovariance at lags 0..n_lags of the stationary sequence a simulator
    draws: fBm increments, or the delampertized process itself."""
    k = np.arange(n_lags + 1, dtype=np.float64)
    if isinstance(params, DelampertizedParams):
        return delampertized_autocovariance(dt * k, params)
    h2 = 2.0 * params.hurst
    scale = 0.5 * params.sigma ** 2 * dt ** h2
    return scale * (np.abs(k + 1) ** h2 - 2.0 * k ** h2 + np.abs(k - 1) ** h2)


# the embedding may grow to max(4n, _MIN_EMBEDDING_CAP) lags; the padding a
# covariance needs grows with its correlation length, not with n
_MIN_EMBEDDING_CAP = 2 ** 22


@lru_cache(maxsize=8)
def _circulant_root(params: FbmParams | DelampertizedParams, dt: float,
                    n: int) -> np.ndarray:
    """Square roots of the eigenvalues (rfft bins 0..M) of the smallest
    nonnegative-definite circulant embedding, of length 2M with M = n * 2**k,
    of the autocovariance at lags 0..M."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    cap = max(4 * n, _MIN_EMBEDDING_CAP)
    m = n
    while True:
        gamma = _autocovariance(params, dt, m)
        lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        if not np.all(np.isfinite(lam)):
            raise NumericError("autocovariance is not finite")
        if lam.min() >= -1e-8 * lam.max():
            break
        m *= 2
        if m > cap:
            raise NumericError(f"no nonnegative circulant embedding within {cap} lags")
    root = np.sqrt(np.clip(lam, 0.0, None))
    root.flags.writeable = False
    return root


def _circulant_sample(root: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """First n values of one Gaussian draw from the embedding whose eigenvalue
    roots are `root`: 2M normals fill the DC bin, the Nyquist bin, then the
    real and imaginary parts of bins 1..M-1 of the half spectrum irfft takes."""
    m = len(root) - 1
    draws = rng.standard_normal(2 * m)
    z = np.empty(m + 1, dtype=np.complex128)
    z[0] = draws[0]
    z[m] = draws[1]
    # bins 1..M-1 hold (a + ib)/sqrt(2), written straight into z's real and
    # imaginary parts; numpy divides a complex by a real d as a*(1/d) and
    # b*(1/d), so these are its bits for the complex division too
    half = 1.0 / np.sqrt(2.0)
    np.multiply(draws[2 : m + 1], half, out=z.real[1:m])
    np.multiply(draws[m + 1 :], half, out=z.imag[1:m])
    del draws
    z *= root
    x = np.fft.irfft(z, 2 * m)
    del z
    # a new array of n values, so that no caller keeps all 2M alive
    return np.sqrt(2 * m) * x[:n]


def simulate_fbm(params: FbmParams, n: int, dt: float = 1.0, seed: int = 0) -> SimulatedPath:
    """Exact sample of fBm at times dt, 2*dt, ..., n*dt."""
    root = _circulant_root(params, dt, n)
    increments = _circulant_sample(root, n, np.random.default_rng(seed))
    return SimulatedPath("fbm", params, dt, seed, np.cumsum(increments))


def simulate_delampertized(params: DelampertizedParams, n: int, dt: float = 1.0,
                           seed: int = 0) -> SimulatedPath:
    """Exact sample of the stationary delampertized process on a uniform grid."""
    root = _circulant_root(params, dt, n)
    values = _circulant_sample(root, n, np.random.default_rng(seed))
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
    return PriceSeries(np.arange(len(prices)), prices, "close")
