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

import numpy as np

from ._common import _count, _freeze, _held, _real
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
        _real(self.beta, "beta must lie in (-1, 1)", -1.0, 1.0)
        object.__setattr__(self, "tau", _count(self.tau, "tau must be a positive integer"))


@dataclass(frozen=True)
class SimulatedPath:
    """A simulated series of the model whose parameters are `params`:
    log-prices for the Gaussian models, returns for the pseudo-periodic one."""

    params: FbmParams | DelampertizedParams | PseudoPeriodicParams
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(_real(self.values, "values must be finite", -math.inf, math.inf))
        values = _held(values, self.values)
        object.__setattr__(self, "values", values)


def _autocovariance(params: FbmParams | DelampertizedParams, dt: float,
                    n_lags: int) -> np.ndarray:
    """Autocovariance at lags 0..n_lags of the stationary sequence a simulator
    draws: fBm increments, or the delampertized process itself."""
    if isinstance(params, DelampertizedParams):
        return delampertized_autocovariance(dt * np.arange(n_lags + 1, dtype=np.float64), params)
    h2 = 2.0 * params.hurst
    # in float64, so a huge sigma or dt gives inf, not a Python OverflowError
    scale = 0.5 * np.float64(params.sigma) ** 2 * np.float64(dt) ** h2
    # scale * ((|k+1|**2H - 2 k**2H) + |k-1|**2H), in that order, from one
    # array of powers p[j] = j**2H: |k+1| = k+1, and |k-1| is k-1 but 1 at k = 0
    powers = np.arange(n_lags + 2, dtype=np.float64)
    powers **= h2
    gamma = np.multiply(powers[:-1], 2.0)
    np.subtract(powers[1:], gamma, out=gamma)
    gamma[1:] += powers[:-2]
    gamma[0] += powers[1]
    gamma *= scale
    return gamma


# the embedding may grow to max(4n, _MIN_EMBEDDING_CAP) lags; the padding a
# covariance needs grows with its correlation length, not with n
_MIN_EMBEDDING_CAP = 2 ** 22


@lru_cache(maxsize=8)
def _circulant_root(params: FbmParams | DelampertizedParams, dt: float,
                    n: int) -> np.ndarray:
    """Square roots of the eigenvalues (rfft bins 0..M) of the smallest
    nonnegative-definite circulant embedding, of length 2M with M = n * 2**k,
    of the autocovariance at lags 0..M."""
    cap = max(4 * n, _MIN_EMBEDDING_CAP)
    m = n
    while True:
        # an overflow is reported just below, as a covariance that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = _autocovariance(params, dt, m)
            # lags 0..M and their mirror M-1..1, the first row of the circulant
            row = np.empty(2 * m)
            row[: m + 1] = gamma
            row[m + 1 :] = gamma[-2:0:-1]
            del gamma
            spectrum = np.fft.rfft(row)
            del row
            # a copy, so that the root does not keep the complex spectrum alive
            lam = spectrum.real.copy()
            del spectrum
        if not np.all(np.isfinite(lam)):
            raise NumericError("autocovariance is not finite")
        if lam.min() >= -1e-8 * lam.max():
            break
        m *= 2
        if m > cap:
            raise NumericError(f"no nonnegative circulant embedding within {cap} lags "
                               f"(last tried: M = {m // 2}, circulant length {m})")
    np.clip(lam, 0.0, None, out=lam)
    return _freeze(np.sqrt(lam, out=lam))


def _circulant_sample(root: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """First n values of one Gaussian draw from the embedding whose eigenvalue
    roots are `root`: 2M normals fill the DC bin, the Nyquist bin, then the
    real and imaginary parts of bins 1..M-1 of the half spectrum irfft takes."""
    m = len(root) - 1
    normals = rng.standard_normal(2 * m)
    z = np.empty(m + 1, dtype=np.complex128)
    z[0], z[m] = normals[:2]
    # bins 1..M-1 hold (a + ib)/sqrt(2), written straight into z's real and
    # imaginary parts; numpy divides a complex by a real d as a*(1/d) and
    # b*(1/d), so these are its bits for the complex division too
    half = 1.0 / np.sqrt(2.0)
    np.multiply(normals[2 : m + 1], half, out=z.real[1:m])
    np.multiply(normals[m + 1 :], half, out=z.imag[1:m])
    del normals
    z *= root
    x = np.fft.irfft(z, 2 * m)
    del z
    # a new array of n values, so that no caller keeps all 2M alive
    return np.sqrt(2 * m) * x[:n]


def _gaussian_values(params: FbmParams | DelampertizedParams, n: int, dt: float,
                     seed: int) -> np.ndarray:
    """First n values of one exact draw of the sequence `_autocovariance`
    describes; each input is checked before the root is built."""
    n = _count(n, "n must be an integer >= 2", minimum=2)
    seed = _count(seed, "seed must be a non-negative integer", minimum=0)
    root = _circulant_root(params, _real(dt, "dt must be positive and finite", 0.0, math.inf), n)
    return _circulant_sample(root, n, np.random.default_rng(seed))


def simulate_fbm(params: FbmParams, n: int, dt: float = 1.0, seed: int = 0) -> SimulatedPath:
    """Exact sample of fBm at times dt, 2*dt, ..., n*dt."""
    values = _gaussian_values(params, n, dt, seed)
    np.cumsum(values, out=values)  # the increments, summed in place
    return SimulatedPath(params, _freeze(values))


def simulate_delampertized(params: DelampertizedParams, n: int, dt: float = 1.0,
                           seed: int = 0) -> SimulatedPath:
    """Exact sample of the stationary delampertized process on a uniform grid."""
    return SimulatedPath(params, _freeze(_gaussian_values(params, n, dt, seed)))


def simulate_pseudo_periodic(beta: float, tau: int, n: int, seed: int = 0) -> SimulatedPath:
    """Returns following R[i] = beta * R[i-tau] + sqrt(1-beta**2) * eps[i].

    The first tau values are drawn N(0,1), the stationary marginal of the
    recursion, so the whole series is stationary with unit variance.
    """
    params = PseudoPeriodicParams(beta, tau)
    n = _count(n, "n must be an integer >= 1")
    seed = _count(seed, "seed must be a non-negative integer", minimum=0)
    shocks = np.random.default_rng(seed).standard_normal(n)
    scale = float(np.sqrt(1.0 - params.beta ** 2))
    values = _lagged_recursion(shocks, params.beta, params.tau, scale)
    return SimulatedPath(params, _freeze(values))


def _lagged_recursion(shocks: np.ndarray, feedback: float, lag: int,
                      innovation_scale: float) -> np.ndarray:
    """out[i] = shocks[i] for i < lag, else feedback*out[i-lag] + innovation_scale*shocks[i],
    in place in the float64 array `shocks`, by a doubling (Kogge-Stone) scan:
    the pass for step = lag, 2*lag, 4*lag, ... adds feedback**(step/lag) *
    out[i-step] to each out[i].  Each value differs from the sequential loop's
    by at most about 8*eps*log2(n) times the recursion run on |shocks| with
    |feedback|; each coefficient is one `**`, as squaring would compound errors."""
    n = len(shocks)
    shocks[lag:] *= innovation_scale
    step = lag
    while step < n and (coefficient := feedback ** (step // lag)) != 0.0:
        shocks[step:] += coefficient * shocks[: n - step]
        step *= 2
    return shocks


def to_price_series(path: SimulatedPath, p0: float = 100.0) -> PriceSeries:
    """Turn a simulated path into prices.

    Gaussian models are log-prices: P[i] = p0 * exp(v[i] - v[0]).  The
    pseudo-periodic model holds returns: P[0] = p0 and P[i] = P[i-1] *
    (1 + R[i]); a return <= -1 would drive the price nonpositive and is
    rejected, as is a price that overflows or underflows to 0.
    """
    p0 = _real(p0, "p0 must be positive and finite", 0.0, math.inf)
    if isinstance(path.params, PseudoPeriodicParams):
        bad = np.nonzero(path.values <= -1.0)[0]
        if bad.size:
            raise ValueError(f"price would become non-positive at step {int(bad[0]) + 1}")
        kind = "compounded price"
        with np.errstate(over="ignore"):
            prices = np.concatenate(([p0], p0 * np.cumprod(1.0 + path.values)))
    else:
        kind = "log-price"
        with np.errstate(over="ignore"):
            prices = p0 * np.exp(path.values - path.values[0])
    if not (np.all(np.isfinite(prices)) and prices.min() > 0.0):
        raise ValueError(f"{kind} range too wide to convert to prices; lower sigma or p0")
    return PriceSeries(_freeze(np.arange(len(prices))), _freeze(prices))
