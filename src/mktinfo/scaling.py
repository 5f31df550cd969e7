"""Second-order structure function of log-prices and Hurst estimation from
the slope of its log-log curve.

A self-similar signal has M2(delta) = mean (x[i+delta] - x[i])**2
proportional to delta**(2H), so the OLS slope of log M2 against log delta
over a fit range of small scales estimates 2H.  Departures from linearity
(read off the second differences of the curve) flag non-scaling dynamics.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._common import _count, _csv_table, _freeze, _held, _json_text, _real

DEFAULT_MAX_SCALE = 20
DEFAULT_FIT_RANGE = (1, 5)
_SCALES = "scales must be positive integers"
_FIT_RANGE = "fit_range must be two positive integers"


def _scale_array(scales) -> np.ndarray:
    """Scales, each a Python or numpy integer >= 1, as a 1-D int64 array; a
    range or an integer array is checked whole, other sequences one by one."""
    if isinstance(scales, range):
        scales = np.arange(scales.start, scales.stop, scales.step)
    elif not isinstance(scales, np.ndarray):
        scales = [_count(s, _SCALES) for s in scales]  # numpy would take a bool as 1
    arr = np.asarray(scales)
    if arr.ndim != 1 or arr.size and (arr.dtype.kind not in "iu" or arr.min() < 1):
        raise ValueError(_SCALES)
    return arr.astype(np.int64, copy=False)


def _fit_range(fit_range) -> tuple[int, int]:
    """`fit_range` as (lo, hi), two Python ints, from two counts >= 1."""
    try:
        lo, hi = fit_range
    except (TypeError, ValueError):
        raise ValueError(_FIT_RANGE) from None
    return _count(lo, _FIT_RANGE), _count(hi, _FIT_RANGE)


def _split_scales(n_points: int, scales: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The requested scales, deduplicated and sorted, split into those shorter
    than the series (usable) and the rest (dropped)."""
    req = np.sort(_scale_array(scales))
    if not req.size:
        raise ValueError(_SCALES)
    req = req[np.diff(req, prepend=0) > 0]  # deduplicated; np.unique hashes, 50x slower at 2**20
    return req[req < n_points], req[req >= n_points]


def structure_function(logprices: np.ndarray, scales: Sequence[int]):
    """Mean squared increment at each usable scale (overlapping windows).

    Scales of at least the series length carry no increments; such scales
    are dropped with a warning.  Returns (usable scales, moments).
    """
    x = np.asarray(_real(logprices, "log-prices must be finite", -math.inf, math.inf))
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D series with at least 2 points")
    usable, dropped = _split_scales(x.size, scales)
    if dropped.size:
        warnings.warn(f"scales beyond series length dropped: {dropped.tolist()}"
                      f" (usable scales: 1..{x.size - 1})")
    moments = np.array([np.mean((x[s:] - x[:-s]) ** 2) for s in usable])
    return usable, moments


def fit_loglog(scales: np.ndarray, moments: np.ndarray, fit_range: tuple):
    """OLS fit of log2 moment against log2 scale inside fit_range (inclusive)."""
    scales = _scale_array(scales)
    moments = np.asarray(_real(moments, "moments must be finite and non-negative",
                               0.0, sys.float_info.max, closed=True))
    if moments.shape != scales.shape:
        raise ValueError("scales and moments differ in length")
    lo, hi = _fit_range(fit_range)
    mask = (scales >= lo) & (scales <= hi)
    if int(mask.sum()) < 2:
        raise ValueError(f"fewer than 2 scales in fit range {lo}..{hi};"
                         f" usable scales: {scales.tolist()}")
    # a zero moment has no logarithm
    _real(moments[mask], "degenerate moment in fit range", 0.0, math.inf)
    slope, intercept = np.polyfit(np.log2(scales[mask]), np.log2(moments[mask]), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class LogLogCurve:
    """Structure-function curve in log2-log2 coordinates with its OLS fit.

    `dropped_scales` are the requested scales that were not shorter than the
    series, so carry no increments.
    """

    scales: np.ndarray
    moments: np.ndarray
    fit_range: tuple
    slope: float = field(init=False)
    intercept: float = field(init=False)
    hurst_estimate: float = field(init=False)
    dropped_scales: tuple = ()

    def __post_init__(self):
        s = _held(_scale_array(self.scales), self.scales)
        m = np.asarray(_real(self.moments, "moments must be finite and non-negative",
                             0.0, sys.float_info.max, closed=True))
        m = _held(m, self.moments)
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "moments", m)
        object.__setattr__(self, "fit_range", _fit_range(self.fit_range))
        slope, intercept = fit_loglog(s, m, self.fit_range)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "hurst_estimate", slope / 2.0)
        dropped = tuple(_scale_array(self.dropped_scales).tolist())
        object.__setattr__(self, "dropped_scales", dropped)

    @property
    def log2_scales(self) -> np.ndarray:
        return np.log2(self.scales.astype(np.float64))

    @property
    def log2_moments(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log2(self.moments)

    @property
    def in_fit_range(self) -> np.ndarray:
        lo, hi = self.fit_range
        return (self.scales >= lo) & (self.scales <= hi)

    def second_differences(self) -> np.ndarray:
        """Changes of the local log-log slope between consecutive scale pairs.

        Zero for an exact power law; large values indicate curvature or
        oscillation in the scaling plot.
        """
        return np.diff(np.diff(self.log2_moments) / np.diff(self.log2_scales))

    def to_csv(self) -> str:
        header = {"slope": self.slope, "hurst_estimate": self.hurst_estimate,
                  "intercept": self.intercept, "fit_range": "..".join(map(str, self.fit_range)),
                  "dropped_scales": f"[{','.join(map(str, self.dropped_scales))}]"}
        return _csv_table(header, {"log2_scale": self.log2_scales, "log2_moment": self.log2_moments,
                                   "in_fit_range": self.in_fit_range})

    def to_json(self) -> str:
        return _json_text({"scales": self.scales, "log2_scale": self.log2_scales,
                           "log2_moment": self.log2_moments, "in_fit_range": self.in_fit_range,
                           "fit_range": self.fit_range, "slope": self.slope,
                           "intercept": self.intercept, "hurst_estimate": self.hurst_estimate,
                           "second_differences": self.second_differences(),
                           "dropped_scales": self.dropped_scales})


def estimate_hurst(logprices: np.ndarray, scales: Sequence[int] | None = None,
                   fit_range: tuple | None = None) -> LogLogCurve:
    """Structure-function Hurst estimate: H = slope / 2 of the log-log fit.

    Defaults: scales 1..min(20, length-1), fit over scales 1..5.  The input
    is a log-price (or any level) series, not returns.  Requested scales not
    shorter than the series are left out without a warning and listed in the
    curve's `dropped_scales`.
    """
    x = np.asarray(_real(logprices, "log-prices must be finite", -math.inf, math.inf))
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-D series with at least 2 points")
    if scales is None:
        scales = range(1, min(DEFAULT_MAX_SCALE, x.size - 1) + 1)
    fit_range = DEFAULT_FIT_RANGE if fit_range is None else fit_range
    usable, dropped = _split_scales(x.size, scales)
    if not usable.size:
        raise ValueError(f"no usable scales requested; usable scales: 1..{x.size - 1}")
    used, moments = structure_function(x, usable)
    return LogLogCurve(_freeze(used), _freeze(moments), fit_range, dropped)
