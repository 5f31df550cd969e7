"""Price series and their signs: the PriceSeries and IndicatorSeries records,
load_prices, m-step returns, and the {0,1} sign indicators of those returns,
whose words information.py counts.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from ._common import _count, _freeze, _held, _real
from .csvio import PRICE_MODES, _BLOCK_ROWS, _parse_prices, _read_file, _utf8_text, write_prices


def _label_array(labels) -> np.ndarray:
    """Labels as one 1-D array: integer and `S` arrays and ranges as they are,
    any other label as its str() in UTF-8 `S` text."""
    if isinstance(labels, (np.ndarray, range)):
        arr = np.asarray(labels)
        if arr.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if arr.dtype.kind in "iuS":
            return arr
    # encoded a block at a time, so no second object per label is held
    rows = iter(labels)
    blocks = iter(lambda: [str(x).encode() for x in itertools.islice(rows, _BLOCK_ROWS)], [])
    return np.concatenate([np.empty(0, "S1")] + [np.array(b, dtype=bytes) for b in blocks])


def _timestamp_keys(labels: np.ndarray) -> np.ndarray:
    """Keys used to check ordering: an integer array as it is; text as int64
    when every label is an integer int64 holds, by Python's int() of its
    bytes, else as float64 when every label is a number by float(), else the
    UTF-8 text itself, whose byte order is code-point order.  Floats that
    strictly increase imply integers that do, so the exact int64 reading
    only ever accepts more."""
    if labels.dtype.kind in "iu":
        return labels
    for dtype in (np.int64, np.float64):
        with contextlib.suppress(ValueError, OverflowError):
            return labels.astype(dtype)
    return labels


@dataclass(frozen=True)
class PriceSeries:
    """Positive prices with strictly increasing opaque timestamp labels.

    `timestamps` is a read-only 1-D array: an integer array or a range as it
    is, text as UTF-8 bytes (`S` dtype); any other label is held as its str().
    """

    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        prices = np.asarray(_real(self.prices, "prices must be finite", -np.inf, np.inf))
        prices = _held(prices, self.prices)
        object.__setattr__(self, "prices", prices)
        timestamps = _held(_label_array(self.timestamps), self.timestamps)
        object.__setattr__(self, "timestamps", timestamps)
        if len(timestamps) != len(prices):
            raise ValueError("timestamps and prices differ in length")
        if len(prices) < 2:
            raise ValueError("price series needs at least 2 points")
        if np.any(prices <= 0.0):
            i = int(np.argmax(prices <= 0.0))
            raise ValueError(f"non-positive price at row {i + 1}")
        keys = _timestamp_keys(timestamps)
        unordered = ~(keys[:-1] < keys[1:])
        if unordered.any():
            raise ValueError(f"non-monotone timestamps at row {int(np.argmax(unordered)) + 2}")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class IndicatorSeries:
    """Binary indicators of positive returns at horizon m (1 if return > 0)."""

    m: int
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _count(self.m, "indicator horizon m must be a positive integer"))
        bits = np.asarray(self.bits)
        if bits.size == 0:
            raise ValueError("indicator series needs at least 1 value")
        if bits.dtype == np.bool_:
            bits = bits.view(np.uint8)
        if bits.dtype == np.uint8:
            bad = int(bits.max()) > 1
        else:  # checked as given: a cast to uint8 would wrap 256 to 0 and cut 0.5 to 0
            bad = bits.dtype.kind not in "iuf" or not np.all((bits == 0) | (bits == 1))
        if bad or bits.ndim != 1:
            raise ValueError("indicator values must be 0 or 1")
        bits = _held(np.ascontiguousarray(bits, dtype=np.uint8), self.bits)
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)


def load_prices(source: Union[str, os.PathLike, IO[str]], mode: str = "close") -> PriceSeries:
    """Read a price series from delimited text.

    Expects a comma-separated header naming columns case-insensitively; a
    timestamp/date column is required, plus 'close' (mode='close') or both
    'high' and 'low' (mode='midrange', price = (high+low)/2).  Lines whose
    first non-blank character is '#' and blank lines are skipped; other
    columns are ignored.  Rows must keep input order with strictly
    increasing timestamps and positive prices; errors name the data row,
    counting from 1 and leaving out the header, comment and blank lines.
    The arrays parsed from the path of a regular file are kept in the
    per-user cache directory, and a later load of the same bytes reads them
    back instead of parsing, with the same result (README, "Input format").
    """
    if mode not in PRICE_MODES:
        raise ValueError(f"unknown price mode {mode!r}")
    if hasattr(source, "read"):
        return PriceSeries(*_parse_prices(source, mode))
    with _utf8_text(open(source, "rb")) as fh:
        return _read_file(fh, mode, PriceSeries)


def _horizon(p: PriceSeries, m: int) -> int:
    m = _count(m, "return horizon m must be a positive integer")
    if m >= len(p.prices):
        raise ValueError("horizon exceeds series length")
    return m


def compute_returns(p: PriceSeries, m: int) -> np.ndarray:
    """Relative returns over m price steps, (P[i] - P[i-m]) / P[i-m], as a
    read-only float64 array; a return that overflows raises ValueError."""
    m = _horizon(p, m)
    base = p.prices[:-m]
    with np.errstate(over="ignore"):  # an overflowing return is reported below
        values = (p.prices[m:] - base) / base
    return _freeze(_real(values, "returns must be finite", -np.inf, np.inf))


def to_indicators(p: PriceSeries, m: int) -> IndicatorSeries:
    """1 where the m-step return is strictly positive, 0 otherwise (ties count
    as 0), read by one comparison of prices.

    For positive finite prices a != b, b - a is never 0 (gradual underflow)
    and |b - a|/a >= 2**-53, so the return (b - a)/a is positive exactly when
    b > a.  A return that overflows is no error here: its sign is still read.
    """
    m = _horizon(p, m)
    bits = np.greater(p.prices[m:], p.prices[:-m]).view(np.uint8)
    return IndicatorSeries(m, _freeze(bits))
