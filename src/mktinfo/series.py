"""Price ingestion, m-step returns, sign indicators, and binary word counts.

The pipeline is price series -> m-step relative returns -> {0,1} indicator
series -> distribution of length-L binary words whose entries are spaced m
indicator steps apart (overlapping windows, start indices stepping by 1).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import IO, Iterable, Sequence, Union

import numpy as np

from . import backend

PRICE_MODES = ("close", "midrange")

_TIMESTAMP_COLUMNS = ("timestamp", "date", "time", "datetime")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _timestamp_keys(labels: Sequence) -> list:
    """Keys used to check ordering: numeric when every label parses, else text."""
    try:
        return [float(x) for x in labels]
    except (TypeError, ValueError):
        return [str(x) for x in labels]


@dataclass(frozen=True)
class PriceSeries:
    """Positive prices with strictly increasing opaque timestamp labels."""

    timestamps: tuple
    prices: np.ndarray
    price_mode: str = "close"

    def __post_init__(self):
        prices = _freeze(np.asarray(self.prices, dtype=np.float64))
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if self.price_mode not in PRICE_MODES:
            raise ValueError(f"unknown price mode {self.price_mode!r}")
        if len(self.timestamps) != len(prices):
            raise ValueError("timestamps and prices differ in length")
        if len(prices) < 2:
            raise ValueError("price series needs at least 2 points")
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
        if np.any(prices <= 0.0):
            i = int(np.argmax(prices <= 0.0))
            raise ValueError(f"non-positive price at row {i + 1}")
        keys = _timestamp_keys(self.timestamps)
        for i in range(1, len(keys)):
            if not keys[i - 1] < keys[i]:
                raise ValueError(f"non-monotone timestamps at row {i + 1}")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """Relative returns over a fixed horizon of m price steps."""

    m: int
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError("return horizon m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        values = _freeze(np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise ValueError("returns must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IndicatorSeries:
    """Binary indicators of positive returns at horizon m (1 if return > 0)."""

    m: int
    bits: np.ndarray

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError("indicator horizon m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        bits = _freeze(np.ascontiguousarray(self.bits, dtype=np.uint8))
        object.__setattr__(self, "bits", bits)
        if bits.size and int(bits.max()) > 1:
            raise ValueError("indicator values must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class WordDistribution:
    """Counts of length-L binary words (keys are '0'/'1' strings, earliest first)."""

    word_length: int
    stride: int
    counts: dict
    total: int

    def __post_init__(self):
        if self.word_length < 1 or self.stride < 1:
            raise ValueError("word length and stride must be positive")
        if self.total < 1:
            raise ValueError("no observations")
        for word, c in self.counts.items():
            if len(word) != self.word_length or set(word) - {"0", "1"}:
                raise ValueError(f"malformed word key {word!r}")
            if c < 0:
                raise ValueError("negative count")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")
        if len(self.counts) > 2 ** self.word_length:
            raise ValueError("too many distinct words")


def load_prices(source: Union[str, os.PathLike, IO[str]], mode: str = "close") -> PriceSeries:
    """Read a price series from delimited text.

    Expects a comma-separated header naming columns case-insensitively; a
    timestamp/date column is required, plus 'close' (mode='close') or both
    'high' and 'low' (mode='midrange', price = (high+low)/2).  Lines starting
    with '#' and blank lines are skipped.  Rows must keep input order with
    strictly increasing timestamps and positive prices.
    """
    if mode not in PRICE_MODES:
        raise ValueError(f"unknown price mode {mode!r}")
    if hasattr(source, "read"):
        return _parse_prices(source, mode)
    with open(source, "r", newline="") as fh:
        return _parse_prices(fh, mode)


def _parse_prices(stream: Iterable[str], mode: str) -> PriceSeries:
    rows = csv.reader(line for line in stream
                      if line.strip() and not line.lstrip().startswith("#"))
    try:
        header = next(rows)
    except StopIteration:
        raise ValueError("empty input") from None
    columns = {name.strip().lower(): i for i, name in enumerate(header)}

    ts_col = next((columns[c] for c in _TIMESTAMP_COLUMNS if c in columns), None)
    if ts_col is None:
        raise ValueError("missing timestamp column")
    if mode == "close":
        needed = ("close",)
    else:
        needed = ("high", "low")
    for name in needed:
        if name not in columns:
            raise ValueError(f"missing required column {name!r} for mode {mode!r}")
    price_cols = [columns[name] for name in needed]

    timestamps: list = []
    prices: list = []
    for i, row in enumerate(rows, start=1):
        try:
            fields = [float(row[c]) for c in price_cols]
        except (IndexError, ValueError):
            raise ValueError(f"unparseable price at row {i}") from None
        if any(f <= 0.0 for f in fields):
            raise ValueError(f"non-positive price at row {i}")
        price = fields[0] if mode == "close" else 0.5 * (fields[0] + fields[1])
        if not math.isfinite(price):
            raise ValueError(f"non-finite price at row {i}")
        timestamps.append(row[ts_col].strip())
        prices.append(price)

    if len(prices) < 2:
        raise ValueError("price series needs at least 2 rows")
    keys = _timestamp_keys(timestamps)
    for i in range(1, len(keys)):
        if not keys[i - 1] < keys[i]:
            raise ValueError(f"non-monotone timestamps at row {i + 1}")
    return PriceSeries(tuple(timestamps), np.array(prices), mode)


def compute_returns(p: PriceSeries, m: int) -> ReturnSeries:
    """Relative returns over m price steps: (P[i] - P[i-m]) / P[i-m]."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("return horizon m must be a positive integer")
    if m >= len(p.prices):
        raise ValueError("horizon exceeds series length")
    base = p.prices[:-m]
    values = (p.prices[m:] - base) / base
    return ReturnSeries(int(m), values)


def to_indicators(r: ReturnSeries) -> IndicatorSeries:
    """1 where the return is strictly positive, 0 otherwise (ties count as 0)."""
    return IndicatorSeries(r.m, (r.values > 0.0).astype(np.uint8))


def extract_words(j: IndicatorSeries, word_length: int, n_windows: int | None = None) -> WordDistribution:
    """Distribution of length-L words with entries spaced j.m apart.

    Windows overlap: start indices step by 1.  The maximal number of windows
    is len(j) - (L-1)*j.m; pass n_windows to restrict to the first n_windows
    start indices (used to align word distributions of different lengths on a
    common index range).
    """
    if word_length < 1:
        raise ValueError("word length must be a positive integer")
    counts, n_windows = _word_count_array(j, word_length, n_windows)
    mapping = {
        format(code, f"0{word_length}b"): int(c)
        for code, c in enumerate(counts)
        if c > 0
    }
    return WordDistribution(word_length, j.m, mapping, int(n_windows))


def _word_count_array(j: IndicatorSeries, word_length: int, n_windows: int | None = None):
    """Integer word-code counts (length 2**L) over the first n_windows starts."""
    max_windows = len(j.bits) - (word_length - 1) * j.m
    if max_windows < 1:
        raise ValueError(f"series too short for (L={word_length}, m={j.m})")
    if n_windows is None:
        n_windows = max_windows
    if not 1 <= n_windows <= max_windows:
        raise ValueError(f"series too short for (L={word_length}, m={j.m})")
    return backend.word_counts(j.bits, word_length, j.m, int(n_windows)), int(n_windows)
