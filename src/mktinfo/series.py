"""Price ingestion, m-step returns, sign indicators, and binary word counts.

The pipeline is price series -> m-step relative returns -> {0,1} indicator
series -> distribution of length-L binary words whose entries are spaced m
indicator steps apart (overlapping windows, start indices stepping by 1).
"""

from __future__ import annotations

import csv
import itertools
import os
import re
from dataclasses import dataclass
from typing import IO, Iterable, Union

import numpy as np

PRICE_MODES = ("close", "midrange")

_TIMESTAMP_COLUMNS = ("timestamp", "date", "time", "datetime")

# Deepest supported lag count, so the longest word has MAX_L + 1 letters: its
# code fits in int64 with room to spare, and the significance bound's Gamma
# shape 2**(MAX_L - 1) still takes only tens of milliseconds.
MAX_L = 30


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _held(arr: np.ndarray, given) -> np.ndarray:
    """`arr`, made from the caller's `given`, read-only and out of the caller's
    reach: copied first when it may be the caller's own writable array, so a
    series neither freezes the caller's array nor changes with it.  Callers
    that pass a fresh array freeze it first and pay no copy."""
    if arr.flags.writeable and isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    return _freeze(arr)


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
    """Keys used to check ordering: float64 when every label parses by Python's
    float(), else the UTF-8 text itself, whose byte order is code-point order."""
    try:
        # numpy's cast reads ASCII text as float() does and rejects the rest
        return labels.astype(np.float64)
    except ValueError:
        pass
    keys = np.empty(len(labels))
    # decoded first: float() of a str also reads Unicode digits and spaces
    for start in range(0, len(labels), _BLOCK_ROWS):
        chunk = labels[start : start + _BLOCK_ROWS].tolist()
        try:
            keys[start : start + len(chunk)] = np.fromiter(
                map(float, map(bytes.decode, chunk)), np.float64, len(chunk))
        except ValueError:
            return labels
    return keys


@dataclass(frozen=True)
class PriceSeries:
    """Positive prices with strictly increasing opaque timestamp labels.

    `timestamps` is a read-only 1-D array: an integer array or a range as it
    is, text as UTF-8 bytes (`S` dtype); any other label is held as its str().
    """

    timestamps: np.ndarray
    prices: np.ndarray
    price_mode: str = "close"

    def __post_init__(self):
        prices = _held(np.asarray(self.prices, dtype=np.float64), self.prices)
        object.__setattr__(self, "prices", prices)
        timestamps = _held(_label_array(self.timestamps), self.timestamps)
        object.__setattr__(self, "timestamps", timestamps)
        if self.price_mode not in PRICE_MODES:
            raise ValueError(f"unknown price mode {self.price_mode!r}")
        if len(timestamps) != len(prices):
            raise ValueError("timestamps and prices differ in length")
        if len(prices) < 2:
            raise ValueError("price series needs at least 2 points")
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
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
class ReturnSeries:
    """Relative returns over a fixed horizon of m price steps."""

    m: int
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ValueError("return horizon m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))
        values = _held(np.asarray(self.values, dtype=np.float64), self.values)
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
        bits = _held(np.ascontiguousarray(self.bits, dtype=np.uint8), self.bits)
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


# Rows are read and written this many at a time: a parse error is then
# traced to its row by re-reading at most one block, and neither direction
# holds the text of more than one block.
_BLOCK_ROWS = 1 << 14

# A blank or comment line holds a '#' or starts with whitespace (an empty line
# starts with its line break), so a block whose text has neither is kept whole.
_SPACE_AFTER_NEWLINE = re.compile(r"\n\s")


def load_prices(source: Union[str, os.PathLike, IO[str]], mode: str = "close") -> PriceSeries:
    """Read a price series from delimited text.

    Expects a comma-separated header naming columns case-insensitively; a
    timestamp/date column is required, plus 'close' (mode='close') or both
    'high' and 'low' (mode='midrange', price = (high+low)/2).  Lines whose
    first non-blank character is '#' and blank lines are skipped; other
    columns are ignored.  Rows must keep input order with strictly
    increasing timestamps and positive prices; errors name the data row,
    counting from 1 and leaving out the header, comment and blank lines.
    """
    if mode not in PRICE_MODES:
        raise ValueError(f"unknown price mode {mode!r}")
    if hasattr(source, "read"):
        return _parse_prices(source, mode)
    with open(source, "r") as fh:
        return _parse_prices(fh, mode)


def _is_skipped(line: str) -> bool:
    stripped = line.lstrip()
    return not stripped or stripped.startswith("#")


def _data_lines(block: list, text: str) -> list:
    """The block, whose lines join to `text`, without its blank and comment lines."""
    if "#" not in text and _SPACE_AFTER_NEWLINE.search("\n" + text) is None:
        return block
    return [line for line in block if not _is_skipped(line)]


def _parse_prices(stream: Iterable[str], mode: str) -> PriceSeries:
    lines = iter(stream)
    header = next((line for line in lines if not _is_skipped(line)), None)
    if header is None:
        raise ValueError("empty input")
    columns = {name.strip().lower(): i for i, name in enumerate(next(csv.reader([header])))}

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

    fields = [(name, np.float64) for name in needed]
    usecols = (ts_col,) + tuple(columns[name] for name in needed)

    def read(data_lines: list, label) -> np.ndarray:
        return np.loadtxt(data_lines, dtype=np.dtype([("timestamp", label)] + fields),
                          delimiter=",", quotechar='"', comments=None, usecols=usecols,
                          ndmin=1)

    labels, prices = [], []
    n_rows = 0
    for block in iter(lambda: list(itertools.islice(lines, _BLOCK_ROWS)), []):
        text = "".join(block)
        block = _data_lines(block, text)
        if block:
            # numpy's C reader, prices straight to float64.  An ASCII block
            # reads its labels as bytes as wide as its longest line, so none is
            # cut short; loadtxt would encode other text as Latin-1, so a block
            # with any non-ASCII text reads its labels as str
            label = f"S{max(map(len, block))}" if text.isascii() else object
            table = _read_block(read, block, label, n_rows + 1)
            prices.append(_block_prices(table, n_rows + 1))
            labels.append(_block_labels(table["timestamp"]))
            n_rows += len(table)

    if n_rows < 2:
        raise ValueError("price series needs at least 2 rows")
    return PriceSeries(_freeze(np.concatenate(labels)), _freeze(np.concatenate(prices)), mode)


# the characters str.strip() removes that are ASCII; bytes.strip() keeps \x1c-\x1f
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())


def _block_labels(raw: np.ndarray) -> np.ndarray:
    """A block's labels stripped of surrounding whitespace, as UTF-8 `S` text
    no wider than its widest label."""
    if raw.dtype.kind == "S":
        stripped = np.strings.strip(raw, _ASCII_SPACE)
        return stripped.astype(f"S{max(1, int(np.strings.str_len(stripped).max()))}")
    return np.array([label.strip().encode() for label in raw.tolist()], dtype=bytes)


def _read_block(read, block: list, label, first_row: int) -> np.ndarray:
    """Parse one block of data lines; on failure name its first bad row."""
    try:
        return read(block, label)
    except ValueError as exc:
        error = exc
    # error path only: re-read the block line by line, checking each row in
    # order, so that the first bad row is named whatever is wrong with it
    for i, line in enumerate(block):
        try:
            row = read([line], label)
        except ValueError:
            raise ValueError(f"unparseable price at row {first_row + i}") from None
        _block_prices(row, first_row + i)
    raise error  # only a quoted field that spans lines gets here


def _block_prices(table: np.ndarray, first_row: int) -> np.ndarray:
    """The rows' prices; each price field must be positive, the price finite."""
    fields = [table[name] for name in table.dtype.names[1:]]
    with np.errstate(over="ignore"):  # an overflowing midpoint is reported below
        price = fields[0] if len(fields) == 1 else 0.5 * (fields[0] + fields[1])
    non_positive = np.logical_or.reduce([f <= 0.0 for f in fields])
    bad = non_positive | ~np.isfinite(price)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "non-positive" if non_positive[i] else "non-finite"
        raise ValueError(f"{kind} price at row {first_row + i}")
    return price


def write_prices(p: PriceSeries, stream: IO[str]) -> None:
    """Write a `timestamp,close` header and one row per price to `stream`.

    Prices are written by repr, the shortest text that parses back to the
    same float64, so load_prices returns the same prices and labels (labels
    are written as they are, unquoted).
    """
    stream.write("timestamp,close\n")
    for start in range(0, len(p), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        labels = p.timestamps[start:stop].tolist()
        if p.timestamps.dtype.kind == "S":
            labels = [label.decode() for label in labels]
        stream.write("".join([f"{t},{v!r}\n" for t, v in
                              zip(labels, p.prices[start:stop].tolist())]))


def _horizon(p: PriceSeries, m: int) -> int:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("return horizon m must be a positive integer")
    if m >= len(p.prices):
        raise ValueError("horizon exceeds series length")
    return int(m)


def compute_returns(p: PriceSeries, m: int) -> ReturnSeries:
    """Relative returns over m price steps: (P[i] - P[i-m]) / P[i-m]."""
    m = _horizon(p, m)
    base = p.prices[:-m]
    with np.errstate(over="ignore"):  # an overflowing return is reported by ReturnSeries
        values = (p.prices[m:] - base) / base
    return ReturnSeries(m, _freeze(values))


def to_indicators(r: ReturnSeries) -> IndicatorSeries:
    """1 where the return is strictly positive, 0 otherwise (ties count as 0)."""
    return IndicatorSeries(r.m, _freeze((r.values > 0.0).astype(np.uint8)))


def _sign_indicators(p: PriceSeries, m: int) -> IndicatorSeries:
    """to_indicators(compute_returns(p, m)) by one comparison of prices.

    For positive finite prices a != b, b - a is never 0 (gradual underflow)
    and |b - a|/a >= 2**-53, so the return (b - a)/a is positive exactly when
    b > a.  A return that overflows is no error here: its sign is still read.
    """
    m = _horizon(p, m)
    bits = np.greater(p.prices[m:], p.prices[:-m]).view(np.uint8)
    return IndicatorSeries(m, _freeze(bits))


def _is_integer(x) -> bool:
    """A Python or numpy integer; a bool is not taken for a number."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _word_windows(j: IndicatorSeries, word_length, n_windows=None) -> tuple[int, int]:
    """(word_length, n_windows) as ints, checked against the series: the
    length-L words at horizon j.m over the first n_windows starts, the
    maximal number of starts when n_windows is None."""
    if not _is_integer(word_length) or word_length < 1:
        raise ValueError("word length must be a positive integer")
    if word_length > MAX_L + 1:
        raise ValueError(f"word length {word_length} exceeds the limit of {MAX_L + 1}")
    max_windows = len(j.bits) - (word_length - 1) * j.m
    if n_windows is None:
        n_windows = max_windows
    elif not _is_integer(n_windows):
        raise ValueError("number of windows must be an integer")
    if not 1 <= n_windows <= max_windows:
        raise ValueError(f"series too short for (L={word_length}, m={j.m})")
    return int(word_length), int(n_windows)


def extract_words(j: IndicatorSeries, word_length: int, n_windows: int | None = None) -> WordDistribution:
    """Distribution of length-L words with entries spaced j.m apart.

    Windows overlap: start indices step by 1.  The maximal number of windows
    is len(j) - (L-1)*j.m; pass n_windows to restrict to the first n_windows
    start indices (used to align word distributions of different lengths on a
    common index range).
    """
    word_length, n_windows = _word_windows(j, word_length, n_windows)
    words, counts = _count_codes(_word_codes(j.bits, word_length, j.m, n_windows), word_length)
    if words is None:
        words = np.flatnonzero(counts)
        counts = counts[words]
    mapping = {
        format(code, f"0{word_length}b"): c
        for code, c in zip(words.tolist(), counts.tolist())
    }
    return WordDistribution(word_length, j.m, mapping, n_windows)


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
    if order < 1:
        return
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
