"""Price ingestion, m-step returns, sign indicators, and binary word counts.

The pipeline is price series -> m-step relative returns -> {0,1} indicator
series -> distribution of length-L binary words whose entries are spaced m
indicator steps apart (overlapping windows, start indices stepping by 1).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Union

import numpy as np

PRICE_MODES = ("close", "midrange")

_TIMESTAMP_COLUMNS = ("timestamp", "date", "time", "datetime")

# Deepest supported lag count, so the longest word has MAX_L + 1 letters: its
# code fits in int64 with room to spare, and the significance bound's Gamma
# shape 2**(MAX_L - 1) still takes only tens of milliseconds.
MAX_L = 30


def _count(value, message: str, minimum: int = 1) -> int:
    """`value` as an int when it is a Python or numpy integer of at least
    `minimum`; anything else (a bool, any float, a string, a smaller value)
    raises ValueError(message)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(message)
    return int(value)


def _real(value, message: str, low: float, high: float, closed: bool = False):
    """`value`, a real number or an array of them, as a float (an array as a
    float64 array) when every entry lies in (low, high), or in [low, high]
    when `closed`; a bool, a string, NaN (which min and max carry through)
    or an entry outside raises ValueError(message), as does a bool entry of a
    list or tuple, which numpy would read as 0 or 1."""
    if isinstance(value, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in value):
        raise ValueError(message)
    if type(value) is int:  # np.asarray holds an int past 2**64 as an object
        value = float(value) if abs(value) <= sys.float_info.max else np.sign(value) * np.inf
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(message)
    arr = arr.astype(np.float64, copy=False)
    lo, hi = (arr.min(initial=np.inf), arr.max(initial=-np.inf)) if arr.ndim else (float(arr),) * 2
    if not (low <= lo and hi <= high if closed else low < lo and hi < high):
        raise ValueError(message)
    return lo if arr.ndim == 0 else arr


def _json_value(value):
    """A numpy scalar as its Python value, so a non-finite float raises as a
    Python one does; an array as (nested) lists, a float one with None (null)
    for NaN and the infinities."""
    if isinstance(value, np.generic):
        return value.item()
    if not isinstance(value, np.ndarray):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if value.dtype.kind == "f":
        value = np.where(np.isfinite(value), value, None)
    return value.tolist()


def _json_text(payload) -> str:
    """An output JSON document: 2-space indent, keys in the payload's order,
    numpy arrays and scalars as by _json_value, and a closing line break; a
    NaN or infinity outside an array raises ValueError: JSON has no token for it."""
    return json.dumps(payload, indent=2, allow_nan=False, default=_json_value) + "\n"


def _csv_header(fields: dict) -> str:
    """The `# k=v k=v` comment line that opens every output CSV, each value by str()."""
    return "# " + " ".join(f"{k}={v!s}" for k, v in fields.items()) + "\n"


def _csv_table(header: dict, columns: dict) -> str:
    """An output CSV: the header line, the column names, then one row per
    entry of the equal-length columns.  A float cell is written by repr, the
    shortest text that reads back to it, NaN as a blank; an int or a bool as
    an integer."""
    cells = [["" if v != v else repr(v) if isinstance(v, float) else str(int(v))
              for v in np.asarray(column).tolist()] for column in columns.values()]
    rows = [",".join(columns)] + [",".join(row) for row in zip(*cells, strict=True)]
    return _csv_header(header) + "\n".join(rows) + "\n"


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
    """Keys used to check ordering: an integer array as it is; text as float64
    when every label is a number by Python's float() of its bytes, else the
    UTF-8 text itself, whose byte order is code-point order."""
    if labels.dtype.kind in "iu":
        return labels
    try:
        return labels.astype(np.float64)
    except ValueError:
        return labels


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
        prices = np.asarray(_real(self.prices, "prices must be finite", -np.inf, np.inf))
        prices = _held(prices, self.prices)
        object.__setattr__(self, "prices", prices)
        timestamps = _held(_label_array(self.timestamps), self.timestamps)
        object.__setattr__(self, "timestamps", timestamps)
        if self.price_mode not in PRICE_MODES:
            raise ValueError(f"unknown price mode {self.price_mode!r}")
        if len(timestamps) != len(prices):
            raise ValueError("timestamps and prices differ in length")
        if len(prices) < 2:
            raise ValueError("price series needs at least 2 points")
        if np.any(prices <= 0.0):
            i = int(np.argmax(prices <= 0.0))
            raise ValueError(f"non-positive price at row {i + 1}")
        keys = _timestamp_keys(timestamps)
        unordered = ~(keys[:-1] < keys[1:])
        if unordered.any() and keys.dtype == np.float64:
            # integer labels past 2**53 that float64 ties are compared exactly
            with contextlib.suppress(ValueError, OverflowError):
                exact = timestamps.astype(np.int64)
                unordered = ~(exact[:-1] < exact[1:])
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
        object.__setattr__(self, "m", _count(self.m, "return horizon m must be a positive integer"))
        values = _real(self.values, "returns must be finite", -np.inf, np.inf)
        object.__setattr__(self, "values", _held(np.asarray(values), self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IndicatorSeries:
    """Binary indicators of positive returns at horizon m (1 if return > 0)."""

    m: int
    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _count(self.m, "indicator horizon m must be a positive integer"))
        bits = np.asarray(self.bits)
        if bits.dtype == np.bool_:
            bits = bits.view(np.uint8)
        if bits.dtype == np.uint8:
            bad = bits.size and int(bits.max()) > 1
        else:  # checked as given: a cast to uint8 would wrap 256 to 0 and cut 0.5 to 0
            bad = bits.dtype.kind not in "iuf" or not np.all((bits == 0) | (bits == 1))
        if bad or bits.ndim != 1:
            raise ValueError("indicator values must be 0 or 1")
        bits = _held(np.ascontiguousarray(bits, dtype=np.uint8), self.bits)
        object.__setattr__(self, "bits", bits)

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
        for name in ("word_length", "stride"):
            value = _count(getattr(self, name), "word length and stride must be positive")
            object.__setattr__(self, name, value)
        total = _count(self.total, "no observations: total must be a positive integer")
        object.__setattr__(self, "total", total)
        for word, c in self.counts.items():
            if len(word) != self.word_length or set(word) - {"0", "1"}:
                raise ValueError(f"malformed word key {word!r}")
            _count(c, "counts must be non-negative integers", minimum=0)
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")


# Rows are read and written this many at a time: a parse error is then
# traced to its row by re-reading at most one block, and neither direction
# holds the text of more than one block.
_BLOCK_ROWS = 1 << 14

# A blank or comment line holds a '#' or starts with whitespace (an empty line
# starts with its line break), so a block whose text has neither is kept whole.
_SPACE_AFTER_NEWLINE = re.compile(r"\n\s")

# a byte that is not UTF-8, read by _utf8_text, is a lone surrogate
_SURROGATE = re.compile("[\ud800-\udfff]")


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
    with _utf8_text(open(source, "rb")) as fh:
        return _parse_prices(fh, mode)


def _utf8_text(binary: IO[bytes]) -> IO[str]:
    """Price bytes as text, for a path and the CLI's stdin alike: UTF-8, each
    byte that is not UTF-8 kept as a lone surrogate so its row can be named."""
    return io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape")


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
    # one byte-order mark, which UTF-8 text may start with, is dropped
    first = next(lines, "")
    lines = itertools.chain([first.removeprefix("\ufeff")], lines)
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
        is_ascii = text.isascii()
        # a non-ASCII block is read up to its first line that does not encode
        # back to UTF-8, so an earlier bad row is still the one named
        valid = block if is_ascii else list(
            itertools.takewhile(lambda line: _SURROGATE.search(line) is None, block))
        if valid:
            # numpy's C reader, prices straight to float64.  An ASCII block
            # reads its labels as bytes as wide as its longest line, so none is
            # cut short; loadtxt would encode other text as Latin-1, so a block
            # with any non-ASCII text reads its labels as str
            label = f"S{max(map(len, valid))}" if is_ascii else object
            table = _read_block(read, valid, label, n_rows + 1)
            prices.append(_block_prices(table, n_rows + 1))
            labels.append(_block_labels(table["timestamp"]))
            n_rows += len(table)
        if len(valid) < len(block):
            raise ValueError(f"invalid UTF-8 at row {n_rows + 1}")

    if n_rows < 2:
        raise ValueError("price series needs at least 2 rows")
    # rebound, so the per-block arrays are freed before the series is checked
    labels, prices = _freeze(np.concatenate(labels)), _freeze(np.concatenate(prices))
    return PriceSeries(labels, prices, mode)


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
    """The rows' prices, in a new array; each price field must be positive,
    the price finite."""
    fields = [table[name] for name in table.dtype.names[1:]]
    with np.errstate(over="ignore"):  # an overflowing midpoint is reported below
        # a copy of the close column: a view of it would keep the block's
        # whole table, labels and all, alive as long as the prices
        price = fields[0].copy() if len(fields) == 1 else 0.5 * (fields[0] + fields[1])
    non_positive = np.logical_or.reduce([f <= 0.0 for f in fields])
    bad = non_positive | ~np.isfinite(price)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "non-positive" if non_positive[i] else "non-finite"
        raise ValueError(f"{kind} price at row {first_row + i}")
    return price


def _label_cells(labels: np.ndarray, first_row: int) -> list:
    """Text labels as CSV cells load_prices reads back: in double quotes, each
    inner one doubled, if holding a comma or a quote or starting with '#'.  A
    label with a line break or surrounding whitespace raises naming its row."""
    cells = []
    for row, label in enumerate(labels.tolist(), first_row):
        text = label.decode()
        if "\n" in text or "\r" in text or text != text.strip():
            raise ValueError(f"label at row {row} cannot be written: {text!r}")
        if "," in text or '"' in text or text.startswith("#"):
            text = '"' + text.replace('"', '""') + '"'
        cells.append(text)
    return cells


def write_prices(p: PriceSeries, stream: IO[str]) -> None:
    """Write a `timestamp,close` header and one row per price to `stream`, for
    load_prices to read back bit for bit: each price by repr, each label as
    _label_cells writes it, every label checked before the first row."""
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, len(p), _BLOCK_ROWS)]
    text = p.timestamps.dtype.kind == "S"
    if text:
        for block in blocks:
            _label_cells(p.timestamps[block], block.start + 1)
    stream.write("timestamp,close\n")
    for block in blocks:
        labels = p.timestamps[block]
        labels = _label_cells(labels, block.start + 1) if text else labels.tolist()
        stream.write("".join([f"{t},{v!r}\n" for t, v in zip(labels, p.prices[block].tolist())]))


def _horizon(p: PriceSeries, m: int) -> int:
    m = _count(m, "return horizon m must be a positive integer")
    if m >= len(p.prices):
        raise ValueError("horizon exceeds series length")
    return m


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


def _word_windows(j: IndicatorSeries, word_length, n_windows=None) -> tuple[int, int]:
    """(word_length, n_windows) as ints, checked against the series: the
    length-L words at horizon j.m over the first n_windows starts, the
    maximal number of starts when n_windows is None."""
    word_length = _count(word_length, "word length must be a positive integer")
    if word_length > MAX_L + 1:
        raise ValueError(f"word length {word_length} exceeds the limit of {MAX_L + 1}")
    max_windows = len(j.bits) - (word_length - 1) * j.m
    if n_windows is None:
        n_windows = max_windows
    else:
        n_windows = _count(n_windows, "number of windows must be an integer")
    if not 1 <= n_windows <= max_windows:
        raise ValueError(f"series too short for (L={word_length}, m={j.m})")
    return word_length, n_windows


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
