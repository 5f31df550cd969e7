"""A reference reader of price CSV text, written apart from mktinfo.csvio.

The csv module splits each line into fields and float() reads each price,
one line at a time.  Used by the suite as the oracle for load_prices: same
labels and prices, or the same first error.
"""

import csv
import math

TIMESTAMP_COLUMNS = ("timestamp", "date", "time", "datetime")


def _skipped(line: str) -> bool:
    """A blank line, or a comment: '#' is its first character that is not whitespace."""
    stripped = line.lstrip()
    return stripped == "" or stripped[0] == "#"


def read_prices(text: str, mode: str = "close"):
    """(labels, prices) of decoded CSV text, labels as stripped UTF-8 bytes;
    or, for bad text, the message load_prices raises, its rows counted from 1
    among the data rows.  Lines end at "\\n" only, as text decoded with
    universal newlines does; one leading byte-order mark is dropped.  The
    order of the labels is not checked here."""
    lines = [line for line in text.removeprefix("\ufeff").split("\n") if not _skipped(line)]
    if not lines:
        return "empty input"
    names = [name.strip().lower() for name in next(csv.reader(lines[:1]))]
    columns = {name: i for i, name in enumerate(names)}
    ts_name = next((name for name in TIMESTAMP_COLUMNS if name in columns), None)
    if ts_name is None:
        return "missing timestamp column"
    legs = ["close"] if mode == "close" else ["high", "low"]
    for name in legs:
        if name not in columns:
            return f"missing required column {name!r} for mode {mode!r}"
    for name in [ts_name] + legs:
        if names.count(name) > 1:
            return f"duplicate column {name!r}"
    ts = columns[ts_name]
    labels, prices = [], []
    for row, line in enumerate(lines[1:], 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a byte that was not UTF-8, decoded as a lone surrogate
            return f"invalid UTF-8 at row {row}"
        fields = next(csv.reader([line]))
        try:
            label = fields[ts]
            values = [float(fields[columns[name]]) for name in legs]
        except (IndexError, ValueError):
            return f"unparseable price at row {row}"
        if any(value <= 0.0 for value in values):
            return f"non-positive price at row {row}"
        price = values[0] if mode == "close" else 0.5 * (values[0] + values[1])
        if not math.isfinite(price):
            return f"non-finite price at row {row}"
        labels.append(label.strip().encode())
        prices.append(price)
    if len(prices) < 2:
        return "price series needs at least 2 rows"
    return labels, prices
