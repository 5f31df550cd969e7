"""The argument checks, read-only arrays and output format (JSON documents,
`#`-headed CSV tables) that every module shares."""

import json
import sys

import numpy as np


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
