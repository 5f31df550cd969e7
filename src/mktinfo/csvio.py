"""Price CSV text in and out: the reader behind load_prices, the per-user
cache of the arrays it parsed from each file, and write_prices, whose forked
worker may format the second half of the rows it writes."""

import contextlib
import csv
import io
import itertools
import os
import pickle
import re
import stat
import sys
import threading
from typing import IO

import numpy as np

from ._common import _freeze

PRICE_MODES = ("close", "midrange")

_TIMESTAMP_COLUMNS = ("timestamp", "date", "time", "datetime")

# Rows are written this many at a time, and labels encoded: no step holds
# the text of more than one block.
_BLOCK_ROWS = 1 << 14

# Text is read and parsed about this many characters at a time, cut after a
# line break: a parse error is then traced to its row by re-reading at most
# one chunk.
_CHUNK_CHARS = 1 << 19

# A blank or comment line holds a '#' or starts with whitespace (an empty line
# starts with its line break), so a chunk whose text has neither is kept whole.
_SPACE_AFTER_NEWLINE = re.compile(r"\n\s")

# a byte that is not UTF-8, read by _utf8_text, is a lone surrogate
_SURROGATE = re.compile("[\ud800-\udfff]")

# The parsed-file cache keeps at most this many bytes of entries: the oldest
# used are deleted past it, and an entry larger is not stored.
_CACHE_BYTES = 2 << 30

# A file is hashed this many bytes at a time, read into one buffer: less
# than glibc's first mmap threshold (128 KiB), so malloc takes it from the
# heap and freeing it does not raise that threshold for the parse after it.
_HASH_BYTES = 1 << 16


def _may_fork() -> bool:
    """Whether a worker process may be forked: this process may run on two
    CPUs or more (os.sched_getaffinity, which macOS and Windows lack), runs
    no other Python thread, and runs on Python before 3.12, which warns when
    a process forks while other threads run, as numpy's BLAS threads do."""
    return (sys.version_info < (3, 12) and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


def _in_two(here, there, fork: bool) -> tuple:
    """(here(), there()).

    When `fork`, there() runs in one worker process forked for this call
    while here() runs in this one.  The worker reads what there() needs from
    the memory fork shares, and sends its result back pickled through a pipe;
    an exception it raises is raised here once here() has returned.  The
    worker ends by os._exit, and is ended and reaped before this returns, on
    success or error.  Otherwise here() runs, then there().
    """
    if not fork:
        return here(), there()
    import signal  # here: only a forking call needs it, and it adds 1 ms to every import

    # flushed, so that nothing written before the fork can come out twice
    for std in (sys.stdout, sys.stderr):
        if std is not None:
            std.flush()
    result_r, result_w = os.pipe()
    pid = 0
    try:
        pid = os.fork()
        if pid == 0:
            # the worker ends by os._exit, whatever happens: it runs no exit
            # handler and writes out no buffer it shares with this process
            try:
                os.close(result_r)
                with open(result_w, "wb") as out:
                    try:
                        reply = True, there()
                    except Exception as exc:  # raised again by the parent
                        reply = False, exc
                    pickle.dump(reply, out)
            finally:
                os._exit(0)
        os.close(result_w)
        result_w = None
        mine = here()
        with open(result_r, "rb", closefd=False) as from_worker:
            try:
                done, theirs = pickle.load(from_worker)
            except EOFError:
                raise ChildProcessError("the worker ended without a result") from None
    finally:
        os.close(result_r)
        if result_w is not None:
            os.close(result_w)
        if pid:
            # the worker has nothing left to do, or its work is no longer wanted
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not done:
        raise theirs
    return mine, theirs


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


def _chunks(stream: IO[str]):
    """The rest of `stream` in chunks of whole lines, each about _CHUNK_CHARS
    characters or one line if longer; the last may lack its line break."""
    rest = ""
    while text := stream.read(_CHUNK_CHARS):
        text = rest + text
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


class _RowError(ValueError):
    """args (what, index): the data row at `index`, from 0, of a chunk is bad;
    the reader names it by its row in the whole text."""


def _parse_prices(stream: IO[str], mode: str) -> tuple:
    """The read-only (labels, prices) arrays in `stream`; a bad row raises
    ValueError naming it by its row in the whole text."""
    # one byte-order mark, which UTF-8 text may start with, is dropped
    lines = itertools.chain([stream.readline().removeprefix("\ufeff")], iter(stream.readline, ""))
    header = next((line for line in lines if not _is_skipped(line)), None)
    if header is None:
        raise ValueError("empty input")
    names = [name.strip().lower() for name in next(csv.reader([header]))]
    columns = {name: i for i, name in enumerate(names)}

    ts_name = next((c for c in _TIMESTAMP_COLUMNS if c in columns), None)
    if ts_name is None:
        raise ValueError("missing timestamp column")
    if mode == "close":
        needed = ("close",)
    else:
        needed = ("high", "low")
    for name in needed:
        if name not in columns:
            raise ValueError(f"missing required column {name!r} for mode {mode!r}")
    # a column that is read must be one column; others may repeat
    for name in (ts_name,) + needed:
        if names.count(name) > 1:
            raise ValueError(f"duplicate column {name!r}")
    ts_col = columns[ts_name]

    fields = [(name, np.float64) for name in needed]
    usecols = (ts_col,) + tuple(columns[name] for name in needed)

    def read(data_lines: list, label) -> np.ndarray:
        return np.loadtxt(data_lines, dtype=np.dtype([("timestamp", label)] + fields),
                          delimiter=",", quotechar='"', comments=None, usecols=usecols,
                          ndmin=1)

    labels, prices = [], []
    for chunk in _chunks(stream):
        try:
            chunk_labels, chunk_prices = _chunk_rows(read, chunk)
        except _RowError as exc:
            what, index = exc.args
            raise ValueError(f"{what} at row {sum(map(len, prices)) + index + 1}") from None
        labels.append(chunk_labels)
        prices.append(chunk_prices)

    if sum(map(len, prices)) < 2:
        raise ValueError("price series needs at least 2 rows")
    # rebound, so the per-chunk arrays are freed before the series is checked
    labels, prices = _freeze(np.concatenate(labels)), _freeze(np.concatenate(prices))
    return labels, prices


def _chunk_rows(read, chunk: str) -> tuple[np.ndarray, np.ndarray]:
    """The labels, as by _block_labels, and the prices of a chunk of whole
    lines; a bad row raises _RowError."""
    block = chunk.split("\n")
    if not block[-1]:
        block.pop()
    block = _data_lines(block, chunk)
    is_ascii = chunk.isascii()
    # a non-ASCII chunk is read up to its first line that does not encode
    # back to UTF-8, so an earlier bad row is still the one named
    valid = block if is_ascii else list(
        itertools.takewhile(lambda line: _SURROGATE.search(line) is None, block))
    labels, prices = np.empty(0, "S1"), np.empty(0)
    if valid:
        # numpy's C reader, prices straight to float64.  An ASCII chunk reads
        # its labels as bytes as wide as its longest line, so none is cut
        # short; loadtxt would encode other text as Latin-1, so a chunk with
        # any non-ASCII text reads its labels as str
        label = f"S{max(map(len, valid))}" if is_ascii else object
        table = _read_block(read, valid, label)
        prices = _block_prices(table)
        labels = _block_labels(table["timestamp"])
    if len(valid) < len(block):
        raise _RowError("invalid UTF-8", len(valid))
    return labels, prices


def _read_file(fh: IO[str], mode: str, build):
    """build(labels, prices), the arrays of the price file open as `fh`,
    which nothing has read yet; an error of the parse or of build is the load's.

    A regular file whose arrays build accepted is kept in the per-user cache
    directory, keyed by its bytes, and a later load of the same bytes reads
    that entry in place of a parse, checked by build as a parse is.  The
    entry is stored only when the file's size and times did not change from
    its hash to the end of its parse.  A cache that cannot be used, a missing
    or bad entry and a failed store all leave the parse's result.
    """
    fd = fh.fileno()
    entry = None
    with contextlib.suppress(OSError, ValueError):
        entry, stamp = _cache_entry(fd, mode)
    if entry is not None:
        with contextlib.suppress(OSError, ValueError):
            return build(*_read_entry(entry))
    labels, prices = _parse_prices(fh, mode)
    result = build(labels, prices)
    if entry is not None and _stamp(os.fstat(fd)) == stamp:
        with contextlib.suppress(OSError, ValueError):
            _store_entry(entry, labels, prices)
    return result


def _stamp(info: os.stat_result) -> tuple:
    """What changes when a file is written: its size, its mtime and its ctime."""
    return info.st_size, info.st_mtime_ns, info.st_ctime_ns


def _cache_dir() -> str | None:
    """The cache directory, $XDG_CACHE_HOME/mktinfo or ~/.cache/mktinfo,
    made with mode 0700 if missing; None for one another user owns or may
    write to, which could hold entries this process never stored."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: not used, as XDG says
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no home directory either
        return None
    path = os.path.join(base, "mktinfo")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.stat(path)
    if info.st_mode & 0o022 or (hasattr(os, "getuid") and info.st_uid != os.getuid()):
        return None
    return path


def _cache_entry(fd: int, mode: str) -> tuple:
    """(path, stamp): the cache entry of the file `fd` read in `mode`, and the
    file's stamp, taken before its bytes are hashed; (None, None) for a file
    that is not regular, or when there is no cache directory to use."""
    stamp = os.fstat(fd)
    directory = _cache_dir() if stat.S_ISREG(stamp.st_mode) else None
    if directory is None:
        return None, None
    # here: only a cached load needs it, and it maps OpenSSL's library (3.4 MB)
    import hashlib
    # this module's source is in the key: an edited reader, or entry format,
    # reads no entry an older one stored
    with open(__file__, "rb") as source:
        reader = hashlib.sha256(source.read()).digest()
    key = hashlib.sha256()
    for part in (mode.encode(), np.__version__.encode(), reader):
        key.update(len(part).to_bytes(8, "little") + part)
    buffer = memoryview(bytearray(_HASH_BYTES))
    # read from its start, where the parse begins too; os.pread, which would
    # leave the offset alone, is missing on Windows
    with open(fd, "rb", buffering=0, closefd=False) as raw:
        try:
            while size := raw.readinto(buffer):
                key.update(buffer[:size])
        finally:
            raw.seek(0)
    return os.path.join(directory, key.hexdigest() + ".prices"), _stamp(stamp)


def _read_entry(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (labels, prices) a cache entry holds, and its mtime set
    to now.  An entry is its row count and label width, each 8 bytes little
    endian, then the labels as `S` text of that width and the prices as
    little-endian float64; ValueError unless its size is what that header
    gives, so a bad header allocates nothing.  The arrays, like a parse's,
    are checked by the series built from them."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        rows, width = int.from_bytes(header[:8], "little"), int.from_bytes(header[8:], "little")
        if len(header) < 16 or os.fstat(fh.fileno()).st_size != 16 + rows * (width + 8):
            raise ValueError("cache entry is not one a store wrote")
        labels, prices = np.fromfile(fh, f"S{width}", rows), np.fromfile(fh, "<f8", rows)
    os.utime(path)
    return _freeze(labels), _freeze(prices)


def _store_entry(path: str, labels: np.ndarray, prices: np.ndarray) -> None:
    """Write the arrays to the cache entry `path`, written under a temporary
    name and renamed into place, then delete the least recently used entries
    until the directory holds at most _CACHE_BYTES; arrays larger are not stored."""
    if labels.nbytes + prices.nbytes > _CACHE_BYTES:
        return
    # a name no other process or thread writes at the same time
    temporary = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.write(len(prices).to_bytes(8, "little") + labels.itemsize.to_bytes(8, "little"))
            labels.tofile(fh)
            prices.astype("<f8", copy=False).tofile(fh)
        os.replace(temporary, path)
    finally:  # left behind only when the write or the rename failed
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
    with os.scandir(os.path.dirname(path)) as found:
        entries = sorted((f.stat().st_mtime_ns, f.stat().st_size, f.path)
                         for f in found if f.is_file(follow_symlinks=False))
    total = sum(size for _, size, _ in entries)
    for _, size, old in entries:
        if total <= _CACHE_BYTES:
            break
        # another load may have deleted it first
        with contextlib.suppress(FileNotFoundError):
            os.remove(old)
        total -= size


# the characters str.strip() removes that are ASCII; bytes.strip() keeps \x1c-\x1f
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())


def _block_labels(raw: np.ndarray) -> np.ndarray:
    """A block's labels stripped of surrounding whitespace, as UTF-8 `S` text
    no wider than its widest label."""
    if raw.dtype.kind == "S":
        stripped = np.strings.strip(raw, _ASCII_SPACE)
        return stripped.astype(f"S{max(1, int(np.strings.str_len(stripped).max()))}")
    return np.array([label.strip().encode() for label in raw.tolist()], dtype=bytes)


def _read_block(read, block: list, label) -> np.ndarray:
    """Parse one block of data lines; on failure raise _RowError at its first bad row."""
    try:
        return read(block, label)
    except ValueError as exc:
        error = exc
    # error path only: the longest prefix that parses, found by halving, so
    # a chunk of many short lines is not re-read line by line.  A bad price
    # in that prefix is named first, whatever is wrong with the next line
    good, bad = 0, len(block)  # block[:good] parses, block[:bad] does not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            read(block[:mid], label)
            good = mid
        except ValueError:
            bad = mid
    if good:
        _block_prices(read(block[:good], label))
    try:
        read([block[good]], label)
    except ValueError:
        raise _RowError("unparseable price", good) from None
    raise error  # only a quoted field that spans lines gets here


def _block_prices(table: np.ndarray) -> np.ndarray:
    """The rows' prices, in a new array; each price field must be positive,
    the price finite, or _RowError names the first bad row."""
    fields = [table[name] for name in table.dtype.names[1:]]
    with np.errstate(over="ignore"):  # an overflowing midpoint is reported below
        # a copy of the close column: a view of it would keep the block's
        # whole table, labels and all, alive as long as the prices
        price = fields[0].copy() if len(fields) == 1 else 0.5 * (fields[0] + fields[1])
    non_positive = np.logical_or.reduce([f <= 0.0 for f in fields])
    bad = non_positive | ~np.isfinite(price)
    if bad.any():
        i = int(np.argmax(bad))
        raise _RowError("non-positive price" if non_positive[i] else "non-finite price", i)
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


def write_prices(p, stream: IO[str]) -> None:
    """Write a `timestamp,close` header and one row per price of the series `p`
    to `stream`, for load_prices to read back bit for bit: each price by repr,
    each label as _label_cells writes it, every label checked before the first row."""
    blocks = [slice(start, start + _BLOCK_ROWS) for start in range(0, len(p.prices), _BLOCK_ROWS)]
    text = p.timestamps.dtype.kind == "S"
    if text:
        for block in blocks:
            _label_cells(p.timestamps[block], block.start + 1)

    def rows(block: slice) -> str:
        labels = p.timestamps[block]
        labels = _label_cells(labels, block.start + 1) if text else labels.tolist()
        return "".join([f"{t},{v!r}\n" for t, v in zip(labels, p.prices[block].tolist())])

    stream.write("timestamp,close\n")
    # written out before a worker may be forked, which shares the stream's buffer
    stream.flush()
    # with a second CPU, the first half of the blocks is written here while a
    # worker formats the second, whose text is written after it
    fork = len(blocks) > 1 and _may_fork()
    half = len(blocks) // 2 if fork else len(blocks)

    def write_first_half() -> None:
        for block in blocks[:half]:
            stream.write(rows(block))

    _, texts = _in_two(write_first_half, lambda: [rows(block) for block in blocks[half:]], fork)
    for block_text in texts:
        stream.write(block_text)
