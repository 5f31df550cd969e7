"""Price ingestion, returns, indicators, and the shared checks and writers."""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import mktinfo.csvio as csvio
from mktinfo._common import _json_text
from mktinfo.csvio import (
    write_prices,
    _BLOCK_ROWS,
    _CHUNK_CHARS,
    _in_two,
    _may_fork,
    _utf8_text,
)
from mktinfo.series import (
    IndicatorSeries,
    PriceSeries,
    compute_returns,
    load_prices,
    to_indicators,
    _timestamp_keys,
)
from price_oracle import read_prices


def make_series(prices, timestamps=None):
    if timestamps is None:
        timestamps = tuple(range(len(prices)))
    return PriceSeries(timestamps, np.asarray(prices, dtype=float))


class TestPriceSeries:
    def test_basic(self):
        p = make_series([1.0, 2.0, 3.0])
        assert len(p) == 3
        assert p.prices.dtype == np.float64
        assert not p.prices.flags.writeable

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_series([1.0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            make_series([1.0, np.inf])

    def test_non_positive_reports_row(self):
        with pytest.raises(ValueError, match="non-positive price at row 2"):
            make_series([1.0, 0.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            PriceSeries((0, 1, 2), np.array([1.0, 2.0]))

    def test_numeric_timestamp_ordering(self):
        # "10" must sort after "2" when every label parses as a number
        make_series([1.0, 2.0], timestamps=("2", "10"))
        with pytest.raises(ValueError, match="non-monotone timestamps at row 2"):
            make_series([1.0, 2.0], timestamps=("10", "2"))

    def test_text_timestamp_ordering(self):
        make_series([1.0, 2.0], timestamps=("2024-01-01", "2024-01-02"))
        with pytest.raises(ValueError, match="non-monotone"):
            make_series([1.0, 2.0], timestamps=("2024-01-02", "2024-01-02"))


class TestLoadPrices:
    def test_happy_path(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,close\n1,100.0\n2,101.5\n3,99.25\n")
        p = load_prices(f)
        np.testing.assert_allclose(p.prices, [100.0, 101.5, 99.25])
        np.testing.assert_array_equal(p.timestamps, [b"1", b"2", b"3"])

    def test_stream_comments_and_blanks(self):
        text = "# a comment\n\ndate,CLOSE\n1,5\n# another\n2,6\n\n"
        p = load_prices(io.StringIO(text))
        np.testing.assert_allclose(p.prices, [5.0, 6.0])

    @pytest.mark.parametrize("text", ["timestamp,close\n1,2\n2,3\n",
                                      "# note\ntimestamp,close\n1,2\n2,3\n"],
                             ids=["before the header", "before a comment"])
    def test_byte_order_mark(self, tmp_path, text):
        f = tmp_path / "p.csv"
        f.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for p in (load_prices(f), load_prices(io.StringIO("\ufeff" + text))):
            np.testing.assert_array_equal(p.prices, [2.0, 3.0])
            np.testing.assert_array_equal(p.timestamps, [b"1", b"2"])

    def test_invalid_utf8_in_a_comment_is_skipped(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"timestamp,close\n# caf\xe9\n1,2\n2,3\n")
        for p in (load_prices(f), load_prices(io.StringIO(f.read_bytes().decode(
                "utf-8", "surrogateescape")))):
            np.testing.assert_array_equal(p.prices, [2.0, 3.0])

    def test_invalid_utf8_from_a_path_names_its_row(self, tmp_path):
        # a byte that is not UTF-8 raised the codec's error, with a byte offset
        f = tmp_path / "p.csv"
        f.write_bytes(b"timestamp,close\n1,2\n2,3\n3\xff,4\n")
        with pytest.raises(ValueError, match="^invalid UTF-8 at row 3$"):
            load_prices(f)

    def test_midrange(self):
        text = "time,high,low\n1,12,8\n2,14,10\n"
        p = load_prices(io.StringIO(text), mode="midrange")
        np.testing.assert_allclose(p.prices, [10.0, 12.0])

    def test_missing_close_column(self):
        with pytest.raises(ValueError, match="missing required column 'close'"):
            load_prices(io.StringIO("time,open\n1,2\n2,3\n"))

    def test_missing_low_column_midrange(self):
        with pytest.raises(ValueError, match="missing required column 'low'"):
            load_prices(io.StringIO("time,high\n1,2\n2,3\n"), mode="midrange")

    def test_missing_timestamp(self):
        with pytest.raises(ValueError, match="missing timestamp column"):
            load_prices(io.StringIO("close\n1\n2\n"))

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            load_prices(io.StringIO("# only a comment\n"))

    def test_unparseable_price(self):
        with pytest.raises(ValueError, match="unparseable price at row 2"):
            load_prices(io.StringIO("time,close\n1,5\n2,oops\n"))

    def test_non_positive_price(self):
        with pytest.raises(ValueError, match="non-positive price at row 2"):
            load_prices(io.StringIO("time,close\n1,5\n2,-1\n"))

    def test_non_positive_leg_in_midrange(self):
        # both raw fields must be positive even if the midpoint is not
        with pytest.raises(ValueError, match="non-positive price at row 1"):
            load_prices(io.StringIO("time,high,low\n1,3,-1\n2,4,2\n"), mode="midrange")

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            load_prices(io.StringIO("time,close\n1,5\n"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown price mode"):
            load_prices(io.StringIO("time,close\n1,5\n2,6\n"), mode="vwap")


# (text, mode, expected): expected is (prices, timestamps) or an error message.
# Row numbers count data rows from 1, leaving out header, comment and blank lines.
INGEST_CASES = {
    "whitespace-only line": (
        "timestamp,close\n1,5\n   \n\t\n2,6\n", "close", ([5.0, 6.0], ("1", "2"))),
    "indented comment": (
        "  # lead\n\ntimestamp,close\n1,5\n  # note\n2,6\n", "close", ([5.0, 6.0], ("1", "2"))),
    "inline comment": (
        "timestamp,close\n1,5\n2,6 # note\n", "close", "unparseable price at row 2"),
    "short row": (
        "timestamp,close\n1,5\n2\n3,7\n", "close", "unparseable price at row 2"),
    "empty price": (
        "timestamp,close\n1,5\n2,\n", "close", "unparseable price at row 2"),
    "extra columns": (
        "timestamp,close\n1,5,9,x\n2,6,\n", "close", ([5.0, 6.0], ("1", "2"))),
    "fewer columns than the header": (
        "timestamp,close,volume\n1,5\n2,6\n", "close", ([5.0, 6.0], ("1", "2"))),
    "close before timestamp": (
        "Close,Date\n5,1\n6,2\n", "close", ([5.0, 6.0], ("1", "2"))),
    "quoted fields": (
        'timestamp,close\n"1","5"\n"2, noon", 6.5 \n"3 ""x""",7\n', "close",
        ([5.0, 6.5, 7.0], ("1", "2, noon", '3 "x"'))),
    "padded fields": (
        "timestamp,close\n 1 , 5 \n2,\t6\n", "close", ([5.0, 6.0], ("1", "2"))),
    "CRLF line endings": (
        "timestamp,close\r\n1,5\r\n\r\n2,6\r\n", "close", ([5.0, 6.0], ("1", "2"))),
    "no final newline": (
        "timestamp,close\n1,5\n2,6", "close", ([5.0, 6.0], ("1", "2"))),
    "numeric timestamps order as numbers": (
        "timestamp,close\n9,5\n10,6\n", "close", ([5.0, 6.0], ("9", "10"))),
    "text timestamps, non-monotone row": (
        "date,close\n2024-01-01,5\n# gap\n2024-01-03,6\n2024-01-02,7\n", "close",
        "non-monotone timestamps at row 3"),
    "repeated timestamp": (
        "time,close\n1,5\n1,6\n", "close", "non-monotone timestamps at row 2"),
    "midrange, one non-positive leg": (
        "time,high,low\n1,12,8\n2,14,-1\n3,15,9\n", "midrange", "non-positive price at row 2"),
    "midrange, one unparseable leg": (
        "time,high,low\n1,12,8\n2,x,9\n", "midrange", "unparseable price at row 2"),
    "midrange, overflowing midpoint": (
        "time,high,low\n1,1e308,1e308\n2,14,9\n", "midrange", "non-finite price at row 1"),
    "rows counted past comments and blanks": (
        "time,close\n# c\n1,5\n\n# d\n2,6\n3,oops\n", "close", "unparseable price at row 3"),
    "first bad row wins: non-positive before unparseable": (
        "time,close\n1,5\n2,-1\n3,oops\n", "close", "non-positive price at row 2"),
    "first bad row wins: unparseable before non-finite": (
        "time,close\n1,5\n2,oops\n3,nan\n", "close", "unparseable price at row 2"),
    "negative infinity": (
        "time,close\n1,5\n2,-inf\n", "close", "non-positive price at row 2"),
    "one data row": (
        "time,close\n# c\n1,5\n\n", "close", "at least 2 rows"),
}


class TestIngestEdgeCases:
    @pytest.mark.parametrize("name", list(INGEST_CASES))
    def test_case(self, name):
        text, mode, expected = INGEST_CASES[name]
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                load_prices(io.StringIO(text), mode)
        else:
            p = load_prices(io.StringIO(text), mode)
            np.testing.assert_array_equal(p.prices, expected[0])
            np.testing.assert_array_equal(p.timestamps, [t.encode() for t in expected[1]])

    def test_peak_memory(self, tmp_path):
        # each block's prices are copied out of its parsed table, so the
        # tables die with their blocks; a view of the close column kept every
        # table alive, labels at full line width and all (4.7 times the
        # bytes held on this file)
        rows = 200_000
        prices = 100.0 * np.exp(np.cumsum(np.random.default_rng(1).normal(0.0, 1e-3, rows)))
        f = tmp_path / "p.csv"
        with open(f, "w") as fh:
            write_prices(PriceSeries(range(rows), prices), fh)
        tracemalloc.start()
        try:
            p = load_prices(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.prices.tobytes() == prices.tobytes()
        held = p.prices.nbytes + p.timestamps.nbytes
        assert peak <= 3 * held, peak / held

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files(self, tmp_path, eol):
        f = tmp_path / "p.csv"
        f.write_bytes(eol.join([b"timestamp,close", b"1,5", b"", b"2,6", b""]))
        p = load_prices(f)
        np.testing.assert_array_equal(p.prices, [5.0, 6.0])
        np.testing.assert_array_equal(p.timestamps, [b"1", b"2"])

    def test_python_only_float_spelling_is_unparseable(self):
        # numpy's reader takes the spellings repr writes, not Python's
        # digit-group underscores
        with pytest.raises(ValueError, match="unparseable price at row 2"):
            load_prices(io.StringIO("time,close\n1,5\n2,1_000\n"))

    def test_rows_numbered_across_blocks(self):
        # bad rows deep in the file, past comment lines, and a good row set
        # long enough to span several read blocks
        n = 40_000
        rows = [f"{i},{100 + i % 7}" for i in range(n)]
        rows.insert(5, "# comment")
        good = "timestamp,close\n" + "\n".join(rows) + "\n"
        p = load_prices(io.StringIO(good))
        assert len(p) == n and p.timestamps[-1] == str(n - 1).encode()
        np.testing.assert_array_equal(p.prices, [100 + i % 7 for i in range(n)])
        for row, value, message in ((33_000, "oops", "unparseable"),
                                    (20_000, "0", "non-positive"),
                                    (16_385, "nan", "non-finite")):
            bad = list(rows)
            bad[row] = f"{row - 1},{value}"  # after the comment, list index = row
            text = "timestamp,close\n" + "\n".join(bad) + "\n"
            with pytest.raises(ValueError, match=f"^{message} price at row {row}$"):
                load_prices(io.StringIO(text))
        # an earlier bad value wins over a later unparseable row
        bad = list(rows)
        bad[2] = "2,-5"  # before the comment, list index = row - 1
        bad[30_000] = "x,y"
        with pytest.raises(ValueError, match="^non-positive price at row 3$"):
            load_prices(io.StringIO("timestamp,close\n" + "\n".join(bad)))


class TestWritePrices:
    def test_round_trip_across_blocks(self, cpus):
        rng = np.random.default_rng(4)
        n = 50_000
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
        prices[7] = 5e-324  # a subnormal must survive too
        series = PriceSeries(tuple(range(n)), prices)
        buf = io.StringIO()
        write_prices(series, buf)
        text = buf.getvalue()
        assert text.startswith("timestamp,close\n0,")
        assert text.count("\n") == n + 1
        back = load_prices(io.StringIO(text))
        assert back.prices.tobytes() == prices.tobytes()
        np.testing.assert_array_equal(back.timestamps, np.arange(n).astype("S"))


# Text the oracle and load_prices must read alike.  Labels are a fixed
# prefix and suffix around a zero-padded count, so they order as the count
# does, a repeated count being a non-monotone row; with no prefix or suffix
# they are integers, from 0 or past 2**53.  The prefix and suffix hold
# characters str.splitlines() breaks at (\x0b, \x1c-\x1e, \x85, \u2028) and
# whitespace that is stripped; a label holding a comma, a quote or a lone
# surrogate (a byte that is not UTF-8) is quoted, others at random.  Bad
# prices, short rows, repeated labels and bad bytes are drawn rarely enough
# that about half of the texts read without error.
_AROUND = " \t\x0b\x1c\x1d\x1e\x85\u2028aé日,\"#"
_GOOD_PRICES = ["1.5", "100", "2e-3", "5e-324", "1e308", " 7.25", "8\t", "3"]
_BAD_PRICES = ["0", "-0.0", "-2", "inf", "-inf", "nan", "1e999", "oops", ""]
_NOT_UTF8 = "\udcff"


def _rarely(value, odds: int):
    """A strategy for `value` once in `odds` draws, else for ''."""
    return st.sampled_from([""] * (odds - 1) + [value])


@st.composite
def _price_text(draw):
    """(text, mode, as_bytes) of a price CSV in one of the dialects
    load_prices reads, to be read as a text stream or, when as_bytes, as a
    file of UTF-8 bytes, which may also end its lines in a lone carriage
    return."""
    mode = draw(st.sampled_from(["close", "midrange"]))
    legs = 1 if mode == "close" else 2
    prefix, suffix = draw(st.text(_AROUND, max_size=3)), draw(st.text(_AROUND, max_size=3))
    lines = ["timestamp,close,volume" if mode == "close" else "Time,High,Low"]
    count = draw(st.sampled_from([0, 2 ** 53, 10 ** 18]))
    kinds = st.sampled_from(["row"] * 6 + ["comment", "blank"])
    for kind in draw(st.lists(kinds, min_size=3, max_size=25)):
        if kind == "comment":
            lines.append(draw(st.sampled_from(["", "  ", "\x85"])) + "#"
                         + draw(st.text(" \t\x0b\x1c\x85aé,\"#", max_size=5))
                         + draw(_rarely(_NOT_UTF8, 5)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c", "\x85 "])))
        else:
            count += draw(st.sampled_from([1] * 29 + [0]))
            label = f"{prefix}{count:04d}{draw(_rarely(_NOT_UTF8, 60))}{suffix}"
            if draw(st.booleans()) or any(c in label for c in ',"' + _NOT_UTF8):
                label = '"' + label.replace('"', '""') + '"'
            width = draw(st.sampled_from([legs] * 20 + [legs - 1, legs + 1]))
            values = draw(st.lists(st.sampled_from(_GOOD_PRICES * 30 + _BAD_PRICES),
                                   min_size=width, max_size=width))
            lines.append(",".join([label] + values))
    as_bytes = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"] + ["\r"] * as_bytes))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + eol.join(lines) + draw(st.sampled_from(["", eol])), mode, as_bytes


class TestChunkedReader:
    """load_prices against the csv.reader and float() oracle in
    tests/price_oracle.py, with chunks a few characters long, so every input
    spans many; on one CPU or two, a file is read in this process alone."""

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_price_text(), st.integers(1, 64))
    def test_reads_as_the_oracle(self, cpus, forks, tmp_path, text_mode_bytes, chunk_chars):
        text, mode, as_bytes = text_mode_bytes
        if as_bytes:
            # a file: every line break becomes "\n", and each byte that is not
            # UTF-8 a lone surrogate
            source = tmp_path / "p.csv"
            source.write_bytes(text.encode("utf-8", "surrogateescape"))
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        else:
            source = io.StringIO(text)
        want = read_prices(text, mode)
        if not isinstance(want, str):
            labels, prices = want
            try:
                want = PriceSeries(np.array(labels, dtype=bytes), prices)
            except ValueError as exc:  # the label order, which the oracle leaves unchecked
                want = str(exc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csvio, "_CHUNK_CHARS", chunk_chars)
            if isinstance(want, str):
                with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                    load_prices(source, mode)
            else:
                got = load_prices(source, mode)
                assert got.timestamps.tolist() == want.timestamps.tolist()
                assert got.prices.tobytes() == want.prices.tobytes()
        assert forks == []

    def test_a_line_longer_than_one_read_at_the_middle(self, cpus, forks, tmp_path, monkeypatch):
        # the file's middle byte lies in one label 70 kB before its line
        # break: the line spans 140 of the reader's reads
        monkeypatch.setattr(csvio, "_CHUNK_CHARS", 1000)
        labels = ([f"a{i:02d}" for i in range(20)] + ["b" + "x" * 140_000]
                  + [f"c{i:02d}" for i in range(20)])
        p = load_prices(_rows_file(tmp_path, [f"{t},{i}.5" for i, t in enumerate(labels)]))
        assert p.timestamps.tolist() == [t.encode() for t in labels]
        assert p.prices.tolist() == [i + 0.5 for i in range(len(labels))]
        assert forks == []

    def test_a_lone_cr_file_is_read_here_whole(self, cpus, forks, tmp_path, monkeypatch):
        # every line, the header's too, ends in a lone "\r"; many chunks
        monkeypatch.setattr(csvio, "_CHUNK_CHARS", 1000)
        f = tmp_path / "p.csv"
        f.write_bytes("".join(f"{row}\r" for row in ["timestamp,close"] + _ROWS).encode())
        p = load_prices(f)
        assert p.timestamps.tolist() == [str(i).encode() for i in range(len(_ROWS))]
        assert p.prices.tolist() == [100 + i % 7 + 0.25 for i in range(len(_ROWS))]
        assert forks == []

    @pytest.mark.parametrize("header, mode, column", [
        ("timestamp,close,Close", "close", "close"),
        ("Timestamp,timestamp,close", "close", "timestamp"),
        ("timestamp,high,low,HIGH", "midrange", "high"),
        (" date ,time,DATE,close", "close", "date")])
    def test_a_column_read_twice_is_an_error(self, cpus, forks, tmp_path, monkeypatch,
                                             header, mode, column):
        # which of the two was meant cannot be told, so neither is read
        monkeypatch.setattr(csvio, "_CHUNK_CHARS", 16)
        f = tmp_path / "p.csv"
        f.write_text("".join(f"{row}\n" for row in [header, "1,5,7,9", "2,6,8,10"]))
        message = f"duplicate column {column!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_prices(f, mode)
        assert read_prices(f.read_text(), mode) == message
        assert forks == []

    @pytest.mark.parametrize("header, mode, prices", [
        ("timestamp,close,volume,volume", "close", [5.0, 6.0]),
        ("date,time,close", "close", [7.0, 8.0]),
        ("timestamp,close,Close,high,low", "midrange", [9.5, 10.5])])
    def test_a_column_not_read_may_repeat(self, cpus, forks, tmp_path, monkeypatch,
                                          header, mode, prices):
        monkeypatch.setattr(csvio, "_CHUNK_CHARS", 16)
        rows = [f"{i},{5 + i},{7 + i},{9 + i},{10 + i}" for i in range(40)]
        f = tmp_path / "p.csv"
        f.write_text("".join(f"{row}\n" for row in [header] + rows))
        p = load_prices(f, mode)
        assert p.timestamps.tolist() == [str(i).encode() for i in range(40)]
        assert p.prices[:2].tolist() == prices
        _, want = read_prices(f.read_text(), mode)
        assert p.prices.tobytes() == np.array(want).tobytes()
        assert forks == []


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes forked while the test runs."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids):
    """Each pid was a child of this process and is gone: ended and waited for."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_ROWS = [f"{i},{100 + i % 7}.25" for i in range(2000)]
_ENDS = np.cumsum([len(row) + 1 for row in _ROWS])


def _row_at(fraction: float) -> int:
    """The data row of _ROWS, from 1, that holds `fraction` of its text."""
    return int(np.searchsorted(_ENDS, fraction * _ENDS[-1], side="right")) + 1


def _rows_file(tmp_path, rows):
    """A price file of `rows` under the header, each line ended by "\n"."""
    f = tmp_path / "p.csv"
    f.write_bytes("".join(f"{row}\n" for row in ["timestamp,close"] + rows)
                  .encode("utf-8", "surrogateescape"))
    return f


# Python 3.12 and later warn when a process with threads forks, as numpy's
# BLAS threads make this one do
_needs_fork = pytest.mark.skipif(sys.version_info >= (3, 12),
                                 reason="_may_fork is False on Python 3.12 and later")


@pytest.mark.parametrize("cpus", [2], indirect=True)
class TestWorker:
    """With a second CPU, the second half of the blocks written is formatted
    in one forked worker: its result and errors come back, and it never
    outlives the call.  A file read forks nothing: its bad row, the earlier
    of two, is named by the one reader, in either half of the file."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        """Each half of _ROWS' 23 kB is many reader chunks."""
        monkeypatch.setattr(csvio, "_CHUNK_CHARS", 1000)

    @_needs_fork
    def test_both_results_and_the_workers_error_after_this_half(self, cpus, forks):
        assert _in_two(lambda: os.getpid(), lambda: os.getpid(), fork=True)[1] == forks[0]
        done = []

        def fails():
            raise ValueError("in the worker")

        with pytest.raises(ValueError, match="^in the worker$"):
            _in_two(lambda: done.append(1), fails, fork=True)
        assert done == [1]
        assert len(forks) == 2
        assert_reaped(forks)

    @_needs_fork
    def test_an_error_here_ends_the_worker(self, cpus, forks):
        def fails():
            raise OSError("here")

        start = time.monotonic()
        with pytest.raises(OSError, match="^here$"):
            _in_two(fails, lambda: time.sleep(60), fork=True)
        assert time.monotonic() - start < 30  # ended, not waited for
        assert_reaped(forks)

    @_needs_fork
    def test_a_worker_that_dies_is_an_error(self, cpus, forks):
        with pytest.raises(ChildProcessError, match="ended without a result"):
            _in_two(lambda: 0, lambda: os._exit(1), fork=True)
        assert_reaped(forks)

    @_needs_fork
    def test_no_worker_for_one_cpu_one_chunk_or_another_thread(self, cpus, forks, tmp_path,
                                                              monkeypatch):
        assert _may_fork()
        assert load_prices(_rows_file(tmp_path, ["1,2", "2,3"])).prices.tolist() == [2, 3]
        write_prices(PriceSeries([1, 2], [2.0, 3.0]), io.StringIO())
        ready, done = threading.Event(), threading.Event()
        thread = threading.Thread(target=lambda: (ready.set(), done.wait()))
        thread.start()
        assert ready.wait(30)
        try:
            assert not _may_fork()
        finally:
            done.set()
            thread.join(30)
        assert not thread.is_alive()
        with monkeypatch.context() as patch:
            # Python 3.12 and later warn when a process with threads forks
            patch.setattr(sys, "version_info", (3, 12, 0))
            assert not _may_fork()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not _may_fork()
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
        assert not _may_fork()
        assert forks == []

    @pytest.mark.parametrize("value, message", [
        ("oops", "unparseable price"), ("0", "non-positive price"),
        ("nan", "non-finite price"), ("\udcff", "invalid UTF-8")])
    # rows in the first and second halves, and the two either side of the middle
    @pytest.mark.parametrize("row", [_row_at(0.25), _row_at(0.5), _row_at(0.5) + 1,
                                     _row_at(0.75), len(_ROWS)])
    def test_bad_row_in_either_part_is_named(self, cpus, forks, tmp_path, value, message, row):
        rows = list(_ROWS)
        rows[row - 1] = f"{row - 1},{value}"
        with pytest.raises(ValueError, match=f"^{message} at row {row}$"):
            load_prices(_rows_file(tmp_path, rows))
        assert forks == []

    def test_each_part_is_read_once(self, cpus, forks, tmp_path):
        # a regular file of many chunks, with two CPUs reported
        p = load_prices(_rows_file(tmp_path, _ROWS))
        assert p.timestamps.tolist() == [str(i).encode() for i in range(len(_ROWS))]
        assert p.prices.tolist() == [100 + i % 7 + 0.25 for i in range(len(_ROWS))]
        assert forks == []

    @pytest.mark.parametrize("fractions", [(0.1, 0.3), (0.3, 0.7), (0.6, 0.9)])
    def test_of_two_bad_rows_the_earlier_is_named(self, cpus, forks, tmp_path, fractions):
        first, second = map(_row_at, fractions)
        rows = list(_ROWS)
        rows[first - 1] = f"{first - 1},-3"
        rows[second - 1] = "x,y"
        with pytest.raises(ValueError, match=f"^non-positive price at row {first}$"):
            load_prices(_rows_file(tmp_path, rows))
        assert forks == []

    def test_no_worker_for_a_stream_or_a_pipe(self, cpus, forks, tmp_path):
        text = _rows_file(tmp_path, _ROWS).read_text()
        assert len(load_prices(io.StringIO(text))) == len(_ROWS)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", f'cat "{tmp_path / "p.csv"}" > "{fifo}"'])
        try:
            assert len(load_prices(fifo)) == len(_ROWS)
        finally:
            writer.kill()  # if the fifo was never opened to be read
            writer.wait(30)
        assert forks == []

    # the stream fails in this process's half, or at the worker's first block
    @_needs_fork
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_a_stream_that_fails_leaves_no_worker(self, cpus, forks, blocks):
        class Failing(io.StringIO):
            """Takes the header and some blocks, then fails as a full disk does."""
            writes = 1 + blocks

            def write(self, text):
                if self.writes == 0:
                    raise OSError("No space left on device")
                self.writes -= 1
                return super().write(text)

        p = PriceSeries(range(5 * _BLOCK_ROWS), np.arange(1.0, 5 * _BLOCK_ROWS + 1))
        stream = Failing()
        with pytest.raises(OSError, match="No space left on device"):
            write_prices(p, stream)
        assert len(forks) == 1
        assert_reaped(forks)
        assert stream.getvalue().count("\n") == 1 + blocks * _BLOCK_ROWS
        assert written(p).startswith(stream.getvalue())


class TestParsedFileCache:
    """A regular file's parsed arrays are kept in the cache directory, keyed by
    the file's bytes, and read back in place of a parse: same arrays, same
    errors, and a cache that cannot be used or holds a bad entry leaves the
    parse's result."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        """The cache directory, turned on under the test's own XDG_CACHE_HOME."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "mktinfo"

    @staticmethod
    def entries(cache):
        return sorted(cache.iterdir()) if cache.exists() else []

    @staticmethod
    def hit(path, mode="close"):
        """load_prices(path, mode) with the parser made to fail: only an entry can give it."""
        def no_parse(*args):
            raise AssertionError("parsed, not read from the cache")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csvio, "_parse_prices", no_parse)
            return load_prices(path, mode)

    @staticmethod
    def assert_same(got, want):
        for a, b in ((got.timestamps, want.timestamps), (got.prices, want.prices)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_price_text())
    def test_a_hit_is_the_parse_and_an_error_is_stored_never(self, tmp_path, text_mode_bytes):
        text, mode, _ = text_mode_bytes
        source = tmp_path / "p.csv"
        source.write_bytes(text.encode("utf-8", "surrogateescape"))
        try:
            want = load_prices(source, mode)  # the suite's cache is off
        except ValueError as exc:
            want = str(exc)
        with pytest.MonkeyPatch.context() as patch:
            cache = tmp_path / "xdg"
            shutil.rmtree(cache, ignore_errors=True)
            patch.setenv("XDG_CACHE_HOME", str(cache))
            if isinstance(want, str):
                for _ in range(2):
                    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                        load_prices(source, mode)
                assert self.entries(cache / "mktinfo") == []
            else:
                self.assert_same(load_prices(source, mode), want)
                assert len(self.entries(cache / "mktinfo")) == 1
                self.assert_same(self.hit(source, mode), want)

    def test_each_mode_and_each_byte_has_its_own_entry(self, cache, tmp_path, monkeypatch):
        monkeypatch.setattr(csvio, "_HASH_BYTES", 4)  # a file of many reads
        f = tmp_path / "p.csv"
        f.write_text("time,close,high,low\n1,5,6,4\n2,7,10,5\n")
        assert load_prices(f).prices.tolist() == [5.0, 7.0]
        assert load_prices(f, "midrange").prices.tolist() == [5.0, 7.5]
        assert self.hit(f, "midrange").prices.tolist() == [5.0, 7.5]
        f.write_text("time,close,high,low\n1,5,6,4\n2,8,10,5\n")
        assert load_prices(f).prices.tolist() == [5.0, 8.0]
        assert len(self.entries(cache)) == 3
        assert self.hit(f).prices.tolist() == [5.0, 8.0]

    @pytest.mark.parametrize("text, message", [
        ("time,close\n1,5\n2,oops\n", "unparseable price at row 2"),
        ("time,close\n1,5\n1,6\n", "non-monotone timestamps at row 2"),
        ("time,open\n1,5\n2,6\n", "missing required column 'close' for mode 'close'"),
    ])
    def test_a_failed_load_stores_nothing_and_fails_again(self, cache, tmp_path, text, message):
        f = tmp_path / "p.csv"
        f.write_text(text)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_prices(f)
        assert self.entries(cache) == []

    def test_a_file_changed_while_parsed_is_not_stored(self, cache, tmp_path, monkeypatch):
        f = tmp_path / "p.csv"
        f.write_text("time,close\n1,5\n2,6\n")
        parse = csvio._parse_prices

        def then_touched(*args):
            result = parse(*args)
            os.utime(f, ns=(0, 0))
            return result

        monkeypatch.setattr(csvio, "_parse_prices", then_touched)
        assert load_prices(f).prices.tolist() == [5.0, 6.0]
        assert self.entries(cache) == []

    @pytest.mark.parametrize("spoil", [
        lambda entry: entry[:-3],  # cut short
        lambda entry: entry + b"\0",  # trailing bytes
        lambda entry: b"",
        lambda entry: entry[:10],  # part of a header
        lambda entry: b"garbage" * 40,
        # a header that claims 10**12 rows allocates nothing
        lambda entry: (10**12).to_bytes(8, "little") + entry[8:],
        # labels of width 0, in an entry of the size that gives
        lambda entry: entry[:8] + bytes(8) + entry[-16:],
        # one row of width 10 fills the same bytes as two of width 1
        lambda entry: (1).to_bytes(8, "little") + (10).to_bytes(8, "little") + entry[16:],
        # well formed, but not what build accepts: prices of 0
        lambda entry: entry[:-16] + bytes(16),
    ])
    def test_a_bad_entry_is_parsed_again_and_replaced(self, cache, tmp_path, spoil):
        f = tmp_path / "p.csv"
        f.write_text("time,close\n1,5\n2,6\n")
        want = load_prices(f)
        [entry] = self.entries(cache)
        entry.write_bytes(spoil(entry.read_bytes()))
        self.assert_same(load_prices(f), want)
        self.assert_same(self.hit(f), want)

    @pytest.mark.parametrize("setup", ["under-a-file", "shared", "relative"])
    def test_an_unusable_directory_leaves_the_parse(self, tmp_path, monkeypatch, setup):
        f = tmp_path / "p.csv"
        f.write_text("time,close\n1,5\n2,6\n")
        xdg = tmp_path / "xdg"
        home = tmp_path / "home"
        monkeypatch.setenv("HOME", str(home))
        if setup == "under-a-file":
            xdg.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(xdg / "cache"))
        elif setup == "shared":
            (xdg / "mktinfo").mkdir(parents=True)
            (xdg / "mktinfo").chmod(0o777)
            monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        else:  # a relative XDG_CACHE_HOME is ignored: ~/.cache is used
            monkeypatch.setenv("XDG_CACHE_HOME", "xdg")
        assert load_prices(f).prices.tolist() == [5.0, 6.0]
        assert load_prices(f).prices.tolist() == [5.0, 6.0]
        stored = self.entries(home / ".cache" / "mktinfo")
        assert len(stored) == (setup == "relative")
        if setup == "shared":
            assert self.entries(xdg / "mktinfo") == []

    def test_the_directory_is_made_private(self, cache, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("time,close\n1,5\n2,6\n")
        load_prices(f)
        assert cache.stat().st_mode & 0o777 == 0o700

    def test_the_byte_cap_evicts_the_least_recently_used(self, cache, tmp_path, monkeypatch):
        files = {}
        for name in "abc":
            files[name] = tmp_path / f"{name}.csv"
            files[name].write_text(f"time,close\n1,5\n2,{ord(name)}\n")
        stored = {}
        for name in "ab":
            before = set(self.entries(cache))
            load_prices(files[name])
            [stored[name]] = set(self.entries(cache)) - before
        # a is used before b, long ago
        os.utime(stored["a"], ns=(10**9, 10**9))
        os.utime(stored["b"], ns=(2 * 10**9, 2 * 10**9))
        size = stored["a"].stat().st_size
        monkeypatch.setattr(csvio, "_CACHE_BYTES", 2 * size + size // 2)
        self.hit(files["a"])  # a is now the last used
        assert stored["a"].stat().st_mtime_ns > 2 * 10**9
        load_prices(files["c"])
        assert len(self.entries(cache)) == 2
        assert stored["a"].exists() and not stored["b"].exists()
        self.hit(files["c"])

    def test_an_entry_larger_than_the_cap_is_not_written(self, cache, tmp_path, monkeypatch):
        def no_write(*args, **kwargs):
            raise AssertionError("written, though larger than the cap")

        monkeypatch.setattr(csvio, "_CACHE_BYTES", 8)
        monkeypatch.setattr(os, "replace", no_write)
        f = tmp_path / "p.csv"
        f.write_text("time,close\n1,5\n2,6\n")
        assert load_prices(f).prices.tolist() == [5.0, 6.0]
        assert self.entries(cache) == []

    def test_streams_pipes_and_stdin_are_never_stored(self, cache, tmp_path):
        f = _rows_file(tmp_path, _ROWS)
        assert len(load_prices(io.StringIO(f.read_text()))) == len(_ROWS)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", f'cat "{f}" > "{fifo}"'])
        try:
            assert len(load_prices(fifo)) == len(_ROWS)
        finally:
            writer.kill()  # if the fifo was never opened to be read
            writer.wait(30)
        # the CLI's stdin is a stream, even when it is a regular file
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(csvio.__file__)))
        with open(f, "rb") as stdin:
            done = subprocess.run([sys.executable, "-m", "mktinfo", "hurst", "-"], stdin=stdin,
                                  env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert self.entries(cache) == []


class TestJsonText:
    def test_numpy_scalars_are_written_as_their_python_values(self):
        assert _json_text({"x": np.float32(0.1)}) == '{\n  "x": 0.10000000149011612\n}\n'
        assert (_json_text([np.int64(3), np.bool_(True), np.float16(0.5), np.uint8(7)])
                == _json_text([3, True, 0.5, 7]))

    @pytest.mark.parametrize("value", [np.float32("nan"), np.float16("inf"),
                                       np.float64("-inf"), float("nan")])
    def test_a_non_finite_scalar_raises(self, value):
        # np.float32('nan') and np.float16('inf') were written as null
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text({"x": value})

    def test_other_objects_raise_type_error(self):
        with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
            _json_text({"x": {1}})


def written(series):
    buf = io.StringIO()
    write_prices(series, buf)
    return buf.getvalue()


# ASCII number text and whitespace, and non-ASCII digits and spaces, which
# float() of a decoded str would read but float() of the bytes does not
_ASCII_NUMBER_TEXT = "0123456789+-._eE" + "infatyINFATY" + " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_NON_ASCII_TEXT = "\u00a0\u0085\u2000\u3000\u0661\u0662\u06f3\u0967"
_label_text = st.one_of(
    st.text(_ASCII_NUMBER_TEXT, max_size=10),
    st.text(_ASCII_NUMBER_TEXT + _NON_ASCII_TEXT, max_size=10),
    st.builds(lambda a, x, b: a + x + b, st.text(" \t\u00a0\u2000", max_size=2),
              st.one_of(st.floats().map(repr), st.integers().map(str),
                        st.text("0123456789\u0661\u0662\u06f3", min_size=1, max_size=6)),
              st.text(" \n\u0085\u3000", max_size=2)))


def _nan_as_one(keys: np.ndarray) -> bytes:
    """The keys' bytes with every NaN the same: a NaN key is unordered whatever its sign."""
    return np.where(np.isnan(keys), np.nan, keys).tobytes()


class TestLabels:
    """Labels are one read-only array: UTF-8 `S` text from load_prices,
    ordered as today's str labels and written back as they were read."""

    @given(st.lists(_label_text, min_size=1, max_size=20))
    def test_keys_are_python_ints_or_floats_of_the_bytes(self, labels):
        raw = np.array([t.encode() for t in labels], dtype="S")
        keys = _timestamp_keys(raw)
        with contextlib.suppress(ValueError):
            ints = [int(t.encode()) for t in labels]
            if all(-2 ** 63 <= i < 2 ** 63 for i in ints):
                assert keys.dtype == np.int64 and keys.tolist() == ints
                return
        try:
            want = np.array([float(t.encode()) for t in labels])
        except ValueError:
            assert keys is raw
            return
        assert keys.dtype == np.float64 and _nan_as_one(keys) == _nan_as_one(want)

    @pytest.mark.parametrize("edits", [
        {}, {-1: "65540.5"}, {3: "3.5"}, {_BLOCK_ROWS + 7: "9223372036854775808"},
        {-1: "x"}, {0: "-0", -1: "65540.5"}],
        ids=["integers", "decimal-in-last-block", "decimal-in-first-block",
             "two-to-the-63-mid-series", "late-text", "minus-zero-then-late-decimal"])
    def test_keys_over_many_blocks_are_each_labels_int_else_float_else_bytes(self, edits):
        # a label late in the text decides the rule for every earlier block
        labels = [str(i) for i in range(4 * _BLOCK_ROWS + 5)]
        for i, label in edits.items():
            labels[i] = label
        raw = np.array([t.encode() for t in labels])
        want = labels
        for parse in (int, float):
            with contextlib.suppress(ValueError):
                want = [parse(t) for t in labels]
                if parse is float or all(-2 ** 63 <= i < 2 ** 63 for i in want):
                    break
        else:
            want = raw.tolist()
        keys = _timestamp_keys(raw)
        # compared by ==, so that -0.0 and 0.0 agree
        assert keys.dtype.kind == {int: "i", float: "f", bytes: "S"}[type(want[0])]
        assert keys.tolist() == want
        row = next((i + 2 for i in range(len(want) - 1) if not want[i] < want[i + 1]), None)
        if row is None:
            PriceSeries(raw, np.ones(len(raw)))
        else:
            with pytest.raises(ValueError, match=f"^non-monotone timestamps at row {row}$"):
                PriceSeries(raw, np.ones(len(raw)))

    def test_non_ascii_labels_round_trip(self):
        text = "timestamp,close\né,5.0\n日本,6.0\n"
        p = load_prices(io.StringIO(text))
        np.testing.assert_array_equal(p.timestamps, ["é".encode(), "日本".encode()])
        assert written(p) == text
        with pytest.raises(ValueError, match="^non-monotone timestamps at row 2$"):
            load_prices(io.StringIO("timestamp,close\n日本,5\né,6\n"))

    def test_text_labels_order_by_code_point(self):
        # UTF-8 byte order is code-point order, across 1- to 4-byte sequences
        labels = ["a", "z", "é", "ÿ", "Ā", "ſ", "日本", "\U0001F600"]
        assert labels == sorted(labels)
        text = "timestamp,close\n" + "".join(f"{t},{i + 1}.0\n" for i, t in enumerate(labels))
        p = load_prices(io.StringIO(text))
        assert written(p) == text
        for i in range(len(labels) - 1):
            swapped = list(labels)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            bad = "timestamp,close\n" + "".join(f"{t},1.0\n" for t in swapped)
            with pytest.raises(ValueError, match=f"^non-monotone timestamps at row {i + 2}$"):
                load_prices(io.StringIO(bad))

    def test_ascii_and_non_ascii_blocks_join(self, monkeypatch):
        # the first chunk reads its labels as bytes, the second as str
        labels = [f"a{i:05d}" for i in range(100)] + ["é1", "é2", "日本"]
        rows = [f"{t},{i + 1}.5\n" for i, t in enumerate(labels)]
        ascii_rows, other_rows = "".join(rows[:100]), "".join(rows[100:])
        monkeypatch.setattr(csvio, "_CHUNK_CHARS", len(ascii_rows))
        assert list(csvio._chunks(io.StringIO(ascii_rows + other_rows))) == [ascii_rows,
                                                                              other_rows]
        text = "timestamp,close\n" + ascii_rows + other_rows
        p = load_prices(io.StringIO(text))
        np.testing.assert_array_equal(p.timestamps, [t.encode() for t in labels])
        assert written(p) == text

    def test_labels_with_comma_quote_or_leading_hash_are_quoted(self):
        p = PriceSeries(["#x", "a,b", "c#", 'q"'], [1.0, 2.0, 3.0, 4.0])
        assert written(p) == 'timestamp,close\n"#x",1.0\n"a,b",2.0\nc#,3.0\n"q""",4.0\n'
        np.testing.assert_array_equal(load_prices(io.StringIO(written(p))).timestamps,
                                      p.timestamps)

    @pytest.mark.parametrize("labels, row", [
        (["a", "a\nb"], 2), (["a", "a\rb"], 2), ([" a", "b"], 1), (["a", "ab\u3000"], 2),
        ([f"a{i:05d}" for i in range(_BLOCK_ROWS)] + ["b "], _BLOCK_ROWS + 1)])
    def test_label_load_prices_cannot_read_back_raises_before_any_row(self, labels, row):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"^label at row {row} cannot be written: "):
            write_prices(PriceSeries(labels, np.arange(1.0, len(labels) + 1)), buf)
        assert buf.getvalue() == ""

    def test_quoted_comma_and_surrounding_whitespace(self):
        text = ('timestamp,close\n"2024-01-02, 10:00",5\n \t2024-01-03 ,6\n'
                '\x1c2024-01-04\x1f,7\n\u00a02024-01-05\u2003,8\n')
        p = load_prices(io.StringIO(text))
        np.testing.assert_array_equal(p.timestamps, [b"2024-01-02, 10:00", b"2024-01-03",
                                                     b"2024-01-04", b"2024-01-05"])

    def test_stripped_like_str_strip(self):
        # every ASCII character str.strip() removes, and one it keeps (\x1b)
        spaces = "".join(chr(c) for c in range(128) if chr(c).isspace() and chr(c) not in "\n\r")
        text = f"timestamp,close\n{spaces}a{spaces},5\nb\x1b,6\n"
        p = load_prices(io.StringIO(text))
        np.testing.assert_array_equal(p.timestamps, [b"a", b"b\x1b"])

    def test_numeric_labels_order_as_numbers(self):
        p = load_prices(io.StringIO("timestamp,close\n2,5\n10,6\n10.5,7\n1e2,8\n"))
        np.testing.assert_array_equal(p.timestamps, [b"2", b"10", b"10.5", b"1e2"])
        with pytest.raises(ValueError, match="^non-monotone timestamps at row 2$"):
            load_prices(io.StringIO("timestamp,close\n10,5\n9,6\n"))
        with pytest.raises(ValueError, match="^non-monotone timestamps at row 3$"):
            load_prices(io.StringIO("timestamp,close\n007,5\n8,6\n08,7\n"))
        # non-ASCII digits are text, ordered by code point: 9 (U+0669) after 1 (U+0661)
        with pytest.raises(ValueError, match="^non-monotone timestamps at row 2$"):
            load_prices(io.StringIO("timestamp,close\n\u0669,5\n\u0661\u0660,6\n"))

    def test_integers_above_two_to_the_53(self):
        # integers that round to one float64 still compare exactly:
        # nanosecond epochs are spaced 1 apart where float64 is spaced 256
        ns = "timestamp,close\n1700000000000000000,1\n1700000000000000001,2\n"
        np.testing.assert_array_equal(load_prices(io.StringIO(ns)).timestamps,
                                      [b"1700000000000000000", b"1700000000000000001"])
        for pair in [(2 ** 53, 2 ** 53 + 1), (2 ** 63 - 2, 2 ** 63 - 1), (-2 ** 63, 1 - 2 ** 63)]:
            for labels in (np.array(pair), pair, tuple(map(str, pair))):
                make_series([1.0, 2.0], labels)
        p = make_series([1.0, 2.0], np.array([2 ** 63 - 1, 2 ** 63], dtype=np.uint64))
        assert p.timestamps.dtype == np.uint64
        make_series([1.0, 2.0], ("999999999999998", "999999999999999"))
        for pair in [(2 ** 53 + 1, 2 ** 53 + 1), (2 ** 53 + 1, 2 ** 53), (1, "1.0"),
                     ("9223372036854775807", "9223372036854775808")]:
            for labels in (pair, np.array(pair)):
                with pytest.raises(ValueError, match="^non-monotone timestamps at row 2$"):
                    make_series([1.0, 2.0], labels)

    def test_compact_read_only_array(self):
        labels = ["2024-01-02T10:00:00", "2024-01-02T10:00:01", "2024-01-03 日本"]
        text = "timestamp,close\n" + "".join(f"{t},5\n" for t in labels)
        p = load_prices(io.StringIO(text))
        assert p.timestamps.ndim == 1 and p.timestamps.dtype != object
        assert p.timestamps.nbytes <= len(p) * max(len(t.encode()) for t in labels)
        assert not p.timestamps.flags.writeable
        with pytest.raises(ValueError):
            p.timestamps[0] = b"x"

    def test_other_label_sequences(self):
        assert make_series([1.0, 2.0], range(2)).timestamps.dtype == np.int64
        p = make_series([1.0, 2.0], ["2024-01-01", "2024-01-02"])
        np.testing.assert_array_equal(p.timestamps, [b"2024-01-01", b"2024-01-02"])
        assert p.timestamps.dtype == "S10"
        # more labels than one encoding block, ordered as numbers
        n = _BLOCK_ROWS + 3
        p = make_series(np.ones(n), [str(i) for i in range(n)])
        np.testing.assert_array_equal(p.timestamps, np.arange(n).astype("S"))
        p = make_series([1.0, 2.0, 3.0], (1, 2.5, 10))
        assert written(p).splitlines()[1:] == ["1,1.0", "2.5,2.0", "10,3.0"]
        p = make_series([1.0, 2.0], np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"))
        assert written(p).splitlines()[1:] == ["2024-01-01,1.0", "2024-01-02,2.0"]
        with pytest.raises(ValueError, match="one-dimensional"):
            make_series([1.0, 2.0], np.array([(1, 2), (3, 4)]))

    @pytest.mark.parametrize("labels", [np.arange(3), np.array([b"a", b"b", b"c"])])
    def test_caller_arrays_stay_writable(self, labels):
        prices = np.array([1.0, 2.0, 3.0])
        p = PriceSeries(labels, prices)
        first = labels[0]
        prices[0] = 5.0
        labels[0] = labels[2]
        assert p.prices.tolist() == [1.0, 2.0, 3.0]
        assert p.timestamps[0] == first
        assert not p.prices.flags.writeable and not p.timestamps.flags.writeable
        bits = np.array([0, 1], dtype=np.uint8)
        j = IndicatorSeries(1, bits)
        bits[0] = 1
        assert j.bits.tolist() == [0, 1]

    def test_read_only_arrays_are_held_without_a_copy(self):
        prices, labels = np.array([1.0, 2.0]), np.arange(2)
        prices.flags.writeable = labels.flags.writeable = False
        p = PriceSeries(labels, prices)
        assert p.prices is prices and p.timestamps is labels


class TestReturnsAndIndicators:
    def test_returns_m1(self):
        p = make_series([100.0, 110.0, 99.0])
        r = compute_returns(p, 1)
        np.testing.assert_allclose(r, [0.1, -0.1])
        assert r.dtype == np.float64 and not r.flags.writeable

    def test_returns_m2(self):
        p = make_series([100.0, 110.0, 99.0, 120.0])
        r = compute_returns(p, 2)
        np.testing.assert_allclose(r, [-0.01, 120.0 / 110.0 - 1.0])

    def test_len_is_the_number_of_values(self):
        assert len(IndicatorSeries(2, [1, 0])) == 2

    def test_horizon_too_long(self):
        p = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="horizon exceeds series length"):
            compute_returns(p, 3)

    def test_horizon_validation(self):
        p = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive integer"):
            compute_returns(p, 0)

    @pytest.mark.parametrize("m, message", [
        (0, "return horizon m must be a positive integer"),
        (1.0, "return horizon m must be a positive integer"),
        (3, "horizon exceeds series length")])
    def test_sign_indicators_check_the_horizon_as_returns_do(self, m, message):
        p = make_series([1.0, 2.0, 3.0])
        for signs in (compute_returns, to_indicators):
            with pytest.raises(ValueError, match=message):
                signs(p, m)

    def test_overflowing_return_raises_without_a_warning(self):
        p = make_series([1e-300, 1e300, 1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="returns must be finite"):
                compute_returns(p, 1)
            assert to_indicators(p, 1).bits.tolist() == [1, 0, 1, 1]

    @given(st.lists(st.one_of(
               st.floats(min_value=5e-324, max_value=np.finfo(np.float64).max),
               st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, 1e300,
                                float(np.finfo(np.float64).max)])),
               min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.sampled_from([-1, 0, 1])),
                    min_size=2, max_size=40))
    def test_sign_indicators_match_the_returns_route(self, pool, picks):
        # prices drawn from a small pool, so ties are common, each possibly
        # moved one ulp, so neighbouring floats meet too
        towards = {-1: 0.0, 1: np.finfo(np.float64).max}
        prices = np.array([pool[i % len(pool)] if step == 0 else
                           np.nextafter(pool[i % len(pool)], towards[step]) for i, step in picks])
        prices = prices[prices > 0.0]
        assume(len(prices) >= 2)
        p = make_series(prices)
        for m in range(1, min(6, len(p))):
            got = to_indicators(p, m)
            assert got.m == m and got.bits.dtype == np.uint8 and not got.bits.flags.writeable
            try:
                want = compute_returns(p, m) > 0.0
            except ValueError:  # an overflowing return: its sign is still read
                assert got.bits.tolist() == (p.prices[m:] > p.prices[:-m]).tolist()
                continue
            assert got.bits.tolist() == want.tolist()

    def test_indicators_ties_are_zero(self):
        # equal neighbours are a zero return; the last rise is one ulp
        p = make_series([1.0, 1.5, 1.5, 1.0, np.nextafter(1.0, 2.0)])
        j = to_indicators(p, 1)
        np.testing.assert_array_equal(j.bits, [1, 0, 0, 1])
        assert j.bits.dtype == np.uint8

    def test_indicator_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            IndicatorSeries(1, np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="positive integer"):
            IndicatorSeries(0, np.array([0, 1], dtype=np.uint8))

    @pytest.mark.parametrize("bits", [[], np.empty(0, dtype=np.uint8), np.zeros((0, 2))])
    def test_empty_indicator_series_is_rejected(self, bits):
        # as a profile input it would give n = 0 and every cell null
        with pytest.raises(ValueError, match="^indicator series needs at least 1 value$"):
            IndicatorSeries(1, bits)

    # each was cast to uint8 before the check: wrapped to 0 or truncated
    @pytest.mark.parametrize("bits", [np.array([0, 256, 1]), np.array([0.5, 1.0, 0.0]),
                                      [0, 1.7, 1], np.array([0, 1, 2 ** 32]),
                                      np.array(["0", "1"]), np.array([[0, 1]]), np.uint8(1)],
                             ids=["256", "half", "list-1.7", "2**32", "text", "2-D", "0-D"])
    def test_indicators_not_exactly_0_or_1_are_rejected(self, bits):
        with pytest.raises(ValueError, match="^indicator values must be 0 or 1$"):
            IndicatorSeries(1, bits)

    @pytest.mark.parametrize("bits", [[1, 0, 1], [1.0, 0.0, 1.0], [True, False, True],
                                      np.array([1, 0, 1], dtype=np.int64)])
    def test_indicators_of_any_numeric_type(self, bits):
        j = IndicatorSeries(1, bits)
        assert j.bits.dtype == np.uint8 and j.bits.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_read_only_indicators_are_held_without_a_copy(self, dtype):
        given = np.array([1, 0, 1], dtype=dtype)
        given.flags.writeable = False
        assert np.shares_memory(IndicatorSeries(1, given).bits, given)
