"""Price ingestion, returns, indicators, and word extraction."""

import io
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mktinfo.series import (
    MAX_L,
    IndicatorSeries,
    PriceSeries,
    ReturnSeries,
    WordDistribution,
    compute_returns,
    extract_words,
    load_prices,
    to_indicators,
    write_prices,
    _BLOCK_ROWS,
    _json_text,
    _sign_indicators,
    _timestamp_keys,
)


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

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown price mode"):
            PriceSeries((0, 1), np.array([1.0, 2.0]), "open")

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
        assert p.price_mode == "midrange"

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
    def test_round_trip_across_blocks(self):
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
    def test_keys_are_python_floats_of_the_bytes(self, labels):
        raw = np.array([t.encode() for t in labels], dtype="S")
        try:
            want = np.array([float(t.encode()) for t in labels])
        except ValueError:
            want = None
        keys = _timestamp_keys(raw)
        if want is None:
            assert keys is raw
        else:
            assert keys.dtype == np.float64 and _nan_as_one(keys) == _nan_as_one(want)

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

    def test_ascii_and_non_ascii_blocks_join(self):
        # the first block reads its labels as bytes, the second as str
        labels = [f"a{i:05d}" for i in range(_BLOCK_ROWS)] + ["é1", "é2", "日本"]
        text = "timestamp,close\n" + "".join(f"{t},{i + 1}.5\n" for i, t in enumerate(labels))
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
        values = np.array([0.5, -0.5])
        j, r = IndicatorSeries(1, bits), ReturnSeries(1, values)
        bits[0], values[0] = 1, 9.0
        assert j.bits.tolist() == [0, 1] and r.values.tolist() == [0.5, -0.5]

    def test_read_only_arrays_are_held_without_a_copy(self):
        prices, labels = np.array([1.0, 2.0]), np.arange(2)
        prices.flags.writeable = labels.flags.writeable = False
        p = PriceSeries(labels, prices)
        assert p.prices is prices and p.timestamps is labels


class TestReturnsAndIndicators:
    def test_returns_m1(self):
        p = make_series([100.0, 110.0, 99.0])
        r = compute_returns(p, 1)
        np.testing.assert_allclose(r.values, [0.1, -0.1])
        assert r.m == 1

    def test_returns_m2(self):
        p = make_series([100.0, 110.0, 99.0, 120.0])
        r = compute_returns(p, 2)
        np.testing.assert_allclose(r.values, [-0.01, 120.0 / 110.0 - 1.0])

    def test_len_is_the_number_of_values(self):
        assert len(ReturnSeries(2, [0.1, -0.2, 0.3])) == 3
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
        for signs in (compute_returns, _sign_indicators):
            with pytest.raises(ValueError, match=message):
                signs(p, m)

    def test_overflowing_return_raises_without_a_warning(self):
        p = make_series([1e-300, 1e300, 1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="returns must be finite"):
                compute_returns(p, 1)
            assert _sign_indicators(p, 1).bits.tolist() == [1, 0, 1, 1]

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
            got = _sign_indicators(p, m)
            assert got.m == m and got.bits.dtype == np.uint8 and not got.bits.flags.writeable
            try:
                want = to_indicators(compute_returns(p, m))
            except ValueError:  # an overflowing return: its sign is still read
                assert got.bits.tolist() == (p.prices[m:] > p.prices[:-m]).tolist()
                continue
            assert got.bits.tobytes() == want.bits.tobytes()

    def test_indicators_ties_are_zero(self):
        r = ReturnSeries(1, np.array([0.5, 0.0, -0.5, 1e-300]))
        j = to_indicators(r)
        np.testing.assert_array_equal(j.bits, [1, 0, 0, 1])
        assert j.bits.dtype == np.uint8

    def test_indicator_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            IndicatorSeries(1, np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="positive integer"):
            IndicatorSeries(0, np.array([0, 1], dtype=np.uint8))

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


class TestExtractWords:
    def test_stride_one(self):
        j = IndicatorSeries(1, np.array([1, 0, 1, 1], dtype=np.uint8))
        d = extract_words(j, 2)
        assert d.counts == {"10": 1, "01": 1, "11": 1}
        assert d.total == 3
        assert d.word_length == 2 and d.stride == 1

    def test_stride_two(self):
        j = IndicatorSeries(2, np.array([1, 0, 1, 1], dtype=np.uint8))
        d = extract_words(j, 2)
        # windows are (bits[0], bits[2]) and (bits[1], bits[3])
        assert d.counts == {"11": 1, "01": 1}

    def test_restricted_windows(self):
        j = IndicatorSeries(1, np.array([1, 0, 1, 1], dtype=np.uint8))
        d = extract_words(j, 2, n_windows=2)
        assert d.total == 2
        assert d.counts == {"10": 1, "01": 1}

    def test_earliest_bit_is_leftmost(self):
        j = IndicatorSeries(1, np.array([1, 0, 0], dtype=np.uint8))
        d = extract_words(j, 3)
        assert d.counts == {"100": 1}

    def test_too_short(self):
        j = IndicatorSeries(3, np.array([1, 0, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match=r"series too short for \(L=2, m=3\)"):
            extract_words(j, 2)

    def test_word_length_validation(self):
        j = IndicatorSeries(1, np.array([1, 0], dtype=np.uint8))
        with pytest.raises(ValueError, match="word length"):
            extract_words(j, 0)

    def test_deep_words_count_only_those_that_occur(self):
        bits = np.random.default_rng(11).integers(0, 2, size=200, dtype=np.uint8)
        L = MAX_L + 1  # 2**31 possible words, 170 windows
        d = extract_words(IndicatorSeries(1, bits), L)
        assert d.counts == reference_words(bits, L, 1, 200 - L + 1)
        assert d.total == 200 - L + 1

    @pytest.mark.parametrize("L", [MAX_L + 2, 70])
    def test_words_beyond_the_limit_rejected(self, L):
        j = IndicatorSeries(1, np.zeros(200, dtype=np.uint8))
        with pytest.raises(ValueError, match=f"word length {L} exceeds the limit of {MAX_L + 1}"):
            extract_words(j, L)


def reference_words(bits, L, m, n_windows):
    """Word counts by reading each window's letters one by one."""
    return dict(Counter("".join(str(bits[i + k * m]) for k in range(L))
                        for i in range(n_windows)))


class TestWordCountArray:
    """Word counts in code order, and the counts of their prefixes over the
    same starts, as extract_words gives them."""

    def test_hand_case(self):
        # windows at stride 1: 10, 01, 11 -> codes 2, 1, 3
        j = IndicatorSeries(1, np.array([1, 0, 1, 1], dtype=np.uint8))
        d = extract_words(j, 2)
        assert list(d.counts.items()) == [("01", 1), ("10", 1), ("11", 1)]
        assert d.total == 3
        # prefixes 0 and 1, over the same 3 starts
        assert list(extract_words(j, 1, n_windows=3).counts.items()) == [("0", 1), ("1", 2)]

    def test_stride_skips(self):
        # windows at stride 2: (b0, b2) = 11, (b1, b3) = 01
        j = IndicatorSeries(2, np.array([1, 0, 1, 1], dtype=np.uint8))
        d = extract_words(j, 2)
        assert list(d.counts.items()) == [("01", 1), ("11", 1)]
        assert d.total == 2
        assert list(extract_words(j, 1, n_windows=2).counts.items()) == [("0", 1), ("1", 1)]

    def test_window_restriction(self):
        j = IndicatorSeries(1, np.array([1, 1, 0, 0, 1], dtype=np.uint8))
        d = extract_words(j, 1, 3)
        assert list(d.counts.items()) == [("0", 1), ("1", 2)]
        assert d.total == 3

    def test_against_reference(self):
        # dense (2**L <= windows) and sparse (more words than windows) sides
        rng = np.random.default_rng(0)
        for n in (13, 100, 4096):
            bits = rng.integers(0, 2, size=n, dtype=np.uint8)
            for L in (1, 2, 3, 7, 10, 14):
                for m in (1, 2, 3):
                    n_win = n - (L - 1) * m
                    if n_win < 1:
                        continue
                    j = IndicatorSeries(m, bits)
                    for restrict in (None, (n_win + 1) // 2):
                        d = extract_words(j, L, restrict)
                        want_win = n_win if restrict is None else restrict
                        want = reference_words(bits, L, m, want_win)
                        assert d.total == want_win == sum(d.counts.values())
                        assert d.counts == want
                        assert list(d.counts) == sorted(want)
                        if L == 1:
                            continue  # the one empty prefix counts d.total
                        prefixes = Counter()
                        for word, c in want.items():
                            prefixes[word[:-1]] += c
                        prefix = extract_words(j, L - 1, n_windows=want_win).counts
                        assert list(prefix.items()) == sorted(prefixes.items())


class TestWordDistribution:
    def test_count_sum_checked(self):
        with pytest.raises(ValueError, match="do not sum"):
            WordDistribution(1, 1, {"0": 1, "1": 1}, 3)

    def test_malformed_key(self):
        with pytest.raises(ValueError, match="malformed word key"):
            WordDistribution(2, 1, {"0x": 2}, 2)

    def test_no_observations(self):
        with pytest.raises(ValueError, match="no observations"):
            WordDistribution(1, 1, {}, 0)

    @pytest.mark.parametrize("counts", [{"0": 1.5, "1": 1.5}, {"0": 2.0, "1": 1},
                                        {"0": True, "1": 2}, {"0": -1, "1": 4}])
    def test_counts_are_non_negative_integers(self, counts):
        # 1.5 + 1.5 gave an entropy of 1.0566 bits, above a 1-letter word's 1-bit ceiling
        with pytest.raises(ValueError, match="^counts must be non-negative integers$"):
            WordDistribution(1, 1, counts, 3)

    @pytest.mark.parametrize("total", [2.0, True, np.float64(2)],
                             ids=["float", "bool", "numpy-float"])
    def test_total_is_a_positive_integer(self, total):
        with pytest.raises(ValueError, match="no observations"):
            WordDistribution(1, 1, {"0": 1, "1": 1}, total)

    def test_numpy_integer_counts(self):
        d = WordDistribution(1, 1, {"0": np.int64(1), "1": 0}, np.int64(1))
        assert d.total == 1 and type(d.total) is int
