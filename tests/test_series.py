"""Price ingestion, returns, indicators, and word extraction."""

import io
from collections import Counter

import numpy as np
import pytest

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
    _word_count_array,
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
        assert p.timestamps == ("1", "2", "3")

    def test_stream_comments_and_blanks(self):
        text = "# a comment\n\ndate,CLOSE\n1,5\n# another\n2,6\n\n"
        p = load_prices(io.StringIO(text))
        np.testing.assert_allclose(p.prices, [5.0, 6.0])

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
            assert p.timestamps == expected[1]

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"])
    def test_crlf_and_cr_files(self, tmp_path, eol):
        f = tmp_path / "p.csv"
        f.write_bytes(eol.join([b"timestamp,close", b"1,5", b"", b"2,6", b""]))
        p = load_prices(f)
        np.testing.assert_array_equal(p.prices, [5.0, 6.0])
        assert p.timestamps == ("1", "2")

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
        assert len(p) == n and p.timestamps[-1] == str(n - 1)
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
        assert back.timestamps == tuple(str(i) for i in range(n))


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

    def test_horizon_too_long(self):
        p = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="horizon exceeds series length"):
            compute_returns(p, 3)

    def test_horizon_validation(self):
        p = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive integer"):
            compute_returns(p, 0)

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
    """The word counter behind extract_words and the entropy estimators."""

    def test_hand_case(self):
        # windows at stride 1: 10, 01, 11 -> codes 2, 1, 3
        j = IndicatorSeries(1, np.array([1, 0, 1, 1], dtype=np.uint8))
        words, counts, prefix, n_windows = _word_count_array(j, 2)
        np.testing.assert_array_equal(words, [1, 2, 3])
        np.testing.assert_array_equal(counts, [1, 1, 1])
        np.testing.assert_array_equal(prefix, [1, 2])  # prefixes 0 and 1
        assert n_windows == 3

    def test_stride_skips(self):
        # windows at stride 2: (b0, b2) = 11, (b1, b3) = 01
        j = IndicatorSeries(2, np.array([1, 0, 1, 1], dtype=np.uint8))
        words, counts, prefix, n_windows = _word_count_array(j, 2)
        np.testing.assert_array_equal(words, [1, 3])
        np.testing.assert_array_equal(counts, [1, 1])
        np.testing.assert_array_equal(prefix, [1, 1])
        assert n_windows == 2

    def test_window_restriction(self):
        j = IndicatorSeries(1, np.array([1, 1, 0, 0, 1], dtype=np.uint8))
        words, counts, _, n_windows = _word_count_array(j, 1, 3)
        np.testing.assert_array_equal(words, [0, 1])
        np.testing.assert_array_equal(counts, [1, 2])
        assert n_windows == 3

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
                    for restrict in (None, (n_win + 1) // 2):
                        words, counts, prefix, got_win = _word_count_array(
                            IndicatorSeries(m, bits), L, restrict)
                        want_win = n_win if restrict is None else restrict
                        want = reference_words(bits, L, m, want_win)
                        assert got_win == want_win == counts.sum()
                        assert dict(zip((format(w, f"0{L}b") for w in words.tolist()),
                                        counts.tolist())) == want
                        prefixes = Counter()
                        for word, c in want.items():
                            prefixes[word[:-1]] += c
                        assert prefix.tolist() == [prefixes[k] for k in sorted(prefixes)]


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
