"""CLI subcommands driven in-process through main(argv)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mktinfo.cli as cli
import mktinfo.csvio as csvio
import mktinfo.simulate as sim
from mktinfo.information import profile_from_prices, profile_to_json
from mktinfo.scaling import estimate_hurst
from mktinfo.series import load_prices
from mktinfo.simulate import NumericError, simulate_fbm, to_price_series
from mktinfo.theory import FbmParams, info_delampertized, info_fbm, theory_curve


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_fbm_csv_shape(self, capsys):
        code, out, err = run(capsys, "simulate", "fbm", "--hurst", "0.7",
                             "--sigma", "0.01", "--n", "50", "--seed", "1")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "# model=fbm hurst=0.7 sigma=0.01 n=50 dt=1.0 seed=1 p0=100.0"
        assert lines[1] == "timestamp,close"
        assert len(lines) == 2 + 50
        assert float(lines[2].split(",")[1]) == 100.0

    def test_gaussian_sigma_defaults_to_one(self, capsys):
        code, out, _ = run(capsys, "simulate", "fbm", "--n", "20", "--seed", "4")
        assert code == 0
        header, _, rows = out.partition("\n")
        assert header == "# model=fbm hurst=0.5 sigma=1.0 n=20 dt=1.0 seed=4 p0=100.0"
        want = to_price_series(simulate_fbm(FbmParams(0.5, 1.0), 20, 1.0, 4))
        assert [float(row.split(",")[1]) for row in rows.split()[1:]] == want.prices.tolist()

    def test_output_roundtrips_through_loader(self, capsys, tmp_path):
        dest = tmp_path / "sim.csv"
        code, out, _ = run(capsys, "simulate", "fbm", "--sigma", "0.02",
                           "--n", "64", "--seed", "5", "-o", str(dest))
        assert code == 0 and out == ""
        prices = load_prices(dest)
        assert len(prices) == 64
        assert np.all(prices.prices > 0.0)

    def test_output_spanning_write_blocks_is_bit_identical(self, cpus, capsys, tmp_path):
        dest = tmp_path / "sim.csv"
        n = 40_000  # several of the writer's blocks
        code, _, _ = run(capsys, "simulate", "fbm", "--hurst", "0.7", "--sigma", "0.001",
                         "--n", str(n), "--seed", "9", "-o", str(dest))
        assert code == 0
        want = to_price_series(simulate_fbm(FbmParams(0.7, 0.001), n, 1.0, 9))
        got = load_prices(dest)
        assert got.prices.tobytes() == want.prices.tobytes()
        np.testing.assert_array_equal(got.timestamps, np.arange(n).astype("S"))
        assert dest.read_text().count("\n") == n + 2

    def test_pseudo_periodic_defaults_are_positive(self, capsys):
        # unit-variance toy returns are rescaled so compounding stays valid
        code, out, _ = run(capsys, "simulate", "pseudo-periodic",
                           "--n", "3000", "--seed", "0")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("# model=pseudo-periodic beta=-0.9 tau=5 sigma=0.01"
                            " n=3000 seed=0 p0=100.0")
        vals = np.array([float(l.split(",")[1]) for l in lines[2:]])
        assert vals.shape == (3001,)
        assert np.all(vals > 0.0)

    def test_pseudo_periodic_sigma_override(self, capsys):
        _, out_a, _ = run(capsys, "simulate", "pseudo-periodic", "--n", "10",
                          "--seed", "3")
        _, out_b, _ = run(capsys, "simulate", "pseudo-periodic", "--n", "10",
                          "--seed", "3", "--sigma", "0.005")
        assert out_b.split("\n")[0] == ("# model=pseudo-periodic beta=-0.9 tau=5 sigma=0.005"
                                        " n=10 seed=3 p0=100.0")
        ra = np.diff(np.log([float(l.split(",")[1]) for l in out_a.strip().split("\n")[2:]]))
        rb = np.diff(np.log([float(l.split(",")[1]) for l in out_b.strip().split("\n")[2:]]))
        # same signs, smaller magnitude
        np.testing.assert_array_equal(np.sign(ra), np.sign(rb))
        assert np.all(np.abs(rb) < np.abs(ra))

    def test_compounded_price_underflow_is_data_error(self, capsys):
        # no return reaches -1 here; the compounded price underflows to 0
        code, out, err = run(capsys, "simulate", "pseudo-periodic", "--sigma", "0.15",
                             "--n", "200000")
        assert code == 3 and out == ""
        assert err == ("error: compounded price range too wide to convert to prices;"
                       " lower sigma or p0\n")

    def test_delampertized_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "delampertized", "--hurst", "0.3",
                           "--theta", "2.0", "--sigma", "0.01", "--n", "32",
                           "--seed", "7")
        assert code == 0
        assert out.split("\n")[0] == ("# model=delampertized hurst=0.3 theta=2.0 sigma=0.01"
                                      " n=32 dt=1.0 seed=7 p0=100.0")

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise NumericError("covariance not factorizable")
        monkeypatch.setattr(cli, "simulate_fbm", boom)
        code, _, err = run(capsys, "simulate", "fbm", "--n", "16")
        assert code == 4
        assert err.startswith("error: covariance not factorizable")

    def test_embedding_cap_exit_code(self, capsys, monkeypatch):
        # with the floor of the cap removed, the cap is 4n lags, short of the
        # 8n this covariance needs
        monkeypatch.setattr(sim, "_MIN_EMBEDDING_CAP", 0)
        sim._circulant_root.cache_clear()
        try:
            code, out, err = run(capsys, "simulate", "delampertized", "--hurst", "0.95",
                                 "--theta", "0.01", "--n", "1000")
        finally:
            sim._circulant_root.cache_clear()
        assert code == 4 and out == ""
        assert err == ("error: no nonnegative circulant embedding within 4000 lags "
                       "(last tried: M = 4000, circulant length 8000)\n")

    @pytest.mark.parametrize("model, option, value", [
        ("delampertized", "--theta", "inf"), ("delampertized", "--theta", "nan"),
        ("fbm", "--dt", "inf"), ("delampertized", "--dt", "inf"),
        ("fbm", "--sigma", "inf"), ("delampertized", "--sigma", "nan"),
        ("fbm", "--p0", "inf"), ("pseudo-periodic", "--p0", "inf"),
        ("pseudo-periodic", "--sigma", "nan"), ("pseudo-periodic", "--sigma", "inf"),
        ("pseudo-periodic", "--sigma", "0"), ("pseudo-periodic", "--sigma", "-1")])
    def test_non_finite_parameter_is_data_error(self, capsys, model, option, value):
        code, out, err = run(capsys, "simulate", model, option, value, "--n", "50")
        assert code == 3 and out == ""
        assert err == f"error: {option[2:]} must be positive and finite\n"

    @pytest.mark.parametrize("model", ["fbm", "delampertized", "pseudo-periodic"])
    def test_negative_seed_is_data_error_before_any_draw(self, capsys, monkeypatch, model):
        def draw(*args, **kwargs):
            raise AssertionError("a path was drawn for a negative seed")

        for name in ("_circulant_root", "_circulant_sample", "_lagged_recursion"):
            monkeypatch.setattr(sim, name, draw)
        monkeypatch.setattr(sim.np.random, "default_rng", draw)
        assert run(capsys, "simulate", model, "--seed", "-1", "--n", "50") == (
            3, "", "error: seed must be a non-negative integer\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ("fbm", "--sigma", "1e308", "--n", "50"),
        ("delampertized", "--sigma", "1e308", "--n", "50"),
        ("fbm", "--dt", "1e300", "--hurst", "0.9", "--n", "10")])
    def test_overflowing_covariance_is_numeric_error(self, capsys, argv):
        # sigma**2 and dt**(2H) overflow float64; no warning may reach stderr
        code, out, err = run(capsys, "simulate", *argv)
        assert code == 4 and out == ""
        assert err == "error: autocovariance is not finite\n"

    def test_memory_error_exit_code(self, capsys, monkeypatch):
        def oom(*a, **k):
            raise MemoryError("Unable to allocate 298. GiB for an array")
        monkeypatch.setattr(cli, "simulate_delampertized", oom)
        code, out, err = run(capsys, "simulate", "delampertized", "--n", "200000")
        assert code == 4 and out == ""
        assert err == "error: out of memory: Unable to allocate 298. GiB for an array\n"


@pytest.fixture()
def price_file(tmp_path, capsys):
    dest = tmp_path / "prices.csv"
    assert cli.main(["simulate", "fbm", "--hurst", "0.7", "--sigma", "0.01",
                     "--n", "400", "--seed", "2", "-o", str(dest)]) == 0
    capsys.readouterr()
    return dest


class TestAnalyze:
    def test_json_matches_library(self, price_file, capsys):
        code, out, _ = run(capsys, "analyze", str(price_file),
                           "--L-max", "3", "--m-values", "1", "2")
        assert code == 0
        doc = json.loads(out)
        ep, ip = profile_from_prices(load_prices(price_file), 3, (1, 2), 0.95)
        assert doc == json.loads(profile_to_json(ep, ip))
        assert doc["n"] == 399
        assert doc["bounds"][0] == [None, None]

    def test_zero_entropy_is_written_as_zero(self, capsys, tmp_path):
        # rising prices give one word only; its entropy, a sum of 0.0
        # negated, was written as -0.0
        rising = tmp_path / "rising.csv"
        rising.write_text("timestamp,close\n1,1\n2,2\n3,3\n")
        code, out, _ = run(capsys, "analyze", str(rising), "--m-values", "1")
        assert code == 0
        assert "-0.0" not in out and json.loads(out)["H"][0][0] == 0.0
        ep, _ = profile_from_prices(load_prices(rising), m_values=(1,))
        assert math.copysign(1.0, ep.H[0, 0]) == 1.0

    def test_csv_format(self, price_file, capsys):
        code, out, _ = run(capsys, "analyze", str(price_file), "--L-max", "2",
                           "--m-values", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "L,m,H,I,partial,bound"
        assert len(lines) == 2 + 3

    def test_stdin(self, price_file, capsys, monkeypatch):
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO(price_file.read_text()))
        code, out, _ = run(capsys, "analyze", "-", "--L-max", "2")
        assert code == 0
        assert json.loads(out)["L_max"] == 2

    def test_csv_of_a_short_series_is_pinned(self, capsys, tmp_path):
        # orders 3 and 4 have no window, so their cells are blank, as is order 1's bound
        rising = tmp_path / "rising.csv"
        rising.write_text("timestamp,close\n1,1\n2,2\n3,3\n")
        code, out, _ = run(capsys, "analyze", str(rising), "--L-max", "3", "--m-values", "1",
                           "--format", "csv")
        assert code == 0
        assert out == ("# n=2 confidence=0.95 m_values=1\n"
                       "L,m,H,I,partial,bound\n"
                       "1,1,0.0,1.0,1.0,\n"
                       "2,1,0.0,1.0,0.0,4.321928094887361\n"
                       "3,1,,,,\n"
                       "4,1,,,,\n")

    def test_json_of_a_short_series_is_pinned(self, capsys, tmp_path):
        # order 3 has no window, so its cells are null, as is order 1's bound
        rising = tmp_path / "rising.csv"
        rising.write_text("timestamp,close\n1,1\n2,2\n3,3\n")
        code, out, _ = run(capsys, "analyze", str(rising), "--L-max", "2", "--m-values", "1")
        assert code == 0
        assert out == """{
  "m_values": [
    1
  ],
  "L_max": 2,
  "H": [
    [
      0.0
    ],
    [
      0.0
    ],
    [
      null
    ]
  ],
  "I": [
    [
      1.0
    ],
    [
      1.0
    ],
    [
      null
    ]
  ],
  "partial": [
    [
      1.0
    ],
    [
      0.0
    ],
    [
      null
    ]
  ],
  "bounds": [
    [
      null
    ],
    [
      4.321928094887361
    ],
    [
      null
    ]
  ],
  "confidence": 0.95,
  "n": 2
}
"""
        assert out == profile_to_json(*profile_from_prices(load_prices(rising), 2, (1,)))

    def test_stdin_error_names_row(self, capsys, monkeypatch):
        text = "# from a pipe\ntimestamp,close\n1,100\n\n2,oops\n3,102\n"
        monkeypatch.setattr(cli.sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "analyze", "-")
        assert code == 3 and out == ""
        assert err == "error: unparseable price at row 2\n"

    @pytest.mark.parametrize("source", ["path", "stdin"])
    @pytest.mark.parametrize("data, message", [
        (b"timestamp,close\n1,100\n2\xff,101\n3,102\n", "invalid UTF-8 at row 2"),
        (b"timestamp,close\n1,100\n2,10\xff1\n3,102\n", "invalid UTF-8 at row 2"),
        (b"timestamp,close,note\n1,100,a\n2,101,\xff\n3,102,b\n", "invalid UTF-8 at row 2"),
        (b"timestamp,close\n" + b"".join(b"%d,%d\n" % (i, 100 + i % 7) for i in range(1, 20001))
         .replace(b"\n17000,", b"\n17000\xff,"), "invalid UTF-8 at row 17000"),
        (b"timestamp,close\n1,100\n2,oops\n3\xff,102\n", "unparseable price at row 2"),
    ], ids=["label", "price", "ignored-column", "second-block", "earlier-bad-price"])
    def test_invalid_utf8_names_its_row(self, capsys, monkeypatch, tmp_path, source, data,
                                        message):
        # a path raised the codec's error at a byte offset; stdin failed to
        # encode the label back, and passed the byte in an ignored column
        if source == "path":
            arg = tmp_path / "bad.csv"
            arg.write_bytes(data)
        else:
            arg = "-"
            monkeypatch.setattr(cli.sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run(capsys, "analyze", str(arg), "--L-max", "1", "--m-values", "1")
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
        assert code == 3
        assert err.startswith("error:")

    def test_bad_column_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,open\n1,3\n2,4\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert "missing required column" in err

    def test_bad_confidence_is_data_error(self, price_file, capsys):
        code, _, err = run(capsys, "analyze", str(price_file),
                           "--confidence", "1.5")
        assert code == 3
        assert "confidence" in err

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze"])  # missing input
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_price_reports_row(self, capsys, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"timestamp,close\n1,100\n2,101\n3,{value}\n4,102\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert err == "error: non-finite price at row 3\n"

    def test_overflowing_return_keeps_its_sign(self, capsys, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("timestamp,close\n1,1e-300\n2,1e300\n3,1\n4,2\n5,3\n")
        code, out, err = run(capsys, "analyze", str(wide))
        assert code == 0 and err == ""
        assert json.loads(out)["n"] == 4

    def test_deep_L_max_is_data_error(self, price_file, capsys):
        code, out, err = run(capsys, "analyze", str(price_file), "--L-max", "70")
        assert code == 3 and out == ""
        assert err == "error: L_max must be at most 30\n"

    @pytest.mark.parametrize("m_values, message", [
        (["2", "2"], "m_values must be nonempty and distinct"),
        (["0"], "return horizon m must be a positive integer")])
    def test_bad_horizon_is_data_error(self, price_file, capsys, m_values, message):
        code, out, err = run(capsys, "analyze", str(price_file), "--m-values", *m_values)
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestTheory:
    def test_non_number_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "fbm", "--hurst-step", "abc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --hurst-step: not a number: 'abc'" in captured.err

    def test_python_m_runs_the_cli(self, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "mktinfo", "theory", "fbm"], env=env,
                              capture_output=True, text=True, check=True)
        assert (0, done.stdout, "") == run(capsys, "theory", "fbm")

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_non_positive_step_is_usage_error(self, capsys, step):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "fbm", "--hurst-step", step])
        assert exc.value.code == 2
        assert "--hurst-step: must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--hurst-min", "nan"), ("--hurst-min", "-inf"), ("--hurst-max", "inf"),
        ("--hurst-max", "nan"), ("--m", "inf"), ("--theta", "nan")])
    def test_non_finite_option_is_usage_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theory", "delampertized", f"{option}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must be finite, got '{value}'" in captured.err

    @pytest.mark.parametrize("h_min, step", [("-1e9", "0.3"), ("-12345.678", "0.07"),
                                             ("-3.31", "0.1"), ("0.013", "0.07")])
    def test_grid_points_match_exact_fractions(self, capsys, h_min, step):
        code, out, err = run(capsys, "theory", "fbm", f"--hurst-min={h_min}",
                             "--hurst-max", "2", "--hurst-step", step)
        assert code == 0 and err == ""
        got = [Fraction(float(line.split(",")[0])) for line in out.strip().split("\n")[2:]]
        tol = Fraction(2) ** -20 * Fraction(float(step))
        # the grid of the parsed floats, within the stated tolerance, and of
        # the decimals as typed, within twice it
        for lo, st, bound in ((Fraction(float(h_min)), Fraction(float(step)), tol),
                              (Fraction(h_min), Fraction(step), 2 * tol)):
            want = [lo + st * i for i in range(math.floor(-lo / st) + 1, math.ceil((1 - lo) / st))]
            assert all(2 * bound < w < 1 - 2 * bound for w in want)  # no point near an end
            assert len(got) == len(want)
            assert max(abs(g - w) for g, w in zip(got, want)) <= bound

    @pytest.mark.parametrize("h_min, step", [("-0.5", "0.25"), ("-2.94", "0.021"),
                                             ("-2.99", "0.015")])
    def test_grid_keeps_every_point_strictly_inside(self, capsys, h_min, step):
        # the points as numpy rounds them, at every index: -0.5 + 0.25*2 is 0.0
        # and left out; at the end of each margin step, -2.94 + 0.021*140 (point
        # 0 exactly) rounds to 4.4e-16 and -2.99 + 0.015*266 (1 exactly) to
        # 1 - 4.4e-16, and both are printed
        code, out, err = run(capsys, "theory", "fbm", f"--hurst-min={h_min}",
                             "--hurst-max", "2", "--hurst-step", step)
        assert code == 0 and err == ""
        got = [float(line.split(",")[0]) for line in out.strip().split("\n")[2:]]
        lo, st = float(h_min), float(step)
        points = (lo + st * np.arange(round((2 - lo) / st) + 1)).tolist()
        assert got == [p for p in points if 0.0 < p < 1.0]

    @pytest.mark.parametrize("h_min, step", [("-1e308", "0.05"), ("1e308", "0.05"),
                                             ("0.05", "1e-320"), ("-1e15", "0.3"),
                                             ("-5e9", "0.3"), ("0.05", "1e-12"),
                                             ("0.05", "2e-10")])
    def test_grid_beyond_float_steps_is_usage_error(self, capsys, h_min, step):
        # floats near -1e15 are 0.125 apart: the points would print as 0.125
        # and 0.75, far from the grid's 0.16 and 0.76 (0.2 and 0.8 as typed);
        # near 1.05 they are 2**-52 apart, more than 2**-20 of a 2e-10 step
        code, out, err = run(capsys, "theory", "fbm", f"--hurst-min={h_min}",
                             "--hurst-step", step)
        assert code == 2 and out == ""
        bound = abs(float(h_min)) + 1.0
        assert err == (f"error: Hurst grid too fine: --hurst-step {float(step)} is less than"
                       f" 2**20 times {math.ulp(bound)}, the float spacing at"
                       f" |--hurst-min| + 1 = {bound}\n")

    def test_finest_step_the_floats_allow(self, capsys):
        # 2**-32 is exactly 2**20 times the float spacing 2**-52 at 1.5
        code, out, err = run(capsys, "theory", "fbm", "--hurst-min", "0.5",
                             "--hurst-max", str(0.5 + 3 * 2.0 ** -32), "--hurst-step",
                             str(2.0 ** -32))
        assert code == 0 and err == ""
        got = [Fraction(float(line.split(",")[0])) for line in out.strip().split("\n")[2:]]
        assert got == [Fraction(1, 2) + i * Fraction(1, 2 ** 32) for i in range(4)]

    def test_far_negative_max_is_empty_grid(self, capsys):
        code, out, err = run(capsys, "theory", "fbm", "--hurst-max=-1e308")
        assert code == 2 and out == ""
        assert err.startswith("error: empty Hurst grid: --hurst-min 0.05 to --hurst-max -1e+308")

    @pytest.mark.parametrize("bounds", [("0.9", "0.1"), ("1.5", "2")])
    def test_empty_grid_is_usage_error(self, capsys, bounds):
        code, out, err = run(capsys, "theory", "fbm", "--hurst-min", bounds[0],
                             "--hurst-max", bounds[1])
        assert code == 2 and out == ""
        assert err.startswith(f"error: empty Hurst grid: --hurst-min {float(bounds[0])}")

    def test_fbm_grid_values(self, capsys):
        code, out, _ = run(capsys, "theory", "fbm", "--hurst-min", "0.1",
                           "--hurst-max", "0.9", "--hurst-step", "0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# model=fbm"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 9
        for h, i2 in rows:
            assert float(i2) == pytest.approx(info_fbm(float(h)), rel=1e-12)

    def test_delampertized_csv_header(self, capsys):
        code, out, _ = run(capsys, "theory", "delampertized", "--theta", "0.1", "--m", "2")
        assert code == 0
        assert out.split("\n")[:2] == ["# model=delampertized theta=0.1 m=2.0", "abscissa,I2"]

    def test_delampertized_multi_theta_json(self, capsys):
        code, out, _ = run(capsys, "theory", "delampertized", "--theta", "0.1",
                           "15", "--m", "1", "--hurst-min", "0.25",
                           "--hurst-max", "0.75", "--hurst-step", "0.25",
                           "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 2
        assert docs[1]["fixed_params"]["theta"] == 15.0
        assert docs[1]["I2"][1] == pytest.approx(info_delampertized(0.5, 1.0, 15.0))

    def test_fbm_json_is_pinned(self, capsys):
        code, out, _ = run(capsys, "theory", "fbm", "--hurst-min", "0.25", "--hurst-max", "0.75",
                           "--hurst-step", "0.25", "--format", "json")
        assert code == 0
        assert out == f"""{{
  "model": "fbm",
  "fixed_params": {{}},
  "abscissa": [
    0.25,
    0.5,
    0.75
  ],
  "I2": [
    {info_fbm(0.25)!r},
    0.0,
    {info_fbm(0.75)!r}
  ]
}}
"""
        assert out == theory_curve("fbm", [0.25, 0.5, 0.75]).to_json()

    def test_delampertized_json_list_is_pinned(self, capsys):
        code, out, _ = run(capsys, "theory", "delampertized", "--theta", "0.1", "15",
                           "--hurst-min", "0.25", "--hurst-max", "0.5", "--hurst-step", "0.25",
                           "--format", "json")
        assert code == 0
        curves = "  },\n  {\n".join(f"""    "model": "delampertized",
    "fixed_params": {{
      "theta": {theta!r},
      "m": 1.0
    }},
    "abscissa": [
      0.25,
      0.5
    ],
    "I2": [
      {info_delampertized(0.25, 1.0, theta)!r},
      {info_delampertized(0.5, 1.0, theta)!r}
    ]
""" for theta in (0.1, 15.0))
        assert out == "[\n  {\n" + curves + "  }\n]\n"

    def test_delampertized_product_past_largest_float(self, capsys):
        # both flags are finite; their product overflows, where the curve is flat
        code, out, err = run(capsys, "theory", "delampertized", "--theta", "1e300", "--m", "1e10")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert len(rows) == 19
        assert {float(i2) for _, i2 in rows} == {info_delampertized(0.3, 1e10, 1e300)}

    def test_wide_range_builds_only_points_inside(self, capsys):
        # the range holds 2e13 steps but only 19 points inside (0, 1)
        _, default, _ = run(capsys, "theory", "fbm")
        code, out, err = run(capsys, "theory", "fbm", "--hurst-max", "1e12")
        assert code == 0 and err == ""
        assert out == default
        assert len(out.strip().split("\n")) == 2 + 19

    def test_default_grid_avoids_endpoints(self, capsys):
        code, out, _ = run(capsys, "theory", "fbm")
        assert code == 0
        first = float(out.strip().split("\n")[2].split(",")[0])
        assert first == pytest.approx(0.05)


class TestHurst:
    def test_json_matches_library(self, price_file, capsys):
        code, out, _ = run(capsys, "hurst", str(price_file), "--max-scale", "10")
        assert code == 0
        doc = json.loads(out)
        want = estimate_hurst(np.log(load_prices(price_file).prices), range(1, 11))
        assert doc["hurst_estimate"] == pytest.approx(want.hurst_estimate, rel=1e-15)
        assert doc["scales"] == list(range(1, 11))

    def test_explicit_scales_and_csv(self, price_file, capsys):
        code, out, _ = run(capsys, "hurst", str(price_file), "--scales", "1",
                           "2", "4", "8", "--fit-min", "1", "--fit-max", "8",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert "fit_range=1..8" in lines[0]
        assert len(lines) == 2 + 4

    def test_dropped_scales_reported_not_warned(self, capsys, tmp_path):
        dest = tmp_path / "short.csv"
        dest.write_text("timestamp,close\n" + "".join(f"{i},{100 + i % 7}\n" for i in range(49)))
        code, out, err = run(capsys, "hurst", str(dest), "--max-scale", "100")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["scales"] == list(range(1, 49))
        assert doc["dropped_scales"] == list(range(49, 101))
        code, out, err = run(capsys, "hurst", str(dest), "--max-scale", "50", "--format", "csv")
        assert code == 0 and err == ""
        assert out.split("\n")[0].endswith(" dropped_scales=[49,50]")

    def test_csv_is_pinned(self, capsys, tmp_path):
        # alternating closes: the scale-4 moment is 0, written -inf, and 20, 30 are dropped
        dest = tmp_path / "alternating.csv"
        dest.write_text("timestamp,close\n" + "".join(f"{i},{101 - i % 2}\n" for i in range(10)))
        argv = ["hurst", str(dest), "--scales", "1", "3", "4", "20", "30",
                "--fit-min", "1", "--fit-max", "3"]
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        want = estimate_hurst(np.log(load_prices(dest).prices), [1, 3, 4, 20, 30], (1, 3))
        lines = out.split("\n")
        assert lines[0] == (f"# slope={want.slope!r} hurst_estimate={want.hurst_estimate!r}"
                            f" intercept={want.intercept!r} fit_range=1..3"
                            " dropped_scales=[20,30]")
        log2_3, m1, m3 = (float(v) for v in (want.log2_scales[1], *want.log2_moments[:2]))
        assert lines[1:] == ["log2_scale,log2_moment,in_fit_range",
                             f"0.0,{m1!r},1", f"{log2_3!r},{m3!r},1", "2.0,-inf,0", ""]

    def test_json_is_pinned(self, capsys, tmp_path):
        # the same alternating closes: a null moment and second difference, 20 and 30 dropped
        dest = tmp_path / "alternating.csv"
        dest.write_text("timestamp,close\n" + "".join(f"{i},{101 - i % 2}\n" for i in range(10)))
        code, out, err = run(capsys, "hurst", str(dest), "--scales", "1", "3", "4", "20", "30",
                             "--fit-min", "1", "--fit-max", "3")
        assert code == 0 and err == ""
        want = estimate_hurst(np.log(load_prices(dest).prices), [1, 3, 4, 20, 30], (1, 3))
        log2_3, m1, m3 = (float(v) for v in (want.log2_scales[1], *want.log2_moments[:2]))
        assert out == f"""{{
  "scales": [
    1,
    3,
    4
  ],
  "log2_scale": [
    0.0,
    {log2_3!r},
    2.0
  ],
  "log2_moment": [
    {m1!r},
    {m3!r},
    null
  ],
  "in_fit_range": [
    true,
    true,
    false
  ],
  "fit_range": [
    1,
    3
  ],
  "slope": {want.slope!r},
  "intercept": {want.intercept!r},
  "hurst_estimate": {want.hurst_estimate!r},
  "second_differences": [
    null
  ],
  "dropped_scales": [
    20,
    30
  ]
}}
"""
        assert out == want.to_json()

    def test_fit_range_below_one_is_data_error(self, price_file, capsys):
        code, out, err = run(capsys, "hurst", str(price_file), "--fit-min", "0")
        assert code == 3 and out == ""
        assert err == "error: fit_range must be two positive integers\n"

    def test_narrow_fit_range_is_data_error(self, price_file, capsys):
        code, _, err = run(capsys, "hurst", str(price_file), "--scales", "1",
                           "6", "--fit-min", "2", "--fit-max", "5")
        assert code == 3
        assert "fewer than 2 scales" in err

    def test_max_scale_beyond_the_limit_is_data_error(self, price_file, capsys):
        # every scale up to --max-scale is listed, so 10**20 must not be tried
        code, out, err = run(capsys, "hurst", str(price_file), "--max-scale", str(10 ** 20))
        assert code == 3 and out == ""
        assert err == f"error: max-scale must be at most {cli._MAX_SCALE_LIMIT}\n"

    def test_max_scale_at_the_limit_is_accepted(self, price_file, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_SCALE_LIMIT", 64)
        code, out, _ = run(capsys, "hurst", str(price_file), "--max-scale", "64")
        assert code == 0 and json.loads(out)["scales"][-1] == 64
        code, _, err = run(capsys, "hurst", str(price_file), "--max-scale", "65")
        assert (code, err) == (3, "error: max-scale must be at most 64\n")

    def test_zero_moment_is_json_null(self, capsys, tmp_path):
        # closes cycling 1, 2, 4, 2 repeat every 4 steps, so the scale-4 moment is 0
        dest = tmp_path / "cycle.csv"
        dest.write_text("timestamp,close\n" + "".join(f"{i},{(1, 2, 4, 2)[i % 4]}\n"
                                                      for i in range(40)))
        code, out, err = run(capsys, "hurst", str(dest), "--scales", "1", "2", "3", "4",
                             "--fit-min", "1", "--fit-max", "3")
        assert code == 0 and err == ""

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["log2_moment"][3] is None and None not in doc["log2_moment"][:3]
        assert doc["second_differences"][1] is None
        code, out, _ = run(capsys, "hurst", str(dest), "--scales", "1", "2", "3", "4",
                           "--fit-min", "1", "--fit-max", "3", "--format", "csv")
        assert code == 0 and out.split("\n")[5] == "2.0,-inf,0"


class TestClosedStreams:
    """Python starts with sys.stdin or sys.stdout None when fd 0 or 1 is closed;
    a command that needs that stream exits 3 with one error line."""

    @pytest.mark.parametrize("command", ["analyze", "hurst"])
    def test_closed_stdin(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli.sys, "stdin", None)
        assert run(capsys, command, "-") == (3, "", "error: stdin is closed\n")

    @pytest.mark.parametrize("command", ["analyze", "hurst", "simulate", "theory"])
    def test_closed_stdout(self, price_file, capsys, monkeypatch, command):
        argv = {"simulate": ["fbm", "--n", "10"], "theory": ["fbm"]}.get(command, [str(price_file)])
        monkeypatch.setattr(cli.sys, "stdout", None)
        assert run(capsys, command, *argv) == (3, "", "error: stdout is closed\n")

    def test_reported_before_any_work(self, price_file, capsys, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work ran before the closed stream was reported")

        for name in ("simulate_fbm", "load_prices", "theory_curve"):
            monkeypatch.setattr(cli, name, work)
        monkeypatch.setattr(cli.sys, "stdin", None)
        for command in ("analyze", "hurst"):
            assert run(capsys, command, "-") == (3, "", "error: stdin is closed\n")
        monkeypatch.setattr(cli.sys, "stdout", None)
        for argv in (["analyze", str(price_file)], ["hurst", str(price_file)],
                     ["simulate", "fbm", "--n", "10"], ["theory", "fbm"]):
            assert run(capsys, *argv) == (3, "", "error: stdout is closed\n")

    def test_closed_stdout_with_output_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli.sys, "stdout", None)
        dest = tmp_path / "theory.csv"
        assert run(capsys, "theory", "fbm", "-o", str(dest)) == (0, "", "")
        assert dest.read_text().startswith("# model=fbm")

    def test_closed_fd_0_in_a_fresh_process(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m",
                               "mktinfo", "analyze", "-"], env=env, capture_output=True,
                              text=True)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: stdin is closed\n")


class TestEndToEnd:
    def test_simulate_piped_to_analyze(self, cpus, capsys, monkeypatch):
        # several of the writer's blocks, the second half formatted in a
        # worker on two CPUs, through stdout; and of the reader's chunks,
        # read from stdin in this process
        n = 60_000
        code, out, _ = run(capsys, "simulate", "fbm", "--hurst", "0.7", "--sigma", "0.001",
                           "--n", str(n), "--seed", "9")
        assert code == 0 and len(out) > 2 * csvio._CHUNK_CHARS
        prices = to_price_series(simulate_fbm(FbmParams(0.7, 0.001), n, 1.0, 9))
        rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(prices.prices.tolist()))
        assert out.partition("\n")[2] == "timestamp,close\n" + rows
        monkeypatch.setattr(cli.sys, "stdin", io.TextIOWrapper(io.BytesIO(out.encode())))
        code, profile, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert profile == profile_to_json(*profile_from_prices(prices))

    def test_simulate_analyze_hurst_pipeline(self, capsys, tmp_path):
        dest = tmp_path / "pp.csv"
        assert cli.main(["simulate", "pseudo-periodic", "--beta", "-0.9",
                         "--tau", "5", "--n", "2000", "--seed", "4",
                         "-o", str(dest)]) == 0
        code, out, _ = run(capsys, "analyze", str(dest), "--L-max", "7",
                           "--m-values", "1")
        assert code == 0
        doc = json.loads(out)
        partial = [row[0] for row in doc["partial"][1:]]
        # the lag-5 recursion shows up as a partial-information peak at
        # word order 6 (five conditioning lags)
        assert int(np.argmax(partial)) + 2 == 6

        code, out, _ = run(capsys, "hurst", str(dest), "--max-scale", "12")
        assert code == 0
        doc = json.loads(out)
        assert max(abs(v) for v in doc["second_differences"]) > 0.05


# Each command's options with one valid value (space-separated for a list).
# --n is drawn apart: a mid-size count would really allocate, so it takes
# only the values below.
_OPTIONS = {
    "analyze": {"--L-max": "3", "--m-values": "1 2", "--confidence": "0.9"},
    "simulate": {"--hurst": "0.6", "--sigma": "0.01", "--theta": "2", "--beta": "0.5",
                 "--tau": "3", "--dt": "0.5", "--seed": "1", "--p0": "50"},
    "theory": {"--theta": "2", "--m": "2", "--hurst-min": "0.2", "--hurst-max": "0.8",
               "--hurst-step": "0.2"},
    "hurst": {"--max-scale": "8", "--scales": "1 2 4", "--fit-min": "1", "--fit-max": "4"},
}
_EDGE_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", str(10 ** 20)]
_N_VALUES = ["40", "0", "-1", str(10 ** 20)]


@st.composite
def _argv(draw, price_path):
    """One command with one of its options at a valid or an edge value."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    head = {"analyze": [price_path], "hurst": [price_path],
            "simulate": [draw(st.sampled_from(["fbm", "delampertized", "pseudo-periodic"]))],
            "theory": [draw(st.sampled_from(["fbm", "delampertized"]))]}[command]
    options = _OPTIONS[command]
    option = draw(st.sampled_from(sorted(options) + (["--n"] if command == "simulate" else [])))
    if option == "--n":
        value = draw(st.sampled_from(_N_VALUES))
    else:
        value = draw(st.sampled_from([options[option]] + _EDGE_VALUES))
    # "=" keeps a leading "-" from reading as an option
    tail = [f"{option}={value}"] if value.startswith("-") else [option, *value.split()]
    if command == "simulate" and option != "--n":
        tail += ["--n", _N_VALUES[0]]
    return [command] + head + tail


@pytest.fixture(scope="module")
def small_price_file(tmp_path_factory):
    dest = tmp_path_factory.mktemp("contract") / "prices.csv"
    dest.write_text("timestamp,close\n" + "".join(
        f"{i},{100 + (i * 7) % 11}\n" for i in range(60)))
    return str(dest)


def test_every_option_value_exits_cleanly(small_price_file):
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_argv(small_price_file))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == "", argv

    check()


def test_import_defers_what_one_call_needs():
    # scipy is never imported by the package, and statistics, signal and
    # hashlib only inside the one function that needs each: a command that
    # runs none of them pays no import for them
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    probe = ("import sys, mktinfo.cli; "
             "print(sorted({'scipy', 'statistics', 'signal', 'hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


def test_each_function_the_benchmark_traces_is_one_object(monkeypatch):
    # perfbench's tracer looks each traced function up in the module it names
    # and patches every mktinfo module binding that object; a function moved
    # away, or bound to a second object, would go untraced and its per-layer
    # metric read 0 with no error
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from spans import TRACED

    modules = {name: module for name, module in sys.modules.items()
               if name == "mktinfo" or name.startswith("mktinfo.")}
    for module, name in TRACED:
        traced = getattr(modules[module], name)
        for other in modules.values():
            assert vars(other).get(name, traced) is traced, (module, name, other.__name__)
