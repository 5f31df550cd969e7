"""Structure function, log-log fits, and the scaling Hurst estimator."""

import json

import numpy as np
import pytest

import mktinfo.scaling as scaling
from mktinfo.scaling import (
    DEFAULT_FIT_RANGE,
    LogLogCurve,
    estimate_hurst,
    fit_loglog,
    structure_function,
)
from mktinfo.simulate import simulate_fbm, simulate_pseudo_periodic
from mktinfo.theory import FbmParams


class TestStructureFunction:
    def test_hand_case(self):
        x = np.array([0.0, 1.0, 3.0, 6.0])
        scales, moments = structure_function(x, [1, 2, 3])
        np.testing.assert_array_equal(scales, [1, 2, 3])
        np.testing.assert_allclose(
            moments, [(1 + 4 + 9) / 3.0, (9 + 25) / 2.0, 36.0], rtol=1e-15)

    def test_scales_deduplicated_and_sorted(self):
        x = np.arange(6, dtype=float)
        scales, moments = structure_function(x, [3, 1, 3, 2])
        np.testing.assert_array_equal(scales, [1, 2, 3])
        np.testing.assert_allclose(moments, [1.0, 4.0, 9.0], rtol=1e-15)

    def test_long_scales_dropped_with_warning(self):
        x = np.arange(5, dtype=float)
        with pytest.warns(UserWarning, match=r"dropped: \[5, 9\].*usable scales: 1..4"):
            scales, _ = structure_function(x, [1, 5, 9])
        np.testing.assert_array_equal(scales, [1])

    def test_two_points_hold_one_increment(self):
        scales, moments = structure_function(np.array([0.0, 2.0]), [1])
        assert scales.tolist() == [1] and moments.tolist() == [4.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D series with at least 2"):
            structure_function(np.array([1.0]), [1])
        with pytest.raises(ValueError, match="positive integers"):
            structure_function(np.arange(5.0), [0, 1])


class TestFitLogLog:
    def test_exact_power_law(self):
        scales = np.arange(1, 9)
        moments = 0.5 * scales.astype(float) ** 1.6
        slope, intercept = fit_loglog(scales, moments, (1, 8))
        assert slope == pytest.approx(1.6, abs=1e-12)
        assert intercept == pytest.approx(np.log2(0.5), abs=1e-12)

    def test_fit_range_subsets(self):
        scales = np.arange(1, 9)
        moments = scales.astype(float) ** 2
        moments[5:] = 1.0  # garbage outside the fit window
        slope, _ = fit_loglog(scales, moments, (1, 5))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_too_few_scales_in_range(self):
        with pytest.raises(ValueError, match=r"fewer than 2 scales in fit range 4..5"):
            fit_loglog(np.array([1, 2, 4]), np.array([1.0, 2.0, 4.0]), (4, 5))

    def test_degenerate_moment(self):
        with pytest.raises(ValueError, match="degenerate moment"):
            fit_loglog(np.array([1, 2]), np.array([0.0, 1.0]), (1, 2))

    def test_scales_and_moments_differ_in_length(self):
        # the boolean mask of three scales indexed two moments: IndexError
        with pytest.raises(ValueError, match="^scales and moments differ in length$"):
            fit_loglog(np.array([1, 2, 3]), [1.0, 2.0], (1, 2))
        # the curve was built, and its CSV cut to two rows
        with pytest.raises(ValueError, match="^scales and moments differ in length$"):
            LogLogCurve([1, 2, 3], [1.0, 2.0], (1, 2))

    @pytest.mark.parametrize("moment", [np.nan, np.inf])
    def test_non_finite_moment_in_range_is_degenerate(self, moment):
        # each gave a slope of nan; every moment is checked as LogLogCurve checks it
        with pytest.raises(ValueError, match="^moments must be finite and non-negative$"):
            fit_loglog(np.array([1, 2, 3]), np.array([1.0, 2.0, moment]), (1, 3))


class TestEstimateHurst:
    def test_straight_line_is_h_one(self):
        curve = estimate_hurst(np.arange(40, dtype=float) * 0.3)
        assert curve.hurst_estimate == pytest.approx(1.0, abs=1e-12)
        assert curve.slope == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(curve.second_differences(), 0.0, atol=1e-10)

    @pytest.mark.parametrize("x", [[1.0], [[1.0, 2.0], [3.0, 4.0]], 1.0])
    def test_needs_a_one_dimensional_series_of_two_points(self, x):
        with pytest.raises(ValueError, match="^need a 1-D series with at least 2 points$"):
            estimate_hurst(x)

    def test_default_scales(self):
        curve = estimate_hurst(np.arange(200, dtype=float))
        # the documented default, 1..20, not the constant read back
        np.testing.assert_array_equal(curve.scales, np.arange(1, 21))
        assert curve.fit_range == DEFAULT_FIT_RANGE

    def test_two_points_fall_short_of_the_fit_not_of_the_series(self):
        with pytest.raises(ValueError, match=r"^fewer than 2 scales in fit range 1\.\.5; "
                                             r"usable scales: \[1\]$"):
            estimate_hurst([0.0, 1.0])

    def test_short_series_truncates_scales(self):
        curve = estimate_hurst(np.arange(8, dtype=float) ** 1.0)
        np.testing.assert_array_equal(curve.scales, np.arange(1, 8))

    def test_deterministic(self):
        x = simulate_fbm(FbmParams(0.5), 5000, seed=0).values
        a = estimate_hurst(x)
        b = estimate_hurst(x)
        assert a.hurst_estimate == b.hurst_estimate
        assert 0.4 < a.hurst_estimate < 0.6

    def test_dropped_scales_reported_without_warning(self, recwarn):
        curve = estimate_hurst(np.arange(5, dtype=float), scales=[1, 2, 5, 9, 2])
        np.testing.assert_array_equal(curve.scales, [1, 2])
        assert curve.dropped_scales == (5, 9)
        assert len(recwarn) == 0
        assert json.loads(curve.to_json())["dropped_scales"] == [5, 9]
        assert curve.to_csv().split("\n")[0].endswith(" dropped_scales=[5,9]")
        assert estimate_hurst(np.arange(9, dtype=float)).dropped_scales == ()

    def test_a_range_of_scales_is_checked_whole(self, monkeypatch):
        # neither the range nor the arrays split from it pass scale by scale
        # through _count, so 2**20 scales cost no Python loop; only the two
        # ends of the fit range do, once in fit_loglog and once in the curve
        calls, count = [], scaling._count
        monkeypatch.setattr(scaling, "_count",
                            lambda value, message: calls.append(message) or count(value, message))
        curve = estimate_hurst(np.arange(40, dtype=float), range(2 ** 20, 0, -1))
        assert calls == [scaling._FIT_RANGE] * 4
        assert curve.scales.tolist() == list(range(1, 40))
        assert curve.dropped_scales == tuple(range(40, 2 ** 20 + 1))

    def test_no_usable_scales(self):
        with pytest.raises(ValueError,
                           match=r"^no usable scales requested; usable scales: 1\.\.2$"):
            estimate_hurst(np.arange(3, dtype=float), scales=[5, 9])

    def test_in_fit_range_mask(self):
        curve = estimate_hurst(np.arange(50, dtype=float), scales=range(1, 11),
                               fit_range=(2, 6))
        np.testing.assert_array_equal(
            curve.in_fit_range, (curve.scales >= 2) & (curve.scales <= 6))


class TestLogLogCurve:
    def test_caller_arrays_stay_writable(self):
        scales, moments = np.arange(1, 4), np.ones(3)
        curve = LogLogCurve(scales, moments, (1, 3))
        scales[0], moments[0] = 5, 2.0
        assert curve.scales.tolist() == [1, 2, 3] and curve.moments.tolist() == [1.0] * 3
        assert not curve.scales.flags.writeable and not curve.moments.flags.writeable

    def test_read_only_arrays_are_held_without_a_copy(self):
        scales, moments = np.arange(1, 4), np.ones(3)
        scales.flags.writeable = moments.flags.writeable = False
        curve = LogLogCurve(scales, moments, (1, 3))
        assert curve.scales is scales and curve.moments is moments

    def test_fit_is_that_of_fit_loglog(self):
        # moments growing as scale**2: slope 2, so H = 1
        curve = LogLogCurve([1, 2, 3], [1.0, 4.0, 9.0], (1, 3))
        assert (curve.slope, curve.intercept) == fit_loglog([1, 2, 3], [1.0, 4.0, 9.0], (1, 3))
        assert curve.slope == pytest.approx(2.0, abs=1e-12)
        assert curve.hurst_estimate == curve.slope / 2.0
        with pytest.raises(TypeError):
            LogLogCurve([1, 2, 3], [1.0, 4.0, 9.0], (1, 3), slope=0.0)

    def test_fit_range_needs_two_scales_with_positive_moments(self):
        with pytest.raises(ValueError, match=r"^fewer than 2 scales in fit range 3..5"):
            LogLogCurve([1, 2, 3], [1.0, 4.0, 9.0], (3, 5))
        with pytest.raises(ValueError, match="^degenerate moment in fit range$"):
            LogLogCurve([1, 2, 3], [1.0, 0.0, 9.0], (1, 3))


class TestCurveOutputs:
    @pytest.fixture()
    def curve(self):
        return estimate_hurst(np.arange(60, dtype=float) * 0.5, scales=range(1, 9))

    def test_json_schema(self, curve):
        doc = json.loads(curve.to_json())
        assert set(doc) == {"scales", "log2_scale", "log2_moment", "in_fit_range",
                            "fit_range", "slope", "intercept", "hurst_estimate",
                            "second_differences", "dropped_scales"}
        assert doc["dropped_scales"] == []
        assert doc["scales"] == list(range(1, 9))
        assert doc["hurst_estimate"] == pytest.approx(1.0, abs=1e-12)
        assert len(doc["second_differences"]) == 6

    def test_csv_layout(self, curve):
        lines = curve.to_csv().strip().split("\n")
        assert lines[0].startswith("# slope=")
        assert "fit_range=1..5" in lines[0]
        assert lines[1] == "log2_scale,log2_moment,in_fit_range"
        assert len(lines) == 2 + 8
        cells = lines[2].split(",")
        assert float(cells[0]) == 0.0
        assert cells[2] == "1"

    def test_csv_header_of_numpy_floats(self):
        # the header wrote each by repr: slope=np.float64(2.0)
        scales, moments = np.array([1, 2], dtype=np.int32), np.array([1.0, 4.0], dtype=np.float32)
        curve = LogLogCurve(scales, moments, np.array([1, 2]), [np.int64(7), 9])
        slope, intercept = fit_loglog([1, 2], [1.0, 4.0], (1, 2))
        assert type(curve.slope) is type(curve.intercept) is type(curve.hurst_estimate) is float
        assert curve.to_csv() == (f"# slope={slope!r} hurst_estimate={slope / 2.0!r}"
                                  f" intercept={intercept!r} fit_range=1..2 dropped_scales=[7,9]\n"
                                  "log2_scale,log2_moment,in_fit_range\n"
                                  "0.0,0.0,1\n1.0,2.0,1\n")

    def test_json_of_numpy_scalars_is_that_of_python_scalars(self):
        # each raised TypeError: Object of type ... is not JSON serializable
        x = np.arange(60, dtype=float) * 0.5
        assert (estimate_hurst(x, fit_range=np.array([1, 5])).to_json()
                == estimate_hurst(x, fit_range=(1, 5)).to_json())
        curve = LogLogCurve([1, 2], np.array([1.0, 4.0], dtype=np.float32), (1, 2))
        assert curve.to_json() == LogLogCurve([1, 2], [1.0, 4.0], (1, 2)).to_json()
        assert curve.to_json().endswith("}\n")


class TestScalingShapes:
    def test_pseudo_periodic_bends_the_plot(self):
        # an fBm log-price is a straight line in log-log; the lag-recursion
        # toy has an autocovariance kink at tau that curves it
        lp = simulate_fbm(FbmParams(0.5), 4000, seed=1).values
        flat = estimate_hurst(lp, scales=range(1, 13))
        toy = simulate_pseudo_periodic(-0.9, 5, 4000, seed=1)
        logp = np.cumsum(np.log1p(0.01 * toy.values))
        bent = estimate_hurst(logp, scales=range(1, 13))
        worst_flat = np.abs(flat.second_differences()).max()
        worst_bent = np.abs(bent.second_differences()).max()
        assert worst_bent > 4.0 * worst_flat
