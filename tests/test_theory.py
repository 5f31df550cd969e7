"""Closed-form information values, correlation formulas, and theory curves."""

import json
import math
import re
import sys

import mpmath
import numpy as np
import pytest

from mktinfo.theory import (
    DelampertizedParams,
    FbmParams,
    TheoryCurve,
    delampertized_autocovariance,
    f_xlog2x,
    fbm_covariance,
    h_lamperti,
    info_delampertized,
    info_fbm,
    info_from_rho,
    orthant_probability,
    rho_delampertized,
    rho_fbm,
    theory_curve,
)

H_GRID = (0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.95)


def h_reference(hurst, x, dps=50):
    """50-digit evaluation of 2 cosh(Hx) - (2 sinh(x/2))**(2H)."""
    with mpmath.workdps(dps):
        H, x = mpmath.mpf(hurst), mpmath.mpf(x)
        val = 2 * mpmath.cosh(H * x) - (2 * mpmath.sinh(x / 2)) ** (2 * H)
        return float(val)


class TestScalarPieces:
    def test_f_xlog2x(self):
        assert f_xlog2x(0.0) == 0.0
        assert f_xlog2x(1.0) == 0.0
        assert f_xlog2x(0.5) == -0.5
        np.testing.assert_allclose(f_xlog2x(np.array([0.0, 0.25, 2.0])),
                                   [0.0, -0.5, 2.0], atol=1e-15)
        with pytest.raises(ValueError, match="requires x >= 0"):
            f_xlog2x(-0.1)

    def test_rho_fbm(self):
        assert rho_fbm(0.5) == 0.0
        assert rho_fbm(0.4) == pytest.approx(-0.12944943670387588, rel=1e-15)
        assert rho_fbm(0.9) == pytest.approx(2.0 ** 0.8 - 1.0, rel=1e-15)
        assert -0.5 < rho_fbm(0.01) < rho_fbm(0.99) < 1.0
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="hurst"):
                rho_fbm(bad)


class TestHLamperti:
    def test_at_zero(self):
        assert h_lamperti(0.3, 0.0) == 2.0
        assert h_lamperti(0.9, 0.0) == 2.0

    def test_ou_closed_form(self):
        # H = 1/2 collapses to 2 exp(-x/2)
        for x in (0.0, 0.3, 1.0, 4.0, 30.0):
            assert h_lamperti(0.5, x) == pytest.approx(2.0 * math.exp(-0.5 * x),
                                                       rel=1e-13)
        assert h_lamperti(0.5, 1.0) == pytest.approx(1.2130613194252668, rel=1e-15)

    def test_against_high_precision(self):
        for hurst in H_GRID:
            for x in (1e-8, 1e-4, 0.3, 0.999999, 1.0, 1.000001, 3.0, 10.0, 40.0):
                want = h_reference(hurst, x)
                assert h_lamperti(hurst, x) == pytest.approx(want, rel=1e-10), \
                    (hurst, x)

    @pytest.mark.parametrize("hurst", [0.5, 0.9, 0.99])
    def test_large_x_against_high_precision(self, hurst):
        # exp(-x) underflows past x ~ 708 and goes to 0 past ~745; the tail
        # 2H exp(-(1-H)x) must survive it.  The tolerance is relative while
        # h stays a normal double (for H = 0.5 it underflows near x = 1414).
        for x in np.linspace(700.0, 1500.0, 41):
            want = h_reference(hurst, x, dps=800)
            assert h_lamperti(hurst, x) == pytest.approx(
                want, rel=1e-12, abs=sys.float_info.min), (hurst, x)

    def test_piecewise_seam(self):
        for hurst in H_GRID:
            lo = h_lamperti(hurst, 1.0 - 1e-12)
            hi = h_lamperti(hurst, 1.0 + 1e-12)
            assert lo == pytest.approx(hi, rel=1e-9)

    def test_small_x_power_law(self):
        # 2 - h(x) ~ x**(2H); the remainder (Hx)**2 is negligible only while
        # x**(2-2H) stays small, so the check is restricted to moderate H
        x = 1e-4
        for hurst in (0.05, 0.2, 0.4, 0.5, 0.6):
            lead = x ** (2.0 * hurst)
            assert 2.0 - h_lamperti(hurst, x) == pytest.approx(lead, rel=1e-3)

    def test_vectorized(self):
        xs = np.array([0.0, 0.5, 2.0])
        got = h_lamperti(0.3, xs)
        assert got.shape == (3,)
        for i, x in enumerate(xs):
            assert got[i] == h_lamperti(0.3, float(x))

    def test_validation(self):
        with pytest.raises(ValueError, match="x >= 0"):
            h_lamperti(0.3, -1.0)
        with pytest.raises(ValueError, match="hurst"):
            h_lamperti(1.0, 1.0)


class TestRhoDelampertized:
    def test_ou_identity(self):
        for x in (0.05, 0.5, 1.0, 2.0, 5.0, 20.0):
            want = 0.5 * (math.exp(-0.5 * x) - 1.0)
            assert rho_delampertized(0.5, x) == pytest.approx(want, abs=1e-15)
        assert rho_delampertized(0.5, 1.0) == pytest.approx(
            -0.19673467014368328, abs=1e-16)

    def test_small_m_theta_recovers_fbm(self):
        # convergence rate is m_theta**(2-2H): fast enough to verify at 1e-6
        # for H <= 0.7, increasingly slow above
        for hurst in (0.1, 0.3, 0.5, 0.6, 0.7):
            assert rho_delampertized(hurst, 1e-6) == pytest.approx(
                rho_fbm(hurst), abs=1e-3)

    def test_large_m_theta_limit(self):
        for hurst in (0.1, 0.5, 0.9):
            assert rho_delampertized(hurst, 500.0) == pytest.approx(-0.5, abs=1e-12)

    def test_against_high_precision(self):
        with mpmath.workdps(50):
            for hurst in (0.1, 0.5, 0.95):
                for x in (1e-6, 1e-3, 0.5, 1.0, 5.0):
                    num = mpmath.mpf(2) - mpmath.mpf(h_reference(hurst, 2 * x, 50))
                    # recompute both legs at high precision in one go
                    H = mpmath.mpf(hurst)
                    def hh(y):
                        y = mpmath.mpf(y)
                        return 2 * mpmath.cosh(H * y) - (2 * mpmath.sinh(y / 2)) ** (2 * H)
                    want = float((2 - hh(2 * x)) / (2 * (2 - hh(x))) - 1)
                    assert rho_delampertized(hurst, x) == pytest.approx(
                        want, rel=2e-9, abs=1e-12), (hurst, x)

    def test_tiny_m_theta_against_high_precision(self):
        # down to the smallest subnormal, where x**(2H) underflows for H > 1/2
        with mpmath.workdps(700):
            for hurst in (0.01, 0.3, 0.5, 0.7, 0.99):
                H = mpmath.mpf(hurst)

                def two_minus_h(y):
                    return (2 * mpmath.sinh(y / 2)) ** (2 * H) - 4 * mpmath.sinh(H * y / 2) ** 2

                for x in (5e-324, 1.5e-323, 1e-310, 1e-300, 1e-200, 9.9e-151):
                    x_hp = mpmath.mpf(x)
                    want = float(two_minus_h(2 * x_hp) / (2 * two_minus_h(x_hp)) - 1)
                    assert rho_delampertized(hurst, x) == pytest.approx(want, rel=0, abs=1e-15)
        assert info_delampertized(0.7, 1.0, 5e-324) == pytest.approx(info_fbm(0.7), abs=1e-6)

    def test_stays_inside_unit_interval(self):
        grid = np.logspace(-8, np.log10(50.0), 300)
        worst = max(abs(rho_delampertized(h, float(x)))
                    for h in H_GRID for x in grid)
        assert worst < 0.99

    def test_validation(self):
        with pytest.raises(ValueError, match="m_theta"):
            rho_delampertized(0.5, 0.0)
        with pytest.raises(ValueError, match="hurst"):
            rho_delampertized(0.0, 1.0)


class TestOrthant:
    def test_independent(self):
        assert orthant_probability(0.0) == 0.25

    def test_exact_thirds(self):
        assert orthant_probability(-0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert orthant_probability(0.5) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_symmetry(self):
        for rho in np.linspace(-0.99, 0.99, 23):
            s = orthant_probability(float(rho)) + orthant_probability(float(-rho))
            assert s == pytest.approx(0.5, abs=1e-15)

    def test_monte_carlo(self):
        rho = 0.3
        rng = np.random.default_rng(7)
        n = 2_000_000
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        hit = np.mean((z1 > 0.0) & (z2 <= 0.0))
        p = orthant_probability(rho)
        assert hit == pytest.approx(p, abs=4.0 * math.sqrt(p * (1 - p) / n))

    def test_validation(self):
        for bad in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="rho"):
                orthant_probability(bad)


class TestInfoFromRho:
    def test_zero_at_independence(self):
        assert info_from_rho(0.0) == 0.0

    def test_one_at_determinism(self):
        assert info_from_rho(1.0) == 1.0
        assert info_from_rho(-1.0) == 1.0
        assert info_from_rho(1.0 - 1e-16) == 1.0

    def test_even(self):
        for rho in (0.1, 0.37, 0.8, 0.99):
            assert info_from_rho(rho) == pytest.approx(info_from_rho(-rho), abs=1e-15)

    def test_monotone_in_magnitude(self):
        vals = [info_from_rho(r) for r in (0.0, 0.2, 0.5, 0.8, 0.95, 0.9999)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_continuous_at_edges(self):
        assert info_from_rho(1.0 - 1e-12) == pytest.approx(1.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            info_from_rho(1.0 + 1e-9)


class TestClosedFormInfo:
    def test_fbm_zero_point(self):
        assert info_fbm(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_fbm_reference_value(self):
        assert info_fbm(0.4) == pytest.approx(0.00493, abs=5e-6)
        assert info_fbm(0.4) == info_from_rho(rho_fbm(0.4))

    def test_fbm_asymmetric_around_half(self):
        # persistence at H = 0.5 + d carries more sign information than
        # antipersistence at H = 0.5 - d
        for d in (0.1, 0.2, 0.3, 0.4):
            assert info_fbm(0.5 + d) > info_fbm(0.5 - d) > 0.0

    def test_delampertized_m_theta_symmetry(self):
        a = info_delampertized(0.3, 2.0, 3.0)
        b = info_delampertized(0.3, 3.0, 2.0)
        assert a == b
        assert a == info_from_rho(rho_delampertized(0.3, 6.0))

    def test_delampertized_validation(self):
        with pytest.raises(ValueError, match="m must be positive"):
            info_delampertized(0.3, 0.0, 1.0)
        with pytest.raises(ValueError, match="theta must be positive"):
            info_delampertized(0.3, 1.0, 0.0)

    @pytest.mark.parametrize("m, theta", [(1e10, 1e300), (1e300, 1e10), (1.0, sys.float_info.max)])
    def test_delampertized_product_past_largest_float_is_its_limit(self, m, theta):
        # m * theta overflows to inf; the information is that of rho = -1/2
        for h in (0.1, 0.3, 0.5, 0.9):
            assert info_delampertized(h, m, theta) == info_from_rho(-0.5)
        curve = theory_curve("delampertized", [0.3, 0.7], {"m": m, "theta": theta})
        assert list(curve.ordinate) == [info_from_rho(-0.5)] * 2


class TestCovariances:
    def test_fbm_diagonal(self):
        p = FbmParams(0.3, 2.0)
        assert fbm_covariance(2.0, 2.0, p) == pytest.approx(
            4.0 * 2.0 ** 0.6, rel=1e-15)

    def test_fbm_hand_value(self):
        p = FbmParams(0.3, 2.0)
        want = 2.0 * (1.0 + 2.0 ** 0.6 - 1.0)
        assert fbm_covariance(1.0, 2.0, p) == pytest.approx(want, rel=1e-15)

    def test_fbm_increment_variance(self):
        p = FbmParams(0.7, 1.5)
        for s, t in ((0.0, 1.0), (2.0, 5.0), (1.0, 1.25)):
            var = (fbm_covariance(t, t, p) - 2.0 * fbm_covariance(s, t, p)
                   + fbm_covariance(s, s, p))
            assert var == pytest.approx(p.sigma ** 2 * (t - s) ** 1.4, rel=1e-12)

    def test_delampertized_variance_and_evenness(self):
        p = DelampertizedParams(0.3, 2.0, 1.5)
        assert delampertized_autocovariance(0.0, p) == pytest.approx(
            p.sigma ** 2, rel=1e-15)
        got = delampertized_autocovariance(np.array([-3.0, 3.0]), p)
        assert got[0] == got[1]
        assert got[1] == pytest.approx(
            0.5 * p.sigma ** 2 * h_lamperti(0.3, 6.0), rel=1e-15)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="hurst"):
            FbmParams(1.2)
        with pytest.raises(ValueError, match="sigma"):
            FbmParams(0.5, 0.0)
        with pytest.raises(ValueError, match="theta"):
            DelampertizedParams(0.5, 0.0)


class TestTheoryCurve:
    def test_fbm_grid(self):
        grid = np.arange(0.05, 0.951, 0.05)
        c = theory_curve("fbm", grid)
        assert c.model == "fbm"
        np.testing.assert_allclose(c.ordinate, [info_fbm(h) for h in grid],
                                   rtol=1e-15)

    def test_delampertized_hurst_grid(self):
        c = theory_curve("delampertized", [0.2, 0.5, 0.8], {"theta": 2.0})
        assert c.fixed_params == {"theta": 2.0, "m": 1.0}
        assert c.ordinate[0] == pytest.approx(info_delampertized(0.2, 1.0, 2.0))

    def test_delampertized_m_theta_grid(self):
        c = theory_curve("delampertized", [0.1, 1.0, 10.0], {"hurst": 0.3})
        assert c.ordinate[1] == pytest.approx(
            info_from_rho(rho_delampertized(0.3, 1.0)))

    def test_missing_theta(self):
        with pytest.raises(ValueError, match="needs 'theta'"):
            theory_curve("delampertized", [0.2, 0.5])

    @pytest.mark.parametrize("model, grid, fixed, message", [
        ("fbm", [0.5], {"theta": 1.0},
         "the fbm curve over Hurst values reads no key of fixed, not 'theta'"),
        ("delampertized", [0.5], {"theta": 1.0, "hurst": 0.3},
         "the delampertized curve over m*theta values reads 'hurst' of fixed, not 'theta'"),
        ("delampertized", [0.5], {"theta": 1.0, "foo": 2.0},
         "the delampertized curve over Hurst values reads 'theta', 'm' of fixed, not 'foo'")])
    def test_a_fixed_key_the_curve_does_not_read(self, model, grid, fixed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            theory_curve(model, grid, fixed)

    def test_unknown_model(self):
        message = "^model must be 'fbm' or 'delampertized', got 'garch'$"
        with pytest.raises(ValueError, match=message):
            theory_curve("garch", [0.5])

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TheoryCurve("fbm", np.array([0.5, 0.4]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="ordinate"):
            TheoryCurve("fbm", np.array([0.4, 0.5]), np.array([0.0, 1.5]))
        with pytest.raises(ValueError, match="same length"):
            TheoryCurve("fbm", np.array([0.4, 0.5]), np.array([0.0]))

    def test_caller_arrays_stay_writable(self):
        x, y = np.array([0.1, 0.2]), np.zeros(2)
        c = TheoryCurve("fbm", x, y)
        x[0], y[0] = 0.05, 0.5
        assert c.abscissa.tolist() == [0.1, 0.2] and c.ordinate.tolist() == [0.0, 0.0]
        assert not c.abscissa.flags.writeable and not c.ordinate.flags.writeable

    def test_fresh_arrays_are_held_without_a_copy(self):
        x, y = np.array([0.1, 0.2]), np.zeros(2)
        x.flags.writeable = y.flags.writeable = False
        c = TheoryCurve("fbm", x, y)
        assert c.abscissa is x and c.ordinate is y

    def test_json_dict_holds_arrays_and_a_copy_of_the_params(self):
        c = theory_curve("delampertized", [0.3, 0.5], {"theta": 2.0})
        d = c.to_json_dict()
        assert list(d) == ["model", "fixed_params", "abscissa", "I2"]
        assert d["abscissa"] is c.abscissa and d["I2"] is c.ordinate
        d["fixed_params"]["theta"] = 3.0
        assert c.fixed_params == {"theta": 2.0, "m": 1.0}

    def test_json_of_a_numpy_scalar_param_is_that_of_its_python_float(self):
        # np.float32 raised TypeError: Object of type float32 is not JSON serializable
        given = theory_curve("delampertized", [0.3, 0.5], {"hurst": np.float32(0.3)})
        want = theory_curve("delampertized", [0.3, 0.5], {"hurst": float(np.float32(0.3))})
        assert given.to_json() == want.to_json()

    def test_serialization_roundtrip(self):
        c = theory_curve("fbm", [0.3, 0.5, 0.7])
        doc = json.loads(c.to_json())
        assert doc["model"] == "fbm"
        assert doc["I2"][1] == pytest.approx(0.0, abs=1e-15)
        lines = c.to_csv().strip().split("\n")
        assert lines[0] == "# model=fbm"
        assert lines[1] == "abscissa,I2"
        assert len(lines) == 5
        a, i2 = lines[2].split(",")
        assert float(a) == 0.3
        assert float(i2) == pytest.approx(info_fbm(0.3), rel=1e-15)
