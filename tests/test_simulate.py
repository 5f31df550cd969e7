"""Simulators: exact factorizations, reproducibility, price conversion."""

import math

import numpy as np
import pytest

import mktinfo.simulate as sim
from mktinfo.simulate import (
    NumericError,
    PseudoPeriodicParams,
    SimulatedPath,
    simulate_delampertized,
    simulate_fbm,
    simulate_pseudo_periodic,
    to_price_series,
)
from mktinfo.theory import DelampertizedParams, FbmParams, h_lamperti, rho_fbm


class TestParams:
    def test_pseudo_periodic_validation(self):
        with pytest.raises(ValueError, match=r"beta must lie in \(-1, 1\)"):
            PseudoPeriodicParams(1.0, 5)
        with pytest.raises(ValueError, match="tau must be a positive integer"):
            PseudoPeriodicParams(0.5, 0)
        with pytest.raises(ValueError, match="tau must be a positive integer"):
            PseudoPeriodicParams(0.5, 2.5)

    def test_numeric_error_is_runtime_error(self):
        assert issubclass(NumericError, RuntimeError)


class TestFgnPieces:
    def test_autocovariance_brownian(self):
        gamma = sim._fgn_autocovariance(0.5, 2.0, 0.25, 5)
        # H = 1/2: increments are independent with variance sigma**2 * dt
        np.testing.assert_allclose(gamma, [4.0 * 0.25, 0, 0, 0, 0, 0], atol=1e-15)

    def test_autocovariance_persistent(self):
        gamma = sim._fgn_autocovariance(0.7, 1.0, 1.0, 1)
        assert gamma[0] == pytest.approx(1.0, rel=1e-15)
        assert gamma[1] == pytest.approx(0.5 * (2.0 ** 1.4 - 2.0), rel=1e-14)
        assert gamma[1] / gamma[0] == pytest.approx(rho_fbm(0.7), rel=1e-13)

    def test_spectrum_inverts_to_embedding(self):
        for hurst in (0.1, 0.3, 0.5, 0.7, 0.9):
            n = 64
            root = sim._fgn_spectrum(hurst, 1.0, 1.0, n)
            assert root is not None
            gamma = sim._fgn_autocovariance(hurst, 1.0, 1.0, n)
            circ = np.concatenate([gamma, gamma[-2:0:-1]])
            rec = np.fft.ifft(root.astype(np.float64) ** 2).real
            np.testing.assert_allclose(rec, circ, atol=1e-12)

    def test_cholesky_identities(self):
        p = FbmParams(0.8, 0.5)
        factor = sim._fgn_cholesky(p.hurst, p.sigma, 1.0, 40)
        gamma = sim._fgn_autocovariance(p.hurst, p.sigma, 1.0, 39)
        idx = np.arange(40)
        cov = gamma[np.abs(idx[:, None] - idx[None, :])]
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-12)

        q = DelampertizedParams(0.3, 2.0, 1.5)
        factor = sim._stationary_cholesky(q.hurst, q.sigma, q.theta, 0.5, 30)
        tau = 0.5 * np.abs(idx[:30, None] - idx[None, :30])
        cov = 0.5 * q.sigma ** 2 * h_lamperti(q.hurst, q.theta * tau)
        np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-12)

    def test_jitter_gives_up_on_indefinite(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericError, match="covariance not factorizable"):
            sim._cholesky_with_jitter(cov, 1.0)


class TestSimulateFbm:
    def test_reproducible(self):
        p = FbmParams(0.7)
        a = simulate_fbm(p, 64, seed=3)
        b = simulate_fbm(p, 64, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        c = simulate_fbm(p, 64, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_auto_uses_circulant(self):
        p = FbmParams(0.3)
        a = simulate_fbm(p, 50, seed=1, method="auto")
        b = simulate_fbm(p, 50, seed=1, method="circulant")
        np.testing.assert_array_equal(a.values, b.values)

    def test_dense_replay(self):
        # dense route is factor @ z with z drawn in one block
        p = FbmParams(0.6, 0.5)
        path = simulate_fbm(p, 24, dt=0.5, seed=11, method="dense")
        rng = np.random.default_rng(11)
        factor = sim._fgn_cholesky(0.6, 0.5, 0.5, 24)
        want = np.cumsum(factor @ rng.standard_normal(24))
        np.testing.assert_array_equal(path.values, want)

    def test_methods_agree_on_moments(self):
        p = FbmParams(0.8)
        n, seeds = 200, 300
        est = {}
        for method in ("circulant", "dense"):
            num = den = 0.0
            for s in range(seeds):
                x = np.diff(simulate_fbm(p, n, seed=s, method=method).values,
                            prepend=0.0)
                num += float(x[:-1] @ x[1:])
                den += float(x @ x)
            est[method] = num / den
        want = rho_fbm(0.8)
        assert est["circulant"] == pytest.approx(want, abs=0.04)
        assert est["dense"] == pytest.approx(want, abs=0.04)
        assert est["circulant"] == pytest.approx(est["dense"], abs=0.05)

    def test_metadata(self):
        p = FbmParams(0.4)
        path = simulate_fbm(p, 16, dt=2.0, seed=9)
        assert path.model == "fbm"
        assert path.params is p
        assert path.dt == 2.0 and path.seed == 9
        assert path.values.shape == (16,)
        assert not path.values.flags.writeable

    def test_validation(self):
        p = FbmParams(0.4)
        with pytest.raises(ValueError, match="n must be at least 2"):
            simulate_fbm(p, 1)
        with pytest.raises(ValueError, match="dt must be positive"):
            simulate_fbm(p, 8, dt=0.0)
        with pytest.raises(ValueError, match="unknown method 'qmc'"):
            simulate_fbm(p, 8, method="qmc")

    def test_circulant_failure_raises(self, monkeypatch):
        monkeypatch.setattr(sim, "_fgn_spectrum", lambda *a: None)
        with pytest.raises(NumericError, match="covariance not factorizable"):
            simulate_fbm(FbmParams(0.4), 8, method="circulant")

    def test_auto_falls_back_to_dense(self, monkeypatch):
        monkeypatch.setattr(sim, "_fgn_spectrum", lambda *a: None)
        path = simulate_fbm(FbmParams(0.4), 8, seed=5, method="auto")
        want = simulate_fbm(FbmParams(0.4), 8, seed=5, method="dense")
        np.testing.assert_array_equal(path.values, want.values)


class TestSimulateDelampertized:
    def test_replay(self):
        p = DelampertizedParams(0.3, 2.0, 1.5)
        path = simulate_delampertized(p, 20, dt=0.5, seed=21)
        rng = np.random.default_rng(21)
        factor = sim._stationary_cholesky(0.3, 1.5, 2.0, 0.5, 20)
        np.testing.assert_array_equal(path.values, factor @ rng.standard_normal(20))
        assert path.model == "delampertized"

    def test_marginal_variance(self):
        p = DelampertizedParams(0.7, 1.0, 2.0)
        draws = np.array([simulate_delampertized(p, 4, seed=s).values[0]
                          for s in range(2000)])
        assert draws.var() == pytest.approx(4.0, rel=0.15)

    def test_validation(self):
        p = DelampertizedParams(0.5, 1.0)
        with pytest.raises(ValueError, match="n must be at least 2"):
            simulate_delampertized(p, 1)


class TestSimulatePseudoPeriodic:
    def test_exact_recursion(self):
        beta, tau, n = -0.9, 5, 60
        path = simulate_pseudo_periodic(beta, tau, n, seed=17)
        shocks = np.random.default_rng(17).standard_normal(n)
        scale = math.sqrt(1.0 - beta * beta)
        want = np.empty(n)
        for i in range(n):
            if i < tau:
                want[i] = shocks[i]
            else:
                want[i] = beta * want[i - tau] + scale * shocks[i]
        np.testing.assert_array_equal(path.values, want)
        assert path.model == "pseudo_periodic"
        assert path.params == PseudoPeriodicParams(beta, tau)

    @pytest.mark.parametrize("tau, n", [(1, 9_000), (5, 10_000), (5_000, 12_000)])
    def test_exact_recursion_across_blocks(self, tau, n):
        # long enough to span several of the recursion's working blocks, and
        # with a lag longer than one block
        beta = 0.6
        path = simulate_pseudo_periodic(beta, tau, n, seed=3)
        shocks = np.random.default_rng(3).standard_normal(n)
        scale = math.sqrt(1.0 - beta * beta)
        want = shocks.copy()
        for i in range(tau, n):
            want[i] = beta * want[i - tau] + scale * shocks[i]
        np.testing.assert_array_equal(path.values, want)

    def test_prefix_passthrough(self):
        shocks = np.arange(6, dtype=np.float64)
        out = sim._lagged_recursion(shocks, 0.5, 3, 2.0)
        np.testing.assert_array_equal(out[:3], shocks[:3])
        np.testing.assert_array_equal(out[3:], 0.5 * out[:3] + 2.0 * shocks[3:])

    def test_unit_marginal_variance(self):
        vals = np.concatenate([simulate_pseudo_periodic(0.8, 3, 200, seed=s).values
                               for s in range(60)])
        assert vals.var() == pytest.approx(1.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            simulate_pseudo_periodic(0.5, 2, 0)


class TestToPriceSeries:
    def test_fbm_exponentiation(self):
        path = simulate_fbm(FbmParams(0.5, 0.02), 32, seed=2)
        prices = to_price_series(path, p0=50.0)
        assert len(prices) == 32
        assert prices.prices[0] == 50.0
        np.testing.assert_allclose(np.log(prices.prices / 50.0),
                                   path.values - path.values[0], atol=1e-12)
        assert prices.timestamps == tuple(range(32))

    def test_pseudo_periodic_compounding(self):
        p = SimulatedPath("pseudo_periodic", PseudoPeriodicParams(0.5, 2), 1.0, 0,
                          np.array([0.1, -0.05, 0.02]))
        prices = to_price_series(p, p0=100.0)
        assert len(prices) == 4
        np.testing.assert_allclose(prices.prices,
                                   [100.0, 110.0, 104.5, 104.5 * 1.02], rtol=1e-14)

    def test_pseudo_periodic_rejects_ruin(self):
        p = SimulatedPath("pseudo_periodic", PseudoPeriodicParams(0.5, 2), 1.0, 0,
                          np.array([0.1, -1.0, 0.02]))
        with pytest.raises(ValueError, match="non-positive at step 2"):
            to_price_series(p)

    def test_log_price_overflow_guard(self):
        p = SimulatedPath("fbm", FbmParams(0.5), 1.0, 0, np.array([0.0, 800.0]))
        with pytest.raises(ValueError, match="log-price range too wide"):
            to_price_series(p)

    def test_unknown_model(self):
        p = SimulatedPath("garch", FbmParams(0.5), 1.0, 0, np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="unknown model 'garch'"):
            to_price_series(p)

    def test_p0_validation(self):
        path = simulate_fbm(FbmParams(0.5, 0.01), 8, seed=0)
        with pytest.raises(ValueError, match="p0 must be positive"):
            to_price_series(path, p0=0.0)
