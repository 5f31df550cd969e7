"""Simulators: circulant embedding against a dense Cholesky reference,
reproducibility, price conversion."""

import math
import tracemalloc

import numpy as np
import pytest

import mktinfo.simulate as sim
from mktinfo.information import market_information
from mktinfo.series import compute_returns, to_indicators
from mktinfo.simulate import (
    NumericError,
    PseudoPeriodicParams,
    SimulatedPath,
    simulate_delampertized,
    simulate_fbm,
    simulate_pseudo_periodic,
    to_price_series,
)
from mktinfo.theory import (
    DelampertizedParams,
    FbmParams,
    delampertized_autocovariance,
    fbm_covariance,
    info_delampertized,
    rho_fbm,
)


def reference_covariance(params, dt, n):
    """Covariance of the n values a simulator draws, from the closed forms
    alone: fBm increments on the grid dt, 2*dt, ..., or the stationary
    process itself."""
    if isinstance(params, FbmParams):
        t = dt * np.arange(n + 1)
        c = fbm_covariance(t[:, None], t[None, :], params)
        return c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    idx = np.arange(n)
    return delampertized_autocovariance(dt * (idx[:, None] - idx[None, :]), params)


def dense_sample(factor, seed):
    """Reference sampler: a dense Cholesky factor times one block of normals."""
    return factor @ np.random.default_rng(seed).standard_normal(len(factor))


def full_fft_sample(root, n, seed):
    """The embedding's draw built on the full complex spectrum of length 2M,
    Hermitian by construction: the same normals in the same bins as the
    sampler's half spectrum."""
    m = len(root) - 1
    draws = np.random.default_rng(seed).standard_normal(2 * m)
    z = np.empty(2 * m, dtype=np.complex128)
    z[0] = draws[0]
    z[m] = draws[1]
    half = (draws[2 : m + 1] + 1j * draws[m + 1 :]) / np.sqrt(2.0)
    z[1:m] = half
    z[m + 1 :] = half[::-1].conj()
    full_root = np.concatenate([root, root[-2:0:-1]])
    return np.sqrt(2 * m) * np.fft.ifft(full_root * z).real[:n]


def half_spectrum_sample(root, n, rng):
    """The sampler written out of place, as it first was: the in-place one
    must match it bit for bit."""
    m = len(root) - 1
    draws = rng.standard_normal(2 * m)
    z = np.empty(m + 1, dtype=np.complex128)
    z[0] = draws[0]
    z[m] = draws[1]
    z[1:m] = (draws[2 : m + 1] + 1j * draws[m + 1 :]) / np.sqrt(2.0)
    return np.sqrt(2 * m) * np.fft.irfft(root * z, 2 * m)[:n]


def sampled_values(params, n, dt, seed):
    """What the sampler draws: fBm increments, or the stationary values."""
    if isinstance(params, FbmParams):
        return np.diff(simulate_fbm(params, n, dt, seed).values, prepend=0.0)
    return simulate_delampertized(params, n, dt, seed).values


@pytest.fixture()
def fresh_roots():
    sim._circulant_root.cache_clear()
    yield
    sim._circulant_root.cache_clear()


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

    @pytest.mark.parametrize("n", [10.5, 10.0, True, "10", None])
    def test_n_must_be_an_integer(self, n):
        for simulate in (lambda: simulate_fbm(FbmParams(0.5), n),
                         lambda: simulate_delampertized(DelampertizedParams(0.5, 1.0), n),
                         lambda: simulate_pseudo_periodic(0.5, 2, n)):
            with pytest.raises(ValueError, match="n must be an integer"):
                simulate()

    def test_numpy_integer_n(self):
        n = np.int64(12)
        assert len(simulate_fbm(FbmParams(0.5), n).values) == 12
        assert len(simulate_pseudo_periodic(0.5, 2, n).values) == 12


class TestSimulatedPath:
    def test_caller_array_stays_writable(self):
        values = np.zeros(3)
        path = SimulatedPath("fbm", FbmParams(0.5), 1.0, 0, values)
        values[0] = 1.0
        assert path.values.tolist() == [0.0, 0.0, 0.0]
        assert not path.values.flags.writeable

    def test_read_only_array_is_held_without_a_copy(self):
        values = np.zeros(3)
        values.flags.writeable = False
        assert SimulatedPath("fbm", FbmParams(0.5), 1.0, 0, values).values is values


class TestFgnPieces:
    def test_autocovariance_brownian(self):
        gamma = sim._autocovariance(FbmParams(0.5, 2.0), 0.25, 5)
        # H = 1/2: increments are independent with variance sigma**2 * dt
        np.testing.assert_allclose(gamma, [4.0 * 0.25, 0, 0, 0, 0, 0], atol=1e-15)

    def test_autocovariance_persistent(self):
        gamma = sim._autocovariance(FbmParams(0.7), 1.0, 1)
        assert gamma[0] == pytest.approx(1.0, rel=1e-15)
        assert gamma[1] == pytest.approx(0.5 * (2.0 ** 1.4 - 2.0), rel=1e-14)
        assert gamma[1] / gamma[0] == pytest.approx(rho_fbm(0.7), rel=1e-13)

    def test_spectrum_inverts_to_embedding(self):
        n = 64
        for params in ([FbmParams(h) for h in (0.1, 0.3, 0.5, 0.7, 0.9)]
                       + [DelampertizedParams(h, 0.5) for h in (0.2, 0.8)]):
            root = sim._circulant_root(params, 1.0, n)
            assert len(root) == n + 1  # no padding needed here
            gamma = sim._autocovariance(params, 1.0, n)
            circ = np.concatenate([gamma, gamma[-2:0:-1]])
            np.testing.assert_allclose(np.fft.irfft(root ** 2, 2 * n), circ, atol=1e-12)

    def test_cholesky_identities(self):
        # the dense reference is the Toeplitz matrix of the sampler's own
        # autocovariance, and its Cholesky factor reproduces it
        idx = np.arange(40)
        for params, dt in ((FbmParams(0.8, 0.5), 1.0), (DelampertizedParams(0.3, 2.0, 1.5), 0.5)):
            cov = reference_covariance(params, dt, 40)
            gamma = sim._autocovariance(params, dt, 39)
            np.testing.assert_allclose(cov, gamma[np.abs(idx[:, None] - idx[None, :])],
                                       rtol=1e-12, atol=1e-14)
            factor = np.linalg.cholesky(cov)
            np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-12)


class TestCirculantEmbedding:
    @pytest.mark.parametrize("params, dt", [(FbmParams(0.8, 0.5), 0.5),
                                            (DelampertizedParams(0.3, 0.5, 2.0), 1.0)])
    def test_sample_autocovariance_within_standard_error(self, params, dt):
        # the mean is known to be 0, so each lag product is unbiased and the
        # paths are independent: the spread over paths gives the standard error
        n, paths, lags = 256, 400, np.array([0, 1, 2, 5, 20, 100])
        est = np.empty((paths, len(lags)))
        for s in range(paths):
            x = sampled_values(params, n, dt, s)
            est[s] = [x[: n - k] @ x[k:] / (n - k) for k in lags]
        want = reference_covariance(params, dt, n)[0, lags]
        z = (est.mean(axis=0) - want) / (est.std(axis=0, ddof=1) / math.sqrt(paths))
        assert np.all(np.abs(z) < 4.0), z

    def test_padded_embedding(self, fresh_roots):
        # the minimal embedding of this slowly decaying covariance is
        # indefinite; doubling three times makes it nonnegative
        p, n = DelampertizedParams(0.95, 0.01), 1000
        assert len(sim._circulant_root(p, 1.0, n)) == 8 * n + 1
        paths, lags = 200, np.array([0, 1, 10, 100, 999])
        est = np.empty((paths, len(lags)))
        for s in range(paths):
            x = simulate_delampertized(p, n, seed=s).values
            est[s] = [x[: n - k] @ x[k:] / (n - k) for k in lags]
        want = delampertized_autocovariance(lags, p)
        z = (est.mean(axis=0) - want) / (est.std(axis=0, ddof=1) / math.sqrt(paths))
        assert np.all(np.abs(z) < 4.0), z

    def test_long_stationary_path(self, fresh_roots):
        path = simulate_delampertized(DelampertizedParams(0.3, 1.0), 200_000, seed=1)
        assert path.values.shape == (200_000,)
        assert path.values.var() == pytest.approx(1.0, rel=0.05)

    def test_nan_autocovariance_raises_at_once(self, monkeypatch, fresh_roots):
        calls = []

        def nan_autocovariance(params, dt, n_lags):
            calls.append(n_lags)
            return np.full(n_lags + 1, np.nan)

        monkeypatch.setattr(sim, "_autocovariance", nan_autocovariance)
        with pytest.raises(NumericError, match="autocovariance is not finite"):
            simulate_fbm(FbmParams(0.4), 16)
        assert calls == [16]


class TestCirculantSampleInPlace:
    @pytest.mark.parametrize("params, n", [
        (FbmParams(0.7, 0.5), 1000),
        (FbmParams(0.3), 999),
        (DelampertizedParams(0.3, 2.0), 1001),
        (DelampertizedParams(0.95, 0.01), 1000),  # padded: M = 8n
    ])
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_bit_identical_to_out_of_place(self, fresh_roots, params, n, seed):
        root = sim._circulant_root(params, 1.0, n)
        got = sim._circulant_sample(root, n, np.random.default_rng(seed))
        want = half_spectrum_sample(root, n, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_paths_bit_identical_to_out_of_place(self, fresh_roots):
        fbm, stationary = FbmParams(0.7, 0.5), DelampertizedParams(0.95, 0.01)
        want = np.cumsum(half_spectrum_sample(sim._circulant_root(fbm, 1.0, 999), 999,
                                              np.random.default_rng(5)))
        assert simulate_fbm(fbm, 999, seed=5).values.tobytes() == want.tobytes()
        want = half_spectrum_sample(sim._circulant_root(stationary, 1.0, 1000), 1000,
                                    np.random.default_rng(5))
        assert simulate_delampertized(stationary, 1000, seed=5).values.tobytes() == want.tobytes()

    def test_peak_memory(self, fresh_roots):
        # normals (2M floats) then the half spectrum (M + 1 complex), then the
        # spectrum and irfft's output (2M floats): 32 bytes per bin at most;
        # the out-of-place version held twice that
        m = 1 << 17
        root = sim._circulant_root(FbmParams(0.7), 1.0, m)
        assert len(root) == m + 1
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            sim._circulant_sample(root, m, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * m, peak / m


class TestSimulateFbm:
    def test_reproducible(self):
        p = FbmParams(0.7)
        a = simulate_fbm(p, 64, seed=3)
        b = simulate_fbm(p, 64, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        c = simulate_fbm(p, 64, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_replay(self):
        # the half-spectrum draw equals the full-spectrum one up to rounding,
        # so the normals go to the same bins as they did on the full spectrum
        p = FbmParams(0.6, 0.5)
        path = simulate_fbm(p, 24, dt=0.5, seed=11)
        root = sim._circulant_root(p, 0.5, 24)
        want = np.cumsum(full_fft_sample(root, 24, 11))
        np.testing.assert_allclose(path.values, want, rtol=1e-12, atol=1e-14)

    def test_methods_agree_on_moments(self):
        # pooled lag-1 correlation of the circulant sampler and of the dense
        # reference, each against the closed form and against each other
        n, seeds = 200, 300
        for params, want in ((FbmParams(0.8), rho_fbm(0.8)),
                             (DelampertizedParams(0.7, 0.5),
                              delampertized_autocovariance(1.0, DelampertizedParams(0.7, 0.5)))):
            factor = np.linalg.cholesky(reference_covariance(params, 1.0, n))
            draws = {"circulant": lambda s: sampled_values(params, n, 1.0, s),
                     "dense": lambda s: dense_sample(factor, s)}
            est = {}
            for method, draw in draws.items():
                num = den = 0.0
                for s in range(seeds):
                    x = draw(s)
                    num += float(x[:-1] @ x[1:])
                    den += float(x @ x)
                est[method] = num / den
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
        for dt in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                simulate_fbm(p, 8, dt=dt)
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                FbmParams(0.4, sigma)

    def test_circulant_failure_raises(self, monkeypatch, fresh_roots):
        # with the floor of the cap removed, the cap is 4n lags, short of the
        # 8n this covariance needs
        monkeypatch.setattr(sim, "_MIN_EMBEDDING_CAP", 0)
        with pytest.raises(NumericError,
                           match="no nonnegative circulant embedding within 4000 lags"):
            simulate_delampertized(DelampertizedParams(0.95, 0.01), 1000)


class TestSimulateDelampertized:
    def test_replay(self):
        p = DelampertizedParams(0.3, 2.0, 1.5)
        path = simulate_delampertized(p, 20, dt=0.5, seed=21)
        root = sim._circulant_root(p, 0.5, 20)
        np.testing.assert_allclose(path.values, full_fft_sample(root, 20, 21),
                                   rtol=1e-12, atol=1e-14)
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
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate_delampertized(p, 8, dt=math.inf)
        for theta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="theta must be positive and finite"):
                DelampertizedParams(0.5, theta)
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            DelampertizedParams(0.5, 1.0, math.inf)

    def test_information_matches_closed_form(self):
        # criterion 2's protocol for the stationary model at theta = 1: 500
        # paths of n = 3000 per H from seed blocks fixed in advance, with the
        # plug-in bias taken from an H = 0.5 leg on its own seed block, whose
        # closed form is known too
        n_paths, theta = 500, 1.0

        def leg(hurst, base_seed):
            p = DelampertizedParams(hurst, theta, 0.01)
            vals = np.array([
                market_information(to_indicators(compute_returns(
                    to_price_series(simulate_delampertized(p, 3000, seed=base_seed + i)),
                    1)), 1)
                for i in range(n_paths)])
            return vals.mean(), vals.var(ddof=1)

        base_mean, base_var = leg(0.5, 55555)
        bias = base_mean - info_delampertized(0.5, 1.0, theta)
        zs = {}
        for hurst, base_seed in ((0.3, 11111), (0.4, 22222), (0.6, 33333)):
            mean, var = leg(hurst, base_seed)
            se = math.sqrt(var / n_paths + base_var / n_paths)
            zs[hurst] = (mean - bias - info_delampertized(hurst, 1.0, theta)) / se
        assert all(abs(z) <= 3.0 for z in zs.values()), zs


def sequential_recursion(shocks, feedback, lag, scale):
    """The recursion one element at a time, in numpy float64 arithmetic."""
    out = np.array(shocks, dtype=np.float64)
    for i in range(lag, len(out)):
        out[i] = feedback * out[i - lag] + scale * out[i]
    return out


class TestSimulatePseudoPeriodic:
    def test_exact_recursion(self):
        # integer shocks, feedback +-1 and scale 1 or 2 keep every partial
        # sum an integer far below 2**53, so the scan, whatever order it adds
        # in, must equal the sequential loop bit for bit
        n = 12_000
        shocks = np.random.default_rng(17).integers(-1000, 1001, n).astype(np.float64)
        for tau in (1, 5, 5_000, 12_000, 20_000):
            for feedback in (1.0, -1.0):
                for scale in (1.0, 2.0):
                    got = sim._lagged_recursion(shocks.copy(), feedback, tau, scale)
                    want = sequential_recursion(shocks, feedback, tau, scale)
                    np.testing.assert_array_equal(got, want, err_msg=f"{tau} {feedback} {scale}")
        path = simulate_pseudo_periodic(-0.9, 5, 60, seed=17)
        assert path.model == "pseudo_periodic"
        assert path.params == PseudoPeriodicParams(-0.9, 5)

    @pytest.mark.parametrize("beta, tau, n", [(0.6, 1, 9_000), (-0.9, 5, 10_000),
                                              (0.9999, 5, 100_000), (-0.9999, 5, 100_000),
                                              (0.6, 5_000, 12_000)])
    def test_recursion_within_rounding_bound(self, beta, tau, n):
        # the scan adds in another order than the loop, so each value may
        # differ by rounding, bounded by 8 * eps * log2(n) times the
        # recursion run on the shocks' and the feedback's magnitudes
        path = simulate_pseudo_periodic(beta, tau, n, seed=3)
        shocks = np.random.default_rng(3).standard_normal(n)
        scale = math.sqrt(1.0 - beta * beta)
        want = sequential_recursion(shocks, beta, tau, scale)
        magnitude = sequential_recursion(np.abs(shocks), abs(beta), tau, scale)
        bound = 8.0 * np.finfo(np.float64).eps * math.log2(n) * magnitude
        assert np.all(np.abs(path.values - want) <= bound)

    def test_seed_replays_bit_identically(self):
        first = simulate_pseudo_periodic(-0.9, 5, 50_000, seed=8)
        again = simulate_pseudo_periodic(-0.9, 5, 50_000, seed=8)
        np.testing.assert_array_equal(first.values, again.values)
        assert not np.array_equal(first.values,
                                  simulate_pseudo_periodic(-0.9, 5, 50_000, seed=9).values)

    def test_prefix_passthrough(self):
        shocks = np.arange(6, dtype=np.float64)
        out = sim._lagged_recursion(shocks.copy(), 0.5, 3, 2.0)
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
        np.testing.assert_array_equal(prices.timestamps, np.arange(32))
        assert prices.timestamps.dtype == np.int64

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

    @pytest.mark.parametrize("model, values, kind", [
        ("fbm", [0.0, -800.0], "log-price"),
        ("pseudo_periodic", [-0.5] * 1100, "compounded price"),
        ("pseudo_periodic", [1e200, 1e200], "compounded price")])
    def test_price_underflow_and_overflow_guard(self, model, values, kind):
        # exp(-800) and 0.5**1100 underflow to 0, 1e400 overflows; no return reaches -1
        p = SimulatedPath(model, PseudoPeriodicParams(0.5, 2), 1.0, 0, np.array(values))
        with pytest.raises(ValueError, match=f"^{kind} range too wide"):
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
