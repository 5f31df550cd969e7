"""The fBm information profile at orders 2-5 against numerical orthants.

The sign word of k consecutive fGn increments has, for each pattern of
signs s, the probability that a centred Gaussian vector with covariance
D R D lies in the positive orthant, where R holds the increments'
correlations and D = diag(s).  scipy's multivariate normal CDF gives each
one, so the order-k information 1 + H(k-1) - H(k) needs no simulation.
"""

import itertools

import numpy as np
import pytest
import scipy.stats

from mktinfo import FbmParams, info_fbm, profile_from_prices, simulate_fbm, to_price_series

MAX_ORDER = 5
# absolute error the CDF integrator aims at for each pattern's probability
ABSEPS = 1e-6


def fgn_correlations(hurst: float, k: int) -> np.ndarray:
    """Correlations rho(|i-j|) = (|l+1|**2H - 2|l|**2H + |l-1|**2H)/2 of k
    consecutive fGn increments."""
    lag = np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float)
    h2 = 2.0 * hurst
    return 0.5 * ((lag + 1.0) ** h2 - 2.0 * lag ** h2 + np.abs(lag - 1.0) ** h2)


def pattern_probabilities(hurst: float, k: int, rng: np.random.Generator) -> dict:
    """Probability of each sign pattern (a tuple of +1/-1) of k increments.
    A pattern and its negation have the same probability, so only patterns
    starting with +1 are integrated."""
    corr = fgn_correlations(hurst, k)
    probs = {}
    for tail in itertools.product((1.0, -1.0), repeat=k - 1):
        signs = np.array((1.0, *tail))
        mvn = scipy.stats.multivariate_normal(cov=corr * np.outer(signs, signs), abseps=ABSEPS)
        probs[tuple(signs)] = probs[tuple(-signs)] = float(mvn.cdf(np.zeros(k), rng=rng))
    return probs


def entropy_bits(probs: dict) -> float:
    p = np.array(list(probs.values()))
    return float(-(p * np.log2(p)).sum())


@pytest.fixture(scope="module", params=[0.3, 0.6], ids=["H=0.3", "H=0.6"])
def oracle(request):
    """(hurst, pattern probabilities by order, information by order)."""
    hurst = request.param
    rng = np.random.default_rng(2024)
    probs = {k: pattern_probabilities(hurst, k, rng) for k in range(1, MAX_ORDER + 1)}
    entropy = {0: 0.0, **{k: entropy_bits(p) for k, p in probs.items()}}
    info = {k: 1.0 + entropy[k - 1] - entropy[k] for k in probs}
    return hurst, probs, info


def test_patterns_of_each_order_sum_to_one(oracle):
    _, probs, _ = oracle
    for k, p in probs.items():
        assert sum(p.values()) == pytest.approx(1.0, abs=2 ** k * ABSEPS), k


def test_summing_out_the_last_sign_gives_the_order_below(oracle):
    _, probs, _ = oracle
    for k in range(2, MAX_ORDER + 1):
        for word, p in probs[k - 1].items():
            both = probs[k][(*word, 1.0)] + probs[k][(*word, -1.0)]
            assert both == pytest.approx(p, abs=2 * ABSEPS), (k, word)


def test_order_two_is_the_closed_form(oracle):
    hurst, _, info = oracle
    assert info[2] == pytest.approx(info_fbm(hurst), abs=1e-6)


def test_simulated_profile_matches_orders_two_to_five(oracle):
    # over seeds 10..29, which this test does not use, the path's cells at
    # orders 2-5 differ from the oracle with standard deviations of 1.1e-4
    # to 1.8e-4 and means under 5e-5; 6e-4 is 3.4 of the largest
    hurst, _, info = oracle
    path = simulate_fbm(FbmParams(hurst, 0.001), 2_000_000, 1.0, 5)
    _, ip = profile_from_prices(to_price_series(path), L_max=MAX_ORDER - 1, m_values=(1,))
    for k in range(2, MAX_ORDER + 1):
        assert ip.cell(k, 1) == pytest.approx(info[k], abs=6e-4), k
