"""The information profile of both Gaussian models at orders 2-5 against
numerical orthants.

The sign word of k consecutive increments of fBm or of the delampertized
process has, for each pattern of signs s, the probability that a centred
Gaussian vector with covariance D R D lies in the positive orthant, where R
holds the increments' correlations and D = diag(s).  scipy's multivariate
normal CDF gives each one, so the order-k information 1 + H(k-1) - H(k)
needs no simulation.
"""

import functools
import itertools

import numpy as np
import pytest
import scipy.stats

from mktinfo import DelampertizedParams, FbmParams, delampertized_autocovariance, \
    info_delampertized, info_fbm, profile_from_prices, simulate_delampertized, simulate_fbm, \
    to_price_series

MAX_ORDER = 5
# absolute error the CDF integrator aims at for each pattern's probability
ABSEPS = 1e-6


def fgn_correlations(params: FbmParams, lag: np.ndarray) -> np.ndarray:
    """Correlations rho(l) = (|l+1|**2H - 2|l|**2H + |l-1|**2H)/2 of fGn
    increments `lag` steps apart."""
    h2 = 2.0 * params.hurst
    return 0.5 * ((lag + 1.0) ** h2 - 2.0 * lag ** h2 + np.abs(lag - 1.0) ** h2)


def delampertized_correlations(params: DelampertizedParams, lag: np.ndarray) -> np.ndarray:
    """Correlations of one-step increments of the delampertized process
    `lag` steps apart: Cov(dX_0, dX_l) = 2g(l) - g(l+1) - g(|l-1|), with g
    its autocovariance, over the variance 2g(0) - 2g(1)."""
    g = lambda tau: delampertized_autocovariance(tau, params)  # noqa: E731
    return (2.0 * g(lag) - g(lag + 1.0) - g(np.abs(lag - 1.0))) / (2.0 * g(0.0) - 2.0 * g(1.0))


def pattern_probabilities(correlations, k: int, rng: np.random.Generator) -> dict:
    """Probability of each sign pattern (a tuple of +1/-1) of k increments
    whose correlation at lag l is correlations(l).  A pattern and its
    negation have the same probability, so only patterns starting with +1
    are integrated."""
    corr = correlations(np.abs(np.subtract.outer(np.arange(k), np.arange(k))).astype(float))
    probs = {}
    for tail in itertools.product((1.0, -1.0), repeat=k - 1):
        signs = np.array((1.0, *tail))
        mvn = scipy.stats.multivariate_normal(cov=corr * np.outer(signs, signs), abseps=ABSEPS)
        probs[tuple(signs)] = probs[tuple(-signs)] = float(mvn.cdf(np.zeros(k), rng=rng))
    return probs


def entropy_bits(probs: dict) -> float:
    p = np.array(list(probs.values()))
    return float(-(p * np.log2(p)).sum())


# (model parameters, the order-2 closed form, a path of n steps from seed
# 5, and the largest |path - oracle| accepted at orders 2-5).  Each tolerance
# is at least 3 standard deviations of path - oracle over seeds 10..29,
# which these tests do not use; the largest of those at orders 2-5 was
# 1.8e-4 (fBm, H = 0.3), 7.6e-5 (0.4), 2.0e-6 (0.5), 1.3e-4 (0.6), and
# 2.7e-4 and 3.1e-4 for the two delampertized cases.  At H = 0.5 every
# order reads 0 and the path reads high by the plug-in estimator's bias,
# 6.4e-6 on average at order 5: its 2e-5 is that bias plus 6.7 deviations.
MODELS = {
    "H=0.3": (FbmParams(0.3, 0.001), info_fbm, 2_000_000, 6e-4),
    "H=0.4": (FbmParams(0.4, 0.001), info_fbm, 2_000_000, 3e-4),
    "H=0.5": (FbmParams(0.5, 0.001), info_fbm, 2_000_000, 2e-5),
    "H=0.6": (FbmParams(0.6, 0.001), info_fbm, 2_000_000, 6e-4),
    "delampertized-H=0.45-theta=1": (DelampertizedParams(0.45, 1.0),
                                     lambda h: info_delampertized(h, 1, 1.0), 1_000_000, 1e-3),
    "delampertized-H=0.3-theta=0.5": (DelampertizedParams(0.3, 0.5),
                                      lambda h: info_delampertized(h, 1, 0.5), 1_000_000, 1e-3),
}


def simulated_cells(params, n: int, seed: int) -> dict:
    """The information of one simulated path at orders 2-5, m = 1."""
    simulate = simulate_fbm if isinstance(params, FbmParams) else simulate_delampertized
    path = simulate(params, n, 1.0, seed)
    _, ip = profile_from_prices(to_price_series(path), L_max=MAX_ORDER - 1, m_values=(1,))
    return {k: ip.cell(k, 1) for k in range(2, MAX_ORDER + 1)}


def orthant_oracle(params) -> tuple:
    """(pattern probabilities by order, information by order)."""
    correlations = functools.partial(
        fgn_correlations if isinstance(params, FbmParams) else delampertized_correlations, params)
    rng = np.random.default_rng(2024)
    probs = {k: pattern_probabilities(correlations, k, rng) for k in range(1, MAX_ORDER + 1)}
    entropy = {0: 0.0, **{k: entropy_bits(p) for k, p in probs.items()}}
    return probs, {k: 1.0 + entropy[k - 1] - entropy[k] for k in probs}


@pytest.fixture(scope="module", params=list(MODELS), ids=list(MODELS))
def oracle(request):
    """(the model's MODELS entry, pattern probabilities by order, information by order)."""
    model = MODELS[request.param]
    return (model, *orthant_oracle(model[0]))


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
    (params, closed_form, _, _), _, info = oracle
    assert info[2] == pytest.approx(closed_form(params.hurst), abs=1e-6)


def test_simulated_profile_matches_orders_two_to_five(oracle):
    (params, _, n, tolerance), _, info = oracle
    cells = simulated_cells(params, n, 5)
    for k, cell in cells.items():
        assert cell == pytest.approx(info[k], abs=tolerance), k
