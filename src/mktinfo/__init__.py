"""Multiscale market information of price time series.

Measures how much information past return signs carry about the next one
(an entropy-based deviation from the efficient-market benchmark), provides
the matching closed forms for fractional Brownian motion and its stationary
delampertized counterpart, exact simulators for both, and structure-function
Hurst estimation.
"""

from .information import (
    EntropyProfile,
    InformationProfile,
    empirical_entropy,
    entropy_rate_slope,
    gamma_quantile,
    information_profile,
    market_information,
    profile_from_prices,
    profile_to_csv,
    profile_to_json,
    significance_bound,
)
from .scaling import LogLogCurve, estimate_hurst, fit_loglog, structure_function
from .series import (
    IndicatorSeries,
    PriceSeries,
    compute_returns,
    load_prices,
    to_indicators,
)
from .simulate import (
    NumericError,
    PseudoPeriodicParams,
    SimulatedPath,
    simulate_delampertized,
    simulate_fbm,
    simulate_pseudo_periodic,
    to_price_series,
)
from .theory import (
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

__version__ = "0.1.0"
