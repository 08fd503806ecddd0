"""Self-normalized importance sampling with iterated-SIR bias reduction.

The package couples the plain self-normalized estimator with a Markov-kernel
recycling scheme: a pool of proposal candidates is refreshed around a carried
state, every pool contributes a self-normalized estimate, and burn-in
averaged (optionally permutation-bootstrapped) combinations of those
estimates trade a little variance for a large bias reduction.  Closed-form
bias, MSE, covariance and high-probability bounds for both estimator
families are provided as pure evaluators, together with the diagnostics used
to verify them empirically.
"""

from .bounds import (BoundConstants, bound_constants, mixing_rate, mixing_time,
                     pool_bias_bound, pool_cov_bound, pool_mse_bound,
                     rolling_bias_bound, rolling_hpd_bound, rolling_mse_bound)
from .diagnostics import (ReplicationSummary, coverage_check, fit_geometric_rate,
                          lag_covariance, replication_stats, sliced_wasserstein,
                          tv_predictive)
from .isir import RollingConfig, run_chain
from .model import (CountingModel, LogisticPosteriorSpec, MixtureSpec, ModelSpec,
                    NewtonConvergenceError, TestFunction, UnboundedWeightError,
                    benchmark_mixture, estimate_kappa, estimate_omega,
                    indicator_difference, laplace_proposal, logistic_predictive,
                    make_gaussian_mixture, make_logistic_posterior,
                    mixture_rectangle_probability, mixture_test_function,
                    mixture_truth, synthetic_logistic_data)
from .rolling import (CachedSampleBank, bootstrap_br_snis, build_sample_bank,
                      rolling_estimate)
from .snis import (DegenerateWeightsError, normalize_weights, snis_bias_bound,
                   snis_estimate, snis_hpd_bound, snis_mse_bound)

__version__ = "0.1.0"

__all__ = [
    "BoundConstants", "CachedSampleBank", "CountingModel",
    "DegenerateWeightsError", "LogisticPosteriorSpec", "MixtureSpec",
    "ModelSpec", "NewtonConvergenceError", "ReplicationSummary",
    "RollingConfig", "TestFunction", "UnboundedWeightError",
    "benchmark_mixture", "bootstrap_br_snis", "bound_constants",
    "build_sample_bank", "coverage_check", "estimate_kappa", "estimate_omega",
    "fit_geometric_rate", "indicator_difference", "lag_covariance",
    "laplace_proposal", "logistic_predictive", "make_gaussian_mixture",
    "make_logistic_posterior", "mixing_rate", "mixing_time",
    "mixture_rectangle_probability", "mixture_test_function", "mixture_truth",
    "normalize_weights", "pool_bias_bound", "pool_cov_bound", "pool_mse_bound",
    "replication_stats", "rolling_bias_bound", "rolling_estimate",
    "rolling_hpd_bound", "rolling_mse_bound", "run_chain",
    "sliced_wasserstein", "snis_bias_bound", "snis_estimate", "snis_hpd_bound",
    "snis_mse_bound", "synthetic_logistic_data", "tv_predictive",
]
