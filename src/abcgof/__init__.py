"""Goodness-of-fit testing for simulation-based (ABC) inference.

Two test statistics measure how far observed summary statistics sit from
what a model can produce: the mean scaled distance to the accepted nearest
prior-predictive simulations, and the mean scaled distance to replicates
simulated from the regression-adjusted posterior. Monte Carlo null
distributions over pseudo-observed datasets turn either statistic into a
calibrated P-value. Posterior predictive checks and a PCA envelope
diagnostic locate the statistics behind a poor fit, and built-in toy and
coalescent simulators plus a study harness exercise the whole pipeline.
"""

from .adjust import PosteriorSample, adjusted_posterior, sample_posterior
from .core import (
    DataError,
    ObservedStats,
    ReferenceTable,
    ScalingVector,
    distance,
    fit_scaling,
    load_observed,
    load_reference_table,
    mad,
    save_observed,
    save_reference_table,
)
from .gof import (
    GofResult,
    PosteriorNull,
    SimulationError,
    Simulator,
    d_post,
    d_prior,
    gfit,
    gfit_post,
    goodness_of_fit,
    null_distribution_post,
    null_distribution_prior,
    p_value,
    posterior_replicates,
    replicate_scaling,
)
from .harness import (
    PowerStudyConfig,
    PowerStudyResult,
    emit_pvalue_histogram,
    run_calibration,
    run_power,
)
from .models import CoalescentSimulator, ToySimulator, build_reference_table, get_simulator
from .pca import Envelope, PcaProjection, envelope, pca_fit
from .ppc import PpcReport, ppc_histogram_data, ppc_report
from .rejection import AcceptanceSet, reject

__version__ = "0.1.0"

__all__ = [
    "AcceptanceSet",
    "CoalescentSimulator",
    "DataError",
    "Envelope",
    "GofResult",
    "ObservedStats",
    "PcaProjection",
    "PosteriorNull",
    "PosteriorSample",
    "PowerStudyConfig",
    "PowerStudyResult",
    "PpcReport",
    "ReferenceTable",
    "ScalingVector",
    "SimulationError",
    "Simulator",
    "ToySimulator",
    "adjusted_posterior",
    "build_reference_table",
    "d_post",
    "d_prior",
    "distance",
    "emit_pvalue_histogram",
    "envelope",
    "fit_scaling",
    "get_simulator",
    "gfit",
    "gfit_post",
    "goodness_of_fit",
    "load_observed",
    "load_reference_table",
    "mad",
    "null_distribution_post",
    "null_distribution_prior",
    "p_value",
    "pca_fit",
    "posterior_replicates",
    "ppc_histogram_data",
    "ppc_report",
    "reject",
    "replicate_scaling",
    "run_calibration",
    "run_power",
    "sample_posterior",
    "save_observed",
    "save_reference_table",
]
