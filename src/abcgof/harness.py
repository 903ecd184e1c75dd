"""Calibration and power studies over repeated simulated datasets.

One reference table of `n_sims` simulations is built from the null model and
shared across all `n_datasets` evaluations, as is the null distribution of
the test statistic: the null distribution depends only on the table, so
computing it once is identical to recomputing it per dataset with the same
stream. Each dataset then costs one observed-statistic evaluation (plus n'
posterior replicates for the posterior statistic). The master seed's
streams are laid out in :mod:`abcgof.parallel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DataError, tsv_text
from .gof import STATISTIC_KINDS, Simulator, goodness_of_fit, p_value, prior_predictive
from .models import build_reference_table, get_simulator
from .parallel import children, seeded_map


@dataclass(frozen=True)
class PowerStudyConfig:
    """Settings for one calibration or power study.

    Models may be registry names (resolved via :func:`abcgof.models.get_simulator`
    with `model_options`) or :class:`Simulator` instances. `alt_model` is the
    data-generating truth; leave it None for calibration runs (truth = null).
    """

    null_model: object
    alt_model: object = None
    statistic: str = "prior"
    n_sims: int = 10_000
    n_datasets: int = 500
    acceptance_rate: float = 0.01
    M: int = 500
    n_prime: int = 100
    alpha: float = 0.05
    master_seed: int = 0
    model_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.statistic not in STATISTIC_KINDS:
            raise ValueError(f"statistic must be one of {STATISTIC_KINDS}")
        if min(self.n_sims, self.n_datasets, self.M, self.n_prime) < 1:
            raise ValueError("all study counts must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        # The library raises these too, but only once the table is built.
        if not 0 < self.acceptance_rate <= 1:
            raise ValueError(f"acceptance rate must be in (0, 1], got {self.acceptance_rate}")
        if self.M > self.n_sims:
            raise DataError("more replicates than simulations")


@dataclass(frozen=True, eq=False)
class PowerStudyResult:
    rejection_rate: float
    p_values: np.ndarray
    ks_uniformity_p: float
    config_echo: dict

    def to_dict(self) -> dict:
        return {
            "rejection_rate": self.rejection_rate,
            "ks_uniformity_p": self.ks_uniformity_p,
            "p_values": self.p_values.tolist(),
            "config": self.config_echo,
        }


def _resolve(model, options: dict) -> Simulator:
    if isinstance(model, Simulator):
        return model
    return get_simulator(str(model), **options)


def _require_regression_rows_before_the_table(config: PowerStudyConfig, null_sim: Simulator):
    """Refuse a posterior study whose acceptance count is too small for any table.

    The regression needs p + k + 2 accepted rows, and k, the statistics the
    table's MAD scaling keeps, is at least 1 (fit_scaling refuses a table with
    none); the exact check follows once the table is built.
    """
    p = len(null_sim.param_names)
    accepted = min(math.floor(config.acceptance_rate * config.n_sims), config.n_sims - 1)
    if accepted < p + 3:
        raise ValueError(
            f"regression adjustment needs at least p + k + 2 accepted rows, {p + 3} or more "
            f"with p = {p} parameters and k >= 1 statistics; rate {config.acceptance_rate} "
            f"of {config.n_sims} simulations accepts {accepted}"
        )


def _study(config: PowerStudyConfig, null_sim: Simulator, alt_sim: Simulator) -> PowerStudyResult:
    if config.statistic == "post":
        _require_regression_rows_before_the_table(config, null_sim)
    table_seed, null_seed, data_seed = children(config.master_seed, 3)
    table = build_reference_table(null_sim, config.n_sims, table_seed)
    nulls, statistic = goodness_of_fit(
        config.statistic, table, config.acceptance_rate, config.M, null_seed,
        null_sim, config.n_prime,
    )

    def one(i, rng):
        return p_value(statistic(prior_predictive(alt_sim, rng)[1], rng), nulls)

    p_values = np.array(seeded_map(one, data_seed, config.n_datasets))

    from scipy import stats as sps  # deferred: importing scipy.stats takes ~1 s

    return PowerStudyResult(
        rejection_rate=float(np.count_nonzero(p_values < config.alpha) / p_values.size),
        p_values=p_values,
        ks_uniformity_p=float(sps.kstest(p_values, "uniform").pvalue),
        config_echo={
            "null_model": null_sim.config(),
            "alt_model": alt_sim.config(),
            "statistic": config.statistic,
            "n_sims": config.n_sims,
            "n_datasets": config.n_datasets,
            "acceptance_rate": config.acceptance_rate,
            "M": config.M,
            "n_prime": config.n_prime if config.statistic == "post" else None,
            "alpha": config.alpha,
            "master_seed": config.master_seed,
        },
    )


def run_calibration(config: PowerStudyConfig) -> PowerStudyResult:
    """Type-I error study: datasets are simulated from the null model itself.

    The rejection rate estimates the type I error at `alpha`, and the
    Kolmogorov-Smirnov uniformity P-value checks the calibration of the
    whole P-value distribution.
    """
    null_sim = _resolve(config.null_model, config.model_options)
    if config.alt_model is not None:
        alt_sim = _resolve(config.alt_model, config.model_options)
        if alt_sim.config() != null_sim.config():
            raise ValueError("calibration requires truth = null model")
    return _study(config, null_sim, null_sim)


def run_power(config: PowerStudyConfig) -> PowerStudyResult:
    """Power study: datasets from the alternative, tested against the null table."""
    null_sim = _resolve(config.null_model, config.model_options)
    if config.alt_model is None:
        raise ValueError("a power study needs an alternative model")
    alt_sim = _resolve(config.alt_model, config.model_options)
    if alt_sim.config() == null_sim.config():
        raise ValueError("power requires truth != null model")
    return _study(config, null_sim, alt_sim)


def emit_pvalue_histogram(result: PowerStudyResult, bins: int) -> str:
    """Histogram of the study's P-values on [0, 1], as TSV."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(result.p_values, bins=edges)
    edges = edges.tolist()
    return tsv_text(["bin_lo", "bin_hi", "count"], zip(edges[:-1], edges[1:], counts.tolist()))


def one_sided_two_proportion_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """P-value for H1: proportion 1 > proportion 2 (z test, one proportion under H0)."""
    from scipy import stats as sps

    p1, p2 = k1 / n1, k2 / n2
    common = (k1 + k2) / (n1 + n2)
    se = np.sqrt(common * (1 - common) * (1 / n1 + 1 / n2))
    if se == 0:
        return 1.0
    return float(sps.norm.sf((p1 - p2) / se))
