"""Calibration and power studies over repeated simulated datasets.

Both models are :class:`~abcgof.gof.Simulator` instances. One reference
table of `n_sims` simulations is built from the null model and shared
across all `n_datasets` evaluations, as is the null distribution of the
test statistic: the null distribution depends only on the table, so
computing it once is identical to recomputing it per dataset with the same
stream. Each dataset then costs one observed-statistic evaluation (plus n'
posterior replicates for the posterior statistic). The master seed's
streams are laid out in :mod:`abcgof.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import DataError, tsv_text
from .gof import (
    STATISTIC_KINDS,
    Simulator,
    check_model_stats,
    goodness_of_fit,
    p_value,
    prior_predictive,
    require_leave_one_out_rows,
)
from .ks import ks_uniformity_p
from .models import build_reference_table
from .parallel import children, seeded_map


@dataclass(frozen=True)
class PowerStudyConfig:
    """Settings for one calibration or power study.

    `null_model` is the :class:`Simulator` the reference table and the null
    distribution come from; `alt_model` is the data-generating truth, left
    None for calibration runs (truth = null).
    """

    null_model: Simulator
    alt_model: Simulator | None = None
    statistic: str = "prior"
    n_sims: int = 10_000
    n_datasets: int = 500
    acceptance_rate: float = 0.01
    M: int = 500
    n_prime: int = 100
    alpha: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.null_model, Simulator) or not isinstance(
            self.alt_model, (Simulator, type(None))
        ):
            raise TypeError(
                "null_model and alt_model must be Simulator instances, as "
                f"get_simulator(name, ...) returns; got {self.null_model!r}, {self.alt_model!r}"
            )
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


def _study(config: PowerStudyConfig, truth: Simulator) -> PowerStudyResult:
    null_sim = config.null_model
    # Before the table. k = 1 is the least a table keeps (fit_scaling refuses
    # none); the exact check follows the table.
    check_model_stats(truth, null_sim)
    if config.statistic == "post":
        require_leave_one_out_rows(
            config.acceptance_rate, config.n_sims, len(null_sim.param_names), 1
        )
    table_seed, null_seed, data_seed = children(config.master_seed, 3)
    table = build_reference_table(null_sim, config.n_sims, table_seed)
    nulls, statistic = goodness_of_fit(
        config.statistic, table, config.acceptance_rate, config.M, null_seed,
        null_sim, config.n_prime,
    )

    def one(i, rng):
        return p_value(statistic(prior_predictive(truth, rng)[1], rng), nulls)

    p_values = np.array(seeded_map(one, data_seed, config.n_datasets))
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    echo.update(null_model=null_sim.config(), alt_model=truth.config())
    if config.statistic != "post":
        echo["n_prime"] = None
    return PowerStudyResult(
        rejection_rate=float(np.count_nonzero(p_values < config.alpha) / p_values.size),
        p_values=p_values,
        ks_uniformity_p=ks_uniformity_p(p_values),
        config_echo=echo,
    )


def run_calibration(config: PowerStudyConfig) -> PowerStudyResult:
    """Type-I error study: datasets are simulated from the null model itself.

    The rejection rate estimates the type I error at `alpha`, and the
    Kolmogorov-Smirnov uniformity P-value checks the calibration of the
    whole P-value distribution.
    """
    alt = config.alt_model
    if alt is not None and alt.config() != config.null_model.config():
        raise ValueError("calibration requires truth = null model")
    return _study(config, config.null_model)


def run_power(config: PowerStudyConfig) -> PowerStudyResult:
    """Power study: datasets from the alternative, tested against the null table."""
    if config.alt_model is None:
        raise ValueError("a power study needs an alternative model")
    if config.alt_model.config() == config.null_model.config():
        raise ValueError("power requires truth != null model")
    return _study(config, config.alt_model)


def emit_pvalue_histogram(result: PowerStudyResult, bins: int) -> str:
    """Histogram of the study's P-values on [0, 1], as TSV."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(result.p_values, bins=edges)
    edges = edges.tolist()
    return tsv_text(["bin_lo", "bin_hi", "count"], zip(edges[:-1], edges[1:], counts.tolist()))
