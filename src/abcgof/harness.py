"""Calibration and power studies over repeated simulated datasets.

One reference table of `n_sims` simulations is built from the null model and
shared across all `n_datasets` evaluations, as is the null distribution of
the test statistic: the null distribution depends only on the table, so
computing it once is identical to recomputing it per dataset with the same
stream. Each dataset then costs one observed-statistic evaluation (plus n'
posterior replicates for the posterior statistic).

Seed layout from the master seed: (table, null distribution, dataset 0..N-1),
making results independent of worker count and execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .core import fit_scaling
from .gof import (
    Simulator,
    d_post,
    d_prior,
    null_distribution_post,
    null_distribution_prior,
    p_value,
    simulate_checked,
)
from .models import build_reference_table, get_simulator
from .parallel import parallel_map

STATISTIC_KINDS = ("prior", "post")


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
    threads: int = 1
    model_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.statistic not in STATISTIC_KINDS:
            raise ValueError(f"statistic must be one of {STATISTIC_KINDS}")
        if min(self.n_sims, self.n_datasets, self.M, self.n_prime) < 1:
            raise ValueError("all study counts must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _resolve(model, options: dict) -> Simulator:
    if isinstance(model, Simulator):
        return model
    return get_simulator(str(model), **options)


def _echo(config: PowerStudyConfig, null_sim: Simulator, alt_sim: Simulator) -> dict:
    return {
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
    }


def _run_study(config: PowerStudyConfig, null_sim: Simulator, alt_sim: Simulator):
    root = np.random.SeedSequence(config.master_seed)
    table_seed, null_seed, data_root = root.spawn(3)
    dataset_streams = data_root.spawn(config.n_datasets)

    table = build_reference_table(null_sim, config.n_sims, table_seed, threads=config.threads)
    scaling = fit_scaling(table)
    rate = config.acceptance_rate

    if config.statistic == "prior":
        nulls = null_distribution_prior(
            table, scaling, rate, config.M, null_seed, threads=config.threads
        )

        def statistic(observed, rng):
            return d_prior(table, observed, scaling, rate)

    else:
        null = null_distribution_post(
            table, scaling, rate, null_sim, config.n_prime, config.M, null_seed,
            threads=config.threads,
        )
        nulls = null.values

        def statistic(observed, rng):
            return d_post(
                table, observed, scaling, rate, null_sim, config.n_prime, rng, null.pooled
            )[0]

    def one(stream):
        rng = np.random.default_rng(stream)
        observed = simulate_checked(alt_sim, alt_sim.draw_prior(rng), rng)
        return p_value(statistic(observed, rng), nulls)

    return np.array(parallel_map(one, dataset_streams, threads=config.threads))


def _finish(config: PowerStudyConfig, p_values: np.ndarray, echo: dict) -> PowerStudyResult:
    rejection_rate = float(np.count_nonzero(p_values < config.alpha) / p_values.size)
    ks = sps.kstest(p_values, "uniform")
    return PowerStudyResult(
        rejection_rate=rejection_rate,
        p_values=p_values,
        ks_uniformity_p=float(ks.pvalue),
        config_echo=echo,
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
    p_values = _run_study(config, null_sim, null_sim)
    return _finish(config, p_values, _echo(config, null_sim, null_sim))


def run_power(config: PowerStudyConfig) -> PowerStudyResult:
    """Power study: datasets from the alternative, tested against the null table."""
    null_sim = _resolve(config.null_model, config.model_options)
    if config.alt_model is None:
        raise ValueError("a power study needs an alternative model")
    alt_sim = _resolve(config.alt_model, config.model_options)
    if alt_sim.config() == null_sim.config():
        raise ValueError("power requires truth != null model")
    p_values = _run_study(config, null_sim, alt_sim)
    return _finish(config, p_values, _echo(config, null_sim, alt_sim))


def emit_pvalue_histogram(result: PowerStudyResult, bins: int) -> str:
    """Histogram of the study's P-values on [0, 1], as TSV."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts, _ = np.histogram(result.p_values, bins=edges)
    lines = ["bin_lo\tbin_hi\tcount"]
    for b in range(bins):
        lines.append(f"{float(edges[b])}\t{float(edges[b + 1])}\t{int(counts[b])}")
    return "\n".join(lines) + "\n"


def one_sided_two_proportion_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """P-value for H1: proportion 1 > proportion 2 (pooled z test)."""
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = np.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    if se == 0:
        return 1.0
    return float(sps.norm.sf((p1 - p2) / se))
