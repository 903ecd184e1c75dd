"""Built-in simulators and reference-table generation.

Registry names: ``toy-gaussian`` and ``toy-laplace`` (moment statistics of a
Gaussian or Laplace sample) and the coalescent demographies ``constant``,
``bottleneck`` and ``expansion`` with either the diversity/Tajima statistic
set (50 loci) or the site-frequency-spectrum set (100 loci).
"""

from __future__ import annotations

import numpy as np

from . import coalescent, toy
from .core import ReferenceTable
from .gof import Simulator, prior_predictive
from .parallel import seeded_map

TOY_MODELS = ("toy-gaussian", "toy-laplace")
MODEL_NAMES = TOY_MODELS + coalescent.LABELS
STAT_SETS = ("pi-tajima", "sfs")

PI_TAJIMA_STAT_NAMES = ("pi_mean", "tajimas_d_mean", "tajimas_d_var")


class ToySimulator(Simulator):
    """Gaussian or Laplace samples summarized by their first four moments."""

    param_names = toy.PARAM_NAMES
    stat_names = toy.STAT_NAMES
    param_transforms = ("identity", "log")

    def __init__(self, family: str, sample_size: int = 50):
        self.spec = toy.ToyModelSpec(family=family, sample_size=sample_size)
        self.name = f"toy-{family}"

    def draw_prior(self, rng):
        return toy.draw_prior(self.spec, rng)

    def simulate(self, theta, rng):
        return toy.simulate(self.spec, theta, rng)

    def simulate_rows(self, thetas, rng):
        # a subclass that changes only `simulate` gets the per-row default
        own, base = type(self), ToySimulator
        if own.simulate is base.simulate or own.simulate_rows is not base.simulate_rows:
            return toy.simulate_rows(self.spec, thetas, rng)
        return super().simulate_rows(thetas, rng)

    def config(self):
        return {
            "name": self.name,
            "family": self.spec.family,
            "sample_size": self.spec.sample_size,
        }


class CoalescentSimulator(Simulator):
    """Piecewise-constant demography, summarized by one of two statistic sets."""

    def __init__(self, label: str, stat_set: str = "pi-tajima"):
        if label not in coalescent.LABELS:
            raise ValueError(
                f"unknown demography {label!r}; expected one of {coalescent.LABELS}"
            )
        if stat_set not in STAT_SETS:
            raise ValueError(f"unknown statistic set {stat_set!r}; expected one of {STAT_SETS}")
        self.label = label
        self.stat_set = stat_set
        self.name = label
        self.param_names = coalescent.PARAM_NAMES[label]
        n_chromosomes = 20
        if stat_set == "pi-tajima":
            self.n_loci = 50
            self.stat_names = PI_TAJIMA_STAT_NAMES
        else:
            self.n_loci = 100
            self.stat_names = ("snp_total",) + tuple(
                f"sfs_{i}" for i in range(1, n_chromosomes)
            )
        self.n_chromosomes = n_chromosomes
        # theta and event times are positive; relative sizes live in (0, 1)
        transforms = {"theta": "log", "bottleneck_size": "logit", "ancestral_size": "logit"}
        self.param_transforms = tuple(
            transforms.get(name, "log") for name in self.param_names
        )

    def draw_prior(self, rng):
        return coalescent.draw_prior(self.label, rng)

    def simulate(self, theta, rng):
        demography, locus_theta = coalescent.demography_from_params(self.label, theta)
        config = coalescent.LocusConfig(
            n_chromosomes=self.n_chromosomes, n_loci=self.n_loci, theta=locus_theta
        )
        loci = coalescent.simulate_locus_set(demography, config, rng)
        if self.stat_set == "pi-tajima":
            return coalescent.stats_pi_tajima(loci, config)
        return coalescent.stats_sfs(loci, config)

    def config(self):
        return {
            "name": self.name,
            "demography": self.label,
            "stat_set": self.stat_set,
            "n_loci": self.n_loci,
            "n_chromosomes": self.n_chromosomes,
        }


def get_simulator(name: str, sample_size: int = 50, stat_set: str = "pi-tajima") -> Simulator:
    """Resolve a registry name to a simulator instance."""
    if name in TOY_MODELS:
        return ToySimulator(name.removeprefix("toy-"), sample_size=sample_size)
    if name in coalescent.LABELS:
        return CoalescentSimulator(name, stat_set=stat_set)
    raise ValueError(f"unknown model {name!r}; known models: {', '.join(MODEL_NAMES)}")


def build_reference_table(simulator: Simulator, n_sims: int, seed) -> ReferenceTable:
    """Simulate a reference table: n prior draws and their statistics.

    Row i is the prior-predictive draw on stream i of its own seed (see
    :mod:`abcgof.parallel`), one array of its parameters then its statistics.
    A failing simulator call raises :class:`~abcgof.gof.SimulationError`
    naming the row and its parameters.
    """
    if n_sims < 2:
        raise ValueError("a reference table needs at least 2 rows")
    rows = np.array(seeded_map(
        lambda i, rng: np.concatenate(prior_predictive(simulator, rng, row=i)), seed, n_sims
    ))
    params, stats = np.hsplit(rows, [-len(simulator.stat_names)])
    return ReferenceTable(simulator.param_names, simulator.stat_names, params, stats)
