"""Single-population coalescent simulator with infinite-sites mutation.

Genealogies for a sample of chromosomes are drawn backward in time under a
piecewise-constant population-size history: with j lineages and relative
size sigma, the waiting time to the next coalescence is exponential with
rate j(j-1)/(2 sigma), integrated across epoch boundaries. Time is measured
in coalescent units (a sample of two in a size-1 population coalesces after
one unit on average). Mutations fall on each branch as Poisson(theta/2 x
branch length) and are carried by exactly the chromosomes below the branch;
sequences are never materialized, so the locus length matters only through
theta.

Summary statistics cover the two standard sets: per-locus pairwise
diversity with the mean and variance of Tajima's D across loci, and the
pooled unfolded site-frequency spectrum with the total mutation count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

LABELS = ("constant", "bottleneck", "expansion")

PARAM_NAMES = {
    "constant": ("theta",),
    "bottleneck": ("theta", "bottleneck_size", "bottleneck_start", "bottleneck_duration"),
    "expansion": ("theta", "ancestral_size", "growth_time"),
}

# Prior ranges for the built-in demographies. Bottlenecks stay mild (the
# dip removes at most ~10% of a pair's coalescent time: duration/size <=
# 0.1), while expansions range from strong recent growth to growth so
# ancient (log-spaced times up to 20) that it predates the whole genealogy;
# the expansion family therefore spans the near-neutral regime that mild
# bottlenecks inhabit, but not the reverse.
THETA_RANGE = (8.0, 12.0)
BOTTLENECK_SIZE_RANGE = (0.3, 0.9)
BOTTLENECK_START_RANGE = (0.01, 0.4)
BOTTLENECK_DURATION_RANGE = (0.005, 0.03)
EXPANSION_SIZE_RANGE = (0.02, 0.5)
EXPANSION_TIME_RANGE = (0.02, 20.0)  # loguniform


@dataclass(frozen=True, eq=False)
class DemographyModel:
    """Piecewise-constant size history: (start time, relative size) epochs.

    The first epoch starts at time 0 (the present); start times increase
    strictly and the last epoch extends into the indefinite past.
    """

    epochs: tuple
    label: str

    def __post_init__(self):
        epochs = tuple((float(t), float(s)) for t, s in self.epochs)
        if not epochs or epochs[0][0] != 0.0:
            raise ValueError("the first epoch must start at time 0")
        times = [t for t, _ in epochs]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("epoch start times must increase strictly")
        if any(s <= 0 for _, s in epochs):
            raise ValueError("relative sizes must be positive")
        object.__setattr__(self, "epochs", epochs)

    @property
    def start_times(self) -> tuple:
        return tuple(t for t, _ in self.epochs)

    @property
    def relative_sizes(self) -> tuple:
        return tuple(s for _, s in self.epochs)

    @classmethod
    def constant(cls, size: float = 1.0) -> "DemographyModel":
        return cls(epochs=((0.0, size),), label="constant")

    @classmethod
    def bottleneck(cls, size: float, start: float, duration: float) -> "DemographyModel":
        if not size < 1.0:
            raise ValueError("a bottleneck needs an intermediate size below 1")
        return cls(
            epochs=((0.0, 1.0), (start, size), (start + duration, 1.0)),
            label="bottleneck",
        )

    @classmethod
    def expansion(cls, ancestral_size: float, time: float) -> "DemographyModel":
        if not ancestral_size < 1.0:
            raise ValueError("an expansion needs an ancestral size below the present one")
        return cls(epochs=((0.0, 1.0), (time, ancestral_size)), label="expansion")


@dataclass(frozen=True)
class LocusConfig:
    n_chromosomes: int = 20
    n_loci: int = 50
    theta: float = 5.0

    def __post_init__(self):
        if self.n_chromosomes < 2:
            raise ValueError("need at least 2 chromosomes")
        if self.n_loci < 1:
            raise ValueError("the locus count must be positive")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")


@dataclass(frozen=True, eq=False)
class Genealogy:
    """Binary coalescent tree: leaves 0..n-1, internal nodes in merge order."""

    parent: np.ndarray  # 2n-1 entries; the root's parent is -1
    node_time: np.ndarray
    leaf_counts: np.ndarray  # leaves under each node
    n_leaves: int

    @property
    def root(self) -> int:
        return 2 * self.n_leaves - 2

    @property
    def height(self) -> float:
        return float(self.node_time[self.root])

    def branch_lengths(self) -> np.ndarray:
        """Length of the branch above each non-root node (ids 0..2n-3)."""
        upto = self.root
        return self.node_time[self.parent[:upto]] - self.node_time[:upto]

    @property
    def total_branch_length(self) -> float:
        return float(self.branch_lengths().sum())

    def leaves_under(self, node: int) -> np.ndarray:
        """Sorted leaf ids below a node (the carriers of its mutations)."""
        children = [[] for _ in range(2 * self.n_leaves - 1)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(v)
        stack, leaves = [int(node)], []
        while stack:
            v = stack.pop()
            if v < self.n_leaves:
                leaves.append(v)
            else:
                stack.extend(children[v])
        return np.array(sorted(leaves), dtype=int)


def simulate_genealogy(
    demography: DemographyModel, n_chromosomes: int, rng: np.random.Generator
) -> Genealogy:
    """Draw one coalescent genealogy under the given size history.

    Within an epoch, waiting times accumulate in size-1 units and are scaled
    by the epoch size only when converted to absolute times; a constant
    history of size c therefore yields, seed for seed, exactly the size-1
    genealogy with all node times multiplied by c.
    """
    n = int(n_chromosomes)
    if n < 2:
        raise ValueError("need at least 2 chromosomes")
    starts = demography.start_times
    sizes = demography.relative_sizes
    n_epochs = len(starts)

    total = 2 * n - 1
    parent = np.full(total, -1, dtype=np.int64)
    node_time = np.zeros(total)
    leaf_counts = np.ones(total, dtype=np.int64)

    exps = rng.standard_exponential(n - 1)
    uniforms = rng.random(2 * (n - 1))

    active = list(range(n))
    epoch = 0
    epoch_base = 0.0  # absolute time where the current epoch's accumulation began
    acc = 0.0  # accumulated size-1 time within the current epoch
    time_now = 0.0
    for step in range(n - 1):
        j = len(active)
        pairs = j * (j - 1) / 2.0
        e = exps[step]
        while True:
            sigma = sizes[epoch]
            acc_next = acc + e / pairs
            if epoch == n_epochs - 1 or epoch_base + acc_next * sigma <= starts[epoch + 1]:
                acc = acc_next
                time_now = epoch_base + acc * sigma
                break
            span = (starts[epoch + 1] - epoch_base) / sigma - acc
            if span > 0:
                e = max(e - span * pairs, 0.0)
            epoch += 1
            epoch_base = starts[epoch]
            acc = 0.0

        a = int(uniforms[2 * step] * j)
        b = int(uniforms[2 * step + 1] * (j - 1))
        if b >= a:
            b += 1
        if a > b:
            a, b = b, a
        node = n + step
        left, right = active[a], active[b]
        parent[left] = node
        parent[right] = node
        node_time[node] = time_now
        leaf_counts[node] = leaf_counts[left] + leaf_counts[right]
        active.pop(b)
        active.pop(a)
        active.append(node)
    return Genealogy(parent=parent, node_time=node_time, leaf_counts=leaf_counts, n_leaves=n)


@dataclass(frozen=True, eq=False)
class MutationDrop:
    """Poisson mutation counts per branch plus per-mutation carrier counts."""

    branch_nodes: np.ndarray  # node below each branch
    branch_mutations: np.ndarray  # mutations on each branch
    carrier_counts: np.ndarray  # one entry per mutation


def drop_mutations(
    genealogy: Genealogy, theta: float, rng: np.random.Generator
) -> MutationDrop:
    """Drop infinite-sites mutations at rate theta/2 per unit branch length."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    lengths = genealogy.branch_lengths()
    counts = rng.poisson(0.5 * theta * lengths)
    nodes = np.arange(genealogy.root, dtype=int)
    carriers = np.repeat(genealogy.leaf_counts[nodes], counts)
    return MutationDrop(branch_nodes=nodes, branch_mutations=counts, carrier_counts=carriers)


def pairwise_diversity(carrier_counts, n_chromosomes: int) -> float:
    """Average number of pairwise differences for one locus.

    A mutation carried by c of n chromosomes distinguishes c(n-c) of the
    n(n-1)/2 pairs.
    """
    c = np.asarray(carrier_counts, dtype=float)
    n = n_chromosomes
    if c.size == 0:
        return 0.0
    return float(np.sum(c * (n - c)) / (n * (n - 1) / 2.0))


@lru_cache(maxsize=None)
def tajima_constants(n: int) -> tuple:
    """(a1, e1, e2) from the standard normalization for n chromosomes."""
    a1 = sum(1.0 / i for i in range(1, n))
    a2 = sum(1.0 / i**2 for i in range(1, n))
    b1 = (n + 1.0) / (3.0 * (n - 1.0))
    b2 = 2.0 * (n**2 + n + 3.0) / (9.0 * n * (n - 1.0))
    c1 = b1 - 1.0 / a1
    c2 = b2 - (n + 2.0) / (a1 * n) + a2 / a1**2
    e1 = c1 / a1
    e2 = c2 / (a1**2 + a2)
    return a1, e1, e2


def tajimas_d(n_chromosomes: int, n_segregating: int, pi: float) -> float:
    """Tajima's D; a monomorphic locus (no segregating sites) contributes 0."""
    if n_chromosomes < 2:
        raise ValueError("need at least 2 chromosomes")
    s = n_segregating
    if s == 0:
        return 0.0
    a1, e1, e2 = tajima_constants(n_chromosomes)
    return float((pi - s / a1) / np.sqrt(e1 * s + e2 * s * (s - 1.0)))


def stats_pi_tajima(loci_carrier_counts, config: LocusConfig) -> np.ndarray:
    """(mean diversity, mean Tajima's D, variance of Tajima's D) across loci."""
    if len(loci_carrier_counts) < 2:
        raise ValueError("need at least 2 loci for the across-locus variance")
    n = config.n_chromosomes
    pis = np.empty(len(loci_carrier_counts))
    ds = np.empty(len(loci_carrier_counts))
    for i, carriers in enumerate(loci_carrier_counts):
        carriers = np.asarray(carriers)
        pis[i] = pairwise_diversity(carriers, n)
        ds[i] = tajimas_d(n, carriers.size, pis[i])
    return np.array([pis.mean(), ds.mean(), ds.var(ddof=1)])


def stats_sfs(loci_carrier_counts, config: LocusConfig) -> np.ndarray:
    """Total mutation count plus the pooled unfolded site-frequency spectrum.

    Entry i of the spectrum counts mutations carried by exactly i
    chromosomes, for i from 1 to n-1.
    """
    n = config.n_chromosomes
    pooled = [np.asarray(c, dtype=int) for c in loci_carrier_counts]
    spectrum = np.bincount(np.concatenate(pooled or [np.empty(0, dtype=int)]), minlength=n)[1:n]
    return np.concatenate([[spectrum.sum()], spectrum]).astype(float)


def simulate_locus_set(
    demography: DemographyModel, config: LocusConfig, rng: np.random.Generator
) -> list:
    """Carrier-count arrays for `n_loci` independent loci."""
    loci = []
    for _ in range(config.n_loci):
        genealogy = simulate_genealogy(demography, config.n_chromosomes, rng)
        loci.append(drop_mutations(genealogy, config.theta, rng).carrier_counts)
    return loci


def draw_prior(label: str, rng: np.random.Generator) -> np.ndarray:
    """Draw the parameter vector for one of the built-in demography labels.

    theta is uniform on its range for every label; bottleneck size, start
    and duration are uniform; the expansion (growth) time is loguniform so
    recent, strongly visible growth and effectively invisible ancient
    growth both carry prior mass.
    """
    if label not in LABELS:
        raise ValueError(f"unknown demography {label!r}; expected one of {LABELS}")
    theta = rng.uniform(*THETA_RANGE)
    if label == "constant":
        return np.array([theta])
    if label == "bottleneck":
        size = rng.uniform(*BOTTLENECK_SIZE_RANGE)
        start = rng.uniform(*BOTTLENECK_START_RANGE)
        duration = rng.uniform(*BOTTLENECK_DURATION_RANGE)
        return np.array([theta, size, start, duration])
    size = rng.uniform(*EXPANSION_SIZE_RANGE)
    lo, hi = EXPANSION_TIME_RANGE
    time = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return np.array([theta, size, time])


def demography_from_params(label: str, params) -> tuple[DemographyModel, float]:
    """Build (demography, theta) from a parameter vector drawn by `draw_prior`."""
    params = np.asarray(params, dtype=float)
    if label == "constant":
        return DemographyModel.constant(), float(params[0])
    if label == "bottleneck":
        theta, size, start, duration = params
        return DemographyModel.bottleneck(size, start, duration), float(theta)
    if label == "expansion":
        theta, size, time = params
        return DemographyModel.expansion(size, time), float(theta)
    raise ValueError(f"unknown demography {label!r}; expected one of {LABELS}")
