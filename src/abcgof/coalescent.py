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

import math
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


def tajimas_d(n_chromosomes: int, n_segregating, pi):
    """Tajima's D; a monomorphic locus (no segregating sites) contributes 0.

    Takes one locus (scalars, returning a float) or per-locus arrays of
    segregating-site counts and diversities (returning an array). The
    normalization's variance constants are 0 for n < 4, so fewer chromosomes
    are refused.
    """
    if n_chromosomes < 4:
        raise ValueError(f"Tajima's D needs at least 4 chromosomes, got n={n_chromosomes}")
    s, pi = np.broadcast_arrays(n_segregating, np.asarray(pi, dtype=float))
    a1, e1, e2 = tajima_constants(n_chromosomes)
    d = np.zeros(s.shape)
    poly = s != 0
    s, pi = s[poly], pi[poly]
    d[poly] = (pi - s / a1) / np.sqrt(e1 * s + e2 * s * (s - 1.0))
    return float(d) if d.ndim == 0 else d


def stats_pi_tajima(loci_carrier_counts, config: LocusConfig) -> np.ndarray:
    """(mean diversity, mean Tajima's D, variance of Tajima's D) across loci.

    All loci are evaluated at once; each locus's sum of c(n-c) is a sum of
    integers, so it equals `pairwise_diversity`'s per-locus sum exactly.
    """
    n_loci = len(loci_carrier_counts)
    if n_loci < 2:
        raise ValueError("need at least 2 loci for the across-locus variance")
    n = config.n_chromosomes
    loci = [np.asarray(c) for c in loci_carrier_counts]
    segregating = np.array([c.size for c in loci])
    carriers = np.concatenate(loci)
    per_locus = np.bincount(
        np.repeat(np.arange(n_loci), segregating),
        weights=carriers * (n - carriers),
        minlength=n_loci,
    )
    pis = per_locus / (n * (n - 1) / 2.0)
    ds = tajimas_d(n, segregating, pis)
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


@lru_cache(maxsize=None)
def _pair_counts(n: int) -> tuple:
    """j(j-1)/2 for j = 0..n: the coalescence rate with j lineages at size 1."""
    return tuple(j * (j - 1) / 2.0 for j in range(n + 1))


def simulate_locus_set(
    demography: DemographyModel, config: LocusConfig, rng: np.random.Generator
) -> list:
    """Carrier-count arrays for `n_loci` independent loci.

    This is the one production coalescent loop. Per locus it makes the
    generator calls of the genealogy and mutation-drop functions above, in
    the same order, and the same floating-point operations, so its output
    equals theirs bit for bit; those functions stay as the reference it is
    tested against. The loop runs on Python floats and lists, because NumPy
    scalar indexing and storing dominate at these sizes.
    """
    n = config.n_chromosomes
    root = 2 * n - 2
    half_theta = 0.5 * config.theta
    sizes = demography.relative_sizes
    ends = demography.start_times[1:] + (math.inf,)
    pair_counts = _pair_counts(n)
    loci = []
    for _ in range(config.n_loci):
        exps = rng.standard_exponential(n - 1).tolist()
        uniforms = rng.random(2 * (n - 1)).tolist()
        parent = [0] * root  # the root has no branch above it
        node_time = [0.0] * n  # merge times are appended in node order
        leaf_counts = [1] * n
        active = list(range(n))
        epoch = 0
        sigma, end = sizes[0], ends[0]
        epoch_base = 0.0
        acc = 0.0
        for node, j, e, u, v in zip(
            range(n, root + 1), range(n, 1, -1), exps, uniforms[0::2], uniforms[1::2]
        ):
            pairs = pair_counts[j]
            acc_next = acc + e / pairs
            time_now = epoch_base + acc_next * sigma
            while time_now > end:  # the wait crosses into the next epoch
                span = (end - epoch_base) / sigma - acc
                if span > 0:
                    e = max(e - span * pairs, 0.0)
                epoch += 1
                epoch_base = end
                sigma, end = sizes[epoch], ends[epoch]
                acc = 0.0
                acc_next = acc + e / pairs
                time_now = epoch_base + acc_next * sigma
            acc = acc_next

            a = int(u * j)
            b = int(v * (j - 1))
            if b >= a:
                b += 1
            else:
                a, b = b, a
            left, right = active[a], active[b]
            del active[b], active[a]  # b > a, so a keeps its index
            active.append(node)
            parent[left] = parent[right] = node
            node_time.append(time_now)
            leaf_counts.append(leaf_counts[left] + leaf_counts[right])

        counts = rng.poisson(
            [half_theta * (node_time[p] - t) for p, t in zip(parent, node_time)]
        )
        loci.append(np.array(leaf_counts[:root]).repeat(counts))
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
