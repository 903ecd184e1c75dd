"""The prior statistic as one rejection per query: the oracle for the blocked kernel.

`gof.d_prior` and `gof.null_distribution_prior` compute these values with
`rejection.mean_accepted_distances`; the tests compare their bytes with the
functions here. The oracle sums its own distances and selects its own rows,
so the kernel is never compared with code it calls.
"""

import math

import numpy as np


def oracle_distances(stats, observed, scaling) -> np.ndarray:
    """Scaled distances, the squares summed left to right over the kept columns."""
    total = None
    for j in scaling.kept:
        t = (stats[:, j] - observed[j]) / scaling.scales[j]
        total = t * t if total is None else total + t * t
    return np.sqrt(total)


def d_prior_oracle(table, observed, scaling, rate, exclude=None) -> float:
    """Mean distance of the rows one rejection accepts for `observed`."""
    dist = oracle_distances(table.stats, np.asarray(observed, dtype=float), scaling)
    keep = max(1, math.floor(rate * table.n))
    if exclude is not None:
        dist[exclude] = np.inf
        keep = min(keep, table.n - 1)
    boundary = np.partition(dist, keep - 1)[keep - 1]
    below = np.flatnonzero(dist < boundary)
    ties = np.flatnonzero(dist == boundary)
    chosen = np.concatenate([below, ties[: keep - below.size]])
    chosen = chosen[np.lexsort((chosen, dist[chosen]))]
    return float(dist[chosen].mean())


def null_prior_oracle(table, scaling, rate, M, seed) -> np.ndarray:
    """One leave-one-out rejection per pseudo-observed row, rows as the seed layout chooses them."""
    rows = np.arange(table.n) if M == table.n else np.random.default_rng(seed).choice(
        table.n, size=M, replace=False
    )
    return np.array(
        [d_prior_oracle(table, table.stats[r], scaling, rate, exclude=int(r)) for r in rows]
    )
