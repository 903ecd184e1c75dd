"""Rejection sampling: keep the accepted fraction of simulations nearest the data."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DataError, ReferenceTable, ScalingVector, observed_vector, scaled_distances


@dataclass(frozen=True, eq=False)
class AcceptanceSet:
    """Accepted row indices, sorted by ascending distance to the observed vector.

    Indices refer to rows of the original table even when a row was excluded.
    """

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int).copy()
        dist = np.asarray(self.distances, dtype=float).copy()
        if idx.size != dist.size or idx.size == 0:
            raise ValueError("indices and distances must be non-empty and aligned")
        if np.any(np.diff(dist) < 0):
            raise ValueError("accepted distances must be nondecreasing")
        idx.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "distances", dist)

    def __len__(self) -> int:
        return self.indices.size


def accepted_count(rate: float, n_effective: int) -> int:
    """Number of accepted rows: floor(rate * n), clamped to at least 1."""
    if not 0 < rate <= 1:
        raise ValueError(f"acceptance rate must be in (0, 1], got {rate}")
    count = math.floor(rate * n_effective)
    if count < 1:
        warnings.warn(
            f"acceptance rate {rate} keeps no rows out of {n_effective}; clamping to 1",
            stacklevel=2,
        )
        return 1
    return count


def reject(
    table: ReferenceTable,
    observed,
    scaling: ScalingVector,
    rate: float,
    exclude: int | None = None,
) -> AcceptanceSet:
    """Select the accepted fraction of table rows nearest the observed statistics.

    `observed` may be an :class:`ObservedStats` (aligned to the table by name)
    or a raw vector already in table statistic order. With `exclude`, that row
    cannot be selected, but the accepted count stays floor(rate * n) of the
    full table: a leave-one-out pseudo-observed run then averages exactly as
    many distances as a run on the real observed data, which keeps the two
    exchangeable. Ties at the acceptance boundary are broken by lower row
    index, so the result does not depend on sort stability.

    Selection is a partial (k-smallest) selection rather than a full sort;
    tables with millions of rows stay cheap.
    """
    count = accepted_count(rate, table.n)
    vec = observed_vector(observed, table)
    dist = scaled_distances(table.stats, vec, scaling)

    n_effective = table.n
    if exclude is not None:
        if not 0 <= exclude < table.n:
            raise ValueError(f"exclude index {exclude} out of range for {table.n} rows")
        dist = dist.copy()
        dist[exclude] = np.inf
        n_effective -= 1
    if n_effective == 0:
        raise DataError("empty effective table")

    keep = min(count, n_effective)
    boundary = np.partition(dist, keep - 1)[keep - 1]
    below = np.flatnonzero(dist < boundary)
    ties = np.flatnonzero(dist == boundary)
    chosen = np.concatenate([below, ties[: keep - below.size]])
    order = np.lexsort((chosen, dist[chosen]))
    chosen = chosen[order]
    return AcceptanceSet(indices=chosen, distances=dist[chosen])
