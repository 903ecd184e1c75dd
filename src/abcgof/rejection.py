"""Rejection sampling: keep the accepted fraction of simulations nearest the data."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ReferenceTable, ScalingVector, _squared_distance_blocks, scaled_distances

# Bytes of squared distances held per block by `mean_accepted_distances`.
# Of 64 KiB to 2 MiB, 256 and 512 KiB ran fastest (a 10 000-row null), and
# 256 KiB holds less.
DISTANCE_BLOCK_BYTES = 256 * 1024


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


def _accepted_keep(rate: float, n: int, exclude, shape: tuple = ()):
    """The number of rows to accept, and `exclude` as a checked array of `shape`.

    Excluded rows must be integers, not bools, in [0, n). The count is
    floor(rate * n), clamped to at least 1 and, with an exclusion, to n - 1.
    """
    count = accepted_count(rate, n)
    if exclude is None:
        return count, None
    rows = np.asarray(exclude)
    if rows.shape != shape:
        raise ValueError(f"exclude has shape {rows.shape}, not {shape}")
    for cell in np.asarray(exclude, dtype=object).flat:  # [0, True] makes an int array
        if type(cell) is bool or not isinstance(cell, (int, np.integer)):
            raise ValueError(f"exclude index {cell} is not an integer row index")
    outside = rows[(rows < 0) | (rows >= n)]
    if outside.size:
        raise ValueError(f"exclude index {outside[0]} out of range for {n} rows")
    return min(count, n - 1), rows


def reject(
    table: ReferenceTable,
    observed,
    scaling: ScalingVector,
    rate: float,
    exclude: int | None = None,
) -> AcceptanceSet:
    """Select the accepted fraction of table rows nearest the observed statistics.

    `observed` is a vector in the table's statistic order. With `exclude`,
    that row cannot be selected, but the accepted count stays floor(rate * n)
    of the full table: a leave-one-out pseudo-observed run then averages
    exactly as many distances as a run on the real observed data, which keeps
    the two exchangeable. Ties at the acceptance boundary are broken by lower row
    index, so the result does not depend on sort stability.

    Selection is a partial (k-smallest) selection rather than a full sort;
    tables with millions of rows stay cheap.
    """
    keep, exclude = _accepted_keep(rate, table.n, exclude)
    dist = scaled_distances(table.stats, observed, scaling)
    if exclude is not None:
        dist[exclude] = np.inf

    boundary = np.partition(dist, keep - 1)[keep - 1]
    below = np.flatnonzero(dist < boundary)
    ties = np.flatnonzero(dist == boundary)
    chosen = np.concatenate([below, ties[: keep - below.size]])
    order = np.lexsort((chosen, dist[chosen]))
    chosen = chosen[order]
    return AcceptanceSet(indices=chosen, distances=dist[chosen])


def mean_accepted_distances(
    table: ReferenceTable,
    queries,
    scaling: ScalingVector,
    rate: float,
    exclude=None,
) -> np.ndarray:
    """Mean scaled distance from each query row to its accepted table rows.

    Value i has the bytes of ``reject(table, queries[i], scaling, rate,
    exclude=exclude[i]).distances.mean()``: the same rows are accepted
    (ties at the boundary have equal distances, so which one is taken does
    not matter), and their distances are summed in the same ascending order.
    `exclude`, if given, holds one table row per query that its rejection
    may not select.

    Queries are processed in blocks of ``DISTANCE_BLOCK_BYTES`` of squared
    distances, summed as for :func:`abcgof.core.scaled_distances`; only the
    accepted ones are partitioned out, rooted and sorted, since a correctly
    rounded square root preserves order.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    keep, exclude = _accepted_keep(rate, table.n, exclude, (len(queries),))
    rows = max(1, DISTANCE_BLOCK_BYTES // (8 * table.n))
    means = np.empty(len(queries))
    for lo, total in _squared_distance_blocks(table.stats, queries, scaling, rows):
        if exclude is not None:
            total[np.arange(len(total)), exclude[lo:lo + rows]] = np.inf
        nearest = np.sqrt(np.partition(total, keep - 1, axis=1)[:, :keep])
        nearest.sort(axis=1)
        means[lo:lo + len(total)] = np.add.reduce(nearest, axis=1) / keep
    return means
