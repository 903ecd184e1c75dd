"""Rejection sampling: keep the accepted fraction of simulations nearest the data."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ReferenceTable, ScalingVector, check_statistic_lengths, scaled_distances

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
    count = accepted_count(rate, table.n)
    dist = scaled_distances(table.stats, observed, scaling)

    n_effective = table.n
    if exclude is not None:
        if not 0 <= exclude < table.n:
            raise ValueError(f"exclude index {exclude} out of range for {table.n} rows")
        dist[exclude] = np.inf
        n_effective -= 1

    keep = min(count, n_effective)
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
    distances. Within a block the squares are summed column by column in
    kept order, as :func:`abcgof.core.scaled_distances` sums them; only the
    accepted ones are partitioned out, rooted and sorted, since a correctly
    rounded square root preserves order.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    check_statistic_lengths(table.n_stats, queries.shape[1], scaling)
    count = accepted_count(rate, table.n)
    n_effective = table.n
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=int).ravel()
        if exclude.size != len(queries):
            raise ValueError(f"{exclude.size} excluded rows for {len(queries)} queries")
        outside = (exclude < 0) | (exclude >= table.n)
        if outside.any():
            bad = exclude[np.argmax(outside)]
            raise ValueError(f"exclude index {bad} out of range for {table.n} rows")
        n_effective -= 1
    keep = min(count, n_effective)

    kept = scaling.kept
    columns = [(np.ascontiguousarray(table.stats[:, j]), scaling.scales[j]) for j in kept]
    rows = max(1, DISTANCE_BLOCK_BYTES // (8 * table.n))
    means = np.empty(len(queries))
    for lo in range(0, len(queries), rows):
        block = queries[lo:lo + rows, kept]
        total = np.empty((len(block), table.n))
        term = np.empty_like(total)
        for c, (column, scale) in enumerate(columns):
            out = total if c == 0 else term
            np.subtract(column, block[:, c:c + 1], out=out)
            out /= scale
            out *= out
            if c > 0:
                total += term
        if exclude is not None:
            total[np.arange(len(block)), exclude[lo:lo + rows]] = np.inf
        nearest = np.sqrt(np.partition(total, keep - 1, axis=1)[:, :keep])
        nearest.sort(axis=1)
        means[lo:lo + len(block)] = np.add.reduce(nearest, axis=1) / keep
    return means
