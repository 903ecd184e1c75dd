"""Per-statistic posterior predictive checks.

Once a model is rejected, these identify which summary statistics cause the
poor fit: each statistic's observed value is located within the distribution
of its posterior replicates, with tail fractions, a two-sided P-value and an
out-of-range flag per statistic, plus histogram data for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ObservedStats, tsv_text


@dataclass(frozen=True, eq=False)
class StatCheck:
    """One statistic's replicates, tail fractions and flags."""

    name: str
    replicates: np.ndarray
    observed: float
    lower_tail: float  # fraction of replicates <= observed
    upper_tail: float  # fraction of replicates >= observed
    two_sided: float  # 2 * min(tails), capped at 1
    outside_range: bool


@dataclass(frozen=True, eq=False)
class PpcReport:
    per_stat: dict  # name -> StatCheck

    def to_dict(self) -> dict:
        stats = {}
        for name, check in self.per_stat.items():
            stats[name] = {
                "observed": check.observed,
                "lower_tail": check.lower_tail,
                "upper_tail": check.upper_tail,
                "two_sided": check.two_sided,
                "outside_range": check.outside_range,
                "replicates": check.replicates.tolist(),
            }
        n_prime = len(next(iter(self.per_stat.values())).replicates) if self.per_stat else 0
        return {"n_prime": n_prime, "stats": stats}


def ppc_report(replicates: np.ndarray, observed: ObservedStats) -> PpcReport:
    """Tail fractions and range flags for every statistic.

    Ties count in both tails (both comparisons are non-strict), so an
    observed value equal to every replicate gets a two-sided P-value of 1,
    and the minimum tail is at least 1/n' whenever the observed value
    coincides with some replicate.
    """
    reps = np.asarray(replicates, dtype=float)
    if reps.ndim != 2 or reps.shape[0] < 1:
        raise ValueError("replicates must be an n' x k matrix with n' >= 1")
    if reps.shape[1] != len(observed.stat_names):
        raise ValueError("replicate column count does not match observed statistics")
    n_prime = reps.shape[0]
    per_stat = {}
    for j, name in enumerate(observed.stat_names):
        col = reps[:, j]
        value = float(observed.values[j])
        lower = float(np.count_nonzero(col <= value) / n_prime)
        upper = float(np.count_nonzero(col >= value) / n_prime)
        per_stat[name] = StatCheck(
            name=name,
            replicates=col.copy(),
            observed=value,
            lower_tail=lower,
            upper_tail=upper,
            two_sided=min(1.0, 2.0 * min(lower, upper)),
            outside_range=bool(value < col.min() or value > col.max()),
        )
    return PpcReport(per_stat=per_stat)


def ppc_histogram_data(
    replicates: np.ndarray, observed: ObservedStats, bins: int
) -> dict:
    """Equal-width histogram per statistic, spanning replicates and observed.

    Returns name -> (edges, counts, observed value); counts always sum to n'.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    reps = np.asarray(replicates, dtype=float)
    out = {}
    for j, name in enumerate(observed.stat_names):
        col = reps[:, j]
        value = float(observed.values[j])
        lo = min(float(col.min()), value)
        hi = max(float(col.max()), value)
        counts, edges = np.histogram(col, bins=bins, range=(lo, hi))
        out[name] = (edges, counts, value)
    return out


def histogram_tsv(histograms: dict) -> str:
    """Render :func:`ppc_histogram_data` output as TSV for external plotting."""
    rows = []
    for name, (edges, counts, _observed) in histograms.items():
        edges = edges.tolist()
        rows += [[name, lo, hi, c] for lo, hi, c in zip(edges[:-1], edges[1:], counts.tolist())]
    return tsv_text(["stat", "bin_lo", "bin_hi", "count"], rows)
