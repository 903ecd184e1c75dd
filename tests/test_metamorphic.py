"""Metamorphic relations of the two statistics.

A golden digest pins today's bytes but cannot tell a correct number from a
wrong one that happens to be stable; a relation between two runs can (Chen,
Cheung & Yiu 1998). Multiplying a statistic column by a power of two
multiplies its MAD by the same factor, exactly in floating point, so every
scaled distance keeps its bytes. The MAD also ignores how far out the
extreme values lie, which tells it from the standard deviation, a scale that
is as exact under powers of two. Reordering the columns, names included,
changes only the order of each distance's sum.
"""

import functools

import numpy as np
import pytest

from abcgof import (
    DataError,
    ObservedStats,
    ReferenceTable,
    build_reference_table,
    get_simulator,
    gfit,
    gfit_post,
)
from abcgof.models import ToySimulator

from conftest import CallLog

FACTORS = np.array([8.0, 0.25, 1.0, 4.0])
ORDER = [2, 0, 3, 1]
RATE = 0.02


@functools.lru_cache(maxsize=None)
def toy_table() -> ReferenceTable:
    return build_reference_table(get_simulator("toy-gaussian"), 3000, 4)


def observed_values(table) -> np.ndarray:
    return table.stats[3] + 0.3


def with_stats(table, stats, stat_names=None) -> ReferenceTable:
    return ReferenceTable(
        param_names=table.param_names,
        stat_names=table.stat_names if stat_names is None else stat_names,
        params=table.params,
        stats=stats,
    )


class ScaledToy(ToySimulator):
    """toy-gaussian whose statistics are multiplied column by column by FACTORS."""

    def __init__(self):
        super().__init__("gaussian")

    def simulate(self, theta, rng):
        return super().simulate(theta, rng) * FACTORS

    def simulate_rows(self, thetas, rng):
        return super().simulate_rows(thetas, rng) * FACTORS


def result_bytes(result) -> tuple:
    return result.observed_value, result.null_values.tobytes(), result.p_value


def test_power_of_two_column_scaling_keeps_every_byte_of_both_statistics():
    table = toy_table()
    scaled = with_stats(table, table.stats * FACTORS)
    observed = ObservedStats(stat_names=table.stat_names, values=observed_values(table))
    scaled_observed = ObservedStats(
        stat_names=table.stat_names, values=observed_values(table) * FACTORS
    )

    prior = gfit(table, observed, RATE, 300, seed=5)
    assert result_bytes(gfit(scaled, scaled_observed, RATE, 300, seed=5)) == result_bytes(prior)

    post = gfit_post(table, observed, RATE, ToySimulator("gaussian"), 50, 60, seed=6)
    scaled_post = gfit_post(scaled, scaled_observed, RATE, ScaledToy(), 50, 60, seed=6)
    assert result_bytes(scaled_post) == result_bytes(post)


def test_pushing_each_column_maximum_further_out_keeps_the_observed_prior_statistic():
    # Each column's median and MAD stay, and the pushed rows are far from the
    # observed data, so the accepted rows and their scaled distances stay.
    table = toy_table()
    stats = table.stats.copy()
    for j, row in enumerate(np.argmax(stats, axis=0)):
        stats[row, j] += 10 * (stats[row, j] - np.median(stats[:, j]))
    observed = ObservedStats(stat_names=table.stat_names, values=observed_values(table))
    pushed = gfit(with_stats(table, stats), observed, RATE, 300, seed=5)
    assert pushed.observed_value == gfit(table, observed, RATE, 300, seed=5).observed_value


def reordered(table, order=ORDER) -> ReferenceTable:
    names = [table.stat_names[j] for j in order]
    return with_stats(table, table.stats[:, order], names)


def test_reordering_the_columns_keeps_the_prior_p_value():
    table = toy_table()
    observed = ObservedStats(stat_names=table.stat_names, values=observed_values(table))
    result = gfit(table, observed, RATE, 300, seed=5)
    permuted = gfit(reordered(table), observed, RATE, 300, seed=5)
    assert permuted.p_value == result.p_value
    assert permuted.observed_value == pytest.approx(result.observed_value, rel=1e-14)
    np.testing.assert_allclose(permuted.null_values, result.null_values, rtol=1e-14)


class CountingToy(ToySimulator):
    """toy-gaussian that records each row it simulates, in any process."""

    def __init__(self, log_path):
        super().__init__("gaussian")
        self.log = CallLog(log_path)

    def simulate(self, theta, rng):
        self.log.record("row")
        return super().simulate(theta, rng)

    def simulate_rows(self, thetas, rng):
        for _ in thetas:
            self.log.record("row")
        return super().simulate_rows(thetas, rng)


@pytest.mark.parametrize("order", [ORDER, [3, 2, 1, 0]], ids=["permuted", "reversed"])
def test_the_posterior_statistic_refuses_reordered_columns_before_simulating(tmp_path, order):
    # The simulator still returns its statistics in its own order, so a table
    # with the columns reordered no longer matches it.
    table = toy_table()
    observed = ObservedStats(stat_names=table.stat_names, values=observed_values(table))
    sim = CountingToy(tmp_path / "calls")
    with pytest.raises(DataError) as info:
        gfit_post(reordered(table, order), observed, RATE, sim, 50, 60, seed=6)
    assert str(info.value) == (
        f"model 'toy-gaussian' produces statistics {list(table.stat_names)} "
        f"but the table has {[table.stat_names[j] for j in order]}"
    )
    assert sim.log == []
