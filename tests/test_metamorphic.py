"""Metamorphic relations of the two statistics.

A golden digest pins today's bytes but cannot tell a correct number from a
wrong one that happens to be stable; a relation between two runs can (Chen,
Cheung & Yiu 1998). Multiplying a statistic column by a power of two
multiplies its MAD by the same factor, exactly in floating point, so every
scaled distance keeps its bytes. The MAD also ignores how far out the
extreme values lie, which tells it from the standard deviation, a scale that
is as exact under powers of two. Reordering the columns, names included,
changes only the order of each distance's sum. A constant statistic has zero
MAD, so it is dropped from every distance and from the regression. Each study
dataset has its own stream and all share one null, so more datasets keep the
first ones' P-values.
"""

import functools

import numpy as np
import pytest

from abcgof import (
    DataError,
    ObservedStats,
    PowerStudyConfig,
    ReferenceTable,
    build_reference_table,
    get_simulator,
    gfit,
    gfit_post,
    run_power,
)
from abcgof.core import json_text
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


def result_json(result) -> str:
    return json_text(result.to_dict())


def test_shuffled_observed_names_keep_every_byte_of_both_statistics():
    # gfit and gfit_post match the observed statistics to the table by name.
    table = toy_table()
    values = observed_values(table)
    observed = ObservedStats(stat_names=table.stat_names, values=values)
    shuffled = ObservedStats(stat_names=[table.stat_names[j] for j in ORDER], values=values[ORDER])
    assert result_json(gfit(table, shuffled, RATE, 200, seed=5)) == result_json(
        gfit(table, observed, RATE, 200, seed=5)
    )
    sim = ToySimulator("gaussian")
    assert result_json(gfit_post(table, shuffled, RATE, sim, 50, 40, seed=6)) == result_json(
        gfit_post(table, observed, RATE, sim, 50, 40, seed=6)
    )


CONSTANT = 2.5


class ConstantAppendedToy(ToySimulator):
    """toy-gaussian with the statistic CONSTANT appended after its four."""

    stat_names = ToySimulator.stat_names + ("constant",)

    def __init__(self):
        super().__init__("gaussian")

    def simulate(self, theta, rng):
        return np.append(super().simulate(theta, rng), CONSTANT)

    def simulate_rows(self, thetas, rng):
        rows = super().simulate_rows(thetas, rng)
        return np.column_stack([rows, np.full(len(rows), CONSTANT)])


def test_an_appended_constant_statistic_keeps_every_byte_of_both_statistics():
    table = toy_table()
    appended = with_stats(
        table,
        np.column_stack([table.stats, np.full(table.n, CONSTANT)]),
        ConstantAppendedToy.stat_names,
    )
    observed = ObservedStats(stat_names=table.stat_names, values=observed_values(table))
    # The observed value is not the constant, so a column that was not really
    # dropped would add to the distances.
    appended_observed = ObservedStats(
        stat_names=appended.stat_names, values=np.append(observed_values(table), CONSTANT + 1)
    )
    with pytest.warns(UserWarning, match="dropping constant statistics"):
        prior = gfit(appended, appended_observed, RATE, 200, seed=5)
    assert result_json(prior) == result_json(gfit(table, observed, RATE, 200, seed=5))

    with pytest.warns(UserWarning, match="dropping constant statistics"):
        post = gfit_post(appended, appended_observed, RATE, ConstantAppendedToy(), 50, 40, seed=6)
    expected = gfit_post(table, observed, RATE, ToySimulator("gaussian"), 50, 40, seed=6)
    assert result_json(post) == result_json(expected)


@pytest.mark.parametrize("statistic", ["prior", "post"])
def test_more_datasets_keep_the_first_p_values(statistic):
    config = dict(
        null_model="toy-gaussian", alt_model="toy-laplace", statistic=statistic,
        n_sims=2000, M=40, n_prime=30, master_seed=3,
    )
    few = run_power(PowerStudyConfig(n_datasets=10, **config))
    more = run_power(PowerStudyConfig(n_datasets=25, **config))
    assert more.p_values[:10].tobytes() == few.p_values.tobytes()
