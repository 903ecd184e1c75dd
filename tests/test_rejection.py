import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcgof import fit_scaling, null_distribution_prior, reject, rejection
from abcgof.core import ScalingVector, scaled_distances
from abcgof.gof import d_prior
from abcgof.rejection import accepted_count, mean_accepted_distances

from conftest import make_table
from prior_oracle import d_prior_oracle, null_prior_oracle


# --- independent oracle: full sort over plainly computed distances ---------------


def reject_oracle(stats, observed, scales, dropped, rate, exclude=None):
    """Returns [(distance, index), ...] for the accepted rows.

    The accepted count comes from the full table size even when a row is
    excluded (clamped to the rows actually available).
    """
    pairs = []
    for i, row in enumerate(stats):
        if exclude is not None and i == exclude:
            continue
        total = 0.0
        for j in range(len(row)):
            if j in dropped:
                continue
            total += ((row[j] - observed[j]) / scales[j]) ** 2
        pairs.append((math.sqrt(total), i))
    pairs.sort()
    keep = min(max(1, math.floor(rate * len(stats))), len(pairs))
    return pairs[:keep]


def assert_matches_oracle(table, observed, scaling, rate, exclude=None):
    got = reject(table, observed, scaling, rate, exclude=exclude)
    want = reject_oracle(
        table.stats, observed, scaling.scales, scaling.dropped, rate, exclude=exclude
    )
    assert got.indices.tolist() == [i for _, i in want]
    assert got.distances == pytest.approx([d for d, _ in want], rel=1e-10, abs=1e-12)


# --- examples ---------------------------------------------------------------------


def ramp_table():
    return make_table(np.arange(1.0, 11.0))  # single statistic 1..10


def test_full_acceptance_keeps_every_row(rng):
    table = make_table(rng.standard_normal((12, 3)))
    scaling = fit_scaling(table)
    accepted = reject(table, rng.standard_normal(3), scaling, rate=1.0)
    assert sorted(accepted.indices.tolist()) == list(range(12))
    assert np.all(np.diff(accepted.distances) >= 0)


def test_nearest_fifth_of_ramp():
    table = ramp_table()
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.2)
    assert table.stats[accepted.indices, 0].tolist() == [1.0, 2.0]
    assert_matches_oracle(table, [0.0], scaling, 0.2)


def test_exclusion_keeps_the_full_table_count():
    # floor(0.2 * 10) = 2 rows even with the nearest row excluded, so the
    # next two rows are accepted; a leave-one-out run averages as many
    # distances as the run on the real data.
    table = ramp_table()
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.2, exclude=0)
    assert table.stats[accepted.indices, 0].tolist() == [2.0, 3.0]
    assert_matches_oracle(table, [0.0], scaling, 0.2, exclude=0)


def test_exclusion_count_clamps_to_available_rows():
    table = ramp_table()
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=1.0, exclude=3)
    assert len(accepted) == 9
    assert 3 not in accepted.indices.tolist()


def test_exclude_validation():
    table = ramp_table()
    scaling = fit_scaling(table)
    with pytest.raises(ValueError, match="out of range"):
        reject(table, [0.0], scaling, rate=0.5, exclude=10)


@pytest.mark.parametrize("exclude", [True, np.True_, 2.7, np.float64(3.0)])
def test_an_exclude_that_is_not_an_integer_is_refused_by_reject_and_the_kernel(exclude):
    # Neither is a row index: numpy would index with a bool as a mask, and cut a float to a row.
    table = ramp_table()
    scaling = fit_scaling(table)
    refused = pytest.raises(
        ValueError, match=re.escape(f"exclude index {exclude} is not an integer row index")
    )
    with refused:
        reject(table, [0.0], scaling, 0.3, exclude=exclude)
    with refused:
        d_prior(table, [0.0], scaling, 0.3, exclude=exclude)
    with refused:
        mean_accepted_distances(table, table.stats[:2], scaling, 0.3, exclude=[exclude] * 2)


def test_rate_validation():
    table = ramp_table()
    scaling = fit_scaling(table)
    for rate in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="acceptance rate"):
            reject(table, [0.0], scaling, rate=rate)


def test_zero_count_clamps_to_one_with_warning():
    table = ramp_table()
    scaling = fit_scaling(table)
    with pytest.warns(UserWarning, match="clamping to 1"):
        accepted = reject(table, [0.0], scaling, rate=0.01)
    assert len(accepted) == 1
    assert table.stats[accepted.indices, 0].tolist() == [1.0]


def test_boundary_ties_break_by_lower_row_index():
    table = make_table([0.0, 1.0, 1.0, 1.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    scaling = ScalingVector(scales=[1.0], dropped=frozenset())
    accepted = reject(table, [0.0], scaling, rate=0.2)  # keeps 2 of 10
    assert accepted.indices.tolist() == [0, 1]

    accepted = reject(table, [0.0], scaling, rate=0.3)  # keeps 3: ties at d=1
    assert accepted.indices.tolist() == [0, 1, 2]


# --- properties ---------------------------------------------------------------------


def test_accepted_never_farther_than_rejected(rng):
    for _ in range(25):
        table = make_table(rng.standard_normal((40, 2)))
        scaling = fit_scaling(table)
        observed = rng.standard_normal(2)
        rate = rng.uniform(0.05, 0.9)
        accepted = reject(table, observed, scaling, rate)
        from abcgof.core import scaled_distances

        all_d = scaled_distances(table.stats, observed, scaling)
        rejected = np.setdiff1d(np.arange(40), accepted.indices)
        assert accepted.distances.max() <= all_d[rejected].min() + 1e-15


def test_monotone_in_rate(rng):
    table = make_table(rng.standard_normal((60, 3)))
    scaling = fit_scaling(table)
    observed = rng.standard_normal(3)
    smaller = reject(table, observed, scaling, rate=0.2)
    larger = reject(table, observed, scaling, rate=0.6)
    assert set(smaller.indices.tolist()) <= set(larger.indices.tolist())


def test_matches_full_sort_oracle_randomized(rng):
    for trial in range(120):
        n = int(rng.integers(2, 50))
        k = int(rng.integers(1, 4))
        table = make_table(rng.standard_normal((n, k)) * rng.uniform(0.5, 3.0))
        scaling = fit_scaling(table)
        observed = rng.standard_normal(k)
        rate = float(rng.uniform(1.0 / n, 1.0))
        exclude = int(rng.integers(0, n)) if rng.random() < 0.3 and n > 2 else None
        assert_matches_oracle(table, observed, scaling, rate, exclude=exclude)


def test_accepted_count_rule():
    assert accepted_count(0.2, 10) == 2
    assert accepted_count(0.2, 9) == 1
    assert accepted_count(1.0, 7) == 7
    with pytest.warns(UserWarning):
        assert accepted_count(0.001, 10) == 1


@st.composite
def permuted_tables(draw):
    """Stats (small integers tie often), observed, permutation, rate, exclude."""
    n, k = draw(st.integers(2, 30)), draw(st.integers(1, 3))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3, allow_nan=False))
    stats = np.array([[draw(value) for _ in range(k)] for _ in range(n)])
    observed = np.array([draw(value) for _ in range(k)])
    perm = np.array(draw(st.permutations(range(n))))
    rate = draw(st.floats(0.01, 1.0))
    exclude = draw(st.none() | st.integers(0, n - 1))
    return stats, observed, perm, rate, exclude


@given(permuted_tables())
@settings(max_examples=300, deadline=None)
def test_row_permutation_keeps_the_accepted_distances(case):
    stats, observed, perm, rate, exclude = case
    scaling = ScalingVector(scales=np.ones(stats.shape[1]), dropped=frozenset())
    # row i of the shuffled table is row perm[i] of the original
    moved = None if exclude is None else int(np.argsort(perm)[exclude])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a rate keeping no rows clamps to one
        a = reject(make_table(stats), observed, scaling, rate, exclude=exclude)
        b = reject(make_table(stats[perm]), observed, scaling, rate, exclude=moved)
    assert a.distances.tobytes() == b.distances.tobytes()
    if exclude is not None:
        assert exclude not in a.indices and exclude not in perm[b.indices]

    dist = scaled_distances(stats, observed, scaling)
    if exclude is not None:
        dist[exclude] = np.inf
    if np.count_nonzero(dist <= a.distances[-1]) == len(a):  # no tie at the boundary
        assert set(perm[b.indices]) == set(a.indices)


# --- the prior statistic's kernel against one rejection per query ---------------------


def block_rows(table, rows):
    """Set the kernel's block budget so that each block holds `rows` queries."""
    return mock.patch.object(rejection, "DISTANCE_BLOCK_BYTES", 8 * table.n * rows)


def float_bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def prior_cases(draw):
    """A table whose values tie often, a scaling with dropped columns, and the null's settings.

    Statistics are small integers, values rounded to one decimal, or wide
    floats. The rate may keep every row (so a leave-one-out rejection keeps
    n - 1) or too few (so the count clamps to 1). Blocks hold 1 to M + 1 queries.
    """
    n, k = draw(st.integers(2, 24)), draw(st.integers(1, 4))
    value = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.floats(-5, 5).map(lambda x: round(x, 1)),
        st.floats(-1e3, 1e3, allow_nan=False),
    ]))
    stats = np.array([[draw(value) for _ in range(k)] for _ in range(n)])
    dropped = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    scales = [0.0 if j in dropped else draw(st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.01, 10))
              for j in range(k)]
    scaling = ScalingVector(scales=scales, dropped=dropped)
    rate = draw(st.just(1.0) | st.floats(0.001, 1.0) | st.floats(0.001, 0.999 / n))
    M = draw(st.integers(1, n))
    rows = draw(st.integers(1, M + 1))
    return make_table(stats), scaling, rate, M, rows, draw(st.integers(0, 2**32 - 1))


@given(prior_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_d_prior_gives_the_bytes_of_one_rejection(case, data):
    table, scaling, rate, _, rows, _ = case
    row = data.draw(st.integers(0, table.n - 1))
    observed = data.draw(st.sampled_from([
        table.stats[row].tolist(),  # ties with row `row` at distance 0
        (table.stats[row] + 0.5).tolist(),
    ]))
    exclude = data.draw(st.none() | st.integers(0, table.n - 1))
    with warnings.catch_warnings(), block_rows(table, rows):
        warnings.simplefilter("ignore")  # a rate keeping no rows clamps to one
        got = d_prior(table, observed, scaling, rate, exclude=exclude)
        want = d_prior_oracle(table, observed, scaling, rate, exclude=exclude)
    assert float_bytes(got) == float_bytes(want)


@given(prior_cases())
@settings(max_examples=300, deadline=None)
def test_prior_null_gives_the_bytes_of_one_rejection_per_row(case):
    table, scaling, rate, M, rows, seed = case
    with warnings.catch_warnings(), block_rows(table, rows):
        warnings.simplefilter("ignore")
        got = null_distribution_prior(table, scaling, rate, M, seed)
        want = null_prior_oracle(table, scaling, rate, M, seed)
    assert float_bytes(got) == float_bytes(want)


@pytest.mark.parametrize(
    "rows, M",
    [(1, 12), (4, 7), (4, 8), (4, 9), (5, 12)],
    ids=["one-row-blocks", "boundary-one-before", "boundary-at", "boundary-one-after", "M=n"],
)
@pytest.mark.parametrize("rate", [0.25, 1.0])
def test_prior_null_across_block_boundaries(rows, M, rate):
    # Rounded values tie often; rate 1.0 keeps n - 1 rows in every leave-one-out query.
    stats = np.round(np.random.default_rng(4).standard_normal((12, 3)), 1)
    table = make_table(stats)
    scaling = fit_scaling(table)
    with block_rows(table, rows):
        got = null_distribution_prior(table, scaling, rate, M, seed=9)
    assert float_bytes(got) == float_bytes(null_prior_oracle(table, scaling, rate, M, 9))


def test_two_row_table_and_list_input():
    table = make_table([[1.0, 2.0], [4.0, 6.0]])
    scaling = ScalingVector(scales=[1.5, 0.5], dropped=frozenset())
    for rate in (0.5, 1.0):
        assert float_bytes(null_distribution_prior(table, scaling, rate, 2, seed=0)) == (
            float_bytes(null_prior_oracle(table, scaling, rate, 2, 0))
        )
        for exclude in (None, 0, 1):
            got = d_prior(table, [2.0, 3.0], scaling, rate, exclude=exclude)
            want = d_prior_oracle(table, [2.0, 3.0], scaling, rate, exclude=exclude)
            assert float_bytes(got) == float_bytes(want)


def test_kernel_errors_keep_their_messages():
    table = make_table(np.arange(10.0).reshape(5, 2))
    scaling = fit_scaling(table)
    with pytest.raises(ValueError, match="statistic length mismatch: matrix has 2, vector has 3"):
        d_prior(table, [0.0, 1.0, 2.0], scaling, 0.5)
    for exclude in (5, -1):
        with pytest.raises(ValueError, match=f"exclude index {exclude} out of range for 5 rows"):
            d_prior(table, [0.0, 1.0], scaling, 0.5, exclude=exclude)
    with pytest.raises(ValueError, match="exclude index 7 out of range for 5 rows"):
        mean_accepted_distances(table, table.stats[:3], scaling, 0.5, exclude=[0, 7, 9])


def test_the_clamp_warning_is_issued_once_per_null():
    table = ramp_table()
    scaling = fit_scaling(table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        null_distribution_prior(table, scaling, rate=0.01, M=10, seed=0)
    assert [str(w.message) for w in caught] == [
        "acceptance rate 0.01 keeps no rows out of 10; clamping to 1"
    ]
