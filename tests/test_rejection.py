import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcgof import fit_scaling, reject
from abcgof.core import ScalingVector, scaled_distances
from abcgof.rejection import accepted_count

from conftest import make_table


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
