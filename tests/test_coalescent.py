import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from abcgof.coalescent import (
    DemographyModel,
    LocusConfig,
    demography_from_params,
    draw_prior,
    drop_mutations,
    pairwise_diversity,
    simulate_genealogy,
    simulate_locus_set,
    stats_pi_tajima,
    stats_sfs,
    tajimas_d,
)
from abcgof.models import build_reference_table, get_simulator


# --- independent oracles -----------------------------------------------------------


def pi_from_haplotypes(haplotypes):
    """Average pairwise Hamming distance over all chromosome pairs."""
    n = len(haplotypes)
    total, pairs = 0, 0
    for i in range(n):
        for j in range(i + 1, n):
            total += sum(a != b for a, b in zip(haplotypes[i], haplotypes[j]))
            pairs += 1
    return total / pairs


def tajima_oracle(n, s, pi):
    """Spreadsheet-style recomputation with exact rationals for the constants."""
    a1 = sum(Fraction(1, i) for i in range(1, n))
    a2 = sum(Fraction(1, i * i) for i in range(1, n))
    b1 = Fraction(n + 1, 3 * (n - 1))
    b2 = Fraction(2 * (n * n + n + 3), 9 * n * (n - 1))
    c1 = b1 - 1 / a1
    c2 = b2 - Fraction(n + 2, n) / a1 + a2 / a1**2
    e1 = c1 / a1
    e2 = c2 / (a1**2 + a2)
    if s == 0:
        return 0.0
    return (pi - s / float(a1)) / math.sqrt(float(e1) * s + float(e2) * s * (s - 1))


def harmonic(n):
    return sum(1.0 / i for i in range(1, n))


# --- demography validation ------------------------------------------------------------


def test_epochs_must_start_at_zero_and_increase():
    with pytest.raises(ValueError, match="start at time 0"):
        DemographyModel(epochs=((0.5, 1.0),), label="constant")
    with pytest.raises(ValueError, match="increase strictly"):
        DemographyModel(epochs=((0.0, 1.0), (0.2, 0.5), (0.2, 1.0)), label="bottleneck")
    with pytest.raises(ValueError, match="positive"):
        DemographyModel(epochs=((0.0, -1.0),), label="constant")


def test_labeled_constructors_enforce_shape():
    with pytest.raises(ValueError, match="below 1"):
        DemographyModel.bottleneck(size=1.5, start=0.1, duration=0.1)
    with pytest.raises(ValueError, match="below the present"):
        DemographyModel.expansion(ancestral_size=2.0, time=0.1)
    model = DemographyModel.bottleneck(size=0.1, start=0.2, duration=0.3)
    assert model.start_times == (0.0, 0.2, 0.5)
    assert model.relative_sizes == (1.0, 0.1, 1.0)


# --- genealogy analytics ----------------------------------------------------------------


def test_pair_coalescence_time_has_unit_mean():
    rng = np.random.default_rng(5)
    model = DemographyModel.constant()
    heights = [simulate_genealogy(model, 2, rng).height for _ in range(100_000)]
    assert np.mean(heights) == pytest.approx(1.0, abs=0.01)


def test_total_branch_length_matches_coalescent_expectation():
    rng = np.random.default_rng(6)
    model = DemographyModel.constant()
    lengths = [simulate_genealogy(model, 20, rng).total_branch_length for _ in range(20_000)]
    assert np.mean(lengths) == pytest.approx(2 * harmonic(20), rel=0.02)


def test_small_population_shrinks_times_proportionally():
    rng = np.random.default_rng(7)
    model = DemographyModel(epochs=((0.0, 0.1),), label="constant")
    heights = [simulate_genealogy(model, 2, rng).height for _ in range(100_000)]
    assert np.mean(heights) == pytest.approx(0.1, rel=0.01)


def test_constant_rescaling_is_exact_seed_for_seed():
    c = 0.37
    base = simulate_genealogy(DemographyModel.constant(), 20, np.random.default_rng(42))
    scaled = simulate_genealogy(
        DemographyModel(epochs=((0.0, c),), label="constant"), 20, np.random.default_rng(42)
    )
    assert np.array_equal(base.parent, scaled.parent)
    assert np.array_equal(scaled.node_time, base.node_time * c)


def test_two_epoch_height_matches_piecewise_integral():
    # n=2, rate 1 until T then 1/sigma: E[H] = (1 - e^-T) + e^-T * sigma
    T, sigma = 0.5, 0.2
    model = DemographyModel(epochs=((0.0, 1.0), (T, sigma)), label="expansion")
    rng = np.random.default_rng(8)
    heights = [simulate_genealogy(model, 2, rng).height for _ in range(200_000)]
    expected = (1 - math.exp(-T)) + math.exp(-T) * sigma
    assert np.mean(heights) == pytest.approx(expected, rel=0.01)


def test_tree_structure_invariants():
    g = simulate_genealogy(DemographyModel.constant(), 9, np.random.default_rng(1))
    assert g.parent.size == 17 and g.parent[g.root] == -1
    assert g.leaf_counts[g.root] == 9
    assert np.all(g.branch_lengths() >= 0)
    assert np.all(np.diff(g.node_time[9:]) >= 0)  # merge times nondecreasing
    for node in range(17):
        leaves = g.leaves_under(node)
        assert len(leaves) == g.leaf_counts[node]
    assert g.leaves_under(4).tolist() == [4]


# --- mutations -------------------------------------------------------------------------


def test_zero_rate_drops_no_mutations():
    g = simulate_genealogy(DemographyModel.constant(), 10, np.random.default_rng(2))
    drop = drop_mutations(g, 0.0, np.random.default_rng(3))
    assert drop.carrier_counts.size == 0
    assert drop.branch_mutations.sum() == 0


def test_expected_segregating_sites_watterson():
    theta, n = 5.0, 20
    rng = np.random.default_rng(9)
    totals = []
    for _ in range(20_000):
        g = simulate_genealogy(DemographyModel.constant(), n, rng)
        totals.append(drop_mutations(g, theta, rng).carrier_counts.size)
    assert np.mean(totals) == pytest.approx(theta * harmonic(n), rel=0.02)


def test_leaf_branch_mutations_are_singletons():
    g = simulate_genealogy(DemographyModel.constant(), 12, np.random.default_rng(4))
    drop = drop_mutations(g, 50.0, np.random.default_rng(5))
    per_branch = np.repeat(g.leaf_counts[drop.branch_nodes], drop.branch_mutations)
    assert np.array_equal(per_branch, drop.carrier_counts)
    leaf_mask = np.repeat(drop.branch_nodes < 12, drop.branch_mutations)
    assert np.all(drop.carrier_counts[leaf_mask] == 1)
    assert np.all(drop.carrier_counts >= 1)
    assert np.all(drop.carrier_counts <= 11)


def test_neutral_sfs_follows_one_over_i():
    # High-frequency classes are overdispersed (whole-tree correlation), so
    # the top class gets a looser band at this replicate count; the full-size
    # check lives in the acceptance suite.
    theta, n = 5.0, 20
    rng = np.random.default_rng(10)
    spectrum = np.zeros(n, dtype=int)
    for _ in range(15_000):
        g = simulate_genealogy(DemographyModel.constant(), n, rng)
        drop = drop_mutations(g, theta, rng)
        spectrum += np.bincount(drop.carrier_counts, minlength=n)
    counts = spectrum[1:]
    for i in (2, 5, 10):
        assert counts[0] / counts[i - 1] == pytest.approx(i, rel=0.06)
    assert counts[0] / counts[18] == pytest.approx(19, rel=0.12)


# --- per-locus statistics ----------------------------------------------------------------


def test_pairwise_diversity_matches_haplotype_oracle_small():
    # 4 chromosomes, 2 segregating sites: carriers {3,4} and {4}
    haplotypes = [(0, 0), (0, 0), (1, 0), (1, 1)]
    oracle = pi_from_haplotypes(haplotypes)
    assert oracle == pytest.approx(7 / 6)
    assert pairwise_diversity([2, 1], 4) == pytest.approx(oracle)
    assert tajimas_d(4, 2, 7 / 6) == pytest.approx(tajima_oracle(4, 2, 7 / 6), rel=1e-12)


def test_pairwise_diversity_matches_haplotype_oracle_randomized(rng):
    for _ in range(50):
        n = int(rng.integers(2, 12))
        sites = int(rng.integers(0, 15))
        haplotypes = np.zeros((n, sites), dtype=int)
        carriers = []
        for s in range(sites):
            c = int(rng.integers(1, n))
            rows = rng.choice(n, size=c, replace=False)
            haplotypes[rows, s] = 1
            carriers.append(c)
        want = pi_from_haplotypes([tuple(r) for r in haplotypes]) if sites else 0.0
        assert pairwise_diversity(carriers, n) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_tajimas_d_matches_oracle_randomized(rng):
    for _ in range(300):
        n = int(rng.integers(4, 40))
        s = int(rng.integers(0, 60))
        pi = float(rng.uniform(0, max(s, 1)))
        assert tajimas_d(n, s, pi) == pytest.approx(
            tajima_oracle(n, s, pi), rel=1e-10, abs=1e-12
        )


@pytest.mark.parametrize("n", [2, 3])
def test_tajimas_d_refuses_fewer_than_four_chromosomes(n):
    with pytest.raises(ValueError, match=f"at least 4 chromosomes, got n={n}"):
        tajimas_d(n, 3, 1.5)
    config = LocusConfig(n_chromosomes=n, n_loci=10, theta=5.0)
    loci = simulate_locus_set(DemographyModel.constant(), config, np.random.default_rng(n))
    with pytest.raises(ValueError, match=f"at least 4 chromosomes, got n={n}"):
        stats_pi_tajima(loci, config)
    assert stats_sfs(loci, config).size == n


def test_monomorphic_loci_give_all_zero_statistics():
    config = LocusConfig(n_chromosomes=4, n_loci=3, theta=0.0)
    loci = [np.empty(0, dtype=int)] * 3
    assert stats_pi_tajima(loci, config).tolist() == [0.0, 0.0, 0.0]
    sfs = stats_sfs(loci, config)
    assert sfs.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_neutral_tajimas_d_centers_near_zero():
    config = LocusConfig(n_chromosomes=20, n_loci=10_000, theta=0.5)
    rng = np.random.default_rng(11)
    loci = simulate_locus_set(DemographyModel.constant(), config, rng)
    stats = stats_pi_tajima(loci, config)
    assert abs(stats[1]) < 0.05
    assert stats[2] > 0  # loci genuinely vary


def test_neutral_tajimas_d_small_negative_bias_at_moderate_theta():
    # The ratio's denominator correlates with its numerator, so the neutral
    # expectation is slightly below zero at moderate theta; pin the scale so
    # a sign or normalization bug cannot hide behind the "near zero" check.
    config = LocusConfig(n_chromosomes=20, n_loci=10_000, theta=5.0)
    loci = simulate_locus_set(DemographyModel.constant(), config, np.random.default_rng(11))
    mean_d = stats_pi_tajima(loci, config)[1]
    assert -0.15 < mean_d < 0.0


def test_sfs_statistics_shape_and_conservation(rng):
    config = LocusConfig(n_chromosomes=20, n_loci=25, theta=8.0)
    loci = simulate_locus_set(DemographyModel.constant(), config, np.random.default_rng(12))
    sfs = stats_sfs(loci, config)
    assert sfs.shape == (20,)
    assert sfs[0] == sfs[1:].sum()
    assert sfs[0] == sum(len(c) for c in loci)


def test_pi_tajima_needs_two_loci():
    config = LocusConfig(n_chromosomes=4, n_loci=2)
    with pytest.raises(ValueError, match="2 loci"):
        stats_pi_tajima([np.array([1])], config)


def test_bottleneck_skews_tajima_above_expansion():
    config = LocusConfig(n_chromosomes=20, n_loci=4000, theta=5.0)
    rng = np.random.default_rng(13)
    bott = DemographyModel.bottleneck(size=0.2, start=0.1, duration=0.3)
    exp = DemographyModel.expansion(ancestral_size=0.2, time=0.2)
    d_bott = stats_pi_tajima(simulate_locus_set(bott, config, rng), config)[1]
    d_exp = stats_pi_tajima(simulate_locus_set(exp, config, rng), config)[1]
    assert d_bott > d_exp + 0.2


# --- priors -------------------------------------------------------------------------------


def test_prior_support_by_label(rng):
    from abcgof.coalescent import (
        BOTTLENECK_DURATION_RANGE,
        BOTTLENECK_SIZE_RANGE,
        BOTTLENECK_START_RANGE,
        EXPANSION_SIZE_RANGE,
        EXPANSION_TIME_RANGE,
        THETA_RANGE,
    )

    for _ in range(200):
        theta = draw_prior("constant", rng)
        assert theta.shape == (1,) and THETA_RANGE[0] <= theta[0] <= THETA_RANGE[1]
        bott = draw_prior("bottleneck", rng)
        assert bott.shape == (4,)
        assert BOTTLENECK_SIZE_RANGE[0] <= bott[1] <= BOTTLENECK_SIZE_RANGE[1] < 1
        assert BOTTLENECK_START_RANGE[0] <= bott[2] <= BOTTLENECK_START_RANGE[1]
        assert BOTTLENECK_DURATION_RANGE[0] <= bott[3] <= BOTTLENECK_DURATION_RANGE[1]
        exp = draw_prior("expansion", rng)
        assert exp.shape == (3,)
        assert EXPANSION_SIZE_RANGE[0] <= exp[1] <= EXPANSION_SIZE_RANGE[1] < 1
        assert EXPANSION_TIME_RANGE[0] <= exp[2] <= EXPANSION_TIME_RANGE[1]


def test_prior_averaged_tajima_direction():
    # Over the built-in priors, bottleneck data sit on the positive-D side
    # of expansion data: the signal behind the power asymmetry.
    config = LocusConfig(n_chromosomes=20, n_loci=50, theta=10.0)
    rng = np.random.default_rng(17)
    means = {}
    for label in ("bottleneck", "expansion"):
        ds = []
        for _ in range(120):
            model, theta = demography_from_params(label, draw_prior(label, rng))
            per_draw = LocusConfig(n_chromosomes=20, n_loci=50, theta=theta)
            loci = simulate_locus_set(model, per_draw, rng)
            ds.append(stats_pi_tajima(loci, config)[1])
        means[label] = np.mean(ds)
    assert means["bottleneck"] > means["expansion"] + 0.1


def test_prior_draw_deterministic_per_seed():
    a = draw_prior("bottleneck", np.random.default_rng(3))
    b = draw_prior("bottleneck", np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_demography_from_params_round_trip(rng):
    params = draw_prior("bottleneck", rng)
    model, theta = demography_from_params("bottleneck", params)
    assert theta == params[0]
    assert model.label == "bottleneck"
    assert model.relative_sizes == (1.0, params[1], 1.0)
    assert model.start_times == (0.0, params[2], params[2] + params[3])

    params = draw_prior("expansion", rng)
    model, theta = demography_from_params("expansion", params)
    assert model.relative_sizes == (1.0, params[1])
    assert model.start_times == (0.0, params[2])


def test_unknown_label_rejected(rng):
    with pytest.raises(ValueError, match="unknown demography"):
        draw_prior("exponential", rng)
    with pytest.raises(ValueError, match="unknown demography"):
        demography_from_params("exponential", [1.0])


def test_stats_sfs_pools_carrier_counts_across_loci():
    config = LocusConfig(n_chromosomes=4, n_loci=2)
    stats = stats_sfs([np.array([1, 1, 3]), np.array([2])], config)
    assert stats.tolist() == [4.0, 2.0, 1.0, 1.0]  # total, then counts on 1..n-1


# --- the production loop against the per-locus oracle ------------------------------


def oracle_locus_set(demography, config, rng):
    """`simulate_locus_set` spelled as one genealogy and one mutation drop per locus."""
    return [
        drop_mutations(
            simulate_genealogy(demography, config.n_chromosomes, rng), config.theta, rng
        ).carrier_counts
        for _ in range(config.n_loci)
    ]


LOOP_CASES = [
    (DemographyModel.constant(), LocusConfig(n_chromosomes=20, n_loci=50, theta=10.0)),
    (DemographyModel.constant(0.37), LocusConfig(n_chromosomes=7, n_loci=1, theta=3.0)),
    (DemographyModel.bottleneck(0.5, 0.1, 0.02), LocusConfig(n_chromosomes=20, n_loci=100)),
    (DemographyModel.expansion(0.05, 0.2), LocusConfig(n_chromosomes=20, n_loci=100)),
    (DemographyModel.expansion(0.3, 1.0), LocusConfig(n_chromosomes=2, n_loci=40, theta=8.0)),
    (DemographyModel.bottleneck(0.3, 0.01, 0.005), LocusConfig(n_chromosomes=2, n_loci=40)),
    (DemographyModel.bottleneck(0.6, 0.05, 0.03), LocusConfig(n_chromosomes=12, theta=0.0)),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("demography, config", LOOP_CASES)
def test_locus_set_equals_the_per_locus_oracle(demography, config, seed):
    fast = simulate_locus_set(demography, config, np.random.default_rng(seed))
    slow = oracle_locus_set(demography, config, np.random.default_rng(seed))
    assert len(fast) == len(slow) == config.n_loci
    for got, want in zip(fast, slow):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_oracle_cases_cross_two_epoch_boundaries_in_one_wait():
    # With two lineages there is one wait, from time 0 to the root; a root
    # above the end of the bottleneck means that wait crossed both of its
    # boundaries, so the comparison above covers the two-epoch carry-over.
    demography, config = LOOP_CASES[5]
    rng = np.random.default_rng(0)
    heights = []
    for _ in range(config.n_loci):
        genealogy = simulate_genealogy(demography, config.n_chromosomes, rng)
        drop_mutations(genealogy, config.theta, rng)
        heights.append(genealogy.height)
    assert max(heights) > demography.start_times[2]


def test_locus_set_leaves_the_generator_where_the_oracle_does():
    demography, config = LOOP_CASES[2]
    fast_rng, slow_rng = np.random.default_rng(4), np.random.default_rng(4)
    simulate_locus_set(demography, config, fast_rng)
    oracle_locus_set(demography, config, slow_rng)
    assert fast_rng.random() == slow_rng.random()


@pytest.mark.parametrize(
    "demography, config",
    [case for case in LOOP_CASES if case[1].n_chromosomes > 2 and case[1].n_loci > 1],
)
def test_pi_tajima_equals_the_per_locus_loop(demography, config):
    loci = oracle_locus_set(demography, config, np.random.default_rng(9))
    n = config.n_chromosomes
    pis = np.array([pairwise_diversity(c, n) for c in loci])
    ds = np.array([tajimas_d(n, c.size, pi) for c, pi in zip(loci, pis)])
    want = np.array([pis.mean(), ds.mean(), ds.var(ddof=1)])
    assert stats_pi_tajima(loci, config).tobytes() == want.tobytes()


def test_tajimas_d_takes_per_locus_arrays():
    s = np.array([0, 2, 7, 1])
    pi = np.array([0.0, 7 / 6, 3.5, 0.4])
    got = tajimas_d(6, s, pi)
    assert got.shape == (4,)
    assert got.tolist() == [tajimas_d(6, int(k), float(p)) for k, p in zip(s, pi)]
    assert isinstance(tajimas_d(6, 2, 1.0), float)


# SHA-256 of the statistics of a 20-row table at seed 5, recorded before the
# list-based loop replaced the per-locus oracle calls. A change here means
# the coalescent random streams or arithmetic changed.
GOLDEN_TABLE_DIGESTS = {
    ("constant", "pi-tajima"):
        "9e1085224a52e1fe82a54a7671b127a02cb628701df3d416070f4ffaa2b49cb0",
    ("constant", "sfs"):
        "cb702a116cbcfc3b9744d64eaf9fc477d89fed0820089e87c10dbe589aa41bea",
    ("bottleneck", "pi-tajima"):
        "d02e805ed3022c73a5709cd65a10eae7862768b1d22381eec0b1b7dbc3e95efc",
    ("bottleneck", "sfs"):
        "d7286e578f256ab62d7ed2841ad6449b089b1e7b238f63045289891771d0dfb0",
    ("expansion", "pi-tajima"):
        "0629ba6f8e2164c37198fcf8a4a24a02af91bd969bab00f7f83b06bfc9f506c6",
    ("expansion", "sfs"):
        "ba2c4101e41d7fb5c9dbf9f7928f3d4f2befd2e3cd3dceff61102c428a6f4792",
}


@pytest.mark.parametrize("label, stat_set", sorted(GOLDEN_TABLE_DIGESTS))
def test_reference_table_statistics_match_golden_digest(label, stat_set):
    table = build_reference_table(get_simulator(label, stat_set=stat_set), 20, 5)
    digest = hashlib.sha256(table.stats.tobytes()).hexdigest()
    assert digest == GOLDEN_TABLE_DIGESTS[label, stat_set]
