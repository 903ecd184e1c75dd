import functools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcgof import (
    DataError,
    GofResult,
    ObservedStats,
    SimulationError,
    Simulator,
    build_reference_table,
    fit_scaling,
    gfit,
    gfit_post,
    null_distribution_post,
    null_distribution_prior,
    p_value,
    posterior_replicates,
    replicate_scaling,
)
from abcgof import adjusted_posterior, get_simulator, gof, parallel, reject, sample_posterior, toy
from abcgof.core import ScalingVector, scaled_distances
from abcgof.gof import d_post, d_prior, observed_d_post, simulate_checked
from abcgof.models import ToySimulator
from abcgof.toy import FAMILIES
from abcgof.parallel import children

from conftest import CallLog, make_observed, make_table, table_by_the_loop
from test_metamorphic import ScaledToy


# --- small simulators for exercising the posterior pipeline ----------------------


class EchoSimulator(Simulator):
    """stat = theta: the statistic reproduces the parameter exactly."""

    name = "echo"
    param_names = ("level",)
    stat_names = ("s0",)

    def draw_prior(self, rng):
        return rng.uniform(0, 10, size=1)

    def simulate(self, theta, rng):
        return np.array([float(theta[0])])


class ConstantSimulator(Simulator):
    name = "always-c"
    param_names = ("level",)
    stat_names = ("s0",)

    def __init__(self, value):
        self.value = float(value)

    def draw_prior(self, rng):
        return rng.uniform(0, 10, size=1)

    def simulate(self, theta, rng):
        return np.array([self.value])


class NoisySimulator(Simulator):
    name = "noisy"
    param_names = ("level",)
    stat_names = ("s0",)

    def draw_prior(self, rng):
        return rng.uniform(0, 10, size=1)

    def simulate(self, theta, rng):
        return np.array([float(theta[0]) + 0.1 * rng.standard_normal()])


class FailingSimulator(EchoSimulator):
    name = "failing"

    def simulate(self, theta, rng):
        raise RuntimeError("boom")


class FlakySimulator(EchoSimulator):
    """Echoes theta, but fails (raise or NaN) on draws above a threshold."""

    name = "flaky"

    def __init__(self, above, failure):
        self.above = above
        self.failure = failure

    def simulate(self, theta, rng):
        if theta[0] <= self.above:
            return super().simulate(theta, rng)
        if self.failure == "raise":
            raise RuntimeError("boom")
        return np.array([np.nan])


def echo_table(n=12):
    levels = np.linspace(1.0, 10.0, n)
    return make_table(levels, params=levels, stat_names=["s0"], param_names=["level"])


# --- d_prior -----------------------------------------------------------------------


def test_d_prior_zero_when_table_contains_copies():
    table = make_table([3.0, 3.0, 3.0, 1.0, 9.0, 7.0])
    scaling = fit_scaling(table)
    assert d_prior(table, [3.0], scaling, rate=0.5) == 0.0


def test_d_prior_is_mean_of_nearest_scaled_distances():
    table = make_table(np.arange(1.0, 11.0))
    scaling = fit_scaling(table)
    # brute-force oracle: all 10 scaled distances, mean of the smallest 2
    dists = sorted(abs(v) / scaling.scales[0] for v in np.arange(1.0, 11.0))
    want = (dists[0] + dists[1]) / 2
    assert d_prior(table, [0.0], scaling, rate=0.2) == pytest.approx(want, rel=1e-12)


def test_d_prior_excluding_nearest_row_is_strictly_larger():
    table = make_table(np.arange(1.0, 11.0))
    scaling = fit_scaling(table)
    base = d_prior(table, [0.0], scaling, rate=0.2)
    without_nearest = d_prior(table, [0.0], scaling, rate=0.2, exclude=0)
    assert without_nearest > base


# --- p_value ------------------------------------------------------------------------


def test_p_value_boundaries():
    nulls = [1.0, 2.0, 3.0]
    assert p_value(0.5, nulls) == 1.0
    assert p_value(4.0, nulls) == 0.0


def test_p_value_counts_ties_inclusively():
    assert p_value(2.0, [1.0, 2.0, 3.0, 4.0]) == 0.75


def test_p_value_matches_count_oracle(rng):
    for _ in range(200):
        nulls = rng.standard_normal(int(rng.integers(1, 30)))
        obs = rng.standard_normal()
        want = sum(1 for v in nulls if v >= obs) / nulls.size
        assert p_value(obs, nulls) == want


def test_p_value_invariant_under_increasing_transforms(rng):
    nulls = rng.standard_normal(40)
    obs = rng.standard_normal()
    base = p_value(obs, nulls)
    assert p_value(3 * obs + 2, 3 * nulls + 2) == base
    assert p_value(math.exp(obs), np.exp(nulls)) == base


# --- null_distribution_prior ----------------------------------------------------------


def test_prior_nulls_enumerate_leave_one_out_at_full_m():
    table = make_table([1.0, 4.0, 9.0])
    scaling = fit_scaling(table)
    nulls = null_distribution_prior(table, scaling, rate=1.0, M=3, seed=0)
    want = [d_prior(table, table.stats[r], scaling, 1.0, exclude=r) for r in range(3)]
    assert nulls.tolist() == want
    # rate=1, M=n consumes no randomness at all
    again = null_distribution_prior(table, scaling, rate=1.0, M=3, seed=999)
    assert np.array_equal(nulls, again)


def test_prior_nulls_leave_one_out_oracle_medium(rng):
    n = 200
    table = make_table(rng.standard_normal((n, 2)))
    scaling = fit_scaling(table)
    nulls = null_distribution_prior(table, scaling, rate=0.2, M=n, seed=1)
    for r in (0, 17, 59, 199):
        # brute force: full sort of the other rows' distances
        d = scaled_distances(table.stats, table.stats[r], scaling)
        d = np.delete(d, r)
        d.sort()
        keep = max(1, math.floor(0.2 * n))  # count from the full table size
        assert nulls[r] == pytest.approx(d[:keep].mean(), rel=1e-12)


def test_prior_nulls_duplicate_row_gives_zero():
    values = [5.0, 5.0, 1.0, 2.0, 3.0, 7.0, 8.0, 9.0, 10.0, 11.0]
    table = make_table(values)
    scaling = fit_scaling(table)
    nulls = null_distribution_prior(table, scaling, rate=0.1, M=10, seed=0)
    assert nulls[0] == 0.0 and nulls[1] == 0.0  # each duplicate finds its twin
    assert np.all(nulls[2:] > 0)


def test_prior_nulls_deterministic_and_thread_invariant():
    rng = np.random.default_rng(3)
    table = make_table(rng.standard_normal((40, 2)))
    scaling = fit_scaling(table)
    a = null_distribution_prior(table, scaling, 0.25, M=20, seed=7)
    b = null_distribution_prior(table, scaling, 0.25, M=20, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, null_distribution_prior(table, scaling, 0.25, M=20, seed=8))


def test_prior_nulls_m_validation():
    table = make_table([1.0, 2.0, 3.0])
    scaling = fit_scaling(table)
    with pytest.raises(DataError, match="more replicates than simulations"):
        null_distribution_prior(table, scaling, 1.0, M=4, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        null_distribution_prior(table, scaling, 1.0, M=0, seed=0)


# --- d_post ---------------------------------------------------------------------------


def test_d_post_zero_for_simulator_reproducing_observed():
    table = echo_table()
    scaling = fit_scaling(table)
    sim = ConstantSimulator(4.25)
    value = d_post(
        table, [4.25], scaling, 0.5, sim, n_prime=8, rng=np.random.default_rng(0),
        null_pooled=np.empty((0, 1)),
    )
    assert value == 0.0
    replicates = posterior_replicates(table, [4.25], scaling, 0.5, sim, 8, np.random.default_rng(0))
    assert replicates.shape == (8, 1)
    assert np.all(replicates == 4.25)


def test_d_post_constant_simulator_falls_back_to_prior_scale():
    table = echo_table()
    scaling = fit_scaling(table)
    sim = ConstantSimulator(9.0)
    observed = 4.0
    value = d_post(
        table, [observed], scaling, 0.5, sim, n_prime=5, rng=np.random.default_rng(0),
        null_pooled=np.empty((0, 1)),
    )
    assert value == pytest.approx(abs(9.0 - observed) / scaling.scales[0], rel=1e-12)


def test_d_post_deterministic_per_seed():
    table = echo_table()
    scaling = fit_scaling(table)
    sim = NoisySimulator()
    no_pool = np.empty((0, 1))
    a = d_post(table, [5.0], scaling, 0.5, sim, 6, np.random.default_rng(11), no_pool)
    b = d_post(table, [5.0], scaling, 0.5, sim, 6, np.random.default_rng(11), no_pool)
    assert a == b
    reps = posterior_replicates(table, [5.0], scaling, 0.5, sim, 6, np.random.default_rng(11))
    again = posterior_replicates(table, [5.0], scaling, 0.5, sim, 6, np.random.default_rng(11))
    assert np.array_equal(reps, again)


def test_simulation_error_carries_the_draw():
    table = echo_table()
    scaling = fit_scaling(table)
    with pytest.raises(SimulationError) as info:
        posterior_replicates(
            table, [5.0], scaling, 0.5, FailingSimulator(), 3, np.random.default_rng(0)
        )
    assert info.value.theta.shape == (1,)


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_table_build_failure_names_row_and_draw(failure):
    sim = FlakySimulator(9.0, failure)
    with pytest.raises(SimulationError, match="reference-table row") as info:
        build_reference_table(sim, 20, seed=3)
    row = info.value.row
    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(20)[row])
    assert info.value.theta.tolist() == sim.draw_prior(rng).tolist()
    assert info.value.theta[0] > 9.0
    assert f"row {row} " in str(info.value)


def test_simulation_error_survives_pickling():
    error = SimulationError([1.5, 2.0], ValueError("non-finite simulated statistics"), row=3)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is SimulationError and str(copy) == str(error)
    assert copy.theta.tolist() == [1.5, 2.0] and copy.row == 3
    assert type(copy.cause) is ValueError and str(copy.cause) == str(error.cause)


def test_nan_replicate_is_a_simulation_error_naming_the_draw():
    table = echo_table()
    scaling = fit_scaling(table)
    with pytest.raises(SimulationError, match="non-finite") as info:
        posterior_replicates(
            table, [9.5], scaling, 0.5, FlakySimulator(0.0, "nan"), 3, np.random.default_rng(0)
        )
    assert info.value.row is None and info.value.theta.shape == (1,)


def test_replicate_scaling_prefers_replicate_mad(rng):
    prior = ScalingVector(scales=[2.0, 3.0], dropped=frozenset())
    reps = np.column_stack([rng.standard_normal(200), np.full(200, 7.0)])
    rescaled = replicate_scaling(reps, prior)
    assert rescaled.scales[0] == pytest.approx(1.0, abs=0.25)  # refit on replicates
    assert rescaled.scales[1] == 3.0  # zero-MAD column falls back to the prior scale
    assert rescaled.dropped == frozenset()


def test_replicate_scaling_keeps_prior_drops():
    prior = ScalingVector(scales=[2.0, 0.0], dropped=frozenset({1}))
    reps = np.column_stack([np.arange(9.0), np.arange(9.0)])
    rescaled = replicate_scaling(reps, prior)
    assert rescaled.dropped == frozenset({1})


# --- null_distribution_post -------------------------------------------------------------


def test_post_nulls_echo_pipeline_is_exact_fit():
    # stat == parameter makes the local regression exact: every adjusted draw
    # replays the pseudo-observed row, so every null value collapses to ~0
    # (distances are zero up to roundoff, scaled by the prior-scale fallback).
    table = echo_table(8)
    scaling = fit_scaling(table)
    null = null_distribution_post(
        table, scaling, 1.0, EchoSimulator(), n_prime=1, M=1, seed=5
    )
    assert null.values.shape == (1,) and null.pooled.shape == (1, 1)
    assert abs(null.values[0]) < 1e-8


def test_post_nulls_deterministic_and_thread_invariant():
    table = echo_table(16)
    scaling = fit_scaling(table)
    sim = NoisySimulator()
    a = null_distribution_post(table, scaling, 0.5, sim, n_prime=4, M=6, seed=2)
    b = null_distribution_post(table, scaling, 0.5, sim, n_prime=4, M=6, seed=2)
    for field in ("rows", "values", "pooled"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_post_nulls_use_pooled_scaling_and_are_permutation_invariant():
    table = echo_table(16)
    scaling = fit_scaling(table)
    sim = NoisySimulator()
    null = null_distribution_post(table, scaling, 0.5, sim, n_prime=4, M=6, seed=2)
    assert null.pooled.shape == (6 * 4, 1)
    pooled_scaling = replicate_scaling(null.pooled, scaling)
    for row, reps, value in zip(null.rows, np.split(null.pooled, 6), null.values):
        recomputed = scaled_distances(reps, table.stats[row], pooled_scaling).mean()
        assert value == pytest.approx(recomputed, rel=1e-12)
    # permuting the pooled replicate rows cannot change the shared scaling
    shuffled = null.pooled[np.random.default_rng(0).permutation(null.pooled.shape[0])]
    shuffled_scaling = replicate_scaling(shuffled, scaling)
    assert np.array_equal(shuffled_scaling.scales, pooled_scaling.scales)


# --- gfit / gfit_post ----------------------------------------------------------------


def test_gfit_far_outside_cloud_has_zero_p(rng):
    table = make_table(rng.standard_normal((200, 2)))
    scaling = fit_scaling(table)
    observed = make_observed(table, np.full(2, 50.0 * scaling.scales.max()))
    result = gfit(table, observed, rate=0.05, M=200, seed=3)
    assert result.p_value == 0.0
    assert result.p_value_conservative == pytest.approx(1 / 201)
    assert result.observed_value > max(result.null_values)


def test_gfit_full_rate_full_m_is_rng_free(rng):
    table = make_table(rng.standard_normal((30, 2)))
    obs = make_observed(table, rng.standard_normal(2))
    a = gfit(table, obs, rate=1.0, M=30, seed=1)
    b = gfit(table, obs, rate=1.0, M=30, seed=2)
    assert np.array_equal(a.null_values, b.null_values)
    assert a.p_value == b.p_value and a.observed_value == b.observed_value


def test_gfit_scale_invariance_of_p_value(rng):
    stats = rng.standard_normal((80, 3))
    observed = rng.standard_normal(3)
    factors = np.array([0.2, 5.0, 13.0])
    t1 = make_table(stats)
    t2 = make_table(stats * factors)
    r1 = gfit(t1, make_observed(t1, observed), rate=0.1, M=40, seed=9)
    r2 = gfit(t2, make_observed(t2, observed * factors), rate=0.1, M=40, seed=9)
    assert r1.p_value == r2.p_value
    assert np.argsort(r1.null_values).tolist() == np.argsort(r2.null_values).tolist()


def test_gfit_result_recomputes_its_p_value(rng):
    table = make_table(rng.standard_normal((30, 1)))
    obs = make_observed(table, [0.0])
    result = gfit(table, obs, rate=0.5, M=10, seed=0)
    assert result.p_value == p_value(result.observed_value, result.null_values)
    with pytest.raises(TypeError):
        GofResult(
            statistic_kind="prior",
            observed_value=result.observed_value,
            null_values=result.null_values,
            p_value=0.123456,
            acceptance_rate=result.acceptance_rate,
            M=result.M,
            n_prime=result.n_prime,
            seed=result.seed,
        )


def test_gfit_json_fields(rng):
    table = make_table(rng.standard_normal((30, 1)))
    obs = make_observed(table, [0.0])
    payload = gfit(table, obs, rate=0.5, M=10, seed=4).to_dict()
    assert set(payload) == {
        "kind",
        "observed_D",
        "p_value",
        "p_value_conservative",
        "M",
        "acceptance_rate",
        "n_prime",
        "seed",
        "null_values",
    }
    assert payload["kind"] == "prior" and payload["n_prime"] is None
    assert payload["M"] == 10 and payload["seed"] == 4


def test_gfit_post_composition_is_pinned():
    # observed value: scaling pool = null pool + the observed run's replicates;
    # null values: the M x n' pool alone (identical to the standalone helper).
    table = echo_table(16)
    sim = NoisySimulator()
    seed, rate, n_prime, M = 21, 0.5, 4, 6
    result = gfit_post(table, make_observed(table, [5.0]), rate, sim, n_prime, M, seed)

    scaling = fit_scaling(table)
    root = np.random.SeedSequence(seed)
    observed_seed, null_seed = root.spawn(2)
    null = null_distribution_post(table, scaling, rate, sim, n_prime, M, null_seed)
    rng = np.random.default_rng(observed_seed)
    expected = d_post(table, [5.0], scaling, rate, sim, n_prime, rng, null.pooled)
    rng = np.random.default_rng(observed_seed)
    reps = posterior_replicates(table, [5.0], scaling, rate, sim, n_prime, rng)
    assert np.array_equal(result.null_values, null.values)
    assert expected == observed_d_post(np.array([5.0]), reps, null.pooled, scaling)
    assert result.observed_value == expected
    assert result.p_value == p_value(expected, null.values)
    settings = (result.acceptance_rate, result.M, result.n_prime, result.seed)
    assert settings == (rate, M, n_prime, seed)


def test_gfit_post_deterministic_and_thread_invariant():
    table = echo_table(16)
    sim = NoisySimulator()
    obs = make_observed(table, [5.0])
    a = gfit_post(table, obs, 0.5, sim, 4, 6, seed=1)
    b = gfit_post(table, obs, 0.5, sim, 4, 6, seed=1)
    assert a.to_dict() == b.to_dict()


class CountingSimulator(NoisySimulator):
    def __init__(self, log_path):
        self.log = CallLog(log_path)

    @property
    def calls(self) -> int:
        return len(self.log)

    def simulate(self, theta, rng):
        self.log.record(self.name)
        return super().simulate(theta, rng)


def test_gfit_post_name_mismatch_fails_before_any_simulation(tmp_path):
    table = echo_table(16)
    sim = CountingSimulator(tmp_path / "calls")
    observed = ObservedStats(stat_names=["other"], values=[5.0])
    with pytest.raises(DataError, match="missing from observed: s0"):
        gfit_post(table, observed, 0.5, sim, n_prime=4, M=6, seed=1)
    assert sim.calls == 0


# --- seed layout ----------------------------------------------------------------------


def test_children_match_a_fresh_spawn_and_leave_the_seed_untouched():
    def states(streams):
        return [stream.generate_state(4).tolist() for stream in streams]

    seed = np.random.SeedSequence(7)
    assert states(children(seed, 3)) == states(np.random.SeedSequence(7).spawn(3))
    assert states(children(7, 3)) == states(np.random.SeedSequence(7).spawn(3))
    assert seed.n_children_spawned == 0
    child = np.random.SeedSequence(7).spawn(2)[1]
    fresh = states(children(child, 2))
    assert fresh == states(child.spawn(2))
    assert states(children(child, 2)) == fresh  # a spawned seed still gives its first children


def test_one_seed_sequence_gives_one_table_and_one_post_null():
    seed = np.random.SeedSequence(4)
    a = build_reference_table(NoisySimulator(), 12, seed)
    b = build_reference_table(NoisySimulator(), 12, seed)
    assert np.array_equal(a.params, b.params) and np.array_equal(a.stats, b.stats)

    table = echo_table(16)
    scaling = fit_scaling(table)
    first = null_distribution_post(table, scaling, 0.5, NoisySimulator(), 4, 6, seed)
    second = null_distribution_post(table, scaling, 0.5, NoisySimulator(), 4, 6, seed)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.pooled, second.pooled)


@pytest.mark.parametrize("kind", ["prior", "post"])
def test_a_non_int_seed_fails_before_the_null_is_computed(monkeypatch, kind):
    def unreachable(*args, **kwargs):
        raise AssertionError("the null distribution ran before the seed was checked")

    monkeypatch.setattr(gof, "null_distribution_prior", unreachable)
    monkeypatch.setattr(gof, "null_distribution_post", unreachable)
    table = echo_table(16)
    obs = make_observed(table, [5.0])
    for seed in [np.random.SeedSequence(1), 7.0]:
        with pytest.raises(TypeError):
            if kind == "prior":
                gfit(table, obs, 0.5, 6, seed)
            else:
                gfit_post(table, obs, 0.5, NoisySimulator(), 4, 6, seed)


# --- batched posterior replicates against the per-row loop ---------------------------


@functools.lru_cache(maxsize=None)
def toy_table(family):
    return build_reference_table(get_simulator(f"toy-{family}"), 300, 8)


def posterior_draws(table, observed, scaling, rate, simulator, n_prime, rng):
    """The n' parameter draws posterior_replicates simulates, drawn on `rng`."""
    accepted = reject(table, observed, scaling, rate)
    posterior = adjusted_posterior(
        table, accepted, observed, scaling, transforms=simulator.param_transforms
    )
    return sample_posterior(posterior, n_prime, rng)


def replicates_by_the_loop(table, observed, scaling, rate, simulator, n_prime, rng):
    """The oracle: posterior draws simulated one checked call at a time."""
    draws = posterior_draws(table, observed, scaling, rate, simulator, n_prime, rng)
    return np.array([simulate_checked(simulator, theta, rng) for theta in draws])


def per_row_loop_ran(spec, theta, rng):
    raise AssertionError("the per-row loop ran")


@given(
    family=st.sampled_from(FAMILIES),
    n_prime=st.integers(1, 200),
    row=st.integers(0, 299),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batched_replicates_match_the_per_row_loop(family, n_prime, row, seed):
    table = toy_table(family)
    scaling = fit_scaling(table)
    observed = table.stats[row]
    batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:  # so only the batch can succeed
        patch.setattr(toy, "simulate", per_row_loop_ran)
        batched = posterior_replicates(
            table, observed, scaling, 0.05, ToySimulator(family), n_prime, batched_rng
        )
    loop = replicates_by_the_loop(
        table, observed, scaling, 0.05, ToySimulator(family), n_prime, loop_rng
    )
    assert batched.tobytes() == loop.tobytes()
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


class Doubled(ToySimulator):
    """toy-gaussian with every statistic doubled, by an override of `simulate` alone."""

    def __init__(self):
        super().__init__("gaussian")

    def simulate(self, theta, rng):
        return 2 * super().simulate(theta, rng)


def test_a_subclass_that_overrides_only_simulate_gets_its_replicates_from_it():
    # The toy batch would give the undoubled model's replicates.
    sim = Doubled()
    table = build_reference_table(sim, 300, 8)
    scaling = fit_scaling(table)
    observed = table.stats[3]
    got, want = (
        replicates(table, observed, scaling, 0.05, sim, 50, np.random.default_rng(1))
        for replicates in (posterior_replicates, replicates_by_the_loop)
    )
    assert got.tobytes() == want.tobytes()


class Scaled(ToySimulator):
    """toy-gaussian overriding `simulate` and `simulate_rows`, each through super()."""

    def __init__(self):
        super().__init__("gaussian")

    def simulate(self, theta, rng):
        return super().simulate(theta, rng) * 1.0

    def simulate_rows(self, thetas, rng):
        return super().simulate_rows(thetas, rng) * 1.0


class DoubledScaled(Scaled):
    """A grandchild of ToySimulator that doubles its statistics in `simulate` alone."""

    def simulate(self, theta, rng):
        return 2 * super().simulate(theta, rng)


def test_a_grandchild_that_overrides_only_simulate_gets_its_replicates_from_it():
    # Scaled's batch would skip the doubling: the replicates' median variance
    # would be half the observed one.
    sim = DoubledScaled()
    table = build_reference_table(sim, 2000, 1)
    scaling = fit_scaling(table)
    observed = table.stats[3]
    got, want = (
        replicates(table, observed, scaling, 0.05, sim, 200, np.random.default_rng(1))
        for replicates in (posterior_replicates, replicates_by_the_loop)
    )
    assert got.tobytes() == want.tobytes()


class ToyFailingAt(ToySimulator):
    """toy-gaussian that fails (raises or gives a NaN) on one draw, batched or not."""

    def __init__(self, bad, failure):
        super().__init__("gaussian")
        self.bad = tuple(bad)
        self.failure = failure

    def check(self, theta, stats):
        if tuple(theta) == self.bad:
            if self.failure == "raise":
                raise RuntimeError("bad draw")
            stats[2] = np.nan

    def simulate(self, theta, rng):
        stats = super().simulate(theta, rng)
        self.check(theta, stats)
        return stats

    def simulate_rows(self, thetas, rng):
        rows = super().simulate_rows(thetas, rng)
        for theta, stats in zip(thetas, rows):
            self.check(theta, stats)
        return rows


@pytest.mark.parametrize("failure", ["raise", "nan"])
@pytest.mark.parametrize("position", [0, 7, 14], ids=["first", "middle", "last"])
def test_a_failing_replicate_raises_the_loops_error(failure, position):
    table = toy_table("gaussian")
    scaling = fit_scaling(table)
    observed = table.stats[5]
    draws = posterior_draws(
        table, observed, scaling, 0.2, ToySimulator("gaussian"), 15, np.random.default_rng(4)
    )
    assert len(np.unique(draws, axis=0)) == 15  # so only that position fails
    sim = ToyFailingAt(draws[position], failure)

    def error(replicates):
        rng = np.random.default_rng(4)
        with pytest.raises(SimulationError) as info:
            replicates(table, observed, scaling, 0.2, sim, 15, rng)
        err = info.value
        return str(err), err.theta.tobytes(), err.row, type(err.cause), rng.bit_generator.state

    assert error(posterior_replicates) == error(replicates_by_the_loop)
    assert error(posterior_replicates)[1] == draws[position].tobytes()


@pytest.mark.parametrize("make", [
    ScaledToy, Doubled, Scaled, DoubledScaled, lambda: ToyFailingAt((0.0, 1.0), "raise"),
], ids=["ScaledToy", "Doubled", "Scaled", "DoubledScaled", "ToyFailingAt"])
def test_subclass_tables_and_replicates_have_the_bytes_of_the_checked_per_row_loops(make):
    sim = make()
    table = build_reference_table(sim, 300, 8)
    want = table_by_the_loop(sim, 300, 8)
    assert np.hstack([table.params, table.stats]).tobytes() == want.tobytes()
    scaling = fit_scaling(table)
    got, want = (
        replicates(table, table.stats[3], scaling, 0.05, sim, 50, np.random.default_rng(1))
        for replicates in (posterior_replicates, replicates_by_the_loop)
    )
    assert got.tobytes() == want.tobytes()


class FirstTwoMoments(ToySimulator):
    """toy-gaussian returning 2 statistics where its table has 4."""

    def simulate(self, theta, rng):
        return super().simulate(theta, rng)[:2]

    def simulate_rows(self, thetas, rng):
        return super().simulate_rows(thetas, rng)[:, :2]


class FirstTwoMomentsUnbatched(FirstTwoMoments):
    """FirstTwoMoments with `simulate` defined below its batch, so no batch runs."""

    def simulate(self, theta, rng):
        return super().simulate(theta, rng)


@pytest.mark.parametrize("sim_class", [FirstTwoMoments, FirstTwoMomentsUnbatched],
                         ids=["batched", "loop"])
def test_a_wrong_length_replicate_names_the_draw_and_both_lengths(sim_class):
    table = toy_table("gaussian")
    scaling = fit_scaling(table)
    sim = sim_class("gaussian")
    observed = table.stats[5]
    draws = posterior_draws(table, observed, scaling, 0.05, sim, 6, np.random.default_rng(4))
    with pytest.raises(SimulationError) as info:
        posterior_replicates(table, observed, scaling, 0.05, sim, 6, np.random.default_rng(4))
    assert str(info.value) == (
        f"simulator failed for parameters {draws[0].tolist()}: "
        "the simulator returned 2 statistics; the table has 4"
    )
    assert info.value.row is None and info.value.theta.tobytes() == draws[0].tobytes()


class DropsTheLastStatistic(ToySimulator):
    """toy-gaussian returning 3 of its 4 statistics for one parameter draw."""

    def __init__(self, bad):
        super().__init__("gaussian")
        self.bad = tuple(bad)

    def simulate(self, theta, rng):
        stats = super().simulate(theta, rng)
        return stats[:3] if tuple(theta) == self.bad else stats


@pytest.mark.parametrize("workers", [1, 2])
def test_a_short_table_row_names_the_row_and_its_draw(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
    row = 29  # in the second worker's block at 2 workers
    theta = build_reference_table(ToySimulator("gaussian"), 40, 6).params[row]
    with pytest.raises(SimulationError) as info:
        build_reference_table(DropsTheLastStatistic(theta), 40, 6)
    assert str(info.value) == (
        f"simulator failed at reference-table row {row} for parameters {theta.tolist()}: "
        "the simulator returned 3 statistics; the table has 4"
    )
    assert info.value.row == row and info.value.theta.tobytes() == theta.tobytes()


class DrawsAnExtraValue(ToySimulator):
    """toy-gaussian whose prior appends a third value to one parameter draw."""

    def __init__(self, bad):
        super().__init__("gaussian")
        self.bad = tuple(bad)

    def draw_prior(self, rng):
        theta = super().draw_prior(rng)
        return np.append(theta, 0.0) if tuple(theta) == self.bad else theta


@pytest.mark.parametrize("workers", [1, 2])
def test_a_wrong_length_draw_names_its_row_and_both_lengths(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: workers)
    row = 29  # in the second worker's block at 2 workers
    theta = build_reference_table(ToySimulator("gaussian"), 40, 6).params[row]
    with pytest.raises(SimulationError) as info:
        build_reference_table(DrawsAnExtraValue(theta), 40, 6)
    assert str(info.value) == (
        f"simulator failed at reference-table row {row} for parameters "
        f"{theta.tolist() + [0.0]}: draw_prior returned 3 values for 2 parameters"
    )
    assert info.value.row == row and isinstance(info.value.cause, ValueError)
