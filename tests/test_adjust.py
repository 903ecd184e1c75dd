import numpy as np
import pytest
from scipy import stats as sps

from abcgof import (
    adjusted_posterior,
    build_reference_table,
    fit_scaling,
    get_simulator,
    null_distribution_post,
    reject,
    sample_posterior,
)
from abcgof.adjust import PosteriorSample, kernel_weights

from conftest import make_table


def wls_slope_oracle(theta, z, weights):
    """One-dimensional weighted regression slope, textbook formulas."""
    w = np.asarray(weights, dtype=float)
    zbar = np.sum(w * z) / w.sum()
    tbar = np.sum(w * theta) / w.sum()
    return np.sum(w * (z - zbar) * (theta - tbar)) / np.sum(w * (z - zbar) ** 2)


def test_exact_linear_relation_collapses_to_observed_prediction():
    # theta = 2 s + 1 exactly; observed s = 0 must map every draw to 1.
    s = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    table = make_table(s, params=2 * s + 1)
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=1.0)
    sample = adjusted_posterior(table, accepted, [0.0], scaling)
    assert sample.params[:, 0] == pytest.approx(np.ones(6), abs=1e-10)


def test_zero_distance_acceptance_keeps_raw_parameters():
    stats = np.array([5.0, 5.0, 5.0, 5.0, 1.0, 2.0, 8.0, 9.0])
    table = make_table(stats, params=np.arange(8.0))
    scaling = fit_scaling(table)
    accepted = reject(table, [5.0], scaling, rate=0.5)
    assert np.all(accepted.distances == 0)
    sample = adjusted_posterior(table, accepted, [5.0], scaling)
    assert np.array_equal(sample.params[:, 0], table.params[accepted.indices, 0])
    assert sample.weights == pytest.approx(np.full(4, 0.25))


def test_constant_regressors_fall_back_to_identity_with_warning():
    stats = np.array([5.0, 5.0, 5.0, 5.0, 100.0, -100.0, 60.0, -60.0])
    table = make_table(stats, params=np.arange(8.0))
    scaling = fit_scaling(table)
    accepted = reject(table, [4.0], scaling, rate=0.5)
    assert np.all(accepted.distances == accepted.distances[0])
    with pytest.warns(UserWarning, match="singular"):
        sample = adjusted_posterior(table, accepted, [4.0], scaling)
    assert np.array_equal(sample.params[:, 0], table.params[accepted.indices, 0])
    # all rows at the same distance: the kernel degenerates to uniform weights
    assert sample.weights == pytest.approx(np.full(4, 0.25))


def test_kernel_weights_quadratic_in_distance():
    w = kernel_weights(np.array([0.0, 1.0, 2.0]))
    assert w == pytest.approx([1.0, 0.75, 0.0])


def test_kernel_boundary_row_gets_zero_weight_but_stays(rng):
    table = make_table(rng.standard_normal(30), params=rng.standard_normal(30))
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.5)
    sample = adjusted_posterior(table, accepted, [0.0], scaling)
    assert len(sample.weights) == len(accepted)
    assert sample.weights[-1] == 0.0
    assert sample.weights.sum() == pytest.approx(1.0)


def test_slopes_match_wls_oracle(rng):
    n = 40
    s = rng.standard_normal(n)
    theta = 3.0 * s + rng.standard_normal(n) * 0.1
    table = make_table(s, params=theta)
    scaling = fit_scaling(table)
    observed = np.array([0.3])
    accepted = reject(table, observed, scaling, rate=0.5)
    sample = adjusted_posterior(table, accepted, observed, scaling)

    z = table.stats[accepted.indices, 0] / scaling.scales[0]
    z_obs = observed[0] / scaling.scales[0]
    w = kernel_weights(accepted.distances)
    slope = wls_slope_oracle(table.params[accepted.indices, 0], z, w)
    expected = table.params[accepted.indices, 0] - slope * (z - z_obs)
    assert sample.params[:, 0] == pytest.approx(expected, rel=1e-9)


def test_zero_slope_leaves_parameters_untouched(rng):
    s = rng.standard_normal(30)
    table = make_table(s, params=np.full(30, 7.5))
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.6)
    sample = adjusted_posterior(table, accepted, [0.0], scaling)
    assert sample.params[:, 0] == pytest.approx(np.full(len(accepted), 7.5), abs=1e-10)


def test_affine_equivariance(rng):
    s = rng.standard_normal(50)
    theta = 1.7 * s + rng.standard_normal(50) * 0.2
    observed = np.array([0.1])
    a, b = -2.5, 4.0

    def run(params):
        table = make_table(s, params=params)
        scaling = fit_scaling(table)
        accepted = reject(table, observed, scaling, rate=0.4)
        return adjusted_posterior(table, accepted, observed, scaling).params[:, 0]

    direct = run(a * theta + b)
    derived = a * run(theta) + b
    assert direct == pytest.approx(derived, rel=1e-9, abs=1e-9)


def test_insufficient_rows_raise():
    table = make_table(np.arange(8.0), params=np.arange(8.0))
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.3)  # 2 rows < 1 + 1 + 2
    with pytest.raises(ValueError, match="accepted rows"):
        adjusted_posterior(table, accepted, [0.0], scaling)


def test_adjusted_mean_beats_raw_mean_on_linear_data():
    # theta ~ U(0,10), s = theta + small noise, and the truth sits near the
    # edge of the prior so the wide acceptance window is asymmetric: the raw
    # accepted mean is pulled toward the prior center while the regression
    # correction recovers the relationship.
    wins = 0
    trials = 40
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        theta = rng.uniform(0, 10, size=400)
        s = theta + rng.standard_normal(400) * 0.1
        table = make_table(s, params=theta)
        scaling = fit_scaling(table)
        truth = 9.3
        observed = np.array([truth + 0.1 * rng.standard_normal()])
        accepted = reject(table, observed, scaling, rate=0.5)
        sample = adjusted_posterior(table, accepted, observed, scaling)
        raw_err = abs(table.params[accepted.indices, 0].mean() - truth)
        adj_err = abs(np.average(sample.params[:, 0], weights=sample.weights) - truth)
        wins += adj_err < raw_err
    # one-sided binomial against a coin flip
    assert sps.binomtest(wins, trials, alternative="greater").pvalue < 1e-4


def test_log_transform_preserves_positivity(rng):
    theta = rng.uniform(0.1, 3.0, size=60)
    s = np.log(theta) + rng.standard_normal(60) * 2.0
    table = make_table(s, params=theta)
    scaling = fit_scaling(table)
    accepted = reject(table, [-4.0], scaling, rate=0.3)
    raw = adjusted_posterior(table, accepted, [-4.0], scaling)
    logged = adjusted_posterior(table, accepted, [-4.0], scaling, transforms=("log",))
    assert np.all(logged.params > 0)
    assert not np.array_equal(raw.params, logged.params)


def test_logit_transform_stays_in_unit_interval(rng):
    theta = rng.uniform(0.05, 0.5, size=60)
    s = theta + rng.standard_normal(60) * 0.05
    table = make_table(s, params=theta)
    scaling = fit_scaling(table)
    accepted = reject(table, [0.9], scaling, rate=0.3)
    sample = adjusted_posterior(table, accepted, [0.9], scaling, transforms=("logit",))
    assert np.all((sample.params > 0) & (sample.params < 1))


def test_identity_transforms_match_plain_adjustment(rng):
    s = rng.standard_normal(40)
    table = make_table(s, params=2 * s + rng.standard_normal(40) * 0.1)
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.5)
    plain = adjusted_posterior(table, accepted, [0.0], scaling)
    tagged = adjusted_posterior(table, accepted, [0.0], scaling, transforms=("identity",))
    assert np.array_equal(plain.params, tagged.params)


def test_unknown_transform_rejected(rng):
    s = rng.standard_normal(20)
    table = make_table(s, params=np.abs(s) + 1)
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=0.5)
    with pytest.raises(ValueError, match="unknown parameter transform"):
        adjusted_posterior(table, accepted, [0.0], scaling, transforms=("sqrt",))


# --- sample_posterior -------------------------------------------------------------


def one_row_sample():
    table = make_table(np.arange(6.0), params=np.arange(6.0) + 10)
    scaling = fit_scaling(table)
    accepted = reject(table, [0.0], scaling, rate=1 / 6)
    return PosteriorSample(params=table.params[accepted.indices], weights=[1.0])


def test_single_row_sample_always_returns_it(rng):
    sample = one_row_sample()
    draws = sample_posterior(sample, 25, rng)
    assert np.all(draws == sample.params[0])


def test_zero_weight_rows_never_drawn(rng):
    sample = PosteriorSample(params=np.array([[111.0], [222.0]]), weights=[1.0, 0.0])
    draws = sample_posterior(sample, 500, rng)
    assert np.all(draws == 111.0)


def test_uniform_weights_draw_uniformly():
    sample = PosteriorSample(params=np.arange(8.0)[:, None], weights=np.full(8, 1 / 8))
    draws = sample_posterior(sample, 100_000, np.random.default_rng(5))
    counts = np.bincount(draws[:, 0].astype(int), minlength=8)
    assert sps.chisquare(counts).pvalue > 0.01


def test_sampling_is_deterministic_per_seed():
    sample = one_row_sample()
    table = make_table(np.arange(9.0), params=np.arange(9.0))
    scaling = fit_scaling(table)
    accepted = reject(table, [4.0], scaling, rate=0.5)
    big = adjusted_posterior(table, accepted, [4.0], scaling)
    a = sample_posterior(big, 50, np.random.default_rng(42))
    b = sample_posterior(big, 50, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_count_validation(rng):
    with pytest.raises(ValueError, match=">= 1"):
        sample_posterior(one_row_sample(), 0, rng)


def test_posterior_sample_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        PosteriorSample(params=np.ones((2, 1)), weights=[0.4, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        PosteriorSample(params=np.ones((2, 1)), weights=[1.5, -0.5])


@pytest.mark.parametrize("length", [2, 7])
def test_an_observed_vector_of_another_length_is_refused(rng, length):
    # A longer vector used to be cut to the table's first k statistics.
    table = make_table(rng.standard_normal((40, 3)))
    scaling = fit_scaling(table)
    accepted = reject(table, np.zeros(3), scaling, rate=0.5)
    message = f"statistic length mismatch: matrix has 3, vector has {length}"
    with pytest.raises(ValueError, match=message):
        adjusted_posterior(table, accepted, np.zeros(length), scaling)


def test_the_sfs_posterior_null_keeps_the_accepted_parameters_in_every_replicate():
    # `stats_sfs` returns the segregating-site total and then the 19 bins it
    # sums, so the centered design is rank-deficient for every observed
    # vector, and each of the null's M regressions returns the accepted rows'
    # parameters (back through the log / logit transforms): the SFS posterior
    # is the weighted rejection posterior.
    sim = get_simulator("bottleneck", stat_set="sfs")
    table = build_reference_table(sim, 400, 5)
    assert np.array_equal(table.stats[:, 0], table.stats[:, 1:].sum(axis=1))
    scaling = fit_scaling(table)
    rate = 0.08  # 32 accepted rows: p + k + 2 = 26 is the regression's minimum
    with pytest.warns(UserWarning, match="singular regression design"):
        null = null_distribution_post(table, scaling, rate, sim, 3, 8, seed=6)
    for row in null.rows:
        accepted = reject(table, table.stats[row], scaling, rate, exclude=row)
        with pytest.warns(UserWarning, match="singular regression design"):
            posterior = adjusted_posterior(
                table, accepted, table.stats[row], scaling, transforms=sim.param_transforms
            )
        np.testing.assert_allclose(
            posterior.params, table.params[accepted.indices], rtol=1e-13, atol=0
        )
