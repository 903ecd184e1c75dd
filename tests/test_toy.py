import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from abcgof.harness import PowerStudyConfig, run_power
from abcgof.models import build_reference_table, get_simulator
from abcgof.toy import ToyModelSpec, draw_prior, sample_moments, simulate


def moments_oracle(values):
    """The straightforward `np.mean` formula that `sample_moments` must match bit for bit."""
    x = np.asarray(values, dtype=float)
    n = x.size
    mean = x.mean()
    dev = x - mean
    m2 = np.mean(dev**2)
    m3 = np.mean(dev**3)
    m4 = np.mean(dev**4)
    variance = float(np.sum(dev**2) / (n - 1))
    skewness = float(m3 / m2**1.5)
    kurtosis = float(m4 / m2**2)
    return np.array([float(mean), variance, skewness, kurtosis])


def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ToyModelSpec(family="cauchy")
    with pytest.raises(ValueError, match="sample_size"):
        ToyModelSpec(family="gaussian", sample_size=3)


def test_prior_location_is_uniform_on_pm10():
    rng = np.random.default_rng(12)
    draws = np.array([draw_prior(ToyModelSpec("gaussian"), rng) for _ in range(100_000)])
    locations = draws[:, 0]
    assert locations.mean() == pytest.approx(0.0, abs=0.05)
    assert locations.min() > -10 and locations.max() < 10
    assert abs(locations.min() + 10) < 0.01 and abs(locations.max() - 10) < 0.01


def test_prior_variance_is_reciprocal_chi_square_3():
    rng = np.random.default_rng(13)
    draws = np.array([draw_prior(ToyModelSpec("gaussian"), rng) for _ in range(100_000)])
    variances = draws[:, 1]
    want_median = 1.0 / sps.chi2.median(3)  # ~= 0.4226
    assert np.median(variances) == pytest.approx(want_median, rel=0.02)
    assert np.all(variances > 0)


def test_prior_deterministic_per_seed():
    a = draw_prior(ToyModelSpec("laplace"), np.random.default_rng(7))
    b = draw_prior(ToyModelSpec("laplace"), np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_moments_of_symmetric_three_point_sample():
    mean, variance, skewness, kurtosis = sample_moments([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert variance == pytest.approx(1.0)
    assert skewness == pytest.approx(0.0, abs=1e-12)
    assert kurtosis == pytest.approx(1.5)


def test_gaussian_kurtosis_converges_to_three():
    spec = ToyModelSpec("gaussian", sample_size=1_000_000)
    stats = simulate(spec, [0.0, 1.0], np.random.default_rng(1))
    assert stats[3] == pytest.approx(3.0, abs=0.05)


def test_laplace_kurtosis_converges_to_six():
    spec = ToyModelSpec("laplace", sample_size=1_000_000)
    stats = simulate(spec, [0.0, 1.0], np.random.default_rng(2))
    assert stats[3] == pytest.approx(6.0, abs=0.1)


def test_laplace_scale_calibration_matches_requested_variance():
    spec = ToyModelSpec("laplace", sample_size=1_000_000)
    for variance in (0.25, 1.0, 4.0):
        stats = simulate(spec, [0.0, variance], np.random.default_rng(3))
        assert stats[1] == pytest.approx(variance, rel=0.01)


@pytest.mark.parametrize("family", ["gaussian", "laplace"])
def test_location_shift_moves_only_the_mean(family):
    spec = ToyModelSpec(family, sample_size=200)
    shift = 3.7
    base = simulate(spec, [0.0, 2.0], np.random.default_rng(8))
    moved = simulate(spec, [shift, 2.0], np.random.default_rng(8))
    assert moved[0] - base[0] == pytest.approx(shift, abs=1e-9)
    assert moved[1:] == pytest.approx(base[1:], rel=1e-9, abs=1e-9)


def test_skewness_and_kurtosis_are_scale_invariant():
    rng = np.random.default_rng(9)
    sample = rng.standard_normal(500)
    base = sample_moments(sample)
    scaled = sample_moments(3.25 * sample)
    assert scaled[2] == pytest.approx(base[2], abs=1e-12)
    assert scaled[3] == pytest.approx(base[3], abs=1e-12)


def test_nonpositive_variance_rejected():
    spec = ToyModelSpec("gaussian")
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="variance"):
            simulate(spec, [0.0, bad], np.random.default_rng(0))


def test_simulate_deterministic_per_seed():
    spec = ToyModelSpec("laplace", sample_size=50)
    a = simulate(spec, [1.0, 0.5], np.random.default_rng(77))
    b = simulate(spec, [1.0, 0.5], np.random.default_rng(77))
    assert np.array_equal(a, b)


finite_values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
samples = st.one_of(
    st.lists(finite_values, min_size=4, max_size=500),
    st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=500).map(np.array),
    st.lists(finite_values, min_size=4, max_size=500).map(np.array),
)


@given(samples)
@settings(max_examples=300, deadline=None)
def test_moments_are_byte_identical_to_the_mean_formula(values):
    # A constant sample gives 0/0 in both; the NaNs must match too.
    with np.errstate(divide="ignore", invalid="ignore"):
        assert sample_moments(values).tobytes() == moments_oracle(values).tobytes()


def test_moments_of_a_million_values_are_byte_identical_to_the_mean_formula():
    values = 1e4 + 3.0 * np.random.default_rng(31).standard_normal(1_000_000)
    assert sample_moments(values).tobytes() == moments_oracle(values).tobytes()


# SHA-256 of toy statistics at fixed seeds, recorded with the `np.mean`
# formula in `sample_moments`. A change here means the toy random streams or
# arithmetic changed.
GOLDEN_TOY_TABLE_DIGESTS = {
    "toy-gaussian": "b269c87f4dff7413ad4d3d6bcc6aea66390be6f61bf2f238c4dc80743e9b1764",
    "toy-laplace": "78e8778961f8eeea3cf6718b2c15e4f6e059c79de59557c439d1fd4ea1aa318d",
}
GOLDEN_POST_STUDY_DIGEST = "eab855c289eac3d6ad3ba77fb2dbc931c1bb77110b2e06b3ea140c6c414cda30"


@pytest.mark.parametrize("family", sorted(GOLDEN_TOY_TABLE_DIGESTS))
def test_toy_table_statistics_match_golden_digest(family):
    table = build_reference_table(get_simulator(family), 200, 5)
    digest = hashlib.sha256(table.stats.tobytes()).hexdigest()
    assert digest == GOLDEN_TOY_TABLE_DIGESTS[family]


def test_posterior_statistic_study_matches_golden_digest():
    config = PowerStudyConfig(
        null_model="toy-laplace", alt_model="toy-gaussian", statistic="post",
        n_sims=400, n_datasets=5, acceptance_rate=0.05, M=10, n_prime=20, master_seed=3,
    )
    p_values = run_power(config).p_values
    assert hashlib.sha256(p_values.tobytes()).hexdigest() == GOLDEN_POST_STUDY_DIGEST
