import numpy as np
import pytest

from abcgof import (
    DataError,
    PowerStudyConfig,
    PowerStudyResult,
    build_reference_table,
    emit_pvalue_histogram,
    fit_scaling,
    get_simulator,
    null_distribution_post,
    null_distribution_prior,
    run_calibration,
    run_power,
)
from abcgof.gof import Simulator, d_post, d_prior, p_value

from conftest import CallLog
from proportions import one_sided_two_proportion_p


def tiny_config(**overrides):
    settings = dict(
        null_model="toy-gaussian",
        statistic="prior",
        n_sims=400,
        n_datasets=40,
        M=50,
        master_seed=5,
    )
    settings.update(overrides)
    return PowerStudyConfig(**settings)


def test_alpha_near_one_rejects_everything_below_it():
    # p-values of exactly 1 (observed statistic below every null value) are
    # legitimate and occur with probability ~ 1/(M+1), so a threshold inside
    # (0, 1) rejects exactly the datasets strictly below it.
    result = run_calibration(tiny_config(alpha=0.999999999))
    expected = float(np.mean(result.p_values < 0.999999999))
    assert result.rejection_rate == expected
    assert result.rejection_rate >= 1.0 - np.mean(result.p_values == 1.0)
    assert result.rejection_rate > 0.9


def test_rejection_rate_is_fraction_below_alpha():
    result = run_calibration(tiny_config())
    want = np.count_nonzero(result.p_values < 0.05) / result.p_values.size
    assert result.rejection_rate == want
    assert 0.0 <= result.ks_uniformity_p <= 1.0
    assert result.config_echo["null_model"]["name"] == "toy-gaussian"


def test_study_is_deterministic_and_thread_invariant():
    a = run_calibration(tiny_config())
    b = run_calibration(tiny_config())
    assert np.array_equal(a.p_values, b.p_values)
    d = run_calibration(tiny_config(master_seed=6))
    assert not np.array_equal(a.p_values, d.p_values)


def test_study_reuses_one_table_and_one_null_distribution():
    # Pin the seed layout: (table, nulls, datasets) spawned from the master
    # seed, the shared null distribution equal to the standalone computation.
    config = tiny_config()
    result = run_calibration(config)

    root = np.random.SeedSequence(config.master_seed)
    table_seed, null_seed, data_root = root.spawn(3)
    sim = get_simulator("toy-gaussian")
    table = build_reference_table(sim, config.n_sims, table_seed)
    scaling = fit_scaling(table)
    nulls = null_distribution_prior(
        table, scaling, config.acceptance_rate, config.M, null_seed
    )
    streams = data_root.spawn(config.n_datasets)
    for i in (0, 13, 39):
        rng = np.random.default_rng(streams[i])
        theta = sim.draw_prior(rng)
        observed = sim.simulate(theta, rng)
        value = d_prior(table, observed, scaling, config.acceptance_rate)
        assert result.p_values[i] == p_value(value, nulls)


def test_post_study_reuses_one_table_and_one_null_distribution():
    # The posterior twin: same seed layout, the observed statistic is d_post
    # under the null distribution's pooled replicate scaling.
    config = tiny_config(
        statistic="post", n_sims=300, n_datasets=12, M=8, n_prime=10, acceptance_rate=0.1
    )
    result = run_calibration(config)

    root = np.random.SeedSequence(config.master_seed)
    table_seed, null_seed, data_root = root.spawn(3)
    sim = get_simulator("toy-gaussian")
    table = build_reference_table(sim, config.n_sims, table_seed)
    scaling = fit_scaling(table)
    rate = config.acceptance_rate
    null = null_distribution_post(table, scaling, rate, sim, config.n_prime, config.M, null_seed)
    streams = data_root.spawn(config.n_datasets)
    for i in (0, 5, 11):
        rng = np.random.default_rng(streams[i])
        theta = sim.draw_prior(rng)
        observed = sim.simulate(theta, rng)
        value = d_post(table, observed, scaling, rate, sim, config.n_prime, rng, null.pooled)
        assert result.p_values[i] == p_value(value, null.values)


def test_power_study_runs_and_validates_models():
    config = tiny_config(alt_model="toy-laplace", n_datasets=25)
    result = run_power(config)
    assert result.p_values.size == 25
    with pytest.raises(ValueError, match="truth != null"):
        run_power(tiny_config(alt_model="toy-gaussian"))
    with pytest.raises(ValueError, match="needs an alternative"):
        run_power(tiny_config())
    with pytest.raises(ValueError, match="truth = null"):
        run_calibration(tiny_config(alt_model="toy-laplace"))


def test_posterior_statistic_study_small():
    config = tiny_config(
        statistic="post", n_sims=300, n_datasets=12, M=8, n_prime=10, acceptance_rate=0.1
    )
    result = run_calibration(config)
    assert result.p_values.size == 12
    assert np.all((0 <= result.p_values) & (result.p_values <= 1))
    again = run_calibration(config)
    assert np.array_equal(result.p_values, again.p_values)


def test_config_validation():
    with pytest.raises(ValueError, match="statistic"):
        tiny_config(statistic="bayes")
    with pytest.raises(ValueError, match="positive"):
        tiny_config(n_datasets=0)
    with pytest.raises(ValueError, match="alpha"):
        tiny_config(alpha=1.5)


class CountingSimulator(Simulator):
    """A noisy echo simulator that counts its calls."""

    name = "counting"
    param_names = ("level",)
    stat_names = ("s0",)

    def __init__(self, log_path):
        self.log = CallLog(log_path)

    @property
    def calls(self) -> int:
        return len(self.log)

    def draw_prior(self, rng):
        return rng.uniform(0, 10, size=1)

    def simulate(self, theta, rng):
        self.log.record(self.name)
        return np.array([float(theta[0]) + rng.standard_normal()])


@pytest.mark.parametrize("overrides, error, message", [
    ({"acceptance_rate": 0.0}, ValueError, r"acceptance rate must be in \(0, 1\], got 0.0"),
    ({"acceptance_rate": 1.5}, ValueError, r"acceptance rate must be in \(0, 1\], got 1.5"),
    ({"acceptance_rate": float("nan")}, ValueError, "acceptance rate must be in"),
    ({"M": 401}, DataError, "more replicates than simulations"),
    ({"M": 401, "statistic": "post"}, DataError, "more replicates than simulations"),
], ids=["rate-0", "rate-above-1", "rate-nan", "M-above-n-sims", "post-M-above-n-sims"])
def test_config_refuses_bad_rate_and_M_before_any_simulation(
    tmp_path, overrides, error, message
):
    sim = CountingSimulator(tmp_path / "calls")
    with pytest.raises(error, match=message):
        run_calibration(tiny_config(null_model=sim, **overrides))
    assert sim.calls == 0


def test_config_accepts_the_boundary_rate_and_M(tmp_path):
    sim = CountingSimulator(tmp_path / "calls")
    result = run_calibration(tiny_config(null_model=sim, acceptance_rate=1.0, M=400))
    assert result.p_values.size == 40
    assert sim.calls == 400 + 40  # table rows + datasets


def fake_result(p_values):
    return PowerStudyResult(
        rejection_rate=float(np.mean(np.asarray(p_values) < 0.05)),
        p_values=np.asarray(p_values, dtype=float),
        ks_uniformity_p=1.0,
        config_echo={},
    )


def test_histogram_counts_conserve_datasets():
    rng = np.random.default_rng(3)
    result = fake_result(rng.random(1000))
    text = emit_pvalue_histogram(result, bins=10)
    lines = text.strip().split("\n")[1:]
    counts = [int(line.split("\t")[2]) for line in lines]
    assert sum(counts) == 1000
    # uniform p-values: each of 10 bins within 3 sigma of 100
    assert all(abs(c - 100) <= 30 for c in counts)


def test_histogram_all_zero_pvalues_single_bin():
    result = fake_result(np.zeros(50))
    counts = [
        int(line.split("\t")[2])
        for line in emit_pvalue_histogram(result, bins=5).strip().split("\n")[1:]
    ]
    assert counts == [50, 0, 0, 0, 0]


def test_two_proportion_test_direction():
    # 300/500 vs 150/500 is overwhelming one-sided evidence
    assert one_sided_two_proportion_p(300, 500, 150, 500) < 1e-6
    assert one_sided_two_proportion_p(150, 500, 300, 500) > 0.5
    assert one_sided_two_proportion_p(10, 100, 10, 100) == pytest.approx(0.5)
