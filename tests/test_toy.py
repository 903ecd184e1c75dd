import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__
from scipy import stats as sps

import abcgof
from abcgof.harness import PowerStudyConfig, run_power
from abcgof.models import build_reference_table, get_simulator
from abcgof.toy import (
    FAMILIES,
    ToyModelSpec,
    _moments_by_row,
    draw_prior,
    sample_moments,
    simulate,
    simulate_rows,
)


def moments_oracle(values):
    """The plain `np.mean` formula that each row of `_moments_by_row` must match bit for bit."""
    x = np.asarray(values, dtype=float)
    n = x.size
    mean = x.mean()
    dev = x - mean
    sq = dev * dev
    m2 = np.mean(sq)
    m3 = np.mean(sq * dev)
    m4 = np.mean(sq * sq)
    variance = float(np.sum(sq) / (n - 1))
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


@given(samples, st.integers(0, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_moments_are_byte_identical_to_the_mean_formula(values, extra_rows, seed):
    # A block of 1-8 rows: the sample, then rows resampled from its values.
    x = np.asarray(values, dtype=float)
    block = np.vstack([x, np.random.default_rng(seed).choice(x, (extra_rows, x.size))])
    # A constant sample gives 0/0 in both; the NaNs must match too.
    with np.errstate(divide="ignore", invalid="ignore"):
        assert sample_moments(values).tobytes() == moments_oracle(values).tobytes()
        for row, moments in zip(block, _moments_by_row(block)):
            want = moments_oracle(row).tobytes()
            assert moments.tobytes() == want
            assert sample_moments(row).tobytes() == want


def test_moments_of_a_million_values_are_byte_identical_to_the_mean_formula():
    values = 1e4 + 3.0 * np.random.default_rng(31).standard_normal(1_000_000)
    assert sample_moments(values).tobytes() == moments_oracle(values).tobytes()


@given(
    family=st.sampled_from(FAMILIES),
    n_rows=st.integers(1, 200),
    variances=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=6),
    sample_size=st.sampled_from([4, 50, 133]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_batched_rows_match_the_per_row_loop_in_bytes_and_generator_state(
    family, n_rows, variances, sample_size, seed
):
    # Variances from 1e-300 to 1e300 take the moments to 0, inf and nan.
    spec = ToyModelSpec(family, sample_size)
    locations = np.random.default_rng(seed).uniform(-10.0, 10.0, n_rows)
    thetas = np.column_stack([locations, np.resize(variances, n_rows)])
    loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        loop = np.array([simulate(spec, theta, loop_rng) for theta in thetas])
        batch = simulate_rows(spec, thetas, batch_rng)
    assert batch.tobytes() == loop.tobytes()
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


def test_batched_rows_refuse_the_first_nonpositive_variance():
    thetas = [[0.0, 1.0], [0.0, -2.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match=r"^variance must be positive, got -2.0$"):
        simulate_rows(ToyModelSpec("laplace"), thetas, np.random.default_rng(0))


# SHA-256 of toy statistics at fixed seeds, recorded with the product form
# (`sq * dev`, `sq * sq`) of the central moments in `_moments_by_row`. A change
# here means the toy random streams or arithmetic changed.
GOLDEN_TOY_TABLE_DIGESTS = {
    "toy-gaussian": "d305ca80bedec865f26f6b8d34d96b8a0e2cf84f307a160a94a6dd075c4450a8",
    "toy-laplace": "5b8ea7d6d909207505949ee8bdb39fe77f59b948e1338791b8a8310a277b2755",
}
GOLDEN_POST_STUDY_DIGEST = "eab855c289eac3d6ad3ba77fb2dbc931c1bb77110b2e06b3ea140c6c414cda30"


@pytest.mark.parametrize("family", sorted(GOLDEN_TOY_TABLE_DIGESTS))
def test_toy_table_statistics_match_golden_digest(family):
    table = build_reference_table(get_simulator(family), 200, 5)
    digest = hashlib.sha256(table.stats.tobytes()).hexdigest()
    assert digest == GOLDEN_TOY_TABLE_DIGESTS[family]


def test_posterior_statistic_study_matches_golden_digest():
    config = PowerStudyConfig(
        null_model=get_simulator("toy-laplace"), alt_model=get_simulator("toy-gaussian"),
        statistic="post",
        n_sims=400, n_datasets=5, acceptance_rate=0.05, M=10, n_prime=20, master_seed=3,
    )
    p_values = run_power(config).p_values
    assert hashlib.sha256(p_values.tobytes()).hexdigest() == GOLDEN_POST_STUDY_DIGEST


def toy_kernel_digests():
    """SHA-256 of `sample_moments`, `_moments_by_row` and a 200-row toy-gaussian table."""
    samples = 3.0 + 2.0 * np.random.default_rng(41).standard_normal((400, 50))
    by_call = np.array([sample_moments(row) for row in samples])
    table = build_reference_table(get_simulator("toy-gaussian"), 200, 5)
    return {
        name: hashlib.sha256(values.tobytes()).hexdigest()
        for name, values in [
            ("sample_moments", by_call),
            ("_moments_by_row", _moments_by_row(samples)),
            ("table", table.stats),
        ]
    }


DISPATCH_SCRIPT = f"""
import hashlib, json
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from abcgof.models import build_reference_table, get_simulator
from abcgof.toy import _moments_by_row, sample_moments
{inspect.getsource(toy_kernel_digests)}
print(json.dumps({{"X86_V4": __cpu_features__["X86_V4"], **toy_kernel_digests()}}))
"""


def test_toy_kernel_bytes_do_not_depend_on_simd_dispatch():
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy runs no AVX-512 (X86_V4) kernels here, so none can be turned off")
    env = {
        **os.environ,
        # what numpy dispatches on an x86 CPU without AVX-512
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "PYTHONPATH": os.pathsep.join(
            [str(Path(abcgof.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
    }
    child = json.loads(subprocess.run(
        [sys.executable, "-c", DISPATCH_SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    ).stdout)
    assert child.pop("X86_V4") is False
    assert child == toy_kernel_digests()
