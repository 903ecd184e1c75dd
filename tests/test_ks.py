"""The package's KS uniformity P-value against scipy.stats.kstest, its oracle.

scipy.stats.kstest(x, "uniform") computes P(D_n >= d) by the branches of
Simard & L'Ecuyer (J. Stat. Softw. 39(11), 2011) in
scipy.stats._ksstats._kolmogn; abcgof.ks uses the same methods with other
switch points. Where both sides use an exact method they agree to the
13 decimal digits Marsaglia, Tsang & Wang (J. Stat. Softw. 8(18), 2003) and
Simard & L'Ecuyer report for the exact methods. Each approximate branch adds
its own documented error, on whichever side uses it.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__
from scipy import stats as sps

import abcgof
from abcgof.ks import kolmogorov_sf, ks_uniformity_p

EPS = np.finfo(float).eps


def scipy_branch(n, d):
    """The method scipy's `_kolmogn(n, d, cdf=False)` takes (scipy 1.10-1.17)."""
    t, s = n * d, n * d * d
    if t <= 1.0 or t >= n - 1 or d >= 0.5:
        return "closed"  # Ruben-Gambino, or twice the exact one-sided tail when d >= 0.5
    if n <= 140:
        if s <= 0.754693:
            return "durbin"
        return "pomeranz" if s <= 4.0 else "doubled"
    if s >= 2.2:
        return "doubled"
    return "durbin" if n <= 100_000 and n * d ** 1.5 <= 1.4 else "pelz-good"


def our_branch(n, d):
    """The method abcgof.ks.kolmogorov_sf takes."""
    t, s = n * d, n * d * d
    if t <= 1.0 or t >= n - 1:
        return "closed"
    if s > 7.24 or (n > 99 and s > 3.76):
        return "closed" if d >= 0.5 else "doubled"
    return "durbin" if 2 * math.ceil(t) - 1 <= 127 else "pelz-good"


def method_error(branch, n, d, p):
    """A bound on the error of one side's method at P-value p, from its documentation.

    - exact methods: none beyond rounding (see `rounding`);
    - twice the one-sided tail ("doubled", d < 0.5) leaves out the paths
      that cross both boundaries. In the limit that share of the tail is
      exp(-8 z**2) / exp(-2 z**2) with z**2 = n d**2 (the second term of
      Kolmogorov's series); twice it allows for finite n;
    - the Pelz-Good series: Simard & L'Ecuyer accept it at 5 decimal digits.
    """
    if branch == "doubled":
        return 2 * math.exp(-6 * n * d * d) * p
    return 1e-5 if branch == "pelz-good" else 0.0


def rounding(n, p):
    """One side's rounding error: 13 correct decimal digits of the CDF, the
    exact methods' documented accuracy. The Birnbaum-Tingey terms are also
    exponentials of sums as large as log(n!), which can cost |log(n!)| * eps
    relative to each term."""
    return 1e-13 + 4 * EPS * math.lgamma(n + 1) * p


def tolerance(n, d, p):
    """Both sides' rounding, plus each method's error where the methods differ.

    Where both sides take the same method, its error is the same on both and
    only rounding separates them.
    """
    branches = {scipy_branch(n, d), our_branch(n, d)}
    methods = sum(method_error(b, n, d, p) for b in branches) if len(branches) == 2 else 0.0
    return 2 * rounding(n, p) + methods


def sample_with_statistic(n, d):
    """n points in [0, 1] whose KS distance from U(0, 1) is d (to rounding).

    The midpoints (i - 1/2)/n, at distance 1/(2n), shrunk towards 0 so that
    the last one sits d below n/n.
    """
    return (1.0 - d) / (n - 0.5) * (np.arange(n) + 0.5)


def targets(n):
    """KS distances near every switch point of both implementations, at this n."""
    near = [0.5 / n, 0.99 / n, 1.0 / n, 1.01 / n, 0.499, 0.5, 0.501, (n - 1.01) / n, (n - 1) / n,
            0.5 * (n - 1) / n + 0.5]
    for s in (0.754693, 2.2, 3.76, 4.0, 7.24, 18.0):  # n d**2 switches
        near += [math.sqrt(s / n) * 0.999, math.sqrt(s / n) * 1.001]
    near += [(1.4 / n) ** (2 / 3) * f for f in (0.999, 1.001)]  # n d**1.5 = 1.4
    near += [63.9 / n, 64.1 / n]  # the largest Durbin matrix, 127 rows
    return sorted({d for d in near if 0.5 / n <= d <= 1.0})


SIZES = (1, 2, 12, 30, 140, 141, 500, 1000, 10_000)
GRID = [(n, d) for n in SIZES for d in targets(n)]


@pytest.mark.parametrize("n, d", GRID)
def test_p_value_matches_scipy_within_both_branch_errors(n, d):
    x = sample_with_statistic(n, d)
    for sample in (x, 1.0 - x):  # the distance above the diagonal, then below it
        oracle = sps.kstest(sample, "uniform")
        d = float(oracle.statistic)
        assert abs(ks_uniformity_p(sample) - oracle.pvalue) <= tolerance(n, d, oracle.pvalue), (
            scipy_branch(n, d), our_branch(n, d))


def test_the_grid_reaches_every_branch_of_both_implementations():
    reached = {(side, f(n, float(sps.kstest(sample_with_statistic(n, d), "uniform").statistic)))
               for n, d in GRID for side, f in (("scipy", scipy_branch), ("ours", our_branch))}
    scipy = {("scipy", b) for b in ("closed", "durbin", "pomeranz", "doubled", "pelz-good")}
    assert reached == scipy | {("ours", b) for b in ("closed", "durbin", "doubled", "pelz-good")}


@pytest.mark.parametrize("d", [0.5, 0.5000001, 0.6, 0.75, 0.9, 0.999, 1.0])
def test_one_value_gives_twice_its_distance_from_one(d):
    assert kolmogorov_sf(1, d) == 2 * (1 - d)
    assert ks_uniformity_p([1.0 - d]) == 2 * (1 - d)


@pytest.mark.parametrize("n", [2, 3, 12, 141, 1000, 10_000])
@pytest.mark.parametrize("step", [0.0, 0.3, 0.999999, 1.0])
def test_past_n_minus_one_over_n_the_p_value_is_twice_the_gap_to_the_n(n, step):
    d = (n - 1 + step) / n
    assert kolmogorov_sf(n, d) == 2 * (1 - d) ** n


@pytest.mark.parametrize("values", [[], [0.5, np.nan], [-0.1, 0.5], [0.5, 1.5]])
def test_values_outside_the_unit_interval_are_refused(values):
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        ks_uniformity_p(values)


@pytest.mark.parametrize("n, d", [(0, 0.5), (3, -0.1), (3, 1.5), (3, float("nan"))])
def test_a_distance_outside_the_unit_interval_is_refused(n, d):
    with pytest.raises(ValueError, match=r"n >= 1 and d in \[0, 1\]"):
        kolmogorov_sf(n, d)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_the_costliest_distances_take_well_under_a_second(n):
    # Each branch's cost peaks at one end of its range: the Durbin matrix at
    # its largest order (127 rows), the Birnbaum-Tingey sum at the smallest
    # tail distance (about n terms), the factorial products at n d <= 1.
    costliest = [0.99 / n, 63.9 / n, math.sqrt(3.76 / n) * 1.0001, math.sqrt(3.76 / n) * 0.9999,
                 0.01, 0.5]
    for d in costliest:
        start = time.perf_counter()
        kolmogorov_sf(n, d)
        assert time.perf_counter() - start < 1.0, d


BYTES_SCRIPT = """
import hashlib, numpy as np
from abcgof.ks import ks_uniformity_p
rng = np.random.default_rng(26)
values = [ks_uniformity_p(rng.beta(a, 1.0, size=n))
          for n in (12, 30, 141, 500, 1000, 4000) for a in (0.9, 0.97, 1.0, 1.05)]
print(hashlib.sha256(np.array(values).tobytes()).hexdigest())
"""


def test_p_values_have_the_same_bytes_under_every_kernel_dispatch():
    # No BLAS call and no SIMD-dispatched transcendental reaches a P-value,
    # so OpenBLAS's kernel choice and numpy's AVX-512 dispatch change nothing.
    variants = [{}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"}]
    if __cpu_features__.get("X86_V4"):  # what numpy dispatches on an x86 CPU without AVX-512
        variants.append({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(abcgof.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    digests = {
        subprocess.run([sys.executable, "-c", BYTES_SCRIPT], env={**env, **extra},
                       capture_output=True, text=True, check=True).stdout
        for extra in variants
    }
    assert len(digests) == 1 and len(next(iter(digests)).strip()) == 64
