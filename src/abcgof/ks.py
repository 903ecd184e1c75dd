"""The one-sample, two-sided Kolmogorov-Smirnov test against U(0, 1).

:func:`ks_uniformity_p` checks a study's calibration: under the null its
P-values are uniform. :func:`kolmogorov_sf` gives P(D_n >= d) by the
branches of Simard & L'Ecuyer ("Computing the two-sided Kolmogorov-Smirnov
distribution", J. Stat. Softw. 39(11), 2011), with the tail switch of
Marsaglia, Tsang & Wang ("Evaluating Kolmogorov's distribution", J. Stat.
Softw. 8(18), 2003):

- n*d <= 1 and d >= (n - 1)/n: the closed forms of Ruben & Gambino;
- n*d**2 > 7.24, or > 3.76 when n > 99: twice Smirnov's exact one-sided
  tail (the Birnbaum-Tingey sum). The two-sided tail also counts paths
  that cross both boundaries; past the switch their share is below 1e-9;
- otherwise Durbin's matrix formula as Marsaglia, Tsang & Wang compute it,
  while its matrix has fewer than 128 rows (every n <= 1089);
- beyond that, the Pelz-Good asymptotic series.

Only IEEE arithmetic, the `math` module and `np.add.reduce` over explicit
products are used: no BLAS call and no SIMD-dispatched transcendental, so
the bytes are the same on every CPU.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_MATRIX_ORDER = 127  # 2k - 1 rows; beyond this the Pelz-Good series


def ks_uniformity_p(values) -> float:
    """P-value of the two-sided KS test that `values` are U(0, 1) draws."""
    x = np.sort(np.asarray(values, dtype=float).ravel())
    n = x.size
    if n == 0 or not (x[0] >= 0.0 and x[-1] <= 1.0):
        raise ValueError("KS uniformity needs at least one value, all in [0, 1]")
    d_plus = np.max(np.arange(1.0, n + 1) / n - x)
    d_minus = np.max(x - np.arange(0.0, n) / n)
    return kolmogorov_sf(n, float(max(d_plus, d_minus)))


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided KS statistic D_n of n uniform draws."""
    if n < 1 or not 0.0 <= d <= 1.0:
        raise ValueError(f"need n >= 1 and d in [0, 1], got n={n}, d={d}")
    t = n * d
    if t <= 0.5:
        return 1.0
    if t >= n - 1:
        return 2.0 * (1.0 - d) ** n
    if t <= 1.0:
        return 1.0 - _times_factorial_ratio((2.0 * t - 1.0) ** n, 0, n)
    s = t * d
    if s > 7.24 or (n > 99 and s > 3.76):
        return 2.0 * _smirnov_sf(n, d)
    if 2 * math.ceil(t) - 1 <= _MAX_MATRIX_ORDER:
        return 1.0 - _durbin_cdf(n, d)
    return 1.0 - _pelz_good_cdf(n, d)


def _times_factorial_ratio(mantissa: float, exponent: int, n: int) -> float:
    """mantissa * 2**exponent * n! / n**n, rescaled by powers of two on the way."""
    for i in range(1, n + 1):
        mantissa = mantissa * i / n
        if mantissa < 2.0 ** -512:
            mantissa, shift = math.frexp(mantissa)
            exponent += shift
    return math.ldexp(mantissa, exponent)


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n+ >= d), exactly, by the Birnbaum-Tingey sum over j <= n(1 - d)."""
    log_n_factorial = math.lgamma(n + 1)
    terms = []
    for j in range(int(n * (1.0 - d)) + 1):
        below = d + j / n
        above = 1.0 - below
        if above <= 0.0:
            break
        terms.append(math.exp(
            log_n_factorial - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + (n - j) * math.log(above) + (j - 1) * math.log(below)
        ))
    return d * math.fsum(terms)


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) by Durbin's matrix: entry (k, k) of H**n, times n!/n**n.

    With n*d = k - h, k an integer and 0 <= h < 1, H is the (2k - 1)-square
    matrix of Marsaglia, Tsang & Wang. H**n comes from repeated squaring, and
    only row k of it is kept. Every product is a sum of explicit products
    over its inner index, and each result is rescaled by a power of two, so
    no entry overflows and no rounding is added.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_factorial = [1.0]
    for g in range(1, m + 1):
        inv_factorial.append(inv_factorial[-1] / g)
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1  # i - j + 1
    H = np.where(lag >= 0, np.array(inv_factorial)[np.maximum(lag, 0)], 0.0)
    for i in range(m):
        H[i, 0] = (1.0 - h ** (i + 1)) * inv_factorial[i + 1]
        H[m - 1, i] = (1.0 - h ** (m - i)) * inv_factorial[m - i]
    H[m - 1, 0] = (1.0 - 2.0 * h ** m + max(0.0, 2.0 * h - 1.0) ** m) * inv_factorial[m]

    row = np.zeros(m)
    row[k - 1] = 1.0
    row_exponent, power_exponent = 0, 0  # row * 2**row_exponent, H * 2**power_exponent
    bits = n
    while True:
        if bits & 1:
            row, shift = _normalised(np.add.reduce(row[:, None] * H, axis=0))
            row_exponent += power_exponent + shift
        bits >>= 1
        if not bits:
            return _times_factorial_ratio(float(row[k - 1]), row_exponent, n)
        H, shift = _normalised(np.add.reduce(H[:, :, None] * H[None, :, :], axis=1))
        power_exponent = 2 * power_exponent + shift


def _normalised(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a / 2**e, e) with the largest entry of the non-negative `a` in [0.5, 1)."""
    shift = math.frexp(float(a.max()))[1]
    return a * math.ldexp(1.0, -shift), shift


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n < d) by the Pelz-Good series in 1/sqrt(n) (JRSS B 38(2), 1976).

    The terms and their Horner scheme over the odd integers are those of
    Simard & L'Ecuyer's program.
    """
    z = math.sqrt(n) * d
    z2 = z * z
    log_q = -math.pi ** 2 / 8.0 / z2
    if log_q < -708.0:
        return 0.0
    q = math.exp(log_q)
    pi2, pi4, pi6 = math.pi ** 2, math.pi ** 4, math.pi ** 6
    z4, z6 = z2 * z2, z2 * z2 * z2
    k1a, k1b = -z2, pi2 / 4.0
    k2a = 6.0 * z6 + 2.0 * z4
    k2b = (2.0 * z4 - 5.0 * z2) * pi2 / 4.0
    k2c = pi4 * (1.0 - 2.0 * z2) / 16.0
    k3a = -30.0 * z6 - 90.0 * z4 * z4
    k3b = pi2 * (135.0 * z4 - 96.0 * z6) / 4.0
    k3c = pi4 * (-60.0 * z2 + 212.0 * z4) / 16.0
    k3d = pi6 * (5.0 - 30.0 * z2) / 64.0
    terms = math.ceil(16.0 * z / math.pi)
    k0 = k1 = k2 = k3 = 0.0
    for k in range(terms, 0, -1):
        m2 = (2 * k - 1) ** 2
        power = q ** (8 * k)
        k0 = k0 * power + 1.0
        k1 = k1 * power + k1a + k1b * m2
        k2 = k2 * power + k2a + k2b * m2 + k2c * m2 * m2
        k3 = k3 * power + k3a + k3b * m2 + k3c * m2 * m2 + k3d * m2 * m2 * m2
    scale = q * math.sqrt(2.0 * math.pi)
    k0 *= scale / z
    k1 *= scale / (6.0 * z4)
    k2 *= scale / (72.0 * z6 * z)
    k3 *= scale / (6480.0 * z6 * z4)
    q = math.exp(-pi2 / 2.0 / z2)
    extra2 = extra3 = 0.0
    for k in range(terms, 0, -1):
        k2pi2 = k * k * pi2
        weight = k * k * q ** (k * k)
        extra2 += weight
        extra3 += (3.0 * z2 - k2pi2) * weight
    k2 += extra2 * pi2 * math.sqrt(2.0 * math.pi) / (-36.0 * z2 * z)
    k3 += extra3 * pi2 * math.sqrt(2.0 * math.pi) / (216.0 * z6)
    root_n = math.sqrt(n)
    return k0 + k1 / root_n + k2 / n + k3 / (n * root_n)
