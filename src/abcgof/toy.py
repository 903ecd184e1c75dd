"""Gaussian / Laplace test-bed model summarized by its first four moments.

One dataset is a sample of `sample_size` iid draws from the chosen family,
summarized by (mean, variance, skewness, kurtosis). The location prior is
uniform on (-10, 10); the variance prior is the reciprocal of a chi-square
draw with 3 degrees of freedom. For the Laplace family the scale is chosen
as sqrt(variance / 2), so the theoretical variance matches the drawn one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("gaussian", "laplace")

PARAM_NAMES = ("location", "variance")
STAT_NAMES = ("mean", "variance", "skewness", "kurtosis")

_TINY_UNIFORM = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class ToyModelSpec:
    family: str
    sample_size: int = 50

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.sample_size < 4:
            raise ValueError("sample_size must be >= 4 (kurtosis needs it)")


def draw_prior(spec: ToyModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw (location, variance) from the prior."""
    location = rng.uniform(-10.0, 10.0)
    variance = 1.0 / rng.chisquare(3)
    return np.array([location, variance])


def sample_moments(values) -> np.ndarray:
    """(mean, unbiased variance, skewness, kurtosis) of a 1-D sample.

    Skewness and kurtosis use biased central moments (n denominators); the
    kurtosis is the raw fourth standardized moment, 3 for Gaussian data.

    Each `np.add.reduce(...) / n` is exactly what `np.mean` computes, without
    its Python-level wrapper; the powers stay `**` because products such as
    `dev * dev * dev` round differently.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    mean = np.add.reduce(x) / n
    dev = x - mean
    sum_sq = np.add.reduce(dev**2)
    m2 = sum_sq / n
    m3 = np.add.reduce(dev**3) / n
    m4 = np.add.reduce(dev**4) / n
    variance = float(sum_sq / (n - 1))
    skewness = float(m3 / m2**1.5)
    kurtosis = float(m4 / m2**2)
    return np.array([float(mean), variance, skewness, kurtosis])


def _laplace_sample(rng: np.random.Generator, location: float, scale: float, size: int):
    # Inverse-CDF transform: a sign-symmetric exponential. The guard keeps
    # the measure-zero u == 0 draw off the log singularity.
    u = np.maximum(rng.random(size), _TINY_UNIFORM)
    return np.where(
        u < 0.5,
        location + scale * np.log(2.0 * u),
        location - scale * np.log(2.0 * (1.0 - u)),
    )


def simulate(spec: ToyModelSpec, theta, rng: np.random.Generator) -> np.ndarray:
    """Simulate one dataset for parameters (location, variance), return its moments."""
    location, variance = float(theta[0]), float(theta[1])
    if variance <= 0:
        raise ValueError(f"variance must be positive, got {variance}")
    if spec.family == "gaussian":
        sample = location + np.sqrt(variance) * rng.standard_normal(spec.sample_size)
    else:
        scale = np.sqrt(variance / 2.0)
        sample = _laplace_sample(rng, location, scale, spec.sample_size)
    return sample_moments(sample)
