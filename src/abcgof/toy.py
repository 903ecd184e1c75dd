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
    """
    return _moments_by_row(np.asarray(values, dtype=float).reshape(1, -1))[0]


def _moments_by_row(samples: np.ndarray) -> np.ndarray:
    """:func:`sample_moments` of each row of a 2-D array, as one (rows, 4) array.

    Each ``np.add.reduce(..., axis=1) / n`` rounds as `np.mean` of the row
    does, without its Python-level wrapper. The central powers are products
    of ``sq = dev * dev``: ``sq * dev`` and ``sq * sq`` are correctly rounded
    IEEE multiplications, so they give the same bytes on every CPU, where
    numpy's SIMD ``dev**3`` and ``dev**4`` depend on the dispatched kernel
    and cost several times more. Skewness and kurtosis are finished row by
    row on numpy scalars (an array ``m2**1.5`` may round differently, and
    Python floats raise where a zero or huge ``m2`` gives inf or nan).
    """
    n = samples.shape[1]
    mean = np.add.reduce(samples, axis=1) / n
    dev = samples - mean[:, None]
    sq = dev * dev
    sum_sq = np.add.reduce(sq, axis=1)
    m2 = sum_sq / n
    # the cube and the fourth power reuse the buffers of dev and sq
    m3 = np.add.reduce(np.multiply(sq, dev, out=dev), axis=1) / n
    m4 = np.add.reduce(np.multiply(sq, sq, out=sq), axis=1) / n
    moments = np.empty((samples.shape[0], 4))
    moments[:, 0] = mean
    moments[:, 1] = sum_sq / (n - 1)
    moments[:, 2] = [c / s**1.5 for c, s in zip(m3, m2)]
    moments[:, 3] = [q / s**2 for q, s in zip(m4, m2)]
    return moments


def _laplace_from_uniform(u, location, scale):
    # Inverse-CDF transform: a sign-symmetric exponential. The guard keeps
    # the measure-zero u == 0 draw off the log singularity. Location and
    # scale broadcast against `u`, so one call can transform many rows.
    u = np.maximum(u, _TINY_UNIFORM)
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
        sample = _laplace_from_uniform(rng.random(spec.sample_size), location, scale)
    return sample_moments(sample)


def simulate_rows(spec: ToyModelSpec, thetas, rng: np.random.Generator) -> np.ndarray:
    """:func:`simulate` for each row of `thetas` in turn on `rng`, as a (rows, 4) array.

    The rows' samples come from one (rows, sample_size) draw, which consumes
    the stream exactly as one call per row does, so the output has the same
    bytes and leaves `rng` in the same state as the row-by-row loop. One row
    costs less through :func:`simulate`.
    """
    thetas = np.asarray(thetas, dtype=float)
    _refuse_nonpositive(thetas[:, 1])
    size = (thetas.shape[0], spec.sample_size)
    draws = rng.standard_normal(size) if spec.family == "gaussian" else rng.random(size)
    return _moments_of_draws(spec, draws, thetas)


def prior_predictive_rows(spec: ToyModelSpec, draw_prior, indices, rng) -> np.ndarray:
    """Reference-table rows: (location, variance, four moments) for each index.

    Row r is what ``draw_prior`` then :func:`simulate` give on the generator
    ``rng(indices[r])``, in the same bytes: each row's generator draws its
    parameters and fills row r of one (rows, sample_size) matrix, as
    :func:`simulate` draws its sample, and is dropped. One
    :func:`_moments_of_draws` call then summarizes the block. A draw that is
    not two values, or a non-positive variance, raises ValueError.
    """
    rows = np.empty((len(indices), 2 + len(STAT_NAMES)))
    draws = np.empty((len(indices), spec.sample_size))
    for r, i in enumerate(indices):
        gen = rng(i)
        theta = draw_prior(gen)
        if np.shape(theta) != (2,):
            raise ValueError(f"draw_prior returned {np.size(theta)} values for 2 parameters")
        rows[r, :2] = theta
        if spec.family == "gaussian":
            gen.standard_normal(out=draws[r])
        else:
            gen.random(out=draws[r])
    _refuse_nonpositive(rows[:, 1])
    rows[:, 2:] = _moments_of_draws(spec, draws, rows)
    return rows


def _moments_of_draws(spec: ToyModelSpec, draws: np.ndarray, thetas) -> np.ndarray:
    """The moments of the samples that row r of `draws` gives at parameters `thetas[r]`.

    Row r holds the standard normals or uniforms :func:`simulate` would draw
    for it. A Gaussian block is scaled in place: ``z *= sqrt(v); z += loc``
    gives the bytes of ``loc + sqrt(v) * z``.
    """
    location, variance = thetas[:, 0:1], thetas[:, 1:2]
    # An overflow, division by zero or invalid operation here leaves a
    # non-finite moment, so the caller reruns the rows through the checked
    # loop, which warns as it always has; the batch itself stays silent.
    with np.errstate(all="ignore"):
        if spec.family == "gaussian":
            draws *= np.sqrt(variance)
            draws += location
            return _moments_by_row(draws)
        return _moments_by_row(_laplace_from_uniform(draws, location, np.sqrt(variance / 2.0)))


def _refuse_nonpositive(variances: np.ndarray) -> None:
    nonpositive = variances[variances <= 0]
    if nonpositive.size:
        raise ValueError(f"variance must be positive, got {nonpositive[0]}")
