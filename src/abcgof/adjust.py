"""Local-linear regression adjustment of accepted parameters.

Accepted parameter vectors are corrected by a weighted linear regression on
the standardized accepted statistics, pulling each draw toward what it would
have been had its simulation landed exactly on the observed statistics. The
weights follow a quadratic (Epanechnikov) kernel on the acceptance distances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import ReferenceTable, ScalingVector
from .rejection import AcceptanceSet

# Relative tolerance for declaring the weighted normal-equations matrix
# rank deficient, in which case the adjustment falls back to the identity.
RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class PosteriorSample:
    """Adjusted parameter draws with normalized kernel weights."""

    params: np.ndarray  # n_accepted x p
    weights: np.ndarray  # sums to 1

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        weights = np.asarray(self.weights, dtype=float).ravel()
        if params.shape[0] != weights.size:
            raise ValueError("params and weights must have the same row count")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        params = params.copy()
        weights = weights.copy()
        params.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "weights", weights)


def kernel_weights(distances: np.ndarray) -> np.ndarray:
    """Epanechnikov weights 1 - (d / d_max)^2, unnormalized.

    When every distance equals d_max (all weights would vanish) or d_max is
    zero, falls back to uniform weights: a degenerate acceptance set still
    has to yield a usable sample.
    """
    d = np.asarray(distances, dtype=float)
    d_max = d[-1]
    if d_max == 0.0:
        return np.ones_like(d)
    w = 1.0 - (d / d_max) ** 2
    if w.max() == 0.0:
        return np.ones_like(d)
    return w


def require_regression_rows(n_accepted: int, n_params: int, n_stats: int) -> None:
    """Refuse fewer accepted rows than the regression needs: p + k + 2."""
    if n_accepted < n_params + n_stats + 2:
        raise ValueError(
            f"regression adjustment needs at least {n_params + n_stats + 2} accepted rows, "
            f"got {n_accepted}"
        )


def linear_adjust_matrix(
    theta: np.ndarray,
    std_stats: np.ndarray,
    std_observed: np.ndarray,
    distances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-least-squares adjustment on already-standardized statistics.

    Returns (adjusted parameter matrix, normalized weights). Each parameter
    dimension is regressed independently on the standardized statistics with
    an intercept; the fitted slopes beta give the correction
    theta_i - beta . (s_i - s_observed). A rank-deficient design (relative
    tolerance 1e-10 on the normal-equations matrix) or an all-zero-distance
    acceptance set leaves the parameters unadjusted.
    """
    theta = np.asarray(theta, dtype=float)
    std_stats = np.asarray(std_stats, dtype=float)
    d = np.asarray(distances, dtype=float)
    n_acc, p = theta.shape
    k = std_stats.shape[1]
    require_regression_rows(n_acc, p, k)

    w = kernel_weights(d)
    weights = w / w.sum()
    if d[-1] == 0.0:
        return theta.copy(), weights

    centered = std_stats - np.asarray(std_observed, dtype=float)
    design = np.column_stack([np.ones(n_acc), centered])
    wd = design * w[:, None]
    normal = design.T @ wd  # (k+1) x (k+1)
    singular = np.linalg.svd(normal, compute_uv=False)
    if singular[-1] <= RANK_RTOL * singular[0]:
        warnings.warn(
            "singular regression design; returning unadjusted parameters",
            stacklevel=2,
        )
        return theta.copy(), weights

    coef = np.linalg.solve(normal, wd.T @ theta)  # (k+1) x p
    slopes = coef[1:, :]  # k x p
    adjusted = theta - centered @ slopes
    return adjusted, weights


def _to_transformed(theta: np.ndarray, transforms) -> np.ndarray:
    out = theta.copy()
    for j, kind in enumerate(transforms):
        if kind == "identity":
            continue
        col = out[:, j]
        if kind == "log":
            if np.any(col <= 0):
                raise ValueError("log-scale parameter with non-positive accepted value")
            out[:, j] = np.log(col)
        elif kind == "logit":
            if np.any((col <= 0) | (col >= 1)):
                raise ValueError("logit-scale parameter outside (0, 1)")
            out[:, j] = np.log(col / (1.0 - col))
        else:
            raise ValueError(f"unknown parameter transform {kind!r}")
    return out


def _from_transformed(theta: np.ndarray, transforms) -> np.ndarray:
    out = theta.copy()
    for j, kind in enumerate(transforms):
        if kind == "log":
            out[:, j] = np.exp(out[:, j])
        elif kind == "logit":
            out[:, j] = 1.0 / (1.0 + np.exp(-out[:, j]))
    return out


def adjusted_posterior(
    table: ReferenceTable,
    accepted: AcceptanceSet,
    observed,
    scaling: ScalingVector,
    transforms: tuple[str, ...] = (),
) -> PosteriorSample:
    """Adjust the accepted rows of a table, optionally on transformed scales.

    `observed` is a vector in the table's statistic order. `transforms` gives
    one of "identity", "log" or "logit" per parameter column (empty means
    identity everywhere). Transformed parameters are mapped before the
    regression and mapped back afterwards, which keeps positivity- or
    interval-constrained parameters inside their support; everything else is
    adjusted on its raw scale.
    """
    kept = scaling.kept
    scales = scaling.scales[kept]
    std_stats = table.stats[accepted.indices][:, kept] / scales
    std_observed = np.asarray(observed, dtype=float)[kept] / scales

    transforms = tuple(transforms)
    if transforms and len(transforms) != table.n_params:
        raise ValueError("need one transform per parameter column")
    theta = _to_transformed(table.params[accepted.indices], transforms)
    adjusted, weights = linear_adjust_matrix(theta, std_stats, std_observed, accepted.distances)
    adjusted = _from_transformed(adjusted, transforms)
    return PosteriorSample(params=adjusted, weights=weights)


def sample_posterior(sample: PosteriorSample, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` parameter vectors with replacement, proportional to weights."""
    if count < 1:
        raise ValueError(f"draw count must be >= 1, got {count}")
    idx = rng.choice(len(sample.weights), size=count, replace=True, p=sample.weights)
    return sample.params[idx]
