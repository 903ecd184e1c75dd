"""Visual model-fit diagnostic: 2-D PCA projection with a coverage envelope.

The standardized prior-predictive statistics are projected onto their first
two principal components; a convex envelope around the densest `coverage`
fraction of projected simulations shows whether the observed point lands
where the model can reach. The envelope is a visualization convention: its
boolean never feeds a P-value.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DataError, ReferenceTable, ScalingVector, check_statistic_lengths, tsv_text


@dataclass(frozen=True, eq=False)
class PcaProjection:
    mean: np.ndarray  # column means of the standardized statistics
    loadings: np.ndarray  # k_kept x 2, orthonormal columns
    scores: np.ndarray  # n x 2
    observed_score: np.ndarray  # length 2
    explained_fraction: tuple[float, float]


@dataclass(frozen=True, eq=False)
class Envelope:
    coverage: float
    polygon: np.ndarray  # ordered convex vertices, m x 2
    contains_observed: bool


def pca_fit(table: ReferenceTable, observed, scaling: ScalingVector) -> PcaProjection:
    """Project the table's statistics and the observed vector onto the top-2 PCs.

    `observed` is a vector in the table's statistic order. Statistics are
    divided by their MAD scales (dropped columns excluded) and
    column-centered; the loadings are the two leading eigenvectors of the
    sample covariance, with the sign convention that each loading's
    largest-magnitude entry is positive.
    """
    if table.n < 3:
        raise DataError("PCA needs at least 3 rows")
    kept = scaling.kept
    if kept.size < 2:
        raise DataError("PCA needs at least 2 usable statistics")
    vec = np.asarray(observed, dtype=float)
    check_statistic_lengths(table.n_stats, vec.size, scaling)

    standardized = table.stats[:, kept] / scaling.scales[kept]
    mean = standardized.mean(axis=0)
    centered = standardized - mean
    cov = np.cov(centered, rowvar=False, ddof=1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(-eigvals, kind="stable")[:2]
    loadings = eigvecs[:, order].copy()
    for c in range(2):
        lead = np.argmax(np.abs(loadings[:, c]))
        if loadings[lead, c] < 0:
            loadings[:, c] = -loadings[:, c]
    total = float(eigvals.sum())
    if total <= 0:
        raise DataError("statistic covariance has no variance")
    explained = (float(eigvals[order[0]] / total), float(eigvals[order[1]] / total))

    scores = centered @ loadings
    observed_score = (vec[kept] / scaling.scales[kept] - mean) @ loadings
    return PcaProjection(
        mean=mean,
        loadings=loadings,
        scores=scores,
        observed_score=observed_score,
        explained_fraction=explained,
    )


def envelope(scores: np.ndarray, observed_score, coverage: float) -> Envelope:
    """Convex hull of the `coverage` fraction of scores nearest the centroid.

    Points are ranked by Mahalanobis distance under the 2-D covariance of the
    scores (Euclidean, with a warning, if that covariance is degenerate); the
    nearest ceil(coverage * n) are kept and their convex hull returned.
    A point on the hull boundary counts as inside.
    """
    scores = np.asarray(scores, dtype=float)
    observed_score = np.asarray(observed_score, dtype=float).ravel()
    n = scores.shape[0]
    if not 0 < coverage < 1:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    if n < 3:
        raise ValueError("need at least 3 score points")

    center = scores.mean(axis=0)
    diff = scores - center
    cov = np.cov(diff, rowvar=False, ddof=1)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    trace = cov[0, 0] + cov[1, 1]
    if not np.isfinite(det) or det <= 1e-12 * max(trace, 1e-300) ** 2:
        warnings.warn(
            "degenerate score covariance; ranking by Euclidean distance",
            stacklevel=2,
        )
        d2 = np.einsum("ij,ij->i", diff, diff)
    else:
        inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
        d2 = np.einsum("ij,jk,ik->i", diff, inv, diff)

    keep = int(np.ceil(coverage * n))
    order = np.lexsort((np.arange(n), d2))[:keep]
    hull = convex_hull(scores[order])
    inside = point_in_convex(hull, observed_score)
    return Envelope(coverage=coverage, polygon=hull, contains_observed=inside)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull by monotone chain; vertices in counterclockwise order.

    Degenerate inputs (all points collinear or coincident) return the
    degenerate hull with fewer than 3 vertices.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts
    # unique() sorts lexicographically, as the chain construction needs. The
    # chain runs on Python floats: the same IEEE arithmetic as numpy scalars,
    # without their per-operation overhead.
    def half(chain_pts):
        chain = []
        for p in chain_pts:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    rows = pts.tolist()
    lower = half(rows)
    upper = half(rows[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # collinear input collapses to its extreme points
        hull = [lower[0], lower[-1]]
    return np.array(hull)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_in_convex(polygon: np.ndarray, point) -> bool:
    """Whether a point lies inside or on a convex polygon (CCW vertices).

    Degenerate polygons (a segment or single point) test membership on that
    segment or point, within a relative tolerance.
    """
    poly = np.asarray(polygon, dtype=float)
    p = np.asarray(point, dtype=float).ravel()
    scale = max(1.0, float(np.abs(poly).max()), float(np.abs(p).max()))
    eps = 1e-9 * scale * scale
    if poly.shape[0] == 1:
        return bool(np.all(np.abs(poly[0] - p) <= 1e-9 * scale))
    if poly.shape[0] == 2:
        a, b = poly
        if abs(_cross(a, b, p)) > eps:
            return False
        lo = np.minimum(a, b) - 1e-9 * scale
        hi = np.maximum(a, b) + 1e-9 * scale
        return bool(np.all(p >= lo) and np.all(p <= hi))
    m = poly.shape[0]
    for i in range(m):
        if _cross(poly[i], poly[(i + 1) % m], p) < -eps:
            return False
    return True


def scores_tsv(projection: PcaProjection) -> str:
    """Scores plus the observed point as TSV (`pc1`, `pc2`, `kind`)."""
    rows = itertools.chain(
        ([*row, "sim"] for row in projection.scores.tolist()),
        [[*projection.observed_score.tolist(), "observed"]],
    )
    return tsv_text(["pc1", "pc2", "kind"], rows)


def polygon_tsv(env: Envelope) -> str:
    """Envelope vertices as TSV (`pc1`, `pc2`), in polygon order."""
    return tsv_text(["pc1", "pc2"], env.polygon.tolist())
