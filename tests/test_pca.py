import numpy as np
import pytest

from abcgof import envelope, fit_scaling, pca_fit
from abcgof.core import DataError
from abcgof.pca import convex_hull, point_in_convex

from conftest import make_table


def test_collinear_data_puts_all_variance_on_pc1(rng):
    base = rng.standard_normal(200)
    stats = np.column_stack([base, 3.0 * base - 1.0])
    table = make_table(stats)
    proj = pca_fit(table, [0.0, -1.0], fit_scaling(table))
    assert proj.explained_fraction[0] == pytest.approx(1.0, abs=1e-8)


def test_isotropic_gaussian_splits_variance_evenly(rng):
    table = make_table(rng.standard_normal((100_000, 2)))
    proj = pca_fit(table, [0.0, 0.0], fit_scaling(table))
    assert proj.explained_fraction[0] == pytest.approx(0.5, abs=0.01)
    assert proj.explained_fraction[1] == pytest.approx(0.5, abs=0.01)


def test_projecting_a_table_row_reproduces_its_score(rng):
    stats = rng.standard_normal((50, 4)) * [1.0, 2.0, 0.5, 3.0]
    table = make_table(stats)
    scaling = fit_scaling(table)
    proj = pca_fit(table, stats[17], scaling)
    assert proj.observed_score == pytest.approx(proj.scores[17], rel=1e-10, abs=1e-12)


def test_loadings_are_orthonormal(rng):
    table = make_table(rng.standard_normal((200, 5)))
    proj = pca_fit(table, np.zeros(5), fit_scaling(table))
    gram = proj.loadings.T @ proj.loadings
    assert gram == pytest.approx(np.eye(2), abs=1e-8)


def test_sign_convention_largest_loading_entry_positive(rng):
    table = make_table(rng.standard_normal((100, 3)))
    proj = pca_fit(table, np.zeros(3), fit_scaling(table))
    for c in range(2):
        lead = np.argmax(np.abs(proj.loadings[:, c]))
        assert proj.loadings[lead, c] > 0


def test_loadings_invariant_under_row_permutation(rng):
    stats = rng.standard_normal((80, 4))
    t1 = make_table(stats)
    t2 = make_table(stats[rng.permutation(80)])
    p1 = pca_fit(t1, np.zeros(4), fit_scaling(t1))
    p2 = pca_fit(t2, np.zeros(4), fit_scaling(t2))
    assert p1.loadings == pytest.approx(p2.loadings, abs=1e-9)


def test_reconstruction_error_matches_discarded_variance(rng):
    stats = rng.standard_normal((3000, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
    stats = stats @ np.linalg.qr(rng.standard_normal((4, 4)))[0]
    table = make_table(stats)
    scaling = fit_scaling(table)
    proj = pca_fit(table, stats[0], scaling)

    standardized = table.stats[:, scaling.kept] / scaling.scales[scaling.kept]
    centered = standardized - proj.mean
    reconstructed = proj.scores @ proj.loadings.T
    residual_var = np.sum((centered - reconstructed) ** 2) / (table.n - 1)
    total_var = np.trace(np.cov(centered, rowvar=False, ddof=1))
    expected = (1.0 - sum(proj.explained_fraction)) * total_var
    assert residual_var == pytest.approx(expected, abs=1e-6)


def test_needs_two_usable_statistics():
    table = make_table(np.column_stack([np.arange(6.0), np.ones(6)]))
    with pytest.warns(UserWarning):
        scaling = fit_scaling(table)
    with pytest.raises(DataError, match="2 usable statistics"):
        pca_fit(table, [0.0, 1.0], scaling)


# --- envelope ------------------------------------------------------------------------


def test_near_total_coverage_hulls_every_point(rng):
    # ceil(coverage * n) reaches n, so the envelope is the hull of all points
    scores = rng.standard_normal((1000, 2))
    env = envelope(scores, [0.0, 0.0], coverage=0.9995)
    assert np.array_equal(env.polygon, convex_hull(scores))
    assert env.contains_observed
    trimmed = envelope(scores, [0.0, 0.0], coverage=0.999)  # keeps ceil(999.0) = 999
    inside = sum(point_in_convex(trimmed.polygon, p) for p in scores)
    assert inside >= 999


def test_centroid_is_inside(rng):
    scores = rng.standard_normal((50, 2))
    env = envelope(scores, scores.mean(axis=0), coverage=0.8)
    assert env.contains_observed


def test_unit_square_with_center_excludes_far_point():
    scores = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    env = envelope(scores, [10.0, 10.0], coverage=0.8)
    assert not env.contains_observed
    assert len(env.polygon) >= 3


def test_envelope_holds_coverage_fraction(rng):
    for trial in range(10):
        scores = rng.standard_normal((200, 2)) @ rng.standard_normal((2, 2))
        coverage = float(rng.uniform(0.3, 0.95))
        env = envelope(scores, [0.0, 0.0], coverage)
        inside = sum(point_in_convex(env.polygon, p) for p in scores)
        assert inside >= int(np.ceil(coverage * 200))


def test_degenerate_covariance_falls_back_to_euclidean():
    line = np.column_stack([np.linspace(-1, 1, 30), np.linspace(-2, 2, 30)])
    with pytest.warns(UserWarning, match="degenerate"):
        env = envelope(line, [0.0, 0.0], coverage=0.5)
    assert env.contains_observed  # the origin sits on the line


def test_coverage_validation(rng):
    scores = rng.standard_normal((10, 2))
    for coverage in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="coverage"):
            envelope(scores, [0.0, 0.0], coverage)


# --- hull helpers ----------------------------------------------------------------------


def test_convex_hull_of_square():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [0.5, 1.5]], dtype=float)
    hull = convex_hull(pts)
    assert sorted(map(tuple, hull)) == [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]


def test_point_in_convex_boundary_counts_as_inside():
    square = convex_hull(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    assert point_in_convex(square, [0.5, 0.5])
    assert point_in_convex(square, [0.0, 0.5])
    assert point_in_convex(square, [1.0, 1.0])
    assert not point_in_convex(square, [1.2, 0.5])


def test_collinear_hull_degenerates_to_segment():
    pts = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
    hull = convex_hull(pts)
    assert hull.shape[0] == 2
    assert point_in_convex(hull, [1.5, 1.5])
    assert not point_in_convex(hull, [1.5, 1.6])
    assert not point_in_convex(hull, [4.0, 4.0])


def numpy_scalar_hull(points):
    """Monotone chain on numpy scalar rows: the reference for `convex_hull`'s float chain."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(chain_pts):
        chain = []
        for p in chain_pts:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return np.vstack([lower[0], lower[-1]])
    return np.array(hull)


def hull_point_sets():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 5, 40, 2000):
        yield rng.standard_normal((n, 2)) * rng.uniform(1e-3, 1e3)
        # duplicate-heavy: few distinct values, many repeats
        yield rng.integers(-3, 4, size=(n, 2)).astype(float)
        yield np.repeat(rng.standard_normal((max(1, n // 10), 2)), 10, axis=0)
        # collinear, with repeats, along a slope that rounds
        t = rng.integers(-50, 50, size=n).astype(float) / 7
        yield np.column_stack([t, 0.1 * t + 0.3])
        yield np.column_stack([np.zeros(n), t])


def test_convex_hull_matches_the_numpy_scalar_chain_byte_for_byte():
    for pts in hull_point_sets():
        got, want = convex_hull(pts), numpy_scalar_hull(pts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("length", [2, 5])
def test_an_observed_vector_of_another_length_is_refused(rng, length):
    # A longer vector used to be cut to the table's first k statistics.
    table = make_table(rng.standard_normal((40, 3)))
    message = f"statistic length mismatch: matrix has 3, vector has {length}"
    with pytest.raises(ValueError, match=message):
        pca_fit(table, np.zeros(length), fit_scaling(table))
