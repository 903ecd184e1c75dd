import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcgof import (
    DataError,
    ObservedStats,
    ReferenceTable,
    ScalingVector,
    distance,
    fit_scaling,
    load_observed,
    load_reference_table,
    mad,
    save_observed,
    save_reference_table,
)
from abcgof.core import PARSE_BLOCK_ROWS, scaled_distances

from conftest import make_table


# --- independent oracles -----------------------------------------------------


def median_oracle(values):
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad_oracle(values):
    """Brute force: sort the absolute deviations explicitly."""
    center = median_oracle(values)
    deviations = sorted(abs(float(v) - center) for v in values)
    return 1.4826 * median_oracle(deviations)


def distance_oracle(a, b, scales, dropped=()):
    total = 0.0
    for j, (x, y) in enumerate(zip(a, b)):
        if j in dropped:
            continue
        total += ((x - y) / scales[j]) ** 2
    return math.sqrt(total)


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# --- mad ----------------------------------------------------------------------


def test_mad_constant_column():
    assert mad([1, 1, 1, 1]) == 0.0


def test_mad_simple_sequence():
    # median 3, deviations {2,1,0,1,2}, median deviation 1
    assert mad([1, 2, 3, 4, 5]) == pytest.approx(1.4826, abs=1e-12)
    assert mad([1, 2, 3, 4, 5]) == pytest.approx(mad_oracle([1, 2, 3, 4, 5]), abs=1e-12)


def test_mad_majority_ties_give_zero():
    assert mad([-3, -3, -3, 7]) == 0.0
    assert mad_oracle([-3, -3, -3, 7]) == 0.0


def test_mad_empty_column():
    with pytest.raises(DataError, match="empty statistic column"):
        mad([])


def test_mad_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        mad([1.0, np.nan])


@given(st.lists(finite_floats, min_size=1, max_size=40), finite_floats)
@settings(max_examples=150)
def test_mad_translation_invariant(values, shift):
    x = np.array(values)
    assert mad(x + shift) == pytest.approx(mad(x), rel=1e-9, abs=1e-9)


@given(st.lists(finite_floats, min_size=1, max_size=40), st.floats(-1e3, 1e3, allow_nan=False))
@settings(max_examples=150)
@example(values=[-1e6, -999999.9999999999], factor=17.0)
def test_mad_absolutely_homogeneous(values, factor):
    x = np.array(values)
    # Each rounding of a value v errs by at most u|v|, u = eps / 2 (plus half a
    # subnormal if v underflows); every value here is at most 2FM in size, with
    # F = |factor| and M = max|x|; and a median moves by at most the largest
    # error of its inputs. In units of uFM, the left side's factor * x errs by
    # 1, its center by 1 + 1 (the midpoint's rounding), each |y - center| by
    # 1 + 2 + 2, their median by 5 + 2, and the 1.4826 product by
    # 1.4826 * (7 + 2). On the right, mad(x) errs by 1.4826 * 7 and
    # |factor| * mad(x) by 1.4826 * (7 + 2). So the sides differ by at most
    # 1.4826 * 18 uFM < 13.4 eps F M, and C = 16 covers that.
    size = abs(factor) * np.abs(x).max()
    bound = 16 * (np.finfo(float).eps * size + 5e-324)
    assert mad(factor * x) == pytest.approx(abs(factor) * mad(x), rel=1e-9, abs=bound)


@given(st.lists(finite_floats, min_size=1, max_size=60))
@settings(max_examples=200)
def test_mad_matches_oracle(values):
    assert mad(values) == pytest.approx(mad_oracle(values), rel=1e-12, abs=1e-12)


# --- fit_scaling ----------------------------------------------------------------


def test_fit_scaling_drops_constant_column():
    table = make_table(
        np.column_stack([np.ones(6), np.arange(6.0)]), stat_names=["flat", "ramp"]
    )
    with pytest.warns(UserWarning, match="flat"):
        scaling = fit_scaling(table)
    assert scaling.dropped == {0}
    assert scaling.scales[1] > 0


def test_fit_scaling_all_constant_errors():
    table = make_table(np.ones((5, 2)))
    with pytest.raises(DataError, match="no informative statistics"):
        fit_scaling(table)


def test_fit_scaling_standard_normal_estimates_unit_sigma(rng):
    table = make_table(rng.standard_normal((10_000, 2)))
    scaling = fit_scaling(table)
    assert np.all(scaling.scales > 0.9) and np.all(scaling.scales < 1.1)


def test_fit_scaling_single_column():
    table = make_table([1, 2, 3, 4, 5])
    scaling = fit_scaling(table)
    assert scaling.scales == pytest.approx([1.4826])
    assert scaling.dropped == frozenset()


def test_scaling_vector_validation():
    with pytest.raises(DataError, match="no informative statistics"):
        ScalingVector(scales=[0.0], dropped={0})
    with pytest.raises(DataError, match="non-positive"):
        ScalingVector(scales=[0.0, 1.0], dropped=set())


# --- distance -------------------------------------------------------------------


def unit_scaling(k):
    return ScalingVector(scales=np.ones(k), dropped=frozenset())


def test_distance_identity():
    s = unit_scaling(3)
    assert distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], s) == 0.0


def test_distance_three_four_five():
    assert distance([0, 0], [3, 4], unit_scaling(2)) == pytest.approx(5.0)


def test_distance_scales_divide_coordinates():
    s = ScalingVector(scales=[3.0, 2.0], dropped=frozenset())
    assert distance([0, 0], [3, 4], s) == pytest.approx(math.sqrt(5.0))
    assert distance([0, 0], [3, 4], s) == pytest.approx(distance_oracle([0, 0], [3, 4], [3, 2]))


def test_distance_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        distance([0, 0, 0], [1, 1], unit_scaling(2))


def test_distance_ignores_dropped_coordinates():
    s = ScalingVector(scales=[1.0, 0.0], dropped=frozenset({1}))
    assert distance([0, 5], [3, -9], s) == pytest.approx(3.0)
    assert distance([0, 5], [0, -9], s) == 0.0


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    st.lists(finite_floats, min_size=1, max_size=8),
    st.lists(finite_floats, min_size=1, max_size=8),
)
@settings(max_examples=150)
def test_distance_symmetry_and_triangle(a, b, c):
    k = min(len(a), len(b), len(c))
    a, b, c = a[:k], b[:k], c[:k]
    s = unit_scaling(k)
    d_ab = distance(a, b, s)
    assert d_ab == distance(b, a, s)
    assert d_ab <= distance(a, c, s) + distance(c, b, s) + 1e-9 * (1 + d_ab)


def test_distance_unit_rescaling_cancels(rng):
    stats = rng.standard_normal((50, 3))
    table = make_table(stats)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    base = distance(a, b, fit_scaling(table))

    factors = np.array([3.0, 0.25, 40.0])
    rescaled = make_table(stats * factors)
    again = distance(a * factors, b * factors, fit_scaling(rescaled))
    assert again == pytest.approx(base, rel=1e-12)


def test_scaled_distances_matches_scalar(rng):
    stats = rng.standard_normal((20, 4))
    table = make_table(stats)
    scaling = fit_scaling(table)
    vec = rng.standard_normal(4)
    batch = scaled_distances(table.stats, vec, scaling)
    for i in range(20):
        assert batch[i].tobytes() == np.float64(distance(table.stats[i], vec, scaling)).tobytes()


@st.composite
def matrix_row_and_scaling(draw):
    """Stats of one or more rows, one row index, a vector and a scaling with drops."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    stats = np.array(draw(st.lists(finite_floats, min_size=n * k, max_size=n * k))).reshape(n, k)
    vec = np.array(draw(st.lists(finite_floats, min_size=k, max_size=k)))
    dropped = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    scales = [0.0 if j in dropped else draw(st.floats(1e-3, 1e3)) for j in range(k)]
    return stats, draw(st.integers(0, n - 1)), vec, ScalingVector(scales=scales, dropped=dropped)


@given(matrix_row_and_scaling())
@settings(max_examples=300, deadline=None)
def test_distance_gives_the_bytes_of_its_row_in_scaled_distances(case):
    stats, i, vec, scaling = case
    batch = scaled_distances(stats, vec, scaling)
    assert np.float64(distance(stats[i], vec, scaling)).tobytes() == batch[i].tobytes()


def test_scaled_distances_sum_squares_in_kept_column_order():
    # The pinned digests hold sqrt(((t0*t0) + t1*t1) + ...), summed left to right over
    # the kept columns, not a pairwise or vectorised reduction, for any number of rows:
    # each case also checks its first row alone.
    rng = np.random.default_rng(8)
    for _ in range(300):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        dropped = {j for j in range(k) if rng.random() < 0.3} if k > 1 else set()
        if len(dropped) == k:
            dropped.pop()
        scales = np.where([j in dropped for j in range(k)], 0.0, rng.uniform(0.01, 10, k))
        scaling = ScalingVector(scales=scales, dropped=dropped)
        stats = rng.standard_normal((n, k)) * rng.uniform(1e-3, 1e3, k)
        vec = rng.standard_normal(k)
        total = None
        for j in scaling.kept:
            t = (stats[:, j] - vec[j]) / scales[j]
            total = t * t if total is None else total + t * t
        assert scaled_distances(stats, vec, scaling).tobytes() == np.sqrt(total).tobytes()
        assert scaled_distances(stats[:1], vec, scaling).tobytes() == np.sqrt(total[:1]).tobytes()


# --- table and observed validation ------------------------------------------------


def test_reference_table_row_mismatch():
    with pytest.raises(DataError, match="differ"):
        ReferenceTable(["p"], ["s"], params=np.ones((3, 1)), stats=np.ones((4, 1)))


def test_reference_table_needs_two_rows():
    with pytest.raises(DataError, match="at least 2 rows"):
        ReferenceTable(["p"], ["s"], params=np.ones((1, 1)), stats=np.ones((1, 1)))


def test_reference_table_rejects_nan():
    with pytest.raises(DataError, match="non-finite"):
        make_table([[1.0], [np.inf]])


def test_duplicate_names_rejected():
    with pytest.raises(DataError, match="duplicate"):
        make_table(np.ones((3, 2)) * [[1], [2], [3]], stat_names=["a", "a"])


def test_observed_alignment_is_by_name():
    table = make_table(np.arange(8.0).reshape(4, 2), stat_names=["x", "y"])
    obs = ObservedStats(stat_names=["y", "x"], values=[10.0, 20.0])
    assert obs.align(table).tolist() == [20.0, 10.0]


def test_observed_alignment_mismatch_errors():
    table = make_table(np.arange(8.0).reshape(4, 2), stat_names=["x", "y"])
    obs = ObservedStats(stat_names=["x", "z"], values=[1.0, 2.0])
    with pytest.raises(DataError, match="name mismatch"):
        obs.align(table)


# --- TSV I/O ------------------------------------------------------------------------


def test_load_minimal_table(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("param_mu\tstat_mean\n1.0\t2.0\n3.0\t4.0\n0.5\t-1.5\n")
    table = load_reference_table(path)
    assert table.n == 3 and table.n_params == 1 and table.n_stats == 1
    assert table.param_names == ("mu",) and table.stat_names == ("mean",)
    assert table.stats[:, 0].tolist() == [2.0, 4.0, -1.5]


def test_load_permuted_observed_gives_identical_distances(tmp_path):
    table = make_table(np.arange(12.0).reshape(6, 2), stat_names=["x", "y"])
    scaling = fit_scaling(table)
    (tmp_path / "o1.tsv").write_text("stat_x\tstat_y\n1.5\t9.0\n")
    (tmp_path / "o2.tsv").write_text("stat_y\tstat_x\n9.0\t1.5\n")
    o1 = load_observed(tmp_path / "o1.tsv")
    o2 = load_observed(tmp_path / "o2.tsv")
    d1 = scaled_distances(table.stats, o1.align(table), scaling)
    d2 = scaled_distances(table.stats, o2.align(table), scaling)
    assert np.array_equal(d1, d2)


def test_load_rejects_na_cell_naming_it(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("param_a\tstat_b\n1.0\tNA\n2.0\t3.0\n")
    with pytest.raises(DataError, match=r"row 1, column 'stat_b'.*NA"):
        load_reference_table(path)


def test_load_rejects_unknown_prefix(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("param_a\tvalue\n1.0\t2.0\n")
    with pytest.raises(DataError, match="prefix"):
        load_reference_table(path)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("")
    with pytest.raises(DataError, match="missing header"):
        load_reference_table(path)


def test_load_rejects_short_row(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("param_a\tstat_b\n1.0\t2.0\n1.0\n")
    with pytest.raises(DataError, match="row 2"):
        load_reference_table(path)


@pytest.mark.parametrize("load, text", [
    (load_reference_table, "param_a\tstat_b\n1.0\t2.0\n3.0\t4.0\n"),
    (load_observed, "stat_b\n2.0\n"),
], ids=["table", "observed"])
def test_load_names_a_utf8_byte_order_mark(tmp_path, load, text):
    path = tmp_path / "bom.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    with pytest.raises(DataError, match="byte-order mark") as info:
        load(path)
    assert "\ufeff" not in str(info.value)


def test_load_missing_file():
    with pytest.raises(DataError, match="no such file"):
        load_reference_table("/nonexistent/quux.tsv")


def test_observed_requires_single_row(tmp_path):
    path = tmp_path / "o.tsv"
    path.write_text("stat_a\n1.0\n2.0\n")
    with pytest.raises(DataError, match="exactly one data row"):
        load_observed(path)


def test_observed_rejects_param_columns(tmp_path):
    path = tmp_path / "o.tsv"
    path.write_text("param_a\tstat_b\n1.0\t2.0\n")
    with pytest.raises(DataError, match="stat_"):
        load_observed(path)


def test_table_roundtrip_is_bitwise_identical(tmp_path, rng):
    table = make_table(rng.standard_normal((25, 3)) * 1e3, params=rng.random((25, 2)))
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    save_reference_table(table, first)
    loaded = load_reference_table(first)
    save_reference_table(loaded, second)
    reloaded = load_reference_table(second)
    assert np.array_equal(loaded.params, reloaded.params)
    assert np.array_equal(loaded.stats, reloaded.stats)
    assert np.array_equal(loaded.params, table.params)
    assert np.array_equal(loaded.stats, table.stats)
    assert loaded.param_names == reloaded.param_names
    assert loaded.stat_names == reloaded.stat_names


def test_observed_roundtrip(tmp_path, rng):
    obs = ObservedStats(stat_names=["a", "b"], values=rng.standard_normal(2))
    save_observed(obs, tmp_path / "o.tsv")
    loaded = load_observed(tmp_path / "o.tsv")
    assert np.array_equal(loaded.values, obs.values)
    assert loaded.stat_names == obs.stat_names


def cells_oracle(header, rows, path):
    """Per-cell parse in row-major order: the reference for the block loader."""
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows, start=1):
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at data row {i}, column {header[j]!r}: {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(
                    f"{path}: non-finite cell at data row {i}, column {header[j]!r}: {cell!r}"
                )
            data[i - 1, j] = value
    return data


BAD_CELLS = ("nan", "inf", "-inf", "1e400", "abc", "")


@st.composite
def tables_with_bad_cells(draw):
    n_rows = draw(st.integers(2, 25))
    n_cols = draw(st.integers(2, 6))
    cell = st.one_of(finite_floats.map(repr), st.integers(-10**9, 10**9).map(str))
    rows = [[draw(cell) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        rows[i][j] = draw(st.sampled_from(BAD_CELLS))
    return rows


@given(tables_with_bad_cells())
@settings(max_examples=200, deadline=None)
def test_loader_matches_the_per_cell_reference(rows):
    header = ["param_a"] + [f"stat_{j}" for j in range(len(rows[0]) - 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join("\t".join(r) for r in [header] + rows) + "\n")
        try:
            want = cells_oracle(header, rows, path)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                load_reference_table(path)
            assert str(info.value) == str(exc)
            return
        table = load_reference_table(path)
    assert table.params.tobytes() == want[:, [0]].tobytes()
    assert table.stats.tobytes() == want[:, 1:].tobytes()


def test_loader_names_the_first_bad_cell_in_row_major_order(tmp_path):
    path = tmp_path / "t.tsv"
    rows = [["1.0", "2.0"] for _ in range(10)]
    rows[4][1] = "inf"
    rows[8][0] = "abc"
    path.write_text("param_a\tstat_b\n" + "".join("\t".join(r) + "\n" for r in rows))
    with pytest.raises(DataError, match=r"non-finite cell at data row 5, column 'stat_b': 'inf'"):
        load_reference_table(path)


# --- block boundaries of the loader (PARSE_BLOCK_ROWS lines per np.array call) ---------

BLOCK = PARSE_BLOCK_ROWS
BLOCK_HEADER = ["param_a", "stat_b", "stat_c"]


def block_rows(n, seed=0):
    rng = np.random.default_rng(seed)
    return [[repr(v) for v in row] for row in rng.standard_normal((n, 3)).tolist()]


def write_rows(path, rows, blank_before=()):
    """Write the table, with an empty line before each data row index in `blank_before`."""
    lines = ["\t".join(BLOCK_HEADER)]
    for i, row in enumerate(rows):
        lines.extend([""] * blank_before.count(i))
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_loads_as_oracle(path, rows):
    try:
        want = cells_oracle(BLOCK_HEADER, rows, path)
    except DataError as exc:
        with pytest.raises(DataError) as info:
            load_reference_table(path)
        assert str(info.value) == str(exc)
        return
    table = load_reference_table(path)
    assert table.params.tobytes() == want[:, [0]].tobytes()
    assert table.stats.tobytes() == want[:, 1:].tobytes()


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_loader_matches_the_oracle_around_a_block_boundary(tmp_path, n):
    rows = block_rows(n)
    write_rows(tmp_path / "t.tsv", rows)
    assert_loads_as_oracle(tmp_path / "t.tsv", rows)


@pytest.mark.parametrize("cell", BAD_CELLS)
@pytest.mark.parametrize("column", [0, 2])
def test_loader_names_a_bad_cell_in_the_first_row_of_the_second_block(tmp_path, cell, column):
    rows = block_rows(BLOCK + 5)
    rows[BLOCK][column] = cell
    rows[BLOCK + 2][0] = "abc"  # a later bad cell is not the one named
    write_rows(tmp_path / "t.tsv", rows)
    assert_loads_as_oracle(tmp_path / "t.tsv", rows)


def test_loader_counts_fields_before_cells_in_the_last_block(tmp_path):
    rows = block_rows(2 * BLOCK + 5)
    rows[2 * BLOCK + 3] = ["1.0", "abc"]
    rows[2 * BLOCK + 4][2] = "nan"
    write_rows(tmp_path / "t.tsv", rows)
    with pytest.raises(DataError) as info:
        load_reference_table(tmp_path / "t.tsv")
    assert str(info.value) == (
        f"{tmp_path / 't.tsv'}: data row {2 * BLOCK + 4} has 2 fields, header has 3"
    )


@pytest.mark.parametrize("bad", [False, True])
def test_loader_skips_blank_lines_across_a_block_boundary(tmp_path, bad):
    rows = block_rows(BLOCK + 3)
    if bad:
        rows[BLOCK + 1][1] = "inf"
    write_rows(tmp_path / "t.tsv", rows, blank_before=(BLOCK - 1, BLOCK, BLOCK, BLOCK + 1))
    assert_loads_as_oracle(tmp_path / "t.tsv", rows)


@pytest.mark.parametrize("order", [("short", "long"), ("long", "short")], ids="-".join)
def test_a_short_and_a_long_row_in_one_block_do_not_realign(tmp_path, order):
    rows = block_rows(BLOCK)
    for i, kind in enumerate(order, start=BLOCK // 2):
        rows[i] = rows[i][:-1] if kind == "short" else rows[i] + ["1.0"]
    write_rows(tmp_path / "t.tsv", rows)
    with pytest.raises(DataError) as info:
        load_reference_table(tmp_path / "t.tsv")
    fields = 2 if order[0] == "short" else 4
    assert str(info.value) == (
        f"{tmp_path / 't.tsv'}: data row {BLOCK // 2 + 1} has {fields} fields, header has 3"
    )


# str.splitlines also ends a line at these; a table line ends only at LF, CRLF or CR.
SPLITLINES_ONLY_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("char", SPLITLINES_ONLY_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_splitlines_break_inside_a_cell_does_not_end_the_row(tmp_path, char):
    rows = [["1.0", "2.0", "3.0"], ["4.0", f"2{char}5", "6.0"], ["7.0", "8.0", "9.0"]]
    write_rows(tmp_path / "t.tsv", rows)
    assert_loads_as_oracle(tmp_path / "t.tsv", rows)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_lines_load_as_lf_lines(tmp_path, newline):
    rows = block_rows(BLOCK + 3)
    write_rows(tmp_path / "lf.tsv", rows, blank_before=(2, BLOCK))
    text = (tmp_path / "lf.tsv").read_text(encoding="utf-8")
    (tmp_path / "t.tsv").write_bytes(text.replace("\n", newline).encode("utf-8"))
    want, got = load_reference_table(tmp_path / "lf.tsv"), load_reference_table(tmp_path / "t.tsv")
    assert got.param_names == want.param_names and got.stat_names == want.stat_names
    assert got.params.tobytes() == want.params.tobytes()
    assert got.stats.tobytes() == want.stats.tobytes()


UTF8_CASES = [
    (bad, at)
    for bad in (b"\xff", b"\xc3\x28", b"\xed\xa0\x80")
    for at in (0, 5, 8191, 8192, 8193, 20_000)
] + [(b"\xe2\x82", None)]  # None: a sequence cut off at the end of the file


@pytest.mark.parametrize("bad, at", UTF8_CASES, ids=[f"{b.hex()}-at-{a}" for b, a in UTF8_CASES])
def test_invalid_utf8_is_named_by_its_byte_offset_in_the_file(tmp_path, bad, at):
    # The file is decoded 8 KiB at a time; the message counts from the file's start.
    write_rows(tmp_path / "ok.tsv", block_rows(5000))
    data = (tmp_path / "ok.tsv").read_bytes()
    at = len(data) if at is None else at
    data = data[:at] + bad + data[at:]
    (tmp_path / "t.tsv").write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    assert whole.value.start == at
    with pytest.raises(DataError) as info:
        load_reference_table(tmp_path / "t.tsv")
    assert str(info.value) == (
        f"{tmp_path / 't.tsv'} is not valid UTF-8 at byte {at}: {whole.value.reason}"
    )


def test_loader_peak_memory_is_a_few_times_the_matrix(tmp_path):
    n = 20_000
    rng = np.random.default_rng(3)
    table = make_table(rng.standard_normal((n, 4)), params=rng.standard_normal((n, 2)))
    save_reference_table(table, tmp_path / "t.tsv")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_reference_table(tmp_path / "t.tsv")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert loaded.stats.tobytes() == table.stats.tobytes()
    assert peak < 2.5 * n * 6 * 8
