"""Reference tables, robust per-statistic scaling, and scaled distances.

Everything downstream (rejection sampling, the goodness-of-fit statistics,
posterior predictive checks, the PCA diagnostic) operates on a reference
table of simulated (parameter, summary statistic) pairs, standardizes the
statistic space with median absolute deviations, and compares statistic
vectors with a scaled Euclidean distance. All types are immutable after
construction and all operations are pure functions.

File format: UTF-8 TSV (no byte-order mark) with a header line. Parameter columns are prefixed
``param_``, statistic columns ``stat_``; numbers use the C locale and no
cell may be empty or non-numeric. An observed-statistics file uses the same
format restricted to ``stat_`` columns and exactly one data row.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Consistency factor making the MAD estimate sigma for Gaussian data
# (matches the default of common statistical environments). Applied
# uniformly to every column, so it cancels in P-value ranks.
MAD_CONSISTENCY = 1.4826

# Data lines converted per ``np.array`` call when a TSV table is loaded;
# 256 and 1024 parse equally fast, and larger blocks only hold more memory.
PARSE_BLOCK_ROWS = 1024

PARAM_PREFIX = "param_"
STAT_PREFIX = "stat_"


class DataError(ValueError):
    """An input file or in-memory table failed validation."""


def mad(column) -> float:
    """Median absolute deviation of a 1-D sample, scaled by 1.4826.

    Returns 0.0 for a constant column. Raises :class:`DataError` on an
    empty or non-finite column.
    """
    x = np.asarray(column, dtype=float).ravel()
    if x.size == 0:
        raise DataError("empty statistic column")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in statistic column")
    center = np.median(x)
    return float(MAD_CONSISTENCY * np.median(np.abs(x - center)))


def _check_names(names, what: str) -> tuple[str, ...]:
    names = tuple(str(n) for n in names)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate {what} names: {', '.join(dupes)}")
    return names


def _as_matrix(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"{what} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(f"non-finite {what} entry at row {bad[0]}, column {bad[1]}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ReferenceTable:
    """n rows of parameter draws and the summary statistics simulated from them."""

    param_names: tuple[str, ...]
    stat_names: tuple[str, ...]
    params: np.ndarray  # n x p
    stats: np.ndarray  # n x k

    def __post_init__(self):
        object.__setattr__(self, "param_names", _check_names(self.param_names, "parameter"))
        object.__setattr__(self, "stat_names", _check_names(self.stat_names, "statistic"))
        object.__setattr__(self, "params", _as_matrix(self.params, "parameter"))
        object.__setattr__(self, "stats", _as_matrix(self.stats, "statistic"))
        if self.params.shape[0] != self.stats.shape[0]:
            raise DataError(
                f"parameter rows ({self.params.shape[0]}) and statistic rows "
                f"({self.stats.shape[0]}) differ"
            )
        if self.params.shape[0] < 2:
            raise DataError("a reference table needs at least 2 rows")
        if self.params.shape[1] != len(self.param_names):
            raise DataError("parameter column count does not match names")
        if self.stats.shape[1] != len(self.stat_names):
            raise DataError("statistic column count does not match names")

    @property
    def n(self) -> int:
        return self.stats.shape[0]

    @property
    def n_params(self) -> int:
        return self.params.shape[1]

    @property
    def n_stats(self) -> int:
        return self.stats.shape[1]


@dataclass(frozen=True, eq=False)
class ObservedStats:
    """One observed summary-statistic vector, aligned to tables by name."""

    stat_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stat_names", _check_names(self.stat_names, "statistic"))
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size != len(self.stat_names):
            raise DataError("observed value count does not match statistic names")
        if not np.all(np.isfinite(vals)):
            raise DataError("non-finite observed statistic")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def align(self, table: ReferenceTable) -> np.ndarray:
        """Return the values reordered to the table's statistic order.

        Alignment is strictly by name; a missing or extra statistic is an
        error rather than a silent positional match.
        """
        position = {name: i for i, name in enumerate(self.stat_names)}
        missing = [n for n in table.stat_names if n not in position]
        extra = [n for n in self.stat_names if n not in set(table.stat_names)]
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing from observed: {', '.join(missing)}")
            if extra:
                parts.append(f"not in table: {', '.join(extra)}")
            raise DataError("statistic name mismatch (" + "; ".join(parts) + ")")
        return self.values[[position[n] for n in table.stat_names]]


@dataclass(frozen=True, eq=False)
class ScalingVector:
    """Per-statistic MAD scales; zero-MAD columns are dropped from distances."""

    scales: np.ndarray
    dropped: frozenset[int]

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=float).ravel().copy()
        scales.setflags(write=False)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "dropped", frozenset(int(j) for j in self.dropped))
        k = scales.size
        if any(j < 0 or j >= k for j in self.dropped):
            raise DataError("dropped index out of range")
        if len(self.dropped) >= k:
            raise DataError("no informative statistics")
        kept = [j for j in range(k) if j not in self.dropped]
        if not np.all(scales[kept] > 0):
            raise DataError("non-positive scale for a kept statistic")

    @property
    def kept(self) -> np.ndarray:
        """Indices of statistics that participate in distances, ascending."""
        k = self.scales.size
        return np.array([j for j in range(k) if j not in self.dropped], dtype=int)


def fit_scaling(table: ReferenceTable) -> ScalingVector:
    """Fit one MAD scale per statistic column of the table.

    Columns with zero MAD carry no distance information; they are recorded
    as dropped (with a warning naming them) and excluded from every
    subsequent distance. A table where every column is constant is an error.
    """
    scales = np.array([mad(table.stats[:, j]) for j in range(table.n_stats)])
    dropped = frozenset(int(j) for j in np.flatnonzero(scales == 0.0))
    if len(dropped) == table.n_stats:
        raise DataError("no informative statistics")
    if dropped:
        names = ", ".join(table.stat_names[j] for j in sorted(dropped))
        warnings.warn(
            f"dropping constant statistics (zero MAD): {names}",
            stacklevel=2,
        )
    return ScalingVector(scales=scales, dropped=dropped)


def scaled_distances(stats: np.ndarray, vec: np.ndarray, scaling: ScalingVector) -> np.ndarray:
    """Row-wise scaled Euclidean distances from each row of `stats` to `vec`.

    The pinned output bytes depend on the summation order. For two or more
    rows, ``stats[:, kept]`` (fancy indexing on axis 1) returns an F-ordered
    copy, on which ``einsum`` sums the squares column by column in kept
    order: ``sqrt(((t0*t0) + t1*t1) + ...)``. Skipping that selection when
    no column is dropped would change the bytes. A single row is contiguous
    in both orders, and einsum may reduce it in another order.
    """
    stats = np.asarray(stats, dtype=float)
    vec = np.asarray(vec, dtype=float).ravel()
    if stats.shape[1] != vec.size or vec.size != scaling.scales.size:
        raise ValueError(
            f"statistic length mismatch: matrix has {stats.shape[1]}, vector has "
            f"{vec.size}, scaling has {scaling.scales.size}"
        )
    kept = scaling.kept
    diff = (stats[:, kept] - vec[kept]) / scaling.scales[kept]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def distance(a, b, scaling: ScalingVector) -> float:
    """Scaled Euclidean distance between two statistic vectors.

    Coordinates are divided by their MAD scale; dropped coordinates are
    ignored. Symmetric, and zero iff the vectors agree on every kept
    coordinate.
    """
    a = np.asarray(a, dtype=float).ravel()
    # Two rows: a single row is summed in another order (see scaled_distances).
    return float(scaled_distances(np.vstack([a, a]), b, scaling)[0])


# ---------------------------------------------------------------------------
# TSV input / output


def _read_rows(path) -> tuple[list[str], list[str]]:
    """The header's cells and the data lines, unsplit; empty lines are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not valid UTF-8: {exc}") from None
    if text.startswith("\ufeff"):
        raise DataError(f"{path}: starts with a UTF-8 byte-order mark; save it without one")
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise DataError(f"{path}: missing header")
    header = lines[0].split("\t")
    rows = [line for line in lines[1:] if line != ""]
    return header, rows


def _parse_cell(cell: str, row: int, column: str, path) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"{path}: non-numeric cell at data row {row}, column {column!r}: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"{path}: non-finite cell at data row {row}, column {column!r}: {cell!r}"
        )
    return value


def _parse_block(header: list[str], block: list[list[str]], first: int, path) -> list:
    """Parse a block's rows cell by cell, in order, naming the first bad row or cell."""
    values = []
    for i, row in enumerate(block, start=first):
        if len(row) != len(header):
            raise DataError(
                f"{path}: data row {i} has {len(row)} fields, header has {len(header)}"
            )
        values.append([_parse_cell(cell, i, header[j], path) for j, cell in enumerate(row)])
    return values


def _parse_matrix(header: list[str], lines: list[str], path) -> np.ndarray:
    """Parse TSV data lines into one float array, `PARSE_BLOCK_ROWS` lines at a time.

    Each block's lines are split and converted by one ``np.array`` call, so
    besides the lines and the result only one block of split cells is alive
    at a time. A block that call rejects (a ragged row, a cell ``float``
    refuses) or that holds a non-finite value is parsed again by
    `_parse_block`, which names the first bad row or cell; if it finds
    none, its values are used.
    """
    data = np.empty((len(lines), len(header)), dtype=float)
    for lo in range(0, len(lines), PARSE_BLOCK_ROWS):
        block = [line.split("\t") for line in lines[lo:lo + PARSE_BLOCK_ROWS]]
        try:
            values = np.array(block, dtype=float)
            parsed = values.shape == (len(block), len(header)) and np.isfinite(values).all()
        except ValueError:
            parsed = False
        if not parsed:
            values = _parse_block(header, block, lo + 1, path)
        data[lo:lo + len(block)] = values
    return data


def load_reference_table(path) -> ReferenceTable:
    """Load a reference table from TSV (see module docstring for the format)."""
    header, rows = _read_rows(path)
    param_cols, stat_cols = [], []
    for j, name in enumerate(header):
        if name.startswith(PARAM_PREFIX):
            param_cols.append((j, name[len(PARAM_PREFIX):]))
        elif name.startswith(STAT_PREFIX):
            stat_cols.append((j, name[len(STAT_PREFIX):]))
        else:
            raise DataError(
                f"{path}: column {name!r} has neither the {PARAM_PREFIX!r} nor "
                f"the {STAT_PREFIX!r} prefix"
            )
    if not param_cols:
        raise DataError(f"{path}: no parameter columns")
    if not stat_cols:
        raise DataError(f"{path}: no statistic columns")
    data = _parse_matrix(header, rows, path)
    return ReferenceTable(
        param_names=[n for _, n in param_cols],
        stat_names=[n for _, n in stat_cols],
        params=data[:, [j for j, _ in param_cols]],
        stats=data[:, [j for j, _ in stat_cols]],
    )


def load_observed(path) -> ObservedStats:
    """Load an observed-statistics file: ``stat_`` columns, one data row."""
    header, rows = _read_rows(path)
    for name in header:
        if not name.startswith(STAT_PREFIX):
            raise DataError(
                f"{path}: observed files may only contain {STAT_PREFIX!r} columns, "
                f"got {name!r}"
            )
    if len(rows) != 1:
        raise DataError(f"{path}: expected exactly one data row, got {len(rows)}")
    data = _parse_matrix(header, rows, path)
    return ObservedStats(
        stat_names=[n[len(STAT_PREFIX):] for n in header],
        values=data[0],
    )


def tsv_text(header, rows) -> str:
    """Render TSV with a header line, writing each cell with `str`.

    Rows hold Python scalars, as ``ndarray.tolist()`` returns them, so floats
    print in shortest round-trip form and counts as bare integers.
    """
    lines = ["\t".join(header)]
    lines.extend("\t".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """Render JSON indented by 2 with sorted keys and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_table_tsv(table: ReferenceTable) -> str:
    """Render a table as TSV; floats use shortest round-trip formatting."""
    header = [PARAM_PREFIX + n for n in table.param_names]
    header += [STAT_PREFIX + n for n in table.stat_names]
    return tsv_text(header, np.hstack([table.params, table.stats]).tolist())


def observed_tsv(observed: ObservedStats) -> str:
    """Render an observed-statistics file (one data row)."""
    return tsv_text([STAT_PREFIX + n for n in observed.stat_names], [observed.values.tolist()])


def save_reference_table(table: ReferenceTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(reference_table_tsv(table))


def save_observed(observed: ObservedStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(observed_tsv(observed))
