"""Reference tables, robust per-statistic scaling, and scaled distances.

Everything downstream (rejection sampling, the goodness-of-fit statistics,
posterior predictive checks, the PCA diagnostic) operates on a reference
table of simulated (parameter, summary statistic) pairs, standardizes the
statistic space with median absolute deviations, and compares statistic
vectors with a scaled Euclidean distance. All types are immutable after
construction and all operations are pure functions.

File format: UTF-8 TSV (no byte-order mark) with a header line. Parameter
columns are prefixed ``param_``, statistic columns ``stat_``; each cell is
read by Python's ``float`` and must be finite. Only LF, CRLF and CR end a
line, and empty lines are skipped. A file is read in one pass, a block of
lines at a time. An observed-statistics file uses the same format
restricted to ``stat_`` columns and exactly one data row.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Consistency factor making the MAD estimate sigma for Gaussian data
# (matches the default of common statistical environments). Applied
# uniformly to every column, so it cancels in P-value ranks.
MAD_CONSISTENCY = 1.4826

# Data lines read and converted at a time when a TSV table is loaded;
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


def check_statistic_lengths(matrix: int, vector: int, scaling: ScalingVector) -> None:
    """Refuse a statistic vector whose length is not the matrix's and the scaling's."""
    if matrix != vector or vector != scaling.scales.size:
        raise ValueError(
            f"statistic length mismatch: matrix has {matrix}, vector has "
            f"{vector}, scaling has {scaling.scales.size}"
        )


def _squared_distance_blocks(stats, queries, scaling: ScalingVector, rows: int):
    """Yield ``(lo, block)``: squared scaled distances of ``queries[lo:lo + rows]`` to each row.

    The package's one distance sum. With the kept columns copied once per call,
    each ``((x - v) / s)`` is squared and added in place in kept column order,
    ``((t0*t0) + t1*t1) + ...``, for any number of rows; pinned bytes rely on it.
    """
    stats = np.asarray(stats, dtype=float)
    check_statistic_lengths(stats.shape[1], queries.shape[1], scaling)
    kept = scaling.kept
    columns = np.ascontiguousarray(stats[:, kept].T)
    for lo in range(0, len(queries), rows):
        block = queries[lo:lo + rows, kept]
        total = np.empty((len(block), len(stats)))
        term = np.empty_like(total)
        for c, (column, values, scale) in enumerate(zip(columns, block.T, scaling.scales[kept])):
            out = total if c == 0 else term
            np.subtract(column, values[:, None], out=out)
            out /= scale
            out *= out
            if c > 0:
                total += term
        yield lo, total


def scaled_distances(stats: np.ndarray, vec: np.ndarray, scaling: ScalingVector) -> np.ndarray:
    """Row-wise scaled Euclidean distances from each row of `stats` to `vec`."""
    query = np.asarray(vec, dtype=float).reshape(1, -1)
    _, squared = next(_squared_distance_blocks(stats, query, scaling, rows=1))
    return np.sqrt(squared[0])


def distance(a, b, scaling: ScalingVector) -> float:
    """Scaled Euclidean distance between two statistic vectors.

    Coordinates are divided by their MAD scale; dropped coordinates are
    ignored. Symmetric, and zero iff the vectors agree on every kept
    coordinate: the bytes of `a`'s row in `scaled_distances`.
    """
    return float(scaled_distances(np.asarray(a, dtype=float).reshape(1, -1), b, scaling)[0])


# ---------------------------------------------------------------------------
# TSV input / output


def _parse_block(header: list[str], block: list[str], first: int, path) -> np.ndarray:
    """Parse a block of data lines into a float matrix, or name its first bad row or cell.

    The lines' field counts are checked first, so a short and a long row
    cannot realign; then every cell goes through one ``float`` call; then
    the values must be finite. A block that fails is walked line by line,
    in order, with the same ``float``: that pass finds the bad row or cell.
    """
    k = len(header)
    if all(line.count("\t") == k - 1 for line in block):
        with contextlib.suppress(ValueError):
            values = np.fromiter(map(float, "\t".join(block).split("\t")), float, len(block) * k)
            if np.isfinite(values).all():
                return values.reshape(-1, k)
    for i, line in enumerate(block, start=first):
        row = line.split("\t")
        if len(row) != k:
            raise DataError(f"{path}: data row {i} has {len(row)} fields, header has {k}")
        for column, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at data row {i}, column {column!r}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: non-finite cell at data row {i}, column {column!r}: {cell!r}"
                )
    raise AssertionError(f"{path}: a block from data row {first} failed but has no bad cell")


def _read_table(path, columns):
    """Read a TSV file in one pass: ``(columns(header, path), data matrix)``.

    `columns` checks the header before any data line is parsed. Only the
    universal newlines (LF, CRLF, CR) end a line, and empty lines are
    skipped. Data lines are read and parsed `PARSE_BLOCK_ROWS` at a time,
    so the file's whole text and a list of all its lines are never held.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                head = fh.readline()
                if head.startswith("\ufeff"):
                    raise DataError(
                        f"{path}: starts with a UTF-8 byte-order mark; save it without one"
                    )
                if not head.strip():
                    raise DataError(f"{path}: missing header")
                header = head.removesuffix("\n").split("\t")
                names = columns(header, path)
                lines = filter(None, (line.removesuffix("\n") for line in fh))
                blocks = []
                while block := list(itertools.islice(lines, PARSE_BLOCK_ROWS)):
                    first = len(blocks) * PARSE_BLOCK_ROWS + 1
                    blocks.append(_parse_block(header, block, first, path))
            except UnicodeDecodeError as exc:
                # exc.object is the chunk being decoded, which ends at the
                # buffer's position; exc.start counts from the chunk's start.
                offset = fh.buffer.tell() - len(exc.object) + exc.start
                raise DataError(
                    f"{path} is not valid UTF-8 at byte {offset}: {exc.reason}"
                ) from None
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    return names, np.concatenate(blocks) if blocks else np.empty((0, len(header)))


def _table_columns(header: list[str], path):
    """The ``(index, name)`` pairs of a table's parameter and statistic columns."""
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
    return param_cols, stat_cols


def _observed_names(header: list[str], path) -> list[str]:
    for name in header:
        if not name.startswith(STAT_PREFIX):
            raise DataError(
                f"{path}: observed files may only contain {STAT_PREFIX!r} columns, "
                f"got {name!r}"
            )
    return [n[len(STAT_PREFIX):] for n in header]


def load_reference_table(path) -> ReferenceTable:
    """Load a reference table from TSV (see module docstring for the format)."""
    (param_cols, stat_cols), data = _read_table(path, _table_columns)
    # One reordered copy, parameters then statistics; rebinding releases the
    # parsed matrix, so the load peaks at twice the matrix, not three times.
    data = data[:, [j for j, _ in param_cols + stat_cols]]
    params, stats = np.hsplit(data, [len(param_cols)])
    return ReferenceTable(
        param_names=[n for _, n in param_cols],
        stat_names=[n for _, n in stat_cols],
        params=params,
        stats=stats,
    )


def load_observed(path) -> ObservedStats:
    """Load an observed-statistics file: ``stat_`` columns, one data row."""
    names, data = _read_table(path, _observed_names)
    if len(data) != 1:
        raise DataError(f"{path}: expected exactly one data row, got {len(data)}")
    return ObservedStats(stat_names=names, values=data[0])


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
