"""The two goodness-of-fit statistics and their Monte Carlo P-values.

The prior statistic is the mean scaled distance from the observed summary
statistics to the accepted nearest simulations in a reference table. The
posterior statistic replaces the accepted simulations with fresh replicates
simulated from parameters drawn from the regression-adjusted posterior. Both
get a null distribution by repeatedly treating one table row as if it were
the observed data (leave-one-out pseudo-observed datasets), and the P-value
is the fraction of null values at least as large as the observed one.

Every random stream comes from one master seed; the layout is documented in
:mod:`abcgof.parallel`.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass

import numpy as np

from .adjust import adjusted_posterior, require_regression_rows, sample_posterior
from .core import (
    DataError,
    ObservedStats,
    ReferenceTable,
    ScalingVector,
    fit_scaling,
    mad,
    scaled_distances,
)
from .parallel import children, seeded_map
from .rejection import accepted_count, mean_accepted_distances, reject

STATISTIC_KINDS = ("prior", "post")


class Simulator(abc.ABC):
    """The generating mechanism: one statistic vector from one parameter vector.

    Implementations must be pure given the rng (identical seeds, identical
    output) and stateless, so one instance serves every table row, null
    replicate and study dataset. :meth:`simulate` returns ``len(stat_names)``
    finite values in `stat_names` order, and a table it serves must have those
    statistics in that order: :func:`simulate_checked` and
    :func:`check_model_stats` check the two. `param_transforms` names the
    scale ("identity", "log" or "logit") on which the regression adjustment
    handles each parameter, so constrained parameters stay inside their
    support; see :func:`abcgof.adjust.adjusted_posterior`.

    A class may add two batches, each used only where its class is, or
    derives from, the class that defines :meth:`simulate` (:func:`_has_batch`);
    without one, the checked per-row loop runs. ``simulate_rows(thetas, rng)``
    gives one statistic vector per row of `thetas`, with the bytes, and the
    final `rng` state, of :meth:`simulate` called row by row.
    ``prior_predictive_rows(indices, rng)`` gives reference-table rows
    `indices`: row r has the bytes :func:`prior_predictive` gives on
    ``rng(indices[r])``, the prior draw then its statistics, and a prior draw
    of the wrong length, which the assembled rows cannot show, raises.
    """

    name: str = "simulator"
    param_names: tuple[str, ...] = ()
    stat_names: tuple[str, ...] = ()
    param_transforms: tuple[str, ...] = ()

    @abc.abstractmethod
    def draw_prior(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one parameter vector from the prior."""

    @abc.abstractmethod
    def simulate(self, theta, rng: np.random.Generator) -> np.ndarray:
        """Simulate one summary-statistic vector for the given parameters."""

    def config(self) -> dict:
        """A JSON-serializable description used in manifests and result echoes."""
        return {"name": self.name}


class SimulationError(RuntimeError):
    """A simulator failed; carries the parameter draw (and table row) that triggered it.

    An empty `theta` means there is no draw: ``draw_prior`` itself failed.
    """

    def __init__(self, theta, cause: Exception, row: int | None = None):
        self.theta = np.asarray(theta, dtype=float)
        self.cause = cause
        self.row = row
        where = "" if row is None else f" at reference-table row {row}"
        what = f"for parameters {self.theta.tolist()}" if self.theta.size else "in draw_prior"
        super().__init__(f"simulator failed{where} {what}: {cause}")

    def __reduce__(self):  # a worker process sends it to the parent pickled
        return type(self), (self.theta, self.cause, self.row)


def simulate_checked(
    simulator: Simulator, theta, rng: np.random.Generator, row: int | None = None
) -> np.ndarray:
    """One simulator call; an error, non-finite or wrong-length output raises SimulationError."""
    try:
        stats = np.asarray(simulator.simulate(theta, rng), dtype=float)
    except Exception as exc:  # noqa: BLE001 - report the offending draw
        raise SimulationError(theta, exc, row) from exc
    if not np.isfinite(stats).all():
        raise SimulationError(theta, ValueError("non-finite simulated statistics"), row)
    if stats.shape != (len(simulator.stat_names),):
        raise SimulationError(theta, ValueError(
            f"the simulator returned {stats.size} statistics; "
            f"the table has {len(simulator.stat_names)}"
        ), row)
    return stats


def check_model_stats(simulator: Simulator, table) -> None:
    """Refuse a simulator whose statistic names, or their order, differ from `table`'s."""
    if tuple(simulator.stat_names) != tuple(table.stat_names):
        raise DataError(
            f"model {simulator.name!r} produces statistics {list(simulator.stat_names)} "
            f"but the table has {list(table.stat_names)}"
        )


def require_leave_one_out_rows(rate: float, n: int, n_params: int, n_stats: int) -> None:
    """Refuse a rate whose leave-one-out rejections on n rows keep too few for the regression."""
    require_regression_rows(min(accepted_count(rate, n), n - 1), n_params, n_stats)


def prior_predictive(
    simulator: Simulator, rng: np.random.Generator, row: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """A prior draw of checked length and its checked simulation on `rng`: (theta, stats)."""
    try:
        theta = simulator.draw_prior(rng)
    except Exception as exc:  # noqa: BLE001 - report the row; there is no draw
        raise SimulationError((), exc, row) from exc
    p = len(simulator.param_names)
    if np.shape(theta) != (p,):
        message = f"draw_prior returned {np.size(theta)} values for {p} parameters"
        raise SimulationError(theta, ValueError(message), row)
    return theta, simulate_checked(simulator, theta, rng, row)


# Table rows per batch call: bounds a batch's working memory (the toy batch
# holds about three float matrices of sample_size columns) for any table size.
_BATCH_ROWS = 4096


def table_rows(simulator: Simulator, indices, rng) -> np.ndarray:
    """Reference-table rows `indices`: row i is :func:`prior_predictive` on ``rng(i)``.

    Where the simulator's class has a batch of its own (:func:`_has_batch`),
    one ``prior_predictive_rows`` call computes each run of up to 4096 rows.
    If it raises, or returns the wrong shape or a non-finite value, that
    run's rows are computed one by one from fresh generators, as every row
    is where there is no batch, and the first failing row raises its
    :class:`SimulationError`.
    """
    if not _has_batch(simulator, "prior_predictive_rows"):
        return _checked_rows(simulator, indices, rng)
    return np.concatenate([
        _batch_rows(simulator, indices[lo:lo + _BATCH_ROWS], rng)
        for lo in range(0, len(indices), _BATCH_ROWS)
    ])


def _batch_rows(simulator: Simulator, indices, rng) -> np.ndarray:
    shape = (len(indices), len(simulator.param_names) + len(simulator.stat_names))
    rows = _checked_batch(lambda: simulator.prior_predictive_rows(indices, rng), shape)
    return _checked_rows(simulator, indices, rng) if rows is None else rows


def _checked_batch(batch, shape) -> np.ndarray | None:
    """``batch()`` as a float array of `shape`, or None for the caller's checked loop to rerun.

    None means the batch raised, or gave the wrong shape or a non-finite value.
    """
    try:
        values = np.asarray(batch(), dtype=float)
    except Exception:  # noqa: BLE001 - the caller's checked loop reports it
        return None
    return values if values.shape == shape and np.isfinite(values).all() else None


def _checked_rows(simulator: Simulator, indices, rng) -> np.ndarray:
    return np.array([np.concatenate(prior_predictive(simulator, rng(i), row=i)) for i in indices])


def _has_batch(simulator: Simulator, method: str) -> bool:
    """Whether the batch `method` belongs to the class whose `simulate` runs, or below it.

    A class that overrides `simulate` below a batch would have its `simulate`
    skipped by that batch (or, where the batch calls ``super()``, run as well
    as the batch's own changes), so it gets the per-row loop instead.
    """
    for cls in type(simulator).__mro__:
        if method in vars(cls):
            return True
        if "simulate" in vars(cls):
            return False
    return False


@dataclass(frozen=True, eq=False)
class GofResult:
    """Observed test statistic, its Monte Carlo null distribution, P-value and settings."""

    statistic_kind: str  # "prior" or "post"
    observed_value: float
    null_values: np.ndarray
    acceptance_rate: float
    M: int
    n_prime: int | None
    seed: int

    def __post_init__(self):
        nulls = np.asarray(self.null_values, dtype=float).copy()
        if nulls.size != self.M or not np.all(np.isfinite(nulls)):
            raise ValueError("null values must be M finite numbers")
        nulls.setflags(write=False)
        object.__setattr__(self, "null_values", nulls)

    @property
    def p_value(self) -> float:
        """Fraction of null values >= the observed one; see :func:`p_value`."""
        return p_value(self.observed_value, self.null_values)

    @property
    def p_value_conservative(self) -> float:
        """(1 + exceedance count) / (1 + M): never exactly zero at finite M."""
        count = int(np.count_nonzero(self.null_values >= self.observed_value))
        return (1 + count) / (1 + self.M)

    def to_dict(self) -> dict:
        return {
            "kind": self.statistic_kind,
            "observed_D": self.observed_value,
            "p_value": self.p_value,
            "p_value_conservative": self.p_value_conservative,
            "M": self.M,
            "acceptance_rate": self.acceptance_rate,
            "n_prime": self.n_prime,
            "seed": self.seed,
            "null_values": self.null_values.tolist(),
        }


def p_value(observed: float, nulls) -> float:
    """Fraction of null statistics >= the observed one (ties count)."""
    nulls = np.asarray(nulls, dtype=float)
    if nulls.size < 1:
        raise ValueError("need at least one null value")
    return float(np.count_nonzero(nulls >= observed) / nulls.size)


def d_prior(
    table: ReferenceTable,
    observed,
    scaling: ScalingVector,
    rate: float,
    exclude: int | None = None,
) -> float:
    """Mean scaled distance from the observed statistics to the accepted rows.

    These are the rows :func:`abcgof.rejection.reject` accepts; the value is
    computed by :func:`abcgof.rejection.mean_accepted_distances`.
    """
    excluded = None if exclude is None else [exclude]
    return float(mean_accepted_distances(table, observed, scaling, rate, excluded)[0])


def null_distribution_prior(
    table: ReferenceTable,
    scaling: ScalingVector,
    rate: float,
    M: int,
    seed,
) -> np.ndarray:
    """Leave-one-out null distribution of the prior statistic.

    M distinct rows are chosen uniformly without replacement (all rows when
    M equals the table size, with no randomness consumed), each is treated
    as the observed data, and the statistic is computed on the remaining
    rows. The scaling is the global one, not refit per replicate. Value j is
    ``d_prior(table, table.stats[rows[j]], scaling, rate, exclude=rows[j])``,
    all M computed in the calling process by one
    :func:`abcgof.rejection.mean_accepted_distances` call.
    """
    rows = _pseudo_observed_rows(table.n, M, seed)
    return mean_accepted_distances(table, table.stats[rows], scaling, rate, exclude=rows)


def _pseudo_observed_rows(n: int, M: int, seed) -> np.ndarray:
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if M > n:
        raise DataError("more replicates than simulations")
    if M == n:
        return np.arange(n)
    return np.random.default_rng(seed).choice(n, size=M, replace=False)


# ---------------------------------------------------------------------------
# Posterior-replicate statistic


def posterior_replicates(
    table: ReferenceTable,
    observed,
    scaling: ScalingVector,
    rate: float,
    simulator: Simulator,
    n_prime: int,
    rng: np.random.Generator,
    exclude: int | None = None,
) -> np.ndarray:
    """Simulate n' statistic vectors from the adjusted posterior for `observed`.

    A simulator whose statistics are not the table's raises DataError first.
    The n' draws are simulated by one ``simulate_rows`` call (see
    :class:`Simulator`) when the simulator's class has a batch of its own
    (:func:`_has_batch`). If it raises, or returns the wrong shape or a
    non-finite row, or there is no batch, the draws are simulated one by one
    from the same generator state, and the first failing draw raises
    :class:`SimulationError`.
    """
    check_model_stats(simulator, table)
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    accepted = reject(table, observed, scaling, rate, exclude=exclude)
    posterior = adjusted_posterior(
        table, accepted, observed, scaling, transforms=simulator.param_transforms
    )
    draws = sample_posterior(posterior, n_prime, rng)
    if _has_batch(simulator, "simulate_rows"):
        state = rng.bit_generator.state
        replicates = _checked_batch(
            lambda: simulator.simulate_rows(draws, rng), (n_prime, table.n_stats)
        )
        if replicates is not None:
            return replicates
        # The loop is the oracle: rerun from the same state, it raises the
        # error of the first failing draw.
        rng.bit_generator.state = state
    return np.array([simulate_checked(simulator, theta, rng) for theta in draws])


def replicate_scaling(replicates: np.ndarray, prior_scaling: ScalingVector) -> ScalingVector:
    """MAD scaling refit on posterior replicates, column by column.

    A replicate column with zero MAD (a degenerate simulator) falls back to
    the prior-table scale for that column instead of being dropped, so the
    distance stays finite and meaningful; columns already dropped by the
    prior scaling stay dropped.
    """
    replicates = np.asarray(replicates, dtype=float)
    scales = np.array([mad(replicates[:, j]) for j in range(replicates.shape[1])])
    dropped = set(prior_scaling.dropped)
    for j in range(scales.size):
        if scales[j] == 0.0 and j not in dropped:
            scales[j] = prior_scaling.scales[j]
    return ScalingVector(scales=scales, dropped=frozenset(dropped))


def d_post(
    table: ReferenceTable,
    observed,
    scaling: ScalingVector,
    rate: float,
    simulator: Simulator,
    n_prime: int,
    rng: np.random.Generator,
    null_pooled: np.ndarray,
) -> float:
    """Mean scaled distance from the observed statistics to posterior replicates.

    `observed` is a vector in the table's statistic order. Distances use a
    MAD scaling refit on replicates, not the prior-table scaling: on
    `null_pooled` (the pooled replicates of :func:`null_distribution_post`)
    extended with these n' replicates.
    """
    replicates = posterior_replicates(table, observed, scaling, rate, simulator, n_prime, rng)
    return observed_d_post(observed, replicates, null_pooled, scaling)


@dataclass(frozen=True, eq=False)
class PosteriorNull:
    """Leave-one-out null distribution of the posterior statistic.

    `rows` are the M pseudo-observed table rows and `values` their null
    statistics. `pooled` stacks all M x n' replicates, row j's n' in block j
    (``np.split(pooled, M)[j]``); it is the scaling pool for :func:`d_post`.
    """

    rows: np.ndarray
    values: np.ndarray
    pooled: np.ndarray  # (M * n') x k


def null_distribution_post(
    table: ReferenceTable,
    scaling: ScalingVector,
    rate: float,
    simulator: Simulator,
    n_prime: int,
    M: int,
    seed,
) -> PosteriorNull:
    """Leave-one-out null distribution of the posterior statistic.

    Two-pass: all M x n' replicates are simulated first, their pooled matrix
    defines one MAD scaling, and every null value is then computed under
    that common scaling. Its seed must be its own (:mod:`abcgof.parallel`).
    """
    check_model_stats(simulator, table)
    rows_seed, replicates_seed = children(seed, 2)
    rows = _pseudo_observed_rows(table.n, M, rows_seed)
    require_leave_one_out_rows(rate, table.n, table.n_params, scaling.kept.size)

    def one(j, rng):
        row = int(rows[j])
        return posterior_replicates(
            table, table.stats[row], scaling, rate, simulator, n_prime, rng, exclude=row
        )

    pooled = np.vstack(seeded_map(one, replicates_seed, M))
    pooled_scaling = replicate_scaling(pooled, scaling)
    values = np.array(
        [
            scaled_distances(reps, table.stats[row], pooled_scaling).mean()
            for row, reps in zip(rows, np.split(pooled, M))
        ]
    )
    return PosteriorNull(rows=rows, values=values, pooled=pooled)


# ---------------------------------------------------------------------------
# Pipeline glue


def goodness_of_fit(
    kind: str,
    table: ReferenceTable,
    rate: float,
    M: int,
    seed,
    simulator: Simulator | None = None,
    n_prime: int | None = None,
):
    """One test statistic paired with its null: ``(null values, statistic)``.

    Fits the table's MAD scaling and computes the M null values once, from
    `seed`. ``statistic(observed, rng)`` is the observed statistic under that
    same scaling. For ``"prior"`` it is :func:`d_prior` and ignores `rng`.
    For ``"post"`` (which needs `simulator` and `n_prime`) it is
    :func:`d_post`: n' replicates drawn on `rng`, scaled by the null's pooled
    replicates extended with its own, as each null value's own replicates
    are part of the pool.
    """
    if kind not in STATISTIC_KINDS:
        raise ValueError(f"statistic must be one of {STATISTIC_KINDS}")
    scaling = fit_scaling(table)
    if kind == "prior":
        nulls = null_distribution_prior(table, scaling, rate, M, seed)

        def statistic(observed, rng):
            return d_prior(table, observed, scaling, rate)

        return nulls, statistic

    null = null_distribution_post(table, scaling, rate, simulator, n_prime, M, seed)

    def statistic(observed, rng):
        return d_post(table, observed, scaling, rate, simulator, n_prime, rng, null.pooled)

    return null.values, statistic


def gfit(
    table: ReferenceTable,
    observed: ObservedStats,
    rate: float,
    M: int,
    seed: int,
) -> GofResult:
    """Goodness-of-fit test of the table's model using the prior statistic."""
    seed = operator.index(seed)
    vec = observed.align(table)  # a name mismatch fails before the null
    nulls, statistic = goodness_of_fit("prior", table, rate, M, seed)
    return GofResult(
        statistic_kind="prior",
        observed_value=statistic(vec, None),
        null_values=nulls,
        acceptance_rate=rate, M=M, n_prime=None, seed=seed,
    )


def gfit_post(
    table: ReferenceTable,
    observed: ObservedStats,
    rate: float,
    simulator: Simulator,
    n_prime: int,
    M: int,
    seed: int,
) -> GofResult:
    """Goodness-of-fit test using the posterior-replicate statistic.

    The observed data's n' replicates are drawn on child 0 of the seed and
    the null is computed from child 1; see :func:`goodness_of_fit` for the
    scaling each uses.
    """
    seed = operator.index(seed)
    vec = observed.align(table)  # a name mismatch fails before M x n' simulations
    observed_seed, null_seed = children(seed, 2)
    nulls, statistic = goodness_of_fit("post", table, rate, M, null_seed, simulator, n_prime)
    return GofResult(
        statistic_kind="post",
        observed_value=statistic(vec, np.random.default_rng(observed_seed)),
        null_values=nulls,
        acceptance_rate=rate, M=M, n_prime=n_prime, seed=seed,
    )


def observed_d_post(
    observed_vec: np.ndarray,
    observed_replicates: np.ndarray,
    null_pooled: np.ndarray,
    prior_scaling: ScalingVector,
) -> float:
    """Observed posterior statistic under the pooled replicate scaling.

    The scaling pool is the null's replicate matrix extended with the
    observed run's replicates.
    """
    pool = np.vstack([null_pooled, observed_replicates])
    rscaling = replicate_scaling(pool, prior_scaling)
    return float(scaled_distances(observed_replicates, observed_vec, rscaling).mean())
