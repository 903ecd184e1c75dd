"""Reference-table rows built a block at a time against the per-row loop.

The toy models compute each block of table rows in one batch
(`Simulator.prior_predictive_rows`): one generator per row, one sample
matrix, one moments call. Every other simulator, and every block whose batch
fails, runs the checked per-row loop. The oracle is that loop:
`prior_predictive` on each row's own child stream, concatenated
(`conftest.table_by_the_loop`). Bytes and errors must match it at any worker
count.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcgof import SimulationError, Simulator, build_reference_table, gof, parallel, toy
from abcgof.models import ToySimulator
from abcgof.parallel import children
from abcgof.toy import FAMILIES

from conftest import CallLog, table_by_the_loop

WORKERS = [1, 2, 3]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count seeded_blocks sees."""
    def set_count(count):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: count)
    return set_count


def table_bytes(table) -> bytes:
    return np.hstack([table.params, table.stats]).tobytes()


def per_row_loop_ran(spec, theta, rng):
    raise AssertionError("the per-row loop ran")


@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 300),
    sample_size=st.sampled_from([4, 50, 133]),
    seed=st.integers(0, 2**32 - 1),
    batch_rows=st.sampled_from([7, 64, gof._BATCH_ROWS]),
)
@settings(max_examples=60, deadline=None)
def test_batched_table_rows_have_the_bytes_of_the_per_row_loop(
    family, n, sample_size, seed, batch_rows
):
    sim = ToySimulator(family, sample_size)
    want = table_by_the_loop(sim, n, seed)
    with pytest.MonkeyPatch.context() as patch:  # so only the batch can succeed
        patch.setattr(toy, "simulate", per_row_loop_ran)
        patch.setattr(gof, "_BATCH_ROWS", batch_rows)
        table = build_reference_table(sim, n, seed)
    assert table_bytes(table) == want.tobytes()


class ToyBadDrawAt(ToySimulator):
    """toy-gaussian whose prior draw is spoiled at the given rows of a table from `seed`.

    Only `draw_prior` is overridden, so the table batch still runs and must
    fall back to the per-row loop.
    """

    def __init__(self, bad, rows, n, seed):
        super().__init__("gaussian")
        self.bad = bad
        streams = children(seed, n)
        draw = super().draw_prior
        self.targets = {tuple(draw(np.random.default_rng(streams[r]))) for r in rows}

    def draw_prior(self, rng):
        theta = super().draw_prior(rng)
        if tuple(theta) not in self.targets:
            return theta
        location, variance = theta
        if self.bad == "raises":  # no draw reaches the table: the error names the row
            raise ZeroDivisionError("float division by zero")
        return {
            "short": np.array([location]),
            "long": np.array([location, variance, 0.0]),
            # fifty 0.1s sum to a mean just off 0.1, so the constant sample's
            # moments are finite: only the variance check refuses this draw
            "zero-variance": np.array([0.1, 0.0]),
            "negative-variance": np.array([location, -variance]),
            # sqrt(1e-300) * z vanishes beside the location: a constant sample, 0/0 moments
            "tiny-variance": np.array([location, 1e-300]),
        }[self.bad]


def raised(build) -> tuple:
    """The SimulationError `build()` raises, and every warning it shows."""
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        with pytest.raises(SimulationError) as info:
            build()
    err = info.value
    return (
        type(err), str(err), err.row, err.theta.tobytes(), type(err.cause), str(err.cause),
        [(w.category, str(w.message), w.filename, w.lineno) for w in shown],
    )


@pytest.mark.parametrize(
    "bad", ["short", "long", "zero-variance", "negative-variance", "tiny-variance", "raises"]
)
@pytest.mark.parametrize("rows", [(2, 28), (28,)], ids=["first-and-last-block", "last-block"])
@pytest.mark.parametrize("batch_rows", [gof._BATCH_ROWS, 4])
def test_a_failing_batch_raises_the_per_row_loops_error(cpus, monkeypatch, bad, rows, batch_rows):
    # With 4 rows per batch call, the batches before the failing row's succeed.
    monkeypatch.setattr(gof, "_BATCH_ROWS", batch_rows)
    sim = ToyBadDrawAt(bad, rows, 30, seed=6)
    want = raised(lambda: table_by_the_loop(sim, 30, 6))
    assert want[2] == min(rows)
    for count in WORKERS:
        cpus(count)
        assert raised(lambda: build_reference_table(sim, 30, 6)) == want


def test_a_draw_that_raises_names_its_row(cpus):
    cpus(2)  # row 28 is in the worker's block, so the error is pickled on its way
    with pytest.raises(SimulationError) as info:
        build_reference_table(ToyBadDrawAt("raises", (28,), 30, seed=6), 30, 6)
    err = info.value
    assert str(err) == (
        "simulator failed at reference-table row 28 in draw_prior: float division by zero"
    )
    assert err.row == 28 and err.theta.size == 0 and isinstance(err.cause, ZeroDivisionError)


class MisshapenBatch(ToySimulator):
    """toy-gaussian whose table batch drops its last row or its last column."""

    def __init__(self, drop):
        super().__init__("gaussian")
        self.drop = drop

    def prior_predictive_rows(self, indices, rng):
        rows = super().prior_predictive_rows(indices, rng)
        return rows[:-1] if self.drop == "row" else rows[:, :-1]


@pytest.mark.parametrize("drop", ["row", "column"])
def test_a_misshapen_batch_gives_the_per_row_loops_table(cpus, drop):
    sim = MisshapenBatch(drop)
    want = table_by_the_loop(sim, 30, 6)
    for count in WORKERS:
        cpus(count)
        assert table_bytes(build_reference_table(sim, 30, 6)) == want.tobytes()


def test_a_batch_that_succeeds_draws_each_row_once(cpus, tmp_path):
    log = CallLog(tmp_path / "draws")

    class CountingDraws(ToySimulator):
        def draw_prior(self, rng):
            log.record("draw")
            return super().draw_prior(rng)

    sim = CountingDraws("laplace")
    want = table_by_the_loop(sim, 40, 2)
    for count in WORKERS:
        cpus(count)
        log.path.unlink()
        assert table_bytes(build_reference_table(sim, 40, 2)) == want.tobytes()
        assert len(log) == 40


def test_a_batch_call_takes_at_most_batch_rows_rows(cpus, monkeypatch):
    # so a batch's working memory does not grow with the table
    sizes = []

    class RecordingSizes(ToySimulator):
        def prior_predictive_rows(self, indices, rng):
            sizes.append(len(indices))
            return super().prior_predictive_rows(indices, rng)

    monkeypatch.setattr(gof, "_BATCH_ROWS", 5)
    cpus(1)
    sim = RecordingSizes("gaussian")
    assert table_bytes(build_reference_table(sim, 23, 3)) == table_by_the_loop(
        sim, 23, 3).tobytes()
    assert sizes == [5, 5, 5, 5, 3]


class CountingEcho(Simulator):
    """A simulator with no batch that records each `simulate` call, in any process."""

    name = "counting-echo"
    param_names = ("level",)
    stat_names = ("s0",)

    def __init__(self, log):
        self.log = log

    def draw_prior(self, rng):
        return rng.uniform(0, 10, size=1)

    def simulate(self, theta, rng):
        self.log.record(float(theta[0]))
        return np.array([float(theta[0]) + rng.standard_normal()])


def test_a_simulator_without_a_batch_is_called_once_per_row(cpus, tmp_path):
    want = table_by_the_loop(CountingEcho(CallLog(tmp_path / "oracle")), 30, 6)
    for count in WORKERS:
        cpus(count)
        sim = CountingEcho(CallLog(tmp_path / f"calls-{count}"))
        assert table_bytes(build_reference_table(sim, 30, 6)) == want.tobytes()
        # one call per row, in whichever process and order the blocks run
        assert sorted(sim.log.entries()) == sorted(str(level) for level in want[:, 0])
