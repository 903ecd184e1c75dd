import os

import numpy as np
import pytest

from abcgof import ObservedStats, ReferenceTable
from abcgof.gof import prior_predictive
from abcgof.parallel import children


def make_table(stats, params=None, stat_names=None, param_names=None) -> ReferenceTable:
    """Build a small in-memory table; params default to a row counter.

    Flat inputs are treated as single columns.
    """
    stats = np.asarray(stats, dtype=float)
    if stats.ndim == 1:
        stats = stats[:, None]
    n, k = stats.shape
    if params is None:
        params = np.arange(n, dtype=float)
    params = np.asarray(params, dtype=float)
    if params.ndim == 1:
        params = params[:, None]
    return ReferenceTable(
        param_names=param_names or [f"p{j}" for j in range(params.shape[1])],
        stat_names=stat_names or [f"s{j}" for j in range(k)],
        params=params,
        stats=stats,
    )


class CallLog:
    """A call counter kept in a file, one line per call.

    Monte Carlo loops run in forked worker processes, whose memory the test
    never sees; lines appended to a file count calls made there too.
    """

    def __init__(self, path):
        self.path = path

    def record(self, entry) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{entry}\n")

    def entries(self) -> list:
        return self.path.read_text(encoding="utf-8").splitlines() if self.path.exists() else []

    def __len__(self) -> int:
        return len(self.entries())

    def __eq__(self, other) -> bool:
        return self.entries() == other


def table_by_the_loop(simulator, n: int, seed) -> np.ndarray:
    """The table oracle: `prior_predictive` on each child stream of `seed`, concatenated.

    Returns the (n, p + k) rows, parameters then statistics; the first
    failing row raises its SimulationError.
    """
    return np.array([
        np.concatenate(prior_predictive(simulator, np.random.default_rng(stream), row=i))
        for i, stream in enumerate(children(seed, n))
    ])


def make_observed(table: ReferenceTable, values) -> ObservedStats:
    return ObservedStats(stat_names=table.stat_names, values=np.asarray(values, dtype=float))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, such as a seeded_map worker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind ({f'pid {pid}' if pid else 'still running'})")
