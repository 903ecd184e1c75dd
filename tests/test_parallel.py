"""seeded_map's worker processes against its serial loop.

Every test runs with the CPU count forced to 1 (the serial loop, the oracle)
and to 2 and 3 (forked workers), and requires the same bytes, the same
exception and no child process left behind.
"""

import inspect
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from abcgof import (
    PowerStudyConfig,
    SimulationError,
    Simulator,
    build_reference_table,
    fit_scaling,
    get_simulator,
    null_distribution_post,
    run_calibration,
    run_power,
)
from abcgof import parallel
from abcgof.parallel import children, seeded_blocks, seeded_map

WORKERS = [1, 2, 3]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count seeded_map sees."""
    def set_count(count):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: count)
    return set_count


@pytest.fixture(autouse=True)
def no_hang():
    """Fail a test that hangs for a minute (conftest fails one that leaves a child)."""
    def hung(signum, frame):
        raise TimeoutError("seeded_map hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def each_worker_count(cpus, compute):
    """compute() at 1, 2 and 3 CPUs."""
    results = []
    for count in WORKERS:
        cpus(count)
        results.append(compute())
    return results


def table_bytes(table):
    return table.params.tobytes() + table.stats.tobytes()


@pytest.mark.parametrize("model, n", [
    ("toy-gaussian", 301), ("toy-laplace", 301), ("bottleneck", 23),
])
def test_reference_table_bytes_do_not_depend_on_the_worker_count(cpus, model, n):
    sim = get_simulator(model, stat_set="sfs")
    serial, *forked = each_worker_count(
        cpus, lambda: table_bytes(build_reference_table(sim, n, 11)))
    assert forked == [serial, serial]


def test_posterior_null_bytes_do_not_depend_on_the_worker_count(cpus):
    sim = get_simulator("toy-gaussian")
    table = build_reference_table(sim, 300, 4)
    scaling = fit_scaling(table)

    def null():
        result = null_distribution_post(table, scaling, 0.05, sim, 7, 11, seed=9)
        return result.rows.tobytes(), result.values.tobytes(), result.pooled.tobytes()

    serial, *forked = each_worker_count(cpus, null)
    assert forked == [serial, serial]


@pytest.mark.parametrize("statistic, run", [
    ("prior", run_calibration), ("post", run_power),
])
def test_study_pvalues_do_not_depend_on_the_worker_count(cpus, statistic, run):
    config = PowerStudyConfig(
        null_model=get_simulator("toy-gaussian"),
        alt_model=get_simulator("toy-laplace") if run is run_power else None,
        statistic=statistic, n_sims=300, n_datasets=7, acceptance_rate=0.05, M=9,
        n_prime=6, master_seed=3,
    )
    serial, *forked = each_worker_count(cpus, lambda: run(config).p_values.tobytes())
    assert forked == [serial, serial]


def described(value):
    """A value's type, and for arrays their dtype, shape and bytes."""
    if isinstance(value, tuple):
        return tuple(described(v) for v in value)
    if isinstance(value, np.ndarray):
        return np.ndarray, value.dtype, value.shape, value.tobytes()
    return type(value), value


@pytest.mark.parametrize("make", [
    lambda i, rng: (rng.random(2), rng.random(3)),
    lambda i, rng: rng.random((2, 2)),
    lambda i, rng: rng.random(i + 1),
    lambda i, rng: np.array(rng.random()),
    lambda i, rng: rng.random(),
    lambda i, rng: (rng.random(2), f"row {i}"),
    lambda i, rng: (i,) if i % 2 else (i, rng.random(1)),
    lambda i, rng: rng.integers(5, size=2) if i % 2 else rng.random(2),
], ids=["array-pairs", "matrices", "ragged", "0-d", "floats", "mixed-pairs",
        "tuple-lengths", "dtypes"])
def test_results_come_back_with_their_type_shape_and_bytes(cpus, make):
    serial, *forked = each_worker_count(
        cpus, lambda: [described(r) for r in seeded_map(make, 5, 7)])
    assert forked == [serial, serial]


@pytest.mark.parametrize("count", WORKERS)
def test_blocks_are_contiguous_in_order_and_each_index_keeps_its_stream(cpus, count):
    def block(indices, rng):
        return [(os.getpid(), i, rng(i).random()) for i in indices]

    cpus(count)
    blocks = seeded_blocks(block, 5, 8)
    assert len(blocks) == count and all(blocks)
    assert [len({pid for pid, _, _ in results}) for results in blocks] == [1] * count
    assert len({results[0][0] for results in blocks}) == count  # one process per block
    assert [i for results in blocks for _, i, _ in results] == list(range(8))
    streams = children(5, 8)
    assert [value for results in blocks for _, _, value in results] == [
        np.random.default_rng(stream).random() for stream in streams
    ]


def test_a_block_result_keeps_its_type_in_any_process(cpus):
    # a list of same-shape arrays comes back a list, from a worker as from the parent
    def block(indices, rng):
        return [rng(i).random(3) for i in indices]

    def blocks():
        results = seeded_blocks(block, 5, 9)
        assert [type(result) for result in results] == [list] * len(results)
        return b"".join(row.tobytes() for result in results for row in result)

    serial, *forked = each_worker_count(cpus, blocks)
    assert forked == [serial, serial]


def test_the_real_cpu_count_gives_the_serial_bytes(cpus):
    # Under `taskset -c 0` this compares the one-worker path with itself at
    # real affinity; elsewhere it compares forked workers with the serial loop.
    sim = get_simulator("toy-gaussian")
    real = table_bytes(build_reference_table(sim, 200, 2))
    cpus(1)
    assert real == table_bytes(build_reference_table(sim, 200, 2))


def test_the_cpu_count_is_this_process_affinity():
    assert parallel._cpu_count() == len(os.sched_getaffinity(0))


class FailsAtRows(Simulator):
    """Echo simulator that raises at the given rows of a table built from `seed`."""

    name = "fails-at-rows"
    param_names = ("level",)
    stat_names = ("s0",)

    def __init__(self, rows, n, seed):
        streams = children(seed, n)
        self.bad = {float(self.draw_prior(np.random.default_rng(streams[r]))[0]) for r in rows}

    def draw_prior(self, rng):
        return rng.uniform(0, 10, size=1)

    def simulate(self, theta, rng):
        if float(theta[0]) in self.bad:
            raise RuntimeError("bad draw")
        return np.array([float(theta[0]) + rng.standard_normal()])


@pytest.mark.parametrize("rows, first", [
    ((1,), 1), ((28,), 28), ((28, 2), 2), ((15, 29), 15),
], ids=["first-block", "last-block", "first-and-last", "middle-and-last"])
def test_a_failing_row_raises_the_serial_exception(cpus, rows, first):
    sim = FailsAtRows(rows, 30, seed=6)

    def failure():
        with pytest.raises(SimulationError) as info:
            build_reference_table(sim, 30, 6)
        return type(info.value), str(info.value), info.value.row, info.value.theta.tolist()

    serial, *forked = each_worker_count(cpus, failure)
    assert serial[2] == first
    assert forked == [serial, serial]


def test_a_failure_in_the_parents_block_does_not_wait_for_the_workers(cpus):
    cpus(2)
    parent = os.getpid()

    def task(i, rng):
        if os.getpid() != parent:
            time.sleep(30)  # killed, not waited for
        if i == 0:
            raise ValueError("row 0")
        return i

    start = time.perf_counter()
    with pytest.raises(ValueError, match="row 0"):
        seeded_map(task, 1, 4)
    assert time.perf_counter() - start < 10


def test_an_interrupt_in_the_parents_block_reaps_the_workers(cpus):
    cpus(3)
    parent = os.getpid()

    def task(i, rng):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)

    with pytest.raises(KeyboardInterrupt):
        seeded_map(task, 1, 6)


def test_a_dead_worker_names_its_tasks(cpus):
    cpus(2)
    parent = os.getpid()

    def task(i, rng):
        if i == 7 and os.getpid() != parent:
            os._exit(1)
        return i

    with pytest.raises(RuntimeError, match=r"tasks 5 to 9 died .*\(exit status 1\)"):
        seeded_map(task, 1, 10)


def test_an_unpicklable_result_is_reported(cpus):
    cpus(2)
    with pytest.raises(RuntimeError, match="could not send its results"):
        seeded_map(lambda i, rng: (lambda: i), 1, 4)


def test_a_nested_map_runs_serially_in_its_task(cpus):
    def inner(i, rng):
        return os.getpid(), float(rng.random())

    def outer(i, rng):
        return os.getpid(), seeded_map(inner, int(rng.integers(1 << 30)), 3)

    serial, *forked = each_worker_count(cpus, lambda: seeded_map(outer, 8, 6))
    for result in (serial, *forked):
        assert all(pid == task_pid for task_pid, inner_results in result
                   for pid, _ in inner_results)
    values = [[[v for _, v in inner_results] for _, inner_results in r]
              for r in (serial, *forked)]
    assert values[1] == values[2] == values[0]
    assert [len({pid for pid, _ in r}) for r in (serial, *forked)] == [1, 2, 3]


def test_the_fork_warning_of_python_3_12_is_silenced(cpus, monkeypatch):
    real_fork = os.fork

    def fork_that_warns():  # what os.fork does on 3.12+ with several OS threads
        pid = real_fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", fork_that_warns)
    monkeypatch.setattr(parallel, "sys", SimpleNamespace(version_info=(3, 12)))
    cpus(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert seeded_map(lambda i, rng: i, 1, 4) == [0, 1, 2, 3]


def test_a_fork_keeps_the_record_of_warnings_already_shown(cpus):
    cpus(2)

    def task(i, rng):
        warnings.warn("shown once per location", UserWarning)
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        task(0, None)
        seeded_map(task, 1, 4)
    # Silencing the 3.12 fork warning changes the filters, which resets the record.
    assert len(caught) == (1 if sys.version_info < (3, 12) else 2)


def warn_by_group(i, rng):
    """Tasks 0-2 warn "group 0", 3-5 "group 1" and so on; odd tasks warn twice."""
    warnings.warn(f"group {i // 3}", UserWarning)
    if i % 2:
        warnings.warn("odd task", RuntimeWarning)
    return i


@pytest.mark.parametrize("action, count", [("default", 4), ("always", 13)])
def test_worker_warnings_reach_the_parent_in_task_order(cpus, action, count):
    # With 2 workers "group 1" first shows in the parent's block, with 3 in a
    # worker's; either way it shows once under the default filter.
    def record():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert seeded_map(warn_by_group, 1, 9) == list(range(9))
        return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    serial, *forked = each_worker_count(cpus, record)
    assert len(serial) == count
    assert forked == [serial, serial]


def test_warnings_from_code_without_a_source_file_reach_the_parent(cpus):
    namespace = {"warnings": warnings}
    source = "def task(i, rng):\n    warnings.warn(f'task {i}')\n    return i\n"
    exec(compile(source, "<generated>", "exec"), namespace)

    def record():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seeded_map(namespace["task"], 1, 6)
        return [(str(w.message), w.filename, w.lineno) for w in caught]

    serial, *forked = each_worker_count(cpus, record)
    assert len(serial) == 6
    assert forked == [serial, serial]


WARNING_SCRIPT = f"""
import sys, warnings
from abcgof import parallel
parallel._cpu_count = lambda: int(sys.argv[1])
{inspect.getsource(warn_by_group)}
parallel.seeded_map(warn_by_group, 1, 9)
warn_by_group(4, None)  # already shown under the default filter, by whichever process
"""


def stderr_by_worker_count(argv, stdin=None) -> list:
    """Stderr of `python *argv workers` at each of WORKERS, the package on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(parallel.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return [
        subprocess.run([sys.executable, *argv, str(workers)], env=env, input=stdin,
                       capture_output=True, text=True, check=True).stderr
        for workers in WORKERS
    ]


@pytest.mark.parametrize("options, count", [((), 4), (("-W", "always"), 14)])
def test_worker_warnings_print_on_stderr_as_the_serial_loop_prints_them(
    tmp_path, options, count
):
    script = tmp_path / "warn.py"
    script.write_text(WARNING_SCRIPT)
    stderr = stderr_by_worker_count([*options, str(script)])
    assert stderr[0].count("Warning: ") == count
    assert stderr[1:] == [stderr[0], stderr[0]]


@pytest.mark.parametrize("options, count", [((), 4), (("-W", "always"), 14)])
@pytest.mark.parametrize("program, stdin", [
    (["-c", WARNING_SCRIPT], None), (["-"], WARNING_SCRIPT),
], ids=["-c", "stdin"])
def test_warnings_of_code_run_by_c_or_stdin_print_as_the_serial_loop_prints_them(
    program, stdin, options, count
):
    # Such code has the file name <string> or <stdin> and runs in __main__.
    stderr = stderr_by_worker_count([*options, *program], stdin)
    assert stderr[0].count("Warning: ") == count
    assert stderr[1:] == [stderr[0], stderr[0]]


def test_without_fork_the_map_runs_serially(cpus, monkeypatch):
    cpus(3)
    monkeypatch.delattr(os, "fork")
    assert seeded_map(lambda i, rng: os.getpid(), 1, 5) == [os.getpid()] * 5


def test_more_workers_than_tasks(cpus):
    cpus(3)
    assert seeded_map(lambda i, rng: i, 1, 2) == [0, 1]
    assert seeded_map(lambda i, rng: i, 1, 0) == []
