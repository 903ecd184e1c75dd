"""Random streams and the order-preserving map that runs the Monte Carlo work.

Every task of :func:`seeded_map` owns a pre-derived random stream, so its
result depends only on its index and the seed, never on the tasks run before
it or on the process that runs it. :func:`seeded_blocks` splits the indices
into one contiguous block per CPU this process may run on, forks a worker for
every block but the first, runs the first block itself and collects the
workers' results, in order, through pipes. A block function gets its block's
indices and the maker of each index's stream, so it may compute its rows
together (the reference table does) while each row keeps its own stream;
:func:`seeded_map` is the block function that runs one task per index. The
result is the same bytes for any number of workers. It runs serially in the
calling process when there is one CPU, when the platform has no ``os.fork``
and inside a task of another map.
A worker records the warnings its block raises, and the parent issues them
again, in task order, so that its filters, its record of warnings already
shown and its ``catch_warnings`` see what the serial loop gives.

All streams come from one master seed (an int or a ``SeedSequence``) through
:func:`children`, which never mutates its argument, so the same seed always
gives the same streams: two consumers (a table and a null, say) given one
seed share streams, so give them different children of it. The layout,
child by child:

- reference table (:func:`abcgof.models.build_reference_table`): row i
  draws its parameters and simulates on child i of the seed; the rows are
  computed one block per worker, each row on its own generator;
- prior null (:func:`abcgof.gof.null_distribution_prior`; ``gfit``): the
  seed itself chooses the M pseudo-observed rows (no randomness if M = n);
- posterior null (:func:`abcgof.gof.null_distribution_post`): child 0
  chooses the rows as above, child 1 spawns one stream per null replicate
  j, which draws and simulates all n' posterior replicates of row j;
- :func:`abcgof.gof.gfit_post`: child 0 draws the observed data's n'
  replicates, child 1 seeds the posterior null;
- a study (:mod:`abcgof.harness`): child 0 builds the table, child 1 seeds
  the null, child 2 spawns one stream per dataset, which draws the
  dataset's prior-predictive truth, then (posterior statistic) its replicates.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings

import numpy as np

# True while this process runs a block of seeded_blocks, the parent's own or a
# worker's, so that a map inside a task runs serially instead of forking again
# onto CPUs the outer map already uses.
_in_task = False


def _root(seed) -> np.random.SeedSequence:
    """`seed` as a SeedSequence; None draws its entropy once, here."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _child(root: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """Child i of `root`: the stream ``root.spawn`` gives as its i-th child."""
    return np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + (i,), pool_size=root.pool_size
    )


def children(seed, n: int) -> list[np.random.SeedSequence]:
    """The n streams ``SeedSequence(seed).spawn(n)`` gives, without mutating `seed`."""
    root = _root(seed)
    return [_child(root, i) for i in range(n)]


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]``, run serially.

    Its only caller in the package is :func:`seeded_map`; it stays a name of
    its own because perfbench's tracer wraps it, and `threads` is ignored,
    kept only because that tracer passes it.
    """
    return [fn(item) for item in items]


def seeded_map(fn, seed, n: int) -> list:
    """``[fn(i, rng_i) for i in range(n)]``, rng_i a generator on child i of `seed`.

    The one-task-per-index case of :func:`seeded_blocks`, so `fn` reaches the
    workers through ``fork``, its results come back pickled, and a failure
    raises what the serial loop raises: the exception of the lowest failing
    index.
    """
    def block(indices, rng):
        return parallel_map(lambda i: fn(i, rng(i)), indices)

    return [result for results in seeded_blocks(block, seed, n) for result in results]


def seeded_blocks(block_fn, seed, n: int) -> list:
    """``block_fn(indices, rng)`` for each contiguous block of ``range(n)``, in order.

    ``rng(i)`` returns a new generator on child i of `seed`, so the result of
    index i may depend on its own stream only, whichever block holds it.
    There is one block per worker process, up to one per available CPU (see
    the module docstring), and ``block_fn`` reaches the workers through
    ``fork``. A worker's result comes back pickled, as ``block_fn`` returned
    it, so a block's result has the same type whichever process ran it. A
    failure raises what the serial loop over the blocks raises: the
    exception of the lowest failing block. Every worker has exited and been
    reaped when this returns or raises.
    """
    root = _root(seed)
    workers = 1 if _in_task or not hasattr(os, "fork") else min(n, _cpu_count())
    if workers <= 1:
        return [_run_block(block_fn, root, range(n))]
    bounds = [n * w // workers for w in range(workers + 1)]
    return _forked_map(block_fn, root, list(zip(bounds, bounds[1:])))


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_block(block_fn, root, indices):
    """One block in this process, index i's generators on child i of `root`."""
    global _in_task
    outer, _in_task = _in_task, True
    try:
        return block_fn(indices, lambda i: np.random.default_rng(_child(root, i)))
    finally:
        _in_task = outer


def _forked_map(block_fn, root, blocks) -> list:
    """Fork one worker per block after the first, run the first here, gather in order."""
    pids, pipes = [], []  # pids not yet reaped; read ends, one per worker
    try:
        for lo, hi in blocks[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = _fork()
                if pid == 0:
                    _worker(block_fn, root, range(lo, hi), write_fd)  # never returns
                pids.append(pid)
            finally:
                os.close(write_fd)  # the worker's copy alone stays open, so EOF means it is done
        results = [_run_block(block_fn, root, range(*blocks[0]))]
        for (lo, hi), pipe in zip(blocks[1:], pipes):
            data = pipe.read()
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status != 0 or not data:  # a worker that wrote its results exits 0
                raise RuntimeError(
                    f"the worker for tasks {lo} to {hi - 1} died without sending its "
                    f"results ({_describe(status)})"
                )
            ok, value, shown = pickle.loads(data)
            _reissue(shown)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # left only after a failure or an interrupt
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _fork() -> int:
    # Python 3.12 warns on fork in a process with several OS threads. Here
    # they are numpy's OpenBLAS pool, which quiesces itself around fork with
    # pthread_atfork handlers, and a worker takes no lock another thread may
    # hold: it runs Python and numpy code, writes one pipe and leaves by
    # os._exit. So the warning is silenced for this one call; were it turned
    # into an error, the parent would lose the pid of a child already made.
    # Changing the filters resets the "once per location" record of every
    # warning, so it is done only on the versions that warn.
    if sys.version_info < (3, 12):
        return os.fork()
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=r"This process .* is multi-threaded", category=DeprecationWarning
        )
        return os.fork()


def _worker(block_fn, root, indices, write_fd) -> None:
    """Run one block in a forked child, send (ok, results or exception, warnings), and exit.

    The warnings are those the child's filters let through; the parent issues
    them again (:func:`_reissue`). The child leaves by ``os._exit``, so the
    stdio buffers and ``atexit`` handlers it inherited never run twice, and
    whatever happens it never returns into the parent's code.
    """
    status = 1
    try:
        with warnings.catch_warnings(record=True) as shown:
            try:
                ok, value = True, _run_block(block_fn, root, indices)
            except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
                ok, value = False, exc
        data = _encode(ok, value, [(w.message, w.filename, w.lineno) for w in shown])
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _encode(ok: bool, value, shown: list) -> bytes:
    """Pickle (ok, value, shown); what cannot make the round trip becomes a RuntimeError."""
    try:
        data = pickle.dumps((ok, value, shown), protocol=pickle.HIGHEST_PROTOCOL)
        if not ok or shown:
            pickle.loads(data)  # an exception or a warning may pickle but fail to rebuild
        return data
    except Exception as exc:  # noqa: BLE001 - report it to the parent instead
        what = f"{type(value).__name__}: {value}" if not ok else "its results or warnings"
        message = f"a worker could not send {what} ({type(exc).__name__}: {exc})"
        return pickle.dumps((False, RuntimeError(message), []))


def _reissue(shown: list) -> None:
    """Issue a worker's warnings in this process, as the code that raised them would.

    Each goes through this process's filters and the record of warnings
    already shown of the module it was raised in, so a warning shown once per
    location is shown once, whichever process raised it. Code run by
    ``python -c`` or from stdin has the file name ``<string>`` or ``<stdin>``
    and runs in ``__main__``, so that module's record serves it. Other code
    with no source file among the imported modules (``exec`` of a string,
    say) has no such record here, so its warnings are shown once per process
    that raised them.
    """
    if not shown:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, filename, lineno in shown:
        in_main = filename in ("<string>", "<stdin>")
        module = sys.modules.get("__main__") if in_main else modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, type(message), filename, lineno)
            continue
        namespace = vars(module)
        warnings.warn_explicit(
            message, type(message), filename, lineno, module=module.__name__,
            registry=namespace.setdefault("__warningregistry__", {}),
            # there __main__'s loader raises ImportError when asked for the source
            module_globals=None if in_main else namespace,
        )


def _describe(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
