"""Ordered map over forked worker processes, one per CPU.

``forked_map(function, state, tasks)`` returns ``function(state, task)``
for every task, in task order; ``verify`` runs its oracle fits through it.
The workers are forked from the caller, so they inherit ``state``, and
everything else the caller holds, without pickling; only the tasks and
their results cross a pipe.  The work runs serially, in the calling
process, where ``worker_count`` says.
``multiprocessing`` is imported only on the parallel path.  A worker that
dies, say at a signal, raises ChildProcessError instead of leaving the
caller waiting.
"""

from __future__ import annotations

import os
import threading

# Seconds between checks that the forked workers are alive.
_WORKER_CHECK_S = 0.5

# The error when a worker has ended, say at a signal, followed by its exit code.
_WORKER_ENDED = "an oracle worker process ended with exit code"


def worker_count(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks; 1 means run them in this process.

    One per CPU the process may run on, but 1 where a forked worker is
    unsafe or impossible: a single CPU, no ``sched_getaffinity`` (fork is
    not the safe default there), another live Python thread (forking a
    threaded process can deadlock on a lock held by that thread), a
    daemonic caller (it may not have children), or no ``fork`` start method.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    if cpus < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    process = multiprocessing.current_process()
    if process.daemon or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(cpus, tasks)


# The function and state of a forked pool worker, set by ``_adopt`` in the
# worker only: the calling process passes them as arguments, so that
# concurrent maps share no state.
_worker_job = None


def _adopt(function, state) -> None:
    global _worker_job
    _worker_job = (function, state)


def _run(task):
    function, state = _worker_job
    return function(state, task)


def forked_map(function, state, tasks) -> list:
    """``function(state, task)`` for each task of the list, in task order.

    Across ``worker_count`` processes the first failure in task order is
    raised, as in a serial run, and a worker that has ended raises
    ChildProcessError("an oracle worker process ended with exit code <code>").
    The pool is closed, or on any error terminated, and joined before this
    returns.
    """
    workers = worker_count(len(tasks))
    if workers == 1:
        return [function(state, task) for task in tasks]
    import multiprocessing

    others = set(multiprocessing.active_children())
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_adopt, initargs=(function, state)
    )
    try:
        forked = set(multiprocessing.active_children()) - others
        found = pool.imap(_run, tasks, chunksize=1)
        results = [_next_result(found, forked) for _ in tasks]
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results


def _next_result(found, workers):
    """The next result of a pool's ``imap``; ChildProcessError once one of its
    ``workers`` has ended, because the pool would wait for that task for ever."""
    import multiprocessing

    while True:
        try:
            return found.next(timeout=_WORKER_CHECK_S)
        except multiprocessing.TimeoutError:
            ended = [worker.exitcode for worker in workers if worker.exitcode is not None]
            if ended:
                raise ChildProcessError(f"{_WORKER_ENDED} {ended[0]}") from None
