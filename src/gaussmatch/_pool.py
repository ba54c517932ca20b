"""Ordered maps over forked worker processes, one per CPU.

``forked_map(function, state, tasks)`` returns ``function(state, task)``
for every task, in task order; ``verify`` runs its oracle fits through it.
The workers are forked from the caller, so they inherit ``state``, and
everything else the caller holds, without pickling; only the tasks and
their results cross a pipe.  Its tasks differ in cost by up to 100 times,
so a ``multiprocessing`` pool hands each to the next free worker;
``multiprocessing`` is imported only on that parallel path.

``ordered_texts(produce, tasks)`` is for tasks of equal cost, such as the
row blocks of the CSV writer: task i runs in process i % processes, the
caller being process 0, and the text of every task comes back in task
order, through plain ``os.fork`` children and raw pipes, without
``multiprocessing``.

Both run the work serially, in the calling process, where
``worker_count`` says.  A worker that dies, say at a signal, raises
ChildProcessError instead of leaving the caller waiting.
"""

from __future__ import annotations

import codecs
import os
import sys
import threading

# Seconds between checks that the forked workers are alive.
_WORKER_CHECK_S = 0.5

# The error when a worker has ended, say at a signal, followed by its exit code.
_WORKER_ENDED = "an oracle worker process ended with exit code"

# Most bytes of a child's result that ``ordered_texts`` reads and hands on at a time.
_PIECE_SIZE = 2**16

# The bytes of the length that goes before each result on a child's pipe.
_LENGTH_SIZE = 8


def worker_count(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks; 1 means run them in this process.

    One per CPU the process may run on, but 1 where a forked worker is
    unsafe or impossible: a single CPU, no ``sched_getaffinity`` (fork is
    not the safe default there), another live Python thread (forking a
    threaded process can deadlock on a lock held by that thread), no
    ``os.fork``, or, where ``multiprocessing`` is loaded, a daemonic caller
    (it may not have children) or no ``fork`` start method.  A daemonic
    caller is a ``multiprocessing`` process, so the module is loaded in it;
    this never imports it, which costs a few milliseconds.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    if cpus < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and (
        multiprocessing.current_process().daemon
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return 1
    return max(1, min(cpus, tasks))


def ordered_texts(produce, tasks: int):
    """Generator of the texts of tasks 0 to ``tasks - 1``, in task order.

    ``produce(first, step)`` is an iterator of the ``str`` results of tasks
    first, first + step, first + 2 * step, and so on.  The tasks run in
    ``worker_count(tasks // 2)`` processes, so that each gets two or more;
    with one, this is ``produce(0, 1)``.  Otherwise task i runs in process
    i % processes: process 0 is this one, which makes its own results
    between reads, and each other is an ``os.fork`` child that writes its
    results to its own pipe as UTF-8, each behind its length in bytes, and
    leaves by ``os._exit``, so that it runs none of the caller's exit
    handlers and flushes none of its buffered streams.  A child's result is
    handed on in pieces of at most ``_PIECE_SIZE`` bytes, so that the
    caller never holds a whole one; its own come whole.

    A child that ends before its last result raises
    ChildProcessError("an oracle worker process ended with exit code <code>").
    On any exception, the closing of the generator included, every child
    is killed; every child is waited for and every pipe closed before the
    generator ends.  Close it, say with ``contextlib.closing``, so that
    this happens before a caller's exception propagates.
    """
    workers = worker_count(tasks // 2)
    if workers == 1:
        yield from produce(0, 1)
        return
    pipes, pids = [], []  # the read end of each child's pipe, and the child
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
            except BaseException:
                os.close(write_end)
                raise
            if pid == 0:  # the child, which _serve ends
                _serve(produce(first, workers), write_end, pipes)
            os.close(write_end)
            pids.append(pid)
        own = produce(0, workers)
        for task in range(tasks):
            child = task % workers - 1
            if child < 0:
                yield next(own)
            else:
                yield from _relay(pipes[child], pids, child)
        for child in range(len(pids)):
            code = _reap(pids, child)
            if code:
                raise ChildProcessError(f"{_WORKER_ENDED} {code}")
    except BaseException:
        import signal  # here, as its import costs every command about a millisecond

        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for child in range(len(pids)):
            if pids[child] is not None:
                _reap(pids, child)
        for read_end in pipes:
            os.close(read_end)


def _serve(results, write_end: int, read_ends: list[int]) -> None:
    """Write each of the texts ``results`` to ``write_end`` as UTF-8 behind
    its length, then leave the process: exit code 0 once all are written,
    1 on any error.  The process's other ``read_ends`` are closed first."""
    code = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        for result in results:
            data = result.encode("utf-8")
            view = memoryview(len(data).to_bytes(_LENGTH_SIZE, "little") + data)
            while view:
                view = view[os.write(write_end, view):]
        code = 0
    finally:
        os._exit(code)


def _relay(read_end: int, pids: list, child: int):
    """Generator of the text of the next result on a child's pipe, decoded in
    pieces of at most ``_PIECE_SIZE`` bytes; ChildProcessError where the
    pipe ends first."""
    length = b""
    while len(length) < _LENGTH_SIZE:
        length += _read(read_end, _LENGTH_SIZE - len(length), pids, child)
    size = int.from_bytes(length, "little")
    decoder = codecs.getincrementaldecoder("utf-8")()
    while size:
        piece = _read(read_end, min(size, _PIECE_SIZE), pids, child)
        size -= len(piece)
        yield decoder.decode(piece, final=not size)


def _read(read_end: int, size: int, pids: list, child: int) -> bytes:
    """Up to ``size`` bytes of the pipe; at its end, the child has ended, so
    it is waited for and ChildProcessError raised with its exit code."""
    data = os.read(read_end, size)
    if not data:
        raise ChildProcessError(f"{_WORKER_ENDED} {_reap(pids, child)}")
    return data


def _reap(pids: list, child: int) -> int:
    """Wait for the child ``pids[child]``, mark it gone, and give its exit code."""
    _, status = os.waitpid(pids[child], 0)
    pids[child] = None
    return os.waitstatus_to_exitcode(status)


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
