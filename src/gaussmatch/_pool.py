"""Ordered maps over forked worker processes, one per CPU.

Every map forks its workers with plain ``os.fork``: the children inherit
the caller's state, and everything else it holds, without pickling; each
writes its results to its own pipe, each behind its length in bytes, and
leaves by ``os._exit``, so that it runs none of the caller's exit handlers
and flushes none of its buffered streams.  The end of a child's pipe
before its last result means that it died, say at a signal or at an
exception of its work, which ends it with exit code 1, and raises
ChildProcessError instead of leaving the caller waiting.  On any error
every child is killed, and every child is waited for and every pipe
closed before the error reaches the caller.  No module imports
``multiprocessing``.

``forked_map(function, state, tasks)`` returns ``function(state, task)``
for every task, in task order; ``verify`` runs its oracle fits through it.
Its tasks differ in cost by up to 100 times, so they are handed out on
demand: every process, the caller too, takes the next task index from one
shared pipe, filled in task order before the fork, until the pipe is
empty.

``ordered_texts(produce, tasks)`` and ``ordered_values(produce, tasks)``
are for tasks of about equal cost, such as the row blocks of the CSV
writer and the byte ranges of a points file: task i runs in process
i % processes, and the result of every task comes back in task order, so
that the caller can fold the results as they arrive and hold only one.
``ordered_texts`` relays a child's text in pieces; ``ordered_values``
pickles each result, such as the moment sums of a range.  Their caller
only relays: it makes no result itself, so that its own memory, which
holds what the children inherit, such as the whitening map or the image,
does not grow by a task's.

Every map runs the work serially, in the calling process, where
``worker_count`` says.
"""

from __future__ import annotations

import codecs
import os
import pickle
import threading
from contextlib import contextmanager
from functools import partial

# The error when a worker has ended, say at a signal, followed by its exit code.
_WORKER_ENDED = "a worker process ended with exit code"

# Most bytes of a child's results that are read, or handed on, at a time.
_PIECE_SIZE = 2**16

# The bytes of the length that goes before each result on a child's pipe.
_LENGTH_SIZE = 8

# The bytes of one entry of ``forked_map``'s task pipe, and the most entries:
# 4096 bytes, Linux's PIPE_BUF, which an empty pipe takes in one write.
_ENTRY_SIZE = 4
_MAX_ENTRIES = 1024


def worker_count(tasks: int) -> int:
    """Worker processes for ``tasks`` tasks; 1 means run them in this process.

    One per CPU the process may run on, but 1 where a forked worker is
    unsafe or impossible: a single CPU, no ``sched_getaffinity`` (fork is
    not the safe default there), another live Python thread (forking a
    threaded process can deadlock on a lock held by that thread), or no
    ``os.fork``.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    if cpus < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    return max(1, min(cpus, tasks))


@contextmanager
def _forked(children: int, results):
    """Fork ``children`` children and yield (their pipes' read ends, their pids).

    Child k, from 0, writes each of the ``bytes`` of ``results(k)`` to its
    own pipe behind its length, through ``_serve``.  On any exception every
    child is killed; on leaving, every child is waited for and every pipe
    closed."""
    pipes, pids = [], []  # the read end of each child's pipe, and the child
    try:
        for child in range(children):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
            except BaseException:
                os.close(write_end)
                raise
            if pid == 0:  # the child, which _serve ends
                _serve(results, child, write_end, pipes)
            os.close(write_end)
            pids.append(pid)
        yield pipes, pids
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


def _serve(results, child: int, write_end: int, read_ends: list[int]) -> None:
    """Write each of the ``bytes`` of ``results(child)`` to ``write_end``
    behind its length, then leave the process: exit code 0 once all are
    written, 1 on any error.  The process's ``read_ends`` are closed first."""
    code = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        for data in results(child):
            view = memoryview(len(data).to_bytes(_LENGTH_SIZE, "little") + data)
            while view:
                view = view[os.write(write_end, view):]
        code = 0
    finally:
        os._exit(code)


def _reap(pids: list, child: int) -> int:
    """Wait for the child ``pids[child]``, mark it gone, and give its exit code."""
    _, status = os.waitpid(pids[child], 0)
    pids[child] = None
    return os.waitstatus_to_exitcode(status)


def _reap_all(pids: list) -> None:
    """Wait for every child that is left; ChildProcessError for the first that failed."""
    for child in range(len(pids)):
        code = _reap(pids, child)
        if code:
            raise ChildProcessError(f"{_WORKER_ENDED} {code}")


def ordered_texts(produce, tasks: int):
    """Generator of the texts of tasks 0 to ``tasks - 1``, in task order.

    ``produce(first, step)`` is an iterator of the ``str`` results of tasks
    first, first + step, first + 2 * step, and so on; they run as
    ``_ordered`` says.  A child writes each result as UTF-8 once it is
    whole, so that it makes its next while the caller reads, and the caller
    hands it on in pieces of at most ``_PIECE_SIZE`` bytes, so that it never
    holds a whole one.
    """
    return _ordered(produce, tasks, str.encode, _relay_text)


def ordered_values(produce, tasks: int):
    """Generator of the results of tasks 0 to ``tasks - 1``, in task order.

    ``produce(first, step)`` is an iterator of the results of tasks first,
    first + step, and so on, which must pickle; they run as ``_ordered``
    says.  A child's result is read whole and unpickled.
    """
    return _ordered(produce, tasks, pickle.dumps, _relay_value)


def _ordered(produce, tasks: int, encode, relay):
    """Generator of what ``relay`` reads of the results of tasks 0 to
    ``tasks - 1``, in task order.

    The tasks run in ``worker_count(tasks // 2)`` processes, so that each
    gets two or more; with one, this is ``produce(0, 1)`` in this process.
    Otherwise task i runs in forked child i % processes, which writes each
    result, ``encode``d, to its pipe, and ``relay`` reads it there.  A
    task that can fail in a way the caller handles should give a result
    that says so: an exception of a child's work ends the child.

    A child that ends before its last result raises
    ChildProcessError("a worker process ended with exit code <code>").
    The closing of the generator kills the children too.  Close it, say
    with ``contextlib.closing``, so that this happens before a caller's
    exception propagates.
    """
    workers = worker_count(tasks // 2)
    if workers == 1:
        yield from produce(0, 1)
        return
    with _forked(workers, lambda first: map(encode, produce(first, workers))) as (pipes, pids):
        for task in range(tasks):
            yield from relay(pipes[task % workers], pids, task % workers)
        _reap_all(pids)


def _relay_text(read_end: int, pids: list, child: int):
    """Generator of the text of the next result on a child's pipe, decoded in
    pieces of at most ``_PIECE_SIZE`` bytes."""
    size = _result_size(read_end, pids, child)
    decoder = codecs.getincrementaldecoder("utf-8")()
    while size:
        piece = _read(read_end, min(size, _PIECE_SIZE), pids, child)
        size -= len(piece)
        yield decoder.decode(piece, final=not size)


def _relay_value(read_end: int, pids: list, child: int):
    """Generator of the one unpickled value of the next result on a child's pipe."""
    yield pickle.loads(_read_all(read_end, _result_size(read_end, pids, child), pids, child))


def _result_size(read_end: int, pids: list, child: int) -> int:
    """The size of the next result on a child's pipe."""
    return int.from_bytes(_read_all(read_end, _LENGTH_SIZE, pids, child), "little")


def _read_all(read_end: int, size: int, pids: list, child: int) -> bytearray:
    """The next ``size`` bytes of a child's pipe."""
    data = bytearray()
    while len(data) < size:
        data += _read(read_end, min(size - len(data), _PIECE_SIZE), pids, child)
    return data


def _read(read_end: int, size: int, pids: list, child: int) -> bytes:
    """Up to ``size`` bytes of the pipe; at its end, the child has ended, so
    it is waited for and ChildProcessError raised with its exit code."""
    data = os.read(read_end, size)
    if not data:
        raise ChildProcessError(f"{_WORKER_ENDED} {_reap(pids, child)}")
    return data


def forked_map(function, state, tasks) -> list:
    """``function(state, task)`` for each task of the list, in task order.

    Every process, this one included, takes task indices from the shared
    pipe one entry at a time, each entry the first of ``chunk`` tasks
    (one, for up to ``_MAX_ENTRIES`` tasks), and runs them.  A child
    pickles each ``(index, failed, result or exception)``; this process
    gathers what its children have written between its own tasks, so that
    no child waits on a full pipe for long, and the rest once its tasks are
    done.  A child that has ended early raises
    ChildProcessError("a worker process ended with exit code <code>");
    otherwise the first failure in task order is raised, as in a serial
    run, once the tasks before it are done.  The process that meets a
    failure empties the task pipe, so that the others take no more tasks.
    """
    workers = worker_count(len(tasks))
    if workers == 1:
        return [function(state, task) for task in tasks]
    chunk = -(-len(tasks) // _MAX_ENTRIES)
    queue, fill = os.pipe()
    try:
        try:
            os.write(fill, b"".join(first.to_bytes(_ENTRY_SIZE, "little")
                                    for first in range(0, len(tasks), chunk)))
        finally:
            os.close(fill)
        taken = partial(_outcomes, function, state, tasks, queue, chunk)
        with _forked(workers - 1, lambda child: map(pickle.dumps, taken())) as (pipes, pids):
            buffers = [bytearray() for _ in pipes]
            outcomes = {}
            for index, *outcome in taken():
                outcomes[index] = outcome
                _gather(pipes, buffers, wait=False)
            _gather(pipes, buffers, wait=True)
            _reap_all(pids)
    finally:
        os.close(queue)
    for data in buffers:
        at = 0
        while at < len(data):
            size = int.from_bytes(data[at:at + _LENGTH_SIZE], "little")
            at += _LENGTH_SIZE + size
            index, *outcome = pickle.loads(data[at - size:at])
            outcomes[index] = outcome
    results = []
    for index in range(len(tasks)):  # the tasks after a failure have no outcome
        failed, value = outcomes[index]
        if failed:
            raise value
        results.append(value)
    return results


def _outcomes(function, state, tasks, queue: int, chunk: int):
    """Generator of ``(index, failed, result or exception)`` for every task
    this process takes from the ``queue`` pipe, until the pipe is empty.

    After a failure it empties the pipe and ends: the pipe holds tasks in
    order, so every task left in it comes after the failure, and every
    earlier one is already taken, to be finished by whichever process
    took it."""
    while entry := os.read(queue, _ENTRY_SIZE):
        first = int.from_bytes(entry, "little")
        for index in range(first, min(first + chunk, len(tasks))):
            try:
                outcome = index, False, function(state, tasks[index])
            except Exception as error:
                outcome = index, True, error
            yield outcome
            if outcome[1]:
                while os.read(queue, _PIECE_SIZE):
                    pass
                return


def _gather(read_ends: list[int], buffers: list[bytearray], wait: bool) -> None:
    """Add to each buffer what its pipe holds: with ``wait``, all of it, up
    to the pipe's end, and otherwise what is there now."""
    for read_end, buffer in zip(read_ends, buffers):
        os.set_blocking(read_end, wait)
        try:
            while data := os.read(read_end, _PIECE_SIZE):
                buffer += data
        except BlockingIOError:
            pass
