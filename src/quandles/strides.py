"""A fold over a sized collection, split by index stride over forked workers.

Worker ``w`` of ``k`` folds the items whose index is ``w`` modulo ``k``, as an
iterator of ``(index, item)`` pairs, and sends back only what the fold
returns: one summary per stride, which the caller combines.  Strides rather
than blocks keep the workers evenly loaded on enumerations that ascend in
size.  The workers are forked with ``os.fork``: they inherit the function and
the collection from the caller, and each iterates the collection itself,
keeping only its own stride.  So a collection that enumerates its items
afresh on each pass is never held whole by any process, and the caller holds
only the summaries.  Each worker writes its one pickled summary, or the
exception its fold raised, to a pipe of its own and leaves through
``os._exit``; no pool, and neither ``multiprocessing`` nor
``concurrent.futures``, is loaded.

Only callers that ask for more than one worker get processes.  Forking is
unsafe in a process that runs threads, so the library never forks by
default; the command line asks, since it runs none.
"""

from __future__ import annotations

import itertools
import os
import sys
from typing import Callable, Collection, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerLost(RuntimeError):
    """A forked worker ended without sending back its summary."""


def strided_fold(fn: Callable[[Iterator[tuple[int, T]]], R], items: Collection[T], workers: int) -> list[R]:
    """``fn`` applied to each stride of ``enumerate(items)``, in up to
    ``workers`` processes: one result per stride.

    ``items`` is any sized collection that can be iterated more than once,
    in the same order each time: a list, or an object whose ``__len__`` is
    a count and whose ``__iter__`` enumerates afresh.  ``fn`` gets an
    iterator over ``(index, item)`` pairs in index order, and its results
    are what a stride sends back, so they should be small.

    With ``workers`` > 1, more than one item and ``os.fork`` available,
    ``min(workers, len(items))`` forked workers each fold one stride of
    ``items``, enumerating ``items`` for itself and keeping only that
    stride, and the results come in stride order; otherwise the fold runs
    here, over all of ``items`` as one stride, and no process is made.  The
    std streams are flushed before forking.  An exception raised by ``fn``
    in a worker is raised here after every worker has been reaped, that of
    the lowest stride first; a worker that ends without a result raises
    ``WorkerLost``, which names it.  Any exception here while the workers
    run, an interrupt among them, kills and reaps them before it goes on.
    """
    k = min(workers, len(items))
    if k <= 1 or not hasattr(os, "fork"):
        return [fn(enumerate(items))]
    import pickle  # here, so that a launch that makes no process loads neither
    import signal

    # a forked worker writes to the std streams it inherited; leave it
    # nothing buffered to write twice.  A stream is None where the process
    # was started with its descriptor closed.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    parent = os.getpid()
    pids: list[int] = []
    pipes: list[int] = []
    statuses: list[int] = []
    try:
        for w in range(k):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, w, k, write)  # does not return
            finally:
                os.close(write)  # so that the pipe ends when the worker does
            pids.append(pid)
        sent = []
        for read in pipes:
            with open(read, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
        for pid in pids:
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        if os.getpid() != parent:  # a worker interrupted before it began
            os._exit(1)
        for pid in pids[len(statuses):]:  # the caller is leaving by an exception
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for read in pipes:
            os.close(read)
    results = []
    for w, (pid, data, status) in enumerate(zip(pids, sent, statuses)):
        if status or not data:
            code = os.waitstatus_to_exitcode(status)
            ending = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerLost(f"stride worker {w} of {k} (pid {pid}) ended with {ending} before sending its result")
        ok, result = pickle.loads(data)
        if not ok:
            raise result
        results.append(result)
    return results


def _work(fn: Callable, items: Collection, w: int, k: int, write: int) -> None:
    """In a forked worker: fold stride ``w`` of ``k``, write the pickled
    ``(True, summary)``, or ``(False, exception)``, to ``write`` and leave
    through ``os._exit``, so that no handler or buffer of the caller's runs
    twice."""
    code = 1
    try:
        import pickle

        try:
            data = pickle.dumps((True, fn(itertools.islice(enumerate(items), w, None, k))))
        except BaseException as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except BaseException:  # an exception that does not survive pickling
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)

