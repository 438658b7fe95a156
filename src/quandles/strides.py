"""A fold over a sized collection, split by index stride over forked workers.

Worker ``w`` of ``k`` folds the items whose index is ``w`` modulo ``k``, as an
iterator of ``(index, item)`` pairs, and sends back only what the fold
returns: one summary per stride, which the caller combines.  Strides rather
than blocks keep the workers evenly loaded on enumerations that ascend in
size.  The workers are forked: they inherit the function and the collection
from the caller, and each iterates the collection itself, keeping only its
own stride.  So a collection that enumerates its items afresh on each pass
is never held whole by any process, and the caller holds only the summaries.

Only callers that ask for more than one worker get processes.  Forking is
unsafe in a process that runs threads, so the library never forks by
default; the command line asks, since it runs none.
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Collection, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# what a forked worker folds: (function, items), set in the worker by _adopt
_job: tuple[Callable, Collection] | None = None


def _adopt(fn: Callable, items: Collection) -> None:
    global _job
    _job = fn, items


def _fold_stride(w: int, k: int):
    fn, items = _job
    return fn(itertools.islice(enumerate(items), w, None, k))


def strided_fold(fn: Callable[[Iterator[tuple[int, T]]], R], items: Collection[T], workers: int) -> list[R]:
    """``fn`` applied to each stride of ``enumerate(items)``, in up to
    ``workers`` processes: one result per stride.

    ``items`` is any sized collection that can be iterated more than once,
    in the same order each time: a list, or an object whose ``__len__`` is
    a count and whose ``__iter__`` enumerates afresh.  ``fn`` gets an
    iterator over ``(index, item)`` pairs in index order, and its results
    are what a stride sends back, so they should be small.

    With ``workers`` > 1, more than one item and the ``fork`` start method
    available, ``min(workers, len(items))`` forked workers each fold one
    stride of ``items``, enumerating ``items`` for itself and keeping only
    that stride, and the results come in stride order; otherwise the fold
    runs here, over all of ``items`` as one stride, and no process is made.
    An exception raised by ``fn`` in a worker is raised here, after every
    worker has been joined.
    """
    k = min(workers, len(items))
    if k > 1:
        import multiprocessing  # here, so that importing the package stays cheap

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # a forked worker flushes the std streams it inherited when it exits
            sys.stdout.flush()
            sys.stderr.flush()
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(k, context, initializer=_adopt, initargs=(fn, items)) as pool:
                return list(pool.map(_fold_stride, range(k), [k] * k))
    return [fn(enumerate(items))]
