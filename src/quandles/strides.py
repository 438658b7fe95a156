"""A map over a sized collection, split by index stride over forked workers.

Worker ``w`` of ``k`` maps the items whose index is ``w`` modulo ``k``, and the
results are merged back into index order, so the caller sees what a serial
map returns.  Strides rather than blocks keep the workers evenly loaded on
enumerations that ascend in size.  The workers are forked: they inherit the
function and the collection from the caller, and each iterates the
collection itself, keeping only its own stride.  So a collection that
enumerates its items afresh on each pass is never held whole by any
process.  The workers send back only their results, which should be small
(counts, indices, strings), as a run of pickles of ``_CHUNK`` results each;
the caller unpickles them one at a time into the merged list, so neither
side builds a stride's results as a list of their own.

Only callers that ask for more than one worker get processes.  Forking is
unsafe in a process that runs threads, so the library never forks by
default; the command line asks, since it runs none.
"""

from __future__ import annotations

import io
import itertools
import sys
from typing import Callable, Collection, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# what a forked worker maps: (function, items), set in the worker by _adopt
_job: tuple[Callable, Collection] | None = None


def _adopt(fn: Callable, items: Collection) -> None:
    global _job
    _job = fn, items


_CHUNK = 4096  # results per pickle that a worker sends back


def _map_slice(w: int, k: int) -> bytes:
    import pickle  # loaded before the pool was forked

    fn, items = _job
    stride = itertools.islice(iter(items), w, None, k)
    sent = io.BytesIO()
    while chunk := [fn(item) for item in itertools.islice(stride, _CHUNK)]:
        pickle.dump(chunk, sent, pickle.HIGHEST_PROTOCOL)
    return sent.getvalue()


def strided_map(fn: Callable[[T], R], items: Collection[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]``, in up to ``workers`` processes.

    ``items`` is any sized collection that can be iterated more than once,
    in the same order each time: a list, or an object whose ``__len__`` is
    a count and whose ``__iter__`` enumerates afresh.

    With ``workers`` > 1, more than one item and the ``fork`` start method
    available, ``min(workers, len(items))`` forked workers each map one
    stride of ``items``, enumerating ``items`` for itself and keeping only
    that stride, and the strides are merged into the result a chunk at a
    time as they are read; otherwise the map runs here and no process is
    made.  An exception raised by ``fn`` in a worker is raised here, after
    every worker has been joined.
    """
    n = len(items)
    k = min(workers, n)
    if k > 1:
        import multiprocessing  # here, so that importing the package stays cheap

        if "fork" in multiprocessing.get_all_start_methods():
            import pickle
            from concurrent.futures import ProcessPoolExecutor

            # a forked worker flushes the std streams it inherited when it exits
            sys.stdout.flush()
            sys.stderr.flush()
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(k, context, initializer=_adopt, initargs=(fn, items)) as pool:
                strides = pool.map(_map_slice, range(k), [k] * k)
                out: list = [None] * n  # once the workers are forked, so they do not carry it
                for w, sent in enumerate(strides):
                    received = io.BytesIO(sent)
                    for start in range(w, n, k * _CHUNK):
                        out[start : start + k * _CHUNK : k] = pickle.load(received)
            return out
    return [fn(item) for item in items]
