"""A map over a list, split by index stride over forked worker processes.

Worker ``w`` of ``k`` maps the items whose index is ``w`` modulo ``k``, and the
results are merged back into index order, so the caller sees what a serial
map returns.  Strides rather than blocks keep the workers evenly loaded on
enumerations that ascend in size.  The workers are forked: they inherit the
function and the items from the caller, and send back only their results,
which should be small (counts, indices, strings).

Only callers that ask for more than one worker get processes.  Forking is
unsafe in a process that runs threads, so the library never forks by
default; the command line asks, since it runs none.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# what a forked worker maps: (function, items), set in the worker by _adopt
_job: tuple[Callable, Sequence] | None = None


def _adopt(fn: Callable, items: Sequence) -> None:
    global _job
    _job = fn, items


def _map_slice(w: int, k: int) -> list:
    fn, items = _job
    return [fn(item) for item in items[w::k]]


def strided_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]``, in up to ``workers`` processes.

    With ``workers`` > 1, more than one item and the ``fork`` start method
    available, ``min(workers, len(items))`` forked workers each map one
    stride of ``items``; otherwise the map runs here and no process is made.
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
                slices = list(pool.map(_map_slice, range(k), [k] * k))
            out: list = [None] * len(items)
            for w, part in enumerate(slices):
                out[w::k] = part
            return out
    return [fn(item) for item in items]
