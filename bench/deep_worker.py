"""Child process for the deep-terms workload: one verdict per request line.

Reads JSON requests ``{"left", "right", "theory", "budget_s"}`` from stdin,
one per line, and answers each with one JSON line
``{"verdict": bool | null, "seconds": float, "kind": null | "budget" | "exception",
"error": str, "rss_mb": float}`` before reading the next, so the parent drives
a closed loop.  ``rss_mb`` is the process's peak resident set so far.
The verdict is ``quandles.parse`` on both sides, then ``quandles.term_equal``,
interrupted by SIGALRM when it exceeds its budget.  The address space is
capped so that a runaway normal form raises MemoryError here instead of
exhausting the machine.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

ADDRESS_SPACE_BYTES = 3 << 30
GENERATORS = 64


class BudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetExceeded


def verdict(parse, term_equal, request: dict) -> dict:
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, request["budget_s"])
    try:
        try:
            left = parse(request["left"], GENERATORS)
            right = parse(request["right"], GENERATORS)
            equal = term_equal(left, right, request["theory"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return {"verdict": None, "seconds": time.perf_counter() - start, "kind": "budget", "error": ""}
    except (RecursionError, MemoryError, ValueError) as exc:
        return {"verdict": None, "seconds": time.perf_counter() - start, "kind": "exception",
                "error": type(exc).__name__}
    return {"verdict": equal, "seconds": time.perf_counter() - start, "kind": None, "error": ""}


def main() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    signal.signal(signal.SIGALRM, _alarm)
    from quandles import parse, term_equal

    for line in sys.stdin:
        result = verdict(parse, term_equal, json.loads(line))
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
