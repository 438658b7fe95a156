"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions of each ``quandles`` module and
rebinds every name that refers to them, in every module of the package, so
that calls through ``from .terms import subst`` are traced like calls through
``terms.subst``.  Each wrapped call opens a span with a name, start, end and
parent.  Root spans, the calls the benchmark makes itself (``cli.main``,
``run_suite``, or ``parse`` and ``term_equal`` for a deep pair), are kept
individually; the others are aggregated per (function, parent), with
call count, total time and self time, since functions such as ``words.mul``
and ``Node.__hash__`` are entered millions of times.  Self time is a span's
duration minus the time its child spans cover.

Recursive functions get a span only at their outermost call: while it runs,
the module-level name is pointed back at the original function, so the
recursion runs at full speed and with the program's own stack depth.
``Node.__hash__`` recurses through the type slot instead; there every call is
counted and only the outermost one is timed.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from typing import Callable

LAYERS = ("cli", "terms", "words", "translate", "decide", "isotropy", "rewrite", "suites")

PLAIN, RECURSIVE, GENERATOR = "plain", "recursive", "generator"

# layer -> (function, how it is wrapped)
WRAPPED = {
    "cli": (("main", PLAIN),),
    "terms": (
        ("parse", PLAIN),
        ("render", RECURSIVE),
        ("subst", RECURSIVE),
        ("subst_many", RECURSIVE),
        ("size", RECURSIVE),
        ("enumerate_terms", GENERATOR),
    ),
    "words": (("mul", PLAIN), ("inv", PLAIN), ("reduce", PLAIN), ("subst", PLAIN)),
    "translate": (("quandle_image", RECURSIVE), ("rack_image", RECURSIVE), ("head_conjugate", PLAIN)),
    "decide": (("quandle_equal", PLAIN), ("rack_equal", PLAIN), ("term_equal", PLAIN)),
    "isotropy": (
        ("canon", PLAIN),
        ("quandle_canon", PLAIN),
        ("rack_canon", PLAIN),
        ("commutes_generically", PLAIN),
        ("quandle_inner_witness", PLAIN),
        ("rack_inner_witness", PLAIN),
        ("apply_inner", PLAIN),
        ("apply_hom", PLAIN),
    ),
    "rewrite": (("rewrite_neighbors", PLAIN), ("rewrite_closure", PLAIN), ("cross_validate", PLAIN)),
    "suites": (
        ("run_suite", PLAIN),
        ("quandle_member_by_definition", PLAIN),
        ("rack_member_by_definition", PLAIN),
    ),
}


class _Fn:
    __slots__ = ("name", "layer", "calls", "active")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.active = False


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [fn, time covered by children]
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.roots: list[tuple[str, float, float]] = []
        self.fns: dict[str, _Fn] = {}
        self.quiet = False
        self.counters = {
            "parse_bytes": 0,
            "letters_in": 0,
            "letters_out": 0,
            "nf_letters_max": 0,
            "nf_letters_total": 0,
            "decide_top": 0,
            "decide_equal": 0,
            "neighbors_calls": 0,
            "neighbors_repeats": 0,
            "closure_terms": 0,
        }
        self._seen_neighbors: set = set()
        self._bindings: list[tuple[object, str, object, object]] = []
        self._restore_swaps: list[Callable[[], None]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _close(self, frame: list, start: float, end: float) -> None:
        duration = end - start
        stack = self.stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        fn = frame[0]
        key = (fn.name, parent[0].name if parent is not None else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]
        if parent is None:
            self.roots.append((fn.name, start, end))

    def reset(self) -> None:
        """Close whatever an interrupted call left open (a budget alarm can
        fire inside a wrapper) and point swapped names back at the wrappers."""
        self.stack.clear()
        for fn in self.fns.values():
            fn.active = False
        for restore in self._restore_swaps:
            restore()
        self.quiet = False

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn: _Fn, f, module=None, attr=None, prepare=None, observe=None):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            if tracer.quiet:
                return f(*args, **kwargs)
            fn.calls += 1
            if fn.active:
                return f(*args, **kwargs)
            fn.active = True
            if module is not None:
                setattr(module, attr, f)
            frame = [fn, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if prepare is not None:
                    args = prepare(args)
                result = f(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                fn.active = False
                if module is not None:
                    setattr(module, attr, wrapper)
                close(frame, start, end)
            if observe is not None:
                observe(args, result, stack[-1][0] if stack else None)
            return result

        if module is not None:
            self._restore_swaps.append(lambda: setattr(module, attr, wrapper))
        return wrapper

    def _wrap_generator(self, fn: _Fn, f):
        stack = self.stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            fn.calls += 1
            it = f(*args, **kwargs)
            while True:
                frame = [fn, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    close(frame, start, end)
                yield item

        return wrapper

    # -- observers --------------------------------------------------------------

    def _observers(self):
        c = self.counters

        def parse_prepare(args):
            c["parse_bytes"] += len(args[0])
            return args

        def reduce_prepare(args):
            word = args[0]
            if not isinstance(word, (tuple, list)):
                word = tuple(word)
            c["letters_in"] += len(word)
            return (word,) + args[1:]

        def reduce_observe(args, result, parent):
            c["letters_out"] += len(result)

        def nf_observe(args, result, parent):
            n = len(result.tail) if hasattr(result, "tail") else len(result)
            c["nf_letters_total"] += n
            if n > c["nf_letters_max"]:
                c["nf_letters_max"] = n

        def decide_observe(args, result, parent):
            if parent is None or parent.layer != "decide":
                c["decide_top"] += 1
                c["decide_equal"] += bool(result)

        seen = self._seen_neighbors

        def neighbors_observe(args, result, parent):
            self.quiet = True
            try:
                key = (args[0], args[1] if len(args) > 1 else None)
                c["neighbors_calls"] += 1
                if key in seen:
                    c["neighbors_repeats"] += 1
                else:
                    seen.add(key)
            finally:
                self.quiet = False

        def closure_observe(args, result, parent):
            c["closure_terms"] += len(result)

        return {
            ("terms", "parse"): (parse_prepare, None),
            ("words", "reduce"): (reduce_prepare, reduce_observe),
            ("translate", "quandle_image"): (None, nf_observe),
            ("translate", "rack_image"): (None, nf_observe),
            ("decide", "quandle_equal"): (None, decide_observe),
            ("decide", "rack_equal"): (None, decide_observe),
            ("decide", "term_equal"): (None, decide_observe),
            ("rewrite", "rewrite_neighbors"): (None, neighbors_observe),
            ("rewrite", "rewrite_closure"): (None, closure_observe),
        }

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import quandles
        from quandles import cli, decide, isotropy, rewrite, suites, terms, translate, words

        modules = {
            "cli": cli, "terms": terms, "words": words, "translate": translate,
            "decide": decide, "isotropy": isotropy, "rewrite": rewrite, "suites": suites,
        }
        namespaces = [quandles, *modules.values()]
        observers = self._observers()
        for layer, functions in WRAPPED.items():
            module = modules[layer]
            for attr, how in functions:
                original = getattr(module, attr)
                fn = self.fns[f"{layer}.{attr}"] = _Fn(f"{layer}.{attr}", layer)
                prepare, observe = observers.get((layer, attr), (None, None))
                if how == GENERATOR:
                    wrapper = self._wrap_generator(fn, original)
                elif how == RECURSIVE:
                    wrapper = self._wrap(fn, original, module, attr, prepare, observe)
                else:
                    wrapper = self._wrap(fn, original, None, None, prepare, observe)
                self._rebind(namespaces, original, wrapper)
        fn = self.fns["terms.node_hash"] = _Fn("terms.node_hash", "terms")
        original_hash = terms.Node.__hash__
        terms.Node.__hash__ = self._wrap(fn, original_hash)
        self._bindings.append((terms.Node, "__hash__", original_hash, terms.Node.__hash__))

    def _rebind(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)
                    self._bindings.append((ns, name, original, wrapper))

    def uninstall(self) -> None:
        for ns, name, original, _ in reversed(self._bindings):
            setattr(ns, name, original)
        self._bindings.clear()
        self._restore_swaps.clear()

    # -- results ----------------------------------------------------------------

    def function_stats(self) -> dict[str, dict]:
        out = {name: {"calls": fn.calls, "total_s": 0.0, "self_s": 0.0} for name, fn in self.fns.items()}
        for (name, _), (_, total, self_s) in self.agg.items():
            out[name]["total_s"] += total
            out[name]["self_s"] += self_s
        return out

    def layer_metrics(self) -> dict[str, float]:
        stats = self.function_stats()
        c = self.counters
        m: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n, fn in self.fns.items() if fn.layer == layer]
            m[f"{layer}.calls"] = sum(stats[n]["calls"] for n in names)
            m[f"{layer}.self_s"] = sum(stats[n]["self_s"] for n in names)
        parse_s = stats["terms.parse"]["self_s"]
        m["terms.parse.self_s"] = parse_s
        m["terms.parse.bytes_per_s"] = c["parse_bytes"] / parse_s if parse_s else 0.0
        m["terms.subst.calls"] = stats["terms.subst"]["calls"]
        m["terms.subst.self_s"] = stats["terms.subst"]["self_s"]
        m["terms.node_hash.calls"] = stats["terms.node_hash"]["calls"]
        m["words.letters_in"] = c["letters_in"]
        m["words.letters_out"] = c["letters_out"]
        m["words.kept_ratio"] = c["letters_out"] / c["letters_in"] if c["letters_in"] else 0.0
        m["translate.nf_letters_max"] = c["nf_letters_max"]
        m["translate.nf_letters_total"] = c["nf_letters_total"]
        m["isotropy.commutes_generically.calls"] = stats["isotropy.commutes_generically"]["calls"]
        calls = c["neighbors_calls"]
        m["rewrite.neighbors_repeat_ratio"] = c["neighbors_repeats"] / calls if calls else 0.0
        m["rewrite.closure_terms"] = c["closure_terms"]
        m["decide.equal_share"] = c["decide_equal"] / c["decide_top"] if c["decide_top"] else 0.0
        return m

    def dump(self) -> dict:
        return {
            "roots": [{"name": n, "start": s, "end": e} for n, s, e in self.roots],
            "spans": [
                {"name": name, "parent": parent, "calls": calls, "total_s": total, "self_s": self_s}
                for (name, parent), (calls, total, self_s) in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
            ],
            "counters": dict(self.counters),
        }


@contextlib.contextmanager
def redirected_stdio(stdin_text: str):
    """Run a block with stdin reading ``stdin_text`` and stdout captured."""
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        yield sys.stdout
    finally:
        sys.stdin, sys.stdout = old_in, old_out
