"""Guard for README's promise that terms have no depth limit.

Walks the package source with ``ast`` and fails on any function that calls
itself by name (``f(...)``, or ``self.f(...)`` in a method), apart from the
recursions whose depth is bounded by a size argument rather than by an
input's depth.  It sees only calls written in the source: mutual recursion
between two functions, and code that Python generates, are outside what it
checks.  ``Node.__eq__`` and ``Node.__hash__`` are written in the source, so
it checks them.  The last test keeps the promise by behaviour: it runs each
operation on terms 3000 deep, which also catches recursion that the source
does not spell as a call, such as ``!r`` in an f-string.
"""

import ast
import sys
from pathlib import Path

import pytest

import quandles
from quandles.rewrite import rewrite_closure
from quandles.terms import Atom, atoms_of, evaluate, left_of, parse, render, size, subst, subst_many
from quandles.decide import text_equal
from quandles.translate import RACK, THEORIES

# (module, function) -> why its depth is bounded
BOUNDED = {
    ("terms", "_random_term_of_size"): "depth at most the drawn size",
}


def self_calls(tree):
    """(function name, line) for each call of a function to itself by name."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            by_name = isinstance(f, ast.Name) and f.id == fn.name
            by_self = (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            )
            if by_name or by_self:
                yield fn.name, node.lineno


def test_no_function_calls_itself_unless_bounded_by_a_size():
    found = set()
    unbounded = []
    for path in sorted(Path(quandles.__file__).parent.glob("*.py")):
        for name, line in self_calls(ast.parse(path.read_text(encoding="utf-8"))):
            found.add((path.stem, name))
            if (path.stem, name) not in BOUNDED:
                unbounded.append(f"{path.name}:{line} {name}")
    assert not unbounded, f"functions that call themselves: {unbounded}"
    # an entry whose recursion is gone should leave the allowance too
    assert found == set(BOUNDED)


def test_the_guard_sees_direct_and_method_recursion():
    source = (
        "def walk(t):\n    return walk(t.left)\n"
        "class A:\n    def visit(self, t):\n        return self.visit(t)\n"
        "def fine(t):\n    return other.fine(t)\n"
    )
    assert [name for name, _ in self_calls(ast.parse(source))] == ["walk", "visit"]


DEEP = [  # text, repr and leftmost atom of a left chain and a right-nested term, 3000 operations each
    ("x" + " |> y1" * 3000, "Node(+1, " * 3000 + "Atom('x')" + ", Atom('y1'))" * 3000, "x"),
    ("y1 |> (" * 2999 + "y1 |> x" + ")" * 2999, "Node(+1, Atom('y1'), " * 3000 + "Atom('x')" + ")" * 3000, "y1"),
]


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("text, spelled, leftmost", DEEP, ids=["left-chain", "right-nested"])
def test_term_operations_run_on_deep_terms(default_recursion_limit, text, spelled, leftmost):
    t, again = parse(text, 1), parse(text, 1)
    assert repr(t) == spelled
    assert render(t) == text
    assert parse(render(t), 1) == t
    assert size(t) == 6001
    assert evaluate(t, lambda letter: 1, lambda sign, left, right: left + 1 + right) == 6001
    assert atoms_of(t) == {"x", "y1"}
    assert left_of(t) == leftmost
    assert hash(t) == hash(again)
    assert t == again
    assert subst(t, Atom("y2"), "x") == parse(text.replace("x", "y2"), 2)
    assert subst_many(t, {"x": Atom("y1"), "y1": Atom("y2")}) == parse(text.replace("y1", "y2").replace("x", "y1"), 2)
    assert rewrite_closure(t, RACK, 0) == {t}
    # the right-nested text crosses the cap and falls back to the parsed
    # terms; its partner differs in one atom, and the model tells them apart
    partner = text if leftmost == "x" else text.replace("x", "y1")
    for theory in THEORIES:
        assert text_equal(text, partner, 1, theory) == (partner == text)
