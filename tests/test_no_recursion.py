"""Guard for README's promise that terms have no depth limit.

Walks the package source with ``ast`` and fails on any function that calls
itself by name (``f(...)``, or ``self.f(...)`` in a method), apart from the
recursions whose depth is bounded by a size argument rather than by an
input's depth.  It sees only calls written in the source: mutual recursion
between two functions, and code that Python generates, such as the frozen
dataclass ``Node``'s ``__eq__`` and ``__hash__`` (which do recurse on deep
terms), are outside what it checks.
"""

import ast
from pathlib import Path

import quandles

# (module, function) -> why its depth is bounded
BOUNDED = {
    ("terms", "terms_of"): "enumerate_terms: depth at most max_size",
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
