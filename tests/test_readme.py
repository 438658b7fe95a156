"""README's quick tour runs as written, and each result it shows in a
comment is the value its line computes; its Layout table names each module
of the package once."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_and_shows_true_results():
    source = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    comments = {
        tok.start[0]: tok.string.lstrip("# ")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    shown = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        # a bare expression shows its result in the comment on its last line or on the next
        notes = [comments.get(stmt.end_lineno, ""), comments.get(stmt.end_lineno + 1, "")]
        assert any(note.startswith(repr(value)) for note in notes), (ast.unparse(stmt), repr(value), notes)
        shown += 1
    assert shown >= 8


def test_layout_table_has_one_row_per_module():
    layout = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `quandles\.(\w+)`", layout, re.M)
    package = README.parent / "src" / "quandles"
    modules = [p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "__main__")]
    assert sorted(rows) == sorted(modules)
