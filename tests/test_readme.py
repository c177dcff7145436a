"""The README's "Library quick start" block runs, and each value its comments
show is the value of the expression beside it."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start():
    """The source of the first ```python block under "## Library quick start"."""
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_values():
    source = quick_start()
    lines = source.splitlines()
    namespace = {}
    shown = []
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        # "# A" shows the value A; "# A == B" also says that the last item of A is B
        comment = lines[statement.end_lineno - 1].split("#", 1)[1]
        value, _, same = comment.partition("==")
        got, want = eval(code, namespace), eval(value, namespace)
        assert got == want, (code, got, want)
        if same:
            assert want[-1] == eval(same, namespace), comment
        shown.append(value.strip())
    assert shown == ["Fraction(15, 8)", "Fraction(45, 4)", "-33, 60, 27", "(60, Fraction(2835, 32))"]
