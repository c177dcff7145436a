"""Package layout rules checked from the source tree."""

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "nablafrac"


def test_library_imports_only_the_standard_library():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules, f"no modules found under {SOURCE}"
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    offenders.append(f"{path.name}:{node.lineno} imports {name}")
    assert offenders == []


def test_suites_and_cli_carry_no_verdict_rule():
    # holds/fails is decided in ineq.py alone; a tolerance or certificate
    # lookup here would be a second rule that can disagree with it
    offenders = []
    for name in ("harness.py", "cli.py"):
        text = (SOURCE / name).read_text(encoding="utf-8")
        for word in ("abs_eps", "rel_eps", "exact_holds"):
            if word in text:
                offenders.append(f"{name} mentions {word}")
    assert offenders == []


def test_no_builtin_or_compensated_sum():
    # float sums add left to right in a fixed order; builtin sum() switched
    # to compensated float summation in Python 3.12 and math.fsum rounds once,
    # so either would make float results depend on the interpreter
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("sum", "fsum"):
                offenders.append(f"{path.name}:{node.lineno} calls {name}")
    assert offenders == []
