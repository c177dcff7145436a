"""Package layout rules checked from the source tree."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "nablafrac"


def _non_standard_imports(modules):
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
    return offenders


def test_library_imports_only_the_standard_library():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules, f"no modules found under {SOURCE}"
    assert _non_standard_imports(modules) == []


def test_oracles_import_only_the_standard_library():
    # independent of the library it checks and of the runner: no nablafrac, pytest or hypothesis
    assert _non_standard_imports([Path(__file__).with_name("oracles.py")]) == []


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


def test_suites_and_cli_read_the_report_verdict():
    # a suite judges a trial by report.holds, built under the suite's policy;
    # calling the rule again could judge one report twice, two ways
    for name in ("harness.py", "cli.py"):
        assert "_verdict" not in (SOURCE / name).read_text(encoding="utf-8"), name


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


def test_one_binomial_difference_implementation():
    # every backward difference, forward difference and Taylor construction
    # goes through grid._differences, so binomial coefficients appear there only
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "comb":
                offenders.append(f"{path.name}:{node.lineno} calls comb")
    assert len(offenders) == 1 and offenders[0].startswith("grid.py:"), offenders


def test_log_gamma_only_in_the_gamma_core():
    # every gamma quotient is a view of the cores in scalars.py, the float
    # trial of the gamma-quotient suite included
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "lgamma" and path.name != "scalars.py":
                offenders.append(f"{path.name}:{node.lineno} calls lgamma")
    assert offenders == []


def test_reimport_frees_the_previous_package():
    # a fresh import must not keep the previous copy alive (its classes, module
    # dicts and kernel rows), e.g. through a class object held in typing's cache
    script = textwrap.dedent(
        """
        import gc, importlib, sys, weakref

        def load():
            for name in [n for n in sys.modules if n == "nablafrac" or n.startswith("nablafrac.")]:
                del sys.modules[name]
            package = importlib.import_module("nablafrac")
            for name in ("fracops", "taylor", "ineq", "harness", "gridio", "cli"):
                importlib.import_module("nablafrac." + name)
            return package

        first = weakref.ref(load().FractionalOrder)
        load()
        load()
        gc.collect()
        print("alive" if first() is not None else "freed")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["freed"]


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _inside(tree, name):
    """The ids of every node inside the functions called ``name`` in ``tree``."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        for inner in ast.walk(node)
    }


def _adds_products(node):
    """A ``for`` over ``zip(...)`` whose body adds products: ``s += x * y``."""
    if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Call) and _name(node.iter.func) == "zip"):
        return False
    return any(
        isinstance(inner, ast.AugAssign)
        and isinstance(inner.op, ast.Add)
        and isinstance(inner.value, ast.BinOp)
        and isinstance(inner.value.op, ast.Mult)
        for statement in node.body
        for inner in ast.walk(statement)
    )


def test_one_convolution_implementation():
    # every fractional sum, Caputo difference and Taylor remainder is one
    # fracops._convolve call: the dot idioms, map(mul, reversed(...), ...) and a
    # loop over zip(...) adding products, live there only
    offenders, loops_seen = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        convolve = _inside(tree, "_convolve") if path.name == "fracops.py" else set()
        for node in ast.walk(tree):
            if _adds_products(node):
                if id(node) in convolve:
                    loops_seen.add(path.name)
                else:
                    offenders.append(f"{path.name}:{node.lineno} adds products in a loop outside fracops._convolve")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "map"):
                continue
            if len(node.args) < 2 or _name(node.args[0]) != "mul":
                continue
            head = node.args[1]
            if isinstance(head, ast.Call) and _name(head.func) == "reversed":
                if id(node) not in convolve:
                    offenders.append(f"{path.name}:{node.lineno} convolves outside fracops._convolve")
    assert offenders == []
    assert loops_seen == {"fracops.py"}  # the loop shape this test looks for is the one in use


def test_no_instance_fields_written_through_the_dict():
    # writing through ``__dict__`` gives an instance a dict of its own, which
    # slows every later attribute read on it; library-built instances set their
    # fields with object.__setattr__, as their constructors do
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                offenders.append(f"{path.name}:{node.lineno} reaches an instance __dict__")
    assert offenders == []


def test_one_window_check():
    # every Taylor form and bound checks its window in taylor._check_window;
    # eval_from_taylor_data words its own, because its seed has no grid
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "taylor.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in ("_check_window", "eval_from_taylor_data"):
                    allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name(node.func) == "WindowError" and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno} raises its own WindowError")
    assert offenders == []


def test_one_power_primitive():
    # every x^e in the bound evaluators is raised in ineq._powers, and _root is the
    # one root: '**' and pow appear nowhere else, the exponent is classified only
    # there and in as_exponent, and the kernel comes from the scaled rows, never
    # from the public kernel_weights
    tree = ast.parse((SOURCE / "ineq.py").read_text(encoding="utf-8"), filename="ineq.py")
    homes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            homes.update((id(inner), node.name) for inner in ast.walk(node))
    rules = {
        "power": ("_powers", "_root"),
        "_classify_exponent": ("_powers", "as_exponent"),
        "kernel_weights": (),
    }
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow) or _name(node) == "pow":
            rule = "power"
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in rules:
            rule = _name(node)
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "kernel_weights" for alias in node.names):
            rule = "kernel_weights"
        else:
            continue
        if homes.get(id(node)) not in rules[rule]:
            offenders.append(f"ineq.py:{node.lineno} {rule} in {homes.get(id(node), 'module scope')}")
    assert offenders == []


def test_one_integer_rule():
    # every integer argument is checked by scalars._integer, so no other function
    # words an integer-argument message; the factorials keep their DomainError and
    # the JSON reader its ParseError for the file's own 'lo'
    pattern = re.compile(
        r"\b(must be|needs) (an|a non-negative|a positive) integer|\bmust be integers\b"
        r"|^(an|a non-negative|a positive) integer$"
    )
    allowed = {
        ("scalars.py", "_integer"),
        ("scalars.py", "rising_factorial"),
        ("scalars.py", "falling_factorial"),
        ("gridio.py", "read_grid_json"),
    }
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None
        }
        homes = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                homes.update((id(inner), node.name) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                if pattern.search(node.value):
                    found.add((path.name, homes.get(id(node), "module scope")))
    assert ("scalars.py", "_integer") in found
    assert found <= allowed, sorted(found - allowed)


FAMILY_CALLS = (
    "OpialParams",
    "opial_report",
    "opial_corollary_25",
    "ostrowski_report",
    "poincare_report",
    "sobolev_report",
    "avg_sobolev_report",
)


def test_one_family_to_report_call():
    # harness._report is the one place where a family name meets its report call
    # and its defaults; the suites and `nablafrac ineq --input` both call it, so
    # cli.py never names a family call and harness.py names one only there (its
    # import binds the names, it does not use them)
    cli = (SOURCE / "cli.py").read_text(encoding="utf-8")
    assert [name for name in FAMILY_CALLS if re.search(rf"\b{name}\b", cli)] == []
    tree = ast.parse((SOURCE / "harness.py").read_text(encoding="utf-8"), filename="harness.py")
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_report":
            allowed.update(id(inner) for inner in ast.walk(node))
    offenders = [
        f"harness.py:{node.lineno} names {_name(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in FAMILY_CALLS and id(node) not in allowed
    ]
    assert allowed and offenders == []


def _homes(tree):
    """``id(node) -> qualified name`` of the innermost function or class around each node."""
    homes = {}

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{child.name}" if qualname else child.name
            homes[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return homes


ORDER_MESSAGES = re.compile(r"orders must be rational|order must be positive|requires a non-integer order")

# The public edge: the only places that build a FractionalOrder, each to hand it out.
ORDER_OBJECTS = {
    ("fracops.py", "as_order"),  # as_order itself
    ("fracops.py", "KernelRow.build"),  # KernelRow.order
    ("ineq.py", "OpialParams.__post_init__"),  # OpialParams.mu
    ("taylor.py", "_series"),  # TaylorExpansion.order
}


def test_one_order_rule():
    # fracops._order reads every order argument and alone words the order errors;
    # internal code carries the plain rational and builds no FractionalOrder
    messages, objects = set(), set()
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "_order_value" not in text, path.name
        tree = ast.parse(text, filename=str(path))
        homes = _homes(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and ORDER_MESSAGES.search(node.value):
                messages.add((path.name, homes[id(node)]))
            if isinstance(node, ast.Call) and _name(node.func) in ("as_order", "FractionalOrder"):
                objects.add((path.name, homes[id(node)]))
    assert messages == {("fracops.py", "_order")}
    assert objects <= ORDER_OBJECTS, sorted(objects - ORDER_OBJECTS)
