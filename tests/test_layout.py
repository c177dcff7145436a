"""Package layout rules checked from the source tree, each a function of one parsed index."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "nablafrac"


class Module(NamedTuple):
    lines: tuple  # the source lines
    tree: ast.Module
    nodes: tuple  # (node, home) for every node
    docstrings: frozenset  # the ids of the docstring nodes
    line_homes: dict  # line number -> home, for the lines of every function and class


def _indexed(lines, tree) -> Module:
    nodes, docstrings, line_homes = [], set(), {}

    def visit(node, home):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
            docstrings.add(id(node.body[0].value))
        for child in ast.iter_child_nodes(node):
            inner = home
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{home}.{child.name}" if home else child.name
                line_homes.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), inner))
            nodes.append((child, inner))
            visit(child, inner)

    visit(tree, "")
    return Module(tuple(lines), tree, tuple(nodes), frozenset(docstrings), line_homes)


def _index(paths) -> dict:
    index = {}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        index[path.name] = _indexed(text.splitlines(), ast.parse(text, filename=str(path)))
    return index


@pytest.fixture(scope="session")
def library():
    index = _index(sorted(SOURCE.glob("*.py")))
    assert index, f"no modules found under {SOURCE}"
    return index


@pytest.fixture(scope="session")
def oracles():
    return _index([TESTS / "oracles.py"])  # for the import rule only


def _found(index, match, modules=None, allowed=(), docstrings=True) -> list:
    """``(module, home, line)`` of each hit of ``match`` in ``modules`` (default: all) at a
    home no ``allowed`` (module, home) covers: a home covers the functions nested in it, and
    the home "" its whole module.  A string ``match`` searches the source lines, comments
    included; any other ``match`` takes each node, the docstrings only if ``docstrings``."""
    hits = []
    for name in modules or index:
        module = index[name]
        if isinstance(match, str):
            hits += [
                (name, module.line_homes.get(n, ""), n)
                for n, text in enumerate(module.lines, 1)
                if re.search(match, text)
            ]
        else:
            hits += [
                (name, home, node.lineno)
                for node, home in module.nodes
                if match(node) and (docstrings or id(node) not in module.docstrings)
            ]
    return [
        (name, home, line)
        for name, home, line in hits
        if not any(name == m and (h in ("", home) or home.startswith(h + ".")) for m, h in allowed)
    ]


def _homes(index, match) -> list:
    return [(name, home) for name, home, _ in _found(index, match)]


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(*names):
    return lambda node: isinstance(node, ast.Call) and _name(node.func) in names


def _names(*names):
    return lambda node: isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in names


def _imports(name):
    return lambda node: isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)


def _defines(name):
    return lambda node: isinstance(node, ast.FunctionDef) and node.name == name


def _strings(pattern):
    return lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str) and pattern.search(node.value)


def _foreign(node):
    """An import of a module outside the standard library."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else []
    return any(name.split(".")[0] not in sys.stdlib_module_names for name in names)


def _adds_products(node):
    """A ``for`` over ``zip(...)`` whose body adds products: ``s += x * y``."""
    if not (isinstance(node, ast.For) and _calls("zip")(node.iter)):
        return False
    return any(
        isinstance(inner, ast.AugAssign)
        and isinstance(inner.op, ast.Add)
        and isinstance(inner.value, ast.BinOp)
        and isinstance(inner.value.op, ast.Mult)
        for statement in node.body
        for inner in ast.walk(statement)
    )


def _convolves(node):
    """``map(mul, reversed(...), ...)`` or a loop that adds products."""
    if not (_calls("map")(node) and len(node.args) >= 2):
        return _adds_products(node)
    return _name(node.args[0]) == "mul" and _calls("reversed")(node.args[1])


def _power(node):
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow) or _name(node) == "pow"


INTEGER_MESSAGE = re.compile(
    r"\b(must be|needs) (an|a non-negative|a positive) integer|\bmust be integers\b"
    r"|^(an|a non-negative|a positive) integer$"
)
INTEGER_HOMES = {("scalars.py", "_integer"), ("scalars.py", "rising_factorial"),
                 ("scalars.py", "falling_factorial"), ("gridio.py", "read_grid_json")}
FAMILY_CALLS = ("OpialParams", "opial_report", "opial_corollary_25", "ostrowski_report",
                "poincare_report", "sobolev_report", "avg_sobolev_report")
ORDER_MESSAGE = re.compile(r"orders must be rational|order must be positive|requires a non-integer order")
# The public edge: the only places that build a FractionalOrder, each to hand it out.
ORDER_OBJECTS = {
    ("fracops.py", "as_order"),  # as_order itself
    ("fracops.py", "KernelRow.build"),  # KernelRow.order
    ("ineq.py", "OpialParams.__post_init__"),  # OpialParams.mu
    ("taylor.py", "_series"),  # TaylorExpansion.order
}
WINDOW_HOMES = {("taylor.py", "_check_window"), ("taylor.py", "eval_from_taylor_data")}
HARNESS_CLI, INEQ = ["harness.py", "cli.py"], ["ineq.py"]

# rule -> a function of an index that returns the rule's offenders
RULES = {
    "imports": lambda ix: _found(ix, _foreign),
    "verdict-words": lambda ix: _found(ix, "abs_eps|rel_eps|exact_holds", HARNESS_CLI),
    "verdict-calls": lambda ix: _found(ix, "_verdict", HARNESS_CLI),
    "builtin-sum": lambda ix: _found(ix, _calls("sum", "fsum")),
    "adder": lambda ix: (
        _found(ix, lambda node: _calls("reduce")(node) and _name(node.args[0]) == "add")
        + _found(ix, _imports("add"))
        + _found(ix, _defines("_added"))[1:]  # a second adder; test_one_adder pins the first
    ),
    "binomial": lambda ix: _found(ix, _calls("comb"), allowed={("grid.py", "_scaled_differences")}),
    "lgamma": lambda ix: _found(ix, _calls("lgamma"), allowed={("scalars.py", "")}),
    "convolution": lambda ix: _found(ix, _convolves, allowed={("fracops.py", "_convolve")}),
    "instance-dict": lambda ix: _found(ix, lambda node: isinstance(node, ast.Attribute) and node.attr == "__dict__"),
    "window": lambda ix: _found(ix, _calls("WindowError"), allowed=WINDOW_HOMES),
    "power": lambda ix: (
        _found(ix, _power, INEQ, {("ineq.py", "_powers"), ("ineq.py", "_root")})
        + _found(ix, _names("_classify_exponent"), INEQ, {("ineq.py", "_powers"), ("ineq.py", "as_exponent")})
        + _found(ix, _names("kernel_weights"), INEQ)
        + _found(ix, _imports("kernel_weights"), INEQ)
    ),
    # docstrings may speak of integer arguments
    "integer": lambda ix: _found(ix, _strings(INTEGER_MESSAGE), allowed=INTEGER_HOMES, docstrings=False),
    "family": lambda ix: (
        _found(ix, rf"\b({'|'.join(FAMILY_CALLS)})\b", ["cli.py"])
        + _found(ix, _names(*FAMILY_CALLS), ["harness.py"], {("harness.py", "_report")})
    ),
    "order": lambda ix: (
        _found(ix, "_order_value")
        + _found(ix, _strings(ORDER_MESSAGE), allowed={("fracops.py", "_order")})
        + _found(ix, _calls("as_order", "FractionalOrder"), allowed=ORDER_OBJECTS)
    ),
}


def test_library_imports_only_the_standard_library(library):
    # numpy, scipy, mpmath, sympy and hypothesis are for tests and benches
    assert RULES["imports"](library) == []


def test_oracles_import_only_the_standard_library(oracles):
    # independent of the library it checks and of the runner: no nablafrac, pytest or hypothesis
    assert RULES["imports"](oracles) == []


def test_suites_and_cli_carry_no_verdict_rule(library):
    # holds/fails is decided in ineq.py alone; a tolerance or certificate
    # lookup here would be a second rule that can disagree with it
    assert RULES["verdict-words"](library) == []


def test_suites_and_cli_read_the_report_verdict(library):
    # a suite judges a trial by report.holds, built under the suite's policy;
    # calling the rule again could judge one report twice, two ways
    assert RULES["verdict-calls"](library) == []


def test_no_builtin_or_compensated_sum(library):
    # float sums add left to right in a fixed order; builtin sum() switched
    # to compensated float summation in Python 3.12 and math.fsum rounds once,
    # so either would make float results depend on the interpreter
    assert RULES["builtin-sum"](library) == []


def test_one_adder(library):
    # every sum outside fracops._convolve and the float ∇^m columns is grid._added,
    # which starts from 0: reduce(add, ...) (from the first term without a start) and
    # a second adder would be a second summation rule
    assert RULES["adder"](library) == []
    assert _homes(library, _defines("_added")) == [("grid.py", "_added")]


def test_one_binomial_difference_implementation(library):
    # every backward difference, forward difference and Taylor construction
    # goes through grid._differences, so binomial coefficients appear there only
    assert RULES["binomial"](library) == []
    assert _homes(library, _calls("comb")) == [("grid.py", "_scaled_differences")]


def test_log_gamma_only_in_the_gamma_core(library):
    # every gamma quotient is a view of the cores in scalars.py, the float
    # trial of the gamma-quotient suite included
    assert RULES["lgamma"](library) == []


def test_one_convolution_implementation(library):
    # every fractional sum, Caputo difference and Taylor remainder is one
    # fracops._convolve call: map(mul, reversed(...), ...) and a loop over
    # zip(...) adding products live there only
    assert RULES["convolution"](library) == []
    assert ("fracops.py", "_convolve") in _homes(library, _adds_products)  # the loop shape looked for is in use


def test_no_instance_fields_written_through_the_dict(library):
    # writing through ``__dict__`` gives an instance a dict of its own, which
    # slows every later attribute read on it; library-built instances set their
    # fields with object.__setattr__, as their constructors do
    assert RULES["instance-dict"](library) == []


def test_one_window_check(library):
    # every Taylor form and bound checks its window in taylor._check_window;
    # eval_from_taylor_data words its own, because its seed has no grid
    assert RULES["window"](library) == []


def test_one_power_primitive(library):
    # every x^e in the bound evaluators is raised in ineq._powers, and _root is the
    # one root; the exponent is classified only there and in as_exponent, and the
    # kernel comes from the scaled rows, never from the public kernel_weights
    assert RULES["power"](library) == []


def test_one_integer_rule(library):
    # every integer argument is checked by scalars._integer, so no other function
    # words an integer-argument message; the factorials keep their DomainError and
    # the JSON reader its ParseError for the file's own 'lo'
    assert RULES["integer"](library) == []
    assert ("scalars.py", "_integer") in _homes(library, _strings(INTEGER_MESSAGE))


def test_one_family_to_report_call(library):
    # harness._report is the one place where a family name meets its report call
    # and its defaults; the suites and `nablafrac ineq --input` both call it, so
    # cli.py never names a family call and harness.py names one only there (its
    # import binds the names, it does not use them)
    assert RULES["family"](library) == []
    assert _homes(library, _defines("_report")) == [("harness.py", "_report")]


def test_one_order_rule(library):
    # fracops._order reads every order argument and alone words the order errors;
    # internal code carries the plain rational and builds no FractionalOrder
    assert RULES["order"](library) == []
    assert ("fracops.py", "_order") in _homes(library, _strings(ORDER_MESSAGE))


# rule -> one (module, home, snippet) per clause: the snippet appended to the module is the
# rule's one offender, at that home on the snippet's last line
PLANTED = {
    "imports": [("grid.py", "", "import numpy")],
    "verdict-words": [("cli.py", "", 'WORD = "exact_holds"')],
    "verdict-calls": [("harness.py", "", "from .ineq import _verdict")],
    "builtin-sum": [("fracops.py", "_planted", "def _planted(): return math.fsum(xs)")],
    "adder": [("ineq.py", "", "total = reduce(add, xs)"),
              ("taylor.py", "", "from operator import add"),
              ("grid.py", "_added", "def _added(xs): return xs")],
    "binomial": [("taylor.py", "_planted", "def _planted(): return math.comb(n, k)")],
    "lgamma": [("fracops.py", "_planted", "def _planted(): return math.lgamma(x)")],
    "convolution": [("taylor.py", "_planted", "def _planted():\n    for x, y in zip(xs, ys): s += x * y"),
                    ("ineq.py", "_planted", "def _planted(): return list(map(mul, reversed(w), v))")],
    "instance-dict": [("grid.py", "_planted", "def _planted(): return f.__dict__")],
    "window": [("harness.py", "_planted", 'def _planted(): raise WindowError("t out of range")')],
    "power": [("ineq.py", "_planted", "def _planted(): return x ** 2"),
              ("ineq.py", "_planted", "def _planted(): return _classify_exponent(e)"),
              ("ineq.py", "_planted", "def _planted(): return fracops.kernel_weights(nu, n)"),
              ("ineq.py", "", "from .fracops import kernel_weights")],
    "integer": [("cli.py", "_planted", 'def _planted(): raise UsageError("k must be an integer")')],
    "family": [("cli.py", "_planted", "def _planted(): return sobolev_report"),
               ("harness.py", "_planted", "def _planted(): return poincare_report(f, 0, 6, 2, 0)")],
    "order": [("taylor.py", "", "_order_value = 1"),
              ("ineq.py", "_planted", 'def _planted(): raise OrderError("order must be positive")'),
              ("grid.py", "_planted", 'def _planted():\n    """The order must be positive."""'),  # a docstring
              ("harness.py", "_planted", "def _planted(): return FractionalOrder(1)")],
}
CASES = {f"{rule}-{n}": (rule, *case) for rule in RULES for n, case in enumerate(PLANTED[rule], 1)}


@pytest.mark.parametrize("rule, module, home, snippet", CASES.values(), ids=CASES)
def test_each_rule_trips(library, rule, module, home, snippet):
    tree = ast.parse(snippet)
    ast.increment_lineno(tree, len(library[module].lines))
    lines = library[module].lines + tuple(snippet.splitlines())
    body = library[module].tree.body + tree.body
    planted = {**library, module: _indexed(lines, ast.Module(body=body, type_ignores=[]))}
    assert RULES[rule](planted) == [(module, home, len(lines))]


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
