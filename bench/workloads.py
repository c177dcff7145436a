"""The three benchmark workloads and the reference arithmetic that checks them.

A workload turns ``(seed, operation index)`` into one :class:`Op`: a zero-argument
call into the library, a check of its result, a JSON-able payload for the output
digest, and a predicate that says whether the result is a bound violation (an
outcome the benchmark reports, never a failure).  Operations are grouped in
rounds of fixed composition and a pass is a whole number of rounds, so every
pass measures whole copies of the same mix.

The checks avoid the code under test where that is cheap: kernel weights come
from the paper's product form ``∏_{j=1}^{n−1}(p+q(j−1)) / (q^{n−1}(n−1)!)`` for
``ν = p/q``, backward differences from the binomial formula, and every input
grid has zero initial differences at its base so that Taylor polynomial parts
vanish and remainders must reproduce the function itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

# Every generated grid starts with a zero head: f vanishes on [BASE-HEAD, BASE],
# so every backward difference of order < 3 at BASE is zero, every Taylor
# polynomial part about BASE is zero, and every inequality precondition on
# initial differences holds for orders below 3.
BASE = 0
HEAD = 2

# Policy of the criterion-5 acceptance runs; used to classify violations.
VIOLATION_ABS_EPS = 1e-12
VIOLATION_REL_EPS = 1e-9


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the result is right
    payload: Callable[[Any], Any]
    violated: Callable[[Any], bool]


def op_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 0x1_0000_0000 + index)


# ---------------------------------------------------------------------------
# reference arithmetic


class ReferenceWeights:
    """Kernel weights ``w_ν(n)`` from the paper's product form, memoised per order."""

    def __init__(self) -> None:
        self._exact: Dict[Fraction, List[Fraction]] = {}
        self._float: Dict[Fraction, List[float]] = {}

    def exact(self, nu: Fraction, length: int) -> List[Fraction]:
        row = self._exact.setdefault(nu, [])
        if len(row) < length:
            p, q = nu.numerator, nu.denominator
            num, den = 1, 1
            for n in range(1, length + 1):
                if n > 1:
                    num *= p + q * (n - 2)
                    den *= q * (n - 1)
                if n > len(row):
                    row.append(Fraction(num, den))
        return row[:length]

    def floats(self, nu: Fraction, length: int) -> List[float]:
        row = self._float.setdefault(nu, [1.0])
        p, q = nu.numerator, nu.denominator
        while len(row) < length:
            n = len(row)
            row.append(row[-1] * (p + q * (n - 1)) / (q * n))
        return row[:length]


def nabla_ref(values: Dict[int, Any], t: int, k: int):
    return sum((-1) ** j * math.comb(k, j) * values[t - j] for j in range(k + 1))


def conv_ref(weights, h: Callable[[int], Any], a: int, t: int):
    """``Σ_{s=a}^{t} w(t−s+1)·h(s)`` and the sum of the absolute terms."""
    total, scale = 0, 0
    for s in range(a, t + 1):
        term = weights[t - s] * h(s)
        total += term
        scale += abs(term)
    return total, scale


def close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-9 * (abs(scale) + abs(want) + 1.0)


def draw_order(rng: random.Random, den: int, lo: int, hi: int) -> Fraction:
    """Non-integer ``p/den`` in ``(lo, hi)`` with ``p`` coprime to ``den``, so the
    order keeps exactly the denominator ``den``."""
    while True:
        p = rng.randint(lo * den + 1, hi * den - 1)
        if math.gcd(p, den) == 1:
            return Fraction(p, den)


def head_grid_values(rng: random.Random, length: int, value: Callable[[], Any]) -> List[Any]:
    return [0] * (HEAD + 1) + [value() for _ in range(length - HEAD - 1)]


def violates(report) -> bool:
    """The suite rule: an exact certificate decides when present, else the slack."""
    if report.components.get("exact_holds", 1) == 0:
        return True
    slack, rhs = float(report.slack), float(report.rhs)
    if math.isnan(slack) or math.isnan(rhs):
        return True
    return slack < -(VIOLATION_ABS_EPS + VIOLATION_REL_EPS * abs(rhs))


def _never(_result) -> bool:
    return False


def grid_payload(g) -> dict:
    return {"lo": g.lo, "values": list(g.values)}


# ---------------------------------------------------------------------------
# suites: one replayed trial per operation, exact backend


# The eight criterion-5 configurations, opial-25 and five identity suites.
SUITE_MIX: Tuple[Tuple[str, str, dict], ...] = (
    ("ineq", "opial", {"g_variant": "paper"}),
    ("ineq", "opial", {"g_variant": "tight"}),
    ("ineq", "ostrowski", {}),
    ("ineq", "poincare", {}),
    ("ineq", "sobolev", {"r": 1}),
    ("ineq", "sobolev", {"r": 2}),
    ("ineq", "sobolev", {"r": 3}),
    ("ineq", "avg-sobolev", {}),
    ("ineq", "opial-25", {}),
    ("identity", "taylor", {}),
    ("identity", "taylor-extended", {}),
    ("identity", "exponents", {}),
    ("identity", "duality", {}),
    ("identity", "nabla-of-sum", {}),
)


def check_identity(pairs) -> Optional[str]:
    if not pairs:
        return "no comparison pairs"
    for got, want in pairs:
        if got != want:
            return f"identity defect {got} != {want}"
    return None


def check_inequality_report(name: str):
    def check(report) -> Optional[str]:
        if report.name != name:
            return f"report name {report.name!r} != {name!r}"
        lhs, rhs, slack = report.lhs, report.rhs, report.slack
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            if slack != rhs - lhs:
                return "slack != rhs - lhs"
        elif not (math.isnan(float(slack)) or close(float(slack), float(rhs) - float(lhs), abs(float(rhs)))):
            return "slack != rhs - lhs"
        comp = report.components
        if "lhs_squared" in comp:
            if name.startswith("opial") and comp["lhs_squared"] != lhs * lhs:
                return "lhs_squared != lhs**2"
            if comp["exact_holds"] != (1 if comp["lhs_squared"] <= comp["rhs_squared"] else 0):
                return "exact_holds disagrees with the squared certificate"
        return None

    return check


class Suites:
    """Replayed criterion-5 and identity-suite trials, rotating round-robin.

    The j-th trial of every configuration uses ``mix_seed(seed, j)``, so at a
    given seed the trials are exactly those of the corresponding suite run.
    """

    name = "suites"
    round_len = len(SUITE_MIX)
    pass_rounds_per_second = 6.0

    def setup(self, nf, seed: int, workdir: str) -> None:
        self.nf = nf
        self.seed = seed

    def op(self, index: int) -> Op:
        kind, suite, params = SUITE_MIX[index % self.round_len]
        trial_seed = self.nf.mix_seed(self.seed, index // self.round_len)
        label = suite + "".join(f"[{k}={v}]" for k, v in params.items())
        if kind == "identity":
            return Op(
                label,
                lambda: self.nf.replay_identity_trial(suite, trial_seed),
                check_identity,
                lambda pairs: [list(p) for p in pairs],
                _never,
            )
        return Op(
            label,
            lambda: self.nf.replay_inequality_trial(suite, trial_seed, **params),
            check_inequality_report(suite),
            self.nf.gridio.report_to_dict,
            violates,
        )


# ---------------------------------------------------------------------------
# long-grid: exact convolutions on long grids, fixed size schedule


# (function, grid length N, order denominator q, order ceiling m): the order is
# p/q in (m-1, m) and only its numerator p and the grid values come from the
# seed.  A fixed schedule keeps the cost of a round independent of the seed.
# Six operations are cheaper and four dearer than the four N = 200 sums and
# Caputo differences, whose costs are close, so the median of a pass lies
# among them rather than between two operations of very different cost.
LONG_GRID_SCHEDULE: Tuple[Tuple[str, int, int, int], ...] = (
    ("frac_sum_grid", 100, 3, 1),
    ("caputo_nabla_grid", 100, 3, 1),
    ("taylor_fractional_series", 100, 3, 1),
    ("poincare_report", 100, 3, 1),
    ("frac_sum_grid", 100, 7, 3),
    ("caputo_nabla_grid", 100, 7, 3),
    ("frac_sum_grid", 200, 3, 1),
    ("frac_sum_grid", 200, 5, 2),
    ("caputo_nabla_grid", 200, 5, 2),
    ("caputo_nabla_grid", 200, 7, 3),
    ("taylor_fractional_series", 200, 5, 2),
    ("poincare_report", 200, 7, 3),
    ("frac_sum_grid", 400, 3, 2),
    ("poincare_report", 400, 2, 2),
)


class LongGrid:
    """One exact whole-grid call per operation on grids of 100 to 400 points."""

    name = "long-grid"
    pass_rounds_per_second = 0.05

    def __init__(self, schedule=LONG_GRID_SCHEDULE) -> None:
        self.schedule = schedule
        self.round_len = len(schedule)

    def setup(self, nf, seed: int, workdir: str) -> None:
        self.nf = nf
        self.seed = seed
        self.ref = ReferenceWeights()
        rng = random.Random(seed)
        # One order per schedule entry, kept for the whole run: few distinct
        # orders, so kernel rows are reused across rounds.
        self.orders = [draw_order(rng, den, m - 1, m) for _, _, den, m in self.schedule]

    def op(self, index: int) -> Op:
        slot = index % self.round_len
        fn_name, n, _, m = self.schedule[slot]
        order = self.orders[slot]
        rng = op_rng(self.seed, index)
        values = head_grid_values(rng, n, lambda: rng.randint(-9, 9))
        lo = BASE - HEAD
        f = self.nf.GridFunction(lo, tuple(Fraction(v) for v in values))
        fv = {lo + i: Fraction(v) for i, v in enumerate(values)}
        hi = lo + n - 1
        probes = sorted({BASE + 1, rng.randint(BASE + 1, hi), hi})
        fn = getattr(self.nf, fn_name)
        label = f"{fn_name}[N={n},nu={order}]"
        if fn_name == "frac_sum_grid":
            return Op(label, lambda: fn(f, BASE, order), self._check_sum(fv, order, probes), grid_payload, _never)
        if fn_name == "caputo_nabla_grid":
            return Op(
                label, lambda: fn(f, BASE + 1, order), self._check_caputo(fv, order, m, probes), grid_payload, _never
            )
        if fn_name == "taylor_fractional_series":
            return Op(label, lambda: fn(f, BASE, order), self._check_taylor(fv), _series_payload, _never)
        return Op(
            label,
            lambda: fn(f, BASE, hi, order, 0),
            self._check_poincare(fv, order, m, hi),
            self.nf.gridio.report_to_dict,
            violates,
        )

    def _check_sum(self, fv, order, probes):
        def check(g) -> Optional[str]:
            w = self.ref.exact(order, probes[-1] - BASE + 1)
            for t in probes:
                want, _ = conv_ref(w, fv.__getitem__, BASE, t)
                if g.at(t) != want:
                    return f"frac_sum_grid at t={t} differs from the product-form sum"
            return None

        return check

    def _check_caputo(self, fv, order, m, probes):
        def check(g) -> Optional[str]:
            w = self.ref.exact(m - order, probes[-1] - BASE)
            for t in probes:
                want, _ = conv_ref(w, lambda s: nabla_ref(fv, s, m), BASE + 1, t)
                if g.at(t) != want:
                    return f"caputo_nabla_grid at t={t} differs from the product-form sum"
            return None

        return check

    @staticmethod
    def _check_taylor(fv):
        def check(series) -> Optional[str]:
            if not series:
                return "empty series"
            for t, e in series.items():
                if e.poly_part != 0 or e.poly_part + e.remainder != fv[t] or e.total != fv[t]:
                    return f"poly_part + remainder != f(t) at t={t}"
            return None

        return check

    def _check_poincare(self, fv, order, m, hi):
        def check(report) -> Optional[str]:
            if report.lhs != sum(fv[j] * fv[j] for j in range(BASE + m, hi + 1)):
                return "poincare lhs differs from the direct sum of squares"
            w = self.ref.exact(order, hi - BASE)
            inner, kernel = Fraction(0), Fraction(0)
            for j in range(BASE + 1, hi + 1):
                inner += w[j - BASE - 1] ** 2
                if j >= BASE + m:
                    kernel += inner
            caputo_norm = float(report.rhs / kernel)
            if not close(caputo_norm, report.components["caputo_norm"], 0.0):
                return "poincare kernel factor differs from the product-form power sums"
            return check_inequality_report("poincare")(report)

        return check


def _series_payload(series) -> dict:
    return {str(t): [e.poly_part, e.remainder, e.total] for t, e in series.items()}


# ---------------------------------------------------------------------------
# cli-float: in-process CLI calls on the float backend


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


CLI_GRID_SIZES = (20, 40, 80, 120, 160, 200, 250, 300)
CLI_COMMANDS = (
    "eval-sum",
    "eval-caputo",
    "taylor",
    "bound",
    "ineq-input:poincare",
    "ineq-input:sobolev",
    "ineq-input:ostrowski",
    "ineq-input:avg-sobolev",
    "ineq-input:opial",
    "ineq-input:opial-25",
    "verify:taylor",
    "ineq:sobolev",
)
CLI_FORMATS = ("json", "csv", "table")
SUITE_TRIALS = {"verify": 4, "ineq": 10}


def parse_output(text: str, fmt: str) -> Dict[str, str]:
    """Flatten a rendered report or suite result (json, csv or table) into fields."""
    if fmt == "json":
        flat: Dict[str, str] = {}

        def walk(prefix: str, obj) -> None:
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{prefix}{k}.", v)
            else:
                flat[prefix[:-1]] = obj

        walk("", json.loads(text))
        return flat
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["field", "value"]:
            raise ValueError("missing csv header")
        return {k: v for k, v in rows[1:]}
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return fields


def parse_lines(text: str) -> Dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines())


def parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if value not in ("True", "False"):
        raise ValueError(f"not a boolean: {value!r}")
    return value == "True"


class CliFloat:
    """One ``nablafrac.cli.main(argv)`` call per operation, float backend."""

    name = "cli-float"
    round_len = len(CLI_COMMANDS) * len(CLI_FORMATS)  # every command in every format
    pass_rounds_per_second = 0.3

    def __init__(self, sizes=CLI_GRID_SIZES, suite_trials=SUITE_TRIALS) -> None:
        self.sizes = sizes
        self.suite_trials = suite_trials

    def setup(self, nf, seed: int, workdir: str) -> None:
        self.nf = nf
        self.seed = seed
        self.ref = ReferenceWeights()
        rng = random.Random(seed)
        lo = BASE - HEAD
        self.grids = []
        os.makedirs(workdir, exist_ok=True)
        for i, n in enumerate(self.sizes):
            values = head_grid_values(rng, n, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            f = nf.GridFunction(lo, tuple(Fraction(v) for v in values))
            path = os.path.join(workdir, f"grid{i}.{'json' if i % 2 else 'csv'}")
            (nf.gridio.write_grid_json if i % 2 else nf.gridio.write_grid_csv)(f, path)
            if nf.gridio.read_grid(path) != f:
                raise RuntimeError(f"grid file {path} does not round-trip")
            self.grids.append((path, {lo + j: Fraction(v) for j, v in enumerate(values)}, lo + n - 1))

    def op(self, index: int) -> Op:
        slot = index % self.round_len
        command = CLI_COMMANDS[slot % len(CLI_COMMANDS)]
        fmt = CLI_FORMATS[slot // len(CLI_COMMANDS)]
        path, fv, hi = self.grids[slot % len(self.grids)]
        rng = op_rng(self.seed, index)
        den = rng.randint(2, 8)
        common = ["--backend", "float", "--format", fmt]
        if ":" in command:
            verb, suite = command.split(":")
        else:
            verb, suite = command, None
        if verb in ("verify", "ineq"):
            trials = self.suite_trials[verb]
            argv = [verb, suite, *common, "--trials", str(trials), "--seed", str(rng.getrandbits(32))]
            return self._op(command, argv, self._check_suite(suite, trials, fmt))
        order = draw_order(rng, den, 2 if suite == "opial" else 0, 3)
        m = math.ceil(order)
        p = rng.randint(0, m - 1)
        a = ["--a", str(BASE)]
        if verb == "eval-sum":
            argv = [verb, *common, "--input", path, *a, "--nu", str(order), "--t", str(hi)]
            return self._op(command, argv, self._check_scalar(fv, order, 0, BASE, hi))
        if verb == "eval-caputo":
            # Base BASE+1: the m-th differences at the base reach back to the grid's start.
            argv = [verb, *common, "--input", path, "--a", str(BASE + 1), "--mu", str(order), "--t", str(hi)]
            return self._op(command, argv, self._check_scalar(fv, m - order, m, BASE + 1, hi))
        if verb in ("taylor", "bound"):
            argv = [verb, *common, "--input", path, *a, "--mu", str(order), "--p", str(p), "--t", str(hi)]
            return self._op(command, argv, self._check_expansion(verb, fv, p, hi, fmt))
        span = ["--t", str(hi)] if suite.startswith("opial") else ["--b", str(hi)]
        argv = ["ineq", suite, *common, "--input", path, *a, "--mu", str(order), "--p", str(p), *span]
        return self._op(command, argv, self._check_report(suite, fv, m, p, hi, fmt))

    def _op(self, label: str, argv: List[str], check) -> Op:
        def call() -> CliResult:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.nf.cli.main(argv)
            return CliResult(code, out.getvalue(), err.getvalue())

        def guarded(result: CliResult) -> Optional[str]:
            if result.code not in (0, 1):
                return f"exit code {result.code}: {result.err.strip()}"
            try:
                return check(result)
            except (ValueError, KeyError, TypeError) as exc:
                return f"unparsable output ({exc}): {result.out[:200]!r}"

        return Op(label, call, guarded, lambda r: [r.code, r.out], lambda r: r.code == 1)

    def _check_scalar(self, fv, order, m, a, t):
        def check(result: CliResult) -> Optional[str]:
            if result.code != 0:
                return "evaluation exited with code 1"
            want, scale = conv_ref(
                self.ref.floats(order, t - a + 1), lambda s: float(nabla_ref(fv, s, m)), a, t
            )
            if not close(float(result.out), want, scale):
                return f"value {result.out.strip()} differs from the product-form sum {want!r}"
            return None

        return check

    @staticmethod
    def _check_expansion(verb, fv, p, t, fmt):
        def check(result: CliResult) -> Optional[str]:
            fields = json.loads(result.out) if fmt == "json" else parse_lines(result.out)
            target = float(nabla_ref(fv, t, p))
            if verb == "bound":
                if not close(float(fields["lhs"]), abs(target), 0.0):
                    return "bound lhs differs from |nabla^p f(t)|"
                return None
            poly, rem, total = (float(fields[k]) for k in ("poly_part", "remainder", "total"))
            if poly != 0.0 or not close(poly + rem, target, 0.0) or not close(total, target, 0.0):
                return "poly_part + remainder differs from nabla^p f(t)"
            return None

        return check

    @staticmethod
    def _check_report(suite, fv, m, p, b, fmt):
        def check(result: CliResult) -> Optional[str]:
            fields = parse_output(result.out, fmt)
            if fields["name"] != suite:
                return f"report name {fields['name']!r}"
            lhs, rhs, slack = (float(fields[k]) for k in ("lhs", "rhs", "slack"))
            if not close(slack, rhs - lhs, abs(rhs)):
                return "slack != rhs - lhs"
            if parse_bool(fields["holds"]) != (result.code == 0):
                return "exit code disagrees with holds"
            diffs = [float(nabla_ref(fv, j, p)) for j in range(BASE + m, b + 1)]
            if suite == "poincare":
                want = sum(d * d for d in diffs)
            elif suite == "sobolev":
                want = math.sqrt(sum(d * d for d in diffs))
            elif suite == "ostrowski":
                want = abs(sum(diffs[1:]) / (len(diffs) - 1))
            elif suite == "avg-sobolev":
                want = math.sqrt(sum(float(fv[j]) ** 2 for j in range(BASE + m, b + 1)))
            else:
                return None
            if not close(lhs, want, 0.0):
                return f"{suite} lhs differs from the direct sum"
            return None

        return check

    @staticmethod
    def _check_suite(suite, trials, fmt):
        def check(result: CliResult) -> Optional[str]:
            fields = parse_output(result.out, fmt)
            if fields["name"] != suite or int(fields["trials"]) != trials:
                return "suite name or trial count differs from the request"
            if (int(fields["failures"]) > 0) != (result.code == 1):
                return "exit code disagrees with the failure count"
            return None

        return check


WORKLOADS = {"suites": Suites, "long-grid": LongGrid, "cli-float": CliFloat}
