"""Deterministic random-instance generation and the verification suites.

Per-trial seeds derive from ``(master_seed, trial_index)`` through the
splitmix-style mixer :func:`mix_seed`, so serial and parallel runs agree and
every failing instance can be reproduced in isolation from its trial seed.

Identity suites check exact algebraic identities (zero defect expected on the
exact backend); inequality suites generate admissible functions, evaluate one
bound report per trial, and count slack violations.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Tuple

from .errors import ParameterError, UsageError
from .fracops import _order, delta_frac_sum, frac_sum_grid, kernel_weights
from .grid import GridFunction, _added, _differences
from .ineq import (
    InequalityReport,
    OpialParams,
    _unit_weights,
    avg_sobolev_report,
    opial_corollary_25,
    opial_report,
    ostrowski_report,
    poincare_report,
    sobolev_report,
)
from .scalars import (
    Backend,
    DEFAULT_TOLERANCE,
    Scalar,
    TolerancePolicy,
    _backend,
    _cast,
    _float_gamma_ratio,
    _integer,
    gamma_ratio_mod1,
    scalar_close,
    to_float,
)
from .taylor import (
    TaylorSeed,
    _check_base_shift,
    construct_from_taylor_data,
    kernel_sum_closed_form,
    sum_rising_closed_form,
    taylor_extended_series,
    taylor_fractional,
    taylor_fractional_series,
)

__all__ = [
    "FunctionSpec",
    "IDENTITY_SUITE_NAMES",
    "INEQUALITY_SUITE_NAMES",
    "SuiteResult",
    "gen_function",
    "mix_seed",
    "replay_identity_trial",
    "replay_inequality_trial",
    "run_identity_suite",
    "run_inequality_suite",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(master_seed: int, trial_index: int) -> int:
    """Splitmix-style mixing of (master seed, trial index) into a 64-bit seed.

    ``z = master + (index+1)·golden`` followed by the two xor-multiply rounds
    and the final xor-shift of the splitmix64 finaliser.
    """
    _integer(master_seed, "master_seed", 0)
    _integer(trial_index, "trial_index", 0)
    z = (master_seed + (trial_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class FunctionSpec:
    """Recipe for one deterministic admissible grid function.

    ``zero_initials_from = k0`` forces the backward differences of order
    ``k0 .. m−1`` at the base to vanish; differences below ``k0`` and the m-th
    difference values on ``(a, b]`` are drawn uniformly from
    ``[-value_range, value_range]``.
    """

    a: int
    m: int
    b: int
    zero_initials_from: int
    value_range: int
    seed: int

    def __post_init__(self) -> None:
        for name, minimum in (("a", None), ("m", 1), ("b", None), ("zero_initials_from", None),
                              ("value_range", 0), ("seed", None)):
            _integer(getattr(self, name), name, minimum)
        if not self.a + self.m < self.b:
            raise ParameterError(f"need a+m < b, got a+m={self.a + self.m}, b={self.b}")
        if not 0 <= self.zero_initials_from <= self.m:
            raise ParameterError(
                f"zero_initials_from must lie in [0, m], got {self.zero_initials_from}"
            )
        if not 0 <= self.seed <= _MASK64:
            raise ParameterError("seed must fit in 64 bits")


def gen_function(spec: FunctionSpec) -> GridFunction:
    """Deterministic integer-valued grid function on ``[a−m+1, b]``.

    Draw order is fixed: the free initial differences first (ascending k),
    then the m-th difference values on ``(a, b]`` in ascending t.
    """
    rng = random.Random(spec.seed)
    bound = spec.value_range
    initial = tuple(
        rng.randint(-bound, bound) if k < spec.zero_initials_from else 0
        for k in range(spec.m)
    )
    h = tuple(rng.randint(-bound, bound) for _ in range(spec.a + 1, spec.b + 1))
    return construct_from_taylor_data(TaylorSeed._of(spec.a, spec.m, initial, h))


@dataclass(frozen=True)
class SuiteResult:
    """Aggregated outcome of one suite run.

    For identity suites ``worst_slack`` is the largest absolute defect seen
    (0.0 when everything matches exactly); for inequality suites it is the
    smallest slack seen over all finite-slack trials.
    """

    suite: str
    trials: int
    failures: int
    worst_slack: float
    failing_seeds: Tuple[int, ...]
    backend: Backend
    master_seed: int

    def __post_init__(self) -> None:
        _backend(self.backend)

    @property
    def passed(self) -> bool:
        return self.failures == 0


# ---------------------------------------------------------------------------
# random draws


_VALUE_BOUND = 9  # drawn grid values and m-th differences lie in [-9, 9]
_MAX_DEN = 8  # largest denominator of a drawn order or parameter


def _random_grid(rng: random.Random, lo: int, hi: int) -> GridFunction:
    return GridFunction._of(
        lo, tuple(Fraction(rng.randint(-_VALUE_BOUND, _VALUE_BOUND)) for _ in range(lo, hi + 1))
    )


def _draw_fraction(
    rng: random.Random, lo: Fraction, hi: Fraction, non_integer: bool = False
) -> Fraction:
    """Uniform-ish rational in (lo, hi] with denominator at most ``_MAX_DEN``.  The
    bounds are whole numbers, so every denominator has a numerator in range."""
    while True:
        den = rng.randint(1, _MAX_DEN)
        q = Fraction(rng.randint(math.floor(lo * den) + 1, math.floor(hi * den)), den)
        if non_integer and q.denominator == 1:
            continue
        return q


def _draw_order_with_ceiling(rng: random.Random, m: int) -> Fraction:
    """Non-integer rational in (m−1, m)."""
    den = rng.randint(2, _MAX_DEN)
    num = rng.randint((m - 1) * den + 1, m * den - 1)
    return Fraction(num, den)


def _maybe_float_grid(f: GridFunction, backend: Backend) -> GridFunction:
    return f.as_float() if backend is Backend.FLOAT else f


def _spec_function(rng: random.Random, a: int, m: int, hi: int, k0: int) -> GridFunction:
    """A drawn admissible function on ``[a−m+1, max(hi, a+m+1)]`` whose backward
    differences of order ``k0 .. m−1`` vanish at ``a``."""
    b = max(hi, a + m + 1)
    spec = FunctionSpec(
        a=a, m=m, b=b, zero_initials_from=k0, value_range=_VALUE_BOUND, seed=rng.getrandbits(64)
    )
    return gen_function(spec)


# ---------------------------------------------------------------------------
# identity suites: each trial returns (got, want) pairs

Pair = Tuple[Scalar, Scalar]


def _trial_exponents(rng: random.Random, backend: Backend) -> List[Pair]:
    a = rng.randint(-5, 5)
    length = rng.randint(3, 30)
    f = _maybe_float_grid(_random_grid(rng, a, a + length - 1), backend)
    mu = _draw_fraction(rng, Fraction(0), Fraction(3), non_integer=True)
    nu = _draw_fraction(rng, Fraction(0), Fraction(3), non_integer=True)
    mu_nu = frac_sum_grid(frac_sum_grid(f, a, mu), a, nu).values
    nu_mu = frac_sum_grid(frac_sum_grid(f, a, nu), a, mu).values
    combined = frac_sum_grid(f, a, mu + nu).values
    return [pair for x, y, want in zip(mu_nu, nu_mu, combined) for pair in ((x, want), (y, want))]


def _trial_duality(rng: random.Random, backend: Backend) -> List[Pair]:
    a = rng.randint(-5, 5)
    length = rng.randint(1, 30)
    f = _maybe_float_grid(_random_grid(rng, a, a + length - 1), backend)
    nu = _draw_fraction(rng, Fraction(0), Fraction(3), non_integer=True)
    want = frac_sum_grid(f, a, nu).values
    return [(delta_frac_sum(f, a, nu, j), want[j]) for j in range(length)]


def _trial_nabla_of_sum(rng: random.Random, backend: Backend) -> List[Pair]:
    a = rng.randint(-5, 5)
    length = rng.randint(3, 30)
    f = _maybe_float_grid(_random_grid(rng, a, a + length - 1), backend)
    nu = _draw_fraction(rng, Fraction(1), Fraction(3), non_integer=True)
    p = rng.randint(1, math.ceil(nu) - 1)
    summed = frac_sum_grid(f, a, nu)
    reduced = frac_sum_grid(f, a, nu - p)
    return list(zip(_differences(summed, a + p, p, f.hi), reduced.values[p:]))


def _trial_taylor(rng: random.Random, backend: Backend) -> List[Pair]:
    m = rng.randint(1, 5)
    a = rng.randint(-5, 5)
    f = _maybe_float_grid(_spec_function(rng, a, m, a + rng.randint(m + 1, 40 - m), k0=m), backend)
    mu = _draw_order_with_ceiling(rng, m)
    return [(expansion.total, f.at(t)) for t, expansion in taylor_fractional_series(f, a, mu).items()]


def _trial_taylor_extended(rng: random.Random, backend: Backend) -> List[Pair]:
    m = rng.randint(1, 5)
    a = rng.randint(0, 5)
    f = _maybe_float_grid(_spec_function(rng, a, m, a + rng.randint(m + 1, 40 - m), k0=m), backend)
    mu = _draw_order_with_ceiling(rng, m)
    p = rng.randint(0, m - 1)
    pairs = [(e.poly_part + e.remainder, e.total) for e in taylor_extended_series(f, a, mu, p).values()]
    return pairs + [(f.at(f.hi), taylor_fractional(f, a, mu, f.hi).total)]


def _trial_power_rule(rng: random.Random, backend: Backend) -> List[Pair]:
    a = rng.randint(-5, 5)
    k = rng.randint(1, 6)
    p = rng.randint(1, k)
    span = 30
    row = kernel_weights(Fraction(k + 1), span, backend)
    one, zero = _cast(backend, 1), _cast(backend, 0)
    g = GridFunction(a, (zero,) + tuple(row))
    expected = (one if k == p else zero,) + kernel_weights(Fraction(k - p + 1), span, backend)
    return list(zip(_differences(g, a + p, p, a + span), expected[p:]))


def _trial_gamma_quotient(rng: random.Random, backend: Backend) -> List[Pair]:
    if rng.random() < 0.4:
        k: Fraction = Fraction(rng.randint(0, 6))
    else:
        k = _draw_fraction(rng, Fraction(-1), Fraction(6), non_integer=True)
    x = k + _draw_fraction(rng, Fraction(0), Fraction(6))
    if backend is Backend.FLOAT:  # x − k > 0, so every argument is positive
        xf, kf = float(x), float(k)
        q1 = _float_gamma_ratio(xf + 1.0, (xf - kf + 1.0,))
        q2 = _float_gamma_ratio(xf + 2.0, (xf - kf + 1.0,))
        q3 = _float_gamma_ratio(xf + 1.0, (xf - kf,))
        return [(q1, (q2 - q3) / (kf + 1.0))]
    # All quotients expressed relative to Γ(x+1)/Γ(x−k+1), which divides out.
    up = gamma_ratio_mod1(x + 2, x + 1)
    down = gamma_ratio_mod1(x - k + 1, x - k)
    pairs: List[Pair] = [(Fraction(1), (up - down) / (k + 1))]
    if k.denominator == 1 and k >= 0:
        q1 = gamma_ratio_mod1(x + 1, x - k + 1)
        q2 = gamma_ratio_mod1(x + 2, x - k + 1)
        q3 = gamma_ratio_mod1(x + 1, x - k)
        pairs.append((q1, (q2 - q3) / (k + 1)))
    return pairs


def _trial_kernel_closed_form(rng: random.Random, backend: Backend) -> List[Pair]:
    a = rng.randint(-5, 5)
    mu = _draw_fraction(rng, Fraction(0), Fraction(3), non_integer=True)
    n = rng.randint(1, 50)
    closed = kernel_sum_closed_form(a, mu, a + n, backend)
    direct = _added(kernel_weights(mu, n, backend))
    return [(closed, direct)]


def _trial_rising_sum(rng: random.Random, backend: Backend) -> List[Pair]:
    a = rng.randint(-5, 5)
    m = rng.randint(1, 5)
    b = a + m + rng.randint(1, 20)
    nu = _draw_fraction(rng, Fraction(0), Fraction(3), non_integer=True)
    closed = sum_rising_closed_form(a, m, b, nu, backend)
    # w(j−a) for j = a+m+1 .. b
    direct = _added(kernel_weights(nu + 1, b - a, backend)[m:])
    return [(closed, direct)]


_IDENTITY_SUITES: Dict[str, Callable[[random.Random, Backend], List[Pair]]] = {
    "exponents": _trial_exponents,
    "duality": _trial_duality,
    "nabla-of-sum": _trial_nabla_of_sum,
    "taylor": _trial_taylor,
    "taylor-extended": _trial_taylor_extended,
    "kernel-closed-form": _trial_kernel_closed_form,
    "power-rule": _trial_power_rule,
    "gamma-quotient": _trial_gamma_quotient,
    "rising-sum": _trial_rising_sum,
}

IDENTITY_SUITE_NAMES = tuple(sorted(_IDENTITY_SUITES))


def _suite(table: dict, kind: str, name: str) -> Callable:
    """The trial function of the named suite; an unknown name is a usage error."""
    if name not in table:
        raise UsageError(f"unknown {kind} suite {name!r}; pick one of {', '.join(sorted(table))}")
    return table[name]


def _run_trials(
    name: str, trials: int, master_seed: int, backend: Backend, judge: Callable, fold: Callable, worst: float
) -> SuiteResult:
    """The suite loop.  ``judge(rng)`` runs the trial behind one trial seed and
    returns ``(failed, slacks)``; ``fold`` folds every non-NaN slack into ``worst``."""
    _integer(trials, "trials", 1)
    failing: List[int] = []
    for index in range(trials):
        trial_seed = mix_seed(master_seed, index)
        failed, slacks = judge(random.Random(trial_seed))
        worst = reduce(fold, (s for s in slacks if not math.isnan(s)), worst)
        if failed:
            failing.append(trial_seed)
    return SuiteResult(name, trials, len(failing), worst, tuple(failing), backend, master_seed)


def run_identity_suite(
    name: str,
    trials: int,
    master_seed: int,
    backend: Backend = Backend.EXACT,
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> SuiteResult:
    """Run ``trials`` randomized checks of the named identity.

    A pair failing :func:`scalar_close` under ``policy`` is a failure, so two
    exact values must be equal.  The absolute defect of the worst pair is reported.
    """
    trial_fn, backend = _suite(_IDENTITY_SUITES, "identity", name), _backend(backend)

    def judge(rng: random.Random) -> Tuple[bool, List[float]]:
        pairs = trial_fn(rng, backend)
        failed = not all(scalar_close(got, want, policy) for got, want in pairs)
        return failed, [abs(to_float(got) - to_float(want)) for got, want in pairs]

    return _run_trials(name, trials, master_seed, backend, judge, max, 0.0)


# ---------------------------------------------------------------------------
# inequality suites: each trial returns a report


def _draw_weight(rng: random.Random, allow_zero: bool = False) -> Fraction:
    num = rng.randint(0 if allow_zero else 1, 8)
    den = rng.randint(1, 8)
    return Fraction(num, den)


def _given(value, draw: Callable[[], object]):
    """A suite option's given ``value``, else ``draw()``: the one "given, else drawn" rule.
    A given value takes the draw's place and draws nothing; with none, every draw is the suite's."""
    return draw() if value is None else value


def _trial_order(rng: random.Random, opts: dict, lo: int, hi: int) -> Fraction:
    """The given ``mu``, else a non-integer order drawn from ``(lo, hi)``, or from ``(p, hi)``
    under a given shift ``p > lo``; a given p the order cannot exceed is an ``OrderError``."""
    p, mu = opts.get("p"), opts.get("mu")
    if p is not None:  # checked before any draw, against hi when the order is drawn
        _check_base_shift(0, hi if mu is None else _order(mu), p)
        lo = max(lo, p)
    return _order(_given(mu, lambda: _draw_fraction(rng, Fraction(lo), Fraction(hi), non_integer=True)))


def _trial_opial(rng: random.Random, backend: Backend, opts: dict, policy) -> InequalityReport:
    mu = _trial_order(rng, opts, 2, 3)
    m = math.ceil(mu)
    a = rng.randint(0, 3)
    p = _given(opts.get("p"), lambda: rng.randint(0, min(2, m - 1)))
    t = a + m + rng.randint(0, 12)
    f = _maybe_float_grid(_spec_function(rng, a, m, t, k0=p), backend)
    inner = GridFunction._of(a + 1, tuple(_draw_weight(rng) for _ in range(a + 1, t + 1)))
    outer = GridFunction._of(a + m, tuple(_draw_weight(rng, allow_zero=True) for _ in range(a + m, t + 1)))
    weights = (_maybe_float_grid(inner, backend), _maybe_float_grid(outer, backend))
    return _report("opial", f, a, t, mu, p, opts, policy, weights)


def _trial_opial_25(rng: random.Random, backend: Backend, opts: dict, policy) -> InequalityReport:
    t = 3 + rng.randint(0, 17)
    f = _maybe_float_grid(_spec_function(rng, 0, 3, t, k0=0), backend)
    return _report("opial-25", f, 0, t, None, None, opts, policy)


def _trial_shifted(name: str, zero_initials_from: Callable[[int, int], int]) -> Callable:
    """The trial of a shifted single-order bound: draw ``(μ, p, a, b, f)``, ``f``
    with vanishing backward differences of order ``zero_initials_from(p, m) .. m−1``
    at the base.  The draw order is fixed so trial seeds reproduce."""

    def trial(rng: random.Random, backend: Backend, opts: dict, policy) -> InequalityReport:
        mu = _trial_order(rng, opts, 0, 4)
        m = math.ceil(mu)
        p = _given(opts.get("p"), lambda: rng.randint(0, m - 1))
        a = rng.randint(0, 3)
        b = a + m + 1 + rng.randint(0, 11)
        f = _maybe_float_grid(_spec_function(rng, a, m, b, k0=zero_initials_from(p, m)), backend)
        return _report(name, f, a, b, mu, p, opts, policy)

    return trial


def _trial_avg_sobolev(rng: random.Random, backend: Backend, opts: dict, policy) -> InequalityReport:
    mu = opts.get("mu")  # a given mu is the one order [mu], as `ineq avg-sobolev --input` reads it
    orders = _given(opts.get("mu_list", None if mu is None else [mu]), lambda: [
        _draw_fraction(rng, Fraction(lo), Fraction(lo + 1), non_integer=True) for lo in (1, 2)])
    orders = list(map(_order, orders))
    m_top = math.ceil(orders[-1])
    a = rng.randint(0, 3)
    b = a + m_top + 1 + rng.randint(0, 9)
    f = _maybe_float_grid(_spec_function(rng, a, m_top, b, k0=0), backend)
    weights = []
    for _ in orders:
        vals = []
        for _tau in range(a + 1, b + 1):
            den = rng.randint(2, 8)
            num = rng.randint((den + 1) // 2, 2 * den)
            vals.append(Fraction(num, den))
        weights.append(_maybe_float_grid(GridFunction._of(a + 1, tuple(vals)), backend))
    return _report("avg-sobolev", f, a, b, orders, 0, opts, policy, weights)


def _report(
    name: str, f: GridFunction, a: int, end: int, mu, p, opts: dict, policy, weights=None
) -> InequalityReport:
    """The one call from a family name to its report, shared by the suites and
    ``nablafrac ineq --input``.  ``end`` is ``t`` for the weighted-product bounds
    and ``b`` otherwise; ``mu`` is the order list of ``avg-sobolev``.  Options not
    given default to γ = δ = r = 2, p = 0 and the ``paper`` g-bound, and
    ``weights=None`` means unit weights."""
    gamma, delta, r = (opts.get(key, 2) for key in ("gamma", "delta", "r"))
    p = 0 if p is None else p
    if name == "opial":
        mu = _order(mu)
        inner, outer = weights or (_unit_weights(f, a + 1, end), _unit_weights(f, a + math.ceil(mu), end))
        params = OpialParams(mu=mu, p=p, gamma=gamma, delta=delta, inner_weights=inner, outer_weights=outer)
        return opial_report(f, a, end, params, opts.get("g_variant", "paper"), policy)
    if name == "opial-25":
        return opial_corollary_25(f, end, policy)
    if name == "ostrowski":
        return ostrowski_report(f, a, end, mu, p, policy)
    if name == "poincare":
        return poincare_report(f, a, end, mu, p, gamma, delta, policy)
    if name == "sobolev":
        return sobolev_report(f, a, end, mu, p, gamma, delta, r, policy)
    weights = weights or [_unit_weights(f, a + 1, end) for _ in mu]  # avg-sobolev
    return avg_sobolev_report(f, a, end, mu, weights, r, policy)


_INEQUALITY_SUITES: Dict[str, Callable[[random.Random, Backend, dict, TolerancePolicy], InequalityReport]] = {
    "opial": _trial_opial,
    "opial-25": _trial_opial_25,
    "ostrowski": _trial_shifted("ostrowski", lambda p, m: min(p + 1, m)),
    "poincare": _trial_shifted("poincare", lambda p, m: p),
    "sobolev": _trial_shifted("sobolev", lambda p, m: p),
    "avg-sobolev": _trial_avg_sobolev,
}

INEQUALITY_SUITE_NAMES = tuple(sorted(_INEQUALITY_SUITES))


def run_inequality_suite(
    name: str,
    trials: int,
    master_seed: int,
    backend: Backend = Backend.EXACT,
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
    **params,
) -> SuiteResult:
    """Run ``trials`` randomized bound evaluations of the named family.

    Each report is built under ``policy``, and a trial fails when it does not
    hold (:attr:`InequalityReport.holds`: NaN first, then an exact certificate,
    then the slack tolerance).
    """
    trial_fn, backend = _suite(_INEQUALITY_SUITES, "inequality", name), _backend(backend)

    def judge(rng: random.Random) -> Tuple[bool, Tuple[float]]:
        report = trial_fn(rng, backend, params, policy)
        return not report.holds, (to_float(report.slack),)

    result = _run_trials(name, trials, master_seed, backend, judge, min, math.inf)
    if math.isinf(result.worst_slack):
        return dataclasses.replace(result, worst_slack=float("nan"))
    return result


def replay_identity_trial(
    name: str, trial_seed: int, backend: Backend = Backend.EXACT
) -> List[Pair]:
    """Re-run the single identity trial behind a recorded seed; returns its
    (got, want) comparison pairs."""
    trial_fn, backend = _suite(_IDENTITY_SUITES, "identity", name), _backend(backend)
    return trial_fn(random.Random(_integer(trial_seed, "trial_seed", 0)), backend)


def replay_inequality_trial(
    name: str, trial_seed: int, backend: Backend = Backend.EXACT, **params
) -> InequalityReport:
    """Re-run the single inequality trial behind a recorded seed."""
    trial_fn, backend = _suite(_INEQUALITY_SUITES, "inequality", name), _backend(backend)
    return trial_fn(random.Random(_integer(trial_seed, "trial_seed", 0)), backend, params, DEFAULT_TOLERANCE)
