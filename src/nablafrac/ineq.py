"""Evaluators for the five bound families: weighted-product (Opial-type),
average-deviation (Ostrowski-type), norm-vs-norm (Poincaré- and Sobolev-type)
and the averaged multi-order Sobolev variant.

Each evaluator returns an :class:`InequalityReport` carrying the left- and
right-hand sides, the slack ``rhs − lhs``, and every intermediate component.
Both backends share one arithmetic path over the scaled form of :mod:`grid`: exact
sums and integral powers run on integer numerators, each value a report shows is one
``Fraction``, and fractional powers and roots are floats of the ``float()``-rounded rationals.
Every multi-term sum adds left to right from 0 in ``grid._added`` or ``_convolve``
(running sums in ``accumulate``), never in the builtin ``sum``, whose float
algorithm changed in Python 3.12, so float results do not depend on the interpreter.
Whenever the exponent combination keeps both sides rational (``gamma = delta
= 2``, and ``r = 2`` where an outer root appears), the report additionally
carries exact squared certificates computed in big rationals.
:func:`_powers` raises every power and :func:`_root` takes every root;
:func:`_admissible` checks every bound's function, :func:`_make_report` writes
every certificate and :func:`_verdict` is the one rule that decides ``holds``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate, repeat
from operator import mul, truediv
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import BoundaryConditionError, DomainError, ParameterError
from .fracops import FractionalOrder, OrderInput, _caputo, _convolve, _order, _scaled_kernel
from .grid import GridFunction, _added, _initial_column, _scalar, _scaled, _scaled_differences, nabla
from .scalars import (
    Backend,
    DEFAULT_TOLERANCE,
    Scalar,
    TolerancePolicy,
    _cast,
    _classify_exponent,
    _integer,
    parse_order,
    to_float,
)
from .taylor import _check_base_shift, _check_window, sum_rising_closed_form

__all__ = [
    "InequalityReport",
    "OpialParams",
    "avg_sobolev_report",
    "g_bound",
    "opial_corollary_25",
    "opial_report",
    "ostrowski_report",
    "poincare_report",
    "sobolev_report",
]

Exponent = Union[Fraction, float]


def as_exponent(value) -> Exponent:
    """Normalise an exponent parameter: a string is parsed, integral values
    become ``Fraction``s, and other rationals and finite floats stay as they are."""
    if isinstance(value, str):
        return parse_order(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"exponents must be finite, got {value!r}")
    integral, value = _classify_exponent(value)
    return Fraction(value) if integral else value


def _root(x: Scalar, e: Exponent) -> Scalar:
    """``x**(1/e)``; identity for e = 1, float (NaN below zero) otherwise."""
    if e == 1:
        return x
    v = float(x)
    if v < 0.0:
        return float("nan")
    return v ** (1.0 / float(e))


def _powers(nums: Iterable, d, e: Exponent, floated: bool = False) -> tuple:
    """``(x/d)^e`` for each ``x`` of a scaled sequence, scaled: a list of integers over
    ``d^e`` for exact values and an integral ``e``, else an iterator of floats (``x/d``
    rounds as ``float()``).  Every power of the bound evaluators is raised here.  With ``floated``
    the caller passes values ≥ 0 and floats a sum holding each power (or a power ≥ 1 of it), or
    ``rhs`` and ``slack`` beside it: a power past ``2^1025`` overflows there, so it does here."""
    integral, k = _classify_exponent(e)
    if integral and not isinstance(d, float):
        nums = list(nums)
        top = max(nums, default=0) if floated else 0
        if top > d:
            # log2(top/d) from below: math.log2 of an int errs by a few ulps of its bit length
            bits = math.log2(top) - math.log2(d) - 1e-12 * (top.bit_length() + d.bit_length())
            if bits > 0 and k > 1025 / bits:
                raise OverflowError("an exact power exceeds 2**1025")
        return [x**k for x in nums], d**k
    xs = nums if isinstance(d, float) else map(truediv, nums, repeat(d))  # a float scale is 1.0
    return map(pow, xs, repeat(k if integral else float(e))), 1.0  # a float to a Fraction e is to float(e)


def _power_sum(nums: Sequence, d, e: Exponent) -> Scalar:
    """``Σ (x/d)^e`` over a scaled sequence, added left to right from 0: a
    ``Fraction`` for exact values and an integral ``e``, else a float.  Every caller
    passes non-negative values and takes the float of the sum (``floated``)."""
    powers, dp = _powers(nums, d, e, floated=True)
    return _scalar(_added(powers), dp)


def _weights(f: GridFunction, C: GridFunction, lo: int, hi: int) -> tuple:
    """The values of the weight grid ``C`` on ``[lo, hi]``; the one weight-grid rule:
    ``C`` shares the backend of ``f`` and covers the window."""
    if C.backend is not f.backend:
        raise ParameterError("weight grids must share the function's backend")
    C.require_window(lo, hi)
    return C.values[lo - C.lo : hi + 1 - C.lo]


def _unit_weights(f: GridFunction, lo: int, end: int) -> GridFunction:
    """Weight 1 on ``[lo, end]`` in the backend of ``f``, one point when ``end < lo``, so
    the report's own window check judges ``end``, an integer the caller has checked."""
    return GridFunction.constant(lo, max(end, lo), _cast(f.backend, 1))


def _norm_exponent(r) -> Exponent:
    """The outer norm exponent ``r ≥ 1`` of the Sobolev-type bounds."""
    r = as_exponent(r)
    if r < 1:
        raise ParameterError(f"norm exponent r must be >= 1, got {r}")
    return r


def _check_g_variant(variant: str) -> None:
    if variant not in ("paper", "tight"):
        raise ParameterError(f"unknown g-bound variant {variant!r}")


def _conjugate_pair(gamma, delta, policy: TolerancePolicy) -> Tuple[Exponent, Exponent]:
    """The parsed exponents ``γ, δ > 1`` with ``1/γ + 1/δ = 1``: exactly when both are
    rational, else within ``abs_eps + rel_eps``."""
    gamma, delta = as_exponent(gamma), as_exponent(delta)
    if not (gamma > 1 and delta > 1):
        raise ParameterError(f"exponents must exceed 1, got gamma={gamma}, delta={delta}")
    defect = abs(1 / gamma + 1 / delta - 1)  # a Fraction when both are rational
    if defect > (0 if isinstance(defect, Fraction) else policy.abs_eps + policy.rel_eps):
        raise ParameterError(f"gamma={gamma} and delta={delta} are not conjugate")
    return gamma, delta


def _admissible(
    f: GridFunction, a: int, mu: Fraction, p: int, k0: int, first: int, end: int, policy, context: str,
    name: str = "b",
) -> None:
    """The one admissibility check of the bounds: base then shift, then the window
    ``[a−m+1, end]`` with an integer ``end ≥ first`` (the argument ``name``), then
    ``∇^k f(a) = 0`` for ``k0 ≤ k < m`` (a float within ``abs_eps``)."""
    m = math.ceil(mu)
    _check_base_shift(a, mu, p)
    _check_window(f, a - m + 1, first, end, name)
    for k, v in enumerate(_initial_column(f, a, m)[k0:], k0):
        if v != 0 if isinstance(v, Fraction) else abs(v) > policy.abs_eps:
            raise BoundaryConditionError(
                f"{context} requires the k={k} backward difference at {a} to vanish, got {v}"
            )


def _float_range(report):
    """``report`` with a float part beyond the double range (an ``OverflowError``
    from ``float()``, an int/int division or a power) raising ``DomainError``."""

    @wraps(report)
    def checked(*args, **kwargs):
        try:
            return report(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"a report value overflows the float range ({exc})") from exc

    return checked


def _fmt_param(value) -> Union[str, int, float, list]:
    if isinstance(value, list):
        return list(map(_fmt_param, value))
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    return value


@dataclass(frozen=True)
class InequalityReport:
    """One evaluated bound: ``slack = rhs − lhs``.

    ``holds`` follows the one verdict rule of :func:`_verdict`: a NaN ``rhs``
    or ``slack`` fails; otherwise an ``exact_holds`` certificate in
    ``components`` decides; otherwise the bound holds when
    ``slack ≥ −(abs_eps + rel_eps·|rhs|)``.
    """

    name: str
    params: dict
    lhs: Scalar
    rhs: Scalar
    slack: Scalar
    holds: bool
    components: dict


def _verdict(rhs: Scalar, slack: Scalar, components: dict, policy: TolerancePolicy) -> bool:
    """Whether a bound holds; the only place that decides it.  In order: a NaN
    ``rhs`` or ``slack`` fails, an ``exact_holds`` certificate decides, and
    otherwise ``slack ≥ −(abs_eps + rel_eps·|rhs|)``."""
    rhs_f, slack_f = to_float(rhs), to_float(slack)
    if math.isnan(rhs_f) or math.isnan(slack_f):
        return False
    if "exact_holds" in components:
        return components["exact_holds"] == 1
    return slack_f >= -(policy.abs_eps + policy.rel_eps * abs(rhs_f))


def _make_report(
    name: str,
    params: dict,
    lhs: Scalar,
    rhs: Scalar,
    components: dict,
    policy: TolerancePolicy,
    squared: Optional[Tuple[Scalar, Scalar]] = None,
) -> InequalityReport:
    """Slack, exact certificate and verdict of one bound, with the parameter echo
    formatted.  ``squared = (lhs², rhs²)`` certifies when both are rational;
    otherwise rational ``lhs`` and ``rhs`` are compared directly."""
    params = {key: _fmt_param(value) for key, value in params.items()}
    exact = isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    if squared is not None and all(isinstance(v, Fraction) for v in squared):
        lhs_sq, rhs_sq = squared
        components.update(
            lhs_squared=lhs_sq, rhs_squared=rhs_sq, exact_holds=1 if lhs_sq <= rhs_sq else 0
        )
    elif exact:
        components["exact_holds"] = 1 if lhs <= rhs else 0
    slack = rhs - lhs
    holds = _verdict(rhs, slack, components, policy)
    return InequalityReport(
        name=name, params=params, lhs=lhs, rhs=rhs, slack=slack, holds=holds, components=components
    )


def g_bound(g: GridFunction, a: int, m: int, t: int, variant: str = "paper") -> Scalar:
    """Endpoint combination of a nondecreasing series that dominates the
    accumulated product ``Σ_{t'=a+m}^{t} g(t')·(g(t')−g(t'−1))``.

    ``paper`` adds the cross term and is an upper bound for every
    nondecreasing non-negative series; ``tight`` subtracts it (the sharper
    telescoped combination), which is only guaranteed when the series is
    convex and may even go negative otherwise.
    """
    _check_g_variant(variant)
    for value, what in ((a, "a"), (m, "m")):  # before the window ends derive from them
        _integer(value, what)
    _check_window(g, a + m - 2, a + m, t, "t")
    return _g_bounds(g.at(t), g.at(t - 1), g.at(a + m - 1), g.at(a + m - 2))[variant == "tight"]


def _g_bounds(gt: Scalar, gt1: Scalar, c1: Scalar, c2: Scalar) -> Tuple[Scalar, Scalar]:
    """``(paper, tight)`` from the series at ``t``, ``t−1``, ``a+m−1`` and ``a+m−2``."""
    base = 2 * (gt * gt - c1 * c1) + (gt1 * gt1 - c2 * c2) / 2
    cross = 2 * (gt * gt1 - c1 * c2)
    return base + cross, base - cross


@dataclass(frozen=True)
class OpialParams:
    """Weights and exponents for the weighted-product bound.

    ``inner_weights`` must be positive on ``[a+1, t]``; ``outer_weights``
    non-negative on ``[a+m, t]``; ``gamma`` and ``delta`` conjugate; the order
    must exceed 2 (so its ceiling is at least 3) and the shift ``p``.
    """

    mu: FractionalOrder
    p: int
    gamma: Exponent
    delta: Exponent
    inner_weights: GridFunction
    outer_weights: GridFunction

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", FractionalOrder(_order(self.mu, "weighted-product bound")))
        gamma, delta = _conjugate_pair(self.gamma, self.delta, DEFAULT_TOLERANCE)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "delta", delta)
        if self.mu.value <= 2:
            raise ParameterError(f"order must exceed 2 (ceiling >= 3), got {self.mu.value}")
        _check_base_shift(0, self.mu.value, self.p)  # opial_report checks its own base
        for tau, v in enumerate(self.inner_weights.values, self.inner_weights.lo):
            if not v > 0:
                raise ParameterError(f"inner weight at {tau} must be positive")
        for tp, v in enumerate(self.outer_weights.values, self.outer_weights.lo):
            if v < 0:
                raise ParameterError(f"outer weight at {tp} must be non-negative")


@_float_range
def opial_report(
    f: GridFunction,
    a: int,
    t: int,
    params: OpialParams,
    g_variant: str = "paper",
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """Weighted product of ``|∇^p f|`` and the Caputo-like difference against
    the Hölder bound ``K·G^{1/δ}``."""
    _check_g_variant(g_variant)
    mu, p, gamma, delta = params.mu.value, params.p, params.gamma, params.delta
    m = math.ceil(mu)
    _admissible(f, a, mu, p, p, a + m, t, policy, "weighted-product bound", "t")
    c, d = _weights(f, params.inner_weights, a + 1, t), _weights(f, params.outer_weights, a + m, t)

    cn, dc = _caputo(f, a + 1, mu, t)
    (cs, dcs), (ds, dd) = _scaled(c), _scaled(d)

    # g = Σ (C·|cap|)^δ, and θ(tp)^γ = Σ_{τ=a+1}^{tp} (w(tp−τ+1)/C(τ))^γ in ascending τ;
    # every prefix of g is floated, but w^γ, (1/C)^γ and (D/C)^γ only in products
    g_pow, dg = _powers([x * abs(y) for x, y in zip(cs, cn)], dcs * dc, delta, floated=True)
    g_nums = list(accumulate(g_pow))
    wn, dw = _scaled_kernel(mu - p, t - a, f.backend)
    wp, dwp = _powers(wn, dw, gamma)
    if isinstance(dwp, int):  # integer powers: θ^γ is one convolution of w^γ with (1/C)^γ
        us, du = _scaled(c, invert=True)
        up, dup = _powers(us, du, gamma)
        theta, dtheta = _convolve(wp, up, m - 1, t - a - 1), dwp * dup
        kp, dk = _powers([x * u for x, u in zip(ds, us[m - 1 :])], dd * du, gamma)
    else:  # per term: w/C = (w·d_C)/(d_w·C) rounds once, as float() rounds the Fraction
        wd, cd, dtheta = [x * dcs for x in wn], [dw * y for y in cs], 1.0
        theta = [_added(_powers(map(truediv, wd[k::-1], cd), 1.0, gamma)[0]) for k in range(m - 1, t - a)]
        kp, dk = _powers(map(truediv, [x * dcs for x in ds], [dd * y for y in cs[m - 1 :]]), 1.0, gamma)
    k_pow = _scalar(_added(map(mul, kp, theta)), dk * dtheta)
    k_factor = _root(k_pow, gamma)
    pn, dp = _scaled_differences(f, a + m, p, t)
    lhs_terms = (x * abs(v) * abs(y) for x, v, y in zip(ds, pn, cn[m - 1 :]))
    lhs = _scalar(_added(lhs_terms), dd * dp * dc)

    bound_paper, bound_tight = _g_bounds(*(_scalar(g_nums[i], dg) for i in (-1, -2, m - 2, m - 3)))
    chosen = bound_paper if g_variant == "paper" else bound_tight
    rhs = k_factor * _root(chosen, delta)

    gamma_norm = math.gamma(float(mu - p))
    components: Dict[str, object] = {
        "theta": [to_float(_root(x / dtheta, gamma)) * gamma_norm for x in theta],
        "g": [x / dg for x in g_nums],
        "g_bound_paper": to_float(bound_paper),
        "g_bound_tight": to_float(bound_tight),
        "k_factor": to_float(k_factor),
        "max_caputo": max(map(abs, cn)) / dc,
    }
    params_echo = dict(a=a, t=t, mu=mu, p=p, gamma=gamma, delta=delta, g_variant=g_variant)
    squared = (lhs * lhs, k_pow * chosen) if gamma == delta == 2 else None
    return _make_report("opial", params_echo, lhs, rhs, components, policy, squared)


def opial_corollary_25(
    f: GridFunction, t: int, policy: TolerancePolicy = DEFAULT_TOLERANCE
) -> InequalityReport:
    """Specialised weighted-product bound of order 5/2 about base 0 with unit
    weights and square exponents; requires ``f(0) = f(−1) = f(−2) = 0``, which
    :func:`opial_report` checks as the vanishing initial differences."""
    params = OpialParams(
        mu=Fraction(5, 2),
        p=0,
        gamma=2,
        delta=2,
        inner_weights=_unit_weights(f, 1, _integer(t, "t")),
        outer_weights=_unit_weights(f, 3, t),
    )
    report = opial_report(f, 0, t, params, "paper", policy)
    components = dict(report.components)
    components["prefactor"] = 1.0 / math.gamma(2.5)
    components["prefactor_expected"] = 4.0 / (3.0 * math.sqrt(math.pi))
    return dataclasses.replace(report, name="opial-25", components=components)


@_float_range
def ostrowski_report(
    f: GridFunction,
    a: int,
    b: int,
    mu: OrderInput,
    p: int,
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """Deviation of the tail average of ``∇^p f`` from its base value against
    the telescoped kernel-mass bound.  Rational end to end on the exact backend."""
    mu = _order(mu, "average-deviation bound")
    m = math.ceil(mu)
    _admissible(f, a, mu, p, p + 1, a + m + 1, b, policy, "average-deviation bound")

    count = b - a - m
    pn, dp = _scaled_differences(f, a + m + 1, p, b)
    average = _scalar(_added(pn), dp) / count
    base_value = nabla(f, a, p)
    lhs = abs(average - base_value)

    cn, dc = _caputo(f, a + 1, mu, b)
    max_cap = _scalar(max(map(abs, cn)), dc)
    coefficient = sum_rising_closed_form(a, m, b, mu - p, f.backend) / count
    rhs = coefficient * max_cap

    components: Dict[str, object] = {
        "average": to_float(average),
        "base_value": to_float(base_value),
        "coefficient": to_float(coefficient),
        "max_caputo": to_float(max_cap),
    }
    params_echo = dict(a=a, b=b, mu=mu, p=p)
    return _make_report("ostrowski", params_echo, lhs, rhs, components, policy)


def _kernel_power_sums(
    order: Fraction,
    a: int,
    m_start: int,
    b: int,
    gamma: Exponent,
    outer_exp: Exponent,
    backend: Backend,
) -> Scalar:
    """``Σ_{j=a+m_start}^{b} ( Σ_{τ=a+1}^{j} w(j−τ+1)^γ )^{outer_exp}``.

    The inner sum at ``j`` is ``Σ_{n<j−a} w[n]^γ``.  Exact integral powers make
    it an integer prefix sum, O(N) in all; float terms are added as
    ``w[j−a−1]^γ, …, w[0]^γ`` (descending n), which fixes their bits.  Both callers take
    the float of the result, a power ≥ 1 of the last inner sum or a float of it (``floated``)."""
    powers, dp = _powers(*_scaled_kernel(order, b - a, backend), gamma, floated=True)
    if isinstance(dp, float):
        powers = list(powers)
        inner = [_added(powers[j - a - 1 :: -1]) for j in range(a + m_start, b + 1)]
    else:
        inner = list(accumulate(powers))[m_start - 1 :]
    return _power_sum(inner, dp, outer_exp)


@_float_range
def _norm_report(
    f: GridFunction,
    a: int,
    b: int,
    mu: OrderInput,
    p: int,
    gamma,
    delta,
    r,
    policy: TolerancePolicy,
) -> InequalityReport:
    """Core of the norm bounds.  Sobolev type: ``(Σ|∇^p f|^r)^{1/r}`` against
    ``K^{1/r}·(Σ|Caputo|^δ)^{1/δ}`` with the kernel power sum ``K`` of outer
    exponent ``r/γ``.  ``r=None`` is the Poincaré type: ``r = δ``, no roots."""
    mu = _order(mu, "norm bound")
    m = math.ceil(mu)
    gamma, delta = _conjugate_pair(gamma, delta, policy)
    poincare = r is None
    r = delta if poincare else _norm_exponent(r)
    _admissible(f, a, mu, p, p, a + m, b, policy, "norm bound")

    pn, dp = _scaled_differences(f, a + m, p, b)
    lhs_pow = _power_sum(map(abs, pn), dp, r)
    kernel_factor = _kernel_power_sums(mu - p, a, m, b, gamma, r / gamma, f.backend)
    cn, dc = _caputo(f, a + 1, mu, b)
    cap_abs = list(map(abs, cn))
    caputo_norm = _power_sum(cap_abs, dc, delta)

    components: Dict[str, object] = {
        "kernel_factor": to_float(kernel_factor),
        "caputo_norm": to_float(caputo_norm),
        "max_caputo": max(cap_abs) / dc,
    }
    params_echo = dict(a=a, b=b, mu=mu, p=p, gamma=gamma, delta=delta)
    if poincare:
        rhs = kernel_factor * caputo_norm
        return _make_report("poincare", params_echo, lhs_pow, rhs, components, policy)
    params_echo["r"] = r
    lhs = _root(lhs_pow, r)
    rhs = _root(kernel_factor, r) * _root(caputo_norm, delta)
    squared = (lhs_pow, kernel_factor * caputo_norm) if gamma == delta == r == 2 else None
    return _make_report("sobolev", params_echo, lhs, rhs, components, policy, squared)


def poincare_report(
    f: GridFunction,
    a: int,
    b: int,
    mu: OrderInput,
    p: int,
    gamma="2",
    delta="2",
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """δ-power norm of ``∇^p f`` against the kernel-mass factor times the
    δ-power norm of the Caputo-like difference."""
    return _norm_report(f, a, b, mu, p, gamma, delta, None, policy)


def sobolev_report(
    f: GridFunction,
    a: int,
    b: int,
    mu: OrderInput,
    p: int,
    gamma="2",
    delta="2",
    r="2",
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """r-norm of ``∇^p f`` against the mixed kernel/Caputo norm bound."""
    return _norm_report(f, a, b, mu, p, gamma, delta, r, policy)


@_float_range
def avg_sobolev_report(
    f: GridFunction,
    a: int,
    b: int,
    orders: Sequence[OrderInput],
    weight_grids: Sequence[GridFunction],
    r="2",
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
) -> InequalityReport:
    """r-norm of ``f`` against the averaged weighted Caputo energies across an
    ascending family of orders."""
    orders = [_order(o, "averaged norm bound") for o in orders]
    if len(orders) == 0:
        raise ParameterError("need at least one order")
    for lo_, hi_ in zip(orders, orders[1:]):
        if not lo_ < hi_:
            raise ParameterError("orders must be strictly increasing")
    if len(weight_grids) != len(orders):
        raise ParameterError("need one weight grid per order")
    r = _norm_exponent(r)
    k = len(orders)
    m_top = math.ceil(orders[-1])
    # the averaged bound is on f itself, p = 0
    _admissible(f, a, orders[-1], 0, 0, a + m_top + 1, b, policy, "averaged norm bound")
    weights = [_weights(f, C, a + 1, b) for C in weight_grids]
    for c in weights:
        for tau, v in enumerate(c, a + 1):
            if not v > 0:
                raise ParameterError(f"weights must be positive, got {v} at {tau}")

    two = Fraction(2)
    b_terms: List[Scalar] = []
    for order, c in zip(orders, weights):
        (cn, dc), (cs, dcs) = _caputo(f, a + 1, order, b), _scaled(c)
        b_terms.append(_scalar(_added(x * v * v for x, v in zip(cs, cn)), dcs * dc * dc))

    kernel_sums = (_kernel_power_sums(o, a, math.ceil(o), b, two, r / two, f.backend) for o in orders)
    delta_star = max((_power_sum(*_scaled([x]), two / r) for x in kernel_sums), key=to_float)
    rho_star = max(1 / x for c in weights for x in c)

    f_nums, df = _scaled_differences(f, a + m_top, 0, b)
    lhs_pow = _power_sum(map(abs, f_nums), df, r)
    lhs = _root(lhs_pow, r)

    mean_b = _added(b_terms) / k
    rhs_sq = delta_star * rho_star * mean_b
    rhs = _root(rhs_sq, two)

    components: Dict[str, object] = {
        "b_terms": [to_float(v) for v in b_terms],
        "delta_star": to_float(delta_star),
        "rho_star": to_float(rho_star),
    }
    params_echo = dict(a=a, b=b, mu_list=orders, r=r, k=k)
    squared = (lhs_pow, rhs_sq) if r == 2 else None
    return _make_report("avg-sobolev", params_echo, lhs, rhs, components, policy, squared)
