"""Discrete Taylor representations, closed-form kernel sums, remainder bounds,
and the inverse construction used to synthesise test functions.

Every representation splits a value into ``poly_part + remainder``; on the
exact backend the split reproduces the function value with zero defect, which
is the backbone of the verification suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Dict, Sequence, Tuple, Union

from .errors import EmptyRangeError, OrderError, ParameterError, WindowError
from .fracops import FractionalOrder, OrderInput, _caputo, _convolve, _order, _remainders, _scaled_kernel
from .grid import (
    GridFunction,
    _added,
    _coerce_values,
    _differences,
    _initial_column,
    _scalar,
    _scaled,
    _scaled_differences,
    _unscaled,
)
from .scalars import Backend, Scalar, _backend, _integer, normalized_rising

__all__ = [
    "TaylorExpansion",
    "TaylorSeed",
    "construct_from_taylor_data",
    "eval_from_taylor_data",
    "kernel_sum_closed_form",
    "remainder_bound",
    "sum_rising_closed_form",
    "taylor_extended",
    "taylor_extended_series",
    "taylor_fractional",
    "taylor_fractional_series",
    "taylor_integer",
    "taylor_seed_of",
]


@dataclass(frozen=True)
class TaylorExpansion:
    """One evaluated representation: ``total = poly_part + remainder``."""

    base: int
    order: Union[int, FractionalOrder]
    p: int
    poly_part: Scalar
    remainder: Scalar
    total: Scalar


def _expand(
    order: Fraction, initials: tuple, source: tuple, p: int, offsets: Sequence[int], backend: Backend
) -> list:
    """The expansion core: ``(poly_part, remainder)`` at ``t = a+n`` for each
    ``n`` in ``offsets``, the remainders of ``_remainders`` from the order-``order``
    kernel (m, μ or μ−p) and the scaled ``source`` on ``[a+1, …]``.  The polynomial part
    adds ``w_{k−p+1}(n)·∇^k f(a)`` in ascending ``k = p .. m−1``, one integer row per k."""
    rems = _remainders(order, source, offsets[0], offsets[-1], backend)
    inits, di = _scaled(initials[p:])
    rows = [_scaled_kernel(k + 1, offsets[-1], backend)[0] for k in range(len(inits))]
    polys = (_added(row[n - 1] * x for row, x in zip(rows, inits)) for n in offsets)
    return [(_scalar(poly, di), rem) for poly, rem in zip(polys, rems)]


def _check_window(f: GridFunction, lo: int, first: int, end: int, name: str) -> None:
    """The one window check of every Taylor form and bound: the end point (the
    argument ``name``) is an integer, ``end ≥ first``, then ``f`` covers ``[lo, end]``.
    The paper's window is ``lo = a−m+1`` and ``first = a+m`` (``a+m+1`` for the averages)."""
    if _integer(end, name) < first:
        raise WindowError(f"window needs its end point >= {first}, got {end}")
    f.require_window(lo, end)


def _check_base_shift(a: int, mu: Fraction, p: int) -> None:
    """The base-then-shift rule of the extended expansion and the bounds: ``a ≥ 0``,
    then an integer shift ``0 ≤ p < μ``."""
    if _integer(a, "a") < 0:
        raise ParameterError(f"base must be non-negative, got a={a}")
    if _integer(p, "shift p", 0) >= mu:
        raise OrderError(f"shift p={p} must be smaller than the order {mu}")


def taylor_integer(f: GridFunction, a: int, m: int, t: int) -> TaylorExpansion:
    """Degree-(m−1) backward expansion about ``a`` plus the m-th difference remainder."""
    _integer(a, "a")
    _integer(m, "m", 1)
    _check_window(f, a - m + 1, a + m, t, "t")
    initials = _initial_column(f, a, m)
    h = _scaled_differences(f, a + 1, m, t)
    [(poly, rem)] = _expand(Fraction(m), initials, h, 0, (t - a,), f.backend)
    return TaylorExpansion(base=a, order=m, p=0, poly_part=poly, remainder=rem, total=poly + rem)


_PLAIN = object()  # the p of the plain expansion; unlike None, no caller can pass it


def _series(
    f: GridFunction, a: int, mu: OrderInput, p, t_hi: int, context: str, point: bool = False
) -> Tuple[tuple, Dict[int, TaylorExpansion]]:
    """Check the arguments, then return the Caputo-like difference on
    ``[a+1, t_hi]`` (based at ``a+1``, in the scaled form) and the order-μ expansions
    at ``t_hi`` alone (``point``, the caller's ``t``) or at every t in ``[a+m, t_hi]``
    (the caller's ``t_max``, default ``f.hi``), in ascending t.  ``p = _PLAIN`` is
    the plain expansion, ``total = poly_part + remainder``; any other p is a checked
    shift, which expands ``∇^p f`` with ``total = ∇^p f(t)``."""
    _integer(a, "a")
    mu = _order(mu, context)
    m = math.ceil(mu)
    if p is not _PLAIN:
        _check_base_shift(a, mu, p)
    t_hi = f.hi if t_hi is None and not point else t_hi
    _check_window(f, a - m + 1, a + m, t_hi, "t" if point else "t_max")
    t_lo = t_hi if point else a + m
    shift = 0 if p is _PLAIN else p
    cap = _caputo(f, a + 1, mu, t_hi)
    initials = _initial_column(f, a, m)
    offsets = range(t_lo - a, t_hi - a + 1)
    parts = _expand(mu - shift, initials, cap, shift, offsets, f.backend)
    totals = [poly + rem for poly, rem in parts] if p is _PLAIN else _differences(f, t_lo, p, t_hi)
    order = FractionalOrder(mu)
    series = {
        t: TaylorExpansion(base=a, order=order, p=shift, poly_part=poly, remainder=rem, total=total)
        for t, (poly, rem), total in zip(range(t_lo, t_hi + 1), parts, totals)
    }
    return cap, series


def taylor_fractional(f: GridFunction, a: int, mu: OrderInput, t: int) -> TaylorExpansion:
    """Backward expansion of non-integer order μ about ``a``: the integer poly
    part of degree m−1 plus the order-μ kernel applied to the Caputo-like
    difference based at ``a+1``."""
    return _series(f, a, mu, _PLAIN, t, "fractional expansion", True)[1][t]


def taylor_fractional_series(
    f: GridFunction, a: int, mu: OrderInput, t_max: int = None
) -> Dict[int, TaylorExpansion]:
    """Expansions at every ``t`` in ``[a+m, t_max]`` sharing one Caputo pass."""
    return _series(f, a, mu, _PLAIN, t_max, "fractional expansion")[1]


def taylor_extended(f: GridFunction, a: int, mu: OrderInput, p: int, t: int) -> TaylorExpansion:
    """Expansion of the p-th backward difference: ``total = ∇^p f(t)``, poly
    part summed for ``k = p .. m−1``, remainder kernel of order ``μ−p``."""
    return _series(f, a, mu, p, t, "extended fractional expansion", True)[1][t]


def taylor_extended_series(
    f: GridFunction, a: int, mu: OrderInput, p: int, t_max: int = None
) -> Dict[int, TaylorExpansion]:
    """Extended expansions at every ``t`` in ``[a+m, t_max]`` sharing one Caputo pass."""
    return _series(f, a, mu, p, t_max, "extended fractional expansion")[1]


def kernel_sum_closed_form(a: int, mu: OrderInput, t: int, backend: Backend = Backend.EXACT) -> Scalar:
    """Closed form of the cumulative kernel mass ``Σ_{n=1}^{t−a} w_μ(n)``:
    the rising power of ``t−a`` with exponent μ over Γ(μ+1)."""
    mu, backend = _order(mu), _backend(backend)
    _integer(a, "a")
    if _integer(t, "t") <= a:
        raise EmptyRangeError(f"kernel sum needs t > a, got t={t}, a={a}")
    return normalized_rising(t - a, mu + 1, backend=backend)


def sum_rising_closed_form(
    a: int, m: int, b: int, nu: OrderInput, backend: Backend = Backend.EXACT
) -> Scalar:
    """Closed form of ``Σ_{j=a+m+1}^{b} (j−a)`` to the rising power ν, normalised
    by Γ(ν+2): the telescoped difference of two rising powers of exponent ν+1."""
    nu, backend = _order(nu), _backend(backend)
    _integer(a, "a")
    _integer(m, "m", 1)
    if _integer(b, "b") <= a + m:
        raise EmptyRangeError(f"rising sum needs b > a+m, got b={b}, a+m={a + m}")
    target = nu + 2
    upper = normalized_rising(b - a, target, backend=backend)
    lower = normalized_rising(m, target, backend=backend)
    return upper - lower


def remainder_bound(
    f: GridFunction, a: int, mu: OrderInput, p: int, t: int
) -> Tuple[Scalar, Scalar]:
    """Deviation of ``∇^p f(t)`` from its poly part, and the kernel-mass bound:
    the rising power of ``t−a`` with exponent ``μ−p`` over Γ(μ−p+1) times the
    largest Caputo magnitude on ``(a, t]``.  Guarantees ``lhs ≤ rhs``."""
    cap, series = _series(f, a, mu, p, t, "remainder bound", True)
    expansion = series[t]
    lhs = abs(expansion.total - expansion.poly_part)
    max_cap = _scalar(max(map(abs, cap[0])), cap[1])
    return lhs, kernel_sum_closed_form(a, expansion.order.value - p, t, f.backend) * max_cap


@dataclass(frozen=True)
class TaylorSeed:
    """Construction data for a grid function: the first m backward differences
    at the base and the m-th difference on ``[a+1, b]``."""

    a: int
    m: int
    initial: tuple
    h: tuple

    def __post_init__(self) -> None:
        _integer(self.a, "a")
        _integer(self.m, "m", 1)
        initial = tuple(self.initial)
        h = tuple(self.h)
        if len(initial) != self.m:
            raise ParameterError(f"need exactly m={self.m} initial differences, got {len(initial)}")
        coerced = _coerce_values(initial + h)
        object.__setattr__(self, "initial", coerced[: len(initial)])
        object.__setattr__(self, "h", coerced[len(initial):])

    @property
    def b(self) -> int:
        return self.a + len(self.h)

    @property
    def backend(self) -> Backend:
        return Backend.FLOAT if isinstance(self.initial[0], float) else Backend.EXACT


def construct_from_taylor_data(seed: TaylorSeed) -> GridFunction:
    """Build ``f`` on ``[a−m+1, b]`` with the seed's initial differences at ``a``
    and its m-th difference values on ``[a+1, b]``, inverting ``∇^m``.

    ``f(a−j)`` heads the initial column ``(∇^k f(a))_{k<m}`` after j rounds of
    the first differences ``∇^k f(a) − ∇^{k+1} f(a)``.  Forward, ``∇^k f`` is the
    prefix sum of ``∇^{k+1} f`` from ``∇^k f(a)``, for k = m−1 down to 0, in
    integers over one common denominator on the exact backend.
    """
    return _from_taylor_data(seed.a, seed.m, seed.initial, seed.h)


def _from_taylor_data(a: int, m: int, initial: tuple, h: tuple) -> GridFunction:
    """:func:`construct_from_taylor_data` on checked data, or on library-built values
    of one backend (ints are exact)."""
    values, d = _scaled(initial + h)
    column, forward = values[:m], values[m:]
    tail = []
    for _ in range(m):
        tail.append(column[0])
        column = list(map(sub, column[:-1], column[1:]))
    for start in reversed(values[:m]):
        forward = list(accumulate(forward, initial=start))[1:]
    return GridFunction._of(a - m + 1, _unscaled(tail[::-1] + forward, d))


def eval_from_taylor_data(seed: TaylorSeed, t: int) -> Scalar:
    """Evaluate the seeded function at ``t ≥ a+m`` directly from the expansion,
    without constructing the grid, so independently of the prefix sums."""
    a, m = seed.a, seed.m
    if _integer(t, "t") < a + m:
        raise WindowError(f"direct evaluation is valid only for t >= a+m = {a + m}, got t={t}")
    if t > seed.b:
        raise WindowError(f"t={t} beyond the seeded range [{a + 1}, {seed.b}]")
    n = t - a
    values, d = _scaled(seed.initial + seed.h)
    # the order-m remainder kernel is the row of the last polynomial term
    rows = [_scaled_kernel(k + 1, n, seed.backend)[0] for k in range(m)]
    poly = _added(row[n - 1] * x for row, x in zip(rows, values[:m]))
    return _scalar(_convolve(rows[-1], values[m:], n - 1, n - 1, poly)[0], d)


def taylor_seed_of(f: GridFunction, a: int, m: int, b: int = None) -> TaylorSeed:
    """Extract the seed that reconstructs ``f`` on ``[a−m+1, b]``."""
    _integer(a, "a")
    _integer(m, "m", 1)
    b = f.hi if b is None else _integer(b, "b")
    f.require_window(a - m + 1, b)
    f.require_window(a, a)  # the initial column needs f(a) even when b < a
    initial = _initial_column(f, a, m)
    h = _differences(f, a + 1, m, b)
    return TaylorSeed(a=a, m=m, initial=initial, h=h)
