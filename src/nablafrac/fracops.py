"""Fractional backward sums, their delta-form dual, and the Caputo-like difference.

All kernels are built from the normalised weights ``w_ν(n)`` produced by
:func:`kernel_weights`: ``w_ν(1) = 1`` and ``w_ν(n+1) = w_ν(n)·(ν+n−1)/n``.
On the exact backend the recurrence runs in integers, which is what makes
every identity in this package checkable with zero tolerance.

Every fractional sum, Caputo-like difference and Taylor remainder in the
package is the same discrete convolution ``Σ_{i=0}^{k} w[k−i]·v[i]``, and
:func:`_convolve` is its single implementation.  Exact sums are integer dot
products in the scaled form of :mod:`grid` (integer numerators over one common
denominator; kernel rows are cached scaled), many outputs at a time when the
values are small, and only a value the caller sees becomes a ``Fraction``.
Float sums accumulate in ascending ``i`` from the start value in a plain loop,
never the builtin ``sum``, which fixes the float results bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence, Union

from .errors import EmptyRangeError, OrderError
from .grid import GridFunction, _scalar, _scaled_differences, _unscaled
from .scalars import Backend, Scalar, _backend, _integer, parse_order

__all__ = [
    "FractionalOrder",
    "KernelRow",
    "as_order",
    "caputo_nabla",
    "caputo_nabla_grid",
    "delta_frac_sum",
    "frac_sum",
    "frac_sum_grid",
    "kernel_cache_info",
    "kernel_weights",
]


@dataclass(frozen=True)
class FractionalOrder:
    """A positive rational order together with its ceiling, checked by :func:`_order`."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(_order(self.value)))

    @property
    def m(self) -> int:
        """Ceiling of the order."""
        return math.ceil(self.value)

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    @classmethod
    def parse(cls, text: str) -> "FractionalOrder":
        return cls(text)

    def require_non_integer(self, context: str) -> "FractionalOrder":
        _order(self.value, context)
        return self

    def __str__(self) -> str:
        return str(self.value)


# A forward reference: typing's process-wide cache keeps every alias it builds,
# and a class object in it would keep each re-imported copy of this module alive.
OrderInput = Union["FractionalOrder", Fraction, int, str]


def as_order(value: OrderInput) -> FractionalOrder:
    return value if isinstance(value, FractionalOrder) else FractionalOrder(value)


def _order(value: OrderInput, context: str = None) -> Union[int, Fraction]:
    """The one order rule: a positive ``int`` or ``Fraction`` as it is (its numerator
    keeps the sign), else a ``FractionalOrder``'s value, a string read by :func:`parse_order`
    or a rational, checked positive.  A ``context`` needs a non-integer order."""
    if not (type(value) in (int, Fraction) and value.numerator > 0):
        if isinstance(value, FractionalOrder):
            value = value.value
        if isinstance(value, bool) or not isinstance(value, (numbers.Rational, str)):
            raise OrderError(f"orders must be rational, got {value!r}")
        value = parse_order(value) if isinstance(value, str) else Fraction(value)
        if value <= 0:
            raise OrderError(f"order must be positive, got {value}")
    if context is not None and value.denominator == 1:
        raise OrderError(f"{context} requires a non-integer order, got {value}")
    return value


_KERNEL_CACHE_ROWS = 512  # the kernel cache keeps the rows of this many (order, backend) pairs


@lru_cache(maxsize=_KERNEL_CACHE_ROWS)
def _kernel_slot(num: int, den: int, exact: bool) -> list:
    """The cache slot of the order ``num/den`` on one backend: a list holding its row."""
    return [([1], [1]) if exact else (1.0,)]


def kernel_weights(nu, length: int, backend: Backend = Backend.EXACT) -> tuple:
    """First ``length`` kernel weights of order ν, ``weights[n-1] = w_ν(n)``, cut from
    the row grown by the recurrence and memoised per (ν, backend) in an LRU cache of
    ``_KERNEL_CACHE_ROWS`` rows."""
    nu = _order(nu)
    _integer(length, "length", 0)
    return _unscaled(*_scaled_kernel(nu, length, _backend(backend))) if length else ()


kernel_cache_info = _kernel_slot.cache_info


def _scaled_kernel(nu, length: int, backend: Backend) -> tuple:
    """``kernel_weights(nu, length, backend)`` in the scaled form, cut from the cached
    row of ν = p/q grown to at least ``length`` weights; growth replaces the row
    whole, for concurrent readers.  A float row is the weights, grown by the float
    recurrence.  An exact row is ``(dens, nums)``.  ``dens[n]``, the reduced
    denominator of ``w(n+1)``, is q^n times the part of n! made of the primes of q:
    no factor ``p+q(j−1)`` of the numerator shares a prime with q, and n of them
    carry every other prime of n!.  For ``n < length`` that part of n is
    ``gcd(n, q^length.bit_length())``, as no prime divides n ``n.bit_length()`` times.
    ``nums`` are the weights over ``dens[-1]``, grown by ``w(n+1) = w(n)·(p+q(n−1))/(qn)``.
    A cut comes over its own ``dens[length−1]`` (the ``x // ratio`` step is needed, not
    waste): :func:`_remainders` divides its source scale by that denominator."""
    p, q = nu.numerator, nu.denominator
    exact = backend is Backend.EXACT
    slot = _kernel_slot(p, q, exact)
    if not exact:
        ws = slot[0]
        if len(ws) < length:
            ws, step = list(ws), float(nu)
            for n in range(len(ws), length):
                ws.append(ws[-1] * (step + n - 1) / n)
            slot[0] = ws = tuple(ws)
        return ws[:length], 1.0
    dens, nums = slot[0]
    start = len(dens)
    if start < length:
        dens, smooth = list(dens), q ** length.bit_length()
        for n in range(start, length):
            dens.append(dens[-1] * q * math.gcd(n, smooth))
        scale = dens[-1] // dens[start - 1]
        nums = [x * scale for x in nums]
        for n in range(start, length):
            nums.append(nums[-1] * (p + q * (n - 1)) // (q * n))
        slot[0] = (dens, nums)
    ratio = dens[-1] // dens[length - 1]
    return (nums[:length] if ratio == 1 else [x // ratio for x in nums[:length]]), dens[length - 1]


@dataclass(frozen=True)
class KernelRow:
    """A materialised row of kernel weights anchored at a base point."""

    base: int
    order: FractionalOrder
    weights: tuple

    @classmethod
    def build(
        cls,
        base: int,
        order: OrderInput,
        length: int,
        backend: Backend = Backend.EXACT,
    ) -> "KernelRow":
        order = as_order(order)
        _integer(base, "base")
        return cls(base=base, order=order, weights=kernel_weights(order.value, length, backend))


# Packed calls read _PACK outputs per dot product.  Below 16 outputs packing
# gains nothing, and from 32 to 64 value bits its gain thins to 1.1-1.3x on
# long kernels (the micro-table in BENCH_14.json).
_PACK = 8  # outputs read from one packed block
_PACK_MIN_OUTPUTS = 16  # fewest outputs of a call that packs
_PACK_MAX_BITS = 32  # widest small operand of a call that packs


def _convolve(w: Sequence, v: Sequence, lo: int, hi: int, acc=0) -> list:
    """``acc + Σ_{i=0}^{k} w[k−i]·v[i]`` for each ``k`` in ``lo .. hi``, added in
    ascending ``i`` from ``acc``: floats, or the integer numerators of exact
    values in the scaled form.  Each dot product is one ``s += x * y`` loop over
    the reversed row, which the interpreter runs on its specialised float and
    int instructions; the operations and their order are those of the sum.

    An integer call with many outputs and a small ``v`` packs ``_PACK`` kernel
    entries into each word, ``words[j] = Σ_u w[j−_PACK+1+u]·2^{uS}`` with ``w`` ≥ 0
    and zero outside its range, so one dot product against ``v`` gives the outputs
    ``k0 .. k0+_PACK−1`` as signed S-bit fields, read from low to high with a
    borrow.  ``S`` leaves room for every sum, so the outputs are the same."""
    rw, step, start = w[hi::-1], 1, acc
    if hi + 1 - lo >= _PACK_MIN_OUTPUTS and type(w[0]) is type(v[0]) is int:
        kw, vbits = list(w[: hi + 1]), max(map(abs, v[: hi + 1])).bit_length()
        if vbits <= _PACK_MAX_BITS and min(kw) >= 0:
            size = max(kw).bit_length() + vbits + (hi + 1).bit_length() + 1
            top, mask, sign = (_PACK - 1) * size, (1 << size) - 1, 1 << (size - 1)
            words, word = [], 0
            for x in kw + [0] * (_PACK - 1):
                word = (word >> size) | (x << top)
                words.append(word)
            rw, step, start = words[::-1], _PACK, 0
    outs = []
    for k in range(lo, hi + 1, step):
        s = start
        for x, y in zip(rw[hi - k :], v):
            s += x * y
        if step == 1:
            outs.append(s)
            continue
        for _ in range(min(_PACK, hi + 1 - k)):
            field = s & mask
            s >>= size
            if field & sign:  # a negative field borrowed one from the next
                field -= mask + 1
                s += 1
            outs.append(acc + field)
    return outs


def _sums(f: GridFunction, a: int, order, m: int, hi: int, point: bool = False) -> tuple:
    """The checked order-``order`` fractional sums of ``∇^m f`` from base ``a`` at
    ``hi`` alone (``point``) or at every point of ``[a, hi]``, in the scaled form.
    The one range rule of every fractional sum and Caputo-like difference: ``a``
    and the end point (the caller's ``t`` at a point, else ``hi``) are integers,
    ``hi ≥ a``, then ``f`` covers ``[a−m, hi]``."""
    _integer(a, "a")
    if _integer(hi, "t" if point else "hi") < a:
        raise EmptyRangeError(f"sum range needs t >= a, got t={hi} < a={a}")
    f.require_window(a - m, hi)
    vs, dv = _scaled_differences(f, a, m, hi)
    ws, dw = _scaled_kernel(order, hi - a + 1, f.backend)
    return _convolve(ws, vs, hi - a if point else 0, hi - a), dw * dv


def _caputo(f: GridFunction, a: int, mu: OrderInput, hi: int, point: bool = False) -> tuple:
    """The checked Caputo-like differences of ``f`` from base ``a`` at ``hi`` alone
    (``point``) or at every point of ``[a, hi]``, in the scaled form."""
    mu = _order(mu, "caputo-like nabla difference")
    m = math.ceil(mu)
    return _sums(f, a, m - mu, m, hi, point)


# A call with fewer outputs keeps the plain remainder dot product.  On a 2-vCPU
# VM under CPython 3.11 the rescaling cost up to 10% of an exact expansion over
# 16-32 points, the two broke even near 40-48 points, and at 64 points the powers
# of B saved about 15%.
_NATURAL_MIN_OUTPUTS = 48


def _remainders(order: Fraction, source: tuple, lo: int, hi: int, backend: Backend) -> list:
    """The Taylor remainders ``Σ_{i<n} w(n−i)·v[i]`` of the order-``order`` kernel at each
    ``n`` in ``lo .. hi``, as scalars, from the scaled ``v`` on ``hi`` points: ``∇^m f``,
    or ``_caputo`` values over this row's ``dw`` times their value scale ``d``.

    An exact call with at least ``_NATURAL_MIN_OUTPUTS`` outputs works in powers of
    ``B = q·gcd(q, (hi−1)!)`` for ``order = r/q``: each prime of q below hi divides
    ``(hi−1)!``, so by Legendre ``W[k] = w(k+1)·B^k`` and ``V[i] = v[i]·d·B^i`` are
    integers, and the remainder at n is ``Σ W[n−1−i]·V[i]`` over ``B^{n−1}·d``, on
    operands of about ``k·log B`` bits, not the row's last denominator."""
    ws, dw = _scaled_kernel(order, hi, backend)
    vs, dv = source
    dens = repeat(dw * dv)
    if backend is Backend.EXACT and hi + 1 - lo >= _NATURAL_MIN_OUTPUTS:
        q = order.denominator
        base = q * math.gcd(q, math.factorial(hi - 1))
        powers = list(accumulate(repeat(base, hi - 1), mul, initial=1))
        ws, vs = ([x * b // dw for x, b in zip(row, powers)] for row in (ws, vs))
        dens = (b * (dv // dw) for b in powers[lo - 1 :])
    return [_scalar(rem, d) for rem, d in zip(_convolve(ws, vs, lo - 1, hi - 1), dens)]


def frac_sum(f: GridFunction, a: int, nu: OrderInput, t: int) -> Scalar:
    """Order-ν backward fractional sum of ``f`` from base ``a`` at ``t``:
    ``Σ_{s=a}^{t} w_ν(t−s+1)·f(s)``.  Integer ν reproduces the iterated sum."""
    (dot,), d = _sums(f, a, _order(nu), 0, t, True)
    return _scalar(dot, d)


def frac_sum_grid(f: GridFunction, a: int, nu: OrderInput, hi: int = None) -> GridFunction:
    """Fractional sum evaluated at every ``t`` in ``[a, hi]`` (default ``f.hi``)."""
    sums = _sums(f, a, _order(nu), 0, f.hi if hi is None else hi)
    return GridFunction._of(a, _unscaled(*sums))


def delta_frac_sum(f: GridFunction, a: int, nu: OrderInput, j: int) -> Scalar:
    """Delta-form fractional sum of order ν evaluated at the shifted point
    ``a + ν + j``: the falling-power kernel ``(a+ν+j−s−1)`` to the power ν−1,
    normalised by Γ(ν), summed for ``s = a .. a+j``."""
    nu = _order(nu)
    _integer(j, "shift j", 0)
    # (a+ν+j−s−1) falling power of (ν−1) over Γ(ν) reduces to w_ν(a+j−s+1),
    # the kernel of the backward sum at a+j.
    return frac_sum(f, a, nu, a + j)


def caputo_nabla(f: GridFunction, a: int, mu: OrderInput, t: int) -> Scalar:
    """Caputo-like backward difference of non-integer order μ: the fractional
    sum of order ``m−μ`` (m = ⌈μ⌉) applied to the m-th backward difference."""
    (dot,), d = _caputo(f, a, mu, t, True)
    return _scalar(dot, d)


def caputo_nabla_grid(f: GridFunction, a: int, mu: OrderInput, hi: int = None) -> GridFunction:
    """Caputo-like difference evaluated at every ``t`` in ``[a, hi]``."""
    return GridFunction._of(a, _unscaled(*_caputo(f, a, mu, f.hi if hi is None else hi)))
