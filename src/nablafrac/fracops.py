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
Float sums accumulate in ascending ``i`` from the start value, which fixes the
float results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul
from typing import Sequence, Union

from .errors import EmptyRangeError, OrderError
from .grid import GridFunction, _scalar, _scaled_differences, _unscaled
from .scalars import Backend, Scalar, _integer, parse_order

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
    """A positive rational order together with its ceiling."""

    value: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.value, (float, bool)):
            raise OrderError(f"orders must be rational, got {self.value!r}")
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise OrderError(f"order must be positive, got {self.value}")

    @property
    def m(self) -> int:
        """Ceiling of the order."""
        return math.ceil(self.value)

    @property
    def is_integer(self) -> bool:
        return self.value.denominator == 1

    @classmethod
    def parse(cls, text: str) -> "FractionalOrder":
        return cls(parse_order(text))

    def require_non_integer(self, context: str) -> "FractionalOrder":
        if self.is_integer:
            raise OrderError(f"{context} requires a non-integer order, got {self.value}")
        return self

    def __str__(self) -> str:
        return str(self.value)


# A forward reference: typing's process-wide cache keeps every alias it builds,
# and a class object in it would keep each re-imported copy of this module alive.
OrderInput = Union["FractionalOrder", Fraction, int, str]


def as_order(value: OrderInput) -> FractionalOrder:
    if isinstance(value, FractionalOrder):
        return value
    if isinstance(value, str):
        return FractionalOrder.parse(value)
    return FractionalOrder(value)


_KERNEL_CACHE_ROWS = 512  # the kernel cache keeps the rows of this many (order, backend) pairs


@lru_cache(maxsize=_KERNEL_CACHE_ROWS)
def _kernel_slot(num: int, den: int, exact: bool) -> list:
    """The cache slot of the order ``num/den`` on one backend: a list holding its row."""
    return [([1], [1]) if exact else (1.0,)]


def kernel_weights(nu, length: int, backend: Backend = Backend.EXACT) -> tuple:
    """First ``length`` kernel weights of order ν, ``weights[n-1] = w_ν(n)``, cut from
    the row grown by the recurrence and memoised per (ν, backend) in an LRU cache of
    ``_KERNEL_CACHE_ROWS`` rows."""
    if type(nu) not in (int, Fraction) or nu <= 0:  # a positive rational skips FractionalOrder
        nu = as_order(nu).value
    _integer(length, "length", 0)
    return _unscaled(*_scaled_kernel(nu, length, backend)) if length else ()


kernel_cache_info = _kernel_slot.cache_info


def _scaled_kernel(nu, length: int, backend: Backend) -> tuple:
    """``kernel_weights(nu, length, backend)`` in the scaled form, cut from the cached
    row of ν = p/q grown to at least ``length`` weights; growth replaces the row
    whole, for concurrent readers.  A float row is the weights, grown by the float
    recurrence.  An exact row is ``(dens, nums)``.  ``dens[n]``, the reduced
    denominator of ``w(n+1)``, is q^n times the part of n! made of the primes of q:
    no factor ``p+q(j−1)`` of the numerator shares a prime with q, and n of them
    carry every other prime of n!.  ``nums`` are the weights over ``dens[-1]``,
    grown by ``w(n+1) = w(n)·(p+q(n−1))/(qn)``."""
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
        dens = list(dens)
        for n in range(start, length):
            k, g = n, math.gcd(n, q)
            while g > 1:  # ends because g divides k: k loses the primes of q
                k //= g
                g = math.gcd(k, q)
            dens.append(dens[-1] * q * (n // k))
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
        return cls(base=base, order=order, weights=kernel_weights(order, length, backend))


# Packed calls read _PACK outputs per dot product.  Below 16 outputs packing
# gains nothing, and from 32 to 64 value bits its gain thins to 1.1-1.3x on
# long kernels (the micro-table in BENCH_14.json).
_PACK = 8  # outputs read from one packed block
_PACK_MIN_OUTPUTS = 16  # fewest outputs of a call that packs
_PACK_MAX_BITS = 32  # widest small operand of a call that packs


def _convolve(w: Sequence, v: Sequence, lo: int, hi: int, acc=0) -> list:
    """``acc + Σ_{i=0}^{k} w[k−i]·v[i]`` for each ``k`` in ``lo .. hi``, added in
    ascending ``i`` from ``acc``: floats, or the integer numerators of exact
    values in the scaled form.

    An integer call with many outputs and a small ``v`` packs ``_PACK`` kernel
    entries into each word, ``words[j] = Σ_u w[j−_PACK+1+u]·2^{uS}`` with ``w`` ≥ 0
    and zero outside its range, so one dot product against ``v`` gives the outputs
    ``k0 .. k0+_PACK−1`` as signed S-bit fields, read from low to high with a
    borrow.  ``S`` leaves room for every sum, so the outputs are the same."""
    if hi + 1 - lo >= _PACK_MIN_OUTPUTS and type(w[0]) is type(v[0]) is int:
        kw, vbits = list(w[: hi + 1]), max(map(abs, v[: hi + 1])).bit_length()
        if vbits <= _PACK_MAX_BITS and min(kw) >= 0:
            size = max(kw).bit_length() + vbits + (hi + 1).bit_length() + 1
            top, mask, sign = (_PACK - 1) * size, (1 << size) - 1, 1 << (size - 1)
            words, word = [], 0
            for x in kw + [0] * (_PACK - 1):
                word = (word >> size) | (x << top)
                words.append(word)
            outs = []
            for k0 in range(lo, hi + 1, _PACK):
                block = reduce(add, map(mul, reversed(words[: k0 + _PACK]), v), 0)
                for _ in range(min(_PACK, hi + 1 - k0)):
                    field = block & mask
                    block >>= size
                    if field & sign:  # a negative field borrowed one from the next
                        field -= mask + 1
                        block += 1
                    outs.append(acc + field)
            return outs
    return [reduce(add, map(mul, reversed(w[: k + 1]), v), acc) for k in range(lo, hi + 1)]


def _sums(f: GridFunction, a: int, order, m: int, hi: int, first: int = 0) -> tuple:
    """The checked order-``order`` fractional sums of ``∇^m f`` from base ``a`` at
    every point of ``[a+first, hi]``, in the scaled form.  The one range rule of
    every fractional sum and Caputo-like difference: ``hi ≥ a``, then ``f`` covers
    ``[a−m, hi]``."""
    if hi < a:
        raise EmptyRangeError(f"sum range needs t >= a, got t={hi} < a={a}")
    f.require_window(a - m, hi)
    vs, dv = _scaled_differences(f, a, m, hi)
    ws, dw = _scaled_kernel(order, hi - a + 1, f.backend)
    return _convolve(ws, vs, first, hi - a), dw * dv


def _caputo(f: GridFunction, a: int, mu: OrderInput, hi: int, first: int = 0) -> tuple:
    """The checked Caputo-like differences of ``f`` from base ``a`` at every point
    of ``[a+first, hi]``, in the scaled form."""
    mu = as_order(mu).require_non_integer("caputo-like nabla difference")
    return _sums(f, a, mu.m - mu.value, mu.m, hi, first)


def frac_sum(f: GridFunction, a: int, nu: OrderInput, t: int) -> Scalar:
    """Order-ν backward fractional sum of ``f`` from base ``a`` at ``t``:
    ``Σ_{s=a}^{t} w_ν(t−s+1)·f(s)``.  Integer ν reproduces the iterated sum."""
    (dot,), d = _sums(f, a, as_order(nu).value, 0, t, t - a)
    return _scalar(dot, d)


def frac_sum_grid(f: GridFunction, a: int, nu: OrderInput, hi: int = None) -> GridFunction:
    """Fractional sum evaluated at every ``t`` in ``[a, hi]`` (default ``f.hi``)."""
    sums = _sums(f, a, as_order(nu).value, 0, f.hi if hi is None else hi)
    return GridFunction._of(a, _unscaled(*sums))


def delta_frac_sum(f: GridFunction, a: int, nu: OrderInput, j: int) -> Scalar:
    """Delta-form fractional sum of order ν evaluated at the shifted point
    ``a + ν + j``: the falling-power kernel ``(a+ν+j−s−1)`` to the power ν−1,
    normalised by Γ(ν), summed for ``s = a .. a+j``."""
    nu = as_order(nu)
    _integer(j, "shift j", 0)
    # (a+ν+j−s−1) falling power of (ν−1) over Γ(ν) reduces to w_ν(a+j−s+1),
    # the kernel of the backward sum at a+j.
    return frac_sum(f, a, nu, a + j)


def caputo_nabla(f: GridFunction, a: int, mu: OrderInput, t: int) -> Scalar:
    """Caputo-like backward difference of non-integer order μ: the fractional
    sum of order ``m−μ`` (m = ⌈μ⌉) applied to the m-th backward difference."""
    (dot,), d = _caputo(f, a, mu, t, t - a)
    return _scalar(dot, d)


def caputo_nabla_grid(f: GridFunction, a: int, mu: OrderInput, hi: int = None) -> GridFunction:
    """Caputo-like difference evaluated at every ``t`` in ``[a, hi]``."""
    return GridFunction._of(a, _unscaled(*_caputo(f, a, mu, f.hi if hi is None else hi)))
