"""Fractional backward sums, their delta-form dual, and the Caputo-like difference.

All kernels are built from the normalised weights ``w_ν(n)`` produced by
:func:`kernel_weights`: ``w_ν(1) = 1`` and ``w_ν(n+1) = w_ν(n)·(ν+n−1)/n``.
On the exact backend the recurrence runs in big rationals, which is what
makes every identity in this package checkable with zero tolerance.

Every fractional sum, Caputo-like difference and Taylor remainder in the
package is the same discrete convolution ``Σ_{i=0}^{k} w[k−i]·v[i]``, and
:func:`_convolve` is its single implementation.  Exact sums are integer dot
products: the weights and the values are scaled once (by :mod:`grid`'s helper)
to integer numerators over their common denominators, and each output is one
``Fraction``.  Float sums accumulate in ascending ``i`` from the start value,
which fixes the float results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Sequence, Union

from .errors import EmptyRangeError, OrderError, ParameterError
from .grid import GridFunction, _differences, _scaled
from .scalars import Backend, Scalar, _cast, parse_order

__all__ = [
    "FractionalOrder",
    "KernelRow",
    "as_order",
    "caputo_nabla",
    "caputo_nabla_grid",
    "delta_frac_sum",
    "frac_sum",
    "frac_sum_grid",
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


_KERNEL_CACHE: dict = {}


def kernel_weights(nu, length: int, backend: Backend = Backend.EXACT) -> tuple:
    """First ``length`` kernel weights of order ν, ``weights[n-1] = w_ν(n)``.

    Rows are memoised per (ν, backend) and grown by the recurrence; extension
    publishes a fresh tuple, so concurrent readers are safe.
    """
    nu = as_order(nu).value
    if not isinstance(length, int) or length < 0:
        raise ParameterError(f"length must be a non-negative integer, got {length!r}")
    if length == 0:
        return ()
    key = (nu, backend)
    row = _KERNEL_CACHE.get(key, ())
    if len(row) >= length:
        return row[:length]
    step = _cast(backend, nu)
    ws = list(row) or [_cast(backend, 1)]
    while len(ws) < length:
        n = len(ws)
        ws.append(ws[-1] * (step + n - 1) / n)
    full = tuple(ws)
    _KERNEL_CACHE[key] = full
    return full[:length]


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


def _convolve(w: tuple, v: tuple, ks: Sequence[int], acc: Scalar) -> list:
    """``acc + Σ_{i=0}^{k} w[k−i]·v[i]`` for each ``k`` in ``ks``.

    Floats accumulate in ascending ``i`` from ``acc``.  Exact sums scale
    ``w[:K]`` and ``v[:K]`` (``K = max(ks)+1``) once to integer numerators over
    their common denominators ``dw`` and ``dv``, and each output is
    ``acc + Fraction(dot, dw·dv)`` with an integer dot product."""
    if isinstance(acc, float):
        return [reduce(add, map(mul, reversed(w[: k + 1]), v), acc) for k in ks]
    size = max(ks) + 1
    (ws, dw), (vs, dv) = _scaled(w[:size]), _scaled(v[:size])
    den = dw * dv
    return [acc + Fraction(reduce(add, map(mul, reversed(ws[: k + 1]), vs)), den) for k in ks]


def frac_sum(f: GridFunction, a: int, nu: OrderInput, t: int) -> Scalar:
    """Order-ν backward fractional sum of ``f`` from base ``a`` at ``t``:
    ``Σ_{s=a}^{t} w_ν(t−s+1)·f(s)``.  Integer ν reproduces the iterated sum."""
    nu = as_order(nu)
    if t < a:
        raise EmptyRangeError(f"fractional sum needs t >= a, got t={t} < a={a}")
    f.require_window(a, t)
    w = kernel_weights(nu, t - a + 1, f.backend)
    return _convolve(w, f.values[a - f.lo :], (t - a,), f.zero())[0]


def frac_sum_grid(f: GridFunction, a: int, nu: OrderInput, hi: int = None) -> GridFunction:
    """Fractional sum evaluated at every ``t`` in ``[a, hi]`` (default ``f.hi``)."""
    nu = as_order(nu)
    if hi is None:
        hi = f.hi
    if hi < a:
        raise EmptyRangeError(f"fractional sum grid needs hi >= a, got hi={hi} < a={a}")
    f.require_window(a, hi)
    w = kernel_weights(nu, hi - a + 1, f.backend)
    return GridFunction._of(a, tuple(_convolve(w, f.values[a - f.lo :], range(hi - a + 1), f.zero())))


def delta_frac_sum(f: GridFunction, a: int, nu: OrderInput, j: int) -> Scalar:
    """Delta-form fractional sum of order ν evaluated at the shifted point
    ``a + ν + j``: the falling-power kernel ``(a+ν+j−s−1)`` to the power ν−1,
    normalised by Γ(ν), summed for ``s = a .. a+j``."""
    nu = as_order(nu)
    if not isinstance(j, int) or j < 0:
        raise ParameterError(f"shift j must be a non-negative integer, got {j!r}")
    # (a+ν+j−s−1) falling power of (ν−1) over Γ(ν) reduces to w_ν(a+j−s+1),
    # the kernel of the backward sum at a+j.
    return frac_sum(f, a, nu, a + j)


def caputo_nabla(f: GridFunction, a: int, mu: OrderInput, t: int) -> Scalar:
    """Caputo-like backward difference of non-integer order μ: the fractional
    sum of order ``m−μ`` (m = ⌈μ⌉) applied to the m-th backward difference."""
    mu = as_order(mu).require_non_integer("caputo-like nabla difference")
    m = mu.m
    if t < a:
        raise EmptyRangeError(f"caputo difference needs t >= a, got t={t} < a={a}")
    f.require_window(a - m, t)
    w = kernel_weights(m - mu.value, t - a + 1, f.backend)
    return _convolve(w, _differences(f, a, m, t), (t - a,), f.zero())[0]


def caputo_nabla_grid(f: GridFunction, a: int, mu: OrderInput, hi: int = None) -> GridFunction:
    """Caputo-like difference evaluated at every ``t`` in ``[a, hi]``."""
    mu = as_order(mu).require_non_integer("caputo-like nabla difference")
    m = mu.m
    if hi is None:
        hi = f.hi
    if hi < a:
        raise EmptyRangeError(f"caputo grid needs hi >= a, got hi={hi} < a={a}")
    f.require_window(a - m, hi)
    return frac_sum_grid(GridFunction._of(a, _differences(f, a, m, hi)), a, m - mu.value, hi)
