"""Grid functions on integer intervals and the integer-order difference operators.

A :class:`GridFunction` stores scalar values on a contiguous interval
``[lo, hi]`` with one backend throughout.  Every operator checks its domain
and fails loudly instead of zero-padding, so validity windows of the
representations built on top become checkable preconditions.

Every backward and forward difference is one :func:`_scaled_differences` call, in the
scaled form of :func:`_scaled` (integer numerators over one denominator).
The rising and falling factorials live with the gamma cores in ``scalars``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, Sequence

from .errors import DomainError, OrderError, ParameterError
from .scalars import Backend, Scalar, _backend, _cast, _integer, backend_of, falling_factorial, rising_factorial

__all__ = [
    "GridDomain",
    "GridFunction",
    "delta",
    "falling_factorial",
    "nabla",
    "rising_factorial",
]


@dataclass(frozen=True)
class GridDomain:
    """Closed integer interval ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if _integer(self.lo, "lo") > _integer(self.hi, "hi"):
            raise DomainError(f"empty domain [{self.lo}, {self.hi}]")

    def __contains__(self, t: int) -> bool:
        """``t`` is a grid point of the interval; anything the point rule
        rejects (a float, a ``bool``) is not."""
        try:
            return self.lo <= _integer(t, "index") <= self.hi
        except ParameterError:
            return False

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def points(self) -> range:
        return range(self.lo, self.hi + 1)


def _coerce_values(values: Sequence) -> tuple:
    """``values`` cast to their one backend, each classified by ``backend_of``."""
    if len(values) == 0:
        raise ParameterError("a grid function needs at least one value")
    kind = backend_of(values[0])
    if any(backend_of(v) is not kind for v in values):
        raise ParameterError("grid values must not mix exact and float backends")
    return tuple(_cast(kind, v) for v in values)


@dataclass(frozen=True)
class GridFunction:
    """Scalar values on a contiguous integer interval, one backend throughout.

    The constructor coerces and checks every value; :meth:`_of` does not, and is
    only for tuples the library built itself, all ``Fraction`` or all ``float``.

    An exact grid keeps its values' scaled form once :func:`_scaled_differences`
    first reads it.  The memo is set as the fields are but is not a field, so
    ``==``, ``hash``, ``repr`` and ``dataclasses.fields`` do not see it."""

    lo: int
    values: tuple
    _scaled_form = None  # (numerators, d) of the whole exact grid, set on the first read

    def __post_init__(self) -> None:
        _integer(self.lo, "lo")
        object.__setattr__(self, "values", _coerce_values(tuple(self.values)))

    @classmethod
    def _of(cls, lo: int, values: tuple) -> "GridFunction":
        """A grid on a library-built tuple of one backend's values, unchecked."""
        grid = object.__new__(cls)
        # Set as the constructor does: writing through ``__dict__`` would give the
        # instance a dict of its own and slow every attribute read on it.
        object.__setattr__(grid, "lo", lo)
        object.__setattr__(grid, "values", values)
        return grid

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    @property
    def domain(self) -> GridDomain:
        return GridDomain(self.lo, self.hi)

    @property
    def backend(self) -> Backend:
        return Backend.FLOAT if isinstance(self.values[0], float) else Backend.EXACT

    def at(self, t: int) -> Scalar:
        self.require_window(t, t)
        return self.values[t - self.lo]

    def __call__(self, t: int) -> Scalar:
        return self.at(t)

    def require_window(self, lo: int, hi: int) -> None:
        """The one point rule: both ends are integers, then ``[lo, hi]`` is covered,
        or a ``DomainError`` names the missing index."""
        if _integer(lo, "index") < self.lo:
            raise DomainError(f"index {lo} outside grid domain [{self.lo}, {self.hi}]")
        if _integer(hi, "index") > self.hi:
            raise DomainError(f"index {hi} outside grid domain [{self.lo}, {self.hi}]")

    def as_float(self) -> "GridFunction":
        """Explicit conversion to the float backend."""
        return GridFunction._of(self.lo, tuple(map(float, self.values)))

    def zero(self) -> Scalar:
        """Additive identity carrying this grid's backend tag."""
        return _cast(self.backend, 0)

    @classmethod
    def from_callable(
        cls,
        lo: int,
        hi: int,
        fn: Callable[[int], Scalar],
        backend: Backend = Backend.EXACT,
    ) -> "GridFunction":
        vals = [fn(t) for t in range(lo, hi + 1)]
        if _backend(backend) is Backend.FLOAT:
            vals = [float(v) for v in vals]
        return cls(lo, tuple(vals))

    @classmethod
    def constant(cls, lo: int, hi: int, value: Scalar) -> "GridFunction":
        """``value`` on ``[lo, hi]``, checked once and raising what the constructor
        would for ``hi − lo + 1`` copies."""
        points = range(lo, hi + 1)
        _integer(lo, "lo")
        if not points:
            raise ParameterError("a grid function needs at least one value")
        (value,) = _coerce_values((value,))
        return cls._of(lo, (value,) * len(points))


def _scaled(values: Sequence, invert: bool = False) -> tuple:
    """The scaled form ``(numerators, d)``: exact values (or with ``invert`` their
    reciprocals) as integers over one denominator ``d``, floats over ``1.0``.
    ``invert`` is for exact values only: floats come back as they are."""
    if values and isinstance(values[0], float):
        return values, 1.0
    nums, dens = [x.numerator for x in values], [x.denominator for x in values]
    if invert:
        nums, dens = dens, nums
    d = math.lcm(*dens)
    return [x * (d // y) for x, y in zip(nums, dens)], d


def _scalar(num, d) -> Scalar:
    """The scalar ``num/d`` of the scaled form: a ``Fraction``, or the float itself."""
    return num if isinstance(d, float) else Fraction(num, d)


def _unscaled(nums: Sequence, d) -> tuple:
    """The scalars of a scaled sequence, one ``_scalar`` each."""
    return tuple(nums) if isinstance(d, float) else tuple(Fraction(x, d) for x in nums)


def _added(xs: Iterable):
    """``xs`` added left to right from 0 in a loop the interpreter specialises: every sum
    outside ``fracops._convolve`` and the float ``∇^m`` columns (an empty one is 0)."""
    s = 0
    for x in xs:
        s += x
    return s


def _scaled_differences(f: GridFunction, lo: int, m: int, hi: int) -> tuple:
    """Scaled ``∇^m f`` on ``[lo, hi]``, a window the caller has checked: m rounds
    of integer first differences of the window of exact ``f``'s scaled form (a slice
    over the whole grid's denominator; m = 0: the slice itself), or at each point
    the float binomial sum ``0.0 ± C(m,j)·f(s−j)`` in ascending ``j``, added one
    column ``j`` at a time over the whole window (m = 0: the value slice).  The
    first exact read scales the whole grid, once per grid."""
    start, stop = lo - m - f.lo, hi + 1 - f.lo
    if f.backend is Backend.FLOAT:
        vs = f.values[start:stop]
        if m == 0:
            return vs, 1.0
        out = [0.0] * (len(vs) - m)
        for j in range(m + 1):
            c = (-1) ** j * math.comb(m, j)
            out = [s + c * x for s, x in zip(out, vs[m - j :])]
        return tuple(out), 1.0
    if f._scaled_form is None:
        nums, d = _scaled(f.values)
        object.__setattr__(f, "_scaled_form", (tuple(nums), d))
    nums, d = f._scaled_form
    ns = nums[start:stop]
    for _ in range(m):
        ns = list(map(sub, ns[1:], ns[:-1]))
    return ns, d


def _differences(f: GridFunction, lo: int, m: int, hi: int) -> tuple:
    """The values of ``∇^m f`` on ``[lo, hi]``; ``m = 0`` gives the value slice itself."""
    return _unscaled(*_scaled_differences(f, lo, m, hi)) if m else f.values[lo - f.lo : hi + 1 - f.lo]


def _initial_column(f: GridFunction, a: int, m: int) -> tuple:
    """``(∇^k f(a))_{k<m}`` on ``[a−m+1, a]``, a window the caller has checked;
    each entry has the bits of ``nabla(f, a, k)``."""
    return tuple(_differences(f, a, k, a)[0] for k in range(m))


def nabla(f: GridFunction, t: int, k: int = 1) -> Scalar:
    """k-th backward difference ``Σ_{j=0}^{k} (−1)^j C(k,j) f(t−j)``."""
    _integer(k, "difference order", 0, OrderError)
    _integer(t, "t")
    f.require_window(t - k, t)
    return _differences(f, t, k, t)[0]


def delta(f: GridFunction, t: int, k: int = 1) -> Scalar:
    """k-th forward difference ``Σ_{j=0}^{k} C(k,j) (−1)^{k−j} f(t+j) = ∇^k f(t+k)``."""
    _integer(k, "difference order", 0, OrderError)
    _integer(t, "t")
    f.require_window(t, t + k)
    return _differences(f, t + k, k, t + k)[0]
