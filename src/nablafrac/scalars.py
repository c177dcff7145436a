"""Scalar backends: exact big rationals and IEEE doubles under one small API.

Exact values are ``fractions.Fraction`` (plain ``int`` is accepted as exact
and normalised on entry into containers); float values are ``float``.  The
rest of the package keeps the two kinds apart: containers check homogeneity,
and the only sanctioned crossings are the explicit :func:`to_float`
conversion, the mixed comparison in :func:`scalar_close`, and the bound
evaluators' mixed arithmetic, where Python converts the ``Fraction`` with
``float()``.

Every gamma quotient in the package (the kernel weight :func:`normalized_rising`,
the rising and falling factorials, :func:`gamma_ratio_mod1`) is a view of two
cores.  :func:`_gamma_ratio` telescopes ``Γ(p)/Γ(q)`` for an integer ``p − q``
through ``Γ(z+1) = z·Γ(z)`` into a finite product, exact for rational orders;
that makes exact verification of every kernel possible.  :func:`_float_gamma_ratio`
goes through ``math.lgamma`` and raises ``DomainError`` on a pole or an overflow.
"""

from __future__ import annotations

import enum
import math
import numbers
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import sub, truediv
from typing import Optional, Tuple, Union

from .errors import (
    DomainError,
    NormalizationError,
    OrderError,
    ParameterError,
    ParseError,
)

__all__ = [
    "Backend",
    "DEFAULT_TOLERANCE",
    "Rational",
    "Scalar",
    "TolerancePolicy",
    "backend_of",
    "gamma_ratio_mod1",
    "normalized_rising",
    "parse_order",
    "scalar_close",
    "to_float",
]

Rational = Fraction
Scalar = Union[Fraction, float]


class Backend(enum.Enum):
    """Which arithmetic realisation a value or container uses."""

    EXACT = "exact"
    FLOAT = "float"

    def __str__(self) -> str:
        return self.value


def backend_of(value: Scalar) -> Backend:
    """Classify a scalar.  ``int`` and ``Fraction`` are exact, ``float`` is float."""
    if isinstance(value, bool):
        raise ParameterError("booleans are not scalars")
    if isinstance(value, float):
        return Backend.FLOAT
    if isinstance(value, (Fraction, int)):
        return Backend.EXACT
    raise ParameterError(f"unsupported scalar type {type(value).__name__}")


def _backend(value) -> Backend:
    """The one backend-argument rule: a ``Backend`` member, else a ``ParameterError``.
    Public entries call it once; internal code tests the trusted member with ``is``."""
    if not isinstance(value, Backend):
        raise ParameterError(f"backend must be Backend.EXACT or Backend.FLOAT, got {value!r}")
    return value


def _integer(value, what: str, minimum: Optional[int] = None, error=ParameterError) -> int:
    """The one integer-argument rule: ``value`` must be an ``int`` that is not a
    ``bool``, and at least ``minimum`` (0 or 1) when one is given."""
    if isinstance(value, bool) or not isinstance(value, int) or minimum is not None and value < minimum:
        kind = "an integer" if minimum is None else "a positive integer" if minimum else "a non-negative integer"
        raise error(f"{what} must be {kind}, got {value!r}")
    return value


def to_float(value: Scalar) -> float:
    """Explicit exact-to-float conversion (round to nearest); floats pass through."""
    return float(value)


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison contract for float-backed values."""

    rel_eps: float = 1e-9
    abs_eps: float = 1e-12

    def __post_init__(self) -> None:
        for name, value in (("rel_eps", self.rel_eps), ("abs_eps", self.abs_eps)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a real number, got {value!r}")
            # exact comparisons: NaN, a bound beyond the doubles and one that rounds to 0.0 all fail
            if not (0.0 < value <= sys.float_info.max and float(value) > 0.0):
                raise ParameterError(f"{name} must be finite and strictly positive, got {value!r}")


DEFAULT_TOLERANCE = TolerancePolicy()


def scalar_close(x: Scalar, y: Scalar, policy: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Backend-aware closeness.

    Two exact values compare for equality; as soon as one side is a float the
    comparison is ``|x−y| ≤ abs_eps + rel_eps·max(|x|,|y|)``.
    """
    if backend_of(x) is Backend.EXACT and backend_of(y) is Backend.EXACT:
        return x == y
    xf, yf = float(x), float(y)
    if math.isnan(xf) or math.isnan(yf):
        return False
    if math.isinf(xf) or math.isinf(yf):
        return xf == yf
    return abs(xf - yf) <= policy.abs_eps + policy.rel_eps * max(abs(xf), abs(yf))


_ORDER_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_order(text: str) -> Fraction:
    """Parse ``INT`` or ``INT/POSINT`` (e.g. ``5/2``, ``3``) into a reduced rational.

    Positivity and integer/non-integer requirements are enforced by callers.
    """
    match = _ORDER_RE.match(text)
    if match is None:
        raise ParseError(f"malformed order {text!r}; expected INT or INT/POSINT")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise ParseError(f"malformed order {text!r}; denominator must be positive")
    return Fraction(num, den)


def _cast(backend: Backend, x) -> Scalar:
    """``x`` as a scalar of ``backend``: ``float(x)`` or ``Fraction(x)``."""
    return float(x) if backend is Backend.FLOAT else Fraction(x)


def _gamma_argument(value, what: str, exact: bool) -> Scalar:
    """A gamma argument on one backend: a ``Fraction`` (a ``float`` is refused) or a
    ``float``.  A ``bool``, a string or ``None`` is refused on both backends."""
    if isinstance(value, bool):
        raise ParameterError(f"{what} must not be a boolean, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a number, got {value!r}")
    if exact and isinstance(value, float):
        raise ParameterError(f"{what} must be rational on the exact backend, got float {value!r}")
    return Fraction(value) if exact else float(value)


def _classify_exponent(alpha) -> Tuple[bool, Union[int, Fraction, float]]:
    """``(True, int)`` for an integral exponent, else ``(False, alpha)`` with
    ``alpha`` a ``Fraction`` or ``float``."""
    if isinstance(alpha, bool):
        raise ParameterError("booleans are not exponents")
    if isinstance(alpha, int):
        return True, alpha
    if isinstance(alpha, Fraction):
        integral = alpha.denominator == 1
    elif isinstance(alpha, float):
        integral = alpha.is_integer()
    else:
        raise ParameterError(f"unsupported exponent type {type(alpha).__name__}")
    return (True, int(alpha)) if integral else (False, alpha)


def _gamma_ratio(p, q, pole: Optional[str]) -> Fraction:
    """Exact ``Γ(p)/Γ(q)`` for an integer ``p − q``: by ``Γ(z+1) = z·Γ(z)`` the
    product of ``min(p, q) + i``, ``i < |p − q|``, inverted when ``p < q``.  A zero
    factor raises ``DomainError(pole)``, or with ``pole=None`` makes the value 0;
    more than 100,000 factors raise a ``DomainError``."""
    steps = int(p - q)
    low = min(p, q)
    num, den = low.numerator, low.denominator
    factors = range(num, num + abs(steps) * den, den)
    if 0 in factors:
        if pole is not None:
            raise DomainError(pole)
        return Fraction(0)
    if abs(steps) > 100_000:
        raise DomainError("exact gamma quotient needs more than 100000 factors")
    product = Fraction(math.prod(factors), den ** abs(steps))
    return product if steps >= 0 else 1 / product


def _float_gamma_ratio(p: float, qs: Tuple[float, ...], pole: Optional[str] = None) -> float:
    """``Γ(p)/Γ(q₁)/Γ(q₂)…`` in floats: ``exp(lgamma(p) − lgamma(q₁) − …)`` when every
    argument is positive, else the ``math.gamma`` quotient.  A pole or a value
    beyond the float range raises a ``DomainError``."""
    try:
        if p > 0.0 and all(q > 0.0 for q in qs):
            value = math.exp(reduce(sub, map(math.lgamma, qs), math.lgamma(p)))
        else:  # a denominator gamma that underflows makes the quotient infinite or 1/0
            value = reduce(truediv, map(math.gamma, qs), math.gamma(p))
        if math.isinf(value):
            raise OverflowError
    except ValueError as exc:
        raise DomainError(pole or "gamma quotient crosses a pole") from exc
    except (OverflowError, ZeroDivisionError) as exc:
        quotient = "/".join(f"Γ({x!r})" for x in (p, *qs))
        raise DomainError(f"gamma quotient {quotient} overflows the float range") from exc
    return value


def rising_factorial(t: int, alpha) -> Scalar:
    """``t·(t+1)···(t+α−1)`` generalised through ``Γ(t+α)/Γ(t)``.

    Exact for integer ``α``; float (via log-gamma) otherwise.  Conventions:
    the zeroth power of anything is 1, and 0 to any nonzero power is 0.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise DomainError(f"rising factorial needs an integer t >= 0, got {t!r}")
    integral, value = _classify_exponent(alpha)
    if integral and value == 0:
        return Fraction(1)
    if t == 0:
        return Fraction(0)
    pole = f"rising factorial pole at t={t}, alpha={alpha}"
    if integral:
        return _gamma_ratio(t + value, t, pole)
    return _float_gamma_ratio(t + float(value), (float(t),), pole)


def falling_factorial(t: int, alpha) -> Scalar:
    """``t·(t−1)···(t−α+1)`` generalised through ``Γ(t+1)/Γ(t+1−α)``.

    Exact for integer ``α`` (0 once ``α > t``); float otherwise.  A pole of the
    denominator gamma in the float case raises a domain error.
    """
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise DomainError(f"falling factorial needs an integer t >= 0, got {t!r}")
    integral, value = _classify_exponent(alpha)
    if integral:
        return _gamma_ratio(t + 1, t + 1 - value, None)
    pole = f"falling factorial pole at t={t}, alpha={alpha}"
    return _float_gamma_ratio(t + 1.0, (t + 1 - float(value),), pole)


def gamma_ratio_mod1(p, q) -> Fraction:
    """Exact ``Γ(p)/Γ(q)`` for rational arguments whose difference is an integer.

    The quotient telescopes through ``Γ(z+1) = z·Γ(z)``; an integer argument
    difference is exactly the case in which the value is rational.
    """
    p = _gamma_argument(p, "gamma argument", True)
    q = _gamma_argument(q, "gamma argument", True)
    diff = p - q
    if diff.denominator != 1:
        raise NormalizationError(
            f"gamma quotient of {p} and {q} is not rational (difference {diff} is not an integer)"
        )
    return _gamma_ratio(p, q, "gamma quotient crosses a pole at argument 0")


def normalized_rising(n: int, nu, c=None, backend: Backend = Backend.EXACT) -> Scalar:
    """``Γ(n+ν−1) / (Γ(n)·Γ(c))`` for ``n ≥ 1``; with ``c = ν`` this is the
    kernel weight ``w_ν(n)``.

    Exact backend: ``ν − c`` must be an integer so the value is rational; the
    result is the product ``∏_{j=1}^{n-1}(ν+j−1) / (n−1)!`` generalised to a
    shifted normaliser.  Float backend: evaluated through ``math.lgamma`` and
    any positive ``c`` is accepted.
    """
    if _integer(n, "n") < 1:
        raise DomainError(f"normalized rising factorial needs n >= 1, got n={n}")
    exact = _backend(backend) is Backend.EXACT
    nu = _gamma_argument(nu, "order", exact)
    c = nu if c is None else _gamma_argument(c, "normaliser", exact)
    if not (nu > 0 and c > 0):  # NaN fails too
        raise OrderError("orders must be positive")
    if exact:
        return gamma_ratio_mod1(nu + (n - 1), c) / math.factorial(n - 1)
    # n + ν − 1.0 would drop the bits of a tiny ν at n = 1
    return _float_gamma_ratio(nu if n == 1 else n + nu - 1.0, (float(n), c))
