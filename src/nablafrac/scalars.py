"""Scalar backends: exact big rationals and IEEE doubles under one small API.

Exact values are ``fractions.Fraction`` (plain ``int`` is accepted as exact
and normalised on entry into containers); float values are ``float``.  The
rest of the package keeps the two kinds apart: containers check homogeneity,
and the only sanctioned crossings are the explicit :func:`to_float`
conversion, the mixed comparison in :func:`scalar_close`, and the bound
evaluators' mixed arithmetic, where Python converts the ``Fraction`` with
``float()``.

The arithmetic core here is :func:`normalized_rising`, the gamma quotient
``Γ(n+ν−1) / (Γ(n)·Γ(c))``.  Whenever ``ν − c`` is an integer the quotient
telescopes through ``Γ(z+1) = z·Γ(z)`` into a finite product and is therefore
an exact rational for rational orders; that is what makes exact verification
of every kernel in this package possible.  The float realisation goes through
``math.lgamma`` instead and accepts arbitrary positive arguments.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

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


def to_float(value: Scalar) -> float:
    """Explicit exact-to-float conversion (round to nearest); floats pass through."""
    return float(value)


@dataclass(frozen=True)
class TolerancePolicy:
    """Comparison contract for float-backed values."""

    rel_eps: float = 1e-9
    abs_eps: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.rel_eps > 0.0 and self.abs_eps > 0.0):
            raise ParameterError("tolerance bounds must be strictly positive")


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


def _as_rational(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise ParameterError(f"{what} must be rational on the exact backend, got float {value!r}")
    return Fraction(value)


def gamma_ratio_mod1(p, q) -> Fraction:
    """Exact ``Γ(p)/Γ(q)`` for rational arguments whose difference is an integer.

    The quotient telescopes through ``Γ(z+1) = z·Γ(z)``; an integer argument
    difference is exactly the case in which the value is rational.
    """
    p = _as_rational(p, "gamma argument")
    q = _as_rational(q, "gamma argument")
    diff = p - q
    if diff.denominator != 1:
        raise NormalizationError(
            f"gamma quotient of {p} and {q} is not rational (difference {diff} is not an integer)"
        )
    steps = int(diff)
    acc = Fraction(1)
    if steps >= 0:
        for i in range(steps):
            factor = q + i
            if factor == 0:
                raise DomainError(f"gamma quotient crosses a pole at argument {q + i}")
            acc *= factor
        return acc
    for i in range(-steps):
        factor = p + i
        if factor == 0:
            raise DomainError(f"gamma quotient crosses a pole at argument {p + i}")
        acc *= factor
    return 1 / acc


def normalized_rising(
    n: int,
    nu,
    c=None,
    backend: Backend = Backend.EXACT,
) -> Scalar:
    """``Γ(n+ν−1) / (Γ(n)·Γ(c))`` for ``n ≥ 1``; with ``c = ν`` this is the
    kernel weight ``w_ν(n)``.

    Exact backend: ``ν − c`` must be an integer so the value is rational; the
    result is the product ``∏_{j=1}^{n-1}(ν+j−1) / (n−1)!`` generalised to a
    shifted normaliser.  Float backend: evaluated through ``math.lgamma`` and
    any positive ``c`` is accepted.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"normalized rising factorial needs n >= 1, got n={n}")
    if backend is Backend.FLOAT:
        nu_f = float(nu)
        c_f = nu_f if c is None else float(c)
        if nu_f <= 0.0 or c_f <= 0.0:
            raise OrderError("orders must be positive")
        return math.exp(math.lgamma(n + nu_f - 1.0) - math.lgamma(float(n)) - math.lgamma(c_f))
    nu_q = _as_rational(nu, "order")
    c_q = nu_q if c is None else _as_rational(c, "normaliser")
    if nu_q <= 0 or c_q <= 0:
        raise OrderError("orders must be positive")
    return gamma_ratio_mod1(nu_q + (n - 1), c_q) / math.factorial(n - 1)
