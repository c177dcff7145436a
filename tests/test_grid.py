"""Grid function and difference operator tests."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nablafrac import (
    Backend,
    DomainError,
    GridDomain,
    GridFunction,
    OrderError,
    ParameterError,
    TaylorSeed,
    TolerancePolicy,
    backend_of,
    caputo_nabla_grid,
    construct_from_taylor_data,
    delta,
    falling_factorial,
    frac_sum_grid,
    nabla,
    rising_factorial,
    scalar_close,
)


def poly_grid(lo, hi, power):
    return GridFunction(lo, tuple(t**power for t in range(lo, hi + 1)))


class TestGridFunction:
    def test_basic_accessors(self):
        f = GridFunction(-2, (1, 2, 3))
        assert f.lo == -2 and f.hi == 0
        assert f.at(-1) == 2
        assert f(-1) == 2
        assert -1 in f.domain and 1 not in f.domain

    def test_out_of_domain_names_index(self):
        f = GridFunction(0, (1, 2))
        with pytest.raises(DomainError, match="index 5"):
            f.at(5)

    def test_ints_become_exact(self):
        f = GridFunction(0, (1, 2))
        assert f.backend is Backend.EXACT
        assert isinstance(f.at(0), Fraction)

    def test_mixing_backends_rejected(self):
        with pytest.raises(ParameterError):
            GridFunction(0, (1, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            GridFunction(0, ())

    @pytest.mark.parametrize(
        "lo, hi, value",
        [
            (0, 3, 2),
            (-1, 1, 0.5),
            (0, 3, True),
            (0, 3, "1"),
            (0, 3, None),
            (2, 1, Fraction(1)),
            (2, 1, True),
            (True, 3, 1),
            (1.5, 3, 1),
        ],
    )
    def test_constant_matches_the_constructor(self, lo, hi, value):
        def outcome(build):
            try:
                g = build()
            except Exception as exc:
                return type(exc), str(exc)
            return g.lo, g.values, tuple(map(type, g.values))

        copies = lambda: GridFunction(lo, tuple(value for _ in range(lo, hi + 1)))
        assert outcome(lambda: GridFunction.constant(lo, hi, value)) == outcome(copies)

    def test_as_float_conversion(self):
        f = GridFunction(0, (Fraction(1, 2), Fraction(3, 4))).as_float()
        assert f.backend is Backend.FLOAT
        assert f.at(0) == 0.5

    @pytest.mark.parametrize("backend", list(Backend))
    def test_from_callable(self, backend):
        f = GridFunction.from_callable(-1, 2, lambda t: Fraction(t, 2), backend)
        kind = float if backend is Backend.FLOAT else Fraction
        assert f.lo == -1 and f.hi == 2 and f.backend is backend
        assert f.values == (Fraction(-1, 2), 0, Fraction(1, 2), 1)
        assert all(type(v) is kind for v in f.values)
        assert f == GridFunction(-1, tuple(map(kind, f.values)))

    def test_from_callable_checks_like_the_constructor(self):
        with pytest.raises(ParameterError, match=r"^a grid function needs at least one value$"):
            GridFunction.from_callable(2, 1, lambda t: t)
        with pytest.raises(ParameterError, match=r"^booleans are not scalars$"):
            GridFunction.from_callable(0, 1, lambda t: t == 1)

    @pytest.mark.parametrize("backend", list(Backend))
    def test_zero_carries_the_backend(self, backend):
        f = GridFunction.from_callable(0, 2, lambda t: t, backend)
        zero = f.zero()
        assert zero == 0 and backend_of(zero) is backend
        assert type(zero) is (float if backend is Backend.FLOAT else Fraction)


class TestGridDomain:
    def test_points_membership_and_length(self):
        d = GridDomain(-2, 1)
        assert list(d.points()) == [-2, -1, 0, 1] and len(d) == 4
        assert -2 in d and 1 in d and -3 not in d and 2 not in d
        # the point rule: only an int that is not a bool is a grid point
        assert 0.0 not in d and -0.5 not in d and True not in d and False not in d
        assert Fraction(0) not in d and "0" not in d and None not in d
        assert GridFunction(-2, (1, 2, 3, 4)).domain == d
        assert len(GridDomain(5, 5)) == 1

    def test_empty_domain(self):
        with pytest.raises(DomainError, match=r"^empty domain \[3, 2\]$"):
            GridDomain(3, 2)

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (0.0, 2, "lo must be an integer, got 0.0"),
            (True, 2, "lo must be an integer, got True"),
            (0, "2", "hi must be an integer, got '2'"),
            (0, Fraction(2), "hi must be an integer, got Fraction(2, 1)"),
        ],
    )
    def test_bounds_are_integers(self, lo, hi, message):
        with pytest.raises(ParameterError) as info:
            GridDomain(lo, hi)
        assert str(info.value) == message


class TestLibraryBuiltGrids:
    """Grids the library builds from its own value tuples equal, and hash like,
    the same values passed through the public constructor."""

    @staticmethod
    def built(backend):
        ints = (0, 3, -2, 7, 7, -9, 1, 0, 4, 5)
        f = GridFunction(-3, ints if backend is Backend.EXACT else tuple(map(float, ints)))
        seed = TaylorSeed(a=0, m=3, initial=(1, 0, -2), h=(4, 0, -1, 3, 2))
        if backend is Backend.FLOAT:
            seed = TaylorSeed(a=0, m=3, initial=(1.0, 0.0, -2.0), h=(4.0, 0.0, -1.0, 3.0, 2.0))
        zeros = GridFunction(0, (0,) * 6 if backend is Backend.EXACT else (0.0,) * 6)
        return [
            frac_sum_grid(f, -3, Fraction(1, 2)),
            frac_sum_grid(f, 0, 3),
            frac_sum_grid(zeros, 0, Fraction(7, 3)),
            caputo_nabla_grid(f, 0, Fraction(5, 2)),
            caputo_nabla_grid(zeros, 2, Fraction(1, 3)),
            construct_from_taylor_data(seed),
            f.as_float(),
            GridFunction(0, (1, 2)).as_float(),
            GridFunction.constant(-1, 4, 1 if backend is Backend.EXACT else 1.0),
        ]

    @pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
    def test_equal_to_public_construction(self, backend):
        for g in self.built(backend):
            public = GridFunction(g.lo, g.values)
            assert g == public and hash(g) == hash(public)
            kind = Fraction if g.backend is Backend.EXACT else float
            assert all(type(v) is kind for v in g.values)


class TestNablaDelta:
    def test_nabla_first_difference_of_square(self):
        f = poly_grid(-2, 5, 2)
        assert nabla(f, 3, 1) == 5

    def test_nabla_second_difference_of_square(self):
        f = poly_grid(-2, 5, 2)
        assert nabla(f, 3, 2) == 2

    def test_nabla_second_difference_of_cube(self):
        f = poly_grid(-2, 5, 3)
        assert nabla(f, 0, 2) == -6

    def test_delta_first_difference_of_square(self):
        f = poly_grid(-2, 5, 2)
        assert delta(f, 2, 1) == 5

    def test_delta_second_difference_of_square(self):
        f = poly_grid(-2, 5, 2)
        assert delta(f, 1, 2) == 2

    def test_duality_on_cube(self):
        f = poly_grid(-2, 5, 3)
        assert delta(f, 0, 3) == nabla(f, 3, 3) == 6

    def test_duality_random_grids(self):
        rng = random.Random(7)
        for _ in range(40):
            lo = rng.randint(-10, 0)
            f = GridFunction(lo, tuple(rng.randint(-9, 9) for _ in range(rng.randint(8, 40))))
            for m in range(7):
                for t in range(f.lo + m, f.hi + 1):
                    assert delta(f, t - m, m) == nabla(f, t, m)

    @given(st.integers(-5, 5), st.integers(1, 4))
    def test_nabla_of_constant_vanishes(self, c, k):
        f = GridFunction(0, tuple(c for _ in range(8)))
        assert nabla(f, 7, k) == 0

    def test_nabla_linearity(self):
        rng = random.Random(11)
        f = GridFunction(0, tuple(rng.randint(-9, 9) for _ in range(12)))
        g = GridFunction(0, tuple(rng.randint(-9, 9) for _ in range(12)))
        combo = GridFunction(0, tuple(3 * f.at(t) - 2 * g.at(t) for t in range(12)))
        for k in range(4):
            got = nabla(combo, 9, k)
            assert got == 3 * nabla(f, 9, k) - 2 * nabla(g, 9, k)

    def test_domain_check_names_missing_index(self):
        f = poly_grid(0, 5, 2)
        with pytest.raises(DomainError, match="-2"):
            nabla(f, 0, 2)
        with pytest.raises(DomainError, match="7"):
            delta(f, 5, 2)

    def test_zeroth_difference_is_identity(self):
        f = poly_grid(0, 5, 2)
        assert nabla(f, 3, 0) == 9
        assert delta(f, 3, 0) == 9
        g = GridFunction(0, (-0.0, 1.0))
        assert math.copysign(1.0, nabla(g, 0, 0)) == math.copysign(1.0, delta(g, 0, 0)) == -1.0

    def test_negative_order_rejected(self):
        f = poly_grid(0, 5, 2)
        with pytest.raises(OrderError):
            nabla(f, 3, -1)


@st.composite
def rational_grids_and_orders(draw):
    """A grid of up to 80 rational values (denominators up to 12), drawn
    length first, and a difference order ``k ≤ 6`` the grid can carry."""
    n = draw(st.integers(1, 80))
    fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    values = draw(st.lists(fractions, min_size=n, max_size=n))
    lo = draw(st.integers(-10, 10))
    k = draw(st.integers(0, min(6, n - 1)))
    return GridFunction(lo, tuple(values)), k


class TestDifferencesAgainstBinomialSums:
    """Every backward and forward difference against the naive binomial sum:
    exactly on rationals, and bit for bit on floats, whose terms are added
    ``0.0 ± C(k,j)·f(t−j)`` in ascending ``j``."""

    @settings(max_examples=60, deadline=None)
    @given(rational_grids_and_orders())
    def test_exact_and_float(self, grid_and_order):
        f, k = grid_and_order
        ff = f.as_float()
        for t in range(f.lo + k, f.hi + 1):
            backward = [(-1) ** j * math.comb(k, j) * f.at(t - j) for j in range(k + 1)]
            assert nabla(f, t, k) == reduce(add, backward)
            s = t - k
            forward = [(-1) ** (k - j) * math.comb(k, j) * f.at(s + j) for j in range(k + 1)]
            assert delta(f, s, k) == reduce(add, forward)
            acc = 0.0
            for j in range(k + 1):
                term = math.comb(k, j) * ff.at(t - j)
                acc = acc + term if j % 2 == 0 else acc - term
            assert nabla(ff, t, k) == acc


class TestRisingFactorial:
    def test_integer_exponent(self):
        assert rising_factorial(3, 2) == 12

    def test_zero_base_convention(self):
        assert rising_factorial(0, Fraction(1, 2)) == 0

    def test_zero_exponent_convention(self):
        assert rising_factorial(5, 0) == 1
        assert rising_factorial(0, 0) == 1

    def test_gamma_value_at_one(self):
        # 1 to the rising 3/2 equals gamma(5/2) = (3/4)*sqrt(pi)
        got = rising_factorial(1, Fraction(3, 2))
        assert got == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-14)

    def test_power_rule_float(self):
        # backward difference of t^{alpha-rising} equals alpha * t^{(alpha-1)-rising}
        policy = TolerancePolicy()
        for alpha in (Fraction(3, 2), Fraction(5, 2), Fraction(13, 12), Fraction(7, 3)):
            for t in range(1, 51):
                lhs = rising_factorial(t, alpha) - rising_factorial(t - 1, alpha)
                rhs = float(alpha) * rising_factorial(t, alpha - 1)
                assert scalar_close(lhs, rhs, policy), (alpha, t)

    def test_relation_to_falling(self):
        for t in range(1, 9):
            for n in range(0, 5):
                assert rising_factorial(t, n) == falling_factorial(t + n - 1, n)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            rising_factorial(-1, 2)


class TestFallingFactorial:
    def test_integer_exponent(self):
        assert falling_factorial(4, 2) == 12

    def test_zero_exponent(self):
        assert falling_factorial(3, 0) == 1

    def test_full_depth(self):
        assert falling_factorial(3, 3) == 6

    def test_over_depth_is_zero(self):
        assert falling_factorial(3, 5) == 0

    def test_fractional_matches_gamma(self):
        got = falling_factorial(4, Fraction(1, 2))
        want = math.exp(math.lgamma(5.0) - math.lgamma(4.5))
        assert got == pytest.approx(want, rel=1e-14)
