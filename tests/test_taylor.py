"""Taylor representation, closed-form kernel sum, remainder bound, and
construction round-trip tests."""

import math
import random
from fractions import Fraction

import pytest

from nablafrac import (
    DomainError,
    EmptyRangeError,
    GridFunction,
    OrderError,
    ParameterError,
    TaylorSeed,
    WindowError,
    caputo_nabla_grid,
    construct_from_taylor_data,
    eval_from_taylor_data,
    gamma_ratio_mod1,
    kernel_sum_closed_form,
    kernel_weights,
    nabla,
    remainder_bound,
    sum_rising_closed_form,
    taylor_extended,
    taylor_extended_series,
    taylor_fractional,
    taylor_fractional_series,
    taylor_integer,
    taylor_seed_of,
)

HALF = Fraction(1, 2)
FIVE_HALVES = Fraction(5, 2)


def poly_grid(lo, hi, power):
    return GridFunction(lo, tuple(t**power for t in range(lo, hi + 1)))


class TestTaylorInteger:
    def test_square_total(self):
        f = poly_grid(-1, 6, 2)
        expansion = taylor_integer(f, 0, 2, 4)
        assert expansion.total == 16
        assert expansion.poly_part == -4
        assert expansion.remainder == 20

    def test_cube_anchor(self):
        f = poly_grid(-2, 4, 3)
        expansion = taylor_integer(f, 0, 3, 3)
        assert expansion.poly_part == -33
        assert expansion.remainder == 60
        assert expansion.total == 27

    def test_constant(self):
        f = GridFunction(-3, tuple(7 for _ in range(10)))
        for m in (1, 2, 3):
            expansion = taylor_integer(f, 0, m, 4)
            assert expansion.poly_part == 7
            assert expansion.remainder == 0

    def test_window_error(self):
        f = poly_grid(-2, 6, 2)
        with pytest.raises(WindowError):
            taylor_integer(f, 0, 3, 2)


class TestTaylorFractional:
    def test_cube_anchor(self):
        f = poly_grid(-2, 4, 3)
        expansion = taylor_fractional(f, 0, FIVE_HALVES, 3)
        assert expansion.poly_part == -33
        assert expansion.remainder == 60
        assert expansion.total == 27

    def test_square_has_zero_remainder(self):
        f = poly_grid(-2, 6, 2)
        expansion = taylor_fractional(f, 0, FIVE_HALVES, 4)
        assert expansion.remainder == 0
        assert expansion.total == 16

    def test_zero_function(self):
        f = GridFunction(-3, tuple(0 for _ in range(12)))
        expansion = taylor_fractional(f, 0, FIVE_HALVES, 5)
        assert expansion.poly_part == expansion.remainder == expansion.total == 0

    def test_integer_order_rejected(self):
        f = poly_grid(-2, 6, 2)
        with pytest.raises(OrderError):
            taylor_fractional(f, 0, Fraction(2), 4)

    def test_series_matches_single_evaluations(self):
        rng = random.Random(21)
        seed = TaylorSeed(
            a=-1, m=3, initial=(4, -2, 7), h=tuple(rng.randint(-9, 9) for _ in range(12))
        )
        f = construct_from_taylor_data(seed)
        series = taylor_fractional_series(f, -1, Fraction(7, 3))
        assert set(series) == set(range(2, f.hi + 1))
        for t, expansion in series.items():
            single = taylor_fractional(f, -1, Fraction(7, 3), t)
            assert (expansion.poly_part, expansion.remainder) == (
                single.poly_part,
                single.remainder,
            )
            assert expansion.total == f.at(t)

    def test_negative_base_allowed(self):
        f = poly_grid(-6, 2, 3)
        expansion = taylor_fractional(f, -3, FIVE_HALVES, 1)
        assert expansion.total == f.at(1)


class TestTaylorExtended:
    def test_reduces_to_plain_at_zero_shift(self):
        f = poly_grid(-3, 8, 3)
        plain = taylor_fractional(f, 1, FIVE_HALVES, 7)
        extended = taylor_extended(f, 1, FIVE_HALVES, 0, 7)
        assert extended.poly_part == plain.poly_part
        assert extended.remainder == plain.remainder
        assert extended.total == plain.total

    def test_cube_shift_one(self):
        f = poly_grid(-2, 5, 3)
        expansion = taylor_extended(f, 0, FIVE_HALVES, 1, 4)
        assert expansion.total == nabla(f, 4, 1) == 37
        assert expansion.poly_part + expansion.remainder == 37

    def test_zero_initials_zero_poly(self):
        seed = TaylorSeed(a=0, m=3, initial=(5, 0, 0), h=(1, -2, 3, 4, 0, 2))
        f = construct_from_taylor_data(seed)
        expansion = taylor_extended(f, 0, FIVE_HALVES, 1, 5)
        assert expansion.poly_part == 0

    def test_shift_must_stay_below_order(self):
        f = poly_grid(-2, 6, 3)
        with pytest.raises(OrderError):
            taylor_extended(f, 0, FIVE_HALVES, 3, 5)

    def test_negative_base_rejected(self):
        f = poly_grid(-6, 2, 3)
        with pytest.raises(ParameterError):
            taylor_extended(f, -3, FIVE_HALVES, 0, 1)


class TestKernelSumClosedForm:
    def test_half_order_anchor(self):
        assert kernel_sum_closed_form(0, HALF, 3) == Fraction(15, 8)

    def test_single_term(self):
        for mu in (HALF, FIVE_HALVES, Fraction(7, 3)):
            assert kernel_sum_closed_form(4, mu, 5) == 1

    def test_integer_order(self):
        assert kernel_sum_closed_form(0, Fraction(1), 5) == 5

    def test_matches_direct_summation(self):
        for mu in (HALF, Fraction(5, 4), FIVE_HALVES, Fraction(7, 3)):
            weights = kernel_weights(mu, 50)
            running = Fraction(0)
            for n in range(1, 51):
                running += weights[n - 1]
                assert kernel_sum_closed_form(0, mu, n) == running

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyRangeError):
            kernel_sum_closed_form(3, HALF, 3)


class TestSumRisingClosedForm:
    def test_direct_summation_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            a = rng.randint(-5, 5)
            m = rng.randint(1, 5)
            b = a + m + rng.randint(1, 20)
            nu = Fraction(rng.randint(1, 24), rng.randint(1, 8))
            row = kernel_weights(nu + 1, b - a)
            direct = sum(row[j - a - 1] for j in range(a + m + 1, b + 1))
            assert sum_rising_closed_form(a, m, b, nu) == direct

    def test_unit_order_value(self):
        # direct normalized sum: w_2(2) + w_2(3) = 2 + 3
        assert sum_rising_closed_form(0, 1, 3, 1) == 5

    def test_ostrowski_coefficient_numerator(self):
        assert sum_rising_closed_form(0, 3, 5, FIVE_HALVES) == Fraction(4851, 128)

    def test_single_term_matches_telescoped_difference(self):
        a, m, nu = 1, 2, Fraction(5, 4)
        b = a + m + 1
        row = kernel_weights(nu + 1, b - a)
        assert sum_rising_closed_form(a, m, b, nu) == row[b - a - 1]

    def test_empty_range_rejected(self):
        with pytest.raises(EmptyRangeError):
            sum_rising_closed_form(0, 2, 2, HALF)


class TestRemainderBound:
    def test_cube_anchor(self):
        f = poly_grid(-2, 4, 3)
        lhs, rhs = remainder_bound(f, 0, FIVE_HALVES, 0, 3)
        assert lhs == 60
        assert rhs == Fraction(2835, 32)

    def test_zero_function(self):
        f = GridFunction(-3, tuple(0 for _ in range(10)))
        assert remainder_bound(f, 0, FIVE_HALVES, 0, 4) == (0, 0)

    def test_low_degree_polynomial(self):
        f = poly_grid(-3, 8, 2)
        for t in range(3, 9):
            assert remainder_bound(f, 0, FIVE_HALVES, 0, t) == (0, 0)

    def test_bound_holds_on_random_instances(self):
        rng = random.Random(23)
        for _ in range(50):
            m = rng.randint(1, 4)
            a = rng.randint(0, 3)
            b = a + m + rng.randint(1, 12)
            seed = TaylorSeed(
                a=a,
                m=m,
                initial=tuple(rng.randint(-9, 9) for _ in range(m)),
                h=tuple(rng.randint(-9, 9) for _ in range(b - a)),
            )
            f = construct_from_taylor_data(seed)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            lhs, rhs = remainder_bound(f, a, mu, p, b)
            assert lhs <= rhs


class TestConstruction:
    def test_zero_seed_gives_zero_function(self):
        seed = TaylorSeed(a=0, m=2, initial=(0, 0), h=(0, 0, 0, 0))
        f = construct_from_taylor_data(seed)
        assert all(v == 0 for v in f.values)

    def test_unit_second_difference_gives_triangular_numbers(self):
        seed = TaylorSeed(a=0, m=2, initial=(0, 0), h=tuple(1 for _ in range(6)))
        f = construct_from_taylor_data(seed)
        assert f.lo == -1 and f.hi == 6
        assert f.at(-1) == 0
        for t in range(0, 7):
            assert f.at(t) == t * (t + 1) // 2

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(30):
            m = rng.randint(1, 5)
            a = rng.randint(-5, 5)
            b = a + rng.randint(1, 20)
            f = GridFunction(
                a - m + 1, tuple(rng.randint(-9, 9) for _ in range(b - (a - m + 1) + 1))
            )
            rebuilt = construct_from_taylor_data(taylor_seed_of(f, a, m, b))
            assert rebuilt.lo == f.lo and rebuilt.hi == f.hi
            assert rebuilt.values == f.values

    def test_seed_base_right_of_the_grid_is_a_domain_error(self):
        f = GridFunction(0, tuple(range(6)))
        for a in (6, 10):
            with pytest.raises(DomainError, match=rf"^index {a} outside grid domain \[0, 5\]$"):
                taylor_seed_of(f, a, 2, 3)

    def test_direct_evaluation_matches_unroll(self):
        rng = random.Random(31)
        for _ in range(30):
            m = rng.randint(1, 4)
            a = rng.randint(-3, 3)
            span = rng.randint(m + 1, 15)
            seed = TaylorSeed(
                a=a,
                m=m,
                initial=tuple(rng.randint(-9, 9) for _ in range(m)),
                h=tuple(rng.randint(-9, 9) for _ in range(span)),
            )
            f = construct_from_taylor_data(seed)
            for t in range(a + m, seed.b + 1):
                assert eval_from_taylor_data(seed, t) == f.at(t)

    def test_direct_evaluation_window(self):
        seed = TaylorSeed(a=0, m=2, initial=(1, 0), h=(1, 2, 3))
        with pytest.raises(WindowError, match=r"^direct evaluation is valid only for t >= a\+m = 2, got t=1$"):
            eval_from_taylor_data(seed, 1)
        with pytest.raises(WindowError, match=r"^t=4 beyond the seeded range \[1, 3\]$"):
            eval_from_taylor_data(seed, 4)

    def test_float_construction_tracks_exact(self):
        # float construction against the exact construction of the same seed,
        # relative to max|f|: prefix sums stay near 2e-15 on these seeds, while an
        # m-term binomial recurrence reaches about 3e-12
        rng = random.Random(37)
        worst = Fraction(0)
        for _ in range(300):
            m = rng.randint(1, 5)
            initial = tuple(rng.uniform(-9, 9) for _ in range(m))
            h = tuple(rng.uniform(-9, 9) for _ in range(rng.randint(1, 60)))
            got = construct_from_taylor_data(TaylorSeed(a=0, m=m, initial=initial, h=h))
            rational = TaylorSeed(
                a=0, m=m, initial=tuple(map(Fraction, initial)), h=tuple(map(Fraction, h))
            )
            want = construct_from_taylor_data(rational).values
            error = max(abs(Fraction(x) - y) for x, y in zip(got.values, want))
            worst = max(worst, error / max(map(abs, want)))
        assert worst < 1e-13, float(worst)

    def test_seed_validates_shape(self):
        with pytest.raises(ParameterError):
            TaylorSeed(a=0, m=2, initial=(1,), h=(1, 2))


class TestGammaShiftIdentity:
    def test_normalized_rational_form(self):
        # ratio of adjacent gamma quotients: 1 = ((x+1) - (x-k)) / (k+1)
        rng = random.Random(37)
        for _ in range(100):
            k = Fraction(rng.randint(-7, 47), 8)
            x = k + Fraction(rng.randint(1, 48), 8)
            up = gamma_ratio_mod1(x + 2, x + 1)
            down = gamma_ratio_mod1(x - k + 1, x - k)
            assert (up - down) / (k + 1) == 1

    def test_integer_case_raw_quotients(self):
        # x=2, k=1: 2 = (1/2)(6 - 2)
        x, k = Fraction(2), Fraction(1)
        q1 = gamma_ratio_mod1(x + 1, x - k + 1)
        q2 = gamma_ratio_mod1(x + 2, x - k + 1)
        q3 = gamma_ratio_mod1(x + 1, x - k)
        assert q1 == 2
        assert (q2 - q3) / (k + 1) == q1


def product_weight_row(nu, length):
    """``w_ν(1..length)`` from the product form ``∏_{j=1}^{n−1}(p+q(j−1)) / (q^{n−1}(n−1)!)``."""
    p, q = nu.numerator, nu.denominator
    row, num, den = [], 1, 1
    for n in range(1, length + 1):
        if n > 1:
            num *= p + q * (n - 2)
            den *= q * (n - 1)
        row.append(Fraction(num, den))
    return row


def binomial_difference(f, t, k):
    """``∇^k f(t) = Σ_j (−1)^j C(k, j) f(t−j)``."""
    return sum((-1) ** j * math.comb(k, j) * f.at(t - j) for j in range(k + 1))


class TestLongExactRemainderOracle:
    """Whole exact series against product-form weights and binomial differences in
    plain ``Fraction`` arithmetic: on grids of 120 points for order denominators
    2..8 with values whose denominators share primes with the order's, and with a
    prime denominator equal to the last row index, on short and long series."""

    @staticmethod
    def check(f, a, mu, t_max):
        m = mu.numerator // mu.denominator + 1
        n_max = t_max - a
        h = [binomial_difference(f, s, m) for s in range(a + 1, t_max + 1)]
        wc = product_weight_row(m - mu, n_max)
        cap = [sum(wc[i - j] * h[j] for j in range(i + 1)) for i in range(n_max)]
        initials = [binomial_difference(f, a, k) for k in range(m)]
        for p in sorted({0, m - 1}):
            wr = product_weight_row(mu - p, n_max)
            series = taylor_extended_series(f, a, mu, p, t_max) if p else taylor_fractional_series(f, a, mu, t_max)
            assert sorted(series) == list(range(a + m, t_max + 1))
            for t, expansion in series.items():
                n = t - a
                rem = sum(wr[n - 1 - i] * cap[i] for i in range(n))
                poly = sum(product_weight_row(Fraction(k - p + 1), n)[-1] * initials[k] for k in range(p, m))
                assert expansion.remainder == rem, (mu, p, t)
                assert expansion.poly_part == poly, (mu, p, t)
                assert expansion.total == binomial_difference(f, t, p), (mu, p, t)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_long_series(self, q):
        rng = random.Random(q)
        m = 1 + q % 3
        a, t_max = 0, 120
        values = (Fraction(rng.randint(-9, 9), rng.choice((1, q, 6))) for _ in range(t_max - a + m))
        self.check(GridFunction(a - m + 1, tuple(values)), a, Fraction(q * m - 1, q), t_max)

    @pytest.mark.parametrize("q", (2, 3, 5, 53, 61))
    def test_prime_denominator_at_the_row_end(self, q):
        # w(q+1) has the reduced denominator q^q·q: the last row index needs the prime
        # q itself.  It enters the last remainder through ∇²f(a+1), kept positive (a
        # B without that prime floors two terms whose errors can cancel for a negative
        # one) and integer; q = 53 and 61 give series long enough for the powers of B
        rng = random.Random(q)
        a, t_max = 1, q + 2
        h = [rng.randint(1, 9) for _ in range(t_max - a)]
        f = construct_from_taylor_data(TaylorSeed(a=a, m=2, initial=(1, 2), h=h))
        self.check(f, a, Fraction(2 * q - 1, q), t_max)


class TestRemainderSharpness:
    """The remainder estimate ``kernel mass · max|C|`` is attained.  The remainder of
    ``∇^p f(t)`` is ``Σ_τ w_{μ−p}(t−τ+1)·C(τ)`` with positive weights, and the
    Caputo-like difference is ``C = w_{m−μ} ∗ ∇^m f`` with ``w_{m−μ} ∗ w_{μ−m+1} =
    w_1 ≡ 1``; so ``∇^m f = w_{μ−m+1}`` (product form, not the library's rows) gives
    ``C ≡ 1`` and ``lhs == rhs``."""

    N = 200
    CASES = [
        (Fraction(1, 2), 0),
        (Fraction(3, 2), 0),
        (Fraction(3, 2), 1),
        (Fraction(7, 3), 2),
        (Fraction(5, 2), 1),
        (Fraction(11, 4), 0),
        (Fraction(13, 5), 2),
    ]

    def extremal(self, a, mu):
        m = mu.numerator // mu.denominator + 1
        initial = tuple(Fraction(k - 2, k + 1) for k in range(m))  # they cancel out of lhs
        h = product_weight_row(mu - m + 1, self.N)
        return construct_from_taylor_data(TaylorSeed(a=a, m=m, initial=initial, h=h))

    @pytest.mark.parametrize("mu, p", CASES)
    def test_bound_is_attained(self, mu, p):
        a, m = 1, mu.numerator // mu.denominator + 1
        f = self.extremal(a, mu)
        assert set(caputo_nabla_grid(f, a + 1, mu).values) == {1}
        for t in (a + m, a + m + 1, a + 37, a + self.N):
            lhs, rhs = remainder_bound(f, a, mu, p, t)
            assert lhs == rhs == kernel_sum_closed_form(a, mu - p, t), (t, lhs, rhs)

    @pytest.mark.parametrize("mu, p", CASES)
    def test_every_series_remainder_is_the_kernel_mass(self, mu, p):
        f = self.extremal(0, mu)
        for t, expansion in taylor_extended_series(f, 0, mu, p).items():
            assert expansion.remainder == kernel_sum_closed_form(0, mu - p, t), t
