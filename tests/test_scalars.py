"""Scalar backend tests: gamma quotients, kernel weights, comparison policy."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import naive_ratio

from nablafrac import (
    Backend,
    DomainError,
    NormalizationError,
    OrderError,
    ParameterError,
    ParseError,
    TolerancePolicy,
    backend_of,
    falling_factorial,
    gamma_ratio_mod1,
    normalized_rising,
    parse_order,
    rising_factorial,
    scalar_close,
)


class TestNormalizedRising:
    def test_empty_product_is_one(self):
        assert normalized_rising(1, Fraction(1, 2)) == 1

    def test_single_factor_is_the_order(self):
        assert normalized_rising(2, Fraction(1, 2)) == Fraction(1, 2)

    def test_half_order_third_weight(self):
        # (1/2)(3/2)/2!
        assert normalized_rising(3, Fraction(1, 2)) == Fraction(3, 8)

    def test_five_halves_third_weight(self):
        # (5/2)(7/2)/2!
        assert normalized_rising(3, Fraction(5, 2)) == Fraction(35, 8)

    def test_shifted_normaliser(self):
        # gamma(n+nu-1)/(gamma(n)*gamma(c)) with nu-c = 1
        value = normalized_rising(3, Fraction(3, 2), Fraction(1, 2))
        assert value == gamma_ratio_mod1(Fraction(7, 2), Fraction(1, 2)) / 2

    def test_normaliser_above_order(self):
        # gamma(1/2)/gamma(5/2) reciprocal chain: 1/((1/2)(3/2))
        assert normalized_rising(1, Fraction(1, 2), Fraction(5, 2)) == Fraction(4, 3)

    def test_rejects_n_below_one(self):
        with pytest.raises(DomainError):
            normalized_rising(0, Fraction(1, 2))

    def test_exact_rejects_incompatible_normaliser(self):
        with pytest.raises(NormalizationError):
            normalized_rising(3, Fraction(1, 2), Fraction(1, 3))

    def test_float_accepts_any_normaliser(self):
        value = normalized_rising(3, Fraction(1, 2), Fraction(1, 3), backend=Backend.FLOAT)
        want = math.exp(math.lgamma(2.5) - math.lgamma(3.0) - math.lgamma(1.0 / 3.0))
        assert value == pytest.approx(want, rel=1e-15)

    def test_rejects_non_positive_orders(self):
        with pytest.raises(OrderError):
            normalized_rising(3, Fraction(-1, 2))

    def test_product_formula_matches_log_gamma(self):
        # exact product vs float lnGamma route, orders with denominator <= 12
        policy = TolerancePolicy()
        for den in range(1, 13):
            for num in (1, den + 1, 3 * den - 1):
                nu = Fraction(num, den)
                for n in (1, 2, 7, 50, 200):
                    exact = normalized_rising(n, nu)
                    approx = normalized_rising(n, nu, backend=Backend.FLOAT)
                    assert scalar_close(approx, exact, policy), (n, nu)

    def test_recurrence_exact(self):
        for nu in (Fraction(1, 2), Fraction(5, 2), Fraction(7, 12)):
            w = [normalized_rising(n, nu) for n in range(1, 61)]
            for n in range(1, 60):
                assert w[n] == w[n - 1] * (nu + n - 1) / n

    def test_order_one_weights_are_all_one(self):
        assert all(normalized_rising(n, Fraction(1)) == 1 for n in range(1, 40))


class TestGammaRatio:
    def test_upward_chain(self):
        # gamma(7/2)/gamma(3/2) = (3/2)(5/2)
        assert gamma_ratio_mod1(Fraction(7, 2), Fraction(3, 2)) == Fraction(15, 4)

    def test_downward_chain(self):
        assert gamma_ratio_mod1(Fraction(3, 2), Fraction(7, 2)) == Fraction(4, 15)

    def test_equal_arguments(self):
        assert gamma_ratio_mod1(Fraction(9, 4), Fraction(9, 4)) == 1

    def test_non_integer_difference_rejected(self):
        with pytest.raises(NormalizationError):
            gamma_ratio_mod1(Fraction(3, 2), Fraction(4, 3))

    def test_pole_crossing_rejected(self):
        with pytest.raises(DomainError):
            gamma_ratio_mod1(Fraction(2), Fraction(-1))


def _rational_exponent(rng):
    value = rng.randint(-9, 9)
    return rng.choice([value, Fraction(value), float(value)])


class TestGammaQuotientSweep:
    """Seeded sweep pinning every gamma-quotient view: exact values against
    naive factor products, float values against their explicit log-gamma and
    gamma expressions, plus the conventions and messages."""

    def test_exact_factorials_are_factor_products(self):
        rng = random.Random(11)
        for _ in range(600):
            t, alpha = rng.randint(0, 30), _rational_exponent(rng)
            k = int(alpha)
            got = falling_factorial(t, alpha)
            want = naive_ratio(Fraction(t + 1), Fraction(t + 1 - k)) if t >= k else Fraction(0)
            assert type(got) is Fraction and got == want, (t, alpha)
            if t == 0 or -k >= t > 0:
                if k == 0:
                    assert rising_factorial(t, alpha) == 1
                elif t == 0:
                    assert rising_factorial(t, alpha) == 0
                else:
                    message = f"rising factorial pole at t={t}, alpha={alpha}"
                    with pytest.raises(DomainError, match=f"^{message}$"):
                        rising_factorial(t, alpha)
                continue
            got = rising_factorial(t, alpha)
            assert type(got) is Fraction and got == naive_ratio(Fraction(t + k), Fraction(t))

    def test_exact_quotients_are_factor_products(self):
        rng = random.Random(12)
        for _ in range(600):
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            p = q + rng.randint(-10, 10)
            low, high = min(p, q), max(p, q)
            if low.denominator == 1 and low <= 0 < high:
                with pytest.raises(DomainError, match="^gamma quotient crosses a pole at argument 0$"):
                    gamma_ratio_mod1(p, q)
                continue
            assert gamma_ratio_mod1(p, q) == naive_ratio(p, q), (p, q)
            n, nu = rng.randint(1, 40), Fraction(rng.randint(1, 30), rng.randint(1, 6))
            c = rng.choice([None, nu + rng.randint(-3, 3)])
            want = naive_ratio(nu + n - 1, nu) / math.factorial(n - 1)
            if c is not None and c > 0:
                want *= naive_ratio(nu, c)
                assert normalized_rising(n, nu, c) == want, (n, nu, c)
            elif c is None:
                assert normalized_rising(n, nu) == want, (n, nu)

    def test_float_values_are_the_explicit_expressions(self):
        rng = random.Random(13)
        for _ in range(600):
            t = rng.randint(1, 60)
            alpha = rng.choice([Fraction(rng.randint(-90, 90), rng.choice([2, 3, 8])), rng.uniform(-40, 40)])
            if float(alpha).is_integer():
                continue
            x = t + float(alpha)
            got = rising_factorial(t, alpha)
            if x > 0.0:
                assert got == math.exp(math.lgamma(x) - math.lgamma(float(t))), (t, alpha)
            else:
                assert got == math.gamma(x) / math.gamma(float(t)), (t, alpha)
            y = t + 1 - float(alpha)
            got = falling_factorial(t, alpha)
            if y > 0.0:
                assert got == math.exp(math.lgamma(t + 1.0) - math.lgamma(y)), (t, alpha)
            else:
                assert got == math.gamma(t + 1.0) / math.gamma(y), (t, alpha)
            n, nu = rng.randint(1, 200), rng.choice([Fraction(rng.randint(1, 40), 3), rng.uniform(0.01, 20)])
            c = rng.choice([None, rng.uniform(0.01, 20)])
            nu_f = float(nu)
            c_f = nu_f if c is None else c
            x = nu_f if n == 1 else n + nu_f - 1.0
            want = math.exp(math.lgamma(x) - math.lgamma(float(n)) - math.lgamma(c_f))
            assert normalized_rising(n, nu, c, backend=Backend.FLOAT) == want, (n, nu, c)

    def test_conventions(self):
        for t in (0, 1, 7):
            for zero in (0, Fraction(0), 0.0):
                assert rising_factorial(t, zero) == 1 and type(rising_factorial(t, zero)) is Fraction
                assert falling_factorial(t, zero) == 1 and type(falling_factorial(t, zero)) is Fraction
        for alpha in (2, -2, Fraction(1, 2), -0.5, 3.0):
            assert rising_factorial(0, alpha) == 0 and type(rising_factorial(0, alpha)) is Fraction
        assert falling_factorial(3, 5) == 0 and type(falling_factorial(3, 5)) is Fraction
        assert rising_factorial(3, 2.0) == Fraction(12) and type(rising_factorial(3, 2.0)) is Fraction
        assert falling_factorial(4, 2.0) == Fraction(12) and type(falling_factorial(4, 2.0)) is Fraction

    def test_messages(self):
        with pytest.raises(DomainError, match=r"^rising factorial pole at t=2, alpha=-3$"):
            rising_factorial(2, -3)
        with pytest.raises(DomainError, match=r"^rising factorial pole at t=1, alpha=-9007199254740993/2$"):
            rising_factorial(1, Fraction(-(2**53) - 1, 2))
        with pytest.raises(DomainError, match=r"^falling factorial pole at t=1, alpha=18014398509481985/2$"):
            falling_factorial(1, Fraction(2**54 + 1, 2))
        with pytest.raises(DomainError, match=r"^gamma quotient crosses a pole at argument 0$"):
            gamma_ratio_mod1(Fraction(2), Fraction(-1))
        with pytest.raises(DomainError, match=r"^gamma quotient crosses a pole at argument 0$"):
            gamma_ratio_mod1(Fraction(-3), Fraction(1))
        with pytest.raises(NormalizationError, match=r"^gamma quotient of 3/2 and 4/3 is not rational \(difference 1/6 is not an integer\)$"):
            gamma_ratio_mod1(Fraction(3, 2), Fraction(4, 3))
        with pytest.raises(ParameterError, match=r"^gamma argument must be rational on the exact backend, got float 0.5$"):
            gamma_ratio_mod1(0.5, Fraction(1, 2))
        with pytest.raises(ParameterError, match=r"^order must be rational on the exact backend, got float 0.5$"):
            normalized_rising(2, 0.5)
        with pytest.raises(ParameterError, match=r"^booleans are not exponents$"):
            rising_factorial(2, True)
        with pytest.raises(ParameterError, match=r"^unsupported exponent type str$"):
            falling_factorial(2, "1/2")
        with pytest.raises(DomainError, match=r"^falling factorial needs an integer t >= 0, got -1$"):
            falling_factorial(-1, 2)


def test_zero_factor_ends_the_exact_product():
    # 0 = Γ(3)/Γ(3 − 10^12) without multiplying 10^12 factors
    assert falling_factorial(2, 10**12) == 0


def test_float_gamma_overflow_is_a_domain_error():
    calls = [
        lambda: rising_factorial(200, -200.5),
        lambda: falling_factorial(200, 201.5),
        lambda: rising_factorial(1000, Fraction(1001, 2)),
        lambda: normalized_rising(2000, Fraction(601, 2), backend=Backend.FLOAT),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="overflows the float range"):
            call()


def test_float_denominator_underflow_is_an_overflow_error():
    # Γ(3+1−α) underflows to 0 or to a subnormal, so the quotient is infinite
    for alpha in (300.5, 180.5):
        with pytest.raises(DomainError, match="overflows the float range"):
            falling_factorial(3, alpha)


def test_float_normalized_rising_rejects_a_nan_order_or_normaliser():
    nan = float("nan")
    for args in ((2, nan), (2, 1.5, nan), (2, nan, 1.5)):
        with pytest.raises(OrderError, match="orders must be positive"):
            normalized_rising(*args, backend=Backend.FLOAT)


def test_first_weight_of_a_tiny_float_order_is_one():
    # 1 + ν − 1.0 rounds to 0 for ν ≤ 2^-53 and drops the low bits of a larger ν,
    # so the first weight takes Γ(ν) itself
    for nu in (1e-300, 2.0**-53, 2.0**-54, 5e-324, 1.5 * 2.0**-53, 2.0**-45, 0.3):
        assert normalized_rising(1, nu, backend=Backend.FLOAT) == 1.0


def test_exact_gamma_quotient_refuses_too_many_factors():
    calls = [
        lambda: rising_factorial(5, 1e308),
        lambda: falling_factorial(3, -1e308),
        lambda: rising_factorial(1, 10**6),
        lambda: gamma_ratio_mod1(Fraction(2 * 10**6 + 1, 2), Fraction(1, 2)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="more than 100000 factors"):
            call()


class TestScalarClose:
    def test_exact_pair_compares_equal(self):
        assert scalar_close(Fraction(15, 8), Fraction(15, 8))
        assert not scalar_close(Fraction(15, 8), Fraction(15, 8) + Fraction(1, 10**30))

    def test_mixed_pair_within_default_policy(self):
        assert scalar_close(1.875, Fraction(15, 8))

    def test_mixed_pair_outside_default_policy(self):
        # relative error about 5.3e-5
        assert not scalar_close(1.8751, Fraction(15, 8))

    def test_nan_is_never_close(self):
        assert not scalar_close(float("nan"), 0.0)

    def test_infinities_are_close_only_to_themselves(self):
        assert scalar_close(math.inf, math.inf) and scalar_close(-math.inf, -math.inf)
        assert not scalar_close(math.inf, -math.inf)
        assert not scalar_close(math.inf, 1e308)

    @pytest.mark.parametrize("big", [Fraction(10**400), Fraction(-(10**400)), Fraction(10**400, 3)])
    @pytest.mark.parametrize("double", [1.0, 1e308, -1e308, math.inf, -math.inf, math.nan])
    def test_exact_beyond_the_double_range_is_close_to_no_float(self, big, double):
        # float(big) overflows; big is finite and farther than any bound from every double
        assert not scalar_close(big, double)
        assert not scalar_close(double, big)

    @given(st.floats(min_value=-1e9, max_value=1e9))
    def test_float_is_close_to_itself(self, x):
        assert scalar_close(x, x)

    def test_tolerance_policy_validation(self):
        with pytest.raises(ParameterError):
            TolerancePolicy(rel_eps=0.0)
        with pytest.raises(ParameterError):
            TolerancePolicy(abs_eps=-1.0)


class TestParseOrder:
    def test_fraction(self):
        assert parse_order("5/2") == Fraction(5, 2)

    def test_integer(self):
        assert parse_order("3") == Fraction(3)

    def test_negative_integer_parses(self):
        # positivity is a caller-side requirement
        assert parse_order("-2") == Fraction(-2)

    @pytest.mark.parametrize("bad", ["", "5/0", "1.5", "5/-2", "a/b", "5 / "])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_order(bad)


def test_backend_of_classification():
    assert backend_of(Fraction(1, 2)) is Backend.EXACT
    assert backend_of(3) is Backend.EXACT
    assert backend_of(0.5) is Backend.FLOAT
    with pytest.raises(ParameterError):
        backend_of("0.5")
