"""Inequality evaluator tests: anchors, boundary checks, slack properties."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import lsum, naive_caputo, naive_nabla, product_weight, raw_caputo, raw_rising

from nablafrac import (
    Backend,
    BoundaryConditionError,
    DomainError,
    FunctionSpec,
    GridFunction,
    OpialParams,
    ParameterError,
    TaylorSeed,
    TolerancePolicy,
    WindowError,
    avg_sobolev_report,
    caputo_nabla_grid,
    construct_from_taylor_data,
    g_bound,
    gen_function,
    kernel_weights,
    mix_seed,
    nabla,
    normalized_rising,
    opial_corollary_25,
    opial_report,
    ostrowski_report,
    poincare_report,
    replay_inequality_trial,
    run_inequality_suite,
    scalar_close,
    sobolev_report,
)

FIVE_HALVES = Fraction(5, 2)


def unit_weights(lo, hi):
    return GridFunction.constant(lo, hi, Fraction(1))


def zero_function(lo, hi):
    return GridFunction(lo, tuple(0 for _ in range(lo, hi + 1)))


def admissible(seed, a, m, b, k0, bound=9):
    return gen_function(
        FunctionSpec(a=a, m=m, b=b, zero_initials_from=k0, value_range=bound, seed=seed)
    )


def initial_witness(k, a=0, b=8, m=3):
    """``∇^k f(a) = 1``, the other initial differences 0 and ``∇^m f ≡ 0`` on ``(a, b]``:
    a polynomial whose Caputo difference vanishes, so every raw right-hand side is 0."""
    initial = tuple(int(j == k) for j in range(m))
    return construct_from_taylor_data(TaylorSeed(a=a, m=m, initial=initial, h=(0,) * (b - a)))


def default_opial_params(a, t, mu=FIVE_HALVES, p=0):
    m = 3
    return OpialParams(
        mu=mu,
        p=p,
        gamma=2,
        delta=2,
        inner_weights=unit_weights(a + 1, t),
        outer_weights=unit_weights(a + m, t),
    )


class TestGBound:
    def test_anchor_values(self):
        g = GridFunction(1, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
        assert g_bound(g, 0, 3, 4, "paper") == 48
        assert g_bound(g, 0, 3, 4, "tight") == 8
        # tight variant equals the telescoped square difference
        assert g_bound(g, 0, 3, 4, "tight") == Fraction((2 * 4 - 3) ** 2 - (2 * 2 - 1) ** 2, 2)

    def test_tight_never_exceeds_paper(self):
        rng = random.Random(41)
        for _ in range(200):
            increments = [Fraction(rng.randint(0, 9)) for _ in range(rng.randint(4, 12))]
            vals = []
            acc = Fraction(0)
            for inc in increments:
                acc += inc
                vals.append(acc)
            g = GridFunction(1, tuple(vals))
            t = g.hi
            assert g_bound(g, 0, 3, t, "tight") <= g_bound(g, 0, 3, t, "paper")

    def test_unknown_variant_rejected(self):
        g = GridFunction(1, (1, 2, 3, 4))
        with pytest.raises(ParameterError):
            g_bound(g, 0, 3, 4, "loose")

    @staticmethod
    def convex_series(length, top):
        """Every nondecreasing, non-negative, convex integer series of ``length``
        values at most ``top``."""

        def grow(vals):
            if len(vals) == length:
                yield vals
                return
            step = vals[-1] - vals[-2] if len(vals) > 1 else 0
            for nxt in range(vals[-1] + step, top + 1):
                yield from grow(vals + [nxt])

        for g0 in range(top + 1):
            yield from grow([g0])

    def test_tight_dominates_every_small_convex_series(self):
        # the claim checked: for every nondecreasing, non-negative, convex integer
        # series of length 3..8 with values <= 12 (3,648 series), the tight bound is
        # at least the accumulated product Σ_{t'=a+m}^{t} g(t')·(g(t')−g(t'−1))
        count = 0
        for length in range(3, 9):
            for vals in self.convex_series(length, 12):
                g = GridFunction(1, tuple(vals))
                product = sum(vals[i] * (vals[i] - vals[i - 1]) for i in range(2, length))
                assert g_bound(g, 0, 3, length, "tight") >= product, vals
                count += 1
        assert count == 3648

    def test_paper_dominates_every_small_nondecreasing_series(self):
        # the claim checked: for every nondecreasing, non-negative integer series of
        # length 3..8 with values <= 8 (24,255 series, convex or not), the paper
        # bound is at least the accumulated product Σ_{t'=a+m}^{t} g(t')·(g(t')−g(t'−1))
        count = 0
        for length in range(3, 9):
            for vals in itertools.combinations_with_replacement(range(9), length):
                g = GridFunction(1, vals)
                product = sum(vals[i] * (vals[i] - vals[i - 1]) for i in range(2, length))
                assert g_bound(g, 0, 3, length, "paper") >= product, vals
                count += 1
        assert count == 24255

    def test_tight_fails_on_the_smallest_non_convex_series(self):
        # (0, 1, 1) is nondecreasing but not convex: the accumulated product is 0,
        # the tight bound goes negative and only the paper bound still holds
        g = GridFunction(1, (0, 1, 1))
        assert g_bound(g, 0, 3, 3, "tight") == Fraction(-3, 2)
        assert g_bound(g, 0, 3, 3, "paper") == Fraction(5, 2)


class TestOpial:
    def test_zero_function_gives_zero_report(self):
        f = zero_function(-2, 8)
        report = opial_report(f, 0, 5, default_opial_params(0, 5))
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.slack == 0
        assert report.holds

    def test_g_series_is_nondecreasing(self):
        f = admissible(99, 0, 3, 12, k0=0)
        report = opial_report(f, 0, 12, default_opial_params(0, 12))
        g_series = report.components["g"]
        assert all(x <= y for x, y in zip(g_series, g_series[1:]))

    def test_boundary_violation_detected(self):
        f = GridFunction(-2, tuple(t + 5 for t in range(-2, 9)))
        with pytest.raises(BoundaryConditionError):
            opial_report(f, 0, 5, default_opial_params(0, 5))

    def test_random_slack_nonnegative_paper_variant(self):
        rng = random.Random(43)
        for _ in range(60):
            t = 3 + rng.randint(0, 10)
            f = admissible(rng.getrandbits(63), 0, 3, max(t, 4), k0=0)
            report = opial_report(f, 0, t, default_opial_params(0, t), "paper")
            assert report.components["exact_holds"] == 1
            assert report.holds

    def test_exact_squared_certificate_present(self):
        f = admissible(7, 0, 3, 8, k0=0)
        report = opial_report(f, 0, 8, default_opial_params(0, 8))
        lhs_sq = report.components["lhs_squared"]
        rhs_sq = report.components["rhs_squared"]
        assert isinstance(lhs_sq, Fraction) and isinstance(rhs_sq, Fraction)
        assert math.isclose(float(lhs_sq), float(report.lhs) ** 2, rel_tol=1e-12)

    def test_zero_outer_weights_allowed(self):
        f = admissible(11, 0, 3, 8, k0=0)
        params = OpialParams(
            mu=FIVE_HALVES,
            p=0,
            gamma=2,
            delta=2,
            inner_weights=unit_weights(1, 8),
            outer_weights=GridFunction(3, tuple(0 for _ in range(3, 9))),
        )
        report = opial_report(f, 0, 8, params)
        assert report.lhs == 0
        assert report.holds

    def test_tight_variant_counterexample(self):
        # an early caputo spike followed by a nearly flat tail drives the
        # telescoped variant negative: it is not a valid upper bound there
        seed = TaylorSeed(a=0, m=3, initial=(0, 0, 0), h=(0, 9, -4, -1))
        f = construct_from_taylor_data(seed)
        params = default_opial_params(0, 4)
        tight = opial_report(f, 0, 4, params, "tight")
        paper = opial_report(f, 0, 4, params, "paper")
        assert tight.components["g_bound_tight"] < 0
        assert math.isnan(tight.rhs)
        assert not tight.holds
        assert tight.components["exact_holds"] == 0
        assert paper.holds and paper.components["exact_holds"] == 1

    def test_conjugacy_enforced(self):
        with pytest.raises(ParameterError):
            OpialParams(
                mu=FIVE_HALVES,
                p=0,
                gamma=2,
                delta=3,
                inner_weights=unit_weights(1, 5),
                outer_weights=unit_weights(3, 5),
            )

    @pytest.mark.parametrize(
        "gamma, inner, outer, message",
        [
            (1, (1, 1, 1, 1, 1), (1, 1, 1), "exponents must exceed 1, got gamma=1, delta=2"),
            (2, (1, 0, 1, 1, 1), (1, 1, 1), "inner weight at 2 must be positive"),
            (2, (1, 1, 1, 1, 1), (1, -1, 1), "outer weight at 4 must be non-negative"),
        ],
    )
    def test_exponents_and_weights_checked(self, gamma, inner, outer, message):
        with pytest.raises(ParameterError) as info:
            OpialParams(FIVE_HALVES, 0, gamma, 2, GridFunction(1, inner), GridFunction(3, outer))
        assert str(info.value) == message

    def test_weight_grid_shares_the_backend(self):
        f = admissible(11, 0, 3, 8, k0=0)
        params = dataclasses.replace(default_opial_params(0, 5), inner_weights=unit_weights(1, 5).as_float())
        with pytest.raises(ParameterError, match="^weight grids must share the function's backend$"):
            opial_report(f, 0, 5, params)

    def test_low_order_rejected(self):
        with pytest.raises(ParameterError):
            OpialParams(
                mu=Fraction(3, 2),
                p=0,
                gamma=2,
                delta=2,
                inner_weights=unit_weights(1, 5),
                outer_weights=unit_weights(2, 5),
            )


class TestOpialCorollary:
    def test_prefactor_matches_closed_form(self):
        f = zero_function(-2, 6)
        report = opial_corollary_25(f, 4)
        assert report.components["prefactor"] == pytest.approx(
            4.0 / (3.0 * math.sqrt(math.pi)), rel=1e-12
        )

    def test_zero_function(self):
        f = zero_function(-2, 6)
        report = opial_corollary_25(f, 5)
        assert report.lhs == 0 and report.rhs == 0

    def test_first_g_value_is_squared_first_value(self):
        # with zero initial values the first accumulated term is f(1)^2
        seed = TaylorSeed(a=0, m=3, initial=(0, 0, 0), h=(5, 1, -2, 3))
        f = construct_from_taylor_data(seed)
        report = opial_corollary_25(f, 4)
        assert report.components["g"][0] == float(f.at(1)) ** 2

    def test_boundary_zeroes_required(self):
        f = GridFunction(-2, tuple(1 for _ in range(10)))
        with pytest.raises(BoundaryConditionError):
            opial_corollary_25(f, 4)

    def test_random_slack_nonnegative(self):
        rng = random.Random(47)
        for _ in range(60):
            t = 3 + rng.randint(0, 15)
            f = admissible(rng.getrandbits(63), 0, 3, max(t, 4), k0=0)
            report = opial_corollary_25(f, t)
            assert report.holds and report.components["exact_holds"] == 1


class TestOstrowski:
    def test_coefficient_anchor(self):
        f = admissible(3, 0, 3, 5, k0=1)
        report = ostrowski_report(f, 0, 5, FIVE_HALVES, 0)
        assert report.components["coefficient"] == pytest.approx(4851 / 256, rel=1e-15)

    def test_coefficient_matches_log_gamma(self):
        # normalized rational coefficient vs the float gamma evaluation
        policy = TolerancePolicy()
        a, b, m, p = 0, 5, 3, 0
        exact = (
            normalized_rising(b - a, FIVE_HALVES - p + 2)
            - normalized_rising(m, FIVE_HALVES - p + 2)
        ) / (b - a - m)
        target = float(FIVE_HALVES) - p + 2.0
        approx = (
            normalized_rising(b - a, target, backend=Backend.FLOAT)
            - normalized_rising(m, target, backend=Backend.FLOAT)
        ) / (b - a - m)
        assert scalar_close(approx, exact, policy)

    def test_zero_function(self):
        f = zero_function(-2, 8)
        report = ostrowski_report(f, 0, 8, FIVE_HALVES, 0)
        assert report.lhs == 0 and report.rhs == 0

    def test_exact_rational_report(self):
        f = admissible(13, 0, 3, 9, k0=1)
        report = ostrowski_report(f, 0, 9, FIVE_HALVES, 0)
        assert isinstance(report.lhs, Fraction) and isinstance(report.rhs, Fraction)
        assert report.components["exact_holds"] == 1

    def test_boundary_zeroes_start_after_shift(self):
        # p = 1 leaves nabla^0 and nabla^1 free; only nabla^2 must vanish
        rng = random.Random(53)
        seed = TaylorSeed(a=0, m=3, initial=(4, -3, 0), h=tuple(rng.randint(-9, 9) for _ in range(8)))
        f = construct_from_taylor_data(seed)
        report = ostrowski_report(f, 0, 8, FIVE_HALVES, 1)
        assert report.holds

    def test_window_error(self):
        f = admissible(5, 0, 3, 7, k0=1)
        with pytest.raises(WindowError):
            ostrowski_report(f, 0, 3, FIVE_HALVES, 0)

    def test_random_slack_nonnegative(self):
        rng = random.Random(59)
        for _ in range(60):
            m = rng.randint(1, 4)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 9)
            f = admissible(rng.getrandbits(63), a, m, b, k0=min(p + 1, m))
            report = ostrowski_report(f, a, b, mu, p)
            assert report.components["exact_holds"] == 1


    @pytest.mark.parametrize("p, k", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
    def test_each_required_vanishing_initial_difference_is_needed(self, p, k):
        # ∇^p f(a) cancels in average − base value, so k ≤ p is free; for every k > p the
        # raw bound on the witness reads rhs = 0 < lhs, and the report must refuse it
        a, b, mu, m = 0, 8, FIVE_HALVES, 3
        f, count, tail = initial_witness(k), b - a - m, range(a + m + 1, b + 1)
        raw_lhs = abs(lsum((naive_nabla(f, j, p) for j in tail), Fraction(0)) / count - naive_nabla(f, a, p))
        mass = lsum(raw_rising(n, float(mu - p) - 1.0) for j in tail for n in range(1, j - a + 1)) / math.gamma(mu - p)
        raw_rhs = mass / count * max(abs(raw_caputo(f, a + 1, mu, tau)) for tau in range(a + 1, b + 1))
        if k <= p:
            assert ostrowski_report(f, a, b, mu, p).holds and raw_lhs == raw_rhs == 0
            return
        with pytest.raises(BoundaryConditionError, match=f"the k={k} backward difference at {a} to vanish"):
            ostrowski_report(f, a, b, mu, p)
        assert raw_rhs == 0 < raw_lhs


class TestPoincare:
    def test_zero_function(self):
        f = zero_function(-2, 8)
        report = poincare_report(f, 0, 8, FIVE_HALVES, 0)
        assert report.lhs == 0 and report.rhs == 0

    def test_exact_rational_when_square_exponents(self):
        f = admissible(17, 0, 3, 9, k0=0)
        report = poincare_report(f, 0, 9, FIVE_HALVES, 0)
        assert isinstance(report.lhs, Fraction) and isinstance(report.rhs, Fraction)
        assert report.slack >= 0

    def test_boundary_window_single_term(self):
        # evaluation at b = a+m keeps exactly one outer term
        f = admissible(19, 0, 3, 4, k0=0)
        report = poincare_report(f, 0, 3, FIVE_HALVES, 0)
        assert report.holds

    def test_general_conjugate_pair(self):
        f = admissible(23, 0, 3, 9, k0=0)
        report = poincare_report(f, 0, 9, FIVE_HALVES, 0, Fraction(3, 2), Fraction(3))
        assert isinstance(report.slack, float)
        assert report.holds

    def test_random_slack_nonnegative(self):
        rng = random.Random(61)
        for _ in range(60):
            m = rng.randint(1, 4)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 9)
            f = admissible(rng.getrandbits(63), a, m, b, k0=p)
            report = poincare_report(f, a, b, mu, p)
            assert report.components["exact_holds"] == 1

    @pytest.mark.parametrize("k, lhs", [(0, 6), (1, 199), (2, 2882)])
    def test_each_vanishing_initial_difference_is_needed(self, k, lhs):
        # ∇^k f(a) = 1, the other initials 0 and ∇³f ≡ 0: a polynomial whose Caputo
        # difference vanishes, so the raw bound reads rhs = 0 < lhs and the report must refuse f
        a, b, mu = 0, 8, 2.5
        seed = TaylorSeed(a=a, m=3, initial=tuple(int(j == k) for j in range(3)), h=(0,) * (b - a))
        f = construct_from_taylor_data(seed)
        with pytest.raises(BoundaryConditionError, match=f"the k={k} backward difference at {a} to vanish"):
            poincare_report(f, a, b, FIVE_HALVES, 0)
        raw_lhs = lsum(naive_nabla(f, j, 0) ** 2 for j in range(a + 3, b + 1))
        kernel = sum(sum(raw_rising(j - tau + 1, mu - 1.0) ** 2 for tau in range(a + 1, j + 1)) for j in range(a + 3, b + 1))
        cap_norm = sum(raw_caputo(f, a + 1, mu, tau) ** 2 for tau in range(a + 1, b + 1))
        assert raw_lhs == lhs and kernel * cap_norm / math.gamma(mu) ** 2 == 0 < raw_lhs


class TestSobolev:
    def test_zero_function(self):
        f = zero_function(-2, 8)
        report = sobolev_report(f, 0, 8, FIVE_HALVES, 0)
        assert report.lhs == 0 and report.rhs == 0

    def test_r_equal_delta_matches_poincare_root(self):
        f = admissible(29, 0, 3, 9, k0=0)
        sob = sobolev_report(f, 0, 9, FIVE_HALVES, 0, 2, 2, 2)
        poi = poincare_report(f, 0, 9, FIVE_HALVES, 0, 2, 2)
        assert float(sob.lhs) == pytest.approx(float(poi.lhs) ** 0.5, rel=1e-12)

    def test_r_one_keeps_exact_lhs(self):
        f = admissible(31, 0, 3, 9, k0=0)
        report = sobolev_report(f, 0, 9, FIVE_HALVES, 0, 2, 2, 1)
        assert isinstance(report.lhs, Fraction)

    def test_invalid_r_rejected(self):
        f = admissible(37, 0, 3, 9, k0=0)
        with pytest.raises(ParameterError):
            sobolev_report(f, 0, 9, FIVE_HALVES, 0, 2, 2, Fraction(1, 2))

    @pytest.mark.parametrize(
        "call",
        [
            lambda f, e: sobolev_report(f, 0, 6, "5/2", 0, r=e),
            lambda f, e: avg_sobolev_report(f, 0, 6, ["5/2"], [unit_weights(1, 6)], r=e),
            lambda f, e: poincare_report(f, 0, 6, "5/2", 0, gamma=e, delta=1 + 2**-50),
        ],
        ids=["sobolev", "avg-sobolev", "poincare"],
    )
    @pytest.mark.parametrize("e", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, call, e):
        # an infinite r would read lhs = 1.0 and hold, and an infinite gamma pass the conjugacy check
        f = construct_from_taylor_data(TaylorSeed(a=0, m=3, initial=(0, 0, 0), h=(5, 1, -2, 3, 4, 1)))
        with pytest.raises(ParameterError, match=f"^exponents must be finite, got {e!r}$"):
            call(f, e)

    def test_fractional_norm_exponent(self):
        f = admissible(38, 0, 3, 9, k0=0)
        report = sobolev_report(f, 0, 9, FIVE_HALVES, 0, 2, 2, Fraction(3, 2))
        assert isinstance(report.slack, float)
        assert report.holds

    def test_random_slack_nonnegative_various_r(self):
        rng = random.Random(67)
        policy = TolerancePolicy()
        for _ in range(60):
            m = rng.randint(1, 4)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 9)
            f = admissible(rng.getrandbits(63), a, m, b, k0=p)
            for r in (1, 2, 3):
                report = sobolev_report(f, a, b, mu, p, 2, 2, r)
                rhs = float(report.rhs)
                assert float(report.slack) >= -(policy.abs_eps + policy.rel_eps * abs(rhs))
                if r == 2:
                    assert report.components["exact_holds"] == 1


    @pytest.mark.parametrize("p, k", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
    def test_each_required_vanishing_initial_difference_is_needed(self, p, k):
        # r = γ = δ = 2: k < p is free; for every k ≥ p the raw bound on the witness
        # reads rhs = 0 < lhs, and the report must refuse it
        a, b, mu, m = 0, 8, FIVE_HALVES, 3
        f = initial_witness(k)
        raw_lhs = lsum((naive_nabla(f, j, p) ** 2 for j in range(a + m, b + 1)), Fraction(0))
        kernel = lsum(
            lsum(raw_rising(j - tau + 1, float(mu - p) - 1.0) ** 2 for tau in range(a + 1, j + 1)) for j in range(a + m, b + 1)
        ) / math.gamma(mu - p) ** 2
        cap_norm = lsum(raw_caputo(f, a + 1, mu, tau) ** 2 for tau in range(a + 1, b + 1))
        if k < p:
            assert sobolev_report(f, a, b, mu, p).holds and raw_lhs == kernel * cap_norm == 0
            return
        with pytest.raises(BoundaryConditionError, match=f"the k={k} backward difference at {a} to vanish"):
            sobolev_report(f, a, b, mu, p)
        assert math.sqrt(kernel) * math.sqrt(cap_norm) == 0 < math.sqrt(raw_lhs)


class TestAvgSobolev:
    def test_zero_function(self):
        f = zero_function(-2, 9)
        weights = [unit_weights(1, 9)]
        report = avg_sobolev_report(f, 0, 9, [FIVE_HALVES], weights)
        assert report.lhs == 0 and report.rhs == 0

    def test_single_order_unit_weights_reduce_to_sobolev(self):
        f = admissible(41, 0, 3, 9, k0=0)
        weights = [unit_weights(1, 9)]
        for r in (1, 2, 3):
            avg = avg_sobolev_report(f, 0, 9, [FIVE_HALVES], weights, r)
            sob = sobolev_report(f, 0, 9, FIVE_HALVES, 0, 2, 2, r)
            assert avg.components["rho_star"] == 1
            assert float(avg.lhs) == pytest.approx(float(sob.lhs), rel=1e-12)
            assert float(avg.rhs) == pytest.approx(float(sob.rhs), rel=1e-12)

    def test_orders_must_increase(self):
        f = admissible(43, 0, 3, 9, k0=0)
        weights = [unit_weights(1, 9), unit_weights(1, 9)]
        with pytest.raises(ParameterError):
            avg_sobolev_report(f, 0, 9, [FIVE_HALVES, Fraction(3, 2)], weights)

    @pytest.mark.parametrize(
        "orders, weights, message",
        [
            ([], [], "need at least one order"),
            ([FIVE_HALVES], [], "need one weight grid per order"),
            ([FIVE_HALVES], [GridFunction(1, (1, 0) + (1,) * 7)], "weights must be positive, got 0 at 2"),
        ],
    )
    def test_orders_and_weights_checked(self, orders, weights, message):
        f = admissible(43, 0, 3, 9, k0=0)
        with pytest.raises(ParameterError) as info:
            avg_sobolev_report(f, 0, 9, orders, weights)
        assert str(info.value) == message

    def test_norm_monotone_in_window_start(self):
        # the r-norm over [a+m_k, b] never exceeds the one over a wider window
        rng = random.Random(71)
        for _ in range(40):
            f = admissible(rng.getrandbits(63), 0, 3, 10, k0=0)
            r = rng.choice((1, 2, 3))
            norms = []
            for start in (3, 2, 1):
                total = sum(abs(float(f.at(j))) ** r for j in range(start, 11))
                norms.append(total ** (1.0 / r))
            assert norms[0] <= norms[1] + 1e-12 and norms[1] <= norms[2] + 1e-12

    def test_random_slack_nonnegative_two_orders(self):
        rng = random.Random(73)
        for _ in range(50):
            mu1 = Fraction(rng.randint(9, 15), 8)
            mu2 = Fraction(rng.randint(17, 23), 8)
            a = rng.randint(0, 2)
            b = a + 3 + 1 + rng.randint(0, 7)
            f = admissible(rng.getrandbits(63), a, 3, b, k0=0)
            weights = []
            for _w in range(2):
                vals = [Fraction(rng.randint(3, 8), 4) for _t in range(a + 1, b + 1)]
                weights.append(GridFunction(a + 1, tuple(vals)))
            report = avg_sobolev_report(f, a, b, [mu1, mu2], weights, 2)
            assert report.components["exact_holds"] == 1

    def test_strict_window_required(self):
        f = admissible(79, 0, 3, 9, k0=0)
        with pytest.raises(WindowError):
            avg_sobolev_report(f, 0, 3, [FIVE_HALVES], [unit_weights(1, 9)])


def tight_opial_trial_73():
    """Trial 73 of the tight weighted-product suite at master seed 42
    (exact backend: slack about -20.9, rhs about 390.4, certificate 0)."""
    f = construct_from_taylor_data(TaylorSeed(a=0, m=3, initial=(0, 0, 0), h=(3, 1, 2, -1)))
    params = OpialParams(
        mu=Fraction(9, 4),
        p=0,
        gamma=2,
        delta=2,
        inner_weights=GridFunction(1, (Fraction(5, 7), Fraction(5, 4), Fraction(6, 7), Fraction(1, 2))),
        outer_weights=GridFunction(3, (Fraction(2), Fraction(8, 5))),
    )
    return f, params


class TestVerdict:
    """One rule decides ``holds``: NaN fails, then the exact certificate, then
    the slack tolerance; the suites apply the same rule."""

    def test_certificate_outranks_a_wide_tolerance(self):
        f, params = tight_opial_trial_73()
        report = opial_report(f, 0, 4, params, "tight", TolerancePolicy(abs_eps=25.0))
        assert math.isfinite(report.rhs) and -25.0 < report.slack < 0
        assert report.components["exact_holds"] == 0
        assert report.holds is False

    def test_float_report_agrees_with_the_suite(self):
        f, params = tight_opial_trial_73()
        params = dataclasses.replace(
            params,
            inner_weights=params.inner_weights.as_float(),
            outer_weights=params.outer_weights.as_float(),
        )
        policy = TolerancePolicy(rel_eps=0.1)
        report = opial_report(f.as_float(), 0, 4, params, "tight", policy)
        seed = mix_seed(42, 73)
        assert report.slack == replay_inequality_trial("opial", seed, Backend.FLOAT, g_variant="tight").slack
        assert "exact_holds" not in report.components
        assert -0.1 * report.rhs < report.slack < 0
        suite = run_inequality_suite("opial", 74, 42, Backend.FLOAT, policy, g_variant="tight")
        assert report.holds is (seed not in suite.failing_seeds)
        assert report.holds is True

    def test_nan_rhs_fails_despite_certificate(self):
        # zero outer weights give rhs² = 0 >= lhs² = 0, but the tight g-bound
        # is negative, so its square root and rhs are NaN
        f = construct_from_taylor_data(TaylorSeed(a=3, m=3, initial=(0, 0, 0), h=(4, 4, -5, -9)))
        params = OpialParams(
            mu=FIVE_HALVES,
            p=0,
            gamma=2,
            delta=2,
            inner_weights=GridFunction(4, (Fraction(1, 3), Fraction(2), Fraction(1))),
            outer_weights=GridFunction(6, (Fraction(0),)),
        )
        report = opial_report(f, 3, 6, params, "tight")
        assert math.isnan(report.rhs)
        assert report.components["exact_holds"] == 1
        assert report.holds is False


class TestFloatRange:
    """A report whose float part leaves the double range raises ``DomainError``."""

    @staticmethod
    def big_grid(scale, backend=Backend.EXACT):
        f = GridFunction(-3, tuple(scale * max(t, 0) for t in range(-3, 13)))
        return f.as_float() if backend is Backend.FLOAT else f

    @pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
    def test_every_family(self, backend):
        f = self.big_grid(10**200, backend)
        one = 1.0 if backend is Backend.FLOAT else Fraction(1)
        C, D = GridFunction.constant(1, 10, one), GridFunction.constant(3, 10, one)
        params = OpialParams(mu=FIVE_HALVES, p=0, gamma=2, delta=2, inner_weights=C, outer_weights=D)
        calls = [
            lambda: opial_report(f, 0, 10, params),
            lambda: poincare_report(f, 0, 10, FIVE_HALVES, 0),
            lambda: sobolev_report(f, 0, 10, FIVE_HALVES, 0),
            lambda: avg_sobolev_report(f, 0, 10, [FIVE_HALVES], [C]),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="overflows the float range"):
                call()

    def test_ostrowski(self):
        # rational end to end, so only its float components overflow, from about 10^308
        f = self.big_grid(10**320)
        with pytest.raises(DomainError, match="overflows the float range"):
            ostrowski_report(f, 0, 10, FIVE_HALVES, 0)
        assert ostrowski_report(self.big_grid(10**200), 0, 10, FIVE_HALVES, 0).holds


class TestRawFormulaOracle:
    """The normalized-kernel implementation against independent brute-force
    float evaluations of the raw formula shapes (raw rising-power kernels,
    explicit gamma prefactors).  Slack positivity alone would not catch a
    systematically inflated right-hand side; these equalities do."""

    def _instance(self, seed):
        rng = random.Random(seed)
        a, m, mu, p = 0, 3, 2.5, 0
        t = a + m + rng.randint(1, 6)
        f = admissible(rng.getrandbits(63), a, m, max(t, a + m + 1), k0=p)
        c_vals = [Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(a + 1, t + 1)]
        d_vals = [Fraction(rng.randint(0, 8), rng.randint(1, 8)) for _ in range(a + m, t + 1)]
        return a, m, mu, p, t, f, c_vals, d_vals

    def test_opial_report_matches_raw_formulas(self):
        for seed in range(12):
            a, m, mu, p, t, f, c_vals, d_vals = self._instance(seed)
            params = OpialParams(
                mu=FIVE_HALVES,
                p=p,
                gamma=2,
                delta=2,
                inner_weights=GridFunction(a + 1, tuple(c_vals)),
                outer_weights=GridFunction(a + m, tuple(d_vals)),
            )
            report = opial_report(f, a, t, params)

            cap = {tau: raw_caputo(f, a + 1, mu, tau) for tau in range(a + 1, t + 1)}
            C = {tau: float(v) for tau, v in zip(range(a + 1, t + 1), c_vals)}
            D = {tp: float(v) for tp, v in zip(range(a + m, t + 1), d_vals)}

            def theta(tp):
                total = sum(
                    (raw_rising(tp - tau + 1, mu - p - 1.0) / C[tau]) ** 2
                    for tau in range(a + 1, tp + 1)
                )
                return total**0.5

            k_raw = (
                sum((D[tp] / C[tp] * theta(tp)) ** 2 for tp in range(a + m, t + 1)) ** 0.5
                / math.gamma(mu - p)
            )
            g_raw = {}
            acc = 0.0
            for tau in range(a + 1, t + 1):
                acc += (C[tau] * abs(cap[tau])) ** 2
                g_raw[tau] = acc
            big_g = (
                2.0 * (g_raw[t] ** 2 - g_raw[a + m - 1] ** 2)
                + (g_raw[t - 1] ** 2 - g_raw[a + m - 2] ** 2) / 2.0
                + 2.0 * (g_raw[t] * g_raw[t - 1] - g_raw[a + m - 1] * g_raw[a + m - 2])
            )
            lhs_raw = sum(
                D[tp]
                * abs(sum((-1) ** i * math.comb(p, i) * float(f.at(tp - i)) for i in range(p + 1)))
                * abs(cap[tp])
                for tp in range(a + m, t + 1)
            )
            assert report.components["k_factor"] == pytest.approx(k_raw, rel=1e-9, abs=1e-12)
            assert report.components["g_bound_paper"] == pytest.approx(big_g, rel=1e-9, abs=1e-9)
            assert float(report.lhs) == pytest.approx(lhs_raw, rel=1e-9, abs=1e-12)
            assert float(report.rhs) == pytest.approx(
                k_raw * max(big_g, 0.0) ** 0.5, rel=1e-9, abs=1e-12
            )
            thetas = [theta(tp) for tp in range(a + m, t + 1)]
            for got, want in zip(report.components["theta"], thetas):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_poincare_rhs_matches_raw_formula(self):
        for seed in range(12):
            rng = random.Random(100 + seed)
            m = rng.randint(1, 3)
            mu_num = rng.randint((m - 1) * 8 + 1, m * 8 - 1)
            mu = Fraction(mu_num, 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 6)
            f = admissible(rng.getrandbits(63), a, m, b, k0=p)
            report = poincare_report(f, a, b, mu, p)

            muf = float(mu)
            kernel = sum(
                sum(raw_rising(j - tau + 1, muf - p - 1.0) ** 2 for tau in range(a + 1, j + 1))
                for j in range(a + m, b + 1)
            )
            cap_norm = sum(
                raw_caputo(f, a + 1, muf, tau) ** 2 for tau in range(a + 1, b + 1)
            )
            rhs_raw = kernel * cap_norm / math.gamma(muf - p) ** 2
            assert float(report.rhs) == pytest.approx(rhs_raw, rel=1e-9, abs=1e-9)

    def test_sobolev_rhs_matches_raw_formula(self):
        for seed in range(8):
            rng = random.Random(200 + seed)
            m = rng.randint(1, 3)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 6)
            r = rng.choice((1, 2, 3))
            f = admissible(rng.getrandbits(63), a, m, b, k0=p)
            report = sobolev_report(f, a, b, mu, p, 2, 2, r)

            muf = float(mu)
            kernel = sum(
                sum(raw_rising(j - tau + 1, muf - p - 1.0) ** 2 for tau in range(a + 1, j + 1))
                ** (r / 2.0)
                for j in range(a + m, b + 1)
            )
            cap_norm = sum(
                raw_caputo(f, a + 1, muf, tau) ** 2 for tau in range(a + 1, b + 1)
            )
            rhs_raw = kernel ** (1.0 / r) * cap_norm**0.5 / math.gamma(muf - p)
            assert float(report.rhs) == pytest.approx(rhs_raw, rel=1e-9, abs=1e-9)

    def test_ostrowski_rhs_matches_raw_formula(self):
        for seed in range(12):
            rng = random.Random(300 + seed)
            m = rng.randint(1, 3)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 6)
            f = admissible(rng.getrandbits(63), a, m, b, k0=min(p + 1, m))
            report = ostrowski_report(f, a, b, mu, p)

            muf = float(mu)
            coeff = (raw_rising(b - a, muf - p + 1.0) - raw_rising(m, muf - p + 1.0)) / (
                math.gamma(muf - p + 2.0) * (b - a - m)
            )
            max_cap = max(
                abs(raw_caputo(f, a + 1, muf, tau)) for tau in range(a + 1, b + 1)
            )
            assert float(report.rhs) == pytest.approx(coeff * max_cap, rel=1e-9, abs=1e-12)

    def test_avg_sobolev_delta_star_matches_raw_formula(self):
        for seed in range(8):
            rng = random.Random(400 + seed)
            mu1 = Fraction(rng.randint(9, 15), 8)
            mu2 = Fraction(rng.randint(17, 23), 8)
            a = rng.randint(0, 2)
            b = a + 3 + 1 + rng.randint(0, 5)
            r = rng.choice((1, 2, 3))
            f = admissible(rng.getrandbits(63), a, 3, b, k0=0)
            weights = [unit_weights(a + 1, b), unit_weights(a + 1, b)]
            report = avg_sobolev_report(f, a, b, [mu1, mu2], weights, r)

            candidates = []
            for mu in (float(mu1), float(mu2)):
                m_l = math.ceil(mu)
                inner = sum(
                    sum(raw_rising(j - tau + 1, mu - 1.0) ** 2 for tau in range(a + 1, j + 1))
                    ** (r / 2.0)
                    for j in range(a + m_l, b + 1)
                )
                candidates.append(inner ** (2.0 / r) / math.gamma(mu) ** 2)
            assert report.components["delta_star"] == pytest.approx(
                max(candidates), rel=1e-9, abs=1e-9
            )


def float_weights(rng, lo, hi, zero_ok=False):
    vals = [Fraction(rng.randint(0 if zero_ok else 1, 8), rng.randint(1, 7)) for _ in range(lo, hi + 1)]
    return GridFunction(lo, tuple(vals)).as_float()


class TestFloatOrder:
    """Float reports equal plain ascending loops from ``0.0``, bit for bit:
    every sum in the evaluators adds left to right, on every Python version."""

    @pytest.mark.parametrize("gamma, delta", [(2, 2), (3, Fraction(3, 2)), (Fraction(3, 2), 3)])
    def test_opial(self, gamma, delta):
        rng = random.Random(11)
        for _ in range(8):
            mu = Fraction(rng.randint(17, 23), 8)
            p = rng.randint(0, 2)
            a, m = rng.randint(0, 2), 3
            t = a + m + rng.randint(0, 8)
            f = admissible(rng.getrandbits(63), a, m, t + 1, k0=p).as_float()
            C = float_weights(rng, a + 1, t)
            D = float_weights(rng, a + m, t, zero_ok=True)
            params = OpialParams(
                mu=mu, p=p, gamma=gamma, delta=delta, inner_weights=C, outer_weights=D
            )
            report = opial_report(f, a, t, params)

            ge, de = float(gamma), float(delta)
            cap = caputo_nabla_grid(f, a + 1, mu, hi=t)
            w = kernel_weights(mu - p, t - a, Backend.FLOAT)
            g, acc = [], 0.0
            for tau in range(a + 1, t + 1):
                acc += (C.at(tau) * abs(cap.at(tau))) ** de
                g.append(acc)
            theta_pow = []
            for tp in range(a + m, t + 1):
                s = 0.0
                for tau in range(a + 1, tp + 1):
                    s += (w[tp - tau] / C.at(tau)) ** ge
                theta_pow.append(s)
            k_pow = 0.0
            for tp, s in zip(range(a + m, t + 1), theta_pow):
                k_pow += (D.at(tp) / C.at(tp)) ** ge * s
            k_factor = naive_root(k_pow, ge)
            lhs = 0.0
            for tp in range(a + m, t + 1):
                lhs += D.at(tp) * abs(nabla(f, tp, p)) * abs(cap.at(tp))
            chosen = g_bound(GridFunction(a + 1, tuple(g)), a, m, t, "paper")

            norm = math.gamma(float(mu - p))
            assert report.components["g"] == g
            assert report.components["theta"] == [naive_root(s, ge) * norm for s in theta_pow]
            assert report.components["k_factor"] == k_factor
            assert report.lhs == lhs
            assert report.rhs == k_factor * naive_root(chosen, de)

    def test_sobolev_r3(self):
        rng = random.Random(13)
        for _ in range(8):
            m = rng.randint(1, 3)
            mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
            p = rng.randint(0, m - 1)
            a = rng.randint(0, 2)
            b = a + m + 1 + rng.randint(0, 8)
            f = admissible(rng.getrandbits(63), a, m, b, k0=p).as_float()
            report = sobolev_report(f, a, b, mu, p, 2, 2, 3)

            w = kernel_weights(mu - p, b - a, Backend.FLOAT)
            lhs_pow = 0.0
            kernel = 0.0
            for j in range(a + m, b + 1):
                lhs_pow += abs(nabla(f, j, p)) ** 3.0
                inner = 0.0
                for tau in range(a + 1, j + 1):
                    inner += w[j - tau] ** 2.0
                kernel += inner ** 1.5
            cap = caputo_nabla_grid(f, a + 1, mu, hi=b)
            cap_norm = 0.0
            for tau in range(a + 1, b + 1):
                cap_norm += abs(cap.at(tau)) ** 2.0

            assert report.components["kernel_factor"] == kernel
            assert report.components["caputo_norm"] == cap_norm
            assert report.lhs == naive_root(lhs_pow, 3.0)
            assert report.rhs == naive_root(kernel, 3.0) * naive_root(cap_norm, 2.0)

    @pytest.mark.parametrize("r", [2, 3])
    def test_avg_sobolev_three_orders(self, r):
        rng = random.Random(17)
        for _ in range(8):
            orders = [Fraction(rng.randint(1, 7), 8) + k for k in range(3)]
            a = rng.randint(0, 2)
            b = a + 3 + 1 + rng.randint(0, 8)
            f = admissible(rng.getrandbits(63), a, 3, b, k0=0).as_float()
            weights = [float_weights(rng, a + 1, b) for _ in orders]
            report = avg_sobolev_report(f, a, b, orders, weights, r)

            b_terms, candidates = [], []
            for mu, C in zip(orders, weights):
                cap = caputo_nabla_grid(f, a + 1, mu, hi=b)
                acc = 0.0
                for tau in range(a + 1, b + 1):
                    acc += C.at(tau) * cap.at(tau) * cap.at(tau)
                b_terms.append(acc)
                w = kernel_weights(mu, b - a, Backend.FLOAT)
                inner = 0.0
                for j in range(a + math.ceil(mu), b + 1):
                    s = 0.0
                    for tau in range(a + 1, j + 1):
                        s += w[j - tau] ** 2.0
                    inner += s ** (r / 2.0)
                candidates.append(inner ** (2.0 / r))
            rho_star = max(1.0 / C.at(tau) for C in weights for tau in range(a + 1, b + 1))
            total = 0.0
            for v in b_terms:
                total += v
            rhs_sq = max(candidates) * rho_star * (total / len(orders))

            assert report.components["b_terms"] == b_terms
            assert report.rhs == naive_root(rhs_sq, 2.0)


class TestKernelPowerSumOracle:
    """The exact kernel factor ``Σ_{j=a+m}^{b} Σ_{τ=a+1}^{j} w_{μ−p}(j−τ+1)²``,
    recovered from exact reports, against a naive double loop over
    product-form weights."""

    @staticmethod
    def instance(n, mu, p):
        a = 1
        m = math.ceil(mu)
        b = a + n
        f = admissible(mix_seed(n, 71), a, m, b, k0=p)
        w = [product_weight(mu - p, k) for k in range(1, n + 1)]
        kernel = Fraction(0)
        for j in range(a + m, b + 1):
            inner = Fraction(0)
            for tau in range(a + 1, j + 1):
                inner += w[j - tau] ** 2
            kernel += inner
        v = [product_weight(m - mu, k) for k in range(1, n + 1)]
        h = [nabla(f, s, m) for s in range(a + 1, b + 1)]
        caputo_norm = Fraction(0)
        for k in range(n):
            cap = Fraction(0)
            for i in range(k + 1):
                cap += v[k - i] * h[i]
            caputo_norm += cap**2
        assert caputo_norm != 0
        return f, a, b, kernel, caputo_norm

    @pytest.mark.parametrize(
        "n, mu, p", [(5, Fraction(5, 2), 1), (40, Fraction(17, 7), 0), (150, Fraction(13, 9), 1)]
    )
    def test_poincare_and_sobolev(self, n, mu, p):
        f, a, b, kernel, caputo_norm = self.instance(n, mu, p)
        poincare = poincare_report(f, a, b, mu, p)
        assert poincare.rhs / caputo_norm == kernel
        sobolev = sobolev_report(f, a, b, mu, p, 2, 2, 2)
        assert sobolev.components["rhs_squared"] / caputo_norm == kernel


def naive_power(x, e):
    """``x**e`` the way a report raises a rational: exact for an integral
    exponent, else ``float(x) ** float(e)``."""
    e = Fraction(e) if not isinstance(e, float) else e
    if isinstance(e, Fraction) and e.denominator == 1:
        return x ** int(e)
    return float(x) ** float(e)


def naive_root(x, e):
    if e == 1:
        return x
    v = float(x)
    return float("nan") if v < 0.0 else v ** (1.0 / float(e))


def naive_kernel_sum(order, a, m, b, gamma, outer):
    """``Σ_j (Σ_τ w(j−τ+1)^γ)^outer``; float inner sums add in descending n."""
    powers = [naive_power(product_weight(order, n), gamma) for n in range(1, b - a + 1)]
    inner = []
    for j in range(a + m, b + 1):
        terms = powers[: j - a]
        inner.append(lsum(terms) if isinstance(powers[0], Fraction) else lsum(terms[::-1]))
    return lsum(naive_power(x, outer) for x in inner)


def assert_same_report(report, lhs, rhs, components, squared=None):
    slack = rhs - lhs
    assert (report.lhs, report.rhs, report.slack) == (lhs, rhs, slack)
    assert type(report.lhs) is type(lhs) and type(report.rhs) is type(rhs)
    want = dict(components)
    if squared is not None and all(isinstance(v, Fraction) for v in squared):
        want.update(
            lhs_squared=squared[0], rhs_squared=squared[1], exact_holds=int(squared[0] <= squared[1])
        )
    elif isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        want["exact_holds"] = int(lhs <= rhs)
    got = {k: v for k, v in report.components.items() if k not in ("prefactor", "prefactor_expected")}
    assert got == want


class TestExactReportOracle:
    """Each exact report against naive per-term ``Fraction`` arithmetic from
    product-form weights: equal ``lhs``, ``rhs``, ``slack``, certificates and
    float components, bit for bit."""

    @staticmethod
    def weights(rng, lo, hi, zero_ok=False):
        vals = [Fraction(rng.randint(0 if zero_ok else 1, 8), rng.randint(1, 8)) for _ in range(lo, hi + 1)]
        return GridFunction(lo, tuple(vals))

    @staticmethod
    def opial_oracle(f, a, t, mu, p, gamma, delta, C, D, variant="paper"):
        m = math.ceil(mu)
        cap = naive_caputo(f, a + 1, mu, t)
        g, acc = {}, None
        for tau in range(a + 1, t + 1):
            term = naive_power(C.at(tau) * abs(cap[tau]), delta)
            acc = term if acc is None else acc + term
            g[tau] = acc
        theta_pow = [
            lsum(naive_power(product_weight(mu - p, tp - tau + 1) / C.at(tau), gamma) for tau in range(a + 1, tp + 1))
            for tp in range(a + m, t + 1)
        ]
        k_pow = lsum(
            (naive_power(D.at(tp) / C.at(tp), gamma) * s for tp, s in zip(range(a + m, t + 1), theta_pow)),
            Fraction(0),
        )
        lhs = lsum(
            (D.at(tp) * abs(naive_nabla(f, tp, p)) * abs(cap[tp]) for tp in range(a + m, t + 1)), Fraction(0)
        )
        gt, gt1, c1, c2 = g[t], g[t - 1], g[a + m - 1], g[a + m - 2]
        base = 2 * (gt * gt - c1 * c1) + (gt1 * gt1 - c2 * c2) / 2
        cross = 2 * (gt * gt1 - c1 * c2)
        paper, tight = base + cross, base - cross
        chosen = paper if variant == "paper" else tight
        k_factor = naive_root(k_pow, gamma)
        rhs = k_factor * naive_root(chosen, delta)
        norm = math.gamma(float(mu - p))
        components = {
            "theta": [float(naive_root(s, gamma)) * norm for s in theta_pow],
            "g": [float(v) for v in g.values()],
            "g_bound_paper": float(paper),
            "g_bound_tight": float(tight),
            "k_factor": float(k_factor),
            "max_caputo": max(float(abs(v)) for v in cap.values()),
        }
        squared = (lhs * lhs, k_pow * chosen) if gamma == delta == 2 else None
        return lhs, rhs, components, squared

    @pytest.mark.parametrize("gamma, delta", [(2, 2), (3, Fraction(3, 2)), (Fraction(3, 2), 3)])
    def test_opial(self, gamma, delta):
        rng = random.Random(23)
        for trial in range(12):
            p = trial % 3
            mu = Fraction(rng.randint(17, 23), 8)
            a, m = rng.randint(0, 2), 3
            t = a + m + rng.randint(0, 7)
            f = admissible(rng.getrandbits(63), a, m, t + 1, k0=p)
            C = self.weights(rng, a + 1, t)
            D = self.weights(rng, a + m, t, zero_ok=True)
            if trial % 4 == 0:
                D = GridFunction(a + m, tuple(Fraction(0) for _ in range(a + m, t + 1)))
            variant = ("paper", "tight")[trial % 2]
            params = OpialParams(mu=mu, p=p, gamma=gamma, delta=delta, inner_weights=C, outer_weights=D)
            report = opial_report(f, a, t, params, variant)
            assert_same_report(report, *self.opial_oracle(f, a, t, mu, p, gamma, delta, C, D, variant))

    def test_opial_25(self):
        rng = random.Random(29)
        for _ in range(8):
            t = 3 + rng.randint(0, 10)
            f = admissible(rng.getrandbits(63), 0, 3, t + 1, k0=0)
            report = opial_corollary_25(f, t)
            ones = unit_weights(1, t), unit_weights(3, t)
            assert_same_report(report, *self.opial_oracle(f, 0, t, FIVE_HALVES, 0, 2, 2, *ones))

    @pytest.mark.parametrize("t", [18, 19, 26, 41])
    def test_opial_25_long_theta_windows(self, t):
        # unit weights make (1/C)^γ small, so θ^γ reads 8 outputs per dot product,
        # over the window k = m−1 .., whose first block starts past the kernel head
        f = admissible(t, 0, 3, t + 1, k0=0)
        report = opial_corollary_25(f, t)
        ones = unit_weights(1, t), unit_weights(3, t)
        assert_same_report(report, *self.opial_oracle(f, 0, t, FIVE_HALVES, 0, 2, 2, *ones))

    @staticmethod
    def norm_oracle(f, a, b, mu, p, gamma, delta, r):
        m = math.ceil(mu)
        poincare = r is None
        r = delta if poincare else r
        lhs_pow = lsum(naive_power(abs(naive_nabla(f, j, p)), r) for j in range(a + m, b + 1))
        kernel = naive_kernel_sum(mu - p, a, m, b, gamma, Fraction(r) / gamma if not isinstance(r, float) else r / gamma)
        cap = naive_caputo(f, a + 1, mu, b)
        cap_norm = lsum(naive_power(abs(v), delta) for v in cap.values())
        components = {
            "kernel_factor": float(kernel),
            "caputo_norm": float(cap_norm),
            "max_caputo": max(float(abs(v)) for v in cap.values()),
        }
        if poincare:
            return lhs_pow, kernel * cap_norm, components, None
        squared = (lhs_pow, kernel * cap_norm) if gamma == delta == r == 2 else None
        return naive_root(lhs_pow, r), naive_root(kernel, r) * naive_root(cap_norm, delta), components, squared

    @staticmethod
    def shifted_instance(rng, k0_of):
        m = rng.randint(1, 3)
        mu = Fraction(rng.randint((m - 1) * 8 + 1, m * 8 - 1), 8)
        p = rng.randint(0, m - 1)
        a = rng.randint(0, 2)
        b = a + m + 1 + rng.randint(0, 7)
        return admissible(rng.getrandbits(63), a, m, b, k0=k0_of(p, m)), a, b, mu, p

    @pytest.mark.parametrize("gamma, delta", [(2, 2), (3, Fraction(3, 2))])
    def test_poincare(self, gamma, delta):
        rng = random.Random(31)
        for _ in range(10):
            f, a, b, mu, p = self.shifted_instance(rng, lambda p, m: p)
            report = poincare_report(f, a, b, mu, p, gamma, delta)
            assert_same_report(report, *self.norm_oracle(f, a, b, mu, p, gamma, delta, None))

    @pytest.mark.parametrize("r", [1, 2, 3, 2.5])
    def test_sobolev(self, r):
        rng = random.Random(37)
        for _ in range(10):
            f, a, b, mu, p = self.shifted_instance(rng, lambda p, m: p)
            report = sobolev_report(f, a, b, mu, p, 2, 2, r)
            assert_same_report(report, *self.norm_oracle(f, a, b, mu, p, Fraction(2), Fraction(2), r))

    def test_ostrowski(self):
        rng = random.Random(41)
        for _ in range(10):
            f, a, b, mu, p = self.shifted_instance(rng, lambda p, m: min(p + 1, m))
            m = math.ceil(mu)
            report = ostrowski_report(f, a, b, mu, p)
            count = b - a - m
            average = lsum((naive_nabla(f, j, p) for j in range(a + m + 1, b + 1)), Fraction(0)) / count
            base_value = naive_nabla(f, a, p)
            max_cap = max(abs(v) for v in naive_caputo(f, a + 1, mu, b).values())
            coefficient = lsum(product_weight(mu - p + 1, n) for n in range(m + 1, b - a + 1)) / count
            components = {
                "average": float(average),
                "base_value": float(base_value),
                "coefficient": float(coefficient),
                "max_caputo": float(max_cap),
            }
            assert_same_report(report, abs(average - base_value), coefficient * max_cap, components)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_avg_sobolev(self, r):
        rng = random.Random(43)
        for _ in range(8):
            orders = [Fraction(rng.randint(9, 15), 8), Fraction(rng.randint(17, 23), 8)]
            a = rng.randint(0, 2)
            b = a + 3 + 1 + rng.randint(0, 7)
            f = admissible(rng.getrandbits(63), a, 3, b, k0=0)
            weights = [self.weights(rng, a + 1, b) for _ in orders]
            report = avg_sobolev_report(f, a, b, orders, weights, r)

            two = Fraction(2)
            b_terms = []
            for mu, C in zip(orders, weights):
                cap = naive_caputo(f, a + 1, mu, b)
                b_terms.append(lsum((C.at(tau) * cap[tau] * cap[tau] for tau in range(a + 1, b + 1)), Fraction(0)))
            stars = [
                naive_kernel_sum(mu, a, math.ceil(mu), b, two, Fraction(r) / two) ** (two / r) for mu in orders
            ]
            delta_star = max(stars, key=float)
            rho_star = max(1 / C.at(tau) for C in weights for tau in range(a + 1, b + 1))
            lhs_pow = lsum(naive_power(abs(f.at(tau)), r) for tau in range(a + 3, b + 1))
            rhs_sq = delta_star * rho_star * (lsum(b_terms) / len(orders))
            components = {
                "b_terms": [float(v) for v in b_terms],
                "delta_star": float(delta_star),
                "rho_star": float(rho_star),
            }
            squared = (lhs_pow, rhs_sq) if r == 2 else None
            lhs, rhs = naive_root(lhs_pow, r), naive_root(rhs_sq, two)
            assert_same_report(report, lhs, rhs, components, squared)
