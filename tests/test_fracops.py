"""Fractional sum, delta-form dual, and Caputo-like difference tests."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import float_difference, naive_grid, naive_nabla, naive_sum, product_row, product_weight

from nablafrac import (
    Backend,
    DomainError,
    EmptyRangeError,
    FractionalOrder,
    GridFunction,
    KernelRow,
    OrderError,
    TolerancePolicy,
    as_order,
    caputo_nabla,
    caputo_nabla_grid,
    delta_frac_sum,
    eval_from_taylor_data,
    frac_sum,
    frac_sum_grid,
    kernel_cache_info,
    kernel_weights,
    nabla,
    scalar_close,
    taylor_extended,
    taylor_extended_series,
    taylor_fractional,
    taylor_fractional_series,
    taylor_integer,
    taylor_seed_of,
)

HALF = Fraction(1, 2)
FIVE_HALVES = Fraction(5, 2)


def cube_grid(lo, hi):
    return GridFunction(lo, tuple(t**3 for t in range(lo, hi + 1)))


class TestFractionalOrder:
    def test_ceiling_and_kind(self):
        mu = FractionalOrder(FIVE_HALVES)
        assert mu.m == 3
        assert not mu.is_integer
        assert FractionalOrder(Fraction(3)).m == 3
        assert FractionalOrder(Fraction(3)).is_integer

    def test_parse(self):
        assert FractionalOrder.parse("5/2").value == FIVE_HALVES
        assert as_order("7/3").m == 3
        assert as_order(2).value == 2

    def test_rejects_non_positive(self):
        with pytest.raises(OrderError):
            FractionalOrder(Fraction(0))
        with pytest.raises(OrderError, match=r"^orders must be rational, got 0\.5$"):
            FractionalOrder(0.5)
        with pytest.raises(OrderError):
            FractionalOrder(Fraction(-1, 2))

    def test_non_integer_guard(self):
        with pytest.raises(OrderError):
            FractionalOrder(Fraction(2)).require_non_integer("test")


class TestKernelWeights:
    def test_first_weight_is_one(self):
        for nu in (HALF, FIVE_HALVES, Fraction(7, 3)):
            assert kernel_weights(nu, 1)[0] == 1

    def test_recurrence_exact(self):
        nu = Fraction(7, 5)
        w = kernel_weights(nu, 50)
        for n in range(1, 50):
            assert w[n] == w[n - 1] * (nu + n - 1) / n

    def test_order_one_is_cumulative_sum_kernel(self):
        assert kernel_weights(Fraction(1), 30) == tuple(Fraction(1) for _ in range(30))

    def test_memoised_rows_extend(self):
        short = kernel_weights(Fraction(9, 7), 5)
        long = kernel_weights(Fraction(9, 7), 12)
        assert long[:5] == short

    def test_float_rows_track_exact(self):
        policy = TolerancePolicy()
        exact = kernel_weights(FIVE_HALVES, 40)
        approx = kernel_weights(FIVE_HALVES, 40, Backend.FLOAT)
        assert all(scalar_close(a, e, policy) for a, e in zip(approx, exact))

    def test_kernel_row_dataclass(self):
        row = KernelRow.build(0, "1/2", 3)
        assert row.weights == (1, HALF, Fraction(3, 8))
        assert row.order.value == HALF


class TestFracSum:
    def test_constant_function_half_order(self):
        f = GridFunction(0, (1, 1, 1))
        assert frac_sum(f, 0, HALF, 2) == Fraction(15, 8)

    def test_order_one_is_cumulative_sum(self):
        f = GridFunction(0, (1, 2, 3))
        assert frac_sum(f, 0, 1, 2) == 6

    def test_single_point(self):
        f = GridFunction(0, (7, 9))
        assert frac_sum(f, 0, HALF, 0) == 7

    def test_empty_range_rejected(self):
        f = GridFunction(0, (1, 2))
        with pytest.raises(EmptyRangeError):
            frac_sum(f, 1, HALF, 0)

    def test_domain_violation(self):
        f = GridFunction(0, (1, 2))
        with pytest.raises(DomainError):
            frac_sum(f, -1, HALF, 1)

    def test_grid_variant_matches_pointwise(self):
        rng = random.Random(3)
        f = GridFunction(-2, tuple(rng.randint(-9, 9) for _ in range(20)))
        summed = frac_sum_grid(f, -2, Fraction(7, 3))
        for t in range(-2, f.hi + 1):
            assert summed.at(t) == frac_sum(f, -2, Fraction(7, 3), t)


class TestDeltaFracSum:
    def test_matches_dual_form(self):
        f = GridFunction(0, (1, 1, 1))
        assert delta_frac_sum(f, 0, HALF, 2) == Fraction(15, 8)

    def test_zero_shift_returns_base_value(self):
        f = GridFunction(0, (4, 5))
        assert delta_frac_sum(f, 0, HALF, 0) == 4

    def test_integer_order_plain_sum(self):
        f = GridFunction(0, (1, 2, 3))
        assert delta_frac_sum(f, 0, 1, 2) == 6

    def test_duality_random(self):
        rng = random.Random(5)
        for _ in range(25):
            lo = rng.randint(-5, 5)
            f = GridFunction(lo, tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 25))))
            nu = Fraction(rng.randint(1, 24), 8)
            for j in range(len(f.values)):
                assert delta_frac_sum(f, lo, nu, j) == frac_sum(f, lo, nu, lo + j)


class TestCaputoNabla:
    def test_constant_vanishes(self):
        f = GridFunction(-4, tuple(5 for _ in range(12)))
        assert caputo_nabla(f, 0, FIVE_HALVES, 4) == 0

    def test_cube_anchor(self):
        f = cube_grid(-2, 6)
        got = caputo_nabla(f, 1, FIVE_HALVES, 3)
        # third difference of t^3 is constant 6; weights 1, 1/2, 3/8
        weights = kernel_weights(HALF, 3)
        assert got == 6 * sum(weights) == Fraction(45, 4)

    def test_cube_at_earlier_point(self):
        f = cube_grid(-2, 6)
        assert caputo_nabla(f, 1, FIVE_HALVES, 2) == 9

    def test_integer_order_rejected(self):
        f = cube_grid(-2, 6)
        with pytest.raises(OrderError):
            caputo_nabla(f, 1, Fraction(3), 3)

    def test_low_degree_polynomial_vanishes(self):
        f = GridFunction(-3, tuple(2 * t * t - t + 1 for t in range(-3, 10)))
        for t in range(0, 10):
            assert caputo_nabla(f, 0, FIVE_HALVES, t) == 0

    def test_grid_variant_matches_pointwise(self):
        f = cube_grid(-2, 6)
        cap = caputo_nabla_grid(f, 1, FIVE_HALVES)
        for t in range(1, 7):
            assert cap.at(t) == caputo_nabla(f, 1, FIVE_HALVES, t)

    def test_needs_left_margin(self):
        f = cube_grid(0, 6)
        with pytest.raises(DomainError):
            caputo_nabla(f, 1, FIVE_HALVES, 3)


def test_pointwise_and_grid_forms_share_the_range_check():
    f = cube_grid(-2, 6)
    for pointwise, grid, order in ((frac_sum, frac_sum_grid, HALF), (caputo_nabla, caputo_nabla_grid, FIVE_HALVES)):
        with pytest.raises(EmptyRangeError) as point_error:
            pointwise(f, 2, order, 1)
        with pytest.raises(EmptyRangeError) as grid_error:
            grid(f, 2, order, 1)
        assert str(point_error.value) == str(grid_error.value)


class TestCompositionLaws:
    def test_law_of_exponents_small(self):
        rng = random.Random(9)
        for _ in range(20):
            a = rng.randint(-4, 4)
            f = GridFunction(a, tuple(rng.randint(-9, 9) for _ in range(rng.randint(3, 18))))
            mu = Fraction(rng.randint(1, 24), 8)
            nu = Fraction(rng.randint(1, 24), 8)
            inner = frac_sum_grid(f, a, mu)
            combined = frac_sum_grid(f, a, mu + nu)
            for t in range(a, f.hi + 1):
                assert frac_sum(inner, a, nu, t) == combined.at(t)

    def test_nabla_of_fractional_sum(self):
        rng = random.Random(13)
        for _ in range(20):
            a = rng.randint(-4, 4)
            f = GridFunction(a, tuple(rng.randint(-9, 9) for _ in range(rng.randint(4, 18))))
            nu = Fraction(rng.randint(9, 24), 8)  # > 1
            p = 1
            summed = frac_sum_grid(f, a, nu)
            for t in range(a + p, f.hi + 1):
                assert nabla(summed, t, p) == frac_sum(f, a, nu - p, t)

    def test_delta_of_delta_fractional_sum(self):
        # forward difference of the shifted-form sum, taken in shift space:
        # sum_i (-1)^(p-i) C(p,i) D_nu(j+i) = D_(nu-p)(j+p); reduces to the
        # backward statement through the shift duality
        rng = random.Random(15)
        for _ in range(20):
            a = rng.randint(-4, 4)
            length = rng.randint(6, 20)
            f = GridFunction(a, tuple(rng.randint(-9, 9) for _ in range(length)))
            nu = Fraction(rng.randint(9, 24), 8)  # > 1
            p = rng.randint(1, min(2, math.ceil(nu) - 1)) if nu > 1 else 1
            for j in range(length - p):
                lhs = sum(
                    (-1) ** (p - i) * math.comb(p, i) * delta_frac_sum(f, a, nu, j + i)
                    for i in range(p + 1)
                )
                assert lhs == delta_frac_sum(f, a, nu - p, j + p)

    def test_float_backend_agrees(self):
        policy = TolerancePolicy(rel_eps=1e-12, abs_eps=1e-12)
        f = cube_grid(-2, 6)
        ff = f.as_float()
        got = caputo_nabla(ff, 1, FIVE_HALVES, 3)
        assert scalar_close(got, Fraction(45, 4), policy)


# ---------------------------------------------------------------------------
# characterisation: every convolution against a naive reference sum


def ascending_float_sum(nu, values, k, acc=0.0):
    """The same sum on floats, accumulated in ascending ``i`` from ``acc``."""
    w = kernel_weights(nu, k + 1, Backend.FLOAT)
    for i in range(k + 1):
        acc += w[k - i] * values[i]
    return acc


def poly_reference(initials, p, n, backend):
    """``Σ_{k=p}^{m−1} C(n+k−p−1, k−p)·∇^k f(a)``; on floats accumulated in ascending k."""
    if backend is Backend.EXACT:
        terms = (math.comb(n + k - p - 1, k - p) * initials[k] for k in range(p, len(initials)))
        return sum(terms, Fraction(0))
    acc = 0.0
    for k in range(p, len(initials)):
        acc += kernel_weights(k - p + 1, n, Backend.FLOAT)[n - 1] * initials[k]
    return acc


orders = st.builds(Fraction, st.integers(1, 40), st.integers(1, 8))


@st.composite
def fractional_orders(draw, max_ceiling=5):
    q = draw(st.integers(2, 8))
    p = draw(st.integers(1, max_ceiling * q).filter(lambda p: p % q != 0))
    return Fraction(p, q)


grid_values = st.lists(st.integers(-9, 9), min_size=1, max_size=30)


class TestNaiveReference:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(-5, 5), grid_values, orders)
    def test_sums(self, a, values, nu):
        f = GridFunction(a, tuple(values))
        ff = f.as_float()
        grid = frac_sum_grid(f, a, nu)
        fgrid = frac_sum_grid(ff, a, nu)
        for k in range(len(values)):
            want = naive_sum(nu, f.values, k)
            assert frac_sum(f, a, nu, a + k) == want
            assert grid.at(a + k) == want
            assert delta_frac_sum(f, a, nu, k) == want
            fwant = ascending_float_sum(nu, ff.values, k)
            assert frac_sum(ff, a, nu, a + k) == fwant
            assert fgrid.at(a + k) == fwant
            assert delta_frac_sum(ff, a, nu, k) == fwant

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-5, 5), fractional_orders(), st.data())
    def test_caputo(self, a, mu, data):
        m = math.ceil(mu)
        values = data.draw(st.lists(st.integers(-9, 9), min_size=m + 1, max_size=30))
        f = GridFunction(a - m, tuple(values))
        ff = f.as_float()
        h = [nabla(f, s, m) for s in range(a, f.hi + 1)]
        fh = [nabla(ff, s, m) for s in range(a, f.hi + 1)]
        grid = caputo_nabla_grid(f, a, mu)
        fgrid = caputo_nabla_grid(ff, a, mu)
        for k in range(len(h)):
            want = naive_sum(m - mu, h, k)
            assert caputo_nabla(f, a, mu, a + k) == want
            assert grid.at(a + k) == want
            fwant = ascending_float_sum(m - mu, fh, k)
            assert caputo_nabla(ff, a, mu, a + k) == fwant
            assert fgrid.at(a + k) == fwant

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-5, 5), fractional_orders(), st.data())
    def test_taylor(self, a, mu, data):
        m = math.ceil(mu)
        p = data.draw(st.integers(0, m - 1))
        values = data.draw(st.lists(st.integers(-9, 9), min_size=2 * m, max_size=30))
        f = GridFunction(a - m + 1, tuple(values))
        for backend, g in ((Backend.EXACT, f), (Backend.FLOAT, f.as_float())):
            initials = [nabla(g, a, k) for k in range(m)]
            h = [nabla(g, s, m) for s in range(a + 1, g.hi + 1)]
            seed = taylor_seed_of(g, a, m)
            series = taylor_fractional_series(g, a, mu)
            shifted_series = taylor_extended_series(g, a, mu, p) if a >= 0 else {}
            for t in range(a + m, g.hi + 1):
                n = t - a
                cap = caputo_nabla_grid(g, a + 1, mu, hi=t).values
                poly = poly_reference(initials, 0, n, backend)
                if backend is Backend.EXACT:
                    rem_mu = naive_sum(mu, cap, n - 1)
                    rem_int = naive_sum(Fraction(m), h, n - 1)
                    direct = poly + rem_int
                else:
                    rem_mu = ascending_float_sum(mu, cap, n - 1)
                    rem_int = ascending_float_sum(Fraction(m), h, n - 1)
                    direct = ascending_float_sum(Fraction(m), h, n - 1, poly)
                plain = taylor_fractional(g, a, mu, t)
                assert (plain.poly_part, plain.remainder) == (poly, rem_mu)
                assert plain.total == poly + rem_mu
                assert series[t] == plain
                integer = taylor_integer(g, a, m, t)
                assert (integer.poly_part, integer.remainder) == (poly, rem_int)
                assert integer.total == poly + rem_int
                assert eval_from_taylor_data(seed, t) == direct
                if a >= 0:
                    shifted = taylor_extended(g, a, mu, p, t)
                    reference = naive_sum if backend is Backend.EXACT else ascending_float_sum
                    assert shifted.poly_part == poly_reference(initials, p, n, backend)
                    assert shifted.remainder == reference(mu - p, cap, n - 1)
                    assert shifted.total == nabla(g, t, p)
                    assert shifted_series[t] == shifted


# ---------------------------------------------------------------------------
# the float oracle on long integer grids: the length is drawn first

long_grids = st.integers(1, 80).flatmap(
    lambda n: st.lists(st.integers(-9, 9), min_size=n, max_size=n)
)
# the m values left of the base that the m-th differences reach back to (m <= 5)
int_heads = st.lists(st.integers(-9, 9), min_size=5, max_size=5)


class TestFloatLongGrids:
    """Float grid sums and Caputo differences on up to 80 points against an
    ascending loop over the float kernel row, with :func:`nabla` per point as
    the Caputo source."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 5), long_grids, orders)
    def test_sums(self, a, values, nu):
        ff = GridFunction(a, tuple(map(float, values)))
        want = tuple(ascending_float_sum(nu, ff.values, k) for k in range(len(values)))
        assert frac_sum_grid(ff, a, nu).values == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-5, 5), fractional_orders(), int_heads, long_grids)
    def test_caputo(self, a, mu, head, values):
        m = math.ceil(mu)
        ff = GridFunction(a - m, tuple(map(float, head[:m] + values)))
        h = [nabla(ff, s, m) for s in range(a, ff.hi + 1)]
        want = tuple(ascending_float_sum(m - mu, h, k) for k in range(len(h)))
        assert caputo_nabla_grid(ff, a, mu).values == want


# Signed zeros, the smallest subnormal, values near overflow and infinities of
# both signs, so sums start from a zero, overflow and meet inf − inf.
EDGE_GRIDS = (
    (-0.0, -0.0, -0.0, -0.0, -0.0),
    (5e-324, -0.0, 5e-324, 1e308, 1e308, -1e308, 5e-324, -0.0),
    (1.0, math.inf, -0.0, -math.inf, 2.0, 5e-324, 1e308),
    (-math.inf, 1e308, 1e308, -0.0, math.inf, -0.0, 5e-324),
    (-0.0, 5e-324, -5e-324, -0.0, 1e308, -math.inf, -0.0, -0.0),
)


class TestFloatEdgeValues:
    """Float grid sums and Caputo differences on fixed grids of edge values against
    the ascending loop, by ``repr`` of every output: ``==`` does not see the sign of
    a zero or where a NaN falls."""

    @pytest.mark.parametrize("values", EDGE_GRIDS)
    @pytest.mark.parametrize("nu", [Fraction(1, 2), Fraction(7, 5), Fraction(2), Fraction(5, 2)])
    def test_sums(self, values, nu):
        want = [ascending_float_sum(nu, values, k) for k in range(len(values))]
        got = frac_sum_grid(GridFunction(-1, values), -1, nu).values
        assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("values", EDGE_GRIDS)
    @pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(7, 5), Fraction(5, 2)])
    def test_caputo(self, values, mu):
        m = math.ceil(mu)
        h = [float_difference(values, i, m) for i in range(m, len(values))]
        want = [ascending_float_sum(m - mu, h, k) for k in range(len(h))]
        got = caputo_nabla_grid(GridFunction(-1, values), m - 1, mu).values
        assert list(map(repr, got)) == list(map(repr, want))


# ---------------------------------------------------------------------------
# the same oracle on rational grid values with mixed denominators

mixed_values = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# the length is drawn first: plain list strategies rarely grow past a dozen entries
mixed_grids = st.integers(1, 80).flatmap(
    lambda n: st.one_of(st.lists(mixed_values, min_size=n, max_size=n), st.just([Fraction(0)] * n))
)
# the m values left of the base that the m-th differences reach back to (m <= 5)
mixed_heads = st.one_of(
    st.lists(mixed_values, min_size=5, max_size=5),
    st.just([Fraction(0)] * 5),
)
scaled_orders = st.builds(Fraction, st.integers(1, 45), st.integers(1, 9))


@st.composite
def scaled_fractional_orders(draw):
    q = draw(st.integers(2, 9))
    p = draw(st.integers(1, 5 * q).filter(lambda p: p % q != 0))
    return Fraction(p, q)


class TestNaiveReferenceRationalValues:
    """Exact sums over non-integer values, whose denominators differ from
    point to point, against naive product-form sums."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-5, 5), mixed_grids, scaled_orders)
    @example(0, [Fraction(-7, 12)], Fraction(1, 9))
    @example(2, [Fraction(0)] * 20, Fraction(7, 3))
    def test_sums(self, a, values, nu):
        f = GridFunction(a, tuple(values))
        grid = frac_sum_grid(f, a, nu)
        assert len(grid.values) == len(values)
        for k in range(len(values)):
            want = naive_sum(nu, f.values, k)
            assert frac_sum(f, a, nu, a + k) == want
            assert grid.at(a + k) == want
            assert delta_frac_sum(f, a, nu, k) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-5, 5), scaled_fractional_orders(), mixed_heads, mixed_grids)
    @example(0, Fraction(1, 2), [Fraction(3, 4)] * 5, [Fraction(-5, 7)])
    @example(-3, Fraction(22, 9), [Fraction(0)] * 5, [Fraction(0)] * 30)
    def test_caputo(self, a, mu, head, values):
        m = math.ceil(mu)
        f = GridFunction(a - m, tuple(head[:m] + values))
        h = [nabla(f, s, m) for s in range(a, f.hi + 1)]
        grid = caputo_nabla_grid(f, a, mu)
        assert len(grid.values) == len(h) == len(values)
        for k in range(len(h)):
            want = naive_sum(m - mu, h, k)
            assert caputo_nabla(f, a, mu, a + k) == want
            assert grid.at(a + k) == want


class TestKernelCache:
    def test_sweep_stays_at_the_cap_and_evicted_rows_rebuild_identically(self):
        cap = kernel_cache_info().maxsize
        assert 100 <= cap <= 1000
        nu = Fraction(7, 3)
        f = GridFunction(0, tuple(Fraction((-1) ** k * k, k % 5 + 1) for k in range(40)))
        rows = {b: kernel_weights(nu, 40, b) for b in Backend}
        sums = {b: frac_sum_grid(f if b is Backend.EXACT else f.as_float(), 0, nu) for b in Backend}
        for k in range(2000):
            kernel_weights(Fraction(2 * k + 1, 4002), 4)
            assert kernel_cache_info().currsize <= cap
        assert kernel_cache_info().currsize == cap
        misses = kernel_cache_info().misses
        for b in Backend:
            again = kernel_weights(nu, 40, b)
            assert again == rows[b] and list(map(type, again)) == list(map(type, rows[b]))
            if b is Backend.FLOAT:
                assert [x.hex() for x in again] == [x.hex() for x in rows[b]]
            g = f if b is Backend.EXACT else f.as_float()
            assert frac_sum_grid(g, 0, nu).values == sums[b].values
        assert kernel_cache_info().misses == misses + 2


# ---------------------------------------------------------------------------
# exact whole-grid sums at the sizes where the integer convolution changes
# method: many outputs over small values are read 8 to a dot product (16 or
# more outputs, value numerators of at most 32 bits), the rest one at a time

PACKED_BITS = 32  # the widest value numerator that is still read 8 to a dot product
BOUNDARY_LENGTHS = (7, 8, 9, 15, 16, 17, 23, 24, 25, 400)


def boundary_grids(n, dense=True):
    """Integer grids of length ``n``: all-extreme negative values at the packed bit
    limit, all zeros, one nonzero value at the first and at the last point, and
    unless ``dense`` is false random values at the limit and one bit over it and
    all-extreme negative values one bit over it."""
    rng = random.Random(n)
    top, over = 2**PACKED_BITS - 1, 2**PACKED_BITS
    yield [-top] * n
    yield [0] * n
    yield [-top] + [0] * (n - 1)
    yield [0] * (n - 1) + [-top]
    if dense:
        yield [rng.randint(-top, top) for _ in range(n - 1)] + [top]
        yield [rng.randint(-top, top) for _ in range(n - 1)] + [-over]
        yield [-over] * n


class TestPackedBoundaries:
    ORDERS = (Fraction(1, 3), Fraction(15, 7))

    @pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
    def test_sums(self, n):
        # a dense 400-point naive sum takes half a second: one order, one dense grid
        for nu in self.ORDERS if n < 400 else self.ORDERS[:1]:
            for values in boundary_grids(n, dense=n < 400):
                f = GridFunction(-3, tuple(values))
                assert frac_sum_grid(f, -3, nu).values == naive_grid(nu, values)

    @pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
    def test_caputo(self, n):
        # f is the running sum of h, so ∇f = h on [a, a+n−1]: h sits at the bit limits
        for mu in self.ORDERS if n < 400 else self.ORDERS[:1]:
            mu = mu - math.floor(mu)  # m = 1
            for h in boundary_grids(n, dense=n < 400):
                f = GridFunction(4, (0,) + tuple(accumulate(h)))
                assert caputo_nabla_grid(f, 5, mu).values == naive_grid(1 - mu, h)

    def test_sign_bit_of_a_field(self):
        # a near-flat kernel on all-extreme negative values fills each field up to its
        # sign bit: a field one bit narrower reads one of these 31 sums wrong
        values = [-(2**PACKED_BITS - 1)] * 31
        f = GridFunction(0, tuple(values))
        assert frac_sum_grid(f, 0, Fraction(3, 2)).values == naive_grid(Fraction(3, 2), values)

    def test_window_past_the_start(self):
        # a series from t = a+m convolves the outputs k = m−1, …, so its first
        # block starts inside the kernel; a polynomial of degree < m has zero
        # Caputo numerators, which are small enough to be read 8 at a time
        for m, n in ((2, 19), (3, 27), (3, 42)):
            mu = Fraction(7 * m - 3, 7)
            for degree in (m - 1, m):
                f = GridFunction(-m, tuple(Fraction(t**degree - 3 * t) for t in range(-m, n)))
                h = [nabla(f, s, m) for s in range(1, n)]
                cap = naive_grid(m - mu, h)
                for p in (None, 1):
                    series = taylor_fractional_series(f, 0, mu) if p is None else taylor_extended_series(f, 0, mu, p)
                    rem = naive_grid(mu - (p or 0), cap)
                    assert sorted(series) == list(range(m, n))
                    for t, e in series.items():
                        assert e.remainder == rem[t - 1]
                        assert e.total == (f.at(t) if p is None else nabla(f, t, p))


class TestKernelRowGrowth:
    """Exact kernel rows grow in integers and become ``Fraction``s on request;
    every request must read the product form, however the row grew."""

    @staticmethod
    def orders():
        for q in range(1, 9):
            for p in sorted({1, q + 1, 3 * q, 5 * q - 1}):
                yield Fraction(p, q)

    def test_rows_match_the_product_form(self):
        rows = {nu: product_row(nu, 300) for nu in self.orders()}
        assert any(nu.denominator == 1 for nu in rows) and any(nu.denominator == 8 for nu in rows)
        for nu, want in rows.items():
            for n in (10, 300, 40):
                got = kernel_weights(nu, n)
                assert got == tuple(want[:n])
                assert all(type(x) is Fraction for x in got)
        for k in range(kernel_cache_info().maxsize + 10):
            kernel_weights(Fraction(2 * k + 1, 4002), 2)
        for nu, want in rows.items():
            assert kernel_weights(nu, 300) == tuple(want)

    @staticmethod
    def smooth_factorial(k, q):
        """The part of ``k!`` made of the primes of ``q``, by Legendre's formula."""
        part = 1
        for r in range(2, q + 1):
            if q % r == 0 and all(r % d for d in range(2, r)):
                power = r
                while power <= k:
                    part *= r ** (k // power)
                    power *= r
        return part

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 150), st.integers(1, 200))
    @example(q=12, p=1, n=200)
    @example(q=8, p=17, n=129)
    def test_denominators_have_their_closed_form(self, q, p, n):
        # w(n) = ∏_{j<n}(p+q(j−1)) / (q^{n−1}(n−1)!): no numerator factor shares a
        # prime with q, and the n−1 factors carry every other prime of (n−1)!
        nu = Fraction(p, q)
        q = nu.denominator
        row = kernel_weights(nu, n)
        assert [w.denominator for w in row] == [q**k * self.smooth_factorial(k, q) for k in range(n)]

    def test_sums_after_staged_growth(self):
        nu = Fraction(101, 37)
        rng = random.Random(37)
        values = [rng.randint(-9, 9) for _ in range(300)]
        f = GridFunction(0, tuple(values))
        frac_sum_grid(f, 0, nu, 19)  # the integer row grows, no Fractions yet
        assert kernel_weights(nu, 50) == tuple(product_row(nu, 50))
        frac_sum_grid(f, 0, nu, 119)  # past the Fractions built so far
        assert kernel_weights(nu, 120) == tuple(product_row(nu, 120))
        assert frac_sum_grid(f, 0, nu).values == naive_grid(nu, values)
        assert kernel_weights(nu, 300) == tuple(product_row(nu, 300))


# each row order at its longest row in TestPackedBoundaries, TestKernelRowGrowth and, in
# test_taylor.py, TestLongExactRemainderOracle and TestRemainderSharpness
ORACLE_ROWS = [
    *((Fraction(p, q), 300) for q in range(1, 9) for p in (1, q + 1, 3 * q, 5 * q - 1)),
    *((Fraction(p, q), 120) for q in range(2, 9) for p in range(1, 3 * q)),
    *((Fraction(p, q), q + 1) for q in (53, 61) for p in (1, q - 1, 2 * q - 1)),
    *((Fraction(p, q), 200) for p, q in ((1, 2), (1, 3), (3, 4), (3, 5))),
    *((Fraction(p, 7), 41) for p in (3, 4, 6, 11, 15, 18)),
    (Fraction(3, 2), 31), (Fraction(101, 37), 300), (Fraction(1, 3), 400), (Fraction(2, 3), 400),
]


def test_the_running_product_row_is_the_per_n_product_form():
    # a shorter row of the running product is a prefix of the longer one
    for nu, n in ORACLE_ROWS:
        assert product_row(nu, n) == [product_weight(nu, k) for k in range(1, n + 1)], (nu, n)


class TestScaledGridMemo:
    """An exact grid is scaled once, on its first read, over the whole grid's
    denominator.  Every window must read the same values whatever was read
    before it, and the kept scaled form must stay invisible to ``==``, ``hash``,
    ``repr`` and the dataclass fields."""

    # integer values first and new denominators later, so an early window's lcm
    # (1, then 7, …) is far below the whole grid's
    VALUES = (3, -2, 5, 0, 1, Fraction(1, 7), -4, Fraction(-3, 11), Fraction(5, 13), 2,
              Fraction(2, 9), Fraction(-7, 17), 6, Fraction(1, 19), Fraction(-9, 23), 1)
    A = -2
    ORDERS = (Fraction(1, 3), Fraction(7, 5), Fraction(5, 2), 3)
    CAPUTO_ORDERS = (Fraction(1, 3), Fraction(7, 5), Fraction(5, 2))

    def grid(self):
        return GridFunction(self.A, self.VALUES)

    def test_pointwise_sums_match_the_product_form_in_ascending_reads(self):
        values = [Fraction(v) for v in self.VALUES]
        for nu in self.ORDERS:
            f = self.grid()  # fresh: the first read is the one-point window at a
            for k in range(len(values)):
                want = naive_sum(Fraction(nu), values, k)
                assert frac_sum(f, self.A, nu, self.A + k) == want
                assert delta_frac_sum(f, self.A, nu, k) == want
            want = tuple(naive_sum(Fraction(nu), values, k) for k in range(len(values)))
            assert frac_sum_grid(f, self.A, nu).values == want

    def test_pointwise_caputo_matches_the_product_form_in_ascending_reads(self):
        for mu in self.CAPUTO_ORDERS:
            m = math.ceil(mu)
            a = self.A + m
            h = [naive_nabla(self.grid(), s, m) for s in range(a, self.A + len(self.VALUES))]
            f = self.grid()
            for k in range(len(h)):
                want = naive_sum(m - mu, h, k)
                assert caputo_nabla(f, a, mu, a + k) == want
            assert caputo_nabla_grid(f, a, mu).values == tuple(naive_sum(m - mu, h, k) for k in range(len(h)))

    def test_a_window_reads_the_same_before_and_after_other_reads(self):
        nu, mu, t = Fraction(7, 5), Fraction(5, 2), self.A + 3
        f = self.grid()
        first = (frac_sum(f, self.A, nu, t), nabla(f, t, 2), caputo_nabla(f, self.A + 3, mu, t + 2))
        frac_sum_grid(f, self.A, nu)
        caputo_nabla_grid(f, self.A + 3, mu)
        for s in range(f.lo + 3, f.hi + 1):
            nabla(f, s, 3)
        taylor_fractional_series(f, self.A + 3, mu)
        again = (frac_sum(f, self.A, nu, t), nabla(f, t, 2), caputo_nabla(f, self.A + 3, mu, t + 2))
        alone = (
            frac_sum(self.grid(), self.A, nu, t),
            nabla(self.grid(), t, 2),
            caputo_nabla(self.grid(), self.A + 3, mu, t + 2),
        )
        assert first == again == alone
        assert all(type(x) is Fraction for x in first + again)

    def test_the_kept_form_is_invisible_to_equality_hash_repr_and_fields(self):
        read, unread = self.grid(), self.grid()
        frac_sum(read, self.A, Fraction(7, 5), read.hi)
        nabla(read, read.hi, 4)
        assert read == unread and not read != unread
        assert hash(read) == hash(unread)
        assert repr(read) == repr(unread)
        assert dataclasses.fields(read) == dataclasses.fields(unread)
        assert [field.name for field in dataclasses.fields(read)] == ["lo", "values"]
        assert dataclasses.asdict(read) == dataclasses.asdict(unread) == {"lo": self.A, "values": self.VALUES}
        assert dataclasses.replace(read) == unread
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.lo = 0
