"""The integer-argument and grid-point rule: every base, point, end, ceiling,
shift, length, count and seed is an ``int`` that is not a ``bool``, and anything
else raises a typed ``NablaFracError``."""

import inspect
import io
import math
from fractions import Fraction

import pytest

import nablafrac
import nablafrac.gridio
from nablafrac import (
    Backend,
    FractionalOrder,
    FunctionSpec,
    GridDomain,
    GridFunction,
    KernelRow,
    NablaFracError,
    OpialParams,
    OrderError,
    ParameterError,
    ParseError,
    SuiteResult,
    TaylorSeed,
    TolerancePolicy,
    as_order,
    avg_sobolev_report,
    caputo_nabla,
    caputo_nabla_grid,
    delta,
    delta_frac_sum,
    eval_from_taylor_data,
    frac_sum,
    frac_sum_grid,
    g_bound,
    gamma_ratio_mod1,
    gen_function,
    kernel_sum_closed_form,
    kernel_weights,
    mix_seed,
    nabla,
    normalized_rising,
    opial_corollary_25,
    opial_report,
    ostrowski_report,
    poincare_report,
    remainder_bound,
    replay_identity_trial,
    replay_inequality_trial,
    run_identity_suite,
    run_inequality_suite,
    sobolev_report,
    sum_rising_closed_form,
    taylor_extended,
    taylor_extended_series,
    taylor_fractional,
    taylor_fractional_series,
    taylor_integer,
    taylor_seed_of,
)
from nablafrac.gridio import parse_scalar, read_grid, read_grid_csv, read_grid_json

F = GridFunction(-3, tuple(t**3 for t in range(-3, 9)))
G = GridFunction(0, (0, 1, 3, 6, 10, 15))
SEED = TaylorSeed(a=0, m=2, initial=(1, 0), h=(1, 2, 3))
MU = Fraction(5, 2)


def spec(**changes):
    fields = dict(a=0, m=3, b=8, zero_initials_from=0, value_range=5, seed=1)
    fields.update(changes)
    return FunctionSpec(**fields)


CALLS = {
    "frac_sum base": lambda: frac_sum(F, 0.5, MU, 3),
    "frac_sum point": lambda: frac_sum(F, 0, MU, True),
    "frac_sum_grid end": lambda: frac_sum_grid(F, 0, MU, 4.0),
    "caputo_nabla base": lambda: caputo_nabla(F, 0.5, MU, 5),
    "caputo_nabla point": lambda: caputo_nabla(F, 0, MU, 5.0),
    "nabla point": lambda: nabla(F, 1.5),
    "nabla order": lambda: nabla(F, 3, True),
    "delta point": lambda: delta(F, 1.0),
    "at": lambda: F.at(1.0),
    "at bool": lambda: F.at(True),
    "call": lambda: F(2.0),
    "taylor_fractional base": lambda: taylor_fractional(F, True, MU, 4),
    "taylor_fractional point": lambda: taylor_fractional(F, 0, MU, 4.0),
    "taylor_integer base": lambda: taylor_integer(F, 0.5, 2, 3),
    "taylor_integer m": lambda: taylor_integer(F, 0, True, 3),
    "taylor_extended shift": lambda: taylor_extended(F, 0, MU, True, 4),
    "remainder_bound base": lambda: remainder_bound(F, 0.5, MU, 0, 4),
    "remainder_bound shift": lambda: remainder_bound(F, 0, MU, 1.0, 4),
    "poincare_report base": lambda: poincare_report(F, False, 6, MU, 0),
    "ostrowski_report base": lambda: ostrowski_report(F, 0.5, 6, MU, 0),
    "g_bound point": lambda: g_bound(G, 0, 2, 5.0),
    "opial_corollary_25 point": lambda: opial_corollary_25(F, 4.0),
    "kernel_weights length": lambda: kernel_weights(MU, True),
    "delta_frac_sum shift": lambda: delta_frac_sum(F, 0, MU, True),
    "normalized_rising n": lambda: normalized_rising(True, MU),
    "kernel_sum_closed_form base": lambda: kernel_sum_closed_form(True, MU, 4),
    "kernel_sum_closed_form point": lambda: kernel_sum_closed_form(0, MU, 4.0),
    "sum_rising_closed_form base": lambda: sum_rising_closed_form(0.5, 2, 6, MU),
    "sum_rising_closed_form m": lambda: sum_rising_closed_form(0, True, 5, MU),
    "sum_rising_closed_form end": lambda: sum_rising_closed_form(0, 2, 6.0, MU),
    "GridDomain lo": lambda: GridDomain(True, 3),
    "GridDomain hi": lambda: GridDomain(0, 3.0),
    "GridFunction lo": lambda: GridFunction(True, (1, 2)),
    "TaylorSeed a": lambda: TaylorSeed(a=0.5, m=2, initial=(0, 0), h=(1, 1)),
    "TaylorSeed m": lambda: TaylorSeed(a=0, m=True, initial=(0,), h=(1, 1)),
    "taylor_seed_of base": lambda: taylor_seed_of(F, True, 2),
    "taylor_seed_of end": lambda: taylor_seed_of(F, 2, 2, 5.0),
    "eval_from_taylor_data point": lambda: eval_from_taylor_data(SEED, 2.0),
    "mix_seed seed": lambda: mix_seed(1.5, 0),
    "mix_seed index": lambda: mix_seed(0, True),
    "run_identity_suite trials": lambda: run_identity_suite("taylor", 2.0, 1),
    "run_identity_suite seed": lambda: run_identity_suite("taylor", 2, 1.5),
    "run_inequality_suite trials": lambda: run_inequality_suite("ostrowski", True, 1),
    "replay_identity_trial seed": lambda: replay_identity_trial("duality", True),
    "replay_inequality_trial seed": lambda: replay_inequality_trial("ostrowski", 1.5),
    "FunctionSpec a": lambda: gen_function(spec(a=0.0)),
    "FunctionSpec m": lambda: gen_function(spec(m=3.0)),
    "FunctionSpec b": lambda: gen_function(spec(b=5.5)),
    "FunctionSpec zero_initials_from": lambda: gen_function(spec(zero_initials_from=True)),
    "FunctionSpec value_range": lambda: gen_function(spec(value_range=5.0)),
    "FunctionSpec seed": lambda: gen_function(spec(seed=1.0)),
}


@pytest.mark.parametrize("name", CALLS)
def test_floats_and_booleans_are_typed_errors(name):
    # GridFunction.constant(1.5, …) is the one exception: it builds range(lo, hi + 1)
    # first and raises range's TypeError, as the constructor's callers do
    # (tests/test_grid.py::TestGridFunction::test_constant_matches_the_constructor)
    with pytest.raises(NablaFracError):
        CALLS[name]()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: kernel_weights(MU, -1), ParameterError, "length must be a non-negative integer, got -1"),
        (lambda: kernel_weights(MU, True), ParameterError, "length must be a non-negative integer, got True"),
        (lambda: delta_frac_sum(F, 0, MU, -1), ParameterError, "shift j must be a non-negative integer, got -1"),
        (lambda: taylor_integer(F, 0, 0, 3), ParameterError, "m must be a positive integer, got 0"),
        (lambda: taylor_extended(F, 0, MU, -1, 4), ParameterError, "shift p must be a non-negative integer, got -1"),
        (lambda: nabla(F, 3, -1), OrderError, "difference order must be a non-negative integer, got -1"),
        (lambda: nabla(F, 3, True), OrderError, "difference order must be a non-negative integer, got True"),
        (lambda: normalized_rising(1.0, MU), ParameterError, "n must be an integer, got 1.0"),
        (lambda: GridFunction(1.0, (1,)), ParameterError, "lo must be an integer, got 1.0"),
        (lambda: GridDomain(0, True), ParameterError, "hi must be an integer, got True"),
        (lambda: F.at(1.0), ParameterError, "index must be an integer, got 1.0"),
        (lambda: nabla(F, 1.5), ParameterError, "t must be an integer, got 1.5"),
        (lambda: delta(F, 1.0), ParameterError, "t must be an integer, got 1.0"),
        (lambda: g_bound(G, 0, 2.5, 5), ParameterError, "m must be an integer, got 2.5"),
        (lambda: g_bound(G, 0, 2, 5.0), ParameterError, "t must be an integer, got 5.0"),
        (lambda: g_bound(G, 0.0, 2, 5), ParameterError, "a must be an integer, got 0.0"),
        (lambda: frac_sum(F, 1.5, MU, 3), ParameterError, "a must be an integer, got 1.5"),
        (lambda: caputo_nabla(F, 2.5, MU, 5), ParameterError, "a must be an integer, got 2.5"),
        (lambda: taylor_fractional(F, -0.5, MU, 4), ParameterError, "a must be an integer, got -0.5"),
        (lambda: taylor_extended(F, True, MU, 1, 4), ParameterError, "a must be an integer, got True"),
        (lambda: remainder_bound(F, 0.25, MU, 0, 4), ParameterError, "a must be an integer, got 0.25"),
        (lambda: poincare_report(F, 0.75, 6, MU, 0), ParameterError, "a must be an integer, got 0.75"),
        (lambda: ostrowski_report(F, False, 6, MU, 0), ParameterError, "a must be an integer, got False"),
        (lambda: taylor_integer(F, 1.25, 2, 4), ParameterError, "a must be an integer, got 1.25"),
        (lambda: taylor_seed_of(F, 2.0, 2), ParameterError, "a must be an integer, got 2.0"),
        (lambda: kernel_sum_closed_form(3.5, MU, 4), ParameterError, "a must be an integer, got 3.5"),
        (lambda: kernel_sum_closed_form(0, MU, 4.0), ParameterError, "t must be an integer, got 4.0"),
        (lambda: sum_rising_closed_form(-1.5, 2, 6, MU), ParameterError, "a must be an integer, got -1.5"),
        (lambda: sum_rising_closed_form(0, 2, 6.0, MU), ParameterError, "b must be an integer, got 6.0"),
        (
            lambda: replay_inequality_trial("ostrowski", 1.5),
            ParameterError,
            "trial_seed must be a non-negative integer, got 1.5",
        ),
        (
            lambda: replay_identity_trial("duality", True),
            ParameterError,
            "trial_seed must be a non-negative integer, got True",
        ),
        (lambda: mix_seed(-1, 0), ParameterError, "master_seed must be a non-negative integer, got -1"),
        (lambda: run_identity_suite("taylor", 0, 1), ParameterError, "trials must be a positive integer, got 0"),
        (lambda: spec(m=0), ParameterError, "m must be a positive integer, got 0"),
        (lambda: spec(value_range=-1), ParameterError, "value_range must be a non-negative integer, got -1"),
        (lambda: eval_from_taylor_data(SEED, 2.0), ParameterError, "t must be an integer, got 2.0"),
        (lambda: TaylorSeed(a=0.5, m=2, initial=(0, 0), h=(1, 1)), ParameterError, "a must be an integer, got 0.5"),
        (lambda: taylor_seed_of(F, 0, 1.5), ParameterError, "m must be a positive integer, got 1.5"),
        (lambda: taylor_seed_of(F, 0, 0), ParameterError, "m must be a positive integer, got 0"),
        (lambda: taylor_seed_of(F, 2, 2, 1.5), ParameterError, "b must be an integer, got 1.5"),
        (lambda: taylor_seed_of(F, 2, 2, 5.0), ParameterError, "b must be an integer, got 5.0"),
        (lambda: KernelRow.build(1.5, "1/2", 3), ParameterError, "base must be an integer, got 1.5"),
        (lambda: KernelRow.build(True, "1/2", 3), ParameterError, "base must be an integer, got True"),
        # a shift p=None is not the plain expansion
        (lambda: taylor_extended(F, 0, MU, None, 4), ParameterError, "shift p must be a non-negative integer, got None"),
        (
            lambda: taylor_extended_series(F, 0, MU, None),
            ParameterError,
            "shift p must be a non-negative integer, got None",
        ),
        (lambda: remainder_bound(F, 0, MU, None, 4), ParameterError, "shift p must be a non-negative integer, got None"),
        (lambda: taylor_extended(F, -1, MU, None, 4), ParameterError, "base must be non-negative, got a=-1"),
        # an end point (t, b, hi, t_max) is checked by the integer rule after the order, base and shift
        (lambda: taylor_fractional(F, 0, MU, None), ParameterError, "t must be an integer, got None"),
        (lambda: taylor_extended(F, 0, MU, 1, None), ParameterError, "t must be an integer, got None"),
        (lambda: remainder_bound(F, 0, MU, 1, None), ParameterError, "t must be an integer, got None"),
        (lambda: taylor_integer(F, 0, 2, 4.0), ParameterError, "t must be an integer, got 4.0"),
        (lambda: taylor_fractional_series(F, 0, MU, 6.0), ParameterError, "t_max must be an integer, got 6.0"),
        (lambda: taylor_extended_series(F, 0, MU, 0, "x"), ParameterError, "t_max must be an integer, got 'x'"),
        (lambda: frac_sum(F, 0, "1/2", "x"), ParameterError, "t must be an integer, got 'x'"),
        (lambda: frac_sum(F, 0, "1/2", 1.5), ParameterError, "t must be an integer, got 1.5"),
        (lambda: frac_sum_grid(F, 0, MU, 4.0), ParameterError, "hi must be an integer, got 4.0"),
        (lambda: caputo_nabla(F, 0, MU, 5.0), ParameterError, "t must be an integer, got 5.0"),
        (lambda: caputo_nabla_grid(F, 0, MU, "x"), ParameterError, "hi must be an integer, got 'x'"),
        (lambda: poincare_report(F, 0, "x", "5/2", 1), ParameterError, "b must be an integer, got 'x'"),
        (lambda: sobolev_report(F, 0, None, MU, 0), ParameterError, "b must be an integer, got None"),
        (lambda: ostrowski_report(F, 0, 1.5, "5/2", 1), ParameterError, "b must be an integer, got 1.5"),
        (lambda: avg_sobolev_report(F, 0, 5.0, [MU], [ONES]), ParameterError, "b must be an integer, got 5.0"),
        (lambda: opial_report(F, 0, 4.5, OPIAL), ParameterError, "t must be an integer, got 4.5"),
        (lambda: opial_corollary_25(F, 4.0), ParameterError, "t must be an integer, got 4.0"),
        # the tolerance bounds are real numbers, not booleans
        (lambda: TolerancePolicy(rel_eps=True), ParameterError, "rel_eps must be a real number, got True"),
        (lambda: TolerancePolicy(abs_eps=False), ParameterError, "abs_eps must be a real number, got False"),
        (lambda: TolerancePolicy(rel_eps="1e-9"), ParameterError, "rel_eps must be a real number, got '1e-9'"),
        (lambda: TolerancePolicy(rel_eps=None), ParameterError, "rel_eps must be a real number, got None"),
        # and finite and strictly positive, named with their value
        (lambda: TolerancePolicy(rel_eps=math.inf), ParameterError, "rel_eps must be finite and strictly positive, got inf"),
        (lambda: TolerancePolicy(abs_eps=math.nan), ParameterError, "abs_eps must be finite and strictly positive, got nan"),
        (lambda: TolerancePolicy(rel_eps=0.0), ParameterError, "rel_eps must be finite and strictly positive, got 0.0"),
        (lambda: TolerancePolicy(abs_eps=-1), ParameterError, "abs_eps must be finite and strictly positive, got -1"),
        # as doubles: beyond their range, or so small that it rounds to 0.0
        (lambda: TolerancePolicy(rel_eps=10**400), ParameterError, f"rel_eps must be finite and strictly positive, got {10**400}"),
        (lambda: TolerancePolicy(abs_eps=Fraction(1, 10**400)), ParameterError,
         f"abs_eps must be finite and strictly positive, got {Fraction(1, 10**400)!r}"),
    ],
)
def test_one_message_form(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_out_of_domain_points_still_name_the_index():
    for call in (lambda: F.at(9), lambda: F.at(-4), lambda: frac_sum(F, 0, MU, 10)):
        with pytest.raises(NablaFracError, match=r"^index (9|-4|10) outside grid domain \[-3, 8\]$"):
            call()


@pytest.mark.parametrize(
    "values, message",
    [
        ((1, True), "booleans are not scalars"),
        ((1, "2"), "unsupported scalar type str"),
        ((None,), "unsupported scalar type NoneType"),
        ((1, 2.0, True), "grid values must not mix exact and float backends"),
    ],
)
def test_grid_values_use_the_scalar_classifier(values, message):
    with pytest.raises(ParameterError) as info:
        GridFunction(0, values)
    assert str(info.value) == message


ORDER_CALLS = {
    "frac_sum": lambda nu: frac_sum(F, 0, nu, 3),
    "frac_sum_grid": lambda nu: frac_sum_grid(F, 0, nu, 4),
    "delta_frac_sum": lambda nu: delta_frac_sum(F, 0, nu, 2),
    "kernel_weights": lambda nu: kernel_weights(nu, 4),
}


@pytest.mark.parametrize("name", ORDER_CALLS)
@pytest.mark.parametrize(
    "order, error, message",
    [
        (0, OrderError, "order must be positive, got 0"),
        (Fraction(-1, 2), OrderError, "order must be positive, got -1/2"),
        (True, OrderError, "orders must be rational, got True"),
        (2.5, OrderError, "orders must be rational, got 2.5"),
        ("x", ParseError, "malformed order 'x'; expected INT or INT/POSINT"),
    ],
)
def test_order_arguments_keep_their_errors(name, order, error, message):
    # a positive int or Fraction order skips FractionalOrder; every other order
    # still goes through as_order and raises what it raises
    with pytest.raises(error) as info:
        ORDER_CALLS[name](order)
    assert type(info.value) is error and str(info.value) == message


def test_a_bad_order_is_reported_before_a_bad_base_or_shift():
    with pytest.raises(OrderError):
        frac_sum(F, 1.5, 0, 3)
    with pytest.raises(OrderError):
        frac_sum_grid(F, 1.5, Fraction(-1, 2), 4)
    with pytest.raises(OrderError):
        delta_frac_sum(F, 0, 2.5, -1)
    with pytest.raises(OrderError):
        kernel_weights(True, -1)
    with pytest.raises(OrderError):
        taylor_extended(F, -1, 2.5, None, 4)


ONES = GridFunction.constant(1, 8, 1)
OPIAL = OpialParams(mu=MU, p=0, gamma=2, delta=2, inner_weights=ONES, outer_weights=ONES)


class Opaque:
    """Neither a number nor a string, with a repr that keeps the test ids fixed."""

    def __repr__(self):
        return "Opaque()"


# Every entry that takes an order, called with the order ``nu``; the order is
# checked before any other argument.
EVERY_ORDER_CALL = {
    **ORDER_CALLS,
    "FractionalOrder": FractionalOrder,
    "as_order": as_order,
    "KernelRow.build": lambda nu: KernelRow.build(0, nu, 3),
    "kernel_sum_closed_form": lambda nu: kernel_sum_closed_form(0, nu, 4),
    "sum_rising_closed_form": lambda nu: sum_rising_closed_form(0, 2, 6, nu),
    "caputo_nabla": lambda nu: caputo_nabla(F, 0, nu, 5),
    "caputo_nabla_grid": lambda nu: caputo_nabla_grid(F, 0, nu, 5),
    "taylor_fractional": lambda nu: taylor_fractional(F, 0, nu, 4),
    "taylor_fractional_series": lambda nu: taylor_fractional_series(F, 0, nu, 6),
    "taylor_extended": lambda nu: taylor_extended(F, 0, nu, 0, 4),
    "taylor_extended_series": lambda nu: taylor_extended_series(F, 0, nu, 0, 6),
    "remainder_bound": lambda nu: remainder_bound(F, 0, nu, 0, 4),
    "ostrowski_report": lambda nu: ostrowski_report(F, 0, 6, nu, 0),
    "poincare_report": lambda nu: poincare_report(F, 0, 6, nu, 0),
    "sobolev_report": lambda nu: sobolev_report(F, 0, 6, nu, 0),
    "avg_sobolev_report": lambda nu: avg_sobolev_report(F, 0, 6, [nu], [ONES]),
    "OpialParams": lambda nu: OpialParams(mu=nu, p=0, gamma=2, delta=2, inner_weights=ONES, outer_weights=ONES),
}


@pytest.mark.parametrize("name", EVERY_ORDER_CALL)
@pytest.mark.parametrize(
    "order, error, message",
    [
        (0, OrderError, "order must be positive, got 0"),
        (Fraction(-1, 2), OrderError, "order must be positive, got -1/2"),
        ("-5/2", OrderError, "order must be positive, got -5/2"),
        (True, OrderError, "orders must be rational, got True"),
        (2.5, OrderError, "orders must be rational, got 2.5"),
        (None, OrderError, "orders must be rational, got None"),
        ([1], OrderError, "orders must be rational, got [1]"),
        (Opaque(), OrderError, "orders must be rational, got Opaque()"),
        ("1.5", ParseError, "malformed order '1.5'; expected INT or INT/POSINT"),
        ("x", ParseError, "malformed order 'x'; expected INT or INT/POSINT"),
    ],
)
def test_one_order_rule(name, order, error, message):
    # fracops._order reads every order argument: one text parser, so "1.5" is a
    # ParseError everywhere, FractionalOrder(...) included
    with pytest.raises(error) as info:
        EVERY_ORDER_CALL[name](order)
    assert type(info.value) is error and str(info.value) == message


def test_order_text_is_read_by_one_parser():
    errors = []
    for call in (FractionalOrder, as_order, FractionalOrder.parse):
        with pytest.raises(ParseError) as info:
            call("1.5")
        errors.append(str(info.value))
    assert errors == ["malformed order '1.5'; expected INT or INT/POSINT"] * 3
    assert FractionalOrder("5/2") == FractionalOrder(Fraction(5, 2)) == as_order(" 5 / 2 ")


def test_an_order_of_an_order_is_the_order():
    mu = FractionalOrder(Fraction(7, 3))
    assert FractionalOrder(mu) == mu and FractionalOrder(mu).value == Fraction(7, 3)
    assert as_order(mu) is mu
    assert kernel_weights(mu, 5) == kernel_weights(Fraction(7, 3), 5)
    assert OpialParams(mu=mu, p=0, gamma=2, delta=2, inner_weights=ONES, outer_weights=ONES).mu == mu


@pytest.mark.parametrize(
    "name, order",
    [
        ("caputo_nabla", 2),
        ("caputo_nabla", "3"),
        ("taylor_fractional", Fraction(2)),
        ("taylor_extended", FractionalOrder(3)),
        ("ostrowski_report", "2"),
        ("avg_sobolev_report", 1),
        ("OpialParams", 3),
    ],
)
def test_an_integer_order_is_refused_in_context(name, order):
    with pytest.raises(OrderError, match=r" requires a non-integer order, got \d$"):
        EVERY_ORDER_CALL[name](order)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: normalized_rising(2, True), "order must not be a boolean, got True"),
        (lambda: normalized_rising(2, False), "order must not be a boolean, got False"),
        (lambda: normalized_rising(2, True, backend=Backend.FLOAT), "order must not be a boolean, got True"),
        (lambda: normalized_rising(2, MU, True), "normaliser must not be a boolean, got True"),
        (lambda: normalized_rising(2, 0.5, True, Backend.FLOAT), "normaliser must not be a boolean, got True"),
        (lambda: gamma_ratio_mod1(True, 1), "gamma argument must not be a boolean, got True"),
        (lambda: gamma_ratio_mod1(Fraction(1, 2), False), "gamma argument must not be a boolean, got False"),
        # nor is a string or None, on either backend
        (lambda: normalized_rising(2, "1/2"), "order must be a number, got '1/2'"),
        (lambda: normalized_rising(2, "1/2", backend=Backend.FLOAT), "order must be a number, got '1/2'"),
        (lambda: normalized_rising(2, None), "order must be a number, got None"),
        (lambda: normalized_rising(2, None, backend=Backend.FLOAT), "order must be a number, got None"),
        (lambda: normalized_rising(2, MU, "5/2"), "normaliser must be a number, got '5/2'"),
        (lambda: normalized_rising(2, 0.5, "1/2", Backend.FLOAT), "normaliser must be a number, got '1/2'"),
        (lambda: gamma_ratio_mod1("1/2", "3/2"), "gamma argument must be a number, got '1/2'"),
        (lambda: gamma_ratio_mod1(Fraction(1, 2), None), "gamma argument must be a number, got None"),
    ],
)
def test_booleans_are_not_gamma_arguments(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert type(info.value) is ParameterError and str(info.value) == message


def _backend_calls(tmp_path):
    """One call per public entry with a ``backend`` parameter, valid but for the backend."""
    path = tmp_path / "grid.csv"
    path.write_text("t,value\n0,1/3\n1,2\n", encoding="utf-8")
    return {
        "GridFunction.from_callable": lambda b: GridFunction.from_callable(0, 3, Fraction, b),
        "KernelRow.build": lambda b: KernelRow.build(0, MU, 3, b),
        "SuiteResult": lambda b: SuiteResult("duality", 1, 0, 0.0, (), b, 42),
        "kernel_sum_closed_form": lambda b: kernel_sum_closed_form(0, MU, 4, b),
        "kernel_weights": lambda b: kernel_weights(MU, 4, b),
        "normalized_rising": lambda b: normalized_rising(3, MU, backend=b),
        "parse_scalar": lambda b: parse_scalar("1/3", b),
        "read_grid": lambda b: read_grid(str(path), backend=b),
        "read_grid_csv": lambda b: read_grid_csv(io.StringIO("t,value\n0,1/3\n1,2\n"), b),
        "read_grid_json": lambda b: read_grid_json(io.StringIO('{"lo": 0, "values": ["1/3", 2]}'), b),
        "replay_identity_trial": lambda b: replay_identity_trial("duality", 1, b),
        "replay_inequality_trial": lambda b: replay_inequality_trial("ostrowski", 1, b),
        "run_identity_suite": lambda b: run_identity_suite("duality", 1, 42, b),
        "run_inequality_suite": lambda b: run_inequality_suite("ostrowski", 1, 42, b),
        "sum_rising_closed_form": lambda b: sum_rising_closed_form(0, 2, 6, MU, b),
    }


def _public_backend_callables():
    """Every public callable of ``nablafrac`` and ``nablafrac.gridio``, methods of
    public classes included, whose signature has a ``backend`` parameter."""
    found = set()
    for module in (nablafrac, nablafrac.gridio):
        for name in dir(module):
            value = getattr(module, name)
            if name.startswith("_") or not callable(value):
                continue
            members = [(name, value)]
            if inspect.isclass(value):
                members += [(f"{name}.{attr}", getattr(value, attr)) for attr in dir(value) if not attr.startswith("_")]
            for qualname, member in members:
                try:
                    if callable(member) and "backend" in inspect.signature(member).parameters:
                        found.add(qualname)
                except (TypeError, ValueError):  # no signature (a builtin or an enum member)
                    continue
    return found


@pytest.mark.parametrize("value", ["exact", "float", None])
def test_one_backend_rule(value, tmp_path):
    # scalars._backend reads every backend argument: a string or None is refused,
    # never read as one backend or the other
    calls = _backend_calls(tmp_path)
    assert set(calls) == _public_backend_callables()
    for name, call in calls.items():
        with pytest.raises(ParameterError) as info:
            call(value)
        assert str(info.value) == f"backend must be Backend.EXACT or Backend.FLOAT, got {value!r}", name
        for backend in Backend:
            call(backend)
