"""The integer-argument and grid-point rule: every base, point, end, ceiling,
shift, length, count and seed is an ``int`` that is not a ``bool``, and anything
else raises a typed ``NablaFracError``."""

from fractions import Fraction

import pytest

from nablafrac import (
    FunctionSpec,
    GridDomain,
    GridFunction,
    NablaFracError,
    OrderError,
    ParameterError,
    TaylorSeed,
    caputo_nabla,
    delta,
    delta_frac_sum,
    eval_from_taylor_data,
    frac_sum,
    frac_sum_grid,
    g_bound,
    gen_function,
    kernel_weights,
    mix_seed,
    nabla,
    normalized_rising,
    opial_corollary_25,
    remainder_bound,
    replay_identity_trial,
    replay_inequality_trial,
    run_identity_suite,
    run_inequality_suite,
    sum_rising_closed_form,
    taylor_extended,
    taylor_fractional,
    taylor_integer,
    taylor_seed_of,
)

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
    "caputo_nabla point": lambda: caputo_nabla(F, 0, MU, 5.0),
    "nabla point": lambda: nabla(F, 1.5),
    "nabla order": lambda: nabla(F, 3, True),
    "delta point": lambda: delta(F, 1.0),
    "at": lambda: F.at(1.0),
    "at bool": lambda: F.at(True),
    "call": lambda: F(2.0),
    "taylor_fractional point": lambda: taylor_fractional(F, 0, MU, 4.0),
    "taylor_integer m": lambda: taylor_integer(F, 0, True, 3),
    "taylor_extended shift": lambda: taylor_extended(F, 0, MU, True, 4),
    "remainder_bound shift": lambda: remainder_bound(F, 0, MU, 1.0, 4),
    "g_bound point": lambda: g_bound(G, 0, 2, 5.0),
    "opial_corollary_25 point": lambda: opial_corollary_25(F, 4.0),
    "kernel_weights length": lambda: kernel_weights(MU, True),
    "delta_frac_sum shift": lambda: delta_frac_sum(F, 0, MU, True),
    "normalized_rising n": lambda: normalized_rising(True, MU),
    "sum_rising_closed_form m": lambda: sum_rising_closed_form(0, True, 5, MU),
    "GridDomain lo": lambda: GridDomain(True, 3),
    "GridDomain hi": lambda: GridDomain(0, 3.0),
    "GridFunction lo": lambda: GridFunction(True, (1, 2)),
    "TaylorSeed a": lambda: TaylorSeed(a=0.5, m=2, initial=(0, 0), h=(1, 1)),
    "TaylorSeed m": lambda: TaylorSeed(a=0, m=True, initial=(0,), h=(1, 1)),
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
