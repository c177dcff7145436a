"""Harness tests: deterministic generation, seed mixing, suite runners."""

import math
import random
from fractions import Fraction

import pytest

from nablafrac import (
    Backend,
    FunctionSpec,
    GridFunction,
    IDENTITY_SUITE_NAMES,
    INEQUALITY_SUITE_NAMES,
    OrderError,
    ParameterError,
    UsageError,
    WindowError,
    gen_function,
    mix_seed,
    nabla,
    replay_identity_trial,
    replay_inequality_trial,
    run_identity_suite,
    run_inequality_suite,
    taylor_integer,
)


class TestMixSeed:
    def test_frozen_values(self):
        # reference values pin the mixing function; changing it silently would
        # break reproducibility of every recorded failing seed
        assert mix_seed(42, 0) == 13679457532755275413
        assert mix_seed(42, 1) == 2949826092126892291
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(2**64 - 1, 999) == 9420747912965734335

    def test_distinct_across_indices(self):
        seeds = {mix_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            mix_seed(-1, 0)


class TestGenFunction:
    def test_deterministic(self):
        spec = FunctionSpec(a=0, m=3, b=10, zero_initials_from=1, value_range=9, seed=12345)
        assert gen_function(spec).values == gen_function(spec).values

    def test_zero_initials_from_zero_gives_zero_tail(self):
        spec = FunctionSpec(a=2, m=3, b=9, zero_initials_from=0, value_range=9, seed=7)
        f = gen_function(spec)
        assert f.at(2) == f.at(1) == f.at(0) == 0

    def test_initial_differences_respected(self):
        spec = FunctionSpec(a=1, m=4, b=9, zero_initials_from=2, value_range=9, seed=99)
        f = gen_function(spec)
        for k in range(2, 4):
            assert nabla(f, 1, k) == 0

    def test_zero_range_with_all_zero_initials_gives_zero(self):
        spec = FunctionSpec(a=0, m=2, b=8, zero_initials_from=0, value_range=0, seed=5)
        f = gen_function(spec)
        assert all(v == 0 for v in f.values)

    def test_domain_shape(self):
        spec = FunctionSpec(a=-1, m=3, b=6, zero_initials_from=3, value_range=5, seed=1)
        f = gen_function(spec)
        assert f.lo == -3 and f.hi == 6

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            FunctionSpec(a=0, m=3, b=3, zero_initials_from=0, value_range=9, seed=1)
        with pytest.raises(ParameterError):
            FunctionSpec(a=0, m=3, b=9, zero_initials_from=4, value_range=9, seed=1)
        with pytest.raises(ParameterError, match="^seed must fit in 64 bits$"):
            FunctionSpec(a=0, m=3, b=9, zero_initials_from=0, value_range=9, seed=2**64)


class TestIdentitySuites:
    @pytest.mark.parametrize("name", IDENTITY_SUITE_NAMES)
    def test_exact_backend_passes(self, name):
        result = run_identity_suite(name, 25, 42)
        assert result.failures == 0
        assert result.worst_slack == 0.0
        assert result.failing_seeds == ()

    @pytest.mark.parametrize("name", IDENTITY_SUITE_NAMES)
    def test_float_backend_within_tolerance(self, name):
        result = run_identity_suite(name, 15, 42, backend=Backend.FLOAT)
        assert result.failures == 0
        assert result.worst_slack < 1e-6

    @pytest.mark.parametrize("backend", list(Backend))
    @pytest.mark.parametrize("seed", [42, 7])
    def test_no_trial_draws_the_shift_zero(self, backend, seed):
        # at p = 0 ∇^p is the identity, and both sides of a pair come from one
        # computation.  power-rule returns 31 − p pairs; nabla-of-sum returns
        # length − p, and its trial draws a, then the grid length, first.
        for index in range(200):
            trial_seed = mix_seed(seed, index)
            assert len(replay_identity_trial("power-rule", trial_seed, backend)) <= 30
            rng = random.Random(trial_seed)
            rng.randint(-5, 5)
            length = rng.randint(3, 30)
            assert len(replay_identity_trial("nabla-of-sum", trial_seed, backend)) < length

    def test_unknown_suite_rejected(self):
        with pytest.raises(UsageError):
            run_identity_suite("not-a-suite", 5, 42)

    def test_trials_must_be_positive(self):
        with pytest.raises(ParameterError):
            run_identity_suite("taylor", 0, 42)

    def test_precondition_violations_surface_as_errors(self):
        # a window violation raises instead of counting as a suite failure
        f = GridFunction(-2, tuple(t * t for t in range(-2, 7)))
        with pytest.raises(WindowError):
            taylor_integer(f, 0, 3, 2)


class TestInequalitySuites:
    @pytest.mark.parametrize("name", INEQUALITY_SUITE_NAMES)
    def test_exact_backend_passes(self, name):
        result = run_inequality_suite(name, 25, 42)
        assert result.failures == 0
        assert result.worst_slack >= 0.0

    def test_opial_fixed_order_example(self):
        result = run_inequality_suite("opial", 40, 42, mu="5/2", gamma=2, delta=2)
        assert result.failures == 0

    def test_ostrowski_reports_worst_slack(self):
        result = run_inequality_suite("ostrowski", 40, 7, mu="5/2", p=0)
        assert result.failures == 0
        assert result.worst_slack >= 0.0

    def test_avg_sobolev_fixed_orders(self):
        result = run_inequality_suite(
            "avg-sobolev", 25, 1, mu_list=(Fraction(3, 2), Fraction(5, 2)), r=2
        )
        assert result.failures == 0

    def test_sobolev_various_r(self):
        for r in (1, 2, 3):
            result = run_inequality_suite("sobolev", 25, 11, r=r)
            assert result.failures == 0

    def test_tight_variant_records_failing_seeds(self):
        # the telescoped variant is not a valid bound in general; the suite
        # must surface that with reproducible seeds rather than hide it
        result = run_inequality_suite("opial", 200, 42, g_variant="tight")
        assert result.failures == 17
        assert len(result.failing_seeds) == result.failures
        # zero outer weights certify rhs² = 0 >= lhs², yet rhs is NaN: the
        # NaN check comes first, so the trial still counts as a failure
        nan_seed = 5037149692101864844
        assert nan_seed in result.failing_seeds
        replay = replay_inequality_trial("opial", nan_seed, g_variant="tight")
        assert math.isnan(replay.rhs)
        assert replay.holds is False

    def test_worst_slack_is_nan_when_every_slack_is(self):
        # the one trial of master seed 32 has a NaN rhs, so no finite slack is seen
        result = run_inequality_suite("opial", 1, 32, g_variant="tight")
        assert result.failures == 1 and math.isnan(result.worst_slack)

    def test_failing_seed_replays_in_isolation(self):
        result = run_inequality_suite("opial", 200, 42, g_variant="tight")
        seed = result.failing_seeds[0]
        report = replay_inequality_trial("opial", seed, g_variant="tight")
        assert not report.holds
        # the same seed under the sound variant stays admissible
        paper = replay_inequality_trial("opial", seed, g_variant="paper")
        assert paper.holds

    def test_identity_trial_replays(self):
        pairs = replay_identity_trial("duality", mix_seed(13, 4))
        assert pairs and all(got == want for got, want in pairs)

    @pytest.mark.parametrize("name", INEQUALITY_SUITE_NAMES)
    def test_float_backend_within_tolerance(self, name):
        result = run_inequality_suite(name, 15, 42, backend=Backend.FLOAT)
        assert result.failures == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(UsageError):
            run_inequality_suite("not-a-suite", 5, 42)


class TestSuiteOptions:
    """Each option a suite documents is used, in place of its draw, or refused with a
    typed error; with no option given every draw is the suite's own (the report digests)."""

    SEEDS = [mix_seed(42, j) for j in range(30)]

    def test_opial_takes_a_given_shift(self):
        for seed in self.SEEDS:
            drawn = replay_inequality_trial("opial", seed)
            given = replay_inequality_trial("opial", seed, p=1)
            assert given.params["p"] == 1
            # p is drawn after the order and the base, so those stay the trial's own
            assert (given.params["mu"], given.params["a"]) == (drawn.params["mu"], drawn.params["a"])

    @pytest.mark.parametrize("name", ["ostrowski", "poincare", "sobolev"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_a_shifted_suite_draws_its_order_above_a_given_shift(self, name, p):
        for seed in self.SEEDS[:10]:
            report = replay_inequality_trial(name, seed, p=p)
            assert report.params["p"] == p and p < Fraction(report.params["mu"]) < 4
        assert run_inequality_suite(name, 20, 42, p=p).failures == 0

    def test_avg_sobolev_takes_a_given_order_as_its_one_order(self):
        for seed in self.SEEDS[:10]:
            assert replay_inequality_trial("avg-sobolev", seed, mu="9/2").params["mu_list"] == ["9/2"]
        # an order list still wins
        report = replay_inequality_trial("avg-sobolev", self.SEEDS[0], mu="9/2", mu_list=["3/2", "5/2"])
        assert report.params["mu_list"] == ["3/2", "5/2"]

    @pytest.mark.parametrize(
        "name, opts, message",
        [
            ("opial", {"p": 3}, "shift p=3 must be smaller than the order 3"),
            ("opial", {"p": 7}, "shift p=7 must be smaller than the order 3"),
            ("poincare", {"p": 4}, "shift p=4 must be smaller than the order 4"),
            ("sobolev", {"p": 4, "mu": "5/2"}, "shift p=4 must be smaller than the order 5/2"),
        ],
    )
    def test_a_shift_no_order_exceeds_is_an_order_error(self, name, opts, message):
        with pytest.raises(OrderError, match=f"^{message}$"):
            run_inequality_suite(name, 5, 42, **opts)


class TestDeterminism:
    def test_identity_suite_reruns_identically(self):
        first = run_identity_suite("duality", 20, 13)
        second = run_identity_suite("duality", 20, 13)
        assert first == second

    def test_inequality_suite_reruns_identically(self):
        first = run_inequality_suite("ostrowski", 20, 13)
        second = run_inequality_suite("ostrowski", 20, 13)
        assert first == second
