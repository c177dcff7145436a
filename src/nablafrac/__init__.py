"""Discrete nabla fractional calculus with an exact rational backend.

Fractional backward sums, Caputo-like differences, discrete Taylor
representations with remainder bounds, and evaluators plus randomized
verification harnesses for the associated Opial-, Ostrowski-, Poincaré-,
Sobolev- and averaged-Sobolev-type bounds.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryConditionError,
    DomainError,
    EmptyRangeError,
    NablaFracError,
    NormalizationError,
    OrderError,
    ParameterError,
    ParseError,
    UsageError,
    WindowError,
)
from .fracops import (
    FractionalOrder,
    KernelRow,
    as_order,
    caputo_nabla,
    caputo_nabla_grid,
    delta_frac_sum,
    frac_sum,
    frac_sum_grid,
    kernel_cache_info,
    kernel_weights,
)
from .grid import (
    GridDomain,
    GridFunction,
    delta,
    falling_factorial,
    nabla,
    rising_factorial,
)
from .harness import (
    FunctionSpec,
    IDENTITY_SUITE_NAMES,
    INEQUALITY_SUITE_NAMES,
    SuiteResult,
    gen_function,
    mix_seed,
    replay_identity_trial,
    replay_inequality_trial,
    run_identity_suite,
    run_inequality_suite,
)
from .ineq import (
    InequalityReport,
    OpialParams,
    avg_sobolev_report,
    g_bound,
    opial_corollary_25,
    opial_report,
    ostrowski_report,
    poincare_report,
    sobolev_report,
)
from .scalars import (
    Backend,
    DEFAULT_TOLERANCE,
    Rational,
    Scalar,
    TolerancePolicy,
    backend_of,
    gamma_ratio_mod1,
    normalized_rising,
    parse_order,
    scalar_close,
    to_float,
)
from .taylor import (
    TaylorExpansion,
    TaylorSeed,
    construct_from_taylor_data,
    eval_from_taylor_data,
    kernel_sum_closed_form,
    remainder_bound,
    sum_rising_closed_form,
    taylor_extended,
    taylor_extended_series,
    taylor_fractional,
    taylor_fractional_series,
    taylor_integer,
    taylor_seed_of,
)
