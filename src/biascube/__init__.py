"""Boolean functions under biased product measures on the hypercube.

Exact truth-table analysis (influences, Russo derivatives, Dirichlet energy,
entropy), the one-coordinate log-Sobolev and Poincare constants with the
threshold-width bounds they imply, Doob martingale decompositions, and
seeded Monte Carlo estimators for arities the dense path cannot reach.

Point encoding, used everywhere including serialization: a point of
{0,1}^n is an integer x in [0, 2**n); coordinate i (1-based) is bit (i-1)
of x, so coordinate 1 is the least significant bit.
"""

from .booleans import (
    BooleanFunction,
    FamilySpec,
    PermutationGenerators,
    and_all,
    arity_cap,
    build_family,
    connectivity,
    cyclic_run,
    dictator,
    family_spec,
    family_symmetry,
    is_fully_symmetric,
    is_invariant_and_transitive,
    is_monotone,
    majority,
    make_from_table,
    or_all,
    parity,
    parse_family_string,
    parse_table_string,
    tribes,
)
from .bounds import (
    derivative_bound_check,
    log_sobolev_check,
    log_sobolev_constant,
    log_sobolev_tightness_two_point,
    max_influence_bound_check,
    poincare_check,
    rate_value,
    scaled_log_sobolev_constant,
    width_bound_check,
)
from .martingale import decompose
from .mc import (
    RNG_ID,
    Estimate,
    OracleFunction,
    estimate_influence,
    estimate_mu,
    family_oracle,
    mc_p_of_alpha,
)
from .measure import (
    Bias,
    CubeFunction,
    coordinate_center,
    coordinate_gradient,
    dirichlet_energy,
    entropy,
    expectation,
    expectation_derivative,
    generator_apply,
    influence,
    influences,
    variance,
)
from .reports import BoundReport
from .suites import SUITE_NAMES, run_suite
from .threshold import (
    ThresholdResult,
    bias_at_level,
    set_measure,
    threshold_width,
    tribes_width_trend,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "FamilySpec",
    "PermutationGenerators",
    "and_all",
    "arity_cap",
    "build_family",
    "connectivity",
    "cyclic_run",
    "dictator",
    "family_spec",
    "family_symmetry",
    "is_fully_symmetric",
    "is_invariant_and_transitive",
    "is_monotone",
    "majority",
    "make_from_table",
    "or_all",
    "parity",
    "parse_family_string",
    "parse_table_string",
    "tribes",
    "derivative_bound_check",
    "log_sobolev_check",
    "log_sobolev_constant",
    "log_sobolev_tightness_two_point",
    "max_influence_bound_check",
    "poincare_check",
    "rate_value",
    "scaled_log_sobolev_constant",
    "width_bound_check",
    "decompose",
    "RNG_ID",
    "Estimate",
    "OracleFunction",
    "estimate_influence",
    "estimate_mu",
    "family_oracle",
    "mc_p_of_alpha",
    "Bias",
    "CubeFunction",
    "coordinate_center",
    "coordinate_gradient",
    "dirichlet_energy",
    "entropy",
    "expectation",
    "expectation_derivative",
    "generator_apply",
    "influence",
    "influences",
    "variance",
    "BoundReport",
    "SUITE_NAMES",
    "run_suite",
    "ThresholdResult",
    "bias_at_level",
    "set_measure",
    "threshold_width",
    "tribes_width_trend",
    "__version__",
]
