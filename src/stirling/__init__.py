"""Exact computation of Stirling numbers of both kinds, inter-kind
conversions, brute-force oracles, and a mechanically verified identity
catalog. No floating point anywhere."""

__version__ = "0.1.0"

from .exact import (
    factorial,
    format_int,
    format_rational,
    parse_int,
    parse_rational,
)
from .engine import (
    PerturbedCalculator,
    StirlingKind,
    build_triangle,
    first_from_second,
    second_from_first,
    stirling,
)
from .oracle import (
    count_permutations_by_cycles,
    count_set_partitions,
)
from .poly import (
    Poly,
    basis_poly_first,
    poly_eval,
)
from .identities import (
    IdentityId,
    check_deriv_relation_first,
    check_deriv_relation_second,
    check_orthogonality,
    check_row_relation_first,
    check_row_relation_second,
    check_unit_sum_first,
    check_unit_sum_second,
    run_all,
    run_identity,
)

__all__ = [
    "IdentityId",
    "PerturbedCalculator",
    "Poly",
    "StirlingKind",
    "basis_poly_first",
    "build_triangle",
    "check_deriv_relation_first",
    "check_deriv_relation_second",
    "check_orthogonality",
    "check_row_relation_first",
    "check_row_relation_second",
    "check_unit_sum_first",
    "check_unit_sum_second",
    "count_permutations_by_cycles",
    "count_set_partitions",
    "factorial",
    "first_from_second",
    "format_int",
    "format_rational",
    "parse_int",
    "parse_rational",
    "poly_eval",
    "run_all",
    "run_identity",
    "second_from_first",
    "stirling",
]
