"""Hilbert functions of set-family point sets over prime fields.

Set families over [n] become 0/1 point sets via characteristic vectors;
the dimension of the degree-bounded function space on those points (the
Hilbert function) is computed exactly as a matrix rank over F_p and
compared against closed forms.  On top of that sit executable checks of
ideal-truncation and degree-bound facts, and a search for minimal
balancing families with an algebraic certificate of the size bound.
"""

from .balancing import (
    BalancingInstance,
    SearchResult,
    check_lower_bound,
    is_balancing,
    min_balancing_size,
    witness_poly,
)
from .gflinalg import FpMatrix, FpVector, RowReducer, kernel_basis, rank_mod_p
from .hilbert import (
    HilbertReport,
    hilbert_series,
    hilbert_value,
    ideal_truncation_basis,
    modq_report,
    modq_value,
    uniform_report,
    wilson_value,
)
from .poly import (
    Monomial,
    Point,
    Polynomial,
    evaluate,
    expand_affine_product,
    monomials_upto,
    multilinear_reduce,
)
from .setfam import (
    EnumerationCapError,
    Params,
    SetFamily,
    Subset,
    binomial,
    char_vector,
    format_family,
    make_modq_family,
    make_uniform_family,
    parse_family,
)
from .theorems import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    GridInstance,
    VerificationReport,
    verify_grid_remark,
    verify_hlemma,
    verify_hrubes,
    verify_ideal_truncation_equality,
    verify_main2,
    verify_main_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BalancingInstance",
    "EnumerationCapError",
    "FAIL",
    "FpMatrix",
    "FpVector",
    "GridInstance",
    "HilbertReport",
    "Monomial",
    "NOT_APPLICABLE",
    "PASS",
    "Params",
    "Point",
    "Polynomial",
    "RowReducer",
    "SearchResult",
    "SetFamily",
    "Subset",
    "VerificationReport",
    "binomial",
    "char_vector",
    "check_lower_bound",
    "evaluate",
    "expand_affine_product",
    "format_family",
    "hilbert_series",
    "hilbert_value",
    "ideal_truncation_basis",
    "is_balancing",
    "kernel_basis",
    "make_modq_family",
    "make_uniform_family",
    "min_balancing_size",
    "modq_report",
    "modq_value",
    "monomials_upto",
    "multilinear_reduce",
    "parse_family",
    "rank_mod_p",
    "uniform_report",
    "verify_grid_remark",
    "verify_hlemma",
    "verify_hrubes",
    "verify_ideal_truncation_equality",
    "verify_main2",
    "verify_main_pair",
    "wilson_value",
    "witness_poly",
]
