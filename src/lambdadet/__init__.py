"""Exact lambda-determinants with alternating-sign-matrix and
domino-tiling cross-checks.

The determinant of an n-by-n matrix generalizes to a one-parameter
family: replace the 2-by-2 rule ad - bc by ad + l bc and condense, or
equivalently sum l-weighted monomials over all alternating-sign
matrices.  Both engines live here, over an exact ring Q[l][t, 1/t] whose
second variable supports perturbing zero entries and taking t -> 0.
The tilings module provides the combinatorial oracles (domino tilings of
squares and Aztec diamonds, weighted matchings, graphical condensation)
that the determinants are checked against, and reproduce bundles every
headline cross-check.
"""

from .asm import (
    ASMStats,
    asm_count_formula,
    asm_stats,
    count_asms,
    enumerate_asms,
    expanded_term_count,
    is_asm,
    lambda_det_sum,
    min_region_sum,
    region_sum,
    region_sum_counts,
)
from .condensation import (
    PerturbedDet,
    Pyramid,
    lambda_det,
    numeric_pyramid,
    perturbed_det,
    symbolic_pyramid,
)
from .errors import (
    CapExceeded,
    CellsExceeded,
    DivisionByZero,
    ExponentOverflow,
    IndeterminateForm,
    InexactDivision,
    LambdaDetError,
    NonMonomialEntry,
    OrderExceeded,
    PoleAtZero,
    SizeMismatch,
    TableTooLarge,
    ZeroMinor,
)
from .laurent import LAM, ONE, ONE_PLUS_LAM, T_VAR, ZERO, LaurentPoly
from .matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    diamond_pattern,
    ones_matrix,
    random_monomial_matrix,
)
from .reproduce import ReproductionSession, run_all, run_check
from .tilings import (
    KuoCheck,
    aztec_count_formula,
    aztec_region,
    count_tilings,
    diamond_window_region,
    kuo_identity_check,
    matching_sum,
    matching_sum_brute,
    square_region,
    tfk_count,
)

__version__ = "0.1.0"
