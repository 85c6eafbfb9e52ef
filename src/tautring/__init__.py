"""Exact tautological-ring calculus for even-dimensional intersections of
three quadrics and for double planes: normal-form monomial algebra,
correspondence calculus with projector verifiers, alternating-relation
combinatorics, and Gram-matrix injectivity scans, all over exact
rational arithmetic."""

from types import ModuleType as _ModuleType

from .algebra import (
    ModelParams,
    ResourceLimitError,
    TautClass,
    TautMonomial,
    basis_count,
    class_codim,
    enumerate_basis,
    h_class,
    monomial_codim,
    multiply,
    o_class,
    push_products,
    tau_class,
    unit_class,
)
from .calculus import (
    GramBlock,
    GramReport,
    gram,
    integrate,
    is_zero_in_cohomology,
    pair,
    pullback,
    pushforward,
)
from .grammar import ParseError, format_class, parse_class
from .kimura import (
    KimuraReport,
    ScanRow,
    falling_factorial_pairing,
    kimura_element,
    scan_injectivity,
    verify_kimura_vanishing,
)
from .linalg import RationalMatrix, rank_kernel, solve_linear
from .motives import (
    CheckResult,
    CkReport,
    Correspondence,
    Gamma3Solution,
    MckCase,
    MckReport,
    ProjectorSet,
    act,
    ck_projectors,
    compose,
    diagonal,
    diagonal_class,
    euler_char,
    expand_diagonal_times_h,
    small_diagonal,
    solve_gamma3,
    tensor,
    transpose,
    verify_ck,
    verify_mck,
)

__version__ = "0.1.0"

# the public API is every name imported above
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
