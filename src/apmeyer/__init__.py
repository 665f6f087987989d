"""Exact arithmetic progressions in cut-and-project sets and Meyer sets."""

from .errors import (
    ApMeyerError,
    BudgetExceeded,
    NoMonoGrid,
    NotInLattice,
    ParseError,
    RankDeficient,
    RankGapError,
    UnboundedRegion,
    VerificationFailed,
    metered,
)
from .exact import (
    QuadScalar,
    decimal_str,
    max_li_subset,
    parse_quad,
    parse_rational,
    quad_sign,
    rank_over_Q,
    smith_divisors,
    submodule_multiplier,
)
from .cps import (
    Ball,
    Box,
    CutProjectScheme,
    LatticePoint,
    ShiftedUnion,
    builtin,
    delone_certificate,
    enumerate_model_set,
    lift_translate,
    meyer_certificate,
    refine_lattice,
    trivial_window,
    validate,
)
from .progression import (
    ArithmeticProgression,
    ap_points,
    ap_rank,
    brute_force_li_ap,
    crt_coefficients,
    embed_rank1,
    is_proper,
    verify_ap,
)
from .vdw import CubeColoring, Grid, find_mono_grid, grid_points, transfer_ap
from .aprank import (
    ApRankBracket,
    ExprPoint,
    MeyerExpr,
    SymbolicTranslate,
    aprank_bounds,
    covering_radius_certificate,
    euclideanize,
    expr_contains,
    independent_ratios,
    li_ap_in_meyer,
    li_ap_in_model_set,
    meyer_expr,
    mono_li_ap,
    rank_gap_example,
    sample_module_rank,
    shrink_window,
)

__version__ = "0.1.0"
