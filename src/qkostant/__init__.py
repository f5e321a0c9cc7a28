"""Exact q-graded vector-partition counting for classical root systems.

The central object is the polynomial whose q**k coefficient counts the
multisets of exactly k positive roots summing to a given weight.  The
package computes it by independent routes (a lattice-fold oracle, a closed
product form for bump weights, a rational generating function, and explicit
conjugate-surd formulas), derives exact part-count statistics, and measures
Gaussian convergence of the normalized distributions.
"""

from .errors import (
    DegenerateDistribution,
    DimensionMismatch,
    FoldTooLarge,
    InternalCancellationFailure,
    InvalidSupport,
    KostantError,
    NonRationalResult,
    RankTooSmall,
    ZeroDistribution,
)
from .polyring import QPoly, Root5
from .rootsys import (
    LIE_TYPES,
    MIN_RANK,
    RootSystem,
    build_root_system,
    highest_root,
    positive_root_count,
)
from .kostant import MAX_FOLD_CELLS, count_decompositions, qanalog
from .closedform import (
    BenderReport,
    SupportSpec,
    check_bender_conditions,
    explicit_qpoly,
    gf_coefficient,
    iter_support_specs,
    product_qpoly,
    weight_of,
)
from .stats import (
    MEAN_GROWTH_LIMIT,
    TYPE_B_VARIANCE_NOTE,
    MomentPair,
    closed_moments,
    moments_from_poly,
    product_moments,
)
from .gaussianity import (
    DEFAULT_T_GRID,
    FAMILIES,
    DistSummary,
    convergence_sweep,
    family_poly,
    normal_cdf,
    summarize,
)
from .verify import CheckResult, run_all, summary_line

__version__ = "0.1.0"

__all__ = [
    "QPoly", "Root5",
    "LIE_TYPES", "MIN_RANK", "RootSystem", "build_root_system",
    "highest_root", "positive_root_count",
    "qanalog", "count_decompositions", "MAX_FOLD_CELLS",
    "SupportSpec", "weight_of", "product_qpoly", "iter_support_specs",
    "gf_coefficient", "explicit_qpoly",
    "BenderReport", "check_bender_conditions",
    "MomentPair", "moments_from_poly", "product_moments", "closed_moments",
    "MEAN_GROWTH_LIMIT", "TYPE_B_VARIANCE_NOTE",
    "DistSummary", "summarize", "convergence_sweep", "family_poly", "normal_cdf",
    "DEFAULT_T_GRID", "FAMILIES",
    "CheckResult", "run_all", "summary_line",
    "KostantError", "RankTooSmall", "DimensionMismatch", "InvalidSupport",
    "ZeroDistribution", "DegenerateDistribution", "NonRationalResult", "FoldTooLarge",
    "InternalCancellationFailure",
    "__version__",
]
