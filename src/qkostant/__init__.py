"""Exact q-graded vector-partition counting for classical root systems.

The central object is the polynomial whose q**k coefficient counts the
multisets of exactly k positive roots summing to a given weight.  The
package computes it by independent routes (a lattice-fold oracle, a closed
product form for bump weights, a rational generating function, and explicit
conjugate-surd formulas), derives exact part-count statistics, and measures
Gaussian convergence of the normalized distributions.
"""

from importlib import import_module

# Module -> the exported names it defines.  Nothing is imported until a name
# (or a submodule) is first used (PEP 562), so a CLI request loads only its
# own layers.
_EXPORTS = {
    "polyring": ("QPoly", "Root5"),
    "rootsys": (
        "LIE_TYPES", "MIN_RANK", "RootSystem", "build_root_system", "highest_root",
        "positive_root_count", "FAMILIES", "MAX_LISTING_ENTRIES",
    ),
    "kostant": ("qanalog", "count_decompositions", "MAX_FOLD_CELLS"),
    "closedform": (
        "SupportSpec", "weight_of", "product_qpoly", "iter_support_specs",
        "gf_coefficient", "explicit_qpoly", "BenderReport", "check_bender_conditions",
    ),
    "stats": (
        "MomentPair", "moments_from_poly", "moments_from_jet", "product_moments",
        "closed_moments", "MEAN_GROWTH_LIMIT", "TYPE_B_VARIANCE_NOTE",
    ),
    "gaussianity": (
        "DistSummary", "summarize", "convergence_sweep", "family_poly", "normal_cdf",
        "DEFAULT_T_GRID",
    ),
    "verify": ("CheckResult", "run_all", "summary_line"),
    "errors": (
        "KostantError", "RankTooSmall", "DimensionMismatch", "InvalidSupport",
        "ZeroDistribution", "DegenerateDistribution", "NonRationalResult", "FoldTooLarge",
        "ListingTooLarge", "InternalCancellationFailure",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = set(_EXPORTS) | {"cli"}


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_MODULE_OF))


__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]
