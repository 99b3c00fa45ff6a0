"""Correspondence analysis and taxicab correspondence analysis for sparse
contingency tables, with equivalence-class reduction, sparsity summaries,
contribution diagnostics and map comparison.

The public names load on first use (PEP 562), so ``import taxica`` and the
command's argument parsing do not import numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "ca": ("Axis", "Decomposition", "ca_decompose", "pearson_residuals", "symmetric_eigen"),
        "diagnostics": (
            "CheckResult", "ContributionTable", "SimilarityReport", "VerificationReport",
            "ca_balance", "contributions", "explained_variation", "map_similarity", "verify",
        ),
        "errors": ("NumericalError", "ParseError", "TaxicaError", "ValidationError"),
        "reduction": (
            "MergeStep", "ReductionTrace", "apply_grouping", "proportional", "reduce_to_minimal",
        ),
        "sparsity": (
            "SparsityClass", "SparsityLevel", "SparsitySummary", "classify", "five_number",
            "seven_number", "zero_percentage_bound",
        ),
        "svg": ("emit_svg_biplot",),
        "table": (
            "ContingencyTable", "CorrespondenceModel", "build_model", "parse_table",
            "serialize_table", "validate_table",
        ),
        "tca": (
            "TcaAxisSolution", "cut_norm_bruteforce", "diagonal_sigma1", "tca_axis_exact",
            "tca_axis_iterative", "tca_decompose",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
