"""Entropy of automorphisms of finitely generated groups, computed along
three independent routes: eigenvalue moduli, iterated sumset growth, and
explicit rank certificates from weighted almost-invariant functions.

Importing the package loads none of its modules: each public name below is
looked up in its home module on first access (PEP 562), so a process loads
only the modules of the routes it runs. The names are not stored in this
namespace, so `dualent.X` is always `dualent.<home>.X`, also while that
attribute is patched and after it is restored.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    name: module
    for module, names in (
        ("groups", (
            "AbelianAutomorphism", "AbelianElement", "FgAbelianGroup", "IntMatrix",
            "InternalInvariantError", "NotInvertibleError", "ShapeError",
            "smith_normal_form",
        )),
        ("spectral", (
            "EntropyEstimate", "IntPolynomial", "char_poly", "complex_roots", "eigen_entropy",
        )),
        ("growth", (
            "DEFAULT_CAP", "FiniteSubset", "GrowthSeries", "SumsetCapError",
            "growth_rate_estimate", "growth_series",
        )),
        ("folner", (
            "DegenerateBasisError", "Parallelepiped", "RankCertificate",
            "RankSearchExhausted", "WeightedFunction", "choose_folner_constant",
            "convolution", "convolution_tower", "defect", "exact_delta", "interval_folner",
            "min_rank_bruteforce", "min_rank_table", "parallelepiped_folner",
            "sqrt_overlap_check", "symmetric_difference_ratio",
        )),
        ("crystal", (
            "CenterPresentation", "CrystalAutomorphism", "CrystalElement", "CrystalGroup",
            "ExtensionRankReport", "GroupValidationError", "PointGroup",
            "center_quotient_matrix", "crystal_entropy", "dihedral_infinite",
            "extension_rank_bound", "fg_abelian_entropy", "glide_plane_group",
            "point_reflection_square", "stabilizer_center", "trivial_product",
        )),
        ("laws", (
            "LawInstance", "LawReport", "check_conjugacy", "check_peters_vs_spectral",
            "check_power_law", "check_product_bounds", "check_quotient_rank",
            "check_sqrt_overlap", "check_subgroup_rank", "random_unimodular",
            "run_all_laws",
        )),
        ("specdoc", (
            "ComputationParams", "SpecDocument", "SpecFormatError", "emit_spec",
            "parse_spec", "parse_spec_data",
        )),
        ("reports", ("emit_report", "jsonable", "render_csv", "render_json", "render_text")),
    )
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
