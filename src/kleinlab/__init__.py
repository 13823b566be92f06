"""Limit sets of finitely generated Moebius groups: exact-ish sphere
geometry, marked free groups, circle-image search, gasket verification, and
boundary-decomposition combinatorics.

The exports and the submodules load on first access (PEP 562), so a
command pays only for the modules it runs."""

import importlib

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("mobius", "INFINITY DegenerateMatrixError MapClass MoebiusMap chordal_distance "
                   "moebius_mapping"),
        ("groups", "Alphabet GroupPresentation MarkedGroup check_relations "
                   "enumerate_reduced_words free_reduce load_marking load_presentation "
                   "parse_word reduced_word_count solve_parabolic_commutator"),
        ("gasket", "CirclePacking OrientedCircle descartes_residual detect_tangencies "
                   "is_apollonian_like load_packing dump_packing normalize_to_standard_gasket "
                   "standard_gasket tangency_point tangent_quadruple_flip"),
        ("limitset", "DfsConfig LimitSetCloud Rectangle limit_points_by_fixed_points "
                     "limit_set_dfs render"),
        ("decomposition", "FiniteMetricSpace GraphOfGroups SimpleGraph TreeSystem abc_example "
                          "cut_pairs link_valency local_cut_valencies local_cut_valency "
                          "tree_system_limit validate_bowditch"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "wordtree"}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
