"""Double Poisson brackets on finite-dimensional algebras, exactly.

Defines associative algebras over Q by structure constants, classifies and
verifies double (and modified) Poisson brackets on them, builds inner brackets
from wedges with the associative Yang-Baxter obstruction, and computes the
induced Poisson structures on representation spaces.

The public names are resolved on first use (PEP 562), so importing the
package, or one submodule such as ``doublepoisson.cli``, loads no other
submodule.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    "algebra": (
        "AlgebraError", "AlgElement", "CommutatorSubspace", "FDAlgebra", "commutator",
        "commutator_subspace", "direct_sum", "make_a2", "make_matrix_algebra", "resolve_preset",
    ),
    "brackets": ("AxiomReport", "DoubleBracket", "DoubleDerivation", "bracket_from_bivector"),
    "families": (
        "a2_alpha_bracket", "a2_alpha_bracket_symbolic", "a2_double_family",
        "a2_double_family_symbolic", "a2_modified_family", "a2_modified_family_symbolic",
    ),
    "inner": (
        "AybeSystem", "WedgeElement", "aybe_obstruction", "aybe_solve", "inner_bracket",
        "trace_casimir_check", "weak_jacobi_condition", "wedge_basis",
    ),
    "linalg": ("in_span", "invert_matrix", "nullspace_of_rows", "rank_of_vectors", "subspaces_equal"),
    "modified": (
        "FlatBracketTable", "IllDefinedFlatBracketError", "ModifiedBracket", "flat_bracket",
        "h0_jacobi_check", "h0_skew_check",
    ),
    "poly": ("MultiPoly", "PolyRing", "QuadraticForm", "RelationSet"),
    "repspace": (
        "ChartError", "ChartReport", "CoordRing", "ParamChart", "PoissonTable", "chart_consistency",
        "chart_relations_check", "get_chart", "induce", "jacobi_check_bivector",
        "register_chart_rep2_a2", "register_chart_rep3_a2",
    ),
    "solver": (
        "LinearVariety", "double_derivation_space", "inner_bracket_span_equality", "jacobi_constraints",
        "outer_double_derivation_dim", "solve", "solve_linear", "solve_modified",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules that are public names of the package
_SUBMODULES = (
    "algebra", "axioms", "brackets", "families", "inner", "linalg", "modified", "poly", "repspace",
    "solver", "tensors",
)

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
