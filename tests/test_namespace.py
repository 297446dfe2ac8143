"""The package's public namespace: the names it exports, and where each one lives."""

import importlib

import doublepoisson

# the 63 re-exported names, by home module
HOMES = {
    "algebra": (
        "AlgElement", "AlgebraError", "CommutatorSubspace", "FDAlgebra", "commutator",
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
# the submodules that are public names of the package
SUBMODULES = (
    "algebra", "axioms", "brackets", "families", "inner", "linalg", "modified", "poly", "repspace",
    "solver", "tensors",
)


def _home(name):
    if name in SUBMODULES:
        return importlib.import_module(f"doublepoisson.{name}")
    (module,) = [m for m, names in HOMES.items() if name in names]
    return getattr(importlib.import_module(f"doublepoisson.{module}"), name)


def test_all_is_the_74_public_names():
    reexports = [name for names in HOMES.values() for name in names]
    assert len(reexports) == 63 and len(set(reexports)) == 63
    assert doublepoisson.__all__ == sorted(reexports + list(SUBMODULES))


def test_star_import_binds_each_name_to_its_home_object():
    namespace = {}
    exec("from doublepoisson import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == doublepoisson.__all__
    assert all(namespace[name] is _home(name) for name in doublepoisson.__all__)


def test_attribute_access_matches_the_home_object():
    assert all(getattr(doublepoisson, name) is _home(name) for name in doublepoisson.__all__)


def test_dir_lists_every_public_name():
    assert set(doublepoisson.__all__) <= set(dir(doublepoisson))
    assert "__version__" in dir(doublepoisson)
