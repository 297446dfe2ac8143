"""Double Poisson brackets on finite-dimensional algebras, exactly.

Defines associative algebras over Q by structure constants, classifies and
verifies double (and modified) Poisson brackets on them, builds inner brackets
from wedges with the associative Yang-Baxter obstruction, and computes the
induced Poisson structures on representation spaces.
"""

from .algebra import (
    AlgebraError,
    AlgElement,
    CommutatorSubspace,
    FDAlgebra,
    commutator,
    commutator_subspace,
    direct_sum,
    make_a2,
    make_matrix_algebra,
    resolve_preset,
)
from .brackets import (
    AxiomReport,
    DoubleBracket,
    DoubleDerivation,
    bracket_from_bivector,
)
from .families import (
    a2_alpha_bracket,
    a2_alpha_bracket_symbolic,
    a2_double_family,
    a2_double_family_symbolic,
    a2_modified_family,
    a2_modified_family_symbolic,
)
from .inner import (
    AybeSystem,
    WedgeElement,
    aybe_obstruction,
    aybe_solve,
    inner_bracket,
    trace_casimir_check,
    weak_jacobi_condition,
    wedge_basis,
)
from .linalg import (
    in_span,
    invert_matrix,
    nullspace_of_rows,
    rank_of_vectors,
    subspaces_equal,
)
from .modified import (
    FlatBracketTable,
    IllDefinedFlatBracketError,
    ModifiedBracket,
    flat_bracket,
    h0_jacobi_check,
    h0_skew_check,
)
from .poly import MultiPoly, PolyRing, QuadraticForm, RelationSet
from .repspace import (
    ChartError,
    ChartReport,
    CoordRing,
    ParamChart,
    PoissonTable,
    chart_consistency,
    chart_relations_check,
    get_chart,
    induce,
    jacobi_check_bivector,
    register_chart_rep2_a2,
    register_chart_rep3_a2,
)
from .solver import (
    LinearVariety,
    double_derivation_space,
    inner_bracket_span_equality,
    jacobi_constraints,
    outer_double_derivation_dim,
    solve,
    solve_linear,
    solve_modified,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
