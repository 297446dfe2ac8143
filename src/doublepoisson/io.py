"""JSON file formats and preset resolution.

Rationals serialize as "p/q" strings ("p" when q = 1).  File schemas:

algebra:  {"name": str, "basis": [names], "unit": ["p/q", ...],
           "mul": [[i, j, k, "p/q"], ...]}          (0-based, omitted = 0)
bracket:  {"algebra": preset-or-path, "params": [names],
           "coeffs": [[i, j, a, b, coeff-string], ...],
           "modified": bool (optional, default false)}
wedge:    {"algebra": preset-or-path, "terms": [[a, b, "p/q"], ...]}
          meaning sum coeff * (e_a(x)e_b - e_b(x)e_a)

Every index in a file must be an integer in 0 <= idx < dim; any other value
raises ValueError (a usage error, exit 2, on the command line).

Preset names resolve before file paths, so "a2" never reads a local file a2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .algebra import FDAlgebra, resolve_preset
from .brackets import CoefficientBracket, DoubleBracket
from .inner import WedgeElement
from .modified import ModifiedBracket
from .poly import MultiPoly, PolyRing, format_scalar, parse_rational
from .repspace import PoissonTable
from .solver import LinearVariety


def load_algebra(spec: str) -> FDAlgebra:
    """Resolve a preset name, else read an algebra JSON file."""
    preset = resolve_preset(spec)
    if preset is not None:
        return preset
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"no preset and no file named {spec!r}")
    return algebra_from_json(json.loads(path.read_text()))


def _check_indices(entry, count: int, dim: int, what: str) -> None:
    """Require the first ``count`` items of a JSON entry to be integers in 0 <= idx < dim."""
    for idx in entry[:count]:
        if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < dim:
            raise ValueError(f"{what} entry {entry!r}: index {idx!r} not in 0..{dim - 1}")


def algebra_from_json(data: dict) -> FDAlgebra:
    basis = tuple(data["basis"])
    n = len(basis)
    unit = tuple(parse_rational(x) for x in data["unit"])
    mul = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for entry in data["mul"]:
        i, j, k, coeff = entry
        _check_indices(entry, 3, n, "mul")
        mul[i][j][k] = mul[i][j][k] + parse_rational(coeff)
    return FDAlgebra(
        str(data.get("name", "algebra")),
        basis,
        unit,
        tuple(tuple(tuple(v) for v in row) for row in mul),
    )


def algebra_to_json(algebra: FDAlgebra) -> dict:
    mul = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            for k in range(algebra.dim):
                c = algebra.mul[i][j][k]
                if c != 0:
                    mul.append([i, j, k, format_scalar(c)])
    return {
        "name": algebra.name,
        "basis": list(algebra.basis_names),
        "unit": [format_scalar(u) for u in algebra.unit],
        "mul": mul,
    }


def bracket_from_json(data: dict, algebra: FDAlgebra | None = None) -> CoefficientBracket:
    if algebra is None:
        algebra = load_algebra(data["algebra"])
    params = tuple(data.get("params", ()))
    ring = PolyRing(params) if params else None
    n = algebra.dim
    grid = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for entry in data.get("coeffs", ()):
        i, j, a, b, coeff = entry
        _check_indices(entry, 4, n, "bracket")
        if ring is not None:
            value = ring.parse(coeff)
        else:
            value = parse_rational(coeff)
        grid[i][j][a][b] = grid[i][j][a][b] + value
    cls = ModifiedBracket if data.get("modified") else DoubleBracket
    return cls(algebra, grid, params)


def load_bracket(path: str, algebra: FDAlgebra | None = None) -> CoefficientBracket:
    return bracket_from_json(json.loads(Path(path).read_text()), algebra)


def bracket_to_json(bracket: CoefficientBracket, algebra_spec: str | None = None) -> dict:
    n = bracket.algebra.dim
    coeffs = []
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    c = bracket.coeffs[i][j][a][b]
                    if isinstance(c, MultiPoly):
                        if c.is_zero():
                            continue
                        coeffs.append([i, j, a, b, str(c)])
                    elif c != 0:
                        coeffs.append([i, j, a, b, format_scalar(c)])
    data = {
        "algebra": algebra_spec or bracket.algebra.name,
        "params": list(bracket.params),
        "coeffs": coeffs,
    }
    if isinstance(bracket, ModifiedBracket):
        data["modified"] = True
    return data


def wedge_from_json(data: dict, algebra: FDAlgebra | None = None) -> WedgeElement:
    if algebra is None:
        algebra = load_algebra(data["algebra"])
    terms = []
    for entry in data.get("terms", ()):
        a, b, c = entry
        _check_indices(entry, 2, algebra.dim, "wedge")
        terms.append((a, b, parse_rational(c)))
    return WedgeElement.from_terms(algebra, terms)


def load_wedge(path: str, algebra: FDAlgebra | None = None) -> WedgeElement:
    return wedge_from_json(json.loads(Path(path).read_text()), algebra)


def wedge_to_json(wedge: WedgeElement, algebra_spec: str | None = None) -> dict:
    terms = []
    for a, b, v in wedge.entries():
        if a < b:
            terms.append([a, b, format_scalar(v)])
    return {"algebra": algebra_spec or wedge.algebra.name, "terms": terms}


def variety_to_json(variety: LinearVariety) -> dict:
    basis = [
        [
            [i, j, a, b, format_scalar(c)]
            for i, row in enumerate(db.terms)
            for j, slot in enumerate(row)
            for a, b, c in slot
        ]
        for db in variety.nullspace_basis
    ]
    return {
        "algebra": variety.algebra.name,
        "nullspace_dim": variety.dim,
        "parameters": list(variety.parameter_names),
        "basis": basis,
        "quadratic_constraints": [str(p) for p in variety.quadratic_constraints],
    }


def table_to_json(table: PoissonTable) -> dict:
    """PoissonTable as {"g_ij,g'_pq": poly-string} for the nonzero entries."""
    entries = {}
    for (u, v), poly in sorted(table.table.items()):
        if not poly.is_zero():
            entries[f"{u},{v}"] = str(poly)
    return {
        "algebra": table.ring.algebra.name,
        "n": table.ring.n,
        "params": list(table.ring.params),
        "variables": table.ring.coordinate_names(),
        "brackets": entries,
    }


def dump_json(data: dict) -> str:
    """Deterministic JSON rendering (sorted keys, no float timestamps)."""
    return json.dumps(data, indent=2, sort_keys=True)
