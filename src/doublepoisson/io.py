"""JSON file formats and preset resolution.

Rationals serialize as "p/q" strings ("p" when q = 1).  File schemas:

algebra:  {"name": str, "basis": [names], "unit": ["p/q", ...],
           "mul": [[i, j, k, "p/q"], ...]}          (0-based, omitted = 0)
bracket:  {"algebra": preset-or-path, "params": [names],
           "coeffs": [[i, j, a, b, coeff-string], ...],
           "modified": bool (optional, default false)}
wedge:    {"algebra": preset-or-path, "terms": [[a, b, "p/q"], ...]}
          meaning sum coeff * (e_a(x)e_b - e_b(x)e_a)

Every file is a JSON object and every list field and entry a JSON array,
every index an integer in 0 <= idx < dim, every basis name a string used
once, and every coefficient a string that parses; anything else raises
ValueError naming the field or entry (a usage error, exit 2, on the command
line).

Preset names resolve before file paths, so "a2" never reads a local file a2.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import FDAlgebra, resolve_preset
from .brackets import CoefficientBracket, DoubleBracket
from .modified import ModifiedBracket
from .poly import PolyRing, parse_rational

if TYPE_CHECKING:  # annotations only: a command that reads an algebra loads none of these
    from .inner import WedgeElement
    from .repspace import PoissonTable
    from .solver import LinearVariety


def load_algebra(spec: str) -> FDAlgebra:
    """Resolve a preset name, else read an algebra JSON file."""
    if not isinstance(spec, str):
        raise ValueError(f"algebra must be a preset name or a file path, not {type(spec).__name__}")
    preset = resolve_preset(spec)
    if preset is not None:
        return preset
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"no preset and no file named {spec!r}")
    return algebra_from_json(json.loads(path.read_text()))


def _expect(value, kind: type, what: str):
    """``value`` if it is a JSON object (dict) or array (list), else a ValueError naming ``what``."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ValueError(f"{what} must be a JSON {name}, not {type(value).__name__}")
    return value


def _check_indices(entry, count: int, dim: int, what: str) -> None:
    """Require the first ``count`` items of a JSON entry to be integers in 0 <= idx < dim."""
    for idx in entry[:count]:
        if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < dim:
            raise ValueError(f"{what} entry {entry!r}: index {idx!r} not in 0..{dim - 1}")


def _coefficient(value, where: str, parse=parse_rational):
    """``value`` parsed by ``parse``; a non-string or unparsable one raises ValueError naming ``where``."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: coefficient {value!r} is not a string")
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"{where}: bad coefficient {value!r} ({e})") from e


def algebra_from_json(data: dict) -> FDAlgebra:
    _expect(data, dict, "algebra")
    basis = tuple(_expect(data["basis"], list, "basis"))
    if not all(isinstance(name, str) for name in basis) or len(set(basis)) != len(basis):
        raise ValueError(f"basis names must be distinct strings, not {list(basis)!r}")
    n = len(basis)
    unit = _expect(data["unit"], list, "unit")
    unit = tuple(_coefficient(x, f"unit entry {k}") for k, x in enumerate(unit))
    entries = []
    for entry in _expect(data["mul"], list, "mul"):
        i, j, k, coeff = _expect(entry, list, "mul entry")
        _check_indices(entry, 3, n, "mul")
        entries.append((i, j, k, _coefficient(coeff, f"mul entry {entry!r}")))
    return FDAlgebra.from_entries(str(data.get("name", "algebra")), basis, unit, entries)


def algebra_to_json(algebra: FDAlgebra) -> dict:
    return {
        "name": algebra.name,
        "basis": list(algebra.basis_names),
        "unit": [str(u) for u in algebra.unit],
        "mul": [[i, j, k, str(c)] for i, j, k, c in algebra.entries()],
    }


def bracket_from_json(data: dict, algebra: FDAlgebra | None = None) -> CoefficientBracket:
    _expect(data, dict, "bracket")
    if algebra is None:
        algebra = load_algebra(data["algebra"])
    params = tuple(_expect(data.get("params", []), list, "params"))
    if not all(isinstance(p, str) for p in params):
        raise ValueError(f"params must be strings, not {params!r}")
    parse = PolyRing(params).parse if params else parse_rational
    entries = []
    for entry in _expect(data.get("coeffs", []), list, "coeffs"):
        i, j, a, b, coeff = _expect(entry, list, "bracket entry")
        _check_indices(entry, 4, algebra.dim, "bracket")
        entries.append((i, j, a, b, _coefficient(coeff, f"bracket entry {entry!r}", parse)))
    cls = ModifiedBracket if data.get("modified") else DoubleBracket
    return cls.from_entries(algebra, entries, params)


def bracket_to_json(bracket: CoefficientBracket, algebra_spec: str | None = None) -> dict:
    coeffs = [[i, j, a, b, str(c)] for i, j, a, b, c in bracket.entries()]
    data = {
        "algebra": algebra_spec or bracket.algebra.name,
        "params": list(bracket.params),
        "coeffs": coeffs,
    }
    if isinstance(bracket, ModifiedBracket):
        data["modified"] = True
    return data


def wedge_from_json(data: dict, algebra: FDAlgebra | None = None) -> WedgeElement:
    from .inner import WedgeElement

    _expect(data, dict, "wedge")
    if algebra is None:
        algebra = load_algebra(data["algebra"])
    terms = []
    for entry in _expect(data.get("terms", []), list, "terms"):
        a, b, c = _expect(entry, list, "wedge entry")
        _check_indices(entry, 2, algebra.dim, "wedge")
        terms.append((a, b, _coefficient(c, f"wedge entry {entry!r}")))
    return WedgeElement.from_terms(algebra, terms)


def load_wedge(path: str, algebra: FDAlgebra | None = None) -> WedgeElement:
    return wedge_from_json(json.loads(Path(path).read_text()), algebra)


def wedge_to_json(wedge: WedgeElement, algebra_spec: str | None = None) -> dict:
    terms = []
    for a, b, v in wedge.entries():
        if a < b:
            terms.append([a, b, str(v)])
    return {"algebra": algebra_spec or wedge.algebra.name, "terms": terms}


def variety_to_json(variety: LinearVariety) -> dict:
    basis = [
        [[i, j, a, b, str(c)] for i, j, a, b, c in db.entries()]
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


def dump_json(data: dict, fp) -> None:
    """Write ``data`` to the text stream ``fp`` as deterministic JSON (sorted keys, indent 2).

    The text is written as it is encoded, never built as one string.
    """
    json.dump(data, fp, indent=2, sort_keys=True)
