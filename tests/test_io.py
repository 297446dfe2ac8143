import io
import json
from fractions import Fraction

import pytest

from doublepoisson import io as dpio
from doublepoisson.algebra import make_a2, make_matrix_algebra
from doublepoisson.cli import main
from doublepoisson.families import a2_double_family_symbolic, a2_modified_family_symbolic
from doublepoisson.inner import WedgeElement


def test_algebra_round_trip():
    a2 = make_a2()
    data = dpio.algebra_to_json(a2)
    back = dpio.algebra_from_json(data)
    assert back == a2 and hash(back) == hash(a2)


# a2 in the basis (e0, e1/2, e2): f1 f1 = 1/2 f1, f1 f0 = 1/2 f0, unit 2 f1 + f2
A2_HALVED = {
    "name": "a2-halved",
    "basis": ["f0", "f1", "f2"],
    "unit": ["0", "2", "1"],
    "mul": [[0, 2, 0, "1"], [1, 0, 0, "1/2"], [1, 1, 1, "1/2"], [2, 2, 2, "1"]],
}


def _dumped(data) -> str:
    """The text that ``dump_json`` writes for ``data``."""
    fp = io.StringIO()
    dpio.dump_json(data, fp)
    return fp.getvalue()


@pytest.mark.parametrize(
    "spec", ["a2", "mat1", "mat2", "mat3", "mat4", "mat1+mat1", "a2+mat1", "mat2+mat1+a2", "a2-halved"]
)
def test_algebra_json_round_trip_is_byte_identical(spec):
    data = A2_HALVED if spec == "a2-halved" else dpio.algebra_to_json(dpio.load_algebra(spec))
    text = _dumped(data)
    assert _dumped(dpio.algebra_to_json(dpio.algebra_from_json(json.loads(text)))) == text


def test_algebra_file_via_cli(tmp_path):
    # a custom algebra given as a file, not a preset
    data = dpio.algebra_to_json(make_matrix_algebra(2))
    data["name"] = "custom-mat2"
    path = tmp_path / "myalg.json"
    path.write_text(json.dumps(data))
    assert main(["hh1", "--algebra", str(path)]) == 0


def test_algebra_json_rejects_nonassociative(tmp_path):
    data = {
        "name": "broken",
        "basis": ["x", "y"],
        "unit": ["1", "0"],
        "mul": [[0, 0, 0, "1"], [0, 1, 0, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"], [1, 0, 0, "1"]],
    }
    with pytest.raises(Exception):
        dpio.algebra_from_json(data)


def test_bracket_round_trip_symbolic():
    db, _ = a2_double_family_symbolic()
    data = dpio.bracket_to_json(db, "a2")
    back = dpio.bracket_from_json(data)
    assert back.params == db.params
    assert back == db
    mb, _ = a2_modified_family_symbolic()
    datam = dpio.bracket_to_json(mb, "a2")
    assert datam["modified"] is True
    backm = dpio.bracket_from_json(datam)
    from doublepoisson.modified import ModifiedBracket

    assert isinstance(backm, ModifiedBracket)
    assert backm == mb


def test_wedge_round_trip():
    a2 = make_a2()
    w = WedgeElement.from_terms(a2, [(0, 1, Fraction(2)), (1, 2, Fraction(-1, 3))])
    back = dpio.wedge_from_json(dpio.wedge_to_json(w, "a2"))
    assert back.grid == w.grid


def test_rational_strings_in_files():
    a2 = make_a2()
    w = WedgeElement.from_terms(a2, [(0, 1, Fraction(-5, 6))])
    data = dpio.wedge_to_json(w, "a2")
    assert data["terms"] == [[0, 1, "-5/6"]]


def test_dump_json_deterministic():
    d = {"b": 1, "a": [2, 3]}
    assert _dumped(d) == _dumped({"a": [2, 3], "b": 1}) == json.dumps(d, indent=2, sort_keys=True)


@pytest.mark.parametrize("index", [-1, 3, 1.0, True, "0"])
def test_bracket_json_rejects_bad_index(index):
    data = {"algebra": "a2", "params": [], "coeffs": [[0, 1, index, 0, "1"]]}
    with pytest.raises(ValueError, match="bracket entry"):
        dpio.bracket_from_json(data)


@pytest.mark.parametrize("index", [-1, 3])
def test_wedge_json_rejects_bad_index(index):
    with pytest.raises(ValueError, match="wedge entry"):
        dpio.wedge_from_json({"algebra": "a2", "terms": [[index, 1, "1"]]})


def test_algebra_json_rejects_bad_index():
    data = dpio.algebra_to_json(make_a2())
    data["mul"].append([0, 0, -1, "1"])
    with pytest.raises(ValueError, match="mul entry"):
        dpio.algebra_from_json(data)


@pytest.mark.parametrize("basis", [["x", "x"], ["x", 1], ["x", None]])
def test_algebra_json_rejects_repeated_or_non_string_basis_names(basis):
    data = {"name": "bad", "basis": basis, "unit": ["1", "0"], "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}
    with pytest.raises(ValueError, match="basis names must be distinct strings"):
        dpio.algebra_from_json(data)


def test_bracket_json_last_slot_still_accepted():
    data = {"algebra": "a2", "params": [], "coeffs": [[2, 2, 2, 2, "1"]]}
    assert dpio.bracket_from_json(data).coeffs[2][2][2][2] == 1


@pytest.mark.parametrize("load", [dpio.bracket_from_json, dpio.wedge_from_json])
def test_json_without_an_algebra_rejects_a_non_string_algebra_field(load):
    # load_algebra(5) used to fail with AttributeError inside the preset parser
    with pytest.raises(ValueError, match="algebra must be a preset name or a file path, not int"):
        load({"algebra": 5})
