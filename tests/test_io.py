import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from doublepoisson import io as dpio
from doublepoisson.algebra import make_a2, make_matrix_algebra
from doublepoisson.cli import main
from doublepoisson.families import a2_double_family_symbolic, a2_modified_family_symbolic
from doublepoisson.inner import WedgeElement
from test_output_digests import COMMANDS, FILES, INPUTS


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


# -- the streamed writer against json.dump(indent=2, sort_keys=True) -------------------


def _json_dumped(data) -> str:
    fp = io.StringIO()
    json.dump(data, fp, indent=2, sort_keys=True)
    return fp.getvalue()


_floats = st.one_of(st.floats(), st.sampled_from((-0.0, 0.0, 1e300, -1e-300, float("inf"), float("-inf"), float("nan"))))
_texts = st.one_of(st.text(), st.sampled_from(('"', "\\", "\x00\x1f\n\t", "\u00e9\u2028", "\U0001f600", "a\"b\\c")))
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(max_value=-(10**30)), _floats, _texts
)
# keys of one dict must sort against each other: strings, or numbers and bools
_keys = st.one_of(
    st.just(_texts), st.just(st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()))
)


def _containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        _keys.flatmap(lambda keys: st.dictionaries(keys, children)),
        st.lists(st.one_of(st.integers(), _texts)),  # the one-join leaf lists
    )


@seed(20261024)
@settings(max_examples=300, deadline=None, database=None)
@given(st.recursive(_scalars, _containers, max_leaves=40))
def test_writer_matches_json_dump(data):
    assert _dumped(data) == _json_dumped(data)


@pytest.mark.parametrize(
    "data",
    [{}, [], (), [[]], [{}], {"a": {"b": []}}, [[[], {}], ({},)], {"x": [{}, [[]]]}],
    ids=repr,
)
def test_writer_matches_json_dump_on_empty_containers(data):
    assert _dumped(data) == _json_dumped(data)


def test_writer_matches_json_dump_on_mixed_lists():
    data = {"k": [1, True, 0, False, None, -(10**40), "s", [1, "2"], (3, True), {"n": [2.5, -0.0]}, 1.5]}
    assert _dumped(data) == _json_dumped(data)


@pytest.mark.parametrize("data", [{"k": object()}, [1, {1j: 2}], {None: 1, "a": 2}])
def test_writer_rejects_what_json_dump_rejects(data):
    with pytest.raises(TypeError):
        _json_dumped(data)
    with pytest.raises(TypeError):
        _dumped(data)


# every command, on the inputs of the pinned digests, and induce --numeric
WRITER_CASES = [
    ("a2", "solve"),
    ("mat3", "solve"),
    ("a2+mat1/2", "solve --modified"),
    ("mat2~rebased", "hh1"),
    ("T3", "solve"),
    ("a2", "inner --aybe-scan"),
    ("a2", "induce --n 3 --chart rep3-a2"),
    ("a2", "check --bracket"),
    ("a2", "check --modified"),
    ("mat2", "inner --wedge"),
    ("mat2", "induce --n 3"),
    ("golden", "report"),
]
NUMERIC = ["--numeric", "--samples", "5", "--seed", "3"]


@pytest.mark.parametrize("spec, command", WRITER_CASES + [("a2", "induce --n 3 --chart rep3-a2 --numeric")])
def test_writer_matches_json_dump_on_every_command_report(spec, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    algebra = spec
    if spec in FILES:
        algebra, data = FILES[spec]
        (tmp_path / algebra).write_text(json.dumps(data))
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    numeric = command.endswith(" --numeric")
    argv = [arg.format(algebra) for arg in COMMANDS[command.removesuffix(" --numeric")]] + (NUMERIC if numeric else [])
    reports = []
    monkeypatch.setattr(dpio, "dump_json", lambda data, fp: reports.append(data) or json.dump(data, fp))
    main(["--format", "json", "--out", "out.json"] + argv)
    monkeypatch.undo()
    (report,) = reports
    assert report["command"] == argv[0]
    if numeric:
        assert type(report["chart"]["max_residual"]) is float
    assert _dumped(report) == _json_dumped(report)
