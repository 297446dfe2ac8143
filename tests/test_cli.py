import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import doublepoisson
from doublepoisson import io as dpio
from doublepoisson.cli import main
from doublepoisson.families import a2_alpha_bracket, a2_double_family, a2_modified_family_symbolic
from doublepoisson.inner import WedgeElement
from doublepoisson import algebra as algebra_module
from doublepoisson.algebra import FDAlgebra, make_a2, resolve_preset
from test_output_digests import T3


@pytest.fixture
def alpha_file(tmp_path):
    path = tmp_path / "alpha_family.json"
    path.write_text(json.dumps(dpio.bracket_to_json(a2_alpha_bracket(Fraction(1)), "a2")))
    return str(path)


@pytest.fixture
def gamma_file(tmp_path):
    db = a2_double_family(Fraction(0), Fraction(0), Fraction(1))
    path = tmp_path / "gamma_only.json"
    path.write_text(json.dumps(dpio.bracket_to_json(db, "a2")))
    return str(path)


@pytest.fixture
def wedge_file(tmp_path):
    a2 = make_a2()
    w = WedgeElement.wedge(a2.basis_element(0), a2.basis_element(1))
    path = tmp_path / "e0_wedge_e1.json"
    path.write_text(json.dumps(dpio.wedge_to_json(w, "a2")))
    return str(path)


def test_check_pass(alpha_file, capsys):
    assert main(["check", "--algebra", "a2", "--bracket", alpha_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_check_fail_jacobi(gamma_file, capsys):
    assert main(["check", "--algebra", "a2", "--bracket", gamma_file]) == 1
    out = capsys.readouterr().out
    assert "jacobi" in out and "FAIL" in out


def test_check_missing_input():
    assert main(["check", "--algebra", "missing.json", "--bracket", "also-missing.json"]) == 2


def test_check_malformed_bracket(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["check", "--algebra", "a2", "--bracket", str(bad)]) == 2


def test_solve_a2_json(tmp_path, capsys):
    out_file = tmp_path / "solve.json"
    assert main(["--format", "json", "--out", str(out_file), "solve", "--algebra", "a2"]) == 0
    data = json.loads(out_file.read_text())
    assert data["nullspace_dim"] == 3
    assert len(data["quadratic_constraints"]) == 1


def test_solve_modified_reports_computed_dim(tmp_path):
    out_file = tmp_path / "solvem.json"
    assert main(["--format", "json", "--out", str(out_file), "solve", "--algebra", "a2", "--modified"]) == 0
    data = json.loads(out_file.read_text())
    assert data["nullspace_dim"] == 8  # computed; published count is 7, see README
    assert data["quadratic_constraints"] == []


def test_solve_guard():
    assert main(["solve", "--algebra", "mat3"]) == 2


def test_size_guard_runs_before_the_preset_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("preset built before the size guard ran")

    monkeypatch.setattr(algebra_module, "_matrix_fields", refuse)
    for argv in (["solve", "--algebra", "mat3"], ["hh1", "--algebra", "mat3"], ["solve", "--algebra", "a2+mat3"]):
        assert main(argv) == 2
    # with the flag the guard lets the build through
    with pytest.raises(AssertionError):
        main(["solve", "--algebra", "mat3", "--force-large"])


def test_solve_guard_override_runs_small():
    # mat1+mat1+mat1+mat1+mat1 has dim 5, under the guard; mat3 needs the flag
    assert main(["solve", "--algebra", "mat1+mat1"]) == 0


def test_inner_wedge(wedge_file, tmp_path):
    out_file = tmp_path / "inner.json"
    assert main(["--format", "json", "--out", str(out_file), "inner", "--algebra", "a2", "--wedge", wedge_file]) == 0
    data = json.loads(out_file.read_text())
    assert data["aybe_holds"] is True
    assert data["weak_jacobi_condition"] is True
    assert [0, 1, 0, 0, "1"] in data["bracket"]


def test_inner_aybe_scan(tmp_path):
    out_file = tmp_path / "scan.json"
    assert main(["--format", "json", "--out", str(out_file), "inner", "--algebra", "a2", "--aybe-scan"]) == 0
    data = json.loads(out_file.read_text())
    assert data["parameters"] == ["a", "b", "c"]
    # monic-normalized: the same system as {ac = a^2, ab = 0, ab = bc, b^2 = 0}
    assert sorted(data["equations"]) == ["a*b", "a*b - b*c", "a^2 - a*c", "b^2"]


def test_inner_aybe_scan_mat1(tmp_path):
    out_file = tmp_path / "scan1.json"
    assert main(["--format", "json", "--out", str(out_file), "inner", "--algebra", "mat1", "--aybe-scan"]) == 0
    data = json.loads(out_file.read_text())
    assert data["equations"] == []


def test_inner_requires_mode():
    assert main(["inner", "--algebra", "a2"]) == 2


def test_induce_with_chart(alpha_file, tmp_path):
    out_file = tmp_path / "induce.json"
    assert (
        main(
            [
                "--format", "json", "--out", str(out_file),
                "induce", "--algebra", "a2", "--bracket", alpha_file,
                "--n", "2", "--chart", "rep2-a2",
            ]
        )
        == 0
    )
    data = json.loads(out_file.read_text())
    assert data["chart"]["consistency"] is True
    assert data["chart"]["pi"][1][2] == "lam^2"  # A bound to the concrete alpha = 1
    assert data["chart"]["frame"] == ""


def test_induce_rep3_numeric(alpha_file, tmp_path):
    out_file = tmp_path / "induce3.json"
    rc = main(
        [
            "--format", "json", "--out", str(out_file), "--seed", "7",
            "induce", "--algebra", "a2", "--bracket", alpha_file,
            "--n", "3", "--chart", "rep3-a2", "--numeric",
            "--samples", "100", "--tol", "1e-9",
        ]
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert data["chart"]["consistency"] is True
    assert data["chart"]["max_residual"] <= 1e-9
    assert "orthonormal tangent frame" in data["chart"]["frame"]


def test_induce_zero_bracket(tmp_path):
    from doublepoisson.brackets import DoubleBracket

    zero_file = tmp_path / "zero.json"
    zero_file.write_text(json.dumps(dpio.bracket_to_json(DoubleBracket.zero(make_a2()), "a2")))
    out_file = tmp_path / "outz.json"
    assert main(["--format", "json", "--out", str(out_file), "induce", "--algebra", "a2", "--bracket", str(zero_file), "--n", "2"]) == 0
    data = json.loads(out_file.read_text())
    assert data["table"] == {}


def test_induce_unknown_chart(alpha_file):
    assert main(["induce", "--algebra", "a2", "--bracket", alpha_file, "--n", "2", "--chart", "nope"]) == 2


def test_induce_chart_mismatch(alpha_file):
    assert main(["induce", "--algebra", "a2", "--bracket", alpha_file, "--n", "3", "--chart", "rep2-a2"]) == 2


def test_hh1(tmp_path):
    out_file = tmp_path / "hh1.json"
    assert main(["--format", "json", "--out", str(out_file), "hh1", "--algebra", "mat2"]) == 0
    data = json.loads(out_file.read_text())
    assert data["dim_outer"] == 0
    assert main(["hh1", "--algebra", "mat1+mat1"]) == 0
    assert main(["hh1", "--algebra", "a2"]) == 0
    assert main(["hh1", "--algebra", "mat3"]) == 2


def test_json_determinism(alpha_file, tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["--format", "json", "solve", "--algebra", "a2"]
    assert main(["--out", str(f1)] + args[:2] + args[2:]) == 0
    assert main(["--out", str(f2)] + args[:2] + args[2:]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_preset_beats_file(tmp_path, monkeypatch, alpha_file):
    # a local file named "a2" must not shadow the preset
    monkeypatch.chdir(tmp_path)
    Path("a2").write_text("{definitely not json")
    assert main(["check", "--algebra", "a2", "--bracket", alpha_file]) == 0


def test_report_runs(capsys):
    rc = main(["report"])
    out = capsys.readouterr().out
    # one documented failure: the published modified-bracket count (see README)
    assert rc == 1
    assert out.count("[FAIL]") == 1
    assert "modified classification matches the published" in out


def test_modified_check_via_cli(tmp_path):
    mb, _ = a2_modified_family_symbolic()
    point = {nm: Fraction(k + 1) for k, nm in enumerate(("al", "be", "ga", "de", "io", "ka", "et"))}
    from doublepoisson.families import a2_modified_family

    concrete = a2_modified_family(*point.values())
    path = tmp_path / "modified.json"
    path.write_text(json.dumps(dpio.bracket_to_json(concrete, "a2")))
    assert main(["check", "--algebra", "a2", "--bracket", str(path), "--modified"]) == 0
    # without the flag the file's own marker still routes to the modified checks
    assert main(["check", "--algebra", "a2", "--bracket", str(path)]) == 0


@pytest.mark.parametrize("n", ["0", "-1"])
def test_induce_rejects_nonpositive_n(alpha_file, capsys, n):
    assert main(["induce", "--algebra", "a2", "--bracket", alpha_file, "--n", n]) == 2
    assert "--n must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_induce_rejects_nonpositive_samples(alpha_file, capsys, samples):
    argv = ["induce", "--algebra", "a2", "--bracket", alpha_file, "--n", "3",
            "--chart", "rep3-a2", "--numeric", "--samples", samples]
    assert main(argv) == 2
    assert "--samples must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_induce_rejects_a_tolerance_that_is_not_finite_and_positive(alpha_file, capsys, tol):
    argv = ["induce", "--algebra", "a2", "--bracket", alpha_file, "--n", "3",
            "--chart", "rep3-a2", "--numeric", "--samples", "5", "--tol", tol]
    assert main(argv) == 2
    assert "--tol must be a finite positive number" in capsys.readouterr().err


def test_check_rejects_out_of_range_bracket_index(tmp_path, capsys):
    # a negative index used to wrap around to the last slot silently
    bad = tmp_path / "negative.json"
    bad.write_text(json.dumps({"algebra": "a2", "params": [], "coeffs": [[-1, 0, 0, 0, "1"]]}))
    assert main(["check", "--algebra", "a2", "--bracket", str(bad)]) == 2
    assert "index -1 not in 0..2" in capsys.readouterr().err


def test_inner_rejects_out_of_range_wedge_index(tmp_path, capsys):
    bad = tmp_path / "wedge.json"
    bad.write_text(json.dumps({"algebra": "a2", "terms": [[0, 3, "1"]]}))
    assert main(["inner", "--algebra", "a2", "--wedge", str(bad)]) == 2
    assert "index 3 not in 0..2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, coeff", [([], "1/0"), ([], 1), (["A"], "1/0*A")], ids=["zero-denominator", "number", "poly"]
)
def test_check_rejects_malformed_bracket_coefficient(tmp_path, capsys, params, coeff):
    # these used to escape as ZeroDivisionError / AttributeError tracebacks with exit 1
    bad = tmp_path / "coeff.json"
    bad.write_text(json.dumps({"algebra": "a2", "params": params, "coeffs": [[0, 1, 0, 0, coeff]]}))
    assert main(["check", "--algebra", "a2", "--bracket", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"bracket entry [0, 1, 0, 0, {coeff!r}]" in err


@pytest.mark.parametrize("coeff", ["1/0", 1], ids=["zero-denominator", "number"])
def test_inner_rejects_malformed_wedge_coefficient(tmp_path, capsys, coeff):
    bad = tmp_path / "wedge.json"
    bad.write_text(json.dumps({"algebra": "a2", "terms": [[0, 1, coeff]]}))
    assert main(["inner", "--algebra", "a2", "--wedge", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"wedge entry [0, 1, {coeff!r}]" in err


@pytest.mark.parametrize("field", ["mul", "unit"])
@pytest.mark.parametrize("coeff", ["1/0", 1], ids=["zero-denominator", "number"])
def test_hh1_rejects_malformed_algebra_coefficient(tmp_path, capsys, field, coeff):
    data = dpio.algebra_to_json(make_a2())
    if field == "mul":
        data["mul"][0][3] = coeff
        where = f"mul entry {data['mul'][0]!r}"
    else:
        data["unit"][0] = coeff
        where = "unit entry 0"
    bad = tmp_path / "algebra.json"
    bad.write_text(json.dumps(data))
    assert main(["hh1", "--algebra", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


_A2_JSON = dpio.algebra_to_json(make_a2())


@pytest.mark.parametrize(
    "command, data, field",
    [
        ("check", [1], "bracket"),
        ("check", "a2", "bracket"),
        ("check", None, "bracket"),
        ("check", {"coeffs": 5}, "coeffs"),
        ("check", {"coeffs": [5]}, "bracket entry"),
        ("check", {"params": 5}, "params"),
        ("check", {"params": [[1]]}, "params"),
        ("induce", [1], "bracket"),
        ("inner", [1], "wedge"),
        ("inner", "a2", "wedge"),
        ("inner", None, "wedge"),
        ("inner", {"terms": 5}, "terms"),
        ("inner", {"terms": [5]}, "wedge entry"),
        ("hh1", [1], "algebra"),
        ("hh1", None, "algebra"),
        ("hh1", {**_A2_JSON, "mul": 5}, "mul"),
        ("hh1", {**_A2_JSON, "mul": [5]}, "mul entry"),
    ],
)
def test_malformed_json_shape_is_a_usage_error(tmp_path, capsys, command, data, field):
    # these used to escape as AttributeError / TypeError tracebacks with exit 1
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    flag = {"check": "--bracket", "induce": "--bracket", "inner": "--wedge", "hh1": "--algebra"}[command]
    argv = [command, flag, str(path)] + ([] if command == "hh1" else ["--algebra", "a2"])
    assert main(argv + (["--n", "2"] if command == "induce" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err and "Traceback" not in err


def test_induce_rejects_an_algebra_with_a_repeated_basis_name(tmp_path, capsys):
    # used to load, then die building the coordinate ring: ValueError traceback, exit 1
    algebra = tmp_path / "dup.json"
    algebra.write_text(json.dumps({"name": "dup", "basis": ["x", "x"], "unit": ["1", "0"], "mul": [[0, 0, 0, "1"]]}))
    bracket = tmp_path / "zero.json"
    bracket.write_text(json.dumps({"algebra": "mat1", "params": [], "coeffs": []}))
    assert main(["induce", "--algebra", str(algebra), "--bracket", str(bracket), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "basis names must be distinct strings" in err


def test_induce_rejects_a_parameter_named_like_a_coordinate(tmp_path, capsys):
    # mat1's basis element E11 has the Rep_1 coordinate E11_11
    bracket = tmp_path / "clash.json"
    bracket.write_text(json.dumps({"algebra": "mat1", "params": ["E11_11", "a"], "coeffs": []}))
    assert main(["induce", "--algebra", "mat1", "--bracket", str(bracket), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['E11_11']" in err and "Traceback" not in err


def test_induce_rejects_coordinate_names_that_coincide(tmp_path, capsys):
    # from n = 11 on, cells (1, 11) and (11, 1) of mat1 are both named E11_111
    bracket = tmp_path / "zero.json"
    bracket.write_text(json.dumps({"algebra": "mat1", "params": [], "coeffs": []}))
    assert main(["induce", "--algebra", "mat1", "--bracket", str(bracket), "--n", "10"]) == 0
    capsys.readouterr()
    assert main(["induce", "--algebra", "mat1", "--bracket", str(bracket), "--n", "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "E11_111" in err and "Traceback" not in err


def test_each_job_builds_one_algebra(tmp_path, monkeypatch):
    # a relative file name whose first "+"-part is the preset name a2
    monkeypatch.chdir(tmp_path)
    Path("a2+a2-rebased.json").write_text(json.dumps(dpio.algebra_to_json(resolve_preset("a2+a2"))))
    Path("zero.json").write_text(json.dumps({"algebra": "a2+a2", "params": [], "coeffs": []}))
    builds = []
    original = FDAlgebra.__post_init__

    def counting(self):
        builds.append(self.name)
        original(self)

    monkeypatch.setattr(FDAlgebra, "__post_init__", counting)
    for argv in (
        ["hh1", "--algebra", "mat3", "--force-large"],
        ["solve", "--algebra", "a2+a2"],
        ["check", "--algebra", "a2+a2-rebased.json", "--bracket", "zero.json"],
    ):
        builds.clear()
        assert main(["--format", "json", "--out", "out.json"] + argv) == 0
        assert len(builds) == 1, (argv, builds)


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package under test; stdout and stderr as bytes."""
    src = str(Path(doublepoisson.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True)


def _python_with_package(code: str, text: bool = True) -> str | bytes:
    proc = _python("-c", code)
    proc.check_returncode()
    return proc.stdout.decode() if text else proc.stdout


def test_cli_import_leaves_numpy_unloaded():
    # the package does not use numpy; importing the CLI must not load it
    code = "import sys, doublepoisson.cli; print('numpy' in sys.modules)"
    assert _python_with_package(code).strip() == "False"


def test_numeric_chart_check_leaves_numpy_unloaded(alpha_file, tmp_path):
    # the numeric chart mode samples with MultiPoly.eval_float, not numpy
    argv = ["--format", "json", "--out", str(tmp_path / "induce3.json"), "induce", "--algebra", "a2",
            "--bracket", alpha_file, "--n", "3", "--chart", "rep3-a2", "--numeric", "--samples", "5"]
    code = f"import sys; from doublepoisson.cli import main; print(main({argv!r}), 'numpy' in sys.modules)"
    assert _python_with_package(code).split() == ["0", "False"]


def test_input_digests_load_no_hashlib(alpha_file, tmp_path):
    # the 16-character input digest comes from the interpreter's own SHA-256, not OpenSSL
    algebra_file = tmp_path / "T3.json"
    algebra_file.write_text(json.dumps(T3))
    runs = {
        "solve.json": ["solve", "--algebra", str(algebra_file)],
        "check.json": ["check", "--algebra", "a2", "--bracket", alpha_file],
    }
    calls = [f"main({['--format', 'json', '--out', str(tmp_path / out)] + argv!r})" for out, argv in runs.items()]
    code = (
        "import sys; from doublepoisson.cli import main; "
        f"print({', '.join(calls)}, '_hashlib' in sys.modules, 'hashlib' in sys.modules)"
    )
    assert _python_with_package(code).split() == ["0", "0", "False", "False"]

    def digest(path):
        return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]

    assert json.loads((tmp_path / "solve.json").read_text())["inputs"] == {"algebra": digest(algebra_file)}
    assert json.loads((tmp_path / "check.json").read_text())["inputs"] == {
        "algebra": "preset:a2",
        "bracket": digest(alpha_file),
    }


def test_json_on_stdout_is_the_out_file(tmp_path):
    argv = ["--format", "json", "solve", "--algebra", "mat2"]
    out_file = tmp_path / "solve.json"
    assert main(argv + ["--out", str(out_file)]) == 0
    code = f"import sys; from doublepoisson.cli import main; sys.exit(main({argv!r}))"
    assert _python_with_package(code, text=False) == out_file.read_bytes()


# -- cold start ------------------------------------------------------------------------
#
# Importing the CLI loads only the standard library: each command imports the
# modules it runs, and one parser serves every call in a process.


def test_cli_import_loads_no_other_module_of_the_package():
    code = "import sys, doublepoisson.cli; print(sorted(m for m in sys.modules if m.startswith('doublepoisson')))"
    assert _python_with_package(code).strip() == "['doublepoisson', 'doublepoisson.cli']"
    # argparse too waits for the first parser
    assert _python_with_package("import sys, doublepoisson.cli; print('argparse' in sys.modules)").strip() == "False"


def test_each_command_loads_the_modules_it_runs(alpha_file, tmp_path):
    out = str(tmp_path / "out.json")
    runs = [["check", "--algebra", "a2", "--bracket", alpha_file], ["solve", "--algebra", "a2"]]
    code = "import json, sys; from doublepoisson.cli import main\n" + "".join(
        f"main({argv + ['--out', out]!r}); print(json.dumps([m for m in sys.modules if m.startswith('doublepoisson.')]))\n"
        for argv in runs
    )
    after_check, after_solve = (set(json.loads(line)) for line in _python_with_package(code).splitlines())
    assert not after_check & {"doublepoisson.solver", "doublepoisson.inner", "doublepoisson.repspace"}
    assert "doublepoisson.solver" in after_solve and "doublepoisson.repspace" not in after_solve


def test_module_entry_point_prints_help():
    proc = _python("-m", "doublepoisson.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"usage: doublepoisson")


def test_fresh_process_output_is_the_in_process_output(alpha_file, capsysbinary):
    runs = [
        (["solve", "--algebra", "mat2", "--format", "json"], 0),
        # a ChartError is raised by repspace, which only the command loads
        (["induce", "--algebra", "a2", "--bracket", alpha_file, "--n", "2", "--chart", "nope"], 2),
    ]
    for argv, code in runs:
        assert main(argv) == code
        in_process = capsysbinary.readouterr()
        proc = _python("-m", "doublepoisson.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, in_process.out, in_process.err)
    assert in_process.err.startswith(b"error: unknown chart 'nope'")


def test_one_parser_serves_every_call(capsysbinary):
    from doublepoisson.cli import build_parser

    argv = ["solve", "--algebra", "a2", "--format", "json"]
    assert main(argv) == 0
    first = capsysbinary.readouterr()
    assert main(["solve", "--format", "json"]) == 2  # no --algebra: argparse exits 2
    assert b"required: --algebra" in capsysbinary.readouterr().err
    assert main(argv) == 0
    assert capsysbinary.readouterr() == first
    assert first.out and not first.err
    assert build_parser() is build_parser()


# -- no float in JSON output ---------------------------------------------------------
#
# Every scalar the engine prints is exact: an int or a Fraction, never a float.
# Python's int / int is a float, so a division that loses its Fraction operand
# would print one, as a JSON number or inside a coefficient or polynomial
# string ("0.5", "1.0*t0").  Each output is parsed with a parse_float that
# raises, and its strings are searched for decimal numbers.  The chart's
# max_residual is the one float by design (0.0 in exact mode), and a report
# note is free text.

# a decimal point, or an exponent as repr(float) writes it (1e-05, never 1e-5)
_DECIMAL = re.compile(r"(?<![\w.])\d+\.\d|\d[eE][-+]\d\d")


def _no_float(text):
    raise AssertionError(f"float {text} in JSON output")


def _strings(value, key=None):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _strings(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _strings(v, key)
    elif isinstance(value, str) and key != "note":
        yield value


@pytest.fixture
def half_files(tmp_path):
    """A bracket and a wedge on a2 whose coefficients have denominators."""
    bracket = tmp_path / "half-bracket.json"
    bracket.write_text(json.dumps({"algebra": "a2", "coeffs": [[0, 1, 0, 0, "1/2"], [1, 0, 0, 0, "-1/2"]]}))
    wedge = tmp_path / "half-wedge.json"
    wedge.write_text(json.dumps({"algebra": "a2", "terms": [[0, 1, "3/2"], [1, 2, "-2"]]}))
    return {"half_bracket": str(bracket), "half_wedge": str(wedge)}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--algebra", "a2", "--bracket", "{alpha}"], 0),
        (["check", "--algebra", "a2", "--bracket", "{gamma}"], 1),
        (["check", "--algebra", "a2", "--bracket", "{half_bracket}"], 1),
        (["check", "--algebra", "a2", "--bracket", "{half_bracket}", "--modified"], 1),
        (["solve", "--algebra", "a2"], 0),
        (["solve", "--algebra", "mat2"], 0),
        (["solve", "--algebra", "a2", "--modified"], 0),
        (["inner", "--algebra", "a2", "--wedge", "{wedge}"], 0),
        (["inner", "--algebra", "a2", "--wedge", "{half_wedge}"], 1),
        (["hh1", "--algebra", "a2"], 0),
        (["induce", "--algebra", "a2", "--bracket", "{alpha}", "--n", "2", "--chart", "rep2-a2"], 0),
        (["induce", "--algebra", "a2", "--bracket", "{half_bracket}", "--n", "2"], 0),
        (["report"], 1),
    ],
)
def test_json_output_holds_no_float(argv, code, alpha_file, gamma_file, wedge_file, half_files, tmp_path):
    files = dict(half_files, alpha=alpha_file, gamma=gamma_file, wedge=wedge_file)
    out_file = tmp_path / "out.json"
    assert main(["--format", "json", "--out", str(out_file)] + [a.format(**files) for a in argv]) == code
    text = out_file.read_text()
    if "--chart" in argv:
        assert json.loads(text)["chart"]["max_residual"] == 0.0
        text = text.replace('"max_residual": 0.0', '"max_residual": null', 1)
    data = json.loads(text, parse_float=_no_float)
    assert [s for s in _strings(data) if _DECIMAL.search(s)] == []
