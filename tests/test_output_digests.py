"""The JSON output and exit code of the CLI commands, the JSON pinned by its sha256.

Every classification is a dimension or span statement read off exact
elimination, so any change to how rows are reduced, scaled or ordered that
reaches an output shows up here as a changed digest.  solve, solve
--modified and hh1 run on the ladder a2, mat2, a2+a2, mat3, the
upper-triangular T3, a rebased mat2 and a2+mat1 with halved structure
constants, where rational rows meet the elimination; solve runs on mat4 too,
the one pinned output with more than a few hundred constraints (1,045).  The inverse of
``inner --aybe-scan`` on a2, the exact rep3 chart check of an a2 bracket off
the Jacobi variety (exit 1), its numeric rep3 check at 100 seeded samples
(exit 1; the max_residual it prints is a float summed in term order), the
exact rep2 chart check of the symbolic alpha bracket and the golden ``report`` (exit 1, one strict
xfail) are pinned too, and so are ``check`` on that bracket (exit 1) and on
a modified a2 bracket, ``inner --wedge`` on mat2 (exit 1, the wedge fails
the weak Jacobi condition) and ``induce --n 3`` on that wedge's inner
bracket, which digest their input files.  Inputs that are not presets are written as fixed
JSON, so that their bytes, and so the input digests in the output, never
change.  A deliberate change of output format updates the digests in the
same commit.
"""

import hashlib
import json

import pytest

from doublepoisson.cli import main

T3 = {
    "name": "T3",
    "basis": ["E11", "E12", "E13", "E22", "E23", "E33"],
    "unit": ["1", "0", "0", "1", "0", "1"],
    "mul": [
        [0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [1, 3, 1, "1"], [1, 4, 2, "1"],
        [2, 5, 2, "1"], [3, 3, 3, "1"], [3, 4, 4, "1"], [4, 5, 4, "1"], [5, 5, 5, "1"],
    ],
}

# mat2 in the basis f = P e for a product P of six integer transvections
MAT2_REBASED = {
    "name": "mat2~rebased",
    "basis": ["E11", "E12", "E21", "E22"],
    "unit": ["2", "-3", "-2", "1"],
    "mul": [
        [0, 0, 0, "3"], [0, 1, 0, "-4"], [0, 1, 1, "7"], [0, 1, 2, "7"], [0, 2, 0, "4"], [0, 2, 1, "-4"],
        [0, 2, 2, "-4"], [0, 3, 0, "-9"], [0, 3, 1, "13"], [0, 3, 2, "13"], [1, 0, 0, "3"], [1, 0, 1, "-1"],
        [1, 0, 2, "-5"], [1, 0, 3, "-1"], [1, 1, 0, "-2"], [1, 1, 1, "4"], [1, 1, 2, "2"], [1, 1, 3, "-1"],
        [1, 2, 0, "3"], [1, 2, 1, "-3"], [1, 2, 2, "-4"], [1, 3, 0, "-6"], [1, 3, 1, "9"], [1, 3, 2, "8"],
        [1, 3, 3, "-1"], [2, 0, 0, "-1"], [2, 0, 1, "1"], [2, 0, 2, "5"], [2, 0, 3, "1"], [2, 1, 0, "-1"],
        [2, 1, 1, "1"], [2, 1, 2, "3"], [2, 1, 3, "1"], [2, 2, 2, "1"], [2, 3, 0, "-1"], [2, 3, 1, "1"],
        [2, 3, 2, "2"], [2, 3, 3, "1"], [3, 0, 0, "2"], [3, 0, 1, "-1"], [3, 0, 2, "-5"], [3, 0, 3, "-1"],
        [3, 1, 1, "1"], [3, 1, 2, "-2"], [3, 1, 3, "-1"], [3, 2, 0, "1"], [3, 2, 1, "-1"], [3, 2, 2, "-1"],
        [3, 3, 0, "-2"], [3, 3, 1, "3"], [3, 3, 2, "2"],
    ],
}

# a2+mat1 in the basis e_i / 2: structure constants halved, unit doubled
A2_MAT1_HALVED = {
    "name": "a2+mat1",
    "basis": ["a.e0", "a.e1", "a.e2", "b.E11"],
    "unit": ["0", "2", "2", "2"],
    "mul": [[0, 2, 0, "1/2"], [1, 0, 0, "1/2"], [1, 1, 1, "1/2"], [2, 2, 2, "1/2"], [3, 3, 3, "1/2"]],
}

# the a2 family at alpha = beta = gamma = 1, off the Jacobi variety gamma^2 + alpha beta = 0
OFF_VARIETY = {
    "algebra": "a2",
    "params": [],
    "coeffs": [
        [0, 0, 0, 1, "-1"], [0, 0, 0, 2, "-1"], [0, 0, 1, 0, "1"], [0, 0, 2, 0, "1"], [0, 1, 0, 0, "1"],
        [0, 1, 0, 2, "1"], [0, 1, 1, 0, "-1"], [0, 1, 2, 1, "1"], [0, 2, 0, 0, "-1"], [0, 2, 0, 2, "-1"],
        [0, 2, 1, 0, "1"], [0, 2, 2, 1, "-1"], [1, 0, 0, 0, "-1"], [1, 0, 0, 1, "1"], [1, 0, 1, 2, "-1"],
        [1, 0, 2, 0, "-1"], [1, 1, 1, 2, "1"], [1, 1, 2, 1, "-1"], [1, 2, 1, 2, "-1"], [1, 2, 2, 1, "1"],
        [2, 0, 0, 0, "1"], [2, 0, 0, 1, "-1"], [2, 0, 1, 2, "1"], [2, 0, 2, 0, "1"], [2, 1, 1, 2, "-1"],
        [2, 1, 2, 1, "1"], [2, 2, 1, 2, "1"], [2, 2, 2, 1, "-1"],
    ],
}

# a point of the seven-parameter modified family on a2
A2_MODIFIED = {
    "algebra": "a2",
    "params": [],
    "coeffs": [
        [0, 0, 0, 0, "1"], [0, 0, 0, 1, "2"], [0, 0, 0, 2, "3"], [0, 0, 1, 0, "-3"], [0, 0, 2, 0, "-2"],
        [0, 1, 0, 2, "-1"], [0, 1, 1, 0, "1"], [0, 1, 2, 1, "-2"], [0, 2, 0, 2, "1"], [0, 2, 1, 0, "-1"],
        [0, 2, 2, 1, "2"], [1, 0, 0, 0, "1"], [1, 0, 1, 2, "3"], [1, 1, 0, 0, "2"], [1, 1, 1, 2, "-1"],
        [1, 2, 0, 0, "-2"], [1, 2, 1, 2, "1"], [2, 0, 0, 0, "-1"], [2, 0, 1, 2, "-3"], [2, 1, 0, 0, "-2"],
        [2, 1, 1, 2, "1"], [2, 2, 0, 0, "2"], [2, 2, 1, 2, "-1"],
    ],
    "modified": True,
}

# E11^E12 + 3 E11^E22 - 2 E12^E21 on mat2, and its inner bracket as `inner --wedge` prints it
MAT2_WEDGE = {"algebra": "mat2", "terms": [[0, 1, "1"], [0, 3, "3"], [1, 2, "-2"]]}
MAT2_INNER = {
    "algebra": "mat2",
    "params": [],
    "coeffs": [
        [0, 0, 0, 3, "-3"], [0, 0, 3, 0, "3"], [0, 1, 1, 0, "-3"], [0, 1, 1, 1, "1"], [0, 1, 3, 1, "3"],
        [0, 2, 0, 2, "3"], [0, 2, 2, 3, "-3"], [0, 2, 3, 0, "-1"], [0, 3, 0, 3, "3"], [0, 3, 3, 0, "-3"],
        [1, 0, 0, 1, "3"], [1, 0, 1, 1, "-1"], [1, 0, 1, 3, "-3"], [1, 2, 0, 0, "-3"], [1, 2, 1, 0, "1"],
        [1, 2, 1, 2, "3"], [1, 2, 2, 1, "3"], [1, 2, 3, 1, "-1"], [1, 2, 3, 3, "-3"], [1, 3, 0, 1, "-3"],
        [1, 3, 1, 1, "1"], [1, 3, 1, 3, "3"], [2, 0, 0, 3, "1"], [2, 0, 2, 0, "-3"], [2, 0, 3, 2, "3"],
        [2, 1, 0, 0, "3"], [2, 1, 0, 1, "-1"], [2, 1, 1, 2, "-3"], [2, 1, 1, 3, "1"], [2, 1, 2, 1, "-3"],
        [2, 1, 3, 3, "3"], [2, 2, 0, 2, "-1"], [2, 2, 2, 0, "1"], [2, 2, 2, 3, "1"], [2, 2, 3, 2, "-1"],
        [2, 3, 0, 3, "-1"], [2, 3, 2, 0, "3"], [2, 3, 3, 2, "-3"], [3, 0, 0, 3, "3"], [3, 0, 3, 0, "-3"],
        [3, 1, 1, 0, "3"], [3, 1, 1, 1, "-1"], [3, 1, 3, 1, "-3"], [3, 2, 0, 2, "-3"], [3, 2, 2, 3, "3"],
        [3, 2, 3, 0, "1"], [3, 3, 0, 3, "-3"], [3, 3, 3, 0, "3"],
    ],
}

# the symbolic alpha bracket {{e0,e1}} = A e0(x)e0, with A a bracket parameter
A2_ALPHA = {
    "algebra": "a2",
    "params": ["A"],
    "coeffs": [[0, 1, 0, 0, "A"], [0, 2, 0, 0, "-A"], [1, 0, 0, 0, "-A"], [2, 0, 0, 0, "A"]],
}

# the bracket and wedge files every case can read, by their fixed names
INPUTS = {
    "off-variety.json": OFF_VARIETY,
    "alpha-a2.json": A2_ALPHA,
    "a2-modified.json": A2_MODIFIED,
    "wedge-mat2.json": MAT2_WEDGE,
    "inner-mat2.json": MAT2_INNER,
}

FILES = {
    "T3": ("T3.json", T3),
    "mat2~rebased": ("mat2-rebased.json", MAT2_REBASED),
    "a2+mat1/2": ("a2+mat1-halved.json", A2_MAT1_HALVED),
}

# "{}" stands for the algebra; report takes none, and its spec only names the case
COMMANDS = {
    "solve": ["solve", "--algebra", "{}", "--force-large"],
    "solve --modified": ["solve", "--modified", "--algebra", "{}", "--force-large"],
    "hh1": ["hh1", "--algebra", "{}", "--force-large"],
    "inner --aybe-scan": ["inner", "--aybe-scan", "--algebra", "{}"],
    "induce --n 3 --chart rep3-a2": [
        "induce", "--algebra", "{}", "--bracket", "off-variety.json", "--n", "3", "--chart", "rep3-a2"
    ],
    "induce --n 3 --chart rep3-a2 --numeric": [
        "induce", "--algebra", "{}", "--bracket", "off-variety.json", "--n", "3", "--chart", "rep3-a2",
        "--numeric", "--samples", "100", "--seed", "7",
    ],
    "induce --n 2 --chart rep2-a2": [
        "induce", "--algebra", "{}", "--bracket", "alpha-a2.json", "--n", "2", "--chart", "rep2-a2"
    ],
    "check --bracket": ["check", "--algebra", "{}", "--bracket", "off-variety.json"],
    "check --modified": ["check", "--modified", "--algebra", "{}", "--bracket", "a2-modified.json"],
    "inner --wedge": ["inner", "--algebra", "{}", "--wedge", "wedge-mat2.json"],
    "induce --n 3": ["induce", "--algebra", "{}", "--bracket", "inner-mat2.json", "--n", "3"],
    "report": ["report"],
}

EXIT_CODES = {
    ("a2", "induce --n 3 --chart rep3-a2"): 1,
    ("a2", "induce --n 3 --chart rep3-a2 --numeric"): 1,
    ("a2", "check --bracket"): 1,
    ("mat2", "inner --wedge"): 1,
    ("golden", "report"): 1,
}

DIGESTS = {
    ("a2", "solve"): "81c762c0530e1d5afe5b7a40cbede975d48727e9357d5d20ba9a8b55cf624be1",
    ("a2", "solve --modified"): "ffdfa820da6c6a5eec8211e975766ac8bfea008bb0f02f97f228e4f3c1172e39",
    ("a2", "hh1"): "9e7922463737748df77042aa499ed0a72bd5d55d9702e1cb2a08e022aea9871e",
    ("mat2", "solve"): "8e690bca9a8c81cc98c26decb710875e27ce54e50b11fa7051af90ea81cd7cd4",
    ("mat2", "solve --modified"): "cc4c9b9e3a7fbdfebdd76e6991986af501f47a106b0f8a2aa3b2594deb3af616",
    ("mat2", "hh1"): "42f41eaca0b94147836562295d77800d54b608c8b6da772fc6a36dbe1f5bc6db",
    ("a2+a2", "solve"): "8097221984ba1c59d1bd20e8ddf6cd2b4f724a789039a8caa1b792db962de77d",
    ("a2+a2", "solve --modified"): "0f025e2723723f20e597034dc14b13fcf88a8490bfca4207e173820335e77bd2",
    ("a2+a2", "hh1"): "3cf6c6d2f7585981a72babb15be88f3fbaac0b0a29b93c7830c1ae587f713cea",
    ("mat3", "solve"): "7a19e803e097fe4e2996dcf48997a5c94c1a819539a26a287df49a007a4d997b",
    ("mat3", "solve --modified"): "61ffc1135fd112554eafeb841b7189ad1f3add3c2f14eb23b237b044a4c1227f",
    ("mat3", "hh1"): "7397ee445f27f424763d9cef4a3041d9ed284402d94dd01cc58795a547797384",
    ("mat4", "solve"): "71d15bbbff77587d91c1aec10dd9e245605852657a644ae9bae56477aee477cc",
    ("T3", "solve"): "4ba34e9a01ba30a81f8782bafb773f440929e0d88cfb173178d356ff312f72f4",
    ("T3", "solve --modified"): "0d2eb11729092e07a47833d97d549baf30a939bcc26b65b1777644dfc6c9b6ec",
    ("T3", "hh1"): "4997bfd26329304d9dd5e70158f15d9b8688338f1c19603a0e7f76e6af51f986",
    ("mat2~rebased", "solve"): "250b9e6e5128cf5d3e3a91c4fd9afeafc967603d7f5fd654f8e1327087d68888",
    ("mat2~rebased", "solve --modified"): "2a5012d1b9318f6d31604f9f254e82e02e96a82b7aac36a8c04c35a9ddbb70ea",
    ("mat2~rebased", "hh1"): "3e392800d8f1c285bd2c3ebf9675b862e3490e80d8b472d4de9e0adf2b6fab3e",
    ("a2+mat1/2", "solve"): "a92f5524ab661486e385781befbb7a67100be1d82e797579abbce717f952f145",
    ("a2+mat1/2", "solve --modified"): "8d8d940627090eaf944a65090319b461592ca7ae8be2bb63da566206370af54a",
    ("a2+mat1/2", "hh1"): "f3bdbad324d85471f7188b185c0d2ddd0f8f8c2d1d62d5313479d2ff4b3fd337",
    ("a2", "inner --aybe-scan"): "49e6dab45484541ae73ef7dffa3fa7274a1ace93b1b9980fd0547c70277d74ee",
    ("a2", "induce --n 3 --chart rep3-a2"): "51900a2e9d0376cc99621bb992cc263580f4e1f88db684ff0293ea4ac8dc21b8",
    ("a2", "induce --n 3 --chart rep3-a2 --numeric"): "f0fd54419dd35ef65707d6586a2dea0f14bb738b5690a0e53a1af7742f6d5df3",
    ("a2", "induce --n 2 --chart rep2-a2"): "f01d12042324cf1db895a674d5f9f8a1e37a4de090f05dc9efac93cae147ec05",
    ("a2", "check --bracket"): "736223ae663d90ac1b0a2cf7329d0ba8e593ddee3a3132b3b695ec72b12647f8",
    ("a2", "check --modified"): "6b25b982216df1f7c69b26a6097551c7abc67922ef292b35f84f99778b837bee",
    ("mat2", "inner --wedge"): "2e1611deea232b134af0bec57ba50a539842d7ce65f00a5c5a677c9f1d70a8e5",
    ("mat2", "induce --n 3"): "5b7fd7f0d2b1831d296d3dd25337e06af24fbbcf1249095baa3e736d2eaba293",
    ("golden", "report"): "3603bf7602bd010e40826a209fa504a4856398563d13999770b8ff21161d353d",
}


@pytest.mark.parametrize("spec, command", list(DIGESTS))
def test_json_output_digest(spec, command, tmp_path, monkeypatch):
    # hh1 echoes the --algebra argument, so a file is passed by a fixed relative name
    monkeypatch.chdir(tmp_path)
    algebra = spec
    if spec in FILES:
        algebra, data = FILES[spec]
        (tmp_path / algebra).write_text(json.dumps(data))
    for name, data in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [arg.format(algebra) for arg in COMMANDS[command]]
    assert main(["--format", "json", "--out", "out.json"] + argv) == EXIT_CODES.get((spec, command), 0)
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DIGESTS[spec, command]
