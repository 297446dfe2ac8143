"""The JSON output of solve, solve --modified and hh1, pinned by its sha256.

Every classification is a dimension or span statement read off exact
elimination, so any change to how rows are reduced, scaled or ordered that
reaches an output shows up here as a changed digest.  The ladder is a2,
mat2, a2+a2, mat3, the upper-triangular T3 and a rebased mat2, the last two
written as fixed JSON so that their bytes, and so the input digests in the
output, never change.  A deliberate change of output format updates the
digests in the same commit.
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

FILES = {"T3": ("T3.json", T3), "mat2~rebased": ("mat2-rebased.json", MAT2_REBASED)}

COMMANDS = {"solve": ["solve"], "solve --modified": ["solve", "--modified"], "hh1": ["hh1"]}

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
    ("T3", "solve"): "4ba34e9a01ba30a81f8782bafb773f440929e0d88cfb173178d356ff312f72f4",
    ("T3", "solve --modified"): "0d2eb11729092e07a47833d97d549baf30a939bcc26b65b1777644dfc6c9b6ec",
    ("T3", "hh1"): "4997bfd26329304d9dd5e70158f15d9b8688338f1c19603a0e7f76e6af51f986",
    ("mat2~rebased", "solve"): "250b9e6e5128cf5d3e3a91c4fd9afeafc967603d7f5fd654f8e1327087d68888",
    ("mat2~rebased", "solve --modified"): "2a5012d1b9318f6d31604f9f254e82e02e96a82b7aac36a8c04c35a9ddbb70ea",
    ("mat2~rebased", "hh1"): "3e392800d8f1c285bd2c3ebf9675b862e3490e80d8b472d4de9e0adf2b6fab3e",
}


@pytest.mark.parametrize("spec, command", list(DIGESTS))
def test_json_output_digest(spec, command, tmp_path, monkeypatch):
    # hh1 echoes the --algebra argument, so a file is passed by a fixed relative name
    monkeypatch.chdir(tmp_path)
    algebra = spec
    if spec in FILES:
        algebra, data = FILES[spec]
        (tmp_path / algebra).write_text(json.dumps(data))
    argv = COMMANDS[command] + ["--algebra", algebra, "--force-large"]
    assert main(["--format", "json", "--out", "out.json"] + argv) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == DIGESTS[spec, command]
