"""Self-tests of the benchmark harness (not of the program).

    python3 -m pytest -q perfbench/selftest
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
from gate import Gate, constraint_rank, parse_poly  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_frames():
    # outer [0, 10] holds inner [1, 4] and an aggregated frame [5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 10]))
    tracer.job = "j"
    tracer.enter("a")
    tracer.enter("b")
    tracer.leave("b.fn")
    tracer.enter("c", keep=False)
    tracer.leave()
    tracer.leave("a.fn")
    assert tracer.self_s == {"a": 6, "b": 3, "c": 1}
    assert sum(tracer.self_s.values()) == 10
    (b_id, b_name, _, b_start, b_end, b_parent, job), (a_id, *_rest, a_parent, _) = tracer.spans
    assert (b_name, b_start, b_end, b_parent, job) == ("b.fn", 1, 4, a_id, "j")
    assert a_parent is None


def test_bookkeeping_is_excluded_from_layer_self_time():
    tracer = Tracer(clock=FakeClock([0, 2, 5, 10]))
    tracer.enter("a")
    with tracer.bookkeeping():
        pass
    tracer.leave()
    assert tracer.self_s == {"a": 7, "trace.bookkeeping": 3}


def _snapshot():
    import doublepoisson  # noqa: F401
    import doublepoisson.cli  # noqa: F401
    import doublepoisson.report  # noqa: F401

    mods = {n: m for n, m in sys.modules.items() if n.startswith("doublepoisson")}
    state = {}
    for name, mod in mods.items():
        for key, value in vars(mod).items():
            state[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    state[(name, key, attr)] = member
    return state


def test_wrappers_restore_the_originals():
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    import doublepoisson.cli as cli
    import doublepoisson.solver as solver

    assert cli.solve_linear is solver.solve_linear
    assert hasattr(cli.solve_linear, "__wrapped__")
    tracer.uninstall()
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def _hh1_job(tmp_path: Path) -> tuple[dict, dict]:
    import doublepoisson.cli as cli

    out = tmp_path / "hh1.json"
    rc = cli.main(["hh1", "--algebra", "a2", "--format", "json", "--out", str(out)])
    job = {"id": "00-hh1", "kind": "hh1", "expect": {"ref": "a2"}}
    return job, {"rc": rc, "out": str(out)}


def test_gate_accepts_the_right_answer_and_flags_a_wrong_one(tmp_path):
    job, result = _hh1_job(tmp_path)
    assert Gate().check(job, result)
    wrong = json.loads((HERE / "expected.json").read_text())
    wrong["hh1"]["a2"] = [9, 8, 2]
    gate = Gate(wrong)
    assert not gate.check(job, result)
    assert "want [9, 8, 2]" in gate.errors[0]


def test_gate_counts_a_raising_or_silent_job_as_failed(tmp_path):
    gate = Gate()
    job = {"id": "x", "kind": "hh1", "expect": {"ref": "a2"}}
    assert not gate.check(job, {"error": "Traceback"})
    assert not gate.check(job, {"rc": 2, "out": str(tmp_path / "never-written.json")})
    assert len(gate.errors) == 2


def test_polynomial_parser_and_rank():
    assert parse_poly("-t0*t1 + 2/3*t2^2 - 5") == {
        (("t0", 1), ("t1", 1)): -1, (("t2", 2),): parse_poly("2/3*t2^2")[(("t2", 2),)], (): -5}
    assert constraint_rank(["t0^2 + t1*t2", "2*t0^2 + 2*t1*t2", "t1^2"]) == 2
    assert constraint_rank([]) == 0


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = inputs.build_jobs("linear-verify", 7, tmp_path / "a")
    b = inputs.build_jobs("linear-verify", 7, tmp_path / "b")
    assert json.dumps(a).replace(str(tmp_path / "a"), "") == json.dumps(b).replace(str(tmp_path / "b"), "")
    for f in (tmp_path / "a").iterdir():
        other = (tmp_path / "b" / f.name).read_text().replace(str(tmp_path / "b"), str(tmp_path / "a"))
        assert f.read_text() == other


def test_rebased_algebra_is_isomorphic_input():
    import random

    from doublepoisson.io import algebra_from_json
    from doublepoisson.solver import outer_double_derivation_dim

    data = inputs.rebase("a2+mat1", 4, random.Random(3))
    assert outer_double_derivation_dim(algebra_from_json(data)) == (15, 14, 1)


def test_traced_and_untraced_runs_write_identical_job_json(tmp_path):
    work = tmp_path / "inputs"
    work.mkdir()
    wedge = work / "w.json"
    wedge.write_text(json.dumps(inputs.seeded_wedge("mat2", __import__("random").Random(1))))
    point = work / "p.json"
    point.write_text(json.dumps(inputs.a2_double_point(1, -1, 1)))
    jobs = [
        {"id": "00-solve", "kind": "solve", "argv": ["solve", "--algebra", "a2"]},
        {"id": "01-hh1", "kind": "hh1", "argv": ["hh1", "--algebra", "mat2"]},
        {"id": "02-check", "kind": "check", "argv": ["check", "--algebra", "a2", "--bracket", str(point)]},
        {"id": "03-inner", "kind": "inner", "argv": ["inner", "--algebra", "mat2", "--wedge", str(wedge)]},
        {"id": "04-induce", "kind": "induce",
         "argv": ["induce", "--algebra", "a2", "--bracket", str(point), "--n", "2"]},
        {"id": "05-innerness", "kind": "innerness",
         "api": {"fn": "inner_bracket_span_equality", "algebra": "mat1+mat1"}},
    ]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "PATH": "/usr/bin:/bin"}
    outputs = {}
    for mode in ("plain", "traced"):
        d = tmp_path / mode
        d.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_file), str(d / "result.json")]
        if mode == "traced":
            cmd += ["--trace", str(d / "spans.json")]
        subprocess.run(cmd, env=env, check=True, timeout=120)
        outputs[mode] = {f.name: f.read_bytes() for f in d.glob("0*.json")}
    assert len(outputs["plain"]) == len(jobs)
    assert outputs["plain"] == outputs["traced"]
    result = json.loads((tmp_path / "traced" / "result.json").read_text())
    assert result["counts"]["solver.constraint_rank"] == 1
    assert result["self_s"]["cli.self"] > 0
    assert 0 < result["trace_cost_s"] < result["wall_s"]
    spans = json.loads((tmp_path / "traced" / "spans.json").read_text())
    assert {s[-1] for s in spans} == {j["id"] for j in jobs}
