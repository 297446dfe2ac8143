"""The doublepoisson benchmark: one command, two workloads.

    python3 perfbench/run.py --workload classify|linear-verify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Inputs are generated from --seed (perfbench/inputs.py).  Each pass runs the
workload's job list in one fresh child process, one job at a time (a closed
loop with one client, which fits a 2-core machine).  Whole passes repeat
while another one fits in --seconds; every pass is checked against the hand-written
answers (perfbench/gate.py) and the timings are medians over passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs one traced pass and
prints the per-layer metrics, with the tracing overhead.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; a results file with every job goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from gate import Gate  # noqa: E402
from inputs import build_jobs  # noqa: E402

SETUP_SPAWNS = 7
CHILD_TIMEOUT_S = 170

KINDS = ("solve", "solve_modified", "hh1", "innerness", "check", "inner", "induce", "report")


def load_spec() -> dict:
    """The workloads ({name: why}) and metric units ({name: unit}) of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing doublepoisson.cli."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import doublepoisson.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(jobs_file: Path, outdir: Path, trace: bool, deadline: float) -> dict:
    outdir.mkdir(parents=True)
    result = outdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_file), str(result)]
    if trace:
        cmd += ["--trace", str(outdir / "spans.json")]
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=timeout)
    return json.loads(result.read_text())


def layer_metrics(traced: dict, units: dict) -> dict:
    """Per-layer metrics; an "_s" metric is the self time of its layer."""
    s, c = traced["self_s"], traced["counts"]
    out = {}
    for name, unit in units.items():
        if unit == "s":
            out[name] = s.get(name[:-2], 0.0)
        elif name in c:
            out[name] = c[name]
        else:
            out[name] = 0
    out["solver.constraint_yield"] = c.get("solver.constraint_rank", 0) / max(c.get("solver.constraints", 0), 1)
    out["solver.row_yield"] = c.get("solver.rank", 0) / max(c.get("solver.rows", 0), 1)
    out["io.bytes_out"] = sum(j.get("bytes_out", 0) for j in traced["jobs"])
    out["trace.wall_s"] = traced["wall_s"]
    cost = traced["trace_cost_s"]
    out["trace.overhead"] = cost / (traced["wall_s"] - cost)
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(spec["why"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "doublepoisson" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/doublepoisson; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT_S
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = build_jobs(args.workload, args.seed, work / "inputs")
        jobs_file = work / "jobs.json"
        jobs_file.write_text(json.dumps(jobs, indent=1))
        setup_s = None if args.trace else measure_setup()
        gate = Gate()
        passes, traced = [], None
        if args.trace:
            traced = run_pass(jobs_file, work / "traced", True, deadline)
        else:
            # Whole passes, as many as fit in --seconds at the mean pass time
            # so far; at least one, however long it takes.
            measuring = time.monotonic()
            while not passes or (time.monotonic() - measuring) * (len(passes) + 1) / len(passes) <= args.seconds:
                passes.append(run_pass(jobs_file, work / f"pass{len(passes)}", False, deadline))
        attempted = failed = 0
        for p in passes + ([traced] if traced else []):
            gate.outputs.clear()
            for job, res in zip(jobs, p["jobs"]):
                attempted += 1
                failed += not gate.check(job, res)
        report = summarize(args, spec, jobs, passes, traced, setup_s, attempted, failed, gate.errors)
        results_dir = HERE / "results"
        results_dir.mkdir(exist_ok=True)
        if traced:
            shutil.copy(work / "traced" / "spans.json",
                        results_dir / f"{args.workload}-seed{args.seed}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for line in report["table"]:
        print(line)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def summarize(args, spec, jobs, passes, traced, setup_s, attempted, failed, errors) -> dict:
    """End-to-end metrics (medians over untraced passes), or per-layer ones when traced."""
    med = statistics.median
    per_kind = defaultdict(list)
    for p in passes or [traced]:
        sums = defaultdict(float)
        for res in p["jobs"]:
            sums[res["kind"]] += res["wall_s"]
        for kind, v in sums.items():
            per_kind[kind].append(v)
    kinds = {f"{k}_s": med(per_kind[k]) for k in KINDS if k in per_kind}
    mode = "1 traced pass" if traced else f"{len(passes)} untraced pass(es)"
    table = [f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {mode}; {spec['why'][args.workload]}"]
    if traced:
        metrics = layer_metrics(traced, spec["per_layer"])
    else:
        values = {
            "wall_s": med(p["wall_s"] for p in passes),
            "max_job_s": med(max(r["wall_s"] for r in p["jobs"]) for p in passes),
            "setup_s": setup_s,
            "peak_rss_mib": max(p["peak_rss_kib"] for p in passes) / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in spec["end_to_end"].items()}
    table += [f"  {k:<24} {m['value']:14.4f} {m['unit']}" for k, m in metrics.items()]
    table += [f"  {k:<24} {v:14.4f} s" for k, v in kinds.items()]
    table.append(f"  {'error_rate':<24} {failed / attempted:14.4f} ratio  ({failed}/{attempted} jobs)")
    table += [f"  FAILED {e}" for e in errors]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "kind_s": kinds,
        "metrics": metrics,
        "passes": passes,
        "traced": traced,
        "errors": errors,
        "table": table,
    }


if __name__ == "__main__":
    sys.exit(main())
