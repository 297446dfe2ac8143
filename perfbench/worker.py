"""One closed-loop client: runs a job list in order, one job at a time.

    python3 perfbench/worker.py JOBS.json RESULT.json [--trace SPANS.json]

CLI jobs go through doublepoisson.cli.main(argv + --format json --out FILE);
the innerness probe, which has no CLI command, goes through the public
solver function.  Each job is timed alone; the program is imported before
the first job.  With --trace the layer wrappers are installed for the whole
job list and the spans are written when it ends.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import doublepoisson.cli as cli
import doublepoisson.io as dpio
import doublepoisson.report  # noqa: F401  (imported lazily by the CLI; wrap it too)
import doublepoisson.solver as solver

from gate import constraint_rank
from tracer import Tracer


def bracket_from_inner(inner_out: Path, algebra: str, dest: Path) -> None:
    """Write the inner bracket printed by `inner --wedge` as a bracket file."""
    coeffs = json.loads(inner_out.read_text())["bracket"]
    dest.write_text(json.dumps({"algebra": algebra, "params": [], "coeffs": coeffs}))


def run_job(job: dict, out: Path) -> tuple[float, dict]:
    if "argv" in job:
        argv = job["argv"] + ["--format", "json", "--out", str(out)]
        start = time.perf_counter()
        rc = cli.main(argv)
        return time.perf_counter() - start, {"rc": rc}
    api = job["api"]
    start = time.perf_counter()
    algebra = dpio.load_algebra(api["algebra"])
    value = getattr(solver, api["fn"])(algebra)
    elapsed = time.perf_counter() - start
    out.write_text(json.dumps({"equal": value}))
    return elapsed, {"rc": 0}


def main(argv: list[str]) -> int:
    jobs_file, result_file = Path(argv[0]), Path(argv[1])
    spans_file = Path(argv[3]) if len(argv) > 3 and argv[2] == "--trace" else None
    jobs = json.loads(jobs_file.read_text())
    outdir = result_file.parent
    tracer = Tracer() if spans_file else None
    results = []
    by_id = {}
    if tracer:
        tracer.install()
    pass_start = time.perf_counter()
    try:
        for job in jobs:
            out = outdir / f"{job['id']}.json"
            gc.collect()
            if tracer:
                tracer.job = job["id"]
            record = {"id": job["id"], "kind": job["kind"], "out": str(out)}
            try:
                if "bracket_from" in job:
                    src = by_id[job["bracket_from"]["job"]]
                    bracket_from_inner(Path(src["out"]), job["argv"][job["argv"].index("--algebra") + 1],
                                       Path(job["bracket_from"]["path"]))
                record["wall_s"], extra = run_job(job, out)
                record.update(extra)
                record["bytes_out"] = out.stat().st_size
            except Exception:  # a job that raises is a failed job, not a crash
                record["error"] = traceback.format_exc(limit=3)
                record["wall_s"] = 0.0
            results.append(record)
            by_id[job["id"]] = record
    finally:
        pass_wall = time.perf_counter() - pass_start
        if tracer:
            tracer.uninstall()
    summary = {
        "jobs": results,
        "wall_s": pass_wall,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        # ranked after the timed region, in the gate's own exact arithmetic
        ranks = [constraint_rank([str(p) for p in cs]) for cs in tracer.constraints]
        summary["trace_cost_s"] = tracer.cost_s()
        summary["self_s"] = dict(tracer.self_s)
        summary["counts"] = dict(tracer.counts, **{"solver.constraint_rank": sum(ranks)})
        spans_file.write_text(json.dumps(tracer.spans))
    result_file.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
