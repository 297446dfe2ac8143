"""Command-line front end.

Subcommands: check, solve, inner, induce, hh1, report.
Global flags: --format json|text (default text), --seed N, --out FILE.
Exit codes: 0 all checks pass, 1 a check failed, 2 input/usage error.

JSON output is byte-identical for identical inputs and seeds; wall-clock
timing therefore appears only in text output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import io as dpio
from .algebra import AlgebraError, is_preset, preset_dim
from .inner import (
    WedgeElement,
    aybe_obstruction,
    aybe_solve,
    inner_bracket,
    weak_jacobi_condition,
)
from .modified import ModifiedBracket, h0_jacobi_check, h0_skew_check
from .repspace import ChartError, chart_consistency, get_chart, induce, jacobi_check_bivector
# solve_linear is not called here; the benchmark's tracer self-test reads it as cli.solve_linear
from .solver import outer_double_derivation_dim, solve, solve_linear, solve_modified  # noqa: F401

# The interpreter's own SHA-256: hashlib would load OpenSSL for one short digest.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

LARGE_DIM_GUARD = 9  # solve/hh1 refuse algebras of dim >= 9 without --force-large


class UsageError(Exception):
    """Input or usage problem: exit code 2."""


def _digest(path: str) -> str:
    return sha256(Path(path).read_bytes()).hexdigest()[:16]


def _input_digest(spec: str) -> str:
    if is_preset(spec):
        return f"preset:{spec}"
    return f"sha256:{_digest(spec)}"


def _load_algebra(spec: str):
    try:
        return dpio.load_algebra(spec)
    except (FileNotFoundError, AlgebraError, KeyError, ValueError) as e:
        raise UsageError(str(e)) from e


def _load_bracket(path: str, algebra):
    try:
        return dpio.bracket_from_json(json.loads(Path(path).read_text()), algebra)
    except (FileNotFoundError, json.JSONDecodeError, KeyError, IndexError, ValueError) as e:
        raise UsageError(f"bad bracket file {path!r}: {e}") from e


def _load_guarded(args):
    """The algebra of solve/hh1; dimension >= LARGE_DIM_GUARD needs --force-large.

    A preset's dimension is read off its name, so a large preset is refused
    before its structure constants are built.
    """

    def guard(dim: int) -> None:
        if dim >= LARGE_DIM_GUARD and not args.force_large:
            raise UsageError(
                f"algebra dimension {dim} needs --force-large (guard at {LARGE_DIM_GUARD})"
            )

    dim = preset_dim(args.algebra)
    if dim is not None:
        guard(dim)
    algebra = _load_algebra(args.algebra)
    guard(algebra.dim)
    return algebra


def _emit(report: dict, args, ok: bool, elapsed: float) -> int:
    if args.format == "json":
        # streamed to its destination, never held as one string
        if args.out:
            with open(args.out, "w") as fp:
                dpio.dump_json(report, fp)
                fp.write("\n")
        else:
            dpio.dump_json(report, sys.stdout)
            sys.stdout.write("\n")
    else:
        lines = [f"command: {report['command']}"]
        for key, value in report.items():
            if key == "command":
                continue
            lines.append(f"{key}: {json.dumps(value, sort_keys=True) if isinstance(value, (dict, list)) else value}")
        lines.append(f"elapsed: {elapsed:.3f}s")
        lines.append("result: PASS" if ok else "result: FAIL")
        text = "\n".join(lines)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
    return 0 if ok else 1


def cmd_check(args) -> int:
    started = time.time()
    algebra = _load_algebra(args.algebra)
    bracket = _load_bracket(args.bracket, algebra)
    modified = args.modified or isinstance(bracket, ModifiedBracket)
    report = {
        "command": "check",
        "algebra": args.algebra,
        "inputs": {"algebra": _input_digest(args.algebra), "bracket": _input_digest(args.bracket)},
        "modified": modified,
    }
    if modified:
        if not isinstance(bracket, ModifiedBracket):
            bracket = ModifiedBracket(algebra, bracket.terms, bracket.params)
        leib = bracket.check_leibniz_both()
        skew = h0_skew_check(bracket)
        jac = h0_jacobi_check(bracket)
        report["checks"] = {
            "leibniz_both": not leib,
            "h0_skew": not skew,
            "h0_jacobi": not jac,
        }
        residuals = [str(tag) for tag, _ in leib] + [str(t) for t, _ in skew] + [str(t) for t, _ in jac]
    else:
        rep = bracket.check_all()
        report["checks"] = {
            "skew": rep.skew_ok,
            "leibniz": rep.leibniz_ok,
            "jacobi": rep.jacobi_ok,
        }
        residuals = [str(tag) for tag, _ in rep.residuals]
    report["residuals"] = residuals
    ok = all(report["checks"].values())
    return _emit(report, args, ok, time.time() - started)


def cmd_solve(args) -> int:
    started = time.time()
    algebra = _load_guarded(args)
    variety = solve_modified(algebra) if args.modified else solve(algebra)
    report = {"command": "solve", "modified": args.modified}
    report.update(dpio.variety_to_json(variety))
    report["inputs"] = {"algebra": _input_digest(args.algebra)}
    return _emit(report, args, True, time.time() - started)


def cmd_inner(args) -> int:
    started = time.time()
    algebra = _load_algebra(args.algebra)
    report = {"command": "inner", "algebra": args.algebra, "inputs": {"algebra": _input_digest(args.algebra)}}
    if args.aybe_scan:
        if args.algebra.strip() == "a2":
            # the classical generators for a2: coordinates (a, b, c) on
            # span{1^e0, 1^e1, e0^e1}, coefficients over the basis (1, e0, e1)
            one = algebra.unit_element()
            e0 = algebra.basis_element(0)
            e1 = algebra.basis_element(1)
            gens = [WedgeElement.wedge(one, e0), WedgeElement.wedge(one, e1), WedgeElement.wedge(e0, e1)]
            system = aybe_solve(algebra, gens, ("a", "b", "c"), leg_basis=[one, e0, e1])
        else:
            system = aybe_solve(algebra)
        report["parameters"] = list(system.parameter_names)
        report["equations"] = [str(p) for p in system.equations]
        return _emit(report, args, True, time.time() - started)
    if not args.wedge:
        raise UsageError("inner requires --wedge FILE or --aybe-scan")
    try:
        wedge = dpio.load_wedge(args.wedge, algebra)
    except (FileNotFoundError, json.JSONDecodeError, KeyError, IndexError, ValueError, AlgebraError) as e:
        raise UsageError(f"bad wedge file {args.wedge!r}: {e}") from e
    db = inner_bracket(wedge)
    j = aybe_obstruction(wedge)
    weak_ok, _ = weak_jacobi_condition(wedge)
    report["inputs"]["wedge"] = _input_digest(args.wedge)
    report["bracket"] = dpio.bracket_to_json(db, args.algebra)["coeffs"]
    report["aybe_obstruction"] = [[a, b, c, str(v)] for a, b, c, v in j.entries()]
    report["aybe_holds"] = j.is_zero()
    report["weak_jacobi_condition"] = weak_ok
    return _emit(report, args, weak_ok, time.time() - started)


def cmd_induce(args) -> int:
    started = time.time()
    if args.n <= 0:
        raise UsageError(f"--n must be a positive integer, got {args.n}")
    if args.samples <= 0:
        raise UsageError(f"--samples must be a positive integer, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be a finite positive number, got {args.tol}")
    algebra = _load_algebra(args.algebra)
    bracket = _load_bracket(args.bracket, algebra)
    table = induce(bracket, args.n)
    report = {"command": "induce", "n": args.n}
    report["inputs"] = {"algebra": _input_digest(args.algebra), "bracket": _input_digest(args.bracket)}
    report["table"] = dpio.table_to_json(table)["brackets"]
    ok = True
    if args.chart:
        chart = get_chart(args.chart)
        if chart.algebra != algebra or chart.n != args.n:
            raise UsageError(
                f"chart {args.chart} is for algebra {chart.algebra.name} at n={chart.n}"
            )
        bindings = None
        if not bracket.params:
            # bind the chart's bracket coefficient A to the concrete alpha slot C[0][1][0][0]
            bindings = {chart.params[0]: bracket.eval_basis(0, 1).grid[0][0]}
        mode = "numeric" if args.numeric else "exact"
        rep = chart_consistency(
            chart,
            table,
            mode=mode,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            bindings=bindings,
        )
        jac = jacobi_check_bivector(
            chart, mode=mode, samples=args.samples, seed=args.seed, tol=args.tol, bindings=bindings
        )
        ok = rep.ok and jac
        report["chart"] = {
            "name": chart.name,
            "mode": rep.mode,
            "frame": chart.frame,
            "consistency": rep.ok,
            "max_residual": rep.max_residual,
            "failures": [[list(pair), str(residual)] for pair, residual in rep.failures],
            "bivector_jacobi": jac,
            "pi": [[str(entry) for entry in row] for row in chart.bound_bivector(bindings)],
        }
    return _emit(report, args, ok, time.time() - started)


def cmd_hh1(args) -> int:
    started = time.time()
    algebra = _load_guarded(args)
    dim_der, dim_inner, dim_outer = outer_double_derivation_dim(algebra)
    report = {
        "command": "hh1",
        "algebra": args.algebra,
        "inputs": {"algebra": _input_digest(args.algebra)},
        "dim_der": dim_der,
        "dim_inner": dim_inner,
        "dim_outer": dim_outer,
    }
    return _emit(report, args, True, time.time() - started)


def cmd_report(args) -> int:
    """Golden corpus: rerun the classical reference computations, PASS/FAIL per item."""
    from .report import run_golden_report

    started = time.time()
    results = run_golden_report(seed=args.seed)
    ok = all(item["ok"] for item in results)
    report = {"command": "report", "results": results, "all_ok": ok}
    if args.format == "text" and not args.out:
        for item in results:
            status = "PASS" if item["ok"] else "FAIL"
            note = f"  ({item['note']})" if item.get("note") else ""
            print(f"[{status}] {item['name']}{note}")
        print(f"golden corpus: {sum(r['ok'] for r in results)}/{len(results)} pass "
              f"in {time.time() - started:.2f}s")
        return 0 if ok else 1
    return _emit(report, args, ok, time.time() - started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublepoisson",
        description="Exact double Poisson brackets on finite-dimensional algebras",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report to a file")
    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values parsed before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify bracket axioms", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--bracket", required=True)
    p.add_argument("--modified", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="classify brackets on an algebra", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--modified", action="store_true")
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("inner", help="inner brackets and the AYBE obstruction", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--wedge", default=None)
    p.add_argument("--aybe-scan", action="store_true")
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("induce", help="induced Poisson table on Rep_n", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--bracket", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--chart", default=None)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("hh1", help="double-derivation dimension probe", parents=[common])
    p.add_argument("--algebra", required=True)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(func=cmd_hh1)

    p = sub.add_parser("report", help="run the golden paper-reproduction corpus", parents=[common])
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ChartError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
