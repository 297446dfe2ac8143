"""Layer spans and counters taken from outside the program.

`Tracer.install()` replaces the program's public functions and methods with
timing wrappers, in every doublepoisson module that holds a reference to
them (so `cli.solve_linear` is wrapped as well as `solver.solve_linear`), and
`uninstall()` puts the originals back.  Nothing under src/ is edited.

Each wrapped call is a frame on a stack.  A frame's self time is its
duration minus the time of the frames nested in it, so the self times of
all layers add up to the traced time.  Coarse calls are also kept as spans
(id, name, layer, start, end, parent, job) in memory; hot calls (row
elimination, row assembly) are aggregated only.  Counters are read from
arguments and results; the reading is bookkeeping whose time is kept out of
every layer's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute or Class.method, layer, keep spans)
TARGETS = [
    ("cli", "main", "cli.self", True),
    ("io", "load_algebra", "io.load", True),
    ("io", "algebra_from_json", "io.load", True),
    ("io", "bracket_from_json", "io.load", True),
    ("io", "load_wedge", "io.load", True),
    ("io", "dump_json", "io.dump", True),
    ("io", "variety_to_json", "io.dump", True),
    ("io", "table_to_json", "io.dump", True),
    ("io", "bracket_to_json", "io.dump", True),
    ("algebra", "resolve_preset", "algebra.construct", True),
    ("algebra", "FDAlgebra.__post_init__", "algebra.construct", True),
    ("solver", "solve_linear", "solver.assemble", True),
    ("solver", "solve_modified_linear", "solver.assemble", True),
    ("solver", "double_derivation_space", "solver.assemble", True),
    ("solver", "outer_double_derivation_dim", "solver.assemble", True),
    ("solver", "inner_bracket_span_equality", "solver.assemble", True),
    ("solver", "jacobi_constraints", "solver.jacobi", True),
    ("solver", "h0_jacobi_constraints", "solver.jacobi", True),
    ("linalg", "nullspace_of_rows", "linalg.nullspace", True),
    ("linalg", "SparseEliminator.nullspace", "linalg.nullspace", True),
    ("linalg", "SparseEliminator.reduced_pivot_rows", "linalg.backsub", True),
    ("linalg", "SparseEliminator.add_row", "linalg.eliminate", False),
    ("linalg", "rank_of_vectors", "linalg.rank", True),
    ("linalg", "subspaces_equal", "linalg.rank", True),
    ("linalg", "in_span", "linalg.rank", True),
    ("brackets", "DoubleBracket.check_all", "brackets.linear_check", True),
    ("brackets", "DoubleBracket.check_skew", "brackets.linear_check", True),
    ("brackets", "DoubleBracket.check_leibniz", "brackets.linear_check", True),
    ("brackets", "CoefficientBracket.check_second_leibniz", "brackets.linear_check", True),
    ("brackets", "DoubleBracket.check_jacobi", "brackets.jacobi_check", True),
    ("modified", "ModifiedBracket.check_leibniz_both", "modified.check", True),
    ("modified", "h0_skew_check", "modified.check", True),
    ("modified", "h0_jacobi_check", "modified.check", True),
    ("modified", "flat_bracket", "modified.flat", True),
    ("inner", "inner_bracket", "inner.bracket", True),
    ("inner", "wedge_basis", "inner.bracket", True),
    ("inner", "aybe_obstruction", "inner.aybe", True),
    ("inner", "weak_jacobi_condition", "inner.aybe", True),
    ("inner", "aybe_solve", "inner.aybe", True),
    ("repspace", "induce", "repspace.induce", True),
    ("repspace", "get_chart", "repspace.chart", True),
    ("repspace", "chart_consistency", "repspace.chart", True),
    ("repspace", "jacobi_check_bivector", "repspace.chart", True),
    ("repspace", "ParamChart.sample_points", "repspace.chart", True),
    ("report", "run_golden_report", "report.golden", True),
]

#: Methods counted but not timed: they run millions of times in the Jacobi stage.
COUNTED = [("poly", "MultiPoly.__mul__", "poly.mul_calls"), ("poly", "MultiPoly.__rmul__", "poly.mul_calls")]

PACKAGE = "doublepoisson"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = None
        self.stack: list[list] = []  # [layer, start, child time, span id]
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.constraints: list = []  # MultiPoly constraints, ranked after the timed region
        self._patches: list[tuple] = []
        self._ids = 0
        self.frames = 0

    # -- frames -------------------------------------------------------------------

    def enter(self, layer: str, keep: bool = True) -> None:
        self.frames += 1
        span_id = None
        if keep:
            self._ids += 1
            span_id = self._ids
        self.stack.append([layer, self.clock(), 0.0, span_id])

    def leave(self, name: str | None = None) -> None:
        end = self.clock()
        layer, start, child, span_id = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, name or layer, layer, start, end, self._parent(), self.job))

    def _parent(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    @contextmanager
    def bookkeeping(self):
        """Time spent here counts as a child of the current frame, of no layer."""
        start = self.clock()
        try:
            yield
        finally:
            duration = self.clock() - start
            if self.stack:
                self.stack[-1][2] += duration
            self.self_s["trace.bookkeeping"] += duration

    # -- wrappers ---------------------------------------------------------------------

    def _wrap(self, orig, name: str, layer: str, keep: bool):
        tracer = self
        # optional counter hooks, named after the wrapped function
        before = getattr(self, "_before_" + name.rsplit(".", 1)[-1], None)
        after = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)

        def wrapper(*args, **kwargs):
            if before is not None:
                with tracer.bookkeeping():
                    args, kwargs = before(args, kwargs)
            tracer.enter(layer, keep)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.leave(name)
            if after is not None:
                with tracer.bookkeeping():
                    after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def _count(self, orig, counter: str):
        counts = self.counts

        def wrapper(*args):
            counts[counter] += 1
            return orig(*args)

        wrapper.__wrapped__ = orig
        return wrapper

    def cost_s(self, samples: int = 20000) -> float:
        """Time the tracing added to the traced run.

        Each frame and each counted call is charged the measured extra cost
        of a wrapped over a plain call of an empty function; bookkeeping time
        was measured directly.
        """
        probe = Tracer(self.clock)

        def noop():
            pass

        def per_call(fn) -> float:
            start = self.clock()
            for _ in range(samples):
                fn()
            return (self.clock() - start) / samples

        base = per_call(noop)
        per_frame = max(per_call(probe._wrap(noop, "probe", "probe", True)) - base, 0.0)
        per_count = max(per_call(probe._count(noop, "probe")) - base, 0.0)
        counted = sum(self.counts[c] for c in {c for _, _, c in COUNTED})
        return self.frames * per_frame + counted * per_count + self.self_s["trace.bookkeeping"]

    def install(self) -> None:
        modules = {
            name[len(PACKAGE) + 1:]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and mod is not None
        }
        holders = [sys.modules[PACKAGE]] + list(modules.values())
        for modname, attr, layer, keep in TARGETS:
            owner, _, name = attr.rpartition(".")
            if owner:  # a method: wrap it on its class
                cls = getattr(modules[modname], owner)
                self._replace(cls, name, self._wrap(vars(cls)[name], f"{modname}.{attr}", layer, keep))
                continue
            # a function: wrap it in every module that imported it
            orig = getattr(modules[modname], name)
            wrapper = self._wrap(orig, f"{modname}.{attr}", layer, keep)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._replace(holder, key, wrapper)
        for modname, attr, counter in COUNTED:
            owner, _, name = attr.rpartition(".")
            cls = getattr(modules[modname], owner)
            self._replace(cls, name, self._count(vars(cls)[name], counter))

    def _replace(self, holder, key: str, value) -> None:
        self._patches.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, orig = self._patches.pop()
            setattr(holder, key, orig)

    # -- counters read from arguments and results ---------------------------------------

    def _before_nullspace_of_rows(self, args, kwargs):
        rows, ncols = args
        self.counts["solver.unknowns"] += ncols
        return (self._assembled(rows), ncols), kwargs

    def _assembled(self, rows):
        """The row iterable, its production timed as the solver's row assembly."""
        it = iter(rows)
        while True:
            self.enter("solver.assemble", keep=False)
            try:
                row = next(it)
            except StopIteration:
                return
            finally:
                self.leave()
            self.counts["solver.rows"] += 1
            yield row

    def _after_nullspace_of_rows(self, args, kwargs, result):
        self.counts["solver.nullspace_dim"] += len(result)
        self.counts["solver.rank"] += args[1] - len(result)

    def _before_reduced_pivot_rows(self, args, kwargs):
        pivot_rows = args[0].pivot_rows
        self.counts["linalg.pivot_nnz"] += sum(len(r) for r in pivot_rows.values())
        bits = max((abs(v).bit_length() for r in pivot_rows.values() for v in r.values()), default=0)
        self.counts["linalg.max_coeff_bits"] = max(self.counts["linalg.max_coeff_bits"], bits)
        return args, kwargs

    def _after_nullspace(self, args, kwargs, result):
        self.counts["linalg.rank"] += len(args[0].pivot_rows)

    def _after_rank_of_vectors(self, args, kwargs, result):
        self.counts["linalg.rank"] += result

    def _after_jacobi_constraints(self, args, kwargs, result):
        self.counts["solver.constraints"] += len(result.quadratic_constraints)
        self.constraints.append(result.quadratic_constraints)

    _after_h0_jacobi_constraints = _after_jacobi_constraints

    def _after___post_init__(self, args, kwargs, result):
        self.counts["algebra.builds"] += 1

    def _after_check_all(self, args, kwargs, result):
        self.counts["brackets.residuals"] += len(result.residuals)

    def _after_induce(self, args, kwargs, result):
        self.counts["repspace.table_entries"] += sum(not p.is_zero() for p in result.table.values())

    def _after_sample_points(self, args, kwargs, result):
        self.counts["repspace.samples"] += len(result)
