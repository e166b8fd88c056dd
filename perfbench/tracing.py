"""The traced run: spans around each public layer call, and per-layer metrics.

A traced op replays ``bfre.solve`` stage by stage through the package's
public functions, recording a span around each call.  Spans live in memory
and are written out when the run ends.  The layers are the package modules;
each span name belongs to one of them:

    load_problem                      cli
    build_tables, check_feasibility   resolution
    simplify                          simplify
    branch_and_bound, lift_verify     optimize
    brute_force_optimum               oracle

The t-norm and set-algebra layers are too fine-grained for spans around
every call; their per-call cost is measured by replaying the workload's own
arguments (``kernel_ns``).
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager

RULES = ("ZeroRhsRow", "SingletonColumn", "DominatedRow", "ForcedAssignment",
         "TwoPointRow", "LowerBoundColumn", "FreeColumn", "DominatedColumn")
KERNEL_ARGS = 20000       # replayed arguments per kernel
ORACLE_BLOCK_CAP = 4096   # pick vectors in the row block the oracle replays
ORACLE_BLOCK_INSTANCES = 40
EPS = 1e-9


class Tracer:
    """In-memory spans; the spans of one op share the id of its root span."""

    def __init__(self):
        self.spans = []       # (op, span, parent, name, start, end)
        self._stack = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        op = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((op, sid, parent, name, start, end))

    def self_times(self) -> dict:
        """op id -> {"op": root duration, name: summed self time, ...}."""
        child_time = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        ops = {}
        for op, sid, parent, name, start, end in self.spans:
            d = ops.setdefault(op, {})
            if parent is None:
                d["op"] = end - start
                d["root"] = name
            own = end - start - child_time.get(sid, 0.0)
            d[name] = d.get(name, 0.0) + own
        return ops

    def dump(self, path: str):
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": sid, "parent": parent, "name": name,
                                     "start_s": start, "dur_s": end - start}) + "\n")


def replay(bfre, tr: Tracer, path: str, mode, oracle: bool) -> dict:
    """One traced op: the stages of ``bfre.solve`` (and the oracle of
    ``bfre verify``), called one by one on a freshly loaded problem file."""
    from bfre.cli import load_problem

    out = {"status": "infeasible", "x": None, "objective": None, "oracle": None}
    with tr.span("op"):
        with tr.span("load_problem"):
            p = load_problem(path)
        with tr.span("build_tables"):
            tables = bfre.build_tables(p)
        with tr.span("check_feasibility"):
            report = bfre.check_feasibility(tables)
        out["problem"], out["tables"] = p, tables
        out["early_infeasible"] = not report.ok
        if report.ok:
            with tr.span("simplify"):
                reduced, ledger = bfre.simplify(tables, p.c, mode)
            with tr.span("branch_and_bound"):
                res = bfre.branch_and_bound(
                    reduced, modified=mode is bfre.Mode.OPTIMALITY_PRESERVING)
            out["ledger"], out["reduced"], out["stats"] = ledger, reduced, res.stats
            if res.found:
                with tr.span("lift_verify"):
                    x = reduced.lift(res.x)
                    ok = bfre.is_feasible_point(p, x, tables=tables)
                out["status"] = "optimal" if ok else "inconsistent"
                out["x"] = x
                out["objective"] = sum(c * v for c, v in zip(p.c, x))
        if oracle:
            with tr.span("build_tables"):
                otables = bfre.build_tables(p)
            with tr.span("brute_force_optimum"):
                rep = bfre.brute_force_optimum(otables, p.c)
            out["oracle"] = None if rep.optimum is None else rep.optimum[1]
            out["oracle_count"] = rep.admissible_count
            out["oracle_vectors"] = math.prod(len(s) for s in otables.row_support)
    return out


def oracle_block(bfre, tr: Tracer, p, objective) -> tuple:
    """Brute force over the leading rows whose pick-vector count stays under
    ORACLE_BLOCK_CAP, for workloads whose op never calls the oracle.

    Dropping equations can only enlarge the feasible set, so the block's
    optimum is a lower bound on the full one.  Returns (counts, error).
    """
    tables = None
    for k in range(1, p.m + 1):
        sub = bfre.ProblemInstance(p.a_plus[:k], p.a_minus[:k], p.b[:k], p.c, p.tnorm)
        t = bfre.build_tables(sub)
        if math.prod(len(s) for s in t.row_support) > ORACLE_BLOCK_CAP:
            break
        tables = t
    with tr.span("oracle_block"):
        with tr.span("brute_force_optimum"):
            rep = bfre.brute_force_optimum(tables, p.c)
    counts = {"oracle_count": rep.admissible_count,
              "oracle_vectors": math.prod(len(s) for s in tables.row_support)}
    if objective is None:
        return counts, None
    if rep.optimum is None:
        return counts, f"oracle finds rows 1..{tables.m} infeasible but the solver does not"
    if rep.optimum[1] > objective + EPS * max(1.0, abs(objective)):
        return counts, (f"oracle lower bound {rep.optimum[1]!r} from rows 1..{tables.m} "
                        f"exceeds the solver's optimum {objective!r}")
    return counts, None


def op_counts(out: dict) -> dict:
    """Deterministic per-op counts from one replay."""
    tables = out["tables"]
    cells = tables.m * tables.n
    usable = sum(len(s) for s in tables.row_support)
    c = {"cells": cells, "usable": usable, "early_infeasible": out["early_infeasible"]}
    if "ledger" in out:
        ledger, reduced, stats = out["ledger"], out["reduced"], out["stats"]
        steps = [s.action.rule.value for s in ledger.steps]
        final = ledger.steps[-1].bound_after if ledger.steps else ledger.initial_bound
        c.update(
            steps=len(steps),
            rules={r: steps.count(r) for r in RULES},
            rows_kept_frac=reduced.tables.m / tables.m if tables.m else 1.0,
            log10_bound_drop=_log10(ledger.initial_bound) - _log10(final),
            nodes_created=stats.nodes_created,
            nodes_expanded=stats.nodes_expanded,
            candidates=stats.candidates_evaluated,
        )
    for key in ("oracle_count", "oracle_vectors"):
        if key in out:
            c[key] = out[key]
    return c


def _log10(v: int) -> float:
    return math.log10(v) if v > 0 else 0.0


def kernel_args(out: dict) -> dict:
    """The t-norm and set-algebra calls this op's data implies.

    solve_u gets every (a, b) pair with a >= b that resolution solves;
    evaluate gets every (a, x) pair the equation check of the answer
    evaluates; the set operations get same-column pairs of restricted cells.
    """
    p, tables = out["problem"], out["tables"]
    t = p.tnorm
    solve_u, evaluate, pairs = [], [], []
    for i in range(p.m):
        for j in range(p.n):
            for a in (p.a_plus[i][j], p.a_minus[i][j]):
                if a >= p.b[i] - EPS:
                    solve_u.append((t, a, p.b[i]))
    if out["x"] is not None:
        x = [min(1.0, max(0.0, v)) for v in out["x"]]
        for i in range(p.m):
            for j in range(p.n):
                evaluate.append((t, p.a_plus[i][j], x[j]))
                evaluate.append((t, p.a_minus[i][j], 1.0 - x[j]))
    sp = tables.s_prime
    for j in range(tables.n):
        for i in range(tables.m):
            pairs.append((sp[i][j], sp[(i + 1) % tables.m][j]))
    return {"solve_u": solve_u, "evaluate": evaluate, "sets": pairs}


def no_args() -> dict:
    return {"solve_u": [], "evaluate": [], "sets": []}


def merge_args(acc, new: dict, instances: int) -> dict:
    """Pool kernel arguments over a pass, an even share from each instance,
    at most KERNEL_ARGS per kernel."""
    share = max(1, KERNEL_ARGS // instances)
    acc = acc or no_args()
    for key, vals in new.items():
        acc[key].extend(vals[::max(1, len(vals) // share)][:share])
    return acc


def ns_per_call(fn, args: list, rounds: int = 5, round_s: float = 0.04) -> float:
    """Median over rounds of the per-call time of fn(*a) for a in args."""
    if not args:
        return 0.0

    def one(reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            for a in args:
                fn(*a)
        return time.perf_counter() - t0

    reps = 1
    while (dt := one(reps)) < round_s:
        reps *= 2
    per = [dt / (reps * len(args))]
    per += [one(reps) / (reps * len(args)) for _ in range(rounds - 1)]
    return statistics.median(per) * 1e9


def kernel_ns(bfre, args: dict) -> dict:
    """Per-call cost of the t-norm and set kernels on the replayed arguments."""
    return {
        "tnorms.solve_u_ns": ns_per_call(bfre.solve_u, args["solve_u"]),
        "tnorms.evaluate_ns": ns_per_call(bfre.evaluate, args["evaluate"]),
        "sets.intersect_ns": ns_per_call(lambda a, b: a.intersect(b), args["sets"]),
        "sets.issubset_ns": ns_per_call(lambda a, b: a.issubset(b), args["sets"]),
    }


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, counts: list, untraced_s: list, kernels: dict) -> dict:
    """Per-layer metrics from the spans of every traced op and the counts of
    one pass (one entry per instance).  Times are medians per op over the
    ops that reached the layer; shares and rates are ratios of totals."""
    ops = tr.self_times()
    solve = [d for d in ops.values() if d["root"] == "op"]
    path_s = sum(d["op"] - d["load_problem"] for d in solve)
    spent = lambda name: [d[name] for d in solve if name in d]
    total = lambda name: sum(spent(name))
    oracle_s = [d["brute_force_optimum"] for d in ops.values() if "brute_force_optimum" in d]
    ran = [c for c in counts if "steps" in c]
    searched = [c for c in counts if "oracle_vectors" in c]
    ms = lambda xs: _median(xs) * 1e3
    # counts cover one pass and spans every pass, so rates are per op
    per_op_rate = lambda n, k, secs: _ratio(_ratio(n, k), _ratio(sum(secs), len(secs)))
    m = {
        "simplify.ms": ms(spent("simplify")),
        "simplify.share": _ratio(total("simplify"), path_s),
        "simplify.steps": _median([c["steps"] for c in ran]),
        "simplify.rows_kept_frac": _median([c["rows_kept_frac"] for c in ran]),
        "simplify.log10_bound_drop": _median([c["log10_bound_drop"] for c in ran]),
    }
    for r in RULES:
        m[f"simplify.steps.{r}"] = sum(c["rules"][r] for c in ran)
    created = sum(c["nodes_created"] for c in ran)
    m.update({
        "optimize.bnb_ms": ms(spent("branch_and_bound")),
        "optimize.share": _ratio(total("branch_and_bound"), path_s),
        "optimize.nodes_created": _median([c["nodes_created"] for c in ran]),
        "optimize.nodes_expanded": _median([c["nodes_expanded"] for c in ran]),
        "optimize.candidates": _median([c["candidates"] for c in ran]),
        "optimize.nodes_per_s": per_op_rate(created, len(ran), spent("branch_and_bound")),
        "optimize.expand_frac": _ratio(sum(c["nodes_expanded"] for c in ran), created),
        "optimize.verify_ms": ms(spent("lift_verify")),
        "resolution.build_tables_ms": ms(spent("build_tables")),
        "resolution.check_feasibility_ms": ms(spent("check_feasibility")),
        "resolution.share": _ratio(total("build_tables") + total("check_feasibility"), path_s),
        "resolution.cells": _median([c["cells"] for c in counts]),
        "resolution.usable_cell_frac": _ratio(sum(c["usable"] for c in counts),
                                              sum(c["cells"] for c in counts)),
        "resolution.early_infeasible_frac": _ratio(
            sum(c["early_infeasible"] for c in counts), len(counts)),
    })
    m.update(kernels)
    m.update({
        "oracle.brute_force_ms": ms(oracle_s),
        "oracle.admissible_count": _median([c["oracle_count"] for c in searched]),
        "oracle.vectors_per_s": per_op_rate(sum(c["oracle_vectors"] for c in searched),
                                            len(searched), oracle_s),
        "cli.load_problem_ms": ms(spent("load_problem")),
        "trace.overhead_frac": _ratio(path_s, sum(untraced_s)) - 1.0,
    })
    return m
