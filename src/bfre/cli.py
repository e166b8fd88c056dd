"""Command-line front end: solve, resolve and verify problem files.

Problem files are JSON objects with keys ``tnorm`` ({"family", "param"}),
``a_plus``, ``a_minus`` (equal-shape matrices), ``b`` and ``c``.  Exit codes:
0 success (optimum found / no mismatches), 2 infeasible, 1 bad input, cap
exceeded or an inconsistent reduction.

``verify`` compares the solver with the brute-force oracle, which reads the
resolution tables ``solve`` built; on planted instances it also requires an
optimum no costlier than the planted point, a check that does not go
through the tables.  Its random batch cycles through every built-in family.
With ``--json`` it also reports the worst objective gap and the worst row
residual |row_value - b_i| of the optimal answers it checked.

With ``--json`` standard output is one JSON document; the timing line, when
not suppressed, goes to standard error.  It times a command from after it
reads its problem file (``verify``: from its start) up to the line itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time

from .errors import DEFAULT_CAP, CapExceeded, InconsistentReduction
from .optimize import Solution, enumerate_feasible_decomposition, solve
from .oracle import brute_force_optimum, planted_feasible_instance, random_instance
from .resolution import (
    ProblemInstance, build_tables, check_feasibility, row_value, tables_to_json,
)
from .sets import spell
from .simplify import Mode
from .tnorms import validate
from .tolerance import EPS

# Every built-in family; the first four come first so batch labels and draws
# stay where they were when only those four were cycled.
_VERIFY_FAMILIES = (("lukasiewicz", None), ("product", None),
                    ("yager", 2.0), ("hamacher", 1.0),
                    ("frank", 2.0), ("dombi", 2.0), ("schweizer_sklar", -1.0),
                    ("schweizer_sklar", 2.0), ("sugeno_weber", 1.0),
                    ("aczel_alsina", 2.0), ("einstein_product", None))


def load_problem(source) -> ProblemInstance:
    """Build an instance from a dict or a JSON file path."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source) as fh:
            data = json.load(fh)
    if type(data) is not dict:
        raise ValueError(f"problem is {_kind(data)}, not an object")
    for key in ("tnorm", "a_plus", "a_minus", "b", "c"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    tn = data["tnorm"]
    if not isinstance(tn, dict) or "family" not in tn:
        raise ValueError("tnorm must be an object with a 'family' key")
    if "param" in tn:
        _number(tn["param"], "tnorm.param")
    t = validate(tn["family"], tn.get("param"))
    return ProblemInstance(
        [_numbers(row, "a_plus", i) for i, row in enumerate(_array(data["a_plus"], "a_plus"))],
        [_numbers(row, "a_minus", i) for i, row in enumerate(_array(data["a_minus"], "a_minus"))],
        _numbers(data["b"], "b"), _numbers(data["c"], "c"), t,
    )


_NUMBER_TYPES = frozenset((int, float))
_ARRAY_TYPES = frozenset((list, tuple))
_KINDS = {dict: "an object", list: "an array", tuple: "an array", str: "a string",
          int: "a number", float: "a number", bool: "a boolean", type(None): "null"}


def _kind(v) -> str:
    """What the JSON value ``v`` is, in words."""
    return _KINDS.get(type(v), type(v).__name__)


def _number(v, name):
    """Refuse ``v`` unless it is a JSON number, where ``float`` would also
    take "2" or true."""
    if type(v) not in _NUMBER_TYPES:
        raise ValueError(f"{name} is {json.dumps(v, default=repr)}, not a number")


def _array(v, name):
    """``v``, refused unless it is a JSON array, where iterating would also
    take a string or an object's keys."""
    if type(v) not in _ARRAY_TYPES:
        raise ValueError(f"{name} is {_kind(v)}, not an array")
    return v


def _numbers(values, name, row=None) -> list:
    """``values``, an array of JSON numbers, as floats; ``row`` numbers a
    matrix row in the error."""
    if type(values) not in _ARRAY_TYPES or not _NUMBER_TYPES.issuperset(map(type, values)):
        name = name if row is None else f"{name}[{row}]"
        _array(values, name)
        for k, v in enumerate(values):
            _number(v, f"{name}[{k}]")
    return list(map(float, values))


def _print_timing(args, t0):
    """The timing line, the seconds since ``t0``, unless suppressed; with
    --json it goes to stderr so that stdout stays one JSON document."""
    if not args.no_timing:
        seconds = time.perf_counter() - t0
        print(f"time: {seconds:.3f}s", file=sys.stderr if args.json else sys.stdout)


class _BadInput(Exception):
    """A problem file that cannot be read or describes no valid instance."""


def _load(path) -> ProblemInstance:
    """load_problem, with every way a file can be bad turned into _BadInput
    (errors raised later, by the solver itself, are not input errors).
    ``json`` raises RecursionError on arrays or objects nested too deep."""
    try:
        return load_problem(path)
    except (OSError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise _BadInput(exc) from exc


def _print_tables(p, tables):
    names = (("relaxation", "relaxation sets"), ("solution", "solution sets"),
             ("column_interval", "column intervals"), ("restricted", "restricted sets"))
    data = tables_to_json(p, tables)
    header = "      " + " ".join(f"{'x%d' % (j + 1):>10}" for j in tables.col_ids)
    for key, title in names:
        print(f"{title}:")
        print(header)
        if key == "column_interval":
            print("    - " + " ".join(f"{s:>10}" for s in data[key]))
        else:
            for rid, row in zip(tables.row_ids, data[key]):
                print(f"  {rid + 1:>3} " + " ".join(f"{s:>10}" for s in row))
        print()


def _solution_json(sol: Solution, trace: bool) -> dict:
    out = {"status": sol.status.value}
    if sol.optimal:
        out["objective"] = sol.objective
        out["x"] = sol.x
    else:
        out["reason"] = sol.reason.value
        if sol.witness is not None:
            out["witness"] = sol.witness + 1
    if sol.ledger is not None:
        out["presolve"] = sol.ledger.to_json()
    out["search"] = dataclasses.asdict(sol.stats)
    if trace:
        out["trace"] = sol.trace_lines()
    return out


def cmd_solve(args) -> int:
    p = _load(args.path)
    t0 = time.perf_counter()
    mode = Mode.FEASIBILITY_PRESERVING if args.no_simplify else Mode.OPTIMALITY_PRESERVING
    sol = solve(p, mode=mode, record=args.trace)
    if args.json:
        doc = _solution_json(sol, args.trace)
        if args.tables:
            doc["tables"] = tables_to_json(p, sol.tables)
        print(json.dumps(doc, indent=2))
    else:
        print(f"status: {sol.status.value}")
        if sol.optimal:
            print(f"objective: {spell(sol.objective)}")
            print("x*: (" + ", ".join(spell(v) for v in sol.x) + ")")
        else:
            where = f" (index {sol.witness + 1})" if sol.witness is not None else ""
            print(f"reason: {sol.reason.value}{where}")
        if sol.ledger is not None:
            chain = " -> ".join(str(v) for v in sol.ledger.bound_sequence())
            print(f"presolve bound: {chain}")
            fixed = sol.ledger.fixed_assignments()
            if fixed:
                print("fixed: " + ", ".join(f"x{j + 1}={spell(v)}"
                                            for j, v in sorted(fixed.items())))
            for line in sol.ledger.describe():
                print("  " + line)
        s = sol.stats
        print(f"search: created {s.nodes_created}, expanded {s.nodes_expanded}, "
              f"candidates {s.candidates_evaluated}")
        if args.trace:
            for line in sol.trace_lines():
                print(line)
        if args.tables:
            _print_tables(p, sol.tables)
    _print_timing(args, t0)
    return 0 if sol.optimal else 2


def cmd_resolve(args) -> int:
    p = _load(args.path)
    t0 = time.perf_counter()
    tables = build_tables(p)
    report = check_feasibility(tables)
    boxes = enumerate_feasible_decomposition(tables, cap=args.cap) if args.boxes else None
    if args.json:
        doc = {"feasibility": report.status.value}
        if report.witness is not None:
            doc["witness"] = report.witness + 1
        if args.tables:
            doc["tables"] = tables_to_json(p, tables)
        if boxes is not None:
            doc["boxes"] = [
                {"assignment": {str(i + 1): j + 1 for i, j in sorted(a.items())},
                 "box": [str(s) for s in box]}
                for a, box in boxes
            ]
        print(json.dumps(doc, indent=2))
    else:
        print(f"feasibility: {report.status.value}"
              + (f" (index {report.witness + 1})" if report.witness is not None else ""))
        if args.tables:
            _print_tables(p, tables)
        if boxes is not None:
            print(f"feasible boxes: {len(boxes)}")
            for a, box in boxes:
                picks = ",".join(f"{i + 1}->{j + 1}" for i, j in sorted(a.items()))
                print("  e{" + picks + "}: " + " x ".join(str(s) for s in box))
    _print_timing(args, t0)
    return 0 if report.ok else 2


def _compare(p: ProblemInstance, cap: int, planted=None) -> tuple:
    """Solver vs brute force on one instance, and vs the planted point's cost
    when one is given.

    Returns (mismatch strings, |solver - oracle| objective gap, the solver's
    largest row residual |row_value - b_i|); the two numbers are 0.0 unless
    the answer is OPTIMAL.
    """
    sol = solve(p)
    rep = brute_force_optimum(sol.tables, p.c, cap=cap)
    mismatches = []
    gap = residual = 0.0
    if sol.optimal:
        residual = max((abs(row_value(p, i, sol.x) - b) for i, b in enumerate(p.b)),
                       default=0.0)
    if sol.optimal != (rep.optimum is not None):
        mismatches.append(
            f"status: solver={sol.status.value} oracle="
            + ("optimal" if rep.optimum else "infeasible"))
    elif sol.optimal:
        gap = abs(sol.objective - rep.optimum[1])
        if gap > EPS:
            mismatches.append(f"objective: solver={sol.objective!r} oracle={rep.optimum[1]!r}")
    if planted is not None:
        cost = sum((c * v for c, v in zip(p.c, planted)), 0.0)
        if not sol.optimal:
            mismatches.append(f"planted: solver={sol.status.value}, planted point costs {cost!r}")
        elif sol.objective > cost + EPS:
            mismatches.append(f"planted: solver={sol.objective!r} > planted cost {cost!r}")
    return mismatches, gap, residual


def _cases(args):
    """(label, instance, planted point or None) for each instance ``verify``
    checks: the problem file first, then the seeded batch, drawn in turn."""
    if args.path is not None:
        yield "", _load(args.path), None
    if args.seed is not None:
        rng = random.Random(args.seed)
        for k in range(args.count):
            family, param = _VERIFY_FAMILIES[k % len(_VERIFY_FAMILIES)]
            p, planted = (planted_feasible_instance(rng, family, param) if k % 2
                          else (random_instance(rng, family, param), None))
            yield f" [{family} #{k}]", p, planted


def cmd_verify(args) -> int:
    if args.count < 1:
        print(f"error: --count must be at least 1, not {args.count}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    mismatches = []
    checked = planted_checked = 0
    worst_gap = worst_residual = 0.0
    for checked, (label, p, planted) in enumerate(_cases(args), 1):
        found, gap, residual = _compare(p, args.cap, planted)
        planted_checked += planted is not None
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, residual)
        for msg in found:
            mismatches.append(f"mismatch{label}: {msg}")
            if not args.json:
                print(mismatches[-1])
    if checked == 0:
        print("error: give a problem file, --seed, or both", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"checked": checked, "planted_checked": planted_checked,
                          "mismatches": mismatches, "worst_objective_gap": worst_gap,
                          "worst_row_residual": worst_residual},
                         indent=2))
    else:
        print(f"verified {checked} instance(s): "
              + ("all agree" if not mismatches else f"{len(mismatches)} mismatch(es)"))
    _print_timing(args, t0)
    return 0 if not mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfre",
        description="Solve linear optimization over bipolar fuzzy relational "
                    "equation systems with continuous Archimedean t-norms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, func):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--no-timing", action="store_true", help="suppress the timing line")
        sp.set_defaults(func=func)

    sp = sub.add_parser("solve", help="find a global optimum")
    sp.add_argument("path", help="problem JSON file")
    sp.add_argument("--trace", action="store_true",
                    help="print the search trace; it holds every node in memory, "
                         "so it is meant for small searches")
    sp.add_argument("--tables", action="store_true", help="print the resolution tables")
    sp.add_argument("--no-simplify", action="store_true",
                    help="feasibility-preserving presolve only; search all "
                         "admissible assignments")
    common(sp, cmd_solve)

    sp = sub.add_parser("resolve", help="resolve the feasible region")
    sp.add_argument("path", help="problem JSON file")
    sp.add_argument("--tables", action="store_true", help="print the resolution tables")
    sp.add_argument("--boxes", action="store_true", help="enumerate the feasible boxes")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration cap")
    common(sp, cmd_resolve)

    sp = sub.add_parser("verify", help="cross-check the solver against brute force")
    sp.add_argument("path", nargs="?", default=None, help="problem JSON file")
    sp.add_argument("--seed", type=int, default=None, help="also run a random batch")
    sp.add_argument("--count", type=int, default=40, help="batch size for --seed")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help="oracle enumeration cap")
    common(sp, cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (_BadInput, CapExceeded, InconsistentReduction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so that the flush at
        # exit does not raise again ("Note on SIGPIPE" in Python's signal docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
