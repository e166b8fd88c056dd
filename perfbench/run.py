#!/usr/bin/env python3
"""Benchmark of the bfre solver: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload search_cover --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.  It
generates the workload's problem files from the seed, times a fresh process
that imports ``bfre`` and loads them, then runs one client that issues each
op only after the previous one returns.  The loop makes whole passes over
the instances until ``--seconds`` have elapsed, so every instance weighs the
same in every statistic.  End-to-end times are scaled to a reference machine
speed (see SpeedGauge).  Every op's answer goes through the correctness
gate.  ``--trace 1`` also replays each op stage by stage with spans around
the layer calls and reports per-layer metrics, in unscaled wall time.

The human-readable report names every metric with its unit; the last line
of standard output is one JSON object.  The exit code is 1 when any op
failed its correctness check or a workload-shape guard failed, 2 when the
package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, calibration_problem, calibration_round, row_values,
)

DEFAULT_SEED = 1
SETUP_REPEATS = 6
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10          # instances that must lie beyond the tail percentile
TOL = 1e-9
CAL_EVERY_S = 0.02        # longest gap between two calibration rounds
CAL_REF_S = 450e-6        # one calibration round on the reference machine
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "_out")

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simplify.ms": "ms", "simplify.share": "ratio", "simplify.steps": "count",
    "simplify.rows_kept_frac": "ratio", "simplify.log10_bound_drop": "log10",
    **{f"simplify.steps.{r}": "count" for r in tracing.RULES},
    "optimize.bnb_ms": "ms", "optimize.share": "ratio", "optimize.nodes_created": "count",
    "optimize.nodes_expanded": "count", "optimize.candidates": "count",
    "optimize.nodes_per_s": "1/s", "optimize.expand_frac": "ratio", "optimize.verify_ms": "ms",
    "resolution.build_tables_ms": "ms", "resolution.check_feasibility_ms": "ms",
    "resolution.share": "ratio", "resolution.cells": "count",
    "resolution.usable_cell_frac": "ratio", "resolution.early_infeasible_frac": "ratio",
    "tnorms.solve_u_ns": "ns", "tnorms.evaluate_ns": "ns",
    "sets.intersect_ns": "ns", "sets.issubset_ns": "ns",
    "oracle.brute_force_ms": "ms", "oracle.admissible_count": "count",
    "oracle.vectors_per_s": "1/s", "cli.load_problem_ms": "ms", "trace.overhead_frac": "ratio",
}


def load_bfre():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bfre", "__init__.py")):
        print(f"error: no bfre package under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import bfre
    if os.path.dirname(os.path.dirname(os.path.abspath(bfre.__file__))) != SRC:
        print(f"error: imported bfre from {bfre.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return bfre


class SpeedGauge:
    """Times a fixed calibration round between ops and scales each op's
    wall time to the reference machine speed.

    This machine is shared: for seconds or minutes at a time the same code
    runs up to 1.8x slower, with CPU time equal to wall time, so raw op times
    move by 30% between runs.  A round timed right before and right after an
    op tracks that speed; an op's time times CAL_REF_S over the mean of those
    two rounds is its time on the reference machine.
    """

    def __init__(self):
        self.problem, self.x = calibration_problem()
        self.last = self.last_at = None
        self.pending = []       # (instance, wall seconds) since the last round
        self.scaled = {}        # instance -> op times at reference speed
        self.wall = {}          # instance -> unscaled op times

    def round(self):
        at = time.perf_counter()
        took = calibration_round(self.problem, self.x)
        if self.pending:
            factor = 2 * CAL_REF_S / (self.last + took)
            for key, dt in self.pending:
                self.scaled.setdefault(key, array("d")).append(dt * factor)
                self.wall.setdefault(key, array("d")).append(dt)
            self.pending = []
        self.last, self.last_at = took, at

    def before_op(self):
        if self.last_at is None or time.perf_counter() - self.last_at >= CAL_EVERY_S:
            self.round()

    def record(self, key, dt: float):
        self.pending.append((key, dt))


class Instance:
    def __init__(self, index, problem, planted, path):
        self.index = index
        self.problem = problem
        self.planted = planted
        self.path = path
        self.p = None          # the ProblemInstance loaded through the CLI loader


def write_instances(workload, seed, smoke, workdir) -> list:
    out = []
    for k, (problem, planted) in enumerate(workload.instances(seed, smoke)):
        path = os.path.join(workdir, f"inst-{k:05d}.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        out.append(Instance(k, problem, planted, path))
    return out


def measure_setup(workdir, repeats: int) -> list:
    """Seconds each of ``repeats`` fresh processes takes to import bfre and
    load every problem file, at reference speed (see SpeedGauge)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workdir]
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        raw, cal = map(float, done.stdout.split()[-2:])
        times.append(raw * CAL_REF_S / cal)
    return times


def reference_for(workload, seed, smoke):
    """Stored (status, objective) per instance; only the default seed has one."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["smoke" if smoke else "full"][workload.name]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def gate(inst: Instance, sol, oracle_optimum, ref) -> str | None:
    """Why this op's answer is wrong, or None.

    Checks the answer against the original equations evaluated directly,
    c . x, the planted feasible point (an upper bound), the stored reference
    for the default seed and, where the op ran it, the brute-force oracle.
    """
    prob = inst.problem
    status = sol.status.value
    if ref is not None:
        want, want_obj = ref
        if status != want:
            return f"status {status} != reference {want}"
        if want == "optimal" and not close(sol.objective, want_obj):
            return f"objective {sol.objective!r} != reference {want_obj!r}"
    if oracle_optimum is not False:
        if sol.optimal != (oracle_optimum is not None):
            return f"status {status} disagrees with the oracle"
        if sol.optimal and not close(sol.objective, oracle_optimum):
            return f"objective {sol.objective!r} != oracle {oracle_optimum!r}"
    if inst.planted is not None:
        if not sol.optimal:
            return f"status {status}, but the planted point is feasible"
        bound = sum(c * v for c, v in zip(prob["c"], inst.planted))
        if sol.objective > bound + TOL * max(1.0, bound):
            return f"objective {sol.objective!r} exceeds the planted point's {bound!r}"
    if sol.optimal:
        x = sol.x
        if len(x) != len(prob["c"]) or any(not -TOL <= v <= 1.0 + TOL for v in x):
            return "x has the wrong length or leaves [0, 1]"
        xc = [min(1.0, max(0.0, v)) for v in x]
        for i, (lhs, b) in enumerate(zip(row_values(prob, xc), prob["b"])):
            if abs(lhs - b) > TOL:
                return f"equation {i + 1}: lhs {lhs!r} != b {b!r}"
        if not close(sol.objective, sum(c * v for c, v in zip(prob["c"], x))):
            return f"objective {sol.objective!r} != c . x"
    return None


def make_op(bfre, workload):
    """One op: a solve, plus the brute-force oracle for ``bfre verify`` ops.
    Returns (Solution, oracle optimum or None, or False when not run)."""
    mode = (bfre.Mode.FEASIBILITY_PRESERVING if workload.mode == "feasibility"
            else bfre.Mode.OPTIMALITY_PRESERVING)
    if workload.oracle:
        def op(p):
            sol = bfre.solve(p, mode=mode)
            rep = bfre.brute_force_optimum(bfre.build_tables(p), p.c)
            return sol, None if rep.optimum is None else rep.optimum[1]
    else:
        def op(p):
            return bfre.solve(p, mode=mode), False
    return op, mode


def replay_mismatch(sol, oracle_optimum, out) -> str | None:
    """Whether the traced stage-by-stage replay reproduced the op."""
    if out["status"] != sol.status.value:
        return f"replay status {out['status']} != solve {sol.status.value}"
    if sol.optimal and (out["x"] != sol.x or out["objective"] != sol.objective):
        return "replay x or objective differs from solve"
    if oracle_optimum is not False and out["oracle"] != oracle_optimum:
        return "replayed oracle differs"
    return None


def percentile(sorted_vals: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_level(instances: int) -> float:
    """Highest ladder percentile with TAIL_BEYOND instances beyond it.

    Fixed by the instance count, not the op count, so a faster program (more
    passes) reports the same percentile."""
    return next((q for q in TAIL_LADDER if instances * (1 - q / 100) >= TAIL_BEYOND), 50.0)


def shape_guards(workload, first_pass: list) -> list:
    """Count-based checks that the workload still loads the layer it is for."""
    problems = []
    if workload.name == "search_cover":
        if any(s["rows_removed"] for s in first_pass):
            problems.append("presolve removed rows from a cover instance")
        nodes = statistics.median(s["nodes_created"] for s in first_pass)
        if nodes < 1000:
            problems.append(f"median nodes_created {nodes} < 1000")
    elif workload.name == "presolve_random":
        if not any("DominatedRow" in s["rules"] for s in first_pass):
            problems.append("no ledger contains a DominatedRow step")
    elif workload.name == "verify_small":
        families = {s["family"] for s in first_pass}
        if len(families) != 10:
            problems.append(f"only {len(families)} of 10 families")
        if {s["status"] for s in first_pass} != {"optimal", "infeasible"}:
            problems.append("outcomes are not both optimal and infeasible")
    return problems


def run(args) -> dict:
    bfre = load_bfre()
    workload = WORKLOADS[args.workload]
    op, mode = make_op(bfre, workload)
    from bfre.cli import load_problem

    workdir = tempfile.mkdtemp(prefix="_work-", dir=HERE)
    try:
        instances = write_instances(workload, args.seed, args.smoke, workdir)
        measure_setup(workdir, 1)                # warm-up: compiles bytecode
        # half the probes before the loop and half after, so the median
        # spans the machine's slow and fast spells
        setup = measure_setup(workdir, SETUP_REPEATS // 2)
        for inst in instances:
            inst.p = load_problem(inst.path)
        ref = reference_for(workload, args.seed, args.smoke)
        tr = tracing.Tracer() if args.trace else None

        op(instances[0].p)                       # warm-up, not counted
        failures, attempted, first_pass = [], 0, []
        traced = {"counts": [], "untraced": [], "args": None}

        gauge = SpeedGauge()

        def one_op(inst, first):
            gauge.before_op()
            t0 = time.perf_counter()
            sol, oracle_optimum = op(inst.p)
            dt = time.perf_counter() - t0
            why = gate(inst, sol, oracle_optimum, ref and ref[inst.index])
            if tr is not None and why is None:
                traced["untraced"].append(dt)
                why = traced_op(bfre, tr, workload, mode, inst, sol, oracle_optimum,
                                first, traced, len(instances))
            return dt, sol, why

        passes, start = 0, time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for inst in instances:
                attempted += 1
                try:
                    dt, sol, why = one_op(inst, passes == 0)
                except Exception as exc:     # a crashing op is a failed op
                    why = f"{type(exc).__name__}: {exc}"
                if why is not None:
                    failures.append((inst.index, why))
                    continue
                gauge.record(inst.index, dt)
                if passes == 0:
                    first_pass.append(summary(inst, sol))
            passes += 1
            now = time.perf_counter()
            # whole passes only: stop at the pass boundary nearest --seconds
            if (now - start) + (now - pass_start) / 2 >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        gauge.round()
        setup += measure_setup(workdir, SETUP_REPEATS - len(setup))
        guards = [] if args.smoke else shape_guards(workload, first_pass)
        result = {
            "workload": workload.name, "seed": args.seed, "passes": passes,
            "instances": len(instances), "elapsed_s": elapsed, "attempted": attempted,
            "failures": failures, "guards": guards,
            "e2e": e2e_metrics(gauge.scaled, setup, len(instances)),
            "wall_ms_p50": percentile(sorted(statistics.median(ts) for ts in gauge.wall.values()),
                                      50.0) * 1e3,
        }
        if tr is not None:
            kernels = tracing.kernel_ns(bfre, traced["args"] or tracing.no_args())
            result["layers"] = tracing.layer_metrics(tr, traced["counts"], traced["untraced"],
                                                     kernels)
            os.makedirs(OUT_DIR, exist_ok=True)
            result["spans_file"] = os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl")
            tr.dump(result["spans_file"])
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_op(bfre, tr, workload, mode, inst, sol, oracle_optimum, first, traced, n):
    """Replay one op with spans.  On the first pass also keep its counts and
    kernel arguments, and for workloads whose op has no oracle run the
    oracle on a row block of the first few instances."""
    out = tracing.replay(bfre, tr, inst.path, mode, workload.oracle)
    why = replay_mismatch(sol, oracle_optimum, out)
    if why is None and first:
        c = tracing.op_counts(out)
        if not workload.oracle and inst.index < tracing.ORACLE_BLOCK_INSTANCES:
            block, why = tracing.oracle_block(bfre, tr, out["problem"], out["objective"])
            c.update(block)
        traced["counts"].append(c)
        traced["args"] = tracing.merge_args(traced["args"], tracing.kernel_args(out), n)
    return why


def summary(inst, sol) -> dict:
    """What the shape guards need from one answer."""
    ledger = sol.ledger
    return {
        "family": inst.problem["tnorm"]["family"],
        "status": sol.status.value,
        "nodes_created": sol.stats.nodes_created,
        "rows_removed": sum(len(s.action.rows) for s in ledger.steps) if ledger else 0,
        "rules": sorted({s.action.rule.value for s in ledger.steps}) if ledger else [],
    }


def e2e_metrics(times: dict, setup: list, instances: int) -> dict:
    """Op-time statistics over instances, each at the median of its passes
    at reference speed.  ops_per_s is a whole pass's op count over its
    summed op time, so slow instances weigh more than in p50."""
    per = sorted(statistics.median(ts) for ts in times.values())
    q = tail_level(instances)
    return {
        "setup_s": statistics.median(setup),
        "op_ms_p50": percentile(per, 50.0) * 1e3,
        "op_ms_tail": percentile(per, q) * 1e3,
        "ops_per_s": len(per) / sum(per) if per else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_q": q,
        "ops": sum(len(ts) for ts in times.values()),
    }


def report(result: dict, trace: bool) -> tuple:
    """Print the human-readable report; return (correct, metrics for JSON)."""
    e = result["e2e"]
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {result['workload']}  seed {result['seed']}  instances "
          f"{result['instances']}  passes {result['passes']}  ops {attempted}  "
          f"measured {result['elapsed_s']:.1f} s  trace {int(trace)}")
    beyond = round(result["instances"] * (1 - e["tail_q"] / 100))
    notes = {
        "op_ms_tail": f"p{e['tail_q']:g}: {beyond} of {result['instances']} instances "
                      f"beyond it, {e['ops']} ops",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "op_ms_p50": f"unscaled wall time {result['wall_ms_p50']:.6g} ms",
    }
    print("end to end" + (" (untraced ops of this traced run)" if trace else ""))
    for name, unit in END_TO_END.items():
        print(f"  {name:34s} {e[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':34s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"{failed} of {attempted} ops")
    if trace:
        print("per layer")
        for name, unit in PER_LAYER.items():
            print(f"  {name:34s} {result['layers'][name]:>14.6g} {unit}")
        print(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    for index, why in result["failures"][:20]:
        print(f"FAILED instance {index}: {why}", file=sys.stderr)
    for problem in result["guards"]:
        print(f"SHAPE GUARD: {problem}", file=sys.stderr)
    declared, values = (PER_LAYER, result["layers"]) if trace else (END_TO_END, e)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    return failed == 0 and not result["guards"], metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    correct, metrics = report(result, bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
