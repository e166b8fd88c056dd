"""Self-tests of the benchmark: deterministic generators, a gate that
rejects wrong answers, metric names that match BENCHMARK.json, and a smoke
run of every workload in both modes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import WORKLOADS, row_values  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_generators_are_deterministic_per_seed():
    for w in WORKLOADS.values():
        first = w.instances(5, smoke=True)
        assert first == w.instances(5, smoke=True)
        assert first != w.instances(6, smoke=True)


def test_full_size_instances_are_deterministic_per_seed():
    w = WORKLOADS["search_cover"]
    assert w.instances(3)[:5] == w.instances(3)[:5]


def test_planted_points_satisfy_every_equation():
    for w in WORKLOADS.values():
        for problem, planted in w.instances(7, smoke=True):
            if planted is not None:
                lhs = row_values(problem, planted)
                assert all(abs(v - b) <= 1e-9 for v, b in zip(lhs, problem["b"]))


def test_gate_rejects_a_wrong_answer():
    bfre = run.load_bfre()
    from bfre.cli import load_problem

    w = WORKLOADS["search_cover"]
    problem, planted = w.instances(1, smoke=True)[0]
    inst = run.Instance(0, problem, planted, None)
    sol = bfre.solve(load_problem(problem))
    assert run.gate(inst, sol, False, None) is None
    sol.objective += 1e-6
    assert run.gate(inst, sol, False, None) is not None
    sol.objective -= 1e-6
    sol.x[0] = 1.0 - sol.x[0]
    assert run.gate(inst, sol, False, None) is not None


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    done = bench("--workload", workload, "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f"{name} " in done.stdout and unit in done.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_out", "_work-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "verify_small", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_per_layer_counts_repeat_for_a_seed():
    def counts():
        done = bench("--workload", "search_cover", "--seconds", "0.2", "--trace", "1", "--smoke")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.startswith(("optimize.nodes_created", "optimize.nodes_expanded",
                                 "simplify.steps", "oracle.admissible_count"))}

    first = counts()
    assert len(first) == 12 and first == counts()
