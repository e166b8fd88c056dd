import dataclasses
import json
import os
import subprocess
import sys

import pytest

import bfre
from bfre import example_path, validate
from bfre.cli import load_problem, main
from bfre.resolution import row_value

TOL = 1e-9
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def problem_to_dict(p):
    tn = {"family": p.tnorm.family.value}
    if p.tnorm.param is not None:
        tn["param"] = p.tnorm.param
    return {"tnorm": tn, "a_plus": [list(r) for r in p.a_plus],
            "a_minus": [list(r) for r in p.a_minus], "b": list(p.b), "c": list(p.c)}


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def tiny_problem(**overrides):
    data = {
        "tnorm": {"family": "lukasiewicz"},
        "a_plus": [[0.9]],
        "a_minus": [[0.2]],
        "b": [0.5],
        "c": [1.0],
    }
    data.update(overrides)
    return data


class TestProblemFiles:
    def test_round_trip(self):
        p = load_problem(example_path())
        again = load_problem(problem_to_dict(p))
        assert problem_to_dict(again) == problem_to_dict(p)

    def test_missing_key(self, tmp_path):
        path = write_problem(tmp_path, {k: v for k, v in tiny_problem().items() if k != "b"})
        assert main(["solve", path]) == 1

    def test_bad_family(self, tmp_path, capsys):
        # the family is refused for itself, with no word on a parameter
        for family, message in [("minimum", "unknown t-norm family 'minimum'"),
                                (["yager"], "t-norm family ['yager'] is not a string"),
                                (None, "t-norm family None is not a string")]:
            path = write_problem(tmp_path, tiny_problem(tnorm={"family": family}))
            assert main(["solve", path, "--no-timing"]) == 1
            assert capsys.readouterr().err == f"error: {message}\n", family

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("command", ["solve", "resolve", "verify"])
    def test_non_list_matrix_one_line_error(self, tmp_path, capsys, command):
        path = write_problem(tmp_path, tiny_problem(a_plus=5))
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "resolve", "verify"])
    def test_equation_over_no_variables(self, tmp_path, capsys, command):
        path = write_problem(tmp_path, tiny_problem(a_plus=[[]], a_minus=[[]], b=[0.0], c=[]))
        assert main([command, path, "--no-timing"]) == 1
        assert capsys.readouterr().err == "error: 1 equation(s) over no variables\n"

    @pytest.mark.parametrize("command", ["solve", "resolve", "verify"])
    def test_deeply_nested_file_one_line_error(self, tmp_path, capsys, command):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(path), "--no-timing"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")])
    def test_non_finite_cost(self, tmp_path, capsys, cost):
        # json writes these as the NaN / Infinity literals, which json.load accepts
        path = write_problem(tmp_path, tiny_problem(c=[cost]))
        assert main(["solve", path, "--no-timing"]) == 1
        assert capsys.readouterr().err == "error: c[0] not finite\n"

    def test_cost_sum_overflow_one_line_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, tiny_problem(
            a_plus=[[0.9] * 9], a_minus=[[0.2] * 9], c=[1e308] * 9))
        assert main(["solve", path, "--no-timing"]) == 1
        assert capsys.readouterr().err == "error: sum of c overflows the float range\n"

    @pytest.mark.parametrize("tnorm,message", [
        ({"family": "yager", "param": float("inf")},
         "yager: parameter inf not allowed (finite 0.01 <= p <= 100)"),
        ({"family": "schweizer_sklar", "param": float("nan")},
         "schweizer_sklar: parameter nan not allowed (finite -25 <= p <= 5, p != 0)"),
    ])
    def test_non_finite_parameter(self, tmp_path, capsys, tnorm, message):
        path = write_problem(tmp_path, tiny_problem(tnorm=tnorm))
        assert main(["solve", path, "--no-timing"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value,spelled", [("2", '"2"'), (True, "true"), (None, "null")])
    @pytest.mark.parametrize("field,where", [
        ("a_plus", "a_plus[0][0]"), ("a_minus", "a_minus[0][0]"), ("b", "b[0]"), ("c", "c[0]"),
        ("param", "tnorm.param"),
    ])
    def test_non_number_refused(self, tmp_path, capsys, field, where, value, spelled):
        # float() would read "2" as 2.0 and true as 1.0
        if field == "param":
            data = tiny_problem(tnorm={"family": "yager", "param": value})
        elif field in ("a_plus", "a_minus"):
            data = tiny_problem(**{field: [[value]]})
        else:
            data = tiny_problem(**{field: [value]})
        path = write_problem(tmp_path, data)
        assert main(["solve", path, "--no-timing"]) == 1
        assert capsys.readouterr().err == f"error: {where} is {spelled}, not a number\n"

    @pytest.mark.parametrize("data,message", [
        (tiny_problem(b=None), "b is null, not an array"),
        (tiny_problem(a_plus=[0.5]), "a_plus[0] is a number, not an array"),
        (tiny_problem(a_minus=[[0.2], "ab"]), "a_minus[1] is a string, not an array"),
        (tiny_problem(a_plus="ab"), "a_plus is a string, not an array"),
        (tiny_problem(b="0.5"), "b is a string, not an array"),
        (tiny_problem(c={"0": 1}), "c is an object, not an array"),
        (tiny_problem(a_minus=True), "a_minus is a boolean, not an array"),
        ([tiny_problem()], "problem is an array, not an object"),
        ("problem", "problem is a string, not an object"),
    ])
    def test_malformed_shape_refused(self, tmp_path, capsys, data, message):
        # iterating would read a string as characters and an object as its keys
        path = write_problem(tmp_path, data)
        assert main(["solve", path, "--no-timing"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_integers_are_numbers(self, tmp_path):
        data = tiny_problem(tnorm={"family": "yager", "param": 2}, a_plus=[[1]], c=[3])
        p = load_problem(data)
        assert p.tnorm.param == 2.0 and p.a_plus == [[1.0]] and p.c == [3.0]
        assert type(p.a_plus[0][0]) is float

    def test_integer_too_large_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(tiny_problem(c=[0])).replace('"c": [0]', '"c": [' + "9" * 400 + "]"))
        assert main(["solve", str(path), "--no-timing"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "resolve"])
    @pytest.mark.parametrize("family,param", [
        ("frank", 1e-300), ("dombi", 1e61), ("schweizer_sklar", -933.0), ("aczel_alsina", 1e300),
        ("yager", 1000.0),
    ])
    def test_extreme_parameter_one_line_error(self, tmp_path, capsys, command, family, param):
        path = write_problem(tmp_path, tiny_problem(tnorm={"family": family, "param": param}))
        assert main([command, path, "--no-timing"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {family}: parameter ") and err.count("\n") == 1

    def test_inconsistent_reduction_one_line_error(self, tmp_path, capsys):
        # at yager(0.01) T(a, ·) climbs from 0 to a within one float of 1, so
        # the tables admit a point that the direct check of the answer rejects
        path = write_problem(tmp_path, tiny_problem(
            tnorm={"family": "yager", "param": 0.01},
            a_plus=[[0.45, 0.3, 0.25, 0.9, 0.6]], a_minus=[[0.75, 0.3, 0.55, 0.6, 0.9]],
            b=[0.3], c=[1.0] * 5))
        assert main(["solve", path, "--no-timing"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: direct and table feasibility criteria disagree")
        assert err.count("\n") == 1


class TestExampleInstance:
    def test_matches_the_bundled_file(self):
        p, q = bfre.example_instance(), load_problem(example_path())
        for field in dataclasses.fields(p):
            assert getattr(p, field.name) == getattr(q, field.name), field.name
        assert bfre.solve(p).objective == pytest.approx(10.717, abs=TOL)


class TestSolveCommand:
    def test_example_exit_zero(self, capsys):
        assert main(["solve", example_path(), "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        assert "objective: 10.717" in out
        assert "x*: (0.4, 0.64, 0, 0, 0.3, 0, 0, 0.2, 0.8, 0.6)" in out
        assert "presolve bound: 5184 -> 864 -> 288 -> 144 -> 72 -> 36 -> 8" in out

    def test_value_out_of_range(self, tmp_path, capsys):
        path = write_problem(tmp_path, tiny_problem(b=[1.5]))
        assert main(["solve", path]) == 1
        assert "b[0] out of [0,1]" in capsys.readouterr().err

    def test_infeasible_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, tiny_problem(a_plus=[[0.1]], a_minus=[[0.1]], b=[0.9]))
        assert main(["solve", path, "--no-timing"]) == 2
        out = capsys.readouterr().out
        assert "status: infeasible" in out and "unsatisfiable_row" in out

    def test_exhausted_search_exit_two(self, tmp_path, capsys):
        data = tiny_problem(a_plus=[[0.2], [0.8]], a_minus=[[0.7], [0.2]], b=[0.5, 0.5])
        path = write_problem(tmp_path, data)
        assert main(["solve", path, "--no-timing"]) == 2
        assert "exhausted_search" in capsys.readouterr().out

    def test_empty_instance_prints_float_objective(self, tmp_path, capsys):
        data = {"tnorm": {"family": "product"}, "a_plus": [], "a_minus": [], "b": [], "c": []}
        path = write_problem(tmp_path, data)
        assert main(["solve", path, "--json", "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert '"objective": 0.0,' in out
        assert json.loads(out)["x"] == []

    def test_json_output(self, capsys):
        assert main(["solve", example_path(), "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "optimal"
        assert doc["objective"] == pytest.approx(10.717, abs=TOL)
        assert doc["presolve"]["bound_sequence"] == [5184, 864, 288, 144, 72, 36, 8]
        assert doc["search"]["nodes_created"] == 6

    def test_json_tables_block(self, capsys):
        assert main(["solve", example_path(), "--tables", "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tables"]["column_interval"][9] == "{0.6}"
        assert doc["presolve"]["bound_sequence"] == [5184, 864, 288, 144, 72, 36, 8]
        # the block ``resolve --json`` writes, and only with --tables
        assert main(["resolve", example_path(), "--tables", "--json", "--no-timing"]) == 0
        assert doc["tables"] == json.loads(capsys.readouterr().out)["tables"]
        assert main(["solve", example_path(), "--json", "--no-timing"]) == 0
        assert "tables" not in json.loads(capsys.readouterr().out)

    def test_json_search_counters(self, capsys):
        assert main(["solve", example_path(), "--json", "--trace", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["search"] == {"nodes_created": 6, "nodes_expanded": 3,
                                 "candidates_evaluated": 1, "prunes": 2,
                                 "incumbent_updates": 1, "jumps": 1, "max_live": 2}
        actions = [line.rsplit("action=", 1)[1] for line in doc["trace"]]
        assert doc["search"]["prunes"] == actions.count("prune")
        assert doc["search"]["incumbent_updates"] == actions.count("incumbent")

    def test_trace_lines(self, capsys):
        assert main(["solve", example_path(), "--trace", "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert "node 1: e=[1], x=(0.4, 0.4, 0), z=0.54, action=expand" in out
        assert "node 5: e=[1, 2, 1], x=(0.4, 0.64, 0), z=0.624, action=incumbent" in out
        assert "node 6: e=[2, 3], x=(0.4, 0.4, 0.6), z=1.098, action=prune" in out

    def test_no_simplify_same_result(self, capsys):
        assert main(["solve", example_path(), "--no-simplify", "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == pytest.approx(10.717, abs=TOL)
        assert doc["x"] == pytest.approx([0.4, 0.64, 0, 0, 0.3, 0, 0, 0.2, 0.8, 0.6], abs=TOL)

    def test_deterministic_output(self, capsys):
        main(["solve", example_path(), "--trace", "--tables", "--no-timing"])
        first = capsys.readouterr().out
        main(["solve", example_path(), "--trace", "--tables", "--no-timing"])
        assert capsys.readouterr().out == first

    def test_timing_line_suppressible(self, capsys):
        main(["solve", example_path()])
        assert "time:" in capsys.readouterr().out
        main(["solve", example_path(), "--no-timing"])
        assert "time:" not in capsys.readouterr().out

    def test_json_trace_key_whenever_asked(self, tmp_path, capsys):
        # presolve fixes the one variable, so the search records no node
        path = write_problem(tmp_path, tiny_problem())
        assert main(["solve", path, "--trace", "--json", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out)["trace"] == []
        assert main(["solve", path, "--json", "--no-timing"]) == 0
        assert "trace" not in json.loads(capsys.readouterr().out)


class TestResolveCommand:
    def test_tables_match_reference_cells(self, capsys):
        assert main(["resolve", example_path(), "--tables", "--no-timing"]) == 0
        out = capsys.readouterr().out
        assert "column intervals:" in out
        line = next(l for l in out.splitlines() if l.strip().startswith("-"))
        cells = line.split()[1:]
        assert cells == ["[0.4,1]", "[0.4,0.64]", "[0,0.6]", "[0,1]", "[0.3,0.6]",
                         "[0,1]", "[0,0.55]", "[0.2,1]", "[0.2,0.8]", "{0.6}"]

    def test_tables_print_all_four_pinned_tables(self, capsys):
        from test_resolution import COLUMN_INTERVALS, RELAXATION, RESTRICTED, SOLUTION
        assert main(["resolve", example_path(), "--tables", "--no-timing"]) == 0
        tables, rows = {}, None
        for line in capsys.readouterr().out.splitlines()[1:]:
            if line.endswith(":"):
                rows = tables.setdefault(line[:-1], [])
            elif line and not line.split()[0].startswith("x"):
                rows.append(" ".join(line.split()[1:]).replace("∅", "-"))
        assert tables == {"relaxation sets": RELAXATION, "solution sets": SOLUTION,
                          "column intervals": [COLUMN_INTERVALS],
                          "restricted sets": RESTRICTED}

    def test_boxes_include_known_product(self, capsys):
        assert main(["resolve", example_path(), "--boxes", "--no-timing"]) == 0
        out = capsys.readouterr().out
        want = ("{0.4} x {0.64} x {0.6} x [0,1] x [0.3,0.6] x {0,1} x "
                "[0,0.55] x {0.2} x {0.8} x {0.6}")
        assert want in out

    def test_single_cell_single_box(self, tmp_path, capsys):
        path = write_problem(tmp_path, tiny_problem())
        assert main(["resolve", path, "--boxes", "--no-timing"]) == 0
        assert "feasible boxes: 1" in capsys.readouterr().out

    def test_deep_diagonal_boxes(self, tmp_path, capsys):
        # 1,200 rows with one column each: a 1,200-pick walk to one box.
        # The text report, since --json would also write four 1200x1200 tables.
        n = 1200
        path = write_problem(tmp_path, tiny_problem(
            tnorm={"family": "product"},
            a_plus=[[0.9 if j == i else 0.0 for j in range(n)] for i in range(n)],
            a_minus=[[0.0] * n] * n, b=[0.5] * n, c=[1.0] * n))
        assert main(["resolve", path, "--boxes", "--no-timing"]) == 0
        assert "feasible boxes: 1\n" in capsys.readouterr().out

    def test_infeasible_exit_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, tiny_problem(a_plus=[[1.0]], a_minus=[[1.0]], b=[0.2]))
        assert main(["resolve", path, "--no-timing"]) == 2
        assert "empty_column" in capsys.readouterr().out

    def test_cap_exceeded(self, capsys):
        assert main(["resolve", example_path(), "--boxes", "--cap", "3", "--no-timing"]) == 1
        assert "exceeds cap" in capsys.readouterr().err

    def test_json_document(self, capsys):
        assert main(["resolve", example_path(), "--tables", "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feasibility"] == "necessary_conditions_pass"
        assert doc["tables"]["column_interval"][9] == "{0.6}"
        # the tables are written only when asked for
        assert main(["resolve", example_path(), "--json", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out) == {"feasibility": "necessary_conditions_pass"}


class TestVerifyCommand:
    def test_example_agrees(self, capsys):
        assert main(["verify", example_path(), "--no-timing"]) == 0
        assert "all agree" in capsys.readouterr().out

    def test_random_batch(self, capsys):
        assert main(["verify", "--seed", "5", "--count", "16", "--no-timing"]) == 0
        assert "verified 16 instance(s): all agree" in capsys.readouterr().out

    def test_cap_exceeded(self, capsys):
        assert main(["verify", example_path(), "--cap", "10", "--no-timing"]) == 1
        assert "exceeds cap" in capsys.readouterr().err

    def test_requires_some_input(self, capsys):
        assert main(["verify", "--no-timing"]) == 1
        assert main(["verify", "--json", "--no-timing"]) == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_refused(self, capsys, count):
        assert main(["verify", "--seed", "1", "--count", count, "--no-timing"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --count must be at least 1, not {count}\n"
        assert captured.out == ""

    def test_text_output_lines(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "20", "--no-timing"]) == 0
        assert capsys.readouterr().out == "verified 20 instance(s): all agree\n"

    def test_json_document(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "20", "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"checked": 20, "planted_checked": 10, "mismatches": [],
                       "worst_objective_gap": doc["worst_objective_gap"],
                       "worst_row_residual": doc["worst_row_residual"]}
        assert 0.0 <= doc["worst_objective_gap"] <= TOL
        assert 0.0 <= doc["worst_row_residual"] <= TOL

    def test_json_worst_row_residual(self, capsys, monkeypatch):
        p = load_problem(example_path())
        x = bfre.solve(p).x
        residual = max(abs(row_value(p, i, x) - b) for i, b in enumerate(p.b))
        assert main(["verify", example_path(), "--json", "--no-timing"]) == 0
        assert json.loads(capsys.readouterr().out)["worst_row_residual"] == residual
        # an answer moved off the equations shows in the residual and
        # nowhere else
        real_solve = bfre.cli.solve

        def solve(p):
            sol = real_solve(p)
            return dataclasses.replace(sol, x=[min(1.0, v + 0.25) for v in sol.x])

        monkeypatch.setattr(bfre.cli, "solve", solve)
        assert main(["verify", example_path(), "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mismatches"] == [] and doc["worst_row_residual"] > 0.1
        assert main(["verify", example_path(), "--no-timing"]) == 0
        assert capsys.readouterr().out == "verified 1 instance(s): all agree\n"

    def test_json_document_for_a_file(self, capsys):
        assert main(["verify", example_path(), "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["checked"], doc["planted_checked"], doc["mismatches"]) == (1, 0, [])

    @staticmethod
    def _worse_everywhere(monkeypatch):
        """Solver and oracle agree on an objective 100 above the optimum
        (any c·x is at most 25 here), so only the planted point's cost can
        expose it."""
        real_solve, real_oracle = bfre.cli.solve, bfre.cli.brute_force_optimum

        def solve(p):
            sol = real_solve(p)
            return dataclasses.replace(sol, objective=sol.objective + 100.0) if sol.optimal else sol

        def oracle(tables, costs, cap):
            rep = real_oracle(tables, costs, cap=cap)
            if rep.optimum is not None:
                rep.optimum = (rep.optimum[0], rep.optimum[1] + 100.0)
            return rep

        monkeypatch.setattr(bfre.cli, "solve", solve)
        monkeypatch.setattr(bfre.cli, "brute_force_optimum", oracle)

    def test_worse_answer_fails_the_planted_check(self, capsys, monkeypatch):
        self._worse_everywhere(monkeypatch)
        assert main(["verify", "--seed", "1", "--count", "4", "--no-timing"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verified 4 instance(s): 2 mismatch(es)"
        assert [line.split(": planted: ")[0] for line in lines[:-1]] == \
            ["mismatch [product #1]", "mismatch [hamacher #3]"]
        assert all("> planted cost" in line for line in lines[:-1])

    def test_worse_answer_in_json(self, capsys, monkeypatch):
        self._worse_everywhere(monkeypatch)
        assert main(["verify", "--seed", "1", "--count", "4", "--json", "--no-timing"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["checked"], doc["planted_checked"]) == (4, 2)
        assert [m.split(": planted: ")[0] for m in doc["mismatches"]] == \
            ["mismatch [product #1]", "mismatch [hamacher #3]"]


    def test_infeasible_answer_on_a_planted_instance(self, capsys, monkeypatch):
        from bfre.optimize import InfeasibleReason, Solution, Status
        monkeypatch.setattr(bfre.cli, "solve", lambda p: Solution(
            Status.INFEASIBLE, reason=InfeasibleReason.EXHAUSTED_SEARCH,
            tables=bfre.build_tables(p)))
        assert main(["verify", "--seed", "1", "--count", "2", "--json", "--no-timing"]) == 1
        found = json.loads(capsys.readouterr().out)["mismatches"]
        assert any(m.startswith("mismatch [product #1]: planted: solver=infeasible, "
                                "planted point costs ") for m in found), found


class TestOneResolutionPerCommand:
    """Each command resolves its instance once: ``solve`` and ``verify``
    read the tables ``solve`` built instead of building them again, and
    ``resolve --boxes`` hands its tables to the box walk."""

    @pytest.mark.parametrize("argv, builds", [
        (["verify", "--seed", "1", "--count", "20"], 20),
        (["solve", example_path(), "--tables"], 1),
        (["solve", example_path()], 1),
        (["resolve", example_path()], 1),
        (["resolve", example_path(), "--boxes"], 1),
        (["resolve", example_path(), "--boxes", "--tables", "--json"], 1),
    ])
    def test_tables_built_once(self, capsys, monkeypatch, argv, builds):
        import bfre.optimize as optimize
        import bfre.resolution as resolution

        build, calls = resolution._build_tables, []

        def counted(p, reached):
            calls.append(p)
            return build(p, reached)

        monkeypatch.setattr(resolution, "_build_tables", counted)
        monkeypatch.setattr(optimize, "_build_tables", counted)
        assert main([*argv, "--no-timing"]) == 0
        assert len(calls) == builds


class TestWholeTextOutput:
    """The full text output on the example, line for line."""

    @pytest.mark.parametrize("argv, name", [
        (["solve", example_path(), "--trace", "--tables"], "solve_example_trace_tables.txt"),
        (["resolve", example_path(), "--boxes", "--tables"], "resolve_example_boxes_tables.txt"),
    ])
    def test_example(self, capsys, argv, name):
        assert main([*argv, "--no-timing"]) == 0
        with open(os.path.join(DATA, name)) as fh:
            assert capsys.readouterr().out == fh.read()


class TestClosedStdout:
    """A reader that has gone away ends a command with exit 1 and no
    traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", example_path()],
        ["resolve", example_path(), "--boxes"],
        ["verify", "--seed", "1", "--count", "2"],
    ])
    def test_exit_one_and_quiet(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(bfre.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run([sys.executable, "-m", "bfre.cli", *argv, "--no-timing"],
                                  env=env, stdout=w, stderr=subprocess.PIPE, text=True,
                                  timeout=300)
        finally:
            os.close(w)
        assert (done.returncode, done.stderr) == (1, "")


class TestJsonStdout:
    """With --json, stdout is one JSON document and the timing line goes to
    stderr."""

    @pytest.mark.parametrize("argv", [
        ["solve", example_path(), "--json"],
        ["resolve", example_path(), "--json"],
        ["verify", "--seed", "1", "--count", "20", "--json"],
    ])
    def test_stdout_parses_with_timing(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert isinstance(json.loads(captured.out), dict)
        assert "time:" not in captured.out
        assert captured.err.startswith("time: ") and captured.err.count("\n") == 1

    def test_text_mode_keeps_timing_on_stdout(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("time: ") and captured.err == ""


class TestVerifyFamilies:
    def test_every_family_cycled_after_the_first_four(self):
        from bfre.cli import _VERIFY_FAMILIES
        from bfre.tnorms import Family
        assert _VERIFY_FAMILIES[:4] == (("lukasiewicz", None), ("product", None),
                                        ("yager", 2.0), ("hamacher", 1.0))
        assert {validate(f, p).family for f, p in _VERIFY_FAMILIES} == set(Family)

    def test_batch_over_all_families_agrees(self, capsys):
        assert main(["verify", "--seed", "7", "--count", "110", "--json", "--no-timing"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["checked"], doc["planted_checked"], doc["mismatches"]) == (110, 55, [])


class TestOptimizedInterpreterParity:
    """No result may depend on an assert statement, which python -O strips."""

    @pytest.mark.parametrize("argv", [
        ["solve", example_path(), "--json", "--no-timing"],
        ["verify", "--seed", "3", "--count", "40", "--no-timing"],
        ["verify", "--seed", "3", "--count", "40", "--json", "--no-timing"],
    ])
    def test_same_output_under_dash_o(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(bfre.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

        def run(*flags):
            done = subprocess.run([sys.executable, *flags, "-m", "bfre.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=300)
            return done.returncode, done.stdout, done.stderr

        plain = run()
        assert plain[0] == 0, plain[2]
        assert run("-O") == plain
