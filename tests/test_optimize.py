import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from bfre import (
    CapExceeded, InfeasibleReason, Mode, Status, branch_and_bound, build_tables,
    check_feasibility, enumerate_feasible_decomposition, is_feasible_point, simplify, solve,
)
from bfre import optimize
from bfre.cli import load_problem
from bfre.oracle import (
    _batch_candidate, brute_force_optimum, enumerate_all_admissible, random_feasible_instance,
    random_instance,
)
from bfre import ProblemInstance, ReducedProblem, ResolutionTables, SetForm, validate
from bfre.optimize import TraceEvent
from bfre.resolution import admissible_upper_bound
from bfre.simplify import Rule
from bfre.tnorms import solve_u
from bfre.tolerance import EPS
from conftest import make_instance
from setforms import kind, pair, same
from test_resolution import table_bits

TOL = 1e-9

# Three pick vectors over the full demonstration instance (0-based columns).
E1 = (4, 0, 5, 2, 4, 7, 9, 8, 9, 5)   # inadmissible: rows 1 and 5 clash on column 5
E2 = (0, 7, 5, 1, 2, 7, 9, 8, 9, 5)
E3 = (0, 7, 5, 1, 0, 7, 9, 8, 9, 5)


@pytest.fixture()
def reduced_example(example, example_tables):
    reduced, _ = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
    return reduced


def _running(prefix, tables) -> list:
    """Per column, its cells picked by ``prefix`` intersected in pick order;
    None for a column ``prefix`` does not pick."""
    inter = [None] * tables.n
    for j in set(prefix):
        inter[j] = tables.intersect_cells(j, [i for i, k in enumerate(prefix) if k == j])
    return inter


def _domain(prefix, i, tables, modified=False) -> list:
    """Row i's columns after ``prefix[:i]``, by the search's own step
    routine; with ``modified``, the walk's reuse rule over it: the first
    step whose column is picked, or else all the steps."""
    prefix = prefix[:i]
    hit = sum(1 << j for j in set(prefix) & set(tables.row_support[i]))
    inter, row = _running(prefix, tables), optimize._bind_rows(tables)[0][i]
    domain = [j for j, _ in optimize._admissible_steps(inter, hit, row)]
    reused = [j for j in domain if hit >> j & 1]
    return reused[:1] if modified and reused else domain


class TestCandidateSolution:
    def test_shared_column_intersection(self, example_tables):
        x = _batch_candidate(example_tables, E3)
        assert x[0] == pytest.approx(0.4, abs=TOL)

    def test_unpicked_columns_sit_at_lower_bounds(self, example_tables):
        x = _batch_candidate(example_tables, E2)
        # columns 4, 5(0-based 3, 4) and 7 are never picked by E2
        assert x[3] == example_tables.col_interval[3][0]
        assert x[6] == example_tables.col_interval[6][0]

    def test_reduced_example_first_leaf(self, reduced_example):
        x = _batch_candidate(reduced_example.tables, (0, 1, 0))
        assert x == pytest.approx([0.4, 0.64, 0.0], abs=TOL)
        z = sum(c * v for c, v in zip(reduced_example.costs, x))
        assert z == pytest.approx(0.624, abs=TOL)

    def test_inadmissible_rejected(self, example_tables):
        assert _batch_candidate(example_tables, E1) is None


class TestFeasibleBox:
    """Boxes as ``enumerate_feasible_decomposition`` lists them;
    ``TestDecomposition`` pins the spelling of E2's."""

    def test_single_row_instance(self):
        p = make_instance([[0.9, 0.0]], [[0.0, 0.0]], [0.5])
        tb = build_tables(p)
        [(_, box)] = enumerate_feasible_decomposition(tb)
        assert str(box[0]) == "{0.6}" and same(box[1], tb.col_interval[1])

    def test_sampled_points_are_feasible(self, example):
        e2 = {0: 0, 1: 7, 3: 1, 4: 2, 7: 8, 9: 5}     # E2 on the rows the reduction keeps
        box = next(box for a, box in enumerate_feasible_decomposition(build_tables(example))
                   if a == e2)
        rng = random.Random(3)
        for _ in range(100):
            x = []
            for s in box:
                if kind(s) == "interval":
                    x.append(s[0] + rng.random() * (s[-1] - s[0]))
                elif s.is_pair:
                    x.append(rng.choice(s[::2]))
                else:
                    x.append(s[0])
            assert is_feasible_point(example, x)


class TestDomains:
    def test_clashing_reuse_excluded(self, example_tables):
        # after rows 1-4 of E1, row 5 can reuse neither column 5 (clash with
        # row 1's cell) nor column 1 (clash with row 2's cell)
        dom = _domain(E1, 4, example_tables)
        assert 4 not in dom and dom == [2, 3]

    def test_forced_reuse_is_minimum(self, example_tables):
        assert _domain(E2, 4, example_tables, modified=True) == [0]

    def test_reduced_node_two_domain(self, reduced_example):
        assert _domain((1,), 1, reduced_example.tables, modified=True) == [2]

    def test_dead_end_is_empty(self):
        p = make_instance([[0.2], [0.8]], [[0.7], [0.2]], [0.5, 0.5])
        tb = build_tables(p)
        assert _domain((0,), 1, tb, modified=True) == []


class TestBranchAndBound:
    def test_golden_trace(self, reduced_example):
        res = branch_and_bound(reduced_example, record=True)
        assert res.objective == pytest.approx(0.624, abs=TOL)
        assert res.x == pytest.approx([0.4, 0.64, 0.0], abs=TOL)
        assert res.picks == (0, 1, 0)
        got = [(ev.node, list(ev.picks), ev.action) for ev in res.events]
        assert got == [
            (1, [0], "expand"),
            (3, [0, 1], "expand"),
            (5, [0, 1, 0], "incumbent"),
            (4, [0, 2], "prune"),
            (2, [1], "expand"),
            (6, [1, 2], "prune"),
        ]
        assert res.stats.nodes_created == 6
        assert res.stats.nodes_expanded == 3
        assert res.stats.candidates_evaluated == 1
        pruned = {ev.node: ev.z for ev in res.events if ev.action == "prune"}
        assert set(pruned) == {4, 6}
        assert all(z == pytest.approx(1.098, abs=TOL) for z in pruned.values())

    def test_trace_lines_format(self, reduced_example):
        res = branch_and_bound(reduced_example, record=True)
        lines = [ev.line() for ev in res.events]
        assert lines[0] == "node 1: e=[1], x=(0.4, 0.4, 0), z=0.54, action=expand"
        assert lines[2] == "node 5: e=[1, 2, 1], x=(0.4, 0.64, 0), z=0.624, action=incumbent"

    def test_single_row_single_column(self):
        p = make_instance([[1.0, 0.0]], [[0.2, 0.0]], [0.5], c=[1.0, 2.0])
        tb = build_tables(p)
        reduced, _ = simplify(tb, p.c, Mode.FEASIBILITY_PRESERVING)
        res = branch_and_bound(reduced, record=True)
        assert res.found and res.picks == (0,)
        assert reduced.lift(res.x) == pytest.approx([0.5, 0.0], abs=TOL)
        assert res.stats.nodes_created == 1 and res.stats.candidates_evaluated == 1

    def test_zero_row_reduction_returns_lower_bounds(self):
        p = make_instance([[1.0, 0.0], [0.0, 0.9]], [[1.0, 0.0], [0.0, 0.9]],
                          [0.5, 0.4], c=[1.0, 1.0])
        reduced, _ = simplify(build_tables(p), p.c, Mode.OPTIMALITY_PRESERVING)
        assert reduced.tables.m == 0
        res = branch_and_bound(reduced)
        assert res.found and res.picks == ()
        assert reduced.lift(res.x) == pytest.approx([0.5, 0.5], abs=TOL)

    def test_exhausted_search(self):
        p = make_instance([[0.2], [0.8]], [[0.7], [0.2]], [0.5, 0.5])
        tb = build_tables(p)
        reduced, _ = simplify(tb, p.c, Mode.FEASIBILITY_PRESERVING)
        res = branch_and_bound(reduced, modified=False)
        assert not res.found

    def test_admissible_and_modified_searches_agree(self):
        rng = random.Random(9001)
        for _ in range(120):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0)])
            p = random_feasible_instance(rng, fam, param)
            tb = build_tables(p)
            reduced, _ = simplify(tb, p.c, Mode.OPTIMALITY_PRESERVING)
            a = branch_and_bound(reduced, modified=True)
            b = branch_and_bound(reduced, modified=False)
            assert a.found == b.found
            if a.found:
                assert a.objective == pytest.approx(b.objective, abs=TOL)

    def test_objective_never_decreases_down_a_branch(self):
        rng = random.Random(515)
        for _ in range(80):
            fam, param = rng.choice([("lukasiewicz", None), ("product", None)])
            p = random_feasible_instance(rng, fam, param, m=3, n=3)
            tb = build_tables(p)
            if not check_feasibility(tb).ok:
                continue
            for e in enumerate_all_admissible(tb):
                prev = None
                for k in range(len(e) + 1):
                    z = _prefix_objective(tb, p.c, e[:k])
                    if prev is not None:
                        assert z >= prev - TOL
                    prev = z


def _prefix_objective(tables, costs, prefix):
    x = [tables.col_interval[j][0] for j in range(tables.n)]
    groups = {}
    for i, j in enumerate(prefix):
        groups.setdefault(j, []).append(i)
    for j, rows in groups.items():
        inter = tables.s_prime[rows[0]][j]
        for i in rows[1:]:
            inter = inter.intersect(tables.s_prime[i][j])
        x[j] = inter[0]
    return sum(c * v for c, v in zip(costs, x))


class TestSolve:
    def test_example_end_to_end(self, example):
        sol = solve(example)
        assert sol.optimal
        assert sol.objective == pytest.approx(10.717, abs=TOL)
        assert sol.x == pytest.approx([0.4, 0.64, 0, 0, 0.3, 0, 0, 0.2, 0.8, 0.6], abs=TOL)
        assert sol.ledger.bound_sequence() == [5184, 864, 288, 144, 72, 36, 8]
        assert is_feasible_point(example, sol.x)

    def test_empty_instance_objective_is_float(self):
        p = ProblemInstance([], [], [], [], validate("product"))
        sol = solve(p)
        assert sol.optimal and sol.x == []
        assert sol.objective == 0.0 and isinstance(sol.objective, float)
        reduced, _ = simplify(build_tables(p), p.c, Mode.OPTIMALITY_PRESERVING)
        assert isinstance(branch_and_bound(reduced).objective, float)

    def test_empty_column_reported(self):
        p = make_instance([[1.0]], [[1.0]], [0.2])
        sol = solve(p)
        assert sol.status is Status.INFEASIBLE
        assert sol.reason is InfeasibleReason.EMPTY_COLUMN and sol.witness == 0

    def test_unsatisfiable_row_reported(self):
        p = make_instance([[0.1]], [[0.1]], [0.9])
        sol = solve(p)
        assert sol.reason is InfeasibleReason.UNSATISFIABLE_ROW and sol.witness == 0

    def test_exhausted_search_reported(self):
        p = make_instance([[0.2], [0.8]], [[0.7], [0.2]], [0.5, 0.5])
        sol = solve(p)
        assert sol.status is Status.INFEASIBLE
        assert sol.reason is InfeasibleReason.EXHAUSTED_SEARCH

    @pytest.mark.parametrize("mode", [Mode.OPTIMALITY_PRESERVING, Mode.FEASIBILITY_PRESERVING])
    def test_solution_carries_the_tables_it_resolved(self, example, mode):
        # the example is optimal, and seeded draws give each way to fail
        cases = {Status.OPTIMAL: example}
        rng = random.Random("solution_tables")
        for _ in range(400):
            p = random_instance(rng, "lukasiewicz", m=rng.randint(3, 6), n=rng.randint(3, 6))
            sol = solve(p, mode)
            cases.setdefault(sol.reason or sol.status, p)
            if len(cases) == 4:
                break
        assert set(cases) == {Status.OPTIMAL, *InfeasibleReason}
        for outcome, p in cases.items():
            sol = solve(p, mode)
            assert (sol.reason or sol.status) is outcome
            assert table_bits(sol.tables) == table_bits(build_tables(p)), outcome
            assert "tables" not in repr(sol) and "col_interval" not in repr(sol), outcome

    def test_modes_agree_on_randoms(self):
        rng = random.Random(246)
        for _ in range(100):
            fam, param = rng.choice([("lukasiewicz", None), ("product", None),
                                     ("yager", 2.0), ("hamacher", 1.0)])
            gen = random_feasible_instance if rng.random() < 0.5 else random_instance
            p = gen(rng, fam, param)
            a = solve(p)
            b = solve(p, mode=Mode.FEASIBILITY_PRESERVING)
            assert a.optimal == b.optimal
            if a.optimal:
                assert a.objective == pytest.approx(b.objective, abs=TOL)
                assert is_feasible_point(p, a.x) and is_feasible_point(p, b.x)

    def test_oracle_agreement_small_batch(self):
        rng = random.Random(135)
        for _ in range(150):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0)])
            gen = random_feasible_instance if rng.random() < 0.5 else random_instance
            p = gen(rng, fam, param, m=rng.randint(1, 4), n=rng.randint(1, 4))
            sol = solve(p)
            rep = brute_force_optimum(build_tables(p), p.c)
            assert sol.optimal == (rep.optimum is not None)
            if sol.optimal:
                assert sol.objective == pytest.approx(rep.optimum[1], abs=TOL)

    def test_oracle_agreement_adversarial_shapes(self):
        # zero costs (total ties), duplicated rows/columns, coarse grids
        from bfre import ProblemInstance, validate
        fams = [("lukasiewicz", None), ("einstein_product", None),
                ("hamacher", 0.0), ("frank", 0.5), ("schweizer_sklar", -2.0),
                ("sugeno_weber", 1.0), ("aczel_alsina", 2.0), ("dombi", 1.0)]
        rng = random.Random(60218)
        for k in range(240):
            fam, param = fams[k % len(fams)]
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            style = k % 3
            if style == 0:
                base = random_feasible_instance(rng, fam, param, m=m, n=n)
                p = ProblemInstance(base.a_plus, base.a_minus, base.b,
                                    [0.0] * n, base.tnorm)
            elif style == 1:
                base = random_feasible_instance(rng, fam, param, m=m, n=n)
                ap = [r[:] + [r[0]] for r in base.a_plus] + [base.a_plus[0][:] + [base.a_plus[0][0]]]
                am = [r[:] + [r[0]] for r in base.a_minus] + [base.a_minus[0][:] + [base.a_minus[0][0]]]
                p = ProblemInstance(ap, am, list(base.b) + [base.b[0]],
                                    list(base.c) + [base.c[0]], base.tnorm)
            else:
                snap = lambda: rng.randint(0, 4) / 4
                p = ProblemInstance([[snap() for _ in range(n)] for _ in range(m)],
                                    [[snap() for _ in range(n)] for _ in range(m)],
                                    [snap() for _ in range(m)],
                                    [rng.randint(0, 8) / 4 for _ in range(n)],
                                    validate(fam, param))
            sol = solve(p)
            rep = brute_force_optimum(build_tables(p), p.c)
            assert sol.optimal == (rep.optimum is not None), (fam, param, style)
            if sol.optimal:
                assert sol.objective == pytest.approx(rep.optimum[1], abs=TOL)


class TestDecomposition:
    def test_example_contains_known_assignments(self, example):
        boxes = enumerate_feasible_decomposition(build_tables(example))
        assignments = [a for a, _ in boxes]
        # restrictions of the two known admissible pick vectors survive
        e2 = {0: 0, 1: 7, 3: 1, 4: 2, 7: 8, 9: 5}
        e3 = {0: 0, 1: 7, 3: 1, 4: 0, 7: 8, 9: 5}
        e1 = {0: 4, 1: 0, 3: 2, 4: 4, 7: 8, 9: 5}
        assert e2 in assignments and e3 in assignments
        assert e1 not in assignments
        got = boxes[assignments.index(e2)][1]
        want = ["{0.4}", "{0.64}", "{0.6}", "[0,1]", "[0.3,0.6]",
                "{0,1}", "[0,0.55]", "{0.2}", "{0.8}", "{0.6}"]
        assert [str(s) for s in got] == want

    def test_infeasible_instance_empty(self):
        p = make_instance([[0.1]], [[0.1]], [0.9])
        assert enumerate_feasible_decomposition(build_tables(p)) == []

    def test_cap_enforced(self, example):
        with pytest.raises(CapExceeded) as err:
            enumerate_feasible_decomposition(build_tables(example), cap=10)
        assert err.value.bound > 10

    def test_union_matches_direct_evaluation_on_grid(self):
        rng = random.Random(1881)
        for _ in range(40):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0)])
            gen = random_feasible_instance if rng.random() < 0.5 else random_instance
            p = gen(rng, fam, param, m=2, n=2)
            boxes = enumerate_feasible_decomposition(build_tables(p))
            from bfre.resolution import row_value
            for xi in range(21):
                for yi in range(21):
                    x = [xi / 20, yi / 20]
                    direct = all(abs(row_value(p, i, x) - p.b[i]) <= TOL
                                 for i in range(p.m))
                    inside = any(all(box[j].contains(x[j]) for j in range(2))
                                 for _, box in boxes)
                    assert direct == inside, (p, x)

    def test_single_cell_instance_single_box(self):
        p = make_instance([[0.9]], [[0.0]], [0.5])
        boxes = enumerate_feasible_decomposition(build_tables(p))
        assert len(boxes) == 1
        assert str(boxes[0][1][0]) == "{0.6}"

    def test_deep_diagonal_instance_single_box(self):
        # 1,200 rows with one column each: the walk is 1,200 picks deep
        n = 1200
        p = make_instance([[0.9 if j == i else 0.0 for j in range(n)] for i in range(n)],
                          [[0.0] * n for _ in range(n)], [0.5] * n, family="product")
        [(assignment, box)] = enumerate_feasible_decomposition(build_tables(p))
        assert assignment == {i: i for i in range(n)}
        assert all(s.is_point and s[0] == pytest.approx(0.5 / 0.9, abs=TOL) for s in box)

    def test_walk_order_and_boxes_match_oracle(self):
        """On a seeded corpus up to 6x6, the walk lists the oracle's
        admissible pick vectors over the feasibility-reduced tables in
        their order, mapped to original ids, and each picked column's box
        minimum is the oracle's candidate value."""
        fams = [("lukasiewicz", None), ("product", None), ("yager", 2.0),
                ("hamacher", 1.0), ("frank", 0.5), ("dombi", 1.0)]
        rng = random.Random(4242)
        walks = boxes_seen = 0
        for k in range(600):
            fam, param = fams[k % len(fams)]
            gen = random_feasible_instance if k % 3 else random_instance
            p = gen(rng, fam, param, m=rng.randint(1, 6), n=rng.randint(1, 6))
            tables = build_tables(p)
            got = enumerate_feasible_decomposition(tables)
            if not check_feasibility(tables).ok:
                assert got == []
                continue
            sub = simplify(tables, p.c, Mode.FEASIBILITY_PRESERVING)[0].tables
            picks = enumerate_all_admissible(sub)
            assert [a for a, _ in got] == [
                {sub.row_ids[i]: sub.col_ids[j] for i, j in enumerate(e)} for e in picks], k
            for e, (_, box) in zip(picks, got):
                x = _batch_candidate(sub, e)
                for j in set(e):
                    assert box[sub.col_ids[j]][0] == x[j], (k, e, j)
            walks += 1
            boxes_seen += len(got)
        assert walks >= 400 and boxes_seen >= 1000, (walks, boxes_seen)


class TestIncrementalVsBatchAdmissibility:
    def test_complete_vectors_agree(self):
        import itertools
        rng = random.Random(2718)
        for _ in range(60):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0)])
            p = random_feasible_instance(rng, fam, param, m=3, n=3)
            tb = build_tables(p)
            if not check_feasibility(tb).ok:
                continue
            batch = set(enumerate_all_admissible(tb))
            incremental = set()
            for e in itertools.product(*tb.row_support):
                ok = True
                for i in range(tb.m):
                    if e[i] not in _domain(e, i, tb):
                        ok = False
                        break
                if ok:
                    incremental.add(e)
            assert batch == incremental


def _snapped_chain_tables():
    """3x1 tables whose cells intersect to empty in pick order (rows 0, 1,
    then 2) but not when row 2's cell comes first: tolerance-snapped
    intersection is not associative."""
    cells = [pair(0.500000000052308, 0.9), pair(0.5000000014956291, 0.9),
             SetForm.point(0.5000000007700169)]
    grid = [[cell] for cell in cells]
    return ResolutionTables([SetForm.interval(0, 1)], grid,
                            [[0], [0], [0]], [[0, 1, 2]], [0, 1, 2], [0], [0.5] * 3)


class TestIntersectionOrder:
    def test_pick_order_empty_intersection_is_not_admissible(self):
        tb = _snapped_chain_tables()
        assert enumerate_all_admissible(tb) == []
        assert _domain((0, 0), 2, tb) == []
        for modified in (True, False):
            res = branch_and_bound(ReducedProblem(tb, [1.0], {}, 1), modified=modified)
            assert not res.found


class TestSearchCounters:
    def test_example_counters_match_trace(self, reduced_example):
        res = branch_and_bound(reduced_example, record=True)
        actions = [ev.action for ev in res.events]
        assert res.stats.prunes == actions.count("prune") == 2
        assert res.stats.incumbent_updates == actions.count("incumbent") == 1
        assert res.stats.jumps == 1 and res.stats.max_live == 2

    def test_counted_without_recording(self, reduced_example):
        assert branch_and_bound(reduced_example).stats == \
            branch_and_bound(reduced_example, record=True).stats


def _reference_domain(tables, picks, i, modified):
    """Row i's domain after ``picks``, rebuilt from the pick groups of the
    prefix and intersected in pick order."""
    groups = {}
    for row, col in enumerate(picks[:i]):
        groups.setdefault(col, []).append(row)
    out = [j for j in tables.row_support[i]
           if tables.intersect_cells(j, groups.get(j, []) + [i])]
    reusable = [j for j in out if j in groups]
    return [min(reusable)] if modified and reusable else out


def _reference_branch_and_bound(reduced, modified, eps=EPS, merge=True):
    """The search loop before the live set became a heap: re-sort on every
    jump, pop the front, and rebuild each domain from the pick groups of
    the prefix, intersected in pick order.  Without the reuse rule, and
    with ``merge``, a node whose (depth, picked column -> running
    intersection) state was expanded before is merged: counted, traced, and
    left for the next jump."""
    tables, costs = reduced.tables, reduced.costs
    m, n = tables.m, tables.n
    base_x = [tables.col_interval[j][0] for j in range(n)]
    base_z = sum(c * v for c, v in zip(costs, base_x))
    stats = {"nodes_created": 0, "nodes_expanded": 0, "candidates_evaluated": 0,
             "prunes": 0, "incumbent_updates": 0, "jumps": 0, "max_live": 0, "merged": 0}
    events = []
    if m == 0:
        stats["candidates_evaluated"] = 1
        return base_x, (), base_z, stats, events

    def emit(node, action):
        events.append(TraceEvent(node["uid"], node["picks"], tuple(node["x"]), node["z"], action))
        if action == "prune":
            stats["prunes"] += 1
        elif action == "incumbent":
            stats["incumbent_updates"] += 1

    incumbent, live, counter = None, [], 0

    def better(z):
        return incumbent is None or z < incumbent["z"] - eps

    def make_child(parent, j):
        nonlocal counter
        prev = parent["inter"].get(j)
        cell = tables.s_prime[parent["depth"]][j]
        inter = cell if prev is None else prev.intersect(cell)
        counter += 1
        stats["nodes_created"] += 1
        x = list(parent["x"])
        z = parent["z"]
        if inter[0] != x[j]:
            z += costs[j] * (inter[0] - x[j])
            x[j] = inter[0]
        return {"uid": counter, "picks": parent["picks"] + (j,),
                "inter": {**parent["inter"], j: inter}, "x": x, "z": z,
                "depth": parent["depth"] + 1}

    def sweep_prune():
        nonlocal live
        keep = []
        for node in sorted(live, key=lambda nd: nd["uid"]):
            if better(node["z"]):
                keep.append(node)
            else:
                emit(node, "prune")
        live = keep

    def jump():
        if not live:
            return None
        live.sort(key=lambda nd: (nd["z"], -nd["depth"], nd["uid"]))
        stats["jumps"] += 1
        return live.pop(0)

    seen = set()
    current = {"uid": 0, "picks": (), "inter": {}, "x": base_x, "z": base_z, "depth": 0}
    while current is not None:
        node, current = current, None
        if node["uid"] != 0:
            state = (node["depth"], frozenset(node["inter"].items()))
            if merge and not modified and state in seen:
                stats["merged"] += 1
                emit(node, "merge")
                current = jump()
                continue
            seen.add(state)
            stats["nodes_expanded"] += 1
            emit(node, "expand")
        open_children = []
        for j in _reference_domain(tables, node["picks"], node["depth"], modified):
            child = make_child(node, j)
            if child["depth"] == m:
                stats["candidates_evaluated"] += 1
                if better(child["z"]):
                    incumbent = child
                    emit(child, "incumbent")
                    sweep_prune()
                else:
                    emit(child, "prune")
            elif better(child["z"]):
                open_children.append(child)
            else:
                emit(child, "prune")
        viable = []
        for child in open_children:
            if better(child["z"]):
                viable.append(child)
            else:
                emit(child, "prune")
        if viable:
            viable.sort(key=lambda nd: (nd["z"], nd["picks"][-1]))
            current = viable[0]
            live.extend(viable[1:])
            stats["max_live"] = max(stats["max_live"], len(live))
        else:
            current = jump()
    if incumbent is None:
        return None, None, None, stats, events
    return incumbent["x"], incumbent["picks"], incumbent["z"], stats, events


class TestReferenceEquivalence:
    def test_heap_search_matches_sorted_reference(self):
        fams = [("lukasiewicz", None), ("product", None), ("yager", 2.0),
                ("hamacher", 1.0), ("frank", 0.5), ("dombi", 1.0)]
        rng = random.Random(31337)
        searched = nodes = 0
        for k in range(240):
            fam, param = fams[k % len(fams)]
            m, n = rng.randint(2, 12), rng.randint(2, 12)
            p = random_feasible_instance(rng, fam, param, m=m, n=n)
            if k % 3 == 0:   # costs from {1, 2}: many equal-cost nodes
                p.c[:] = [float(rng.randint(1, 2)) for _ in range(n)]
            tb = build_tables(p)
            mode = Mode.OPTIMALITY_PRESERVING if k % 4 < 2 else Mode.FEASIBILITY_PRESERVING
            reduced, _ = simplify(tb, p.c, mode)
            # the unreduced tables keep the search busy; equivalence needs no validity
            for problem in (reduced, ReducedProblem(tb, p.c, {}, p.n)):
                if admissible_upper_bound(problem.tables) > 10 ** 6:
                    continue
                for modified in (True, False):
                    res = branch_and_bound(problem, modified=modified, record=True)
                    x, picks, z, stats, events = _reference_branch_and_bound(problem, modified)
                    assert (res.x, res.picks, res.objective) == (x, picks, z), (k, modified)
                    assert vars(res.stats) == stats, (k, modified)
                    assert res.events == events, (k, modified)
                    searched += 1
                    nodes += stats["nodes_created"]
        assert searched >= 400 and nodes >= 10_000

    def test_deep_planted_covers_match_sorted_reference(self):
        nodes, updates, jumps, sweeps = [], [], [], []
        for problem, planted_z in _planted_covers():
            m = problem.tables.m
            for modified in (True, False):
                res = branch_and_bound(problem, modified=modified, record=True)
                x, picks, z, stats, events = _reference_branch_and_bound(problem, modified)
                assert (res.x, res.picks, res.objective) == (x, picks, z), modified
                assert vars(res.stats) == stats, modified
                assert res.events == events, modified
                assert res.objective <= planted_z + TOL
                nodes.append(stats["nodes_created"])
                updates.append(stats["incumbent_updates"])
                jumps.append(stats["jumps"])
                sweeps.append(_sweep_prunes(res.events, m))
        assert max(nodes) >= 1_000 and max(updates) >= 2
        assert min(jumps) > 0 and min(sweeps) > 0

    def test_simplified_benchmark_size_covers_match_sorted_reference(self):
        """Covers of 24-28 rows, the size the benchmark searches, after the
        optimality-preserving presolve has dropped free and dominated
        columns.  The seed keeps the sorted reference's unmodified search,
        whose live set grows large, to about a second."""
        rules, nodes = set(), 0
        for problem, planted_z in _planted_covers(count=6, seed=22, rows=(24, 28), cols=(16, 18)):
            reduced, ledger = simplify(problem.tables, problem.costs, Mode.OPTIMALITY_PRESERVING)
            rules.update(step.action.rule for step in ledger.steps)
            for modified in (True, False):
                res = branch_and_bound(reduced, modified=modified, record=True)
                x, picks, z, stats, events = _reference_branch_and_bound(reduced, modified)
                assert (res.x, res.picks, res.objective) == (x, picks, z), modified
                assert vars(res.stats) == stats, modified
                assert res.events == events, modified
                lifted = reduced.lift(res.x)
                assert sum(c * v for c, v in zip(problem.costs, lifted)) <= planted_z + TOL
                nodes += stats["nodes_created"]
        assert {Rule.FREE_COLUMN, Rule.DOMINATED_COLUMN} <= rules
        assert nodes >= 20_000


def _planted_covers(count=12, seed=4242, rows=(16, 20), cols=(14, 18)):
    """Weighted set covers of 16-20 rows (by default), searched on their
    unreduced tables.

    Row i is usable only through its own 3 columns: elsewhere both of its
    coefficients are 0, so the cell has no solution.  Every usable cell of
    column j is the point {v_j} (a+ = solve_u(v_j, b_i)), so any pick is
    admissible and a row's pick costs c_j·v_j unless column j is already
    picked.  Each subset meets a planted cover, which bounds the optimum.
    Yields (problem, planted cost)."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(*rows), rng.randint(*cols)
        t = validate(*rng.choice([("product", None), ("yager", 2.0)]))
        planted = rng.sample(range(n), n // 3)
        subsets = set()
        while len(subsets) < m:
            s = tuple(sorted(rng.sample(range(n), 3)))
            if not set(planted).isdisjoint(s):
                subsets.add(s)
        subsets = rng.sample(sorted(subsets), m)
        v = [rng.randint(14, 19) / 20 for _ in range(n)]
        b = [rng.randint(6, 12) / 20 for _ in range(m)]
        a_plus = [[0.0] * n for _ in range(m)]
        for i, s in enumerate(subsets):
            for j in s:
                a_plus[i][j] = solve_u(t, v[j], b[i])
        c = [rng.randint(50, 100) / 20 for _ in range(n)]
        tb = build_tables(ProblemInstance(a_plus, [[0.0] * n for _ in range(m)], b, c, t))
        assert [tuple(row) for row in tb.row_support] == subsets
        assert all(tb.s_prime[i][j].is_point for i, s in enumerate(subsets) for j in s)
        yield ReducedProblem(tb, c, {}, n), sum(c[j] * v[j] for j in planted)


def _sweep_prunes(events, m):
    """Prunes of live nodes after an incumbent update: the run of prune
    events that follows an incumbent event, minus its sibling leaves."""
    count, after_incumbent = 0, False
    for ev in events:
        if ev.action == "incumbent":
            after_incumbent = True
        elif ev.action == "prune" and after_incumbent:
            count += len(ev.picks) < m
        else:
            after_incumbent = False
    return count


def _seeded_corpus():
    """The seeded corpus of ``test_heap_search_matches_sorted_reference``:
    reduced and unreduced tables of 240 random feasible instances."""
    fams = [("lukasiewicz", None), ("product", None), ("yager", 2.0),
            ("hamacher", 1.0), ("frank", 0.5), ("dombi", 1.0)]
    rng = random.Random(31337)
    for k in range(240):
        fam, param = fams[k % len(fams)]
        m, n = rng.randint(2, 12), rng.randint(2, 12)
        p = random_feasible_instance(rng, fam, param, m=m, n=n)
        if k % 3 == 0:
            p.c[:] = [float(rng.randint(1, 2)) for _ in range(n)]
        tb = build_tables(p)
        mode = Mode.OPTIMALITY_PRESERVING if k % 4 < 2 else Mode.FEASIBILITY_PRESERVING
        reduced, _ = simplify(tb, p.c, mode)
        for problem in (reduced, ReducedProblem(tb, p.c, {}, p.n)):
            if admissible_upper_bound(problem.tables) <= 10 ** 6:
                yield problem


class TestSharedNodeState:
    """A row whose one step is a forced reuse that leaves its column's
    running intersection as it was moves the node down in place, and any
    other child whose pick leaves it as it was shares its parent's ``inter``
    list.  So no built list may be mutated: checked after each search over
    32 planted covers and the whole seeded oracle corpus, enough states
    for the volume guards now that the unmodified search merges repeated
    ones."""

    @staticmethod
    def _problems():
        yield from (problem for problem, _ in _planted_covers(count=32))
        yield from _seeded_corpus()

    @staticmethod
    def _spy_pick(monkeypatch) -> list:
        """Every ``_pick`` the search applies, as (parent inter, parent
        mask, j, s, inter, mask, picks).  The search calls it with ``link``
        still the parent's chain, so the picks are that chain's and j."""
        calls = []
        pick = optimize._pick

        def spy(inter, mask, j, s):
            out = pick(inter, mask, j, s)
            link = sys._getframe(1).f_locals["link"]
            calls.append((inter, mask, j, s, *out, optimize._picks(link) + (j,)))
            return out

        monkeypatch.setattr(optimize, "_pick", spy)
        return calls

    def test_unchanged_reuse_shares_parent_objects(self, monkeypatch):
        built = self._spy_pick(monkeypatch)
        shared = copied = 0
        for problem in self._problems():
            tables = problem.tables
            for modified in (True, False):
                built.clear()
                branch_and_bound(problem, modified=modified)
                for parent, _, j, s, inter, _, picks in built:
                    if parent[j] == s:
                        assert inter is parent
                        shared += 1
                    else:
                        assert inter is not parent
                        copied += 1
                    # every built state still matches its picks
                    running = _running(picks, tables)
                    assert inter == [tables.col_interval[k] if r is None else r
                                     for k, r in enumerate(running)]
                    assert [s[0] for s in inter] == _batch_candidate(tables, picks)
        assert shared >= 10_000 and copied >= 10_000

    def test_mask_is_the_picked_columns(self, monkeypatch):
        built = self._spy_pick(monkeypatch)
        checked = 0
        for problem in self._problems():
            for modified in (True, False):
                built.clear()
                branch_and_bound(problem, modified=modified)
                for *_, mask, picks in built:
                    assert mask == sum(1 << j for j in set(picks))
                checked += len(built)
        assert checked >= 20_000

    def test_pass_through_rows_build_no_node(self, monkeypatch):
        built = self._spy_pick(monkeypatch)
        created = 0
        for problem, _ in _planted_covers():
            created += branch_and_bound(problem, modified=True).stats.nodes_created
        assert created >= 5_000
        assert len(built) <= 0.3 * created, (len(built), created)

    def test_answer_and_tables_unchanged_after_search(self):
        for k, problem in enumerate(self._problems()):
            tables = problem.tables
            col_interval = list(tables.col_interval)
            s_prime = [list(row) for row in tables.s_prime]
            lower = [tables.col_interval[j][0] for j in range(tables.n)]
            for modified in (True, False):
                res = branch_and_bound(problem, modified=modified)
                if res.found:
                    assert res.x == _batch_candidate(tables, res.picks), (k, modified)
                assert tables.col_interval == col_interval, (k, modified)
                assert tables.s_prime == s_prime, (k, modified)
                assert [tables.col_interval[j][0] for j in range(tables.n)] == lower, (k, modified)


class TestDomainsMatchReference:
    """At every prefix the sorted reference expands, the search's step
    routine gives the reference's domain, in both modes."""

    def test_domains_at_expanded_prefixes(self):
        prefixes = 0
        for problem in itertools.islice(_seeded_corpus(), 160):
            tables = problem.tables
            for modified in (True, False):
                *_, events = _reference_branch_and_bound(problem, modified)
                expanded = [()] + [ev.picks for ev in events if ev.action == "expand"]
                for prefix in expanded:
                    i = len(prefix)
                    if i == tables.m:
                        continue
                    assert _domain(prefix, i, tables) == \
                        _reference_domain(tables, prefix, i, False), prefix
                    assert _domain(prefix, i, tables, modified=True) == \
                        _reference_domain(tables, prefix, i, True), prefix
                    prefixes += 1
        assert prefixes >= 5_000


class TestRecordParity:
    """Without ``record`` the search skips allocating children priced out at
    birth; it must still find the same answer with the same counters."""

    def test_record_does_not_change_the_search(self):
        problems = list(_seeded_corpus())
        assert len(problems) >= 200
        problems += [problem for problem, _ in _planted_covers()]
        for k, problem in enumerate(problems):
            for modified in (True, False):
                quiet = branch_and_bound(problem, modified=modified)
                loud = branch_and_bound(problem, modified=modified, record=True)
                assert (quiet.x, quiet.picks, quiet.objective) == \
                    (loud.x, loud.picks, loud.objective), (k, modified)
                assert vars(quiet.stats) == vars(loud.stats), (k, modified)
                assert quiet.events == []


class TestMergedStates:
    """Without the reuse rule the search merges a state it has already
    expanded.  That changes no answer: the status and objective are those
    of the sorted reference searching without merging, and the oracle's
    optimum wherever the admissible vectors are few enough to list."""

    def test_same_answers_as_the_unmerged_reference(self):
        corpus = list(_seeded_corpus())
        covers = [problem for problem, _ in _planted_covers()]
        oracle_checked = 0
        for k, problem in enumerate(corpus + covers):
            res = branch_and_bound(problem, modified=False)
            x, _, z, stats, _ = _reference_branch_and_bound(problem, False, merge=False)
            assert stats["merged"] == 0
            assert (res.found, res.objective) == (x is not None, z), k
            if k >= len(corpus):
                assert res.stats.merged > 0, k
            if admissible_upper_bound(problem.tables) <= 5_000:
                rep = brute_force_optimum(problem.tables, problem.costs)
                assert res.found == (rep.optimum is not None), k
                if res.found:
                    assert res.objective == pytest.approx(rep.optimum[1], abs=TOL), k
                oracle_checked += 1
        assert oracle_checked >= 100

    def test_every_created_node_ends_in_one_event(self):
        for problem in [problem for problem, _ in _planted_covers()]:
            res = branch_and_bound(problem, modified=False, record=True)
            nodes = [ev.node for ev in res.events]
            assert sorted(nodes) == list(range(1, res.stats.nodes_created + 1))
            merges = sum(ev.action == "merge" for ev in res.events)
            assert merges == res.stats.merged > 0


def _workloads():
    """The benchmark's generators, loaded read-only from perfbench/."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestCoverCounters:
    """The search counters of the 28×18 cover that CI's console-script step
    solves, in both modes: a change to the node order shows here first."""

    @pytest.mark.parametrize("mode, want", [
        (Mode.OPTIMALITY_PRESERVING, (3001, 1909, 5, 1087, 5, 291, 306, 0)),
        (Mode.FEASIBILITY_PRESERVING, (11178, 3725, 9, 5317, 4, 2735, 1410, 2132)),
    ])
    def test_ci_cover(self, mode, want):
        problem, _ = _workloads().planted_cover(random.Random(7), "yager", 2.0, 28, 18)
        sol = solve(load_problem(problem), mode=mode)
        assert sol.optimal
        assert tuple(vars(sol.stats).values()) == want


def _uniform_tables(cells, n):
    """Tables over n columns from ``cells``, one {column: cell} dict per row;
    every column interval is [0, 1]."""
    grid = [[row.get(j, SetForm.empty()) for j in range(n)] for row in cells]
    row_support = [sorted(row) for row in cells]
    col_support = [[i for i, row in enumerate(cells) if j in row] for j in range(n)]
    m = len(cells)
    return ResolutionTables([SetForm.interval(0, 1)] * n, grid, row_support, col_support,
                            list(range(m)), list(range(n)), [0.5] * m)


class TestUniformColumns:
    """The modified search reuses a row's smallest picked column whose
    running intersection survives the row's cell, and meets a running
    intersection that is the cell itself without an intersection.  A column
    whose cells are one shared object keeps that object as its running
    intersection, so a row steps it on that identity test alone; equal but
    distinct cells cost one intersection each.  Each search must still
    match the sorted reference."""

    @staticmethod
    def _lowest_uniform():
        # row 2 after picks (0, 1): column 0 is uniform, column 1 is not
        point, iv = SetForm.point(0.5), SetForm.interval
        return _uniform_tables([{0: point, 1: iv(0.2, 0.8)}, {1: iv(0.3, 0.9)},
                                {0: point, 1: iv(0.4, 1.0)}, {1: iv(0.5, 1.0)}], 2)

    @staticmethod
    def _lowest_not_uniform():
        # row 2 after picks (0, 1): column 0 is not uniform and survives
        # ([0.2, 0.8] ∩ [0.3, 0.9]), column 1 is uniform above it
        point, iv = SetForm.point(0.5), SetForm.interval
        return _uniform_tables([{0: iv(0.2, 0.8), 1: point}, {1: point},
                                {0: iv(0.3, 0.9), 1: point}], 2)

    @staticmethod
    def _equal_distinct_cells():
        # column 0's cells are equal sets but distinct objects
        iv = SetForm.interval
        tb = _uniform_tables([{0: iv(0.2, 0.7), 1: iv(0.1, 0.4)}, {1: iv(0.2, 0.5)},
                              {0: iv(0.2, 0.7), 1: iv(0.3, 0.6)}, {0: iv(0.2, 0.7)}], 2)
        cells = [tb.s_prime[i][0] for i in (0, 2, 3)]
        assert all(c == cells[0] and c is not cells[0] for c in cells[1:])
        return tb

    @staticmethod
    def _none_uniform():
        iv = SetForm.interval
        return _uniform_tables([{0: iv(0.2, 0.8), 1: iv(0.1, 0.6)},
                                {0: iv(0.3, 0.9), 1: iv(0.2, 0.7)}], 2)

    @staticmethod
    def _count_intersect(monkeypatch):
        calls = []
        intersect = SetForm.intersect

        def spy(a, b):
            calls.append((a, b))
            return intersect(a, b)

        monkeypatch.setattr(SetForm, "intersect", spy)
        return calls

    @pytest.mark.parametrize("costs", [[1.0, 1.0], [0.1, 1.0], [1.0, 0.1]])
    @pytest.mark.parametrize("build", ["_lowest_uniform", "_lowest_not_uniform",
                                       "_equal_distinct_cells", "_none_uniform"])
    def test_matches_sorted_reference(self, build, costs):
        problem = ReducedProblem(getattr(self, build)(), costs, {}, 2)
        for modified in (True, False):
            res = branch_and_bound(problem, modified=modified, record=True)
            x, picks, z, stats, events = _reference_branch_and_bound(problem, modified)
            assert res.found
            assert (res.x, res.picks, res.objective) == (x, picks, z), modified
            assert vars(res.stats) == stats, modified
            assert res.events == events, modified

    def test_lowest_picked_column_is_forced(self):
        # the reuse rule forces the smallest surviving picked column, 0,
        # whose intersection moves x0 to 0.3, not the uniform column 1
        problem = ReducedProblem(self._lowest_not_uniform(), [1.0, 1.0], {}, 2)
        res = branch_and_bound(problem, record=True)
        expanded = [ev.picks for ev in res.events if ev.action == "expand"]
        assert (0, 1) in expanded
        assert (0, 1, 1) not in [ev.picks for ev in res.events]
        assert any(ev.picks == (0, 1, 0) and ev.x == (0.3, 0.5) for ev in res.events)

    def _reuse_of_column_0(self, tb, monkeypatch) -> list:
        """The intersections whose operands are both column 0's cells, in
        a modified search that expands (0, 1, 0): row 2 reuses column 0."""
        cells = [tb.s_prime[i][0] for i in tb.col_support[0]]
        calls = self._count_intersect(monkeypatch)
        res = branch_and_bound(ReducedProblem(tb, [0.1, 1.0], {}, 2), record=True)
        assert (0, 1, 0) in [ev.picks for ev in res.events if ev.action == "expand"]
        return [(a, b) for a, b in calls
                if any(a is c for c in cells) and any(b is c for c in cells)]

    @pytest.mark.parametrize("build", ["_lowest_uniform"])
    def test_uniform_lowest_column_skips_forced(self, build, monkeypatch):
        # column 0's cells are one object: row 2 reuses it on the identity test
        assert self._reuse_of_column_0(getattr(self, build)(), monkeypatch) == []

    def test_equal_distinct_cells_meet_once(self, monkeypatch):
        # column 0's cells are equal but distinct: row 2's reuse after (0, 1)
        # meets row 0's cell and its own, once
        tb = self._equal_distinct_cells()
        row0, row2 = tb.s_prime[0][0], tb.s_prime[2][0]
        calls = self._reuse_of_column_0(tb, monkeypatch)
        assert [(a is row0, b is row2) for a, b in calls].count((True, True)) == 1

    def test_planted_covers_never_call_forced(self, monkeypatch):
        # every reuse on the covers meets its own cell: no intersection at all
        problems = [problem for problem, _ in _planted_covers()]
        calls = self._count_intersect(monkeypatch)
        created = 0
        for problem in problems:
            created += branch_and_bound(problem, modified=True).stats.nodes_created
        assert created >= 5_000
        assert calls == []

    def test_tables_without_uniform_columns_call_forced(self, monkeypatch):
        problem = ReducedProblem(self._none_uniform(), [1.0, 1.0], {}, 2)
        calls = self._count_intersect(monkeypatch)
        res = branch_and_bound(problem)
        assert res.found
        assert calls

    def test_mask_holds_only_shared_cell_columns(self):
        assert optimize._bind_rows(self._lowest_uniform())[2] & 1
        assert not optimize._bind_rows(self._equal_distinct_cells())[2] & 1

    @staticmethod
    def _walk_matches_oracle(tables) -> int:
        """The box walk lists the oracle's admissible pick vectors over the
        feasibility-reduced tables, in order, each box the running
        intersections of its picks; returns the number of boxes."""
        got = enumerate_feasible_decomposition(tables)
        sub = simplify(tables, [0.0] * tables.n, Mode.FEASIBILITY_PRESERVING)[0].tables
        picks = enumerate_all_admissible(sub)
        assert [a for a, _ in got] == [
            {sub.row_ids[i]: sub.col_ids[j] for i, j in enumerate(e)} for e in picks]
        for e, (_, box) in zip(picks, got):
            for j, s in enumerate(_running(e, sub)):
                assert s is None or box[sub.col_ids[j]] == s, (e, j)
        return len(got)

    @pytest.mark.parametrize("build", ["_lowest_uniform", "_lowest_not_uniform",
                                       "_equal_distinct_cells", "_none_uniform"])
    def test_box_walk_matches_oracle(self, build):
        assert self._walk_matches_oracle(getattr(self, build)())

    def test_planted_covers_feasibility_walks_never_intersect(self, monkeypatch):
        # every column of a cover is uniform: neither search without the
        # reuse rule meets a picked column's cell
        calls = self._count_intersect(monkeypatch)
        created = 0
        for problem, _ in _planted_covers():
            created += branch_and_bound(problem, modified=False).stats.nodes_created
        assert created >= 5_000
        assert calls == []
        boxes = 0
        for problem, _ in _planted_covers(count=6, rows=(7, 8), cols=(6, 8)):
            boxes += len(enumerate_feasible_decomposition(problem.tables))
            assert calls == []
            self._walk_matches_oracle(problem.tables)
            calls.clear()
        assert boxes >= 5_000
