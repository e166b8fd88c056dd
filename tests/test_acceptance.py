"""Acceptance suite: the end-to-end guarantees this package ships under.

Run with ``pytest tests/test_acceptance.py -v`` for one verdict line per
criterion (add ``-s`` for the inline checklist).  Tolerances are fixed here
and nowhere else: value agreement 1e-9, throughput budgets 1s (single solve)
and 60s (randomized cross-check corpus).
"""

import itertools
import random
import sys
import time

from bfre import (
    Mode, build_tables, check_feasibility, enumerate_feasible_decomposition,
    simplify, solve, validate,
)
from bfre.optimize import branch_and_bound
from bfre.oracle import (
    brute_force_optimum, grid_feasibility_census, random_feasible_instance,
    random_instance,
)
from bfre.resolution import cell_grids, row_value, satisfies_by_tables
from bfre.tnorms import evaluate, generator, pseudo_inverse, solve_u

from setforms import same
from test_resolution import COLUMN_INTERVALS, RELAXATION, RESTRICTED, SOLUTION, parse_row

TOL = 1e-9
SINGLE_SOLVE_BUDGET = 1.0
CORPUS_BUDGET = 60.0

FAMILIES = (("lukasiewicz", None), ("product", None),
            ("yager", 2.0), ("hamacher", 1.0))
PER_FAMILY = 200


def _report(number, title):
    """Context manager printing one verdict line per criterion."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"acceptance {number} [{title}]: {verdict}")
            sys.stdout.flush()
            return False

    return _Ctx()


def corpus():
    """The deterministic randomized corpus shared by criteria 5 and 8.

    All entries (matrices and right-hand sides) sit on the 0.05 grid.
    """
    rng = random.Random(0xBF0E)
    for family, param in FAMILIES:
        for k in range(PER_FAMILY):
            yield family, k, random_instance(rng, family, param)


def pinned_batch(per_family=50):
    """Extra feasible-by-construction instances (beyond the criterion):
    grid matrices, right-hand sides back-computed from a random grid point."""
    rng = random.Random(0xFEA5)
    for family, param in FAMILIES:
        for k in range(per_family):
            yield family, k, random_feasible_instance(rng, family, param)


def test_01_end_to_end_optimum(example):
    with _report(1, "worked example end to end"):
        t0 = time.perf_counter()
        sol = solve(example)
        elapsed = time.perf_counter() - t0
        assert sol.optimal
        want = [0.4, 0.64, 0.0, 0.0, 0.3, 0.0, 0.0, 0.2, 0.8, 0.6]
        for got, expected in zip(sol.x, want):
            assert abs(got - expected) <= TOL
        assert abs(sol.objective - 10.717) <= TOL
        assert elapsed < SINGLE_SOLVE_BUDGET


def test_02_table_reproduction(example, example_tables):
    with _report(2, "resolution tables"):
        solution, relaxation = cell_grids(example, example_tables)
        for grid, expected_rows in ((relaxation, RELAXATION),
                                    (solution, SOLUTION),
                                    (example_tables.s_prime, RESTRICTED)):
            for i, text in enumerate(expected_rows):
                for j, want in enumerate(parse_row(text)):
                    assert same(grid[i][j], want), (i + 1, j + 1)
        for j, want in enumerate(parse_row(COLUMN_INTERVALS)):
            assert same(example_tables.col_interval[j], want), j + 1
        # anchor cells
        assert str(solution[7][8]) == "{0,0.8}"
        assert str(example_tables.col_interval[8]) == "[0.2,0.8]"
        assert str(example_tables.col_interval[9]) == "{0.6}"


def test_03_reduction_ledger(example, example_tables):
    with _report(3, "reduction ledger chain"):
        reduced, ledger = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
        assert ledger.bound_sequence() == [5184, 864, 288, 144, 72, 36, 8]
        fixed = ledger.fixed_assignments()
        want = {9: 0.6, 8: 0.8, 7: 0.2, 5: 0.0, 6: 0.0, 4: 0.3, 3: 0.0}
        assert set(fixed) == set(want)
        for j, v in want.items():
            assert abs(fixed[j] - v) <= TOL
        assert (reduced.tables.m, reduced.tables.n) == (3, 3)
        assert [[str(c) for c in row] for row in reduced.tables.s_prime] == [
            ["{0.4}", "{0.4}", "∅"],
            ["∅", "{0.64}", "{0.6}"],
            ["{0.4}", "∅", "{0.6}"],
        ]


def test_04_search_trace(example, example_tables):
    with _report(4, "branch-and-bound trace"):
        reduced, _ = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
        res = branch_and_bound(reduced, record=True)
        assert res.stats.nodes_created == 6
        by_node = {ev.node: ev for ev in res.events}
        assert set(by_node) == {1, 2, 3, 4, 5, 6}
        assert by_node[5].action == "incumbent"
        assert abs(by_node[5].z - 0.624) <= TOL
        assert {n for n, ev in by_node.items() if ev.action == "prune"} == {4, 6}
        assert abs(by_node[4].z - 1.098) <= TOL
        assert abs(by_node[6].z - 1.098) <= TOL


def test_05_oracle_equivalence():
    with _report(5, "solver matches brute force"):
        t0 = time.perf_counter()
        checked = feasible = 0
        for family, k, p in corpus():
            sol = solve(p)
            rep = brute_force_optimum(build_tables(p), p.c)
            assert sol.optimal == (rep.optimum is not None), (family, k)
            if sol.optimal:
                feasible += 1
                assert abs(sol.objective - rep.optimum[1]) <= TOL, (family, k)
            checked += 1
        assert checked == PER_FAMILY * len(FAMILIES)
        assert feasible > 50  # the corpus must actually exercise the search
        # extra feasible-by-construction batch, beyond the stated criterion
        for family, k, p in pinned_batch():
            sol = solve(p)
            rep = brute_force_optimum(build_tables(p), p.c)
            assert sol.optimal and rep.optimum is not None, (family, k)
            assert abs(sol.objective - rep.optimum[1]) <= TOL, (family, k)
        assert time.perf_counter() - t0 < CORPUS_BUDGET


def test_06_box_decomposition_census():
    with _report(6, "feasible-region decomposition census"):
        rng = random.Random(0xCE2505)
        done = 0
        while done < 50:
            family, param = FAMILIES[done % len(FAMILIES)]
            gen = random_feasible_instance if done % 2 else random_instance
            p = gen(rng, family, param, m=rng.randint(1, 4), n=2)
            boxes = enumerate_feasible_decomposition(build_tables(p))
            census = grid_feasibility_census(p, step=0.05, boxes=boxes)
            assert census.mismatches == [], p
            assert census.box_feasible == census.eq_feasible, p
            done += 1


def test_07_tnorm_algebra():
    with _report(7, "t-norm algebra agreement"):
        cases = [("product", None), ("einstein_product", None), ("lukasiewicz", None),
                 ("frank", 0.5), ("frank", 2.0), ("frank", 5.0),
                 ("yager", 0.5), ("yager", 1.0), ("yager", 2.0), ("yager", 5.0),
                 ("hamacher", 0.5), ("hamacher", 1.0), ("hamacher", 2.0), ("hamacher", 5.0),
                 ("dombi", 0.5), ("dombi", 1.0), ("dombi", 2.0), ("dombi", 5.0),
                 ("schweizer_sklar", 0.5), ("schweizer_sklar", 1.0),
                 ("schweizer_sklar", 2.0), ("schweizer_sklar", 5.0),
                 ("sugeno_weber", 0.5), ("sugeno_weber", 1.0),
                 ("sugeno_weber", 2.0), ("sugeno_weber", 5.0),
                 ("aczel_alsina", 0.5), ("aczel_alsina", 1.0),
                 ("aczel_alsina", 2.0), ("aczel_alsina", 5.0)]
        grid = [i / 10 for i in range(11)]
        assert len({f for f, _ in cases}) == 10
        for family, param in cases:
            t = validate(family, param)
            for x in grid:
                for y in grid:
                    closed = evaluate(t, x, y)
                    composed = pseudo_inverse(t, generator(t, x) + generator(t, y))
                    assert abs(closed - composed) <= TOL, (family, param, x, y)
            for a in grid:
                for b in grid:
                    if a < b or b == 0.0:
                        continue
                    u = solve_u(t, a, b)
                    assert abs(evaluate(t, a, u) - b) <= TOL, (family, param, a, b)
                    if a > b:
                        via_gen = pseudo_inverse(t, generator(t, b) - generator(t, a))
                        assert abs(u - via_gen) <= TOL, (family, param, a, b)


def _grid_step(n):
    return {1: 20, 2: 20, 3: 10, 4: 5, 5: 4}[n]


def test_08_simplification_soundness():
    with _report(8, "reduction soundness on the corpus"):
        for family, k, p in itertools.chain(corpus(), pinned_batch()):
            tables = build_tables(p)
            if not check_feasibility(tables).ok:
                continue
            full = brute_force_optimum(tables, p.c)
            # optimality-preserving reduction keeps the optimum
            reduced, _ = simplify(tables, p.c, Mode.OPTIMALITY_PRESERVING)
            part = brute_force_optimum(reduced.tables, reduced.costs)
            fixed_cost = sum(p.c[j] * v for j, v in reduced.fixed.items())
            if full.optimum is None:
                assert part.optimum is None
            else:
                assert part.optimum is not None, (family, k)
                assert abs(part.optimum[1] + fixed_cost - full.optimum[1]) <= TOL, (family, k)
            # feasibility-preserving reduction keeps the feasible set
            feas, _ = simplify(tables, p.c, Mode.FEASIBILITY_PRESERVING)
            kk = _grid_step(p.n)
            for idx in itertools.product(range(kk + 1), repeat=p.n):
                x = [v / kk for v in idx]
                original = satisfies_by_tables(tables, x)
                lifted = all(abs(x[j] - v) <= TOL for j, v in feas.fixed.items()) and \
                    satisfies_by_tables(feas.tables, [x[j] for j in feas.tables.col_ids])
                assert original == lifted, (family, k, x)


def test_09_direct_evaluation_anchor():
    # the table criterion used in criterion 8 agrees with direct evaluation
    with _report(9, "table criterion anchored to direct evaluation"):
        rng = random.Random(0xA11C)
        for _ in range(120):
            family, param = FAMILIES[rng.randrange(len(FAMILIES))]
            p = random_feasible_instance(rng, family, param, m=rng.randint(1, 3), n=2)
            tables = build_tables(p)
            for xi in range(11):
                for yi in range(11):
                    x = [xi / 10, yi / 10]
                    direct = all(abs(row_value(p, i, x) - p.b[i]) <= TOL
                                 for i in range(p.m))
                    assert direct == satisfies_by_tables(tables, x), (p, x)
