import itertools
import random

import pytest

from bfre import CapExceeded, build_tables, solve
from bfre.oracle import (
    brute_force_optimum, enumerate_all_admissible, grid_feasibility_census,
    random_feasible_instance, random_instance,
)
from bfre.optimize import enumerate_feasible_decomposition
from bfre.resolution import admissible_upper_bound

from conftest import make_instance

TOL = 1e-9


class TestEnumeration:
    def test_example_within_bound(self, example_tables):
        admissible = enumerate_all_admissible(example_tables)
        assert 0 < len(admissible) <= 5184
        assert admissible_upper_bound(example_tables) == 5184

    def test_infeasible_instance_empty(self):
        p = make_instance([[0.1]], [[0.1]], [0.9])
        assert enumerate_all_admissible(build_tables(p)) == []

    def test_empty_column_blocks_everything(self):
        p = make_instance([[1.0, 0.9]], [[1.0, 0.0]], [0.2])
        tb = build_tables(p)
        assert not tb.col_interval[0]
        assert enumerate_all_admissible(tb) == []

    def test_full_interval_cells_accept_all_picks(self):
        p = make_instance([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
                          [0.0, 0.0], family="product")
        assert len(enumerate_all_admissible(build_tables(p))) == 4

    def test_cap(self, example_tables):
        with pytest.raises(CapExceeded) as err:
            enumerate_all_admissible(example_tables, cap=100)
        assert err.value.bound == 5184


class TestBruteForce:
    def test_example_optimum(self, example, example_tables):
        rep = brute_force_optimum(example_tables, example.c)
        assert rep.optimum is not None
        assert rep.optimum[1] == pytest.approx(10.717, abs=TOL)

    def test_infeasible_reports_none(self):
        p = make_instance([[0.1]], [[0.1]], [0.9])
        rep = brute_force_optimum(build_tables(p), p.c)
        assert rep.optimum is None and rep.admissible_count == 0

    def test_matches_solver_on_product_instances(self):
        rng = random.Random(321)
        for _ in range(60):
            p = random_feasible_instance(rng, "product", m=3, n=3)
            rep = brute_force_optimum(build_tables(p), p.c)
            sol = solve(p)
            assert sol.optimal == (rep.optimum is not None)
            if sol.optimal:
                assert sol.objective == pytest.approx(rep.optimum[1], abs=TOL)


# The customary parameter of each family, both signs of Schweizer-Sklar.
FAMILIES = [("product", None), ("einstein_product", None), ("lukasiewicz", None),
            ("frank", 2.0), ("yager", 2.0), ("hamacher", 1.0), ("dombi", 2.0),
            ("schweizer_sklar", -1.0), ("schweizer_sklar", 2.0), ("sugeno_weber", 1.0),
            ("aczel_alsina", 2.0)]


def _two_pass_oracle(tables, costs):
    """(admissible vectors, optimum) as two passes over each pick vector: a
    batch admissibility check, then the candidate point rebuilt from
    scratch."""
    def groups(e):
        out = {}
        for i, j in enumerate(e):
            out.setdefault(j, []).append(i)
        return out

    def admissible(e):
        for j, rows in groups(e).items():
            inter = tables.s_prime[rows[0]][j]
            for i in rows[1:]:
                inter = inter.intersect(tables.s_prime[i][j])
                if not inter:
                    return False
        return True

    def candidate(e):
        x = [tables.col_interval[j][0] for j in range(tables.n)]
        for j, rows in groups(e).items():
            inter = tables.s_prime[rows[0]][j]
            for i in rows[1:]:
                inter = inter.intersect(tables.s_prime[i][j])
            x[j] = inter[0]
        return x

    if any(not s for s in tables.col_interval):
        return [], None
    vectors = [e for e in itertools.product(*tables.row_support) if admissible(e)]
    best = None
    for e in vectors:
        x = candidate(e)
        z = sum(c * v for c, v in zip(costs, x))
        if best is None or z < best[1]:
            best = (x, z)
    return vectors, best


class TestOnePassMatchesTwoPass:
    def test_all_families(self):
        rng = random.Random(4242)
        rejected = 0
        for k in range(330):
            fam, param = FAMILIES[k % len(FAMILIES)]
            gen = random_feasible_instance if k % 2 else random_instance
            p = gen(rng, fam, param, max_rows=4, max_cols=4)
            tb = build_tables(p)
            vectors, best = _two_pass_oracle(tb, p.c)
            rep = brute_force_optimum(tb, p.c)
            assert enumerate_all_admissible(tb) == vectors
            assert rep.admissible_count == len(vectors)
            assert rep.optimum == best
            if best is not None:
                rejected += admissible_upper_bound(tb) - len(vectors)
        assert rejected > 0   # some vectors fail the batch check


class TestGridCensus:
    def test_collapsed_pair_single_point(self):
        p = make_instance([[0.9]], [[0.9]], [0.4])
        census = grid_feasibility_census(p, step=0.05)
        assert census.eq_feasible == {(10,)}
        assert census.mismatches == []

    def test_all_zero_instance_everything_feasible(self):
        p = make_instance([[0.0, 0.0]], [[0.0, 0.0]], [0.0], family="product")
        census = grid_feasibility_census(p, step=0.25)
        assert len(census.eq_feasible) == census.points == 25
        assert census.mismatches == []

    def test_infeasible_instance_no_points(self):
        p = make_instance([[0.1]], [[0.1]], [0.9])
        census = grid_feasibility_census(p, step=0.05)
        assert census.eq_feasible == set() and census.mismatches == []

    def test_box_union_cross_check(self):
        rng = random.Random(642)
        for _ in range(25):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0),
                                     ("product", None)])
            gen = random_feasible_instance if rng.random() < 0.5 else random_instance
            p = gen(rng, fam, param, m=2, n=2)
            boxes = enumerate_feasible_decomposition(build_tables(p))
            census = grid_feasibility_census(p, step=0.05, boxes=boxes)
            assert census.mismatches == []
            assert census.box_feasible == census.eq_feasible

    def test_cap(self):
        p = make_instance([[0.5] * 5], [[0.5] * 5], [0.5])
        with pytest.raises(CapExceeded):
            grid_feasibility_census(p, step=0.05, cap=1000)

    @pytest.mark.parametrize("step", [0.3, 0.7, -0.5, 0.0])
    def test_step_not_one_over_an_integer_rejected(self, step):
        # 0.3 would check the 1/3 grid, 0.7 only {0, 1}, -0.5 no point at
        # all, and 0 would divide by zero
        p = make_instance([[0.0, 0.0]], [[0.0, 0.0]], [0.0], family="product")
        with pytest.raises(ValueError, match="not 1/k for a positive integer k"):
            grid_feasibility_census(p, step=step)

    @pytest.mark.parametrize("step, per_axis", [(0.05, 21), (0.25, 5), (0.5, 3), (1.0, 2)])
    def test_unit_fraction_steps_keep_their_point_counts(self, step, per_axis):
        p = make_instance([[0.0, 0.0]], [[0.0, 0.0]], [0.0], family="product")
        census = grid_feasibility_census(p, step=step)
        assert census.points == len(census.eq_feasible) == per_axis ** 2
        assert census.step == step and census.mismatches == []


class TestGenerators:
    def test_entries_snap_to_grid(self):
        rng = random.Random(11)
        p = random_instance(rng, "yager", 2.0)
        for row in itertools.chain(p.a_plus, p.a_minus):
            for v in row:
                assert abs(v * 20 - round(v * 20)) < 1e-12
        for v in p.b:
            assert abs(v * 20 - round(v * 20)) < 1e-12

    def test_pinned_instances_are_feasible(self):
        rng = random.Random(12)
        for _ in range(40):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0),
                                     ("hamacher", 1.0), ("product", None)])
            p = random_feasible_instance(rng, fam, param)
            assert solve(p).optimal
