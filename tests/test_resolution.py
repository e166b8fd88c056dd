import math
import random

import pytest

from bfre import (
    FeasibilityStatus, InfeasibleReason, PreconditionViolated, ProblemInstance, SetForm, Status,
    bipolar_cell, build_tables, check_feasibility, is_feasible_point, solve, validate,
)
from bfre.errors import InconsistentReduction
from bfre.oracle import planted_feasible_instance, random_feasible_instance, random_instance
from bfre.resolution import (
    _build_tables, _is_feasible_point, admissible_upper_bound, cell_grids, restrict, row_value,
    satisfies_by_tables, tables_to_json,
)
from bfre.sets import fold
from bfre.tnorms import DomainError, solve_u
from bfre.tolerance import EPS

from conftest import make_instance
from setforms import bits, constructed_intersect, constructed_snap, kind, pair, parse, same
from test_tnorms import _chain_solve_u

TOL = 1e-9

# Expected tables for the bundled 10x10 Yager(p=2) instance: the cell
# relaxation sets, cell solution sets, column intervals, and restricted sets.
RELAXATION = [
    "[0.4,1] [0.4,1] [0,1] [0,1] [0,0.6] [0,1] [0,1] [0,1] [0,1] [0,1]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0.2,1] [0,1] [0,1]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,0.55] [0,1] [0,1] [0,1]",
    "[0,1] [0,0.64] [0,0.6] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1]",
    "[0.4,1] [0,1] [0,0.6] [0,1] [0.3,1] [0,1] [0,1] [0,1] [0,1] [0,1]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0.2,1] [0.2,0.8] [0,1]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,0.6]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,0.8] [0,1]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0.6,1]",
    "[0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1] [0,1]",
]
SOLUTION = [
    "{0.4} {0.4} - - {0.6} - - {0} - {1}",
    "{1} - - - {0,1} - {1} {0.2} - -",
    "- - - - - {0,1} {0.55} {1} - -",
    "- {0.64} {0.6} {1} - - - - {0,1} {1}",
    "{0.4} - {0.6} {1} {0.3} - - {0} {0} {0}",
    "- - - - - - - {0.2} {0.2,0.8} -",
    "- {0} {0,1} - - - {1} {1} - {0.6}",
    "- - - - - - - - {0,0.8} -",
    "- - {0,1} - {0} - - {0} {1} {0.6}",
    "- - - - - {0,1} - {1} - -",
]
COLUMN_INTERVALS = "[0.4,1] [0.4,0.64] [0,0.6] [0,1] [0.3,0.6] [0,1] [0,0.55] [0.2,1] [0.2,0.8] {0.6}"
RESTRICTED = [
    "{0.4} {0.4} - - {0.6} - - - - -",
    "{1} - - - - - - {0.2} - -",
    "- - - - - {0,1} {0.55} {1} - -",
    "- {0.64} {0.6} {1} - - - - - -",
    "{0.4} - {0.6} {1} {0.3} - - - - -",
    "- - - - - - - {0.2} {0.2,0.8} -",
    "- - {0} - - - - {1} - {0.6}",
    "- - - - - - - - {0.8} -",
    "- - {0} - - - - - - {0.6}",
    "- - - - - {0,1} - {1} - -",
]


def parse_row(text):
    return [SetForm.empty() if tok == "-" else parse(tok) for tok in text.split()]


class TestBipolarCell:
    def test_both_sides_active(self):
        t = validate("yager", 2)
        s, i = bipolar_cell(t, 1.0, 0.8, 0.8)
        assert same(s, pair(0.0, 0.8)) and same(i, SetForm.interval(0.0, 0.8))

    def test_negative_side_only(self):
        t = validate("yager", 2)
        s, i = bipolar_cell(t, 0.25, 0.70, 0.50)
        assert same(s, SetForm.point(0.4)) and same(i, SetForm.interval(0.4, 1.0))

    def test_positive_side_only(self):
        t = validate("yager", 2)
        s, i = bipolar_cell(t, 0.70, 0.00, 0.50)
        assert same(s, SetForm.point(0.6)) and same(i, SetForm.interval(0.0, 0.6))

    def test_all_zero(self):
        for fam, param in (("product", None), ("yager", 2), ("lukasiewicz", None)):
            s, i = bipolar_cell(validate(fam, param), 0.0, 0.0, 0.0)
            full = SetForm.interval(0.0, 1.0)
            assert same(s, full) and same(i, full)

    def test_unreachable_rhs(self):
        s, i = bipolar_cell(validate("lukasiewicz"), 0.1, 0.1, 0.9)
        assert not s and same(i, SetForm.interval(0.0, 1.0))

    def test_crossed_bounds_empty_cell(self):
        # both one-sided constraints cannot hold at once
        s, i = bipolar_cell(validate("lukasiewicz"), 1.0, 1.0, 0.2)
        assert not s and not i

    def test_crossed_bounds_at_zero_rhs(self):
        # strict family, positive coefficients, zero rhs
        s, i = bipolar_cell(validate("product"), 0.5, 0.5, 0.0)
        assert not s and not i
        # nilpotent family with large coefficients crosses too
        s, i = bipolar_cell(validate("lukasiewicz"), 0.9, 0.9, 0.0)
        assert not s and not i

    def test_zero_rhs_interval(self):
        s, i = bipolar_cell(validate("lukasiewicz"), 0.3, 0.3, 0.0)
        assert same(s, SetForm.interval(0.3, 0.7)) and same(i, s)

    def test_collapsed_pair_is_point(self):
        s, i = bipolar_cell(validate("lukasiewicz"), 0.9, 0.9, 0.4)
        assert same(s, SetForm.point(0.5)) and same(i, SetForm.point(0.5))

    def test_arguments_checked_once_up_front(self):
        # every argument is checked, even on a side that cannot reach b,
        # with solve_u's texts; within EPS of [0, 1] it is clamped
        t = validate("yager", 2)
        for args, text in (((1.5, 0.2, 0.5), "a=1.5 outside [0, 1]"),
                           ((0.2, -0.5, 0.5), "a=-0.5 outside [0, 1]"),
                           ((0.2, 0.1, 1.5), "b=1.5 outside [0, 1]")):
            with pytest.raises(DomainError) as err:
                bipolar_cell(t, *args)
            assert str(err.value) == text
        edge = bipolar_cell(t, 1.0 + EPS / 2, -EPS / 2, 0.5)
        assert [bits(c) for c in edge] == [bits(c) for c in bipolar_cell(t, 1.0, 0.0, 0.5)]

    def test_nan_argument_rejected(self):
        t = validate("yager", 2)
        for args, name in (((math.nan, 0.2, 0.5), "a"), ((0.2, math.nan, 0.5), "a"),
                           ((0.2, 0.1, math.nan), "b")):
            with pytest.raises(DomainError, match=rf"^{name}=nan outside \[0, 1\]$"):
                bipolar_cell(t, *args)


class TestExampleTables:
    def test_relaxation_cells(self, example, example_tables):
        _, relaxation = cell_grids(example, example_tables)
        for i, text in enumerate(RELAXATION):
            for j, want in enumerate(parse_row(text)):
                assert same(relaxation[i][j], want), (i + 1, j + 1)

    def test_solution_cells(self, example, example_tables):
        solution, _ = cell_grids(example, example_tables)
        for i, text in enumerate(SOLUTION):
            for j, want in enumerate(parse_row(text)):
                assert same(solution[i][j], want), (i + 1, j + 1)

    def test_column_intervals(self, example_tables):
        for j, want in enumerate(parse_row(COLUMN_INTERVALS)):
            assert same(example_tables.col_interval[j], want), j + 1

    def test_restricted_cells(self, example_tables):
        for i, text in enumerate(RESTRICTED):
            for j, want in enumerate(parse_row(text)):
                assert same(example_tables.s_prime[i][j], want), (i + 1, j + 1)

    def test_row_supports(self, example_tables):
        supports = [[j + 1 for j in s] for s in example_tables.row_support]
        assert supports == [[1, 2, 5], [1, 8], [6, 7, 8], [2, 3, 4], [1, 3, 4, 5],
                            [8, 9], [3, 8, 10], [9], [3, 10], [6, 8]]

    def test_pick_bound(self, example_tables):
        assert admissible_upper_bound(example_tables) == 5184


class TestCheckFeasibility:
    def test_example_passes(self, example_tables):
        assert check_feasibility(example_tables).ok

    def test_unsatisfiable_row(self):
        p = make_instance([[0.1]], [[0.1]], [0.9])
        rep = check_feasibility(build_tables(p))
        assert rep.status is FeasibilityStatus.UNSATISFIABLE_ROW and rep.witness == 0

    def test_empty_column(self):
        p = make_instance([[1.0]], [[1.0]], [0.2])
        rep = check_feasibility(build_tables(p))
        assert rep.status is FeasibilityStatus.EMPTY_COLUMN and rep.witness == 0

    def test_necessary_not_sufficient(self):
        # Both rows satisfiable in isolation, no common point in the column.
        p = make_instance([[0.2], [0.8]], [[0.7], [0.2]], [0.5, 0.5])
        tb = build_tables(p)
        assert same(tb.s_prime[0][0], SetForm.point(0.2))
        assert same(tb.s_prime[1][0], SetForm.point(0.7))
        assert check_feasibility(tb).ok


class TestIsFeasiblePoint:
    def test_example_optimum(self, example, example_tables):
        x = [0.4, 0.64, 0, 0, 0.3, 0, 0, 0.2, 0.8, 0.6]
        assert is_feasible_point(example, x, tables=example_tables)

    def test_all_ones_violates(self, example, example_tables):
        assert not is_feasible_point(example, [1.0] * 10, tables=example_tables)

    def test_all_zero_instance(self):
        p = make_instance([[0.0, 0.0]], [[0.0, 0.0]], [0.0], family="product")
        for x in ([0.0, 0.0], [0.3, 0.9], [1.0, 1.0]):
            assert is_feasible_point(p, x)

    def test_rejects_outside_box(self, example):
        with pytest.raises(DomainError):
            is_feasible_point(example, [1.2] + [0.0] * 9)

    def test_rejects_wrong_length(self, example):
        with pytest.raises(DomainError):
            is_feasible_point(example, [0.5])

    def test_coordinate_beyond_eps_names_it(self, example):
        for v in (-2 * TOL, 1 + 2 * TOL):
            x = [0.4, 0.64, 0, 0, 0.3, 0, 0, 0.2, 0.8, 0.6]
            x[3] = v
            with pytest.raises(DomainError) as err:
                is_feasible_point(example, x)
            assert str(err.value) == f"x[3]={v!r} outside [0, 1]"

    def test_nan_coordinate_names_it(self, example):
        # x[3] is 0 at the optimum, so a NaN read as 0 would pass
        x = [0.4, 0.64, 0, math.nan, 0.3, 0, 0, 0.2, 0.8, 0.6]
        with pytest.raises(DomainError, match=r"^x\[3\]=nan outside \[0, 1\]$"):
            is_feasible_point(example, x)

    def test_one_row_off_by_two_eps_is_rejected(self):
        # product: 0.9·0.5 = 0.45 and 0.8·0.5 = 0.4 hold exactly at x = (0.5, 0.5)
        def instance(b1):
            return make_instance([[0.9, 0.0], [0.0, 0.8]], [[0.0, 0.0], [0.0, 0.0]],
                                 [0.45, b1], family="product")
        assert is_feasible_point(instance(0.4), [0.5, 0.5])
        assert is_feasible_point(instance(0.4 + TOL / 2), [0.5, 0.5])
        for b1 in (0.4 + 2 * TOL, 0.4 - 2 * TOL):
            p = instance(b1)
            assert not is_feasible_point(p, [0.5, 0.5])
            assert not is_feasible_point(p, [0.5, 0.5], tables=build_tables(p))

    def test_disagreeing_tables_raise(self):
        # x1 = 0.5 solves 0.9 T x1 = 0.4, but the tables of 0.9 T x1 = 0.6
        # only admit x1 = 0.7; the check must raise, also under python -O
        p = make_instance([[0.9]], [[0.0]], [0.4])
        other = build_tables(make_instance([[0.9]], [[0.0]], [0.6]))
        assert is_feasible_point(p, [0.5])
        with pytest.raises(InconsistentReduction, match="disagree"):
            is_feasible_point(p, [0.5], tables=other)


class TestInstanceValidation:
    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match=r"b\[0\] out of"):
            make_instance([[0.5]], [[0.5]], [1.5])
        with pytest.raises(ValueError, match=r"a_plus\[0\]\[1\] out of"):
            make_instance([[0.5, 2.0]], [[0.5, 0.5]], [0.5])

    def test_negative_cost(self):
        with pytest.raises(ValueError, match=r"c\[0\] negative"):
            make_instance([[0.5]], [[0.5]], [0.5], c=[-1.0])

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost(self, cost):
        with pytest.raises(ValueError, match=r"c\[1\] not finite"):
            make_instance([[0.5, 0.5]], [[0.5, 0.5]], [0.5], c=[1.0, cost])

    def test_cost_sum_overflows(self):
        # each cost is finite, but every objective would overflow to inf
        with pytest.raises(ValueError, match="sum of c overflows"):
            make_instance([[0.5] * 9], [[0.5] * 9], [0.5], c=[1e308] * 9)
        make_instance([[0.5] * 9], [[0.5] * 9], [0.5], c=[1.99e307] * 9)

    def test_ragged_matrix(self):
        with pytest.raises(ValueError):
            make_instance([[0.5, 0.5], [0.5]], [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            make_instance([[0.5]], [[0.5]], [0.5, 0.5])

    @pytest.mark.parametrize("b", [[0.0], [0.5, 1.0]])
    def test_equations_over_no_variables(self, b):
        with pytest.raises(ValueError, match="over no variables"):
            ProblemInstance([[]] * len(b), [[]] * len(b), b, [], validate("product"))


def random_case(rng):
    fam, param = rng.choice([("lukasiewicz", None), ("product", None),
                             ("yager", 2.0), ("hamacher", 1.0),
                             ("frank", 2.0), ("sugeno_weber", 1.0)])
    gen = random_feasible_instance if rng.random() < 0.5 else random_instance
    return gen(rng, fam, param, m=rng.randint(1, 4), n=rng.randint(1, 4))


class TestCellDecomposition:
    def test_solution_equals_relaxed_union_of_sides(self):
        # the bipolar cell must agree with the two one-sided resolutions
        rng = random.Random(4242)
        for _ in range(400):
            fam, param = rng.choice([("lukasiewicz", None), ("product", None),
                                     ("yager", 2.0), ("dombi", 1.0)])
            t = validate(fam, param)
            ap, am, b = rng.randint(0, 20) / 20, rng.randint(0, 20) / 20, rng.randint(0, 20) / 20
            s, i = bipolar_cell(t, ap, am, b)
            plus = side_sets(t, ap, b, negated=False)
            minus = side_sets(t, am, b, negated=True)
            i_expected = plus[1].intersect(minus[1])
            assert same(i, i_expected), (fam, param, ap, am, b)
            for v in [k / 40 for k in range(41)]:
                in_s = s.contains(v)
                expected = i_expected.contains(v) and (plus[0].contains(v) or minus[0].contains(v))
                assert in_s == expected, (fam, param, ap, am, b, v)


def side_sets(t, a, b, negated):
    """One-sided solution/relaxation sets, computed independently."""
    if a < b - TOL:
        return SetForm.empty(), SetForm.interval(0.0, 1.0)
    u = solve_u(t, a, b)
    if b > TOL:
        if negated:
            return SetForm.point(1.0 - u), SetForm.interval(1.0 - u, 1.0)
        return SetForm.point(u), SetForm.interval(0.0, u)
    if negated:
        s = SetForm.interval(1.0 - u, 1.0)
    else:
        s = SetForm.interval(0.0, u)
    return s, s


class TestTableCriterion:
    def test_matches_direct_evaluation(self):
        rng = random.Random(99)
        for _ in range(120):
            p = random_case(rng)
            tb = build_tables(p)
            for _ in range(25):
                x = [rng.randint(0, 20) / 20 for _ in range(p.n)]
                direct = all(abs(row_value(p, i, x) - p.b[i]) <= TOL for i in range(p.m))
                assert direct == satisfies_by_tables(tb, x), (p, x)

    def test_matches_cell_by_cell_reference(self):
        """Against the criterion written cell by cell, at grid points and at
        the column bounds, where a point passes every interval; a point one
        coordinate short raises."""
        def reference(tb, x):
            return (all(tb.col_interval[j].contains(x[j]) for j in range(tb.n))
                    and all(any(tb.s_prime[i][j].contains(x[j]) for j in tb.row_support[i])
                            for i in range(tb.m)))

        rng = random.Random(404)
        passed = raised = 0
        for _ in range(150):
            p = random_case(rng)
            tb = build_tables(p)
            for _ in range(10):
                x = [rng.choice((rng.randint(0, 20) / 20, c[0], c[-1])) if c else rng.random()
                     for c in tb.col_interval]
                got = satisfies_by_tables(tb, x)
                assert got == reference(tb, x), (p, x)
                passed += got
            if all(tb.col_interval):
                short = [c[0] for c in tb.col_interval][:-1]
                with pytest.raises(IndexError):
                    satisfies_by_tables(tb, short)
                raised += 1
        assert passed >= 20 and raised >= 20, (passed, raised)


class TestRestrictedShape:
    def test_endpoints_pin_to_column_bounds(self):
        rng = random.Random(7)
        for _ in range(150):
            p = random_case(rng)
            tb = build_tables(p)
            for j in range(p.n):
                ij = tb.col_interval[j]
                if not ij:
                    continue
                lo, hi = ij[0], ij[-1]
                for i in range(p.m):
                    cell = tb.s_prime[i][j]
                    if not cell:
                        continue
                    assert cell[0] in (lo, hi) and cell[-1] in (lo, hi), (p, i, j)

    def test_containment_chain(self):
        rng = random.Random(8)
        for _ in range(150):
            p = random_case(rng)
            tb = build_tables(p)
            solution, relaxation = cell_grids(p, tb)
            for i in range(p.m):
                for j in range(p.n):
                    assert tb.s_prime[i][j].issubset(solution[i][j])
                    assert solution[i][j].issubset(relaxation[i][j])
                    assert tb.col_interval[j].issubset(relaxation[i][j])


class TestRestrict:
    def test_keeps_column_intervals_frozen(self, example_tables):
        sub = restrict(example_tables, [0, 3, 4], [0, 1, 2])
        assert sub.row_ids == [0, 3, 4] and sub.col_ids == [0, 1, 2]
        for j in range(3):
            assert same(sub.col_interval[j], example_tables.col_interval[j])
        assert sub.rhs == [example_tables.rhs[0], example_tables.rhs[3], example_tables.rhs[4]]

    def test_supports_recomputed(self, example_tables):
        sub = restrict(example_tables, [0, 3, 4], [0, 1, 2])
        assert [[j + 1 for j in s] for s in sub.row_support] == [[1, 2], [2, 3], [1, 3]]


def table_bits(tb):
    """A copy of every field of a table, cells and intervals as float.hex."""
    return (list(tb.row_ids), list(tb.col_ids), [list(sup) for sup in tb.row_support],
            [list(sup) for sup in tb.col_support], [v.hex() for v in tb.rhs],
            [bits(s) for s in tb.col_interval], [[bits(s) for s in row] for row in tb.s_prime])


class TestRestrictSharing:
    """A restriction builds its own lists and shares only the sets, which
    nothing downstream may write to: the tables a solve checks its answer
    against are left as they were built."""

    def test_column_restriction_copies_row_lists(self, example_tables):
        tb = example_tables
        sub = restrict(tb, [0, 3, 4, 7], [j for j in range(tb.n) if j != 4])
        assert sub.col_interval is not tb.col_interval and sub.col_ids is not tb.col_ids
        for r, i in enumerate([0, 3, 4, 7]):
            assert sub.s_prime[r] is not tb.s_prime[i]
            assert sub.row_support[r] is not tb.row_support[i]
        # keeping every column copies the row lists too
        sub = restrict(tb, [0, 3, 4, 7], range(tb.n))
        assert sub.col_interval is not tb.col_interval and sub.col_ids is not tb.col_ids
        assert all(sub.s_prime[r] is not tb.s_prime[i] for r, i in enumerate([0, 3, 4, 7]))
        TestDerivedSupports.assert_supports_scanned(sub)

    @pytest.mark.parametrize("mode", ["optimality", "feasibility"])
    def test_solve_leaves_the_full_tables_unchanged(self, monkeypatch, mode):
        import bfre.optimize as optimize
        from bfre import Mode

        built, checked = [], []

        def tracked_build(p, reached):
            tb = _build_tables(p, reached)
            built.append((tb, table_bits(tb)))
            return tb

        def tracked_check(p, x, reached, tables):
            tb, before = built[-1]
            assert tables is tb and table_bits(tables) == before
            checked.append(tables)
            return _is_feasible_point(p, x, reached, tables)

        monkeypatch.setattr(optimize, "_build_tables", tracked_build)
        monkeypatch.setattr(optimize, "_is_feasible_point", tracked_check)
        mode = Mode.OPTIMALITY_PRESERVING if mode == "optimality" else Mode.FEASIBILITY_PRESERVING
        rng = random.Random(f"sharing:{mode.value}")
        families = [("yager", 2.0), ("product", None), ("lukasiewicz", None), ("hamacher", 1.0)]
        for k in range(40):
            family, param = families[k % 4]
            size = 32 if mode is Mode.OPTIMALITY_PRESERVING and k < 8 else rng.randint(1, 6)
            p, _ = planted_feasible_instance(rng, family, param, m=size, n=size)
            assert solve(p, mode).optimal
            tb, before = built[-1]
            assert table_bits(tb) == before
        assert len(checked) == 40


class TestDerivedSupports:
    """restrict derives the supports from its parent's; they must equal a
    fresh scan of the restricted cells."""

    @staticmethod
    def assert_supports_scanned(tb):
        assert tb.row_support == [[j for j in range(tb.n) if tb.s_prime[i][j]]
                                  for i in range(tb.m)]
        assert tb.col_support == [[i for i in range(tb.m) if tb.s_prime[i][j]]
                                  for j in range(tb.n)]

    @staticmethod
    def keep(rng, k):
        """Random distinct positions out of k, ascending, as ``restrict``
        takes them."""
        return sorted(rng.sample(range(k), rng.randint(0, k)))

    def test_random_keep_lists(self):
        rng = random.Random(31)
        for _ in range(150):
            p = random_feasible_instance(rng, "product", m=rng.randint(1, 8), n=rng.randint(1, 8))
            tb = build_tables(p)
            self.assert_supports_scanned(tb)
            self.assert_supports_scanned(restrict(tb, self.keep(rng, tb.m), self.keep(rng, tb.n)))

    def test_chains_of_three(self):
        rng = random.Random(32)
        for _ in range(100):
            fam, param = rng.choice([("lukasiewicz", None), ("yager", 2.0), ("hamacher", 1.0)])
            gen = random_feasible_instance if rng.random() < 0.5 else random_instance
            tb = build_tables(gen(rng, fam, param, m=rng.randint(1, 10), n=rng.randint(1, 10)))
            for _ in range(3):
                tb = restrict(tb, self.keep(rng, tb.m), self.keep(rng, tb.n))
                self.assert_supports_scanned(tb)


def _ref_row_value(p, i, x):
    """Per-term evaluation, every argument checked by evaluate."""
    from bfre.tnorms import evaluate
    t = p.tnorm
    return max(
        max(evaluate(t, p.a_plus[i][j], x[j]), evaluate(t, p.a_minus[i][j], 1.0 - x[j]))
        for j in range(p.n)
    )


_ALL_FAMILIES = [
    ("product", None), ("einstein_product", None), ("lukasiewicz", None), ("frank", 2.0),
    ("yager", 2.0), ("hamacher", 1.0), ("dombi", 2.0), ("schweizer_sklar", -1.0),
    ("sugeno_weber", 1.0), ("aczel_alsina", 2.0),
]


class TestRowValue:
    @pytest.mark.parametrize("family,param", _ALL_FAMILIES)
    def test_bitwise_equal_to_per_term_evaluation(self, family, param):
        rng = random.Random(f"row_value:{family}")
        for _ in range(60):
            p = random_instance(rng, family, param, m=rng.randint(1, 5), n=rng.randint(1, 6))
            for _ in range(10):
                x = [rng.choice((rng.random(), rng.randint(0, 20) / 20, 0.0, 1.0))
                     for _ in range(p.n)]
                for i in range(p.m):
                    assert row_value(p, i, x).hex() == _ref_row_value(p, i, x).hex(), (p, i, x)

    @pytest.mark.parametrize("family,param", _ALL_FAMILIES)
    def test_clamps_within_eps_and_raises_beyond(self, family, param):
        rng = random.Random(f"row_value_range:{family}")
        for _ in range(40):
            p = random_instance(rng, family, param, m=1, n=rng.randint(1, 4))
            x = [rng.choice((-TOL / 2, 1 + TOL / 2, rng.random())) for _ in range(p.n)]
            assert row_value(p, 0, x).hex() == _ref_row_value(p, 0, x).hex(), (p, x)
            x[rng.randrange(p.n)] = rng.choice((-2 * TOL, 1 + 2 * TOL, -0.5, 1.5))
            with pytest.raises(DomainError) as want:
                _ref_row_value(p, 0, x)
            with pytest.raises(DomainError) as got:
                row_value(p, 0, x)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("family,param", _ALL_FAMILIES)
    def test_feasible_point_verdict_is_the_clamped_points(self, family, param):
        # is_feasible_point clamps once and evaluates the rows unchecked
        rng = random.Random(f"feasible_point:{family}")
        for _ in range(30):
            p = random_feasible_instance(rng, family, param, m=rng.randint(1, 4),
                                         n=rng.randint(1, 4))
            tb = build_tables(p)
            sol = solve(p)
            base = sol.x if sol.optimal else [rng.random() for _ in range(p.n)]
            x = [rng.choice((v, -TOL / 2, 1 + TOL / 2)) for v in base]
            clamped = [min(1.0, max(0.0, v)) for v in x]
            assert is_feasible_point(p, x, tables=tb) == \
                is_feasible_point(p, clamped, tables=tb), (p, x)

    def test_nan_coordinate_rejected(self, example):
        x = [0.4, 0.64, 0, math.nan, 0.3, 0, 0, 0.2, 0.8, 0.6]
        with pytest.raises(DomainError, match=r"^y=nan outside \[0, 1\]$"):
            row_value(example, 0, x)

    @pytest.mark.parametrize("k", [9, 11])
    def test_wrong_length_rejected_as_is_feasible_point_does(self, example, k):
        x = [0.5] * k
        with pytest.raises(DomainError) as want:
            is_feasible_point(example, x)
        with pytest.raises(DomainError) as got:
            row_value(example, 0, x)
        assert str(got.value) == str(want.value) == f"point has {k} coordinates, expected 10"

    def test_row_of_zero_coefficients_is_zero(self):
        p = ProblemInstance([[0.0]], [[0.0]], [0.3], [1.0], validate("product"))
        value = row_value(p, 0, [0.5])
        assert value == 0.0 and isinstance(value, float)
        assert not is_feasible_point(p, [0.5])


def _full_verdict(p, x):
    """Every row by full evaluation: the verdict the skip rule must match."""
    return all(abs(row_value(p, i, x) - p.b[i]) <= EPS for i in range(p.m))


# customary parameters of all ten families, plus the settings where the
# unclamped kernel rounds above min(a, y)
_SKIP_RULE_SETTINGS = _ALL_FAMILIES + [
    ("schweizer_sklar", 2.0), ("yager", 30.0), ("aczel_alsina", 20.0), ("dombi", 20.0),
    ("schweizer_sklar", -15.0),
]


class TestSkipRuleEquivalence:
    """is_feasible_point skips terms whose cap min(a, y) cannot change a
    row's verdict; it must agree with full evaluation everywhere."""

    @staticmethod
    def _points(rng, p, bases):
        shifts = (EPS / 2, -EPS / 2, 2 * EPS, -2 * EPS, 1e-3, -1e-3)
        for x in bases:
            yield x
            for j in range(p.n):
                for s in shifts:
                    y = list(x)
                    y[j] += s
                    if -EPS <= y[j] <= 1.0 + EPS:
                        yield y
        for _ in range(4):
            yield [rng.random() for _ in range(p.n)]

    @pytest.mark.parametrize("family,param", _SKIP_RULE_SETTINGS)
    def test_matches_full_evaluation(self, family, param):
        rng = random.Random(f"skip_rule:{family}:{param}")
        seen = {True: 0, False: 0}
        for k in range(40):
            size = dict(m=rng.randint(1, 6), n=rng.randint(1, 6))
            if k % 4 == 3:
                p, bases = random_instance(rng, family, param, **size), []
            else:
                p, planted = planted_feasible_instance(rng, family, param, **size)
                bases = [planted]
            try:
                sol = solve(p)
            except InconsistentReduction:
                sol = None
            if sol is not None and sol.optimal:
                bases.append(sol.x)
            for x in self._points(rng, p, bases):
                verdict = is_feasible_point(p, x)
                assert verdict == _full_verdict(p, x), (p, x)
                seen[verdict] += 1
        assert seen[True] >= 40 and seen[False] >= 40, seen

    @pytest.mark.parametrize("x,feasible", [([0.0, 1.0], True), ([EPS / 2, 1.0], True),
                                            ([0.2, 1.0], False), ([0.0, 0.9], False)])
    def test_zero_rhs_row(self, x, feasible):
        # b = 0 is met by the empty max; only a term above EPS breaks it
        p = make_instance([[0.3, 0.0]], [[0.0, 0.5]], [0.0], family="product")
        assert is_feasible_point(p, x) == _full_verdict(p, x) == feasible

    @pytest.mark.parametrize("b,feasible", [(0.0, True), (EPS, True), (2 * EPS, False)])
    def test_row_of_zero_coefficients(self, b, feasible):
        # every term is skipped: the row's value is the empty max, 0
        p = make_instance([[0.0]], [[0.0]], [b], family="product")
        assert is_feasible_point(p, [0.5]) == _full_verdict(p, [0.5]) == feasible

    @pytest.mark.parametrize("b", [0.4, 0.4 + EPS / 2, 0.4 - EPS / 2])
    def test_only_a_term_within_eps_reaches(self, b):
        # T(0.4, 1) = 0.4 has its cap inside [b - EPS, b + EPS]; the other
        # caps lie below b - EPS
        p = make_instance([[0.2, 0.4]], [[0.1, 0.0]], [b], family="product")
        assert is_feasible_point(p, [0.5, 1.0]) and _full_verdict(p, [0.5, 1.0])

    @pytest.mark.parametrize("a_plus,a_minus,x", [
        ([0.4, 0.9], [0.0, 0.0], [1.0, 0.6]),     # plus term overshoots
        ([0.4, 0.0], [0.0, 0.9], [1.0, 0.4]),     # minus term overshoots
    ])
    def test_overshoot_after_the_reaching_term(self, a_plus, a_minus, x):
        # 0.9·0.6 = 0.54 > 0.4, after the first term has reached b
        p = make_instance([a_plus], [a_minus], [0.4], family="product")
        assert not is_feasible_point(p, x) and not _full_verdict(p, x)

    def test_cap_exactly_at_lower_edge_reaches(self):
        # cap - b == -EPS exactly: the term reaches b - EPS and must count
        p = make_instance([[EPS]], [[0.0]], [2 * EPS], family="product")
        assert EPS - 2 * EPS == -EPS
        assert is_feasible_point(p, [1.0]) and _full_verdict(p, [1.0])

    def test_rounding_above_min_cannot_reach(self):
        # yager(30) rounds T(0.05, 0.7) above 0.05 unless the kernel clamps;
        # b is the smallest float with 0.05 - b < -EPS, so only an
        # unclamped value would reach b - EPS
        b = 0.05 + EPS
        while 0.05 - b < -EPS:
            b = math.nextafter(b, 0.0)
        while 0.05 - b >= -EPS:
            b = math.nextafter(b, 1.0)
        p = make_instance([[0.05]], [[0.0]], [b], family="yager", param=30.0)
        assert not is_feasible_point(p, [0.7]) and not _full_verdict(p, [0.7])

    @pytest.mark.parametrize("family,param", [
        ("yager", 2.0), ("product", None), ("lukasiewicz", None), ("hamacher", 1.0)])
    def test_matches_full_evaluation_at_32x32(self, family, param):
        # the benchmark's shape: most of a row's terms lie below b - EPS
        rng = random.Random(f"skip_rule_32:{family}:{param}")
        seen = {True: 0, False: 0}
        for _ in range(2):
            p, planted = planted_feasible_instance(rng, family, param, m=32, n=32)
            sol = solve(p)
            assert sol.optimal
            for x in self._points(rng, p, [planted, sol.x]):
                verdict = is_feasible_point(p, x)
                assert verdict == _full_verdict(p, x), (p, x)
                seen[verdict] += 1
        assert seen[True] >= 40 and seen[False] >= 40, seen


def _knife_edges():
    """(b, a) pairs on which the reach test fl(a - b) >= -EPS and the
    spelling a >= fl(b - EPS) disagree: 'direct' where only the reach test
    holds, with b in (EPS, 2·EPS]; 'tables' where only the spelling does."""
    rng = random.Random("knife_edge")
    found = {}
    while len(found) < 2:
        b = EPS + rng.random() * EPS
        a = math.nextafter(b - EPS, 0.0)
        if EPS < b and a - b >= -EPS and not a >= b - EPS:
            found.setdefault("direct", (b, a))
        b = rng.random()
        a = b - EPS
        if a >= b - EPS and not a - b >= -EPS:
            found.setdefault("tables", (b, a))
    return found


_KNIFE_FAMILIES = [("product", None), ("lukasiewicz", None), ("yager", 2.0)]


def _edge_instance(b, a, side, family, param):
    """A 1x2 row whose one term with coefficient a sits on side ``side``,
    and the point where that term is T(a, 1) = a for every t-norm."""
    row, zero = [a, 0.0], [0.0, 0.0]
    a_plus, a_minus = (row, zero) if side == "plus" else (zero, row)
    p = make_instance([a_plus], [a_minus], [b], family=family, param=param)
    return p, [1.0 if side == "plus" else 0.0, 0.5]


class TestOneRowScan:
    """solve scans each row's coefficients once; resolution and the direct
    check both read that scan."""

    @pytest.mark.parametrize("mode", ["optimality", "feasibility"])
    def test_solve_scans_once(self, monkeypatch, mode):
        import bfre.optimize as optimize
        import bfre.resolution as resolution
        from bfre import Mode

        scan, calls = resolution._reached_columns, []

        def counted(p):
            calls.append(p)
            return scan(p)

        monkeypatch.setattr(resolution, "_reached_columns", counted)
        monkeypatch.setattr(optimize, "_reached_columns", counted)
        mode = Mode.OPTIMALITY_PRESERVING if mode == "optimality" else Mode.FEASIBILITY_PRESERVING
        rng = random.Random(f"one_scan:{mode.value}")
        statuses = set()
        for k in range(12):
            size = dict(m=rng.randint(1, 6), n=rng.randint(1, 6))
            gen = random_instance if k % 2 else random_feasible_instance
            p = gen(rng, "product", **size)
            calls.clear()
            statuses.add(solve(p, mode).status)
            assert calls == [p]
        assert len(statuses) == 2

    @pytest.mark.parametrize("edge", ["direct", "tables"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("family,param", _KNIFE_FAMILIES)
    def test_knife_edge_of_the_two_reach_tests(self, edge, side, family, param):
        # a term the two spellings decide apart: the scan keeps it, and the
        # tables and the direct check decide it by the one reach test
        b, a = _knife_edges()[edge]
        p, at_a = _edge_instance(b, a, side, family, param)
        rng = random.Random(f"knife_edge:{edge}:{side}:{family}")
        for x in TestSkipRuleEquivalence._points(rng, p, [at_a]):
            assert is_feasible_point(p, x) == _full_verdict(p, x), (p, x)
        assert _full_verdict(p, at_a) == (edge == "direct")
        tb = build_tables(p)
        cells, col, s_prime = TestBuildTablesReference.full_grid(p)
        assert [bits(c) for c in tb.col_interval] == [bits(c) for c in col]
        assert [[bits(c) for c in r] for r in tb.s_prime] == [[bits(c) for c in r] for r in s_prime]
        assert tb.row_support == ([[0]] if edge == "direct" else [[]])


class TestOneReachTest:
    """Cell resolution, solve_u and the direct check decide whether a term
    reaches b by the one test fl(a - b) >= -EPS."""

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("family,param", _KNIFE_FAMILIES)
    def test_direct_edge_solves(self, side, family, param):
        # a = nextafter(fl(b - EPS), 0) reaches b: T(a, 1) is within EPS of b
        b = 1.420571580830845e-09
        a = math.nextafter(b - EPS, 0.0)
        assert a - b >= -EPS and not a >= b - EPS
        p, at_a = _edge_instance(b, a, side, family, param)
        sol = solve(p)
        assert sol.status is Status.OPTIMAL, sol
        assert sol.x == [at_a[0], 0.0]
        assert is_feasible_point(p, sol.x)

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("family,param", _KNIFE_FAMILIES)
    def test_tables_edge_is_infeasible(self, side, family, param):
        # a = fl(b - EPS) with fl(a - b) < -EPS does not reach b: the row has
        # no usable cell, and the direct check rejects the point T(a, 1) = a
        b, a = _knife_edges()["tables"]
        p, at_a = _edge_instance(b, a, side, family, param)
        sol = solve(p)
        assert (sol.status, sol.reason, sol.witness) == \
            (Status.INFEASIBLE, InfeasibleReason.UNSATISFIABLE_ROW, 0)
        assert not is_feasible_point(p, at_a, tables=build_tables(p))

    @pytest.mark.parametrize("family,param", _KNIFE_FAMILIES)
    def test_every_stage_decides_reach_alike(self, family, param):
        t = validate(family, param)
        rng = random.Random(f"one_reach:{family}")
        seen = set()
        for k in range(600):
            b = rng.uniform(EPS, 1.0) if k % 2 else EPS + EPS * (1.0 - rng.random())
            a = b - EPS
            for _ in range(rng.randint(0, 4)):
                a = math.nextafter(a, rng.choice((0.0, 1.0)))
            reaches = a - b >= -EPS
            cell, _ = bipolar_cell(t, a, 0.0, b)
            try:
                solve_u(t, a, b)
                solved = True
            except PreconditionViolated:
                solved = False
            p = make_instance([[a]], [[0.0]], [b], family=family, param=param)
            # T(a, 1) = a; the tables' cross-check raises on a disagreement
            direct = is_feasible_point(p, [1.0], tables=build_tables(p))
            assert bool(cell) == solved == reaches == direct, (a, b)
            seen.add((reaches, a >= b - EPS))
        # both outcomes, and both cases where the spelling a >= fl(b - EPS) errs
        assert seen == {(True, True), (False, False), (True, False), (False, True)}, seen


class TestBuildTablesReference:
    """Only reachable cells are resolved; the tables must equal the ones
    from resolving every cell and folding every relaxation set."""

    @staticmethod
    def full_grid(p):
        m, n = p.m, p.n
        cells = [[bipolar_cell(p.tnorm, p.a_plus[i][j], p.a_minus[i][j], p.b[i])
                  for j in range(n)] for i in range(m)]
        col = []
        for j in range(n):
            inter = SetForm.interval(0.0, 1.0)
            for i in range(m):
                inter = inter.intersect(cells[i][j][1])
            col.append(inter)
        s_prime = [[None] * n for _ in range(m)]
        for j in range(n):
            targets = () if not col[j] else (col[j][0], col[j][-1])
            for i in range(m):
                s_prime[i][j] = cells[i][j][0].intersect(col[j]).snap(targets)
        return cells, col, s_prime

    @pytest.mark.parametrize("family,param", _ALL_FAMILIES)
    def test_matches_full_grid(self, family, param):
        rng = random.Random(f"build_tables:{family}")
        for _ in range(40):
            gen = random_feasible_instance if rng.random() < 0.5 else random_instance
            p = gen(rng, family, param, m=rng.randint(1, 8), n=rng.randint(1, 8))
            tb = build_tables(p)
            cells, col, s_prime = self.full_grid(p)
            doc = tables_to_json(p, tb)
            assert doc["solution"] == [[str(c[0]) for c in row] for row in cells]
            assert doc["relaxation"] == [[str(c[1]) for c in row] for row in cells]
            assert tb.col_interval == col and tb.s_prime == s_prime
            TestDerivedSupports.assert_supports_scanned(tb)


class TestBuildTablesPairs:
    """At the settings where two-point cells are commonest, the per-column
    restrict gives the full-grid tables to the bit."""

    @pytest.mark.parametrize("family,param", [
        ("dombi", 2.0), ("aczel_alsina", 2.0), ("schweizer_sklar", -1.0)])
    def test_matches_full_grid_to_the_bit(self, family, param):
        rng = random.Random(f"pair_restricts:{family}:{param}")
        pairs = kept = 0
        for _ in range(100):
            p, _ = planted_feasible_instance(rng, family, param,
                                             m=rng.randint(1, 6), n=rng.randint(1, 6))
            tb = build_tables(p)
            cells, col, s_prime = TestBuildTablesReference.full_grid(p)
            assert [bits(c) for c in tb.col_interval] == [bits(c) for c in col], p
            assert [[bits(c) for c in row] for row in tb.s_prime] == \
                [[bits(c) for c in row] for row in s_prime], p
            pairs += sum(c[0].is_pair for row in cells for c in row)
            kept += sum(c.is_pair for row in tb.s_prime for c in row)
        # a pair-heavy corpus: pairs cut, and pairs kept whole
        assert pairs >= 100 and kept >= 30, (pairs, kept)


def _chain_bipolar_cell(t, a_plus, a_minus, b):
    """``bipolar_cell`` as it resolved every cell through the checked
    ``solve_u`` of the former if/elif chain."""
    plus_ge = a_plus >= b - EPS
    minus_ge = a_minus >= b - EPS
    if not plus_ge and not minus_ge:
        return SetForm.empty(), SetForm.interval(0.0, 1.0)
    if b > EPS:
        if plus_ge and not minus_ge:
            u = _chain_solve_u(t, a_plus, b)
            return SetForm.point(u), SetForm.interval(0.0, u)
        if minus_ge and not plus_ge:
            u = _chain_solve_u(t, a_minus, b)
            return SetForm.point(1.0 - u), SetForm.interval(1.0 - u, 1.0)
        lo = 1.0 - _chain_solve_u(t, a_minus, b)
        hi = _chain_solve_u(t, a_plus, b)
        if lo - hi > EPS:
            return SetForm.empty(), SetForm.empty()
        if hi - lo <= EPS:
            return SetForm.point(lo), SetForm.point(lo)
        return pair(lo, hi), SetForm.interval(lo, hi)
    lo = 1.0 - _chain_solve_u(t, a_minus, 0.0)
    hi = _chain_solve_u(t, a_plus, 0.0)
    if lo - hi > EPS:
        return SetForm.empty(), SetForm.empty()
    cell = SetForm.interval(lo, hi)
    return cell, cell


def _chain_tables(p):
    """(column intervals, restricted cells) by the loop ``build_tables``
    ran on checked cells: the same reach test and ascending-row fold, every
    set rebuilt by its constructor."""
    m, n = p.m, p.n
    col = [SetForm.interval(0.0, 1.0)] * n
    solved = [[] for _ in range(n)]
    for i in range(m):
        for j in range(n):
            ap, am, b = p.a_plus[i][j], p.a_minus[i][j], p.b[i]
            if ap >= b - EPS or am >= b - EPS:
                cell, relax = _chain_bipolar_cell(p.tnorm, ap, am, b)
                col[j] = constructed_intersect(col[j], relax)
                if cell:
                    solved[j].append((i, cell))
    s_prime = [[SetForm.empty()] * n for _ in range(m)]
    for j in range(n):
        if not col[j]:
            continue
        targets = (col[j][0], col[j][-1])
        for i, cell in solved[j]:
            s_prime[i][j] = constructed_snap(constructed_intersect(cell, col[j]), targets)
    return col, s_prime


def _float_instance(rng, family, param, m, n):
    """Entries off any grid, a+ mostly large, and about a third of the rows
    at b = 0."""
    return ProblemInstance(
        [[rng.random() ** 0.5 for _ in range(n)] for _ in range(m)],
        [[rng.random() ** 3 for _ in range(n)] for _ in range(m)],
        [0.0 if rng.random() < 0.3 else rng.random() * 0.9 for _ in range(m)],
        [rng.random() * 5 for _ in range(n)], validate(family, param))


class TestBuildTablesBitExact:
    """The bound kernel, the unchecked cells and the operand-returning set
    algebra give the tables of checked cells on the former chain, to the
    bit."""

    @pytest.mark.parametrize("family,param", _SKIP_RULE_SETTINGS)
    def test_matches_checked_chain_loop(self, family, param):
        rng = random.Random(f"bit_exact:{family}:{param}")
        for k in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            if k % 3 == 0:
                p = random_instance(rng, family, param, m=m, n=n)
            elif k % 3 == 1:
                p = random_feasible_instance(rng, family, param, m=m, n=n)
            else:
                p = _float_instance(rng, family, param, m, n)
            tb = build_tables(p)
            col, s_prime = _chain_tables(p)
            assert [bits(c) for c in tb.col_interval] == [bits(c) for c in col], p
            assert [[bits(c) for c in row] for row in tb.s_prime] == \
                [[bits(c) for c in row] for row in s_prime], p
            TestDerivedSupports.assert_supports_scanned(tb)

    def test_zero_rhs_rows_and_narrow_cells(self):
        # a b = 0 row whose cells are intervals, one of them the whole column
        # interval, beside b > 0 rows, and a column whose interval is empty
        p = make_instance([[0.1, 0.0, 0.3], [0.2, 0.9, 0.6], [0.4, 0.8, 0.6]],
                          [[0.1, 0.0, 0.2], [0.1, 0.3, 0.1], [0.9, 0.1, 0.6]],
                          [0.0, 0.5, 0.6], family="yager", param=2.0)
        tb = build_tables(p)
        col, s_prime = _chain_tables(p)
        assert [bits(c) for c in tb.col_interval] == [bits(c) for c in col]
        assert [[bits(c) for c in row] for row in tb.s_prime] == \
            [[bits(c) for c in row] for row in s_prime]
        assert any(kind(c) == "interval" for row in tb.s_prime for c in row)

    @staticmethod
    def assert_matches_chain(p):
        """``build_tables(p)`` equals ``_chain_tables(p)`` to the bit; returns
        the tables and the reference column intervals."""
        tb = build_tables(p)
        col, s_prime = _chain_tables(p)
        assert [bits(c) for c in tb.col_interval] == [bits(c) for c in col], p
        assert [[bits(c) for c in row] for row in tb.s_prime] == \
            [[bits(c) for c in row] for row in s_prime], p
        return tb, col

    def test_bounds_tied_within_eps(self):
        # Lukasiewicz at b = 0.25: column 0 folds [.5 + .3e, 1] then the
        # point [.5, .5 + .5e], column 2 the point then [.5 + .8e, 1]; both
        # end at the point .5, where a plain max/min fold would not.
        # Column 1's pair cell ends .8e above the column and is snapped onto it.
        e = EPS
        p = make_instance([[0.0, 0.5, 0.75 - 0.5 * e], [0.75 - 0.5 * e, 0.5 - 0.8 * e, 0.0]],
                          [[0.75 + 0.3 * e, 0.0, 0.75], [0.75, 0.5, 0.75 + 0.8 * e]],
                          [0.25, 0.25])
        tb, _ = self.assert_matches_chain(p)
        assert bits(tb.col_interval[0]) == bits(tb.col_interval[2]) == bits(SetForm.point(0.5))
        assert tb.s_prime[1][1].is_pair and tb.s_prime[1][1][-1] == tb.col_interval[1][-1] == 0.75

    def test_running_bounds_narrow_after_wide(self, monkeypatch):
        # one-sided cells only: [0, .5] and [.3, 1] leave the column wide,
        # then [.5 - .4e, 1] ends its running bounds within EPS, so it is
        # folded into the point .5 - .4e, which row 0's point .5 keeps
        e = EPS
        p = make_instance([[0.75], [0.0], [0.0]], [[0.0], [0.55], [0.75 - 0.4 * e]], [0.25] * 3)
        tb, _ = self.assert_matches_chain(p)
        assert tb.col_interval[0].is_point and tb.col_support[0] == [0, 2]
        assert _column_folds(monkeypatch, p) == 1

    def test_crossed_cell_after_one_sided_cells(self, monkeypatch):
        # rows 0, 1 and 3 are one-sided; row 2's two sides cross, [.65, .35],
        # which empties the column without a fold
        p = make_instance([[0.75], [0.0], [0.9], [0.6]], [[0.0], [0.55], [0.9], [0.0]],
                          [0.25] * 4)
        tb, _ = self.assert_matches_chain(p)
        assert not tb.col_interval[0] and tb.col_support[0] == []
        assert _column_folds(monkeypatch, p) == 0

    def test_zero_rhs_rows_beside_one_sided_rows(self, monkeypatch):
        # column 0: the b = 0 and b = EPS/2 interval cells [.1, .8] and
        # [.4, .7] between one-sided rows leave the running bounds [.4, .5]
        # wide, and both are kept as the column itself; column 1: the b = 0
        # point {.6} meets the one-sided [.6, 1], and the column is folded
        p = make_instance([[0.75, 0.0], [0.2, 0.4], [0.0, 0.0], [0.3, 0.0]],
                          [[0.0, 0.85], [0.1, 0.6], [0.55, 0.0], [0.4, 0.0]],
                          [0.25, 0.0, 0.25, 0.5 * EPS])
        tb, _ = self.assert_matches_chain(p)
        assert kind(tb.col_interval[0]) == "interval" and tb.col_interval[1].is_point
        assert tb.s_prime[1][0] is tb.col_interval[0] is tb.s_prime[3][0]
        assert _column_folds(monkeypatch, p) == 1

    def test_corpus_takes_both_column_paths(self, monkeypatch):
        # a column is read off its running bounds exactly when the reference
        # relaxation sets, none of them empty, end more than EPS apart
        shortcut = folded = 0
        for p in _wide_corpus():
            paths = _column_paths(p)
            assert _column_folds(monkeypatch, p) == paths.count("fold"), p
            shortcut += paths.count("shortcut")
            folded += paths.count("fold")
        assert shortcut >= 1000 and folded >= 100, (shortcut, folded)

    def test_full_size_and_extreme_settings(self):
        # the corpus must reach every branch of the float-level resolution
        census = set()
        for p in _wide_corpus():
            tb, col = self.assert_matches_chain(p)
            TestDerivedSupports.assert_supports_scanned(tb)
            census |= _shape_census(p, col)
        assert census == {"pair cell", "b = 0 interval cell", "crossed cell",
                          "point column", "empty column"}


_PRESOLVE_FAMILIES = [("yager", 2.0), ("product", None), ("lukasiewicz", None),
                      ("hamacher", 1.0)]
_EXTREME_SETTINGS = [("yager", 30.0), ("dombi", 20.0), ("schweizer_sklar", 5.0),
                     ("schweizer_sklar", -15.0), ("frank", 1e-3), ("sugeno_weber", 0.0),
                     # the _FAMILIES domain edges, where cells are least regular
                     ("yager", 100.0), ("dombi", 25.0), ("aczel_alsina", 100.0),
                     ("frank", 1e-9), ("frank", 1e12), ("hamacher", 1e6),
                     ("schweizer_sklar", -25.0)]


def _wide_corpus():
    """32x32 grid-planted instances of the four families of a presolve-heavy
    solve, then small grid, planted and off-grid instances at extreme
    parameters."""
    for family, param in _PRESOLVE_FAMILIES:
        rng = random.Random(f"bit_exact_32:{family}")
        for _ in range(3):
            yield planted_feasible_instance(rng, family, param, m=32, n=32)[0]
    for family, param in _EXTREME_SETTINGS:
        rng = random.Random(f"bit_exact_extreme:{family}:{param}")
        for k in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            if k % 3 == 0:
                yield random_instance(rng, family, param, m=m, n=n)
            elif k % 3 == 1:
                yield random_feasible_instance(rng, family, param, m=m, n=n)
            else:
                yield _float_instance(rng, family, param, m, n)


class TestColumnBoundCells:
    """``build_tables`` reads each column's restricted cells off the
    column's bounds (lo, hi): a kept cell is the column interval itself or
    one of the column's shared sets {lo}, {hi} and {lo, hi}."""

    def test_kept_cells_are_the_columns_shared_sets(self):
        hexes = lambda s: tuple(v.hex() for v in s)
        reused = 0
        for p in _wide_corpus():
            tb = build_tables(p)
            for j, col in enumerate(tb.col_interval):
                kept = [tb.s_prime[i][j] for i in tb.col_support[j]]
                shared = {id(c): c for c in kept if c is not col}
                if not col:
                    assert not kept, (p, j)
                    continue
                lo, hi = col[0], col[-1]
                allowed = {hexes((lo, lo)), hexes((hi, hi)), hexes((lo, lo, hi, hi))}
                assert len(shared) <= 3, (p, j)
                assert len({hexes(c) for c in shared.values()}) == len(shared), (p, j)
                assert all(hexes(c) in allowed for c in shared.values()), (p, j)
                reused += len(kept) - len(shared)
        assert reused >= 1000, reused


def _column_folds(monkeypatch, p) -> int:
    """How many columns ``build_tables(p)`` folds with ``sets.fold``."""
    import bfre.resolution as resolution
    calls = []

    def counted(sets, *acc):
        calls.append(1)
        return fold(sets, *acc)

    with monkeypatch.context() as patch:
        patch.setattr(resolution, "fold", counted)
        build_tables(p)
    return len(calls)


def _column_paths(p) -> list:
    """Per column, how the lemma beside ``sets.fold`` sorts the reference
    relaxation sets: "crossed" when one is empty, else "shortcut" when the
    largest lower end and the smallest upper end lie more than EPS apart,
    else "fold"."""
    paths = []
    for j in range(p.n):
        lo, hi, crossed = 0.0, 1.0, False
        for i in range(p.m):
            ap, am, b = p.a_plus[i][j], p.a_minus[i][j], p.b[i]
            relax = _chain_bipolar_cell(p.tnorm, ap, am, b)[1]
            if not relax:
                crossed = True
            else:
                lo, hi = max(lo, relax[0]), min(hi, relax[-1])
        paths.append("crossed" if crossed else "shortcut" if hi - lo > EPS else "fold")
    return paths


def _shape_census(p, col) -> set:
    """The branches the reference resolution of ``p`` takes, by name."""
    shapes = set()
    for i in range(p.m):
        for j in range(p.n):
            ap, am, b = p.a_plus[i][j], p.a_minus[i][j], p.b[i]
            if ap >= b - EPS or am >= b - EPS:
                cell, relax = _chain_bipolar_cell(p.tnorm, ap, am, b)
                if cell.is_pair:
                    shapes.add("pair cell")
                if kind(cell) == "interval":
                    shapes.add("b = 0 interval cell")
                if not relax:
                    shapes.add("crossed cell")
    if any(c.is_point for c in col):
        shapes.add("point column")
    if any(not c for c in col):
        shapes.add("empty column")
    return shapes


class TestExports:
    def test_json_shape(self, example, example_tables):
        doc = tables_to_json(example, example_tables)
        assert doc["column_interval"][9] == "{0.6}"
        assert doc["restricted"][7][8] == "{0.8}"

    def test_restricted_view_exports_its_own_cells(self, example, example_tables):
        # grids follow row_ids/col_ids, in the restriction's order
        full = tables_to_json(example, example_tables)
        rows, cols = [0, 4, 7], [2, 8]
        doc = tables_to_json(example, restrict(example_tables, rows, cols))
        for key in ("relaxation", "solution", "restricted"):
            assert doc[key] == [[full[key][i][j] for j in cols] for i in rows], key
        assert doc["solution"][2] == ["∅", "{0,0.8}"]

    def test_cell_grids_match_bipolar_cell(self):
        # grid values, b = 0 rows and a+ = a- = 1 cells, whose relaxation
        # [1 - b, b] is crossed (empty) for b < 0.5
        rng = random.Random("cell_grids")
        zero_rows = crossed = 0
        for k in range(160):
            family, param = _ALL_FAMILIES[k % len(_ALL_FAMILIES)]
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a_plus = [[rng.choice((1.0, rng.randint(0, 20) / 20)) for _ in range(n)]
                      for _ in range(m)]
            a_minus = [[1.0 if a == 1.0 and rng.random() < 0.5 else rng.randint(0, 20) / 20
                        for a in row] for row in a_plus]
            b = [rng.choice((0.0, rng.randint(0, 20) / 20)) for _ in range(m)]
            p = ProblemInstance(a_plus, a_minus, b, [1.0] * n, validate(family, param))
            tb = build_tables(p)
            if k % 2:
                tb = restrict(tb, sorted(rng.sample(range(m), rng.randint(1, m))),
                              sorted(rng.sample(range(n), rng.randint(1, n))))
            solution, relaxation = cell_grids(p, tb)
            for r, i in enumerate(tb.row_ids):
                zero_rows += b[i] == 0.0
                for c, j in enumerate(tb.col_ids):
                    want = bipolar_cell(p.tnorm, a_plus[i][j], a_minus[i][j], b[i])
                    assert (bits(solution[r][c]), bits(relaxation[r][c])) == \
                        tuple(bits(s) for s in want), (k, i, j)
                    crossed += b[i] > EPS and not want[1]
        assert zero_rows >= 100 and crossed >= 100, (zero_rows, crossed)
