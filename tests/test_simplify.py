import hashlib
import importlib
import itertools
import json
import pickle
import random
import sys
from collections import Counter

import pytest

from bfre import InconsistentReduction, Mode, build_tables, check_feasibility, simplify
from bfre.cli import load_problem, main
from bfre.oracle import (
    brute_force_optimum, planted_feasible_instance, random_feasible_instance, random_instance,
)
from bfre.resolution import admissible_upper_bound, restrict, satisfies_by_tables
from bfre.sets import SetForm
from bfre.simplify import (
    _SLOTS, Action, LedgerStep, ReducedProblem, ReductionLedger, Rule, _LiveTables,
    rule_dominated_column, rule_dominated_row, rule_forced_assignment, rule_free_column,
    rule_lower_bound_column, rule_singleton_column, rule_two_point_row, rule_zero_rhs,
)
from bfre.resolution import ProblemInstance, ResolutionTables

from conftest import make_instance
from test_optimize import _workloads
from test_resolution import table_bits

TOL = 1e-9


def applied(rule, tables, costs=None) -> list:
    """The actions ``rule`` applies to a fresh live view of ``tables``, in
    order and in original ids, as the view's ledger records them."""
    view = _LiveTables(tables)
    rule(view, costs)
    return [s.action for s in view.ledger.steps]


def dropped(actions):
    """Original ids of the rows a list of single-row actions drops, in
    order."""
    assert all(len(a.rows) == 1 for a in actions)
    return [a.rows[0] for a in actions]


def state(example_tables, rows, cols):
    """Restriction of the example tables by original 1-based ids."""
    keep_r = [i for i in range(10) if i + 1 in rows]
    keep_c = [j for j in range(10) if j + 1 in cols]
    return restrict(example_tables, keep_r, keep_c)


class TestZeroRhs:
    def test_example_has_none(self, example_tables):
        assert applied(rule_zero_rhs, example_tables) == []

    def test_single_zero(self):
        p = make_instance([[0.5], [0.5]], [[0.5], [0.5]], [0.0, 0.5])
        act, = applied(rule_zero_rhs, build_tables(p))
        assert act.rows == (0,)

    def test_all_zero(self):
        p = make_instance([[0.5], [0.5]], [[0.5], [0.5]], [0.0, 0.0])
        act, = applied(rule_zero_rhs, build_tables(p))
        assert act.rows == (0, 1)


class TestSingletonColumn:
    def test_example_fixes_last_column(self, example_tables):
        act = applied(rule_singleton_column, example_tables)[0]
        assert act.rule is Rule.SINGLETON_COLUMN
        assert act.fixed == {9: pytest.approx(0.6, abs=TOL)}
        assert act.cols == (9,) and act.rows == (6, 8)

    def test_no_singleton_no_action(self, example_tables):
        sub = state(example_tables, rows=range(1, 11), cols=range(1, 10))
        assert applied(rule_singleton_column, sub) == []

    def test_unsupported_singleton_removes_only_column(self):
        # synthetic: the column interval is a point no cell can witness
        tables = ResolutionTables(
            col_interval=[SetForm.point(0.0), SetForm.interval(0.0, 1.0)],
            s_prime=[[SetForm.empty(), SetForm.point(0.5)]],
            row_support=[[1]], col_support=[[], [0]],
            row_ids=[0], col_ids=[0, 1], rhs=[0.5],
        )
        act, = applied(rule_singleton_column, tables)
        assert act.fixed == {0: 0.0} and act.cols == (0,) and act.rows == ()


class TestDominatedRow:
    def test_example_first_removal_is_row_three(self, example_tables):
        sub = state(example_tables, rows=[1, 2, 3, 4, 5, 6, 8, 10], cols=range(1, 10))
        removed = dropped(applied(rule_dominated_row, sub))
        assert removed[0] == 2
        assert removed == [2, 5]  # row 6 is covered by row 8 as well

    def test_identical_rows_keep_lower_index(self):
        p = make_instance([[0.9, 0.2], [0.9, 0.2]], [[0.1, 0.1], [0.1, 0.1]], [0.5, 0.5])
        assert dropped(applied(rule_dominated_row, build_tables(p))) == [1]

    def test_disjoint_supports_untouched(self):
        p = make_instance([[0.9, 0.0], [0.0, 0.9]], [[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])
        assert applied(rule_dominated_row, build_tables(p)) == []


def synthetic_tables(cells, n, col_interval=None):
    """Tables over n columns from ``cells``, one {column: cell} dict per
    row; every column interval is [0, 1] unless ``col_interval`` is given."""
    grid = [[row.get(j, SetForm.empty()) for j in range(n)] for row in cells]
    m = len(cells)
    return ResolutionTables(
        col_interval or [SetForm.interval(0.0, 1.0)] * n, grid,
        [sorted(row) for row in cells],
        [[i for i, row in enumerate(cells) if j in row] for j in range(n)],
        list(range(m)), list(range(n)), [0.5] * m,
    )


class TestDominatedRowEmptySupport:
    """A row with an empty support has no column to be found through: it
    dominates every non-empty row, and of two empty rows the lower index
    survives.  Synthetic tables, checked against the all-pairs reference."""

    def test_empty_row_drops_every_nonempty_row(self):
        iv, point = SetForm.interval, SetForm.point
        tables = synthetic_tables([{0: iv(0.2, 0.8)}, {1: point(0.4)}, {},
                                   {0: point(0.3), 1: iv(0.1, 0.9)}], 2)
        removed = dropped(applied(rule_dominated_row, tables))
        assert removed == _ref_single_pass_dominated_row(tables) == [0, 1, 3]

    def test_two_empty_rows_drop_the_higher(self):
        iv = SetForm.interval
        tables = synthetic_tables([{0: iv(0.2, 0.8)}, {}, {1: iv(0.3, 0.6)}, {}], 2)
        removed = dropped(applied(rule_dominated_row, tables))
        assert removed == _ref_single_pass_dominated_row(tables) == [0, 2, 3]
        tables = synthetic_tables([{}, {}], 1)
        assert dropped(applied(rule_dominated_row, tables)) == [1]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_row_emptied_by_a_singleton_column(self, mode):
        # column 0's interval is the point 0; row 0's only cell there does
        # not hold it, so fixing column 0 leaves row 0 with no column
        iv, point = SetForm.interval, SetForm.point
        tables = synthetic_tables(
            [{0: point(0.5)}, {1: iv(0.2, 0.8)}, {0: point(0.0), 1: point(0.3)},
             {1: point(0.6)}, {1: iv(0.1, 0.9)}], 2,
            col_interval=[point(0.0), iv(0.0, 1.0)])
        ledger = assert_same_reduction(tables, [1.0, 2.0], mode, "emptied")
        assert [(s.action.rule, s.action.rows) for s in ledger.steps[:4]] == [
            (Rule.SINGLETON_COLUMN, (2,)), (Rule.DOMINATED_ROW, (1,)),
            (Rule.DOMINATED_ROW, (3,)), (Rule.DOMINATED_ROW, (4,))]


class TestLedgerSteps:
    """The steps ``apply`` records are the records their constructors build,
    and as immutable."""

    @staticmethod
    def _ledgers(example, example_tables):
        p, _ = _workloads().grid_planted(random.Random(7), "yager", 2.0, 32, 32)
        p = load_problem(p)
        for tables, costs in ((example_tables, example.c), (build_tables(p), p.c)):
            for mode in Mode:
                yield simplify(tables, costs, mode)[1]

    def test_same_as_built_by_init(self, example, example_tables):
        rules = set()
        for ledger in self._ledgers(example, example_tables):
            steps = []
            for s in ledger.steps:
                a = s.action
                want = LedgerStep(Action(a.rule, dict(a.fixed), tuple(a.rows), tuple(a.cols),
                                         a.detail), s.bound_before, s.bound_after)
                assert s == want and repr(s) == repr(want)
                assert s.describe() == want.describe()
                assert pickle.loads(pickle.dumps(s)) == s
                steps.append(want)
                rules.add(a.rule)
            built = ReductionLedger(steps, ledger.initial_bound)
            assert json.dumps(built.to_json()) == json.dumps(ledger.to_json())
        assert rules == set(Rule) - {Rule.ZERO_RHS_ROW}

    def test_frozen(self, example, example_tables):
        ledger = next(self._ledgers(example, example_tables))
        for s in ledger.steps:
            with pytest.raises(AttributeError):
                s.bound_after = 0
            with pytest.raises(AttributeError):
                s.action.rows = ()


class TestPresolvePin:
    """The presolve block of the 32×32 grid instance that CI's
    console-script step solves: a change to any rule's ledger shows here."""

    def test_ci_presolve(self, tmp_path, capsys):
        problem, _ = _workloads().grid_planted(random.Random(7), "yager", 2.0, 32, 32)
        path = tmp_path / "grid32.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", str(path), "--json", "--no-timing"]) == 0
        d = json.loads(capsys.readouterr().out)["presolve"]
        assert Counter(s["rule"] for s in d["steps"]) == {
            "DominatedRow": 17, "ForcedAssignment": 7, "TwoPointRow": 1,
            "LowerBoundColumn": 1, "FreeColumn": 1, "DominatedColumn": 1}
        assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == \
            "82a453d7ac59ac5fc610e2765f4cbe72d0cd78244f021fce878345c93f8352c6"


class TestForcedAssignment:
    def test_example_row_eight(self, example_tables):
        sub = state(example_tables, rows=[1, 2, 4, 5, 6, 8], cols=range(1, 10))
        act = applied(rule_forced_assignment, sub)[0]
        assert act.fixed == {8: pytest.approx(0.8, abs=TOL)}
        assert act.cols == (8,) and act.rows == (5, 7)

    def test_two_point_cell_not_forced(self):
        p = make_instance([[0.9]], [[0.9]], [0.5])  # restricted cell is a pair
        assert build_tables(p).s_prime[0][0].is_pair
        assert applied(rule_forced_assignment, build_tables(p)) == []

    def test_wide_support_not_forced(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=range(1, 6))
        assert applied(rule_forced_assignment, sub) == []


class TestTwoPointRow:
    def test_example_row_ten(self, example_tables):
        sub = state(example_tables, rows=[1, 2, 4, 5, 10], cols=range(1, 9))
        act, = applied(rule_two_point_row, sub)
        assert act.rows == (9,)

    def test_none_without_pairs(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=range(1, 6))
        assert applied(rule_two_point_row, sub) == []

    def test_row_with_two_pairs_listed_once(self):
        p = make_instance([[0.9, 0.9]], [[0.9, 0.9]], [0.5])
        act, = applied(rule_two_point_row, build_tables(p))
        assert act.rows == (0,)


class TestLowerBoundColumn:
    def test_example_column_eight(self, example_tables):
        sub = state(example_tables, rows=[1, 2, 4, 5], cols=range(1, 9))
        act, = applied(rule_lower_bound_column, sub)
        assert act.fixed == {7: pytest.approx(0.2, abs=TOL)}
        assert act.cols == (7,) and act.rows == (1,)

    def test_unsupported_column_left_for_free_rule(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=[6, 7])
        assert applied(rule_lower_bound_column, sub) == []

    def test_upper_bound_cells_not_matched(self, example_tables):
        # all supports meet only at upper bounds here
        sub = state(example_tables, rows=[1, 4, 5], cols=[3, 4])
        assert applied(rule_lower_bound_column, sub) == []


class TestFreeColumn:
    def test_example_columns_six_seven(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=range(1, 8))
        act, = applied(rule_free_column, sub)
        assert act.fixed == {5: 0.0, 6: 0.0}
        assert act.cols == (5, 6) and act.rows == ()

    def test_all_supported_no_action(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=range(1, 6))
        assert applied(rule_free_column, sub) == []


class TestDominatedColumn:
    def test_example_pair_of_fixes(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=range(1, 6))
        act, = applied(rule_dominated_column, sub, [1.0, 0.35, 0.93, 3.28, 5.03])
        assert act.fixed == {3: 0.0, 4: pytest.approx(0.3, abs=TOL)}
        assert set(act.cols) == {3, 4} and act.rows == ()
        assert "a:x5<-x1" in act.detail and "b:x4<-x3" in act.detail

    def test_no_nested_supports_no_action(self, example_tables):
        sub = state(example_tables, rows=[1, 4, 5], cols=[1, 2, 3])
        assert applied(rule_dominated_column, sub, [1.0, 0.35, 0.93]) == []

    def test_cost_inequality_gates_variant_b(self, example_tables):
        # costs balanced so neither direction passes the strict inequality
        sub = state(example_tables, rows=[1, 4, 5], cols=[3, 4])
        assert applied(rule_dominated_column, sub, [1.0, 0.6]) == []
        # cheap column 4 flips the elimination onto column 3
        act, = applied(rule_dominated_column, sub, [0.93, 0.01])
        assert act.cols == (2,) and act.fixed == {2: 0.0}


class TestRulesOnPlainTables:
    """A rule acts only on the live view it is given: run on two fresh views
    of the same plain tables it records the same actions, and the tables
    under the views come back untouched."""

    @pytest.mark.parametrize("rule", _SLOTS, ids=lambda rule: rule.__name__)
    def test_same_actions_twice_tables_untouched(self, rule, example, example_tables):
        sub = state(example_tables, rows=[1, 2, 4, 5, 6, 8], cols=range(1, 10))
        found = 0
        for tables in (example_tables, sub):
            costs = [example.c[j] for j in tables.col_ids]
            before = table_bits(tables)
            first = applied(rule, tables, costs)
            assert applied(rule, tables, costs) == first
            assert table_bits(tables) == before
            found += len(first)
        assert found or rule is _SLOTS[0]


class TestFixedValueGuard:
    def test_fix_outside_the_column_interval_raises(self, monkeypatch, example_tables):
        def bad_rule(t, costs):
            j = t.cols[0]
            t.apply(Rule.FREE_COLUMN, (), {j: t.col_interval[j][-1] + 0.5})

        module = importlib.import_module("bfre.simplify")
        monkeypatch.setattr(module, "_SLOTS", (bad_rule,) + module._SLOTS[1:])
        sub = state(example_tables, rows=[1, 4, 5], cols=[3, 4])
        with pytest.raises(InconsistentReduction, match=r"^FreeColumn fixed x3=\S+ outside "):
            simplify(sub, [0.93, 3.28], Mode.FEASIBILITY_PRESERVING)


class TestSimplifyPipeline:
    def test_example_optimality_chain(self, example, example_tables):
        reduced, ledger = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
        assert ledger.bound_sequence() == [5184, 864, 288, 144, 72, 36, 8]
        fixed = ledger.fixed_assignments()
        want = {9: 0.6, 8: 0.8, 7: 0.2, 5: 0.0, 6: 0.0, 4: 0.3, 3: 0.0}
        assert set(fixed) == set(want)
        for j, v in want.items():
            assert fixed[j] == pytest.approx(v, abs=TOL)
        assert reduced.tables.row_ids == [0, 3, 4]
        assert reduced.tables.col_ids == [0, 1, 2]
        assert reduced.costs == [1.0, 0.35, 0.93]

    def test_example_final_tables(self, example, example_tables):
        reduced, _ = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
        want = [["{0.4}", "{0.4}", "∅"],
                ["∅", "{0.64}", "{0.6}"],
                ["{0.4}", "∅", "{0.6}"]]
        got = [[str(c) for c in row] for row in reduced.tables.s_prime]
        assert got == want

    def test_example_feasibility_mode_stops_at_row_rules(self, example, example_tables):
        reduced, ledger = simplify(example_tables, example.c, Mode.FEASIBILITY_PRESERVING)
        rules = {s.action.rule for s in ledger.steps}
        assert rules <= {Rule.ZERO_RHS_ROW, Rule.SINGLETON_COLUMN, Rule.DOMINATED_ROW}
        assert set(reduced.fixed) == {9}
        # optimality-only eliminations must not have happened
        assert reduced.tables.row_ids == [0, 1, 3, 4, 7, 9]
        assert reduced.tables.col_ids == list(range(9))

    def test_already_minimal_instance_empty_ledger(self):
        # every row has two usable columns, the support intersections are
        # empty, and no cell sits at a column's lower bound
        p = make_instance([[0.9, 0.0], [0.0, 0.8]], [[0.0, 0.8], [0.7, 0.0]], [0.5, 0.5])
        tables = build_tables(p)
        assert [[str(c) for c in row] for row in tables.s_prime] == \
            [["{0.6}", "{0.3}"], ["{0.2}", "{0.7}"]]
        _, ledger = simplify(tables, p.c, Mode.OPTIMALITY_PRESERVING)
        assert ledger.steps == []

    def test_fully_reducible_instance(self):
        p = make_instance([[1.0, 0.0], [0.0, 0.9]], [[1.0, 0.0], [0.0, 0.9]],
                          [0.5, 0.4], c=[1.0, 1.0])
        reduced, ledger = simplify(build_tables(p), p.c, Mode.OPTIMALITY_PRESERVING)
        assert reduced.tables.m == 0
        assert reduced.fixed == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}
        assert [s.action.rule for s in ledger.steps] == [Rule.SINGLETON_COLUMN] * 2

    def test_lift(self, example, example_tables):
        reduced, _ = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
        x = reduced.lift([0.4, 0.64, 0.0])
        assert x == pytest.approx([0.4, 0.64, 0, 0, 0.3, 0, 0, 0.2, 0.8, 0.6], abs=TOL)

    def test_bound_never_increases(self):
        rng = random.Random(1311)
        for _ in range(80):
            p = _random(rng)
            tables = build_tables(p)
            for mode in Mode:
                _, ledger = simplify(tables, p.c, mode)
                for s in ledger.steps:
                    assert s.bound_after <= s.bound_before

    def test_deterministic(self):
        rng = random.Random(77)
        for _ in range(25):
            p = _random(rng)
            tables = build_tables(p)
            a = simplify(tables, p.c, Mode.OPTIMALITY_PRESERVING)[1].to_json()
            b = simplify(build_tables(p), p.c, Mode.OPTIMALITY_PRESERVING)[1].to_json()
            assert a == b

    def test_ledger_serialization(self, example, example_tables):
        _, ledger = simplify(example_tables, example.c, Mode.OPTIMALITY_PRESERVING)
        doc = ledger.to_json()
        assert doc["bound_sequence"] == [5184, 864, 288, 144, 72, 36, 8]
        assert len(doc["steps"]) == len(ledger.steps)
        assert json.dumps(ledger.to_json(), indent=2).startswith("{")
        text = ledger.describe()[0]
        assert text.startswith("applied SingletonColumn: fixed x10=0.6")


def _random(rng):
    fam, param = rng.choice([("lukasiewicz", None), ("product", None),
                             ("yager", 2.0), ("hamacher", 1.0)])
    gen = random_feasible_instance if rng.random() < 0.6 else random_instance
    return gen(rng, fam, param, m=rng.randint(1, 4), n=rng.randint(1, 4))


def _grid_step(n):
    return {1: 0.05, 2: 0.05, 3: 0.1, 4: 0.2}[n]


def lifted_feasible(reduced, x):
    for j, v in reduced.fixed.items():
        if abs(x[j] - v) > TOL:
            return False
    sub = [x[j] for j in reduced.tables.col_ids]
    return satisfies_by_tables(reduced.tables, sub)


class TestModeGuarantees:
    def test_feasibility_mode_preserves_feasible_set(self):
        rng = random.Random(2024)
        for _ in range(60):
            p = _random(rng)
            tables = build_tables(p)
            if not check_feasibility(tables).ok:
                continue
            reduced, _ = simplify(tables, p.c, Mode.FEASIBILITY_PRESERVING)
            step = _grid_step(p.n)
            k = round(1 / step)
            for idx in itertools.product(range(k + 1), repeat=p.n):
                x = [v / k for v in idx]
                assert satisfies_by_tables(tables, x) == lifted_feasible(reduced, x), (p, x)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_both_modes_preserve_the_optimum(self, mode):
        rng = random.Random(555)
        for _ in range(120):
            p = _random(rng)
            tables = build_tables(p)
            if not check_feasibility(tables).ok:
                continue
            full = brute_force_optimum(tables, p.c)
            reduced, _ = simplify(tables, p.c, mode)
            part = brute_force_optimum(reduced.tables, reduced.costs)
            fixed_cost = sum(p.c[j] * v for j, v in reduced.fixed.items())
            if full.optimum is None:
                assert part.optimum is None or reduced.tables.m == 0 and False
                continue
            assert part.optimum is not None
            assert part.optimum[1] + fixed_cost == pytest.approx(full.optimum[1], abs=TOL)


# -- single-pass dominance against the restart-loop fixed points ---------------
#
# The two functions below are the restart formulations the dominance rules
# were first written in: find the first removal, apply it, rescan from the
# start.  They are kept as the reference the single-pass rules must match.

def _ref_dominated_row(tables):
    def dominates(i, i0):
        return all(tables.s_prime[i][j].issubset(tables.s_prime[i0][j])
                   for j in range(tables.n))

    alive = list(range(tables.m))
    removed = []
    changed = True
    while changed:
        changed = False
        for i0 in alive:
            for i in alive:
                if i == i0:
                    continue
                if dominates(i, i0):
                    if dominates(i0, i) and i0 < i:
                        continue
                    removed.append(tables.row_ids[i0])
                    alive.remove(i0)
                    changed = True
                    break
            if changed:
                break
    return removed


def _ref_dominated_column(tables, costs, eps=TOL):
    def support_intersection(j):
        inter = None
        for i in tables.col_support[j]:
            cell = tables.s_prime[i][j]
            inter = cell if inter is None else inter.intersect(cell)
        return inter if inter is not None else SetForm.empty()

    def find(alive_cols):
        support = {j: set(tables.col_support[j]) for j in alive_cols}
        for j1 in alive_cols:
            if not support[j1]:
                continue
            inter1 = support_intersection(j1)
            for j2 in alive_cols:
                if j2 == j1 or not support[j1] <= support[j2]:
                    continue
                inter2 = support_intersection(j2)
                l2 = tables.col_interval[j2][0]
                if inter2.is_point and abs(inter2[0] - l2) <= eps:
                    return ("a", j1, j2)
                if not (inter1.is_point and inter2.is_point):
                    continue
                v = inter1[0]
                l1, u1 = tables.col_interval[j1][0], tables.col_interval[j1][-1]
                u2 = tables.col_interval[j2][-1]
                if not (abs(v - l1) <= eps or abs(v - u1) <= eps):
                    continue
                if abs(inter2[0] - u2) > eps:
                    continue
                if costs[j2] * (u2 - l2) < costs[j1] * (v - l1) - eps:
                    return ("b", j1, j2)
        return None

    alive = list(range(tables.n))
    fixed, cols, parts = {}, [], []
    while (hit := find(alive)) is not None:
        variant, j1, j2 = hit
        fixed[tables.col_ids[j1]] = tables.col_interval[j1][0]
        cols.append(tables.col_ids[j1])
        parts.append(f"{variant}:x{tables.col_ids[j1] + 1}<-x{tables.col_ids[j2] + 1}")
        alive.remove(j1)
    return (tuple(cols), fixed, ";".join(parts)) if cols else None


_EQUIVALENCE_FAMILIES = [
    ("product", None), ("lukasiewicz", None), ("yager", 2.0), ("hamacher", 1.0),
    ("frank", 2.0), ("dombi", 2.0), ("sugeno_weber", 1.0), ("aczel_alsina", 2.0),
]


class TestSinglePassDominance:
    def test_matches_restart_loop_reference(self):
        rng = random.Random(4242)
        multi_rows = multi_cols = 0
        for k in range(240):
            fam, param = _EQUIVALENCE_FAMILIES[k % len(_EQUIVALENCE_FAMILIES)]
            gen = random_feasible_instance if rng.random() < 0.7 else random_instance
            p = gen(rng, fam, param, m=rng.randint(1, 12), n=rng.randint(1, 12))
            tables = build_tables(p)
            # the column rule runs once two-point rows are gone
            no_pairs = restrict(tables, [i for i in range(tables.m)
                                         if not any(c.is_pair for c in tables.s_prime[i])],
                                range(tables.n))
            for t in (tables, no_pairs):
                want = _ref_dominated_row(t)
                assert dropped(applied(rule_dominated_row, t)) == want, (k, p)
                multi_rows += len(want) > 1
                want = _ref_dominated_column(t, p.c)
                acts = applied(rule_dominated_column, t, p.c)
                got = (acts[0].cols, acts[0].fixed, acts[0].detail) if acts else None
                assert got == want, (k, p)
                multi_cols += want is not None and len(want[0]) > 1
        # the corpus must exercise removals that change the survivor list
        assert multi_rows >= 50 and multi_cols >= 10, (multi_rows, multi_cols)


# -- one restriction per finder call against the per-action driver -----------
#
# The reference below is the driver as first written, with its own slot table:
# single-action finders for singleton columns and forced assignments, called
# again until they find nothing, one restriction per action that rescans
# every kept cell for the supports, and row dominance tested over all
# columns.  The driver, which chains those finders' actions and restricts
# once per slot, must produce the same ledger and reduced problem byte for
# byte.

def _ref_restrict(tables, keep_rows, keep_cols):
    keep_rows, keep_cols = list(keep_rows), list(keep_cols)
    sub = lambda grid: [[grid[i][j] for j in keep_cols] for i in keep_rows]
    s_prime = sub(tables.s_prime)
    m, n = len(keep_rows), len(keep_cols)
    return ResolutionTables(
        [tables.col_interval[j] for j in keep_cols], s_prime,
        [[j for j in range(n) if s_prime[i][j]] for i in range(m)],
        [[i for i in range(m) if s_prime[i][j]] for j in range(n)],
        [tables.row_ids[i] for i in keep_rows],
        [tables.col_ids[j] for j in keep_cols],
        [tables.rhs[i] for i in keep_rows],
    )


def _ref_single_pass_dominated_row(tables):
    def dominates(i, i0):
        return all(tables.s_prime[i][j].issubset(tables.s_prime[i0][j])
                   for j in range(tables.n))

    alive = list(range(tables.m))
    removed = []
    for i0 in range(tables.m):
        for i in alive:
            if i == i0 or not dominates(i, i0):
                continue
            if i0 < i and dominates(i0, i):
                continue
            removed.append(tables.row_ids[i0])
            alive.remove(i0)
            break
    return removed


def _ref_singleton_column(tables):
    """The single-action singleton-column finder as first written."""
    for j in range(tables.n):
        ij = tables.col_interval[j]
        if not ij.is_point:
            continue
        k = ij[0]
        rows = tuple(tables.row_ids[i] for i in range(tables.m)
                     if tables.s_prime[i][j].contains(k))
        return Action(Rule.SINGLETON_COLUMN, {tables.col_ids[j]: k}, rows, (tables.col_ids[j],))
    return None


def _ref_forced_assignment(tables):
    """The single-action forced-assignment finder as first written."""
    for i in range(tables.m):
        if len(tables.row_support[i]) != 1:
            continue
        j = tables.row_support[i][0]
        cell = tables.s_prime[i][j]
        if not cell.is_point:
            continue
        k = cell[0]
        rows = tuple(tables.row_ids[r] for r in range(tables.m)
                     if tables.s_prime[r][j].contains(k))
        return Action(Rule.FORCED_ASSIGNMENT, {tables.col_ids[j]: k}, rows, (tables.col_ids[j],))
    return None


def _ref_one(act):
    return [] if act is None else [act]


# (rule, finder, repeat), in application order: a repeating slot calls its
# single-action finder again, on the tables its last action left, until it
# finds nothing.
_REF_SLOTS = (
    (Rule.ZERO_RHS_ROW, lambda t, c: applied(rule_zero_rhs, t, c), False),
    (Rule.SINGLETON_COLUMN, lambda t, c: _ref_one(_ref_singleton_column(t)), True),
    (Rule.DOMINATED_ROW, lambda t, c: [Action(Rule.DOMINATED_ROW, {}, (i,), ())
                                       for i in _ref_single_pass_dominated_row(t)], False),
    (Rule.FORCED_ASSIGNMENT, lambda t, c: _ref_one(_ref_forced_assignment(t)), True),
    (Rule.TWO_POINT_ROW, lambda t, c: applied(rule_two_point_row, t, c), False),
    (Rule.LOWER_BOUND_COLUMN, lambda t, c: applied(rule_lower_bound_column, t, c), False),
    (Rule.FREE_COLUMN, lambda t, c: applied(rule_free_column, t, c), False),
    (Rule.DOMINATED_COLUMN, lambda t, c: applied(rule_dominated_column, t, c), False),
)


def _ref_simplify(tables, costs, mode):
    slots = _REF_SLOTS[:3] if mode is Mode.FEASIBILITY_PRESERVING else _REF_SLOTS
    cur = tables
    cost_by_col = {j: costs[pos] for pos, j in enumerate(tables.col_ids)}
    fixed_all = {}
    ledger = ReductionLedger(initial_bound=admissible_upper_bound(tables))
    for rule, find, repeat in slots:
        while actions := find(cur, [cost_by_col[j] for j in cur.col_ids]):
            for action in actions:
                for j, v in action.fixed.items():
                    assert cur.col_interval[cur.col_ids.index(j)].contains(v)
                before = admissible_upper_bound(cur)
                keep_rows = [i for i in range(cur.m) if cur.row_ids[i] not in action.rows]
                keep_cols = [j for j in range(cur.n) if cur.col_ids[j] not in action.cols]
                cur = _ref_restrict(cur, keep_rows, keep_cols)
                fixed_all.update(action.fixed)
                ledger.steps.append(LedgerStep(action, before, admissible_upper_bound(cur)))
            if not repeat:
                break
    reduced = ReducedProblem(cur, [cost_by_col[j] for j in cur.col_ids], dict(fixed_all),
                             tables.n)
    return reduced, ledger


def assert_same_reduction(tables, costs, mode, key):
    """The driver against the per-action reference: ledger JSON, reduced
    tables, fixed values and costs, byte for byte.  Returns the reference
    ledger."""
    want, want_ledger = _ref_simplify(tables, costs, mode)
    got, got_ledger = simplify(tables, costs, mode)
    assert json.dumps(got_ledger.to_json(), indent=2) == \
        json.dumps(want_ledger.to_json(), indent=2), (key, mode)
    assert table_bits(got.tables) == table_bits(want.tables), (key, mode)
    assert repr(got.fixed) == repr(want.fixed), (key, mode)
    assert {j: v.hex() for j, v in got.fixed.items()} == \
        {j: v.hex() for j, v in want.fixed.items()}, (key, mode)
    assert repr(got.costs) == repr(want.costs), (key, mode)
    return want_ledger


_DRIVER_FAMILIES = [
    ("product", None), ("lukasiewicz", None), ("yager", 2.0), ("hamacher", 1.0),
    ("frank", 2.0), ("dombi", 2.0), ("sugeno_weber", 1.0), ("aczel_alsina", 2.0),
    ("einstein_product", None), ("schweizer_sklar", -1.0),
]


class TestOneRestrictionPerFinderCall:
    def test_matches_per_action_driver(self):
        rng = random.Random(9090)
        compared = many_dominated = 0
        for k in range(320):
            fam, param = _DRIVER_FAMILIES[k % len(_DRIVER_FAMILIES)]
            gen = random_feasible_instance if rng.random() < 0.75 else random_instance
            size = rng.randint(1, 20)
            p = gen(rng, fam, param, m=size, n=rng.randint(max(1, size - 4), 20))
            tables = build_tables(p)
            if not check_feasibility(tables).ok:
                continue
            for mode in Mode:
                want_ledger = assert_same_reduction(tables, p.c, mode, k)
                compared += 1
                many_dominated += sum(s.action.rule is Rule.DOMINATED_ROW
                                      for s in want_ledger.steps) >= 5
        assert compared >= 200 * 2, compared
        # most ledgers must hold several single-row DominatedRow steps
        assert many_dominated >= 100, many_dominated

    def test_singleton_column_chains(self):
        """Instances with several columns pinned to a point, so that one
        finder call returns a chain of singleton columns."""
        rng = random.Random(9191)
        chains = 0
        for k in range(120):
            fam, param = _DRIVER_FAMILIES[k % len(_DRIVER_FAMILIES)]
            p = _pinned_instance(rng, fam, param, m=rng.randint(1, 12), n=rng.randint(2, 12))
            tables = build_tables(p)
            ledgers = {mode: assert_same_reduction(tables, p.c, mode, k) for mode in Mode}
            chains += _longest_run(ledgers[Mode.FEASIBILITY_PRESERVING],
                                   Rule.SINGLETON_COLUMN) >= 2
        assert chains >= 100, chains

    @pytest.mark.parametrize("family,param", [("yager", 2.0), ("product", None),
                                              ("lukasiewicz", None), ("hamacher", 1.0)])
    def test_forced_assignment_chains_at_32x32(self, family, param):
        """Planted 32x32 instances on the 0.05 grid, where one finder call
        returns a chain of at least three forced assignments."""
        rng = random.Random(f"forced-chains:{family}")
        for k in range(3):
            p, _ = planted_feasible_instance(rng, family, param, m=32, n=32)
            tables = build_tables(p)
            assert check_feasibility(tables).ok
            ledgers = {mode: assert_same_reduction(tables, p.c, mode, (family, k))
                       for mode in Mode}
            forced = [s for s in ledgers[Mode.OPTIMALITY_PRESERVING].steps
                      if s.action.rule is Rule.FORCED_ASSIGNMENT]
            assert len(forced) >= 3, (family, k, len(forced))



class TestOneRestrictionPerSimplify:
    """The reducer works in place on a live view of its input and restricts
    at most once, at the end; the input tables come back untouched."""

    @pytest.mark.parametrize("test,args", [
        ("test_matches_per_action_driver", ()),
        ("test_singleton_column_chains", ()),
        ("test_forced_assignment_chains_at_32x32", ("yager", 2.0)),
        ("test_forced_assignment_chains_at_32x32", ("product", None)),
    ])
    def test_over_the_driver_corpora(self, monkeypatch, test, args):
        module = importlib.import_module("bfre.simplify")
        real_restrict, real_simplify = module.restrict, module.simplify
        calls = []

        def counted_restrict(*a):
            calls[-1] += 1
            return real_restrict(*a)

        def checked_simplify(tables, costs, mode):
            before = table_bits(tables)
            calls.append(0)
            out = real_simplify(tables, costs, mode)
            assert table_bits(tables) == before, mode
            return out

        monkeypatch.setattr(module, "restrict", counted_restrict)
        monkeypatch.setattr(sys.modules[__name__], "simplify", checked_simplify)
        getattr(TestOneRestrictionPerFinderCall(), test)(*args)
        assert len(calls) >= 6 and max(calls) <= 1, (len(calls), max(calls))
        assert sum(calls) > 0


class TestAscendingKeepLists:
    """``restrict`` takes distinct keep lists in ascending order, and
    ``simplify`` is its one caller in the solver: the reduced row and column
    ids must ascend strictly, on planted and random instances alike."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_reduced_ids_strictly_ascending(self, mode):
        families = [("lukasiewicz", None), ("product", None), ("yager", 2.0), ("hamacher", 1.0),
                    ("dombi", 2.0), ("schweizer_sklar", -1.0)]
        rng = random.Random(f"ascending:{mode.value}")
        restricted = 0
        for k in range(300):
            family, param = families[k % len(families)]
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            p = (planted_feasible_instance(rng, family, param, m=m, n=n)[0] if k % 2
                 else random_instance(rng, family, param, m=m, n=n))
            tables = build_tables(p)
            if not check_feasibility(tables).ok:
                continue
            reduced, _ = simplify(tables, p.c, mode)
            for ids in (reduced.tables.row_ids, reduced.tables.col_ids):
                assert all(a < b for a, b in zip(ids, ids[1:])), (k, p, ids)
            restricted += reduced.tables is not tables
        assert restricted >= 100, restricted


def _pinned_instance(rng, family, param, m, n):
    """A planted feasible instance plus, for a random half of its columns j,
    two rows whose only non-zero entries a+_j = 1 and a-_j = 1 meet the
    planted x_j from both sides: T(1, y) = y pins column j's interval to
    the point x_j."""
    p, x = planted_feasible_instance(rng, family, param, m=m, n=n)
    a_plus, a_minus, b = [list(r) for r in p.a_plus], [list(r) for r in p.a_minus], list(p.b)
    for j in sorted(rng.sample(range(n), (n + 1) // 2)):
        if not 0.0 < x[j] < 1.0:
            continue
        for sign in (a_plus, a_minus):
            a_plus.append([0.0] * n)
            a_minus.append([0.0] * n)
            sign[-1][j] = 1.0
        b += [x[j], 1.0 - x[j]]
    return ProblemInstance(a_plus, a_minus, b, p.c, p.tnorm)


def _longest_run(ledger, rule) -> int:
    best = run = 0
    for s in ledger.steps:
        run = run + 1 if s.action.rule is rule else 0
        best = max(best, run)
    return best
