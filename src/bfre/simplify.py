"""Problem reduction: redundant-equation removal and forced assignments.

Two families of techniques.  The feasibility-preserving ones (zero
right-hand sides, singleton column intervals, dominated rows) never change
the feasible set, so they are safe for pure resolution work.  The
optimality-preserving ones additionally discard feasible points that can
never be optimal (forced assignments, two-point rows, lower-bound and
dominated columns, unsupported columns); the reduced problem then only
promises to retain at least one global optimum.

The reducer makes a single pass over the techniques in a fixed order, one
slot per technique.  Every technique is a rule with one contract: given the
current tables, it returns the list of actions its slot applies, in order,
each found on the rows and columns the earlier ones leave, and an empty list
when nothing applies.  Singleton columns and forced assignments chain until
exhausted.  The dominance techniques make a single ascending pass against a
shrinking list of survivors: whether one row (or column) dominates another
depends only on their own cells, which no restriction changes, so a removal
can only retire dominators and never creates a new domination.  The other
column-fixing optimality techniques act once, on the state where they first
became applicable.  Chaining those fixes further would be sound but produces
a different, more aggressive reduction than the one this module documents
and tests pin down.

The set tables are never recomputed: removed rows' bounds stay baked into
the column intervals, which is exactly what makes the removals sound.  Each
slot makes one rule call and at most one restriction, however many actions
the rule returns; the restricted supports are derived from the parent's, so
no cell is scanned again.  Every action still gets its own ledger step,
whose bounds come from the support sizes of the rows and columns that
survive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import InconsistentReduction
from .resolution import ResolutionTables, admissible_upper_bound, restrict
from .tolerance import EPS


class Mode(Enum):
    FEASIBILITY_PRESERVING = "feasibility_preserving"
    OPTIMALITY_PRESERVING = "optimality_preserving"


class Rule(Enum):
    ZERO_RHS_ROW = "ZeroRhsRow"
    SINGLETON_COLUMN = "SingletonColumn"
    DOMINATED_ROW = "DominatedRow"
    FORCED_ASSIGNMENT = "ForcedAssignment"
    TWO_POINT_ROW = "TwoPointRow"
    LOWER_BOUND_COLUMN = "LowerBoundColumn"
    FREE_COLUMN = "FreeColumn"
    DOMINATED_COLUMN = "DominatedColumn"


@dataclass(frozen=True)
class Action:
    """One applied reduction: variables fixed plus rows/columns dropped.

    Indices are original instance indices.
    """

    rule: Rule
    fixed: dict
    rows: tuple
    cols: tuple
    detail: str = ""


@dataclass(frozen=True)
class LedgerStep:
    action: Action
    bound_before: int
    bound_after: int

    def describe(self) -> str:
        a = self.action
        bits = [f"applied {a.rule.value}"]
        if a.fixed:
            bits.append("fixed " + ", ".join(f"x{j + 1}={v:g}" for j, v in sorted(a.fixed.items())))
        if a.rows:
            bits.append("removed rows {" + ",".join(str(i + 1) for i in a.rows) + "}")
        if a.cols:
            bits.append("removed cols {" + ",".join(str(j + 1) for j in a.cols) + "}")
        bits.append(f"bound {self.bound_before} -> {self.bound_after}")
        return ": ".join([bits[0], ", ".join(bits[1:])])


@dataclass
class ReductionLedger:
    """Ordered record of every applied simplification."""

    steps: list = field(default_factory=list)
    initial_bound: int = 0

    def bound_sequence(self) -> list:
        """Distinct consecutive bound values, starting from the initial one.

        Steps that only drop unsupported columns leave the bound unchanged
        and therefore add no entry.
        """
        seq = [self.initial_bound]
        for s in self.steps:
            if s.bound_after != seq[-1]:
                seq.append(s.bound_after)
        return seq

    def fixed_assignments(self) -> dict:
        out = {}
        for s in self.steps:
            out.update(s.action.fixed)
        return out

    def describe(self) -> list:
        return [s.describe() for s in self.steps]

    def to_json(self) -> dict:
        return {
            "initial_bound": self.initial_bound,
            "bound_sequence": self.bound_sequence(),
            "steps": [
                {
                    "rule": s.action.rule.value,
                    "fixed": {str(k): v for k, v in s.action.fixed.items()},
                    "removed_rows": list(s.action.rows),
                    "removed_cols": list(s.action.cols),
                    "bound_before": s.bound_before,
                    "bound_after": s.bound_after,
                    "detail": s.action.detail,
                }
                for s in self.steps
            ],
        }


@dataclass(frozen=True)
class ReducedProblem:
    """Surviving tables plus everything needed to lift answers back."""

    tables: ResolutionTables
    costs: list        # aligned with tables.col_ids
    fixed: dict        # original column -> value
    n_original: int

    def lift(self, x_reduced) -> list:
        """Map a surviving-column vector back to original indexing."""
        x = [0.0] * self.n_original
        for j, v in self.fixed.items():
            x[j] = v
        for pos, j in enumerate(self.tables.col_ids):
            x[j] = x_reduced[pos]
        return x


# -- individual techniques ---------------------------------------------------
#
# Each takes the current (restricted) tables, and the costs aligned with
# them, and returns the actions its slot applies, in order and in original
# indices: each action is found on the rows and columns the earlier ones
# leave, and the list is empty when nothing applies.  Only the dominated
# column rule reads the costs.  None of them mutates the tables.

def rule_zero_rhs(tables: ResolutionTables, costs=None) -> list:
    """Rows whose right-hand side is zero are redundant; one action drops
    them all."""
    rows = tuple(tables.row_ids[i] for i in range(tables.m) if tables.rhs[i] <= EPS)
    return [Action(Rule.ZERO_RHS_ROW, {}, rows, ())] if rows else []


def _fix(rule, tables, alive, j, k) -> Action:
    """Fix column j at k and drop the alive rows whose cell holds k."""
    rows = [i for i in tables.col_support[j] if alive[i] and tables.s_prime[i][j].contains(k)]
    for i in rows:
        alive[i] = False
    return Action(rule, {tables.col_ids[j]: k}, tuple(tables.row_ids[i] for i in rows),
                  (tables.col_ids[j],))


def rule_singleton_column(tables: ResolutionTables, costs=None) -> list:
    """Columns whose interval is a single value: fix each, drop the rows
    that value satisfies.

    Column intervals never change, so the actions take the point columns
    in ascending order; only the rows each one drops depend on the earlier
    actions.
    """
    alive = [True] * tables.m
    return [_fix(Rule.SINGLETON_COLUMN, tables, alive, j, ij.minimum())
            for j, ij in enumerate(tables.col_interval) if ij.is_point]


def _dominates(tables, support, i, i0) -> bool:
    """Row i's restricted cells all sit inside row i0's.

    An empty cell sits inside any set and a non-empty one never inside an
    empty one, so row i0 must support every column row i does (``support``
    holds each row's support as a set), and only row i's support columns
    need a subset test.
    """
    if not support[i] <= support[i0]:
        return False
    cells, cells0 = tables.s_prime[i], tables.s_prime[i0]
    return all(cells[j].issubset(cells0[j]) for j in tables.row_support[i])


def rule_dominated_row(tables: ResolutionTables, costs=None) -> list:
    """Rows made redundant by another surviving row, in a single ascending
    pass; one single-row action per removed row.

    Mutually dominating (identical) rows keep the lower index.  A row kept
    once stays kept as the survivors shrink, so the removals are the fixed
    point of repeated single removals in ascending order.
    """
    support = [set(sup) for sup in tables.row_support]
    alive = list(range(tables.m))
    out = []
    for i0 in range(tables.m):
        for i in alive:
            if i == i0 or not _dominates(tables, support, i, i0):
                continue
            if i0 < i and _dominates(tables, support, i0, i):
                continue
            out.append(Action(Rule.DOMINATED_ROW, {}, (tables.row_ids[i0],), ()))
            alive.remove(i0)
            break
    return out


def rule_forced_assignment(tables: ResolutionTables, costs=None) -> list:
    """Rows supported by a single column whose restricted cell is a single
    value: fix the column, drop every row that value satisfies.

    Each row's live support size is tracked as columns go, and the
    ascending row scan restarts after every action, since a dropped column
    can leave an earlier row with a single column.
    """
    s_prime, row_support, col_support = tables.s_prime, tables.row_support, tables.col_support
    sizes = [len(sup) for sup in row_support]
    alive = [True] * tables.m
    gone = [False] * tables.n
    out = []
    i = 0
    while i < tables.m:
        if not alive[i] or sizes[i] != 1:
            i += 1
            continue
        j = next(j for j in row_support[i] if not gone[j])
        cell = s_prime[i][j]
        if not cell.is_point:
            i += 1
            continue
        out.append(_fix(Rule.FORCED_ASSIGNMENT, tables, alive, j, cell.minimum()))
        gone[j] = True
        for r in col_support[j]:
            sizes[r] -= 1
        i = 0
    return out


def rule_two_point_row(tables: ResolutionTables, costs=None) -> list:
    """Rows holding a two-point restricted cell never constrain candidate
    minima; one action drops them all."""
    rows = tuple(tables.row_ids[i] for i in range(tables.m)
                 if any(tables.s_prime[i][j].is_pair for j in tables.row_support[i]))
    return [Action(Rule.TWO_POINT_ROW, {}, rows, ())] if rows else []


def rule_lower_bound_column(tables: ResolutionTables, costs=None) -> list:
    """Columns whose lower bound satisfies every supporting row: fix at the
    lower bound and drop those rows.

    Matches are collected against the entry state; a row shared by several
    matching columns is dropped once, under the first.
    """
    fixed, rows, cols = {}, [], []
    gone = set()
    for j in range(tables.n):
        sup = tables.col_support[j]
        if not sup:
            continue
        lj = tables.lower_bound(j)
        if not all(tables.s_prime[i][j].contains(lj) for i in sup):
            continue
        fixed[tables.col_ids[j]] = lj
        cols.append(tables.col_ids[j])
        for i in sup:
            if i not in gone:
                gone.add(i)
                rows.append(tables.row_ids[i])
    return [Action(Rule.LOWER_BOUND_COLUMN, fixed, tuple(rows), tuple(cols))] if cols else []


def rule_free_column(tables: ResolutionTables, costs=None) -> list:
    """Columns no surviving row can use: fix at the lower bound.

    Columns with an empty interval are left alone; they belong to the
    feasibility check, not to the reducer.
    """
    fixed = {}
    cols = []
    for j in range(tables.n):
        if not tables.col_support[j] and not tables.col_interval[j].is_empty:
            fixed[tables.col_ids[j]] = tables.lower_bound(j)
            cols.append(tables.col_ids[j])
    return [Action(Rule.FREE_COLUMN, fixed, (), tuple(cols))] if cols else []


def rule_dominated_column(tables: ResolutionTables, costs) -> list:
    """Column-vs-column elimination (requires two-point rows already gone).

    Variant (a): if every row that can use column j1 can also use column j2,
    and column j2's supporting rows all meet exactly at its lower bound, then
    no optimum needs column j1: fix it at its own lower bound.

    Variant (b): same nesting, both columns' support intersections are
    singletons at their upper bounds, and paying column j2's full range is
    cheaper than what column j1's value costs: again drop j1 at its lower
    bound.

    No rows are removed, so applying one match never invalidates another;
    a single ascending pass over the surviving columns drains every match
    into one step.
    """
    support = [set(sup) for sup in tables.col_support]
    inter = [tables.intersect_cells(j, tables.col_support[j]) for j in range(tables.n)]

    def variant(j1, j2):
        inter1, inter2 = inter[j1], inter[j2]
        l2 = tables.lower_bound(j2)
        if inter2.is_point and abs(inter2.minimum() - l2) <= EPS:
            return "a"
        if not (inter1.is_point and inter2.is_point):
            return None
        v = inter1.minimum()
        l1, u1 = tables.lower_bound(j1), tables.upper_bound(j1)
        u2 = tables.upper_bound(j2)
        if not (abs(v - l1) <= EPS or abs(v - u1) <= EPS):
            return None
        if abs(inter2.minimum() - u2) > EPS:
            return None
        if costs[j2] * (u2 - l2) < costs[j1] * (v - l1) - EPS:
            return "b"
        return None

    alive = list(range(tables.n))
    fixed, cols, parts = {}, [], []
    for j1 in range(tables.n):
        if not support[j1]:
            continue
        for j2 in alive:
            if j2 == j1 or not support[j1] <= support[j2]:
                continue
            kind = variant(j1, j2)
            if kind is None:
                continue
            fixed[tables.col_ids[j1]] = tables.lower_bound(j1)
            cols.append(tables.col_ids[j1])
            parts.append(f"{kind}:x{tables.col_ids[j1] + 1}<-x{tables.col_ids[j2] + 1}")
            alive.remove(j1)
            break
    if not cols:
        return []
    return [Action(Rule.DOMINATED_COLUMN, fixed, (), tuple(cols), detail=";".join(parts))]


# -- driver -------------------------------------------------------------------

# The rules in application order, one slot each (the order of ``Rule``); the
# feasibility mode runs the first three.  A slot applies its rule's whole
# action list with one restriction.
_SLOTS = (
    rule_zero_rhs, rule_singleton_column, rule_dominated_row, rule_forced_assignment,
    rule_two_point_row, rule_lower_bound_column, rule_free_column, rule_dominated_column,
)


def simplify(tables: ResolutionTables, costs, mode: Mode):
    """Run the reduction pass; returns (ReducedProblem, ReductionLedger).

    ``costs`` must be aligned with ``tables.col_ids``.  The necessary
    feasibility conditions are assumed to have passed.
    """
    slots = _SLOTS[:3] if mode is Mode.FEASIBILITY_PRESERVING else _SLOTS
    n_original = tables.n
    cur = tables
    cost_by_col = {j: costs[pos] for pos, j in enumerate(tables.col_ids)}
    ledger = ReductionLedger(initial_bound=admissible_upper_bound(tables))

    def apply(actions):
        """One restriction for a rule's whole action list; each action
        still gets its own ledger step, bounded by the rows and columns that
        survive it.

        The bound is kept as a running product of the alive rows' non-zero
        support sizes and a count of alive rows whose support is empty, so
        an action updates only the rows it drops or a dropped column
        reaches.  The integers are exact: a size divided out is a factor of
        the product.
        """
        nonlocal cur
        col_pos = {j: pos for pos, j in enumerate(cur.col_ids)}
        row_pos = {i: pos for pos, i in enumerate(cur.row_ids)}
        sizes = [len(sup) for sup in cur.row_support]
        alive = [True] * cur.m
        dropped = set()
        product, zeros = 1, 0
        for size in sizes:
            if size:
                product *= size
            else:
                zeros += 1
        bound = 0 if zeros else product
        for action in actions:
            for j, v in action.fixed.items():
                interval = cur.col_interval[col_pos[j]]
                if not interval.contains(v):
                    raise InconsistentReduction(
                        f"{action.rule.value} fixed x{j + 1}={v} outside {interval}")
            for i in action.rows:
                r = row_pos[i]
                if alive[r]:
                    alive[r] = False
                    if sizes[r]:
                        product //= sizes[r]
                    else:
                        zeros -= 1
            for j in action.cols:
                if col_pos[j] not in dropped:
                    dropped.add(col_pos[j])
                    for r in cur.col_support[col_pos[j]]:
                        size = sizes[r]
                        sizes[r] = size - 1
                        if alive[r]:
                            if size > 1:
                                product = product // size * (size - 1)
                            else:
                                zeros += 1
            after = 0 if zeros else product
            ledger.steps.append(LedgerStep(action, bound, after))
            bound = after
        cur = restrict(cur, [r for r in range(cur.m) if alive[r]],
                       [j for j in range(cur.n) if j not in dropped])

    for rule in slots:
        if actions := rule(cur, [cost_by_col[j] for j in cur.col_ids]):
            apply(actions)

    reduced = ReducedProblem(
        tables=cur,
        costs=[cost_by_col[j] for j in cur.col_ids],
        fixed=ledger.fixed_assignments(),
        n_original=n_original,
    )
    return reduced, ledger
