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
the column intervals, which is exactly what makes the removals sound.  The
whole pass works in place on one live view of the input tables: the live
row and column positions, ascending, a copy of each support list, and the
running bound, a product of the live rows' support sizes with a count of
the empty ones.  Each action updates that state as it is applied (a
dropped row leaves the supports of the columns it was in, a dropped column
those of the rows it was in) and gets its own ledger step, bounded by the
rows and columns that survive it.  No cell is scanned again and no table
is rebuilt between slots; one restriction at the end, made only when
something was dropped, gives the search its compact tables.  The input
tables are never mutated: the caller checks the answer against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import InconsistentReduction
from .resolution import ResolutionTables, restrict
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
# Each takes tables, either a ``ResolutionTables`` or the reducer's live view
# of one, and the costs aligned with their positions, and returns the actions
# its slot applies, in order and in original indices: each action is found on
# the rows and columns the earlier ones leave, and the list is empty when
# nothing applies.  A rule scans only ``tables.rows`` and ``tables.cols``, the
# positions still live, ascending.  Only the dominated column rule reads the
# costs.  None of them mutates the tables.

def rule_zero_rhs(tables: ResolutionTables, costs=None) -> list:
    """Rows whose right-hand side is zero are redundant; one action drops
    them all."""
    rows = tuple(tables.row_ids[i] for i in tables.rows if tables.rhs[i] <= EPS)
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
    col_interval = tables.col_interval
    return [_fix(Rule.SINGLETON_COLUMN, tables, alive, j, col_interval[j].minimum())
            for j in tables.cols if col_interval[j].is_point]


def _masks(supports, live, size) -> list:
    """Each live support as an int with bit p set for each position p in
    it; 0 for every other position."""
    masks = [0] * size
    for k in live:
        bits = 0
        for p in supports[k]:
            bits |= 1 << p
        masks[k] = bits
    return masks


def rule_dominated_row(tables: ResolutionTables, costs=None) -> list:
    """Rows made redundant by another surviving row, in a single ascending
    pass; one single-row action per removed row.

    Row i dominates row i0 when its cells all sit inside row i0's.  An
    empty cell sits inside any set and a non-empty one never inside an
    empty one, so row i0 must support every column row i does (a test on
    the support bitmasks), and only row i's support columns need a subset
    test.  Mutually dominating (identical) rows keep the lower index.  A
    row kept once stays kept as the survivors shrink, so the removals are
    the fixed point of repeated single removals in ascending order.
    """
    s_prime, row_support, rows = tables.s_prime, tables.row_support, tables.rows
    masks = _masks(row_support, rows, tables.m)
    alive = list(rows)
    out = []
    for i0 in rows:
        m0, cells0 = masks[i0], s_prime[i0]
        for i in alive:
            mi = masks[i]
            if i == i0 or mi & m0 != mi:
                continue
            cells = s_prime[i]
            if not all(cells[j].issubset(cells0[j]) for j in row_support[i]):
                continue
            if i0 < i and mi == m0 and all(cells0[j].issubset(cells[j]) for j in row_support[i0]):
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
    rows = tables.rows
    sizes = [len(sup) for sup in row_support]
    alive = [True] * tables.m
    gone = [False] * tables.n
    out = []
    k = 0
    while k < len(rows):
        i = rows[k]
        if not alive[i] or sizes[i] != 1:
            k += 1
            continue
        j = next(j for j in row_support[i] if not gone[j])
        cell = s_prime[i][j]
        if not cell.is_point:
            k += 1
            continue
        out.append(_fix(Rule.FORCED_ASSIGNMENT, tables, alive, j, cell.minimum()))
        gone[j] = True
        for r in col_support[j]:
            sizes[r] -= 1
        k = 0
    return out


def rule_two_point_row(tables: ResolutionTables, costs=None) -> list:
    """Rows holding a two-point restricted cell never constrain candidate
    minima; one action drops them all."""
    rows = tuple(tables.row_ids[i] for i in tables.rows
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
    for j in tables.cols:
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
    for j in tables.cols:
        if not tables.col_support[j] and tables.col_interval[j]:
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
    col_support = tables.col_support
    masks = _masks(col_support, tables.cols, tables.n)
    inter = {j: tables.intersect_cells(j, col_support[j]) for j in tables.cols}

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

    alive = list(tables.cols)
    fixed, cols, parts = {}, [], []
    for j1 in tables.cols:
        m1 = masks[j1]
        if not m1:
            continue
        for j2 in alive:
            if j2 == j1 or m1 & masks[j2] != m1:
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
# feasibility mode runs the first three.
_SLOTS = (
    rule_zero_rhs, rule_singleton_column, rule_dominated_row, rule_forced_assignment,
    rule_two_point_row, rule_lower_bound_column, rule_free_column, rule_dominated_column,
)


class _LiveTables:
    """The tables as the reduction has left them so far, read by the rules
    like a ``ResolutionTables``.

    Positions stay those of the input tables, whose cells, column
    intervals, ids and right-hand sides are shared, never written.
    ``rows`` and ``cols`` hold the live positions in ascending order, and
    each support list is a copy that holds only live positions, so a live
    row's support size is its live column count.
    """

    __slots__ = ("col_interval", "s_prime", "row_support", "col_support",
                 "row_ids", "col_ids", "rhs", "rows", "cols")

    m = ResolutionTables.m
    n = ResolutionTables.n
    lower_bound = ResolutionTables.lower_bound
    upper_bound = ResolutionTables.upper_bound
    intersect_cells = ResolutionTables.intersect_cells

    def __init__(self, tables: ResolutionTables):
        self.col_interval, self.s_prime = tables.col_interval, tables.s_prime
        self.row_ids, self.col_ids, self.rhs = tables.row_ids, tables.col_ids, tables.rhs
        self.row_support = [list(sup) for sup in tables.row_support]
        self.col_support = [list(sup) for sup in tables.col_support]
        self.rows = list(tables.rows)
        self.cols = list(tables.cols)


def simplify(tables: ResolutionTables, costs, mode: Mode):
    """Run the reduction pass; returns (ReducedProblem, ReductionLedger).

    ``costs`` must be aligned with ``tables.col_ids``.  The necessary
    feasibility conditions are assumed to have passed.  ``tables`` is not
    mutated.
    """
    slots = _SLOTS[:3] if mode is Mode.FEASIBILITY_PRESERVING else _SLOTS
    live = _LiveTables(tables)
    row_support, col_support = live.row_support, live.col_support
    row_pos = {i: pos for pos, i in enumerate(tables.row_ids)}
    col_pos = {j: pos for pos, j in enumerate(tables.col_ids)}
    row_alive = [True] * tables.m
    col_alive = [True] * tables.n
    # The bound is kept as a running product of the live rows' non-zero
    # support sizes and a count of live rows whose support is empty, so an
    # action updates only the rows it drops or a dropped column reaches.
    # The integers are exact: a size divided out is a factor of the product.
    product, zeros = 1, 0
    for sup in row_support:
        if sup:
            product *= len(sup)
        else:
            zeros += 1
    ledger = ReductionLedger(initial_bound=0 if zeros else product)

    for rule in slots:
        actions = rule(live, costs)
        for action in actions:
            for j, v in action.fixed.items():
                interval = tables.col_interval[col_pos[j]]
                if not interval.contains(v):
                    raise InconsistentReduction(
                        f"{action.rule.value} fixed x{j + 1}={v} outside {interval}")
            bound = 0 if zeros else product
            for i in action.rows:
                r = row_pos[i]
                if row_alive[r]:
                    row_alive[r] = False
                    if row_support[r]:
                        product //= len(row_support[r])
                    else:
                        zeros -= 1
                    for c in row_support[r]:
                        col_support[c].remove(r)
            for j in action.cols:
                c = col_pos[j]
                if col_alive[c]:
                    col_alive[c] = False
                    for r in col_support[c]:
                        sup = row_support[r]
                        size = len(sup)
                        sup.remove(c)
                        if size > 1:
                            product = product // size * (size - 1)
                        else:
                            zeros += 1
            ledger.steps.append(LedgerStep(action, bound, 0 if zeros else product))
        if actions:
            live.rows = [i for i in live.rows if row_alive[i]]
            live.cols = [j for j in live.cols if col_alive[j]]

    reduced_tables = tables
    if len(live.rows) < tables.m or len(live.cols) < tables.n:
        reduced_tables = restrict(tables, live.rows, live.cols)
    reduced = ReducedProblem(
        tables=reduced_tables,
        costs=[costs[j] for j in live.cols],
        fixed=ledger.fixed_assignments(),
        n_original=tables.n,
    )
    return reduced, ledger
