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
live view of the tables, it applies each action to the view as soon as it
finds it, so the next one is found on the rows and columns the earlier ones
leave, and the view's ledger is the one record of what it applied.  Singleton
columns and forced assignments chain until exhausted.  The dominance
techniques make a single ascending pass against a shrinking list of
survivors: whether one row (or column) dominates another depends only on
their own cells, which no restriction changes, so a removal can only retire
dominators and never creates a new domination.  A row's candidate
dominators are the live rows of its own support columns, since a dominator's
support lies inside the dominated row's; a live row with an empty support
dominates every other row but a lower empty one.  The other column-fixing
optimality techniques act once, on the state where they first became
applicable.  Chaining those fixes further would be sound but produces a
different, more aggressive reduction than the one this module documents and
tests pin down.

The set tables are never recomputed: removed rows' bounds stay baked into
the column intervals, which is exactly what makes the removals sound.  The
whole pass works in place on one live view of the input tables, and its
``apply`` is the one place the reduction's state changes: each action drops
its rows and columns from the live supports, updates the running bound and
gets its own ledger step, bounded by the rows and columns that survive it.
No cell is scanned again and no table is rebuilt between slots; one
restriction at the end, made only when something was dropped, gives the
search its compact tables.  The input tables are never mutated: the caller
checks the answer against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

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


class Action(NamedTuple):
    """One applied reduction: variables fixed plus rows/columns dropped.

    Indices are original instance indices.
    """

    rule: Rule
    fixed: dict
    rows: tuple
    cols: tuple
    detail: str = ""


class LedgerStep(NamedTuple):
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


# -- the live state -----------------------------------------------------------

class _LiveTables:
    """The tables as the reduction has left them so far, read by the rules
    like a ``ResolutionTables``; ``apply`` is the one place that state
    changes.

    Positions stay those of the input tables, whose cells, column
    intervals, ids and right-hand sides are shared, never written.
    ``rows`` and ``cols`` hold the live positions in ascending order, and
    each support list is a copy that holds only live positions, so a live
    row's support size is its live column count.  The bound is kept as a
    running product of the live rows' non-zero support sizes and a count of
    live rows whose support is empty, so an action updates only the rows it
    drops or a dropped column reaches.  The integers are exact: a size
    divided out is a factor of the product.
    """

    __slots__ = ("col_interval", "s_prime", "row_support", "col_support",
                 "row_ids", "col_ids", "rhs", "rows", "cols", "product", "zeros", "ledger")

    m = ResolutionTables.m
    n = ResolutionTables.n
    intersect_cells = ResolutionTables.intersect_cells

    def __init__(self, tables: ResolutionTables):
        self.col_interval, self.s_prime = tables.col_interval, tables.s_prime
        self.row_ids, self.col_ids, self.rhs = tables.row_ids, tables.col_ids, tables.rhs
        self.row_support = [list(sup) for sup in tables.row_support]
        self.col_support = [list(sup) for sup in tables.col_support]
        self.rows = list(range(tables.m))
        self.cols = list(range(tables.n))
        self.product, self.zeros = 1, 0
        for sup in self.row_support:
            if sup:
                self.product *= len(sup)
            else:
                self.zeros += 1
        self.ledger = ReductionLedger(initial_bound=0 if self.zeros else self.product)

    def apply(self, rule: Rule, rows, fixed=None, detail="") -> None:
        """Apply one action, given in live positions, and record it, in
        original ids, as its ledger step.

        Every position given must be live, and given once; the columns
        dropped are the fixed ones, in ``fixed``'s order.  Each fixed value
        is checked against its column interval first.  The rows are then
        dropped, from ``rows`` and from the column supports, and after them
        the columns, from ``cols`` and from the row supports.
        """
        row_ids, col_ids = self.row_ids, self.col_ids
        for j, v in fixed.items() if fixed else ():
            if not self.col_interval[j].contains(v):
                raise InconsistentReduction(
                    f"{rule.value} fixed x{col_ids[j] + 1}={v} outside {self.col_interval[j]}")
        row_support, col_support = self.row_support, self.col_support
        product, zeros = self.product, self.zeros
        before = 0 if zeros else product
        for i in rows:
            self.rows.remove(i)
            sup = row_support[i]
            if sup:
                product //= len(sup)
            else:
                zeros -= 1
            for c in sup:
                col_support[c].remove(i)
        for j in fixed or ():
            self.cols.remove(j)
            for r in col_support[j]:
                sup = row_support[r]
                size = len(sup)
                sup.remove(j)
                if size > 1:
                    product = product // size * (size - 1)
                else:
                    zeros += 1
        self.product, self.zeros = product, zeros
        action = Action(
            rule,
            {col_ids[j]: v for j, v in fixed.items()} if fixed else {},
            tuple([row_ids[i] for i in rows]) if rows else (),
            tuple([col_ids[j] for j in fixed]) if fixed else (),
            detail,
        )
        self.ledger.steps.append(LedgerStep(action, before, 0 if zeros else product))


# -- individual techniques ---------------------------------------------------
#
# Each takes the reducer's live view and the costs aligned with its
# positions, and returns nothing.  A rule applies each action to the view as
# soon as it finds it, so the next one is found on the rows and columns it
# leaves, and the view's ledger records it; a slot where nothing applies adds
# no step.  A rule scans only the live positions, ``rows`` and ``cols``,
# ascending, and scans a copy of them where it applies actions as it goes.
# Only the dominated column rule reads the costs.

def rule_zero_rhs(t: _LiveTables, costs=None) -> None:
    """Rows whose right-hand side is zero are redundant; one action drops
    them all."""
    rows = [i for i in t.rows if t.rhs[i] <= EPS]
    if rows:
        t.apply(Rule.ZERO_RHS_ROW, rows)


def _fix(rule, t: _LiveTables, j, k) -> None:
    """Fix column j at k and drop the live rows whose cell holds k."""
    t.apply(rule, [i for i in t.col_support[j] if t.s_prime[i][j].contains(k)], {j: k})


def rule_singleton_column(t: _LiveTables, costs=None) -> None:
    """Columns whose interval is a single value: fix each, drop the rows
    that value satisfies.

    Column intervals never change, so the actions take the point columns
    in ascending order; only the rows each one drops depend on the earlier
    actions.
    """
    col_interval = t.col_interval
    for j in [j for j in t.cols if col_interval[j].is_point]:
        _fix(Rule.SINGLETON_COLUMN, t, j, col_interval[j][0])


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


def _inside(cells, cells0, support) -> bool:
    """Whether each of ``cells`` over the columns ``support`` sits inside
    its cell of ``cells0``; a cell shared by both rows does without a test."""
    for j in support:
        c, c0 = cells[j], cells0[j]
        if c is not c0 and not c.issubset(c0):
            return False
    return True


def rule_dominated_row(t: _LiveTables, costs=None) -> None:
    """Rows made redundant by another surviving row, in a single ascending
    pass; one single-row action per removed row.

    Row i dominates row i0 when its cells all sit inside row i0's.  An
    empty cell sits inside any set and a non-empty one never inside an
    empty one, so row i0 must support every column row i does (a test on
    the support bitmasks), and only row i's support columns need a subset
    test.  Mutually dominating (identical) rows keep the lower index.  A
    row kept once stays kept as the survivors shrink, so the removals are
    the fixed point of repeated single removals in ascending order.
    Dropping rows leaves every row support, and so every bitmask, as it is.

    A dominator with a non-empty support lies inside row i0's, so it is a
    live row of one of row i0's support columns: the candidates are read
    off the live column supports, never the whole row list.  A row with an
    empty support dominates every non-empty row, and of the empty rows the
    lowest survives the others; so when a live row is empty, the lowest
    such row stays and every other live row is dropped, ascending.
    """
    s_prime, row_support, col_support, live = t.s_prime, t.row_support, t.col_support, t.rows
    keep = next((i for i in live if not row_support[i]), None)
    if keep is not None:
        for i0 in [i for i in live if i != keep]:
            t.apply(Rule.DOMINATED_ROW, (i0,))
        return
    masks = _masks(row_support, live, t.m)
    for i0 in list(live):
        m0, cells0, sup0 = masks[i0], s_prime[i0], row_support[i0]
        # a row met through several columns is met again; its mask test is
        # cheaper than a set of the candidates
        for j0 in sup0:
            for i in col_support[j0]:
                mi = masks[i]
                if i == i0 or mi & m0 != mi or not _inside(s_prime[i], cells0, row_support[i]):
                    continue
                if i0 < i and mi == m0 and _inside(cells0, s_prime[i], sup0):
                    continue
                t.apply(Rule.DOMINATED_ROW, (i0,))
                break
            else:
                continue
            break    # i0 is dropped


def rule_forced_assignment(t: _LiveTables, costs=None) -> None:
    """Rows supported by a single column whose restricted cell is a single
    value: fix the column, drop every row that value satisfies.

    The ascending scan of the live rows restarts after every action, since
    a dropped column can leave an earlier row with a single column.
    """
    s_prime, row_support, live = t.s_prime, t.row_support, t.rows
    k = 0
    while k < len(live):
        i = live[k]
        if len(row_support[i]) == 1 and (cell := s_prime[i][row_support[i][0]]).is_point:
            _fix(Rule.FORCED_ASSIGNMENT, t, row_support[i][0], cell[0])
            k = 0
        else:
            k += 1


def rule_two_point_row(t: _LiveTables, costs=None) -> None:
    """Rows holding a two-point restricted cell never constrain candidate
    minima; one action drops them all."""
    s_prime, row_support, rows = t.s_prime, t.row_support, []
    for i in t.rows:
        cells = s_prime[i]
        for j in row_support[i]:
            if cells[j].is_pair:
                rows.append(i)
                break
    if rows:
        t.apply(Rule.TWO_POINT_ROW, rows)


def rule_lower_bound_column(t: _LiveTables, costs=None) -> None:
    """Columns whose lower bound satisfies every supporting row: fix at the
    lower bound and drop those rows.

    Matches are collected against the entry state; a row shared by several
    matching columns is dropped once, under the first.
    """
    col_interval, col_support, s_prime = t.col_interval, t.col_support, t.s_prime
    fixed, rows = {}, {}
    for j in t.cols:
        sup = col_support[j]
        if not sup:
            continue
        lj = col_interval[j][0]
        for i in sup:
            if not s_prime[i][j].contains(lj):
                break
        else:
            fixed[j] = lj
            rows.update(dict.fromkeys(sup))
    if fixed:
        t.apply(Rule.LOWER_BOUND_COLUMN, list(rows), fixed)


def rule_free_column(t: _LiveTables, costs=None) -> None:
    """Columns no surviving row can use: fix at the lower bound.

    Columns with an empty interval are left alone; they belong to the
    feasibility check, not to the reducer.
    """
    col_interval, col_support = t.col_interval, t.col_support
    fixed = {j: col_interval[j][0] for j in t.cols if not col_support[j] and col_interval[j]}
    if fixed:
        t.apply(Rule.FREE_COLUMN, (), fixed)


def rule_dominated_column(t: _LiveTables, costs) -> None:
    """Column-vs-column elimination (requires two-point rows already gone).

    Variant (a): if every row that can use column j1 can also use column j2,
    and column j2's supporting rows all meet exactly at its lower bound, then
    no optimum needs column j1: fix it at its own lower bound.

    Variant (b): same nesting, both columns' support intersections are
    singletons at their upper bounds, and paying column j2's full range is
    cheaper than what column j1's value costs: again drop j1 at its lower
    bound.

    No rows are removed, so applying one match never invalidates another;
    a single ascending pass over the surviving columns, each matched one
    leaving the candidates for j2, drains every match into one step.
    """
    col_interval, col_support, cols = t.col_interval, t.col_support, t.cols
    masks = _masks(col_support, cols, t.n)
    inter = {j: t.intersect_cells(j, col_support[j]) for j in cols}

    def variant(j1, j2):
        inter1, inter2 = inter[j1], inter[j2]
        l2 = col_interval[j2][0]
        if inter2.is_point and abs(inter2[0] - l2) <= EPS:
            return "a"
        if not (inter1.is_point and inter2.is_point):
            return None
        v = inter1[0]
        l1, u1 = col_interval[j1][0], col_interval[j1][-1]
        u2 = col_interval[j2][-1]
        if not (abs(v - l1) <= EPS or abs(v - u1) <= EPS):
            return None
        if abs(inter2[0] - u2) > EPS:
            return None
        if costs[j2] * (u2 - l2) < costs[j1] * (v - l1) - EPS:
            return "b"
        return None

    fixed, parts = {}, []
    for j1 in cols:
        m1 = masks[j1]
        if not m1:
            continue
        for j2 in cols:
            if j2 == j1 or m1 & masks[j2] != m1 or j2 in fixed:
                continue
            kind = variant(j1, j2)
            if kind is None:
                continue
            fixed[j1] = col_interval[j1][0]
            parts.append(f"{kind}:x{t.col_ids[j1] + 1}<-x{t.col_ids[j2] + 1}")
            break
    if fixed:
        t.apply(Rule.DOMINATED_COLUMN, (), fixed, ";".join(parts))


# -- driver -------------------------------------------------------------------

# The rules in application order, one slot each (the order of ``Rule``); the
# feasibility mode runs the first three.
_SLOTS = (
    rule_zero_rhs, rule_singleton_column, rule_dominated_row, rule_forced_assignment,
    rule_two_point_row, rule_lower_bound_column, rule_free_column, rule_dominated_column,
)


def simplify(tables: ResolutionTables, costs, mode: Mode):
    """Run the reduction pass; returns (ReducedProblem, ReductionLedger).

    ``costs`` must be aligned with ``tables.col_ids``.  The necessary
    feasibility conditions are assumed to have passed.  ``tables`` is not
    mutated.
    """
    live = _LiveTables(tables)
    for rule in _SLOTS[:3] if mode is Mode.FEASIBILITY_PRESERVING else _SLOTS:
        rule(live, costs)
    reduced_tables = tables
    if len(live.rows) < tables.m or len(live.cols) < tables.n:
        reduced_tables = restrict(tables, live.rows, live.cols)
    reduced = ReducedProblem(
        tables=reduced_tables,
        costs=[costs[j] for j in live.cols],
        fixed=live.ledger.fixed_assignments(),
        n_original=tables.n,
    )
    return reduced, live.ledger
