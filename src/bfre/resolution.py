"""Resolution of the feasible region into per-cell and per-column sets.

For every equation i and variable j the bipolar term
max(T(a+_ij, x_j), T(a-_ij, 1 - x_j)) induces two sets: the cell solution set
(values of x_j hitting b_i exactly) and the cell relaxation set (values
keeping the term <= b_i).  Intersecting relaxation sets down each column
yields the box constraint every feasible point obeys; restricting each cell
solution set to that box gives the sets the search actually uses.

Each column keeps running bounds, the largest lower end and the smallest
upper end of its cells' relaxation sets.  When they end more than EPS apart
they are the column interval, by the lemma beside ``sets.fold``; otherwise
the column folds its relaxation sets with ``sets.fold`` in ascending row
order.  The restricted cells are then read off the column's own bounds: a
cell's points are ends of its relaxation set, so a restricted cell is the
column interval, {lo}, {hi} or {lo, hi}.  Only the column intervals and the
restricted cells are kept, as ``SetForm``s; the raw relaxation and solution
grids exist only for export, where ``cell_grids`` resolves them again from
the instance.

A restricted view of the tables (rows/columns dropped) deliberately keeps the
original column intervals: redundancy arguments for removed rows rely on the
original bounds, so they are frozen, never recomputed.

Each row's coefficients are scanned once per ``solve``: ``_reached_columns``
keeps, ascending, the columns where a+ or a- is at least fl(b - 2·EPS);
``build_tables`` resolves only those cells and ``is_feasible_point``
evaluates only those terms, each deciding a kept one by the reach test of
``tolerance``.  The scan is a cheap superset: the reach test implies
a >= b - EPS - 2**-54 > fl(b - 2·EPS).  ``row_value`` stays the full
evaluation of a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InconsistentReduction
from .sets import SetForm, fold, piece, spell
from .tnorms import DomainError, TNorm, _check_unit, _evaluator, _solver
from .tolerance import EPS

_EMPTY = SetForm.empty()
_UNIT = piece(0.0, 1.0)
_NEG_EPS = -EPS
_CROSSED = math.inf         # the running lower end of a column with a crossed cell


@dataclass(frozen=True)
class ProblemInstance:
    """Input data: coefficient matrices, right-hand side, costs, t-norm.

    All matrix/vector entries live in [0, 1]; costs are finite and
    nonnegative (callers with negative costs must substitute variables before
    building an instance), and so is their float sum, which bounds every
    objective the search prices.
    """

    a_plus: list
    a_minus: list
    b: list
    c: list
    tnorm: TNorm

    def __post_init__(self):
        m = len(self.b)
        n = len(self.c)
        if len(self.a_plus) != m or len(self.a_minus) != m:
            raise ValueError(f"matrix row count != len(b)={m}")
        if m and not n:
            raise ValueError(f"{m} equation(s) over no variables")
        for name, mat in (("a_plus", self.a_plus), ("a_minus", self.a_minus)):
            for i, row in enumerate(mat):
                if len(row) != n:
                    raise ValueError(f"{name}[{i}] has {len(row)} entries, expected {n}")
                for j, v in enumerate(row):
                    if not 0.0 <= v <= 1.0:
                        raise ValueError(f"{name}[{i}][{j}] out of [0,1]")
        for i, v in enumerate(self.b):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"b[{i}] out of [0,1]")
        for j, v in enumerate(self.c):
            if not math.isfinite(v):
                raise ValueError(f"c[{j}] not finite")
            if v < 0:
                raise ValueError(f"c[{j}] negative")
        if not math.isfinite(sum(self.c, 0.0)):
            raise ValueError("sum of c overflows the float range")

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def n(self) -> int:
        return len(self.c)


def bipolar_cell(t: TNorm, a_plus: float, a_minus: float, b: float):
    """Solution and relaxation sets of one bipolar term.

    Returns (solution_set, relaxation_set).  The five cases split on which of
    a+, a- reach b and on whether b is zero; a crossed interval (the two
    one-sided bounds exclude each other) makes the cell infeasible and both
    sets come back empty.  The three arguments are checked and clamped into
    [0, 1] once, with ``solve_u``'s error texts, before the cell is
    resolved on the unchecked kernel of ``t``.
    """
    return _cell_sets(*_resolve_cell(_solver(t), _check_unit("a", a_plus),
                                     _check_unit("a", a_minus), _check_unit("b", b)))


def _cell_sets(cell, relax) -> tuple:
    """``_resolve_cell``'s plain tuples as (solution, relaxation) sets."""
    return SetForm(cell), SetForm.interval(*relax) if relax else _EMPTY


def _resolve_cell(u, a_plus: float, a_minus: float, b: float) -> tuple:
    """``bipolar_cell`` for arguments in [0, 1] and the bound kernel ``u``
    of ``tnorms._solver``, as plain tuples.  A one-sided relaxation set is
    left as its raw bounds, which ``sets.fold`` constructs."""
    plus_ge = a_plus - b >= _NEG_EPS
    minus_ge = a_minus - b >= _NEG_EPS
    if not plus_ge and not minus_ge:
        return _EMPTY, _UNIT
    if b > EPS:
        if not minus_ge:
            v = u(a_plus, b)
            return (v, v), (0.0, v)
        if not plus_ge:
            v = 1.0 - u(a_minus, b)
            return (v, v), (v, 1.0)
        relax = piece(1.0 - u(a_minus, b), u(a_plus, b))
        if not relax or relax[0] == relax[1]:
            return relax, relax         # the two roots cross (∅) or meet ({lo})
        lo, hi = relax
        return (lo, lo, hi, hi), relax
    # b == 0: both sides always reach b, and solving == relaxing; a crossed
    # pair gives the empty interval.
    relax = piece(1.0 - u(a_minus, 0.0), u(a_plus, 0.0))
    return relax, relax


@dataclass(frozen=True)
class ResolutionTables:
    """The sets reduction and search read, for one instance (or a
    restriction): column intervals and restricted cells, with their supports.

    The raw relaxation and solution grids are not kept; ``cell_grids``
    resolves them for export.  ``row_ids``/``col_ids`` map positions back to
    the original instance.  In a restricted view ``col_interval`` keeps the
    values computed from the full instance.
    """

    col_interval: list    # per column, intersection of relaxation sets
    s_prime: list         # solution set restricted to the column interval
    row_support: list     # per row: columns with non-empty restricted set
    col_support: list     # per column: rows with non-empty restricted set
    row_ids: list
    col_ids: list
    rhs: list             # b value per (surviving) row

    @property
    def m(self) -> int:
        return len(self.row_ids)

    @property
    def n(self) -> int:
        return len(self.col_ids)

    def intersect_cells(self, j: int, rows) -> SetForm:
        """Intersection of column j's restricted cells over ``rows``, taken
        in the given order; empty when ``rows`` is."""
        cells = [self.s_prime[i][j] for i in rows]
        return fold(cells[1:], cells[0]) if cells else _EMPTY


def _reached_columns(p: ProblemInstance) -> list:
    """Per row, the ascending columns where a+ or a- is at least
    fl(b - 2·EPS): the row scan resolution and the direct check share."""
    cols = range(p.n)
    return [[j for j, x, y in zip(cols, ap, am) if x >= reach or y >= reach]
            for ap, am, reach in zip(p.a_plus, p.a_minus, [b - 2 * EPS for b in p.b])]


def build_tables(p: ProblemInstance) -> ResolutionTables:
    """Resolve an instance into its column intervals and restricted cells.

    Only the cells in the scan of ``_reached_columns`` are resolved.  Every
    other cell has an empty solution set and a [0, 1] relaxation set, which
    changes no interval.  A one-sided cell is resolved to its point alone,
    a float; any other cell to ``_resolve_cell``'s plain tuples.  Each
    column keeps its non-empty solution sets with their rows, in ascending
    row order, and the largest lower end lo and the smallest upper end hi
    of its relaxation sets.  When hi - lo > EPS, (lo, hi) is the interval
    the fold of those sets gives, by the lemma beside ``sets.fold``.
    Otherwise a crossed cell, whose relaxation set is empty, empties the
    column, and any other column resolves its rows' relaxation sets again
    and folds them with ``sets.fold`` in ascending row order.
    The t-norm's kernel is bound once and the cells are resolved unchecked:
    ``ProblemInstance`` has already held every entry to [0, 1].

    The restricted cells are read off (lo, hi) without the set algebra.
    This rests on two premises of ``_resolve_cell``: a cell's points are
    the ends of its relaxation set, and an interval cell is a b <= EPS cell
    and so its own relaxation set.  An interval cell holds the whole column,
    so it restricts to the column interval.  In a proper column lo is the
    largest lower end and hi the smallest upper end of the relaxation sets,
    so a cell's first point either lies within EPS of lo, where it becomes
    lo, or is cut, and its last point likewise becomes hi or is cut; in a
    point column every surviving cell is the column.  The column's sets
    {lo}, {hi} and {lo, hi} are built when a cell first needs one and then
    shared by its rows.  A cell that breaks the premises, such as a piece
    wider than EPS that is not a whole relaxation set, must go through
    ``sets.restrict`` instead.
    """
    return _build_tables(p, _reached_columns(p))


def _build_tables(p: ProblemInstance, reached: list) -> ResolutionTables:
    """``build_tables`` over the row scan ``reached`` of ``_reached_columns``.

    The bulk branch resolves a one-sided cell, where exactly one of a+ and
    a- reaches b, inline; it must match ``_resolve_cell``, the rule every
    other cell goes through.  Exactly one side can reach only when b > EPS,
    since a >= 0 always reaches a b <= EPS.

    The cell objects each column shares among its rows (its interval, {lo},
    {hi} and {lo, hi}) let the search's reuse rule keep a running
    intersection that is the row's cell itself on an identity test, and
    make a column whose cells are all one object uniform in the searches'
    mask (``optimize._bind_rows``), which steps it with no intersection.
    Both are premises of the search's speed, not of its answers: equal but
    distinct cells cost one intersection each and give the same search."""
    m, n = p.m, p.n
    u = _solver(p.tnorm)
    eps, neg_eps = EPS, -EPS
    cols = range(n)
    low = [0.0] * n                   # per column: the largest lower end and the smallest
    high = [1.0] * n                  # upper end of its cells' relaxation sets so far
    cells = [[] for _ in cols]        # per column: (row, non-empty solution set), in row
                                      # order; a one-sided cell's point as a float
    for i, reached_cols in enumerate(reached):
        ap, am, b = p.a_plus[i], p.a_minus[i], p.b[i]
        for j in reached_cols:
            x, y = ap[j], am[j]
            plus_ge = x - b >= neg_eps
            if plus_ge is not (y - b >= neg_eps):
                if plus_ge:             # relaxation set [0, v]
                    v = u(x, b)
                    if v < high[j]:
                        high[j] = v
                else:                   # relaxation set [v, 1]
                    v = 1.0 - u(y, b)
                    if v > low[j]:
                        low[j] = v
            else:
                v, r = _resolve_cell(u, x, y, b)
                if not r:               # crossed: ∅ empties the column's fold
                    low[j] = _CROSSED
                if not v:               # crossed, or unreached: [0, 1] changes no fold
                    continue
                lo, hi = r
                if lo > low[j]:
                    low[j] = lo
                if hi < high[j]:
                    high[j] = hi
            cells[j].append((i, v))
    s_prime = [[_EMPTY] * n for _ in range(m)]
    row_support = [[] for _ in range(m)]
    col_support = [[] for _ in cols]
    col_interval = []
    for j, lo, hi in zip(cols, low, high):
        if hi - lo > eps:               # the lemma beside sets.fold
            col = SetForm((lo, hi))
        elif lo == _CROSSED:
            col = _EMPTY
        else:
            col = fold([_resolve_cell(u, p.a_plus[i][j], p.a_minus[i][j], p.b[i])[1]
                        for i, _ in cells[j]])
        col_interval.append(col)
        if not col:
            continue
        lo, hi = col
        at_lo = at_hi = at_both = col if lo == hi else None     # built when first kept
        support = col_support[j]
        for i, cell in cells[j]:
            if cell.__class__ is float:
                first = last = cell
            else:
                first, last = cell[0], cell[-1]
            if first != last and len(cell) == 2:        # a b <= EPS interval cell
                kept = col
            elif abs(first - lo) <= eps:
                if abs(last - hi) <= eps:
                    kept = at_both = at_both or SetForm((lo, lo, hi, hi))
                else:
                    kept = at_lo = at_lo or SetForm.point(lo)
            elif abs(last - hi) <= eps:
                kept = at_hi = at_hi or SetForm.point(hi)
            else:
                continue
            s_prime[i][j] = kept
            row_support[i].append(j)
            support.append(i)
    return ResolutionTables(
        col_interval, s_prime, row_support, col_support,
        list(range(m)), list(range(n)), list(p.b),
    )


def restrict(tables: ResolutionTables, keep_rows, keep_cols) -> ResolutionTables:
    """Drop rows/columns without recomputing any set.  ``keep_rows`` and
    ``keep_cols`` must list distinct positions in ascending order.

    The supports are the parent's support lists remapped to the new
    positions, which keeps them ascending.  No cell is examined again.
    """
    return ResolutionTables(
        [tables.col_interval[j] for j in keep_cols],
        [[tables.s_prime[i][j] for j in keep_cols] for i in keep_rows],
        _remap(tables.row_support, keep_rows, keep_cols),
        _remap(tables.col_support, keep_cols, keep_rows),
        [tables.row_ids[i] for i in keep_rows], [tables.col_ids[j] for j in keep_cols],
        [tables.rhs[i] for i in keep_rows],
    )


def _remap(supports, pick, keep) -> list:
    """``supports[k]`` for each k in ``pick``, renumbered to positions in
    the ascending ``keep`` with every entry ``keep`` drops left out."""
    new = {p: q for q, p in enumerate(keep)}
    return [[new[p] for p in supports[k] if p in new] for k in pick]


class FeasibilityStatus(Enum):
    NECESSARY_CONDITIONS_PASS = "necessary_conditions_pass"
    EMPTY_COLUMN = "empty_column"
    UNSATISFIABLE_ROW = "unsatisfiable_row"


@dataclass(frozen=True)
class FeasibilityReport:
    status: FeasibilityStatus
    witness: int | None = None  # original row/column id of the failure

    @property
    def ok(self) -> bool:
        return self.status is FeasibilityStatus.NECESSARY_CONDITIONS_PASS


def check_feasibility(tables: ResolutionTables) -> FeasibilityReport:
    """Two necessary feasibility conditions (not sufficient ones).

    A column whose interval is empty, or a row with no usable cell, rules the
    instance out immediately; passing both only means the search must decide.
    """
    for j in range(tables.n):
        if not tables.col_interval[j]:
            return FeasibilityReport(FeasibilityStatus.EMPTY_COLUMN, tables.col_ids[j])
    for i in range(tables.m):
        if not tables.row_support[i]:
            return FeasibilityReport(FeasibilityStatus.UNSATISFIABLE_ROW, tables.row_ids[i])
    return FeasibilityReport(FeasibilityStatus.NECESSARY_CONDITIONS_PASS)


def row_value(p: ProblemInstance, i: int, x) -> float:
    """Left-hand side of equation i at the point x.

    ``x`` must have n coordinates, as for ``is_feasible_point``.  Each
    coordinate is checked and clamped into [0, 1] once; the coefficients
    are already in range.  The t-norm's kernel is bound once and evaluates
    every term unchecked.
    """
    if len(x) != p.n:
        raise DomainError(f"point has {len(x)} coordinates, expected {p.n}")
    # evaluate's error for its second argument
    x = [_check_unit("y", x[j]) for j in range(p.n)]
    T = _evaluator(p.tnorm)
    best = 0.0
    for a_plus, a_minus, v in zip(p.a_plus[i], p.a_minus[i], x):
        best = max(best, T(a_plus, v), T(a_minus, 1.0 - v))
    return best


def satisfies_by_tables(tables: ResolutionTables, x) -> bool:
    """Membership test from the tables: in every column interval, and each
    row witnessed by some restricted cell.  ``x`` is read by index, so a
    point shorter than the tables raises rather than passes."""
    for j, col in enumerate(tables.col_interval):
        if not col.contains(x[j]):
            return False
    for cells, support in zip(tables.s_prime, tables.row_support):
        for j in support:
            if cells[j].contains(x[j]):
                break
        else:
            return False
    return True


def is_feasible_point(p: ProblemInstance, x, tables: ResolutionTables | None = None) -> bool:
    """Check every row equality directly at x: |row_value - b_i| <= EPS,
    decided from the terms that can change the verdict.

    Only the terms in the scan of ``_reached_columns`` are examined: every
    other term has fl(a - b) < -EPS and changes no verdict.  Each coordinate
    is checked and clamped into [0, 1] once, and the t-norm's kernel bound
    once, before the rows are examined.  When freshly built tables are
    supplied, the direct check is cross-checked against the table
    criterion; a disagreement raises InconsistentReduction.
    """
    return _is_feasible_point(p, x, _reached_columns(p), tables)


def _is_feasible_point(p: ProblemInstance, x, reached: list, tables) -> bool:
    """``is_feasible_point`` over the row scan ``reached`` of ``_reached_columns``."""
    if len(x) != p.n:
        raise DomainError(f"point has {len(x)} coordinates, expected {p.n}")
    # the guard inline, so a name is formatted only for a coordinate it refuses
    x = [min(1.0, max(0.0, v)) if -EPS <= v <= 1 + EPS else _check_unit(f"x[{j}]", v)
         for j, v in enumerate(x)]
    x_neg = [1.0 - v for v in x]
    T = _evaluator(p.tnorm)
    ok = all(_row_holds(T, p.a_plus[i], p.a_minus[i], p.b[i], cols, x, x_neg)
             for i, cols in enumerate(reached))
    if tables is not None and ok != satisfies_by_tables(tables, x):
        raise InconsistentReduction(f"direct and table feasibility criteria disagree at {x}")
    return ok


def _row_holds(T, a_plus, a_minus, b: float, cols, x, x_neg) -> bool:
    """Whether |max(0, terms) - b| <= EPS, the verdict of ``row_value``, on
    the bound kernel ``T`` of ``tnorms._evaluator``, in one pass over the
    columns ``cols``.

    The axiom T(a, y) <= min(a, y), which the kernel keeps exactly, caps
    every term by cap = min(a, y), and the rounded difference v - b is
    monotone in v.  So a term with cap - b < -EPS can neither reach the
    row nor overshoot it and is skipped; a term with cap - b > EPS is
    evaluated at once, since it may overshoot; a reach-only term, with
    cap within EPS of b, cannot overshoot and is evaluated only while no
    term has reached b within EPS.  With no reaching term the row holds
    only if b <= EPS (the empty max is 0).  The verdict does not depend on
    the order of the terms.  ``cols`` lists the columns with a+ or a- at
    least fl(b - 2·EPS), and a term with a or y below that bound has
    cap - b < -EPS, so it is skipped on that test alone.
    """
    eps, neg_eps = EPS, -EPS
    reach = b - 2 * eps
    reached = b <= eps
    for j in cols:                  # the a+ term of column j, then its a- term
        a, y = a_plus[j], x[j]
        if a >= reach <= y:
            d = (a if a < y else y) - b
            if d > eps or (not reached and d >= neg_eps):
                d = T(a, y) - b
                if d > eps:
                    return False
                reached = reached or d >= neg_eps
        a, y = a_minus[j], x_neg[j]
        if a >= reach <= y:
            d = (a if a < y else y) - b
            if d > eps or (not reached and d >= neg_eps):
                d = T(a, y) - b
                if d > eps:
                    return False
                reached = reached or d >= neg_eps
    return reached


def admissible_upper_bound(tables: ResolutionTables) -> int:
    """Product of row support sizes: cap on the number of pick vectors."""
    bound = 1
    for i in range(tables.m):
        bound *= len(tables.row_support[i])
    return bound


# -- export helpers ---------------------------------------------------------

def cell_grids(p: ProblemInstance, tables: ResolutionTables) -> tuple:
    """(solution, relaxation) grids of ``tables``' rows and columns,
    resolved again from the instance, cell by cell as ``bipolar_cell``
    does, on a kernel bound once (the instance holds every entry in
    [0, 1]); every unreachable cell comes back as one shared (∅, [0, 1])
    pair.  Only the cells in the scan of ``_reached_columns`` are resolved:
    every other one fails the reach test on both sides.  A resolved cell
    is unreachable when ``_resolve_cell`` returns ``_UNIT`` itself."""
    u = _solver(p.tnorm)
    unreached = _cell_sets(_EMPTY, _UNIT)
    reached = _reached_columns(p)
    position = {j: k for k, j in enumerate(tables.col_ids)}
    cells = []
    for i in tables.row_ids:
        ap, am, b = p.a_plus[i], p.a_minus[i], p.b[i]
        row = [unreached] * len(position)
        for j in reached[i]:
            k = position.get(j)
            if k is not None:
                sets = _resolve_cell(u, ap[j], am[j], b)
                if sets[1] is not _UNIT:
                    row[k] = _cell_sets(*sets)
        cells.append(row)
    return ([[s for s, _ in row] for row in cells],
            [[r for _, r in row] for row in cells])


class _Spellings(dict):
    """Set -> its display spelling, spelled once per distinct value."""

    def __missing__(self, s):
        text = self[s] = spell(s)
        return text


def tables_to_json(p: ProblemInstance, tables: ResolutionTables) -> dict:
    """All four tables of ``p`` as display strings; each distinct set is
    spelled once (equal sets spell alike)."""
    solution, relaxation = cell_grids(p, tables)
    spelled = _Spellings()
    text = lambda grid: [list(map(spelled.__getitem__, row)) for row in grid]
    return {
        "rows": tables.row_ids,
        "cols": tables.col_ids,
        "relaxation": text(relaxation),
        "solution": text(solution),
        "column_interval": list(map(spelled.__getitem__, tables.col_interval)),
        "restricted": text(tables.s_prime),
    }
