"""Search over pick vectors: candidate construction and branch-and-bound.

A complete assignment of one column to every row (each pick drawn from the
row's support, all chosen-column cell intersections non-empty) carves a
compact box out of the feasible region; the coordinatewise minimum of that
box is the candidate solution, and the global optimum is the cheapest
candidate.  Two searches build assignments row by row: the branch-and-bound
for the optimum and the depth-first walk that lists every box.  In modified
mode a row that can reuse an already-picked column must reuse the smallest
such column, which prunes equal-cost duplicates without losing any optimum
(valid only after two-point cells have been eliminated).

Admissibility is incremental: a search state holds the running intersection
of every column, taken in pick order (ascending rows, the order the oracle
uses), as a list indexed by column that starts from the column intervals, so
an unpicked column's entry is its interval, and the bitmask of its picked
columns.  A row's domain is the columns whose running intersection survives
that row's cell.  Tolerance-snapped intersection is not associative, so both
searches use this one order, one step routine, ``_admissible_steps``, over a
row's (column, cell) list and the bitmask of the row's picked non-uniform
columns (below), and one child rule, ``_pick``: a pick that returns its
column's running intersection itself keeps the parent's list, any other
pick copies the list, and either sets the column's bit.  So a built list is
never mutated, and the box walk reads an unpicked column's box straight off
it.  ``_bind_rows`` gives a search every row's list and support bitmask
once.  A row with no picked non-uniform column steps to its own list, with
no lookup and no intersection.  The reuse rule lives in the
branch-and-bound's walk (below), which decides every modified-mode row with
a picked column by one rule: over the row's picked columns, lowest first, a
running intersection that is the row's cell itself is kept on an identity
test, any other is intersected with the cell, and the first that survives
is the reuse.  A row whose picked columns all die in its cell steps to its
unpicked columns, so no cell meets a picked column twice.

The tree discipline follows the worked reduction this package reproduces:
after expanding a node, dive into its cheapest viable child; when a branch
ends (complete, pruned, or dead), jump to the cheapest node anywhere in the
live set, a heap keyed (z, -depth, uid).  Cost never decreases along a
branch, so pruning against the incumbent is exact.

The branch-and-bound builds no object per node.  The current node is loop
variables: its uid, cost, depth, link chain and state.  A live-set entry is
a child together with its parent's state, (z, -depth, uid, link, j, s,
inter, mask), and diving into an entry or popping one applies ``_pick``.
A node's picks are a link chain of (parent link, columns) tuples, read only
for the incumbent and for trace events.  Every column lies in the running
intersections, so the node's point is their minima: x[j] == inter[j][0],
and a child is priced off ``inter[j][0]`` with no point to copy.  A lone
viable child is dived into without ordering or live-set traffic.  In
modified mode a row whose reuse returns its column's running intersection
itself is a pass-through row: its child would share the node's state and
cost, so the node walks down consecutive pass-through rows in place, in one
loop, with a new uid and depth per row, and the run adds one link.  The
resolution tables share one cell object among a column's equal cells, so a
reuse that meets its own cell passes through on the identity test alone.

``_bind_rows`` also gives every search the bitmask of uniform columns:
those whose cells over their support are one object C (tested with
``is``; equal but distinct cells do not count).  Such a column's running
intersection is its interval until it is first picked, and every step of
an unpicked column is its own cell, so the first pick makes it C.  Every
later pick meets C with C, and ``intersect`` returns an operand equal to
the other as itself, so it stays C.  A picked uniform column's step is
therefore the row's own (j, C): both searches leave uniform columns out
of the ``hit`` mask they give ``_admissible_steps``, so a row with no
picked non-uniform column steps to its own list.  In modified mode a row
whose lowest picked column is uniform, and is not the last row, passes
through on that bit test alone.  The mask is exact, and costs one pass
over the cells per search.

Without the reuse rule (``modified=False``, the search behind the
feasibility-preserving mode) many pick vectors reach the same state, so the
branch-and-bound merges repeated states.  When a live-set entry becomes the
current node, by a dive or a pop, ``_expanded_before`` looks its state
(depth, ``inter``, ``mask``) up in a per-depth dict keyed on ``mask`` whose
values list the ``inter`` lists expanded under that key, matched by ``o is
inter or o == inter``.  A node that matches is counted in
``SearchStats.merged``, traced as ``merge`` and not expanded, and the
search pops the next live entry (a jump).  This is exact: the state fixes
the rows still to decide and every future step and cost, since the point
is the minima of ``inter``, so the first copy's children stand for the
second's; they are explored, still live, or were pruned at a bar that only
falls.  In floats z is a function of ``inter`` up to summation order, and
``solve`` recomputes the objective from x.  Modified mode keeps no such
record: its reuse rule leaves fewer repeats, and there the lookup cost more
than the nodes it saved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import itemgetter

from .errors import DEFAULT_CAP, CapExceeded, InconsistentReduction
from .resolution import (
    ProblemInstance, ResolutionTables, _build_tables, _is_feasible_point, _reached_columns,
    admissible_upper_bound, check_feasibility,
)
from .sets import SetForm
from .simplify import Mode, ReducedProblem, ReductionLedger, _masks, simplify
from .tolerance import EPS


# -- assignment-function primitives ------------------------------------------

def _bind_rows(tables: ResolutionTables) -> tuple:
    """Every row's [(j, cell)] over its support, ascending (what
    ``_admissible_steps`` walks), every row's support bitmask, and the
    bitmask of uniform columns: those whose cells over their support are
    one object."""
    s_prime = tables.s_prime
    rows = [[(j, cells[j]) for j in sup] for cells, sup in zip(s_prime, tables.row_support)]
    uniform = 0
    for j, sup in enumerate(tables.col_support):
        if len({id(s_prime[i][j]) for i in sup}) == 1:
            uniform |= 1 << j
    return rows, _masks(tables.row_support, range(tables.m), tables.m), uniform


def _admissible_steps(inter: list, hit, row) -> list:
    """[(j, inter[j] ∩ cell)] for the (j, cell) pairs of a step row whose
    running intersection survives the cell (an unpicked column's is the
    cell).  ``hit`` is the bitmask of the row's picked columns that need an
    intersection (the searches leave uniform ones out); with none, the row
    itself is returned.  The reuse rule is not applied here: in
    modified mode the branch-and-bound's walk decides every row with a
    picked column itself."""
    if not hit:
        return row
    steps = []
    for j, cell in row:
        s = inter[j].intersect(cell) if hit >> j & 1 else cell
        if s:
            steps.append((j, s))
    return steps


def _pick(inter: list, mask, j, s) -> tuple:
    """The running intersections and picked-column bitmask once column j is
    picked with running intersection ``s``: ``inter`` itself when ``s is
    inter[j]``, else a copy of ``inter`` with ``s`` at j; the mask gains j's
    bit either way."""
    if inter[j] is not s:
        inter = inter.copy()
        inter[j] = s
    return inter, mask | 1 << j


def _expanded_before(at_depth: dict, mask, inter: list) -> bool:
    """Whether the state (``inter``, ``mask``) is one that ``at_depth``, a
    depth's dict of mask -> the ``inter`` lists expanded under it, already
    holds; when it is not, it is recorded.  List equality takes the
    identity shortcut on shared sets, so no set is hashed."""
    same_mask = at_depth.get(mask)
    if same_mask is None:
        at_depth[mask] = [inter]
        return False
    for other in same_mask:
        if other is inter or other == inter:
            return True
    same_mask.append(inter)
    return False


def _picks(link) -> tuple:
    """The picks of a link chain ``(parent link, columns)``, root first."""
    parts = []
    while link is not None:
        link, columns = link
        parts.append(columns)
    return tuple(j for columns in reversed(parts) for j in columns)


# -- branch-and-bound ----------------------------------------------------------

@dataclass(frozen=True)
class TraceEvent:
    node: int
    picks: tuple
    x: tuple
    z: float
    action: str      # expand | incumbent | prune | merge

    def line(self) -> str:
        e = ", ".join(str(j + 1) for j in self.picks)
        xs = ", ".join(f"{v:g}" for v in self.x)
        return f"node {self.node}: e=[{e}], x=({xs}), z={self.z:g}, action={self.action}"


def _event(entry, action) -> TraceEvent:
    """The event of a live-set entry's child: its picks read up the link
    chain, its point the minima of its running intersections."""
    z, _, uid, link, j, s, inter, mask = entry
    inter = _pick(inter, mask, j, s)[0]
    return TraceEvent(uid, _picks(link) + (j,), tuple(v[0] for v in inter), z, action)


@dataclass
class SearchStats:
    nodes_created: int = 0
    nodes_expanded: int = 0
    candidates_evaluated: int = 0
    prunes: int = 0
    incumbent_updates: int = 0
    jumps: int = 0               # pops from the live set
    max_live: int = 0            # largest live-set size
    merged: int = 0              # repeated states not expanded (modified=False)


@dataclass
class BnbResult:
    x: list | None
    picks: tuple | None
    objective: float | None
    stats: SearchStats
    events: list

    @property
    def found(self) -> bool:
        return self.x is not None


def branch_and_bound(reduced: ReducedProblem, modified=True, record=False) -> BnbResult:
    """Best-child dive with jump-to-cheapest backtracking and incumbent
    pruning over the reduced tables.

    Ties among children break by column; jumps break by cost, then deeper
    nodes, then creation order, which is the order of the live-set heap
    (z, -depth, uid).  A row's domain comes from the node's running
    intersections, taken in pick order.  ``modified=False`` searches all
    admissible assignments (needed when two-point cells may still be present).

    Every row's step list and support bitmask are bound once per search,
    and the current node lives in loop variables (see the module
    docstring): no object is built per node.  In modified mode the node
    walks consecutive pass-through rows in place: per row one node created
    and one expanded, with its own uid and trace events, but nothing built,
    priced or pushed.  A row whose lowest picked column is uniform passes
    through on that bit test.  Any other row's reuse is one loop over its
    picked columns, lowest first: a running intersection that is the row's
    cell itself is kept on an identity test, any other is intersected with
    the cell, and the first that survives is the step; with none, the row
    steps to its unpicked columns, and no picked column meets the cell
    twice.  Other children are priced as live-set entries
    (z, -depth, uid, link, j, s, inter, mask), each carrying its parent's
    state; siblings share a depth and their uids rise with their columns,
    so the cheapest entry is the cheapest child, ties to the lowest column.
    Without ``record`` a child already priced out by the incumbent is only
    counted.  A lone viable child is dived into directly: no ordering, no
    live-set traffic.  Without the reuse rule a row whose one step leaves
    its column as it was gets such a lone child: the same counters and
    events.

    With ``modified=False`` a node whose (depth, ``inter``, ``mask``) state
    was already expanded is merged when it becomes current (see the module
    docstring): counted in ``merged``, traced as ``merge``, not expanded,
    and followed by a pop.  Every created node then ends in exactly one
    expand, prune, incumbent or merge event.  The merge is exact because
    the state fixes every later step and cost; it is feasibility-only
    because with the reuse rule fewer states repeat and the lookup cost
    more than it saved.
    """
    tables = reduced.tables
    costs = reduced.costs
    m = tables.m
    base_x = [s[0] for s in tables.col_interval]
    base_z = sum((c * v for c, v in zip(costs, base_x)), 0.0)
    events: list = []
    if m == 0:
        return BnbResult(base_x, (), base_z, SearchStats(candidates_evaluated=1), events)

    rows, masks, uniform = _bind_rows(tables)
    s_prime = tables.s_prime

    created = expanded = candidates = prunes = updates = jumps = max_live = merged = 0
    # Without the reuse rule: per depth, mask -> the ``inter`` lists expanded.
    seen = None if modified else [{} for _ in range(m)]
    incumbent = None     # the live-set entry of the best leaf so far
    bar = math.inf       # incumbent z - EPS: a node must cost less to survive
    live: list = []      # heap of (z, -depth, uid, link, j, s, inter, mask)
    # The current node: its uid, cost, depth, link chain and state.
    uid, z0, i, link, inter, mask = 0, base_z, 0, None, list(tables.col_interval), 0

    while True:
        run, steps = [], None
        if uid:
            if seen is not None and _expanded_before(seen[i], mask, inter):
                # No steps: the search jumps on, as from a dead end.
                merged += 1
                action, steps = "merge", ()
            else:
                expanded += 1
                action = "expand"
            if record:
                events.append(TraceEvent(uid, _picks(link), tuple(v[0] for v in inter), z0,
                                         action))
        # Walk the pass-through rows: each one's only child is this node one
        # row down at its cost, so the node moves there in place.  Each row
        # still counts one node created and expanded, with its own uid.
        # A row with a picked column reuses the smallest one that survives
        # its cell; with none, it steps to its unpicked columns.  A uniform
        # lowest picked column is the row's own cell: it is the reuse.
        while modified and (hit := mask & masks[i]):
            if hit & -hit & uniform and i + 1 < m:
                run.append((hit & -hit).bit_length() - 1)
                i += 1
                continue
            cells, picked = s_prime[i], hit
            while hit:
                j = (hit & -hit).bit_length() - 1
                s = inter[j]
                if s is not cells[j]:
                    s = s.intersect(cells[j])
                if s:
                    break
                hit &= hit - 1
            else:
                steps = [(j, cell) for j, cell in rows[i] if not picked >> j & 1]
                break
            if s is not inter[j] or i + 1 == m:
                steps = [(j, s)]
                break
            run.append(j)
            i += 1
        if run:
            if record:
                picks, xs = _picks(link), tuple(v[0] for v in inter)
                events += [TraceEvent(created + k, picks + tuple(run[:k]), xs, z0, "expand")
                           for k in range(1, len(run) + 1)]
            created += len(run)
            expanded += len(run)
            uid, link = created, (link, tuple(run))
        if steps is None:
            steps = _admissible_steps(inter, mask & masks[i] & ~uniform, rows[i])
        depth = i + 1
        if depth == m:
            candidates += len(steps)
        # Siblings share a depth, so the bar only moves among leaves, and no
        # open child can be priced out by a later sibling.
        children = []
        for uid, (j, s) in enumerate(steps, created + 1):
            z = z0 + costs[j] * (s[0] - inter[j][0])
            if z >= bar:
                prunes += 1
                if record:
                    events.append(_event((z, -depth, uid, link, j, s, inter, mask), "prune"))
            elif depth < m:
                children.append((z, -depth, uid, link, j, s, inter, mask))
            else:
                incumbent = (z, -depth, uid, link, j, s, inter, mask)
                bar = z - EPS
                updates += 1
                if record:
                    events.append(_event(incumbent, "incumbent"))
                keep = [entry for entry in live if entry[0] < bar]
                prunes += len(live) - len(keep)
                if record:
                    pruned = sorted((entry for entry in live if entry[0] >= bar), key=itemgetter(2))
                    events += [_event(entry, "prune") for entry in pruned]
                heapify(keep)
                live = keep
        created += len(steps)
        if len(children) == 1:
            entry = children[0]
        elif children:
            entry = min(children)    # uids are unique: no tie reaches the parent
            for child in children:
                if child is not entry:
                    heappush(live, child)
            max_live = max(max_live, len(live))
        elif live:
            entry = heappop(live)
            jumps += 1
        else:
            break
        z0, i, uid, link, j, s, inter, mask = entry
        i = -i
        inter, mask = _pick(inter, mask, j, s)
        link = (link, (j,))

    stats = SearchStats(created, expanded, candidates, prunes, updates, jumps, max_live, merged)
    if incumbent is None:
        return BnbResult(None, None, None, stats, events)
    best = _event(incumbent, "incumbent")
    return BnbResult(list(best.x), best.picks, best.z, stats, events)


# -- full pipeline --------------------------------------------------------------

class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


class InfeasibleReason(Enum):
    EMPTY_COLUMN = "empty_column"
    UNSATISFIABLE_ROW = "unsatisfiable_row"
    EXHAUSTED_SEARCH = "exhausted_search"


@dataclass
class Solution:
    """What ``solve`` found: the status, the optimum or the reason there is
    none, the presolve ledger, the search counters and trace events, and
    ``tables``, the unreduced resolution tables ``solve`` built (left out of
    the repr)."""

    status: Status
    x: list | None = None
    objective: float | None = None
    reason: InfeasibleReason | None = None
    witness: int | None = None
    ledger: ReductionLedger | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    events: list = field(default_factory=list)
    tables: ResolutionTables | None = field(default=None, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL

    def trace_lines(self) -> list:
        return [ev.line() for ev in self.events]


def solve(p: ProblemInstance, mode: Mode = Mode.OPTIMALITY_PRESERVING,
          record=False) -> Solution:
    """Resolve, check necessary conditions, reduce, search, lift, verify.

    With the optimality-preserving mode (default) the search runs over
    modified assignments; with the feasibility-preserving mode it runs over
    all admissible assignments (the reduction then never discards feasible
    points).  One scan of each row serves resolution and the final check.
    """
    reached = _reached_columns(p)
    tables = _build_tables(p, reached)
    report = check_feasibility(tables)
    if not report.ok:
        return Solution(Status.INFEASIBLE, reason=InfeasibleReason(report.status.value),
                        witness=report.witness, tables=tables)
    reduced, ledger = simplify(tables, p.c, mode)
    result = branch_and_bound(reduced, modified=(mode is Mode.OPTIMALITY_PRESERVING),
                              record=record)
    if not result.found:
        return Solution(Status.INFEASIBLE, reason=InfeasibleReason.EXHAUSTED_SEARCH,
                        ledger=ledger, stats=result.stats, events=result.events, tables=tables)
    x = reduced.lift(result.x)
    if not _is_feasible_point(p, x, reached, tables):
        raise InconsistentReduction(
            "reduction produced a candidate violating the original system")
    objective = sum((c * v for c, v in zip(p.c, x)), 0.0)
    return Solution(Status.OPTIMAL, x=x, objective=objective, ledger=ledger,
                    stats=result.stats, events=result.events, tables=tables)


def enumerate_feasible_decomposition(tables: ResolutionTables, cap: int = DEFAULT_CAP):
    """All compact boxes whose union is the feasible region.

    ``tables`` are the instance's unreduced tables from ``build_tables``,
    not a restriction of them.  Runs the feasibility-preserving reduction,
    then enumerates every admissible assignment of the reduced problem
    depth-first, each row's columns ascending, on an explicit stack, so a
    problem with many rows needs no deep recursion.  Returns a list of
    (assignment, boxes) pairs in original indexing: the assignment maps
    original row -> original column, the boxes list one set per original
    variable.  Raises CapExceeded when the reduced support-size product
    exceeds cap.
    """
    if not check_feasibility(tables).ok:
        return []
    # The feasibility-preserving rules read no costs.
    reduced, _ = simplify(tables, [0.0] * tables.n, Mode.FEASIBILITY_PRESERVING)
    sub = reduced.tables
    bound = admissible_upper_bound(sub)
    if bound > cap:
        raise CapExceeded(bound, cap)

    out = []
    rows, masks, uniform = _bind_rows(sub)
    # An entry is a prefix of picks with its running intersections and mask;
    # the intersections, rooted at the column intervals, are the prefix's
    # feasible box.  A node's children are pushed in descending column
    # order, so they pop ascending.
    stack = [((), list(sub.col_interval), 0)]
    while stack:
        prefix, inter, mask = stack.pop()
        i = len(prefix)
        if i < sub.m:
            for j, s in reversed(_admissible_steps(inter, mask & masks[i] & ~uniform, rows[i])):
                stack.append((prefix + (j,), *_pick(inter, mask, j, s)))
            continue
        box = [None] * reduced.n_original
        for j, v in reduced.fixed.items():
            box[j] = SetForm.point(v)
        for pos, j in enumerate(sub.col_ids):
            box[j] = inter[pos]
        out.append(({sub.row_ids[r]: sub.col_ids[j] for r, j in enumerate(prefix)}, box))
    return out
