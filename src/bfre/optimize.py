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
of every picked column, taken in pick order (ascending rows, the order the
oracle uses), as a list indexed by column with None for an unpicked column,
and the bitmask of its picked columns.  A row's domain is the columns whose
running intersection survives that row's cell.  Tolerance-snapped
intersection is not associative, so both searches use this one order, one
step routine, ``_admissible_steps``, over a row's (column, cell) list and
the bitmask of the row's picked columns, and one child rule, ``_pick``: a
pick that returns its column's running intersection itself keeps the
parent's list and mask, any other pick copies the list.  So a built list is
never mutated.  ``_bind_rows`` gives a search every row's list and support
bitmask once.  A row with no picked column steps to its own list, with no
lookup and no intersection.  The reuse rule lives in the branch-and-bound's
walk (below), which decides every modified-mode row with a picked column by
one rule: over the row's picked columns, lowest first, a running
intersection that is the row's cell itself is kept on an identity test, any
other is intersected with the cell, and the first that survives is the
reuse.  A row whose picked columns all die in its cell falls through to
``_admissible_steps``, which then steps to its unpicked columns.

The tree discipline follows the worked reduction this package reproduces:
after expanding a node, dive into its cheapest viable child; when a branch
ends (complete, pruned, or dead), jump to the cheapest node anywhere in the
live set, a heap keyed (z, -depth, uid).  Cost never decreases along a
branch, so pruning against the incumbent is exact.

A node is built with its state: ``_pick``'s list and mask, and a point that
is its parent's list itself when the pick leaves that coordinate unchanged.
Its picks are read up the parent chain.  A child is priced from its
parent's point straight into a live-set entry (z, -depth, uid, parent,
column, running intersection), so a node is built only for the child dived
into, a popped entry, the incumbent and a trace event.  A lone viable child
is dived into without ordering or live-set traffic.  In modified mode a row
whose reuse returns its column's running intersection itself is a
pass-through row: its child would share the node's state and cost, so the
node walks down consecutive pass-through rows in place, in one loop, with a
new uid and depth per row and its run of picks extended once.  The
resolution tables share one cell object among a column's equal cells, so a
reuse that meets its own cell passes through on the identity test alone.
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
    admissible_upper_bound, build_tables, check_feasibility,
)
from .sets import SetForm
from .simplify import Mode, ReducedProblem, ReductionLedger, _masks, simplify
from .tolerance import EPS


# -- assignment-function primitives ------------------------------------------

def _bind_rows(tables: ResolutionTables) -> tuple:
    """Every row's [(j, cell)] over its support, ascending (what
    ``_admissible_steps`` walks), and every row's support bitmask."""
    rows = [[(j, cells[j]) for j in sup] for cells, sup in zip(tables.s_prime, tables.row_support)]
    return rows, _masks(tables.row_support, range(tables.m), tables.m)


def _admissible_steps(inter: list, hit, row) -> list:
    """[(j, inter[j] ∩ cell)] for the (j, cell) pairs of a step row whose
    running intersection survives the cell (an unpicked column's is the
    cell).  ``hit`` is the bitmask of the row's picked columns; with none,
    the row itself is returned.  The reuse rule is not applied here: in
    modified mode the branch-and-bound's walk handles every row with a
    picked column first, and a row none of whose picked columns survives
    falls through to here."""
    if not hit:
        return row
    steps = []
    for j, cell in row:
        s = inter[j].intersect(cell) if hit >> j & 1 else cell
        if s:
            steps.append((j, s))
    return steps


def _pick(inter: list, mask, j, s) -> tuple:
    """The running intersections and picked-column bitmask once column j's
    running intersection is ``s``: ``inter`` and ``mask`` themselves when
    ``s is inter[j]``, else a copy of ``inter`` with ``s`` at j."""
    if inter[j] is s:
        return inter, mask
    inter = inter.copy()
    inter[j] = s
    return inter, mask | 1 << j


# -- branch-and-bound ----------------------------------------------------------

class _Node:
    """A search node: its pick ``j`` with running intersection ``s``, its
    cost ``z`` and depth, and its state, built from its parent's with it:
    ``inter`` and ``mask`` by ``_pick``, and the point ``x``, which is the
    parent's list itself when the pick leaves ``x[j]`` unchanged.  So a
    built ``inter`` or ``x`` is never mutated.  The root, the one node
    without a parent, gets its state from the search.

    ``run`` holds the columns of the pass-through rows the node has moved
    down in place since its own pick ``j``; ``picks`` reads both."""

    __slots__ = ("uid", "parent", "j", "s", "z", "depth", "run", "inter", "mask", "x")

    def __init__(self, uid, parent, j, s, z, depth):
        self.uid, self.parent, self.j, self.s, self.z, self.depth = uid, parent, j, s, z, depth
        self.run = ()
        if parent is not None:
            self.inter, self.mask = _pick(parent.inter, parent.mask, j, s)
            x = parent.x
            if s[0] != x[j]:
                x = x.copy()
                x[j] = s[0]
            self.x = x

    def picks(self) -> tuple:
        parts = []
        node = self
        while node.parent is not None:
            parts.append((node.j,) + node.run)
            node = node.parent
        return tuple(j for part in reversed(parts) for j in part)

    def event(self, action) -> "TraceEvent":
        return TraceEvent(self.uid, self.picks(), tuple(self.x), self.z, action)


def _entry_node(entry) -> _Node:
    """The node of a live-set entry (z, -depth, uid, parent, j, s)."""
    z, neg_depth, uid, parent, j, s = entry
    return _Node(uid, parent, j, s, z, -neg_depth)


@dataclass(frozen=True)
class TraceEvent:
    node: int
    picks: tuple
    x: tuple
    z: float
    action: str      # expand | incumbent | prune

    def line(self) -> str:
        e = ", ".join(str(j + 1) for j in self.picks)
        xs = ", ".join(f"{v:g}" for v in self.x)
        return f"node {self.node}: e=[{e}], x=({xs}), z={self.z:g}, action={self.action}"


@dataclass
class SearchStats:
    nodes_created: int = 0
    nodes_expanded: int = 0
    candidates_evaluated: int = 0
    prunes: int = 0
    incumbent_updates: int = 0
    jumps: int = 0               # pops from the live set
    max_live: int = 0            # largest live-set size


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
    and a node is built with its state (see the module docstring).  In
    modified mode the node walks consecutive pass-through rows in place: per
    row one node created and one expanded, with its own uid and trace
    events, but nothing built, priced or pushed.  A row's reuse is one loop
    over its picked columns, lowest first: a running intersection that is
    the row's cell itself is kept on an identity test, any other is
    intersected with the cell, and the first that survives is the step;
    with none, the row falls through to ``_admissible_steps``.  Other
    children are priced as live-set entries
    (z, -depth, uid, parent, j, s); siblings share a depth and their uids
    rise with their columns, so the cheapest entry is the cheapest child,
    ties to the lowest column.  Without ``record`` a child already priced
    out by the incumbent is only counted.  A lone viable child is dived
    into directly: no ordering, no live-set traffic.  Without the reuse
    rule a row whose one step leaves its column as it was gets such a lone
    child: the same counters and events.
    """
    tables = reduced.tables
    costs = reduced.costs
    m, n = tables.m, tables.n
    base_x = [tables.lower_bound(j) for j in range(n)]
    base_z = sum((c * v for c, v in zip(costs, base_x)), 0.0)
    events: list = []
    if m == 0:
        return BnbResult(base_x, (), base_z, SearchStats(candidates_evaluated=1), events)

    rows, masks = _bind_rows(tables)
    s_prime = tables.s_prime

    created = expanded = candidates = prunes = updates = jumps = max_live = 0
    incumbent: _Node | None = None
    bar = math.inf       # incumbent.z - EPS: a node must cost less to survive
    live: list = []      # heap of (z, -depth, uid, parent, j, s)
    node = _Node(0, None, None, None, base_z, 0)
    node.inter, node.mask, node.x = [None] * n, 0, base_x

    while node is not None:
        if node.uid:
            expanded += 1
            if record:
                events.append(node.event("expand"))
        inter, mask, x, z0 = node.inter, node.mask, node.x, node.z
        # Walk the pass-through rows: each one's only child is this node one
        # row down at its cost, so the node moves there in place.  Each row
        # still counts one node created and expanded, with its own uid.
        # A row with a picked column reuses the smallest one that survives
        # its cell; with none, its steps are left to ``_admissible_steps``.
        i, run, steps = node.depth, [], None
        while modified and (hit := mask & masks[i]):
            cells = s_prime[i]
            while hit:
                j = (hit & -hit).bit_length() - 1
                s = inter[j]
                if s is not cells[j]:
                    s = s.intersect(cells[j])
                if s:
                    break
                hit &= hit - 1
            else:
                break
            if s is not inter[j] or i + 1 == m:
                steps = [(j, s)]
                break
            run.append(j)
            i += 1
        if run:
            if record:
                picks, xs = node.picks(), tuple(x)
                events += [TraceEvent(created + k, picks + tuple(run[:k]), xs, z0, "expand")
                           for k in range(1, len(run) + 1)]
            created += len(run)
            expanded += len(run)
            node.uid, node.depth = created, i
            node.run += tuple(run)
        if steps is None:
            steps = _admissible_steps(inter, mask & masks[i], rows[i])
        depth = i + 1
        if depth == m:
            candidates += len(steps)
        # Siblings share a depth, so the bar only moves among leaves, and no
        # open child can be priced out by a later sibling.
        children = []
        for uid, (j, s) in enumerate(steps, created + 1):
            z = z0 + costs[j] * (s[0] - x[j])
            if z >= bar:
                prunes += 1
                if record:
                    events.append(_Node(uid, node, j, s, z, depth).event("prune"))
            elif depth < m:
                children.append((z, -depth, uid, node, j, s))
            else:
                incumbent = _Node(uid, node, j, s, z, depth)
                bar = z - EPS
                updates += 1
                if record:
                    events.append(incumbent.event("incumbent"))
                keep = []
                for entry in sorted(live, key=itemgetter(2)):
                    if entry[0] < bar:
                        keep.append(entry)
                    else:
                        prunes += 1
                        if record:
                            events.append(_entry_node(entry).event("prune"))
                heapify(keep)
                live = keep
        created += len(steps)
        if len(children) == 1:
            node = _entry_node(children[0])
        elif children:
            best = min(children)     # uids are unique: no tie reaches the parent
            for entry in children:
                if entry is not best:
                    heappush(live, entry)
            node = _entry_node(best)
            max_live = max(max_live, len(live))
        elif live:
            node = _entry_node(heappop(live))
            jumps += 1
        else:
            node = None

    stats = SearchStats(created, expanded, candidates, prunes, updates, jumps, max_live)
    if incumbent is None:
        return BnbResult(None, None, None, stats, events)
    return BnbResult(incumbent.x, incumbent.picks(), incumbent.z, stats, events)


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
    status: Status
    x: list | None = None
    objective: float | None = None
    reason: InfeasibleReason | None = None
    witness: int | None = None
    ledger: ReductionLedger | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    events: list = field(default_factory=list)

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
                        witness=report.witness)
    reduced, ledger = simplify(tables, p.c, mode)
    result = branch_and_bound(reduced, modified=(mode is Mode.OPTIMALITY_PRESERVING),
                              record=record)
    if not result.found:
        return Solution(Status.INFEASIBLE, reason=InfeasibleReason.EXHAUSTED_SEARCH,
                        ledger=ledger, stats=result.stats, events=result.events)
    x = reduced.lift(result.x)
    if not _is_feasible_point(p, x, reached, tables):
        raise InconsistentReduction(
            "reduction produced a candidate violating the original system")
    objective = sum((c * v for c, v in zip(p.c, x)), 0.0)
    return Solution(Status.OPTIMAL, x=x, objective=objective, ledger=ledger,
                    stats=result.stats, events=result.events)


def enumerate_feasible_decomposition(p: ProblemInstance, cap: int = DEFAULT_CAP):
    """All compact boxes whose union is the feasible region.

    Runs the feasibility-preserving reduction, then enumerates every
    admissible assignment of the reduced problem depth-first, each row's
    columns ascending, on an explicit stack, so a problem with many rows
    needs no deep recursion.  Returns a list of (assignment, boxes) pairs in
    original indexing: the assignment maps original row -> original column,
    the boxes list one set per original variable.  Raises CapExceeded when
    the support-size product exceeds cap.
    """
    tables = build_tables(p)
    if not check_feasibility(tables).ok:
        return []
    reduced, _ = simplify(tables, p.c, Mode.FEASIBILITY_PRESERVING)
    sub = reduced.tables
    bound = admissible_upper_bound(sub)
    if bound > cap:
        raise CapExceeded(bound, cap)

    out = []
    rows, masks = _bind_rows(sub)
    # An entry is a prefix of picks with its running intersections and mask;
    # with the column intervals they make the prefix's feasible box.  A
    # node's children are pushed in descending column order, so they pop
    # ascending.
    stack = [((), [None] * sub.n, 0)]
    while stack:
        prefix, inter, mask = stack.pop()
        i = len(prefix)
        if i < sub.m:
            for j, s in reversed(_admissible_steps(inter, mask & masks[i], rows[i])):
                stack.append((prefix + (j,), *_pick(inter, mask, j, s)))
            continue
        box = [None] * p.n
        for j, v in reduced.fixed.items():
            box[j] = SetForm.point(v)
        for pos, j in enumerate(sub.col_ids):
            box[j] = sub.col_interval[pos] if inter[pos] is None else inter[pos]
        out.append(({sub.row_ids[r]: sub.col_ids[j] for r, j in enumerate(prefix)}, box))
    return out
