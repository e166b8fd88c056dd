"""Brute-force reference implementations for small instances.

Everything here is deliberately dumb: enumerate the full Cartesian product
of row supports, intersect each pick vector's cells in one batch that also
builds its candidate point from scratch, sweep grids coordinate by
coordinate.  None of the
incremental search machinery is reused, so agreement between this module and
the solver is meaningful evidence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .errors import DEFAULT_CAP, CapExceeded
from .resolution import (
    ProblemInstance, ResolutionTables, admissible_upper_bound, build_tables,
    row_value, satisfies_by_tables,
)
from .tnorms import validate
from .tolerance import EPS


@dataclass
class OracleReport:
    optimum: tuple | None      # (x, objective) or None
    admissible_count: int


def enumerate_all_admissible(tables: ResolutionTables, cap: int = DEFAULT_CAP):
    """Every pick vector over the row supports whose chosen-column cells
    intersect; checked in batch, never incrementally.

    An empty column interval empties every box, so nothing is admissible.
    """
    return [e for e, _ in _admissible(tables, cap)]


def _admissible(tables, cap):
    """(pick vector, candidate point) for every admissible pick vector, in
    ``itertools.product`` order; CapExceeded when the vectors to try exceed
    ``cap``."""
    if not all(tables.col_interval):
        return
    bound = admissible_upper_bound(tables)
    if bound > cap:
        raise CapExceeded(bound, cap)
    for e in itertools.product(*tables.row_support):
        x = _batch_candidate(tables, e)
        if x is not None:
            yield e, x


def _batch_candidate(tables, e):
    """The candidate point of pick vector ``e``, or None when the chosen
    cells of some column do not intersect.

    A picked column takes the least value of its chosen cells'
    intersection, every other column its lower bound.
    """
    groups = {}
    for i, j in enumerate(e):
        groups.setdefault(j, []).append(i)
    for j, rows in groups.items():
        inter = tables.s_prime[rows[0]][j]
        for i in rows[1:]:
            inter = inter.intersect(tables.s_prime[i][j])
            if not inter:
                return None
        groups[j] = inter[0]
    return [groups[j] if j in groups else tables.col_interval[j][0] for j in range(tables.n)]


def brute_force_optimum(tables: ResolutionTables, costs, cap: int = DEFAULT_CAP) -> OracleReport:
    """Minimum-cost candidate over every admissible pick vector."""
    count, best = 0, None
    for _, x in _admissible(tables, cap):
        count += 1
        z = sum(c * v for c, v in zip(costs, x))
        if best is None or z < best[1]:
            best = (x, z)
    return OracleReport(optimum=best, admissible_count=count)


@dataclass
class GridCensus:
    step: float
    points: int
    eq_feasible: set        # grid indices feasible by direct evaluation
    table_feasible: set     # grid indices feasible by the table criterion
    box_feasible: set | None  # grid indices inside some enumerated box
    mismatches: list = field(default_factory=list)


def grid_feasibility_census(p: ProblemInstance, step: float = 0.05,
                            cap: int = DEFAULT_CAP, boxes=None) -> GridCensus:
    """Classify every grid point of the unit box by direct evaluation.

    Cross-checks the table criterion on each point, and (when the enumerated
    box decomposition is supplied) box-union membership, recording every
    disagreement.  Box membership is tested with EPS-inflated boundaries.
    A step other than 1/k for a positive integer k raises ValueError.
    """
    if not 0 < step <= 1 or abs(1.0 / step - round(1.0 / step)) > 1e-9:
        raise ValueError(f"grid step {step!r} is not 1/k for a positive integer k")
    k = round(1.0 / step)
    total = (k + 1) ** p.n
    if total > cap:
        raise CapExceeded(total, cap)
    tables = build_tables(p)
    values = [i / k for i in range(k + 1)]

    eq_ok, tab_ok = set(), set()
    box_ok = set() if boxes is not None else None
    mismatches = []
    for idx in itertools.product(range(k + 1), repeat=p.n):
        x = [values[i] for i in idx]
        direct = all(abs(row_value(p, i, x) - p.b[i]) <= EPS for i in range(p.m))
        by_tables = satisfies_by_tables(tables, x)
        if direct:
            eq_ok.add(idx)
        if by_tables:
            tab_ok.add(idx)
        if direct != by_tables:
            mismatches.append(("tables", idx, direct, by_tables))
        if boxes is not None:
            inside = any(
                all(box[j].contains(x[j]) for j in range(p.n))
                for _, box in boxes
            )
            if inside:
                box_ok.add(idx)
            if direct != inside:
                mismatches.append(("boxes", idx, direct, inside))
    return GridCensus(step, total, eq_ok, tab_ok, box_ok, mismatches)


# -- random instances ---------------------------------------------------------

def random_instance(rng: random.Random, family, param=None, m=None, n=None,
                    max_rows: int = 5, max_cols: int = 5) -> ProblemInstance:
    """Random instance with all entries on the 0.05 grid, so endpoint
    coincidences (the hard cases of the set algebra) happen often; costs on
    [0, 5]."""
    m = m if m is not None else rng.randint(1, max_rows)
    n = n if n is not None else rng.randint(1, max_cols)
    snap = lambda: rng.randint(0, 20) / 20
    a_plus = [[snap() for _ in range(n)] for _ in range(m)]
    a_minus = [[snap() for _ in range(n)] for _ in range(m)]
    b = [snap() for _ in range(m)]
    c = [rng.randint(0, 100) / 20 for _ in range(n)]
    return ProblemInstance(a_plus, a_minus, b, c, validate(family, param))


def planted_feasible_instance(rng: random.Random, family, param=None, m=None, n=None,
                              max_rows: int = 5, max_cols: int = 5):
    """Like random_instance, but the right-hand side is back-computed from a
    random grid point, which is therefore feasible by construction.

    Returns (instance, planted point); c·x_planted bounds the optimum from
    above without reference to the resolution tables.
    """
    m = m if m is not None else rng.randint(1, max_rows)
    n = n if n is not None else rng.randint(1, max_cols)
    snap = lambda: rng.randint(0, 20) / 20
    a_plus = [[snap() for _ in range(n)] for _ in range(m)]
    a_minus = [[snap() for _ in range(n)] for _ in range(m)]
    c = [rng.randint(0, 100) / 20 for _ in range(n)]
    x = [snap() for _ in range(n)]
    probe = ProblemInstance(a_plus, a_minus, [0.0] * m, c, validate(family, param))
    b = [row_value(probe, i, x) for i in range(m)]
    return ProblemInstance(a_plus, a_minus, b, c, probe.tnorm), x


def random_feasible_instance(rng: random.Random, family, param=None, m=None, n=None,
                             max_rows: int = 5, max_cols: int = 5) -> ProblemInstance:
    """``planted_feasible_instance`` without the planted point (same draws)."""
    return planted_feasible_instance(rng, family, param, m, n, max_rows, max_cols)[0]
