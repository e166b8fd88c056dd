"""Seeded instance generators and the four workload definitions.

Everything here is the benchmark's own: the t-norm formulas that back-compute
right-hand sides and pin cover cells, and the equation check the correctness
gate applies to every answer.  No generator calls into ``bfre``, so a change
to the package (including ``bfre.oracle.random_*``) never changes a
workload's inputs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

GRID = 20                 # entries live on the 0.05 grid, as in the paper's examples
SS_SNAP = 1e-12           # same nilpotent-boundary snap as the package's closed form

# (family, param) pairs; verify_small cycles through every built-in family.
PRESOLVE_FAMILIES = (("yager", 2.0), ("product", None), ("lukasiewicz", None),
                     ("hamacher", 1.0))
COVER_FAMILIES = (("yager", 2.0), ("product", None))
VERIFY_FAMILIES = (
    ("product", None), ("einstein_product", None), ("lukasiewicz", None),
    ("frank", 2.0), ("yager", 2.0), ("hamacher", 1.0), ("dombi", 2.0),
    ("schweizer_sklar", -1.0), ("schweizer_sklar", 2.0), ("sugeno_weber", 1.0),
    ("aczel_alsina", 2.0),
)


def tnorm(family: str, p, x: float, y: float) -> float:
    """Closed-form T(x, y), written independently of ``bfre.tnorms``."""
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    if x == 0.0 or y == 0.0:
        return 0.0
    if family == "product":
        v = x * y
    elif family == "einstein_product":
        v = x * y / (2.0 - (x + y - x * y))
    elif family == "lukasiewicz":
        v = x + y - 1.0
    elif family == "frank":
        v = math.log1p((p ** x - 1.0) * (p ** y - 1.0) / (p - 1.0)) / math.log(p)
    elif family == "yager":
        v = 1.0 - ((1.0 - x) ** p + (1.0 - y) ** p) ** (1.0 / p)
    elif family == "hamacher":
        v = x * y / (p + (1.0 - p) * (x + y - x * y))
    elif family == "dombi":
        v = 1.0 / (1.0 + (((1.0 - x) / x) ** p + ((1.0 - y) / y) ** p) ** (1.0 / p))
    elif family == "schweizer_sklar":
        base = math.fsum((x ** p, y ** p, -1.0))
        if p > 0:
            base = 0.0 if base <= SS_SNAP else base
        v = 0.0 if base == 0.0 else base ** (1.0 / p)
    elif family == "sugeno_weber":
        v = (x + y - 1.0 + p * x * y) / (1.0 + p)
    elif family == "aczel_alsina":
        v = math.exp(-(((-math.log(x)) ** p + (-math.log(y)) ** p) ** (1.0 / p)))
    else:
        raise ValueError(f"unknown family {family!r}")
    return min(1.0, max(0.0, v))


def cover_coefficient(family: str, p, v: float, b: float) -> float:
    """The a with T(a, v) = b for v > b, for the cover families only."""
    if family == "product":
        return b / v
    if family == "yager":
        return 1.0 - ((1.0 - b) ** p - (1.0 - v) ** p) ** (1.0 / p)
    raise ValueError(f"no cover coefficient for {family!r}")


def row_values(problem: dict, x) -> list:
    """Left-hand side of every equation of a problem dict at the point x."""
    tn = problem["tnorm"]
    f, p = tn["family"], tn.get("param")
    return [
        max(max(tnorm(f, p, ap, xj), tnorm(f, p, am, 1.0 - xj))
            for ap, am, xj in zip(row_p, row_m, x))
        for row_p, row_m in zip(problem["a_plus"], problem["a_minus"])
    ]


def _problem(family, param, a_plus, a_minus, b, c) -> dict:
    tn = {"family": family}
    if param is not None:
        tn["param"] = param
    return {"tnorm": tn, "a_plus": a_plus, "a_minus": a_minus, "b": b, "c": c}


def _grid(rng, lo=0, hi=GRID) -> float:
    return rng.randint(lo, hi) / GRID


def grid_planted(rng: random.Random, family, param, m: int, n: int):
    """0.05-grid matrices with b back-computed from a planted grid point.

    Returns (problem, planted_x): the planted point is feasible, so the
    optimum exists and costs at most c . planted_x.
    """
    a_plus = [[_grid(rng) for _ in range(n)] for _ in range(m)]
    a_minus = [[_grid(rng) for _ in range(n)] for _ in range(m)]
    c = [rng.randint(0, 100) / GRID for _ in range(n)]
    x = [_grid(rng) for _ in range(n)]
    problem = _problem(family, param, a_plus, a_minus, [0.0] * m, c)
    problem["b"] = row_values(problem, x)
    return problem, x


def grid_unconstrained(rng: random.Random, family, param, m: int, n: int) -> dict:
    """0.05-grid matrices and right-hand side; usually infeasible."""
    a_plus = [[_grid(rng) for _ in range(n)] for _ in range(m)]
    a_minus = [[_grid(rng) for _ in range(n)] for _ in range(m)]
    b = [_grid(rng) for _ in range(m)]
    c = [rng.randint(0, 100) / GRID for _ in range(n)]
    return _problem(family, param, a_plus, a_minus, b, c)


def planted_cover(rng: random.Random, family, param, m: int, n: int, k: int = 3):
    """Weighted set cover written as a bipolar system.

    Row i is usable only through its own distinct k-subset of columns, and
    every usable cell of column j pins x_j to the same value v_j, so no row
    contains another's cells and presolve keeps every row.  Each subset meets
    a planted cover of about n/3 columns, whose point is feasible.
    Returns (problem, planted_x).
    """
    planted = set(rng.sample(range(n), max(1, n // 3)))
    subsets, seen = [], set()
    while len(subsets) < m:
        s = tuple(sorted(rng.sample(range(n), k)))
        if s in seen or planted.isdisjoint(s):
            continue
        seen.add(s)
        subsets.append(s)
    v = [_grid(rng, 14, 19) for _ in range(n)]           # 0.70 .. 0.95
    b = [_grid(rng, 6, 12) for _ in range(m)]            # 0.30 .. 0.60
    below = lambda bi: _grid(rng, 0, round(bi * GRID) - 1)
    a_plus = [[below(b[i]) for _ in range(n)] for i in range(m)]
    a_minus = [[below(b[i]) for _ in range(n)] for i in range(m)]
    for i, s in enumerate(subsets):
        for j in s:
            a_plus[i][j] = cover_coefficient(family, param, v[j], b[i])
    # a narrow cost range keeps the search effort's tail light (see README)
    c = [rng.randint(50, 100) / GRID for _ in range(n)]
    x = [v[j] if j in planted else 0.0 for j in range(n)]
    return _problem(family, param, a_plus, a_minus, b, c), x


def calibration_problem():
    """The fixed 12x12 problem whose equation check is half of a calibration
    round."""
    problem = grid_unconstrained(random.Random("calibration"), "yager", 2.0, 12, 12)
    return problem, [0.5] * 12


@dataclass
class _Node:
    uid: int
    picks: tuple
    inter: dict
    x: list
    z: float


def calibration_round(problem, x) -> float:
    """Seconds one calibration round takes right now.

    Half is an equation check (plain calls and float math, like resolution
    and verification), half builds, copies and sorts search-node-like
    objects (like branch-and-bound).  Together they slow down under
    contention about as much as the solver's mix does.
    """
    t0 = time.perf_counter()
    row_values(problem, x)
    inter, xs, live = {}, [0.0] * 20, []
    for i in range(150):
        inter = dict(inter)
        inter[i % 24] = (i * 0.37) % 1.0
        xs = list(xs)
        xs[i % 20] = inter[i % 24]
        live.append(_Node(i, (i % 7, i % 5), inter, xs, sum(xs)))
        if i % 10 == 9:
            live.sort(key=lambda nd: (nd.z, -nd.uid))
            del live[20:]
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    """How one workload builds its instances and what one op is."""

    name: str
    why: str
    mode: str             # "optimality" or "feasibility" (the --no-simplify path)
    oracle: bool          # an op is solve + brute-force oracle, as in `bfre verify`
    count: int            # instances per pass
    smoke_count: int

    def instances(self, seed: int, smoke: bool = False) -> list:
        """[(problem dict, planted point or None)] for this seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return [_MAKERS[self.name](rng, k, smoke)
                for k in range(self.smoke_count if smoke else self.count)]


def _presolve_random(rng, k, smoke):
    family, param = PRESOLVE_FAMILIES[k % len(PRESOLVE_FAMILIES)]
    size = 12 if smoke else 32
    return grid_planted(rng, family, param, size, size)


def _search_cover(rng, k, smoke):
    family, param = COVER_FAMILIES[k % len(COVER_FAMILIES)]
    m, n = (12, 9) if smoke else (28, 18)
    return planted_cover(rng, family, param, m, n)


def _feasmode_cover(rng, k, smoke):
    family, param = COVER_FAMILIES[k % len(COVER_FAMILIES)]
    m, n = (8, 7) if smoke else (12, 10)
    return planted_cover(rng, family, param, m, n)


def _verify_small(rng, k, smoke):
    family, param = VERIFY_FAMILIES[k % len(VERIFY_FAMILIES)]
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if k // len(VERIFY_FAMILIES) % 2 == 0:
        return grid_planted(rng, family, param, m, n)
    return grid_unconstrained(rng, family, param, m, n), None


_MAKERS = {
    "presolve_random": _presolve_random,
    "search_cover": _search_cover,
    "feasmode_cover": _feasmode_cover,
    "verify_small": _verify_small,
}

WORKLOADS = {w.name: w for w in (
    Workload("presolve_random",
             "32x32 grid instances, optimality mode: presolve is ~95% of a solve",
             "optimality", False, 100, 4),
    Workload("search_cover",
             "28x18 planted set covers that presolve cannot shrink: branch-and-bound dominates",
             "optimality", False, 500, 4),
    Workload("feasmode_cover",
             "12x10 covers in feasibility-preserving mode: the search without the reuse rule",
             "feasibility", False, 999, 4),
    Workload("verify_small",
             "<=6x6 instances of all ten families, solve plus brute-force oracle per op",
             "optimality", True, 2200, 22),
)}
