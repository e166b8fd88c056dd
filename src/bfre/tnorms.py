"""Continuous Archimedean t-norm families.

Each of the ten families is one record of ``_FAMILIES``, the way Klement,
Mesiar & Pap (*Triangular Norms*, 2000) describe every family: its parameter
domain, the rule that makes it strict or nilpotent, and the closed forms of
T, of the additive generator, of the generator's inverse and of u.  The
functions below read those records and add only what is the same for every
family:

* ``validate(family, param)`` checks that the parameter is finite and in the
  record's domain, and derives the kind,
* the additive generator ``generator(t, x)`` (strictly decreasing, 0 at 1,
  +inf at 0 exactly for strict families),
* its pseudoinverse ``pseudo_inverse(t, z)`` (the true inverse clamped to 0
  past ``generator(t, 0)``),
* the product ``evaluate(t, x, y)``, with the boundary axioms and the
  min(x, y) clamp,
* ``solve_u(t, a, b)``, the key quantity for equation solving: the largest x
  with evaluate(a, x) == b when b > 0, and the right endpoint of the solution
  interval of evaluate(a, x) == 0 when b == 0.

``evaluate`` and ``solve_u`` are checked public views over unchecked
kernels, ``_evaluator(t)`` and ``_solver(t)``, which read the record once
when they are bound.  Resolution binds each kernel once per instance or per
call and runs it on entries it has already validated.

A family is *strict* when its generator diverges at 0 and *nilpotent* when it
stays finite; the distinction decides the b == 0 branch of ``solve_u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .tolerance import EPS

INF = math.inf


class Family(Enum):
    PRODUCT = "product"
    EINSTEIN_PRODUCT = "einstein_product"
    LUKASIEWICZ = "lukasiewicz"
    FRANK = "frank"
    YAGER = "yager"
    HAMACHER = "hamacher"
    DOMBI = "dombi"
    SCHWEIZER_SKLAR = "schweizer_sklar"
    SUGENO_WEBER = "sugeno_weber"
    ACZEL_ALSINA = "aczel_alsina"


class Kind(Enum):
    STRICT = "strict"
    NILPOTENT = "nilpotent"


class InvalidParameter(ValueError):
    def __init__(self, family, param, domain, message=None):
        super().__init__(message or f"{family}: parameter {param!r} not allowed ({domain})")
        self.family = family
        self.param = param
        self.domain = domain


class DomainError(ValueError):
    """An argument left its required range."""


class PreconditionViolated(ValueError):
    """solve_u was called with a < b."""


@dataclass(frozen=True)
class TNorm:
    """A validated t-norm: family, parameter and derived strict/nilpotent kind."""

    family: Family
    param: float | None
    kind: Kind

    def __str__(self):
        if self.param is None:
            return self.family.value
        return f"{self.family.value}({self.param:g})"


def _check_unit(name, v):
    if not -EPS <= v <= 1 + EPS:       # NaN fails it too
        raise DomainError(f"{name}={v!r} outside [0, 1]")
    return min(1.0, max(0.0, v))


# Sums like x**p + y**p - 1 suffer sqrt-style amplification right at the
# Schweizer-Sklar nilpotent boundary; rounding noise there is ~1e-16, genuine
# values on 0.05-grid data are >= 0.05**5 ~ 3e-7, so snapping at 1e-12 kills
# the noise without touching real values.
_SS_SNAP = 1e-12


class _Record(NamedTuple):
    """One family.  Every form takes the parameter first (None for a
    parameter-free family)."""

    ok: Callable | None   # parameter predicate; None: the family takes none
    domain: str           # the predicate as text, for InvalidParameter
    kind: Callable        # param -> Kind
    t: Callable           # (p, x, y) -> T(x, y) for 0 < x, y < 1, unclamped
    g: Callable           # (p, x) -> generator, for x in (0, 1]
    g_inv: Callable       # (p, z) -> true inverse, for 0 <= z <= g(0); z = inf gives 0
    u: Callable           # (p, a, b) -> u for a > b > 0; finite there, unclamped


def _frank_u(p, a, b):
    ls = math.log(p)
    return math.log1p(math.expm1(b * ls) * (p - 1.0) / math.expm1(a * ls)) / ls


def _hamacher_t(p, x, y):
    num = x * y
    return 0.0 if num == 0.0 else num / (p + (1.0 - p) * (x + y - num))


def _schweizer_sklar_t(p, x, y):
    if p < 0:
        return (x ** p + y ** p - 1.0) ** (1.0 / p)
    base = math.fsum((x ** p, y ** p, -1.0))
    if abs(base) <= _SS_SNAP:
        base = 0.0
    return 0.0 if base <= 0.0 else base ** (1.0 / p)


def _schweizer_sklar_g_inv(p, z):
    base = 1.0 - p * z
    if abs(base) <= _SS_SNAP:
        base = 0.0
    if p > 0:
        base = max(0.0, base)
    return base ** (1.0 / p)


def _schweizer_sklar_u(p, a, b):
    base = math.fsum((1.0, b ** p, -(a ** p)))
    if p > 0:
        base = max(0.0, base)
    return base ** (1.0 / p)


# A domain is bounded, with a margin, wherever a closed form leaves the
# float range, so that every accepted parameter evaluates and solves every
# cell of the 0.01 grid, and every b just above EPS, without raising or
# reading inf:
# * frank: s - 1 rounds to -1 below 2**-53, and past 1e154 the product of
#   the two expm1 terms of T overflows, so T reads min(x, y);
# * hamacher: p - 1 + exp(0) and p + (1 - p) cancel to 0 below 2**-53 and
#   above 2**53;
# * yager, dombi and aczel_alsina: a sum near 2 raised to 1/p overflows
#   below p = 1/1024;
# * dombi, aczel_alsina and negative schweizer_sklar: ((1 - b) / b)**p,
#   (-log b)**p and b**p overflow for b near EPS at large |p|.
# It is bounded further, again with a margin, where u stops round-tripping:
# on the 0.01 grid (a > b > 0), the floats u- and u+ just below and just
# above u must bracket b: T(a, u-) <= b + EPS and T(a, u+) >= b - EPS.
# Grid cells fail that at frank s = 1e-12, yager p = 200, hamacher
# alpha = 1e9 and schweizer_sklar p = 7, where the closed form of u loses
# its digits to cancellation.
_FAMILIES = {
    Family.PRODUCT: _Record(
        None, "no parameter", lambda p: Kind.STRICT,
        t=lambda p, x, y: x * y,
        g=lambda p, x: -math.log(x),
        g_inv=lambda p, z: math.exp(-z),
        u=lambda p, a, b: b / a),
    Family.EINSTEIN_PRODUCT: _Record(
        None, "no parameter", lambda p: Kind.STRICT,
        t=lambda p, x, y: x * y / (2.0 - (x + y - x * y)),
        g=lambda p, x: math.log((2.0 - x) / x),
        g_inv=lambda p, z: 2.0 / (1.0 + math.exp(z)),
        u=lambda p, a, b: (2.0 - a) * b / (a + b - a * b)),
    Family.LUKASIEWICZ: _Record(
        None, "no parameter", lambda p: Kind.NILPOTENT,
        t=lambda p, x, y: x + y - 1.0,
        g=lambda p, x: 1.0 - x,
        g_inv=lambda p, z: 1.0 - z,
        u=lambda p, a, b: 1.0 + b - a),
    Family.FRANK: _Record(
        lambda s: 1e-9 <= s <= 1e12 and s != 1, "1e-9 <= s <= 1e12, s != 1", lambda p: Kind.STRICT,
        t=lambda p, x, y: math.log1p(math.expm1(x * math.log(p)) * math.expm1(y * math.log(p))
                                     / (p - 1.0)) / math.log(p),
        # Natural-log variant of the base-s generator; positive for every
        # admissible s (the base-s form flips sign for s < 1).
        g=lambda p, x: math.log((p - 1.0) / math.expm1(x * math.log(p))),
        g_inv=lambda p, z: math.log1p((p - 1.0) * math.exp(-z)) / math.log(p),
        u=_frank_u),
    Family.YAGER: _Record(
        lambda p: 1e-2 <= p <= 100, "0.01 <= p <= 100", lambda p: Kind.NILPOTENT,
        t=lambda p, x, y: 1.0 - ((1.0 - x) ** p + (1.0 - y) ** p) ** (1.0 / p),
        g=lambda p, x: (1.0 - x) ** p,
        g_inv=lambda p, z: 1.0 - z ** (1.0 / p),
        u=lambda p, a, b: 1.0 - max(0.0, (1.0 - b) ** p - (1.0 - a) ** p) ** (1.0 / p)),
    Family.HAMACHER: _Record(
        lambda a: a == 0 or 1e-12 <= a <= 1e6, "alpha = 0 or 1e-12 <= alpha <= 1e6", lambda p: Kind.STRICT,
        t=_hamacher_t,
        g=lambda p, x: (1.0 - x) / x if p == 0.0 else math.log((p + (1.0 - p) * x) / x),
        g_inv=lambda p, z: 1.0 / (1.0 + z) if p == 0.0 else p / (p - 1.0 + math.exp(z)),
        # Denominator >= a^2 > 0 whenever a >= b, alpha >= 0.
        u=lambda p, a, b: (p + (1.0 - p) * a) * b / (a - (1.0 - p) * (1.0 - a) * b)),
    Family.DOMBI: _Record(
        lambda l: 1e-2 <= l <= 25, "0.01 <= lambda <= 25", lambda p: Kind.STRICT,
        t=lambda p, x, y: 1.0 / (1.0 + (((1.0 - x) / x) ** p + ((1.0 - y) / y) ** p) ** (1.0 / p)),
        g=lambda p, x: ((1.0 - x) / x) ** p,
        g_inv=lambda p, z: 1.0 / (1.0 + z ** (1.0 / p)),
        u=lambda p, a, b: 1.0 / (1.0 + max(0.0, ((1.0 - b) / b) ** p - ((1.0 - a) / a) ** p)
                                 ** (1.0 / p))),
    # The only family whose kind depends on its parameter.
    Family.SCHWEIZER_SKLAR: _Record(
        lambda p: -25 <= p <= 5 and p != 0, "-25 <= p <= 5, p != 0",
        lambda p: Kind.NILPOTENT if p > 0 else Kind.STRICT,
        t=_schweizer_sklar_t,
        g=lambda p, x: (1.0 - x ** p) / p,
        g_inv=_schweizer_sklar_g_inv,
        u=_schweizer_sklar_u),
    Family.SUGENO_WEBER: _Record(
        lambda l: l > -1, "lambda > -1", lambda p: Kind.NILPOTENT,
        t=lambda p, x, y: (x + y - 1.0 + p * x * y) / (1.0 + p),
        g=lambda p, x: 1.0 - x if p == 0.0 else 1.0 - math.log1p(p * x) / math.log1p(p),
        g_inv=lambda p, z: 1.0 - z if p == 0.0 else math.expm1((1.0 - z) * math.log1p(p)) / p,
        u=lambda p, a, b: ((1.0 + p) * b + 1.0 - a) / (1.0 + p * a)),
    Family.ACZEL_ALSINA: _Record(
        lambda l: 1e-2 <= l <= 1e2, "0.01 <= lambda <= 100", lambda p: Kind.STRICT,
        t=lambda p, x, y: math.exp(-(((-math.log(x)) ** p + (-math.log(y)) ** p) ** (1.0 / p))),
        g=lambda p, x: (-math.log(x)) ** p,
        g_inv=lambda p, z: math.exp(-(z ** (1.0 / p))),
        u=lambda p, a, b: math.exp(-(max(0.0, (-math.log(b)) ** p - (-math.log(a)) ** p)
                                     ** (1.0 / p)))),
}


def validate(family, param=None) -> TNorm:
    """Build a TNorm, rejecting out-of-domain parameters.

    ``family`` may be a Family member or its string name, in any case; any
    other value, or a name of no family, is refused without a word on the
    parameter.  A parameter must be finite and in the family's domain.
    """
    if not isinstance(family, Family):
        if not isinstance(family, str):
            raise InvalidParameter(family, param, "unknown family",
                                   f"t-norm family {family!r} is not a string")
        try:
            family = Family(family.lower())
        except ValueError:
            raise InvalidParameter(family, param, "unknown family",
                                   f"unknown t-norm family {family!r}") from None
    rec = _FAMILIES[family]
    if rec.ok is None:
        if param is not None:
            raise InvalidParameter(family.value, param, rec.domain)
        return TNorm(family, None, rec.kind(None))
    if param is None:
        raise InvalidParameter(family.value, param, rec.domain)
    param = float(param)
    if not math.isfinite(param):
        raise InvalidParameter(family.value, param, "finite " + rec.domain)
    if not rec.ok(param):
        raise InvalidParameter(family.value, param, rec.domain)
    return TNorm(family, param, rec.kind(param))


def _evaluator(t: TNorm):
    """The unchecked kernel of ``evaluate`` for ``t``: a function T(x, y)
    for x, y already checked and clamped into [0, 1].

    The boundary axioms are applied exactly, so identity and zero laws hold
    to the last ulp for every family.  The result is clamped into
    [0, min(x, y)], so the axiom T(x, y) <= min(x, y) holds exactly in
    floats; near min, the closed forms of yager, aczel_alsina, dombi and
    schweizer_sklar at large |p| can round a few ulp above it.  A closed
    form overflows only where an argument is tiny, which drives T to 0,
    so an overflow reads as 0.
    """
    form, p = _FAMILIES[t.family].t, t.param

    def T(x, y):
        if x == 1.0:
            return y
        if y == 1.0:
            return x
        if x == 0.0 or y == 0.0:
            return 0.0
        try:
            v = form(p, x, y)
        except OverflowError:
            return 0.0
        return min(x, y, max(0.0, v))

    return T


def evaluate(t: TNorm, x: float, y: float) -> float:
    """Closed-form value of the t-norm at (x, y)."""
    return _evaluator(t)(_check_unit("x", x), _check_unit("y", y))


def generator(t: TNorm, x: float) -> float:
    """Additive generator value; +inf at 0 exactly for strict families, and
    past the float range near 0."""
    x = _check_unit("x", x)
    if x == 0.0 and t.kind is Kind.STRICT:
        return INF
    try:
        return _FAMILIES[t.family].g(t.param, x)
    # the generator decreases, so only x near 0 overflows or divides by a
    # term that underflowed to 0
    except (OverflowError, ZeroDivisionError):
        return INF


def pseudo_inverse(t: TNorm, z: float) -> float:
    """Generator pseudoinverse: the inverse up to generator(t, 0), then 0;
    also 0 where the inverse's closed form leaves the float range."""
    if not z >= -EPS:                   # NaN fails it too
        raise DomainError(f"z={z!r} negative")
    z = max(0.0, z)
    if z > generator(t, 0.0):
        return 0.0
    try:
        v = _FAMILIES[t.family].g_inv(t.param, z)
    except OverflowError:     # the inverse decreases, so only large z overflows
        return 0.0
    return min(1.0, max(0.0, v))


def _solver(t: TNorm):
    """The unchecked kernel of ``solve_u`` for ``t``: a function u(a, b) for
    a, b already in [0, 1] with a reaching b, fl(a - b) >= -EPS.

    Family, parameter and kind are resolved once, here, so callers that
    solve many cells of one instance bind the kernel once and pay only for
    the arithmetic of each call.
    """
    form, p = _FAMILIES[t.family].u, t.param
    strict = t.kind is Kind.STRICT

    def u(a, b):
        if abs(a - b) <= EPS:
            return 1.0
        if b <= EPS:
            if strict:
                return 0.0
            return pseudo_inverse(t, generator(t, 0.0) - generator(t, a))
        v = form(p, a, b)
        # min(1.0, max(0.0, v)) to the bit (-0.0 and NaN give 0.0), without
        # the cost of two builtin calls
        return (v if v < 1.0 else 1.0) if v > 0.0 else 0.0

    return u


def solve_u(t: TNorm, a: float, b: float) -> float:
    """The solution value u of evaluate(a, x) == b for a that reaches b
    within EPS, fl(a - b) >= -EPS.

    Cases: a == b gives 1; b == 0 gives 0 for strict families and the
    endpoint of the zero set for nilpotent ones; otherwise the closed form
    (equivalently pseudo_inverse(generator(b) - generator(a))).  Both
    arguments are checked and clamped into [0, 1], then the unchecked
    kernel of ``t`` solves.
    """
    a = _check_unit("a", a)
    b = _check_unit("b", b)
    if a - b < -EPS:
        raise PreconditionViolated(f"a={a!r} < b={b!r}")
    return _solver(t)(a, b)
