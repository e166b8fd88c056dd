"""Continuous Archimedean t-norm families.

Ten parametric families are supported, each exposed through four views:

* the closed-form product ``evaluate(t, x, y)``,
* the additive generator ``generator(t, x)`` (strictly decreasing, 0 at 1,
  possibly +inf at 0),
* its pseudoinverse ``pseudo_inverse(t, z)`` (the true inverse clamped to 0
  past ``generator(t, 0)``),
* ``solve_u(t, a, b)``, the key quantity for equation solving: the largest x
  with evaluate(a, x) == b when b > 0, and the right endpoint of the solution
  interval of evaluate(a, x) == 0 when b == 0.

``solve_u`` reads one table of per-family closed forms for u.  The public
function checks its arguments and then calls an unchecked kernel that
``_solver`` binds to one t-norm; resolution binds that kernel once per
instance and calls it on entries the instance has already validated.

A family is *strict* when its generator diverges at 0 and *nilpotent* when it
stays finite; the distinction decides the b == 0 branch of ``solve_u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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
    def __init__(self, family, param, domain):
        super().__init__(f"{family}: parameter {param!r} not allowed ({domain})")
        self.family = family
        self.param = param
        self.domain = domain


class DomainError(ValueError):
    """An argument left its required range."""


class PreconditionViolated(ValueError):
    """solve_u was called with a < b."""


# Parameter domains: (needs_param, predicate, description).
_DOMAINS = {
    Family.PRODUCT: (False, None, "no parameter"),
    Family.EINSTEIN_PRODUCT: (False, None, "no parameter"),
    Family.LUKASIEWICZ: (False, None, "no parameter"),
    Family.FRANK: (True, lambda s: s > 0 and s != 1, "s > 0, s != 1"),
    Family.YAGER: (True, lambda p: p > 0, "p > 0"),
    Family.HAMACHER: (True, lambda a: a >= 0, "alpha >= 0"),
    Family.DOMBI: (True, lambda l: l > 0, "lambda > 0"),
    Family.SCHWEIZER_SKLAR: (True, lambda p: p != 0, "p != 0"),
    Family.SUGENO_WEBER: (True, lambda l: l > -1, "lambda > -1"),
    Family.ACZEL_ALSINA: (True, lambda l: l > 0, "lambda > 0"),
}


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


def validate(family, param=None) -> TNorm:
    """Build a TNorm, rejecting out-of-domain parameters.

    ``family`` may be a Family member or its lowercase string name.
    """
    if not isinstance(family, Family):
        try:
            family = Family(str(family).lower())
        except ValueError:
            raise InvalidParameter(family, param, "unknown family") from None
    needs_param, ok, domain = _DOMAINS[family]
    if not needs_param:
        if param is not None:
            raise InvalidParameter(family.value, param, domain)
        return TNorm(family, None, _derive_kind(family, None))
    if param is None:
        raise InvalidParameter(family.value, param, domain)
    param = float(param)
    if not ok(param):
        raise InvalidParameter(family.value, param, domain)
    return TNorm(family, param, _derive_kind(family, param))


def _derive_kind(family, param):
    # Strict iff the generator diverges at 0.  Only Schweizer-Sklar changes
    # kind with its parameter (strict for p < 0, nilpotent for p > 0).
    if family in (Family.LUKASIEWICZ, Family.YAGER, Family.SUGENO_WEBER):
        return Kind.NILPOTENT
    if family is Family.SCHWEIZER_SKLAR:
        return Kind.NILPOTENT if param > 0 else Kind.STRICT
    return Kind.STRICT


def _check_unit(name, v):
    if v < -EPS or v > 1 + EPS:
        raise DomainError(f"{name}={v!r} outside [0, 1]")
    return min(1.0, max(0.0, v))


# Sums like x**p + y**p - 1 suffer sqrt-style amplification right at the
# Schweizer-Sklar nilpotent boundary; rounding noise there is ~1e-16, genuine
# values on 0.05-grid data are >= 0.05**5 ~ 3e-7, so snapping at 1e-12 kills
# the noise without touching real values.
_SS_SNAP = 1e-12


def evaluate(t: TNorm, x: float, y: float) -> float:
    """Closed-form value of the t-norm at (x, y)."""
    return _evaluate(t, _check_unit("x", x), _check_unit("y", y))


def _evaluate(t: TNorm, x: float, y: float) -> float:
    """``evaluate`` for arguments already checked and clamped into [0, 1].

    The result is clamped into [0, min(x, y)], so the axiom T(x, y) <=
    min(x, y) holds exactly in floats; near min, the closed forms of
    yager, aczel_alsina, dombi and schweizer_sklar at large |p| can round a
    few ulp above it.
    """
    # Boundary axioms, applied exactly so identity and zero laws hold to the
    # last ulp for every family.
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    if x == 0.0 or y == 0.0:
        return 0.0
    f, p = t.family, t.param
    if f is Family.PRODUCT:
        v = x * y
    elif f is Family.EINSTEIN_PRODUCT:
        v = x * y / (2.0 - (x + y - x * y))
    elif f is Family.LUKASIEWICZ:
        v = max(0.0, x + y - 1.0)
    elif f is Family.FRANK:
        v = math.log1p(math.expm1(x * math.log(p)) * math.expm1(y * math.log(p)) / (p - 1.0)) / math.log(p)
    elif f is Family.YAGER:
        v = 1.0 - ((1.0 - x) ** p + (1.0 - y) ** p) ** (1.0 / p)
        v = max(0.0, v)
    elif f is Family.HAMACHER:
        num = x * y
        v = 0.0 if num == 0.0 else num / (p + (1.0 - p) * (x + y - num))
    elif f is Family.DOMBI:
        s = ((1.0 - x) / x) ** p + ((1.0 - y) / y) ** p
        v = 1.0 / (1.0 + s ** (1.0 / p))
    elif f is Family.SCHWEIZER_SKLAR:
        if p < 0:
            v = (x ** p + y ** p - 1.0) ** (1.0 / p)
        else:
            base = math.fsum((x ** p, y ** p, -1.0))
            if abs(base) <= _SS_SNAP:
                base = 0.0
            v = 0.0 if base <= 0.0 else base ** (1.0 / p)
    elif f is Family.SUGENO_WEBER:
        v = max(0.0, (x + y - 1.0 + p * x * y) / (1.0 + p))
    elif f is Family.ACZEL_ALSINA:
        v = math.exp(-(((-math.log(x)) ** p + (-math.log(y)) ** p) ** (1.0 / p)))
    else:  # pragma: no cover
        raise AssertionError(f)
    return min(x, y, max(0.0, v))


def generator(t: TNorm, x: float) -> float:
    """Additive generator value; +inf at 0 exactly for strict families."""
    x = _check_unit("x", x)
    f, p = t.family, t.param
    if x == 0.0 and t.kind is Kind.STRICT:
        return INF
    if f is Family.PRODUCT:
        return -math.log(x)
    if f is Family.EINSTEIN_PRODUCT:
        return math.log((2.0 - x) / x)
    if f is Family.LUKASIEWICZ:
        return 1.0 - x
    if f is Family.FRANK:
        # Natural-log variant of the base-s generator; positive for every
        # admissible s (the base-s form flips sign for s < 1).
        return math.log((p - 1.0) / math.expm1(x * math.log(p)))
    if f is Family.YAGER:
        return (1.0 - x) ** p
    if f is Family.HAMACHER:
        if p == 0.0:
            return (1.0 - x) / x
        return math.log((p + (1.0 - p) * x) / x)
    if f is Family.DOMBI:
        return ((1.0 - x) / x) ** p
    if f is Family.SCHWEIZER_SKLAR:
        return (1.0 - x ** p) / p
    if f is Family.SUGENO_WEBER:
        if p == 0.0:
            return 1.0 - x
        return 1.0 - math.log1p(p * x) / math.log1p(p)
    if f is Family.ACZEL_ALSINA:
        return (-math.log(x)) ** p
    raise AssertionError(f)  # pragma: no cover


def _inverse(t: TNorm, z: float) -> float:
    """True generator inverse for 0 <= z <= generator(t, 0); tolerates z = inf."""
    f, p = t.family, t.param
    if f is Family.PRODUCT:
        return math.exp(-z)
    if f is Family.EINSTEIN_PRODUCT:
        return 0.0 if z == INF else 2.0 / (1.0 + math.exp(z))
    if f is Family.LUKASIEWICZ:
        return 1.0 - z
    if f is Family.FRANK:
        return math.log1p((p - 1.0) * math.exp(-z)) / math.log(p)
    if f is Family.YAGER:
        return 1.0 - z ** (1.0 / p)
    if f is Family.HAMACHER:
        if p == 0.0:
            return 0.0 if z == INF else 1.0 / (1.0 + z)
        return 0.0 if z == INF else p / (p - 1.0 + math.exp(z))
    if f is Family.DOMBI:
        return 0.0 if z == INF else 1.0 / (1.0 + z ** (1.0 / p))
    if f is Family.SCHWEIZER_SKLAR:
        base = 1.0 - p * z
        if abs(base) <= _SS_SNAP:
            base = 0.0
        if p > 0:
            base = max(0.0, base)
        return base ** (1.0 / p)
    if f is Family.SUGENO_WEBER:
        if p == 0.0:
            return 1.0 - z
        return math.expm1((1.0 - z) * math.log1p(p)) / p
    if f is Family.ACZEL_ALSINA:
        return math.exp(-(z ** (1.0 / p)))
    raise AssertionError(f)  # pragma: no cover


def pseudo_inverse(t: TNorm, z: float) -> float:
    """Generator pseudoinverse: the inverse up to generator(t, 0), then 0."""
    if z < -EPS:
        raise DomainError(f"z={z!r} negative")
    z = max(0.0, z)
    if z > generator(t, 0.0):
        return 0.0
    return min(1.0, max(0.0, _inverse(t, z)))


# Closed-form u for a > b > 0, one per family, each called as form(param, a, b);
# every one is finite in that region.

def _u_product(p, a, b):
    return b / a


def _u_einstein_product(p, a, b):
    return (2.0 - a) * b / (a + b - a * b)


def _u_lukasiewicz(p, a, b):
    return 1.0 + b - a


def _u_frank(p, a, b):
    ls = math.log(p)
    return math.log1p(math.expm1(b * ls) * (p - 1.0) / math.expm1(a * ls)) / ls


def _u_yager(p, a, b):
    d = max(0.0, (1.0 - b) ** p - (1.0 - a) ** p)
    return 1.0 - d ** (1.0 / p)


def _u_sugeno_weber(p, a, b):
    return ((1.0 + p) * b + 1.0 - a) / (1.0 + p * a)


def _u_dombi(p, a, b):
    d = max(0.0, ((1.0 - b) / b) ** p - ((1.0 - a) / a) ** p)
    return 1.0 / (1.0 + d ** (1.0 / p))


def _u_aczel_alsina(p, a, b):
    d = max(0.0, (-math.log(b)) ** p - (-math.log(a)) ** p)
    return math.exp(-(d ** (1.0 / p)))


def _u_schweizer_sklar(p, a, b):
    base = math.fsum((1.0, b ** p, -(a ** p)))
    if p > 0:
        base = max(0.0, base)
    return base ** (1.0 / p)


def _u_hamacher(p, a, b):
    # Denominator >= a^2 > 0 whenever a >= b, alpha >= 0.
    return (p + (1.0 - p) * a) * b / (a - (1.0 - p) * (1.0 - a) * b)


_CLOSED_FORM_U = {
    Family.PRODUCT: _u_product,
    Family.EINSTEIN_PRODUCT: _u_einstein_product,
    Family.LUKASIEWICZ: _u_lukasiewicz,
    Family.FRANK: _u_frank,
    Family.YAGER: _u_yager,
    Family.HAMACHER: _u_hamacher,
    Family.DOMBI: _u_dombi,
    Family.SCHWEIZER_SKLAR: _u_schweizer_sklar,
    Family.SUGENO_WEBER: _u_sugeno_weber,
    Family.ACZEL_ALSINA: _u_aczel_alsina,
}


def _solver(t: TNorm):
    """The unchecked kernel of ``solve_u`` for ``t``: a function u(a, b) for
    a, b already in [0, 1] with a >= b - EPS.

    Family, parameter and kind are resolved once, here, so callers that
    solve many cells of one instance bind the kernel once and pay only for
    the arithmetic of each call.
    """
    form, p = _CLOSED_FORM_U[t.family], t.param
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
    """The solution value u of evaluate(a, x) == b for a >= b.

    Cases: a == b gives 1; b == 0 gives 0 for strict families and the
    endpoint of the zero set for nilpotent ones; otherwise the closed form
    (equivalently pseudo_inverse(generator(b) - generator(a))).  Both
    arguments are checked and clamped into [0, 1], then the unchecked
    kernel of ``t`` solves.
    """
    a = _check_unit("a", a)
    b = _check_unit("b", b)
    if a < b - EPS:
        raise PreconditionViolated(f"a={a!r} < b={b!r}")
    return _solver(t)(a, b)
