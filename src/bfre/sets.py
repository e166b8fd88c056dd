"""Tagged representation of per-cell solution sets.

Every set this solver manipulates is one of four shapes: empty, a single
point, an unordered pair of points, or a closed interval.  Intersections of
these shapes stay within the family, which is what makes the whole resolution
machinery finite.

All membership and identity tests are tolerance-snapped: values closer than
``EPS`` are treated as equal, so endpoint coincidences survive float noise.

The same rules also act on plain bounds, a ``(kind, lo, hi)`` triple per set,
for code that would otherwise build a form only to intersect it away:
``interval_bounds``, ``fold_intervals`` and ``restrict_bounds`` give, to the
bit, what ``SetForm.interval``, a left-to-right ``intersect`` and
``intersect`` plus ``snap`` give, and ``from_bounds`` makes the form of a
triple.  The tolerance rules are not associative, so a fold must keep its
order: (0, 1) ∩ [.5, .5 + .5ε] ∩ [.5 + .8ε, 1] is the point .5, while a plain
max/min over all bounds gives .5 + .8ε.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tolerance import EPS

EMPTY = "empty"
POINT = "point"
PAIR = "pair"
INTERVAL = "interval"


@dataclass(frozen=True, slots=True)
class SetForm:
    """One of: empty set, {lo}, {lo, hi}, or [lo, hi]."""

    kind: str
    lo: float = math.nan
    hi: float = math.nan

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "SetForm":
        return _EMPTY

    @staticmethod
    def point(v: float) -> "SetForm":
        return _form(POINT, v, v)

    @staticmethod
    def pair(v1: float, v2: float) -> "SetForm":
        """Two-point set; collapses to a point when the values coincide."""
        if v1 > v2:
            v1, v2 = v2, v1
        if v2 - v1 <= EPS:
            return _form(POINT, v1, v1)
        return _form(PAIR, v1, v2)

    @staticmethod
    def interval(lo: float, hi: float) -> "SetForm":
        """Closed interval; collapses to a point when degenerate.

        A crossed interval (lo > hi beyond tolerance) is empty.
        """
        if lo > hi + EPS:
            return _EMPTY
        if hi - lo <= EPS:
            return _form(POINT, lo, lo)
        return _form(INTERVAL, lo, hi)

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.kind == EMPTY

    @property
    def is_point(self) -> bool:
        return self.kind == POINT

    @property
    def is_pair(self) -> bool:
        return self.kind == PAIR

    @property
    def is_interval(self) -> bool:
        return self.kind == INTERVAL

    def minimum(self) -> float:
        if self.is_empty:
            raise ValueError("minimum of empty set")
        return self.lo

    def maximum(self) -> float:
        if self.is_empty:
            raise ValueError("maximum of empty set")
        return self.hi

    def contains(self, v: float) -> bool:
        if self.kind == EMPTY:
            return False
        if self.kind == INTERVAL:
            return self.lo - EPS <= v <= self.hi + EPS
        if self.kind == POINT:
            return abs(v - self.lo) <= EPS
        return abs(v - self.lo) <= EPS or abs(v - self.hi) <= EPS

    def values(self) -> tuple[float, ...]:
        """Finite member list; only meaningful for point/pair forms."""
        if self.kind == POINT:
            return (self.lo,)
        if self.kind == PAIR:
            return (self.lo, self.hi)
        raise ValueError(f"values() on {self.kind} form")

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "SetForm") -> "SetForm":
        # A point operand is tested first, and point ∩ point, the commonest
        # case in the search, is one compare.  A point that survives is
        # returned itself; ``contains`` of an empty form is False.
        kind, okind = self.kind, other.kind
        if kind == POINT:
            if okind == POINT:
                return self if abs(self.lo - other.lo) <= EPS else _EMPTY
            return self if other.contains(self.lo) else _EMPTY
        if okind == POINT:
            return other if self.contains(other.lo) else _EMPTY
        if kind == EMPTY or okind == EMPTY:
            return _EMPTY
        if kind == PAIR:
            kept = [v for v in (self.lo, self.hi) if other.contains(v)]
            if not kept:
                return _EMPTY
            if len(kept) == 1:
                return _form(POINT, kept[0], kept[0])
            return _form(PAIR, kept[0], kept[1])
        if okind == PAIR:
            return other.intersect(self)
        # max and min return one of their argument objects, so an operand
        # whose bounds both survive is the intersection itself
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo is self.lo and hi is self.hi:
            return self
        if lo is other.lo and hi is other.hi:
            return other
        return SetForm.interval(lo, hi)

    def issubset(self, other: "SetForm") -> bool:
        if self.kind == EMPTY:
            return True
        if other.kind == EMPTY:
            return False
        if self.kind in (POINT, PAIR):
            return all(other.contains(v) for v in self.values())
        # proper interval fits only inside an interval
        if other.kind != INTERVAL:
            return False
        return other.lo - EPS <= self.lo and self.hi <= other.hi + EPS

    def snap(self, targets) -> "SetForm":
        """Replace stored values by any target they match within EPS.

        Used to pin restricted-cell endpoints exactly onto the column bounds.
        A form with no endpoint pinned comes back as itself.
        """
        if self.kind == EMPTY:
            return self

        def pin(v):
            for tgt in targets:
                if abs(v - tgt) <= EPS:
                    return tgt
            return v

        lo, hi = pin(self.lo), pin(self.hi)
        if lo is self.lo and hi is self.hi:
            return self
        if self.kind == INTERVAL:
            return SetForm.interval(lo, hi)
        if self.kind == PAIR:
            return SetForm.pair(lo, hi)
        return _form(POINT, lo, lo)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        if self.kind == EMPTY:
            return "∅"
        if self.kind == POINT:
            return "{%s}" % _fmt(self.lo)
        if self.kind == PAIR:
            return "{%s,%s}" % (_fmt(self.lo), _fmt(self.hi))
        return "[%s,%s]" % (_fmt(self.lo), _fmt(self.hi))


def _fmt(v: float) -> str:
    s = f"{v:.6g}"
    return "0" if s == "-0" else s


_EMPTY = SetForm(EMPTY)

_new = object.__new__
# the slot member descriptors: setting through them skips the frozen
# dataclass's __setattr__, which raises for everyone else
_set_kind = SetForm.kind.__set__
_set_lo = SetForm.lo.__set__
_set_hi = SetForm.hi.__set__


def _form(kind: str, lo: float, hi: float) -> SetForm:
    """``SetForm(kind, lo, hi)`` without the dataclass ``__init__``, whose
    three frozen-field assignments each go through ``object.__setattr__``."""
    s = _new(SetForm)
    _set_kind(s, kind)
    _set_lo(s, lo)
    _set_hi(s, hi)
    return s


_EMPTY_BOUNDS = (EMPTY, math.nan, math.nan)


def from_bounds(kind: str, lo: float, hi: float) -> SetForm:
    """The form of a ``(kind, lo, hi)`` triple of the functions below."""
    return _EMPTY if kind is EMPTY else _form(kind, lo, hi)


def interval_bounds(lo: float, hi: float) -> tuple:
    """``SetForm.interval(lo, hi)`` as a triple."""
    if lo > hi + EPS:
        return _EMPTY_BOUNDS
    if hi - lo <= EPS:
        return POINT, lo, lo
    return INTERVAL, lo, hi


def fold_intervals(bounds) -> tuple:
    """``SetForm.interval(0, 1)`` intersected with ``SetForm.interval(lo,
    hi)`` for each ``(lo, hi)`` of ``bounds`` in turn, as a triple.

    Each step follows ``intersect`` with the running set as ``self``: a
    tie keeps the running bound, and a point keeps its value while the
    next interval holds it within EPS.
    """
    eps = EPS
    kind, lo, hi = INTERVAL, 0.0, 1.0
    for rlo, rhi in bounds:
        if rlo > rhi + eps:
            return _EMPTY_BOUNDS
        if rhi - rlo <= eps:                # the operand is the point rlo
            if kind is POINT:
                if not abs(lo - rlo) <= eps:
                    return _EMPTY_BOUNDS
            elif lo - eps <= rlo <= hi + eps:
                kind, lo, hi = POINT, rlo, rlo
            else:
                return _EMPTY_BOUNDS
        elif kind is POINT:
            if not rlo - eps <= lo <= rhi + eps:
                return _EMPTY_BOUNDS
        else:
            if rlo > lo:
                lo = rlo
            if rhi < hi:
                hi = rhi
            if lo > hi + eps:
                return _EMPTY_BOUNDS
            if hi - lo <= eps:
                kind, hi = POINT, lo
    return kind, lo, hi


def restrict_bounds(kind: str, lo: float, hi: float,
                    ckind: str, clo: float, chi: float) -> tuple:
    """``s.intersect(c).snap((clo, chi))`` as a triple, for a non-empty
    ``s = (kind, lo, hi)`` and a non-empty point or interval
    ``c = (ckind, clo, chi)``."""
    eps = EPS
    # intersect, with s as self
    if kind is POINT:
        if not (abs(lo - clo) <= eps if ckind is POINT else clo - eps <= lo <= chi + eps):
            return _EMPTY_BOUNDS
    elif ckind is POINT:
        if kind is PAIR:
            held = abs(clo - lo) <= eps or abs(clo - hi) <= eps
        else:
            held = lo - eps <= clo <= hi + eps
        if not held:
            return _EMPTY_BOUNDS
        return POINT, clo, clo              # snapping c's own value keeps it
    elif kind is PAIR:
        keep_lo = clo - eps <= lo <= chi + eps
        if not clo - eps <= hi <= chi + eps:
            if not keep_lo:
                return _EMPTY_BOUNDS
            kind, hi = POINT, lo
        elif not keep_lo:
            kind, lo = POINT, hi
    else:
        if clo > lo:
            lo = clo
        if chi < hi:
            hi = chi
        if lo > hi + eps:
            return _EMPTY_BOUNDS
        if hi - lo <= eps:
            kind, hi = POINT, lo
    # snap onto (clo, chi), the first target within EPS winning
    if abs(lo - clo) <= eps:
        lo = clo
    elif abs(lo - chi) <= eps:
        lo = chi
    if kind is POINT:
        return POINT, lo, lo
    if abs(hi - clo) <= eps:
        hi = clo
    elif abs(hi - chi) <= eps:
        hi = chi
    if kind is INTERVAL:
        return interval_bounds(lo, hi)
    if lo > hi:
        lo, hi = hi, lo
    if hi - lo <= eps:
        return POINT, lo, lo
    return PAIR, lo, hi
