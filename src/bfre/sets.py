"""The set algebra: every set is one flat tuple of sorted, disjoint closed
pieces.

A set is the tuple ``(lo0, hi0, lo1, hi1, ...)``: ``()`` is empty,
``(v, v)`` the point v, ``(v, v, w, w)`` a two-point set and ``(lo, hi)`` a
closed interval.  A piece is either a point (lo == hi) or wider than EPS,
and pieces lie more than EPS apart, so the minimum is ``s[0]`` and an empty
set is false.  ``SetForm`` is the tuple subclass that carries the rules as
methods; ``is_point`` and ``is_pair`` tell a point and a two-point set,
and the rest is read off the tuple: ``not s`` when empty, ``s[0]`` and
``s[-1]`` its bounds.  The rules take plain tuples as well and always
return a ``SetForm``, so a caller that builds many sets
(``resolution.build_tables``) builds plain tuples and pays for a
``SetForm`` only where one is kept.

Each rule is written once, for one piece against one piece, and a set of
more pieces goes through it piece by piece:

- construct (``piece``): a piece crossed by more than EPS is empty, and one
  no wider than EPS is the point at its lo; pieces within EPS of each other
  join;
- contains: v is within EPS of a piece, |v - p| <= EPS for a point p;
- intersect (``fold``): a point survives, itself, when the other piece
  contains it; an interval keeps each point of the other that it contains,
  and two intervals meet in [max lo, min hi], constructed.  The operand with
  fewer pieces, or the left one, keeps its points and its bounds on a tie,
  and an operand that survives whole is the result itself;
- issubset: each piece lies in a piece of the other, a proper interval only
  in an interval;
- snap: a bound within EPS of a target moves onto the first such target;
- restrict: a cell ∩ its column by intersect, then snapped onto the
  column's bounds.  ``restrict(col, cells)`` applies it to each of a
  column's cells.

Every tolerance test is a difference against EPS (``v - hi <= EPS``, never
``v <= hi + EPS``), so a value one rule holds within EPS of a bound is held
there by every rule; ``tolerance`` states the reach rule the same way.

The rules are not associative, so a fold must keep its order:
(0, 1) ∩ [.5, .5 + .5ε] ∩ [.5 + .8ε, 1] is the point .5, while a plain
max/min over all bounds gives .5 + .8ε.
"""

from __future__ import annotations

import operator

from .tolerance import EPS

_new = tuple.__new__


def piece(lo: float, hi: float) -> tuple:
    """[lo, hi] as a plain tuple: empty when crossed by more than EPS, the
    point lo when no wider than EPS."""
    if lo - hi > EPS:
        return ()
    return (lo, lo) if hi - lo <= EPS else (lo, hi)


def _pieces(bounds) -> tuple:
    """The pieces listed flat in ``bounds``, in any order, each constructed
    by ``piece`` after joining it to the one before when it starts within
    EPS of that one's end."""
    out = []
    for k in sorted(range(0, len(bounds), 2), key=bounds.__getitem__):
        lo, hi = bounds[k], bounds[k + 1]
        if out and lo - out[-1] <= EPS:
            lo, hi = out[-2], max(out[-1], hi)
            del out[-2:]
        out += piece(lo, hi)
    return tuple(out)


def _form(s: tuple) -> "SetForm":
    return s if type(s) is SetForm else _new(SetForm, s)


def fold(sets, acc: tuple = (0.0, 1.0)) -> "SetForm":
    """``acc ∩ s`` for each s of ``sets`` in turn, left to right, ``acc``
    the unit interval unless given: the intersect rule.  An operand of one
    piece may come as the raw bounds ``(lo, hi)`` of ``piece(lo, hi)``.

    Lemma: let every operand, ``acc`` too, be one piece ``(lo, hi)``, and
    let L be the largest lo and H the smallest hi.  If H - L > EPS, the fold
    is exactly [L, H].  Every operand and every partial fold then spans at
    least [L, H], and rounding keeps that order, so each is an interval
    wider than EPS: no point rule and no narrowing ``piece`` fires, and each
    step keeps the larger lo and the smaller hi.  ``resolution.build_tables``
    reads a column interval off its running bounds by this lemma."""
    return _form(_fold(sets, acc))


def _fold(sets, acc: tuple) -> tuple:
    for other in sets:
        if len(acc) == 2 == len(other):
            lo, hi = acc
            olo, ohi = other
            if olo != ohi and ohi - olo <= EPS:
                other = piece(olo, ohi)
                if not other:
                    return _EMPTY
                ohi = olo
            if lo == hi:
                if not (abs(lo - olo) <= EPS if olo == ohi else
                        olo - lo <= EPS and lo - ohi <= EPS):
                    return _EMPTY
            elif olo == ohi:
                if not (lo - olo <= EPS and olo - hi <= EPS):
                    return _EMPTY
                acc = other
            else:
                # the bound of acc on a tie, so an operand whose bounds both
                # survive is the result itself
                nlo = olo if olo > lo else lo
                nhi = ohi if ohi < hi else hi
                if nlo is not lo or nhi is not hi:
                    acc = other if nlo is olo and nhi is ohi else piece(nlo, nhi)
                    if not acc:
                        return _EMPTY
        else:
            acc = _meet(acc, other)
            if not acc:
                return _EMPTY
    return acc


def _meet(x: tuple, y: tuple) -> tuple:
    """``x ∩ y`` piece by piece; a point of the operand with fewer pieces
    (``x`` on a tie) is kept once."""
    if not x or not y:
        return ()
    if len(y) < len(x):
        x, y = y, x
    out = []
    for k in range(0, len(x), 2):
        own = x[k:k + 2]
        for q in range(0, len(y), 2):
            met = _fold((y[q:q + 2],), own)
            out += met
            if met and own[0] == own[1]:
                break
    for operand in (x, y):
        if len(out) == len(operand) and all(map(operator.is_, out, operand)):
            return operand
    if len(out) == 2 or all(out[k] - out[k - 1] > EPS for k in range(2, len(out), 2)):
        return tuple(out)               # already sorted, apart and constructed
    return _pieces(out)


class SetForm(tuple):
    """Sorted, disjoint closed pieces, flat: ``(lo0, hi0, lo1, hi1, ...)``."""

    __slots__ = ()

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "SetForm":
        return _EMPTY

    @staticmethod
    def point(v: float) -> "SetForm":
        return _new(SetForm, (v, v))

    @staticmethod
    def interval(lo: float, hi: float) -> "SetForm":
        return _new(SetForm, piece(lo, hi))

    # -- views ------------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return len(self) == 2 and self[0] == self[1]

    @property
    def is_pair(self) -> bool:
        return len(self) == 4 and self[0] == self[1] and self[2] == self[3]

    # -- algebra ----------------------------------------------------------

    def contains(self, v: float) -> bool:
        if len(self) == 2:
            lo, hi = self
            return abs(v - lo) <= EPS if lo == hi else lo - v <= EPS and v - hi <= EPS
        return any(SetForm.contains(self[k:k + 2], v) for k in range(0, len(self), 2))

    def intersect(self, other: tuple) -> "SetForm":
        # equal operands, the commonest case in the search, meet in self,
        # which keeps its bounds on a tie
        return self if self == other else fold((other,), self)

    def issubset(self, other: tuple) -> bool:
        if len(self) == 2 == len(other):
            lo, hi = self
            olo, ohi = other
            if lo == hi:
                return abs(lo - olo) <= EPS if olo == ohi else olo - lo <= EPS and lo - ohi <= EPS
            return olo != ohi and olo - lo <= EPS and hi - ohi <= EPS
        return not self or all(any(SetForm.issubset(self[k:k + 2], other[q:q + 2])
                                   for q in range(0, len(other), 2))
                               for k in range(0, len(self), 2))

    def snap(self, targets) -> "SetForm":
        """Each bound moved onto the first of ``targets`` (at most two)
        within EPS of it; the set itself when none moves."""
        if not targets:
            return _form(self)
        t0, t1 = targets[0], targets[-1]
        pinned, moved = [], False
        for k in range(0, len(self), 2):
            lo, hi = self[k], self[k + 1]
            plo = t0 if abs(lo - t0) <= EPS else t1 if abs(lo - t1) <= EPS else lo
            # a point's two bounds are one value, pinned once
            phi = (plo if hi is lo else
                   t0 if abs(hi - t0) <= EPS else t1 if abs(hi - t1) <= EPS else hi)
            pinned += plo, phi
            moved = moved or plo is not lo or phi is not hi
        if not moved:
            return _form(self)
        return _new(SetForm, piece(*pinned) if len(pinned) == 2 else _pieces(pinned))

    def __str__(self) -> str:
        return spell(self)


def spell(x) -> str:
    """The display spelling of a number (``.6g``, never ``-0``) or of a set:
    ∅, {v}, {v,w}, [lo,hi], and the pieces of other shapes joined by ∪."""
    if not isinstance(x, tuple):
        s = f"{x:.6g}"
        return "0" if s == "-0" else s
    if not x:
        return "∅"
    if all(x[k] == x[k + 1] for k in range(0, len(x), 2)):
        return "{%s}" % ",".join(map(spell, x[::2]))
    return "∪".join("{%s}" % spell(lo) if lo == hi else "[%s,%s]" % (spell(lo), spell(hi))
                    for lo, hi in zip(x[::2], x[1::2]))


_EMPTY = _new(SetForm, ())


def restrict(col: tuple, cells) -> list:
    """Each of ``cells`` ∩ ``col`` by ``fold``, snapped onto the bounds of
    the column ``col``: the restrict rule.  A cell left unchanged comes back
    as itself, as a ``SetForm``."""
    return [SetForm.snap(s, (col[0], col[-1])) if s else _EMPTY
            for s in (_fold((col,), cell) for cell in cells)]
