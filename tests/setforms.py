"""SetForm helpers shared by the tests: the kind of a set and the
two-point constructor, the display spelling parsed back into a set, set
equality up to the package tolerance, bit-level identity, and
intersect/snap as the constructors compute them, sets of more pieces
included."""

import math

from bfre.sets import SetForm, _pieces
from bfre.tolerance import EPS


def kind(s) -> str:
    """The kind of ``s``: empty, point, pair, interval or union."""
    if not s:
        return "empty"
    if len(s) == 2:
        return "point" if s[0] == s[1] else "interval"
    return "pair" if len(s) == 4 and s[0] == s[1] and s[2] == s[3] else "union"


def pair(v: float, w: float) -> SetForm:
    """The two-point set {v, w}; the lower point when they lie within EPS."""
    return SetForm(_pieces((v, v, w, w)))


def parse(text: str) -> SetForm:
    """Inverse of str(); accepts the same four spellings."""
    text = text.strip()
    if text in ("∅", "{}", "empty"):
        return SetForm.empty()
    if text.startswith("[") and text.endswith("]"):
        lo, hi = (float(v) for v in text[1:-1].split(","))
        return SetForm.interval(lo, hi)
    if text.startswith("{") and text.endswith("}"):
        vals = [float(v) for v in text[1:-1].split(",")]
        if len(vals) == 1:
            return SetForm.point(vals[0])
        if len(vals) == 2:
            return pair(vals[0], vals[1])
    raise ValueError(f"unparseable set form: {text!r}")


def same(a: SetForm, b: SetForm) -> bool:
    """Set equality up to tolerance."""
    if kind(a) != kind(b):
        return False
    if not a:
        return True
    return abs(a[0] - b[0]) <= EPS and abs(a[-1] - b[-1]) <= EPS


def bits(s: SetForm) -> tuple:
    """(kind, lo, hi) with the bounds as float.hex (nan when empty):
    equality to the bit."""
    lo, hi = (s[0], s[-1]) if s else (math.nan, math.nan)
    return kind(s), lo.hex(), hi.hex()


def pieces_of(s) -> list:
    """The pieces of ``s``, each a one-piece ``SetForm``."""
    return [SetForm.point(lo) if lo == hi else SetForm.interval(lo, hi)
            for lo, hi in zip(s[::2], s[1::2])]


def constructed_union(pieces) -> SetForm:
    """Constructed one-piece sets, sorted by lo (stably) and joined when one
    starts within EPS of the end of the one before, each joined piece
    rebuilt by ``SetForm.interval``."""
    out = []
    for p in sorted((p for p in pieces if p), key=lambda p: p[0]):
        if out and p[0] - out[-1][1] <= EPS:
            p = SetForm.interval(out[-1][0], max(out.pop()[1], p[1]))
        out.append(p)
    return SetForm(v for p in out for v in p)


def constructed_intersect(x: SetForm, y: SetForm) -> SetForm:
    """``x.intersect(y)`` with an interval result always rebuilt by
    ``SetForm.interval``, never returned as an operand.  A set of more
    pieces meets the other piece by piece: each piece of the operand with
    fewer pieces (``x`` on a tie) against each piece of the other, a point
    kept once."""
    if not x or not y:
        return SetForm.empty()
    if kind(x) == "union" or kind(y) == "union":
        own, other = (x, y) if len(x) <= len(y) else (y, x)
        met = []
        for p in pieces_of(own):
            for q in pieces_of(other):
                r = constructed_intersect(p, q)
                met.append(r)
                if r and p.is_point:
                    break
        return constructed_union(met)
    if x.is_point:
        return x if y.contains(x[0]) else SetForm.empty()
    if y.is_point:
        return y if x.contains(y[0]) else SetForm.empty()
    if x.is_pair:
        kept = [v for v in (x[0], x[-1]) if y.contains(v)]
        if not kept:
            return SetForm.empty()
        return SetForm.point(kept[0]) if len(kept) == 1 else pair(kept[0], kept[1])
    if y.is_pair:
        return constructed_intersect(y, x)
    return SetForm.interval(max(x[0], y[0]), min(x[-1], y[-1]))


def constructed_snap(s: SetForm, targets) -> SetForm:
    """``s.snap(targets)`` with the result always rebuilt by the
    constructor of its kind."""
    if not s:
        return s

    def pin(v):
        return next((t for t in targets if abs(v - t) <= EPS), v)

    if kind(s) == "union":
        return constructed_union([SetForm.interval(pin(lo), pin(hi))
                                  for lo, hi in zip(s[::2], s[1::2])])
    lo, hi = pin(s[0]), pin(s[-1])
    if kind(s) == "interval":
        return SetForm.interval(lo, hi)
    if s.is_pair:
        return pair(lo, hi)
    return SetForm.point(lo)
