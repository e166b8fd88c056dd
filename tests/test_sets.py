import math
import random

import pytest

from bfre.sets import SetForm
from bfre.tolerance import EPS

from setforms import bits, constructed_intersect, constructed_snap, kind, pair, parse, same


class TestConstruction:
    def test_pair_sorts_and_collapses(self):
        s = pair(0.8, 0.2)
        assert (s[0], s[-1]) == (0.2, 0.8) and s.is_pair
        assert pair(0.5, 0.5 + 1e-12).is_point

    def test_interval_collapses_and_empties(self):
        assert SetForm.interval(0.3, 0.3 + 1e-12).is_point
        assert not SetForm.interval(0.5, 0.2)
        assert kind(SetForm.interval(0.2, 0.5)) == "interval"


class TestContains:
    def test_interval(self):
        s = SetForm.interval(0.2, 0.6)
        assert s.contains(0.2) and s.contains(0.4) and s.contains(0.6)
        assert s.contains(0.6 + 1e-12)
        assert not s.contains(0.7)

    def test_pair_excludes_gap(self):
        s = pair(0.0, 1.0)
        assert s.contains(0.0) and s.contains(1.0) and not s.contains(0.5)

    def test_empty(self):
        assert not SetForm.empty().contains(0.0)


class TestIntersect:
    def test_point_with_interval_endpoint(self):
        # endpoint coincidences must survive float noise
        assert same(SetForm.point(0.6).intersect(SetForm.interval(0.3, 0.6)), SetForm.point(0.6))
        assert SetForm.point(0.6 + 1e-12).intersect(SetForm.interval(0.3, 0.6)).is_point

    def test_pair_with_interval(self):
        two = pair(0.2, 0.8)
        assert same(two.intersect(SetForm.interval(0.0, 1.0)), two)
        assert same(two.intersect(SetForm.interval(0.5, 1.0)), SetForm.point(0.8))
        assert not two.intersect(SetForm.interval(0.3, 0.7))

    def test_interval_with_interval(self):
        a, b = SetForm.interval(0.0, 0.6), SetForm.interval(0.6, 1.0)
        assert same(a.intersect(b), SetForm.point(0.6))
        assert same(a.intersect(SetForm.interval(0.2, 0.4)), SetForm.interval(0.2, 0.4))
        assert not a.intersect(SetForm.interval(0.7, 1.0))

    def test_pair_with_pair(self):
        assert same(pair(0.0, 1.0).intersect(pair(0.0, 0.5)), SetForm.point(0.0))
        assert not pair(0.0, 1.0).intersect(pair(0.2, 0.5))

    def test_anything_with_empty(self):
        assert not SetForm.interval(0.0, 1.0).intersect(SetForm.empty())

    def test_commutative(self):
        cases = [SetForm.empty(), SetForm.point(0.4), pair(0.2, 0.8),
                 SetForm.interval(0.3, 0.7), SetForm.interval(0.0, 0.2)]
        for a in cases:
            for b in cases:
                assert same(a.intersect(b), b.intersect(a))


class TestSubset:
    def test_empty_in_everything(self):
        assert SetForm.empty().issubset(SetForm.point(0.3))
        assert SetForm.empty().issubset(SetForm.empty())

    def test_points_and_pairs(self):
        assert SetForm.point(0.4).issubset(SetForm.interval(0.0, 0.5))
        assert pair(0.1, 0.4).issubset(SetForm.interval(0.0, 0.5))
        assert not pair(0.1, 0.6).issubset(SetForm.interval(0.0, 0.5))
        assert SetForm.point(0.4).issubset(pair(0.4, 0.9))

    def test_intervals(self):
        assert SetForm.interval(0.2, 0.4).issubset(SetForm.interval(0.0, 0.5))
        assert not SetForm.interval(0.2, 0.6).issubset(SetForm.interval(0.0, 0.5))
        assert not SetForm.interval(0.2, 0.4).issubset(pair(0.2, 0.4))
        assert not SetForm.interval(0.2, 0.4).issubset(SetForm.empty())


class TestSnap:
    def test_snaps_within_tolerance(self):
        s = pair(0.2 + 1e-12, 0.8).snap((0.2, 0.8))
        assert s[0] == 0.2 and s[-1] == 0.8

    def test_leaves_distant_values(self):
        assert SetForm.point(0.3).snap((0.2, 0.8))[0] == 0.3


class TestFormatting:
    @pytest.mark.parametrize("form,text", [
        (SetForm.empty(), "∅"),
        (SetForm.point(0.6), "{0.6}"),
        (pair(0.0, 0.8), "{0,0.8}"),
        (SetForm.interval(0.4, 1.0), "[0.4,1]"),
        (SetForm.point(1 - 0.28284271247461906), "{0.717157}"),
    ])
    def test_str(self, form, text):
        assert str(form) == text

    @pytest.mark.parametrize("form", [
        SetForm.empty(), SetForm.point(0.6), pair(0.0, 0.8),
        SetForm.interval(0.4, 1.0),
    ])
    def test_parse_round_trip(self, form):
        assert same(parse(str(form)), form)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("(0,1)")

    def test_no_negative_zero(self):
        assert str(SetForm.point(-0.0)) == "{0}"


def _fresh(v: float) -> float:
    """v as a float object of its own (same value and sign)."""
    return v * 1.0


def _edge_above(v: float) -> float:
    """The largest float w with w - v <= EPS: the last value the tolerance
    still treats as equal to v."""
    w = v + EPS
    while w - v > EPS:
        w = math.nextafter(w, -math.inf)
    while math.nextafter(w, math.inf) - v <= EPS:
        w = math.nextafter(w, math.inf)
    return w


def _beyond(v: float) -> float:
    return math.nextafter(_edge_above(v), math.inf)


def _seeded_forms(tag: str) -> list:
    """Forms of every kind: random bounds, grid bounds, bounds exactly EPS
    apart, ±0.0, nested and crossing intervals, equal values held in
    distinct objects."""
    rng = random.Random(f"setforms:{tag}")
    forms = [SetForm.empty(), SetForm.interval(0.0, 1.0), SetForm.interval(-0.0, 0.5),
             SetForm.interval(0.0, 0.7), SetForm.point(-0.0), SetForm.point(0.0),
             pair(-0.0, 1.0), SetForm.interval(0.2, _edge_above(0.2)),
             SetForm.interval(0.2, _beyond(0.2)), pair(0.6, _beyond(0.6)),
             SetForm.interval(0.2, 0.5), SetForm.interval(_fresh(0.2), _fresh(0.5)),
             SetForm.interval(0.1, 0.9), SetForm.interval(0.4, 0.9),
             SetForm.interval(_edge_above(0.5), 0.9), SetForm.interval(_beyond(0.5), 0.9),
             SetForm.interval(0.3, 0.5), pair(0.2, 0.5), SetForm.point(0.5)]
    for _ in range(60):
        lo, hi = sorted(rng.choice((rng.random(), rng.randint(0, 20) / 20)) for _ in range(2))
        if rng.random() < 0.2:
            hi = _edge_above(lo) if rng.random() < 0.5 else _beyond(lo)
        shape = rng.randrange(3)
        forms.append(SetForm.point(lo) if shape == 0 else
                     pair(lo, hi) if shape == 1 else SetForm.interval(lo, hi))
    return forms


def _edge_points(forms) -> list:
    """Points at the tolerance edge above each bound of the points and
    intervals of ``forms``: the last value equal to it within EPS, and the
    next float past that."""
    return [SetForm.point(w) for f in forms if f.is_point or kind(f) == "interval"
            for v in ((f[0],) if f.is_point else (f[0], f[-1]))
            for w in (_edge_above(v), _beyond(v))]


class TestOperandIdentity:
    """intersect and snap return an operand exactly when its bounds survive,
    and every result equals the constructors' to the bit."""

    def test_intersect_bit_identical(self):
        forms = _seeded_forms("intersect")
        forms += _edge_points(forms)
        met = missed = 0
        for x in forms:
            for y in forms:
                r = x.intersect(y)
                assert bits(r) == bits(constructed_intersect(x, y)), (x, y)
                if x.is_point and r:
                    assert r is x, (x, y)
                if x.is_point and y.is_point and abs(x[0] - y[0]) > 0.5 * EPS:
                    met += bool(r)
                    missed += not r
        # point ∩ point is tried on both sides of the tolerance edge
        assert met >= 100 and missed >= 100

    def test_interval_operand_returned_exactly_when_its_bounds_survive(self):
        forms = [f for f in _seeded_forms("identity") if kind(f) == "interval"]
        for x in forms:
            assert x.intersect(x) is x
            for y in forms:
                if y is x:
                    continue
                r = x.intersect(y)
                lo, hi = max(x[0], y[0]), min(x[-1], y[-1])
                keeps_x = lo is x[0] and hi is x[-1]
                keeps_y = lo is y[0] and hi is y[-1]
                assert (r is x) == keeps_x, (x, y)
                assert (r is y) == (keeps_y and not keeps_x), (x, y)

    def test_nested_crossing_and_equal_intervals(self):
        inner, outer = SetForm.interval(0.2, 0.5), SetForm.interval(0.1, 0.9)
        assert inner.intersect(outer) is inner and outer.intersect(inner) is inner
        cross = SetForm.interval(0.4, 0.9)
        r = inner.intersect(cross)
        assert r is not inner and r is not cross and bits(r) == bits(SetForm.interval(0.4, 0.5))
        twin = SetForm.interval(_fresh(0.2), _fresh(0.5))
        assert inner.intersect(twin) is inner and twin.intersect(inner) is twin
        # one bound from each side: rebuilt, and -0.0 survives only as stored
        neg, pos = SetForm.interval(-0.0, 0.5), SetForm.interval(0.0, 0.7)
        assert neg.intersect(pos) is neg and bits(neg.intersect(pos))[1] == (-0.0).hex()
        r = pos.intersect(neg)
        assert r is not pos and r is not neg and bits(r) == ("interval", (0.0).hex(), (0.5).hex())
        # crossing by up to EPS still meets in a point; one ulp more is empty
        edge = SetForm.interval(_edge_above(0.5), 0.9)
        assert bits(inner.intersect(edge)) == bits(SetForm.point(edge[0]))
        assert not inner.intersect(SetForm.interval(_beyond(0.5), 0.9))

    def test_snap_bit_identical_and_identity(self):
        rng = random.Random("snap")
        for s in _seeded_forms("snap"):
            if not s:
                assert s.snap((0.0, 1.0)) is s
                continue
            near = s[0] + EPS * rng.uniform(-1.0, 1.0)
            for targets in ((0.0, 1.0), (-0.0,), (near, 0.99), (_fresh(s[0]), _fresh(s[-1])),
                            (_edge_above(s[-1]), _beyond(s[0])), (rng.random(), rng.random())):
                r = s.snap(targets)
                assert bits(r) == bits(constructed_snap(s, targets)), (s, targets)
                # an endpoint survives when no target is within EPS, or the
                # first one that is, is that very float object
                moved = [next((t for t in targets if abs(v - t) <= EPS), v) is not v
                         for v in (s[0], s[-1])]
                assert (r is s) == (not any(moved)), (s, targets)

    def test_snap_onto_distinct_targets(self):
        s = SetForm.interval(0.2, 0.5)
        assert s.snap((0.3, 0.9)) is s
        r = s.snap((_fresh(0.2), 0.9))
        assert r is not s and bits(r) == bits(s)
        r = pair(-0.0, 0.5).snap((0.0,))
        assert bits(r) == ("pair", (0.0).hex(), (0.5).hex())
        assert SetForm.point(0.5).snap((_edge_above(0.5),))[0] == _edge_above(0.5)
        assert SetForm.point(0.5).snap((_beyond(0.5),))[0] == 0.5
