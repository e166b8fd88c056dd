import pytest

from bfre.sets import SetForm

from setforms import parse, same


class TestConstruction:
    def test_pair_sorts_and_collapses(self):
        s = SetForm.pair(0.8, 0.2)
        assert (s.lo, s.hi) == (0.2, 0.8) and s.is_pair
        assert SetForm.pair(0.5, 0.5 + 1e-12).is_point

    def test_interval_collapses_and_empties(self):
        assert SetForm.interval(0.3, 0.3 + 1e-12).is_point
        assert SetForm.interval(0.5, 0.2).is_empty
        assert SetForm.interval(0.2, 0.5).is_interval

    def test_minimum_of_empty_raises(self):
        with pytest.raises(ValueError):
            SetForm.empty().minimum()


class TestContains:
    def test_interval(self):
        s = SetForm.interval(0.2, 0.6)
        assert s.contains(0.2) and s.contains(0.4) and s.contains(0.6)
        assert s.contains(0.6 + 1e-12)
        assert not s.contains(0.7)

    def test_pair_excludes_gap(self):
        s = SetForm.pair(0.0, 1.0)
        assert s.contains(0.0) and s.contains(1.0) and not s.contains(0.5)

    def test_empty(self):
        assert not SetForm.empty().contains(0.0)


class TestIntersect:
    def test_point_with_interval_endpoint(self):
        # endpoint coincidences must survive float noise
        assert same(SetForm.point(0.6).intersect(SetForm.interval(0.3, 0.6)), SetForm.point(0.6))
        assert SetForm.point(0.6 + 1e-12).intersect(SetForm.interval(0.3, 0.6)).is_point

    def test_pair_with_interval(self):
        pair = SetForm.pair(0.2, 0.8)
        assert same(pair.intersect(SetForm.interval(0.0, 1.0)), pair)
        assert same(pair.intersect(SetForm.interval(0.5, 1.0)), SetForm.point(0.8))
        assert pair.intersect(SetForm.interval(0.3, 0.7)).is_empty

    def test_interval_with_interval(self):
        a, b = SetForm.interval(0.0, 0.6), SetForm.interval(0.6, 1.0)
        assert same(a.intersect(b), SetForm.point(0.6))
        assert same(a.intersect(SetForm.interval(0.2, 0.4)), SetForm.interval(0.2, 0.4))
        assert a.intersect(SetForm.interval(0.7, 1.0)).is_empty

    def test_pair_with_pair(self):
        assert same(SetForm.pair(0.0, 1.0).intersect(SetForm.pair(0.0, 0.5)), SetForm.point(0.0))
        assert SetForm.pair(0.0, 1.0).intersect(SetForm.pair(0.2, 0.5)).is_empty

    def test_anything_with_empty(self):
        assert SetForm.interval(0.0, 1.0).intersect(SetForm.empty()).is_empty

    def test_commutative(self):
        cases = [SetForm.empty(), SetForm.point(0.4), SetForm.pair(0.2, 0.8),
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
        assert SetForm.pair(0.1, 0.4).issubset(SetForm.interval(0.0, 0.5))
        assert not SetForm.pair(0.1, 0.6).issubset(SetForm.interval(0.0, 0.5))
        assert SetForm.point(0.4).issubset(SetForm.pair(0.4, 0.9))

    def test_intervals(self):
        assert SetForm.interval(0.2, 0.4).issubset(SetForm.interval(0.0, 0.5))
        assert not SetForm.interval(0.2, 0.6).issubset(SetForm.interval(0.0, 0.5))
        assert not SetForm.interval(0.2, 0.4).issubset(SetForm.pair(0.2, 0.4))
        assert not SetForm.interval(0.2, 0.4).issubset(SetForm.empty())


class TestSnap:
    def test_snaps_within_tolerance(self):
        s = SetForm.pair(0.2 + 1e-12, 0.8).snap((0.2, 0.8))
        assert s.lo == 0.2 and s.hi == 0.8

    def test_leaves_distant_values(self):
        assert SetForm.point(0.3).snap((0.2, 0.8)).lo == 0.3


class TestFormatting:
    @pytest.mark.parametrize("form,text", [
        (SetForm.empty(), "∅"),
        (SetForm.point(0.6), "{0.6}"),
        (SetForm.pair(0.0, 0.8), "{0,0.8}"),
        (SetForm.interval(0.4, 1.0), "[0.4,1]"),
        (SetForm.point(1 - 0.28284271247461906), "{0.717157}"),
    ])
    def test_str(self, form, text):
        assert str(form) == text

    @pytest.mark.parametrize("form", [
        SetForm.empty(), SetForm.point(0.6), SetForm.pair(0.0, 0.8),
        SetForm.interval(0.4, 1.0),
    ])
    def test_parse_round_trip(self, form):
        assert same(parse(str(form)), form)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse("(0,1)")

    def test_no_negative_zero(self):
        assert str(SetForm.point(-0.0)) == "{0}"
