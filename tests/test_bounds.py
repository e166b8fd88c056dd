"""The ordered fold and the restrict of ``bfre.sets`` at the tolerance edge.

``fold`` takes each intersection left to right, and ``restrict`` is an
intersection snapped onto the column's bounds; both must give, to the bit,
what the reference helpers of ``setforms`` build with the constructors.  The
bounds are drawn within a few EPS of each other, where the tolerance rules
decide every outcome.  ``TestPieces`` checks sets of up to three pieces,
``TestRestrictColumn`` restricts whole columns of mixed cells at once, and
``TestOneToleranceTest`` puts a point one EPS beside a column's bound.
"""

import math
from functools import reduce

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bfre.sets import SetForm, fold, piece, restrict
from bfre.tolerance import EPS

from setforms import bits, constructed_intersect, constructed_snap, pair

RULES = settings(max_examples=400, derandomize=True, database=None, deadline=None)

# centres on the unit grid and its ends, ±0.0 among them
_CENTRES = st.sampled_from([0.0, -0.0, 0.2, 0.5, 0.55, 1.0]) | st.floats(0.0, 1.0)
# offsets in units of EPS: exact multiples, and the values just beside them
_STEPS = (st.sampled_from([0.0, 0.5, -0.5, 0.8, -0.8, 1.0, -1.0, 1.5, -2.0, 3.0])
          | st.floats(-3.0, 3.0))


@st.composite
def near_bounds(draw, count):
    """``count`` floats within 3 EPS of one centre, each possibly nudged by
    one ulp either way, or replaced by 0.0 or 1.0."""
    c = draw(_CENTRES)
    out = []
    for _ in range(count):
        v = c + draw(_STEPS) * EPS
        nudge = draw(st.sampled_from([0, 0, 1, -1]))
        if nudge:
            v = math.nextafter(v, nudge * math.inf)
        out.append(draw(st.sampled_from([v, v, v, v, 0.0, 1.0])))
    return out


@st.composite
def near_forms(draw):
    """A non-empty point, pair or interval and a non-empty point or
    interval, all four bounds near one centre."""
    a, b, c, d = draw(near_bounds(4))
    make = draw(st.sampled_from(["point", "pair", "interval"]))
    s = (SetForm.point(a) if make == "point" else
         pair(a, b) if make == "pair" else SetForm.interval(*sorted((a, b))))
    col = SetForm.interval(*sorted((c, d)))
    return s, col


class TestIntervalBounds:
    @RULES
    @given(near_bounds(2))
    def test_matches_constructor(self, bounds):
        lo, hi = bounds
        want = () if lo - hi > EPS else (lo, lo) if hi - lo <= EPS else (lo, hi)
        assert [v.hex() for v in piece(lo, hi)] == [v.hex() for v in want]
        assert bits(SetForm.interval(lo, hi)) == bits(SetForm(want))


class TestFoldIntervals:
    @staticmethod
    def reference(bounds) -> SetForm:
        return reduce(lambda acc, b: constructed_intersect(acc, SetForm.interval(*b)), bounds,
                      SetForm.interval(0.0, 1.0))

    @RULES
    @given(st.integers(0, 6).flatmap(lambda k: near_bounds(2 * k)))
    def test_matches_intersect_in_order(self, flat):
        bounds = list(zip(flat[::2], flat[1::2]))
        want = bits(self.reference(bounds))
        # raw bounds, as resolution hands them over, and constructed sets
        assert bits(fold(bounds)) == want
        assert bits(fold([SetForm.interval(*b) for b in bounds])) == want

    def test_not_associative(self):
        # (0, 1) ∩ [.5, .5 + .5ε] is the point .5, which [.5 + .8ε, 1] still
        # holds within EPS; a plain max/min fold keeps .5 + .8ε instead
        bounds = [(0.5, 0.5 + 0.5 * EPS), (0.5 + 0.8 * EPS, 1.0)]
        assert bits(fold(bounds)) == bits(SetForm.point(0.5))
        assert bits(self.reference(bounds)) == bits(SetForm.point(0.5))
        lo = max(b[0] for b in bounds)
        hi = min(b[1] for b in bounds)
        assert bits(SetForm.interval(lo, hi)) == bits(SetForm.point(0.5 + 0.8 * EPS))

    def test_empty_input_is_the_unit_interval(self):
        assert bits(fold([])) == ("interval", (0.0).hex(), (1.0).hex())

    def test_crossed_operand_empties(self):
        assert not fold([(0.2, 0.6), (0.6, 0.2)])


class TestRestrictBounds:
    @RULES
    @given(near_forms())
    def test_matches_intersect_then_snap(self, forms):
        s, col = forms
        if not col:
            return
        want = constructed_snap(constructed_intersect(s, col), (col[0], col[-1]))
        assert bits(restrict(col, [s])[0]) == bits(want), (s, col)

    def test_pair_snapped_onto_one_column_bound_collapses(self):
        # both pair values lie within EPS of the column's lower bound
        s = pair(0.5, 0.5 + 1.5 * EPS)
        col = SetForm.interval(0.5 + 0.8 * EPS, 0.9)
        (got,) = restrict(col, [s])
        assert got.is_point and got[0] is col[0]
        assert bits(constructed_snap(constructed_intersect(s, col), (col[0], col[-1]))) == bits(got)

    def test_pair_kept_whole(self):
        two = pair(0.2, 0.8)
        assert restrict(SetForm.interval(0.0, 1.0), [two])[0] is two


@st.composite
def near_pieces(draw, centre):
    """A set of up to three sorted, disjoint pieces, each a point or wider
    than EPS and more than EPS from the next, every bound within 4 EPS of
    ``centre``."""
    count = draw(st.integers(0, 3))
    flat = sorted(centre + draw(st.integers(-16, 16)) * 0.25 * EPS for _ in range(2 * count))
    out = []
    for lo, hi in zip(flat[::2], flat[1::2]):
        if draw(st.booleans()) or hi - lo <= EPS:
            hi = lo
        assume(not out or lo - out[-1] > EPS)
        out += lo, hi
    return SetForm(out)


def _pair_of_sets():
    return st.sampled_from([0.0, 0.3, 0.5, 1.0]).flatmap(
        lambda c: st.tuples(near_pieces(c), near_pieces(c)))


class TestPieces:
    """Intersections of sets of up to three pieces, as two-piece cells will
    make them."""

    @staticmethod
    def far_points(*sets):
        """Sample points more than EPS from every bound of ``sets``."""
        bounds = [v for s in sets for v in s]
        if not bounds:
            return []
        c = bounds[0]
        grid = (c + (k + 0.125) * 0.25 * EPS for k in range(-24, 24))
        return [v for v in grid if all(abs(v - b) > EPS for b in bounds)]

    @RULES
    @given(_pair_of_sets())
    def test_sorted_disjoint_and_membership(self, sets):
        a, b = sets
        r = a.intersect(b)
        assert len(r) % 2 == 0
        assert all(r[k] <= r[k + 1] for k in range(0, len(r), 2)), (a, b, r)
        assert all(r[k - 1] < r[k] for k in range(2, len(r), 2)), (a, b, r)
        for v in self.far_points(a, b):
            assert r.contains(v) == (a.contains(v) and b.contains(v)), (a, b, r, v)


def _hexes(s) -> tuple:
    """Every bound of ``s`` as float.hex: equality to the bit, any shape."""
    return tuple(v.hex() for v in s)


@st.composite
def near_cell(draw, centre):
    """A non-empty point, pair, interval or set of up to three pieces, every
    bound within 4 EPS of ``centre``, as a ``SetForm`` or a plain tuple."""
    near = lambda: centre + draw(st.integers(-16, 16)) * 0.25 * EPS
    make = draw(st.sampled_from(["point", "pair", "interval", "pieces"]))
    s = (SetForm.point(near()) if make == "point" else
         pair(near(), near()) if make == "pair" else
         SetForm.interval(*sorted((near(), near()))) if make == "interval" else
         draw(near_pieces(centre)))
    assume(s)
    return s if draw(st.booleans()) else tuple(s)


@st.composite
def near_column(draw):
    """A point or interval column and a column of 1 to 6 mixed cells, every
    bound within 4 EPS of one centre."""
    centre = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    lo, hi = sorted(centre + draw(st.integers(-16, 16)) * 0.25 * EPS for _ in range(2))
    col = SetForm.point(lo) if draw(st.booleans()) else SetForm.interval(lo, hi)
    return col, draw(st.lists(near_cell(centre), min_size=1, max_size=6))


class TestRestrictColumn:
    """``restrict(col, cells)`` cuts a whole column of mixed cells, each
    through the fold, then the snap."""

    @RULES
    @given(near_column())
    def test_matches_intersect_then_snap(self, column):
        col, cells = column
        got = restrict(col, cells)
        assert len(got) == len(cells)
        for cell, r in zip(cells, got):
            want = constructed_snap(constructed_intersect(SetForm(cell), col), (col[0], col[-1]))
            assert type(r) is SetForm
            assert _hexes(r) == _hexes(want), (cell, col, r, want)
            assert _hexes(restrict(col, [cell])[0]) == _hexes(r)

    @RULES
    @given(near_column())
    def test_unchanged_cell_is_itself_and_snapped_bounds_are_the_columns(self, column):
        col, cells = column
        for cell, r in zip(cells, restrict(col, cells)):
            for v in r:
                if abs(v - col[0]) <= EPS:
                    assert v is col[0], (cell, col, r)
                elif abs(v - col[1]) <= EPS:
                    assert v is col[1], (cell, col, r)
            unpinned = all(abs(v - t) > EPS for v in cell for t in col)
            if type(cell) is SetForm and unpinned and _hexes(r) == _hexes(cell):
                assert r is cell, (cell, col, r)

    def test_pair_collapsed_by_the_snap_is_its_lower_point(self):
        # both points lie within EPS of the column's lower bound
        col = SetForm.interval(0.5, 0.5 + 3.0 * EPS)
        two = pair(0.5 - 0.6 * EPS, 0.5 + 0.8 * EPS)
        assert two.is_pair
        (got,) = restrict(col, [two])
        assert got.is_point and got[0] is col[0]

    def test_interval_plus_point_is_not_a_pair(self):
        # four bounds, but the first piece is an interval: the fold's path
        cell = SetForm((0.2, 0.4, 0.6, 0.6))
        (got,) = restrict(SetForm.interval(0.3, 1.0), [cell])
        assert _hexes(got) == _hexes((0.3, 0.4, 0.6, 0.6))

    def test_cells_of_every_shape_against_one_column(self):
        col = SetForm.interval(0.2, 0.8)
        cells = [(0.5, 0.5), (0.9, 0.9), (0.1, 0.1, 0.5, 0.5), (0.3, 0.7),
                 (0.0, 0.1, 0.4, 0.4, 0.7, 0.9), ()]
        assert [_hexes(r) for r in restrict(col, cells)] == [
            _hexes(x) for x in ((0.5, 0.5), (), (0.5, 0.5), (0.3, 0.7),
                                (0.4, 0.4, 0.7, 0.8), ())]


class TestOneToleranceTest:
    """contains, restrict and snap decide "within EPS of a bound" by the one
    difference test: at v = fl(hi ± EPS) and fl(lo ∓ EPS) a point the column
    contains is restricted onto the column, as the snap puts it, and any
    other point is cut."""

    @RULES
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]),
           st.booleans())
    def test_contains_restrict_and_snap_agree(self, a, b, sign, at_hi):
        col = SetForm.interval(*sorted((a, b)))
        lo, hi = col[0], col[-1]
        v = hi + sign * EPS if at_hi else lo - sign * EPS
        (got,) = restrict(col, [(v, v)])
        snapped = SetForm.point(v).snap((lo, hi))
        inside = lo <= snapped[0] <= hi
        assert col.contains(v) == inside, (col, v)
        assert _hexes(got) == (_hexes(snapped) if inside else ()), (col, v, got)
