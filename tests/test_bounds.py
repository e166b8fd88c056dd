"""The float-level set rules of ``bfre.sets`` against the set algebra.

``interval_bounds``, ``fold_intervals`` and ``restrict_bounds`` must give,
to the bit, what ``SetForm.interval``, a left-to-right ``intersect`` and
``intersect`` plus ``snap`` give.  The bounds are drawn within a few EPS of
each other, where the tolerance rules decide every outcome.
"""

import math
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from bfre.sets import (
    EMPTY, PAIR, POINT, SetForm, fold_intervals, from_bounds, interval_bounds,
    restrict_bounds,
)
from bfre.tolerance import EPS

from setforms import bits

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


def triple_bits(t) -> tuple:
    kind, lo, hi = t
    return kind, lo.hex(), hi.hex()


@st.composite
def near_forms(draw):
    """A non-empty point, pair or interval and a non-empty point or
    interval, all four bounds near one centre."""
    a, b, c, d = draw(near_bounds(4))
    make = draw(st.sampled_from(["point", "pair", "interval"]))
    s = (SetForm.point(a) if make == "point" else
         SetForm.pair(a, b) if make == "pair" else SetForm.interval(*sorted((a, b))))
    col = SetForm.interval(*sorted((c, d)))
    return s, col


class TestIntervalBounds:
    @RULES
    @given(near_bounds(2))
    def test_matches_constructor(self, bounds):
        lo, hi = bounds
        t = interval_bounds(lo, hi)
        assert triple_bits(t) == bits(SetForm.interval(lo, hi))
        assert bits(from_bounds(*t)) == bits(SetForm.interval(lo, hi))


class TestFoldIntervals:
    @staticmethod
    def reference(bounds) -> SetForm:
        return reduce(lambda acc, b: acc.intersect(SetForm.interval(*b)), bounds,
                      SetForm.interval(0.0, 1.0))

    @RULES
    @given(st.integers(0, 6).flatmap(lambda k: near_bounds(2 * k)))
    def test_matches_intersect_in_order(self, flat):
        bounds = list(zip(flat[::2], flat[1::2]))
        assert triple_bits(fold_intervals(bounds)) == bits(self.reference(bounds))

    def test_not_associative(self):
        # (0, 1) ∩ [.5, .5 + .5ε] is the point .5, which [.5 + .8ε, 1] still
        # holds within EPS; a plain max/min fold keeps .5 + .8ε instead
        bounds = [(0.5, 0.5 + 0.5 * EPS), (0.5 + 0.8 * EPS, 1.0)]
        assert fold_intervals(bounds) == (POINT, 0.5, 0.5)
        assert bits(self.reference(bounds)) == bits(SetForm.point(0.5))
        lo = max(b[0] for b in bounds)
        hi = min(b[1] for b in bounds)
        assert triple_bits(interval_bounds(lo, hi)) == bits(SetForm.point(0.5 + 0.8 * EPS))

    def test_empty_input_is_the_unit_interval(self):
        assert fold_intervals([]) == ("interval", 0.0, 1.0)

    def test_crossed_operand_empties(self):
        assert fold_intervals([(0.2, 0.6), (0.6, 0.2)])[0] is EMPTY


class TestRestrictBounds:
    @RULES
    @given(near_forms())
    def test_matches_intersect_then_snap(self, forms):
        s, col = forms
        if col.is_empty:
            return
        got = restrict_bounds(s.kind, s.lo, s.hi, col.kind, col.lo, col.hi)
        want = s.intersect(col).snap((col.minimum(), col.maximum()))
        assert triple_bits(got) == bits(want), (s, col)

    def test_pair_snapped_onto_one_column_bound_collapses(self):
        # both pair values lie within EPS of the column's lower bound
        s = SetForm.pair(0.5, 0.5 + 1.5 * EPS)
        col = SetForm.interval(0.5 + 0.8 * EPS, 0.9)
        got = restrict_bounds(s.kind, s.lo, s.hi, col.kind, col.lo, col.hi)
        assert got == (POINT, col.lo, col.lo)
        assert bits(s.intersect(col).snap((col.lo, col.hi))) == triple_bits(got)

    def test_pair_kept_whole(self):
        assert restrict_bounds(PAIR, 0.2, 0.8, "interval", 0.0, 1.0) == (PAIR, 0.2, 0.8)
