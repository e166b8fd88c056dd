"""SetForm helpers shared by the tests: the display spelling parsed back
into a set, and set equality up to the package tolerance."""

from bfre.sets import SetForm
from bfre.tolerance import EPS


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
            return SetForm.pair(vals[0], vals[1])
    raise ValueError(f"unparseable set form: {text!r}")


def same(a: SetForm, b: SetForm) -> bool:
    """Set equality up to tolerance."""
    if a.kind != b.kind:
        return False
    if a.is_empty:
        return True
    return abs(a.lo - b.lo) <= EPS and abs(a.hi - b.hi) <= EPS
