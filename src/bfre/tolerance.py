"""Shared comparison tolerance.

Every branch decision of the form a >= b, every set-identity test and every
endpoint snap in this package compares against the single tolerance ``EPS``
below.  A term with coefficient a reaches a right-hand side b when
fl(a - b) >= -EPS: cell resolution, ``solve_u`` and the direct check of a
point all decide reach by this one test.  EPS can be overridden globally
with the BFRE_EPS environment variable, read once at import; only finite
values in [EPS_MIN, EPS_MAX] are accepted.  Any other value makes the
import raise ``EpsRefused``, a ``ValueError`` to library code that ends a
program it escapes with one ``error:`` line and exit code 1.
"""

import math
import os

DEFAULT_EPS = 1e-9
EPS_MIN, EPS_MAX = 1e-12, 1e-3


class EpsRefused(SystemExit, ValueError):
    """BFRE_EPS is not a number in [EPS_MIN, EPS_MAX].

    Caught as a ``ValueError`` whose message names the value; uncaught, the
    interpreter prints ``error: <message>`` alone and exits with code 1.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.code = f"error: {message}"


def _read_eps(raw: str) -> float:
    """The tolerance BFRE_EPS names; EpsRefused outside [EPS_MIN, EPS_MAX]."""
    try:
        eps = float(raw)
    except ValueError:
        eps = math.nan
    if not EPS_MIN <= eps <= EPS_MAX:
        raise EpsRefused(f"BFRE_EPS={raw!r} is not a number in [{EPS_MIN:g}, {EPS_MAX:g}]")
    return eps


EPS = _read_eps(os.environ.get("BFRE_EPS", str(DEFAULT_EPS)))
