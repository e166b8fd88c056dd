"""Shared comparison tolerance.

Every branch decision of the form a >= b, every set-identity test and every
endpoint snap in this package compares against the single tolerance ``EPS``
below.  It can be overridden globally with the BFRE_EPS environment variable,
read once at import; only finite values in [EPS_MIN, EPS_MAX] are accepted.
"""

import math
import os

DEFAULT_EPS = 1e-9
EPS_MIN, EPS_MAX = 1e-12, 1e-3


def _read_eps(raw: str) -> float:
    """The tolerance BFRE_EPS names; ValueError outside [EPS_MIN, EPS_MAX]."""
    try:
        eps = float(raw)
    except ValueError:
        eps = math.nan
    if not EPS_MIN <= eps <= EPS_MAX:
        raise ValueError(f"BFRE_EPS={raw!r} is not a number in [{EPS_MIN:g}, {EPS_MAX:g}]")
    return eps


EPS = _read_eps(os.environ.get("BFRE_EPS", str(DEFAULT_EPS)))
