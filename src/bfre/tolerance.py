"""Shared comparison tolerance.

Every branch decision of the form a >= b, every set-identity test and every
endpoint snap in this package goes through the single tolerance below.  It can
be overridden globally with the BFRE_EPS environment variable (read once at
import).  ``EPS`` is the default of every ``eps`` parameter in the package,
bound when each module is imported; pass ``eps`` explicitly to override it
for one call.
"""

import os

DEFAULT_EPS = 1e-9

EPS = float(os.environ.get("BFRE_EPS", DEFAULT_EPS))


def resolve(eps=None):
    """Return the effective tolerance: the override if given, else the global."""
    return EPS if eps is None else eps
