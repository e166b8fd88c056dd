"""Shared comparison tolerance.

Every branch decision of the form a >= b, every set-identity test and every
endpoint snap in this package compares against the single tolerance ``EPS``
below.  It can be overridden globally with the BFRE_EPS environment variable,
read once at import.
"""

import os

DEFAULT_EPS = 1e-9

EPS = float(os.environ.get("BFRE_EPS", DEFAULT_EPS))
