"""Shared comparison tolerance.

Every branch decision of the form a >= b, every set-identity test and every
endpoint snap in this package compares against the single tolerance ``EPS``
below.  A term with coefficient a reaches a right-hand side b when
fl(a - b) >= -EPS: cell resolution, ``solve_u`` and the direct check of a
point all decide reach by this one test.
"""

EPS = 1e-9
