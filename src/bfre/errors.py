"""Exception types shared across modules, and the enumeration cap."""

DEFAULT_CAP = 10 ** 6    # largest enumeration a cap-taking function allows by default


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured size cap."""

    def __init__(self, bound, cap):
        super().__init__(f"enumeration bound {bound} exceeds cap {cap}")
        self.bound = bound
        self.cap = cap


class InconsistentReduction(RuntimeError):
    """A result failed one of the solver's own consistency checks: a
    simplification fixed a variable outside its column interval, the lifted
    optimum failed the final direct check against the original equations,
    or the resolution tables disagreed with a direct evaluation.

    It can come from a bug in the reduction machinery, but valid input at
    the edges of the small-parameter domains raises it too: on a 1x5
    yager(0.01) instance the tables admit a point that the direct check
    refuses, and the table cross-check raises.  The CLI reports it as one
    error line with exit code 1.
    """
