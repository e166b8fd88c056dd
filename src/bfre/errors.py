"""Exception types shared across modules."""


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured size cap."""

    def __init__(self, bound, cap):
        super().__init__(f"enumeration bound {bound} exceeds cap {cap}")
        self.bound = bound
        self.cap = cap


class InconsistentReduction(RuntimeError):
    """A simplification fixed a variable outside its column interval.

    This signals a bug in the reduction machinery, never a user error.
    """
