"""The exception for a failed internal invariant."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect of the package,
    never a sign of bad input."""
