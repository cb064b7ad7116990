"""The exceptions that tell a defect of the package from an exhausted
budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect of the package,
    never a sign of bad input."""


class BudgetError(RuntimeError):
    """A computation would exceed a caller-set budget such as the
    witness-tableau cap."""
