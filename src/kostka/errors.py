"""The exceptions that tell a defect of the package from an exhausted
budget."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect of the package,
    never a sign of bad input."""


class BudgetError(RuntimeError):
    """A computation would exceed a fixed budget, such as the cap on the
    witness tableaux that bound_tableaux lists."""
