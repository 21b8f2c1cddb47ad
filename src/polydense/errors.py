"""Exception types shared across the package."""


class PolydenseError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(PolydenseError):
    """Operands live in different ambient dimensions."""


class DegenerateInput(PolydenseError):
    """Input is structurally degenerate for the requested operation (e.g. v == w)."""


class BudgetExceeded(PolydenseError):
    """An exact enumeration or search would exceed its configured budget.

    ``required`` carries the size the request would have needed.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required

    @staticmethod
    def check(required: int, cap: int, what: str) -> None:
        """The guard every exhaustive computation calls before any work."""
        if required > cap:
            raise BudgetExceeded(f"{required} {what} exceed the budget of {cap}",
                                 required=required)
