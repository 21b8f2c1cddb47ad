"""Exception types shared across the package."""

import math


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
            raise BudgetExceeded(f"{_count(required)} {what} exceed the budget of {cap}",
                                 required=required)


def _count(n: int) -> str:
    """A positive count written out, or above 30 digits named by its digit
    count: str() of an int of more than 4,300 digits raises ValueError."""
    if n < 10 ** 30:
        return str(n)
    digits = int(math.log10(n)) + 1  # the float logarithm may be off by one
    if 10 ** (digits - 1) > n:
        digits -= 1
    elif 10 ** digits <= n:
        digits += 1
    return f"a {digits}-digit number of"
