"""Exception types shared across the package."""


class FieldMismatchError(ValueError):
    """Raised when arithmetic mixes elements of different field widths."""


class InfeasibleParameterError(ValueError):
    """Raised when a builder cannot satisfy its parameter constraints.

    The ``constraint`` attribute names the violated constraint so callers
    (and the CLI) can report it.
    """

    def __init__(self, message: str, constraint: str = ""):
        super().__init__(message)
        self.constraint = constraint or message


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed its explicit budget.

    Enumeration never silently falls back to sampling; the caller must
    either raise the budget or shrink the instance.
    """

    def __init__(self, needed: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} needs {needed} items, exceeding the budget of {budget}"
        )
        self.needed = needed
        self.budget = budget


def check_rules(*rules: tuple[bool, str, str]) -> None:
    """Raise InfeasibleParameterError for the first (holds, message,
    constraint) rule that does not hold."""
    for holds, message, constraint in rules:
        if not holds:
            raise InfeasibleParameterError(message, constraint)
