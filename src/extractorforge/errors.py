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


def _count_text(count: int, shift: int = 0) -> str:
    """count * 2^shift in decimal while it fits 64 bits, else as 2^e or "over 2^e"."""
    bits = count.bit_length() + shift
    if bits <= 64:
        return str(count << shift)
    return f"2^{bits - 1}" if count & (count - 1) == 0 else f"over 2^{bits - 1}"


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration of needed * 2^shift items exceeds its budget.

    Enumeration never silently falls back to sampling; the caller must
    either raise the budget or shrink the instance.
    """

    def __init__(self, needed: int, budget: int, what: str = "enumeration", shift: int = 0):
        super().__init__(f"{what} needs {_count_text(needed, shift)} items, "
                         f"exceeding the budget of {_count_text(budget)}")


def check_rules(*rules: tuple[bool, str, str]) -> None:
    """Raise InfeasibleParameterError for the first (holds, message,
    constraint) rule that does not hold."""
    for holds, message, constraint in rules:
        if not holds:
            raise InfeasibleParameterError(message, constraint)
