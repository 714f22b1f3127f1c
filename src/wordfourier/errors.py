"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse/usage problems exit 1,
group or character-table validation failures exit 2, enumeration budget
overruns and coefficients past the float range exit 3.
"""


class WordSyntaxError(ValueError):
    """Malformed word text.  Carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ReductionError(ValueError):
    """A reduction rule was applied to a word that does not admit it."""


class GroupValidationError(ValueError):
    """A multiplication table fails the group axioms or the file format."""


class TableValidationError(ValueError):
    """A character table fails orthogonality, degree, or format checks."""


class CharacterComputationError(RuntimeError):
    """Character-table computation failed to separate eigenvalues."""


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured evaluation budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"enumeration needs {needed} evaluations, budget is {budget}"
        )
        self.needed = needed
        self.budget = budget


class FloatRangeError(ArithmeticError):
    """A coefficient lies past the float range."""
