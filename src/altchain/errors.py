"""Shared exception types.

The command line front end maps these onto exit codes: format problems
exit with 2, blown enumeration budgets with 3.
"""


class FormatError(ValueError):
    """Malformed complex, cochain, matrix or presentation input."""


class DegreeCapError(ValueError):
    """An operation would need generators beyond the enumerated degree cap."""


class BudgetExceededError(RuntimeError):
    """Generator enumeration would exceed the configured budget.

    Carries a lower bound on the generator count the request needs, the
    running total at the first degree that passed the budget.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs at least {required} generators, budget is {budget}"
        )
        self.required = required
        self.budget = budget
