"""Shared exception types, and the base of the package's value types.

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


class Record:
    """Immutable value: its fields are the class annotations, in order, set
    by position or keyword (a class attribute is the default); ``==`` and
    ``hash`` compare them, ``repr`` shows those not in ``_unshown``."""

    _fields, _defaults, _unshown = (), {}, ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: vars(cls)[n] for n in cls._fields if n in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(values)

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        return (self._values() == other._values()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields
                          if n not in self._unshown)
        return f"{type(self).__qualname__}({shown})"
