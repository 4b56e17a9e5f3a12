"""The errors that `cli.main` maps to exit codes, kept apart from numpy.

Each class is defined here and imported back by the module that raises it
(`numtheory`, `screen`, `permgroup`, `search`), so `cli` can catch them all
without importing the group stack.
"""


class FactorizationError(ArithmeticError):
    """A composite cofactor resisted every splitting attempt allowed."""


class ScreenError(ValueError):
    pass


class NonDivisibleError(ScreenError):
    """|H0| does not divide |X|: the case is structurally vacuous."""


class CapExceededError(RuntimeError):
    """Group closure grew past the configured enumeration cap."""


class CandidateExplosionError(RuntimeError):
    """A subgroup class yields more orbit-union candidates than the guard allows."""
