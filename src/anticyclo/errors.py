"""Shared exception types.

Every error here marks a *diagnosable* condition with a distinct remedy:
raising the working precision, shrinking a search space, or fixing an
input file.  Plain ``ValueError`` is used for ordinary argument mistakes.
"""


class PrecisionError(ArithmeticError):
    """A quantity is indistinguishable from zero at the working precision.

    The computation is not wrong, just undecidable at precision N; retry
    with a larger N.
    """


class NotInvertibleError(ArithmeticError):
    """Inverse requested for a non-unit (residue divisible by p)."""


class SearchSpaceError(ValueError):
    """A search request lies beyond the configured size guard."""


class ModelInvariantError(ValueError):
    """A model file or constructed model violates its declared invariants."""


class UndeterminedError(RuntimeError):
    """A decision procedure could neither certify nor refute its claim."""
