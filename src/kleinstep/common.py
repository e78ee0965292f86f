"""Shared tags, error types and input checks used across the scattering modules."""

import cmath
from enum import Enum

__all__ = ["Convention", "SingularityError"]


class Convention(Enum):
    """Which state counts as the forward (transmitted) wave beyond a step.

    PAPER labels it by propagation direction (group velocity / current),
    which keeps R and T inside [0, 1] in the Klein regime.  COMMON labels
    it by momentum sign, the textbook choice that produces the classic
    negative transmission and above-unity reflection.
    """

    PAPER = "paper"
    COMMON = "common"


class SingularityError(ArithmeticError):
    """A matching denominator vanished; R/T cannot be evaluated at this point.

    ``denominator`` names the expression that became singular so callers
    (and the CLI) can report it.
    """

    def __init__(self, denominator: str, detail: str = ""):
        self.denominator = denominator
        message = f"singular denominator: {denominator}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


def require_finite(**values: complex) -> None:
    """Raise ValueError naming the first keyword argument that is nan or infinite.

    Real and complex values are both accepted; a complex value must have a
    finite real and imaginary part.
    """
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
