"""Shared tags, error types, input checks and array-call helpers of the scattering modules."""

import math
from enum import Enum

import numpy as np

__all__ = ["Convention", "SingularityError"]

# graphene's hbar v_F in eV nm: hbar c ~= 197.327 eV nm over 300 (v_F ~= c/300), 4 digits.
# Kept here so the CLI's --hbar-vF default loads no physics module; graphene exports it.
HBAR_VF_EV_NM = 0.6578


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


def require_finite(**values) -> None:
    """Raise ValueError naming the first keyword argument that is nan or infinite.

    Real and complex values are both accepted; a complex value must have a
    finite real and imaginary part.  An array argument is named with its
    first non-finite element.
    """
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            finite = np.isfinite(value)
            if not finite.all():
                (bad,) = first_point(~finite, value)
                raise ValueError(f"{name} must be finite, got {bad}")
        elif not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{name} must be finite, got {value}")


def first_point(mask: np.ndarray, *arrays: np.ndarray) -> list:
    """The elements of ``arrays`` at the first true cell of ``mask``, as Python scalars.

    Cells are taken in C order, which is sweep order for the CLI's grids.
    """
    index = int(np.flatnonzero(mask)[0])
    return [unwrap(np.broadcast_to(array, mask.shape).flat[index]) for array in arrays]


def broadcast(*arrays: np.ndarray) -> list[np.ndarray]:
    """np.broadcast_arrays, without its cost when the shapes already agree."""
    if all(array.shape == arrays[0].shape for array in arrays):
        return list(arrays)
    return np.broadcast_arrays(*arrays)


def _flat(*values, dtype=float) -> tuple[tuple, list[np.ndarray]]:
    """The broadcast shape of the values, and each value broadcast to it and flattened."""
    arrays = broadcast(*(np.asarray(value, dtype=dtype) for value in values))
    return arrays[0].shape, [array.ravel() for array in arrays]


def _shaped(shape: tuple, *arrays: np.ndarray) -> list:
    """Flat results back in the arguments' shape; a 0-d result as a Python scalar."""
    if not shape:
        return [array.item() for array in arrays]
    return [array.reshape(shape) for array in arrays]


def _require(valid: np.ndarray, validate, *arrays: np.ndarray) -> None:
    """Run ``validate`` on the first invalid cell in C order; it raises that cell's error."""
    if not valid.all():
        validate(*first_point(~valid, *arrays))


def _validated_make(cls, iterable):
    """A NamedTuple's ``_make``, and so its ``_replace``, through the class: ``__new__`` checks run."""
    return cls(*iterable)


def unwrap(value):
    """A 0-d result as a Python scalar; an array of any other shape unchanged."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value
