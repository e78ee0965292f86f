"""Shared tags, error types, input checks and array-call helpers of the scattering modules."""

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


# Each kind of bad cell: its error's class and arguments.  A 0-d call raises it
# where an array call holds the kernel's documented sentinel, and the CLI's
# fail-fast raises it from a sweep's own sentinels.
_BAD_CELLS = {
    "kappa": (SingularityError, "1 + kappa", "R and T diverge at kappa = -1"),
    "kappa_prime": (SingularityError, "1 + kappa_prime",
                    "massless Klein step in the momentum-labelled convention"),
    "t_common": (SingularityError, "s_I exp(-i theta_I) + s_II exp(i theta_II)",
                 "transmitted amplitude diverges at normal incidence for 0 < E < V0"),
    "t_paper": (SingularityError, "exp(-i theta_I) + exp(-i theta_II)"),
    "non_propagating": (ValueError, "no propagating transmitted wave at this angle"),
}


def _raise_where(bad, kind: str) -> None:
    """Raise the error of bad-cell ``kind`` (a key of _BAD_CELLS) if any cell of ``bad`` is set."""
    if np.any(bad):
        error, *args = _BAD_CELLS[kind]
        raise error(*args)


def _flat(*values, dtype=float) -> tuple[tuple, list[np.ndarray]]:
    """The broadcast shape of the values, and each value broadcast to it and flattened.

    ``dtype`` is every value's dtype, or a tuple of one per value.  A value of
    another shape is filled into an array of that shape: the copy that ravel
    makes of a broadcast view, without the view.
    """
    dtypes = dtype if isinstance(dtype, tuple) else (dtype,) * len(values)
    arrays = [np.asarray(value, dtype=d) for value, d in zip(values, dtypes, strict=True)]
    shape = np.broadcast(*arrays).shape
    return shape, [(array if array.shape == shape else np.full(shape, array, array.dtype)).ravel()
                   for array in arrays]


def _shaped(shape: tuple, *arrays: np.ndarray) -> list:
    """Flat results back in the arguments' shape; a 0-d result as a Python scalar."""
    if not shape:
        return [array.item() for array in arrays]
    return [array.reshape(shape) for array in arrays]


def _unit_scale(scale: np.ndarray, *arrays: np.ndarray) -> tuple:
    """e, the exponent of each cell of ``scale``, and each array times 2^-e: exact, so scale-free."""
    e = np.frexp(scale)[1]
    return e, [np.ldexp(array, -e) for array in arrays]


def _require(*rules, **cells) -> None:
    """Raise ValueError for the first cell in C order that breaks a rule.

    ``cells`` are arrays (or scalars) that broadcast to the rules' shape.  A
    rule is a (mask, message) pair over them, or a cell's name for the rule
    "<name> must be finite, got <value>" (a complex value needs both parts
    finite).  The error is the cell's first broken rule, its message
    formatted with str.format from the cell's values as Python scalars.
    """
    masks, valid = [], None
    for rule in rules:
        mask = np.isfinite(cells[rule]) if isinstance(rule, str) else rule[0]
        masks.append(mask)
        valid = mask if valid is None else valid & mask
    if np.count_nonzero(valid) == valid.size:  # valid.all(), at a third of its cost on one cell
        return
    index = int(np.flatnonzero(~valid)[0])  # C order: sweep order for the CLI's grids
    point = [unwrap(np.broadcast_to(array, valid.shape).flat[index])
             for array in (*masks, *cells.values())]
    values = dict(zip(cells, point[len(rules):]))
    rule = next(rule for rule, ok in zip(rules, point) if not ok)
    message = f"{rule} must be finite, got {{{rule}}}" if isinstance(rule, str) else rule[1]
    raise ValueError(message.format(**values))


def _validated_make(cls, iterable):
    """A NamedTuple's ``_make``, and so its ``_replace``, through the class: ``__new__`` checks run."""
    return cls(*iterable)


def unwrap(value):
    """A 0-d result as a Python scalar; an array of any other shape unchanged."""
    return np.asarray(value).item() if np.ndim(value) == 0 else value
