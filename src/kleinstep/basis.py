"""Reflectionless scattering-basis modes u+-z, v+-z of the Klein step and their currents.

Each mode crosses the step without reflection. Its current +-(2 kappa/pi)/(kappa + 1)^2
is z-independent, and the currents cancel pairwise (u+z with v-z, u-z with v+z).
"""

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from kleinstep.common import unwrap
from kleinstep.dirac import current_density, make_spinor2
from kleinstep.step import StepProblem, _kappa_klein, _klein, kappa

__all__ = [
    "BasisKind",
    "BasisState",
    "mode_current",
    "mode_current_closed_form",
    "scattering_basis_state",
]


class BasisKind(Enum):
    U_PLUS = "u+z"
    U_MINUS = "u-z"
    V_PLUS = "v+z"
    V_MINUS = "v-z"


class BasisState(NamedTuple):
    """Plane waves of a basis state, one array of shape problem.shape + (2, 2) per field.

    Axis -2 is the region (0: z < 0, 1: z >= 0), axis -1 the plane wave; a
    region with one wave holds amplitude 0 for the other.  Wave (r, w) is
    amplitude * (upper, lower) * exp(i wavevector z).
    """

    amplitude: np.ndarray
    wavevector: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def value(self, z, region=None) -> tuple[np.ndarray, np.ndarray]:
        """(upper, lower) components at z, each of shape problem.shape + z.shape.

        The region is 1 where z >= 0 and 0 elsewhere unless ``region`` gives
        it, so both one-sided limits at z = 0 can be taken.
        """
        z = np.asarray(z, dtype=float)
        cells = (...,) + (None,) * z.ndim + (slice(None), slice(None))
        phase = self.amplitude[cells] * np.exp(1j * self.wavevector[cells] * z[..., None, None])
        waves = [(phase * c[cells]).sum(axis=-1) for c in (self.upper, self.lower)]
        second = z >= 0 if region is None else region
        return tuple(np.where(second, w[..., 1], w[..., 0]) for w in waves)


def scattering_basis_state(kind: BasisKind, problem: StepProblem) -> BasisState:
    """Reflectionless particle (u) / antiparticle (v) modes of the Klein step.

    Built from the printed coefficients 2 sqrt(kappa)/(kappa+1) and
    (kappa-1)/(kappa+1) with the region normalization factors
    {2 pi [2 p (E-m)]}^(-1/2) and {2 pi [2 q |E-V0-m|]}^(-1/2) folded in.
    A +z mode and its -z partner differ only in the sign of every
    wavevector.  The printed coefficients alone leave the two regions with
    opposite signs at z = 0, so region II's amplitudes carry the overall
    sign -1 that makes the state continuous there.

    The state is formed at unit scale (see step._cells) and scaled back exactly:
    amplitudes go as 1/energy, wavevectors and spinors as energy.
    """
    kind = BasisKind(kind)
    shape, e, E, m, p, q, eps = _klein(problem, "scattering basis states need the Klein regime")
    k = _kappa_klein(E, m, eps)
    n1 = 1.0 / (np.sqrt(4.0 * math.pi * p) * np.sqrt(E - m))  # p (E - m) may underflow
    n2 = -1.0 / (np.sqrt(4.0 * math.pi * q) * np.sqrt(np.abs(eps - m)))  # times the sign -1
    lone = 2.0 * np.sqrt(k) / (k + 1.0)  # single-wave region amplitude
    pair = (k - 1.0) / (k + 1.0)  # partner-wave amplitude in u states, -pair in v states
    s = 1.0 if kind in (BasisKind.U_PLUS, BasisKind.V_PLUS) else -1.0  # direction of travel
    zero = np.zeros_like(k)
    # waves of spinor wavevector (s p, -s p) in region I and (s q, -s q) in region II
    if kind in (BasisKind.U_PLUS, BasisKind.U_MINUS):
        amplitude = ((n1 * lone, zero), (n2 * pair, n2))
    else:
        amplitude = ((n1, -n1 * pair), (zero, n2 * lone))
    kz = np.stack([np.stack([s * p, -s * p], -1), np.stack([s * q, -s * q], -1)], -2)
    upper, lower = make_spinor2(np.stack([E, eps], -1)[..., None], kz, m[:, None, None])
    # the spinor of kz goes as exp(i kz z) in region I and as exp(-i kz z) in region II
    wavevector = kz * np.array([[1.0], [-1.0]])
    amplitude = np.stack([np.stack(region, -1) for region in amplitude], -2)
    e = e[:, None, None]
    # the Klein regime's spinors are real: their real parts scale without a complex overflow
    fields = (np.ldexp(amplitude, -e), np.ldexp(wavevector, e),
              *(np.ldexp(c.real, e).astype(complex) for c in (upper, lower)))
    return BasisState(*(a.reshape(shape + (2, 2)) for a in fields))


_SAMPLE_POINTS = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)


def mode_current(kind: BasisKind, problem: StepProblem) -> float:
    """The z-independent current of a basis state per cell: its mean over _SAMPLE_POINTS.

    One evaluation over cells x sample points; a scalar problem gives a float."""
    state = scattering_basis_state(kind, problem)
    return unwrap(current_density(state.value(_SAMPLE_POINTS)).mean(axis=-1))


def mode_current_closed_form(kind: BasisKind, problem: StepProblem) -> float:
    """+-(2 kappa / pi)/(kappa + 1)^2, sign set by the propagation subscript."""
    kind = BasisKind(kind)
    k = kappa(problem)
    magnitude = (2.0 * k / math.pi) / (k + 1.0) ** 2
    sign = 1.0 if kind in (BasisKind.U_PLUS, BasisKind.V_PLUS) else -1.0
    return sign * magnitude
