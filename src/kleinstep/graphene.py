"""Graphene under gate-defined potentials: the material, the kinematics and the barrier.

Massless two-dimensional Dirac carriers with linear dispersion E = s hbar v_F |k|;
energies in eV, lengths in nm, with hbar*v_F as the single material constant.
Electron incidence only (E > 0).  The transverse wavevector k_y = k_F sin(theta_I)
is conserved; beyond the step the longitudinal wavevector is
k_xII = sqrt((E - V0)^2 / (hbar v_F)^2 - k_y^2), real when propagating.

For a barrier of finite width both conventions of kleinstep.junction span the
same interior state space and give identical transmission, so the barrier is
solved once, through the interior's transfer matrix, which labels no interior
state; the tests check that equivalence against an eigenbasis product in each
labelling.

Every kernel takes numpy arrays that broadcast together and works cell by
cell; scalars are the 0-d case and give Python scalars.  Where a 0-d call
raises at a singular or non-propagating point (the error of its kind in
common._BAD_CELLS), an array cell holds a sentinel instead (see each
function), so one such cell does not end a sweep.
The kinematics are formed with E and V0 at unit scale, an exact power-of-two
rescale, so angles and transmissions are the same bits at any energy scale.
"""

import math
from typing import NamedTuple

import numpy as np

from kleinstep.common import (
    HBAR_VF_EV_NM,
    _flat,
    _require,
    _shaped,
    _unit_scale,
    _validated_make,
    unwrap,
)

__all__ = [
    "BarrierSolution",
    "DEFAULT_MATERIAL",
    "GrapheneMaterial",
    "HBAR_VF_EV_NM",
    "energy_from_wavelength",
    "solve_barrier",
]

class GrapheneMaterial(NamedTuple("GrapheneMaterial", [("hbar_vF", float)])):
    __slots__ = ()

    def __new__(cls, hbar_vF: float = HBAR_VF_EV_NM):  # eV nm
        _require("hbar_vF", (hbar_vF > 0, "hbar_vF must be positive"), hbar_vF=hbar_vF)
        return super().__new__(cls, hbar_vF)

    _make = classmethod(_validated_make)


DEFAULT_MATERIAL = GrapheneMaterial()


def energy_from_wavelength(lambda_F: float, material: GrapheneMaterial = DEFAULT_MATERIAL) -> float:
    """Fermi energy E = hbar v_F 2 pi / lambda_F (nm); FloatingPointError beyond float range."""
    _require("lambda_F", (lambda_F > 0, "Fermi wavelength must be positive"), lambda_F=lambda_F)
    with np.errstate(over="raise"):
        return unwrap(np.divide(material.hbar_vF * 2.0 * math.pi, lambda_F))


def _electron(E) -> tuple:
    """The _require rule E > 0 of electron incidence."""
    return E > 0, "electron incidence only: E must be positive"


def _incidence(E, V0, theta_I) -> list:
    """The _require rules of incidence at theta_I: finite E, V0, theta_I; E > 0; |theta_I| < pi/2."""
    return ["E", "V0", "theta_I", _electron(E),
            (np.abs(theta_I) < math.pi / 2, "incidence angle must lie in (-pi/2, pi/2)")]


def _check_barrier(E, V0, D, theta_I) -> None:
    """_require the barrier's rules: incidence at theta_I, then D finite and D > 0."""
    _require(*_incidence(E, V0, theta_I), "D", (D > 0, "barrier width D must be positive"),
             E=E, V0=V0, D=D, theta_I=theta_I)


def _kinematics(E, V0, theta_I, hv):
    """(e, E, V0, k_F, k_y, k_xII, theta_II, s_II, propagating) of validated flat arrays.

    E, V0 and the wavevectors are at unit scale: E and V0 times 2^-e, e the
    exponent of max(E, |V0|).  So the energy scale takes no square out of
    float range, and every angle and ratio is the same bits at any scale.
    """
    e, (E, V0) = _unit_scale(np.maximum(E, np.abs(V0)), E, V0)
    k_F = E / hv
    k_y = k_F * np.sin(theta_I)
    local = E - V0
    kx_sq = (local / hv) ** 2 - k_y * k_y
    propagating = kx_sq > 0
    k_xII = np.sqrt(np.where(propagating, kx_sq, -kx_sq))
    theta_II = np.where(propagating, np.arctan2(k_y, k_xII), math.nan)
    return e, E, V0, k_F, k_y, k_xII, theta_II, np.sign(local).astype(int), propagating


# --------------------------------------------------------------------------
# finite-width barrier: the interior's transfer matrix


class BarrierSolution(NamedTuple):
    """Amplitudes of the two-interface matching; R = |r|^2, T = |t|^2.

    r is referenced at x = 0 and t at x = D.  Every cell is finite, E = V0 and
    the interior's critical angle (k_xII = 0) included.  For array arguments
    every field is an array of their broadcast shape.
    """

    r: complex
    t: complex
    R: float
    T: float
    interior_propagating: bool


def solve_barrier(
    E: float,
    V0: float,
    D: float,
    theta_I: float,
    *,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> BarrierSolution:
    """Match the leads at x = 0 and x = D through the interior's transfer matrix.

    Inside, psi' = A psi with A = [[k_y, i a], [i a, -k_y]], a = (E - V0)/hbar v_F,
    and A^2 = -k_xII^2, so psi(0) = (c - s A) psi(D) with c = cos(k_xII D) and
    s = sin(k_xII D)/k_xII: both are entire in k_xII^2, so no interior eigenbasis
    is formed and E = V0 and k_xII = 0 are regular cells.  An evanescent interior
    (decay rate k_xII) scales c and s by sigma = exp(-k_xII D), so every factor
    is bounded and a barrier of any width is stable.  Both conventions label the
    same interior states, so r and t take no convention.  The interior
    wavevector is _kinematics' k_xII.

    E, V0, D and theta_I may be arrays that broadcast together.
    """
    shape, (E, V0, D, theta_I) = _flat(E, V0, D, theta_I)
    _check_barrier(E, V0, D, theta_I)
    hv = material.hbar_vF
    with np.errstate(over="raise"):  # a wavevector or k_xII D beyond float range raises, not inf
        e, E, V0, _, k_y, k, _, _, inside = _kinematics(E, V0, theta_I, hv)
        D = np.ldexp(D, e)  # the width in the unit-scale wavevectors' length unit
        kD = k * D
    sigma = np.where(inside, 1.0, np.exp(-kD))
    c = np.where(inside, np.cos(kD), (1.0 + sigma * sigma) / 2)  # sigma cosh(kD) if evanescent
    odd = np.where(inside, np.sin(kD), -np.expm1(-kD) * (1.0 + sigma) / 2)  # or sigma sinh(kD)
    s = D * np.divide(odd, kD, out=np.ones_like(kD), where=kD > 0)  # odd / k, D at k = 0
    a, cos, sin = (E - V0) / hv, np.cos(theta_I), np.sin(theta_I)
    # (1, e^{i theta}) + r (1, -e^{-i theta}) = t (c - s A)(1, e^{i theta}) / sigma, solved for r, t
    den = c * cos - 1j * (s * (a - k_y * sin))
    t = sigma * cos / den
    r = s * (a * sin - k_y) * np.exp(1j * theta_I) / den
    return BarrierSolution(*_shaped(shape, r, t, np.abs(r) ** 2, np.abs(t) ** 2, inside))
