"""Oblique-incidence transmission through gate-defined steps and barriers in graphene.

Massless two-dimensional Dirac carriers with linear dispersion E = s hbar v_F |k|;
energies in eV, lengths in nm, with hbar*v_F as the single material constant.
Electron incidence only (E > 0).  The transverse wavevector k_y = k_F sin(theta_I)
is conserved; beyond the step the longitudinal wavevector is
k_xII = sqrt((E - V0)^2 / (hbar v_F)^2 - k_y^2), real when propagating.

Two conventions for the hole-like transmitted wave are implemented:

* COMMON: t = 2 s_I cos(theta_I) / [s_I e^{-i theta_I} + s_II e^{i theta_II}],
  interior phase +i k_xII x.  Singular at normal incidence for 0 < E < V0.
* PAPER:  t = 2 cos(theta_I) / [e^{-i theta_I} + e^{-i theta_II}],
  interior phase -i k_xII x, equal to 1 at normal incidence.

For a barrier of finite width both conventions span the same interior state
space and give identical transmission, so the barrier is solved once, through
the interior's transfer matrix, which labels no interior state; the tests
check that equivalence against an eigenbasis product in each labelling.

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
    Convention,
    _flat,
    _raise_where,
    _require,
    _shaped,
    _unit_scale,
    _validated_make,
    unwrap,
)

__all__ = [
    "AngleKinematics",
    "BarrierSolution",
    "DEFAULT_MATERIAL",
    "GrapheneMaterial",
    "HBAR_VF_EV_NM",
    "angle_kinematics",
    "barrier_transmission",
    "critical_angle",
    "energy_from_wavelength",
    "solve_barrier",
    "t_common",
    "t_paper",
    "transmission_probability",
]

class GrapheneMaterial(NamedTuple("GrapheneMaterial", [("hbar_vF", float)])):
    __slots__ = ()

    def __new__(cls, hbar_vF: float = HBAR_VF_EV_NM):  # eV nm
        _require("hbar_vF", (hbar_vF > 0, "hbar_vF must be positive"), hbar_vF=hbar_vF)
        return super().__new__(cls, hbar_vF)

    _make = classmethod(_validated_make)


DEFAULT_MATERIAL = GrapheneMaterial()


class AngleKinematics(NamedTuple):
    """Wavevectors and angles on both sides of a potential step.

    When ``propagating`` is false, k_xII holds the transverse decay rate and
    theta_II is nan.  For array arguments every field is an array of their
    broadcast shape.
    """

    theta_I: float
    k_F: float
    k_y: float
    k_xII: float
    theta_II: float
    s_I: int
    s_II: int
    propagating: bool


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


def angle_kinematics(
    E: float, V0: float, theta_I: float, material: GrapheneMaterial = DEFAULT_MATERIAL
) -> AngleKinematics:
    """Kinematics for incidence angle theta_I in (-pi/2, pi/2), electron side E > 0.

    E, V0 and theta_I may be arrays that broadcast together; the first
    invalid cell in C order is the one named in the error.
    """
    shape, (E, V0, theta_I) = _flat(E, V0, theta_I)
    _require(*_incidence(E, V0, theta_I), E=E, V0=V0, theta_I=theta_I)
    with np.errstate(over="raise"):  # a wavevector beyond float range raises, not inf
        e, _, _, *wavevectors, theta_II, s_II, propagating = _kinematics(
            E, V0, theta_I, material.hbar_vF)
        k_F, k_y, k_xII = (np.ldexp(k, e) for k in wavevectors)
    return AngleKinematics(*_shaped(
        shape, theta_I, k_F, k_y, k_xII, theta_II, np.ones_like(s_II), s_II, propagating))


def _amplitude(shape: tuple, propagating, numerator, den_re, den_im, kind: str):
    """numerator / (den_re + i den_im) per cell: inf where singular, 0 where not propagating.

    A 0-d call raises instead: the bad-cell error "non_propagating", or ``kind``'s where singular.
    """
    den = np.empty(propagating.size, dtype=complex)
    den.real, den.imag = den_re, den_im
    singular = propagating & (np.abs(den) < 1e-12)
    if not shape:
        _raise_where(~propagating, "non_propagating")
        _raise_where(singular, kind)
    den[singular] = 1.0
    with np.errstate(invalid="ignore"):  # a non-propagating cell's theta_II is nan
        t = numerator / den
    t[~propagating] = 0.0
    t[singular] = math.inf
    return _shaped(shape, t)[0]


def t_common(ak: AngleKinematics) -> complex:
    """Momentum-labelled amplitude 2 s_I cos(th_I)/[s_I e^{-i th_I} + s_II e^{i th_II}].

    The denominator vanishes at normal incidence in the Klein zone
    (s_II = -1, theta_I = theta_II = 0); that point raises SingularityError,
    and an array cell there holds t = inf.
    """
    shape, (theta_I, theta_II, s_I, s_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.s_I, ak.s_II, ak.propagating, dtype=None)
    cos_I = np.cos(theta_I)
    return _amplitude(
        shape, propagating, 2.0 * s_I * cos_I,
        s_I * cos_I + s_II * np.cos(theta_II),
        s_I * np.sin(-theta_I) + s_II * np.sin(theta_II), "t_common",
    )


def t_paper(ak: AngleKinematics) -> complex:
    """Current-labelled amplitude 2 cos(th_I)/[e^{-i th_I} + e^{-i th_II}]; 1 at normal incidence.

    Raises ValueError where no transmitted wave propagates; an array cell
    there holds t = 0 (and t_common's likewise).
    """
    shape, (theta_I, theta_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.propagating, dtype=None)
    cos_I = np.cos(theta_I)
    # |den| = 2 cos((th_I - th_II)/2) > 0 for angles below pi/2; checked, not assumed
    return _amplitude(
        shape, propagating, 2.0 * cos_I,
        cos_I + np.cos(theta_II), np.sin(-theta_I) + np.sin(-theta_II), "t_paper",
    )


def transmission_probability(t: complex, ak: AngleKinematics) -> float:
    """T = |t|^2 cos(theta_II) / cos(theta_I).

    Reported raw: the momentum-labelled convention can exceed 1 in the Klein
    zone, which is the pathology this library exists to exhibit.  An array
    cell gives T = 0 where no transmitted wave propagates (a 0-d call
    raises) and T = inf from t_common's singular t = inf.
    """
    shape, (theta_I, theta_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.propagating, dtype=None)
    cos_in = np.cos(theta_I)
    _require((cos_in != 0.0, "grazing incidence: cos(theta_I) = 0"))
    if not shape:
        _raise_where(~propagating, "non_propagating")
    t = np.broadcast_to(np.asarray(t, dtype=complex), shape).ravel()
    transmission = np.abs(t) ** 2 * np.cos(theta_II) / cos_in
    transmission[~propagating] = 0.0
    return _shaped(shape, transmission)[0]


def critical_angle(E: float, V0: float) -> float | None:
    """arcsin(|E - V0| / E) per cell where |E - V0| < E; where all angles propagate, nan.

    A 0-d call gives None there instead.  The ratio is taken at unit scale, so
    E - V0 cannot overflow.
    """
    shape, (E, V0) = _flat(E, V0)
    _require("E", "V0", _electron(E), E=E, V0=V0)
    _, (E, V0) = _unit_scale(np.maximum(E, np.abs(V0)), E, V0)
    ratio = np.abs(E - V0) / E
    angle = _shaped(shape, np.where(ratio < 1.0, np.arcsin(np.minimum(ratio, 1.0)), math.nan))[0]
    return None if not shape and math.isnan(angle) else angle


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
    convention: Convention = Convention.PAPER,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> BarrierSolution:
    """Match the leads at x = 0 and x = D through the interior's transfer matrix.

    Inside, psi' = A psi with A = [[k_y, i a], [i a, -k_y]], a = (E - V0)/hbar v_F,
    and A^2 = -k_xII^2, so psi(0) = (c - s A) psi(D) with c = cos(k_xII D) and
    s = sin(k_xII D)/k_xII: both are entire in k_xII^2, so no interior eigenbasis
    is formed and E = V0 and k_xII = 0 are regular cells.  An evanescent interior
    (decay rate k_xII) scales c and s by sigma = exp(-k_xII D), so every factor
    is bounded and a barrier of any width is stable.  Both conventions label the
    same interior states, so r and t do not depend on ``convention``; it is
    still checked.  The interior wavevector is angle_kinematics' k_xII.

    E, V0, D and theta_I may be arrays that broadcast together.
    """
    shape, (E, V0, D, theta_I) = _flat(E, V0, D, theta_I)
    _check_barrier(E, V0, D, theta_I)
    Convention(convention)
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


def barrier_transmission(
    E: float,
    V0: float,
    D: float,
    theta_I: float,
    convention: Convention = Convention.PAPER,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> float:
    """Transmission probability through a width-D barrier, in [0, 1] in every cell."""
    return solve_barrier(E, V0, D, theta_I, convention, material).T
