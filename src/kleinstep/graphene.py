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
space and give identical transmission; barrier solvers for both are kept as
separate code paths so that equivalence stays a checkable property.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from kleinstep.common import Convention, SingularityError, require_finite

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

# hbar c ~= 197.327 eV nm divided by 300 (v_F ~= c/300), rounded to 4 digits
HBAR_VF_EV_NM = 0.6578


@dataclass(frozen=True)
class GrapheneMaterial:
    hbar_vF: float = HBAR_VF_EV_NM  # eV nm

    def __post_init__(self):
        require_finite(**vars(self))
        if not self.hbar_vF > 0:
            raise ValueError("hbar_vF must be positive")


DEFAULT_MATERIAL = GrapheneMaterial()


@dataclass(frozen=True)
class AngleKinematics:
    """Wavevectors and angles on both sides of a potential step.

    When ``propagating`` is false, k_xII holds the transverse decay rate and
    theta_II is nan.
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
    """Fermi energy for a Fermi wavelength lambda_F (nm): E = hbar v_F 2 pi / lambda_F."""
    require_finite(lambda_F=lambda_F)
    if not lambda_F > 0:
        raise ValueError("Fermi wavelength must be positive")
    return material.hbar_vF * 2.0 * math.pi / lambda_F


def angle_kinematics(
    E: float, V0: float, theta_I: float, material: GrapheneMaterial = DEFAULT_MATERIAL
) -> AngleKinematics:
    """Kinematics for incidence angle theta_I in (-pi/2, pi/2), electron side E > 0."""
    require_finite(E=E, V0=V0, theta_I=theta_I)
    if not E > 0:
        raise ValueError("electron incidence only: E must be positive")
    if not abs(theta_I) < math.pi / 2:
        raise ValueError("incidence angle must lie in (-pi/2, pi/2)")
    hv = material.hbar_vF
    k_F = E / hv
    k_y = k_F * math.sin(theta_I)
    local = E - V0
    s_II = 1 if local > 0 else (-1 if local < 0 else 0)
    kx_sq = (local / hv) ** 2 - k_y * k_y
    if kx_sq > 0:
        return AngleKinematics(
            theta_I, k_F, k_y, math.sqrt(kx_sq), math.atan2(k_y, math.sqrt(kx_sq)),
            1, s_II, True,
        )
    return AngleKinematics(
        theta_I, k_F, k_y, math.sqrt(-kx_sq), math.nan, 1, s_II, False
    )


def t_common(ak: AngleKinematics) -> complex:
    """Momentum-labelled amplitude 2 s_I cos(th_I)/[s_I e^{-i th_I} + s_II e^{i th_II}].

    The denominator vanishes at normal incidence in the Klein zone
    (s_II = -1, theta_I = theta_II = 0); that point raises SingularityError.
    """
    if not ak.propagating:
        raise ValueError("no propagating transmitted wave at this angle")
    den = ak.s_I * cmath.exp(-1j * ak.theta_I) + ak.s_II * cmath.exp(1j * ak.theta_II)
    if abs(den) < 1e-12:
        raise SingularityError(
            "s_I exp(-i theta_I) + s_II exp(i theta_II)",
            "transmitted amplitude diverges at normal incidence for 0 < E < V0",
        )
    return 2.0 * ak.s_I * math.cos(ak.theta_I) / den


def t_paper(ak: AngleKinematics) -> complex:
    """Current-labelled amplitude 2 cos(th_I)/[e^{-i th_I} + e^{-i th_II}]; 1 at normal incidence."""
    if not ak.propagating:
        raise ValueError("no propagating transmitted wave at this angle")
    den = cmath.exp(-1j * ak.theta_I) + cmath.exp(-1j * ak.theta_II)
    # |den| = 2 cos((th_I - th_II)/2) > 0 for angles below pi/2; checked, not assumed
    if abs(den) < 1e-12:
        raise SingularityError("exp(-i theta_I) + exp(-i theta_II)")
    return 2.0 * math.cos(ak.theta_I) / den


def transmission_probability(t: complex, ak: AngleKinematics) -> float:
    """T = |t|^2 cos(theta_II) / cos(theta_I).

    Reported raw: the momentum-labelled convention can exceed 1 in the Klein
    zone, which is the pathology this library exists to exhibit.
    """
    cos_in = math.cos(ak.theta_I)
    if cos_in == 0.0:
        raise ValueError("grazing incidence: cos(theta_I) = 0")
    if not ak.propagating:
        raise ValueError("no propagating transmitted wave at this angle")
    return abs(t) ** 2 * math.cos(ak.theta_II) / cos_in


def critical_angle(E: float, V0: float) -> float | None:
    """arcsin(|E - V0| / E) when |E - V0| < E, else None (all angles propagate)."""
    require_finite(E=E, V0=V0)
    if not E > 0:
        raise ValueError("electron incidence only: E must be positive")
    ratio = abs(E - V0) / E
    if ratio < 1.0:
        return math.asin(ratio)
    return None


# --------------------------------------------------------------------------
# finite-width barrier: two-interface matching


@dataclass(frozen=True)
class BarrierSolution:
    """Amplitudes of the two-interface matching; R = |r|^2, T = |t|^2."""

    r: complex
    t: complex
    R: float
    T: float
    interior_propagating: bool


def _lower_component(hv: float, k_x: complex, k_y: float, eps: float) -> complex:
    # eigenstate of hv (sigma_x k_x + sigma_y k_y) at energy eps: (1, hv (k_x + i k_y)/eps)
    return hv * (k_x + 1j * k_y) / eps


def solve_barrier(
    E: float,
    V0: float,
    D: float,
    theta_I: float,
    convention: Convention = Convention.PAPER,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> BarrierSolution:
    """Match both spinor components at x = 0 and x = D for a width-D barrier.

    The interior pair of states is referenced at its own interface (the
    growing/decaying exponentials never exceed unit magnitude), so the 4x4
    system stays well conditioned for evanescent interiors.  E = V0 makes
    the interior spinors degenerate and raises ValueError.  The interior
    wavevector (or decay rate) is angle_kinematics' k_xII.
    """
    ak = angle_kinematics(E, V0, theta_I, material)
    require_finite(D=D)
    if not D > 0:
        raise ValueError("barrier width D must be positive")
    if ak.s_II == 0:
        raise ValueError("E = V0: interior states are degenerate at the Dirac point")
    convention = Convention(convention)
    hv = material.hbar_vF
    eps2 = E - V0
    k_y = ak.k_y
    k_1 = ak.k_F * math.cos(theta_I)

    if not ak.propagating:
        k_fwd = 1j * ak.k_xII  # decaying to the right; same for both conventions
    elif ak.s_II < 0 and convention is Convention.PAPER:
        # hole-like interior: the conventions disagree on which state is forward
        k_fwd = complex(-ak.k_xII)
    else:
        k_fwd = complex(ak.k_xII)

    fwd1 = np.array([1.0, _lower_component(hv, k_1, k_y, E)], dtype=complex)
    bwd1 = np.array([1.0, _lower_component(hv, -k_1, k_y, E)], dtype=complex)
    fwd2 = np.array([1.0, _lower_component(hv, k_fwd, k_y, eps2)], dtype=complex)
    bwd2 = np.array([1.0, _lower_component(hv, -k_fwd, k_y, eps2)], dtype=complex)
    phase = cmath.exp(1j * k_fwd * D)  # |phase| <= 1 by construction

    # unknowns (r, A, B, t); interior written A fwd2 e^{i k x} + B bwd2 e^{-i k (x-D)}
    matrix = np.zeros((4, 4), dtype=complex)
    rhs = np.zeros(4, dtype=complex)
    matrix[0:2, 0] = bwd1
    matrix[0:2, 1] = -fwd2
    matrix[0:2, 2] = -phase * bwd2
    rhs[0:2] = -fwd1
    matrix[2:4, 1] = phase * fwd2
    matrix[2:4, 2] = bwd2
    matrix[2:4, 3] = -fwd1
    r, _, _, t = np.linalg.solve(matrix, rhs)

    return BarrierSolution(
        complex(r), complex(t), float(abs(r) ** 2), float(abs(t) ** 2), ak.propagating
    )


def barrier_transmission(
    E: float,
    V0: float,
    D: float,
    theta_I: float,
    convention: Convention = Convention.PAPER,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> float:
    """Transmission probability through a width-D barrier; lies in [0, 1]."""
    return solve_barrier(E, V0, D, theta_I, convention, material).T
