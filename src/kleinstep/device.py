"""Transport model of a gated graphene sheet with a gate-defined potential step.

Diffusive ohmic sheet at zero temperature and low bias: sheet conductivity
sigma = n e mu with the carrier density set by the back gate, n = alpha |V_b|.
For normal incidence the step is transparent (unit transmission), so the I-V
characteristic is that of the bare sheet; the step shows up only in the
angular dependence of the current, computed from the current-labelled
step transmission.
"""

from dataclasses import dataclass

import numpy as np

from kleinstep.common import first_point, require_finite
from kleinstep.graphene import (
    DEFAULT_MATERIAL,
    GrapheneMaterial,
    angle_kinematics,
    energy_from_wavelength,
    t_paper,
    transmission_probability,
)

__all__ = [
    "AngularProfile",
    "DeviceParams",
    "ELEMENTARY_CHARGE",
    "angular_current_profile",
    "carrier_type",
    "iv_curve",
    "sheet_conductivity",
]

ELEMENTARY_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True)
class DeviceParams:
    """Sheet parameters: mobility in cm^2/(V s), gate coefficient in cm^-2 V^-1."""

    mobility: float = 15000.0
    gate_coefficient: float = 7.3e10
    back_gate: float = 0.0  # V_b, volts
    aspect_ratio: float = 1.0  # W / L
    elementary_charge: float = ELEMENTARY_CHARGE

    def __post_init__(self):
        require_finite(**vars(self))
        if not self.mobility > 0:
            raise ValueError("mobility must be positive")
        if not self.gate_coefficient > 0:
            raise ValueError("gate coefficient must be positive")
        if not self.aspect_ratio > 0:
            raise ValueError("aspect ratio W/L must be positive")


@dataclass(frozen=True)
class AngularProfile:
    """One float array per field, one cell per angle of the grid."""

    theta: np.ndarray  # radians
    relative_current: np.ndarray  # I(theta) / I(0)
    transmission: np.ndarray  # current-labelled step transmission T(theta)


def carrier_type(params: DeviceParams) -> str:
    """'electron' for V_b > 0, 'hole' for V_b < 0, 'neutral' at V_b = 0."""
    if params.back_gate > 0:
        return "electron"
    if params.back_gate < 0:
        return "hole"
    return "neutral"


def sheet_conductivity(params: DeviceParams) -> float:
    """sigma = alpha |V_b| e mu in siemens per square (cm^-2 * C * cm^2/Vs = S).

    V_b = 0 gives a vanishing carrier density and zero conductivity; allowed,
    see carrier_type() for the 'neutral' flag.
    """
    density = params.gate_coefficient * abs(params.back_gate)
    return density * params.elementary_charge * params.mobility


def iv_curve(params: DeviceParams, V_grid) -> np.ndarray:
    """Ohmic I = sigma (W/L) V in amperes for each bias in V_grid; sign follows the bias."""
    return sheet_conductivity(params) * params.aspect_ratio * np.asarray(V_grid, dtype=float)


def angular_current_profile(
    V0: float,
    theta_grid,
    lambda_F: float | None = None,
    E: float | None = None,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> AngularProfile:
    """I(theta)/I(0) across the step, from the current-labelled transmission.

    The profile also carries the transmission T(theta) it was computed from.
    The whole grid and the theta = 0 reference are one array evaluation.

    Exactly one of lambda_F (nm) or E (eV) fixes the Fermi level.  Angles
    beyond the critical angle carry no transmitted wave and raise ValueError
    (the default device parameters have none).
    """
    if (lambda_F is None) == (E is None):
        raise ValueError("give exactly one of lambda_F or E")
    if E is None:
        E = energy_from_wavelength(lambda_F, material)
    thetas = np.array(theta_grid, dtype=float).ravel()
    ak = angle_kinematics(E, V0, np.concatenate(([0.0], thetas)), material)
    if not ak.propagating.all():
        (theta,) = first_point(~ak.propagating, ak.theta_I)
        raise ValueError(f"incidence angle {theta} rad lies beyond the critical angle")
    transmission = transmission_probability(t_paper(ak), ak)
    values = transmission[1:]
    return AngularProfile(thetas, values / transmission[0], values)
