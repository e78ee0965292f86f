"""Transport model of a gated graphene sheet with a gate-defined potential step.

Diffusive ohmic sheet at zero temperature and low bias: sheet conductivity
sigma = n e mu with the carrier density set by the back gate, n = alpha |V_b|.
For normal incidence the step is transparent (unit transmission), so the I-V
characteristic is that of the bare sheet; the step shows up only in the
angular dependence of the current, computed from the current-labelled
step transmission.
"""

from typing import NamedTuple

import numpy as np

from kleinstep.common import _require, _validated_make, unwrap

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


class DeviceParams(NamedTuple("DeviceParams", [
        ("mobility", float), ("gate_coefficient", float), ("back_gate", float),
        ("aspect_ratio", float), ("elementary_charge", float)])):
    """Sheet parameters: mobility in cm^2/(V s), gate coefficient in cm^-2 V^-1; arrays broadcast."""

    __slots__ = ()

    def __new__(cls, mobility: float = 15000.0, gate_coefficient: float = 7.3e10,
                back_gate: float = 0.0,  # V_b, volts
                aspect_ratio: float = 1.0,  # W / L
                elementary_charge: float = ELEMENTARY_CHARGE):
        self = super().__new__(cls, mobility, gate_coefficient, back_gate, aspect_ratio,
                               elementary_charge)
        _require(*self._fields,
                 (mobility > 0, "mobility must be positive"),
                 (gate_coefficient > 0, "gate coefficient must be positive"),
                 (aspect_ratio > 0, "aspect ratio W/L must be positive"),
                 **self._asdict())
        return self

    _make = classmethod(_validated_make)


class AngularProfile(NamedTuple):
    """One cell per angle of the grid. relative_current is the transmission array itself,
    since T(0) = 1: writing into either field changes the other."""

    theta: np.ndarray  # radians
    relative_current: np.ndarray  # I(theta) / I(0)
    transmission: np.ndarray  # current-labelled step transmission T(theta)


def carrier_type(params: DeviceParams) -> str:
    """'electron' for V_b > 0, 'hole' for V_b < 0, 'neutral' at V_b = 0; per cell for arrays."""
    types = np.array(["hole", "neutral", "electron"])
    return unwrap(types[np.sign(params.back_gate).astype(int) + 1])


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
    material=None,
) -> AngularProfile:
    """I(theta)/I(0) across the step, from the current-labelled transmission.

    Klein tunnelling at normal incidence gives T(0) = 1, so I(theta)/I(0) is
    T(theta): the profile holds that one array under both of its names.

    Exactly one of lambda_F (nm) or E (eV) fixes the Fermi level.  ``material``
    is a graphene.GrapheneMaterial, graphene.DEFAULT_MATERIAL when None.  Angles
    beyond the critical angle carry no transmitted wave and raise ValueError
    (the default device parameters have none).
    """
    # only this function needs graphene; an iv-curve launch loads none of it. Not
    # ``from kleinstep import graphene``: the package's __getattr__ would load every module
    import kleinstep.graphene as graphene
    material = graphene.DEFAULT_MATERIAL if material is None else material
    if (lambda_F is None) == (E is None):
        raise ValueError("give exactly one of lambda_F or E")
    if E is None:
        E = graphene.energy_from_wavelength(lambda_F, material)
    thetas = np.array(theta_grid, dtype=float).ravel()
    ak = graphene.angle_kinematics(E, V0, thetas, material)
    _require((ak.propagating, "incidence angle {theta} rad lies beyond the critical angle"),
             theta=ak.theta_I)
    transmission = graphene.transmission_probability(graphene.t_paper(ak), ak)
    return AngularProfile(thetas, transmission, transmission)
