"""Transport model of a gated graphene sheet with a gate-defined potential step.

Diffusive ohmic sheet at zero temperature and low bias: sheet conductivity
sigma = n e mu with the carrier density set by the back gate, n = alpha |V_b|.
For normal incidence the step is transparent (unit transmission), so the I-V
characteristic is that of the bare sheet; the step shows up only in the
angular dependence of the current, which is junction.angular_current_profile.
"""

from typing import NamedTuple

import numpy as np

from kleinstep.common import _require, _validated_make, unwrap

__all__ = [
    "DeviceParams",
    "ELEMENTARY_CHARGE",
    "carrier_type",
    "iv_curve",
    "sheet_conductivity",
]

ELEMENTARY_CHARGE = 1.602176634e-19  # C


class DeviceParams(NamedTuple("DeviceParams", [
        ("mobility", float), ("gate_coefficient", float), ("back_gate", float),
        ("aspect_ratio", float)])):
    """Sheet parameters: mobility in cm^2/(V s), gate coefficient in cm^-2 V^-1; arrays broadcast."""

    __slots__ = ()

    def __new__(cls, mobility: float = 15000.0, gate_coefficient: float = 7.3e10,
                back_gate: float = 0.0,  # V_b, volts
                aspect_ratio: float = 1.0):  # W / L
        self = super().__new__(cls, mobility, gate_coefficient, back_gate, aspect_ratio)
        _require(*self._fields,
                 (mobility > 0, "mobility must be positive"),
                 (gate_coefficient > 0, "gate coefficient must be positive"),
                 (aspect_ratio > 0, "aspect ratio W/L must be positive"),
                 **self._asdict())
        return self

    _make = classmethod(_validated_make)


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
    return density * ELEMENTARY_CHARGE * params.mobility


def iv_curve(params: DeviceParams, V_grid) -> np.ndarray:
    """Ohmic I = sigma (W/L) V in amperes for each bias in V_grid; sign follows the bias."""
    return sheet_conductivity(params) * params.aspect_ratio * np.asarray(V_grid, dtype=float)

