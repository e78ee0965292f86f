"""Gated-sheet transport model: conductivity, I-V families, angular profile."""

import math

import numpy as np
import pytest

from kleinstep.device import DeviceParams, carrier_type, iv_curve, sheet_conductivity
from kleinstep.graphene import GrapheneMaterial, energy_from_wavelength
from kleinstep.junction import (angle_kinematics, angular_current_profile, t_paper,
                                transmission_probability)
from oracles import fermi_energy

# frozen from tests/oracles.py: alpha |V_b| e mu at V_b = 0.2 V
SIGMA_02_REF = 3.50876682846e-05
T_45_REF = 0.7279251574477086
T_80_REF = 0.21048421502075365


def test_sheet_conductivity_reference():
    assert sheet_conductivity(DeviceParams(back_gate=0.2)) == pytest.approx(
        SIGMA_02_REF, rel=1e-12
    )


def test_zero_back_gate_is_neutral():
    params = DeviceParams(back_gate=0.0)
    assert sheet_conductivity(params) == 0.0
    assert carrier_type(params) == "neutral"


def test_conductivity_linear_in_back_gate():
    s1 = sheet_conductivity(DeviceParams(back_gate=0.1))
    s3 = sheet_conductivity(DeviceParams(back_gate=0.3))
    assert s3 / s1 == pytest.approx(3.0, rel=1e-12)


def test_carrier_type_tracks_gate_sign():
    assert carrier_type(DeviceParams(back_gate=0.2)) == "electron"
    assert carrier_type(DeviceParams(back_gate=-0.2)) == "hole"


def test_carrier_type_cells_equal_zero_d_calls():
    gates = np.array([[0.2, -0.0], [-0.2, 0.0]])
    types = carrier_type(DeviceParams(back_gate=gates))
    assert types.tolist() == [["electron", "neutral"], ["hole", "neutral"]]
    for cell in np.ndindex(gates.shape):
        single = carrier_type(DeviceParams(back_gate=float(gates[cell])))
        assert type(single) is str and types[cell] == single


def test_iv_family_rows_equal_per_gate_curves():
    gates, grid = np.array([0.1, -0.2, 0.0, 0.3]), np.linspace(-5e-3, 5e-3, 7)
    family = iv_curve(DeviceParams(back_gate=gates[:, None], aspect_ratio=2.0), grid)
    assert family.shape == (gates.size, grid.size)
    for row, gate in zip(family, gates.tolist()):
        assert row.tobytes() == iv_curve(DeviceParams(back_gate=gate, aspect_ratio=2.0),
                                         grid).tobytes()


def test_iv_reference_point():
    currents = iv_curve(DeviceParams(back_gate=0.2), [1e-3])
    assert currents[0] == pytest.approx(3.50876682846e-08, rel=1e-12)


def test_iv_linearity_and_origin():
    params = DeviceParams(back_gate=0.15, aspect_ratio=2.0)
    currents = iv_curve(params, [0.0, 1e-3, 2e-3])
    assert currents.dtype == np.float64 and currents.shape == (3,)
    assert currents[0] == 0.0
    assert currents[2] == pytest.approx(2.0 * currents[1], rel=1e-12)
    assert iv_curve(params, [-1e-3])[0] == -currents[1]  # direction follows polarity


def test_iv_slope_family_ratios():
    grid = np.linspace(0.0, 5e-3, 11)
    slopes = []
    for v_back in (0.1, 0.2, 0.3):
        slopes.append(np.polyfit(grid, iv_curve(DeviceParams(back_gate=v_back), grid), 1)[0])
    assert slopes[1] / slopes[0] == pytest.approx(2.0, rel=1e-10)
    assert slopes[2] / slopes[0] == pytest.approx(3.0, rel=1e-10)


def test_angular_profile_reference_points():
    thetas = [0.0, math.radians(45.0), math.radians(80.0)]
    profile = angular_current_profile(energy_from_wavelength(50.0), 0.3, thetas)
    assert profile.transmission[0] == 1.0
    assert profile.transmission[1] == pytest.approx(T_45_REF, rel=1e-12)
    assert profile.transmission[2] == pytest.approx(T_80_REF, rel=1e-12)
    assert profile.theta.tolist() == thetas
    energy = energy_from_wavelength(50.0)
    for theta, transmission in zip(profile.theta.tolist(), profile.transmission.tolist()):
        ak = angle_kinematics(energy, 0.3, theta)
        assert transmission == transmission_probability(t_paper(ak), ak)
    # T(theta) is free of hbar v_F, so the default material shows only where a wavevector
    # overflows: k_F = E / hbar v_F at E = 1.183e308 eV is beyond float range for graphene's
    # 0.6578 eV nm, not for 0.66
    with pytest.raises(FloatingPointError):
        angular_current_profile(1.183e308, 0.5e308, [0.3])
    wide = angular_current_profile(1.183e308, 0.5e308, [0.3], GrapheneMaterial(0.66))
    assert wide.transmission[0] > 0.0


def test_angular_profile_is_float_arrays():
    profile = angular_current_profile(0.08, 0.3, np.radians([[10.0, 20.0], [30.0, 40.0]]))
    for values in profile:
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == (4,)
    # T(0) = 1, so I(theta)/I(0) is T(theta): one field, not an alias of another
    assert profile._fields == ("theta", "transmission")


def test_angular_profile_even_and_bounded():
    thetas = np.radians(np.linspace(-85.0, 85.0, 35))
    profile = angular_current_profile(energy_from_wavelength(50.0), 0.3, thetas)
    values = profile.transmission
    assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)
    np.testing.assert_allclose(values, values[::-1], atol=1e-12)


def test_lambda_and_energy_are_exclusive():
    # the Fermi energy is the one way to fix the Fermi level: the old call shapes fail loudly
    thetas = [0.0, 0.5]
    with pytest.raises(TypeError):
        angular_current_profile(0.3, thetas, lambda_F=50.0)
    with pytest.raises(TypeError):
        angular_current_profile(0.3, thetas, lambda_F=50.0, E=0.08)
    with pytest.raises(TypeError):
        angular_current_profile(0.3, thetas, E=0.08)


def test_energy_input_equivalent_to_wavelength():
    # lambda_F = 50 nm gives E = hbar v_F 2 pi / lambda_F, the oracle's closed form
    direct = angular_current_profile(fermi_energy(50.0), 0.3, [0.5])
    via_wavelength = angular_current_profile(energy_from_wavelength(50.0), 0.3, [0.5])
    assert direct.transmission[0] == via_wavelength.transmission[0]


def test_angle_beyond_critical_rejected():
    # shallow step: critical angle 30 degrees
    with pytest.raises(ValueError, match="critical"):
        angular_current_profile(0.3, 0.45, [math.radians(60.0)])


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DeviceParams(mobility=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(aspect_ratio=0.0)
    with pytest.raises(ValueError, match="^gate coefficient must be positive$"):
        DeviceParams(gate_coefficient=0.0)
