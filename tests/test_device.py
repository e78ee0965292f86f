"""Gated-sheet transport model: conductivity, I-V families, angular profile."""

import math

import numpy as np
import pytest

from kleinstep.device import (
    DeviceParams,
    angular_current_profile,
    carrier_type,
    iv_curve,
    sheet_conductivity,
)
from kleinstep.graphene import (
    angle_kinematics,
    energy_from_wavelength,
    t_paper,
    transmission_probability,
)

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
    profile = angular_current_profile(0.3, thetas, lambda_F=50.0)
    assert profile.relative_current[0] == 1.0
    assert profile.relative_current[1] == pytest.approx(T_45_REF, rel=1e-12)
    assert profile.relative_current[2] == pytest.approx(T_80_REF, rel=1e-12)
    assert profile.theta.tolist() == thetas
    energy = energy_from_wavelength(50.0)
    for theta, transmission in zip(profile.theta.tolist(), profile.transmission.tolist()):
        ak = angle_kinematics(energy, 0.3, theta)
        assert transmission == transmission_probability(t_paper(ak), ak)


def test_angular_profile_is_float_arrays():
    profile = angular_current_profile(0.3, np.radians([[10.0, 20.0], [30.0, 40.0]]), E=0.08)
    for values in (profile.theta, profile.relative_current, profile.transmission):
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert values.shape == (4,)
    # T(0) = 1, so I(theta)/I(0) is T(theta): one array under both names
    assert profile.relative_current is profile.transmission


def test_angular_profile_even_and_bounded():
    thetas = np.radians(np.linspace(-85.0, 85.0, 35))
    profile = angular_current_profile(0.3, thetas, lambda_F=50.0)
    values = profile.relative_current
    assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)
    np.testing.assert_allclose(values, values[::-1], atol=1e-12)


def test_lambda_and_energy_are_exclusive():
    with pytest.raises(ValueError, match="exactly one"):
        angular_current_profile(0.3, [0.0], lambda_F=50.0, E=0.08)
    with pytest.raises(ValueError, match="exactly one"):
        angular_current_profile(0.3, [0.0])


def test_energy_input_equivalent_to_wavelength():
    direct = angular_current_profile(0.3, [0.5], E=energy_from_wavelength(50.0))
    via_wavelength = angular_current_profile(0.3, [0.5], lambda_F=50.0)
    assert direct.relative_current[0] == via_wavelength.relative_current[0]


def test_angle_beyond_critical_rejected():
    # shallow step: critical angle 30 degrees
    with pytest.raises(ValueError, match="critical"):
        angular_current_profile(0.45, [math.radians(60.0)], E=0.3)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DeviceParams(mobility=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(aspect_ratio=0.0)
