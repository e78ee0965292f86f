"""Array graphene kernels: every cell of an array call equals its 0-d call, bit for bit."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kleinstep.common import SingularityError
from kleinstep.graphene import solve_barrier
from kleinstep.junction import (
    angle_kinematics,
    critical_angle,
    t_common,
    t_paper,
    transmission_probability,
)

from oracles import barrier_T_kng

KINEMATICS_FIELDS = ("theta_I", "k_F", "k_y", "k_xII", "theta_II", "s_II", "propagating")
BARRIER_FIELDS = ("r", "t", "R", "T", "interior_propagating")


def bits(value) -> bytes:
    """The IEEE bytes of a number, so -0.0 != 0.0 and nan == nan."""
    return np.complex128(value).tobytes()


@st.composite
def barrier_grids(draw):
    """(E, V0, D, theta) axes of a grid that touches every graphene regime.

    Energies include the drawn heights themselves (E = V0, an interior at
    the Dirac point) and heights a little above or below them (angles beyond
    the critical angle, evanescent interiors); angles include 0 (singular
    under COMMON in the Klein zone) and steep ones.
    """
    heights = draw(st.lists(st.floats(0.05, 0.45), min_size=1, max_size=3))
    near = [V0 * factor for V0 in heights for factor in (1.0, 0.7, 1.4)]
    energies = draw(st.lists(st.sampled_from(near) | st.floats(0.02, 0.3),
                             min_size=1, max_size=3))
    widths = draw(st.lists(st.floats(0.05, 150.0), min_size=1, max_size=2))
    angles = draw(st.lists(st.sampled_from([0.0, 0.3, -1.2, 1.5]) | st.floats(-1.55, 1.55),
                           min_size=1, max_size=4))
    return np.array(energies), np.array(heights), np.array(widths), np.array(angles)


# an E = V0 cell beside a cell whose |r|^2 underflows
DIRAC_POINT_BESIDE_UNDERFLOW = (np.array([0.25]), np.array([0.25, 0.375]), np.array([1.0]),
                                np.array([5.08340796e-203]))
# (E, V0) whose interior is exactly at its critical angle at 30 degrees: k_xII == 0
CRITICAL_30 = [(0.05011252813203301, 0.02505626406601651), (0.05, 0.075)]
# their T at D = 10 nm from the regular closed form at 50 digits
T_CRITICAL_30 = dict(zip(CRITICAL_30, [0.9538670234519766, 0.6976785777974761]))
# T at E = V0 = 0.3 eV, D = 10 nm, theta = 0.2 rad: cos^2 th / (cosh^2(k_y D) - sin^2 th)
T_DIRAC_POINT = 0.47265106926544626
# cells at theta_c (1 +- 10^u), u in [-16, -6], with T from the closed form at 50 digits
CRITICAL_CELLS = np.array(json.loads(
    (pathlib.Path(__file__).parent / "barrier_critical_angle.json").read_text())["cells"])


def _grid(axes):
    E, V0, D, theta = axes
    return E[:, None, None, None], V0[None, :, None, None], D[None, None, :, None], theta


@given(barrier_grids())
@settings(max_examples=60, deadline=None)
def test_step_kernel_cells_equal_zero_d_calls(axes):
    E, V0, _, theta = axes
    ak = angle_kinematics(E[:, None, None], V0[None, :, None], theta[None, None, :])
    amplitudes = {"paper": t_paper(ak), "common": t_common(ak)}
    transmissions = {name: transmission_probability(t, ak) for name, t in amplitudes.items()}
    shape = (E.size, V0.size, theta.size)
    assert ak._fields == KINEMATICS_FIELDS
    assert all(np.shape(getattr(ak, name)) == shape for name in KINEMATICS_FIELDS)
    for cell in np.ndindex(shape):
        point = angle_kinematics(float(E[cell[0]]), float(V0[cell[1]]), float(theta[cell[2]]))
        for name in KINEMATICS_FIELDS:
            assert bits(getattr(ak, name)[cell]) == bits(getattr(point, name)), name
        for name, amplitude in (("paper", t_paper), ("common", t_common)):
            try:
                t = amplitude(point)
            except SingularityError:
                # the 0-d call raises; the array cell holds the --allow-singular values
                assert name == "common" and point.s_II == -1 and point.propagating
                assert amplitudes[name][cell] == math.inf
                assert transmissions[name][cell] == math.inf
                continue
            except ValueError:
                assert not point.propagating
                with pytest.raises(ValueError, match="no propagating"):
                    transmission_probability(0.0, point)
                assert amplitudes[name][cell] == 0.0 and transmissions[name][cell] == 0.0
                continue
            assert bits(amplitudes[name][cell]) == bits(t), name
            assert bits(transmissions[name][cell]) == bits(transmission_probability(t, point))


@given(barrier_grids())
@settings(max_examples=60, deadline=None)
@example(DIRAC_POINT_BESIDE_UNDERFLOW)
@example((np.array([CRITICAL_30[1][0], 0.1]), np.array([CRITICAL_30[1][1]]), np.array([10.0]),
          np.array([math.radians(30.0), 0.3])))
def test_barrier_cells_equal_zero_d_calls(axes):
    batch = solve_barrier(*_grid(axes))
    shape = tuple(axis.size for axis in axes)
    assert all(np.shape(getattr(batch, name)) == shape for name in BARRIER_FIELDS)
    for cell in np.ndindex(shape):
        single = solve_barrier(*(float(axis[i]) for axis, i in zip(axes, cell)))
        for name in BARRIER_FIELDS:
            assert bits(getattr(batch, name)[cell]) == bits(getattr(single, name)), name


@given(barrier_grids(), st.integers(-1000, 1000))
@settings(max_examples=100, deadline=None)
def test_power_of_two_energy_scale_changes_no_bit(axes, k):
    # the drawn energies and widths stay normal numbers times 2^k and 2^-k
    E, V0, D, theta = _grid(axes)
    unit, scaled = (angle_kinematics(np.ldexp(E, n), np.ldexp(V0, n), theta) for n in (0, k))
    for name in ("theta_II", "propagating"):
        assert getattr(unit, name).tobytes() == getattr(scaled, name).tobytes(), name
    for amplitude in (t_paper, t_common):
        t_unit, t_scaled = amplitude(unit), amplitude(scaled)
        assert t_unit.tobytes() == t_scaled.tobytes(), amplitude
        assert (transmission_probability(t_unit, unit).tobytes()
                == transmission_probability(t_scaled, scaled).tobytes()), amplitude
    # the barrier's phase k_xII D is unchanged when D scales inversely
    T_unit, T_scaled = (solve_barrier(np.ldexp(E, n), np.ldexp(V0, n), np.ldexp(D, -n), theta).T
                        for n in (0, k))
    assert T_unit.tobytes() == T_scaled.tobytes()


@given(barrier_grids())
@settings(max_examples=40, deadline=None)
@example(DIRAC_POINT_BESIDE_UNDERFLOW)
def test_transmission_even_in_angle(axes):
    E, V0, D, theta = axes
    mirrored = np.stack([theta, -theta])  # axis -2: +theta, -theta
    ak = angle_kinematics(E[:, None, None, None], V0[None, :, None, None], mirrored)
    step = transmission_probability(t_paper(ak), ak)
    np.testing.assert_allclose(step[..., 0, :], step[..., 1, :], rtol=0.0, atol=1e-12)
    T = solve_barrier(E[:, None, None, None, None], V0[None, :, None, None, None],
                      D[None, None, :, None, None], mirrored).T
    np.testing.assert_allclose(T[..., 0, :], T[..., 1, :], rtol=0.0, atol=1e-12)


def test_degenerate_cell_after_underflow_gives_nan():
    # the E = V0 cell is finite, T = 1 as the closed form's cos^2 th / (cosh^2(k_y D) - sin^2 th)
    # at this angle, and every cell equals its 0-d call although the cell after it underflows
    E, V0, D, theta = (axis.tolist() for axis in DIRAC_POINT_BESIDE_UNDERFLOW)
    solution = solve_barrier(E[0], np.array(V0), D[0], theta[0])
    assert solution.T[0] == 1.0 and np.isfinite(solution.r[0])
    assert solution.r[1] != 0.0 and solution.R[1] == 0.0  # |r|^2 underflows
    for index, height in enumerate(V0):
        single = solve_barrier(E[0], height, D[0], theta[0])
        for name in BARRIER_FIELDS:
            assert bits(getattr(solution, name)[index]) == bits(getattr(single, name)), name


@pytest.mark.parametrize("E, V0", CRITICAL_30)
def test_critical_interior_is_degenerate(E, V0):
    # an interior exactly at its critical angle is a regular cell of the transfer matrix
    theta = math.radians(30.0)
    assert angle_kinematics(E, V0, theta).k_xII == 0
    single = solve_barrier(E, V0, 10.0, theta)
    assert abs(single.T - T_CRITICAL_30[E, V0]) <= 1e-10
    assert abs(single.R + single.T - 1.0) <= 1e-10
    solution = solve_barrier(E, np.array([V0, 0.3]), 10.0, theta)
    assert bits(solution.T[0]) == bits(single.T) and bits(solution.r[0]) == bits(single.r)
    assert abs(solution.T[1] - barrier_T_kng(E, 0.3, 10.0, theta)) <= 1e-10


def test_full_precision_through_the_critical_angle():
    # k_xII^2 cancels to a few digits here; the transfer matrix is entire in it
    assert len(CRITICAL_CELLS) >= 200
    E, V0, D, theta, T = CRITICAL_CELLS.T
    critical = np.arcsin(np.abs(E - V0) / E)
    assert np.all(np.abs(np.abs(theta) / critical - 1.0) <= 1.1e-6)
    solution = solve_barrier(E, V0, D, theta)
    assert np.max(np.abs(solution.T - T) / T) <= 1e-12
    assert np.max(np.abs(solution.R + solution.T - 1.0)) <= 1e-14


def test_barrier_matches_closed_form_in_one_array_call():
    rng = np.random.default_rng(7)
    count = 2000
    E = rng.uniform(0.03, 0.25, count)
    V0 = rng.uniform(0.05, 0.45, count)
    V0 = np.where(np.abs(E - V0) < 0.01, V0 + 0.02, V0)
    D = rng.uniform(2.0, 80.0, count)
    theta = rng.uniform(-1.3, 1.3, count)
    expected = np.array([barrier_T_kng(*point) for point in zip(E, V0, D, theta)])
    solution = solve_barrier(E, V0, D, theta)
    np.testing.assert_allclose(solution.T, expected, rtol=0.0, atol=1e-10)
    evanescent = np.count_nonzero(~solution.interior_propagating)
    assert 100 < evanescent < count - 100


@given(barrier_grids(), st.integers(-1000, 1000))
@settings(max_examples=60, deadline=None)
def test_critical_angle_cells_equal_zero_d_calls(axes, k):
    E, V0 = axes[0][:, None], axes[1]
    angles = critical_angle(E, V0)
    assert angles.shape == (E.size, V0.size)
    for cell in np.ndindex(angles.shape):
        point = critical_angle(float(E[cell[0], 0]), float(V0[cell[1]]))
        # nan in an array cell and in the 0-d call alike where every angle propagates
        assert type(point) is float and bits(angles[cell]) == bits(point)
    # taken at unit scale: a power-of-two energy scale changes no bit
    assert critical_angle(np.ldexp(E, k), np.ldexp(V0, k)).tobytes() == angles.tobytes()


def test_zero_d_results_are_python_scalars():
    ak = angle_kinematics(np.float64(0.08), np.array(0.3), 0.5)
    assert all(type(value) is float for value in (ak.theta_I, ak.k_F, ak.k_y, ak.theta_II))
    assert (type(ak.s_II), type(ak.propagating)) == (int, bool)
    assert type(t_paper(ak)) is complex and type(t_common(ak)) is complex
    assert type(transmission_probability(t_paper(ak), ak)) is float
    solution = solve_barrier(0.08, 0.3, np.array(20.0), 0.5)
    assert type(solution.r) is complex and type(solution.T) is float
    assert type(solution.interior_propagating) is bool


def test_zero_d_calls_still_raise():
    with pytest.raises(SingularityError, match="s_I exp"):
        t_common(angle_kinematics(0.08, np.array(0.3), 0.0))
    beyond = angle_kinematics(0.3, 0.45, np.array(1.2))
    with pytest.raises(ValueError, match="no propagating"):
        t_paper(beyond)
    with pytest.raises(ValueError, match="no propagating"):
        transmission_probability(0.0, beyond)
    # E = V0 is a regular barrier cell: its 0-d call gives the closed form's T
    assert abs(solve_barrier(np.array(0.3), 0.3, 10.0, 0.2).T - T_DIRAC_POINT) <= 1e-12


def test_empty_sweeps():
    ak = angle_kinematics(0.08, 0.3, np.array([]))
    assert ak.k_y.shape == ak.propagating.shape == (0,)
    assert t_paper(ak).shape == t_common(ak).shape == (0,)
    assert transmission_probability(t_common(ak), ak).shape == (0,)
    solution = solve_barrier(0.08, 0.3, np.array([]), 0.2)
    assert solution.T.shape == solution.interior_propagating.shape == (0,)


def test_validation_names_first_bad_cell_in_c_order():
    with pytest.raises(ValueError, match="E must be positive"):
        angle_kinematics(np.array([[0.1, 0.2], [-0.1, 0.3]]), 0.3, 0.2)
    with pytest.raises(ValueError, match="theta_I must be finite, got nan"):
        angle_kinematics(0.1, 0.3, np.array([0.2, math.nan]))
    with pytest.raises(ValueError, match="incidence angle"):
        angle_kinematics(0.1, np.array([0.3, math.inf]), np.array([2.0, 0.1]))
    # cell 0 has a bad width, cell 1 a bad angle: cell 0 is named
    with pytest.raises(ValueError, match="barrier width D must be positive"):
        solve_barrier(0.1, 0.3, np.array([-1.0, 5.0]), np.array([0.1, 2.0]))
    with pytest.raises(ValueError, match="D must be finite, got inf"):
        solve_barrier(0.1, 0.3, np.array([5.0, math.inf]), 0.1)
    with pytest.raises(ValueError, match="V0 must be finite, got nan"):
        solve_barrier(0.1, np.array([0.3, math.nan]), 5.0, 0.1)
    with pytest.raises(ValueError, match="^electron incidence only: E must be positive$"):
        critical_angle(np.array([-0.1, 0.3]), np.array([0.1, math.nan]))
