"""Reflectionless scattering-basis modes: continuity, constant currents, cancellation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinstep import basis
from kleinstep.basis import (
    BasisKind,
    mode_current,
    mode_current_closed_form,
    scattering_basis_state,
)
from kleinstep.dirac import current_density
from kleinstep.step import StepProblem, kappa

from test_step import klein_problems

PROBLEM = StepProblem(2.0, 1.0, 5.0)
# frozen from tests/oracles.py: (2 kappa / pi)/(kappa + 1)^2 at (2, 1, 5)
CURRENT_REF = 0.13105271795441956
# frozen from tests/oracles.py: {2 pi [2 sqrt(3) * 1]}^(-1/2) and {2 pi [2 sqrt(8) * 4]}^(-1/2)
N1_REF = 0.21434568952624794
N2_REF = 0.08386728337067674

ALL_KINDS = list(BasisKind)
U_KINDS = (BasisKind.U_PLUS, BasisKind.U_MINUS)


def printed_coefficients(kind):
    """Region I and region II coefficients as printed, per wave of spinor wavevector (+-s p, +-s q)."""
    k = kappa(PROBLEM)
    lone, pair = 2.0 * math.sqrt(k) / (k + 1.0), (k - 1.0) / (k + 1.0)
    if kind in U_KINDS:
        return (lone, 0.0), (pair, 1.0)
    return (1.0, -pair), (0.0, lone)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_continuity_at_interface(kind):
    state = scattering_basis_state(kind, PROBLEM)
    left = np.array(state.value(0.0, 0))
    right = np.array(state.value(0.0, 1))
    assert np.linalg.norm(left - right) < 1e-12 * np.linalg.norm(left)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_region2_sign_repair_recorded(kind):
    # the printed region coefficients disagree by one overall sign at z = 0,
    # so region II's amplitudes carry the sign -1
    state = scattering_basis_state(kind, PROBLEM)
    _, region2 = printed_coefficients(kind)
    np.testing.assert_allclose(-state.amplitude[1], N2_REF * np.array(region2), rtol=1e-12)


def test_region1_amplitudes_pin_normalization():
    for kind in ALL_KINDS:
        state = scattering_basis_state(kind, PROBLEM)
        region1, _ = printed_coefficients(kind)
        np.testing.assert_allclose(state.amplitude[0], N1_REF * np.array(region1), rtol=1e-12)


def test_region2_amplitudes_pin_normalization():
    # the magnitude alone, so the normalization is pinned apart from the sign repair
    for kind in ALL_KINDS:
        state = scattering_basis_state(kind, PROBLEM)
        _, region2 = printed_coefficients(kind)
        np.testing.assert_allclose(
            np.abs(state.amplitude[1]), N2_REF * np.abs(region2), rtol=1e-12
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_current_constant_in_z(kind):
    state = scattering_basis_state(kind, PROBLEM)
    zs = [-3.7, -1.9, -0.4, 0.3, 1.8, 4.1]
    currents = current_density(state.value(zs))
    assert currents.shape == (len(zs),)
    assert max(currents) - min(currents) < 1e-12


@pytest.mark.parametrize(
    "kind,expected",
    [
        (BasisKind.U_PLUS, +CURRENT_REF),
        (BasisKind.U_MINUS, -CURRENT_REF),
        (BasisKind.V_PLUS, +CURRENT_REF),
        (BasisKind.V_MINUS, -CURRENT_REF),
    ],
)
def test_mode_currents_match_closed_form(kind, expected):
    assert type(mode_current(kind, PROBLEM)) is float
    assert mode_current(kind, PROBLEM) == pytest.approx(expected, abs=1e-10)
    assert mode_current_closed_form(kind, PROBLEM) == pytest.approx(expected, rel=1e-12)


def test_pairwise_cancellation():
    # the computable content of a vanishing vacuum current: paired modes cancel
    j_up = mode_current(BasisKind.U_PLUS, PROBLEM)
    j_vm = mode_current(BasisKind.V_MINUS, PROBLEM)
    j_um = mode_current(BasisKind.U_MINUS, PROBLEM)
    j_vp = mode_current(BasisKind.V_PLUS, PROBLEM)
    assert abs(j_up + j_vm) < 1e-12
    assert abs(j_um + j_vp) < 1e-12


def test_currents_over_klein_grid():
    rng = np.random.default_rng(42)
    problems = []
    for _ in range(25):
        m = rng.uniform(0.2, 3.0)
        E = m * rng.uniform(1.05, 9.0)
        problems.append(StepProblem(E, m, E + m * rng.uniform(1.05, 12.0)))
    # deep steps: region I's normalization p (E - m) underflows at the scale of V0
    problems += [StepProblem(2.0, 1.0, V0) for V0 in (1e160, 1e200, 1e300)]
    for prob in problems:
        k = kappa(prob)
        magnitude = (2.0 * k / math.pi) / (k + 1.0) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            currents = mode_current(BasisKind.U_PLUS, prob), mode_current(BasisKind.V_MINUS, prob)
        assert currents[0] == pytest.approx(magnitude, abs=1e-10)
        assert currents[1] == pytest.approx(-magnitude, abs=1e-10)


def stacked(problems, scale=1.0):
    """One array problem whose cells are ``problems``, each scaled by its ``scale``."""
    return StepProblem(*(scale * np.array([getattr(p, name) for p in problems])
                         for name in ("E", "m", "V0")))


@given(st.lists(st.tuples(klein_problems(), st.integers(-1000, 1000)), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_mode_currents_invariant_under_energy_scale(cases):
    # the drawn problems stay normal numbers times 2^k, from near the smallest to near the largest
    problems, exponents = zip(*cases)
    problem = stacked(problems)
    scaled = stacked(problems, np.ldexp(1.0, exponents))
    for kind in ALL_KINDS:
        np.testing.assert_allclose(mode_current(kind, scaled), mode_current(kind, problem),
                                   rtol=0, atol=1e-12)


@st.composite
def klein_grids(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    problems = draw(st.lists(klein_problems(), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
    grid = stacked(problems)
    return StepProblem(*(field.reshape(shape) for field in grid))


@given(klein_grids())
@settings(max_examples=40, deadline=None)
def test_cells_equal_zero_d_calls(problem):
    for kind in ALL_KINDS:
        currents = mode_current(kind, problem)
        state = scattering_basis_state(kind, problem)
        assert currents.shape == problem.E.shape
        assert all(field.shape == problem.E.shape + (2, 2) for field in state)
        for index in np.ndindex(problem.E.shape):
            cell = StepProblem(*(float(field[index]) for field in problem))
            assert currents[index] == pytest.approx(mode_current(kind, cell), abs=1e-12)
            for field, cell_field in zip(state, scattering_basis_state(kind, cell)):
                np.testing.assert_allclose(field[index], cell_field, rtol=1e-12, atol=1e-12)


def test_array_problem_builds_spinors_in_few_calls(monkeypatch):
    calls = []
    make_spinor2 = basis.make_spinor2
    monkeypatch.setattr(basis, "make_spinor2", lambda *args: calls.append(1) or make_spinor2(*args))
    m = np.linspace(0.3, 2.0, 1000)
    currents = mode_current(BasisKind.V_PLUS, StepProblem(2.0 * m, m, 6.0 * m))
    assert currents.shape == (1000,)
    assert len(calls) <= 4


def test_wrong_regime_rejected():
    with pytest.raises(ValueError, match="Klein"):
        scattering_basis_state(BasisKind.U_PLUS, StepProblem(7.0, 1.0, 5.0))


def test_value_dispatches_on_side():
    state = scattering_basis_state(BasisKind.U_PLUS, PROBLEM)
    np.testing.assert_allclose(state.value(-1.3), state.value(-1.3, 0))
    np.testing.assert_allclose(state.value(1.3), state.value(1.3, 1))
    both = np.array(state.value([-1.3, 1.3]))
    np.testing.assert_allclose(both, np.array([state.value(-1.3, 0), state.value(1.3, 1)]).T)
