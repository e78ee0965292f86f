"""Reflectionless scattering-basis modes: continuity, constant currents, cancellation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinstep.step import (
    BasisKind,
    StepProblem,
    kappa,
    mode_current,
    mode_current_closed_form,
    scattering_basis_state,
)

from test_step import klein_problems

PROBLEM = StepProblem(2.0, 1.0, 5.0)
# frozen from tests/oracles.py: (2 kappa / pi)/(kappa + 1)^2 at (2, 1, 5)
CURRENT_REF = 0.13105271795441956

ALL_KINDS = list(BasisKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_continuity_at_interface(kind):
    state = scattering_basis_state(kind, PROBLEM)
    left = state.value_region1(0.0)
    right = state.value_region2(0.0)
    assert np.linalg.norm(left - right) < 1e-12 * np.linalg.norm(left)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_region2_sign_repair_recorded(kind):
    # the printed region coefficients disagree by one overall sign at z = 0
    state = scattering_basis_state(kind, PROBLEM)
    assert state.region2_sign == -1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_current_constant_in_z(kind):
    state = scattering_basis_state(kind, PROBLEM)
    zs = [-3.7, -1.9, -0.4, 0.3, 1.8, 4.1]
    currents = [state.current(z) for z in zs]
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
    for _ in range(25):
        m = rng.uniform(0.2, 3.0)
        E = m * rng.uniform(1.05, 9.0)
        V0 = E + m * rng.uniform(1.05, 12.0)
        prob = StepProblem(E, m, V0)
        k = kappa(prob)
        magnitude = (2.0 * k / math.pi) / (k + 1.0) ** 2
        assert mode_current(BasisKind.U_PLUS, prob) == pytest.approx(magnitude, abs=1e-10)
        assert mode_current(BasisKind.V_MINUS, prob) == pytest.approx(-magnitude, abs=1e-10)


@given(klein_problems(), st.floats(-15.0, 15.0))
@settings(max_examples=300, deadline=None)
def test_mode_currents_invariant_under_energy_scale(problem, exponent):
    scale = 10.0**exponent
    scaled = StepProblem(scale * problem.E, scale * problem.m, scale * problem.V0)
    for kind in ALL_KINDS:
        assert mode_current(kind, scaled) == pytest.approx(mode_current(kind, problem), abs=1e-12)


def test_wrong_regime_rejected():
    with pytest.raises(ValueError, match="Klein"):
        scattering_basis_state(BasisKind.U_PLUS, StepProblem(7.0, 1.0, 5.0))


def test_value_dispatches_on_side():
    state = scattering_basis_state(BasisKind.U_PLUS, PROBLEM)
    np.testing.assert_allclose(state.value(-1.3), state.value_region1(-1.3))
    np.testing.assert_allclose(state.value(1.3), state.value_region2(1.3))
