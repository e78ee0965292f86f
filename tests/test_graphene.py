"""Graphene junction transmission: steps under both conventions, finite barriers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kleinstep.common import Convention, SingularityError
from kleinstep.graphene import (
    DEFAULT_MATERIAL,
    HBAR_VF_EV_NM,
    GrapheneMaterial,
    energy_from_wavelength,
    solve_barrier,
)
from kleinstep.junction import (
    angle_kinematics,
    critical_angle,
    t_common,
    t_paper,
    transmission_probability,
)
from kleinstep.step import StepProblem, solve_step_numeric

from oracles import (
    barrier_amplitudes,
    barrier_T_matrix,
    barrier_T_matrix_current,
    graphene_T_common,
    graphene_T_paper,
)

# frozen from tests/oracles.py with hbar v_F = 0.6578 eV nm, lambda_F = 50 nm
E_FERMI = 0.08266158590125464
V0 = 0.3
KIN_45_REF = (0.1256637061435917, 0.0888576587631673, 0.31822912576268747, 0.2722902835353474)
T_PAPER_45 = 0.7279251574477086
T_PAPER_80 = 0.21048421502075365
T_COMMON_45 = 2.675459261941154
T_BARRIER_50_45 = 0.9226092859246967
D_RESONANCE_30 = 9.685134123061177
# E = V0 = 0.3 eV, D = 10 nm, theta = 0.2 rad: cos^2 th / (cosh^2(k_y D) - sin^2 th) at 50 digits
T_DIRAC_POINT = 0.47265106926544626
# (E, V0, D, theta_I) of each kind of barrier interior; "critical" is exactly at its
# critical angle, 30 degrees, where k_xII = 0
BARRIER_AMPLITUDE_CELLS = {
    "propagating": (E_FERMI, V0, 50.0, 0.7),
    "evanescent": (0.3, 0.42, 10.0, 0.7),
    "dirac-point": (0.3, 0.3, 10.0, 0.2),
    "critical": (0.05, 0.075, 10.0, math.radians(30.0)),
}


def test_default_material_constant():
    # hbar c / 300 = 197.327/300 eV nm, rounded to 0.6578
    assert DEFAULT_MATERIAL.hbar_vF == HBAR_VF_EV_NM == 0.6578
    assert HBAR_VF_EV_NM == pytest.approx(197.327 / 300.0, rel=2e-4)


def test_energy_from_wavelength():
    assert energy_from_wavelength(50.0) == pytest.approx(E_FERMI, rel=1e-14)


def test_energy_from_too_short_a_wavelength_raises():
    # hbar v_F 2 pi / 1e-308 is beyond float range: an error, not E = inf
    with pytest.raises(FloatingPointError, match="overflow"):
        energy_from_wavelength(1e-308)


class TestAngleKinematics:
    def test_reference_point(self):
        ak = angle_kinematics(E_FERMI, V0, math.radians(45.0))
        assert ak.k_F == pytest.approx(KIN_45_REF[0], rel=1e-13)
        assert ak.k_y == pytest.approx(KIN_45_REF[1], rel=1e-13)
        assert ak.k_xII == pytest.approx(KIN_45_REF[2], rel=1e-13)
        assert ak.theta_II == pytest.approx(KIN_45_REF[3], rel=1e-13)
        assert math.degrees(ak.theta_II) == pytest.approx(15.601, abs=1e-3)
        assert ak.s_II == -1
        assert ak.propagating

    def test_normal_incidence(self):
        ak = angle_kinematics(E_FERMI, V0, 0.0)
        assert ak.k_y == 0.0 and ak.theta_II == 0.0

    def test_dirac_point_is_evanescent_off_axis(self):
        ak = angle_kinematics(0.1, 0.1, math.radians(20.0))
        assert not ak.propagating
        assert math.isnan(ak.theta_II)

    def test_transverse_momentum_conserved(self):
        # k_y depends only on region-I kinematics, identical across the step
        for theta in np.linspace(-1.2, 1.2, 9):
            ak = angle_kinematics(E_FERMI, V0, float(theta))
            assert ak.k_y == ak.k_F * math.sin(float(theta))

    def test_dispersion_invariant_when_propagating(self):
        ak = angle_kinematics(E_FERMI, V0, math.radians(37.0))
        lhs = ak.k_xII**2 + ak.k_y**2
        rhs = ((E_FERMI - V0) / DEFAULT_MATERIAL.hbar_vF) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_hole_incidence_rejected(self):
        with pytest.raises(ValueError, match="E must be positive"):
            angle_kinematics(-0.1, V0, 0.0)

    def test_grazing_incidence_rejected(self):
        with pytest.raises(ValueError):
            angle_kinematics(E_FERMI, V0, math.pi / 2)

    @pytest.mark.parametrize("E,height", [(1.7e308, V0), (1.7e308, -1.7e308)])
    def test_wavevector_overflow_raises(self, E, height):
        # the kinematics are formed at unit scale, so only a wavevector that is itself
        # beyond float range overflows: it raises instead of giving inf or nan cells
        with pytest.raises(FloatingPointError, match="overflow"):
            angle_kinematics(np.array([E_FERMI, E]), height, 0.5)
        with pytest.raises(FloatingPointError, match="overflow"):
            solve_barrier(E, height, 10.0, 0.5)


class TestStepAmplitudes:
    def test_paper_normal_incidence_exact_unity(self):
        ak = angle_kinematics(E_FERMI, V0, 0.0)
        t = t_paper(ak)
        assert t == 1.0
        assert transmission_probability(t, ak) == 1.0

    def test_paper_oblique_values(self):
        for theta_deg, expected in [(45.0, T_PAPER_45), (80.0, T_PAPER_80)]:
            ak = angle_kinematics(E_FERMI, V0, math.radians(theta_deg))
            assert transmission_probability(t_paper(ak), ak) == pytest.approx(
                expected, rel=1e-12
            )

    def test_common_normal_incidence_singular_in_klein_zone(self):
        ak = angle_kinematics(E_FERMI, V0, 0.0)
        with pytest.raises(SingularityError) as excinfo:
            t_common(ak)
        assert "s_I exp(-i theta_I)" in excinfo.value.denominator

    def test_common_oblique_pathology(self):
        ak = angle_kinematics(E_FERMI, V0, math.radians(45.0))
        t = t_common(ak)
        assert abs(t) ** 2 == pytest.approx(1.9642, abs=2e-4)
        assert transmission_probability(t, ak) == pytest.approx(T_COMMON_45, rel=1e-12)

    def test_same_band_normal_incidence(self):
        # above the step both conventions give t = 1 at theta = 0
        ak = angle_kinematics(0.4, 0.3, 0.0)
        assert t_common(ak) == 1.0
        assert t_paper(ak) == 1.0

    def test_paper_transmission_bounded(self):
        for theta in np.linspace(-1.45, 1.45, 61):
            ak = angle_kinematics(E_FERMI, V0, float(theta))
            t_coeff = transmission_probability(t_paper(ak), ak)
            assert 0.0 <= t_coeff <= 1.0 + 1e-12

    def test_evanescent_angle_rejected_by_amplitudes(self):
        ak = angle_kinematics(0.3, 0.45, math.radians(60.0))  # beyond 30 deg critical
        assert not ak.propagating
        with pytest.raises(ValueError):
            t_paper(ak)

    @given(st.floats(-1.4, 1.4))
    @settings(max_examples=200)
    def test_angle_symmetry(self, theta):
        ak_p = angle_kinematics(E_FERMI, V0, theta)
        ak_m = angle_kinematics(E_FERMI, V0, -theta)
        tp = transmission_probability(t_paper(ak_p), ak_p)
        tm = transmission_probability(t_paper(ak_m), ak_m)
        assert tp == pytest.approx(tm, abs=1e-12)
        if abs(theta) > 1e-3:
            tc_p = transmission_probability(t_common(ak_p), ak_p)
            tc_m = transmission_probability(t_common(ak_m), ak_m)
            assert tc_p == pytest.approx(tc_m, abs=1e-9)

    def test_matches_independent_oracle_on_grid(self):
        for theta in np.linspace(-1.3, 1.3, 21):
            ak = angle_kinematics(E_FERMI, V0, float(theta))
            assert transmission_probability(t_paper(ak), ak) == pytest.approx(
                graphene_T_paper(E_FERMI, V0, float(theta)), rel=1e-12
            )
            if abs(theta) > 1e-6:
                assert transmission_probability(t_common(ak), ak) == pytest.approx(
                    graphene_T_common(E_FERMI, V0, float(theta)), rel=1e-12
                )


def test_massless_step_limit_agrees_with_dirac_solver():
    # the two modules share the massless normal-incidence limit: full transmission
    ak = angle_kinematics(E_FERMI, V0, 0.0)
    assert transmission_probability(t_paper(ak), ak) == 1.0
    sol = solve_step_numeric(StepProblem(E_FERMI, 0.0, V0), Convention.PAPER)
    assert sol.T == pytest.approx(1.0, abs=1e-12)
    assert sol.R == pytest.approx(0.0, abs=1e-12)


class TestCriticalAngle:
    def test_all_angles_propagate_for_deep_step(self):
        angle = critical_angle(E_FERMI, V0)
        assert type(angle) is float and math.isnan(angle)

    def test_shallow_step(self):
        assert critical_angle(0.3, 0.45) == pytest.approx(math.radians(30.0), rel=1e-12)

    def test_no_step(self):
        angle = critical_angle(0.25, 0.0)
        assert type(angle) is float and math.isnan(angle)


class TestBarrier:
    def test_vanishing_width_limit(self):
        assert solve_barrier(E_FERMI, V0, 1e-9, 0.3).T == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("width", [1.0, 5.0, 20.0, 75.0, 200.0])
    def test_chiral_tunneling_normal_incidence(self, width):
        assert solve_barrier(E_FERMI, V0, width, 0.0).T == pytest.approx(1.0, abs=1e-10)

    def test_fabry_perot_resonance(self):
        # k_xII * D = pi at 30 degrees gives unit transmission
        ak = angle_kinematics(E_FERMI, V0, math.radians(30.0))
        d_res = math.pi / ak.k_xII
        assert d_res == pytest.approx(D_RESONANCE_30, rel=1e-13)
        assert solve_barrier(E_FERMI, V0, d_res, math.radians(30.0)).T == pytest.approx(
            1.0, abs=1e-10
        )
        assert barrier_T_matrix(E_FERMI, V0, d_res, math.radians(30.0)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_reference_point_both_conventions(self):
        # one solve; each labelling's eigenbasis product gives the same frozen T
        theta = math.radians(45.0)
        assert solve_barrier(E_FERMI, V0, 50.0, theta).T == pytest.approx(
            T_BARRIER_50_45, rel=1e-12)
        for oracle in (barrier_T_matrix, barrier_T_matrix_current):
            assert oracle(E_FERMI, V0, 50.0, theta) == pytest.approx(T_BARRIER_50_45, rel=1e-12)

    def test_matches_independent_matrix_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            energy = rng.uniform(0.03, 0.25)
            height = rng.uniform(0.05, 0.45)
            if abs(energy - height) < 0.01:
                continue
            width = rng.uniform(2.0, 80.0)
            theta = rng.uniform(-1.2, 1.2)
            mine = solve_barrier(energy, height, width, theta).T
            reference = barrier_T_matrix(energy, height, width, theta)
            assert mine == pytest.approx(reference, abs=1e-10)

    def test_convention_equivalence_including_evanescent(self):
        rng = np.random.default_rng(11)
        saw_evanescent = 0
        for _ in range(200):
            energy = rng.uniform(0.03, 0.25)
            height = rng.uniform(0.05, 0.45)
            if abs(energy - height) < 0.01:
                continue
            width = rng.uniform(2.0, 100.0)
            theta = rng.uniform(-1.3, 1.3)
            # each labelling's eigenbasis product gives the one solve's T
            solution = solve_barrier(energy, height, width, theta)
            for oracle in (barrier_T_matrix, barrier_T_matrix_current):
                assert abs(solution.T - oracle(energy, height, width, theta)) < 1e-10
            saw_evanescent += not solution.interior_propagating
        assert saw_evanescent > 10

    @given(st.floats(0.03, 0.25), st.floats(0.05, 0.45), st.floats(2.0, 80.0),
           st.floats(-1.2, 1.2))
    @settings(max_examples=150, deadline=None)
    def test_both_labelled_oracles_match_either_convention(self, energy, height, width, theta):
        # the momentum- and current-labelled interior bases span the same states, so both
        # eigenbasis products give the one solve's T; away from theta_c, where they degenerate
        k_2 = abs(energy - height) / HBAR_VF_EV_NM
        assume(abs(energy - height) > 0.01)
        assume(angle_kinematics(energy, height, theta).k_xII > 0.05 * k_2)
        mine = solve_barrier(energy, height, width, theta).T
        for oracle in (barrier_T_matrix, barrier_T_matrix_current):
            assert mine == pytest.approx(oracle(energy, height, width, theta), abs=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            energy = rng.uniform(0.03, 0.25)
            height = rng.uniform(0.05, 0.45)
            if abs(energy - height) < 0.01:
                continue
            sol = solve_barrier(energy, height, rng.uniform(2.0, 100.0), rng.uniform(-1.3, 1.3))
            assert sol.R + sol.T == pytest.approx(1.0, abs=1e-10)
            assert -1e-10 <= sol.T <= 1.0 + 1e-10

    def test_degenerate_interior_rejected(self):
        # E = V0 is a regular cell of the transfer matrix, not an error
        assert solve_barrier(0.3, 0.3, 10.0, 0.2).T == pytest.approx(T_DIRAC_POINT, rel=1e-12)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            solve_barrier(E_FERMI, V0, -1.0, 0.0)

    def test_convention_is_not_an_argument(self):
        # the material is keyword-only: a fifth positional argument is an error, not a material
        with pytest.raises(TypeError):
            solve_barrier(E_FERMI, V0, 10.0, 0.2, Convention.PAPER)
        with pytest.raises(TypeError):
            solve_barrier(E_FERMI, V0, 10.0, 0.2, DEFAULT_MATERIAL)

    @pytest.mark.parametrize("kind", list(BARRIER_AMPLITUDE_CELLS))
    def test_amplitudes_match_the_transfer_product(self, kind):
        # the phases of r and t, which R and T do not see; at E = V0 and k_xII = 0 the
        # interior eigenbasis degenerates, so there only the series propagator is formed
        point = BARRIER_AMPLITUDE_CELLS[kind]
        interior = angle_kinematics(point[0], point[1], point[3])
        assert (kind == "critical") == (interior.k_xII == 0)
        assert interior.propagating == (kind == "propagating")
        references = [barrier_amplitudes(*point, series=True)]
        if kind in ("propagating", "evanescent"):
            references += [barrier_amplitudes(*point, current_labelled=labelled)
                           for labelled in (False, True)]
        solution = solve_barrier(*point)
        for r, t in references:
            assert abs(solution.r - r) < 1e-12 and abs(solution.t - t) < 1e-12


def test_custom_material_scales_out_of_probability():
    # T depends on (E, V0) only through their ratio once angles are fixed
    mat = GrapheneMaterial(1.0)
    ak_a = angle_kinematics(1.0, 3.0, 0.5, mat)
    ak_b = angle_kinematics(2.0, 6.0, 0.5, mat)
    ta = transmission_probability(t_paper(ak_a), ak_a)
    tb = transmission_probability(t_paper(ak_b), ak_b)
    assert ta == pytest.approx(tb, rel=1e-12)
