"""Step-barrier solutions: closed forms, numeric matching, and the kappa' pathology."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinstep.common import Convention, SingularityError
from kleinstep.dirac import current_density, make_spinor2
from kleinstep.step import (
    Regime,
    StepProblem,
    classify_regime,
    group_velocity_region2,
    kappa,
    kappa_prime,
    rt_from_kappa,
    solve_step_numeric,
)

# frozen from tests/oracles.py at (E, m, V0) = (2, 1, 5)
KAPPA_REF = 0.408248290463863
KAPPA_PRIME_REF = -2.4494897427831783
RT_PAPER_REF = (0.17657148808284048, 0.8234285119171594)
RT_COMMON_REF = (5.663428511917158, -4.663428511917158)
GROUP_V_REF = 0.9428090415820635


@st.composite
def klein_problems(draw):
    m = draw(st.floats(0.1, 4.0))
    e_over_m = draw(st.floats(1.01, 10.0))
    v_over_m = draw(st.floats(e_over_m + 1.01, 25.0))
    return StepProblem(e_over_m * m, m, v_over_m * m)


class TestRegimes:
    @pytest.mark.parametrize(
        "E,m,V0,expected",
        [
            (2.0, 1.0, 5.0, Regime.KLEIN),
            (7.0, 1.0, 5.0, Regime.ABOVE_BARRIER),
            (5.0, 1.0, 5.0, Regime.EVANESCENT),
            (6.0, 1.0, 5.0, Regime.THRESHOLD_UPPER),
            (4.0, 1.0, 5.0, Regime.THRESHOLD_LOWER),
            (4.0 + 1e-13, 1.0, 5.0, Regime.THRESHOLD_LOWER),
            (0.5, 0.0, 1.0, Regime.KLEIN),
        ],
    )
    def test_classification(self, E, m, V0, expected):
        assert classify_regime(StepProblem(E, m, V0)) is expected

    def test_exactly_one_regime_on_grid(self):
        for E in np.linspace(1.1, 12.0, 40):
            for V0 in np.linspace(0.5, 15.0, 40):
                regime = classify_regime(StepProblem(float(E), 1.0, float(V0)))
                assert regime in Regime

    def test_subgap_energy_rejected(self):
        with pytest.raises(ValueError, match="E > m"):
            StepProblem(1.0, 1.0, 5.0)

    def test_threshold_is_relative_to_scale(self):
        # the reference Klein point shrunk to 1e-14: no threshold lies within
        # 1e-12 of the problem's own scale, so it must stay a Klein step
        prob = StepProblem(2e-14, 1e-14, 5e-14)
        assert classify_regime(prob) is Regime.KLEIN
        sol = solve_step_numeric(prob)
        assert (sol.R, sol.T) == pytest.approx(RT_PAPER_REF, rel=1e-12)

    def test_near_threshold_detected_at_large_scale(self):
        scale = 1e6
        prob = StepProblem(6.0 * scale * (1.0 + 1e-13), 1.0 * scale, 5.0 * scale)
        assert classify_regime(prob) is Regime.THRESHOLD_UPPER

    @given(
        st.sampled_from([(2.0, 1.0, 5.0), (7.0, 1.0, 5.0), (2.0, 1.0, 2.5), (6.0, 1.0, 5.0),
                         (4.0, 1.0, 5.0)])
        | klein_problems().map(lambda prob: (prob.E, prob.m, prob.V0)),
        st.floats(-15.0, 15.0),
        st.sampled_from(list(Convention)),
    )
    @settings(max_examples=300, deadline=None)
    def test_rt_invariant_under_energy_scale(self, point, exponent, convention):
        scale = 10.0**exponent
        base = solve_step_numeric(StepProblem(*point), convention)
        scaled = solve_step_numeric(StepProblem(*(scale * x for x in point)), convention)
        assert scaled.regime is base.regime
        assert scaled.R == pytest.approx(base.R, rel=1e-9, abs=1e-12)
        assert scaled.T == pytest.approx(base.T, rel=1e-9, abs=1e-12)


class TestKappa:
    def test_reference_point(self):
        prob = StepProblem(2.0, 1.0, 5.0)
        assert kappa(prob) == pytest.approx(KAPPA_REF, rel=1e-14)

    def test_both_printed_forms_agree(self):
        # independent straight-line evaluation of the two printed expressions
        for E, m, V0 in [(2.0, 1.0, 5.0), (1.5, 0.5, 8.0), (3.0, 2.0, 40.0)]:
            p = math.sqrt(E * E - m * m)
            q = math.sqrt((E - V0) ** 2 - m * m)
            ratio_form = (-q / p) * (E - m) / (E - V0 - m)
            sqrt_form = math.sqrt((V0 - E - m) * (E - m) / ((V0 - E + m) * (E + m)))
            assert ratio_form == pytest.approx(sqrt_form, rel=1e-12)
            assert kappa(StepProblem(E, m, V0)) == pytest.approx(sqrt_form, rel=1e-14)

    def test_massless_is_exactly_one(self):
        assert kappa(StepProblem(0.7, 0.0, 2.0)) == 1.0

    def test_lower_threshold_is_zero(self):
        assert kappa(StepProblem(4.0, 1.0, 5.0)) == 0.0

    def test_wrong_regime(self):
        with pytest.raises(ValueError, match="Klein"):
            kappa(StepProblem(7.0, 1.0, 5.0))

    @given(klein_problems())
    @settings(max_examples=300)
    def test_bounds(self, prob):
        value = kappa(prob)
        assert 0.0 <= value <= 1.0


class TestKappaPrime:
    def test_reference_point(self):
        prob = StepProblem(2.0, 1.0, 5.0)
        assert kappa_prime(prob) == pytest.approx(KAPPA_PRIME_REF, rel=1e-14)

    def test_negative_sign_relation(self):
        prob = StepProblem(2.0, 1.0, 5.0)
        assert abs(kappa_prime(prob)) == pytest.approx(1.0 / kappa(prob), rel=1e-12)

    @given(klein_problems())
    @settings(max_examples=300)
    def test_product_is_minus_one(self, prob):
        assert kappa(prob) * kappa_prime(prob) == pytest.approx(-1.0, rel=1e-12)

    def test_massless_limit_approaches_minus_one(self):
        E, V0 = 1.0, 2.0
        values = [kappa_prime(StepProblem(E, m, V0)) for m in (1e-2, 1e-4, 1e-6)]
        gaps = [abs(1.0 + v) for v in values]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_wrong_regime(self):
        with pytest.raises(ValueError, match="Klein"):
            kappa_prime(StepProblem(5.0, 1.0, 5.0))


class TestRTFromKappa:
    def test_reference_values(self):
        assert rt_from_kappa(KAPPA_REF) == pytest.approx(RT_PAPER_REF, rel=1e-12)
        assert rt_from_kappa(KAPPA_PRIME_REF) == pytest.approx(RT_COMMON_REF, rel=1e-12)

    def test_perfect_transmission(self):
        assert rt_from_kappa(1.0) == (0.0, 1.0)

    def test_singular_point(self):
        with pytest.raises(SingularityError) as excinfo:
            rt_from_kappa(-1.0)
        assert excinfo.value.denominator == "1 + kappa"
        with pytest.raises(SingularityError):
            rt_from_kappa(-1 + 2**-50)  # |1 + x| = 4 eps: the pole band's edge

    @given(st.floats(-50.0, 50.0).filter(lambda x: abs(1.0 + x) > 0.1))
    @settings(max_examples=500)
    def test_unitarity_identity(self, x):
        # away from the x = -1 pole, where R and T are O(100) at most
        r_coeff, t_coeff = rt_from_kappa(x)
        assert r_coeff + t_coeff == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_near_pole_scales_with_magnitude(self):
        r_coeff, t_coeff = rt_from_kappa(-1.0 - 1e-6)
        assert abs(r_coeff + t_coeff - 1.0) < 1e-12 * max(r_coeff, abs(t_coeff))

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=500)
    def test_inversion_invariance(self, x):
        direct = rt_from_kappa(x)
        inverted = rt_from_kappa(1.0 / x)
        assert direct[0] == pytest.approx(inverted[0], rel=1e-12, abs=1e-12)
        assert direct[1] == pytest.approx(inverted[1], rel=1e-12, abs=1e-12)


class TestSolveStepNumeric:
    def test_klein_paper_matches_closed_form(self):
        sol = solve_step_numeric(StepProblem(2.0, 1.0, 5.0), Convention.PAPER)
        assert sol.R == pytest.approx(RT_PAPER_REF[0], abs=1e-12)
        assert sol.T == pytest.approx(RT_PAPER_REF[1], abs=1e-12)
        assert sol.kappa_value == pytest.approx(KAPPA_REF, rel=1e-14)
        assert sol.regime is Regime.KLEIN

    def test_convention_may_be_its_name(self):
        problem = StepProblem(2.0, 1.0, 5.0)
        for convention in Convention:
            assert (solve_step_numeric(problem, convention.value)
                    == solve_step_numeric(problem, convention))
        with pytest.raises(ValueError, match="'bogus' is not a valid Convention"):
            solve_step_numeric(problem, "bogus")

    def test_klein_common_matches_closed_form(self):
        sol = solve_step_numeric(StepProblem(2.0, 1.0, 5.0), Convention.COMMON)
        assert sol.R == pytest.approx(RT_COMMON_REF[0], abs=1e-9)
        assert sol.T == pytest.approx(RT_COMMON_REF[1], abs=1e-9)
        assert sol.kappa_value == pytest.approx(KAPPA_PRIME_REF, rel=1e-14)

    @given(klein_problems())
    @settings(max_examples=200, deadline=None)
    def test_klein_dual_route(self, prob):
        closed = rt_from_kappa(kappa(prob))
        sol = solve_step_numeric(prob, Convention.PAPER)
        assert sol.R == pytest.approx(closed[0], abs=1e-10)
        assert sol.T == pytest.approx(closed[1], abs=1e-10)

    @given(klein_problems())
    @settings(max_examples=200, deadline=None)
    def test_klein_common_dual_route(self, prob):
        closed = rt_from_kappa(kappa_prime(prob))
        sol = solve_step_numeric(prob, Convention.COMMON)
        assert sol.R == pytest.approx(closed[0], rel=1e-10)
        assert sol.T == pytest.approx(closed[1], rel=1e-10)

    def test_evanescent_total_reflection(self):
        sol = solve_step_numeric(StepProblem(2.0, 1.0, 2.5))
        assert sol.regime is Regime.EVANESCENT
        assert sol.R == pytest.approx(1.0, abs=1e-12)
        assert sol.T == 0.0
        assert abs(sol.r) == pytest.approx(1.0, abs=1e-12)
        assert sol.t != 0  # decaying amplitude in region II
        assert math.isnan(sol.kappa_value)

    def test_above_barrier(self):
        sol = solve_step_numeric(StepProblem(7.0, 1.0, 5.0))
        assert 0.0 <= sol.T <= 1.0
        assert sol.R + sol.T == pytest.approx(1.0, abs=1e-12)

    def test_above_barrier_conventions_coincide(self):
        prob = StepProblem(8.0, 1.0, 5.0)
        paper = solve_step_numeric(prob, Convention.PAPER)
        common = solve_step_numeric(prob, Convention.COMMON)
        assert paper.R == common.R and paper.T == common.T

    def test_thresholds_explicit(self):
        lower = solve_step_numeric(StepProblem(4.0, 1.0, 5.0))
        assert lower.regime is Regime.THRESHOLD_LOWER
        assert (lower.R, lower.T) == (1.0, 0.0)
        assert lower.r == pytest.approx(1.0)
        upper = solve_step_numeric(StepProblem(6.0, 1.0, 5.0))
        assert upper.regime is Regime.THRESHOLD_UPPER
        assert (upper.R, upper.T) == (1.0, 0.0)
        assert upper.r == -1.0 and upper.t.real == math.inf

    def test_massless_paper_fully_transmits(self):
        sol = solve_step_numeric(StepProblem(2.0, 0.0, 5.0), Convention.PAPER)
        assert sol.T == pytest.approx(1.0, abs=1e-12)
        assert sol.R == pytest.approx(0.0, abs=1e-12)

    def test_massless_common_is_singular(self):
        with pytest.raises(SingularityError, match="kappa_prime"):
            solve_step_numeric(StepProblem(2.0, 0.0, 5.0), Convention.COMMON)

    @pytest.mark.parametrize("m", [0.0, 1.0])
    @pytest.mark.parametrize("depth", [100, 155, 160, 200, 300])
    def test_deep_step_stays_exact(self, m, depth):
        # at V0 / E = 10^depth the incident wave's squares and currents lie below the step's
        # scale by 10^(2 depth): region I is matched at E's own scale, region II at V0's
        problem = StepProblem(2.0, m, 2.0 * 10.0**depth)
        sol = solve_step_numeric(problem, Convention.PAPER)
        assert math.isfinite(sol.R) and math.isfinite(sol.T)
        assert abs(sol.R + sol.T - 1.0) <= 1e-12
        assert sol.R == pytest.approx(rt_from_kappa(kappa(problem))[0], rel=1e-12)
        if m == 0.0:
            with pytest.raises(SingularityError, match="kappa_prime"):
                solve_step_numeric(problem, Convention.COMMON)
            cells = StepProblem(np.array([2.0, 2.0]), m, problem.V0)
            common = solve_step_numeric(cells, Convention.COMMON)
            assert common.kappa_value.tolist() == [-1.0, -1.0]
            assert common.R.tolist() == [math.inf] * 2 and common.T.tolist() == [-math.inf] * 2
            assert np.isnan(common.r).all() and np.isnan(common.t).all()

    @given(klein_problems())
    @settings(max_examples=200, deadline=None)
    def test_current_conservation(self, prob):
        # incident + reflected current in region I equals the transmitted current
        for convention in Convention:
            sol = solve_step_numeric(prob, convention)
            p = math.sqrt(prob.E**2 - prob.m**2)
            inc = make_spinor2(prob.E, p, prob.m)
            j_inc = current_density(inc)
            j_refl = abs(sol.r) ** 2 * current_density(make_spinor2(prob.E, -p, prob.m))
            assert (j_inc + j_refl) / j_inc == pytest.approx(sol.T, abs=1e-10)

    @given(klein_problems())
    @settings(max_examples=200, deadline=None)
    def test_common_pathology(self, prob):
        sol = solve_step_numeric(prob, Convention.COMMON)
        assert sol.T < 0
        assert sol.R > 1
        assert sol.R + sol.T == pytest.approx(1.0, rel=1e-10)


class TestGroupVelocity:
    def test_reference_point(self):
        assert group_velocity_region2(StepProblem(2.0, 1.0, 5.0)) == pytest.approx(
            GROUP_V_REF, rel=1e-14
        )

    def test_massless_moves_at_light_speed(self):
        assert group_velocity_region2(StepProblem(1.0, 0.0, 3.0)) == pytest.approx(
            1.0, rel=1e-14
        )

    @given(klein_problems())
    @settings(max_examples=300)
    def test_always_positive(self, prob):
        v = group_velocity_region2(prob)
        assert 0.0 < v < 1.0 + 1e-12

    def test_wrong_regime(self):
        with pytest.raises(ValueError):
            group_velocity_region2(StepProblem(7.0, 1.0, 5.0))
