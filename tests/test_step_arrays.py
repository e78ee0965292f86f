"""Array step kernels: every cell of an array problem equals its 0-d problem, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kleinstep import dirac, step
from kleinstep.common import Convention, SingularityError
from kleinstep.basis import BasisKind, scattering_basis_state
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

from test_acceptance import klein_grid


def bits(value) -> bytes:
    """The IEEE bytes of a float or complex, so -0.0 != 0.0 and nan == nan."""
    return np.complex128(value).tobytes()


@st.composite
def step_grids(draw):
    """(E, m, V0) axes of a grid whose every cell has E > m.

    The energies mix random values with the exact threshold lattice
    E = V0 +- m of the drawn masses and heights; the masses include m = 0,
    whose Klein cells are singular under COMMON.
    """
    unit = st.floats(0.25, 8.0)
    masses = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | unit, min_size=1, max_size=3))
    heights = draw(st.lists(unit, min_size=1, max_size=3))
    lattice = [V0 + sign * m for V0 in heights for m in masses for sign in (1.0, -1.0)]
    energies = draw(st.lists(st.sampled_from(lattice) | st.floats(0.1, 20.0),
                             min_size=1, max_size=5))
    energies = [E for E in energies if E > max(masses)]
    if not energies:
        energies = [max(masses) + 1.0]
    return np.array(energies), np.array(masses), np.array(heights)


@given(step_grids(), st.sampled_from(list(Convention)))
@settings(max_examples=80, deadline=None)
def test_array_cells_equal_scalar_problems(axes, convention):
    E, m, V0 = axes
    # a 3-D broadcast problem: cell (i, j, k) is (E[i], m[j], V0[k])
    problem = StepProblem(E[:, None, None], m[None, :, None], V0[None, None, :])
    batch = solve_step_numeric(problem, convention)
    regimes = classify_regime(problem)
    shape = (E.size, m.size, V0.size)
    assert batch.regime.shape == batch.R.shape == regimes.shape == shape
    for i, j, k in np.ndindex(shape):
        point = StepProblem(float(E[i]), float(m[j]), float(V0[k]))
        assert regimes[i, j, k] is classify_regime(point)
        try:
            single = solve_step_numeric(point, convention)
        except SingularityError:
            # the 0-d case raises; the array cell holds the singular values
            assert convention is Convention.COMMON and batch.regime[i, j, k] is Regime.KLEIN
            assert (batch.kappa_value[i, j, k], batch.R[i, j, k], batch.T[i, j, k]) == (
                -1.0, math.inf, -math.inf)
            assert np.isnan(batch.r[i, j, k]) and np.isnan(batch.t[i, j, k])
            continue
        assert batch.regime[i, j, k] is single.regime
        for name in ("kappa_value", "r", "t", "R", "T"):
            assert bits(getattr(batch, name)[i, j, k]) == bits(getattr(single, name)), name


@given(step_grids())
@settings(max_examples=40, deadline=None)
def test_closed_forms_equal_scalar_problems(axes):
    E, m, V0 = (axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))
    regimes = classify_regime(StepProblem(E, m, V0))
    klein = regimes == Regime.KLEIN
    kappa_cells = klein | (regimes == Regime.THRESHOLD_LOWER)
    kappas = kappa(StepProblem(E[kappa_cells], m[kappa_cells], V0[kappa_cells]))
    kappa_primes = kappa_prime(StepProblem(E[klein], m[klein], V0[klein]))
    for value, point in zip(kappas, zip(E[kappa_cells], m[kappa_cells], V0[kappa_cells])):
        assert bits(value) == bits(kappa(StepProblem(*map(float, point))))
    for value, point in zip(kappa_primes, zip(E[klein], m[klein], V0[klein])):
        assert bits(value) == bits(kappa_prime(StepProblem(*map(float, point))))
    for x, r_coeff, t_coeff in zip(kappas, *rt_from_kappa(kappas)):
        assert (bits(r_coeff), bits(t_coeff)) == tuple(map(bits, rt_from_kappa(float(x))))


def test_zero_d_results_are_python_scalars():
    sol = solve_step_numeric(StepProblem(np.float64(2.0), np.array(1.0), 5.0))
    assert type(sol.kappa_value) is float and type(sol.R) is float and type(sol.T) is float
    assert type(sol.r) is complex and type(sol.t) is complex
    assert sol.regime is Regime.KLEIN
    assert type(kappa(StepProblem(2.0, 1.0, 5.0))) is float
    assert rt_from_kappa(1.0) == (0.0, 1.0)
    problem = StepProblem(2.0, 1.0, 5.0)
    assert type(kappa_prime(problem)) is float
    assert classify_regime(problem) is Regime.KLEIN
    assert tuple(map(type, rt_from_kappa(0.5))) == (float, float)
    assert type(group_velocity_region2(problem)) is float


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("E", [3.0, np.linspace(1.5, 9.0, 512)], ids=["0-d", "512 cells"])
def test_solve_checks_only_its_problem(monkeypatch, E, convention):
    # the solver's own spinor values go unchecked: one _require, the StepProblem's, and no
    # make_spinor2, whose checks are for user input
    requires, spinors = [], []
    make_spinor2 = dirac.make_spinor2
    for module in (step, dirac):
        require = module._require
        monkeypatch.setattr(module, "_require", lambda *rules, _require=require, **cells: (
            requires.append(rules) or _require(*rules, **cells)))
    # step holds no make_spinor2 of its own: the solver could reach it through dirac alone
    monkeypatch.setattr(dirac, "make_spinor2",
                        lambda *args: spinors.append(args) or make_spinor2(*args))
    sol = solve_step_numeric(StepProblem(E, 1.0, 5.0), convention)
    assert len(requires) == 1 and requires[0][:3] == ("E", "m", "V0")
    assert spinors == []
    regimes = np.ravel(np.asarray(sol.regime, dtype=object)).tolist()
    assert len(regimes) == np.size(E) and all(type(regime) is Regime for regime in regimes)


def test_zero_d_massless_common_still_raises():
    with pytest.raises(SingularityError, match="kappa_prime"):
        solve_step_numeric(StepProblem(np.array(2.0), 0.0, 5.0), Convention.COMMON)
    with pytest.raises(SingularityError, match="1 \\+ kappa"):
        rt_from_kappa(np.array(-1.0))


NEAR_MASSLESS_COMMON_CELLS = pytest.mark.parametrize("E,m,V0", [
    # kappa' rounds to -1.0000000000000002, within 4 eps of -1, and the matching
    # determinant is exactly 0
    (0.1, 1e-17, 1.5),
    # kappa' rounds to -1.0000000000000002 while the matching determinant is about
    # -2^-54: matched, R would be 2.08e32 against the true 2.19e32
    (0.5, 3e-17, 0.9),
    # 1 + kappa' is -5.8e-16, below kappa''s own rounding error, and rounds to -6.7e-16:
    # matched, R would be 2.19e31 against the true 1.20e31
    (0.2, 1e-16, 1.5),
])


@NEAR_MASSLESS_COMMON_CELLS
def test_near_massless_common_step_is_a_singular_cell(E, m, V0):
    sol = solve_step_numeric(StepProblem(np.array([E, 2.0]), m, V0), Convention.COMMON)
    assert (sol.kappa_value[0], sol.R[0], sol.T[0]) == (-1.0, math.inf, -math.inf)
    assert bits(sol.r[0]) == bits(sol.t[0]) == bits(math.nan)
    cell = solve_step_numeric(StepProblem(2.0, m, V0), Convention.COMMON)
    assert [bits(field[1]) for field in sol[:5]] == [bits(field) for field in cell[:5]]
    with pytest.raises(SingularityError, match="kappa_prime"):
        solve_step_numeric(StepProblem(E, m, V0), Convention.COMMON)


@NEAR_MASSLESS_COMMON_CELLS
def test_closed_route_is_singular_where_the_solver_is(E, m, V0):
    # the cell beside a Klein cell whose mass keeps kappa' far from -1
    problem = StepProblem(np.array([E, E]), np.array([m, E / 4]), V0)
    sol = solve_step_numeric(problem, Convention.COMMON)
    r_coeff, t_coeff = rt_from_kappa(kappa_prime(problem))
    assert np.isinf(r_coeff).tolist() == np.isinf(sol.R).tolist() == [True, False]
    assert (r_coeff[0], t_coeff[0]) == (sol.R[0], sol.T[0]) == (math.inf, -math.inf)
    assert (r_coeff[1], t_coeff[1]) == pytest.approx((sol.R[1], sol.T[1]), rel=1e-12)
    with pytest.raises(SingularityError, match="1 \\+ kappa"):
        rt_from_kappa(kappa_prime(StepProblem(E, m, V0)))


def test_array_rt_from_kappa_pole_gives_limits():
    # |1 + x| = 2^-50 = 4 eps is the pole band's edge, inside it; 2^-49 lies outside
    r_coeff, t_coeff = rt_from_kappa(np.array([-1.0, 1.0, -1 + 2**-50, -1 + 2**-49]))
    assert list(r_coeff[:3]) == [math.inf, 0.0, math.inf]
    assert list(t_coeff[:3]) == [-math.inf, 1.0, -math.inf]
    assert math.isfinite(r_coeff[3]) and math.isfinite(t_coeff[3])


def test_validation_names_first_bad_cell_in_c_order():
    E = np.array([[2.0, 1.2], [0.5, 3.0]])
    with pytest.raises(ValueError, match="got E = 1.2, m = 1.5"):
        StepProblem(E, 1.5, 5.0)
    with pytest.raises(ValueError, match="V0 must be finite, got nan"):
        StepProblem(np.array([2.0, 3.0]), 1.0, np.array([5.0, math.nan]))
    with pytest.raises(ValueError, match="step height"):
        StepProblem(np.array([2.0, 3.0]), 1.0, np.array([5.0, 0.0]))


def test_wrong_regime_named_for_arrays():
    with pytest.raises(ValueError, match="Klein regime only, got Regime.ABOVE_BARRIER"):
        kappa(StepProblem(np.array([2.0, 7.0]), 1.0, 5.0))
    with pytest.raises(ValueError, match="got Regime.THRESHOLD_LOWER"):
        kappa_prime(StepProblem(np.array([2.0, 4.0]), 1.0, 5.0))
    with pytest.raises(ValueError, match="Klein regime, got Regime.EVANESCENT"):
        group_velocity_region2(StepProblem(np.array([2.0, 5.0, 7.0]), 1.0, 5.0))
    with pytest.raises(ValueError, match="Klein regime, got Regime.THRESHOLD_UPPER"):
        scattering_basis_state(BasisKind.U_PLUS, StepProblem(np.array([2.0, 6.0]), 1.0, 5.0))


def test_empty_problem():
    sol = solve_step_numeric(StepProblem(np.array([]), 1.0, 5.0), Convention.COMMON)
    assert sol.R.shape == sol.regime.shape == (0,)


def test_massless_klein_step_is_reflectionless():
    # step-compare's golden grid: E = 1.5, 2, ..., 9 over V0 = 3, 5, massless
    problem = StepProblem(np.linspace(1.5, 9.0, 16)[:, None], 0.0, np.array([3.0, 5.0]))
    sol = solve_step_numeric(problem, Convention.PAPER)
    klein = sol.regime == Regime.KLEIN
    assert klein.sum() == 10
    assert np.all(sol.R[klein] == 0.0)
    # |t|^2 j_trans / j_inc rounds: 1 - 3.3e-16 at E = 3.5, V0 = 5, printed as 1
    assert np.all(np.abs(sol.T[klein] - 1.0) <= 4 * np.finfo(float).eps)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-155, 1e-100, 1.0, 1e100, 1e152, 1e154,
                                   1e200, 1e300])
def test_numeric_route_holds_over_the_energy_scale(scale):
    # criterion 2's grid and bound over the energy scale: unless the energy scale is removed
    # first, p = sqrt(E^2 - m^2) underflows to 0 below about 1e-155 and overflows above 1e153
    problems, kappas = klein_grid()
    E, m, V0 = (scale * np.array(axis) for axis in zip(*problems))
    sol = solve_step_numeric(StepProblem(E, m, V0), Convention.PAPER)
    closed_r, closed_t = rt_from_kappa(np.array(kappas))
    worst = max(np.abs(sol.R - closed_r).max(), np.abs(sol.T - closed_t).max())
    assert worst < 1e-10, f"worst dual-path deviation {worst:.3e} at scale {scale:g}"


@given(step_grids(), st.integers(-1000, 1000))
@settings(max_examples=100, deadline=None)
def test_power_of_two_energy_scale_changes_no_bit(axes, k):
    # the axes lie in [0.1, 20] or are 0, so every nonzero input stays normal times 2^k
    E, m, V0 = (axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))

    def problem(exponent, cells=slice(None)):
        return StepProblem(*(np.ldexp(x[cells], exponent) for x in (E, m, V0)))

    regimes = classify_regime(problem(0))
    assert np.array_equal(classify_regime(problem(k)), regimes)
    for convention in Convention:
        unit, scaled = (solve_step_numeric(problem(exponent), convention) for exponent in (0, k))
        assert np.array_equal(unit.regime, scaled.regime)
        for name in ("kappa_value", "r", "t", "R", "T"):
            assert getattr(unit, name).tobytes() == getattr(scaled, name).tobytes(), name
    klein = regimes == Regime.KLEIN
    for kernel, cells in ((kappa, klein | (regimes == Regime.THRESHOLD_LOWER)),
                          (kappa_prime, klein), (group_velocity_region2, klein)):
        assert kernel(problem(0, cells)).tobytes() == kernel(problem(k, cells)).tobytes(), kernel

def test_subnormal_problem_is_solved_at_its_normal_scale():
    subnormal = (3e-320, 1e-320, 1e-319)
    sol = solve_step_numeric(StepProblem(*subnormal))
    normal = solve_step_numeric(StepProblem(*(math.ldexp(x, 1059) for x in subnormal)))
    assert sol == normal
    assert sol.R == pytest.approx(0.0577961054, rel=1e-9)
