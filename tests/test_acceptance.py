"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from kleinstep.cli import main as cli_main
from kleinstep.common import Convention
from kleinstep.device import DeviceParams, angular_current_profile, iv_curve
from kleinstep.dirac import (
    current_density,
    hamiltonian_residual,
    hamiltonian_residual4,
    make_spinor2,
    make_spinor4,
)
from kleinstep.graphene import (
    angle_kinematics,
    energy_from_wavelength,
    solve_barrier,
    t_paper,
    transmission_probability,
)
from kleinstep.step import (
    _SAMPLE_POINTS,
    BasisKind,
    StepProblem,
    kappa,
    kappa_prime,
    mode_current,
    mode_current_closed_form,
    rt_from_kappa,
    scattering_basis_state,
    solve_step_numeric,
)

from oracles import (
    barrier_T_matrix,
    barrier_T_matrix_current,
    graphene_T_paper,
    sheet_sigma,
    step_kappa_ratio_form,
)

# pre-registered straight-line oracle values (tests/oracles.py, run before the build)
ORACLE_T45 = 0.7279251574477086
ORACLE_T80 = 0.21048421502075365
ORACLE_SIGMA_02 = 3.50876682846e-05


class criterion:
    """Prints 'ACCEPTANCE nn <name>: PASS/FAIL' when the block exits."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:02d} {self.name}: {verdict}")
        return False


_GRID_CACHE: dict = {}


def klein_grid():
    """30 x 30 x 30 grid: mass scale x E/m in (1, 10] x V0/m in (E/m + 1, 20]."""
    if "problems" not in _GRID_CACHE:
        problems = []
        masses = np.linspace(0.5, 2.0, 30)
        e_ratios = np.linspace(1.0, 10.0, 31)[1:]  # half-open (1, 10]
        for m in masses:
            for e_ratio in e_ratios:
                v_ratios = np.linspace(e_ratio + 1.0, 20.0, 31)[1:]  # (E/m + 1, 20]
                for v_ratio in v_ratios:
                    problems.append(StepProblem(float(e_ratio * m), float(m), float(v_ratio * m)))
        _GRID_CACHE["problems"] = problems
        _GRID_CACHE["kappas"] = [kappa(p) for p in problems]
    return _GRID_CACHE["problems"], _GRID_CACHE["kappas"]


def test_criterion_01_klein_zone_sanity():
    with criterion(1, "Klein-zone sanity: kappa, R, T bounded and unitary"):
        start = time.perf_counter()
        problems, kappas = klein_grid()
        assert len(problems) == 27000
        for k in kappas:
            assert 0.0 <= k <= 1.0
            r_coeff, t_coeff = rt_from_kappa(k)
            assert 0.0 <= r_coeff <= 1.0
            assert 0.0 <= t_coeff <= 1.0
            assert abs(r_coeff + t_coeff - 1.0) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f} s"


def test_criterion_02_dual_path_agreement():
    with criterion(2, "numeric matching reproduces closed-form R, T"):
        problems, kappas = klein_grid()
        worst = 0.0
        for prob, k in zip(problems, kappas):
            closed_r, closed_t = rt_from_kappa(k)
            sol = solve_step_numeric(prob, Convention.PAPER)
            worst = max(worst, abs(sol.R - closed_r), abs(sol.T - closed_t))
        assert worst < 1e-10, f"worst dual-path deviation {worst:.3e}"


def test_criterion_02_dual_path_agreement_one_array_call():
    with criterion(2, "the whole grid in one array call reproduces closed-form R, T"):
        problems, kappas = klein_grid()
        grid = StepProblem(*(np.array([getattr(p, name) for p in problems])
                             for name in ("E", "m", "V0")))
        grid_kappas = kappa(grid)
        assert grid_kappas.tolist() == kappas
        closed_r, closed_t = rt_from_kappa(grid_kappas)
        sol = solve_step_numeric(grid, Convention.PAPER)
        worst = max(np.max(np.abs(sol.R - closed_r)), np.max(np.abs(sol.T - closed_t)))
        assert worst < 1e-10, f"worst dual-path deviation {worst:.3e}"


def test_criterion_02_kappa_printed_forms_agree():
    with criterion(2, "kappa's closed root equals the printed ratio form"):
        problems, kappas = klein_grid()
        for prob, k in zip(problems, kappas):
            ratio = step_kappa_ratio_form(prob.E, prob.m, prob.V0)
            # the absolute floor keeps the check meaningful as kappa -> 0
            assert abs(ratio - k) <= 1e-12 * max(1.0, k), (prob, ratio, k)


def test_criterion_02_kappa_prime_identity():
    with criterion(2, "kappa' < 0 and kappa * kappa' = -1 on the grid"):
        problems, kappas = klein_grid()
        for prob, k in zip(problems, kappas):
            kp = kappa_prime(prob)
            assert kp < 0.0, (prob, kp)
            if prob.m > 0:
                assert abs(k * kp + 1.0) <= 1e-9, (prob, k, kp)


def test_criterion_03_kappa_inversion_invariance():
    with criterion(3, "R and T invariant under kappa -> 1/kappa"):
        rng = np.random.default_rng(2024)
        for k in rng.uniform(0.0, 1.0, size=1000):
            if k == 0.0:
                continue
            direct = rt_from_kappa(float(k))
            inverted = rt_from_kappa(1.0 / float(k))
            assert abs(direct[0] - inverted[0]) < 1e-12
            assert abs(direct[1] - inverted[1]) < 1e-12


def test_criterion_04_massless_limit():
    with criterion(4, "massless limit: kappa -> 1, R -> 0, T -> 1"):
        E, V0 = 1.0, 2.0
        near = StepProblem(E, 1e-8 * E, V0)
        _, t_near = rt_from_kappa(kappa(near))
        assert abs(t_near - 1.0) < 1e-6
        sol_near = solve_step_numeric(near, Convention.PAPER)
        assert abs(sol_near.T - 1.0) < 1e-6
        exact = StepProblem(E, 0.0, V0)
        assert kappa(exact) == 1.0
        r_exact, t_exact = rt_from_kappa(kappa(exact))
        assert t_exact == 1.0 and r_exact == 0.0
        sol_exact = solve_step_numeric(exact, Convention.PAPER)
        assert abs(sol_exact.T - 1.0) < 1e-12 and abs(sol_exact.R) < 1e-12


def test_criterion_05_kappa_prime_pathology():
    with criterion(5, "kappa' convention: T < 0, R > 1, massless divergence"):
        problems, _ = klein_grid()
        for prob in problems[::27]:  # 1000 spot checks across the grid
            kp = kappa_prime(prob)
            r_coeff, t_coeff = rt_from_kappa(kp)
            assert t_coeff < 0.0
            assert r_coeff > 1.0
            assert abs(r_coeff + t_coeff - 1.0) < 1e-10
        E, V0 = 1.0, 2.0
        gaps = []
        for exponent in range(1, 8):
            kp = kappa_prime(StepProblem(E, 10.0**-exponent * E, V0))
            gaps.append(abs(1.0 + kp))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), "1 + kappa' not monotone"
        _, t_last = rt_from_kappa(kappa_prime(StepProblem(E, 1e-7 * E, V0)))
        assert abs(t_last) > 1e6


def test_criterion_06_mode_currents():
    with criterion(6, "basis-state currents: constant, closed form, pairwise zero"):
        rng = np.random.default_rng(99)
        cells = []
        for _ in range(100):
            m = float(rng.uniform(0.3, 2.5))
            E = m * float(rng.uniform(1.1, 9.0))
            V0 = E + m * float(rng.uniform(1.1, 15.0))
            cells.append((E, m, V0))
        prob = StepProblem(*np.array(cells).T)  # one array problem of 100 cells
        currents = {}
        for kind in BasisKind:
            state = scattering_basis_state(kind, prob)
            left, right = np.array(state.value(0.0, 0)), np.array(state.value(0.0, 1))
            assert np.all(np.linalg.norm(left - right, axis=0)
                          <= 1e-12 * np.linalg.norm(left, axis=0))
            samples = current_density(state.value(_SAMPLE_POINTS))
            assert np.all(samples.max(axis=-1) - samples.min(axis=-1) < 1e-10)
            measured = mode_current(kind, prob)
            closed = mode_current_closed_form(kind, prob)
            assert measured.shape == (100,)
            assert np.all(np.abs(measured - closed) < 1e-10)
            currents[kind] = measured
        assert np.all(np.abs(currents[BasisKind.U_PLUS] + currents[BasisKind.V_MINUS]) < 1e-12)
        assert np.all(np.abs(currents[BasisKind.U_MINUS] + currents[BasisKind.V_PLUS]) < 1e-12)


def test_criterion_07_spinor_eigenresiduals():
    with criterion(7, "2- and 4-spinor eigenresiduals below 1e-12 on-shell"):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 1000:
            m = float(rng.uniform(0.0, 2.0))
            # two-component: signed local energy, either branch
            eps = float(rng.choice([-1.0, 1.0]) * rng.uniform(m + 1e-6, m + 8.0))
            k = math.sqrt(eps * eps - m * m)
            spinor = make_spinor2(eps, k, m)
            assert hamiltonian_residual(spinor, eps, k, m) < 1e-12
            # four-component: generic momentum direction, both branches and spins
            p = rng.uniform(-2.0, 2.0, size=3)
            energy = math.sqrt(float(p @ p) + m * m)
            if energy == 0.0:
                continue
            for branch, sign in (("positive", 1.0), ("negative", -1.0)):
                for spin in ("up", "down"):
                    psi = make_spinor4(energy, p, m, branch, spin)
                    assert hamiltonian_residual4(psi, sign * energy, p, m) < 1e-12
            checked += 1


def test_criterion_08_graphene_normal_incidence():
    with criterion(8, "unit transmission at normal incidence: step and barriers"):
        E = energy_from_wavelength(50.0)
        ak = angle_kinematics(E, 0.3, 0.0)
        assert transmission_probability(t_paper(ak), ak) == 1.0
        for width in np.linspace(1.0, 200.0, 20):
            for conv in Convention:
                sol = solve_barrier(E, 0.3, float(width), 0.0, conv)
                assert abs(sol.T - 1.0) < 1e-10


def test_criterion_09_barrier_convention_equivalence():
    with criterion(9, "both step conventions give one barrier transmission"):
        start = time.perf_counter()
        energies = np.linspace(0.04, 0.24, 10)
        heights = np.linspace(0.055, 0.455, 10)
        widths = np.linspace(5.0, 120.0, 10)
        thetas = np.radians(np.linspace(-75.0, 75.0, 10))
        points = evanescent = 0
        worst = 0.0
        for E in energies:
            for V0 in heights:
                for D in widths:
                    for theta in thetas:
                        point = float(E), float(V0), float(D), float(theta)
                        paper = solve_barrier(*point, Convention.PAPER)
                        common = solve_barrier(*point, Convention.COMMON)
                        # the one solve against an eigenbasis product in each labelling
                        worst = max(worst, abs(paper.T - common.T),
                                    abs(paper.T - barrier_T_matrix_current(*point)),
                                    abs(common.T - barrier_T_matrix(*point)))
                        points += 1
                        evanescent += not paper.interior_propagating
        elapsed = time.perf_counter() - start
        assert points == 10_000
        assert evanescent > 100, "grid must include evanescent-interior cells"
        assert worst < 1e-10, f"worst convention disagreement {worst:.3e}"
        assert elapsed < 30.0, f"criterion 9 took {elapsed:.2f} s"



def test_criterion_09_barrier_convention_equivalence_one_array_call():
    with criterion(9, "both step conventions give one barrier transmission (one array call)"):
        axes = (
            np.linspace(0.04, 0.24, 10),
            np.linspace(0.055, 0.455, 10),
            np.linspace(5.0, 120.0, 10),
            np.radians(np.linspace(-75.0, 75.0, 10)),
        )
        grid = np.meshgrid(*axes, indexing="ij")
        paper = solve_barrier(*grid, Convention.PAPER)
        common = solve_barrier(*grid, Convention.COMMON)
        assert paper.T.size == 10_000
        assert np.count_nonzero(~paper.interior_propagating) > 100
        worst = float(np.max(np.abs(paper.T - common.T)))
        assert worst < 1e-10, f"worst convention disagreement {worst:.3e}"
        # the same cells as the per-point loop above, bit for bit
        E, V0, D, theta = (float(axis[i]) for axis, i in zip(axes, (3, 7, 2, 8)))
        assert paper.T[3, 7, 2, 8] == solve_barrier(E, V0, D, theta, Convention.PAPER).T

def test_criterion_10_angular_profile_reproduction():
    with criterion(10, "angular current profile: unit center, even, oracle points"):
        thetas = np.radians(np.linspace(-85.0, 85.0, 171))
        profile = angular_current_profile(0.3, thetas, lambda_F=50.0)
        values = profile.relative_current
        assert values[85] == 1.0  # theta = 0
        np.testing.assert_allclose(values, values[::-1], atol=1e-12)
        at45 = angular_current_profile(0.3, [math.radians(45.0)], lambda_F=50.0)
        at80 = angular_current_profile(0.3, [math.radians(80.0)], lambda_F=50.0)
        assert abs(at45.relative_current[0] - ORACLE_T45) < 1e-6
        assert abs(at80.relative_current[0] - ORACLE_T80) < 1e-6
        # and the oracle function itself still reproduces the frozen constants
        E = energy_from_wavelength(50.0)
        assert graphene_T_paper(E, 0.3, math.radians(45.0)) == pytest.approx(
            ORACLE_T45, rel=1e-12
        )


def test_criterion_11_iv_families():
    with criterion(11, "I-V family: linear through origin, 1:2:3 slopes, oracle slope"):
        grid = np.linspace(0.0, 5e-3, 101)
        slopes = {}
        for v_back in (0.1, 0.2, 0.3):
            amps = iv_curve(DeviceParams(back_gate=v_back), grid)
            coeffs, residuals, *_ = np.polyfit(grid, amps, 1, full=True)
            slope, intercept = coeffs
            rel_residual = math.sqrt(float(residuals[0])) / np.linalg.norm(amps)
            assert rel_residual < 1e-12
            assert abs(intercept) < 1e-12 * float(amps.max())
            slopes[v_back] = float(slope)
        assert abs(slopes[0.2] / slopes[0.1] - 2.0) < 1e-12
        assert abs(slopes[0.3] / slopes[0.1] - 3.0) < 1e-12
        assert abs(slopes[0.2] / ORACLE_SIGMA_02 - 1.0) < 1e-12
        # and against the quoted 35.08 uS within 0.1 %
        assert abs(slopes[0.2] / 35.08e-6 - 1.0) < 1e-3
        assert sheet_sigma(0.2) == ORACLE_SIGMA_02


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "identical sweeps emit byte-identical CSV"):
        args = [
            "step-compare", "--E", "1.2:6:25", "--m", "0.5,1", "--V0", "7,9",
            "--no-manifest", "--output",
        ]
        path_a = tmp_path / "run_a.csv"
        path_b = tmp_path / "run_b.csv"
        assert cli_main(args + [str(path_a)]) == 0
        assert cli_main(args + [str(path_b)]) == 0
        bytes_a = path_a.read_bytes()
        assert bytes_a == path_b.read_bytes()
        assert len(bytes_a) > 0
