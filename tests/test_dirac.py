"""Spinor construction, eigenresiduals, and currents."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kleinstep.dirac import (
    _hamiltonian4,
    current_density,
    hamiltonian_residual,
    hamiltonian_residual4,
    make_spinor2,
    make_spinor4,
)

SQRT3 = math.sqrt(3.0)
SQRT8 = math.sqrt(8.0)


# Far from unit scale the on-shell tolerance is still 1e-9 of the largest square: an on-shell
# grid whose squares round is accepted, and the same grid 1.5e-9 E^2 off shell is rejected cell
# by cell.
FAR_SCALES = (1e3, 1e5)
# Where every square is below 1e-300, the tolerance is 1e-9 of that floor: these energies
# square to exactly 1e-9 * 1e-300, on the tolerance, and to 1.5e-309, beyond it.
ON_FLOOR_TOLERANCE = float.fromhex("0x1.b22afd2ccdc25p-514")
BEYOND_FLOOR_TOLERANCE = float.fromhex("0x1.09df5a33c92fdp-513")


def far_grid(scale, top):
    """An 8 x 8 grid: energies E from scale to 2 scale, masses m from 0 to top E."""
    E = np.broadcast_to(scale * np.linspace(1.0, 2.0, 8)[:, None], (8, 8))
    return E, E * np.linspace(0.0, top, 8)


class TestSpinor2:
    def test_positive_branch(self):
        sp = make_spinor2(2.0, SQRT3, 1.0)
        assert isinstance(sp, tuple) and len(sp) == 2
        assert sp[0] == pytest.approx(SQRT3)
        assert sp[1] == pytest.approx(1.0)

    def test_negative_branch_klein_region(self):
        # region II of a step with E=2, V0=5: local energy -3
        sp = make_spinor2(-3.0, SQRT8, 1.0)
        assert sp[0] == pytest.approx(SQRT8)
        assert sp[1] == pytest.approx(-4.0)

    def test_massless(self):
        assert make_spinor2(1.0, 1.0, 0.0) == (1.0, 1.0)

    def test_rest_frame_fallback(self):
        assert make_spinor2(1.0, 0.0, 1.0) == (2.0, 0.0)

    def test_evanescent_complex_wavevector(self):
        # decay rate sqrt(m^2 - eps^2) at E = 2, V = 2.5, m = 1
        decay = math.sqrt(0.75)
        sp = make_spinor2(-0.5, 1j * decay, 1.0)
        assert sp[0] == 1j * decay
        assert hamiltonian_residual(sp, -0.5, 1j * decay, 1.0) < 1e-12

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError, match="off-shell"):
            make_spinor2(2.0, 1.0, 1.0)
        for scale in FAR_SCALES:
            E, m = far_grid(scale, 0.9)
            make_spinor2(E, np.sqrt(E * E - m * m), m)
            for eps, k, mass in zip(E.flat, np.sqrt(E * E - m * m + 1.5e-9 * E * E).flat, m.flat):
                with pytest.raises(ValueError, match="off-shell"):
                    make_spinor2(eps, k, mass)
        # at the 1e-300 scale floor (k = m = 0): eps^2 on the tolerance passes, 1.5x it fails
        make_spinor2(ON_FLOOR_TOLERANCE, 0.0, 0.0)
        with pytest.raises(ValueError, match="off-shell"):
            make_spinor2(BEYOND_FLOOR_TOLERANCE, 0.0, 0.0)

    def test_zero_spinor_rejected(self):
        # massless rest frame: both (k, eps - m) and (eps + m, k) vanish
        with pytest.raises(ValueError, match="zero spinor"):
            make_spinor2(0.0, 0.0, 0.0)


class TestResidualAndCurrent:
    def test_eigenvector(self):
        assert hamiltonian_residual((SQRT3, 1.0), 2.0, SQRT3, 1.0) <= 1e-12

    def test_deliberate_mismatch(self):
        assert hamiltonian_residual((1.0, 0.0), 1.0, 1.0, 1.0) > 0.1

    def test_massless_eigenvector(self):
        assert hamiltonian_residual((1.0, 1.0), 1.0, 1.0, 0.0) == 0.0

    def test_zero_spinor_residual_rejected(self):
        with pytest.raises(ValueError, match="zero spinor"):
            hamiltonian_residual((0.0, 0.0), 1.0, 1.0, 0.0)

    def test_current_values(self):
        assert current_density((SQRT3, 1.0)) == pytest.approx(2 * SQRT3)
        assert current_density((1.0, -1.0)) == -2.0
        assert current_density((1.0, 1j)) == 0.0
        assert current_density(np.array([1.0, -1.0], dtype=complex)) == -2.0

    @given(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
    def test_current_bilinearity(self, c, a, b):
        psi = (a + 0.3j, b - 0.7j)
        scaled = (c * psi[0], c * psi[1])
        assert current_density(scaled) == pytest.approx(
            abs(c) ** 2 * current_density(psi), rel=1e-12, abs=1e-12
        )

    def test_plane_wave_current_signs(self):
        # forward positive-energy wave moves right; the +k negative-energy wave
        # carries leftward current (why the Klein-zone forward wave uses -q)
        assert current_density(make_spinor2(3.0, SQRT8, 1.0)) > 0
        assert current_density(make_spinor2(-3.0, SQRT8, 1.0)) < 0

    def test_eigenresidual_grid(self):
        ms = [0.0, 0.5, 1.0, 2.0]
        eps_grid = np.linspace(-8.0, 8.0, 41)
        for m in ms:
            for eps in eps_grid:
                gap = eps * eps - m * m
                k = math.sqrt(gap) if gap >= 0 else 1j * math.sqrt(-gap)
                if eps == 0 and k == 0:
                    continue
                sp = make_spinor2(float(eps), k, m)
                assert hamiltonian_residual(sp, float(eps), k, m) < 1e-12


class TestSpinor4:
    def test_positive_up_column(self):
        psi = make_spinor4(math.sqrt(2.0), (0.0, 0.0, 1.0), 1.0, "up")
        expected = np.array([math.sqrt(2.0) + 1.0, 0.0, 1.0, 0.0])
        assert psi.shape == (4,) and psi.dtype == complex
        np.testing.assert_allclose(psi, expected, rtol=1e-14)

    def test_negative_up_column_uses_signed_energy(self):
        psi = make_spinor4(-math.sqrt(2.0), (0.0, 0.0, 1.0), 1.0, "up")
        expected = np.array([1.0, 0.0, -math.sqrt(2.0) - 1.0, 0.0])
        np.testing.assert_allclose(psi, expected, rtol=1e-14)
        # the energy's sign is the one way to ask for this branch
        with pytest.raises(TypeError):
            make_spinor4(math.sqrt(2.0), (0.0, 0.0, 1.0), 1.0, branch="negative")

    def test_rest_frame(self):
        psi = make_spinor4(1.0, (0.0, 0.0, 0.0), 1.0, "up")
        np.testing.assert_allclose(psi, [2.0, 0.0, 0.0, 0.0])

    def test_zero_spinor_rejected(self):
        # massless rest frame: every column vanishes
        with pytest.raises(ValueError, match="zero spinor"):
            make_spinor4(0.0, (0.0, 0.0, 0.0), 0.0)

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            make_spinor4(2.0, (0.0, 0.0, 1.0), 1.0)
        for scale in FAR_SCALES:
            E, m = far_grid(scale, 0.8)
            px, py = 0.3 * E, -0.2 * E
            pz_sq = E * E - m * m - px * px - py * py
            make_spinor4(E, (px, py, np.sqrt(pz_sq)), m)
            off = np.sqrt(pz_sq + 1.5e-9 * E * E)
            for cell in zip(E.flat, px.flat, py.flat, off.flat, m.flat):
                with pytest.raises(ValueError, match="inconsistent"):
                    make_spinor4(cell[0], cell[1:4], cell[4])
        # at the 1e-300 scale floor (p = 0, m = 0), as for make_spinor2
        make_spinor4(ON_FLOOR_TOLERANCE, (0.0, 0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="inconsistent"):
            make_spinor4(BEYOND_FLOOR_TOLERANCE, (0.0, 0.0, 0.0), 0.0)

    def test_unknown_spin_rejected(self):
        with pytest.raises(ValueError, match="^spin must be 'up' or 'down', got 'left'$"):
            make_spinor4(2.0, (0.0, 0.0, SQRT3), 1.0, "left")

    @pytest.mark.parametrize("branch,sign", [("positive", 1.0), ("negative", -1.0)])
    @pytest.mark.parametrize("spin", ["up", "down"])
    def test_eigenvalue_both_branches(self, branch, sign, spin):
        # generic momentum direction, not just along z; the energy's sign picks the branch
        p = (0.6, -0.3, 1.1)
        m = 0.8
        E = math.sqrt(sum(c * c for c in p) + m * m)
        psi = make_spinor4(sign * E, p, m, spin)
        assert hamiltonian_residual4(psi, sign * E, p, m) < 1e-12

    def test_eigenresidual_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform(-3, 3, size=3)
            m = rng.uniform(0.0, 2.0)
            E = math.sqrt(float(p @ p) + m * m)
            if E == 0:
                continue
            for sign in (1.0, -1.0):
                for spin in ("up", "down"):
                    psi = make_spinor4(sign * E, p, m, spin)
                    assert hamiltonian_residual4(psi, sign * E, p, m) < 1e-12

    def test_normalized_matches_closed_form_factors(self):
        # {2 pi [2E(E +- m)]}^(-1/2) with the signed-energy substitution equals
        # 1/(sqrt(2 pi) ||column||) on these columns
        E, m = 2.5, 1.0
        pz = math.sqrt(E * E - m * m)
        for sign in (1.0, -1.0):
            raw = make_spinor4(sign * E, (0, 0, pz), m, "up")
            unit = make_spinor4(sign * E, (0, 0, pz), m, "up", normalize=True)
            n_closed = 1.0 / math.sqrt(2 * math.pi * 2 * E * (E + m))
            np.testing.assert_allclose(
                unit, n_closed * raw, rtol=1e-12
            )
            assert np.linalg.norm(unit) == pytest.approx(
                1 / math.sqrt(2 * math.pi), rel=1e-14
            )

    @pytest.mark.parametrize("spin", ["up", "down"])
    def test_energy_sign_picks_each_cells_column(self, spin):
        # the columns of the Dirac representation at the signed energy e, written out
        def column(e, px, py, pz, m):
            if e > 0:
                return ((e + m, 0.0, pz, px + 1j * py) if spin == "up"
                        else (0.0, e + m, px - 1j * py, -pz))
            return ((pz, px + 1j * py, e - m, 0.0) if spin == "up"
                    else (px - 1j * py, -pz, 0.0, e - m))

        rng = np.random.default_rng(11)
        p, m = rng.uniform(-3, 3, size=(3, 50)), rng.uniform(0.0, 2.0, size=50)
        E = np.sqrt((p * p).sum(axis=0) + m * m) * np.where(np.arange(50) % 2, -1.0, 1.0)
        # E = +-0 is on shell with a momentum whose square underflows: the negative column
        E, m = np.append(E, [0.0, -0.0]), np.append(m, [0.0, 0.0])
        p = np.append(p, [[1e-200, 1e-200], [0.0, 0.0], [0.0, 0.0]], axis=1)
        psi = make_spinor4(E, p, m, spin)
        expected = [column(*cell) for cell in zip(E, *p, m)]
        assert psi.tobytes() == np.array(expected, dtype=complex).tobytes()

    def test_hamiltonian_matrix_is_hermitian(self):
        h = _hamiltonian4((0.4, 0.2, -1.3), 0.7)
        np.testing.assert_allclose(h, h.conj().T)


def test_spinor4_rejects_nonfinite():
    with pytest.raises(ValueError, match="E must be finite"):
        make_spinor4(math.inf, (0, 0, 0), 0)
    with pytest.raises(ValueError, match="pz must be finite"):
        make_spinor4(1.0, (0, 0, math.nan), 1.0)


@pytest.mark.parametrize("args,message", [
    (((1.0, 1.0), math.nan, 1.0, 0.0), "eps must be finite, got nan"),
    (((1.0, 1.0), 1.0, math.inf, 0.0), "k must be finite, got (inf+0j)"),
    (((1.0, complex(0.0, -math.inf)), 1.0, 1.0, 0.0), "psi_lower must be finite, got -infj"),
], ids=["nan-eps", "inf-k", "inf-psi"])
def test_residual_rejects_nonfinite_without_a_warning(args, message):
    # rejected before any arithmetic: no nan result and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            hamiltonian_residual(*args)
    assert str(error.value) == message


def test_residual4_rejects_nonfinite_without_a_warning():
    psi = make_spinor4(2.0, (0.0, 0.0, SQRT3), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as error:
            hamiltonian_residual4(psi, 2.0, (0.0, 0.0, math.inf), 1.0)
    assert str(error.value) == "pz must be finite, got inf"
