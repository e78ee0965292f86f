"""Plane-wave solutions of the 1-D Dirac equation and their probability currents.

Natural units, hbar = c = 1; energies, masses and momenta share one caller
chosen scale.  The Dirac representation is used throughout:
beta = diag(1, 1, -1, -1) and alpha_i with sigma_i in the off-diagonal
blocks.  Spin-conserving propagation along z couples only components (1, 3),
so the working objects are two-component spinors with the reduced
Hamiltonian  H = [[m, k], [k, -m]];  its on-shell eigenvector (k, eps - m)
covers both energy branches, including negative local energy eps = E - V.
A two-component spinor is a plain (upper, lower) tuple of complex numbers;
a four-component spinor is a complex numpy array of shape (4,).

The wavevector ``k`` may be imaginary (evanescent solutions, decay rate
kappa_ev with k = i*kappa_ev); everything downstream works with complex k.
"""

import math
from dataclasses import dataclass

import numpy as np

from kleinstep.common import require_finite

__all__ = [
    "ALPHA_X",
    "ALPHA_Y",
    "ALPHA_Z",
    "BETA",
    "Kinematics1D",
    "current_density",
    "dirac_hamiltonian",
    "hamiltonian_residual",
    "hamiltonian_residual4",
    "local_wavevector",
    "make_spinor2",
    "make_spinor4",
    "momentum",
    "normalization_factor",
]

_ONSHELL_RTOL = 1e-9

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ZERO = np.zeros((2, 2), dtype=complex)

ALPHA_X = np.block([[_ZERO, _SIGMA_X], [_SIGMA_X, _ZERO]])
ALPHA_Y = np.block([[_ZERO, _SIGMA_Y], [_SIGMA_Y, _ZERO]])
ALPHA_Z = np.block([[_ZERO, _SIGMA_Z], [_SIGMA_Z, _ZERO]])
BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class Kinematics1D:
    """Local kinematics in a region of constant potential V.

    ``k`` is the propagating momentum magnitude when ``propagating`` is
    true, otherwise the evanescent decay rate sqrt(m^2 - (E-V)^2).
    """

    E: float
    m: float
    V: float
    k: float
    propagating: bool


def momentum(E: float, m: float) -> float:
    """Free momentum magnitude p = sqrt(E^2 - m^2).

    Raises ValueError for |E| < m: there is no free propagating state there,
    use local_wavevector() for the evanescent classification.
    """
    if m < 0:
        raise ValueError("mass must be nonnegative")
    if abs(E) < m:
        raise ValueError(
            f"|E| = {abs(E)} < m = {m}: evanescent kinematics, "
            "use local_wavevector() instead"
        )
    return math.sqrt(E * E - m * m)


def local_wavevector(E: float, V: float, m: float) -> Kinematics1D:
    """Kinematics at constant potential V: q = sqrt((E-V)^2 - m^2) or decay rate."""
    if m < 0:
        raise ValueError("mass must be nonnegative")
    eps = E - V
    gap = eps * eps - m * m
    if gap >= 0:
        return Kinematics1D(E, m, V, math.sqrt(gap), True)
    return Kinematics1D(E, m, V, math.sqrt(-gap), False)


def _check_onshell(eps: float, ksq: complex, m: float):
    scale = max(abs(eps) ** 2, m * m, abs(ksq), 1e-300)
    if abs(eps * eps - (ksq + m * m)) > _ONSHELL_RTOL * scale:
        raise ValueError(
            f"off-shell spinor request: eps={eps}, k^2={ksq}, m={m} "
            "violate eps^2 = k^2 + m^2"
        )


def make_spinor2(eps: float, k: complex, m: float) -> tuple[complex, complex]:
    """On-shell eigenvector (k, eps - m) of H = [[m, k], [k, -m]].

    eps is the local energy E - V (either sign); k is the signed wavevector,
    imaginary for evanescent solutions.  The rest frame k = 0, eps = +m is
    the one point where (k, eps - m) degenerates to zero; the proportional
    form (eps + m, k) = (2m, 0) is returned there instead.  At eps = k = m = 0
    both forms vanish and ValueError("zero spinor") is raised.
    """
    require_finite(eps=eps, k=k, m=m)
    k = complex(k)
    _check_onshell(eps, k * k, m)
    upper, lower = k, complex(eps - m)
    if upper == 0 and lower == 0:
        # rest frame: fall back to the (eps + m, k) form
        upper, lower = complex(eps + m), k
        if upper == 0:
            raise ValueError("zero spinor")
    return upper, lower


def _eigen_residual(psi, h: np.ndarray, energy: float) -> float:
    v = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("zero spinor")
    return float(np.linalg.norm(h @ v - energy * v)) / norm


def hamiltonian_residual(psi, eps: float, k: complex, m: float) -> float:
    """||H psi - eps psi|| / ||psi|| for the reduced Hamiltonian at wavevector k."""
    return _eigen_residual(psi, np.array([[m, k], [k, -m]], dtype=complex), eps)


def current_density(psi) -> float:
    """z-current psi^dag alpha_z psi = 2 Re(conj(upper) * lower); sign = direction."""
    return 2.0 * (psi[0].conjugate() * psi[1]).real


def dirac_hamiltonian(p, m: float) -> np.ndarray:
    """Full 4x4 Hamiltonian alpha . p + beta m in the Dirac representation."""
    px, py, pz = (float(c) for c in p)
    return px * ALPHA_X + py * ALPHA_Y + pz * ALPHA_Z + m * BETA


_SPINOR4_COLUMNS = {
    # (branch, spin) -> function of (signed energy e, px, py, pz, m)
    ("positive", "up"): lambda e, px, py, pz, m: (e + m, 0.0, pz, px + 1j * py),
    ("positive", "down"): lambda e, px, py, pz, m: (0.0, e + m, px - 1j * py, -pz),
    ("negative", "up"): lambda e, px, py, pz, m: (pz, px + 1j * py, e - m, 0.0),
    ("negative", "down"): lambda e, px, py, pz, m: (px - 1j * py, -pz, 0.0, e - m),
}


def make_spinor4(
    E: float,
    p,
    m: float,
    branch: str = "positive",
    spin: str = "up",
    normalize: bool = False,
) -> np.ndarray:
    """Free-particle four-spinor for energy magnitude E, momentum 3-vector p.

    The negative branch substitutes the signed energy -E into the column, so
    every returned spinor satisfies H4 psi = e psi with e = +E (positive
    branch) or e = -E (negative branch); see hamiltonian_residual4.

    ``normalize=True`` rescales to 1/sqrt(2 pi) norm, which reproduces the
    closed-form factors {2 pi [2E(E +- m)]}^(-1/2) on these columns.
    """
    if branch not in ("positive", "negative"):
        raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")
    if spin not in ("up", "down"):
        raise ValueError(f"spin must be 'up' or 'down', got {spin!r}")
    px, py, pz = (float(c) for c in p)
    require_finite(E=E, m=m, px=px, py=py, pz=pz)
    if m < 0:
        raise ValueError("mass must be nonnegative")
    E = abs(float(E))
    psq = px * px + py * py + pz * pz
    scale = max(E * E, psq + m * m, 1e-300)
    if abs(E * E - (psq + m * m)) > _ONSHELL_RTOL * scale:
        raise ValueError(
            f"inconsistent (E, p, m): E^2 = {E * E} but p^2 + m^2 = {psq + m * m}"
        )
    e = E if branch == "positive" else -E
    psi = np.array(_SPINOR4_COLUMNS[(branch, spin)](e, px, py, pz, m), dtype=complex)
    if not psi.any():
        raise ValueError("zero spinor")
    if normalize:
        psi = 1.0 / (math.sqrt(2.0 * math.pi) * float(np.linalg.norm(psi))) * psi
    return psi


def hamiltonian_residual4(psi, energy: float, p, m: float) -> float:
    """||H4 psi - energy psi|| / ||psi|| with the signed eigenvalue ``energy``."""
    return _eigen_residual(psi, dirac_hamiltonian(p, m), energy)


def normalization_factor(region: str, E: float, m: float, V0: float | None = None) -> float:
    """Plane-wave normalization factor for the step geometry.

    Region "I":  {2 pi [2 p (E - m)]}^(-1/2), needs E > m.
    Region "II": {2 pi [2 q |E - V0 - m|]}^(-1/2), needs a propagating q > 0.
    Thresholds (p = 0, q = 0 or E - V0 = m) make the factor infinite and
    raise ValueError.
    """
    if region == "I":
        p = momentum(E, m)
        if p == 0.0 or E - m <= 0.0:
            raise ValueError("region I threshold p = 0: normalization diverges")
        return 1.0 / math.sqrt(2.0 * math.pi * 2.0 * p * (E - m))
    if region == "II":
        if V0 is None:
            raise ValueError("region II needs the step height V0")
        kin = local_wavevector(E, V0, m)
        if not kin.propagating or kin.k == 0.0:
            raise ValueError("region II is not propagating: normalization undefined")
        depth = abs(E - V0 - m)
        if depth == 0.0:
            raise ValueError("region II threshold E - V0 = m: normalization diverges")
        return 1.0 / math.sqrt(2.0 * math.pi * 2.0 * kin.k * depth)
    raise ValueError(f"region must be 'I' or 'II', got {region!r}")
