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

Every function also takes numpy arrays that broadcast together and then
works cell by cell: a 2-spinor becomes an (upper, lower) pair of arrays, a
4-spinor an array of shape (..., 4).  Scalars are the 0-d case and come back
as Python numbers.

The wavevector ``k`` may be imaginary (evanescent solutions, decay rate
kappa_ev with k = i*kappa_ev); everything downstream works with complex k.
"""

import math

import numpy as np

from kleinstep.common import _flat, _require, _shaped, _unit_scale, unwrap

__all__ = [
    "ALPHA_X",
    "ALPHA_Y",
    "ALPHA_Z",
    "BETA",
    "current_density",
    "dirac_hamiltonian",
    "hamiltonian_residual",
    "hamiltonian_residual4",
    "make_spinor2",
    "make_spinor4",
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


def _mass(m: np.ndarray) -> tuple:
    """The rule m >= 0 of _require; a nan mass passes it (finiteness is its own rule)."""
    return ~(m < 0), "mass must be nonnegative"


def _root(a: np.ndarray, m: np.ndarray, lo=None) -> np.ndarray:
    """|(a + lo)^2 - m^2|^(1/2) from (|a| - m +- lo)(|a| + m): no cancellation near |a| = m,
    and, taken at the scale of max(|a|, m), no underflow. lo is a's rounding error, if any."""
    e, (x, m) = _unit_scale(np.maximum(np.abs(a), m), np.abs(a), m)
    gap = x - m if lo is None else x - m + np.ldexp(np.where(a < 0, -lo, lo), -e)
    return np.ldexp(np.sqrt(np.abs(gap * (x + m))), e)


def make_spinor2(eps: float, k: complex, m: float) -> tuple[complex, complex]:
    """On-shell eigenvector (k, eps - m) of H = [[m, k], [k, -m]].

    eps is the local energy E - V (either sign); k is the signed wavevector,
    imaginary for evanescent solutions.  The rest frame k = 0, eps = +m is
    the one point where (k, eps - m) degenerates to zero; the proportional
    form (eps + m, k) = (2m, 0) is returned there instead.  At eps = k = m = 0
    both forms vanish and ValueError("zero spinor") is raised.
    """
    shape, (eps, k, m) = _flat(eps, k, m, dtype=(float, complex, float))
    _require("eps", "k", "m", _mass(m), eps=eps, k=k, m=m)
    # after finiteness: eps^2 - (k^2 + m^2) at an infinite value is nan with a warning
    ksq = k * k
    scale = np.maximum(np.maximum(eps * eps, m * m), np.maximum(np.abs(ksq), 1e-300))
    _require((~(np.abs(eps * eps - (ksq + m * m)) > _ONSHELL_RTOL * scale),
              "off-shell spinor request: eps={eps}, k^2={ksq}, m={m} violate eps^2 = k^2 + m^2"),
             eps=eps, ksq=ksq, m=m)
    return tuple(_shaped(shape, *_spinor2(eps, k, m)))


def _spinor2(eps: np.ndarray, k: np.ndarray, m: np.ndarray, lo=None) -> tuple:
    """make_spinor2's arrays for float arrays eps, m and k (real or complex) of one shape.

    Without make_spinor2's input checks, for values a caller derived: it raises
    only for a zero spinor. lo is eps's rounding error, if any, added to eps - m.
    """
    k = np.asarray(k, dtype=complex)
    upper, lower = k, (eps - m if lo is None else eps - m + lo).astype(complex)
    rest = (upper == 0) & (lower == 0)
    if rest.any():
        # rest frame: fall back to the (eps + m, k) form
        upper, lower = np.where(rest, eps + m, upper), np.where(rest, k, lower)
        _require((~(rest & (upper == 0)), "zero spinor"))
    return upper, lower


def _norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm over the last axis, one vector at a time.

    Each vector goes through the same two BLAS dot products that
    np.linalg.norm makes for a single vector, so a batch of norms equals the
    one-vector norms bit for bit.
    """
    def dot(x):
        return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]

    return np.sqrt(dot(v.real) + dot(v.imag))


def _eigen_residual(v: np.ndarray, h: np.ndarray, energy: np.ndarray) -> np.ndarray:
    norm = _norm(v)
    _require((norm != 0.0, "zero spinor"))
    hv = np.matmul(h, v[..., None])[..., 0]
    return _norm(hv - energy[..., None] * v) / norm


def hamiltonian_residual(psi, eps: float, k: complex, m: float) -> float:
    """||H psi - eps psi|| / ||psi|| for the reduced Hamiltonian at wavevector k."""
    upper, lower = psi
    shape, (eps, k, m, upper, lower) = _flat(eps, k, m, upper, lower,
                                             dtype=(float, complex, float, complex, complex))
    _require("eps", "k", "m", _mass(m), "psi_upper", "psi_lower",
             eps=eps, k=k, m=m, psi_upper=upper, psi_lower=lower)
    h = np.empty(k.shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1] = m, k, k, -m
    return _shaped(shape, _eigen_residual(np.stack((upper, lower), axis=-1), h, eps))[0]


def current_density(psi) -> float:
    """z-current psi^dag alpha_z psi = 2 Re(conj(upper) * lower); sign = direction."""
    upper, lower = psi[0], psi[1]
    # in real arithmetic: numpy's complex product of arrays may fuse a
    # multiply-add, which Python's complex product of scalars does not
    return 2.0 * (upper.real * lower.real + upper.imag * lower.imag)


def dirac_hamiltonian(p, m: float) -> np.ndarray:
    """Full 4x4 Hamiltonian alpha . p + beta m in the Dirac representation.

    Array momentum components and masses give a stack of shape (..., 4, 4).
    """
    px, py, pz, m = (np.asarray(c, dtype=float)[..., None, None] for c in (*p, m))
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
    shape, (E, px, py, pz, m) = _flat(E, *p, m)
    _require("E", "m", "px", "py", "pz", _mass(m), E=E, m=m, px=px, py=py, pz=pz)
    E = np.abs(E)
    E2, shell = E * E, px * px + py * py + pz * pz + m * m
    _require((~(np.abs(E2 - shell) > _ONSHELL_RTOL * np.maximum(np.maximum(E2, shell), 1e-300)),
              "inconsistent (E, p, m): E^2 = {E2} but p^2 + m^2 = {shell}"), E2=E2, shell=shell)
    e = E if branch == "positive" else -E
    column = _SPINOR4_COLUMNS[(branch, spin)](e, px, py, pz, m)
    psi = np.stack(_flat(*column, dtype=complex)[1], axis=-1)
    _require((psi.any(axis=-1), "zero spinor"))
    if normalize:
        psi = (1.0 / (math.sqrt(2.0 * math.pi) * _norm(psi)))[..., None] * psi
    return psi.reshape(shape + (4,))


def hamiltonian_residual4(psi, energy: float, p, m: float) -> float:
    """||H4 psi - energy psi|| / ||psi|| with the signed eigenvalue ``energy``."""
    # left unbroadcast: dirac_hamiltonian builds a (..., 4, 4) term per broadcast component
    energy, px, py, pz, m = (np.asarray(c, dtype=float) for c in (energy, *p, m))
    _require("energy", "m", "px", "py", "pz", _mass(m),
             energy=energy, m=m, px=px, py=py, pz=pz)
    return unwrap(_eigen_residual(np.asarray(psi, dtype=complex),
                                  dirac_hamiltonian((px, py, pz), m), energy))
