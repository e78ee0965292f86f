"""Oblique-incidence transmission through gate-defined steps and barriers in graphene.

Massless two-dimensional Dirac carriers with linear dispersion E = s hbar v_F |k|;
energies in eV, lengths in nm, with hbar*v_F as the single material constant.
Electron incidence only (E > 0).  The transverse wavevector k_y = k_F sin(theta_I)
is conserved; beyond the step the longitudinal wavevector is
k_xII = sqrt((E - V0)^2 / (hbar v_F)^2 - k_y^2), real when propagating.

Two conventions for the hole-like transmitted wave are implemented:

* COMMON: t = 2 s_I cos(theta_I) / [s_I e^{-i theta_I} + s_II e^{i theta_II}],
  interior phase +i k_xII x.  Singular at normal incidence for 0 < E < V0.
* PAPER:  t = 2 cos(theta_I) / [e^{-i theta_I} + e^{-i theta_II}],
  interior phase -i k_xII x, equal to 1 at normal incidence.

For a barrier of finite width both conventions span the same interior state
space and give identical transmission; barrier solvers for both are kept as
separate code paths so that equivalence stays a checkable property.

Every kernel takes numpy arrays that broadcast together and works cell by
cell; scalars are the 0-d case and give Python scalars.  Where a 0-d call
raises at a singular or non-propagating point, an array cell holds a
sentinel instead (see each function), so one such cell does not end a sweep.
"""

import math
from dataclasses import dataclass

import numpy as np

from kleinstep.common import (
    HBAR_VF_EV_NM,
    Convention,
    SingularityError,
    broadcast,
    first_point,
    require_finite,
)

__all__ = [
    "AngleKinematics",
    "BarrierSolution",
    "DEFAULT_MATERIAL",
    "GrapheneMaterial",
    "HBAR_VF_EV_NM",
    "angle_kinematics",
    "barrier_transmission",
    "critical_angle",
    "energy_from_wavelength",
    "solve_barrier",
    "t_common",
    "t_paper",
    "transmission_probability",
]

_PAPER = Convention.PAPER


@dataclass(frozen=True)
class GrapheneMaterial:
    hbar_vF: float = HBAR_VF_EV_NM  # eV nm

    def __post_init__(self):
        require_finite(**vars(self))
        if not self.hbar_vF > 0:
            raise ValueError("hbar_vF must be positive")


DEFAULT_MATERIAL = GrapheneMaterial()


@dataclass(frozen=True)
class AngleKinematics:
    """Wavevectors and angles on both sides of a potential step.

    When ``propagating`` is false, k_xII holds the transverse decay rate and
    theta_II is nan.  For array arguments every field is an array of their
    broadcast shape.
    """

    theta_I: float
    k_F: float
    k_y: float
    k_xII: float
    theta_II: float
    s_I: int
    s_II: int
    propagating: bool


def _flat(*values, dtype=float) -> tuple[tuple, list[np.ndarray]]:
    """The broadcast shape of the values, and each value broadcast to it and flattened."""
    arrays = broadcast(*(np.asarray(value, dtype=dtype) for value in values))
    return arrays[0].shape, [array.ravel() for array in arrays]


def _shaped(shape: tuple, *arrays: np.ndarray) -> list:
    """Flat results back in the arguments' shape; a 0-d result as a Python scalar."""
    if not shape:
        return [array.item() for array in arrays]
    return [array.reshape(shape) for array in arrays]


def _require(valid: np.ndarray, validate, *arrays: np.ndarray) -> None:
    """Run ``validate`` on the first invalid cell in C order; it raises that cell's error."""
    if not valid.all():
        validate(*first_point(~valid, *arrays))


def energy_from_wavelength(lambda_F: float, material: GrapheneMaterial = DEFAULT_MATERIAL) -> float:
    """Fermi energy for a Fermi wavelength lambda_F (nm): E = hbar v_F 2 pi / lambda_F."""
    require_finite(lambda_F=lambda_F)
    if not lambda_F > 0:
        raise ValueError("Fermi wavelength must be positive")
    return material.hbar_vF * 2.0 * math.pi / lambda_F


def _validate_incidence(E, V0, theta_I):
    require_finite(E=E, V0=V0, theta_I=theta_I)
    if not E > 0:
        raise ValueError("electron incidence only: E must be positive")
    if not abs(theta_I) < math.pi / 2:
        raise ValueError("incidence angle must lie in (-pi/2, pi/2)")


def _incidence_valid(E, V0, theta_I) -> np.ndarray:
    """The cells that _validate_incidence accepts."""
    return np.isfinite(E) & np.isfinite(V0) & (E > 0) & (np.abs(theta_I) < math.pi / 2)


def _kinematics(E, V0, theta_I, hv):
    """(k_F, k_y, k_xII, theta_II, s_II, propagating) of validated flat arrays."""
    k_F = E / hv
    k_y = k_F * np.sin(theta_I)
    local = E - V0
    with np.errstate(over="raise"):  # an infinite k^2 would leave nan cells, not an error
        kx_sq = (local / hv) ** 2 - k_y * k_y
    propagating = kx_sq > 0
    k_xII = np.sqrt(np.where(propagating, kx_sq, -kx_sq))
    theta_II = np.where(propagating, np.arctan2(k_y, k_xII), math.nan)
    return k_F, k_y, k_xII, theta_II, np.sign(local).astype(int), propagating


def angle_kinematics(
    E: float, V0: float, theta_I: float, material: GrapheneMaterial = DEFAULT_MATERIAL
) -> AngleKinematics:
    """Kinematics for incidence angle theta_I in (-pi/2, pi/2), electron side E > 0.

    E, V0 and theta_I may be arrays that broadcast together; the first
    invalid cell in C order is the one named in the error.
    """
    shape, (E, V0, theta_I) = _flat(E, V0, theta_I)
    _require(_incidence_valid(E, V0, theta_I), _validate_incidence, E, V0, theta_I)
    k_F, k_y, k_xII, theta_II, s_II, propagating = _kinematics(
        E, V0, theta_I, material.hbar_vF)
    return AngleKinematics(*_shaped(
        shape, theta_I, k_F, k_y, k_xII, theta_II, np.ones_like(s_II), s_II, propagating))


def _amplitude(shape: tuple, propagating, numerator, den_re, den_im, singular_error):
    """numerator / (den_re + i den_im) per cell: inf where singular, 0 where not propagating.

    A 0-d call raises ValueError or SingularityError(*singular_error) instead.
    """
    den = np.empty(propagating.size, dtype=complex)
    den.real, den.imag = den_re, den_im
    singular = propagating & (np.abs(den) < 1e-12)
    if not shape:
        if not propagating[0]:
            raise ValueError("no propagating transmitted wave at this angle")
        if singular[0]:
            raise SingularityError(*singular_error)
    den[singular] = 1.0
    with np.errstate(invalid="ignore"):  # a non-propagating cell's theta_II is nan
        t = numerator / den
    t[~propagating] = 0.0
    t[singular] = math.inf
    return _shaped(shape, t)[0]


def t_common(ak: AngleKinematics) -> complex:
    """Momentum-labelled amplitude 2 s_I cos(th_I)/[s_I e^{-i th_I} + s_II e^{i th_II}].

    The denominator vanishes at normal incidence in the Klein zone
    (s_II = -1, theta_I = theta_II = 0); that point raises SingularityError,
    and an array cell there holds t = inf.
    """
    shape, (theta_I, theta_II, s_I, s_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.s_I, ak.s_II, ak.propagating, dtype=None)
    cos_I = np.cos(theta_I)
    return _amplitude(
        shape, propagating, 2.0 * s_I * cos_I,
        s_I * cos_I + s_II * np.cos(theta_II),
        s_I * np.sin(-theta_I) + s_II * np.sin(theta_II),
        ("s_I exp(-i theta_I) + s_II exp(i theta_II)",
         "transmitted amplitude diverges at normal incidence for 0 < E < V0"),
    )


def t_paper(ak: AngleKinematics) -> complex:
    """Current-labelled amplitude 2 cos(th_I)/[e^{-i th_I} + e^{-i th_II}]; 1 at normal incidence.

    Raises ValueError where no transmitted wave propagates; an array cell
    there holds t = 0 (and t_common's likewise).
    """
    shape, (theta_I, theta_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.propagating, dtype=None)
    cos_I = np.cos(theta_I)
    # |den| = 2 cos((th_I - th_II)/2) > 0 for angles below pi/2; checked, not assumed
    return _amplitude(
        shape, propagating, 2.0 * cos_I,
        cos_I + np.cos(theta_II), np.sin(-theta_I) + np.sin(-theta_II),
        ("exp(-i theta_I) + exp(-i theta_II)",),
    )


def transmission_probability(t: complex, ak: AngleKinematics) -> float:
    """T = |t|^2 cos(theta_II) / cos(theta_I).

    Reported raw: the momentum-labelled convention can exceed 1 in the Klein
    zone, which is the pathology this library exists to exhibit.  An array
    cell gives T = 0 where no transmitted wave propagates (a 0-d call
    raises) and T = inf from t_common's singular t = inf.
    """
    shape, (theta_I, theta_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.propagating, dtype=None)
    cos_in = np.cos(theta_I)
    if (cos_in == 0.0).any():
        raise ValueError("grazing incidence: cos(theta_I) = 0")
    if not shape and not propagating[0]:
        raise ValueError("no propagating transmitted wave at this angle")
    t = np.broadcast_to(np.asarray(t, dtype=complex), shape).ravel()
    transmission = np.abs(t) ** 2 * np.cos(theta_II) / cos_in
    transmission[~propagating] = 0.0
    return _shaped(shape, transmission)[0]


def critical_angle(E: float, V0: float) -> float | None:
    """arcsin(|E - V0| / E) when |E - V0| < E, else None (all angles propagate)."""
    require_finite(E=E, V0=V0)
    if not E > 0:
        raise ValueError("electron incidence only: E must be positive")
    ratio = abs(E - V0) / E
    if ratio < 1.0:
        return math.asin(ratio)
    return None


# --------------------------------------------------------------------------
# finite-width barrier: two-interface matching


@dataclass(frozen=True)
class BarrierSolution:
    """Amplitudes of the two-interface matching; R = |r|^2, T = |t|^2.

    For array arguments every field is an array of their broadcast shape.
    A cell at E = V0 (where a 0-d call raises) holds r = t = R = T = nan.
    """

    r: complex
    t: complex
    R: float
    T: float
    interior_propagating: bool


def _spinors(hv: float, k_re, k_im, k_y, eps) -> np.ndarray:
    """(1, hv (k_x + i k_y)/eps) per cell, k_x = k_re + i k_im, as an (N, 2) array.

    The eigenstate of hv (sigma_x k_x + sigma_y k_y) at energy eps.
    """
    spinors = np.ones((eps.size, 2), dtype=complex)
    spinors[:, 1].real = hv * k_re / eps
    spinors[:, 1].imag = hv * (k_im + k_y) / eps
    return spinors


def _validate_barrier(E, V0, D, theta_I):
    _validate_incidence(E, V0, theta_I)
    require_finite(D=D)
    if not D > 0:
        raise ValueError("barrier width D must be positive")


def solve_barrier(
    E: float,
    V0: float,
    D: float,
    theta_I: float,
    convention: Convention = Convention.PAPER,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> BarrierSolution:
    """Match both spinor components at x = 0 and x = D for a width-D barrier.

    The interior pair of states is referenced at its own interface (the
    growing/decaying exponentials never exceed unit magnitude), so the 4x4
    system stays well conditioned for evanescent interiors.  E = V0 makes
    the interior spinors degenerate and raises ValueError.  The interior
    wavevector (or decay rate) is angle_kinematics' k_xII.

    E, V0, D and theta_I may be arrays that broadcast together; every
    non-degenerate cell is matched in one batched solve.
    """
    shape, (E, V0, D, theta_I) = _flat(E, V0, D, theta_I)
    _require(_incidence_valid(E, V0, theta_I) & np.isfinite(D) & (D > 0),
             _validate_barrier, E, V0, D, theta_I)
    paper = Convention(convention) is _PAPER
    hv = material.hbar_vF
    k_F, k_y, k_x, _, s_II, propagating = _kinematics(E, V0, theta_I, hv)
    cells = s_II != 0
    if not shape and not cells[0]:
        raise ValueError("E = V0: interior states are degenerate at the Dirac point")

    r = np.full(E.size, math.nan, dtype=complex)
    t = r.copy()
    if cells.any():
        E, V0, D, theta_I, k_F, k_y, k_x, s_II, inside = (
            array[cells] for array in (E, V0, D, theta_I, k_F, k_y, k_x, s_II, propagating))
        eps2 = E - V0
        k_1 = k_F * np.cos(theta_I)
        # the interior's forward wave: decaying to the right when evanescent (the
        # same for both conventions); for a hole-like propagating interior the
        # conventions disagree on which state is forward
        k_re = np.where(inside, np.where(paper & (s_II < 0), -k_x, k_x), 0.0)
        k_im = np.where(inside, 0.0, k_x)
        fwd1 = _spinors(hv, k_1, 0.0, k_y, E)
        bwd1 = _spinors(hv, -k_1, 0.0, k_y, E)
        fwd2 = _spinors(hv, k_re, k_im, k_y, eps2)
        bwd2 = _spinors(hv, -k_re, -k_im, k_y, eps2)
        # exp(i k_fwd D), |phase| <= 1 by construction
        decay = np.exp(-k_im * D)
        phase = np.empty(E.size, dtype=complex)
        phase.real = decay * np.cos(k_re * D)
        phase.imag = decay * np.sin(k_re * D)
        phase = phase[:, None]

        # unknowns (r, A, B, t); interior written A fwd2 e^{i k x} + B bwd2 e^{-i k (x-D)}
        matrix = np.zeros((E.size, 4, 4), dtype=complex)
        rhs = np.zeros((E.size, 4, 1), dtype=complex)
        matrix[:, 0:2, 0] = bwd1
        matrix[:, 0:2, 1] = -fwd2
        matrix[:, 0:2, 2] = -phase * bwd2
        rhs[:, 0:2, 0] = -fwd1
        matrix[:, 2:4, 1] = phase * fwd2
        matrix[:, 2:4, 2] = bwd2
        matrix[:, 2:4, 3] = -fwd1
        # (N, 4, 1) right-hand side: numpy 2 reads a 2-D b as one (M, K) matrix
        solution = np.linalg.solve(matrix, rhs)[..., 0]
        r[cells], t[cells] = solution[:, 0], solution[:, 3]

    fields = (r, t, np.abs(r) ** 2, np.abs(t) ** 2, propagating)
    return BarrierSolution(*_shaped(shape, *fields))


def barrier_transmission(
    E: float,
    V0: float,
    D: float,
    theta_I: float,
    convention: Convention = Convention.PAPER,
    material: GrapheneMaterial = DEFAULT_MATERIAL,
) -> float:
    """Transmission probability through a width-D barrier; lies in [0, 1]."""
    return solve_barrier(E, V0, D, theta_I, convention, material).T
