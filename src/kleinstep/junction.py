"""Oblique-incidence transmission through one gate-defined step in graphene: the p-n junction.

Two conventions for the hole-like transmitted wave are implemented:

* COMMON: t = 2 s_I cos(theta_I) / [s_I e^{-i theta_I} + s_II e^{i theta_II}],
  interior phase +i k_xII x.  Singular at normal incidence for 0 < E < V0.
  The incident wave is an electron (E > 0), so s_I = 1 throughout.
* PAPER:  t = 2 cos(theta_I) / [e^{-i theta_I} + e^{-i theta_II}],
  interior phase -i k_xII x, equal to 1 at normal incidence.

Units, kinematics, array cells and sentinels are as in kleinstep.graphene:
a 0-d call raises where an array cell holds its sentinel.
"""

import math
from typing import NamedTuple

import numpy as np

from kleinstep.common import _flat, _raise_where, _require, _shaped, _unit_scale
from kleinstep.graphene import (DEFAULT_MATERIAL, GrapheneMaterial, _electron, _incidence,
                                _kinematics)

__all__ = [
    "AngleKinematics",
    "angle_kinematics",
    "critical_angle",
    "t_common",
    "t_paper",
    "transmission_probability",
]


class AngleKinematics(NamedTuple):
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
    s_II: int
    propagating: bool


def angle_kinematics(
    E: float, V0: float, theta_I: float, material: GrapheneMaterial = DEFAULT_MATERIAL
) -> AngleKinematics:
    """Kinematics for incidence angle theta_I in (-pi/2, pi/2), electron side E > 0.

    theta_II = arctan2(k_y, k_xII) and s_II = sign(E - V0) at _kinematics' unit scale.  E, V0
    and theta_I may be arrays that broadcast together; the first invalid cell in C order is named.
    """
    shape, (E, V0, theta_I) = _flat(E, V0, theta_I)
    _require(*_incidence(E, V0, theta_I), E=E, V0=V0, theta_I=theta_I)
    with np.errstate(over="raise"):  # a wavevector beyond float range raises, not inf
        e, E, V0, k_F, k_y, k_xII, propagating = _kinematics(E, V0, theta_I, material.hbar_vF)
        theta_II = np.where(propagating, np.arctan2(k_y, k_xII), math.nan)
        k_F, k_y, k_xII = (np.ldexp(k, e) for k in (k_F, k_y, k_xII))
    return AngleKinematics(*_shaped(
        shape, theta_I, k_F, k_y, k_xII, theta_II, np.sign(E - V0).astype(int), propagating))


def _amplitude(shape: tuple, propagating, numerator, den_re, den_im, kind: str):
    """numerator / (den_re + i den_im) per cell: inf where singular, 0 where not propagating.

    A 0-d call raises instead: the bad-cell error "non_propagating", or ``kind``'s where singular.
    """
    den = np.empty(propagating.size, dtype=complex)
    den.real, den.imag = den_re, den_im
    singular = propagating & (np.abs(den) < 1e-12)
    if not shape:
        _raise_where(~propagating, "non_propagating")
        _raise_where(singular, kind)
    den[singular] = 1.0
    with np.errstate(invalid="ignore"):  # a non-propagating cell's theta_II is nan
        t = numerator / den
    t[~propagating] = 0.0
    t[singular] = math.inf
    return _shaped(shape, t)[0]


def t_common(ak: AngleKinematics) -> complex:
    """Momentum-labelled amplitude 2 cos(th_I)/[e^{-i th_I} + s_II e^{i th_II}].

    The denominator vanishes at normal incidence in the Klein zone
    (s_II = -1, theta_I = theta_II = 0); that point raises SingularityError,
    and an array cell there holds t = inf.
    """
    shape, (theta_I, theta_II, s_II, propagating) = _flat(
        ak.theta_I, ak.theta_II, ak.s_II, ak.propagating, dtype=None)
    cos_I = np.cos(theta_I)
    return _amplitude(
        shape, propagating, 2.0 * cos_I,
        cos_I + s_II * np.cos(theta_II), np.sin(-theta_I) + s_II * np.sin(theta_II), "t_common",
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
        cos_I + np.cos(theta_II), np.sin(-theta_I) + np.sin(-theta_II), "t_paper",
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
    if not shape:
        _raise_where(~propagating, "non_propagating")
    t = np.broadcast_to(np.asarray(t, dtype=complex), shape).ravel()
    transmission = np.abs(t) ** 2 * np.cos(theta_II) / np.cos(theta_I)
    transmission[~propagating] = 0.0
    return _shaped(shape, transmission)[0]


def critical_angle(E: float, V0: float) -> float:
    """arcsin(|E - V0| / E) per cell where |E - V0| < E; where all angles propagate, nan.

    The ratio is taken at unit scale, so E - V0 cannot overflow.
    """
    shape, (E, V0) = _flat(E, V0)
    _require("E", "V0", _electron(E), E=E, V0=V0)
    _, (E, V0) = _unit_scale(np.maximum(E, np.abs(V0)), E, V0)
    ratio = np.abs(E - V0) / E
    return _shaped(shape, np.where(ratio < 1.0, np.arcsin(np.minimum(ratio, 1.0)), math.nan))[0]
