"""Reflection and transmission of a Dirac particle at a sharp potential step.

Covers every regime above the free-region gap (E > m): transmission over the
barrier, evanescent total reflection, the Klein interval V0 > E + m, and the
two threshold lines in between.  In the Klein interval the solver supports
two rival conventions for the transmitted wave (see common.Convention):

* PAPER:  the region-II wave with forward current, matching parameter
  kappa = (-q/p)(E-m)/(E-V0-m) in [0, 1], so R, T in [0, 1] and R + T = 1.
* COMMON: the wave labelled by momentum sign, matching parameter
  kappa' = q(E+m)/[p(E+m-V0)] < 0, which yields T < 0 and R > 1 and is
  singular in the massless limit (kappa' -> -1).

Transmission is always computed from current ratios of unnormalized
spinors, so the normalization factors never enter R or T.
"""

from enum import Enum
from typing import NamedTuple

import numpy as np

from kleinstep.common import (
    Convention,
    _flat,
    _raise_where,
    _require,
    _shaped,
    _unit_scale,
    _validated_make,
)
from kleinstep.dirac import _mass, _root, _spinor2, current_density

__all__ = [
    "Regime",
    "StepProblem",
    "StepScatteringSolution",
    "classify_regime",
    "group_velocity_region2",
    "kappa",
    "kappa_prime",
    "rt_from_kappa",
    "solve_step_numeric",
]

_THRESHOLD_RTOL = 1e-12


class Regime(Enum):
    ABOVE_BARRIER = "above_barrier"
    EVANESCENT = "evanescent"
    KLEIN = "klein"
    THRESHOLD_UPPER = "threshold_upper"
    THRESHOLD_LOWER = "threshold_lower"


# The kernels classify cells into int8 codes: a regime's code is its index in
# _REGIMES, Regime's members in definition order.
_REGIMES = np.array(list(Regime), dtype=object)
_ABOVE_BARRIER, _EVANESCENT, _KLEIN, _THRESHOLD_UPPER, _THRESHOLD_LOWER = range(len(Regime))


class StepProblem(NamedTuple("StepProblem", [("E", float), ("m", float), ("V0", float)])):
    """Incident energy E > m, rest mass m >= 0, step height V0 > 0.

    E, m and V0 may be numpy arrays that broadcast together; each cell is
    then one problem, and the first invalid cell in C order is the one named
    in the error.
    """

    __slots__ = ()

    def __new__(cls, E: float, m: float, V0: float):
        self = super().__new__(cls, E, m, V0)
        E, m, V0 = (np.asarray(value, dtype=float) for value in (E, m, V0))
        _require("E", "m", "V0", _mass(m),
                 (V0 > 0, "step height V0 must be positive"),
                 (E > m, "incident wave must propagate in region I: need E > m, "
                         "got E = {E}, m = {m}"),
                 E=E, m=m, V0=V0)
        return self

    _make = classmethod(_validated_make)


class StepScatteringSolution(NamedTuple):
    """Amplitudes and coefficients from the z = 0 continuity matching.

    kappa_value is the convention's matching parameter where it exists
    (nan in the evanescent regime, inf at the upper threshold).  T is the
    signed transmitted/incident current ratio; R the reflected one.

    For an array problem every field except ``convention`` is an array of
    the problem's shape, ``regime`` one of Regime members.  A singular cell
    (|1 + kappa'| <= 4 eps or a zero matching determinant: the massless or
    near-massless Klein step under COMMON) then holds kappa_value = -1, R = inf, T = -inf and
    r = t = nan instead of raising.
    """

    convention: Convention
    kappa_value: float
    r: complex
    t: complex
    R: float
    T: float
    regime: Regime


def _classify(E: np.ndarray, m: np.ndarray, V0: np.ndarray) -> np.ndarray:
    """The regime code of every cell (see _REGIMES)."""
    tolerance = _THRESHOLD_RTOL * np.maximum(np.maximum(E, m), V0)
    top, bottom = V0 + m, V0 - m
    codes = np.full(E.shape, _EVANESCENT, dtype=np.int8)
    codes[E > top] = _ABOVE_BARRIER
    codes[E < bottom] = _KLEIN
    # thresholds last: they take precedence, the upper one over the lower
    codes[np.abs(E - bottom) <= tolerance] = _THRESHOLD_LOWER
    codes[np.abs(E - top) <= tolerance] = _THRESHOLD_UPPER
    return codes


def _kinematics(E: np.ndarray, m: np.ndarray, V0: np.ndarray) -> tuple:
    """(codes, p, q, eps, lo) of validated flat arrays; q is a decay rate where evanescent.

    eps + lo = E - V0 exactly (TwoSum). Near E = V0 + m with V0 < m, eps is not exact, and lo,
    added where eps - m is formed, keeps the digits there."""
    eps = E - V0
    bb = eps - E
    lo = (E - (eps - bb)) - (V0 + bb)
    return _classify(E, m, V0), _root(E, m), _root(eps, m, lo), eps, lo


def _cells(problem: StepProblem) -> tuple:
    """Shape, e and flat E, m, V0 times 2^-e, e the exponent of max(E, V0): exact, so scale-free."""
    shape, (E, m, V0) = _flat(problem.E, problem.m, problem.V0)
    return (shape, *_unit_scale(np.maximum(E, V0), E, m, V0))


def _klein(problem: StepProblem, rule: str) -> tuple:
    """shape, e, E, m, p, q and eps of _cells and _kinematics, once every cell is a Klein cell.

    ``rule`` says what needs the Klein regime; it begins the error's message."""
    shape, e, (E, m, V0) = _cells(problem)
    codes, p, q, eps, _ = _kinematics(E, m, V0)
    _require((codes == _KLEIN, rule + ", got {regime}"), regime=_REGIMES.take(codes))
    return shape, e, E, m, p, q, eps


def classify_regime(problem: StepProblem) -> Regime:
    """Exactly one regime per problem (per cell for an array problem).

    Thresholds are detected within 1e-12 of the problem's own scale
    max(E, m, V0), so the regime is invariant under an overall energy scale.
    """
    shape, _, (E, m, V0) = _cells(problem)
    return _shaped(shape, _REGIMES.take(_classify(E, m, V0)))[0]


def _kappa_klein(E, m, eps):
    return np.sqrt((-eps - m) * (E - m) / ((m - eps) * (E + m)))


def _kappa_prime_klein(E, m, p, q, eps):
    return q * (E + m) / (p * (eps + m))  # from eps = E - V0: exact near E = V0 - m


def kappa(problem: StepProblem) -> float:
    """Klein-zone matching parameter, 0 <= kappa <= 1.

    The closed square root sqrt[(V0-E-m)(E-m) / ((V0-E+m)(E+m))] of the
    printed ratio form (-q/p)(E-m)/(E-V0-m).  At the lower threshold (q = 0)
    the limit 0 is returned.
    """
    shape, _, (E, m, V0) = _cells(problem)
    codes = _classify(E, m, V0)
    klein = codes == _KLEIN
    _require((klein | (codes == _THRESHOLD_LOWER),
              "kappa is defined in the Klein regime only, got {regime}"),
             regime=_REGIMES.take(codes))
    with np.errstate(invalid="ignore", divide="ignore"):
        return _shaped(shape, np.where(klein, _kappa_klein(E, m, E - V0), 0.0))[0]


def kappa_prime(problem: StepProblem) -> float:
    """Momentum-labelled matching parameter kappa' = q(E+m)/[p(E+m-V0)].

    Klein zone only; always negative there, with kappa * kappa' = -1.
    """
    shape, _, E, m, p, q, eps = _klein(problem, "kappa_prime is defined in the Klein regime only")
    return _shaped(shape, _kappa_prime_klein(E, m, p, q, eps))[0]


# R and T have their pole where |1 + kappa| <= 4 eps (eps = 2^-52: a band of 8.9e-16, about
# the rounding error of a kappa near -1), in rt_from_kappa and the COMMON step solve alike
_POLE_BAND = 4 * 2.0 ** -52


def rt_from_kappa(x: float) -> tuple[float, float]:
    """R = ((1-x)/(1+x))^2 and T = 4x/(1+x)^2; R + T = 1 identically.

    x = -1 is the singular point of the momentum-labelled convention in the
    massless limit: an x with |1 + x| <= 4 eps (_POLE_BAND, the solver's own
    band) raises SingularityError.  An array x gives the limits R = inf,
    T = -inf in those cells instead, so one singular cell does not end a sweep.
    """
    shape, (x,) = _flat(x)
    singular = np.abs(1.0 + x) <= _POLE_BAND
    if not shape:
        _raise_where(singular, "kappa")
    with np.errstate(divide="ignore", invalid="ignore"):
        denominator = 1.0 + x
        r_coeff = ((1.0 - x) / denominator) ** 2
        t_coeff = 4.0 * x / denominator ** 2
    r_coeff[singular], t_coeff[singular] = np.inf, -np.inf
    return tuple(_shaped(shape, r_coeff, t_coeff))


def solve_step_numeric(
    problem: StepProblem, convention: Convention = Convention.PAPER
) -> StepScatteringSolution:
    """Solve psi_inc(0) + r psi_refl(0) = t psi_trans(0) and form R, T from currents.

    The region-II spinor is the convention's forward wave: wavevector -q
    (PAPER) or +q (COMMON) in the Klein zone, +q above the barrier, i*kappa_ev
    when evanescent (then R = 1, T = 0 with a decaying region-II amplitude).
    Threshold regimes return the explicit limiting values.  The (near-)massless
    Klein step under COMMON is singular and raises SingularityError: where
    |1 + kappa'| <= 4 eps (eps = 2^-52: a band of 8.9e-16, about the rounding
    error of kappa' itself), or where the matching determinant is 0.

    An array problem is matched by Cramer's rule over all of its non-threshold,
    non-singular cells at once; see StepScatteringSolution for what its
    singular cells hold.
    """
    convention = Convention(convention)
    shape, _, (E, m, V0) = _cells(problem)
    codes, p, q, eps, lo = _kinematics(E, m, V0)
    klein = codes == _KLEIN

    with np.errstate(invalid="ignore", divide="ignore"):
        if convention is Convention.PAPER:
            klein_kappa = _kappa_klein(E, m, eps)
        else:
            klein_kappa = _kappa_prime_klein(E, m, p, q, eps)
        kappa_value = np.where(klein, klein_kappa, np.where(
            codes == _ABOVE_BARRIER, q * (E - m) / (p * (eps - m + lo)), np.nan))
    upper = codes == _THRESHOLD_UPPER
    lower = codes == _THRESHOLD_LOWER
    kappa_value[upper], kappa_value[lower] = np.inf, 0.0
    # singular before matching where |1 + kappa'| <= 4 eps, after it where the determinant is 0
    singular = klein & (np.abs(1.0 + kappa_value) <= _POLE_BAND)

    r = np.empty(E.size, dtype=complex)
    t = np.empty(E.size, dtype=complex)
    big_r = np.ones(E.size)
    big_t = np.zeros(E.size)
    # region-II spinor degenerates to zero at the upper threshold; the limit
    # from both sides is total reflection
    r[upper], t[upper] = -1.0, np.inf
    # q = 0 at the lower threshold: matching gives r = 1 and a zero-current
    # region-II amplitude
    r[lower], t[lower] = 1.0, -(E[lower] - m[lower]) / m[lower]
    cells = ~(upper | lower | singular)
    r[cells], t[cells], big_r[cells], big_t[cells], singular[cells] = _match(
        *(array[cells] for array in (E, m, p, q, eps, lo, codes)), convention)

    if not shape:
        _raise_where(singular, "kappa_prime")
    kappa_value[singular], r[singular], t[singular] = -1.0, np.nan, np.nan
    big_r[singular], big_t[singular] = np.inf, -np.inf
    return StepScatteringSolution(convention, *_shaped(
        shape, kappa_value, r, t, big_r, big_t, _REGIMES.take(codes)))


def _match(E, m, p, q, eps, lo, codes, convention: Convention) -> tuple:
    """r, t, R and T of non-threshold cells by Cramer's rule, and which of them are singular.

    The spinors are built from (E, k, m) alone, unchecked: their values are the solver's own.
    Region II's takes eps's rounding error lo into its eps - m.
    Region I's are built at E's own power-of-two scale 2^a and region II's at that
    of max(|E - V0|, m), 2^b, so that below a deep step (V0 >> E) no product of
    them underflows. The matching then gives r, R and T as they are, and t * 2^(b - a).
    """
    a, (E, p, m1) = _unit_scale(E, E, p, m)
    b, (eps, q, m2, lo) = _unit_scale(np.maximum(np.abs(eps), m), eps, q, m, lo)
    forward = -q if convention is Convention.PAPER else q
    k2 = np.where(codes == _EVANESCENT, 1j * q, np.where(codes == _KLEIN, forward, q))
    inc, refl, trans = _spinor2(E, p, m1), _spinor2(E, -p, m1), _spinor2(eps, k2, m2, lo)
    # Cramer's rule on inc + r refl = t trans
    det = trans[0] * refl[1] - refl[0] * trans[1]
    zero = det == 0
    det[zero] = 1.0  # their results are replaced by the sentinels
    r = (inc[0] * trans[1] - trans[0] * inc[1]) / det
    t = (inc[0] * refl[1] - refl[0] * inc[1]) / det

    j_inc = current_density(inc)
    big_r = np.hypot(r.real, r.imag) ** 2 * np.abs(current_density(refl) / j_inc)
    big_t = np.hypot(t.real, t.imag) ** 2 * current_density(trans) / j_inc
    t.real, t.imag = np.ldexp(t.real, a - b), np.ldexp(t.imag, a - b)
    return r, t, big_r, big_t, zero


def group_velocity_region2(problem: StepProblem) -> float:
    """Magnitude-level group velocity q/(V0 - E) of the Klein-zone transmitted wave."""
    shape, _, _, _, _, q, eps = _klein(
        problem, "group velocity of the transmitted branch needs the Klein regime")
    return _shaped(shape, q / -eps)[0]
