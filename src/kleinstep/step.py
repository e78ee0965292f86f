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

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from kleinstep.common import Convention, SingularityError, require_finite
from kleinstep.dirac import (
    current_density,
    local_wavevector,
    make_spinor2,
    momentum,
    normalization_factor,
)

__all__ = [
    "BasisKind",
    "PiecewiseSpinorWave",
    "PlaneWaveTerm",
    "Regime",
    "StepProblem",
    "StepScatteringSolution",
    "classify_regime",
    "group_velocity_region2",
    "kappa",
    "kappa_prime",
    "mode_current",
    "mode_current_closed_form",
    "rt_from_kappa",
    "scattering_basis_state",
    "solve_step_numeric",
]

_THRESHOLD_RTOL = 1e-12


class Regime(Enum):
    ABOVE_BARRIER = "above_barrier"
    EVANESCENT = "evanescent"
    KLEIN = "klein"
    THRESHOLD_UPPER = "threshold_upper"
    THRESHOLD_LOWER = "threshold_lower"


@dataclass(frozen=True)
class StepProblem:
    """Incident energy E > m, rest mass m >= 0, step height V0 > 0."""

    E: float
    m: float
    V0: float

    def __post_init__(self):
        require_finite(**vars(self))
        if self.m < 0:
            raise ValueError("mass must be nonnegative")
        if self.V0 <= 0:
            raise ValueError("step height V0 must be positive")
        if not self.E > self.m:
            raise ValueError(
                f"incident wave must propagate in region I: need E > m, "
                f"got E = {self.E}, m = {self.m}"
            )


@dataclass(frozen=True)
class StepScatteringSolution:
    """Amplitudes and coefficients from the z = 0 continuity matching.

    kappa_value is the convention's matching parameter where it exists
    (nan in the evanescent regime, inf at the upper threshold).  T is the
    signed transmitted/incident current ratio; R the reflected one.
    """

    convention: Convention
    kappa_value: float
    r: complex
    t: complex
    R: float
    T: float
    regime: Regime


def classify_regime(problem: StepProblem) -> Regime:
    """Exactly one regime per problem.

    Thresholds are detected within 1e-12 of the problem's own scale
    max(E, m, V0), so the regime is invariant under an overall energy scale.
    """
    E, m, V0 = problem.E, problem.m, problem.V0
    tolerance = _THRESHOLD_RTOL * max(E, m, V0)
    if abs(E - (V0 + m)) <= tolerance:
        return Regime.THRESHOLD_UPPER
    if abs(E - (V0 - m)) <= tolerance:
        return Regime.THRESHOLD_LOWER
    if E > V0 + m:
        return Regime.ABOVE_BARRIER
    if E < V0 - m:
        return Regime.KLEIN
    return Regime.EVANESCENT


def kappa(problem: StepProblem) -> float:
    """Klein-zone matching parameter, 0 <= kappa <= 1.

    The closed square root sqrt[(V0-E-m)(E-m) / ((V0-E+m)(E+m))] of the
    printed ratio form (-q/p)(E-m)/(E-V0-m).  At the lower threshold (q = 0)
    the limit 0 is returned.
    """
    regime = classify_regime(problem)
    if regime is Regime.THRESHOLD_LOWER:
        return 0.0
    if regime is not Regime.KLEIN:
        raise ValueError(f"kappa is defined in the Klein regime only, got {regime}")
    E, m, V0 = problem.E, problem.m, problem.V0
    return math.sqrt((V0 - E - m) * (E - m) / ((V0 - E + m) * (E + m)))


def kappa_prime(problem: StepProblem) -> float:
    """Momentum-labelled matching parameter kappa' = q(E+m)/[p(E+m-V0)].

    Klein zone only; always negative there, with kappa * kappa' = -1.
    """
    regime = classify_regime(problem)
    if regime is not Regime.KLEIN:
        raise ValueError(f"kappa_prime is defined in the Klein regime only, got {regime}")
    E, m, V0 = problem.E, problem.m, problem.V0
    p = momentum(E, m)
    q = local_wavevector(E, V0, m).k
    return q * (E + m) / (p * (E + m - V0))


def rt_from_kappa(x: float) -> tuple[float, float]:
    """R = ((1-x)/(1+x))^2 and T = 4x/(1+x)^2; R + T = 1 identically.

    x = -1 is the singular point of the momentum-labelled convention in the
    massless limit and raises SingularityError.
    """
    if 1.0 + x == 0.0:
        raise SingularityError("1 + kappa", "R and T diverge at kappa = -1")
    r_coeff = ((1.0 - x) / (1.0 + x)) ** 2
    t_coeff = 4.0 * x / (1.0 + x) ** 2
    return r_coeff, t_coeff


def solve_step_numeric(
    problem: StepProblem, convention: Convention = Convention.PAPER
) -> StepScatteringSolution:
    """Solve psi_inc(0) + r psi_refl(0) = t psi_trans(0) and form R, T from currents.

    The region-II spinor is the convention's forward wave: wavevector -q
    (PAPER) or +q (COMMON) in the Klein zone, +q above the barrier, i*kappa_ev
    when evanescent (then R = 1, T = 0 with a decaying region-II amplitude).
    Threshold regimes return the explicit limiting values; the massless
    Klein step under COMMON is genuinely singular and raises.
    """
    regime = classify_regime(problem)
    E, m, V0 = problem.E, problem.m, problem.V0
    p = momentum(E, m)
    kin2 = local_wavevector(E, V0, m)
    eps2 = E - V0

    if regime is Regime.THRESHOLD_UPPER:
        # region-II spinor degenerates to zero; limit from both sides is total reflection
        return StepScatteringSolution(
            convention, math.inf, complex(-1.0), complex(math.inf), 1.0, 0.0, regime
        )
    if regime is Regime.THRESHOLD_LOWER:
        # q = 0: matching gives r = 1 and a zero-current region-II amplitude
        t_limit = complex(-(E - m) / m) if m > 0 else complex(math.inf)
        return StepScatteringSolution(
            convention, 0.0, complex(1.0), t_limit, 1.0, 0.0, regime
        )

    if regime is Regime.KLEIN:
        if convention is Convention.PAPER:
            kappa_value = kappa(problem)
            k2 = -kin2.k
        else:
            kappa_value = kappa_prime(problem)
            if 1.0 + kappa_value == 0.0:
                raise SingularityError(
                    "1 + kappa_prime",
                    "massless Klein step in the momentum-labelled convention",
                )
            k2 = complex(kin2.k)
    elif regime is Regime.ABOVE_BARRIER:
        kappa_value = kin2.k * (E - m) / (p * (eps2 - m))
        k2 = complex(kin2.k)
    else:  # EVANESCENT
        kappa_value = math.nan
        k2 = 1j * kin2.k

    inc = make_spinor2(E, p, m)
    refl = make_spinor2(E, -p, m)
    trans = make_spinor2(eps2, k2, m)

    matrix = np.array([[refl[0], -trans[0]], [refl[1], -trans[1]]], dtype=complex)
    rhs = np.array([-inc[0], -inc[1]], dtype=complex)
    r, t = np.linalg.solve(matrix, rhs)

    j_inc = current_density(inc)
    big_r = abs(r) ** 2 * abs(current_density(refl) / j_inc)
    big_t = abs(t) ** 2 * current_density(trans) / j_inc
    return StepScatteringSolution(
        convention, float(kappa_value), complex(r), complex(t), float(big_r), float(big_t), regime
    )


def group_velocity_region2(problem: StepProblem) -> float:
    """Magnitude-level group velocity q/(V0 - E) of the Klein-zone transmitted wave."""
    if classify_regime(problem) is not Regime.KLEIN:
        raise ValueError("group velocity of the transmitted branch needs the Klein regime")
    q = local_wavevector(problem.E, problem.V0, problem.m).k
    return q / (problem.V0 - problem.E)


# --------------------------------------------------------------------------
# scattering-basis states (reflectionless in/out modes) and their currents


class BasisKind(Enum):
    U_PLUS = "u+z"
    U_MINUS = "u-z"
    V_PLUS = "v+z"
    V_MINUS = "v-z"


@dataclass(frozen=True)
class PlaneWaveTerm:
    """One plane-wave piece amplitude * spinor * exp(i k z); k may be signed."""

    amplitude: complex
    spinor: tuple[complex, complex]
    wavevector: complex

    def value(self, z: float) -> np.ndarray:
        phase = self.amplitude * cmath.exp(1j * self.wavevector * z)
        return phase * np.array(self.spinor, dtype=complex)


@dataclass(frozen=True)
class PiecewiseSpinorWave:
    """Piecewise two-component wave: region-I terms for z < 0, region-II for z >= 0.

    ``region2_sign`` is the overall sign applied to the region-II piece so
    that the state is continuous at z = 0 (the printed coefficients alone
    leave the two pieces with an overall relative sign).
    """

    terms_region1: tuple[PlaneWaveTerm, ...]
    terms_region2: tuple[PlaneWaveTerm, ...]
    region2_sign: int

    def value_region1(self, z: float) -> np.ndarray:
        return sum((term.value(z) for term in self.terms_region1), np.zeros(2, dtype=complex))

    def value_region2(self, z: float) -> np.ndarray:
        raw = sum((term.value(z) for term in self.terms_region2), np.zeros(2, dtype=complex))
        return self.region2_sign * raw

    def value(self, z: float) -> np.ndarray:
        return self.value_region1(z) if z < 0 else self.value_region2(z)

    def current(self, z: float) -> float:
        return current_density(self.value(z))


def scattering_basis_state(kind: BasisKind, problem: StepProblem) -> PiecewiseSpinorWave:
    """Reflectionless particle (u) / antiparticle (v) modes of the Klein step.

    Built from the printed coefficients 2 sqrt(kappa)/(kappa+1) and
    (kappa-1)/(kappa+1) with the region normalization factors folded in;
    the region-II sign is then fixed by the z = 0 continuity requirement
    and recorded on the result.
    """
    if classify_regime(problem) is not Regime.KLEIN:
        raise ValueError("scattering basis states need the Klein regime")
    kind = BasisKind(kind)
    E, m, V0 = problem.E, problem.m, problem.V0
    p = momentum(E, m)
    q = local_wavevector(E, V0, m).k
    eps2 = E - V0
    k = kappa(problem)
    n1 = normalization_factor("I", E, m)
    n2 = normalization_factor("II", E, m, V0)

    lone = 2.0 * math.sqrt(k) / (k + 1.0)  # single-wave region amplitude
    u_pair = (k - 1.0) / (k + 1.0)  # partner-wave amplitude in u states
    v_pair = (1.0 - k) / (k + 1.0)  # and in v states

    sp = lambda kk, ee: make_spinor2(ee, kk, m)  # noqa: E731

    if kind is BasisKind.U_PLUS:
        region1 = (PlaneWaveTerm(n1 * lone, sp(p, E), p),)
        region2 = (
            PlaneWaveTerm(n2 * u_pair, sp(q, eps2), -q),
            PlaneWaveTerm(n2, sp(-q, eps2), q),
        )
    elif kind is BasisKind.U_MINUS:
        region1 = (PlaneWaveTerm(n1 * lone, sp(-p, E), -p),)
        region2 = (
            PlaneWaveTerm(n2 * u_pair, sp(-q, eps2), q),
            PlaneWaveTerm(n2, sp(q, eps2), -q),
        )
    elif kind is BasisKind.V_PLUS:
        region1 = (
            PlaneWaveTerm(n1 * v_pair, sp(-p, E), -p),
            PlaneWaveTerm(n1, sp(p, E), p),
        )
        region2 = (PlaneWaveTerm(n2 * lone, sp(-q, eps2), q),)
    else:  # V_MINUS
        region1 = (
            PlaneWaveTerm(n1 * v_pair, sp(p, E), p),
            PlaneWaveTerm(n1, sp(-p, E), -p),
        )
        region2 = (PlaneWaveTerm(n2 * lone, sp(q, eps2), -q),)

    left = sum((term.value(0.0) for term in region1), np.zeros(2, dtype=complex))
    right = sum((term.value(0.0) for term in region2), np.zeros(2, dtype=complex))
    scale = max(float(np.linalg.norm(left)), 1e-300)
    mismatch = {
        +1: float(np.linalg.norm(left - right)),
        -1: float(np.linalg.norm(left + right)),
    }
    sign = min(mismatch, key=mismatch.get)
    if mismatch[sign] > 1e-12 * scale:
        raise ArithmeticError(
            f"basis state {kind.value} cannot be made continuous at z = 0 "
            f"(residual {mismatch[sign]:.3e} on scale {scale:.3e})"
        )
    return PiecewiseSpinorWave(region1, region2, sign)


_SAMPLE_POINTS = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)


def mode_current(kind: BasisKind, problem: StepProblem, samples=_SAMPLE_POINTS) -> float:
    """Current of a basis state, checked to be z-independent before returning.

    Samples both sides of the step (default 3 points each) and requires the
    spread to stay below 1e-10.
    """
    state = scattering_basis_state(kind, problem)
    values = [state.current(z) for z in samples]
    spread = max(values) - min(values)
    if spread >= 1e-10:
        raise ArithmeticError(
            f"basis-state current is not constant in z (spread {spread:.3e})"
        )
    return sum(values) / len(values)


def mode_current_closed_form(kind: BasisKind, problem: StepProblem) -> float:
    """+-(2 kappa / pi)/(kappa + 1)^2, sign set by the propagation subscript."""
    kind = BasisKind(kind)
    k = kappa(problem)
    magnitude = (2.0 * k / math.pi) / (k + 1.0) ** 2
    sign = 1.0 if kind in (BasisKind.U_PLUS, BasisKind.V_PLUS) else -1.0
    return sign * magnitude
