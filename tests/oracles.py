"""Independent straight-line oracles used to freeze expected test values.

Every function here is a direct transcription of a closed-form expression,
written before (and kept independent of) the library implementation.  The
barrier oracle deliberately uses explicit inverse-matrix transfer products,
a different route than the production solver.

Run ``python tests/oracles.py`` to print the frozen reference values.
"""

import cmath
import math

import numpy as np

HBAR_VF = 0.6578  # eV nm


# ---------------------------------------------------------------- 1-D step

def step_kappa(E, m, V0):
    """sqrt[(V0-E-m)(E-m) / ((V0-E+m)(E+m))]"""
    return math.sqrt((V0 - E - m) * (E - m) / ((V0 - E + m) * (E + m)))


def step_kappa_ratio_form(E, m, V0):
    """(-q/p) (E-m)/(E-V0-m)"""
    p = math.sqrt(E * E - m * m)
    q = math.sqrt((E - V0) ** 2 - m * m)
    return (-q / p) * ((E - m) / (E - V0 - m))


def step_kappa_prime(E, m, V0):
    """q(E+m) / [p(E+m-V0)]"""
    p = math.sqrt(E * E - m * m)
    q = math.sqrt((E - V0) ** 2 - m * m)
    return q * (E + m) / (p * (E + m - V0))


def rt_pair(x):
    """R = ((1-x)/(1+x))^2,  T = 4x/(1+x)^2"""
    return ((1.0 - x) / (1.0 + x)) ** 2, 4.0 * x / (1.0 + x) ** 2


def basis_current_magnitude(E, m, V0):
    """(2 kappa / pi) / (kappa + 1)^2"""
    k = step_kappa(E, m, V0)
    return (2.0 * k / math.pi) / (k + 1.0) ** 2


def region2_group_velocity(E, m, V0):
    """q / (V0 - E)"""
    q = math.sqrt((E - V0) ** 2 - m * m)
    return q / (V0 - E)


def region1_norm_factor(E, m):
    """{2 pi [2 p (E - m)]}^(-1/2)"""
    p = math.sqrt(E * E - m * m)
    return 1.0 / math.sqrt(2.0 * math.pi * 2.0 * p * (E - m))


def region2_norm_factor(E, m, V0):
    """{2 pi [2 q |E - V0 - m|]}^(-1/2)"""
    q = math.sqrt((E - V0) ** 2 - m * m)
    return 1.0 / math.sqrt(2.0 * math.pi * 2.0 * q * abs(E - V0 - m))


# ------------------------------------------------------------- graphene

def fermi_energy(lambda_F, hbar_vF=HBAR_VF):
    return hbar_vF * 2.0 * math.pi / lambda_F


def graphene_angles(E, V0, theta_I, hbar_vF=HBAR_VF):
    """(k_F, k_y, k_xII, theta_II) for a propagating transmitted wave."""
    k_F = E / hbar_vF
    k_y = k_F * math.sin(theta_I)
    k_xII = math.sqrt(((E - V0) / hbar_vF) ** 2 - k_y * k_y)
    theta_II = math.atan2(k_y, k_xII)
    return k_F, k_y, k_xII, theta_II


def graphene_T_paper(E, V0, theta_I, hbar_vF=HBAR_VF):
    """|t|^2 cos(theta_II)/cos(theta_I) with t = 2 cos(theta_I)/[e^{-i th_I} + e^{-i th_II}]"""
    _, _, _, th2 = graphene_angles(E, V0, theta_I, hbar_vF)
    t = 2.0 * math.cos(theta_I) / (cmath.exp(-1j * theta_I) + cmath.exp(-1j * th2))
    return abs(t) ** 2 * math.cos(th2) / math.cos(theta_I)


def graphene_T_common(E, V0, theta_I, hbar_vF=HBAR_VF):
    """Same probability with t = 2 s_I cos(theta_I)/[s_I e^{-i th_I} + s_II e^{i th_II}]"""
    _, _, _, th2 = graphene_angles(E, V0, theta_I, hbar_vF)
    s1 = 1.0 if E > 0 else -1.0
    s2 = 1.0 if E - V0 > 0 else -1.0
    t = 2.0 * s1 * math.cos(theta_I) / (s1 * cmath.exp(-1j * theta_I) + s2 * cmath.exp(1j * th2))
    return abs(t) ** 2 * math.cos(th2) / math.cos(theta_I)


def barrier_T_matrix(E, V0, D, theta_I, hbar_vF=HBAR_VF, current_labelled=False):
    """Finite-width barrier transmission via an inverse-matrix transfer product.

    Momentum-labelled interior basis; columns of W are the +k_x and -k_x
    eigenstates evaluated at position x.  T = |1/M[0,0]|^2 with
    M = W1(0)^-1 W2(0) W2(D)^-1 W3(D).  With ``current_labelled`` the
    interior's first column is the state that carries current towards +x
    instead: k_x -> -k_x for a propagating hole-like interior (E < V0).
    """
    k_F = E / hbar_vF
    k_y = k_F * math.sin(theta_I)
    k_1 = k_F * math.cos(theta_I)

    def basis(eps, k_x, x):
        lo_p = hbar_vF * (k_x + 1j * k_y) / eps
        lo_m = hbar_vF * (-k_x + 1j * k_y) / eps
        e_p = cmath.exp(1j * k_x * x)
        e_m = cmath.exp(-1j * k_x * x)
        return np.array([[e_p, e_m], [lo_p * e_p, lo_m * e_m]], dtype=complex)

    eps2 = E - V0
    k_2 = cmath.sqrt(complex((eps2 / hbar_vF) ** 2 - k_y * k_y))
    if current_labelled and eps2 < 0 and k_2.imag == 0:
        k_2 = -k_2
    m_tot = (
        np.linalg.inv(basis(E, k_1, 0.0))
        @ basis(eps2, k_2, 0.0)
        @ np.linalg.inv(basis(eps2, k_2, D))
        @ basis(E, k_1, D)
    )
    return float(abs(1.0 / m_tot[0, 0]) ** 2)


def barrier_T_matrix_current(E, V0, D, theta_I, hbar_vF=HBAR_VF):
    """barrier_T_matrix with the current-labelled interior basis (the paper's convention)."""
    return barrier_T_matrix(E, V0, D, theta_I, hbar_vF, current_labelled=True)


def barrier_T_kng(E, V0, D, theta_I, hbar_vF=HBAR_VF):
    """Katsnelson-Novoselov-Geim closed form (Nat. Phys. 2, 620, 2006).

    T = cos^2 th cos^2 phi / {[cos(q D) cos phi cos th]^2 + sin^2(q D) (1 - s s' sin phi sin th)^2}
    with s' sin phi = k_y / k2, s' cos phi = q / k2, k2 = (E - V0)/hbar_vF.  Multiplied
    through by k2^2: q^2 cos^2 th / {q^2 cos^2 th cos^2(q D) + (k2 - k_y sin th)^2 sin^2(q D)}.
    An evanescent interior (q = i kappa) continues it with cosh/sinh:
    kappa^2 cos^2 th / {kappa^2 cos^2 th cosh^2(kappa D) + (k2 - k_y sin th)^2 sinh^2(kappa D)}.
    """
    k_y = E / hbar_vF * math.sin(theta_I)
    k2 = (E - V0) / hbar_vF
    lead = (k2 - k_y * math.sin(theta_I)) ** 2
    q_sq = k2 * k2 - k_y * k_y
    if q_sq >= 0.0:
        q = math.sqrt(q_sq)
        num = q_sq * math.cos(theta_I) ** 2
        return num / (num * math.cos(q * D) ** 2 + lead * math.sin(q * D) ** 2)
    kappa = math.sqrt(-q_sq)
    num = -q_sq * math.cos(theta_I) ** 2
    return num / (num * math.cosh(kappa * D) ** 2 + lead * math.sinh(kappa * D) ** 2)

# ------------------------------------------------------------- device

E_CHARGE = 1.602176634e-19  # C


def sheet_sigma(V_b, mobility=15000.0, alpha=7.3e10):
    """n e mu with n = alpha |V_b|; cm^-2 x C x cm^2/(V s) = S per square."""
    return alpha * abs(V_b) * E_CHARGE * mobility


if __name__ == "__main__":
    E, m, V0 = 2.0, 1.0, 5.0
    k = step_kappa(E, m, V0)
    kp = step_kappa_prime(E, m, V0)
    print("p(2,1)                 =", repr(math.sqrt(3.0)))
    print("q(2,1,5)               =", repr(math.sqrt(8.0)))
    print("kappa_ev(2,2.5,1)      =", repr(math.sqrt(1.0 - 0.25)))
    print("kappa sqrt form        =", repr(k))
    print("kappa ratio form       =", repr(step_kappa_ratio_form(E, m, V0)))
    print("kappa_prime            =", repr(kp))
    print("R,T (paper)            =", repr(rt_pair(k)))
    print("R,T (common)           =", repr(rt_pair(kp)))
    print("basis current          =", repr(basis_current_magnitude(E, m, V0)))
    print("group velocity         =", repr(region2_group_velocity(E, m, V0)))
    print("N_I(2,1)               =", repr(region1_norm_factor(E, m)))
    print("N_II(2,1,5)            =", repr(region2_norm_factor(E, m, V0)))

    E_F = fermi_energy(50.0)
    print("E(lambda=50nm)         =", repr(E_F))
    kin45 = graphene_angles(E_F, 0.3, math.radians(45.0))
    print("45deg kinematics       =", repr(kin45))
    print("T_paper(45deg)         =", repr(graphene_T_paper(E_F, 0.3, math.radians(45.0))))
    print("T_paper(80deg)         =", repr(graphene_T_paper(E_F, 0.3, math.radians(80.0))))
    print("T_common(45deg)        =", repr(graphene_T_common(E_F, 0.3, math.radians(45.0))))

    _, _, kx30, _ = graphene_angles(E_F, 0.3, math.radians(30.0))
    d_res = math.pi / kx30
    print("D_res(30deg)           =", repr(d_res))
    print("T_barrier(D_res)       =", repr(barrier_T_matrix(E_F, 0.3, d_res, math.radians(30.0))))
    print("T_barrier(50nm,45deg)  =", repr(barrier_T_matrix(E_F, 0.3, 50.0, math.radians(45.0))))

    print("sigma(Vb=0.2)          =", repr(sheet_sigma(0.2)))
    print("I(Vb=0.2, V=1mV)       =", repr(sheet_sigma(0.2) * 1.0 * 1e-3))
