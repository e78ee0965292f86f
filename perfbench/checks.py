"""Independent closed forms that every row the benchmark reads is checked against.

Nothing here imports kleinstep: regimes, kappa, R and T at a Dirac step, the
graphene angle formulas, the Katsnelson-Novoselov-Geim barrier transmission
and the ohmic sheet are written out again from the physics.

A checker takes a launch (see gen.Launch) and its parsed rows and returns
(failed rows, Counter of row categories).  Categories are the regime or
status of each row, so a run can record the shares it realised.
"""

import cmath
import json
import math
from collections import Counter

ELEMENTARY_CHARGE = 1.602176634e-19  # C
HBAR_VF = 0.6578  # eV nm, the CLI default
_TEXT_COLUMNS = {"regime", "convention"}


# ------------------------------------------------------------------ parsing


def parse(data: bytes, fmt: str):
    """Rows of a --no-manifest output as dicts, plus the bare NaN/Infinity count.

    JSON is read leniently: bare NaN and +-Infinity tokens are not RFC 8259,
    but they are counted and accepted here, not gated on.
    """
    text = data.decode("utf-8")
    if fmt == "json":
        nonfinite = Counter()

        def constant(token):
            nonfinite[token] += 1
            return float(token.replace("Infinity", "inf"))

        rows = [dict(row) for row in json.loads(text, parse_constant=constant)["rows"]]
        return rows, sum(nonfinite.values())
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    if not lines:
        return [], 0
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append({col: cell if col in _TEXT_COLUMNS else float(cell)
                     for col, cell in zip(header, cells)})
    return rows, 0


# ------------------------------------------------------------ comparisons


def close(got, want, rtol=1e-7, atol=1e-10) -> bool:
    """Equal to the 9 significant digits the CLI prints; nan and inf must match exactly."""
    if not isinstance(got, float) or not isinstance(want, float):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def in_unit(x, slack=1e-9) -> bool:
    return isinstance(x, float) and -slack <= x <= 1.0 + slack


# ------------------------------------------------------------- Dirac step


def step_regime(E: float, m: float, V0: float) -> str:
    tol = 1e-12 * max(1.0, abs(E), abs(V0))
    if abs(E - (V0 + m)) <= tol:
        return "threshold_upper"
    if abs(E - (V0 - m)) <= tol:
        return "threshold_lower"
    if E > V0 + m:
        return "above_barrier"
    if E < V0 - m:
        return "klein"
    return "evanescent"


def _rt(x: float):
    return ((1.0 - x) / (1.0 + x)) ** 2, 4.0 * x / (1.0 + x) ** 2


def step_expected(E: float, m: float, V0: float, convention: str):
    """(regime, kappa, R, T) under one convention; kappa is None when singular."""
    regime = step_regime(E, m, V0)
    if regime == "threshold_upper":
        return regime, math.inf, 1.0, 0.0
    if regime == "threshold_lower":
        return regime, 0.0, 1.0, 0.0
    if regime == "evanescent":
        return regime, math.nan, 1.0, 0.0
    if regime == "above_barrier":
        k = math.sqrt((E - V0 + m) * (E - m) / ((E + m) * (E - V0 - m)))
        return (regime, k) + _rt(k)
    k = math.sqrt((V0 - E - m) * (E - m) / ((V0 - E + m) * (E + m)))
    if convention == "paper":
        return (regime, k) + _rt(k)
    if m == 0.0:
        return regime, None, math.inf, -math.inf  # kappa' = -1: R, T diverge
    kp = -math.sqrt((V0 - E + m) * (E + m) / ((V0 - E - m) * (E - m)))  # = -1/kappa
    return (regime, kp) + _rt(kp)


def _step_row_ok(row, E, m, V0, convention, kappa_col, r_col, t_col) -> bool:
    regime, k, big_r, big_t = step_expected(E, m, V0, convention)
    got_r, got_t = row[r_col], row[t_col]
    if k is None:  # documented --allow-singular sentinels
        return row[kappa_col] == -1.0 and got_r == math.inf and got_t == -math.inf
    if not (close(row[kappa_col], k) and close(got_r, big_r) and close(got_t, big_t)):
        return False
    if convention == "paper" or regime != "klein":
        return in_unit(got_r) and in_unit(got_t) and abs(got_r + got_t - 1.0) <= 1e-8
    return got_t < 0.0 and got_r > 1.0 and abs(got_r + got_t - 1.0) <= 1e-7 * got_r


def check_step_compare(launch, rows):
    c = launch.ctx
    points = [(E, m, V0) for E in c["E"] for m in c["m"] for V0 in c["V0"]]
    failed, cats = 0, Counter()
    for row, (E, m, V0) in zip(rows, points):
        regime = step_regime(E, m, V0)
        ok = (close(row["E"], E) and close(row["m"], m) and close(row["V0"], V0)
              and row["regime"] == regime)
        ok = ok and _step_row_ok(row, E, m, V0, "paper", "kappa", "R_paper", "T_paper")
        if regime == "klein":
            ok = ok and _step_row_ok(row, E, m, V0, "common", "kappa_prime",
                                     "R_common", "T_common")
        else:  # both conventions agree outside the Klein zone; kappa' is nan there
            ok = ok and math.isnan(row["kappa_prime"]) and close(
                row["R_common"], row["R_paper"]) and close(row["T_common"], row["T_paper"])
        singular = regime == "klein" and m == 0.0
        cats["singular" if singular else regime] += 1
        failed += not ok
    return failed, cats


def check_step_rt(launch, rows):
    c = launch.ctx
    m, V0, conv = c["m"], c["V0"], c["convention"]
    failed, cats = 0, Counter()
    for row, E in zip(rows, c["E"]):
        regime = step_regime(E, m, V0)
        ok = (close(row["E"], E) and row["convention"] == conv and row["regime"] == regime
              and _step_row_ok(row, E, m, V0, conv, "kappa", "R", "T"))
        # the incident and reflected currents have equal magnitude, so R = |r|^2
        r_sq = row["r_re"] ** 2 + row["r_im"] ** 2
        ok = ok and close(row["R"], r_sq, rtol=1e-6)
        cats[regime] += 1
        failed += not ok
    return failed, cats


def check_spinor(launch, rows):
    m = launch.ctx["m"]
    failed, cats = 0, Counter()
    for row, eps in zip(rows, launch.ctx["eps"]):
        gap = eps * eps - m * m
        scale = 1e-9 * max(1.0, abs(eps), m)
        if gap >= 0:
            k_re, k_im, current = math.sqrt(gap), 0.0, 2.0 * math.sqrt(gap) * (eps - m)
        else:
            k_re, k_im, current = 0.0, math.sqrt(-gap), 0.0
        ok = (close(row["eps"], eps) and close(row["k_re"], k_re) and close(row["k_im"], k_im)
              and close(row["m"], m) and close(row["current"], current, atol=scale)
              and 0.0 <= row["residual2"] <= scale)
        if gap >= 0 and eps != 0.0:
            ok = ok and 0.0 <= row["residual4"] <= scale
        else:
            ok = ok and math.isnan(row["residual4"])
        cats["propagating" if gap > 0 else ("k0" if gap == 0 else "evanescent")] += 1
        failed += not ok
    return failed, cats


# ------------------------------------------------------------------ graphene


def angle_expected(E: float, V0: float, theta_deg: float, hv: float = HBAR_VF):
    """(ky, kxII, thetaII_deg, T_paper, T_common) from the angle formulas.

    T_paper = cos th cos th2 / cos^2((th - th2)/2) and
    T_common = 2 cos th cos th2 / (1 + s cos(th + th2)), s = sign(E - V0);
    the latter is None (singular) at normal incidence in the Klein zone.
    """
    th = math.radians(theta_deg)
    ky = E / hv * math.sin(th)
    kx_sq = ((E - V0) / hv) ** 2 - ky * ky
    if kx_sq <= 0:
        return ky, math.nan, math.nan, 0.0, 0.0
    kx = math.sqrt(kx_sq)
    th2 = math.atan2(ky, kx)
    t_paper = math.cos(th) * math.cos(th2) / math.cos((th - th2) / 2.0) ** 2
    s = 1.0 if E > V0 else -1.0
    den = 1.0 + s * math.cos(th + th2)
    t_common = None if den < 1e-20 else 2.0 * math.cos(th) * math.cos(th2) / den
    return ky, kx, math.degrees(th2), t_paper, t_common


def check_graphene_angle(launch, rows):
    E, V0 = launch.ctx["E"], launch.ctx["V0"]
    failed, cats = 0, Counter()
    for row in rows:
        ky, kx, th2, tp, tc = angle_expected(E, V0, row["theta_deg"])
        ok = (close(row["ky"], ky, atol=1e-9) and close(row["kxII"], kx)
              and close(row["thetaII_deg"], th2, atol=1e-8) and close(row["T_paper"], tp))
        if tc is None:
            ok = ok and row["T_common"] == math.inf
            cats["singular"] += 1
        else:
            ok = ok and close(row["T_common"], tc)
            cats["non_propagating" if math.isnan(kx) else "propagating"] += 1
        if E < V0:  # Klein zone: the current-labelled T stays a probability
            ok = ok and in_unit(row["T_paper"])
        failed += not ok
    return failed, cats


def barrier_expected(E: float, V0: float, D: float, theta_deg: float, hv: float = HBAR_VF):
    """Katsnelson-Novoselov-Geim closed form (Nat. Phys. 2, 620, 2006).

    T = cos^2 th cos^2 phi / ([cos(qD) cos phi cos th]^2
                              + sin^2(qD) (1 - s s' sin phi sin th)^2),
    continued to an evanescent interior through complex q and phi.
    """
    th = math.radians(theta_deg)
    ky = E / hv * math.sin(th)
    k2 = (E - V0) / hv
    q = cmath.sqrt(k2 * k2 - ky * ky)
    # with the signed interior wavevector k2 = (E - V0)/hv these are s' sin(phi)
    # and s' cos(phi), which folds the band signs s s' into the formula
    sin_phi = ky / k2
    cos_phi = q / k2
    num = (math.cos(th) * cos_phi) ** 2
    den = (cmath.cos(q * D) * cos_phi * math.cos(th)) ** 2 + cmath.sin(q * D) ** 2 * (
        1.0 - sin_phi * math.sin(th)) ** 2
    return abs(num / den), q.imag == 0.0


def check_barrier(launch, rows):
    E, V0, theta = launch.ctx["E"], launch.ctx["V0"], launch.ctx["theta"]
    failed, cats = 0, Counter()
    for row in rows:
        want, propagating = barrier_expected(E, V0, row["D"], theta)
        tp, tc = row["T_paper"], row["T_common"]
        ok = (close(row["E"], E) and close(row["V0"], V0) and close(row["theta_deg"], theta)
              and in_unit(tp)
              and close(tc, tp, atol=1e-9) and close(tp, want, rtol=1e-6, atol=1e-9))
        cats["propagating" if propagating else "evanescent"] += 1
        failed += not ok
    return failed, cats


def check_angular_current(launch, rows):
    E, V0 = launch.ctx["E"], launch.ctx["V0"]
    reference = angle_expected(E, V0, 0.0)[3]
    failed, cats = 0, Counter()
    for row in rows:
        t = angle_expected(E, V0, row["theta_deg"])[3]
        ok = (in_unit(row["T"]) and close(row["T"], t)
              and close(row["relative_current"], t / reference))
        cats["propagating"] += 1
        failed += not ok
    return failed, cats


# -------------------------------------------------------------------- device


def check_iv_curve(launch, rows):
    c = launch.ctx
    failed, cats = 0, Counter()
    for row in rows:
        sigma = c["alpha"] * abs(row["Vb"]) * ELEMENTARY_CHARGE * c["mobility"]
        ok = close(row["I"], sigma * c["aspect-ratio"] * row["V"], atol=1e-30)
        cats["hole" if row["Vb"] < 0 else "electron"] += 1
        failed += not ok
    return failed, cats


CHECKERS = {
    "step-compare": check_step_compare,
    "step-rt": check_step_rt,
    "spinor-check": check_spinor,
    "graphene-angle": check_graphene_angle,
    "barrier": check_barrier,
    "angular-current": check_angular_current,
    "iv-curve": check_iv_curve,
}

# the column a deliberately corrupted row gets wrong, per command
CANARY_COLUMN = {
    "step-compare": "T_paper", "step-rt": "T", "spinor-check": "current",
    "graphene-angle": "T_paper", "barrier": "T_paper", "angular-current": "T",
    "iv-curve": "I",
}


def check(launch, rows):
    """Failed rows of one launch, counting missing and surplus rows as failed."""
    try:
        failed, cats = CHECKERS[launch.command](launch, rows[: launch.rows])
    except (KeyError, TypeError, ValueError):  # a column is missing or not a number
        return launch.rows, Counter()
    failed += abs(launch.rows - len(rows))
    return min(failed, launch.rows), cats
