"""Seeded, stratified inputs for the three kleinstep benchmark workloads.

Every seed gives the same launches, the same row count per launch and the
same share of every regime and status; the seed only moves values inside
their stratum.  Exact threshold and singular points are placed explicitly.

Every grid point stays inside the documented domain (E > m for the step
commands, E != V0 for barriers, no angle beyond the critical angle for
angular-current).  This is deliberate: today one out-of-domain point aborts
a whole sweep, so a single such point would turn a launch into a failure
instead of a measurement.

Floats are passed with repr(), so the program reads exactly the value the
checker uses.  Natural-unit values are dyadic multiples of a seed-chosen
unit, which makes E = V0 +- m hold exactly in binary floating point.
"""

import math
import random
from dataclasses import dataclass, field

# hbar * v_F in eV nm, the CLI default; the checker needs it for lambdaF inputs
HBAR_VF = 0.6578


@dataclass
class Launch:
    """One CLI invocation: argv after the program name, plus what the checker needs."""

    command: str
    argv: list
    rows: int  # rows the launch must emit
    fmt: str = "csv"
    output: str | None = None  # file the launch writes; None means stdout
    ctx: dict = field(default_factory=dict)


@dataclass
class Workload:
    launches: list
    files: dict = field(default_factory=dict)  # config files to write: name -> text


def _num(x: float) -> str:
    return repr(float(x))


def _flag(name: str, value) -> str:
    # "--name=value" keeps argparse from reading a leading '-' as a flag
    if isinstance(value, (list, tuple)):
        value = ",".join(_num(v) for v in value)
    elif isinstance(value, float):
        value = _num(value)
    return f"--{name}={value}"


def _energy_from_wavelength(lam: float) -> float:
    # same expression as the program, so thresholds derived from it line up
    return HBAR_VF * 2.0 * math.pi / lam


def _uniform_sorted(rng: random.Random, lo: float, hi: float, n: int) -> list:
    margin = 1e-3 * (hi - lo)
    return sorted(rng.uniform(lo + margin, hi - margin) for _ in range(n))


# ---------------------------------------------------------------- klein-grid


def klein_grid(rng: random.Random, workdir: str) -> Workload:
    u = 1.0 + rng.randrange(64) / 64.0  # dyadic unit: lattice sums stay exact
    masses = [0.0, 0.5 * u, 1.0 * u, 1.5 * u]
    heights = [float(v) * u for v in range(3, 11)]
    # lattice energies hit E = V0 +- m exactly; off-lattice ones sit inside a
    # half-unit cell, so their regime is fixed by the cell whatever the seed
    lattice = [(2.0 + 0.5 * i) * u for i in range(21)]
    off = []
    for cell in range(20):
        lo = (2.0 + 0.5 * cell) * u
        off += [lo + 0.5 * u * rng.uniform(0.1, 0.9) for _ in range(14)]
    energies = sorted(lattice + off)
    compare = Launch(
        "step-compare",
        ["step-compare", _flag("E", energies), _flag("m", masses), _flag("V0", heights),
         "--allow-singular", "--no-manifest"],
        rows=len(energies) * len(masses) * len(heights),
        ctx={"E": energies, "m": masses, "V0": heights},
    )

    m, v0 = 1.0 * u, 6.0 * u
    step_e = sorted(
        _uniform_sorted(rng, 1.01 * u, v0 - m, 2400)  # Klein
        + _uniform_sorted(rng, v0 - m, v0 + m, 800)  # evanescent
        + _uniform_sorted(rng, v0 + m, 16.0 * u, 2400)  # above the barrier
        + [v0 - m, v0 + m]  # both thresholds, exact
    )
    step_rt = [
        Launch(
            "step-rt",
            ["step-rt", _flag("E", step_e), _flag("m", m), _flag("V0", v0),
             _flag("convention", conv), "--no-manifest"],
            rows=len(step_e),
            ctx={"E": step_e, "m": m, "V0": v0, "convention": conv},
        )
        for conv in ("paper", "common")
    ]

    eps = sorted(
        _uniform_sorted(rng, -8.0 * u, -m, 2000)
        + _uniform_sorted(rng, -m, m, 1200)  # evanescent
        + _uniform_sorted(rng, m, 8.0 * u, 2000)
        + [-m, 0.0, m]  # k = 0 on both branches, and the gap centre
    )
    spinor = Launch(
        "spinor-check",
        ["spinor-check", _flag("m", m), _flag("eps", eps), "--no-manifest"],
        rows=len(eps),
        ctx={"eps": eps, "m": m},
    )
    return Workload([compare] + step_rt + [spinor])


# ------------------------------------------------------------- graphene-scan

# 160/12800 = 0.0125 deg: every grid angle prints exactly in 9 digits, so the
# checker evaluates the closed forms at the angle the program used
_ANGLE_N = 12801
_ANGLE_STEP = 160.0 / (_ANGLE_N - 1)


def _critical_between_grid_points(rng: random.Random, target_deg: float) -> float:
    """A critical angle (radians) midway between two -80:80 grid angles near target.

    Keeps every grid angle well away from the propagating/evanescent edge and
    fixes how many angles lie beyond it.
    """
    index = round((target_deg + 80.0) / _ANGLE_STEP)
    return math.radians(-80.0 + (index + 0.5 + rng.uniform(-0.2, 0.2)) * _ANGLE_STEP)


def _energy_args(rng: random.Random, use_wavelength: bool):
    """A Fermi energy from a 30-60 nm wavelength, passed as --lambdaF or as --E."""
    lam = rng.uniform(30.0, 60.0)
    energy = _energy_from_wavelength(lam)
    if use_wavelength:
        return energy, _flag("lambdaF", lam)
    return energy, _flag("E", energy)


def graphene_scan(rng: random.Random, workdir: str) -> Workload:
    launches = []

    def out(i: int) -> str:
        return f"{workdir}/gs-{i}.json"

    # (use lambdaF, kind, critical-angle target or V0/E range)
    angle_cases = [
        (False, "nn", 40.0),  # n-n': angles beyond 40 deg do not propagate
        (True, "klein", 55.0),  # Klein, E < V0 < 2E: critical angle and singular 0
        (False, "klein_open", (2.5, 4.0)),  # Klein, V0 > 2E: every angle propagates
        (True, "klein", 25.0),
    ]
    for use_lam, kind, spec in angle_cases:
        energy, energy_flag = _energy_args(rng, use_lam)
        if kind == "nn":
            v0 = energy * (1.0 - math.sin(_critical_between_grid_points(rng, spec)))
        elif kind == "klein":
            v0 = energy * (1.0 + math.sin(_critical_between_grid_points(rng, spec)))
        else:
            v0 = energy * rng.uniform(*spec)
        path = out(len(launches))
        argv = ["graphene-angle", energy_flag, _flag("V0", v0),
                f"--theta=-80:80:{_ANGLE_N}", "--format=json", f"--output={path}",
                "--no-manifest"]
        if v0 > energy:
            argv.append("--allow-singular")  # normal incidence is singular under COMMON
        launches.append(Launch("graphene-angle", argv, _ANGLE_N, "json", path,
                               {"E": energy, "V0": v0}))

    barrier_cases = [
        (False, (2.2, 3.0), None),  # Klein barrier, propagating interior
        (True, (0.3, 0.5), "beyond"),  # n-n' barrier, evanescent interior
        (False, (1.3, 1.6), "inside"),  # Klein barrier near the critical angle
    ]
    for use_lam, ratio_range, where in barrier_cases:
        energy, energy_flag = _energy_args(rng, use_lam)
        v0 = energy * rng.uniform(*ratio_range)
        crit = math.degrees(math.asin(min(1.0, abs(energy - v0) / energy)))
        if where is None:
            theta = rng.uniform(10.0, 50.0)
        elif where == "beyond":
            theta = -(crit + rng.uniform(8.0, 20.0))
        else:
            theta = rng.uniform(0.2, 0.7) * crit
        path = out(len(launches))
        launches.append(Launch(
            "barrier",
            ["barrier", energy_flag, _flag("V0", v0), "--D=0.075:300:4000",
             _flag("theta", theta), "--format=json", f"--output={path}", "--no-manifest"],
            4000, "json", path, {"E": energy, "V0": v0, "theta": theta},
        ))

    lam = rng.uniform(35.0, 60.0)
    v0 = rng.uniform(0.3, 0.45)  # V0 > 2E: no angle lies beyond a critical angle
    path = out(len(launches))
    launches.append(Launch(
        "angular-current",
        ["angular-current", _flag("lambdaF", lam), _flag("V0", v0), "--theta-max=85",
         "--n=20001", "--format=json", f"--output={path}", "--no-manifest"],
        20001, "json", path, {"E": _energy_from_wavelength(lam), "V0": v0},
    ))
    return Workload(launches)


# ------------------------------------------------------------------ gate-map

_WIDTHS = "5:200:40"  # 5 nm steps, printed exactly


def gate_map(rng: random.Random, workdir: str) -> Workload:
    launches = []
    files = {}

    def out(i: int, fmt: str) -> str:
        return f"{workdir}/gm-{i}.{fmt}"

    # sheet A (config file, CSV): Klein barrier, every angle propagates inside
    lam_a = rng.uniform(30.0, 60.0)
    e_a = _energy_from_wavelength(lam_a)
    v0_a = e_a * rng.uniform(2.2, 3.0)
    cfg_a = f"{workdir}/sheet-a.cfg"
    files[cfg_a] = (f"# gated sheet A\nlambdaF = {_num(lam_a)}\nV0 = {_num(v0_a)}\n"
                    f"D = {_WIDTHS}\nformat = csv\n")
    angles_a = [-70.0 + 35.0 * k + rng.uniform(2.0, 33.0) for k in range(4)]

    # sheet B (flags, JSON): n-n' barrier; two angles inside, two beyond its critical angle
    e_b = rng.uniform(0.08, 0.2)
    v0_b = e_b * rng.uniform(0.3, 0.5)
    crit_b = math.degrees(math.asin((e_b - v0_b) / e_b))
    angles_b = [-rng.uniform(0.1, 0.8) * crit_b, rng.uniform(0.1, 0.8) * crit_b,
                -(crit_b + rng.uniform(3.0, 15.0)), crit_b + rng.uniform(3.0, 15.0)]

    for theta_a, theta_b in zip(angles_a, angles_b):
        path = out(len(launches), "csv")
        launches.append(Launch(
            "barrier",
            ["barrier", f"--config={cfg_a}", _flag("theta", theta_a), f"--output={path}",
             "--no-manifest"],
            40, "csv", path, {"E": e_a, "V0": v0_a, "theta": theta_a},
        ))
        path = out(len(launches), "json")
        launches.append(Launch(
            "barrier",
            ["barrier", _flag("E", e_b), _flag("V0", v0_b), f"--D={_WIDTHS}",
             _flag("theta", theta_b), "--format=json", f"--output={path}", "--no-manifest"],
            40, "json", path, {"E": e_b, "V0": v0_b, "theta": theta_b},
        ))

    # one iv-curve per back gate: a hole gate, two electron gates, and one
    # electron gate whose sheet parameters come from a config file
    device = {"mobility": rng.uniform(5e3, 2e4), "alpha": rng.uniform(5e10, 9e10),
              "aspect-ratio": rng.uniform(0.5, 3.0)}
    cfg_d = f"{workdir}/device.cfg"
    files[cfg_d] = "".join(f"{k} = {_num(v)}\n" for k, v in device.items())
    defaults = {"mobility": 15000.0, "alpha": 7.3e10, "aspect-ratio": 1.0}
    gates = [-rng.uniform(0.2, 0.6), rng.uniform(0.05, 0.2), rng.uniform(0.2, 0.6),
             rng.uniform(0.05, 0.6)]
    for i, vb in enumerate(gates):
        fmt = "json" if i % 2 else "csv"
        path = out(len(launches), fmt)
        argv = ["iv-curve", _flag("Vb", vb), "--V-min=-0.005", "--V-max=0.005",
                f"--format={fmt}", f"--output={path}", "--no-manifest"]
        params = defaults
        if i == 3:
            argv.insert(1, f"--config={cfg_d}")
            params = device
        launches.append(Launch("iv-curve", argv, 101, fmt, path, dict(params)))
    return Workload(launches, files)


WORKLOADS = {"klein-grid": klein_grid, "graphene-scan": graphene_scan, "gate-map": gate_map}


def make(workload: str, seed: int, workdir: str) -> Workload:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
