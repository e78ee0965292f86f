"""Deterministic command-line sweeps with CSV/JSON emission.

Commands: step-rt, step-compare, spinor-check, graphene-angle, barrier,
iv-curve, angular-current.  Value flags accept a single number, a comma
list ("0.1,0.2,0.3") or a min:max:count range ("1:5:9"); a config file of
"key = value" lines ('#' comments) may supply defaults, flags override it.

Output is byte-deterministic: floats printed with 9 significant digits,
rows in sweep order, the run manifest (version, command, each parameter's
text as given, timestamp) in '#' comment lines (CSV) or a "manifest" field
(JSON), suppressible with --no-manifest.  A sweep is solved a block of
cells at a time into a list of block tables, each rendered and written a
slice of rows at a time, so neither the kernels' temporaries nor the
output's text grow with its length.

Exit codes: 0 success, 1 numerical failure (a singular denominator without
--allow-singular, an overflowing value), a sweep too large for memory or a
failed write to stdout or --output, 2 usage error (nan/inf included).
"""

import gc
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from typing import Callable, Iterator, NamedTuple

# kleinstep's only BLAS calls are 2- and 4-element matmuls, and OpenBLAS's idle
# second thread spins for 50-100 ms after numpy loads, on a vCPU the launch may
# need. So when this module is the one to load numpy and no thread count is set,
# numpy loads with one BLAS thread; the variable is then removed, so no child inherits it.
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not (
    {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys())
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
if _ONE_BLAS_THREAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

from kleinstep import __version__
from kleinstep.common import HBAR_VF_EV_NM, Convention, SingularityError, _raise_where, _require

__all__ = ["RunManifest", "SweepRequest", "main", "parse_args"]

PROG = "kleinstep"


# ------------------------------------------------------------- converters


def _float_scalar(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int_scalar(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _values(text: str) -> np.ndarray:
    """Parse '2', '1,2,3' or 'min:max:count' into a float64 array; empty string = empty sweep.

    numpy's parser reads a list with no Python object per value. A list it does not take
    whole is read token by token, and the first bad token is named.
    """
    text = text.strip()
    if not text:
        return np.empty(0)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be min:max:count, got {text!r}")
        lo, hi = _float_scalar(parts[0]), _float_scalar(parts[1])
        count = _int_scalar(parts[2])
        return _linspace(lo, hi, count)
    with warnings.catch_warnings():
        # where numpy's parser stops early, numpy 2.4 raises and older numpy warns and returns
        # the values read so far: either way the list is read token by token below
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, sep=",")
        except (ValueError, DeprecationWarning):
            values = np.empty(0)
    # numpy's parser also takes a trailing comma, inf and nan, and reads a blank token as -1.0
    if (values.size == text.count(",") + 1 and np.isfinite(values).all()
            and not (values == -1.0).any()):
        return values
    parts = text.split(",")
    return np.fromiter(map(_float_scalar, parts), float, len(parts))


def _linspace(lo: float, hi: float, count: int,
              count_error: str = "range count must be >= 2, got {count}",
              order_error: str = "range needs min < max, got {lo} >= {hi}",
              span_error: str = "range span max - min overflows, got {lo} to {hi}") -> np.ndarray:
    """The count-point grid from lo to hi; a failed check's text is formatted with lo, hi, count."""
    if count < 2:
        error = count_error
    elif not lo < hi:
        error = order_error
    elif hi - lo == math.inf:
        error = span_error
    else:
        return np.linspace(lo, hi, count)
    raise ValueError(error.format(lo=lo, hi=hi, count=count))


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return convert


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# ------------------------------------------------------------ parameters


class _Param(NamedTuple):
    name: str  # long flag name, dashes allowed
    convert: Callable
    default: str | None = None  # text is converted and recorded as a flag's is
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_COMMON_PARAMS = [
    _Param("format", _choice(("csv", "json")), default="csv", help="output format"),
    _Param("output", str, help="output path (default: stdout)"),
    _Param("config", str, help="config file of key = value lines"),
    _Param("no-manifest", _bool, default="false", help="suppress the run manifest"),
    _Param("allow-singular", _bool, default="false",
           help="emit inf instead of failing at singular points"),
]

_CONVENTION = _Param("convention", _choice(("paper", "common")), default="paper",
                     help="transmitted-wave convention")

_FERMI_ENERGY = _Param("E", _float_scalar, help="Fermi energy in eV")
_FERMI_WAVELENGTH = _Param("lambdaF", _float_scalar, help="Fermi wavelength in nm")
_HBAR_VF = _Param("hbar-vF", _float_scalar, default=repr(HBAR_VF_EV_NM), help="eV nm")


class RunManifest(NamedTuple("RunManifest", [("version", str), ("command", str),
                                             ("parameters", dict), ("timestamp", str)])):
    """A launch's provenance: ``parameters`` maps each parameter to its text, None where unset."""

    __slots__ = ()

    def __new__(cls, version: str, command: str, parameters: dict, timestamp: str | None = None):
        if timestamp is None:
            timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return super().__new__(cls, version, command, parameters, timestamp)

    def comment_lines(self) -> list[str]:
        parameters = self.as_dict()["parameters"]
        rendered = " ".join(f"{key}={value}" for key, value in parameters.items())
        return [
            f"# {PROG} {self.version}",
            f"# command: {self.command}",
            f"# parameters: {rendered}",
            f"# timestamp: {self.timestamp}",
        ]

    def as_dict(self) -> dict:
        return {
            "tool": PROG,
            "version": self.version,
            "command": self.command,
            "parameters": dict(sorted(self.parameters.items())),
            "timestamp": self.timestamp,
        }


class SweepRequest(NamedTuple):
    """A fully resolved invocation: command, parameters, output handling.

    ``params`` maps each of the command's parameters to its value: a swept one
    (a value, list or range flag) to a 1-d float64 array, even for one value.
    ``manifest`` is None under --no-manifest.
    """

    command: str
    params: dict
    format: str
    output: str | None
    manifest: RunManifest | None
    allow_singular: bool


# ------------------------------------------------------------- parsing


def _build_parser() -> "argparse.ArgumentParser":
    """The parser for argv that _read_flags does not take: help, abbreviations and errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog=PROG, description="step-barrier scattering, graphene junctions, gated-device sweeps")
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, help=f"{name} sweep")
        for param in _COMMANDS[name].params + _COMMON_PARAMS:
            flags = ({"action": "store_const", "const": True} if param.convert is _bool
                     else {"metavar": "X"})
            sub.add_argument(f"--{param.name}", dest=param.dest, default=None, help=param.help,
                             **flags)
    return parser


def _read_flags(argv: list[str]) -> dict | None:
    """argparse's values for argv that is a command and whole flag names, without argparse.

    Each token after the command is --name=value, --name value (a value that
    does not start with '-') or a bare switch, by an exact flag name of the
    command; a repeated flag keeps its last value. Returns the command and each
    given flag's dest -> text (True for a switch), or None for any other argv.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    params = {f"--{param.name}": param for param in _COMMANDS[argv[0]].params + _COMMON_PARAMS}
    flags = {"command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, value = token.partition("=")
        param = params.get(name)
        if param is None:
            return None
        if param.convert is _bool:
            if equals:
                return None
            value = True
        elif not equals:
            value = next(tokens, "-")  # a missing value reads as one that starts with '-'
            if value.startswith("-"):
                return None
        flags[param.dest] = value
    return flags


def _load_config(path: str, command: str) -> dict[str, str]:
    """The config file's values by parameter dest; a key that names none of ``command``'s fails."""
    known = {param.dest for param in _COMMANDS[command].params + _COMMON_PARAMS} - {"config"}
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                dest = key.replace("-", "_")
                if dest not in known:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {command}")
                entries[dest] = value
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    return entries


def parse_args(argv=None) -> SweepRequest:
    """Resolve CLI flags plus config-file defaults into a SweepRequest.

    _read_flags reads argv that is a command and whole flag names; the argparse
    parser of _build_parser reads any other argv, and alone prints help and usage errors.
    The manifest records each command parameter's text (flag, config line or
    default) without its whitespace, which no value token can hold inside it.
    """
    argv = sys.argv[1:] if argv is None else argv
    flags = _read_flags(argv)
    if flags is None:
        parser = _build_parser()
        flags = vars(parser.parse_args(argv))
        if flags["command"] is None:
            parser.print_usage(sys.stderr)
            raise ValueError("a command is required")
    command = flags["command"]
    config = _load_config(flags["config"], command) if flags.get("config") else {}

    resolved: dict = {}
    texts: dict = {}
    for param in _COMMANDS[command].params + _COMMON_PARAMS:
        raw = flags.get(param.dest)
        if raw is None:
            raw = config.get(param.dest)
        if raw is None:
            if param.required:
                raise ValueError(f"{command}: missing required parameter --{param.name}")
            raw = param.default
        resolved[param.dest] = param.convert(raw) if isinstance(raw, str) else raw
        texts[param.dest] = "".join(raw.split()) if isinstance(raw, str) else raw

    common = {param.dest: resolved.pop(param.dest) for param in _COMMON_PARAMS}
    del common["config"]
    common["manifest"] = None if common.pop("no_manifest") else RunManifest(
        __version__, command, {dest: texts[dest] for dest in resolved})
    return SweepRequest(command, resolved, **common)


# ------------------------------------------------------------- sweeps
# Each sweep imports the physics it calls, so a launch loads only its command's modules.


def _material_and_fermi_energy(params: dict) -> tuple:
    from kleinstep.graphene import GrapheneMaterial, energy_from_wavelength
    material = GrapheneMaterial(params["hbar_vF"])
    if (params.get("E") is None) == (params.get("lambdaF") is None):
        raise ValueError("give exactly one of --E or --lambdaF")
    if params.get("E") is not None:
        return material, params["E"]
    return material, energy_from_wavelength(params["lambdaF"], material)


def _check_theta(theta) -> None:
    """Fail on the first --theta angle (one, or an array of them) outside (-90, 90) degrees."""
    _require((np.abs(theta) < 90, "--theta must lie in (-90, 90) degrees, got {theta}"),
             theta=theta)


def _step_rt(request: SweepRequest) -> tuple:
    from kleinstep.step import StepProblem, solve_step_numeric
    params = request.params
    convention = Convention(params["convention"])
    StepProblem(params["E"], params["m"], params["V0"])  # the whole sweep's domain: see _table

    def solve(E):
        solution = solve_step_numeric(StepProblem(E, params["m"], params["V0"]), convention)
        if not request.allow_singular:
            _raise_where(np.isnan(solution.r), "kappa_prime")
        return {
            "E": E, "m": np.full_like(E, params["m"]), "V0": np.full_like(E, params["V0"]),
            "convention": [convention.value] * E.size,
            "regime": [regime.value for regime in solution.regime],
            "kappa": solution.kappa_value,
            "r_re": solution.r.real, "r_im": solution.r.imag,
            "t_re": solution.t.real, "t_im": solution.t.imag,
            "R": solution.R, "T": solution.T,
        }

    return solve, [params["E"]]


def _step_compare(request: SweepRequest) -> tuple:
    from kleinstep.step import Regime, StepProblem, solve_step_numeric
    grid = np.meshgrid(*(request.params[name] for name in ("E", "m", "V0")), indexing="ij")
    cells = StepProblem(*(axis.ravel() for axis in grid))  # the whole sweep's domain

    def solve(E, m, V0):
        problem = StepProblem(E, m, V0)
        paper = solve_step_numeric(problem, Convention.PAPER)
        common = solve_step_numeric(problem, Convention.COMMON)
        if not request.allow_singular:
            _raise_where(np.isnan(common.r), "kappa_prime")
        # singular cells already hold the --allow-singular values: kappa' = -1, R = inf, T = -inf
        return {
            "E": E, "m": m, "V0": V0,
            "kappa": paper.kappa_value,
            "R_paper": paper.R, "T_paper": paper.T,
            "kappa_prime": np.where(paper.regime == Regime.KLEIN, common.kappa_value, math.nan),
            "R_common": common.R, "T_common": common.T,
            "regime": [regime.value for regime in paper.regime],
        }

    return solve, list(cells)


def _spinor_check(request: SweepRequest) -> tuple:
    from kleinstep.dirac import (_root, current_density, hamiltonian_residual,
                                 hamiltonian_residual4, make_spinor2, make_spinor4)
    m = request.params["m"]

    def solve(eps):
        root, propagating = _root(eps, m), np.abs(eps) >= m
        k = np.where(propagating, root, 1j * root)
        spinor = make_spinor2(eps, k, m)
        # both branches' four-spinors, checked in one call against their signed energies
        residual4, cells = np.full(eps.shape, math.nan), propagating & (eps != 0)
        energy, p_z = eps[cells], root[cells]
        psi4 = np.empty((energy.size, 4), complex)
        for branch, part in (("positive", energy > 0), ("negative", energy < 0)):
            psi4[part] = make_spinor4(np.abs(energy[part]), (0.0, 0.0, p_z[part]), m,
                                      branch=branch)
        residual4[cells] = hamiltonian_residual4(psi4, energy, (0.0, 0.0, p_z), m)
        return {
            "eps": eps,
            "k_re": k.real, "k_im": k.imag,
            "m": np.full(eps.size, m),
            "residual2": hamiltonian_residual(spinor, eps, k, m), "residual4": residual4,
            "current": current_density(spinor),
        }

    return solve, [request.params["eps"]]


def _graphene_angle(request: SweepRequest) -> tuple:
    from kleinstep.graphene import angle_kinematics, t_common, t_paper, transmission_probability
    params = request.params
    material, energy = _material_and_fermi_energy(params)
    _check_theta(params["theta"])

    def solve(theta_deg):
        theta = np.radians(theta_deg)
        ak = angle_kinematics(energy, params["V0"], theta, material)
        common = t_common(ak)
        if not request.allow_singular:
            _raise_where(np.isinf(common), "t_common")
        # non-propagating rows: kxII = thetaII_deg = nan and T = 0; singular ones T_common = inf
        return {
            "theta_deg": theta_deg, "ky": ak.k_y,
            "kxII": np.where(ak.propagating, ak.k_xII, math.nan),
            "thetaII_deg": np.degrees(ak.theta_II),
            "T_paper": transmission_probability(t_paper(ak), ak),
            "T_common": transmission_probability(common, ak),
        }

    return solve, [params["theta"]]


def _barrier(request: SweepRequest) -> tuple:
    from kleinstep.graphene import _check_barrier, solve_barrier
    params = request.params
    material, energy = _material_and_fermi_energy(params)
    _check_theta(params["theta"])
    theta = math.radians(params["theta"])
    _check_barrier(energy, params["V0"], params["D"], theta)  # the whole sweep's domain

    def solve(widths):
        # a barrier's r and t do not depend on the convention: one solve fills both columns
        T = solve_barrier(energy, params["V0"], widths, theta, material=material).T
        return {
            "E": np.full_like(widths, energy), "V0": np.full_like(widths, params["V0"]),
            "D": widths,
            "theta_deg": np.full_like(widths, params["theta"]),
            "T_paper": T, "T_common": T,
        }

    return solve, [params["D"]]


# iv-curve and angular-current build their grids from flags, with --n points
_N_ERROR = "--n must be >= 2, got {count}"


def _iv_curve(request: SweepRequest) -> tuple:
    from kleinstep.device import DeviceParams, iv_curve
    params = request.params
    grid = params["V"] if params["V"] is not None else _linspace(
        params["V_min"], params["V_max"], params["n"], _N_ERROR, "--V-min must be below --V-max",
        "--V-max - --V-min overflows, got {lo} to {hi}")
    gates = params["Vb"]
    device = DeviceParams(
        mobility=params["mobility"], gate_coefficient=params["alpha"],
        back_gate=gates, aspect_ratio=params["aspect_ratio"],
    )

    def solve(Vb, V):
        return {"Vb": Vb, "V": V, "I": iv_curve(device._replace(back_gate=Vb), V)}

    # one row per (back gate, bias), back gates outermost
    return solve, [np.repeat(gates, grid.size), np.tile(grid, gates.size)]


def _angular_current(request: SweepRequest) -> tuple:
    from kleinstep.device import angular_current_profile
    from kleinstep.graphene import _kinematics, critical_angle
    params = request.params
    material, energy = _material_and_fermi_energy(params)
    half_width = params["theta_max"]
    if half_width >= 90:  # so that no span overflows
        raise ValueError(f"--theta-max must be below 90 degrees, got {half_width}")
    thetas_deg = _linspace(-half_width, half_width, params["n"], _N_ERROR,
                           "--theta-max must be positive, got {hi}")
    # the grid's end angles are its widest: angle_kinematics' own rule, before the first block
    if not _kinematics(energy, params["V0"], math.radians(half_width), material.hbar_vF)[-1]:
        critical = critical_angle(energy, params["V0"])
        critical = 90.0 if critical is None else math.degrees(critical)
        raise ValueError(f"--theta-max must be below the critical angle {critical} degrees, "
                          f"got {half_width}")

    def solve(theta_deg):
        profile = angular_current_profile(params["V0"], np.radians(theta_deg), E=energy,
                                          material=material)
        return {"theta_deg": theta_deg, "T": profile.transmission,
                "relative_current": profile.relative_current}

    return solve, [thetas_deg]


class _Command(NamedTuple):
    """One subcommand: its flags and its sweep.

    ``sweep`` runs a launch's setup once and returns ``(solve, cells)``.
    ``cells`` are the sweep's input cells as flat arrays of one length, in
    sweep order. ``solve(*block)`` makes the rows of any block of them (the
    same slice of every cell array) as a table, keys in output column order:
    column name -> one sequence of cells per column, all of the block's
    length, in sweep order; float columns are float64 arrays, which the
    renderers format without a call per cell. The renderers read each table
    as solve made it, so a column may be a cell array's slice, and a column
    that is another's very array is formatted once.
    """

    params: list[_Param]
    sweep: Callable[[SweepRequest], tuple[Callable[..., dict], list[np.ndarray]]]


# a sweep is solved at most this many cells at a time
_SOLVE_BLOCK = 512


def _table(request: SweepRequest) -> list[dict]:
    """The sweep's block tables in sweep order, as solve made them from equal blocks of cells.

    Each block holds at most _SOLVE_BLOCK cells (an empty sweep is one empty
    block), so a launch holds its blocks' tables and one block's kernel
    temporaries, under 0.2 MB at 512 cells, not the whole sweep's; each block
    pays the kernels' fixed cost per call (about 0.1 ms for a step solve)
    once. The sweep runs its cells' domain rules over all of them before the
    first block, so a domain error names the first invalid point in sweep
    order even past a singular cell; any other error (singular, overflow,
    zero spinor) is the one computed in the first failing block.
    """
    solve, cells = _COMMANDS[request.command].sweep(request)
    blocks = max(1, math.ceil(len(cells[0]) / _SOLVE_BLOCK))
    size = math.ceil(len(cells[0]) / blocks)  # equal blocks: no short tail block
    return [solve(*(array[index * size:(index + 1) * size] for array in cells))
            for index in range(blocks)]


_COMMANDS = {
    "step-rt": _Command([
        _Param("E", _values, required=True, help="incident energy (value/list/range)"),
        _Param("m", _float_scalar, required=True, help="rest mass"),
        _Param("V0", _float_scalar, required=True, help="step height"),
        _CONVENTION,
    ], _step_rt),
    "step-compare": _Command([
        _Param("E", _values, required=True, help="incident energies"),
        _Param("m", _values, required=True, help="rest masses"),
        _Param("V0", _values, required=True, help="step heights"),
    ], _step_compare),
    "spinor-check": _Command([
        _Param("m", _float_scalar, required=True, help="rest mass"),
        _Param("eps", _values, required=True, help="local energies E - V"),
    ], _spinor_check),
    "graphene-angle": _Command([
        _FERMI_ENERGY,
        _FERMI_WAVELENGTH,
        _Param("V0", _float_scalar, required=True, help="step height in eV"),
        _Param("theta", _values, required=True, help="incidence angles in degrees"),
        _HBAR_VF,
    ], _graphene_angle),
    "barrier": _Command([
        _FERMI_ENERGY,
        _FERMI_WAVELENGTH,
        _Param("V0", _float_scalar, required=True, help="barrier height in eV"),
        _Param("D", _values, required=True, help="barrier widths in nm"),
        _Param("theta", _float_scalar, default="0", help="incidence angle in degrees"),
        _HBAR_VF,
    ], _barrier),
    "iv-curve": _Command([
        _Param("Vb", _values, default="0.1,0.2,0.3", help="back-gate voltages"),
        _Param("V", _values, help="explicit bias grid in volts"),
        _Param("V-min", _float_scalar, default="0", help="bias grid start"),
        _Param("V-max", _float_scalar, default="0.005", help="bias grid end"),
        _Param("n", _int_scalar, default="101", help="bias grid size"),
        _Param("mobility", _float_scalar, default="15000", help="cm^2/(V s)"),
        _Param("alpha", _float_scalar, default="7.3e+10", help="carriers per cm^2 per V"),
        _Param("aspect-ratio", _float_scalar, default="1", help="W/L"),
    ], _iv_curve),
    "angular-current": _Command([
        _Param("lambdaF", _float_scalar, default="50", help="Fermi wavelength in nm"),
        _Param("V0", _float_scalar, default="0.3", help="step height in eV"),
        _Param("theta-max", _float_scalar, default="85", help="half-width of the angle grid, deg"),
        _Param("n", _int_scalar, default="171", help="number of angles"),
        _HBAR_VF,
    ], _angular_current),
}


# ------------------------------------------------------------- emission


# sweeps become Python values, text and written output this many rows at a time
_RENDER_SLICE = 256


def _json_cell(value) -> str:
    """The text json.dumps writes for a cell, floats rounded to 9 significant digits.

    An ASCII identifier (every column name, regime and convention) is quoted without json.
    """
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(float(format(value, ".9g")))
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, str) and value.isascii() and value.isidentifier():
        return '"' + value + '"'
    import json
    return json.dumps(value)


_TINY = np.finfo(float).tiny  # the smallest normal float64


def _float_fields(arrays: list[np.ndarray], cell=None) -> list[tuple[str, list]]:
    """Each float64 slice's %-format and cells, which write format(v, ".9g")'s bytes.

    A slice of one bit pattern is that cell's text as a format of no cells.
    With ``cell`` (JSON) the text is cell's, and in any other slice a masked
    superset of the cells whose json.dumps text differs from %.9g's (non-finite,
    subnormal and whole-after-rounding ones) takes cell(float(its %.9g text)):
    the slice goes through one %.9g call, which is split, and each masked text
    is made once per distinct %.9g text ("-0" and "0" differ). The slices are
    stacked into one block, so that the mask takes a fixed number of numpy calls.
    """
    masks = [(None, False)] * len(arrays)
    if cell and arrays:
        block = np.array(arrays)
        magnitude = np.abs(block)
        with np.errstate(invalid="ignore"):
            distance = np.abs(block - np.rint(block))  # nan at nan and inf
        exact = ~(distance > 1e-8 * magnitude) | (magnitude < _TINY)  # a nan distance is exact
        masks = zip(exact, exact.any(axis=1).tolist())
    fields, exact_texts = [], {}
    for values, (mask, any_exact) in zip(arrays, masks):
        if values.tobytes() == values[:1].tobytes() * len(values):
            fields.append((cell(values.item(0)) if cell else "%.9g" % values.item(0), []))
        elif not any_exact:
            fields.append(("%.9g", values.tolist()))
        else:
            texts = ("\n".join(["%.9g"] * len(values)) % tuple(values.tolist())).split("\n")
            for index in np.flatnonzero(mask).tolist():
                if texts[index] not in exact_texts:
                    exact_texts[texts[index]] = cell(float(texts[index]))
                texts[index] = exact_texts[texts[index]]
            fields.append(("%s", texts))
    return fields


def _row_slices(columns: list[str], blocks: list[dict],
                template: Callable[[tuple, int, int], str], cell=None) -> Iterator[str]:
    """The blocks' text a slice of at most _RENDER_SLICE rows of one block at a time."""
    start = 0
    for block in blocks:
        count = len(block[columns[0]]) if columns else 0
        for offset in range(0, count, _RENDER_SLICE):
            rows = range(offset, min(offset + _RENDER_SLICE, count))
            yield _slice_text(columns, block, rows, start, template, cell)
            start += len(rows)


def _slice_text(columns, block, rows, start, template, cell) -> str:
    """template(formats, len(rows), start) % the cells of the block's ``rows``.

    ``start`` is the sweep's index of the slice's first row. ``formats`` holds
    each column's %-format in a row, and the cells go in row after row, so
    that one call formats the slice. The float64 arrays' formats and cells
    come from _float_fields(their slices, cell), once per distinct array: a
    column that is another's very array shares its fields. Any other column,
    which holds no floats (see _Command), goes in under %s as cell(value)
    texts made once per distinct value, or without ``cell`` as its raw
    values, whose %s text is str's. The slice's values are gone on return.
    """
    part = slice(rows.start, rows.stop)
    floats = {id(block[name]): block[name] for name in columns
              if isinstance(block[name], np.ndarray) and block[name].dtype == np.float64}
    fields = dict(zip(floats, _float_fields([array[part] for array in floats.values()], cell)))
    for name in columns:
        if id(block[name]) not in fields:
            values = block[name][part]
            values = values.tolist() if isinstance(values, np.ndarray) else values
            if cell is not None:
                values = list(map({value: cell(value) for value in set(values)}.__getitem__,
                                  values))
            fields[id(block[name])] = "%s", values
    formats, values = zip(*(fields[id(block[name])] for name in columns))
    values = [column for column in values if column]  # a one-value column is in its format
    cells = [None] * (len(rows) * len(values))
    for offset, column in enumerate(values):
        cells[offset::len(values)] = column
    del fields, values  # the columns' lists: only the cells hold the slice's values now
    return template(formats, len(rows), start) % tuple(cells)


def render_csv(columns: list[str], blocks: list, manifest: RunManifest | None) -> Iterator[str]:
    """The CSV text in pieces: manifest comment lines and header, then one piece per slice."""
    lines = manifest.comment_lines() if manifest else []
    lines.append(",".join(columns))
    yield "\n".join(lines) + "\n"
    yield from _row_slices(columns, blocks,
                           lambda formats, rows, start: (",".join(formats) + "\n") * rows)


def render_json(columns: list[str], blocks: list, manifest: RunManifest | None) -> Iterator[str]:
    """The bytes of json.dumps({"manifest": ..., "rows": [...]}, indent=2) in pieces, by hand.

    The head runs to '"rows": [', then comes one piece per slice of rows, then the trailer.
    """
    head = "{\n"
    if manifest:
        import json
        head += '  "manifest": ' + json.dumps(manifest.as_dict(), indent=2).replace("\n", "\n  ")
        head += ",\n"
    yield head + '  "rows": ['
    prefixes = [f"      {_json_cell(name)}: ".replace("%", "%%") for name in columns]

    def template(formats, rows, start):
        row = "    {\n" + ",\n".join(map(str.__add__, prefixes, formats)) + "\n    }"
        return (",\n" if start else "\n") + ",\n".join([row] * rows)

    yield from _row_slices(columns, blocks, template, _json_cell)
    yield "\n  ]\n}\n" if columns and any(len(block[columns[0]]) for block in blocks) else "]\n}\n"


def emit(request: SweepRequest, blocks: list[dict]) -> int:
    """Render and write a sweep's block tables a slice at a time; returns the process exit code."""
    render = render_csv if request.format == "csv" else render_json
    pieces = render(list(blocks[0]), blocks, request.manifest)
    try:
        if request.output:
            with open(request.output, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        if not request.output:
            # the interpreter flushes stdout again at exit: send what is left to devnull
            # so that no second error is printed
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"{PROG}: cannot write {request.output or '<stdout>'}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Run one command; returns the process exit code.

    With ``argv`` None, main is the process entry (the ``kleinstep`` script,
    ``python -m kleinstep.cli``) and takes its arguments from ``sys.argv``. It
    then freezes the start-up heap (``gc.freeze``): those objects live until
    exit, so neither the sweep's collections nor interpreter finalization need
    to walk them. An in-process ``main(argv)`` leaves the caller's collector as it is.
    """
    if argv is None:
        gc.freeze()
    try:
        request = parse_args(argv)
        # an overflowing value raises where it arises instead of leaving inf and nan cells
        with np.errstate(over="raise"):
            blocks = _table(request)
    except SystemExit as exc:  # argparse already reported
        return exc.code if isinstance(exc.code, int) else 2
    except SingularityError as exc:
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        print(f"{PROG}: rerun with --allow-singular to emit unbounded values",
              file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a sweep's arrays that cannot be allocated
        print(f"{PROG}: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # usage and parameter domain errors
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    return emit(request, blocks)


if __name__ == "__main__":
    sys.exit(main())
