"""Deterministic command-line sweeps with CSV/JSON emission.

Commands: step-rt, step-compare, spinor-check, graphene-angle, barrier,
iv-curve, angular-current.  Value flags accept a single number, a comma
list ("0.1,0.2,0.3") or a min:max:count range ("1:5:9"); a config file of
"key = value" lines ('#' comments) may supply defaults, flags override it.

Output is byte-deterministic: floats printed with 9 significant digits,
rows in sweep order, the run manifest (version, command, resolved
parameters, timestamp) in '#' comment lines (CSV) or a "manifest" field
(JSON), suppressible with --no-manifest.

Exit codes: 0 success, 1 numerical failure (a singular denominator without
--allow-singular, or an unwritable output), 2 usage error (nan/inf included).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from kleinstep import __version__
from kleinstep.common import HBAR_VF_EV_NM, Convention, SingularityError, first_point

__all__ = ["RunManifest", "SweepRequest", "main", "parse_args"]

PROG = "kleinstep"


class _UsageError(ValueError):
    pass


# ------------------------------------------------------------- converters


def _float_scalar(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise _UsageError(f"expected a finite number, got {text!r}")
    return value


def _int_scalar(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"expected an integer, got {text!r}") from None


def _values(text: str) -> list[float]:
    """Parse '2', '1,2,3' or 'min:max:count'; empty string = empty sweep."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError(f"range must be min:max:count, got {text!r}")
        lo, hi = _float_scalar(parts[0]), _float_scalar(parts[1])
        count = _int_scalar(parts[2])
        return _linspace(lo, hi, count)
    return [_float_scalar(part) for part in text.split(",")]


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count < 2:
        raise _UsageError(f"range count must be >= 2, got {count}")
    if not lo < hi:
        raise _UsageError(f"range needs min < max, got {lo} >= {hi}")
    step = (hi - lo) / (count - 1)
    grid = [lo + i * step for i in range(count)]
    grid[-1] = hi
    return grid


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def convert(text: str) -> str:
        if text not in options:
            raise _UsageError(f"expected one of {options}, got {text!r}")
        return text

    return convert


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"expected a boolean, got {text!r}")


# ------------------------------------------------------------ parameters


@dataclass(frozen=True)
class _Param:
    name: str  # long flag name, dashes allowed
    convert: Callable
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_COMMON_PARAMS = [
    _Param("format", _choice(("csv", "json")), default="csv", help="output format"),
    _Param("output", str, help="output path (default: stdout)"),
    _Param("config", str, help="config file of key = value lines"),
    _Param("no-manifest", _bool, default=False, help="suppress the run manifest"),
    _Param("allow-singular", _bool, default=False,
           help="emit inf instead of failing at singular points"),
]

_CONVENTION = _Param("convention", _choice(("paper", "common")), default="paper",
                     help="transmitted-wave convention")

_FERMI_ENERGY = _Param("E", _float_scalar, help="Fermi energy in eV")
_FERMI_WAVELENGTH = _Param("lambdaF", _float_scalar, help="Fermi wavelength in nm")
_HBAR_VF = _Param("hbar-vF", _float_scalar, default=HBAR_VF_EV_NM, help="eV nm")


@dataclass(frozen=True)
class SweepRequest:
    """A fully resolved invocation: command, parameters, output handling."""

    command: str
    params: dict
    format: str
    output: str | None
    no_manifest: bool
    allow_singular: bool


@dataclass(frozen=True)
class RunManifest:
    version: str
    command: str
    parameters: dict
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )

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
            "parameters": {k: _manifest_value(v) for k, v in sorted(self.parameters.items())},
            "timestamp": self.timestamp,
        }


def _manifest_value(value):
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, list):
        return ",".join(format(v, ".9g") for v in value)
    return value


# ------------------------------------------------------------- parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="step-barrier scattering, graphene junctions, gated-device sweeps",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=f"{name} sweep")
        for param in command.params + _COMMON_PARAMS:
            flags = ({"action": "store_const", "const": True} if param.convert is _bool
                     else {"metavar": "X"})
            sub.add_argument(f"--{param.name}", dest=param.dest, default=None, help=param.help,
                             **flags)
    return parser


def _load_config(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    return entries


def parse_args(argv=None) -> SweepRequest:
    """Resolve CLI flags plus config-file defaults into a SweepRequest."""
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        parser.print_usage(sys.stderr)
        raise _UsageError("a command is required")
    command = namespace.command
    config = _load_config(namespace.config) if namespace.config else {}

    resolved: dict = {}
    for param in _COMMANDS[command].params + _COMMON_PARAMS:
        raw = getattr(namespace, param.dest)
        if raw is None:
            raw = config.get(param.dest)
        if raw is None:
            if param.required:
                raise _UsageError(f"{command}: missing required parameter --{param.name}")
            resolved[param.dest] = param.default
            continue
        resolved[param.dest] = param.convert(raw) if isinstance(raw, str) else raw

    common = {param.dest: resolved.pop(param.dest) for param in _COMMON_PARAMS}
    del common["config"]
    return SweepRequest(command, resolved, **common)


# ------------------------------------------------------------- sweeps
# Each sweep imports the physics it calls, so a launch loads only its command's modules.


def _material_and_fermi_energy(params: dict) -> tuple:
    from kleinstep.graphene import GrapheneMaterial, energy_from_wavelength
    material = GrapheneMaterial(params["hbar_vF"])
    if (params.get("E") is None) == (params.get("lambdaF") is None):
        raise _UsageError("give exactly one of --E or --lambdaF")
    if params.get("E") is not None:
        return material, params["E"]
    return material, energy_from_wavelength(params["lambdaF"], material)


def _raise_first(bad: np.ndarray, call: Callable, *arrays) -> None:
    """Repeat the first bad cell of an array call as a 0-d call, which raises its error.

    Array kernels hold sentinels (e.g. kappa_value = -1, t = inf) where a 0-d
    call raises; the sweep fails on its first such cell in sweep order.
    """
    if bad.any():
        call(*first_point(bad, *arrays))


def _raise_if_singular(problem, solution) -> None:
    """Raise the SingularityError of a step solution's first singular cell (kappa_value = -1)."""
    from kleinstep.step import StepProblem, solve_step_numeric
    _raise_first(solution.kappa_value == -1.0,
                 lambda *point: solve_step_numeric(StepProblem(*point), solution.convention),
                 problem.E, problem.m, problem.V0)


def _rows_step_rt(request: SweepRequest) -> dict:
    from kleinstep.step import StepProblem, solve_step_numeric
    params = request.params
    convention = Convention(params["convention"])
    problem = StepProblem(np.array(params["E"], dtype=float), params["m"], params["V0"])
    sol = solve_step_numeric(problem, convention)
    _raise_if_singular(problem, sol)
    return {
        "E": problem.E, "m": np.full_like(problem.E, params["m"]),
        "V0": np.full_like(problem.E, params["V0"]),
        "convention": [convention.value] * problem.E.size,
        "regime": [regime.value for regime in sol.regime.tolist()],
        "kappa": sol.kappa_value,
        "r_re": sol.r.real, "r_im": sol.r.imag,
        "t_re": sol.t.real, "t_im": sol.t.imag,
        "R": sol.R, "T": sol.T,
    }


def _rows_step_compare(request: SweepRequest) -> dict:
    from kleinstep.step import Regime, StepProblem, solve_step_numeric
    grid = np.meshgrid(*(np.array(request.params[name], dtype=float) for name in ("E", "m", "V0")),
                       indexing="ij")
    problem = StepProblem(*(axis.ravel() for axis in grid))
    paper = solve_step_numeric(problem, Convention.PAPER)
    common = solve_step_numeric(problem, Convention.COMMON)
    if not request.allow_singular:
        _raise_if_singular(problem, common)
    # singular cells already hold the --allow-singular values: kappa' = -1, R = inf, T = -inf
    return {
        "E": problem.E, "m": problem.m, "V0": problem.V0,
        "kappa": paper.kappa_value,
        "R_paper": paper.R, "T_paper": paper.T,
        "kappa_prime": np.where(common.regime == Regime.KLEIN, common.kappa_value, math.nan),
        "R_common": common.R, "T_common": common.T,
        "regime": [regime.value for regime in paper.regime.tolist()],
    }


def _rows_spinor_check(request: SweepRequest) -> dict:
    from kleinstep.dirac import (current_density, hamiltonian_residual, hamiltonian_residual4,
                                 make_spinor2, make_spinor4)
    m = request.params["m"]
    eps = np.array(request.params["eps"], dtype=float)
    gap = eps * eps - m * m
    root = np.sqrt(np.abs(gap))
    k = np.where(gap >= 0, root, 1j * root)
    spinor = make_spinor2(eps, k, m)
    residual4 = np.full(eps.shape, math.nan)
    for branch, cells in (("positive", (gap >= 0) & (eps > 0)),
                          ("negative", (gap >= 0) & (eps < 0))):
        p_vec = (0.0, 0.0, root[cells])
        psi4 = make_spinor4(np.abs(eps[cells]), p_vec, m, branch=branch)
        residual4[cells] = hamiltonian_residual4(psi4, eps[cells], p_vec, m)
    return {
        "eps": eps,
        "k_re": k.real, "k_im": k.imag,
        "m": np.full(eps.size, m),
        "residual2": hamiltonian_residual(spinor, eps, k, m), "residual4": residual4,
        "current": current_density(spinor),
    }


def _rows_graphene_angle(request: SweepRequest) -> dict:
    from kleinstep.graphene import angle_kinematics, t_common, t_paper, transmission_probability
    params = request.params
    material, energy = _material_and_fermi_energy(params)
    theta = np.radians(params["theta"])
    ak = angle_kinematics(energy, params["V0"], theta, material)
    common = t_common(ak)
    if not request.allow_singular:
        _raise_first(np.isinf(common),
                     lambda angle: t_common(angle_kinematics(energy, params["V0"], angle, material)),
                     theta)
    # non-propagating rows: kxII = thetaII_deg = nan and T = 0; singular ones T_common = inf
    return {
        "theta_deg": np.asarray(params["theta"]), "ky": ak.k_y,
        "kxII": np.where(ak.propagating, ak.k_xII, math.nan),
        "thetaII_deg": np.degrees(ak.theta_II),
        "T_paper": transmission_probability(t_paper(ak), ak),
        "T_common": transmission_probability(common, ak),
    }


def _rows_barrier(request: SweepRequest) -> dict:
    from kleinstep.graphene import solve_barrier
    params = request.params
    material, energy = _material_and_fermi_energy(params)
    widths = np.array(params["D"], dtype=float)
    theta = math.radians(params["theta"])
    paper = solve_barrier(energy, params["V0"], widths, theta, Convention.PAPER, material)
    _raise_first(np.isnan(paper.T),
                 lambda width: solve_barrier(energy, params["V0"], width, theta,
                                             Convention.PAPER, material),
                 widths)
    common = solve_barrier(energy, params["V0"], widths, theta, Convention.COMMON, material)
    return {
        "E": np.full_like(widths, energy), "V0": np.full_like(widths, params["V0"]), "D": widths,
        "theta_deg": np.full_like(widths, params["theta"]),
        "T_paper": paper.T, "T_common": common.T,
    }


def _rows_iv_curve(request: SweepRequest) -> dict:
    from kleinstep.device import DeviceParams, iv_curve
    params = request.params
    grid = params["V"] if params["V"] is not None else _linspace(
        params["V_min"], params["V_max"], params["n"]
    )
    currents = [
        iv_curve(DeviceParams(
            mobility=params["mobility"], gate_coefficient=params["alpha"],
            back_gate=v_back, aspect_ratio=params["aspect_ratio"],
        ), grid)
        for v_back in params["Vb"]
    ]
    return {"Vb": np.repeat(params["Vb"], len(grid)), "V": np.tile(grid, len(currents)),
            "I": np.ravel(currents)}


def _rows_angular_current(request: SweepRequest) -> dict:
    from kleinstep.device import angular_current_profile
    params = request.params
    material, energy = _material_and_fermi_energy(params)
    thetas_deg = np.array(_linspace(-params["theta_max"], params["theta_max"], params["n"]))
    profile = angular_current_profile(params["V0"], np.radians(thetas_deg), E=energy,
                                      material=material)
    return {"theta_deg": thetas_deg, "T": profile.transmission,
            "relative_current": profile.relative_current}


@dataclass(frozen=True)
class _Command:
    """One subcommand: its flags, its output columns and the sweep that makes its rows.

    ``rows`` returns the sweep as a table: column name -> one sequence of
    cells per column, all of one length, in sweep order; float columns are
    float64 arrays, which the renderers format without a call per cell.
    """

    params: list[_Param]
    columns: list[str]
    rows: Callable[[SweepRequest], dict]


_COMMANDS = {
    "step-rt": _Command([
        _Param("E", _values, required=True, help="incident energy (value/list/range)"),
        _Param("m", _float_scalar, required=True, help="rest mass"),
        _Param("V0", _float_scalar, required=True, help="step height"),
        _CONVENTION,
    ], ["E", "m", "V0", "convention", "regime", "kappa",
        "r_re", "r_im", "t_re", "t_im", "R", "T"], _rows_step_rt),
    "step-compare": _Command([
        _Param("E", _values, required=True, help="incident energies"),
        _Param("m", _values, required=True, help="rest masses"),
        _Param("V0", _values, required=True, help="step heights"),
    ], ["E", "m", "V0", "kappa", "R_paper", "T_paper",
        "kappa_prime", "R_common", "T_common", "regime"], _rows_step_compare),
    "spinor-check": _Command([
        _Param("m", _float_scalar, required=True, help="rest mass"),
        _Param("eps", _values, required=True, help="local energies E - V"),
    ], ["eps", "k_re", "k_im", "m", "residual2", "residual4", "current"], _rows_spinor_check),
    "graphene-angle": _Command([
        _FERMI_ENERGY,
        _FERMI_WAVELENGTH,
        _Param("V0", _float_scalar, required=True, help="step height in eV"),
        _Param("theta", _values, required=True, help="incidence angles in degrees"),
        _HBAR_VF,
    ], ["theta_deg", "ky", "kxII", "thetaII_deg", "T_paper", "T_common"], _rows_graphene_angle),
    "barrier": _Command([
        _FERMI_ENERGY,
        _FERMI_WAVELENGTH,
        _Param("V0", _float_scalar, required=True, help="barrier height in eV"),
        _Param("D", _values, required=True, help="barrier widths in nm"),
        _Param("theta", _float_scalar, default=0.0, help="incidence angle in degrees"),
        _HBAR_VF,
    ], ["E", "V0", "D", "theta_deg", "T_paper", "T_common"], _rows_barrier),
    "iv-curve": _Command([
        _Param("Vb", _values, default=[0.1, 0.2, 0.3], help="back-gate voltages"),
        _Param("V", _values, help="explicit bias grid in volts"),
        _Param("V-min", _float_scalar, default=0.0, help="bias grid start"),
        _Param("V-max", _float_scalar, default=5e-3, help="bias grid end"),
        _Param("n", _int_scalar, default=101, help="bias grid size"),
        _Param("mobility", _float_scalar, default=15000.0, help="cm^2/(V s)"),
        _Param("alpha", _float_scalar, default=7.3e10, help="carriers per cm^2 per V"),
        _Param("aspect-ratio", _float_scalar, default=1.0, help="W/L"),
    ], ["Vb", "V", "I"], _rows_iv_curve),
    "angular-current": _Command([
        _Param("lambdaF", _float_scalar, default=50.0, help="Fermi wavelength in nm"),
        _Param("V0", _float_scalar, default=0.3, help="step height in eV"),
        _Param("theta-max", _float_scalar, default=85.0, help="half-width of the angle grid, deg"),
        _Param("n", _int_scalar, default=171, help="number of angles"),
        _HBAR_VF,
    ], ["theta_deg", "T", "relative_current"], _rows_angular_current),
}


# ------------------------------------------------------------- emission


# sweeps are turned into Python values and text this many rows at a time
_RENDER_SLICE = 1024


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _json_cell(value) -> str:
    """The text json.dumps writes for a cell, floats rounded to 9 significant digits."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(float(format(value, ".9g")))
        return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")
    return json.dumps(value)


def _json_floats(values: np.ndarray) -> list[str] | None:
    """json.dumps's texts of a float64 slice; None where %.9g writes every one of them.

    Only non-finite, subnormal and whole-after-rounding cells differ; a masked
    superset of them takes exact texts.
    """
    magnitude = np.abs(values)
    with np.errstate(invalid="ignore"):
        exact = ~np.isfinite(values) | (magnitude < np.finfo(float).tiny) | (
            np.abs(values - np.round(values)) <= 1e-8 * magnitude)
    if not exact.any():
        return None
    cells = values.tolist()
    texts = list(map("%.9g".__mod__, cells))
    exact_texts = {"nan": "NaN"}  # per distinct value; hex tells -0.0 from 0.0, which are equal
    for index in np.flatnonzero(exact).tolist():
        key = cells[index].hex()
        if key not in exact_texts:
            exact_texts[key] = _json_cell(cells[index])
        texts[index] = exact_texts[key]
    return texts


def _row_slices(columns: list[str], table: dict, cell, float_texts=lambda values: None):
    """Per slice of rows: each column's %-format in a row, and the rows' values for them.

    A float64 array goes in as raw floats under %.9g (format(v, ".9g")'s
    bytes) unless float_texts gives it texts; any other column as cell texts.
    """
    count = len(table[columns[0]]) if columns else 0
    for start in range(0, count, _RENDER_SLICE):
        formats, fields = [], []
        for name in columns:
            values = table[name][start:start + _RENDER_SLICE]
            floats = isinstance(values, np.ndarray) and values.dtype == np.float64
            texts = (float_texts(values) if floats
                     else list(map(cell, np.asarray(values, dtype=object))))
            formats.append("%.9g" if texts is None else "%s")
            fields.append(values.tolist() if texts is None else texts)
        yield formats, zip(*fields)


def render_csv(columns: list[str], table: dict, manifest: RunManifest | None) -> str:
    lines = manifest.comment_lines() if manifest else []
    lines.append(",".join(columns))
    for formats, rows in _row_slices(columns, table, _csv_cell):
        lines.append("\n".join(map(",".join(formats).__mod__, rows)))
    return "\n".join(lines) + "\n"


def render_json(columns: list[str], table: dict, manifest: RunManifest | None) -> str:
    """The bytes of json.dumps({"manifest": ..., "rows": [...]}, indent=2), written by hand."""
    head = "{\n"
    if manifest:
        head += '  "manifest": ' + json.dumps(manifest.as_dict(), indent=2).replace("\n", "\n  ")
        head += ",\n"
    prefixes = [f"      {json.dumps(name)}: ".replace("%", "%%") for name in columns]
    slices = []
    for formats, rows in _row_slices(columns, table, _json_cell, _json_floats):
        row = "    {\n" + ",\n".join(map(str.__add__, prefixes, formats)) + "\n    }"
        slices.append(",\n".join(map(row.__mod__, rows)))
    if not slices:
        return head + '  "rows": []\n}\n'
    return head + '  "rows": [\n' + ",\n".join(slices) + "\n  ]\n}\n"


def emit(request: SweepRequest, table: dict) -> int:
    """Render and write one sweep table; returns the process exit code."""
    columns = _COMMANDS[request.command].columns
    manifest = None
    if not request.no_manifest:
        manifest = RunManifest(__version__, request.command, request.params)
    render = render_csv if request.format == "csv" else render_json
    text = render(columns, table, manifest)
    if request.output:
        try:
            with open(request.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"{PROG}: cannot write {request.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        request = parse_args(argv)
    except _UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse already reported
        return exc.code if isinstance(exc.code, int) else 2
    try:
        table = _COMMANDS[request.command].rows(request)
    except SingularityError as exc:
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        print(f"{PROG}: rerun with --allow-singular to emit unbounded values",
              file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:  # a ValueError, but not the user's
        print(f"{PROG}: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # usage and parameter domain errors
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    return emit(request, table)


if __name__ == "__main__":
    sys.exit(main())
