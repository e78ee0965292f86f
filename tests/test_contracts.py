"""Package-level contracts: the exported names and non-finite input rejection."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kleinstep
from kleinstep import basis, common, device, dirac, graphene, junction, step
from kleinstep.cli import RunManifest
from kleinstep.device import DeviceParams
from kleinstep.dirac import (hamiltonian_residual, hamiltonian_residual4, make_spinor2,
                             make_spinor4)
from kleinstep.graphene import GrapheneMaterial, energy_from_wavelength, solve_barrier
from kleinstep.junction import angle_kinematics, critical_angle
from kleinstep.step import StepProblem

MODULES = (common, dirac, step, basis, graphene, junction, device)


def test_package_exports_every_module_export():
    assert set(kleinstep.__all__) == {name for module in MODULES for name in module.__all__}
    assert len(kleinstep.__all__) == len(set(kleinstep.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kleinstep, name) is getattr(module, name)


def run_fresh(code: str, *argv: str, stdout=subprocess.PIPE, text: bool = True,
              options: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports kleinstep from the tested tree.

    ``options`` go to the interpreter itself, before ``-c``.
    """
    path = os.pathsep.join([os.path.dirname(os.path.dirname(kleinstep.__file__)),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *options, "-c", code, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=text,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


# each check is the first thing a fresh interpreter does with the lazily loaded package
LAZY_PACKAGE_CHECKS = {
    "submodules": """
import sys, kleinstep
names = ("common", "dirac", "step", "basis", "graphene", "junction", "device")
assert not [name for name in names if "kleinstep." + name in sys.modules]
for name in names:
    assert getattr(kleinstep, name) is sys.modules["kleinstep." + name], name
""",
    "dir": """
import kleinstep
names = set(dir(kleinstep))
assert names >= set(kleinstep.__all__), set(kleinstep.__all__) - names
""",
    "star-import": """
import importlib
from kleinstep import *
modules = [importlib.import_module("kleinstep." + name)
           for name in ("common", "dirac", "step", "basis", "graphene", "junction", "device")]
exports = [(name, module) for module in modules for name in module.__all__]
assert len(exports) == 40, len(exports)
for name, module in exports:
    assert globals()[name] is getattr(module, name), name
""",
    "from-import-cli": """
import sys
from kleinstep import cli
physics = ("dirac", "step", "basis", "graphene", "junction", "device")
loaded = [name for name in physics if "kleinstep." + name in sys.modules]
assert not loaded, loaded
assert cli is sys.modules["kleinstep.cli"]
""",
    # a submodule name loads that module (and what it imports), not every export's module
    "from-import-graphene": """
import sys
from kleinstep import graphene
loaded = sorted(name for name in sys.modules if name.startswith("kleinstep"))
assert loaded == ["kleinstep", "kleinstep.common", "kleinstep.graphene"], loaded
assert graphene is sys.modules["kleinstep.graphene"]
""",
    # a step solve loads the solver and what it runs on, not the basis states
    "step-solver": """
import sys
from kleinstep.step import StepProblem, solve_step_numeric
solution = solve_step_numeric(StepProblem(2.0, 1.0, 5.0))
loaded = sorted(name for name in sys.modules if name.startswith("kleinstep."))
assert loaded == ["kleinstep.common", "kleinstep.dirac", "kleinstep.step"], loaded
assert 0.0 <= solution.T <= 1.0
""",
    # a barrier solve loads the material, the kinematics and the barrier, not the junction
    "barrier-solver": """
import sys
from kleinstep.graphene import solve_barrier
solution = solve_barrier(0.1, 0.05, 20.0, 0.2)
loaded = sorted(name for name in sys.modules if name.startswith("kleinstep."))
assert loaded == ["kleinstep.common", "kleinstep.graphene"], loaded
assert 0.0 <= solution.T <= 1.0
""",
    # the angular profile is junction physics: it loads graphene and junction, not the device
    "angular-profile": """
import sys
from kleinstep.junction import angular_current_profile
profile = angular_current_profile(0.08, 0.3, [0.0, 0.5])
loaded = sorted(name for name in sys.modules if name.startswith("kleinstep."))
assert loaded == ["kleinstep.common", "kleinstep.graphene", "kleinstep.junction"], loaded
assert profile.transmission[0] == 1.0
""",
    # the ohmic sheet runs on common alone: an I-V curve loads no scattering module
    "device": """
import sys
from kleinstep.device import DeviceParams, iv_curve
currents = iv_curve(DeviceParams(back_gate=0.2), [0.001])
loaded = sorted(name for name in sys.modules if name.startswith("kleinstep."))
assert loaded == ["kleinstep.common", "kleinstep.device"], loaded
assert currents[0] > 0.0
""",
    "unknown-name": """
import kleinstep
try:
    kleinstep.x
except AttributeError as exc:
    assert str(exc) == "module 'kleinstep' has no attribute 'x'", str(exc)
else:
    raise AssertionError("kleinstep.x resolved")
""",
}


@pytest.mark.parametrize("check", list(LAZY_PACKAGE_CHECKS))
def test_package_loads_modules_on_first_use(check):
    result = run_fresh(LAZY_PACKAGE_CHECKS[check])
    assert result.returncode == 0, result.stderr


# each check runs in a fresh interpreter with no BLAS thread count in its environment
BLAS_THREAD_CHECKS = {
    # the CLI loads numpy: one BLAS thread, and the variable is gone after the import
    "cli-loads-numpy": """
import os
import kleinstep.cli
with open("/proc/self/status") as status:
    threads = next(line for line in status if line.startswith("Threads:"))
assert threads.split() == ["Threads:", "1"], threads
assert "OPENBLAS_NUM_THREADS" not in os.environ
""",
    # a user's setting stays in force
    "user-setting": """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "2"
import kleinstep.cli
assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
""",
    # numpy already loaded: the CLI leaves the environment as it is
    "numpy-first": """
import os
import numpy
before = dict(os.environ)
import kleinstep.cli
assert dict(os.environ) == before
""",
}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("check", list(BLAS_THREAD_CHECKS))
def test_cli_loads_numpy_with_one_blas_thread(check):
    unset = "".join(f"os.environ.pop({name!r}, None)\n" for name in
                    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    result = run_fresh("import os\n" + unset + BLAS_THREAD_CHECKS[check])
    assert result.returncode == 0, result.stderr


# runs the code in argv[1], each print's first line tagged with the code's line number
TAGGED_PRINTS = """
import sys

def tagged(*args, **kwargs):
    print(f"<{sys._getframe(1).f_lineno}>", *args, **kwargs)

exec(compile(sys.argv[1], "README.md", "exec"), {"print": tagged})
"""


def test_readme_quick_start_runs():
    # every name the quick start uses must still be exported, and run without a warning in
    # dev mode; a print whose comment is digits with "..." prints a line that begins so
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", handle.read(), re.S)
    assert block, "README.md has no Library quick start block"
    result = run_fresh(TAGGED_PRINTS, block.group(1), options=("-X", "dev", "-W", "error"))
    assert result.returncode == 0, result.stderr
    printed = dict(re.findall(r"^<(\d+)> (.*)$", result.stdout, re.M))
    checked = 0
    for number, line in enumerate(block.group(1).splitlines(), 1):
        comment = re.search(r"\bprint\(.*#\s*([-+\d.,() e]*\d\.\.\.[-+\d.,() e]*?)\s*$", line)
        if comment:
            digits = r"\d*".join(map(re.escape, comment.group(1).split("...")))
            assert re.fullmatch(digits, printed[str(number)]), (line, printed[str(number)])
            checked += 1
    assert checked == 5, checked


NON_FINITE_CASES = [
    (StepProblem, (2.0, 1.0, math.nan), {}, "V0"),
    (StepProblem, (math.inf, 1.0, 5.0), {}, "E"),
    (StepProblem, (2.0, -math.inf, 5.0), {}, "m"),
    (GrapheneMaterial, (math.inf,), {}, "hbar_vF"),
    (DeviceParams, (), {"back_gate": math.nan}, "back_gate"),
    (DeviceParams, (), {"mobility": math.inf}, "mobility"),
    (DeviceParams, (), {"gate_coefficient": math.inf}, "gate_coefficient"),
    (DeviceParams, (), {"aspect_ratio": math.nan}, "aspect_ratio"),
    (angle_kinematics, (0.08, math.nan, 0.1), {}, "V0"),
    (angle_kinematics, (math.inf, 0.3, 0.1), {}, "E"),
    (angle_kinematics, (0.08, 0.3, math.nan), {}, "theta_I"),
    (solve_barrier, (0.08, 0.3, math.inf, 0.1), {}, "D"),
    (solve_barrier, (0.08, math.nan, 10.0, 0.1), {}, "V0"),
    (critical_angle, (1.0, math.nan), {}, "V0"),
    (critical_angle, (math.inf, 0.3), {}, "E"),
    (energy_from_wavelength, (math.inf,), {}, "lambda_F"),
    (energy_from_wavelength, (math.nan,), {}, "lambda_F"),
    (make_spinor2, (math.inf, 1.0, 0.0), {}, "eps"),
    (make_spinor2, (2.0, complex(math.inf, 0.0), 1.0), {}, "k"),
    (make_spinor2, (2.0, complex(1.0, math.nan), 1.0), {}, "k"),
    (make_spinor2, (2.0, 1.0, math.nan), {}, "m"),
    (make_spinor4, (math.inf, (0.0, 0.0, 0.0), 0.0), {}, "E"),
    (make_spinor4, (1.0, (0.0, 0.0, 0.0), math.nan), {}, "m"),
    (make_spinor4, (1.0, (math.nan, 0.0, 0.0), 0.0), {}, "px"),
    (make_spinor4, (1.0, (0.0, math.inf, 0.0), 0.0), {}, "py"),
    (hamiltonian_residual, ((1.0, 1.0), math.nan, 1.0, 0.0), {}, "eps"),
    (hamiltonian_residual, ((1.0, 1.0), 1.0, math.inf, 0.0), {}, "k"),
    (hamiltonian_residual, ((1.0, 1.0), 1.0, 1.0, math.nan), {}, "m"),
    (hamiltonian_residual, ((complex(1.0, math.inf), 1.0), 1.0, 1.0, 0.0), {}, "psi_upper"),
    (hamiltonian_residual, ((1.0, math.nan), 1.0, 1.0, 0.0), {}, "psi_lower"),
    (hamiltonian_residual4, ([1.0, 0.0, 0.0, 0.0], math.inf, (0.0, 0.0, 0.0), 1.0), {}, "energy"),
    (hamiltonian_residual4, ([1.0, 0.0, 0.0, 0.0], 1.0, (0.0, 0.0, 0.0), math.nan), {}, "m"),
    (hamiltonian_residual4, ([1.0, 0.0, 0.0, 0.0], 1.0, (math.nan, 0.0, 0.0), 1.0), {}, "px"),
    (hamiltonian_residual4, ([1.0, 0.0, 0.0, 0.0], 1.0, (0.0, -math.inf, 0.0), 1.0), {}, "py"),
    (hamiltonian_residual4, ([1.0, 0.0, 0.0, 0.0], 1.0, (0.0, 0.0, math.inf), 1.0), {}, "pz"),
]


@pytest.mark.parametrize("build,args,kwargs,name", NON_FINITE_CASES,
                         ids=[f"{case[0].__name__}-{case[3]}" for case in NON_FINITE_CASES])
def test_non_finite_input_rejected(build, args, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(*args, **kwargs)


# each would otherwise return an eigenvector of H with m = -1
NEGATIVE_MASS_CASES = [
    (make_spinor2, (2.0, math.sqrt(3.0), -1.0)),
    (hamiltonian_residual, ((math.sqrt(3.0), 3.0), 2.0, math.sqrt(3.0), -1.0)),
    (hamiltonian_residual4, ([1.0, 0.0, 0.0, 0.0], -1.0, (0.0, 0.0, 0.0), -1.0)),
]


@pytest.mark.parametrize("build,args", NEGATIVE_MASS_CASES,
                         ids=[case[0].__name__ for case in NEGATIVE_MASS_CASES])
def test_negative_mass_rejected(build, args):
    with pytest.raises(ValueError, match="^mass must be nonnegative$"):
        build(*args)


# each names its first bad cell in C order, not its first bad argument
MULTI_FAULT_CASES = [
    (make_spinor2, (np.array([1.0, math.nan]), np.array([math.inf, 1.0]), 0.0),
     "k must be finite, got (inf+0j)"),
    (make_spinor4, ([1.0, 2.0], (0.0, 0.0, [5.0, math.nan]), [-1.0, 1.0]),
     "mass must be nonnegative"),
    (hamiltonian_residual, ((np.array([math.nan, 1.0]), 1.0), np.array([1.0, 2.0]),
                            np.array([1.0, math.inf]), [0.0, -1.0]),
     "psi_upper must be finite, got (nan+0j)"),
    (hamiltonian_residual4, (np.eye(4)[:2], [1.0, math.nan], (0.0, [math.inf, 0.0], 0.0), 1.0),
     "py must be finite, got inf"),
]


@pytest.mark.parametrize("build,args,message", MULTI_FAULT_CASES,
                         ids=[case[0].__name__ for case in MULTI_FAULT_CASES])
def test_multi_fault_input_names_first_bad_cell(build, args, message):
    with pytest.raises(ValueError) as error:
        build(*args)
    assert str(error.value) == message


@st.composite
def faulty_grids(draw, valid_cell):
    """Cells of a (rows, cols) grid, and one array per argument over the grid.

    Each cell is a valid argument tuple with at most one value made non-finite
    or negated.
    """
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = []
    for _ in range(rows * cols):
        cell = list(draw(valid_cell))
        if draw(st.booleans()):
            index = draw(st.integers(0, len(cell) - 1))
            fault = draw(st.sampled_from(["nan", "inf", "-inf", "negate"]))
            cell[index] = -cell[index] if fault == "negate" else float(fault)
        cells.append(cell)
    return cells, [np.array(column).reshape(rows, cols) for column in zip(*cells)]


def _step_cell(m, gap, V0):
    return m + gap, m, V0


def _spinor_cell(k, m, sign):
    return sign * math.sqrt(k * k + m * m), k, m


VALIDATED_CALLS = {
    "StepProblem": (StepProblem, st.builds(
        _step_cell, st.floats(0.0, 2.0), st.floats(0.01, 3.0), st.floats(0.1, 5.0))),
    "angle_kinematics": (angle_kinematics, st.tuples(
        st.floats(0.01, 1.0), st.floats(1.5, 3.0), st.floats(-1.5, 1.5))),
    "solve_barrier": (solve_barrier, st.tuples(
        st.floats(0.01, 1.0), st.floats(1.5, 3.0), st.floats(1.0, 100.0), st.floats(-1.5, 1.5))),
    "make_spinor2": (make_spinor2, st.builds(
        _spinor_cell, st.floats(0.1, 3.0), st.floats(0.0, 2.0), st.sampled_from([-1.0, 1.0]))),
}


@pytest.mark.parametrize("name", VALIDATED_CALLS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_error_is_first_bad_cells_error(name, data):
    call, valid_cell = VALIDATED_CALLS[name]
    cells, arrays = data.draw(faulty_grids(valid_cell))
    expected = None
    for cell in cells:
        try:
            call(*cell)
        except ValueError as error:
            expected = str(error)
            break
    if expected is None:
        call(*arrays)
    else:
        with pytest.raises(ValueError) as error:
            call(*arrays)
        assert str(error.value) == expected


RECORDS = [
    (lambda: StepProblem(2.0, 1.0, 5.0), lambda: StepProblem(E=2.0, m=1.0, V0=5.0),
     "StepProblem(E=2.0, m=1.0, V0=5.0)", "E"),
    (lambda: GrapheneMaterial(), lambda: GrapheneMaterial(hbar_vF=0.6578),
     "GrapheneMaterial(hbar_vF=0.6578)", "hbar_vF"),
    (lambda: DeviceParams(back_gate=0.1), lambda: DeviceParams(15000.0, 7.3e10, 0.1, 1.0),
     "DeviceParams(mobility=15000.0, gate_coefficient=73000000000.0, back_gate=0.1, "
     "aspect_ratio=1.0)", "back_gate"),
    (lambda: RunManifest("0.1.0", "barrier", {}, "t"),
     lambda: RunManifest(version="0.1.0", command="barrier", parameters={}, timestamp="t"),
     "RunManifest(version='0.1.0', command='barrier', parameters={}, timestamp='t')", "command"),
]


@pytest.mark.parametrize("build,build_by_keyword,text,field", RECORDS,
                         ids=[case[3] for case in RECORDS])
def test_record_contract(build, build_by_keyword, text, field):
    # positional and keyword construction, repr text, equality, hash and immutability
    record = build()
    assert repr(record) == text
    assert record == build_by_keyword()
    if not isinstance(getattr(record, "parameters", None), dict):
        assert hash(record) == hash(build_by_keyword())
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


REPLACE_CASES = [
    (StepProblem(2.0, 1.0, 5.0), {"V0": math.nan}, "V0 must be finite"),
    (GrapheneMaterial(), {"hbar_vF": -1.0}, "hbar_vF must be positive"),
    (DeviceParams(), {"mobility": 0.0}, "mobility must be positive"),
]


@pytest.mark.parametrize("record,change,message", REPLACE_CASES,
                         ids=[type(case[0]).__name__ for case in REPLACE_CASES])
def test_replace_and_make_validate(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())
    assert record._replace() == record == type(record)._make(record)


def test_manifest_timestamp_defaults_to_now():
    stamp = RunManifest("0.1.0", "barrier", {}).timestamp
    assert len(stamp) == len("2000-01-01T00:00:00+00:00") and stamp.endswith("+00:00")
