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
from kleinstep import common, device, dirac, graphene, step
from kleinstep.cli import RunManifest
from kleinstep.device import DeviceParams
from kleinstep.dirac import (hamiltonian_residual, hamiltonian_residual4, make_spinor2,
                             make_spinor4)
from kleinstep.graphene import (
    GrapheneMaterial,
    angle_kinematics,
    critical_angle,
    energy_from_wavelength,
    solve_barrier,
)
from kleinstep.step import StepProblem

MODULES = (common, dirac, step, graphene, device)


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
names = ("common", "dirac", "step", "graphene", "device")
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
           for name in ("common", "dirac", "step", "graphene", "device")]
exports = [(name, module) for module in modules for name in module.__all__]
assert len(exports) == 46, len(exports)
for name, module in exports:
    assert globals()[name] is getattr(module, name), name
""",
    "from-import-cli": """
import sys
from kleinstep import cli
physics = ("dirac", "step", "graphene", "device")
loaded = [name for name in physics if "kleinstep." + name in sys.modules]
assert not loaded, loaded
assert cli is sys.modules["kleinstep.cli"]
""",
    # the angular profile loads graphene alone, not the package's other modules
    "angular-profile": """
import sys
from kleinstep.device import angular_current_profile
profile = angular_current_profile(0.3, [0.0, 0.5], lambda_F=50.0)
loaded = sorted(name for name in sys.modules if name.startswith("kleinstep."))
assert loaded == ["kleinstep.common", "kleinstep.device", "kleinstep.graphene"], loaded
assert profile.transmission[0] == 1.0
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


def test_readme_quick_start_runs():
    # every name the quick start uses must still be exported, and run without a warning
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", handle.read(), re.S)
    assert block, "README.md has no Library quick start block"
    result = run_fresh("import warnings\nwarnings.simplefilter('error')\n" + block.group(1))
    assert result.returncode == 0, result.stderr


NON_FINITE_CASES = [
    (StepProblem, (2.0, 1.0, math.nan), {}, "V0"),
    (StepProblem, (math.inf, 1.0, 5.0), {}, "E"),
    (StepProblem, (2.0, -math.inf, 5.0), {}, "m"),
    (GrapheneMaterial, (math.inf,), {}, "hbar_vF"),
    (DeviceParams, (), {"back_gate": math.nan}, "back_gate"),
    (DeviceParams, (), {"mobility": math.inf}, "mobility"),
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
     "aspect_ratio=1.0, elementary_charge=1.602176634e-19)", "back_gate"),
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
