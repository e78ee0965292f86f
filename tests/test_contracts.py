"""Package-level contracts: the exported names and non-finite input rejection."""

import math
import os
import subprocess
import sys

import pytest

import kleinstep
from kleinstep import common, device, dirac, graphene, step
from kleinstep.device import DeviceParams
from kleinstep.dirac import make_spinor2, make_spinor4
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


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports kleinstep from the tested tree."""
    path = os.pathsep.join([os.path.dirname(os.path.dirname(kleinstep.__file__)),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
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
assert len(exports) == 51, len(exports)
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
]


@pytest.mark.parametrize("build,args,kwargs,name", NON_FINITE_CASES,
                         ids=[f"{case[0].__name__}-{case[3]}" for case in NON_FINITE_CASES])
def test_non_finite_input_rejected(build, args, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(*args, **kwargs)
