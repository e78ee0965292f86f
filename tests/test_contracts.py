"""Package-level contracts: the exported names and non-finite input rejection."""

import math

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
