"""kleinstep: Dirac step-barrier scattering without the paradox.

Reflection/transmission of relativistic particles at sharp potential steps
and finite barriers under two rival matching conventions, the massless
specialization to graphene p-n junctions at oblique incidence, and a
gated-sheet transport simulator (I-V families, angular current profiles).
The modules load on first use of a public name, of ``__all__`` or of themselves.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("common", "dirac", "step", "basis", "graphene", "junction", "device")


def __getattr__(name: str):
    # ``from kleinstep import graphene`` probes for the name first: a submodule loads alone
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        modules = [importlib.import_module(f"{__name__}.{module}") for module in _MODULES]
        exports = [(export, getattr(m, export)) for m in modules for export in m.__all__]
        globals().update(exports, __all__=[export for export, _ in exports])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
