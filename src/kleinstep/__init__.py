"""kleinstep: Dirac step-barrier scattering without the paradox.

Reflection/transmission of relativistic particles at sharp potential steps
and finite barriers under two rival matching conventions, the massless
specialization to graphene p-n junctions at oblique incidence, and a
gated-sheet transport simulator (I-V families, angular current profiles).
The modules load on first use of a public name, of ``__all__`` or of themselves.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    # "cli" is a submodule, not an export: ``from kleinstep import cli`` probes for it first
    if name == "__all__" or not name.startswith("_") and name != "cli":
        modules = [importlib.import_module(f"{__name__}.{module}") for module in (
            "common", "dirac", "step", "basis", "graphene", "junction", "device")]
        exports = [(export, getattr(m, export)) for m in modules for export in m.__all__]
        globals().update(exports, __all__=[export for export, _ in exports])
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")))
