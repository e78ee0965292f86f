"""kleinstep: Dirac step-barrier scattering without the paradox.

Reflection/transmission of relativistic particles at sharp potential steps
and finite barriers under two rival matching conventions, the massless
specialization to graphene p-n junctions at oblique incidence, and a
gated-sheet transport simulator (I-V families, angular current profiles).
"""

from kleinstep import common, device, dirac, graphene, step
from kleinstep.common import *  # noqa: F401,F403
from kleinstep.device import *  # noqa: F401,F403
from kleinstep.dirac import *  # noqa: F401,F403
from kleinstep.graphene import *  # noqa: F401,F403
from kleinstep.step import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name for module in (common, dirac, step, graphene, device) for name in module.__all__
]
