"""qspeed: driven quantum dynamics, Bures geometry, and speed-limit bounds.

Simulates finite-dimensional quantum systems under arbitrary time-dependent
Hermitian driving, computes the information-geometric quantities (Uhlmann
fidelity, Bures angle, Fisher information), evaluates the quantum-speed-limit
times built from time-averaged energies, and audits every inequality in the
underlying derivations pointwise along each trajectory.
"""

__version__ = "0.1.0"

from . import bounds, errors, geometry, qdyn, verify
from .bounds import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .qdyn import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__all__ = ["__version__", "errors", *qdyn.__all__, *geometry.__all__, *bounds.__all__, *verify.__all__]
