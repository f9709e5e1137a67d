"""qspeed: driven quantum dynamics, Bures geometry, and speed-limit bounds.

Simulates finite-dimensional quantum systems under arbitrary time-dependent
Hermitian driving, computes the information-geometric quantities (Uhlmann
fidelity, Bures angle, Fisher information), evaluates the quantum-speed-limit
times built from time-averaged energies, and audits every inequality in the
underlying derivations pointwise along each trajectory.
"""

__version__ = "0.1.0"

from . import errors
from .bounds import (
    QSLReport,
    build_report,
    qsl_time,
    tau_ml_linear,
    tau_ml_quadratic,
    tau_mt,
    time_avg_energy_variance,
    time_avg_mean_energy,
)
from .geometry import (
    DistributionTrack,
    bures_increment,
    bures_length,
    fidelity,
    fisher_information_1d,
    statistical_velocity_sq,
    wootters_angle,
)
from .qdyn import (
    HamiltonianProtocol,
    QuantumState,
    Trajectory,
    ground_shift,
    propagate,
    step_unitary,
    validate_state,
)
from .verify import (
    AuditReport,
    CheckResult,
    audit_trajectory,
    check_trig_bound,
)

__all__ = [
    "__version__",
    "errors",
    # qdyn
    "QuantumState",
    "HamiltonianProtocol",
    "Trajectory",
    "validate_state",
    "ground_shift",
    "step_unitary",
    "propagate",
    # geometry
    "DistributionTrack",
    "fidelity",
    "bures_length",
    "wootters_angle",
    "fisher_information_1d",
    "statistical_velocity_sq",
    "bures_increment",
    # bounds
    "QSLReport",
    "time_avg_mean_energy",
    "time_avg_energy_variance",
    "tau_mt",
    "tau_ml_quadratic",
    "tau_ml_linear",
    "qsl_time",
    "build_report",
    # verify
    "AuditReport",
    "CheckResult",
    "audit_trajectory",
    "check_trig_bound",
]
