"""Exception hierarchy shared by all qspeed modules.

Every error raised by the library derives from :class:`QspeedError`, so
callers (notably the CLI) can map failures onto process exit codes:
configuration problems, numerical/domain problems, and genuine bound or
audit violations are kept distinct.
"""


class QspeedError(Exception):
    """Base class for all qspeed errors."""


class NotHermitian(QspeedError):
    """A matrix that must be Hermitian deviates beyond tolerance."""


class NotNormalized(QspeedError):
    """A trace or normalization is off beyond tolerance: a state's norm or trace,
    a distribution's total, or a perturbation's trace that must vanish."""


class NotPositive(QspeedError):
    """An operator that must be positive semidefinite has a negative eigenvalue."""


class NotFinite(QspeedError):
    """A value that must be a finite number is NaN or infinite."""


class DimensionMismatch(QspeedError):
    """Operands live in Hilbert spaces of different dimension."""


class GridMismatch(QspeedError):
    """Two sampled distributions do not share the same grid."""


class DomainError(QspeedError):
    """An argument is outside its domain: a scalar out of range, a parameter
    that is not an interior sample, or a run too short to use."""


class NegativeEnergy(QspeedError):
    """Mean energy is negative; the protocol was not ground-shifted."""


class BadConfig(QspeedError):
    """A run configuration is malformed; the message names the field."""


class BoundViolation(QspeedError):
    """A computed speed-limit bound exceeds the actual duration."""
