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
    """State norm / trace / distribution normalization is off beyond tolerance."""


class NotPositive(QspeedError):
    """An operator that must be positive semidefinite has a negative eigenvalue."""


class NotFinite(QspeedError):
    """A value that must be a finite number is NaN or infinite."""


class NotTraceless(QspeedError):
    """A perturbation that must be traceless carries a trace beyond tolerance."""


class DimensionMismatch(QspeedError):
    """Operands live in Hilbert spaces of different dimension."""


class GridMismatch(QspeedError):
    """Two sampled distributions do not share the same grid."""


class ParameterOutOfRange(QspeedError):
    """A parameter value is outside the sampled (interior) range."""


class TooFewSamples(QspeedError):
    """A trajectory has too few samples for the requested analysis."""


class DomainError(QspeedError):
    """A scalar argument is outside its mathematical domain."""


class NegativeEnergy(QspeedError):
    """Mean energy is negative; the protocol was not ground-shifted."""


class BadConfig(QspeedError):
    """A run configuration is malformed; the message names the field."""


class BoundViolation(QspeedError):
    """A computed speed-limit bound exceeds the actual duration."""
