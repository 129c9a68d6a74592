"""Exception and warning types shared across the package.

Errors are grouped by what went wrong, not where: callers catch
``PowertailError`` for anything this library raises on purpose.
"""


class PowertailError(Exception):
    """Base class for all deliberate failures raised by this package."""


class InvalidArgumentError(PowertailError, ValueError):
    """A parameter is outside its documented domain."""


class IncompatibleSeriesError(PowertailError):
    """Two series cannot be combined (different exponent lattice,
    variable direction, normalization, or structural shift)."""


class NotInvertibleError(PowertailError):
    """Reciprocal of a series whose constant term vanishes."""


class NormalizationError(PowertailError):
    """Operation requires a unit constant term; normalize first."""


class InvalidFormError(PowertailError):
    """A series does not have the structural shape an operation needs
    (e.g. not a reciprocal-Cauchy form with unit leading term)."""


class DomainBranchError(PowertailError):
    """Evaluation point sits on (or across) the active branch cut."""


class OutsideValidityRegionError(PowertailError):
    """Evaluation point violates a hard validity precondition."""


class LogTermObstructionError(PowertailError):
    """Integer tail exponent forces a logarithmic singularity, so the
    requested real-to-complex coefficient lift does not exist."""


class ResonanceError(PowertailError):
    """A series coefficient hits a zero denominator (sine resonance)
    at the requested truncation order."""


class NonConvergentReversionError(PowertailError):
    """Reversion failed its closing residual check; internal error."""


class UnsupportedSemigroupError(PowertailError):
    """Operation is only defined for finitely generated exponent
    semigroups of the supported shape."""


class ResourceGuardError(PowertailError):
    """An enumeration or truncation bound would exceed sane limits."""


class InvalidModelError(PowertailError):
    """A tail-density model violates its own geometric bounds."""


class CertificateError(PowertailError):
    """A real-number certificate is malformed or cannot support the
    requested exact operation."""


class DivergenceGuardWarning(UserWarning):
    """Evaluation point is inside the divergence guard radius; the
    partial sum is returned but carries no convergence guarantee."""


class NearIntegerWarning(UserWarning):
    """Tail exponent within snapping tolerance of an integer was
    routed to the integer (logarithmic) branch."""


class ToleranceMergeWarning(UserWarning):
    """A float exponent grid merged distinct values within the merge
    tolerance, so sums on it hold only to that tolerance."""


class TruncationWarning(UserWarning):
    """Requested truncation was reduced to avoid a guard violation."""
