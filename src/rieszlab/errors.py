"""Exception types shared across the package."""


class RieszLabError(Exception):
    """Base class for every rieszlab-specific error."""


class DimensionError(RieszLabError, ValueError):
    """Operand shapes do not match."""


class NoBiorthogonalSequenceError(RieszLabError):
    """Columns are linearly dependent, so no biorthogonal sequence exists."""


class IllConditionedError(RieszLabError):
    """Conditioning prevents meeting the dual-accuracy contract."""


class CriteriaDisagreementError(RieszLabError):
    """Independent classification routes disagreed.

    The criterion routes are equivalent, so a disagreement always means a
    numerical-tolerance bug, never a property of the input.
    """


class TruncationError(RieszLabError):
    """A time shift falls outside the safe part of the sampling window."""


class FitDomainError(RieszLabError, ValueError):
    """Growth fits require strictly positive values."""


class MatrixParseError(RieszLabError, ValueError):
    """A matrix or point-set file failed to parse."""
