"""Exception types shared across the toolkit."""


class PreconditionError(ValueError):
    """An input violates the contract of the operation that received it."""


class NotSquareError(PreconditionError):
    """A square matrix was required."""


class NotHermitianError(PreconditionError):
    """A Hermitian matrix was required."""


class NotPsdError(PreconditionError):
    """A positive semidefinite matrix was required."""


class SingularPowerError(PreconditionError):
    """Negative matrix power of a matrix that is not safely positive definite."""


class RankRangeError(PreconditionError):
    """Rank cutoff k outside [1, dimension]."""


class ExponentRangeError(PreconditionError):
    """Exponent outside the admitted range for the requested functional."""


class ShapeMismatchError(PreconditionError):
    """Array shape incompatible with the declared dimensions."""


class NotTracePreservingError(PreconditionError):
    """Kraus family or dilation matrix fails the trace preservation condition."""


class NotDensityError(PreconditionError):
    """A density matrix (PSD, unit trace) was required."""


class DomainError(PreconditionError):
    """A scalar argument outside the domain of the function, or a matrix with a NaN or infinite entry."""


class BadDimsError(PreconditionError):
    """Dimension tuple is malformed for the requested object."""


class KindMismatchError(PreconditionError):
    """Instance kind does not match what the operation expects."""


class MatrixFileError(ValueError):
    """Malformed matrix file.  Parse-level, not a numeric precondition."""
