"""Exception types shared across the package."""


class QuasiCError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(QuasiCError):
    """Anti-Hermitian part of a matrix exceeds the tolerance."""


class NotPositiveDefiniteError(QuasiCError):
    """A matrix required to be positive definite has an eigenvalue <= tol."""


class DefectiveMatrixError(QuasiCError):
    """Matrix is not diagonalizable (coalescent eigenvalue, single eigenvector)."""


class NearlyDefectiveError(DefectiveMatrixError):
    """Eigenvector matrix condition number exceeds the safe threshold."""


class RegimeMismatchError(QuasiCError):
    """Closed form evaluated with parameters outside its validity regime."""


class OffGridError(QuasiCError):
    """Requested time is not a node of the evolution grid."""


class BranchFlipError(QuasiCError):
    """Consecutive eigenstate samples overlap too weakly to define a smooth gauge."""
