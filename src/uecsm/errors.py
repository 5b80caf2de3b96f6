"""Exception hierarchy shared by all uecsm modules."""


class UecsmError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(UecsmError):
    """Operands have incompatible or unexpected dimensions."""


class UnsupportedDimension(UecsmError):
    """No complete criterion is implemented for this matrix size."""


class DegenerateSpectrum(UecsmError):
    """Eigenvalue gap too small: angle tests are inapplicable."""


class NoConvergence(UecsmError):
    """LAPACK's eigensolver failed, or an eigenvector system failed its
    residual or biorthogonality check."""


class OrthogonalEigenvectors(UecsmError):
    """A pairwise eigenvector inner product vanishes, so the determinant
    criterion is outside its hypothesis."""


class ConsistencyError(UecsmError):
    """An internal cross-check identity failed, indicating inconsistent
    spectral data rather than a verdict."""


class IsotropicVector(UecsmError):
    """Indefinite Gram-Schmidt hit a vector with (near-)zero self-product."""


class SingularMatrix(UecsmError):
    """A matrix required to be invertible is (numerically) singular."""


class RepeatedDiagonal(UecsmError):
    """Diagonal entries were required to be pairwise distinct."""


class ExhaustedRetries(UecsmError):
    """A randomized construction gave up after its retry budget."""


class CostGuard(UecsmError):
    """Input too large for the witness oracle."""


class ParseError(UecsmError):
    """A matrix document could not be parsed or validated."""
