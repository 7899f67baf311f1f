"""Exception hierarchy.

Every failure mode is reported through a named exception so callers can
branch on the cause; nothing is silently regularized.
"""


class LrnDetectError(Exception):
    """Base class for all package errors."""


# --- MPS / spectral ---------------------------------------------------------


class NonDiagonalizablePeripheral(LrnDetectError):
    """Peripheral eigenspace has nontrivial Jordan structure.

    Signals a tensor outside canonical form; blocking usually resolves it.
    Carries the transfer spectrum, sorted by descending modulus.
    """

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class ConvergenceFailure(LrnDetectError):
    """An iterative procedure did not converge within its budget."""

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class ScaleOutOfRange(LrnDetectError):
    """A matrix is too large or too small for floating-point spectral work.

    Its Frobenius norm, the scale of every residual, over- or underflows,
    or it has a non-finite entry.  Carries that norm and, when it is
    known, the spectrum.
    """

    def __init__(self, message, norm, spectrum):
        super().__init__(message)
        self.norm = norm
        self.spectrum = spectrum


class DecompositionFailure(LrnDetectError):
    """Canonical-form block extraction failed.

    Carries the peripheral fixed-point spectrum that defeated the splitter.
    """

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class RankTolerance(LrnDetectError):
    """Singular values cluster at the rank cutoff; rank is ambiguous."""

    def __init__(self, message, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class DimensionMismatch(LrnDetectError):
    """Operands have incompatible dimensions."""


class NotNormalInput(LrnDetectError):
    """Operation requires normal tensors."""


class DegenerateNormalization(LrnDetectError):
    """All block weights vanish at the requested system size."""


# --- criteria ---------------------------------------------------------------


class NotNormalized(LrnDetectError):
    """Probability vector does not sum to one."""


class OutOfRange(LrnDetectError):
    """Scalar argument outside its admissible interval."""


# --- stabilizer -------------------------------------------------------------


class TargetOutOfRange(LrnDetectError):
    """Gate target index outside the register, or repeated."""


class DependentGenerators(LrnDetectError):
    """Tableau rows are linearly dependent over GF(2)."""


class OverlappingRegions(LrnDetectError):
    """Mutual-information regions must be disjoint proper subsets."""


# --- dense oracle -----------------------------------------------------------


class SizeCap(LrnDetectError):
    """Requested dense object exceeds the desk-scale size caps."""


class ZeroState(LrnDetectError):
    """State vector has vanishing norm."""


class NotPSD(LrnDetectError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NotUnitary(LrnDetectError):
    """Gate is not unitary within the tolerance."""


class GeometryMismatch(LrnDetectError):
    """Circuit geometry does not match the state it is applied to."""


class PartitionTooSmall(LrnDetectError):
    """Partition regions too small for the circuit depth."""


class BadFactorization(LrnDetectError):
    """Region dimensions do not factor the matrix dimension."""
