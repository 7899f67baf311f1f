"""Exception hierarchy.

Every failure mode is reported through a named exception so callers can
branch on the cause; nothing is silently regularized.  An error carries
the numbers behind it as keyword arguments of its raise, which the CLI
writes to stderr as its payload.
"""


class LrnDetectError(Exception):
    """Base class for all package errors.

    Each keyword argument is diagnostic payload (a spectrum, singular
    values, a residual, a norm): it becomes an attribute of the error, and
    ``payload`` keeps the ones that are not None, in the order given.
    """

    def __init__(self, message, **payload):
        super().__init__(message)
        vars(self).update(payload)
        self.payload = {k: v for k, v in payload.items() if v is not None}


# --- MPS / spectral ---------------------------------------------------------


class NonDiagonalizablePeripheral(LrnDetectError):
    """Peripheral eigenspace has nontrivial Jordan structure.

    Signals a tensor outside canonical form; blocking usually resolves it.
    Carries the transfer spectrum, sorted by descending modulus.
    """


class ConvergenceFailure(LrnDetectError):
    """An iterative procedure did not converge within its budget.

    Carries the last residual.
    """


class ScaleOutOfRange(LrnDetectError):
    """A matrix is too large or too small for floating-point spectral work.

    Its Frobenius norm, the scale of every residual, over- or underflows,
    or it has a non-finite entry.  Carries that norm and, when it is
    known, the spectrum.
    """


class DecompositionFailure(LrnDetectError):
    """Canonical-form block extraction failed.

    Carries the peripheral fixed-point spectrum that defeated the splitter.
    """


class DimensionMismatch(LrnDetectError):
    """Operands have incompatible dimensions."""


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


class GeometryMismatch(LrnDetectError):
    """Circuit geometry does not match the state it is applied to."""


class PartitionTooSmall(LrnDetectError):
    """Partition regions too small for the circuit depth."""


class BadFactorization(LrnDetectError):
    """Region dimensions do not factor the matrix dimension."""
