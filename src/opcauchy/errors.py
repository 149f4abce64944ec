"""Exception types shared across the solver modules."""


class OpcauchyError(Exception):
    """Base class for all library errors."""


class DegenerateRoots(OpcauchyError):
    """Characteristic roots too close together for the distinct-root kernels."""


class NonmonicZero(OpcauchyError):
    """Leading polynomial coefficient is zero."""


class ZeroRoot(OpcauchyError):
    """A zero root, where the even-order kernel's nodes +-a_j coincide."""


class UnresolvedKernel(OpcauchyError):
    """Repeated-root forcing kernel requested before the measure probe has run."""


class NonFiniteForcing(OpcauchyError):
    """A forcing sample is infinite or NaN."""


class InconclusiveProbe(OpcauchyError):
    """Neither candidate repeated-root kernel dominates the other."""


class InsufficientSnapshots(OpcauchyError):
    """Too few time snapshots for the requested finite-difference order."""


class ExprSyntaxError(OpcauchyError):
    """Expression parse failure; the message names the byte offset of the bad token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")


class UnknownVariable(OpcauchyError):
    """Expression references a variable outside the declared dimension."""


class NonIntegerExponent(OpcauchyError):
    """'^' used with a non-integer exponent."""


class UnwritableOutput(OpcauchyError):
    """The output directory or an artifact in it cannot be written."""
