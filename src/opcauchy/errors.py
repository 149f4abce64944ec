"""Exception types shared across the solver modules, and ``new_file``, which
opens every artifact they write."""

import contextlib
import os


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

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows or []


class InsufficientSnapshots(OpcauchyError):
    """Too few time snapshots for the requested finite-difference order."""


class ExprSyntaxError(OpcauchyError):
    """Expression parse failure; carries the byte offset of the bad token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariable(OpcauchyError):
    """Expression references a variable outside the declared dimension."""


class NonIntegerExponent(OpcauchyError):
    """'^' used with a non-integer exponent."""


class UnwritableOutput(OpcauchyError):
    """The output directory or an artifact in it cannot be written."""


@contextlib.contextmanager
def output_to(path):
    """Raise an OSError of the block as UnwritableOutput naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def new_file(path):
    """A binary handle on a new file at ``path``.

    A file already at ``path`` is removed first, never truncated in place:
    a hard link or an open handle to it keeps its bytes, and a symlink at
    ``path`` is replaced, not followed.  ext4 writes a truncated and
    rewritten file back when it is closed, and a file renamed over another
    too; a new file stays in the page cache.
    """
    with output_to(path):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        with open(path, "xb") as fh:
            yield fh
