"""Scalar operator functions and their application as Fourier multipliers.

The two operator functions behind the closed-form kernels are even in
sqrt(z), so both are evaluated as entire functions of z itself; no branch
of the square root ever matters.  Near z = 0 a short Taylor series is used,
elsewhere the closed form through the principal square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .symbol_poly import symbol_grid, wavevectors

#: Real part of the exponent beyond which results saturate and are flagged.
OVERFLOW_LIMIT = 700.0

#: |z| below which the Taylor series is used; 12 terms give < 1e-17 truncation.
SERIES_RADIUS = 0.25
_N_SERIES = 12

_SINHC_COEFFS = np.array([1.0 / factorial(2 * k + 1) for k in range(_N_SERIES)])
_COSH_COEFFS = np.array([1.0 / factorial(2 * k) for k in range(_N_SERIES)])


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on a periodic grid (row-major, physical space)."""

    shape: tuple
    box: tuple
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != tuple(self.shape):
            raise ValueError("data shape does not match grid shape")
        if any(n < 2 for n in self.shape):
            raise ValueError("grid must have at least 2 points per axis")
        if not all(0 < L < np.inf for L in self.box):
            raise ValueError("box lengths must be positive and finite")

    @property
    def dim(self):
        return len(self.shape)

    @classmethod
    def from_function(cls, shape, box, fn):
        """Sample fn on the grid; fn takes the mesh coordinate arrays."""
        return cls(tuple(shape), tuple(box), np.asarray(fn(*mesh(shape, box)), dtype=complex))

    @classmethod
    def zeros(cls, shape, box):
        return cls(tuple(shape), tuple(box), np.zeros(tuple(shape), dtype=complex))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients u(x) = sum_k c_k exp(i 2 pi k.x / L)."""

    shape: tuple
    box: tuple
    data: np.ndarray


def mesh(shape, box):
    """Coordinate arrays of the periodic grid, endpoint excluded."""
    axes = [box[d] * np.arange(shape[d]) / shape[d] for d in range(len(shape))]
    return np.meshgrid(*axes, indexing="ij")


def to_spectral(u: Field) -> SpectralField:
    coeffs = np.fft.fftn(u.data) / u.data.size
    return SpectralField(u.shape, u.box, coeffs)


def from_spectral(s: SpectralField) -> Field:
    data = np.fft.ifftn(s.data * s.data.size)
    return Field(s.shape, s.box, data)


def _restore(z_in, out):
    if np.isscalar(z_in) or getattr(z_in, "ndim", 1) == 0:
        return complex(np.asarray(out).ravel()[0])
    return out


def _sat_exp(w):
    """exp(w) with the real part clipped at the overflow limit."""
    w = np.asarray(w, dtype=complex)
    return np.exp(np.minimum(w.real, OVERFLOW_LIMIT) + 1j * w.imag)


def sinhc_sqrt(z):
    """sinh(sqrt(z)) / sqrt(z), entire in z, saturating on overflow."""
    z_in = z
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    small = np.abs(z) < SERIES_RADIUS
    zs = z[small]
    acc = np.zeros_like(zs)
    for c in _SINHC_COEFFS[::-1]:
        acc = acc * zs + c
    out[small] = acc
    w = np.sqrt(z[~small])
    wc = np.minimum(w.real, OVERFLOW_LIMIT) + 1j * w.imag
    out[~small] = np.sinh(wc) / w
    return _restore(z_in, out.reshape(np.shape(z_in)) if np.ndim(z_in) else out)


def cosh_sqrt(z):
    """cosh(sqrt(z)), entire in z, saturating on overflow."""
    z_in = z
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty_like(z)
    small = np.abs(z) < SERIES_RADIUS
    zs = z[small]
    acc = np.zeros_like(zs)
    for c in _COSH_COEFFS[::-1]:
        acc = acc * zs + c
    out[small] = acc
    w = np.sqrt(z[~small])
    wc = np.minimum(w.real, OVERFLOW_LIMIT) + 1j * w.imag
    out[~small] = np.cosh(wc)
    return _restore(z_in, out.reshape(np.shape(z_in)) if np.ndim(z_in) else out)


def sqrt_overflow(z):
    """True where sinh/cosh of sqrt(z) saturates."""
    return np.abs(np.sqrt(np.asarray(z, dtype=complex)).real) > OVERFLOW_LIMIT


def exp_prop(t, a, p):
    """exp(t a p), the scalar semigroup factor, saturating on overflow."""
    out = _sat_exp(t * np.asarray(a, dtype=complex) * np.asarray(p, dtype=complex))
    return _restore(p, out)


def exp_overflow(t, a, p):
    """True where exp(t a p) saturates."""
    w = t * np.asarray(a, dtype=complex) * np.asarray(p, dtype=complex)
    return w.real > OVERFLOW_LIMIT


def apply_multiplier(u: Field, g, P, overflow=None):
    """Apply the Fourier multiplier g(p(k)) to a grid field.

    The caller is responsible for the field being band-resolved on its grid.
    With ``overflow`` (a predicate on the symbol array) given, also returns
    the list of flagged integer wavevectors.
    """
    pgrid = symbol_grid(P, u.shape, u.box)
    uhat = np.fft.fftn(u.data)
    out = Field(u.shape, u.box, np.fft.ifftn(g(pgrid) * uhat))
    if overflow is None:
        return out
    mask = np.asarray(overflow(pgrid), dtype=bool)
    kmesh = wavevectors(u.shape)
    idx = np.argwhere(mask)
    flagged = [tuple(int(kmesh[d][tuple(i)]) for d in range(u.dim)) for i in idx]
    return out, flagged
