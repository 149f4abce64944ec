"""Periodic grid fields, their FFT transforms, and Fourier multipliers.

The operator functions themselves (``sinhc_sqrt`` and the divided-difference
kernels) live in ``kernels``; ``apply_multiplier`` applies any function of
the symbol to a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbol_poly import symbol_grid


@dataclass(frozen=True, eq=False)
class Field:
    """Real or complex samples on a periodic grid (row-major, physical space)."""

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


def mesh(shape, box):
    """The grid's coordinates, endpoint excluded, as broadcast axes: (n,1,1), (1,n,1), (1,1,n)."""
    return np.ix_(*[box[d] * np.arange(shape[d]) / shape[d] for d in range(len(shape))])


def to_spectral(samples):
    """The Fourier coefficients c_k of grid samples of
    u(x) = sum_k c_k exp(i 2 pi k.x / L), in FFT order."""
    return np.fft.fftn(samples) / samples.size


def from_spectral(coeffs):
    """The grid samples of the Fourier coefficients ``coeffs``."""
    return np.fft.ifftn(coeffs * coeffs.size)


def apply_multiplier(u: Field, g, P):
    """Apply the Fourier multiplier g(p(k)) to a grid field.

    The caller is responsible for the field being band-resolved on its grid.
    """
    pgrid = symbol_grid(P, u.shape, u.box)
    uhat = np.fft.fftn(u.data)
    return Field(u.shape, u.box, np.fft.ifftn(g(pgrid) * uhat))
