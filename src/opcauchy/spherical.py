"""Spherical-mean realization of the sine-type propagator in three dimensions.

On a periodic grid the mean of u over the sphere of radius R centered at x
is a weighted sum of translates u(x + R s_i); translation of a band-limited
field is exact in spectral space.  This route never touches the scalar
sinh multiplier, so it cross-checks the spectral path independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multiplier import Field
from .symbol_poly import wavevectors

FULL_SOLID_ANGLE = 4.0 * np.pi


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Positive-weight nodes on the unit sphere; weights sum to 4 pi."""

    nodes: np.ndarray  # (M, 3) unit vectors
    weights: np.ndarray  # (M,)

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - FULL_SOLID_ANGLE) > 1e-10 * FULL_SOLID_ANGLE:
            raise ValueError("weights must sum to the full solid angle")

    @classmethod
    def gauss_product(cls, order):
        """Gauss-Legendre in cos(theta) times a uniform azimuthal rule.

        Exact for spherical harmonics up to the given degree.
        """
        order = int(order)
        n_theta = (order + 2) // 2
        n_phi = order + 1
        ct, wt = np.polynomial.legendre.leggauss(n_theta)
        st = np.sqrt(1.0 - ct * ct)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        nodes = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(ct, np.ones(n_phi)).ravel(),
            ],
            axis=1,
        )
        weights = np.outer(wt, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
        return cls(nodes, weights)


def sinhc_spherical(u: Field, a, t, q: SphereQuadrature) -> Field:
    """t times the spherical mean of u at radius a t, at every grid point.

    This is the three-dimensional integral realization of the sine-type
    propagator applied to u.
    """
    if u.dim != 3:
        raise ValueError("spherical means are implemented for 3-D fields only")
    if a <= 0:
        raise ValueError("propagation speed a must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    uhat = np.fft.fftn(u.data)
    # e^(i k . (a t s)) factorises per axis: one (M, n_d) table per axis
    shift = a * t * q.nodes
    tables = [
        np.exp(1j * (2 * np.pi * k.ravel() * (shift[:, d, None] / L)))
        for d, (k, L) in enumerate(zip(wavevectors(u.shape), u.box))
    ]
    mult = np.einsum("m,ma,mb,mc->abc", q.weights, *tables, optimize=True)
    mult *= t / FULL_SOLID_ANGLE
    return Field(u.shape, u.box, np.fft.ifftn(uhat * mult))
