"""Characteristic polynomials, roots, and spatial symbols.

The characteristic data describes which product operator acts in time:

* ``FIRST_ORDER_PRODUCT``  -- prod_j (d/dt - a_j P)
* ``EVEN_ORDER_PRODUCT``   -- prod_j (d^2/dt^2 - a_j^2 P)
* ``REPEATED_ROOT``        -- (d^2/dt^2 - P)^m

The spatial operator is a constant-coefficient polynomial in partial
derivatives; on a periodic box it diagonalizes, and ``symbol_grid`` returns
its eigenvalues p(k) over the FFT wavevector grid.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DegenerateRoots, NonmonicZero, ZeroRoot

#: Relative gap below which two roots are treated as coincident.  The
#: kernels' residue weights blow up like 1/gap, so tighter gaps are rejected.
DISTINCT_ROOT_RTOL = 1e-8


class Kind(enum.Enum):
    FIRST_ORDER_PRODUCT = "first_order_product"
    EVEN_ORDER_PRODUCT = "even_order_product"
    REPEATED_ROOT = "repeated_root"


def _min_gap(values):
    values = np.asarray(values)
    n = len(values)
    if n < 2:
        return np.inf
    gaps = [abs(values[i] - values[j]) for i in range(n) for j in range(i + 1, n)]
    return min(gaps)


def _finite(values, label):
    """``values`` as complex numbers; a NaN or infinite entry is a ValueError."""
    values = tuple(complex(v) for v in values)
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"{label} must be finite")
    return values


def _check_distinct(values, label="roots"):
    scale = 1.0 + max(abs(v) for v in values)
    if _min_gap(values) < DISTINCT_ROOT_RTOL * scale:
        raise DegenerateRoots(f"{label} are not pairwise distinct to working precision")


def poly_from_roots(roots):
    """Ascending coefficients b_0..b_m of prod_j (x - a_j)."""
    return np.polynomial.polynomial.polyfromroots(np.asarray(roots, complex))


def roots_from_coeffs(b):
    """Roots of b_0 + b_1 x + ... + b_m x^m, polished and checked distinct.

    Companion-matrix eigenvalues plus one Newton step; the reconstruction
    b_m * prod (x - a_j) is verified against b at Chebyshev sample points on
    a circle of the root-bound radius.
    """
    b = np.asarray(b, dtype=complex)
    m = len(b) - 1
    if b[m] == 0:
        raise NonmonicZero("leading coefficient b_m is zero")
    if m < 2:
        raise ValueError("degree must be at least 2")
    roots = np.roots(b[::-1])
    deriv = np.polynomial.polynomial.polyder(b)
    pv = np.polynomial.polynomial.polyval(roots, b)
    dv = np.polynomial.polynomial.polyval(roots, deriv)
    safe = np.abs(dv) > 1e-30
    roots[safe] = roots[safe] - pv[safe] / dv[safe]

    _check_distinct(roots)

    bound = 1.0 + np.max(np.abs(b[:m] / b[m]))
    angles = np.pi * (2 * np.arange(m + 1) + 1) / (2 * (m + 1))
    pts = bound * np.exp(1j * angles)
    rebuilt = b[m] * np.prod(pts[:, None] - roots[None, :], axis=1)
    direct = np.polynomial.polynomial.polyval(pts, b)
    resid = np.max(np.abs(rebuilt - direct)) / np.max(np.abs(direct))
    if resid > max(DISTINCT_ROOT_RTOL, 1e-7):
        raise DegenerateRoots(f"root reconstruction residual {resid:.2e} exceeds tolerance")

    order = np.lexsort((roots.imag, roots.real))
    return tuple(complex(r) for r in roots[order])


@dataclass(frozen=True)
class CharacteristicSpec:
    """Characteristic data of the time operator.

    ``b`` holds ascending coefficients: b_0..b_m for the first-order product,
    the b_{2k} list for the even-order product (index k is the coefficient of
    d^{2k}/dt^{2k} times P^{m-k}), and the expanded (x^2 - 1)^m coefficients
    for the repeated-root kind.
    """

    kind: Kind
    m: int
    b: tuple
    roots: tuple

    @classmethod
    def first_order_product(cls, roots=None, coeffs=None):
        if roots is None:
            if coeffs is None:
                raise ValueError("need roots or coeffs")
            b = _finite(coeffs, "coeffs")
            roots = roots_from_coeffs(b)
        else:
            roots = _finite(roots, "roots")
            if not roots:
                raise ValueError("need at least one root")
            _check_distinct(roots)
            b = tuple(complex(c) for c in poly_from_roots(roots))
        return cls(Kind.FIRST_ORDER_PRODUCT, len(roots), b, roots)

    @classmethod
    def even_order_product(cls, roots):
        roots = _finite(roots, "roots")
        m = len(roots)
        if m < 2:
            raise ValueError("even-order product needs m >= 2")
        if any(r == 0 for r in roots):
            raise ZeroRoot("zero root: the even-order kernel's nodes +-a_j coincide")
        squares = [r * r for r in roots]
        _check_distinct(squares, "squared roots")
        # b_{2k} from prod (x^2 - a_j^2), a polynomial in x^2.
        b = tuple(complex(c) for c in poly_from_roots(squares))
        return cls(Kind.EVEN_ORDER_PRODUCT, m, b, roots)

    @classmethod
    def repeated_root(cls, m):
        m = int(m)
        if m < 2:
            raise ValueError("repeated-root kind needs m >= 2")
        # (y - 1)^m in y = x^2; coefficient of d^{2k}/dt^{2k} P^{m-k} is
        # (-1)^{m-k} C(m, k).
        b = tuple(complex((-1) ** (m - k) * comb(m, k)) for k in range(m + 1))
        return cls(Kind.REPEATED_ROOT, m, b, ())

    @property
    def step(self):
        """Order in d/dt of each factor: 1 for the first-order product, else 2."""
        return 1 if self.kind is Kind.FIRST_ORDER_PRODUCT else 2

    @property
    def data_count(self):
        """Number of prescribed initial time-derivatives."""
        return self.step * self.m

    @property
    def lead(self):
        return self.b[self.m]


@dataclass(frozen=True)
class SymbolPolynomial:
    """P(d/dx) = sum_alpha c_alpha d^alpha as (multi-index, coefficient) terms."""

    dim: int
    terms: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        seen = set()
        for alpha, c in self.terms:
            if len(alpha) != self.dim:
                raise ValueError("multi-index length must equal dim")
            if min(alpha) < 0:
                raise ValueError(f"multi-index {alpha} has a negative entry")
            _finite([c], f"coefficient of multi-index {alpha}")
            if alpha in seen:
                raise ValueError(f"duplicate multi-index {alpha}")
            seen.add(alpha)


def wavevectors(shape):
    """Integer wavevectors in FFT ordering, as broadcast axes like ``multiplier.mesh``'s."""
    return np.ix_(*[np.fft.fftfreq(n, d=1.0 / n) for n in shape])


def symbol_grid(P, shape, box):
    """Symbol values over the full FFT wavevector grid."""
    kmesh = wavevectors(shape)
    p = np.zeros(shape, dtype=complex)
    for alpha, c in P.terms:
        term = complex(c)
        for d, a in enumerate(alpha):
            if a:
                term = term * (1j * 2 * np.pi * kmesh[d] / box[d]) ** a
        p += term
    return p
