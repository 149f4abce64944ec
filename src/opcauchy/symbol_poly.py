"""Characteristic polynomials, roots, partial fractions, and spatial symbols.

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
#: partial-fraction weights blow up like 1/gap, so tighter gaps are rejected.
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


def poly_from_roots(roots, lead=1.0):
    """Ascending coefficients b_0..b_m of lead * prod_j (x - a_j)."""
    return lead * np.polynomial.polynomial.polyfromroots(np.asarray(roots, complex))


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


def _first_order_weights(roots, label):
    """c_j = a_j^{m-1} / prod_{i != j} (a_j - a_i) of distinct ``roots``."""
    _check_distinct(roots, label)
    m = len(roots)
    out = []
    for j, aj in enumerate(roots):
        denom = np.prod([aj - ai for i, ai in enumerate(roots) if i != j])
        out.append(aj ** (m - 1) / denom)
    return tuple(out)


def partial_fraction_first(roots):
    """Weights c_j = a_j^{m-1} / prod_{i != j} (a_j - a_i)."""
    return _first_order_weights([complex(r) for r in roots], "roots")


def partial_fraction_even(roots):
    """Weights d_j = a_j^{2m-2} / prod_{i != j} (a_j^2 - a_i^2): the
    first-order weights of the squared roots (CPython raises a complex to an
    integer power by squaring, so (a_j^2)^{m-1} is bitwise a_j^{2m-2})."""
    roots = [complex(r) for r in roots]
    if any(r == 0 for r in roots):
        raise ZeroRoot("zero root: the sinh kernel divides by a_j")
    return _first_order_weights([r * r for r in roots], "squared roots")


@dataclass(frozen=True)
class CharacteristicSpec:
    """Characteristic data of the time operator.

    ``b`` holds ascending coefficients: b_0..b_m for the first-order product,
    the b_{2k} list for the even-order product (index k is the coefficient of
    d^{2k}/dt^{2k} times P^{m-k}), and the expanded (x^2 - 1)^m coefficients
    for the repeated-root kind.  ``pf`` holds the partial-fraction weights of
    the product kinds.
    """

    kind: Kind
    m: int
    b: tuple
    roots: tuple
    pf: tuple

    @classmethod
    def first_order_product(cls, roots=None, coeffs=None):
        if roots is None:
            if coeffs is None:
                raise ValueError("need roots or coeffs")
            b = _finite(coeffs, "coeffs")
            roots = roots_from_coeffs(b)
        else:
            roots = _finite(roots, "roots")
            b = tuple(complex(c) for c in poly_from_roots(roots))
        m = len(roots)
        if m < 1:
            raise ValueError("need at least one root")
        return cls(Kind.FIRST_ORDER_PRODUCT, m, b, roots, partial_fraction_first(roots))

    @classmethod
    def even_order_product(cls, roots):
        roots = _finite(roots, "roots")
        m = len(roots)
        if m < 2:
            raise ValueError("even-order product needs m >= 2")
        pf = partial_fraction_even(roots)
        # b_{2k} from prod (x^2 - a_j^2), a polynomial in x^2.
        b = tuple(complex(c) for c in poly_from_roots([r * r for r in roots]))
        return cls(Kind.EVEN_ORDER_PRODUCT, m, b, roots, pf)

    @classmethod
    def repeated_root(cls, m):
        m = int(m)
        if m < 2:
            raise ValueError("repeated-root kind needs m >= 2")
        # (y - 1)^m in y = x^2; coefficient of d^{2k}/dt^{2k} P^{m-k} is
        # (-1)^{m-k} C(m, k).
        b = tuple(complex((-1) ** (m - k) * comb(m, k)) for k in range(m + 1))
        return cls(Kind.REPEATED_ROOT, m, b, (), ())

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

    @classmethod
    def laplacian(cls, dim):
        terms = []
        for d in range(dim):
            alpha = tuple(2 if i == d else 0 for i in range(dim))
            terms.append((alpha, 1.0 + 0j))
        return cls(dim, tuple(terms))

    @classmethod
    def derivative(cls, dim, axis, order):
        alpha = tuple(order if i == axis else 0 for i in range(dim))
        return cls(dim, ((alpha, 1.0 + 0j),))


def wavevectors(shape):
    """Integer wavevector meshes in FFT ordering, one array per axis."""
    axes = [np.fft.fftfreq(n, d=1.0 / n) for n in shape]
    return np.meshgrid(*axes, indexing="ij")


def symbol_grid(P, shape, box):
    """Symbol values over the full FFT wavevector grid."""
    kmesh = wavevectors(shape)
    p = np.zeros(shape, dtype=complex)
    for alpha, c in P.terms:
        term = np.full(shape, complex(c))
        for d, a in enumerate(alpha):
            if a:
                term = term * (1j * 2 * np.pi * kmesh[d] / box[d]) ** a
        p += term
    return p
