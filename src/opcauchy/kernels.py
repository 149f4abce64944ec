"""Closed-form solution assembly on the Fourier modes of a periodic grid.

Every operator here is a function of the spatial operator alone, so on a
periodic grid the whole construction reduces to scalar calculus in the
symbol p.  Modes with equal p share every kernel value, so the kernels are
evaluated once per distinct symbol value and gathered to the modes.  The
impulse response G of each kind is a short sum of
exponential-integrator kernels

    T_k(t; mu) = t^(k+s-1) f_k(mu t^s),   f_k(z) = sum_i z^i / (s i + k + s - 1)!,

with s = 1 for the first-order product (f_k = phi_k, f_0 = exp) and s = 2
for the even-order product and the repeated root (f_k = sigma_k,
sigma_-1(z) = cosh sqrt(z), sigma_0(z) = sinh sqrt(z) / sqrt(z)); terms with
a negative factorial argument are dropped, so T_k = mu T_{k+s} below those
closed forms.  Since
T_k' = T_{k-1}, every time derivative of G is an index shift and the
homogeneous part is exact; the forced part is one Gauss-Legendre sum over
the Duhamel convolution (Hochbruck & Ostermann, Acta Numerica 19, 2010).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

import numpy as np

from .errors import NonFiniteForcing, UnresolvedKernel
from .multiplier import Field, SpectralField, from_spectral, mesh, to_spectral
from .quadrature import gauss_rule
from .symbol_poly import CharacteristicSpec, Kind, SymbolPolynomial, symbol_grid, wavevectors

PLAIN_MEASURE = "plain"
TAU_PRIME_MEASURE = "tau_prime"

#: Real part of the exponent beyond which results saturate and are flagged.
OVERFLOW_LIMIT = 700.0

#: (node, mode) values per temporary of the Duhamel sum.  Nodes are batched
#: up to this budget, so a grid this large is summed one node at a time.
_DUHAMEL_BATCH = 1 << 12


# ---------------------------------------------------------------------------
# Exponential-integrator kernels


def _sat_exp(w):
    """exp(w) with the real part clipped at the overflow limit."""
    w = np.asarray(w, dtype=complex)
    return np.exp(np.minimum(w.real, OVERFLOW_LIMIT) + 1j * w.imag)


@lru_cache(maxsize=None)
def _series_coeffs(step, k):
    """Taylor coefficients 1/(s i + k + s - 1)! of f_k, i < 64."""
    return [1 / factorial(step * i + k + step - 1) for i in range(64)]


def _series(z, step, k, reach):
    """f_k(z) by Horner's rule, with the terms |z| <= reach needs for roundoff."""
    coeffs = _series_coeffs(step, k)
    n = 1
    while n < len(coeffs) and reach**n * coeffs[n] > 1e-18 * coeffs[0]:
        n += 1
    acc = np.full_like(z, coeffs[n - 1])
    for c in coeffs[n - 2 :: -1]:
        acc *= z
        acc += c
    return acc


def _time_kernels(step, mu, t, lo, hi):
    """{k: T_k(t; mu)} for every k in [lo, hi], over broadcast arrays mu and t.

    Outside the disc |z| < r = max(1, hi/2)^s, f_0 = exp (s = 1) or
    sigma_-1 = cosh(w), sigma_0 = sinh(w)/w from one saturating exp(w),
    w = sqrt(z) (s = 2), and the upward recurrence
    f_k = (f_{k-s} - 1/(k-1)!) / z.  Inside it, the Taylor series of the top
    s levels and the downward recurrence f_k = z f_{k+s} + 1/(k+s-1)!, for
    the levels asked for only.  For hi <= 8 the error stays below 2e-14 of
    f_k(|z|), the size of the series terms.
    """
    z = np.asarray(mu * t**step, dtype=complex)
    radius = max(1.0, hi / 2) ** step
    near = np.abs(z) < radius
    outside = np.where(near, radius, z)  # the series replaces these values
    if step == 1:
        f = {0: _sat_exp(outside)}
    else:
        w = np.sqrt(outside)
        e = _sat_exp(w)
        inverse_e = 1 / e
        f = {-1: e + inverse_e, 0: e - inverse_e}
        f[-1] *= 0.5
        f[0] /= 2 * w
    inverse = 1 / outside
    for k in range(1, hi + 1):
        f[k] = f[k - step] - 1 / factorial(k - 1)
        f[k] *= inverse
    zs = z[near]
    if zs.size:
        reach = np.abs(zs).max()
        inside = {}
        for k in range(hi, max(lo, 1 - step) - 1, -1):
            if k + step > hi:
                inside[k] = _series(zs, step, k, reach)
            else:
                inside[k] = zs * inside[k + step] + 1 / factorial(k + step - 1)
            f[k][near] = inside[k]
    for k in range(max(lo, 2 - step), hi + 1):
        f[k] *= t ** (k + step - 1)
    for k in range(-step, lo - 1, -1):
        f[k] = mu * f[k + step]
    return {k: f[k] for k in range(lo, hi + 1)}


def _solve_exact(rows):
    """Gauss-Jordan elimination of an augmented matrix of Fractions."""
    n = len(rows)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


@lru_cache(maxsize=None)
def _repeated_root_weights(m, measure):
    """Exact (e, gamma) with G(t) = t^e sum_j gamma_j sigma_{e-1-j}(p t^2).

    The measure's kernel is the nested integral
    int_0^t (t^2 - tau^2)^(m-2) tau^beta K(tau) dtau / ((2m-2)!! (2m-4)!!)
    with K(tau) = sinh(tau sqrt p)/sqrt p, beta = 1 for the tau' measure and
    0 for the plain one.  Integrated term by term it is sum_i g_i p^i
    t^(e+2i) with e = 2m-2+beta, and (e+2i)! g_i is a polynomial in i of
    degree J-1, J = m-1+beta.  The J weights matched on i < J therefore
    reproduce every coefficient.
    """
    beta = 1 if measure == TAU_PRIME_MEASURE else 0
    e, count = 2 * m - 2 + beta, m - 1 + beta
    denom = 2 ** (2 * m - 3) * factorial(m - 1) * factorial(m - 2)

    def coeff(i):
        moment = sum(
            Fraction(comb(m - 2, l) * (-1) ** l, 2 * l + 2 * i + 2 + beta) for l in range(m - 1)
        )
        return moment / (factorial(2 * i + 1) * denom)

    rows = [
        [Fraction(1, factorial(e + 2 * i - j)) for j in range(count)] + [coeff(i)]
        for i in range(count)
    ]
    return e, tuple(_solve_exact(rows))


def _kernel_terms(spec, measure):
    """G as groups (scale, terms) and their terms (w, a, k): the sum of
    w t^a T_k(t; scale * p) with s = ``spec.step``."""
    m = spec.m
    if spec.kind is Kind.FIRST_ORDER_PRODUCT:
        # sum_j c_j t^(m-1) phi_{m-1}(a_j p t)
        return [(a, [(c, 0, m - 1)]) for c, a in zip(spec.pf, spec.roots)]
    if spec.kind is Kind.EVEN_ORDER_PRODUCT:
        # sum_j d_j t^(2m-1) sigma_{2m-2}(a_j^2 p t^2)
        return [(a * a, [(d, 0, 2 * m - 2)]) for d, a in zip(spec.pf, spec.roots)]
    e, gammas = _repeated_root_weights(m, measure)
    return [(1.0, [(float(g), j, e - 1 - j) for j, g in enumerate(gammas)])]


def _kernel(spec, p, t, orders, measure=TAU_PRIME_MEASURE):
    """[G^(d)(t) for d in orders] on the mode array p at broadcastable t."""
    out = [0.0] * len(orders)
    for scale, terms in _kernel_terms(spec, measure):
        ks = [k for _, _, k in terms]
        table = _time_kernels(spec.step, scale * p, t, min(ks) - max(orders), max(ks))
        for n, d in enumerate(orders):
            for w, a, k in terms:
                # Leibniz: (t^a T_k)^(d) = sum_r C(d,r) a!/(a-r)! t^(a-r) T_{k-d+r}
                for r in range(min(d, a) + 1):
                    out[n] = out[n] + w * comb(d, r) * perm(a, r) * t ** (a - r) * table[k - d + r]
    return out


def _modes(p):
    return np.atleast_1d(np.asarray(p, dtype=complex))


def _distinct(modes):
    """(values, gather): the distinct symbol values of ``modes``, and the map
    that takes an array over those values (last axis) to one over the modes
    (trailing axes ``modes.shape``).

    The kernels depend on a mode through p alone and elementwise, so they are
    evaluated on ``values`` only.  The series term count follows the largest
    |z| of a call, which the distinct values share with the modes, so every
    gathered value is bitwise the one the full grid would give.
    """
    values, index = np.unique(modes.ravel(), return_inverse=True)
    index = index.reshape(modes.shape)
    return values, lambda table: table[..., index]


def _like(p, out):
    """``out`` as a Python complex when the symbol ``p`` was a scalar."""
    return complex(out[0]) if np.ndim(p) == 0 else out


def sinhc_sqrt(z):
    """sinh(sqrt(z)) / sqrt(z) = sigma_0(z), entire in z, saturating on overflow."""
    return _like(z, _time_kernels(2, _modes(z), 1.0, 0, 0)[0])


# ---------------------------------------------------------------------------
# Kernel operators


def inhomogeneous_mode(spec, p, fhat, t, nodes=64, measure=None):
    """Forced part of the mode solution, the Duhamel convolution
    int_0^t G(t - tau) fhat(tau) dtau / b_m as one ``nodes``-point
    Gauss-Legendre sum.

    ``fhat`` is a callable tau -> forcing coefficient (scalar or an array of
    p's shape).  For the repeated-root kind G is the kernel of ``measure``,
    which the discrepancy probe decides.
    """
    modes = _modes(p)
    total = np.zeros(modes.shape, dtype=complex)
    if t != 0:
        if spec.kind is Kind.REPEATED_ROOT and measure is None:
            raise UnresolvedKernel(
                "repeated-root forcing measure unresolved: run the kernel discrepancy "
                "probe (CLI mode 'probe') or set it explicitly"
            )
        tau, w = gauss_rule(nodes, t)
        values, gather = _distinct(modes)
        batch = max(1, _DUHAMEL_BATCH // modes.size)
        for lo in range(0, nodes, batch):
            taus, ws = tau[lo : lo + batch], w[lo : lo + batch]
            forcing = np.stack(
                [wi * np.broadcast_to(fhat(x), modes.shape) for x, wi in zip(taus, ws)]
            )
            lag = (t - taus)[:, None]
            kernel = gather(_kernel(spec, values, lag, (0,), measure)[0])
            total += np.sum(kernel * forcing, axis=0)
    return _like(p, total / spec.lead)


def _homogeneous_pairs(spec):
    """(coefficient index k, data index r, derivative order) triples."""
    s = spec.step
    return [(k, r, s * k - 1 - r) for k in range(1, spec.m + 1) for r in range(s * k)]


def homogeneous_mode(spec, p, phihat, t):
    """Initial-data part of the mode solution.

    Assembles sum_k b_k p^{m-k} sum_r d^{q}/dt^{q} [G](t) phihat_r / b_m
    with every derivative an exact index shift of G's kernels.
    """
    if len(phihat) != spec.data_count:
        raise ValueError(f"expected {spec.data_count} initial coefficients")
    modes = _modes(p)
    pairs = _homogeneous_pairs(spec)
    values, gather = _distinct(modes)
    orders = range(max(q for _, _, q in pairs) + 1)
    derivs = [gather(d) for d in _kernel(spec, values, t, orders)]
    acc = np.zeros(modes.shape, dtype=complex)
    for k, r, order in pairs:
        phi = phihat[r]
        if np.isscalar(phi) and phi == 0:
            continue
        acc = acc + spec.b[k] * modes ** (spec.m - k) * derivs[order] * phi
    return _like(p, acc / spec.lead)


# ---------------------------------------------------------------------------
# Full-grid problems


@dataclass(frozen=True, eq=False)
class CauchyProblem:
    """A periodic-grid Cauchy problem for one of the three operator kinds.

    ``forcing`` is a callable (mesh arrays..., t) -> samples, or None.
    ``measure`` selects the repeated-root forcing kernel ('plain' or
    'tau_prime', as the discrepancy probe decides); it is needed only when a
    repeated-root problem is forced.
    """

    spec: CharacteristicSpec
    P: SymbolPolynomial
    shape: tuple
    box: tuple
    phi: tuple
    forcing: object = None
    t_points: tuple = ()
    measure: str = None

    def __post_init__(self):
        if len(self.phi) != self.spec.data_count:
            raise ValueError(
                f"kind {self.spec.kind.value} with m={self.spec.m} needs "
                f"{self.spec.data_count} initial fields, got {len(self.phi)}"
            )
        for f in self.phi:
            if f.shape != tuple(self.shape) or f.box != tuple(self.box):
                raise ValueError("all initial fields must share the problem grid")
        times = list(self.t_points)
        if not all(0 <= t < np.inf for t in times) or times != sorted(times):
            raise ValueError("t_points must be finite, nonnegative and increasing")
        if self.measure not in (None, PLAIN_MEASURE, TAU_PRIME_MEASURE):
            raise ValueError(f"unknown measure {self.measure!r}")


@dataclass(frozen=True)
class StabilityReport:
    """Growth diagnostics of a solve: nothing here aborts a run."""

    max_growth: tuple  # per root, max over the grid of Re(a_j p(k))
    overflowed: tuple  # integer wavevectors whose modes saturated
    condition: float  # max |partial-fraction weight|
    nonfinite: int  # NaN or infinite output coefficients, summed over the times


def _growth_rates(spec, pgrid):
    """Re(lambda) of the fastest-growing mode eigenvalue, per root."""
    if spec.kind is Kind.FIRST_ORDER_PRODUCT:
        return [np.real(a * pgrid) for a in spec.roots]
    if spec.kind is Kind.EVEN_ORDER_PRODUCT:
        return [np.abs(np.real(a * np.sqrt(pgrid.astype(complex)))) for a in spec.roots]
    return [np.abs(np.real(np.sqrt(pgrid.astype(complex))))]


def stability_report(spec, pgrid, shape, t_max, nonfinite):
    rates = _growth_rates(spec, pgrid)
    kmesh = wavevectors(shape)
    over = np.zeros(pgrid.shape, dtype=bool)
    for rate in rates:
        over |= rate * t_max > OVERFLOW_LIMIT
    flagged = tuple(
        tuple(int(kmesh[d][tuple(i)]) for d in range(len(shape)))
        for i in np.argwhere(over)
    )
    cond = max((abs(c) for c in spec.pf), default=1.0)
    return StabilityReport(
        max_growth=tuple(float(np.max(r)) for r in rates),
        overflowed=flagged,
        condition=float(cond),
        nonfinite=nonfinite,
    )



def solve(problem: CauchyProblem, nodes=64):
    """Evaluate the closed-form solution at every requested time.

    ``nodes`` is the Gauss-Legendre node count of the Duhamel sum.  Returns
    ([(t, Field), ...], StabilityReport).  Growing modes are computed and
    flagged, never suppressed; non-finite output coefficients are counted.
    """
    spec = problem.spec
    pgrid = symbol_grid(problem.P, problem.shape, problem.box)
    phihat = [to_spectral(f).data for f in problem.phi]
    grid_mesh = mesh(problem.shape, problem.box)
    size = int(np.prod(problem.shape))

    fhat_at = None
    if problem.forcing is not None:
        def fhat_at(tau):
            samples = np.asarray(problem.forcing(*grid_mesh, tau), dtype=complex)
            if not np.isfinite(samples).all():
                raise NonFiniteForcing(f"forcing is not finite at t = {float(tau):.17g}")
            return np.fft.fftn(samples) / size

    snapshots = []
    nonfinite = 0
    for t in problem.t_points:
        # saturated modes may hit inf/nan; they are reported, not suppressed
        with np.errstate(over="ignore", invalid="ignore"):
            uhat = homogeneous_mode(spec, pgrid, phihat, t)
            if fhat_at is not None:
                uhat = uhat + inhomogeneous_mode(
                    spec, pgrid, fhat_at, t, nodes=nodes, measure=problem.measure
                )
        nonfinite += int(np.count_nonzero(~np.isfinite(uhat)))
        u = from_spectral(SpectralField(problem.shape, problem.box, uhat))
        snapshots.append((t, u))

    t_max = max(problem.t_points) if problem.t_points else 0.0
    report = stability_report(spec, pgrid, problem.shape, t_max, nonfinite)
    return snapshots, report
