"""Closed-form solution assembly on the Fourier modes of a periodic grid.

Every operator here is a function of the spatial operator alone, so on a
periodic grid the whole construction reduces to scalar calculus in the
symbol p.  Modes with equal p share every kernel value, so the kernels are
evaluated once per distinct symbol value and gathered to the modes.  The
impulse response G of a mode, the inverse Laplace transform of 1/Q(s), is
the divided difference of e^(tz) over the mode's eigenvalues: a node shape
sigma scaled by w = p^(1/s) (``_Shape``).  One evaluator serves every kind
(McCurdy, Ng & Parlett, Math. Comp. 43, 1984): a Taylor series inside the
series radius, the residue sum of the nodes beyond it.  Neither cancels
large polynomial parts, so every time derivative of G, and with it the
homogeneous part, is exact to roundoff on every mode; the forced part is
one Gauss-Legendre sum over the Duhamel convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial, prod

import numpy as np

from .errors import NonFiniteForcing, UnresolvedKernel
from .multiplier import Field, from_spectral, to_spectral
from .quadrature import gauss_rule
from .symbol_poly import CharacteristicSpec, Kind, SymbolPolynomial, symbol_grid, wavevectors

PLAIN_MEASURE = "plain"
TAU_PRIME_MEASURE = "tau_prime"

#: Real part of the exponent beyond which results saturate and are flagged.
OVERFLOW_LIMIT = 700.0

#: |tau| max|sigma| up to which a kernel is summed as its Taylor series;
#: (q-1)/2 for a shape of q > 7 nodes, where the residue sum would lose
#: e^r (q-1)!/r^(q-1) of its size to cancellation at the radius r.
SERIES_RADIUS = 3.0

#: (node, distinct symbol value) entries per kernel table of the Duhamel sum.
_DUHAMEL_BATCH = 1 << 12


# ---------------------------------------------------------------------------
# Divided-difference kernels


def _sat_exp(w):
    """exp(w) with the real part clipped at the overflow limit."""
    w = np.asarray(w, dtype=complex)
    return np.exp(np.minimum(w.real, OVERFLOW_LIMIT) + 1j * w.imag)


@dataclass(frozen=True)
class _Shape:
    """G^(d)(t) = w^(d + deg N - q + 1) (N(x) x^d e^(tau x))[nodes], w =
    p^(1/step), tau = t w: the divided difference over the (sigma,
    multiplicity) ``nodes``, q in all, with N's ascending ``numerator``.
    For step 2 each nonzero sigma stands for the pair +-sigma."""

    step: int
    nodes: tuple
    numerator: tuple = (1.0,)

    @property
    def all_nodes(self):
        signs = (1,) if self.step == 1 else (1, -1)
        return tuple((s * x, k) for x, k in self.nodes for s in signs[: 1 + (x != 0)])


def _plain_numerator(m):
    """N of the plain measure on the nodes 0 (2m-3 times), +-1 (m-1 times):
    sum_l r_l x^(2m-4-2l), r_l the x^l coefficient of (1-x)^(m-1) sum_i A_i
    x^i, where A_i = (2m-2+2i)! g_i = prod_{k=1}^{m-2} (2i+2k+1) / (2^(m-1)
    (m-1)!) for the coefficients g_i of its series sum_i g_i p^i t^(2m-2+2i)."""
    A = [prod(2 * i + 2 * k + 1 for k in range(1, m - 1)) for i in range(m - 1)]
    r = np.convolve(A, [(-1) ** k * comb(m - 1, k) for k in range(m)])[: m - 1]
    out = np.zeros(2 * m - 3)
    out[::-2] = r / (2 ** (m - 1) * factorial(m - 1))
    return tuple(out)


def _shape(spec, measure=TAU_PRIME_MEASURE):
    """The node shape of ``spec``'s kernel; for the repeated root, that of ``measure``."""
    if spec.kind is not Kind.REPEATED_ROOT:
        return _Shape(spec.step, tuple((a, 1) for a in spec.roots))
    if measure == PLAIN_MEASURE:
        m = spec.m
        return _Shape(2, ((0j, 2 * m - 3), (1 + 0j, m - 1)), _plain_numerator(m))
    return _Shape(2, ((1 + 0j, spec.m),))


def _residue(nodes, numerator, d, x0, mu):
    """Ascending coefficients of P, e^(tau x0) P(tau) the term of the node x0
    of multiplicity mu in (N(x) x^d e^(tau x))[nodes]: P = sum_r tau^r/r!
    F_(mu-1-r), F_n the Taylor coefficients at x0 of N(x) x^d / prod_(other
    nodes) (x - sigma)^k."""
    poly = [0] * d + list(numerator)
    F = [sum(c * comb(k, n) * x0 ** (k - n) for k, c in enumerate(poly) if k >= n)
         for n in range(mu)]
    for sigma, k in nodes:
        if sigma != x0:
            g = [(-1) ** n * comb(k + n - 1, n) / (x0 - sigma) ** (k + n) for n in range(mu)]
            F = [sum(F[i] * g[n - i] for i in range(n + 1)) for n in range(mu)]
    return tuple(F[mu - 1 - r] / factorial(r) for r in range(mu))


@lru_cache(maxsize=64)
def _complete(shape, length):
    """(h, bound): the complete homogeneous polynomials h_n of
    ``shape.all_nodes`` and those of their moduli, n < ``length``.  The
    recurrence runs forward, so a longer table has the same leading entries."""
    h, bound = [1.0] + [0.0] * (length - 1), [1.0] + [0.0] * (length - 1)
    for sigma, k in shape.all_nodes:
        for _ in range(k):
            for n in range(1, length):
                h[n] += sigma * h[n - 1]
                bound[n] += abs(sigma) * bound[n - 1]
    return tuple(h), tuple(bound)


@lru_cache(maxsize=1024)
def _constants(shape, d):
    """(limit, (j0, e, series), (power, residues)) of G^(d) on ``shape``.

    Where |w| t <= limit, the series radius over max|sigma|, G^(d) = p^(j0/s)
    t^(j0+e) sum_i series_i (p t^s)^i: e = q-1-deg N-d, series_i = H_j/(j+e)!
    for j = j0+s i >= -e of the shape's parity, H_j = sum_k N_k h_(j+k-deg N)
    with the complete homogeneous polynomials h_n of the nodes, up to 1e-17
    of the sum of the terms' bounds.  Beyond, G^(d) = w^power sum_i
    e^(tau sigma_i) P_i(tau), the P_i of ``shape.all_nodes`` in ``residues``.
    """
    nodes, numerator, s = shape.all_nodes, shape.numerator, shape.step
    q, D = sum(k for _, k in nodes), len(numerator) - 1
    e = q - 1 - D - d
    j0 = -(-max(0, -e) // s) * s
    # an order reads at most 128 + j0 entries: one table serves every j0 < 16
    h, bound = _complete(shape, 144 + j0 // 16 * 16)
    radius = max(SERIES_RADIUS, (q - 1) / 2)
    reach = max(abs(x) for x, _ in nodes)
    series, total = [], 0.0
    for j in range(j0, 128 + j0, s):
        H = sum(c * h[j + k - D] for k, c in enumerate(numerator) if j + k >= D)
        term = sum(abs(c) * bound[j + k - D] for k, c in enumerate(numerator) if j + k >= D)
        term *= (radius / reach) ** j / factorial(j + e)
        if term < 1e-17 * total:
            break
        total += term
        series.append(H / factorial(j + e))
    residues = sum((_residue(nodes, numerator, d, x, k) for x, k in nodes), ())
    return radius / reach, (j0, e, tuple(series)), (d + D - q + 1, residues)


def _series_sum(shape, constants, p, t):
    """The rows G^(d)(t) of ``constants``' orders from the series."""
    s = shape.step
    width = max(len(series) for _, (_, _, series), _ in constants)
    series = np.array([c + (0.0,) * (width - len(c)) for _, (_, _, c), _ in constants])
    acc = np.polynomial.polynomial.polyval(p * t**s, series.T)
    prefactors = [p ** (j0 // s) * t ** (j0 + e) for _, (j0, e, _), _ in constants]
    return acc * np.array(np.broadcast_arrays(*prefactors))


def _residue_sum(shape, constants, w, t):
    """The rows G^(d)(t) of ``constants``' orders from the residue sum.  The
    pair +-sigma of a positive sigma shares one exponential: Re(tau sigma)
    >= 0, so e^(-tau sigma) = 1/e^(tau sigma) does not overflow."""
    tau = w * t
    terms = []  # e^(tau sigma) tau^r for each of ``shape.all_nodes`` and r < multiplicity
    for x, k in shape.nodes:
        exps = [_sat_exp(tau * x)]
        if shape.step == 2 and x != 0:
            exps.append(1 / exps[0] if x.imag == 0 < x.real else _sat_exp(-tau * x))
        for term in exps:
            terms.append(term)
            for _ in range(k - 1):
                terms.append(terms[-1] * tau)
    residues = np.array([c for _, _, (_, c) in constants])
    acc = sum(c.reshape(c.shape + (1,) * tau.ndim) * term for c, term in zip(residues.T, terms))
    powers = [power for _, _, (power, _) in constants]
    scales = [np.broadcast_to(w ** powers[0], tau.shape)]
    for lower, higher in zip(powers, powers[1:]):
        scales.append(scales[-1] * w ** (higher - lower))
    return acc * np.array(scales)


def _divided_differences(shape, p, t, orders):
    """The array of G^(d)(t), d in ``orders``, over broadcast arrays p and t.
    Each entry takes the series or the residue sum by its own |w| t, and
    every operation is elementwise, so an entry's value does not depend on
    the other entries of the call.  For step 2, w is the principal sqrt(p)."""
    p = np.asarray(p, dtype=complex)
    w = p if shape.step == 1 else np.sqrt(p)
    constants = [_constants(shape, d) for d in orders]
    near = np.abs(w) * t <= constants[0][0]
    p, w, t = (np.broadcast_to(a, near.shape) for a in (p, w, t))
    out = np.empty((len(constants),) + near.shape, dtype=complex)
    out[:, near] = _series_sum(shape, constants, p[near], t[near])
    out[:, ~near] = _residue_sum(shape, constants, w[~near], t[~near])
    return out


def _kernel(spec, p, t, orders, measure=TAU_PRIME_MEASURE):
    """[G^(d)(t) for d in orders] on the mode array p at broadcastable t."""
    return _divided_differences(_shape(spec, measure), p, t, orders)


def _modes(p):
    return np.atleast_1d(np.asarray(p, dtype=complex))


def _distinct(modes):
    """(values, gather): the distinct symbol values of ``modes``, and the map
    that takes an array over those values (last axis) to one over the modes
    (trailing axes ``modes.shape``).

    The kernels depend on a mode through p alone and elementwise, so they are
    evaluated on ``values`` only, and every gathered value is bitwise the one
    the full grid, or the mode alone, would give.
    """
    values, index = np.unique(modes.ravel(), return_inverse=True)
    index = index.reshape(modes.shape)
    return values, lambda table: table[..., index]


@dataclass(frozen=True, eq=False)
class _SymbolGrid:
    """A mode array with its ``_distinct`` (values, gather).  ``solve``
    builds one and passes it as the symbol p of every mode function call,
    so the distinct values are found once per solve, not once per time."""

    modes: np.ndarray
    distinct: tuple


def _modes_distinct(p):
    """(the mode array of the symbol p, its ``_distinct``); a scalar p is its
    one distinct value, with the identity as its gather."""
    if isinstance(p, _SymbolGrid):
        return p.modes, p.distinct
    modes = _modes(p)
    if np.ndim(p) == 0:
        return modes, (modes, lambda table: table)
    return modes, _distinct(modes)


def _like(p, out):
    """``out`` as a Python complex when the symbol ``p`` was a scalar."""
    return complex(out[0]) if not isinstance(p, _SymbolGrid) and np.ndim(p) == 0 else out


def sinhc_sqrt(z):
    """sinh(sqrt(z)) / sqrt(z), entire in z, saturating: the kernel of +-1 at t = 1."""
    return _like(z, _divided_differences(_Shape(2, ((1 + 0j, 1),)), _modes(z), 1.0, (0,))[0])


# ---------------------------------------------------------------------------
# Kernel operators


def inhomogeneous_mode(spec, p, fhat, t, nodes=64, measure=None, separable=None):
    """Forced part of the mode solution, the Duhamel convolution
    int_0^t G(t - tau) f(tau) dtau / b_m as one ``nodes``-point
    Gauss-Legendre sum, for f(tau) = sum_j g_j(tau) c_j + fhat(tau).

    ``fhat``, the rest, is a callable tau -> forcing coefficient (scalar or
    an array of p's shape), or None.  ``separable`` is None or the pairs
    (profiles, coefficients): ``profiles`` takes the array of nodes to the
    array (J, nodes) of the time profiles g_j, and ``coefficients`` holds
    the J coefficient arrays c_j of p's shape.

    G is tabulated on chunks of nodes over the distinct symbol values.  The
    table is contracted with each profile's weighted samples w_i g_j(tau_i)
    into W_j on the distinct values by one ordered ``np.add.accumulate``
    over the nodes, with W_j so far added to the first row: the node-by-node
    sum bit for bit.  W_j is gathered to the modes and multiplies c_j.  For
    the rest, fhat is called once per node in node order, and each node's
    row of the table is gathered, multiplied by w_i fhat(tau_i) and added.
    Both sums run in node order, so a mode's value does not depend on the
    other modes of the call.  For the repeated-root kind G is the kernel of
    ``measure``, which the discrepancy probe decides.
    """
    modes, (values, gather) = _modes_distinct(p)
    total = np.zeros(modes.shape, dtype=complex)
    if t != 0:
        if spec.kind is Kind.REPEATED_ROOT and measure is None:
            raise UnresolvedKernel(
                "repeated-root forcing measure unresolved: run the kernel discrepancy "
                "probe (CLI mode 'probe') or set it explicitly"
            )
        tau, w = gauss_rule(nodes, t)
        if separable:
            profiles, coefficients = separable
            weighted = w * profiles(tau)
            W = np.zeros((len(coefficients), values.size), dtype=complex)
        batch = max(1, _DUHAMEL_BATCH // values.size)
        for lo in range(0, nodes, batch):
            taus = tau[lo : lo + batch]
            table = _kernel(spec, values, (t - taus)[:, None], (0,), measure)[0]
            if separable:
                # a profile at a time, so that no temporary outgrows the table
                for j, g in enumerate(weighted[:, lo : lo + len(table), None]):
                    terms = g * table
                    terms[0] += W[j]
                    W[j] = np.add.accumulate(terms, axis=0, out=terms)[-1]
            if fhat is not None:
                for i, row in enumerate(table, lo):
                    total += gather(row) * (w[i] * fhat(tau[i]))
        if separable:
            for Wj, c in zip(W, coefficients):
                total += gather(Wj) * c
    return _like(p, total / spec.lead)


def _homogeneous_pairs(spec):
    """(coefficient index k, data index r, derivative order) triples."""
    s = spec.step
    return [(k, r, s * k - 1 - r) for k in range(1, spec.m + 1) for r in range(s * k)]


def homogeneous_mode(spec, p, phihat, t):
    """Initial-data part of the mode solution.

    Assembles sum_k b_k p^{m-k} sum_r d^{q}/dt^{q} [G](t) phihat_r / b_m
    with every derivative of G from one evaluation of its divided
    differences; each factor b_k p^{m-k} G^{(q)} is formed on the distinct
    symbol values, then gathered.
    """
    if len(phihat) != spec.data_count:
        raise ValueError(f"expected {spec.data_count} initial coefficients")
    modes, (values, gather) = _modes_distinct(p)
    pairs = _homogeneous_pairs(spec)
    orders = range(max(q for _, _, q in pairs) + 1)
    derivs = _kernel(spec, values, t, orders)
    acc = np.zeros(modes.shape, dtype=complex)
    for k, r, order in pairs:
        acc = acc + gather(spec.b[k] * values ** (spec.m - k) * derivs[order]) * phihat[r]
    return _like(p, acc / spec.lead)


# ---------------------------------------------------------------------------
# Full-grid problems


def _finite(values, t):
    """``values``, sampled at the times ``t`` (broadcast against them); a
    value that is not finite raises NonFiniteForcing at its earliest time."""
    bad = ~np.isfinite(values)
    if bad.any():
        first = np.min(np.broadcast_to(t, bad.shape)[bad])
        raise NonFiniteForcing(f"forcing is not finite at t = {float(first):.17g}")
    return values


@dataclass(frozen=True, eq=False)
class CauchyProblem:
    """A periodic-grid Cauchy problem for one of the three operator kinds.

    The forcing is sum_j g_j(t) h_j(x) + rest(t, x).  ``spatial_profiles``
    holds the h_j as samples on the problem's grid, and ``time_profiles`` is
    a callable taking t (a number or an array) to the sequence of the g_j(t),
    each a number or an array of t's shape.  ``forcing``, the rest, is a
    callable t -> samples that broadcast to the problem's grid, or None.
    Data and forcing samples, real or complex, are transformed as given and
    become complex in the FFT.  ``measure`` selects the repeated-root
    forcing kernel ('plain' or 'tau_prime', as the discrepancy probe
    decides); it is needed only when a repeated-root problem is forced.
    """

    spec: CharacteristicSpec
    P: SymbolPolynomial
    shape: tuple
    box: tuple
    phi: tuple
    forcing: object = None
    t_points: tuple = ()
    measure: str = None
    time_profiles: object = None
    spatial_profiles: tuple = ()

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
        if any(np.shape(h) != tuple(self.shape) for h in self.spatial_profiles):
            raise ValueError("all spatial profiles must be samples on the problem grid")
        if self.spatial_profiles and not callable(self.time_profiles):
            raise ValueError("spatial profiles need their time profiles")

    @property
    def forced(self):
        """Whether the problem has a forcing: separable pairs, a rest or both."""
        return self.forcing is not None or bool(self.spatial_profiles)

    def _profiles(self, t):
        """The time profiles at t as an array (J, *shape(t)), finite."""
        rows = [np.broadcast_to(g, np.shape(t)) for g in self.time_profiles(t)]
        return _finite(np.array(rows), t)

    @cached_property
    def _spatial_hat(self):
        """The Fourier coefficients of each spatial profile, transformed once
        per problem."""
        return [to_spectral(np.asarray(h)) for h in self.spatial_profiles]

    def _rest_hat(self, t):
        """The Fourier coefficients of the rest at time t, its samples broadcast to the grid."""
        samples = np.asarray(self.forcing(t))
        try:
            samples = np.broadcast_to(samples, self.shape)
        except ValueError:
            message = f"forcing samples {samples.shape} do not broadcast to the grid {self.shape}"
            raise ValueError(message) from None
        return to_spectral(_finite(samples, t))

    def forcing_hat(self, t):
        """Fourier coefficients of the forcing at time t: sum_j g_j(t) times
        the coefficients of h_j, plus the transformed rest.  A value that is
        not finite raises NonFiniteForcing."""
        total = self._rest_hat(t) if self.forcing is not None else 0.0
        if self.spatial_profiles:
            for g, c in zip(self._profiles(t), self._spatial_hat):
                total = total + g * c
        return total


@dataclass(frozen=True)
class StabilityReport:
    """Growth diagnostics of a solve: nothing here aborts a run."""

    max_growth: tuple  # per root, max over the grid of Re(a_j p(k))
    overflowed: tuple  # integer wavevectors whose modes saturated
    condition: float  # max_i |prod_(k != i) (sigma_i - sigma_k)^-mu_k| of the node shape
    nonfinite: int  # NaN or infinite output coefficients, summed over the times


def _growth_rates(shape, pgrid):
    """Re(lambda) of the fastest-growing mode eigenvalue, per node (pair) of
    the shape: Re(sigma p) for step 1, |Re sqrt(sigma^2 p)| for step 2."""
    return [
        np.real(x * pgrid) if shape.step == 1 else np.abs(np.real(np.sqrt(x * x * pgrid)))
        for x, _ in shape.nodes
    ]


def stability_report(spec, pgrid, t_max, nonfinite):
    kernel_shape = _shape(spec)
    rates = _growth_rates(kernel_shape, pgrid)
    over = np.any([rate * t_max > OVERFLOW_LIMIT for rate in rates], axis=0)
    # the integer wavevector of each flagged mode, in row-major order
    columns = zip(wavevectors(pgrid.shape), np.nonzero(over))
    flagged = tuple(zip(*[k.ravel()[i].astype(int).tolist() for k, i in columns]))
    nodes = kernel_shape.all_nodes
    cond = max(abs(np.prod([(x - y) ** -k for y, k in nodes if y != x])) for x, _ in nodes)
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
    modes = _modes(pgrid)
    grid = _SymbolGrid(modes, _distinct(modes))
    phihat = [to_spectral(f.data) for f in problem.phi]
    # the parts of forcing_hat: each spatial profile is transformed once
    fhat = problem._rest_hat if problem.forcing is not None else None
    separable = (problem._profiles, problem._spatial_hat) if problem.spatial_profiles else None

    snapshots = []
    nonfinite = 0
    for t in problem.t_points:
        # saturated modes may hit inf/nan; they are reported, not suppressed
        with np.errstate(over="ignore", invalid="ignore"):
            uhat = homogeneous_mode(spec, grid, phihat, t)
            if problem.forced:
                uhat = uhat + inhomogeneous_mode(
                    spec, grid, fhat, t, nodes=nodes, measure=problem.measure,
                    separable=separable,
                )
        nonfinite += int(np.count_nonzero(~np.isfinite(uhat)))
        snapshots.append((t, Field(problem.shape, problem.box, from_spectral(uhat))))

    t_max = max(problem.t_points) if problem.t_points else 0.0
    report = stability_report(spec, pgrid, t_max, nonfinite)
    return snapshots, report
