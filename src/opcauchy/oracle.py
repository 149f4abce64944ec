"""Independent ground truth for the closed-form assemblies.

Each Fourier mode of every problem kind satisfies a constant-coefficient
linear ODE in time.  The oracle solves that ODE directly, on every mode
the same way -- by the exponential of the balanced companion matrix in
extended precision, stepped over panels for the Duhamel term -- and never
touches the kernel-synthesis code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InconclusiveProbe, InsufficientSnapshots
from .multiplier import to_spectral
from .quadrature import gauss_rule
from .symbol_poly import CharacteristicSpec, symbol_grid


def _s_poly_coeffs(spec: CharacteristicSpec, p):
    """Ascending coefficients of the mode ODE's characteristic polynomial in s."""
    p = complex(p)
    coeffs = np.zeros(spec.data_count + 1, dtype=complex)
    for order, b, power in _operator_orders(spec):
        coeffs[order] = b * p**power
    return coeffs


def _operator_orders(spec):
    """(time-derivative order, coefficient b, power of p) triples."""
    return [(spec.step * k, spec.b[k], spec.m - k) for k in range(spec.m + 1)]


#: Gauss-Legendre nodes per panel of the propagator's Duhamel sum.
_PANEL_NODES = 16
#: Taylor terms of each e^((c_k/c_0) S) that ``_exponentials`` sums, at 1-norm
#: <= 1/2; the first term left out, 2^-21/21!, is below the 2^-64 roundoff of np.clongdouble.
_TAYLOR_TERMS = 20
#: Order of accuracy of the finite-difference time derivatives of ``residual_check``.
RESIDUAL_FD_ORDER = 6
#: Gauss-Legendre nodes of the Duhamel sum that the probe compares with the oracle.
PROBE_NODES = 96
#: Random (p, t, forcing) samples of each probe run.
PROBE_SAMPLES = 9


def _exponentials(A, c):
    """e^(c_k A) for the np.longdouble multiples 0 <= c_k <= c_0 (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 2011): with S = c_0 A 2^-j of 1-norm at
    most 1/2, each e^(c_k A 2^-j) = sum_n (c_k/c_0)^n S^n/n! over one table
    of S^n/n!, summed from the smallest term up, then squared j times."""
    j = max(int(np.frexp(2 * np.abs(A * c[0]).sum(axis=0).max())[1]), 0)
    S = A * (c[0] * np.ldexp(np.longdouble(1), -j))
    powers = [np.eye(len(A), dtype=A.dtype)]
    for n in range(1, _TAYLOR_TERMS + 1):
        powers.append(powers[-1] @ S / n)
    E = np.tensordot(np.vander(c / c[0], _TAYLOR_TERMS + 1), np.array(powers[::-1]), 1)
    for _ in range(j):
        E = E @ E
    return E


def mode_ode_solve(spec, p, phihat, fhat, t, nodes=64):
    """Solve the scalar mode ODE sum_k b_k p^{m-k} u^{(k)} = fhat at time t.

    ``phihat`` gives u^{(r)}(0); ``fhat`` is a callable of tau or None.

    The companion state is balanced by D = diag(rho^i), rho the power of two
    at or above the spectral radius, and propagated by its exact
    state-transition matrix in np.clongdouble.  The Duhamel term takes K
    equal panels of width h with a 16-point Gauss rule each:
    state <- e^{Ah} state + sum_i w_i f(tau_i) e^{A(h - x_i)} e_{q-1}.
    K keeps rho h <= 2 and at least ``nodes`` nodes in all.  The 17 panel
    exponentials share one scaling and one table of powers
    (``_exponentials``); without forcing, e^{At} is the case of one multiple.
    """
    coeffs = _s_poly_coeffs(spec, p)
    q = len(coeffs) - 1
    if len(phihat) != q:
        raise ValueError(f"expected {q} initial values, got {len(phihat)}")
    if t == 0:
        return complex(phihat[0])
    A = np.zeros((q, q), dtype=complex)
    A[np.arange(q - 1), np.arange(1, q)] = 1.0
    A[-1, :] = -coeffs[:q] / coeffs[q]
    mant, expo = math.frexp(max(1.0, float(np.max(np.abs(np.linalg.eigvals(A))))))
    rho = math.ldexp(1.0, expo - (mant == 0.5))
    d = np.longdouble(rho) ** np.arange(q)
    A = A.astype(np.clongdouble) * (d[None, :] / d[:, None])
    state = np.asarray(phihat, dtype=np.clongdouble) / d
    if fhat is None:
        return complex((_exponentials(A, np.array([t], dtype=np.longdouble))[0] @ state)[0])

    panels = max(math.ceil(rho * t / 2), math.ceil(nodes / _PANEL_NODES))
    h = np.longdouble(t) / panels
    x, w = (np.asarray(v, dtype=np.longdouble) * h for v in gauss_rule(_PANEL_NODES, 1.0))
    E = _exponentials(A, np.concatenate([[h], h - x]))
    step, cols = E[0], E[1:, :, q - 1] * (w / (coeffs[q] * d[q - 1]))[:, None]
    # 1024 panels at a time bound the forcing samples held at once
    for first in range(0, panels, 1024):
        starts = np.arange(first, min(panels, first + 1024)) * h
        tau = (starts[:, None] + x).ravel().astype(float)
        f = np.array([fhat(tt) for tt in tau], dtype=complex)
        for kick in f.reshape(-1, _PANEL_NODES) @ cols:
            state = step @ state + kick
    return complex(state[0])


# ---------------------------------------------------------------------------
# Residual verification


def fd_weights(xs, x0, d):
    """Finite-difference weights for the d-th derivative at x0 on nodes xs.

    Fornberg's recurrence; works for arbitrary (e.g. one-sided) stencils.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    C = np.zeros((n, d + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, d)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, d]


@dataclass(frozen=True)
class ResidualReport:
    max_residual: float  # relative L2 residual over evaluated interior times
    ic_errors: tuple  # per initial derivative, relative L2 error at t = 0


def residual_check(snapshots, problem):
    """Substitute a space-time solution back into the equation.

    ``snapshots`` is a list of (t, Field) at uniformly spaced times starting
    at 0.  The spatial operator is applied spectrally, time derivatives by
    centered differences of order ``RESIDUAL_FD_ORDER``; initial derivatives use
    one-sided stencils at t = 0.  The residual is normalized by the largest
    single term of the equation.
    """
    spec = problem.spec
    terms = _operator_orders(spec)
    d_max = max(d for d, _, _ in terms)
    width = d_max + RESIDUAL_FD_ORDER + 1
    if width % 2 == 0:
        width += 1
    ts = np.array([t for t, _ in snapshots], dtype=float)
    nt = len(ts)
    if nt < width:
        raise InsufficientSnapshots(
            f"need at least {width} snapshots for order-{d_max} time derivatives"
        )
    dt = ts[1] - ts[0]
    if not dt > 0 or np.max(np.abs(np.diff(ts) - dt)) > 1e-10 * dt:
        raise InsufficientSnapshots("snapshots must be uniformly spaced at increasing times")

    uhat = np.stack([to_spectral(f.data) for _, f in snapshots])
    pgrid = symbol_grid(problem.P, problem.shape, problem.box)
    half = width // 2

    residuals = []
    for i in range(half, nt - half):
        stencil = slice(i - half, i + half + 1)
        xs = ts[stencil]
        scale = 0.0
        total = np.zeros(problem.shape, dtype=complex)
        for d, b, ppow in terms:
            w = fd_weights(xs, ts[i], d)
            du = np.tensordot(w, uhat[stencil], axes=(0, 0))
            term = b * pgrid**ppow * du
            total = total + term
            scale = max(scale, float(np.linalg.norm(term)))
        fh = problem.forcing_hat(ts[i]) if problem.forced else 0.0
        scale = max(scale, float(np.linalg.norm(fh)), 1e-300)
        residuals.append(float(np.linalg.norm(total - fh)) / scale)

    phihat = [to_spectral(f.data) for f in problem.phi]
    ic_errors = []
    for r in range(spec.data_count):
        npts = min(nt, r + RESIDUAL_FD_ORDER + 1)
        w = fd_weights(ts[:npts], 0.0, r)
        du0 = np.tensordot(w, uhat[:npts], axes=(0, 0))
        err = np.linalg.norm(du0 - phihat[r]) / (1.0 + np.linalg.norm(phihat[r]))
        ic_errors.append(float(err))

    return ResidualReport(max_residual=max(residuals), ic_errors=tuple(ic_errors))


# ---------------------------------------------------------------------------
# Repeated-root measure probe


@dataclass(frozen=True)
class ProbeResult:
    winner: str
    min_ratio: float
    rows: tuple  # (m, p, t, forcing label, err_plain, err_tau_prime)


_PROBE_FORCINGS = [
    ("cos_tau", np.cos),
    ("exp_decay", lambda tau: np.exp(-tau)),
    ("one_plus_tau_sq", lambda tau: 1.0 + tau * tau),
]


def kernel_discrepancy_probe(m, seed):
    """Decide the repeated-root forcing measure empirically.

    For random (p, t, forcing) both candidate kernels are compared against
    the mode ODE oracle with zero initial data (the oracle's propagator is
    exact on the defective repeated-root modes as on every other); the
    winner must beat the loser by at least 10^3 on every sample.  The
    kernels take the forcing, a function of tau alone, as one time profile
    with coefficient 1, sampled once on the array of the Duhamel nodes.
    """
    rng = np.random.default_rng(seed)
    spec = CharacteristicSpec.repeated_root(m)
    zeros = [0j] * (2 * m)
    rows = []
    for i in range(PROBE_SAMPLES):
        radius = 0.5 + 3.5 * rng.random()
        angle = np.pi / 2 + np.pi * rng.random()  # Re p <= 0
        p = radius * np.exp(1j * angle)
        t = 0.4 + 0.8 * rng.random()
        label, fhat = _PROBE_FORCINGS[i % len(_PROBE_FORCINGS)]
        ref = mode_ode_solve(spec, p, zeros, fhat, t)
        scale = 1.0 + abs(ref)
        profile = (lambda tau: [fhat(tau)], (1.0,))
        err_plain, err_tau = (
            abs(kernels.inhomogeneous_mode(spec, p, None, t, PROBE_NODES, measure, profile) - ref)
            / scale
            for measure in (kernels.PLAIN_MEASURE, kernels.TAU_PRIME_MEASURE)
        )
        rows.append((m, complex(p), float(t), label, float(err_plain), float(err_tau)))

    tiny = 1e-300
    ratios_tau_wins = [(r[4] + tiny) / (r[5] + tiny) for r in rows]
    ratios_plain_wins = [(r[5] + tiny) / (r[4] + tiny) for r in rows]
    if min(ratios_tau_wins) >= 1e3:
        return ProbeResult(kernels.TAU_PRIME_MEASURE, float(min(ratios_tau_wins)), tuple(rows))
    if min(ratios_plain_wins) >= 1e3:
        return ProbeResult(kernels.PLAIN_MEASURE, float(min(ratios_plain_wins)), tuple(rows))
    raise InconclusiveProbe("neither repeated-root measure dominates")
