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
#: Taylor terms of exp(M) at ||M||_1 <= 1/2; the first term left out,
#: 2^-21/21!, is below the 2^-64 roundoff of np.clongdouble.
_TAYLOR_TERMS = 20


def _expm(M):
    """exp of every matrix of a (n, q, q) np.clongdouble stack.

    Each M is scaled by 2^-j to 1-norm at most 1/2, its Taylor series is
    summed by Horner, and the result is squared j times.
    """
    _, j = np.frexp(2 * np.abs(M).sum(axis=-2).max(axis=-1))
    j = np.maximum(j, 0)
    S = M * np.ldexp(np.longdouble(1), -j)[:, None, None]
    eye = np.eye(M.shape[-1], dtype=M.dtype)
    E = eye
    for n in range(_TAYLOR_TERMS, 0, -1):
        E = eye + (S @ E) / n
    for s in range(int(j.max())):
        sel = j > s
        E[sel] = E[sel] @ E[sel]
    return E


def mode_ode_solve(spec, p, phihat, fhat, t, nodes=64):
    """Solve the scalar mode ODE sum_k b_k p^{m-k} u^{(k)} = fhat at time t.

    ``phihat`` gives u^{(r)}(0); ``fhat`` is a callable of tau or None.

    The companion state is balanced by D = diag(rho^i), rho the power of two
    at or above the spectral radius, and propagated by its exact
    state-transition matrix in np.clongdouble.  The Duhamel term takes K
    equal panels of width h with a 16-point Gauss rule each:
    state <- e^{Ah} state + sum_i w_i f(tau_i) e^{A(h - x_i)} e_{q-1}.
    K keeps rho h <= 2 and at least ``nodes`` nodes in all.
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
        return complex((_expm(A[None] * np.longdouble(t))[0] @ state)[0])

    panels = max(math.ceil(rho * t / 2), math.ceil(nodes / _PANEL_NODES))
    h = np.longdouble(t) / panels
    x, w = (np.asarray(v, dtype=np.longdouble) * h for v in gauss_rule(_PANEL_NODES, 1.0))
    E = _expm(A[None] * np.concatenate([[h], h - x])[:, None, None])
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
    residual_times: tuple
    per_time: tuple


def residual_check(snapshots, problem, fd_order=6):
    """Substitute a space-time solution back into the equation.

    ``snapshots`` is a list of (t, Field) at uniformly spaced times starting
    at 0.  The spatial operator is applied spectrally, time derivatives by
    centered differences of the requested order; initial derivatives use
    one-sided stencils at t = 0.  The residual is normalized by the largest
    single term of the equation.
    """
    ts = np.array([t for t, _ in snapshots], dtype=float)
    nt = len(ts)
    if nt < 7:
        raise InsufficientSnapshots("need at least 7 uniformly spaced snapshots")
    dt = ts[1] - ts[0]
    if np.max(np.abs(np.diff(ts) - dt)) > 1e-10 * dt:
        raise InsufficientSnapshots("snapshots must be uniformly spaced")

    spec = problem.spec
    uhat = np.stack([to_spectral(f.data) for _, f in snapshots])
    pgrid = symbol_grid(problem.P, problem.shape, problem.box)
    terms = _operator_orders(spec)
    d_max = max(d for d, _, _ in terms)
    width = d_max + fd_order + 1
    if width % 2 == 0:
        width += 1
    if nt < width:
        raise InsufficientSnapshots(
            f"need at least {width} snapshots for order-{d_max} time derivatives"
        )
    half = width // 2

    residual_times, per_time = [], []
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
        rel = float(np.linalg.norm(total - fh)) / scale
        residual_times.append(float(ts[i]))
        per_time.append(rel)

    phihat = [to_spectral(f.data) for f in problem.phi]
    ic_errors = []
    for r in range(spec.data_count):
        npts = min(nt, r + fd_order + 1)
        w = fd_weights(ts[:npts], 0.0, r)
        du0 = np.tensordot(w, uhat[:npts], axes=(0, 0))
        err = np.linalg.norm(du0 - phihat[r]) / (1.0 + np.linalg.norm(phihat[r]))
        ic_errors.append(float(err))

    return ResidualReport(
        max_residual=max(per_time) if per_time else np.inf,
        ic_errors=tuple(ic_errors),
        residual_times=tuple(residual_times),
        per_time=tuple(per_time),
    )


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


def kernel_discrepancy_probe(m, samples=9, seed=7, nodes=96):
    """Decide the repeated-root forcing measure empirically.

    For random (p, t, forcing) both candidate kernels are compared against
    the mode ODE oracle with zero initial data (the oracle's propagator is
    exact on the defective repeated-root modes as on every other); the
    winner must beat the loser by at least 10^3 on every sample.
    """
    rng = np.random.default_rng(seed)
    spec = CharacteristicSpec.repeated_root(m)
    zeros = [0j] * (2 * m)
    rows = []
    for i in range(samples):
        radius = 0.5 + 3.5 * rng.random()
        angle = np.pi / 2 + np.pi * rng.random()  # Re p <= 0
        p = radius * np.exp(1j * angle)
        t = 0.4 + 0.8 * rng.random()
        label, fhat = _PROBE_FORCINGS[i % len(_PROBE_FORCINGS)]
        ref = mode_ode_solve(spec, p, zeros, fhat, t)
        scale = 1.0 + abs(ref)
        err_plain, err_tau = (
            abs(kernels.inhomogeneous_mode(spec, p, fhat, t, nodes=nodes, measure=measure) - ref)
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
    raise InconclusiveProbe("neither repeated-root measure dominates", rows=rows)


def save_verdict(path, results):
    """Persist probe results as a key-value text file plus evidence table."""
    results = list(results)
    winners = {r.winner for r in results}
    if len(winners) != 1:
        raise InconclusiveProbe("probe runs disagree on the winner")
    winner = winners.pop()
    ms = sorted({row[0] for r in results for row in r.rows})
    lines = [
        "# repeated-root forcing kernel probe verdict",
        f"winner = {winner}",
        f"m_values = {','.join(str(m) for m in ms)}",
        f"samples = {sum(len(r.rows) for r in results)}",
        f"min_ratio = {min(r.min_ratio for r in results):.6e}",
        "# m re_p im_p t forcing err_plain err_tau_prime",
    ]
    for r in results:
        for m, p, t, label, ep, et in r.rows:
            lines.append(
                f"# {m} {p.real:+.6e} {p.imag:+.6e} {t:.6f} {label} {ep:.6e} {et:.6e}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_verdict(path):
    """Read back the winning measure from a verdict file."""
    winner = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("winner"):
                winner = line.split("=", 1)[1].strip()
    if winner not in (kernels.PLAIN_MEASURE, kernels.TAU_PRIME_MEASURE):
        raise ValueError(f"no valid winner recorded in {path}")
    return winner
