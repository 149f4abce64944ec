import re

import mpmath
import numpy as np
import pytest

from opcauchy import oracle
from opcauchy.cli import load_verdict, save_verdict
from opcauchy.errors import InsufficientSnapshots
from opcauchy.kernels import PLAIN_MEASURE, TAU_PRIME_MEASURE, CauchyProblem
from opcauchy.multiplier import Field, mesh
from opcauchy.oracle import (
    PROBE_SAMPLES,
    fd_weights,
    kernel_discrepancy_probe,
    mode_ode_solve,
    residual_check,
    _s_poly_coeffs,
)
from opcauchy.symbol_poly import CharacteristicSpec

from helpers import derivative, zero_field
from test_multiplier import sampled_field
from test_symbol_poly import random_distinct_roots


class TestModePolynomial:
    def test_first_order_roots(self):
        # the mode ODE prod_j (d/dt - a_j p) has exponents a_j p
        roots = [1.0, 2.0, -0.5 + 1j]
        p = -0.7 + 0.3j
        spec = CharacteristicSpec.first_order_product(roots=roots)
        got = np.sort_complex(np.roots(_s_poly_coeffs(spec, p)[::-1]))
        expect = np.sort_complex(np.array(roots) * p)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_even_order_roots(self):
        # prod_j (d^2/dt^2 - a_j^2 p) has exponents +/- a_j sqrt(p)
        roots = [1.0, 2.0]
        p = -1.3 + 0.4j
        spec = CharacteristicSpec.even_order_product(roots)
        got = np.sort_complex(np.roots(_s_poly_coeffs(spec, p)[::-1]))
        w = np.sqrt(complex(p))
        expect = np.sort_complex(np.array([w, -w, 2 * w, -2 * w]))
        assert np.max(np.abs(got - expect)) < 1e-10


class TestModeOdeSolve:
    def test_heat_product_value(self):
        # (d/dt + 1)(d/dt + 2) u = 0, u(0) = 1, u'(0) = 0:
        # u(t) = 2 e^{-t} - e^{-2t}
        spec = CharacteristicSpec.first_order_product(roots=[1.0, 2.0])
        got = mode_ode_solve(spec, -1.0, [1.0, 0.0], None, 1.0)
        assert got == pytest.approx(2 * np.exp(-1) - np.exp(-2), abs=1e-12)

    def test_wave_product_value(self):
        # (d^2/dt^2 + 1)(d^2/dt^2 + 4) u = 0 with u(0) = 1, others 0:
        # u(t) = (4 cos t - cos 2t) / 3
        spec = CharacteristicSpec.even_order_product([1.0, 2.0])
        for t in (0.3, 1.0, 2.0):
            got = mode_ode_solve(spec, -1.0, [1.0, 0, 0, 0], None, t)
            assert got == pytest.approx((4 * np.cos(t) - np.cos(2 * t)) / 3, abs=1e-10)

    def test_t_zero_returns_first_datum(self):
        spec = CharacteristicSpec.repeated_root(2)
        assert mode_ode_solve(spec, -2.0, [3.0 + 1j, 0, 0, 0], None, 0.0) == 3.0 + 1j

    def test_wrong_data_count_rejected(self):
        spec = CharacteristicSpec.even_order_product([1.0, 2.0])
        for t in (0.0, 0.5):
            with pytest.raises(ValueError):
                mode_ode_solve(spec, -1.0, [1.0, 0.0], None, t)

    def test_eigen_propagator_agree(self):
        # the propagator against the exact exponential on generic data
        rng = np.random.default_rng(31)
        for _ in range(10):
            roots = random_distinct_roots(rng, 3)
            spec = CharacteristicSpec.first_order_product(roots=roots)
            p = complex(-abs(rng.normal()), rng.normal())
            phihat = rng.normal(size=3) + 1j * rng.normal(size=3)
            t = rng.uniform(0.3, 1.0)
            got = mode_ode_solve(spec, p, phihat, np.cos, t)
            ref = _exact_mode(spec, p, phihat, 1, t)
            assert abs(got - ref) <= 1e-14 * (1 + abs(ref))

    def test_duhamel_linearity(self):
        spec = CharacteristicSpec.first_order_product(roots=[1.0, -2.0])
        p = -0.8 + 0.2j
        zeros = [0j, 0j]
        t = 0.9
        u1 = mode_ode_solve(spec, p, zeros, np.cos, t)
        u2 = mode_ode_solve(spec, p, zeros, np.sin, t)
        u12 = mode_ode_solve(spec, p, zeros, lambda tau: 2 * np.cos(tau) - np.sin(tau), t)
        assert u12 == pytest.approx(2 * u1 - u2, abs=1e-11)


def _exact_mode(spec, p, phihat, omega, t, dps=45):
    """e_0^T exp(B t) y_0 in mpmath, with cos(omega tau) forcing if omega is given.

    B is the companion matrix of the mode polynomial (its last row rounded to
    double, as the oracle's), augmented by the 2x2 rotation block whose first
    component is cos(omega tau) and which drives the last state equation.
    """
    coeffs = _s_poly_coeffs(spec, p)
    q = len(coeffs) - 1
    n = q if omega is None else q + 2
    with mpmath.workdps(dps):
        B = mpmath.zeros(n, n)
        for i in range(q - 1):
            B[i, i + 1] = 1
        for j in range(q):
            B[q - 1, j] = mpmath.mpc(-coeffs[j] / coeffs[q])
        y0 = [mpmath.mpc(v) for v in phihat]
        if omega is not None:
            B[q - 1, q] = 1 / mpmath.mpc(coeffs[q])
            B[q, q + 1] = -omega
            B[q + 1, q] = omega
            y0 += [1, 0]
        return complex((mpmath.expm(B * mpmath.mpf(t)) * mpmath.matrix(y0))[0])


def _mp(x):
    """The np.longdouble or np.clongdouble x in mpmath, exactly: a double
    and the double of its remainder."""
    parts = [(float(v), float(v - float(v))) for v in (np.real(x), np.imag(x))]
    return mpmath.mpc(*(mpmath.mpf(hi) + mpmath.mpf(lo) for hi, lo in parts))


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="np.longdouble is not the 64-bit-mantissa extended type here, "
    "so the propagator runs at double precision",
)
class TestPropagatorAccuracy:
    """The oracle on every mode kind, stiff and near-coincident, against mpmath."""

    @pytest.mark.parametrize("spec", [
        CharacteristicSpec.repeated_root(2),
        CharacteristicSpec.repeated_root(3),
        CharacteristicSpec.even_order_product([1, 1.5, 2]),
        CharacteristicSpec.first_order_product(roots=[1, 1 + 1e-7, 2]),
        CharacteristicSpec.first_order_product(roots=[1, 2, 3]),
    ], ids=["repeated-2", "repeated-3", "even", "first-near-coincident", "first"])
    def test_matches_exact_exponential(self, spec):
        for k in (1, 30, 90, 127):
            p = -float(k * k)
            phihat = [np.exp(0.7j * k) / (k * (r + 1)) for r in range(spec.data_count)]
            for t in (0.1, 0.5):
                for omega in (None, 2):
                    fhat = None if omega is None else (lambda tau: np.cos(omega * tau))
                    got = mode_ode_solve(spec, p, phihat, fhat, t)
                    ref = _exact_mode(spec, p, phihat, omega, t)
                    # a free mode decayed to e^-450 of its data is measured
                    # against the data; a forced one against its own size
                    scale = abs(ref) if omega else max(abs(ref), abs(phihat[0]))
                    assert abs(got - ref) <= 1e-14 * scale, (k, t, omega, got, ref)

    @pytest.mark.parametrize("spec, p", [
        (CharacteristicSpec.repeated_root(3), -9.0),
        (CharacteristicSpec.first_order_product(roots=[1, 2, 3]), -127.0**2),
    ], ids=["repeated-3", "first-k127"])
    def test_panel_exponentials(self, spec, p, monkeypatch):
        # one forced call's 17 multiples c of A, from one scaling and one
        # table of powers, each against a 40-digit exponential
        calls = []
        exponentials = oracle._exponentials
        monkeypatch.setattr(oracle, "_exponentials",
                            lambda A, c: calls.append((A, c, exponentials(A, c))) or calls[-1][2])
        mode_ode_solve(spec, p, [0j] * spec.data_count, np.cos, 0.5)
        ((A, c, E),) = calls
        assert len(c) == 17
        with mpmath.workdps(40):
            M = mpmath.matrix([[_mp(a) for a in row] for row in A])
            for ck, Ek in zip(c, E):
                ref = mpmath.expm(M * _mp(ck))
                got = mpmath.matrix([[_mp(e) for e in row] for row in Ek])
                assert mpmath.mnorm(got - ref, 1) <= 1e-16 * mpmath.mnorm(ref, 1), ck

    def test_fast_forcing_resolved_at_default_nodes(self):
        # the spectral radius alone asks for one panel (rho t / 2 = 1); the
        # floor of nodes / 16 = 4 panels is what resolves cos(60 tau)
        spec = CharacteristicSpec.repeated_root(2)
        zeros = [0j] * 4
        got = mode_ode_solve(spec, -1.0, zeros, lambda tau: np.cos(60 * tau), 1.0)
        ref = _exact_mode(spec, -1.0, zeros, 60, 1.0)
        assert abs(got - ref) <= 1e-13 * abs(ref)


class TestFdWeights:
    def test_centered_second_derivative(self):
        w = fd_weights([-1.0, 0.0, 1.0], 0.0, 2)
        assert np.allclose(w, [1.0, -2.0, 1.0])

    def test_one_sided_first_derivative(self):
        w = fd_weights([0.0, 1.0, 2.0], 0.0, 1)
        assert np.allclose(w, [-1.5, 2.0, -0.5])

    def test_differentiates_polynomial_exactly(self):
        xs = np.linspace(-1, 1, 9)
        w = fd_weights(xs, 0.2, 3)
        vals = xs**5
        assert w @ vals == pytest.approx(60 * 0.2**2, abs=1e-10)


def _heat_snapshots(shape, times):
    x = mesh(shape, (2 * np.pi,))[0]
    return [
        (float(t), Field(shape, (2 * np.pi,), np.exp(-t) * np.sin(x).astype(complex)))
        for t in times
    ]


def _heat_problem(shape):
    return CauchyProblem(
        spec=CharacteristicSpec.first_order_product(roots=[1.0]),
        P=derivative(1, 0, 2),
        shape=shape,
        box=(2 * np.pi,),
        phi=[sampled_field(shape, (2 * np.pi,), np.sin)],
        t_points=(1.0,),
    )


class TestResidualCheck:
    def test_manufactured_heat_solution(self):
        shape = (32,)
        times = np.linspace(0, 1, 25)
        report = residual_check(_heat_snapshots(shape, times), _heat_problem(shape))
        assert report.max_residual < 1e-8
        assert max(report.ic_errors) < 1e-10

    def test_detects_perturbation(self):
        shape = (32,)
        times = np.linspace(0, 1, 25)
        snaps = _heat_snapshots(shape, times)
        rng = np.random.default_rng(41)
        noisy = [
            (t, Field(shape, (2 * np.pi,), f.data + 1e-4 * rng.normal(size=shape)))
            for t, f in snaps
        ]
        report = residual_check(noisy, _heat_problem(shape))
        assert report.max_residual > 1e-4

    def test_too_few_snapshots(self):
        shape = (32,)
        with pytest.raises(InsufficientSnapshots):
            residual_check(
                _heat_snapshots(shape, np.linspace(0, 1, 5)), _heat_problem(shape)
            )

    @pytest.mark.parametrize("spec,count,message", [
        (CharacteristicSpec.first_order_product(roots=[1.0]), 8,
         "need at least 9 snapshots for order-1 time derivatives"),
        (CharacteristicSpec.even_order_product([1.0, 2.0]), 10,
         "need at least 11 snapshots for order-4 time derivatives"),
        (CharacteristicSpec.first_order_product(roots=[1.0]), 1,
         "need at least 9 snapshots for order-1 time derivatives"),
    ], ids=["first", "even", "one"])
    def test_fewer_snapshots_than_the_stencil(self, spec, count, message):
        shape = (32,)
        problem = CauchyProblem(spec, derivative(1, 0, 2), shape, (2 * np.pi,),
                                [zero_field(shape, (2 * np.pi,))] * spec.data_count)
        with pytest.raises(InsufficientSnapshots, match=f"^{re.escape(message)}$"):
            residual_check(_heat_snapshots(shape, np.linspace(0, 1, count)), problem)

    def test_nonuniform_spacing_rejected(self):
        shape = (32,)
        times = list(np.linspace(0, 1, 25))
        times[3] += 0.01
        with pytest.raises(InsufficientSnapshots):
            residual_check(_heat_snapshots(shape, times), _heat_problem(shape))


class TestProbe:
    def test_decisive_for_small_orders(self):
        for m in (2, 3):
            result = kernel_discrepancy_probe(m, seed=5 + m)
            assert result.winner in (PLAIN_MEASURE, TAU_PRIME_MEASURE)
            assert result.min_ratio >= 1e3
            assert len(result.rows) == PROBE_SAMPLES

    def test_verdict_round_trip(self, tmp_path):
        results = [kernel_discrepancy_probe(m, seed=m) for m in (2, 3)]
        path = tmp_path / "verdict.txt"
        save_verdict(path, results)
        assert load_verdict(path) == results[0].winner

    def test_load_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_verdict(path)
