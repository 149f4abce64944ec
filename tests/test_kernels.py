from fractions import Fraction
from math import comb, factorial

import mpmath
import numpy as np
import pytest

from opcauchy import kernels
from opcauchy.errors import UnresolvedKernel
from opcauchy.kernels import (
    PLAIN_MEASURE,
    TAU_PRIME_MEASURE,
    CauchyProblem,
    homogeneous_mode,
    inhomogeneous_mode,
    solve,
    _kernel,
    _repeated_root_weights,
    _time_kernels,
)
from opcauchy.multiplier import Field, mesh
from opcauchy.oracle import fd_weights, mode_ode_solve
from opcauchy.quadrature import gauss_rule
from opcauchy.symbol_poly import CharacteristicSpec, Kind, SymbolPolynomial, symbol_grid

from test_symbol_poly import random_distinct_roots


def kernel(spec, p, t):
    """G(t) of the single mode p, from the kernel table."""
    return complex(_kernel(spec, np.atleast_1d(complex(p)), t, (0,))[0][0])


def impulse_response(spec, p, t):
    """Oracle for the G kernel: unit top initial derivative, no forcing."""
    n = spec.data_count
    phis = [0j] * (n - 1) + [1.0 + 0j]
    return mode_ode_solve(spec, p, phis, None, t)


class TestGmFirst:
    def test_zero_time(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        assert kernel(spec, -1.0, 0.0) == pytest.approx(0)

    def test_m2_antiderivative(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        # int_0^1 (-e^{-tau} + 2 e^{-2 tau}) dtau
        expect = np.exp(-1) - np.exp(-2)
        assert kernel(spec, -1.0, 1.0) == pytest.approx(expect, abs=1e-12)

    def test_m3_matches_impulse_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            roots = random_distinct_roots(rng, 3)
            spec = CharacteristicSpec.first_order_product(roots=roots)
            p = complex(rng.uniform(-2, 0), rng.uniform(-2, 2))
            t = rng.uniform(0.2, 1.0)
            ref = impulse_response(spec, p, t)
            assert abs(kernel(spec, p, t) - ref) < 1e-8 * (1 + abs(ref))


class TestGmEven:
    def test_zero_time(self):
        spec = CharacteristicSpec.even_order_product([1, 2])
        assert kernel(spec, -1.0, 0.0) == pytest.approx(0)

    def test_m2_matches_companion_oracle(self):
        spec = CharacteristicSpec.even_order_product([1, 2])
        ref = impulse_response(spec, -1.0, 1.0)
        assert abs(kernel(spec, -1.0, 1.0) - ref) < 1e-8 * (1 + abs(ref))

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_symbol_polynomial_limit(self, m):
        # at p = 0 the kernel is tau and the integral collapses to
        # t^{2m-1}/(2m-1)! via the weight identity sum d_j = 1
        roots = [1.0, 2.0, 3.0][:m]
        spec = CharacteristicSpec.even_order_product(roots)
        t = 0.8
        expect = t ** (2 * m - 1) / factorial(2 * m - 1)
        assert kernel(spec, 0.0, t) == pytest.approx(expect, rel=1e-13)


class TestInhomogeneous:
    def test_zero_forcing(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        val = inhomogeneous_mode(spec, -1.0, lambda tau: 0.0, 1.0)
        assert val == pytest.approx(0)

    def test_fubini_against_gm_first(self):
        # with f == 1 the double integral equals int_0^t G(t - tau) dtau
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        p, t = -1.0, 1.0
        direct = inhomogeneous_mode(spec, p, lambda tau: 1.0, t)
        tau, w = gauss_rule(64, t)
        conv = sum(wi * kernel(spec, p, t - ti) for ti, wi in zip(tau, w))
        assert abs(direct - conv) < 1e-9 * (1 + abs(conv))

    def test_even_forced_against_oracle(self):
        spec = CharacteristicSpec.even_order_product([1, 2])
        p, t = -1.0, 1.0
        val = inhomogeneous_mode(spec, p, np.cos, t)
        ref = mode_ode_solve(spec, p, [0j] * 4, np.cos, t)
        assert abs(val - ref) < 1e-6 * (1 + abs(ref))

    def test_repeated_root_requires_measure(self):
        spec = CharacteristicSpec.repeated_root(2)
        with pytest.raises(UnresolvedKernel):
            inhomogeneous_mode(spec, -1.0, np.cos, 1.0)

    def test_repeated_root_explicit_measure(self):
        spec = CharacteristicSpec.repeated_root(2)
        val = inhomogeneous_mode(spec, -1.0, np.cos, 1.0, measure="tau_prime")
        ref = mode_ode_solve(spec, -1.0, [0j] * 4, np.cos, 1.0)
        assert abs(val - ref) < 1e-6 * (1 + abs(ref))


def kind_spec(kind, m):
    if kind is Kind.FIRST_ORDER_PRODUCT:
        return CharacteristicSpec.first_order_product(roots=[1, 2, -1.5][:m])
    if kind is Kind.EVEN_ORDER_PRODUCT:
        return CharacteristicSpec.even_order_product([1, 2, 1.5][:m])
    return CharacteristicSpec.repeated_root(m)


class TestDerivativeReduce:
    """Time derivatives of G are index shifts of its kernel table."""

    def test_order_zero_identity(self):
        # G itself does not depend on how many derivatives the table spans
        p = np.array([-2.0 + 0.5j, -300.0, 0.0])
        for kind in Kind:
            spec = kind_spec(kind, 3)
            alone = _kernel(spec, p, 0.7, (0,))[0]
            assert np.array_equal(_kernel(spec, p, 0.7, range(6))[0], alone)

    def test_fundamental_theorem(self):
        # int_0^t G^(d+1) = G^(d)(t) - G^(d)(0)
        p, t = np.array([-1.3 + 0.4j]), 0.9
        tau, w = gauss_rule(48, t)
        for kind in Kind:
            spec = kind_spec(kind, 2)
            at_t = _kernel(spec, p, t, range(4))
            at_0 = _kernel(spec, p, 0.0, range(4))
            for d in range(3):
                integral = sum(wi * _kernel(spec, p, ti, (d + 1,))[0] for ti, wi in zip(tau, w))
                assert abs(integral - (at_t[d] - at_0[d]))[0] < 1e-13

    @pytest.mark.parametrize("kind,m,order", [
        (Kind.FIRST_ORDER_PRODUCT, 3, 2),
        (Kind.EVEN_ORDER_PRODUCT, 2, 3),
        (Kind.REPEATED_ROOT, 3, 4),
    ])
    def test_matches_finite_differences(self, kind, m, order):
        spec = kind_spec(kind, m)

        def kernel(p, t, d):
            return complex(_kernel(spec, np.array([p]), t, (d,))[0][0])

        rng = np.random.default_rng(31)
        for _ in range(5):
            p = complex(rng.uniform(-2, 0), rng.uniform(-1, 1))
            t = rng.uniform(0.5, 1.0)
            h = 1e-2
            stencil = np.arange(-4, 5) * h
            wfd = fd_weights(t + stencil, t, order)
            fd = sum(wi * kernel(p, t + si, 0) for wi, si in zip(wfd, stencil))
            exact = kernel(p, t, order)
            assert abs(fd - exact) < 1e-6 * (1 + abs(exact))


def f_mpmath(step, k, z):
    """f_k(z) = sum_i z^i / (s i + k + s - 1)!, from closed forms at 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        if step == 1:
            head = sum(z**n / mpmath.factorial(n) for n in range(k))
            return complex((mpmath.exp(z) - head) / z**k)
        w = mpmath.sqrt(z)
        whole = mpmath.cosh(w) if k % 2 else mpmath.sinh(w)
        head = sum(w**n / mpmath.factorial(n) for n in range(k % 2 == 0, k + 1, 2))
        return complex((whole - head) / w ** (k + 1))


class TestTimeKernels:
    """phi_k (s = 1) and sigma_k (s = 2) against mpmath; T_k(1; z) = f_k(z)."""

    @staticmethod
    def table(step, z, lo, hi):
        return _time_kernels(step, np.asarray(z, dtype=complex), 1.0, lo, hi)

    @pytest.mark.parametrize("step", [1, 2])
    def test_real_negative_and_complex_arguments(self, step):
        radii = np.array([1e-3, 0.3, 2.0, 7.0, 30.0, 150.0]) ** step
        angles = np.array([0.0, 0.6, 1.9, np.pi, -2.5])
        z = (radii[:, None] * np.exp(1j * angles)).ravel()
        lo, hi = -4, 8  # k up to 2m for m <= 4, and the index shifts below 0
        table = self.table(step, z, lo, hi)
        for k in range(lo, hi + 1):
            for zi, got in zip(z, table[k]):
                ref = f_mpmath(step, k, zi)
                assert abs(got - ref) <= 1e-13 * abs(ref), (k, zi)

    @pytest.mark.parametrize("step", [1, 2])
    def test_either_side_of_series_switch(self, step):
        # up to level hi the series covers |z| < max(1, hi/2)^s
        angles = np.linspace(0, 2 * np.pi, 7, endpoint=False)
        for hi in range(1, 9):
            switch = max(1, hi / 2) ** step
            z = np.concatenate(
                [switch * (1 + side) * np.exp(1j * angles) for side in (-1e-9, 1e-9)]
            )
            table = self.table(step, z, 1 - step, hi)
            for k in range(1 - step, hi + 1):
                ref = np.array([f_mpmath(step, k, zi) for zi in z])
                # relative to f_k(|z|), the size of the series terms
                scale = np.array([f_mpmath(step, k, abs(zi)).real for zi in z])
                assert np.max(np.abs(table[k] - ref) / scale) < 2e-14, (hi, k)

    @pytest.mark.parametrize("step", [1, 2])
    def test_series_value_does_not_depend_on_the_call(self, step):
        # the series term count follows the disc radius, not the largest |z|
        # of the call; 64 values or more, so numpy takes the same loops
        rng = np.random.default_rng(5)
        small = 0.1 * rng.random(64) * np.exp(2j * np.pi * rng.random(64))
        lo = -step
        for hi in (3, 4, 6):
            edge = 0.99 * max(1, hi / 2) ** step
            alone = self.table(step, small, lo, hi)
            mixed = self.table(step, np.append(small, edge), lo, hi)
            for k in range(lo, hi + 1):
                assert np.array_equal(alone[k], mixed[k][:64]), (hi, k)

    @pytest.mark.parametrize("step", [1, 2])
    def test_origin(self, step):
        table = self.table(step, [0.0], 1 - step, 6)
        for k in range(1 - step, 7):
            assert table[k][0] == pytest.approx(1 / factorial(k + step - 1), rel=1e-15)


class TestRepeatedRootWeights:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_tau_prime_is_the_impulse_response_series(self, m):
        # G = sum_i C(m-1+i, i) p^i t^(2m-1+2i) / (2m-1+2i)!, the inverse
        # Laplace transform of (s^2 - p)^-m, coefficient by coefficient
        e, gammas = _repeated_root_weights(m, TAU_PRIME_MEASURE)
        assert e == 2 * m - 1
        for i in range(20):
            got = sum(g * Fraction(1, factorial(e + 2 * i - j)) for j, g in enumerate(gammas))
            assert got == Fraction(comb(m - 1 + i, i), factorial(2 * m - 1 + 2 * i))

    def test_published_weights(self):
        assert _repeated_root_weights(2, TAU_PRIME_MEASURE)[1] == (-Fraction(1, 2), Fraction(1, 2))
        assert _repeated_root_weights(3, TAU_PRIME_MEASURE)[1] == (
            Fraction(3, 8), -Fraction(3, 8), Fraction(1, 8)
        )

    @pytest.mark.parametrize("measure", [PLAIN_MEASURE, TAU_PRIME_MEASURE])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_kernel_matches_nested_integral(self, m, measure):
        # the measure's defining integral, by mpmath quadrature
        beta = 1 if measure == TAU_PRIME_MEASURE else 0
        denom = 2 ** (2 * m - 3) * factorial(m - 1) * factorial(m - 2)
        spec = CharacteristicSpec.repeated_root(m)
        for p, t in ((-3.1 + 0.7j, 0.8), (2.5, 1.1), (-900.0, 0.5)):
            with mpmath.workdps(30):
                root = mpmath.sqrt(mpmath.mpc(p))
                ref = mpmath.quad(
                    lambda tau: (t * t - tau * tau) ** (m - 2) * tau**beta
                    * mpmath.sinh(tau * root) / root,
                    mpmath.linspace(0, t, 8),
                ) / denom
            got = _kernel(spec, np.array([p]), t, (0,), measure)[0][0]
            assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref))


class TestHomogeneous:
    def test_zero_data(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        assert homogeneous_mode(spec, -1.0, [0.0, 0.0], 0.8) == pytest.approx(0)

    def test_heat_product_mode(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        for t in (0.0, 0.3, 1.0):
            val = homogeneous_mode(spec, -1.0, [1.0, 0.0], t)
            assert val == pytest.approx(2 * np.exp(-t) - np.exp(-2 * t), abs=1e-10)

    def test_even_product_mode(self):
        spec = CharacteristicSpec.even_order_product([1, 2])
        for t in (0.25, 0.7, 1.0):
            val = homogeneous_mode(spec, -1.0, [1.0, 0, 0, 0], t)
            ref = mode_ode_solve(spec, -1.0, [1.0, 0, 0, 0], None, t)
            assert abs(val - ref) < 1e-7 * (1 + abs(ref))

    @pytest.mark.parametrize("kind", list(Kind))
    def test_initial_conditions_reproduced(self, kind):
        if kind is Kind.FIRST_ORDER_PRODUCT:
            spec = CharacteristicSpec.first_order_product(roots=[1, 2, -1])
        elif kind is Kind.EVEN_ORDER_PRODUCT:
            spec = CharacteristicSpec.even_order_product([1, 2])
        else:
            spec = CharacteristicSpec.repeated_root(2)
        rng = np.random.default_rng(41)
        n = spec.data_count
        phis = list(rng.normal(size=n) + 1j * rng.normal(size=n))
        p = -1.3 + 0.4j
        h = 0.02
        ts = h * np.arange(n + 7)
        vals = np.array([homogeneous_mode(spec, p, phis, t) for t in ts])
        for r in range(n):
            w = fd_weights(ts, 0.0, r)
            est = w @ vals
            assert abs(est - phis[r]) < 1e-5 * (1 + abs(phis[r]))


class TestSolve:
    def grid_1d(self):
        return (64,), (2 * np.pi,)

    def test_zero_everything(self):
        shape, box = self.grid_1d()
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        phis = (Field.zeros(shape, box), Field.zeros(shape, box))
        prob = CauchyProblem(
            spec, SymbolPolynomial.laplacian(1), shape, box, phis, None, (0.5, 1.0)
        )
        snaps, _ = solve(prob)
        for _, u in snaps:
            assert np.max(np.abs(u.data)) == 0

    def test_heat_product_field(self):
        shape, box = self.grid_1d()
        x = mesh(shape, box)[0]
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        phis = (
            Field(shape, box, np.sin(x).astype(complex)),
            Field.zeros(shape, box),
        )
        prob = CauchyProblem(
            spec, SymbolPolynomial.laplacian(1), shape, box, phis, None, (1.0,)
        )
        snaps, report = solve(prob)
        expect = (2 * np.exp(-1) - np.exp(-2)) * np.sin(x)
        assert np.max(np.abs(snaps[0][1].data - expect)) < 1e-8
        assert report.overflowed == ()

    def test_wave_product_field(self):
        shape, box = self.grid_1d()
        x = mesh(shape, box)[0]
        spec = CharacteristicSpec.even_order_product([1, 2])
        phis = (Field(shape, box, np.cos(x).astype(complex)),) + tuple(
            Field.zeros(shape, box) for _ in range(3)
        )
        prob = CauchyProblem(
            spec, SymbolPolynomial.laplacian(1), shape, box, phis, None, (0.5, 1.0)
        )
        snaps, _ = solve(prob)
        for t, u in snaps:
            expect = (4 / 3 * np.cos(t) - 1 / 3 * np.cos(2 * t)) * np.cos(x)
            assert np.max(np.abs(u.data - expect)) < 1e-8

    @pytest.mark.parametrize("spec", [
        CharacteristicSpec.first_order_product(roots=[1, 2]),
        CharacteristicSpec.even_order_product([1, 2]),
        CharacteristicSpec.repeated_root(2),
    ], ids=["first", "even", "repeated"])
    def test_linearity(self, spec):
        # unforced, so the repeated root needs no measure
        shape, box = (32,), (2 * np.pi,)
        rng = np.random.default_rng(51)
        P = SymbolPolynomial.laplacian(1)

        def band_limited():
            data = np.zeros(shape, complex)
            for k in range(1, 4):
                data += rng.normal() * np.exp(2j * np.pi * k * np.arange(32) / 32)
            return Field(shape, box, data)

        phi_a = tuple(band_limited() for _ in range(spec.data_count))
        phi_b = tuple(band_limited() for _ in range(spec.data_count))
        alpha = 0.7 - 0.3j
        t_pts = (0.6,)
        sa, _ = solve(CauchyProblem(spec, P, shape, box, phi_a, None, t_pts))
        sb, _ = solve(CauchyProblem(spec, P, shape, box, phi_b, None, t_pts))
        phi_sum = tuple(
            Field(shape, box, a.data * alpha + b.data) for a, b in zip(phi_a, phi_b)
        )
        sc, _ = solve(CauchyProblem(spec, P, shape, box, phi_sum, None, t_pts))
        combo = alpha * sa[0][1].data + sb[0][1].data
        assert np.max(np.abs(sc[0][1].data - combo)) < 1e-10 * np.max(np.abs(combo))

    def test_m1_duhamel_fallback(self):
        shape, box = self.grid_1d()
        x = mesh(shape, box)[0]
        spec = CharacteristicSpec.first_order_product(roots=[1.0])
        phis = (Field(shape, box, np.sin(x).astype(complex)),)
        prob = CauchyProblem(
            spec, SymbolPolynomial.laplacian(1), shape, box, phis, None, (0.8,)
        )
        snaps, _ = solve(prob)
        expect = np.exp(-0.8) * np.sin(x)
        assert np.max(np.abs(snaps[0][1].data - expect)) < 1e-12

    def test_growth_flagged_not_suppressed(self):
        shape, box = (16,), (0.05,)
        x = mesh(shape, box)[0]
        spec = CharacteristicSpec.first_order_product(roots=[-1, -2])  # backward heat
        phis = (
            Field(shape, box, np.cos(2 * np.pi * x / box[0]).astype(complex)),
            Field.zeros(shape, box),
        )
        prob = CauchyProblem(
            spec, SymbolPolynomial.laplacian(1), shape, box, phis, None, (1.0,)
        )
        _, report = solve(prob)
        assert max(report.max_growth) > 0
        assert report.overflowed
        # flagged modes are named by their integer wavevectors
        assert all(
            isinstance(k, tuple) and len(k) == len(shape) and all(type(c) is int for c in k)
            for k in report.overflowed
        )


class TestDistinctSymbols:
    """The kernels are evaluated once per distinct symbol value of a grid."""

    SPECS = [
        CharacteristicSpec.first_order_product(roots=[1, 2]),
        CharacteristicSpec.even_order_product([1, 2]),
        CharacteristicSpec.repeated_root(2),
    ]

    @staticmethod
    def laplacian_grid(shape, box):
        return symbol_grid(SymbolPolynomial.laplacian(len(shape)), shape, box)

    def test_kernel_work_scales_with_distinct_values(self, monkeypatch):
        shape, box = (8, 8, 8), (2 * np.pi,) * 3
        x = mesh(shape, box)
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        phis = (Field(shape, box, np.sin(x[0]).astype(complex)), Field.zeros(shape, box))
        times, nodes = (0.25, 0.5), 16
        prob = CauchyProblem(
            spec, SymbolPolynomial.laplacian(3), shape, box, phis,
            lambda t: np.cos(t) * np.sin(x[1]), times,
        )
        received = []
        table = kernels._time_kernels

        def spy(step, mu, t, lo, hi):
            received.append(np.broadcast(mu, t).size)
            return table(step, mu, t, lo, hi)

        monkeypatch.setattr(kernels, "_time_kernels", spy)
        solve(prob, nodes=nodes)
        distinct = np.unique(self.laplacian_grid(shape, box)).size
        groups = len(spec.roots)
        assert distinct == 32 and np.prod(shape) == 512
        # one homogeneous evaluation plus the Duhamel nodes, per output time
        assert sum(received) == len(times) * (nodes + 1) * distinct * groups

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_equal_symbols_give_bitwise_equal_modes(self, spec):
        pgrid = self.laplacian_grid((8, 8, 8), (2 * np.pi,) * 3)
        t = 0.7
        phis = [0.3 - 0.2j * r for r in range(spec.data_count)]
        hom = homogeneous_mode(spec, pgrid, phis, t)
        inh = inhomogeneous_mode(spec, pgrid, np.cos, t, nodes=24, measure=TAU_PRIME_MEASURE)
        _, first, index = np.unique(pgrid, return_index=True, return_inverse=True)
        assert first.size < pgrid.size
        for out in (hom, inh):
            # every mode equals the first mode with its symbol value
            assert np.array_equal(out.ravel(), out.ravel()[first][index.ravel()])
        # the gathered kernel table is bitwise the full grid's
        lag = np.array([0.1, 0.45, 0.7]).reshape(-1, 1, 1, 1)
        full = _kernel(spec, pgrid, lag, (0, 1, 2), TAU_PRIME_MEASURE)
        values, gather = kernels._distinct(pgrid)
        fewer = _kernel(spec, values, lag.reshape(-1, 1), (0, 1, 2), TAU_PRIME_MEASURE)
        for a, b in zip(full, fewer):
            assert np.array_equal(a, gather(b))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_matches_per_mode_calls(self, spec):
        # off a 2 pi box, rounding leaves fewer exact duplicates of p
        shape, box = (6, 5, 4), (1.0, 2.3, 3.7)
        pgrid = self.laplacian_grid(shape, box)
        rng = np.random.default_rng(61)
        phis = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
                for _ in range(spec.data_count)]
        weights = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coefficients = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)]

        def profiles(tau):
            return np.array([np.cos(tau), np.exp(-tau), 1 + tau * tau])

        t = 0.3
        hom = homogeneous_mode(spec, pgrid, phis, t)
        inh = inhomogeneous_mode(spec, pgrid, lambda tau: np.cos(tau) * weights, t, nodes=16,
                                 measure=TAU_PRIME_MEASURE)
        sep = inhomogeneous_mode(spec, pgrid, None, t, nodes=16, measure=TAU_PRIME_MEASURE,
                                 separable=(profiles, coefficients))
        ref_h, ref_i, ref_s = (np.zeros(shape, complex) for _ in range(3))
        for i in np.ndindex(shape):
            p = complex(pgrid[i])
            ref_h[i] = homogeneous_mode(spec, p, [phi[i] for phi in phis], t)
            ref_i[i] = inhomogeneous_mode(spec, p, lambda tau: np.cos(tau) * weights[i], t,
                                          nodes=16, measure=TAU_PRIME_MEASURE)
            ref_s[i] = inhomogeneous_mode(spec, p, None, t, nodes=16, measure=TAU_PRIME_MEASURE,
                                          separable=(profiles, [c[i] for c in coefficients]))
        # a mode's value does not depend on the other modes of the call
        assert np.array_equal(hom, ref_h)
        assert np.array_equal(inh, ref_i)
        assert np.array_equal(sep, ref_s)

    def test_scalar_symbol_returns_complex(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        assert type(homogeneous_mode(spec, -1.0, [1.0, 0.0], 0.5)) is complex
        assert type(inhomogeneous_mode(spec, -1.0, np.cos, 0.5)) is complex


class TestStiffGrid:
    """Every mode of a 256-point grid against the oracle, for white-noise data.

    The top modes are stiff (|p| t up to 8e3); a quadrature of the kernels
    misses them by up to 1e3 at 64 nodes.
    """

    N, T = 256, 0.5
    # forcing cos(2t) sin(x) + exp(-t) cos(3x): mode index -> fhat(tau)
    FORCED = {1: lambda tau: -0.5j * np.cos(2 * tau), 3: lambda tau: 0.5 * np.exp(-tau)}

    @staticmethod
    def forcing(x, t):
        return np.cos(2 * t) * np.sin(x) + np.exp(-t) * np.cos(3 * x)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_every_mode_matches_oracle(self, kind):
        spec = {
            Kind.FIRST_ORDER_PRODUCT: CharacteristicSpec.first_order_product(roots=[1, 2, 3]),
            Kind.EVEN_ORDER_PRODUCT: CharacteristicSpec.even_order_product([1, 1.5, 2]),
            Kind.REPEATED_ROOT: CharacteristicSpec.repeated_root(3),
        }[kind]
        shape, box = (self.N,), (2 * np.pi,)
        rng = np.random.default_rng(71)
        phis = tuple(
            Field(shape, box, rng.normal(size=shape).astype(complex))
            for _ in range(spec.data_count)
        )
        phihat = np.array([np.fft.fft(f.data) / self.N for f in phis])
        # real data and forcing: mode -n is the conjugate of mode n
        half = self.N // 2 + 1
        free = np.array([
            mode_ode_solve(spec, -float(n * n), phihat[:, n], None, self.T) for n in range(half)
        ])
        forced = free.copy()
        for n, fhat in self.FORCED.items():
            forced[n] = mode_ode_solve(spec, -float(n * n), phihat[:, n], fhat, self.T)
        x = mesh(shape, box)[0]
        for forcing, ref in ((None, free), (lambda t: self.forcing(x, t), forced)):
            prob = CauchyProblem(
                spec, SymbolPolynomial.laplacian(1), shape, box, phis, forcing, (self.T,),
                measure="tau_prime",
            )
            uhat = np.fft.fft(solve(prob)[0][0][1].data) / self.N
            expect = np.concatenate([ref, np.conj(ref[1 : self.N - half + 1][::-1])])
            err = np.max(np.abs(uhat - expect)) / np.max(np.abs(expect))
            assert err <= 1e-8, err
