import re
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import mpmath
import numpy as np
import pytest

from opcauchy import kernels
from opcauchy.errors import UnresolvedKernel
from opcauchy.kernels import (
    PLAIN_MEASURE,
    SERIES_RADIUS,
    TAU_PRIME_MEASURE,
    CauchyProblem,
    homogeneous_mode,
    inhomogeneous_mode,
    solve,
    _constants,
    _divided_differences,
    _kernel,
    _plain_numerator,
    _Shape,
    _shape,
)
from opcauchy.multiplier import Field, mesh
from opcauchy.oracle import PROBE_SAMPLES, fd_weights, kernel_discrepancy_probe, mode_ode_solve
from opcauchy.quadrature import gauss_rule
from opcauchy.symbol_poly import CharacteristicSpec, Kind, symbol_grid

from helpers import derivative, laplacian, zero_field
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


class TestRestSum:
    """The rest of the forcing against a node-by-node Duhamel sum, bit for bit."""

    SPEC = CharacteristicSpec.repeated_root(3)

    @staticmethod
    def node_by_node(spec, p, fhat, t, nodes):
        """sum_i G(t - tau_i) w_i fhat(tau_i) / b_m, added one node at a time."""
        modes = np.atleast_1d(np.asarray(p, dtype=complex))
        values, index = np.unique(modes.ravel(), return_inverse=True)
        tau, w = gauss_rule(nodes, t)
        table = _kernel(spec, values, (t - tau)[:, None], (0,), TAU_PRIME_MEASURE)[0]
        total = np.zeros(modes.shape, dtype=complex)
        for i, row in enumerate(table):
            total += row[index.reshape(modes.shape)] * (w[i] * fhat(tau[i]))
        return total / spec.lead

    def check(self, p, rest, t, nodes):
        calls = []

        def fhat(tau):
            calls.append(tau)
            return rest(tau)

        got = inhomogeneous_mode(self.SPEC, p, fhat, t, nodes, TAU_PRIME_MEASURE)
        # one call per node, in node order
        assert np.array_equal(calls, gauss_rule(nodes, t)[0])
        want = self.node_by_node(self.SPEC, p, rest, t, nodes)
        assert np.array_equal(np.atleast_1d(got), want)

    @pytest.mark.parametrize("rest", [np.cos, lambda tau: np.exp(1j * tau) * (1 + tau)],
                             ids=["real", "complex"])
    def test_scalar_symbol(self, rest):
        self.check(-2.3 + 0.7j, rest, 0.8, 96)

    def test_grid_over_three_table_batches(self):
        shape, box = (256,), (2 * np.pi,)
        pgrid = symbol_grid(derivative(1, 0, 2), shape, box)
        distinct = np.unique(pgrid).size
        # 129 distinct p: table batches of 31 nodes, so 64 nodes take three
        assert distinct == 129 and kernels._DUHAMEL_BATCH // distinct == 31
        rng = np.random.default_rng(17)
        a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        self.check(pgrid, lambda tau: np.cos(3 * tau) * a + tau * b, 0.5, 64)

    def test_rest_that_returns_a_number(self):
        pgrid = symbol_grid(derivative(1, 0, 2), (256,), (2 * np.pi,))
        self.check(pgrid, lambda tau: complex(np.cos(3 * tau), tau), 0.5, 64)

    def test_peak_memory_of_a_32_cubed_rest(self):
        # under d^2/dx1^2 alone a 32^3 grid has 17 distinct p, so one table
        # batch holds all 64 nodes; the rest is still added one node at a time
        shape, box = (32, 32, 32), (2 * np.pi,) * 3
        pgrid = symbol_grid(derivative(3, 0, 2), shape, box)
        assert np.unique(pgrid).size == 17
        rng = np.random.default_rng(5)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        spec = CharacteristicSpec.first_order_product(roots=[1.0])
        tracemalloc.start()
        try:
            inhomogeneous_mode(spec, pgrid, lambda tau: np.cos(tau) * c, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the node-by-node sum peaks at four grid arrays and the gather's index
        assert peak <= 2399824


class TestProfileSum:
    """The time profiles of the forcing against a node-by-node Duhamel sum,
    bit for bit."""

    SPEC = CharacteristicSpec.repeated_root(3)

    @staticmethod
    def node_by_node(spec, p, profiles, coefficients, t, nodes):
        """sum_j c_j sum_i G(t - tau_i) w_i g_j(tau_i) / b_m, each W_j added
        one node at a time."""
        modes = np.atleast_1d(np.asarray(p, dtype=complex))
        values, index = np.unique(modes.ravel(), return_inverse=True)
        tau, w = gauss_rule(nodes, t)
        table = _kernel(spec, values, (t - tau)[:, None], (0,), TAU_PRIME_MEASURE)[0]
        weighted = w * profiles(tau)
        W = np.zeros((len(coefficients), values.size), dtype=complex)
        for i, row in enumerate(table):
            W += weighted[:, i, None] * row
        total = np.zeros(modes.shape, dtype=complex)
        for Wj, c in zip(W, coefficients):
            total += Wj[index.reshape(modes.shape)] * c
        return total / spec.lead

    def test_grid_over_three_table_batches(self):
        shape, box = (256,), (2 * np.pi,)
        pgrid = symbol_grid(derivative(1, 0, 2), shape, box)
        distinct = np.unique(pgrid).size
        # 129 distinct p: table batches of 31 nodes, so 64 nodes take three
        assert distinct == 129 and kernels._DUHAMEL_BATCH // distinct == 31
        rng = np.random.default_rng(19)
        coefficients = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)]

        def profiles(tau):
            return np.array([np.cos(3 * tau), np.exp(1j * tau) * (1 + tau), tau * tau])

        separable = (profiles, coefficients)
        got = inhomogeneous_mode(self.SPEC, pgrid, None, 0.5, 64, TAU_PRIME_MEASURE, separable)
        want = self.node_by_node(self.SPEC, pgrid, profiles, coefficients, 0.5, 64)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 3])
    def test_probe_profile_equals_the_rest_sum(self, monkeypatch, m):
        # the samples of --mode probe --seed 0, which draws seed m for order m
        calls = []

        def spy(*args):
            calls.append(args)
            return inhomogeneous_mode(*args)

        monkeypatch.setattr(kernels, "inhomogeneous_mode", spy)
        kernel_discrepancy_probe(m, seed=m)
        assert len(calls) == 2 * PROBE_SAMPLES
        assert {args[5] for args in calls} == {PLAIN_MEASURE, TAU_PRIME_MEASURE}
        for spec, p, fhat, t, nodes, measure, separable in calls:
            profiles, coefficients = separable
            assert fhat is None and coefficients == (1.0,)
            got = inhomogeneous_mode(spec, p, None, t, nodes, measure, separable)
            # the same callable at one node at a time, as the rest
            want = inhomogeneous_mode(spec, p, lambda tau: profiles(tau)[0], t, nodes, measure)
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


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
    """phi_k (s = 1) and sigma_k (s = 2) against mpmath, from the evaluator.

    T_k(t; z) = t^(k+s-1) f_k(z t^s) is the kernel of the nodes 0 (k times)
    and 1 (s = 1) or +-1 (s = 2), and T_(k-d) is its d-th time derivative.
    """

    @staticmethod
    def table(step, z, lo, hi):
        """{k: T_k(1; z) = f_k(z)} for k in [lo, hi]."""
        shape = _Shape(step, ((0j, hi), (1 + 0j, 1)))
        derivs = _divided_differences(shape, np.asarray(z, dtype=complex), 1.0, range(hi - lo + 1))
        return {hi - d: g for d, g in enumerate(derivs)}

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
        # the series covers |tau| max|sigma| = |z|^(1/s) up to the radius of
        # the hi + s nodes
        angles = np.linspace(0, 2 * np.pi, 7, endpoint=False)
        for hi in range(1, 9):
            switch = max(SERIES_RADIUS, (hi + step - 1) / 2) ** step
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
        # of the call, and a value beyond the switch leaves the others alone
        rng = np.random.default_rng(5)
        small = 0.1 * rng.random(8) * np.exp(2j * np.pi * rng.random(8))
        lo = -step
        for hi in (3, 4, 6):
            edge = 0.99 * max(SERIES_RADIUS, (hi + step - 1) / 2) ** step
            mixed = self.table(step, np.append(small, [edge, 4 * edge]), lo, hi)
            for i, z in enumerate(small):
                alone = self.table(step, [z], lo, hi)
                for k in range(lo, hi + 1):
                    assert alone[k][0] == mixed[k][i], (hi, k, z)

    @pytest.mark.parametrize("step", [1, 2])
    def test_one_value_calls_equal_a_many_value_call(self, step):
        # bitwise, inside the series disc and outside it
        rng = np.random.default_rng(7)
        z = 30.0 ** (step * rng.random(250)) * np.exp(2j * np.pi * rng.random(250))
        lo, hi = -3, 8
        many = self.table(step, z, lo, hi)
        for i, zi in enumerate(z):
            one = self.table(step, [zi], lo, hi)
            for k in range(lo, hi + 1):
                assert np.array_equal(one[k], many[k][i : i + 1]), (k, zi)

    def test_cached_series_coefficients_cannot_be_changed(self):
        # every call of one (shape, order) shares the cached constants, all tuples
        shape = _shape(CharacteristicSpec.repeated_root(3), PLAIN_MEASURE)
        constants = _constants(shape, 2)
        assert _constants(shape, 2) is constants

        def frozen(value):
            if isinstance(value, tuple):
                return all(frozen(v) for v in value)
            return isinstance(value, (int, float, complex))

        assert frozen(constants)

    @staticmethod
    def reference_constants(shape, d):
        """``_constants`` with h_n and their bounds built for order ``d`` alone."""
        nodes, numerator, s = shape.all_nodes, shape.numerator, shape.step
        q, D = sum(k for _, k in nodes), len(numerator) - 1
        e = q - 1 - D - d
        j0 = -(-max(0, -e) // s) * s
        h, bound = [1.0] + [0.0] * (128 + j0), [1.0] + [0.0] * (128 + j0)
        for sigma, k in nodes:
            for _ in range(k):
                for n in range(1, len(h)):
                    h[n] += sigma * h[n - 1]
                    bound[n] += abs(sigma) * bound[n - 1]
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
        residues = sum((kernels._residue(nodes, numerator, d, x, k) for x, k in nodes), ())
        return radius / reach, (j0, e, tuple(series)), (d + D - q + 1, residues)

    @pytest.mark.parametrize("spec,measure", [
        (CharacteristicSpec.first_order_product(roots=[1, 2, 3]), TAU_PRIME_MEASURE),
        (CharacteristicSpec.even_order_product(roots=[1, 1.5, 2]), TAU_PRIME_MEASURE),
        *((CharacteristicSpec.repeated_root(m), measure)
          for m in range(2, 6) for measure in (TAU_PRIME_MEASURE, PLAIN_MEASURE)),
    ])
    def test_constants_from_one_table_per_shape(self, spec, measure):
        # the shape's table is shared by its orders, high order first and
        # last, and by an order whose j0 needs a longer one; every constant
        # is bitwise that of a table built for the order alone
        shape = _shape(spec, measure)
        for d in [2 * spec.m, *range(2 * spec.m + 1), 40]:
            got = _constants.__wrapped__(shape, d)
            assert repr(got) == repr(self.reference_constants(shape, d)), d

    @pytest.mark.parametrize("step", [1, 2])
    def test_origin(self, step):
        table = self.table(step, [0.0], 1 - step, 6)
        for k in range(1 - step, 7):
            assert table[k][0] == pytest.approx(1 / factorial(k + step - 1), rel=1e-15)


class TestRepeatedRootWeights:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_tau_prime_is_the_impulse_response_series(self, m):
        # G = sum_i C(m-1+i, i) p^i t^(2m-1+2i) / (2m-1+2i)!, the inverse
        # Laplace transform of (s^2 - p)^-m, coefficient by coefficient: the
        # series of the nodes +-1, m times each, with N = 1
        shape = _shape(CharacteristicSpec.repeated_root(m), TAU_PRIME_MEASURE)
        assert shape.numerator == (1.0,)
        _, (j0, e, series), _ = _constants(shape, 0)
        assert (j0, e) == (0, 2 * m - 1) and len(series) > 8
        for i, c in enumerate(series):
            assert c == pytest.approx(comb(m - 1 + i, i) / factorial(2 * m - 1 + 2 * i), rel=5e-16)

    def test_published_weights(self):
        # the plain measure's numerators, ascending: r_l is the x^l
        # coefficient of (1-x)^(m-1) sum_i (2m-2+2i)! g_i x^i for the exact
        # coefficients g_i of the nested integral's series
        assert _plain_numerator(2) == (0.5,)
        assert _plain_numerator(3) == (-1 / 8, 0.0, 3 / 8)
        assert _plain_numerator(4) == (1 / 16, 0.0, -5 / 24, 0.0, 5 / 16)
        for m in range(2, 7):
            denom = 2 ** (2 * m - 3) * factorial(m - 1) * factorial(m - 2)
            A = [
                factorial(2 * m - 2 + 2 * i) * sum(
                    Fraction(comb(m - 2, l) * (-1) ** l, 2 * l + 2 * i + 2) for l in range(m - 1)
                ) / (factorial(2 * i + 1) * denom)
                for i in range(m - 1)
            ]
            r = [sum((-1) ** k * comb(m - 1, k) * A[l - k] for k in range(l + 1))
                 for l in range(m - 1)]
            assert _plain_numerator(m)[::-2] == tuple(float(rl) for rl in r)

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

    def test_zero_datum_of_a_scalar_call_is_summed_as_in_a_grid_call(self):
        # b_1 p G(t) overflows at p = 1e308: a zero datum times it is NaN, as on a grid
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        with np.errstate(all="ignore"):
            scalar = homogeneous_mode(spec, 1e308, [0.0, 1.0], 1.0)
            grid = homogeneous_mode(spec, np.array([1e308, -1.0]), [np.zeros(2), np.ones(2)], 1.0)
        assert np.isnan(grid[0])
        np.testing.assert_array_equal(scalar, grid[0])

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
        phis = (zero_field(shape, box), zero_field(shape, box))
        prob = CauchyProblem(
            spec, laplacian(1), shape, box, phis, None, (0.5, 1.0)
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
            zero_field(shape, box),
        )
        prob = CauchyProblem(
            spec, laplacian(1), shape, box, phis, None, (1.0,)
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
            zero_field(shape, box) for _ in range(3)
        )
        prob = CauchyProblem(
            spec, laplacian(1), shape, box, phis, None, (0.5, 1.0)
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
        P = laplacian(1)

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
            spec, laplacian(1), shape, box, phis, None, (0.8,)
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
            zero_field(shape, box),
        )
        prob = CauchyProblem(
            spec, laplacian(1), shape, box, phis, None, (1.0,)
        )
        _, report = solve(prob)
        assert max(report.max_growth) > 0
        assert report.overflowed
        # flagged modes are named by their integer wavevectors
        assert all(
            isinstance(k, tuple) and len(k) == len(shape) and all(type(c) is int for c in k)
            for k in report.overflowed
        )


def problem_with(**changes):
    """A first-kind problem on a 16-point grid, with ``changes`` to its fields."""
    shape, box = (16,), (2 * np.pi,)
    fields = dict(spec=CharacteristicSpec.first_order_product(roots=[1, 2]),
                  P=derivative(1, 0, 2), shape=shape, box=box,
                  phi=(zero_field(shape, box),) * 2)
    return CauchyProblem(**{**fields, **changes})


@pytest.mark.parametrize("build,message", [
    (lambda: problem_with(phi=(zero_field((16,), (2 * np.pi,)),)),
     "kind first_order_product with m=2 needs 2 initial fields, got 1"),
    (lambda: problem_with(phi=(zero_field((8,), (2 * np.pi,)),) * 2),
     "all initial fields must share the problem grid"),
    (lambda: problem_with(measure="exact"), "unknown measure 'exact'"),
    (lambda: problem_with(time_profiles=lambda t: (np.cos(t),), spatial_profiles=(np.ones(8),)),
     "all spatial profiles must be samples on the problem grid"),
    (lambda: problem_with(spatial_profiles=(np.ones(16),)),
     "spatial profiles need their time profiles"),
    (lambda: homogeneous_mode(CharacteristicSpec.first_order_product(roots=[1, 2]), -1.0,
                              [1.0], 0.5),
     "expected 2 initial coefficients"),
], ids=["field-count", "field-grid", "measure", "profile-grid", "no-time-profiles",
        "data-count"])
def test_invalid_input_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        build()
    assert type(caught.value) is ValueError


class TestRestSamples:
    """The rest of the forcing may return anything that broadcasts to the grid."""

    shape, box = (8, 8, 8), (2 * np.pi,) * 3

    def problem(self, forcing):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        phis = (zero_field(self.shape, self.box), zero_field(self.shape, self.box))
        P = laplacian(3)
        return CauchyProblem(spec, P, self.shape, self.box, phis, forcing, (0.25, 0.5))

    @pytest.mark.parametrize("rest", [
        lambda t: np.cos(t) * np.sin(2 * np.pi * np.arange(8) / 8).reshape(1, 8, 1),
        lambda t: np.cos(t),
    ], ids=["one-axis", "scalar"])
    def test_samples_are_broadcast_to_the_grid(self, rest):
        dense = self.problem(lambda t: np.broadcast_to(rest(t), self.shape).copy())
        for (_, got), (_, want) in zip(solve(self.problem(rest))[0], solve(dense)[0]):
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("bad", [(4, 8), (3, 1, 1), (2, 8, 8, 8)])
    def test_samples_off_the_grid_raise(self, bad):
        problem = self.problem(lambda t: np.full(bad, np.cos(t)))
        message = rf"forcing samples \({', '.join(map(str, bad))},?\) .* \(8, 8, 8\)"
        with pytest.raises(ValueError, match=message):
            solve(problem)


class TestDistinctSymbols:
    """The kernels are evaluated once per distinct symbol value of a grid."""

    SPECS = [
        CharacteristicSpec.first_order_product(roots=[1, 2]),
        CharacteristicSpec.even_order_product([1, 2]),
        CharacteristicSpec.repeated_root(2),
    ]

    @staticmethod
    def laplacian_grid(shape, box):
        return symbol_grid(laplacian(len(shape)), shape, box)

    def test_kernel_work_scales_with_distinct_values(self, monkeypatch):
        shape, box = (8, 8, 8), (2 * np.pi,) * 3
        x = np.broadcast_arrays(*mesh(shape, box))
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        phis = (Field(shape, box, np.sin(x[0]).astype(complex)), zero_field(shape, box))
        times, nodes = (0.25, 0.5), 16
        prob = CauchyProblem(
            spec, laplacian(3), shape, box, phis,
            lambda t: np.cos(t) * np.sin(x[1]), times,
        )
        received = []
        evaluate = kernels._divided_differences

        def spy(kernel_shape, p, t, orders):
            received.append(np.broadcast(p, t).size)
            return evaluate(kernel_shape, p, t, orders)

        monkeypatch.setattr(kernels, "_divided_differences", spy)
        solve(prob, nodes=nodes)
        distinct = np.unique(self.laplacian_grid(shape, box)).size
        assert distinct == 32 and np.prod(shape) == 512
        # one homogeneous evaluation plus the Duhamel nodes, per output time
        assert sum(received) == len(times) * (nodes + 1) * distinct

    def test_distinct_values_found_once_per_solve(self, monkeypatch):
        # solve finds the distinct symbol values once and hands them to the
        # homogeneous and the forced part at every output time
        shape, box = (8, 8, 8), (2 * np.pi,) * 3
        x = np.broadcast_arrays(*mesh(shape, box))
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        phis = (Field(shape, box, np.sin(x[0]).astype(complex)), zero_field(shape, box))
        prob = CauchyProblem(
            spec, laplacian(3), shape, box, phis,
            lambda t: np.cos(t) * np.sin(x[1]), (0.0, 0.25, 0.5),
        )
        want = [f.data for _, f in solve(prob, nodes=8)[0]]
        calls = []
        distinct = kernels._distinct
        monkeypatch.setattr(kernels, "_distinct", lambda modes: calls.append(1) or distinct(modes))
        got = [f.data for _, f in solve(prob, nodes=8)[0]]
        assert len(calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # a direct call on a grid finds them itself
        homogeneous_mode(spec, self.laplacian_grid(shape, box), [1.0, 0.0], 0.5)
        assert len(calls) == 2
        # a scalar symbol is its own one distinct value
        homogeneous_mode(spec, -3.0, [1.0, 0.0], 0.5)
        inhomogeneous_mode(spec, -3.0, np.cos, 0.5, nodes=8)
        assert len(calls) == 2

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

    @pytest.mark.parametrize("spec,measure", [
        (CharacteristicSpec.first_order_product(roots=[1, 2, 3]), TAU_PRIME_MEASURE),
        (CharacteristicSpec.even_order_product([1, 1.5, 2]), TAU_PRIME_MEASURE),
        (CharacteristicSpec.repeated_root(3), PLAIN_MEASURE),
        (CharacteristicSpec.repeated_root(3), TAU_PRIME_MEASURE),
    ], ids=["first", "even", "repeated-plain", "repeated-tau_prime"])
    def test_entries_do_not_depend_on_the_call(self, spec, measure):
        # one call over 96 sorted times against one call per time: at each
        # scale some single-time calls are all series, some all residue sum
        # and some mixed, yet every entry is bitwise the same
        shape = _shape(spec, measure)
        rng = np.random.default_rng(37)
        times = np.sort(rng.random(96))
        for scale in (0.5, 5.0, 50.0, 500.0):
            p = scale * (1 + rng.random(20)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 20))
            whole = _divided_differences(shape, p, times[:, None], (0, 1, 2))
            for i, t in enumerate(times):
                alone = _divided_differences(shape, p, float(t), (0, 1, 2))
                assert np.array_equal(whole[:, i].view(np.uint64), alone.view(np.uint64)), (
                    scale, t)

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
                spec, laplacian(1), shape, box, phis, forcing, (self.T,),
                measure="tau_prime",
            )
            uhat = np.fft.fft(solve(prob)[0][0][1].data) / self.N
            expect = np.concatenate([ref, np.conj(ref[1 : self.N - half + 1][::-1])])
            err = np.max(np.abs(uhat - expect)) / np.max(np.abs(expect))
            assert err <= 1e-8, err


def exact_kernel_derivatives(spec, p, ts, orders):
    """{(t, d): G^(d)(t)} of the mode p for t in ``ts``, d in ``orders``: the
    divided differences of z^d e^(tz) over the mode's eigenvalues at 50
    digits, from the residue sum where the eigenvalues are distinct and
    max |lambda| t > 30, else from the Taylor series sum_n t^n/n!
    h_(n+d-q+1) with the complete homogeneous polynomials h_j."""
    with mpmath.workdps(50):
        p = mpmath.mpc(p)
        if spec.step == 1:
            lam = [mpmath.mpc(a) * p for a in spec.roots]
        else:
            w = mpmath.sqrt(p)
            roots = spec.roots or (1,) * spec.m
            lam = [sign * mpmath.mpc(a) * w for a in roots for sign in (1, -1)]
        reach = max(abs(x) for x in lam) * max(ts)
        out = {}
        if spec.roots and reach > 30:
            for t, d in ((t, d) for t in ts for d in orders):
                out[t, d] = complex(mpmath.fsum(
                    x**d * mpmath.exp(t * x) / mpmath.fprod(x - y for y in lam if y is not x)
                    for x in lam
                ))
            return out
        q, size = len(lam), int(3 * reach) + 80
        h = [mpmath.mpc(1)] + [mpmath.mpc(0)] * size
        for x in lam:
            for j in range(1, size + 1):
                h[j] += x * h[j - 1]
        for t in ts:
            t = mpmath.mpf(t)
            for d in orders:
                total, power = mpmath.mpc(0), mpmath.mpf(1)  # power = t^n / n!
                for n in range(size + q - 1 - d):
                    if n + d >= q - 1:
                        total += power * h[n + d - q + 1]
                    power = power * t / (n + 1)
                out[float(t), d] = complex(total)
        return out


def exact_homogeneous(spec, p, phihat, ts):
    """{t: the assembly of ``homogeneous_mode`` on the exact kernel derivatives}."""
    s = spec.step
    pairs = [(k, r, s * k - 1 - r) for k in range(1, spec.m + 1) for r in range(s * k)]
    derivs = exact_kernel_derivatives(spec, p, ts, range(s * spec.m))
    with mpmath.workdps(50):
        return {
            t: complex(mpmath.fsum(
                mpmath.mpc(spec.b[k]) * mpmath.mpc(p) ** (spec.m - k)
                * mpmath.mpc(derivs[t, d]) * mpmath.mpc(phihat[r])
                for k, r, d in pairs
            ) / mpmath.mpc(spec.lead))
            for t in ts
        }


class TestCancellation:
    """The homogeneous part where the exact value is far below the sizes of
    the exponential-integrator terms: no polynomial parts cancel."""

    @pytest.mark.parametrize("roots,p,bound", [
        ((1, 2, 3), -100, 1e-14),
        ((1, 2, 3), -4000, 1e-14),
        ((1, 2, 3), -16129, 1e-14),
        ((1, 1.01, 2), -10, 1e-14),
        ((1, 1.01, 2), -4000, 1e-14),
        ((1, 1 + 1e-6, 2), -1, 1e-14),
        ((1, 1 + 1e-6, 2), -4000, 1e-14),
        ((1, 1 + 1e-6, 2), -10, 1e-12),
    ])
    def test_first_kind_against_a_vandermonde_solve(self, roots, p, bound):
        # u(t) = sum_j C_j e^(a_j p t) with sum_j C_j (a_j p)^r = phi_r
        spec = CharacteristicSpec.first_order_product(roots=roots)
        data, t = (1.0, 0.3, -0.2), 0.5
        with mpmath.workdps(80):
            lam = [mpmath.mpf(a) * p for a in roots]
            V = mpmath.matrix([[x**r for x in lam] for r in range(3)])
            C = mpmath.lu_solve(V, mpmath.matrix(data))
            exact = complex(mpmath.fsum(c * mpmath.exp(x * t) for c, x in zip(C, lam)))
        assert abs(homogeneous_mode(spec, p, data, t) - exact) <= bound


class TestEveryMode:
    """homogeneous_mode on p = -k^2 for every k <= 127 against the exact
    divided differences, relative to max(|u|, max_r |phi_r| e^(t max Re lambda))."""

    @pytest.mark.parametrize("spec", [
        CharacteristicSpec.first_order_product(roots=[1, 2, 3]),
        CharacteristicSpec.even_order_product([1, 1.5, 2]),
        CharacteristicSpec.repeated_root(3),
    ], ids=lambda s: s.kind.value)
    def test_matches_exact_divided_differences(self, spec):
        rng = np.random.default_rng(83)
        k = np.arange(128)
        p = -(k * k).astype(float)
        phihat = [rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
                  for _ in range(spec.data_count)]
        # Re lambda: a_j p for the first kind, 0 for the others on p <= 0
        growth = p * min(r.real for r in spec.roots) if spec.step == 1 else 0 * p
        ts = (0.1, 0.25, 0.5)
        got = {t: homogeneous_mode(spec, p, phihat, t) for t in ts}
        for n in k:
            size = max(abs(phi[n]) for phi in phihat)
            live = [t for t in ts if size * np.exp(t * growth[n]) >= 1e-290]
            if not live:
                continue
            want = exact_homogeneous(spec, p[n], [phi[n] for phi in phihat], live)
            for t in live:
                scale = max(abs(want[t]), size * np.exp(t * growth[n]))
                assert abs(got[t][n] - want[t]) <= 1e-13 * scale, (n, t)
