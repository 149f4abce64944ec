import mpmath
import numpy as np
import pytest

from opcauchy.kernels import _sat_exp, _time_kernels, sinhc_sqrt, stability_report
from opcauchy.multiplier import Field, apply_multiplier, from_spectral, mesh, to_spectral
from opcauchy.symbol_poly import CharacteristicSpec, SymbolPolynomial, symbol_grid


def cosh_sqrt(z):
    """cosh(sqrt(z)) = sigma_-1(z) from the kernel table."""
    return complex(_time_kernels(2, np.atleast_1d(complex(z)), 1.0, -1, -1)[-1][0])


def exp_prop(t, a, p):
    """exp(t a p) = phi_0(a p t) from the kernel table."""
    out = _time_kernels(1, a * np.atleast_1d(np.asarray(p, dtype=complex)), t, 0, 0)[0]
    return out if np.ndim(p) else complex(out[0])


def sinhc_sqrt_series(z, terms=40):
    """High-precision Taylor oracle for sinh(sqrt(z))/sqrt(z)."""
    with mpmath.workdps(50):
        z = mpmath.mpmathify(z)
        total = mpmath.mpf(0)
        for k in range(terms):
            total += z**k / mpmath.factorial(2 * k + 1)
        return complex(total)


def cosh_sqrt_series(z, terms=40):
    with mpmath.workdps(50):
        z = mpmath.mpmathify(z)
        total = mpmath.mpf(0)
        for k in range(terms):
            total += z**k / mpmath.factorial(2 * k)
        return complex(total)


class TestScalarFunctions:
    def test_sinhc_at_zero(self):
        assert sinhc_sqrt(0) == pytest.approx(1)

    def test_sinhc_oscillatory_zero(self):
        assert abs(sinhc_sqrt(-np.pi**2)) < 1e-15

    def test_sinhc_at_one(self):
        assert sinhc_sqrt(1.0) == pytest.approx(1.1752011936438014, abs=1e-15)
        assert sinhc_sqrt(1.0) == pytest.approx(sinhc_sqrt_series(1.0), abs=1e-15)

    def test_cosh_at_zero(self):
        assert cosh_sqrt(0) == pytest.approx(1)

    def test_cosh_oscillatory(self):
        assert cosh_sqrt(-np.pi**2) == pytest.approx(-1)

    def test_cosh_at_four(self):
        assert cosh_sqrt(4.0) == pytest.approx(3.7621956910836314, abs=1e-15)
        assert cosh_sqrt(4.0) == pytest.approx(cosh_sqrt_series(4.0), abs=1e-15)

    def test_series_closed_form_continuity(self):
        # values straddling |z| = 0.25 and |z| = 1, where the kernel table
        # switches from its series to the closed form, agree to full precision
        rng = np.random.default_rng(3)
        for radius in (0.25, 1.0):
            for _ in range(50):
                angle = rng.uniform(0, 2 * np.pi)
                z_in = radius * (1 - 4e-7) * np.exp(1j * angle)
                z_out = radius * (1 + 4e-7) * np.exp(1j * angle)
                for f, oracle in (
                    (sinhc_sqrt, sinhc_sqrt_series), (cosh_sqrt, cosh_sqrt_series)
                ):
                    for z in (z_in, z_out):
                        assert abs(f(z) - oracle(z)) < 1e-13 * abs(oracle(z))

    def test_branch_independence(self):
        # the functions are even in sqrt(z): conjugating the argument path
        # (which flips the principal root across the cut) changes nothing
        rng = np.random.default_rng(4)
        for _ in range(30):
            z = rng.normal(size=2) @ np.array([1, 1j]) * 3
            w = np.sqrt(complex(z))
            direct = sinhc_sqrt(z)
            assert np.sinh(w) / w == pytest.approx(direct, rel=1e-13)
            assert np.sinh(-w) / (-w) == pytest.approx(direct, rel=1e-13)

    def test_time_derivative_identity(self):
        # d/dt [t sinhc(t^2 p)] = cosh_sqrt(t^2 p)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            p = complex(rng.normal(), rng.normal()) * 2
            t = rng.uniform(0.3, 1.5)
            fd = (
                (t + h) * sinhc_sqrt((t + h) ** 2 * p)
                - (t - h) * sinhc_sqrt((t - h) ** 2 * p)
            ) / (2 * h)
            exact = cosh_sqrt(t * t * p)
            assert abs(fd - exact) < 1e-7 * (1 + abs(exact))

    def test_exp_prop(self):
        assert exp_prop(0.0, 2.0, 5.0) == pytest.approx(1)
        assert exp_prop(1.0, 1.0, -1.0) == pytest.approx(0.36787944117144233)
        val = exp_prop(2.0, 1 + 1j, 1j)
        assert abs(val) == pytest.approx(np.exp(-2))

    def test_exp_overflow_saturates(self):
        assert np.isfinite(_sat_exp(800.0))

    def test_vectorized(self):
        z = np.array([[0.0, 1.0], [-np.pi**2, 4.0]])
        out = sinhc_sqrt(z)
        assert out.shape == z.shape
        assert out[0, 0] == pytest.approx(1)


class TestFieldTransforms:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        shape, box = (16, 12), (2 * np.pi, 3.0)
        u = Field(shape, box, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        back = from_spectral(to_spectral(u))
        assert np.max(np.abs(back.data - u.data)) < 1e-12 * np.max(np.abs(u.data))


class TestApplyMultiplier:
    def test_identity_multiplier(self):
        rng = np.random.default_rng(7)
        shape, box = (32,), (2 * np.pi,)
        u = Field(shape, box, rng.normal(size=shape).astype(complex))
        out = apply_multiplier(u, lambda p: np.ones_like(p), SymbolPolynomial.laplacian(1))
        assert np.max(np.abs(out.data - u.data)) < 1e-12

    def test_single_mode_heat_decay(self):
        shape, box = (32,), (2 * np.pi,)
        x = mesh(shape, box)[0]
        u = Field(shape, box, np.exp(1j * x))
        t = 0.7
        out = apply_multiplier(
            u, lambda p: exp_prop(t, 1.0, p), SymbolPolynomial.derivative(1, 0, 2)
        )
        assert np.max(np.abs(out.data - np.exp(-t) * np.exp(1j * x))) < 1e-12

    def test_dalembert_single_mode(self):
        shape, box = (32,), (2 * np.pi,)
        x = mesh(shape, box)[0]
        u = Field(shape, box, np.sin(2 * x).astype(complex))
        t = 0.9
        out = apply_multiplier(
            u,
            lambda p: t * sinhc_sqrt(t * t * p),
            SymbolPolynomial.derivative(1, 0, 2),
        )
        expect = np.sin(2 * t) / 2 * np.sin(2 * x)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        shape, box = (24,), (2 * np.pi,)
        u = Field(shape, box, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        P = SymbolPolynomial.derivative(1, 0, 2)
        t1, t2 = 0.3, 0.45
        step = apply_multiplier(
            apply_multiplier(u, lambda p: exp_prop(t1, 1.0, p), P),
            lambda p: exp_prop(t2, 1.0, p),
            P,
        )
        direct = apply_multiplier(u, lambda p: exp_prop(t1 + t2, 1.0, p), P)
        assert np.max(np.abs(step.data - direct.data)) < 1e-10 * np.max(np.abs(direct.data))

    def test_overflow_flags_carry_wavevectors(self):
        shape, box = (16,), (0.05,)  # tiny box: huge symbols
        rng = np.random.default_rng(9)
        u = Field(shape, box, rng.normal(size=shape).astype(complex))
        P = SymbolPolynomial.derivative(1, 0, 2)
        t = 1.0
        out = apply_multiplier(u, lambda p: exp_prop(t, -1.0, p), P)
        assert np.isfinite(out.data).all()  # growing modes saturate, not inf
        # the stability report of the same symbol grid names the flagged modes
        spec = CharacteristicSpec.first_order_product(roots=[-1])
        flagged = stability_report(spec, symbol_grid(P, shape, box), shape, t, 0).overflowed
        assert flagged  # -p(k) is large positive for high k
        assert all(isinstance(k, tuple) for k in flagged)
