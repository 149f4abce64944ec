import mpmath
import numpy as np
import pytest

from opcauchy.kernels import (
    OVERFLOW_LIMIT,
    SERIES_RADIUS,
    _divided_differences,
    _sat_exp,
    _Shape,
    sinhc_sqrt,
    stability_report,
)
from opcauchy.multiplier import Field, apply_multiplier, from_spectral, mesh, to_spectral
from opcauchy.symbol_poly import CharacteristicSpec, symbol_grid, wavevectors

from helpers import derivative, laplacian


def sampled_field(shape, box, fn):
    """The Field of ``fn`` on the grid: fn takes the axes of ``mesh``, its
    value is broadcast to the grid."""
    data = np.broadcast_to(fn(*mesh(shape, box)), tuple(shape)).astype(complex)
    return Field(tuple(shape), tuple(box), data)


def cosh_sqrt(z):
    """cosh(sqrt(z)) = d/dt [t sinhc_sqrt(t^2 z)] at t = 1: the first
    derivative of the kernel of the shape +-1."""
    shape = _Shape(2, ((1 + 0j, 1),))
    return complex(_divided_differences(shape, np.atleast_1d(complex(z)), 1.0, (1,))[0][0])


def exp_prop(t, a, p):
    """exp(t a p): the kernel of the single node a."""
    modes = np.atleast_1d(np.asarray(p, dtype=complex))
    out = _divided_differences(_Shape(1, ((complex(a), 1),)), modes, t, (0,))[0]
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
        # values straddling |z| = SERIES_RADIUS^2, where the kernel switches
        # from its series to the residue sum, and two radii inside, agree
        # with the series oracle to full precision
        rng = np.random.default_rng(3)
        for radius in (0.25, 1.0, SERIES_RADIUS**2):
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
    def test_mesh_and_wavevectors_are_broadcast_axes(self):
        shape, box = (4, 6, 8), (1.0, 2.0, 3.0)
        for axes in (mesh(shape, box), wavevectors(shape)):
            assert [a.shape for a in axes] == [(4, 1, 1), (1, 6, 1), (1, 1, 8)]
        assert np.array_equal(mesh(shape, box)[1].ravel(), 2.0 * np.arange(6) / 6)
        assert np.array_equal(wavevectors(shape)[2].ravel(), [0, 1, 2, 3, -4, -3, -2, -1])

    @pytest.mark.parametrize("shape", [(6, 5, 4), (8, 8, 8), (256,)])
    def test_fft_of_real_samples_is_bitwise_that_of_complex_ones(self, shape):
        # real fields are transformed as they are, not made complex first
        x = np.random.default_rng(8).normal(size=shape)
        assert np.fft.fftn(x).tobytes() == np.fft.fftn(x.astype(complex)).tobytes()

    @pytest.mark.parametrize("shape,box,data,message", [
        ((4, 4), (1.0, 1.0), np.zeros((4, 3)), "data shape does not match grid shape"),
        ((1, 4), (1.0, 1.0), np.zeros((1, 4)), "grid must have at least 2 points per axis"),
        ((4,), (np.inf,), np.zeros(4), "box lengths must be positive and finite"),
    ], ids=["data", "points", "box"])
    def test_invalid_field_messages(self, shape, box, data, message):
        with pytest.raises(ValueError, match=f"^{message}$") as caught:
            Field(shape, box, data)
        assert type(caught.value) is ValueError

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        shape, box = (16, 12), (2 * np.pi, 3.0)
        u = Field(shape, box, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        back = from_spectral(to_spectral(u.data))
        assert np.max(np.abs(back - u.data)) < 1e-12 * np.max(np.abs(u.data))


class TestApplyMultiplier:
    def test_identity_multiplier(self):
        rng = np.random.default_rng(7)
        shape, box = (32,), (2 * np.pi,)
        u = Field(shape, box, rng.normal(size=shape).astype(complex))
        out = apply_multiplier(u, lambda p: np.ones_like(p), laplacian(1))
        assert np.max(np.abs(out.data - u.data)) < 1e-12

    def test_single_mode_heat_decay(self):
        shape, box = (32,), (2 * np.pi,)
        x = mesh(shape, box)[0]
        u = Field(shape, box, np.exp(1j * x))
        t = 0.7
        out = apply_multiplier(
            u, lambda p: exp_prop(t, 1.0, p), derivative(1, 0, 2)
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
            derivative(1, 0, 2),
        )
        expect = np.sin(2 * t) / 2 * np.sin(2 * x)
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        shape, box = (24,), (2 * np.pi,)
        u = Field(shape, box, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        P = derivative(1, 0, 2)
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
        P = derivative(1, 0, 2)
        t = 1.0
        out = apply_multiplier(u, lambda p: exp_prop(t, -1.0, p), P)
        assert np.isfinite(out.data).all()  # growing modes saturate, not inf
        # the stability report of the same symbol grid names the flagged modes
        spec = CharacteristicSpec.first_order_product(roots=[-1])
        flagged = stability_report(spec, symbol_grid(P, shape, box), t, 0).overflowed
        assert flagged  # -p(k) is large positive for high k
        assert all(isinstance(k, tuple) for k in flagged)

    def test_flagged_modes_in_3d_match_brute_force(self):
        # an asymmetric grid in a tiny box: each axis's wavevectors differ
        shape, box = (4, 6, 8), (0.05, 0.07, 0.09)
        P = laplacian(3)
        pgrid = symbol_grid(P, shape, box)
        spec = CharacteristicSpec.first_order_product(roots=[-1])  # backward heat
        t = 700 / 5e4
        flagged = stability_report(spec, pgrid, t, 0).overflowed
        brute = tuple(
            tuple(int(np.fft.fftfreq(n, 1 / n)[i]) for n, i in zip(shape, index))
            for index in np.ndindex(*shape)
            if np.real(-pgrid[index]) * t > OVERFLOW_LIMIT
        )
        assert 0 < len(brute) < np.prod(shape)
        assert flagged == brute
