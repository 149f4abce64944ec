import numpy as np
import pytest

from opcauchy.kernels import sinhc_sqrt
from opcauchy.multiplier import Field, apply_multiplier, mesh
from opcauchy.spherical import (
    FULL_SOLID_ANGLE,
    SphereQuadrature,
    sinhc_spherical,
)

from helpers import laplacian
from test_multiplier import sampled_field

BOX3 = (2 * np.pi,) * 3


def band_limited_field(shape, kmax, seed):
    """Random real field with wavenumbers bounded by kmax in each axis."""
    rng = np.random.default_rng(seed)
    x, y, z = mesh(shape, BOX3)
    data = np.zeros(shape)
    for _ in range(12):
        k = rng.integers(-kmax, kmax + 1, size=3)
        amp, phase = rng.normal(), rng.uniform(0, 2 * np.pi)
        data += amp * np.cos(k[0] * x + k[1] * y + k[2] * z + phase)
    return Field(shape, BOX3, data.astype(complex))


class TestQuadrature:
    def test_weights_sum_to_solid_angle(self):
        for order in (3, 11, 29):
            q = SphereQuadrature.gauss_product(order)
            assert q.weights.sum() == pytest.approx(FULL_SOLID_ANGLE, rel=1e-13)
            assert np.all(q.weights > 0)

    def test_nodes_on_unit_sphere(self):
        q = SphereQuadrature.gauss_product(15)
        norms = np.linalg.norm(q.nodes, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-13

    def test_monomial_integrals(self):
        # odd-degree monomials vanish; int x^2 dS = int z^2 dS = 4 pi / 3,
        # int x^2 z^2 dS = 4 pi / 15
        q = SphereQuadrature.gauss_product(9)
        x, y, z = q.nodes.T
        for odd in (x, y, z, x * y, x * z * z, x * y * z):
            assert abs(np.sum(q.weights * odd)) < 1e-12
        for sq in (x * x, y * y, z * z):
            assert np.sum(q.weights * sq) == pytest.approx(FULL_SOLID_ANGLE / 3)
        assert np.sum(q.weights * x * x * z * z) == pytest.approx(
            FULL_SOLID_ANGLE / 15
        )

    def test_plane_wave_integral(self):
        # int exp(i k . s) dS = 4 pi sinc(|k|); high order nails it
        q = SphereQuadrature.gauss_product(29)
        k = np.array([1.3, -0.7, 2.1])
        val = np.sum(q.weights * np.exp(1j * q.nodes @ k))
        exact = FULL_SOLID_ANGLE * np.sinc(np.linalg.norm(k) / np.pi)
        assert abs(val - exact) < 1e-12

    def test_bad_weights_rejected(self):
        q = SphereQuadrature.gauss_product(5)
        with pytest.raises(ValueError):
            SphereQuadrature(q.nodes, -q.weights)
        with pytest.raises(ValueError):
            SphereQuadrature(q.nodes, 0.5 * q.weights)


class TestSinhcSpherical:
    def test_constant_field_gives_t(self):
        shape = (8, 8, 8)
        u = Field(shape, BOX3, np.ones(shape, dtype=complex))
        q = SphereQuadrature.gauss_product(9)
        out = sinhc_spherical(u, 1.5, 0.6, q)
        assert np.max(np.abs(out.data - 0.6)) < 1e-12

    def test_single_mode_wave(self):
        # for u = cos(x), a = 1: t * mean_{|s|=t} cos(x + s_1) = sin(t) cos(x)
        shape = (16, 16, 16)
        u = sampled_field(shape, BOX3, lambda x, y, z: np.cos(x))
        q = SphereQuadrature.gauss_product(25)
        t = 0.9
        out = sinhc_spherical(u, 1.0, t, q)
        x = mesh(shape, BOX3)[0]
        assert np.max(np.abs(out.data - np.sin(t) * np.cos(x))) < 1e-10

    def test_matches_spectral_multiplier(self):
        shape = (32, 32, 32)
        u = band_limited_field(shape, 5, seed=21)
        q = SphereQuadrature.gauss_product(29)
        lap = laplacian(3)
        for a, t in ((1.0, 0.5), (2.0, 0.5), (1.0, 1.0)):
            integral = sinhc_spherical(u, a, t, q)
            spectral = apply_multiplier(
                u, lambda p: t * sinhc_sqrt(t * t * a * a * p), lap
            )
            num = np.linalg.norm(integral.data - spectral.data)
            den = np.linalg.norm(spectral.data)
            assert num / den < 1e-3

    def test_linearity(self):
        shape = (16, 16, 16)
        u = band_limited_field(shape, 3, seed=22)
        v = band_limited_field(shape, 3, seed=23)
        q = SphereQuadrature.gauss_product(15)
        a, t = 1.3, 0.7
        combo = Field(shape, BOX3, 2.0 * u.data - 0.5 * v.data)
        lhs = sinhc_spherical(combo, a, t, q)
        rhs = 2.0 * sinhc_spherical(u, a, t, q).data - 0.5 * sinhc_spherical(
            v, a, t, q
        ).data
        assert np.max(np.abs(lhs.data - rhs)) < 1e-11

    def test_rejects_bad_parameters(self):
        shape = (8, 8, 8)
        u = Field(shape, BOX3, np.zeros(shape, dtype=complex))
        q = SphereQuadrature.gauss_product(5)
        with pytest.raises(ValueError):
            sinhc_spherical(u, -1.0, 0.5, q)
        with pytest.raises(ValueError):
            sinhc_spherical(u, 1.0, -0.5, q)
        flat = Field((8, 8), (2 * np.pi, 2 * np.pi), np.zeros((8, 8), dtype=complex))
        with pytest.raises(ValueError, match="3-D"):
            sinhc_spherical(flat, 1.0, 0.5, q)
