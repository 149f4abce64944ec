import re

import numpy as np
import pytest

from opcauchy.errors import DegenerateRoots, NonmonicZero, ZeroRoot
from opcauchy.kernels import _constants, _shape
from opcauchy.symbol_poly import (
    CharacteristicSpec,
    Kind,
    SymbolPolynomial,
    poly_from_roots,
    roots_from_coeffs,
    symbol_grid,
)

from helpers import derivative, laplacian


def random_distinct_roots(rng, m, min_gap=0.1):
    while True:
        roots = rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m)
        gaps = [
            abs(roots[i] - roots[j]) for i in range(m) for j in range(i + 1, m)
        ]
        if min(gaps) > min_gap:
            return roots


class TestRootsFromCoeffs:
    def test_quadratic(self):
        roots = roots_from_coeffs([2, -3, 1])
        assert np.allclose(sorted(r.real for r in roots), [1, 2], atol=1e-12)

    def test_double_root_rejected(self):
        with pytest.raises(DegenerateRoots):
            roots_from_coeffs([0, 0, 1])

    def test_zero_leading_coefficient(self):
        with pytest.raises(NonmonicZero):
            roots_from_coeffs([1, 2, 0])

    def test_random_quartic_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            roots = random_distinct_roots(rng, 4)
            b = poly_from_roots(roots)
            rec = np.array(roots_from_coeffs(b))
            # forward evaluation of the monic product is the oracle
            src = np.sort_complex(roots)
            assert np.max(np.abs(np.sort_complex(rec) - src)) < 1e-10


def residue_weights(spec):
    """The weight of each node's (each +-pair's) exponential in the residue
    sum of G^(q-1), q = data_count: a_j^(m-1) / prod_(i != j) (a_j - a_i)
    for the first kind, a_j^(2m-2) / prod_(i != j) (a_j^2 - a_i^2) for the
    even kind."""
    _, _, (_, residues) = _constants(_shape(spec), spec.data_count - 1)
    return [sum(residues[i : i + spec.step]) for i in range(0, len(residues), spec.step)]


class TestPartialFractions:
    """The residue weights of the kernels, and the root checks of the specs."""

    def test_first_two_roots(self):
        c = residue_weights(CharacteristicSpec.first_order_product(roots=[1, 2]))
        assert np.allclose(c, [-1, 2])
        assert abs(sum(c) - 1) < 1e-14

    def test_first_cube_roots_of_unity(self):
        w = np.exp(2j * np.pi / 3)
        roots = [1, w, w**2]
        c = residue_weights(CharacteristicSpec.first_order_product(roots=roots))
        for cj, aj in zip(c, roots):
            others = [a for a in roots if a != aj]
            assert abs(cj - aj**2 / np.prod([aj - a for a in others])) < 1e-14
        assert abs(sum(c) - 1) < 1e-13

    def test_first_rejects_m1(self):
        with pytest.raises(ValueError):
            CharacteristicSpec.even_order_product([1.0])

    def test_even_two_roots(self):
        d = residue_weights(CharacteristicSpec.even_order_product([1, 2]))
        assert np.allclose(d, [-1 / 3, 4 / 3])
        assert abs(sum(d) - 1) < 1e-14

    def test_even_complex_roots(self):
        d = residue_weights(CharacteristicSpec.even_order_product([1, 1j]))
        assert np.allclose(d, [0.5, 0.5])

    def test_even_coincident_rejected(self):
        with pytest.raises(DegenerateRoots):
            CharacteristicSpec.even_order_product([1, 1])
        # distinct roots whose squares coincide are named as such
        with pytest.raises(DegenerateRoots, match="squared roots"):
            CharacteristicSpec.even_order_product([1, -1])

    def test_even_zero_root_rejected(self):
        with pytest.raises(ZeroRoot):
            CharacteristicSpec.even_order_product([0, 1])


@pytest.mark.parametrize("m", range(2, 7))
def test_lagrange_identities(m):
    # sum_j a_j^q / prod_{i!=j}(a_j - a_i) is 0 for q <= m-2 and 1 for q = m-1
    rng = np.random.default_rng(100 + m)
    for _ in range(50):
        roots = random_distinct_roots(rng, m)
        scale = max(1.0, max(abs(r) ** (m - 1) for r in roots))
        for q in range(m):
            total = sum(
                aj**q / np.prod([aj - ai for ai in roots if ai != aj])
                for aj in roots
            )
            expected = 1.0 if q == m - 1 else 0.0
            assert abs(total - expected) < 1e-9 * scale


def symbol_at(P, k, box):
    """p(k) read off ``symbol_grid`` on a grid just wide enough to hold k."""
    shape = tuple(2 * abs(int(c)) + 2 for c in k)
    return symbol_grid(P, shape, box)[tuple(int(c) for c in k)]


class TestSymbolEval:
    def test_second_derivative_1d(self):
        P = derivative(1, 0, 2)
        assert symbol_at(P, [1], [2 * np.pi]) == pytest.approx(-1)

    def test_laplacian_3d(self):
        P = laplacian(3)
        p = symbol_at(P, [1, 2, 0], [2 * np.pi] * 3)
        assert p == pytest.approx(-5)

    def test_first_derivative_imaginary(self):
        P = derivative(1, 0, 1)
        assert symbol_at(P, [3], [2 * np.pi]) == pytest.approx(3j)

    def test_additive_in_terms(self):
        P1 = SymbolPolynomial(2, (((2, 0), 1.0),))
        P2 = SymbolPolynomial(2, (((0, 2), 1.0),))
        Psum = SymbolPolynomial(2, (((2, 0), 1.0), ((0, 2), 1.0)))
        k, box = [3, -2], [2 * np.pi, 4.0]
        assert symbol_at(Psum, k, box) == pytest.approx(
            symbol_at(P1, k, box) + symbol_at(P2, k, box)
        )

    def test_multiplicative_under_power(self):
        P = SymbolPolynomial(1, (((3,), 2.0),))
        P_sq = SymbolPolynomial(1, (((6,), 4.0),))
        k, box = [2], [3.0]
        assert symbol_at(P_sq, k, box) == pytest.approx(symbol_at(P, k, box) ** 2)

    def test_grid_matches_pointwise(self):
        P = laplacian(2)
        shape, box = (8, 6), (2 * np.pi, 3.0)
        grid = symbol_grid(P, shape, box)
        ks = [np.fft.fftfreq(n, d=1.0 / n) for n in shape]
        for i in range(shape[0]):
            for j in range(shape[1]):
                expect = -sum((2 * np.pi * ks[d][n] / box[d]) ** 2 for d, n in enumerate((i, j)))
                assert grid[i, j] == pytest.approx(expect)

    def test_duplicate_multi_index_rejected(self):
        with pytest.raises(ValueError):
            SymbolPolynomial(1, (((2,), 1.0), ((2,), 2.0)))

    def test_negative_multi_index_rejected(self):
        # k = 0 raised to a negative power would make the zero mode's symbol infinite
        with pytest.raises(ValueError, match="negative"):
            SymbolPolynomial(1, (((-2,), 1.0),))
        with pytest.raises(ValueError, match="negative"):
            SymbolPolynomial(2, (((2, 0), 1.0), ((0, -1), 1.0)))

    @pytest.mark.parametrize("c", [np.nan, np.inf, complex(1, np.nan), complex(-np.inf, 0)])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="finite"):
            SymbolPolynomial(1, (((2,), c),))


class TestCharacteristicSpec:
    def test_first_order_from_roots(self):
        spec = CharacteristicSpec.first_order_product(roots=[1, 2])
        assert spec.kind is Kind.FIRST_ORDER_PRODUCT
        assert np.allclose(spec.b, [2, -3, 1])
        assert spec.roots == (1, 2) and spec.m == 2

    def test_even_order_coefficients(self):
        spec = CharacteristicSpec.even_order_product([1, 2])
        # prod (x^2 - 1)(x^2 - 4) = 4 - 5 x^2 + x^4
        assert np.allclose(spec.b, [4, -5, 1])

    def test_repeated_root_coefficients(self):
        spec = CharacteristicSpec.repeated_root(2)
        # (y - 1)^2 = 1 - 2y + y^2 in y = x^2
        assert np.allclose(spec.b, [1, -2, 1])
        assert spec.data_count == 4
        # the mode oracle reads spec.b, so check it against (y - 1)^m directly
        for m in range(2, 7):
            expect = np.polynomial.polynomial.polypow([-1, 1], m)
            assert np.array_equal(CharacteristicSpec.repeated_root(m).b, expect)
        for spec, step in (
            (CharacteristicSpec.first_order_product(roots=[1, 2, 3]), 1),
            (CharacteristicSpec.even_order_product([1, 2, 3]), 2),
            (CharacteristicSpec.repeated_root(3), 2),
        ):
            assert spec.step == step
            assert spec.data_count == step * spec.m

    def test_degenerate_roots_rejected(self):
        with pytest.raises(DegenerateRoots):
            CharacteristicSpec.first_order_product(roots=[1, 1 + 1e-12])

    @pytest.mark.parametrize("build,message", [
        (lambda: SymbolPolynomial(0, ()), "dim must be >= 1"),
        (lambda: SymbolPolynomial(2, (((2,), 1.0),)), "multi-index length must equal dim"),
        (lambda: CharacteristicSpec.first_order_product(), "need roots or coeffs"),
        (lambda: roots_from_coeffs([1.0, 2.0]), "degree must be at least 2"),
    ], ids=["dim", "multi-index", "neither", "degree"])
    def test_invalid_input_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            build()
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(2, np.nan)])
    def test_non_finite_roots_and_coeffs_rejected(self, bad):
        with pytest.raises(ValueError, match="roots must be finite"):
            CharacteristicSpec.first_order_product(roots=[bad, 2])
        with pytest.raises(ValueError, match="roots must be finite"):
            CharacteristicSpec.even_order_product([1, bad])
        with pytest.raises(ValueError, match="coeffs must be finite"):
            CharacteristicSpec.first_order_product(coeffs=[2, -3, bad])
