"""Operators and fields that many tests build, from the public constructors."""

import numpy as np

from opcauchy.multiplier import Field
from opcauchy.symbol_poly import SymbolPolynomial


def derivative(dim, axis, order):
    """d^order / dx_axis^order on ``dim`` axes."""
    alpha = tuple(order if i == axis else 0 for i in range(dim))
    return SymbolPolynomial(dim, ((alpha, 1.0 + 0j),))


def laplacian(dim):
    """The Laplacian on ``dim`` axes."""
    return SymbolPolynomial(dim, tuple(derivative(dim, d, 2).terms[0] for d in range(dim)))


def zero_field(shape, box):
    """The complex zero field on the grid ``shape`` of the box ``box``."""
    return Field(tuple(shape), tuple(box), np.zeros(tuple(shape), dtype=complex))
