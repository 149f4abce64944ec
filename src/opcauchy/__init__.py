"""Closed-form operator-calculus solver for higher-order linear Cauchy problems."""

from .errors import (
    DegenerateRoots,
    InconclusiveProbe,
    InsufficientSnapshots,
    NonmonicZero,
    OpcauchyError,
    UnresolvedKernel,
    ZeroRoot,
)
from .kernels import (
    CauchyProblem,
    StabilityReport,
    gm_even,
    gm_first,
    homogeneous_mode,
    inhomogeneous_mode,
    solve,
)
from .multiplier import (
    Field,
    SpectralField,
    apply_multiplier,
    cosh_sqrt,
    exp_prop,
    from_spectral,
    sinhc_sqrt,
    to_spectral,
)
from .oracle import kernel_discrepancy_probe, mode_ode_solve, residual_check
from .spherical import SphereQuadrature, sinhc_spherical, sphere_mean
from .symbol_poly import (
    CharacteristicSpec,
    Kind,
    SymbolPolynomial,
    partial_fraction_even,
    partial_fraction_first,
    roots_from_coeffs,
    symbol_eval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
