"""Closed-form operator-calculus solver for higher-order linear Cauchy problems."""

from .errors import (
    DegenerateRoots,
    InconclusiveProbe,
    InsufficientSnapshots,
    NonFiniteForcing,
    NonmonicZero,
    OpcauchyError,
    UnresolvedKernel,
    ZeroRoot,
)
from .kernels import (
    CauchyProblem,
    StabilityReport,
    homogeneous_mode,
    inhomogeneous_mode,
    sinhc_sqrt,
    solve,
)
from .multiplier import Field, apply_multiplier, from_spectral, to_spectral
from .oracle import kernel_discrepancy_probe, mode_ode_solve, residual_check
from .spherical import SphereQuadrature, sinhc_spherical
from .symbol_poly import (
    CharacteristicSpec,
    Kind,
    SymbolPolynomial,
    roots_from_coeffs,
)

__all__ = [
    "CauchyProblem",
    "CharacteristicSpec",
    "DegenerateRoots",
    "Field",
    "InconclusiveProbe",
    "InsufficientSnapshots",
    "Kind",
    "NonFiniteForcing",
    "NonmonicZero",
    "OpcauchyError",
    "SphereQuadrature",
    "StabilityReport",
    "SymbolPolynomial",
    "UnresolvedKernel",
    "ZeroRoot",
    "apply_multiplier",
    "from_spectral",
    "homogeneous_mode",
    "inhomogeneous_mode",
    "kernel_discrepancy_probe",
    "mode_ode_solve",
    "residual_check",
    "roots_from_coeffs",
    "sinhc_spherical",
    "sinhc_sqrt",
    "solve",
    "to_spectral",
]
__version__ = "0.1.0"
