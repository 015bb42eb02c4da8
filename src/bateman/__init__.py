"""Two quantization routes for the damped harmonic oscillator and its
time-reversed partner, treated as one closed two-mode system.

The package provides an exact symbolic ladder algebra (the oracle), truncated
Fock-space matrices, the two canonical transforms that diagonalize the
Hamiltonian with the scalar dynamics their eigen maps give, divergence
diagnostics for the rotated basis, plus verification suites and a CLI that
reports every identity with explicit deviations and tolerances.
"""

__version__ = "0.1.0"

from .errors import (
    BatemanError,
    DimensionMismatch,
    DomainError,
    FitError,
    HeadroomError,
    MixedUnitError,
    NumericalError,
    OverdampedError,
    RadicalMismatch,
    SeriesDivergence,
)
from .params import PhysicalParams, derive_params
from .fock import (
    FockSpace,
    HamiltonianSet,
    LadderSet,
    Operator,
    build_hamiltonian,
    build_ladder,
    commutator,
    interior_deviation,
    interior_mask,
    position_operators,
)
from .algebra import (
    CQ,
    ExactScalar,
    LadderPoly,
    basis_column,
    basis_matrix_element,
    normal_order,
    vacuum_pairing,
)
from .construction import (
    Construction,
    Eigen,
    MixedModes,
    StabilityClass,
    basis,
    eigenvalue,
    gram,
    schrodinger_factor,
    transform,
)
from .ft import FT, ft_norm_exponent_fit, ft_standard_norm, ft_vacuum_series
from .imagscale import IS, bounded_frame, is_vacuum
from .verify import CheckResult, VerifyConfig, all_passed, run_suite

__all__ = [
    "__version__",
    "BatemanError",
    "DimensionMismatch",
    "DomainError",
    "FitError",
    "HeadroomError",
    "MixedUnitError",
    "NumericalError",
    "OverdampedError",
    "RadicalMismatch",
    "SeriesDivergence",
    "PhysicalParams",
    "derive_params",
    "FockSpace",
    "HamiltonianSet",
    "LadderSet",
    "Operator",
    "build_hamiltonian",
    "build_ladder",
    "commutator",
    "interior_deviation",
    "interior_mask",
    "position_operators",
    "CQ",
    "ExactScalar",
    "LadderPoly",
    "basis_column",
    "basis_matrix_element",
    "normal_order",
    "vacuum_pairing",
    "Construction",
    "Eigen",
    "MixedModes",
    "StabilityClass",
    "basis",
    "eigenvalue",
    "gram",
    "schrodinger_factor",
    "transform",
    "FT",
    "ft_norm_exponent_fit",
    "ft_standard_norm",
    "ft_vacuum_series",
    "IS",
    "bounded_frame",
    "is_vacuum",
    "CheckResult",
    "VerifyConfig",
    "all_passed",
    "run_suite",
]
