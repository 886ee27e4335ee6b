"""Renormalized vortex energies on the unit disc and on polynomial
conformal images of it: closed-form values, derivatives, critical-point
search, nondegeneracy certification, and a quadrature cross-check of the
small-core energy expansion."""

from .core import (
    BOUNDARY_MARGIN,
    ConformalPolyMap,
    DEFAULT_TRUNC,
    FourierSeries,
    ND_TOL,
    SEPARATION_MARGIN,
    VortexConfiguration,
    validate_configuration,
    validate_map,
)
from .critpoint import (
    CriticalPointReport,
    find_critical_hat_w,
    find_critical_w,
    find_max_hat_w,
)
from .disc_energy import (
    DiscEnergyContext,
    hat_w,
    hat_w_grad,
    hat_w_hess,
    n_disc,
    w_disc,
    w_disc_hess,
)
from .errors import (
    BoundaryNotSimple,
    DegenerateDerivative,
    DegreeMismatch,
    EmptyConfiguration,
    InvalidRadius,
    LeftAdmissibleRegion,
    NewtonDiverged,
    NoCriticalPointFound,
    QuadratureNotConverged,
    VortexTooCloseToBoundary,
    VortexwError,
    VorticesCollide,
)
from .expansion import ExpansionReport, expansion_report, punctured_energy
from .harmonic import AnnulusQuadrature, h_half_seminorm_sq, harmonic_conjugate
from .ndcheck import (
    Nd1Report,
    Nd2Report,
    assemble_du_matrix,
    check_nd1,
    check_nd2,
    du_star_matrix_analytic_disc,
    magic_determinant_check,
)
from .transport import (
    transport_hat_w,
    transport_hat_w_grad,
    transport_w,
    transport_w_grad,
    transport_w_hess,
)

__version__ = "0.1.0"

# The field kernel has one implementation. The name stays because benchmark
# runs record it next to their results.
BACKEND = "numpy"

__all__ = [
    "AnnulusQuadrature",
    "BACKEND",
    "BOUNDARY_MARGIN",
    "BoundaryNotSimple",
    "ConformalPolyMap",
    "CriticalPointReport",
    "DEFAULT_TRUNC",
    "DegenerateDerivative",
    "DegreeMismatch",
    "DiscEnergyContext",
    "EmptyConfiguration",
    "ExpansionReport",
    "FourierSeries",
    "InvalidRadius",
    "LeftAdmissibleRegion",
    "ND_TOL",
    "Nd1Report",
    "Nd2Report",
    "NewtonDiverged",
    "NoCriticalPointFound",
    "QuadratureNotConverged",
    "SEPARATION_MARGIN",
    "VortexConfiguration",
    "VortexTooCloseToBoundary",
    "VortexwError",
    "VorticesCollide",
    "assemble_du_matrix",
    "check_nd1",
    "check_nd2",
    "du_star_matrix_analytic_disc",
    "expansion_report",
    "find_critical_hat_w",
    "find_critical_w",
    "find_max_hat_w",
    "h_half_seminorm_sq",
    "harmonic_conjugate",
    "hat_w",
    "hat_w_grad",
    "hat_w_hess",
    "magic_determinant_check",
    "n_disc",
    "punctured_energy",
    "transport_hat_w",
    "transport_hat_w_grad",
    "transport_w",
    "transport_w_grad",
    "transport_w_hess",
    "validate_configuration",
    "validate_map",
    "w_disc",
    "w_disc_hess",
]
