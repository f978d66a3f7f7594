"""Arbitrary-precision spectral solver for a modular pair of Harper-type
functional difference equations and the associated self-dual Harper problem.

The package exports the paper's objects and what the command line, the
invariant registry and the benchmark call; helpers are reached through their
modules (``mirror_spectra.selfdual.composite_gl``, ...)."""

__version__ = "0.1.0"

from .chi import (
    chi_dual_eval,
    chi_check_eval,
    chi_eval,
    chi_mult_check,
    chi_poly_seq,
    G_eval,
)
from .eigenfunction import (
    EigenfunctionParams,
    PoleCancellationReport,
    make_params,
    pole_cancellation_check,
    psi_eval,
    psi_residual,
)
from .precision import (
    ModularParam,
    PoleSignal,
    PrecCtx,
    PrecisionExceeded,
    SolverError,
    make_context,
    pochhammer_q,
    theta1,
)
from .selfdual import (
    SelfDualSpectrum,
    alpha_beta,
    period_integrals,
    period_series,
    phi_eval,
    psi_selfdual,
    quantize_selfdual,
)
from .spectral import (
    Orbit,
    SpectralPoint,
    factorize,
    quantize,
    solve_eps,
    trace_orbit,
    wronskian_eval,
    wronskian_residue,
)
from .transfer import (
    R_orbit,
    chi_via_Minf,
    classify_r_orbit,
)

__all__ = [
    "EigenfunctionParams",
    "G_eval",
    "ModularParam",
    "Orbit",
    "PoleCancellationReport",
    "PoleSignal",
    "PrecCtx",
    "PrecisionExceeded",
    "R_orbit",
    "SelfDualSpectrum",
    "SolverError",
    "SpectralPoint",
    "alpha_beta",
    "chi_check_eval",
    "chi_dual_eval",
    "chi_eval",
    "chi_mult_check",
    "chi_poly_seq",
    "chi_via_Minf",
    "classify_r_orbit",
    "factorize",
    "make_context",
    "make_params",
    "period_integrals",
    "period_series",
    "phi_eval",
    "pochhammer_q",
    "pole_cancellation_check",
    "psi_eval",
    "psi_residual",
    "psi_selfdual",
    "quantize",
    "quantize_selfdual",
    "solve_eps",
    "theta1",
    "trace_orbit",
    "wronskian_eval",
    "wronskian_residue",
]
