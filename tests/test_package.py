"""The package-level surface: the paper's objects and what the command
line, the invariant registry and the benchmark call.  Helpers stay in their
modules."""

import mirror_spectra

SURFACE = {
    # precision
    "ModularParam", "PrecCtx", "make_context", "pochhammer_q", "theta1",
    "SolverError", "PoleSignal", "PrecisionExceeded",
    # chi and its Faddeev-modular dual
    "chi_eval", "chi_check_eval", "chi_dual_eval", "G_eval", "chi_poly_seq",
    "chi_mult_check",
    # transfer-matrix oracle and R-iteration
    "chi_via_Minf", "R_orbit", "classify_r_orbit",
    # Wronskian spectrum
    "Orbit", "SpectralPoint", "wronskian_eval", "wronskian_residue",
    "solve_eps", "trace_orbit", "quantize", "factorize",
    # eigenfunction psi
    "EigenfunctionParams", "PoleCancellationReport", "make_params", "psi_eval",
    "psi_residual", "pole_cancellation_check",
    # self-dual periods and phi
    "SelfDualSpectrum", "alpha_beta", "period_integrals", "period_series",
    "quantize_selfdual", "phi_eval", "psi_selfdual",
}


def test_all_is_the_surface():
    assert len(mirror_spectra.__all__) == len(set(mirror_spectra.__all__))
    assert set(mirror_spectra.__all__) == SURFACE


def test_every_export_resolves():
    for name in mirror_spectra.__all__:
        assert getattr(mirror_spectra, name, None) is not None, name


def test_benchmark_setup_names_are_package_level():
    # the benchmark's set-up one-liner builds ModularParam.from_theta(...,
    # make_context(...)) from the package itself
    from mirror_spectra.precision import ModularParam, make_context
    assert mirror_spectra.ModularParam is ModularParam
    assert mirror_spectra.make_context is make_context
    mirror_spectra.ModularParam.from_theta("pi/4", mirror_spectra.make_context(64, 1e-10))
