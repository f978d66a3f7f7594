"""The package-level surface: the paper's objects and what the command
line, the invariant registry and the benchmark call.  Helpers stay in their
modules."""

import ast
from pathlib import Path

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


def _private_definitions(tree):
    # (name, statement) for each module-level def, class or assignment of a
    # name with one leading underscore
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [n.id for t in stmt.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _reads(stmt):
    # names a statement loads, as a bare name or as an attribute
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_private_names_are_read():
    # every module-level private name is read somewhere in the package
    # outside its own definition: a helper nothing reaches gets deleted
    trees = [ast.parse(p.read_text())
             for p in sorted(Path(mirror_spectra.__file__).parent.glob("*.py"))]
    defined = [d for tree in trees for d in _private_definitions(tree)]
    assert len(defined) > 50
    reads = [(stmt, _reads(stmt)) for tree in trees for stmt in tree.body]
    unread = {name for name, own in defined
              if not any(name in names for stmt, names in reads if stmt is not own)}
    assert sorted(unread) == []
