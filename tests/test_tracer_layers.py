"""The benchmark's span tracer on the real package.

``perfbench/run.py --trace 1`` wraps the public names listed in
``tracer.LAYERS``; a name deleted from the package breaks that run.  These
tests install the tracer on the package itself, so such a deletion fails
here too, and check that every span a workload requires is one the tracer
wraps.
"""

import os
import sys

from mpmath import mp

import mirror_spectra
import mirror_spectra.cli  # a traced layer that the package does not import
from mirror_spectra.precision import ModularParam, make_context
from mirror_spectra.spectral import SpectralPoint, solve_eps

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bound():
    return {(layer, name): getattr(sys.modules[f"mirror_spectra.{layer}"], name, None)
            for layer, names in LAYERS.items() for name in names}


def test_tracer_installs_and_uninstalls_on_the_package():
    originals = _bound()
    tracer = Tracer()
    tracer.install()
    try:
        for key, fn in _bound().items():
            assert fn is not originals[key] and fn.__wrapped__ is originals[key], key
        # the package-level re-export is rebound too
        mirror_spectra.alpha_beta(8, make_context(64, 1e-10))
        tracer.require([("selfdual", "alpha_beta")])
    finally:
        tracer.uninstall()
    assert _bound() == originals
    assert mirror_spectra.alpha_beta is originals[("selfdual", "alpha_beta")]


def test_required_spans_are_traced_names():
    traced = {(layer, name) for layer, names in LAYERS.items() for name in names}
    for workload in WORKLOADS.values():
        assert set(workload.required) <= traced, workload.name


def test_eigen_grid_spans_on_and_off_the_lattice():
    # psi_eval takes the exact limit on the theta lattice and the ansatz off
    # it; together with make_params they still make every call eigen_grid
    # requires, so a span lost to a refactor fails here, not only in a
    # traced benchmark run
    ctx = make_context(64, 1e-10)
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sigma = mp.sin(mpar.theta) / 2
        eps = solve_eps(sigma, mp.mpc(0, "4.59435880983691894"), mpar, ctx)
    point = SpectralPoint(sheet=1, sigma=sigma, eps=eps, parity=+1)
    ef = mirror_spectra.eigenfunction
    tracer = Tracer()
    tracer.install()
    try:
        par = ef.make_params(point, mpar, ctx)
        ef.psi_eval(sigma, par, ctx)
        ef.psi_eval(mp.mpf("0.77"), par, ctx)
        tracer.require(WORKLOADS["eigen_grid"].required)
    finally:
        tracer.uninstall()


def test_selfdual_cli_makes_every_required_span(tmp_path):
    # one selfdual level through the CLI makes every call selfdual_levels
    # requires, composite_gl among them
    tracer = Tracer()
    tracer.install()
    try:
        assert mirror_spectra.cli.main(
            ["selfdual", "--n", "0", "--precision-bits", "64",
             "--out", str(tmp_path / "sd.txt")]) == 0
        tracer.require(WORKLOADS["selfdual_levels"].required)
    finally:
        tracer.uninstall()


def test_spectrum_cli_makes_every_required_span(tmp_path):
    # one short spectrum job through the CLI makes every call spectrum_s2
    # requires: solve_eps at sigma = 0, G_eval at the grid nodes,
    # and chi_eval under G_eval.  Above 64 bits the 64-bit coarse stage
    # makes them, calling trace_orbit and quantize as module attributes
    for bits in ("64", "128"):
        tracer = Tracer()
        tracer.install()
        try:
            assert mirror_spectra.cli.main(
                ["spectrum", "--sheet", "1", "--precision-bits", bits,
                 "--npoints", "16", "--out", str(tmp_path / "spectrum.csv")]) == 0
            tracer.require(WORKLOADS["spectrum_s2"].required)
        finally:
            tracer.uninstall()


def test_orbit_cli_sums_no_g(tmp_path):
    # the orbit is the root curve alone: an orbit job traces the sheet and
    # sums neither G nor a chi series outside its Newton passes
    tracer = Tracer()
    tracer.install()
    try:
        assert mirror_spectra.cli.main(
            ["orbit", "--sheet", "1", "--precision-bits", "64",
             "--npoints", "16", "--out", str(tmp_path / "orbit.csv")]) == 0
        tracer.require([("spectral", "trace_orbit")])
    finally:
        tracer.uninstall()
    assert tracer.calls[("chi", "G_eval")] == 0
    assert tracer.calls[("chi", "chi_eval")] == 0
