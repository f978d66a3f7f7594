"""Eigenfunction checks: parity, reality, decay, shift-equation residuals,
pole cancellation at the would-be theta zeros, and the eta asymptotics."""

import dataclasses

import pytest
from mpmath import mp

from mirror_spectra.chi import chi_check_eval, chi_eval
from mirror_spectra.eigenfunction import (
    EigenfunctionParams,
    _psi_raw,
    make_params,
    pole_cancellation_check,
    psi_eval,
    psi_residual,
)
from mirror_spectra.precision import ModularParam, PoleSignal, default_tol, make_context
from mirror_spectra.spectral import SpectralPoint, quantize, solve_eps

BITS = 192
TOL = mp.mpf("1e-40")
REL = mp.mpf("1e-35")          # headroom over working tol for relative checks


@pytest.fixture(scope="module")
def ctx():
    return make_context(BITS, TOL)


@pytest.fixture(scope="module")
def mpar(ctx):
    return ModularParam.from_theta("pi/4", ctx)


@pytest.fixture(scope="module")
def sheet1(ctx, mpar, orbit1_192):
    even = quantize(orbit1_192, +1, mpar, ctx)[0]
    odd = quantize(orbit1_192, -1, mpar, ctx)[0]
    return make_params(even, mpar, ctx), make_params(odd, mpar, ctx)


@pytest.fixture(scope="module")
def all_states(ctx, mpar, sheet1, orbit2_192):
    pts = (quantize(orbit2_192, +1, mpar, ctx)
           + quantize(orbit2_192, -1, mpar, ctx))
    return list(sheet1) + [make_params(p, mpar, ctx) for p in pts]


# ── construction ──────────────────────────────────────────────────────────


def test_make_params_fields(sheet1, mpar, ctx):
    even, odd = sheet1
    with ctx.workprec():
        assert abs(even.eta - mp.cos(mp.pi / 4)) < mp.mpf("1e-45")
        assert abs(even.eta.imag) < mp.mpf("1e-45")
        # theta-factorization prefactor of the ground state
        assert abs(even.rho - mp.mpf("-4.81985244598")) < mp.mpf("1e-9")
        assert odd.rho is not None


def test_make_params_rejects_bad_parity(sheet1, mpar, ctx):
    pt = sheet1[0].point
    bad = SpectralPoint(sheet=1, sigma=pt.sigma, eps=pt.eps, parity=3)
    with pytest.raises(ValueError):
        make_params(bad, mpar, ctx)


def test_make_params_rejects_b_off_unit_circle(sheet1, mpar, ctx):
    # |b| = 1 + 1e-40 leaves Im eta ~ 7e-41, far above the 2^-180 rounding
    # guard at 192 bits
    with ctx.workprec():
        off = dataclasses.replace(mpar, b=mpar.b * (1 + mp.mpf("1e-40")))
    with pytest.raises(ValueError, match="must be real"):
        make_params(sheet1[0].point, off, ctx)


# ── psi_eval ──────────────────────────────────────────────────────────────


def test_ground_state_parity_fifty_points(sheet1, ctx, rng):
    even, _ = sheet1
    for _ in range(50):
        x = mp.mpf(rng.uniform(-2.5, 2.5))
        with ctx.workprec():
            v = psi_eval(x, even, ctx)
            w = psi_eval(-x, even, ctx)
            assert abs(w - v) <= REL * abs(v)


def test_parity_all_states(all_states, ctx, rng):
    for p in all_states:
        xi = p.point.parity
        for _ in range(5):
            x = mp.mpf(rng.uniform(-2.0, 2.0))
            with ctx.workprec():
                v = psi_eval(x, p, ctx)
                assert abs(psi_eval(-x, p, ctx) - xi * v) <= REL * abs(v)


def test_reality_all_states(all_states, ctx, rng):
    # conj psi = psi on the real axis, even where eps itself is complex
    for p in all_states:
        for _ in range(4):
            x = mp.mpf(rng.uniform(-2.0, 2.0))
            with ctx.workprec():
                v = psi_eval(x, p, ctx)
                assert abs(v.imag) <= REL * abs(v)


def test_decay_envelope_all_states(all_states, ctx):
    # |psi| ~ e^{-2 pi eta |x|}: the compensated log stays O(1) out to x = 6
    for p in all_states:
        for x in ("3", "4.5", "6"):
            v = psi_eval(mp.mpf(x), p, ctx)
            comp = mp.log(abs(v)) + 2 * mp.pi * p.eta.real * mp.mpf(x)
            assert abs(comp) < 10


def test_removable_point_matches_outside_limit(sheet1, ctx):
    # x = sigma is a theta-denominator zero cancelled by the numerator; the
    # stencil value must agree with extrapolation from regular points
    even, _ = sheet1
    sigma = even.point.sigma
    v0 = psi_eval(sigma, even, ctx)
    h = mp.mpf("1e-4")
    v1 = psi_eval(sigma + h, even, ctx)
    v2 = psi_eval(sigma + 2 * h, even, ctx)
    assert abs((2 * v1 - v2) - v0) <= mp.mpf("1e-6") * abs(v0)
    assert mp.isfinite(v0.real) and mp.isfinite(v0.imag)


def test_odd_state_vanishes_at_origin(sheet1, ctx):
    _, odd = sheet1
    v = psi_eval(mp.mpf(0), odd, ctx)
    assert abs(v) <= mp.mpf("1e-50")


def test_unquantized_point_near_zero_signals(sheet1, mpar, ctx):
    even, _ = sheet1
    pt = even.point
    off = SpectralPoint(sheet=1, sigma=pt.sigma, eps=pt.eps + mp.mpf("0.5"), parity=None)
    p = EigenfunctionParams(point=off, eta=even.eta, rho=None, mpar=mpar)
    with pytest.raises(PoleSignal):
        psi_eval(pt.sigma, p, ctx)
    v = psi_eval(mp.mpf("0.3"), p, ctx)   # away from the lattice: still fine
    assert mp.isfinite(v.real) and mp.isfinite(v.imag)


def test_strip_analyticity(sheet1, ctx):
    # no poles for |Im x| < max(Re b, Re 1/b): sample a line near the edge
    even, odd = sheet1
    delta = mp.mpf("0.65")
    assert delta < even.mpar.b.real
    for p in (even, odd):
        for k in range(9):
            x = mp.mpf(-2) + k * mp.mpf("0.5") + 1j * delta
            v = psi_eval(x, p, ctx)
            assert mp.isfinite(v.real) and mp.isfinite(v.imag)
            assert abs(v) < mp.mpf("1e8")


# ── theta-lattice points ──────────────────────────────────────────────────

LADDER_BITS = (64, 96, 128, 192, 256)
REF_BITS = 2 * max(LADDER_BITS) + 64
GROUND_IM_EPS = "4.59435880983691894"   # sheet-1 even state at sigma = sin(theta)/2
N_OFFSETS = 5


def _lattice_and_offsets(mpar):
    """sigma, 2 sin(theta) - sigma, -sigma and sigma + delta, at working
    precision (a 53-bit mirror point would sit off the lattice).  The last
    two deltas are psi_eval's stencil offset r at BITS and 2r: a stencil
    centred there would put one of its points on the lattice."""
    sth = mp.sin(mpar.theta)
    sigma = sth / 2
    r = mp.mpf(2) ** (-BITS / 5) / (2 * mp.pi)
    deltas = [mp.mpf("1e-6"), mp.mpf("1e-9"), mp.mpf("1e-12"), r, 2 * r]
    return [sigma, 2 * sth - sigma, -sigma] + [sigma + d for d in deltas]


def _even_state(bits):
    ctx = make_context(bits, default_tol(bits))
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sigma = mp.sin(mpar.theta) / 2
        eps = solve_eps(sigma, mp.mpc(0, GROUND_IM_EPS), mpar, ctx)
        point = SpectralPoint(sheet=1, sigma=sigma, eps=eps, parity=+1)
        xs = _lattice_and_offsets(mpar)
    return ctx, mpar, point, xs


@pytest.fixture(scope="module")
def lattice_reference():
    """psi of the state polished at REF_BITS, at the points of
    _lattice_and_offsets, each the mean of _psi_raw over three points on a
    circle of radius 2^(-REF_BITS/4): a removable point costs that scheme
    O(radius^3), and it shares no offsets or stencil with psi_eval."""
    ctx, mpar, point, xs = _even_state(REF_BITS)
    with ctx.workprec():
        p = EigenfunctionParams(point=point, eta=(mpar.b + 1 / mpar.b) / 2,
                                rho=None, mpar=mpar)
        rad = mp.mpf(2) ** (-REF_BITS // 4)
        return [sum(_psi_raw(x + rad * mp.expjpi(mp.mpf(2 * k + 1) / 3), p, ctx)
                    for k in range(3)) / 3 for x in xs]


def _rel_err(v, ref):
    with mp.workprec(REF_BITS):
        return abs(v - ref) / abs(ref)


@pytest.mark.parametrize("bits", LADDER_BITS)
def test_lattice_points_meet_tol(bits, lattice_reference):
    # the three removable points of the ground state within tol of the
    # independent reference at every rung, 64 bits (tol 1e-11) included
    ctx, mpar, point, xs = _even_state(bits)
    p = make_params(point, mpar, ctx)
    for x, ref in zip(xs[:3], lattice_reference[:3]):
        assert _rel_err(psi_eval(x, p, ctx), ref) <= ctx.tol


@pytest.mark.parametrize("k", range(N_OFFSETS))
def test_near_lattice_offsets_meet_tol(k, lattice_reference):
    # sigma + delta: plain ansatz at 1e-6, 1e-9, r and 2r, the stencil at 1e-12
    ctx, mpar, point, xs = _even_state(BITS)
    p = make_params(point, mpar, ctx)
    assert _rel_err(psi_eval(xs[3 + k], p, ctx), lattice_reference[3 + k]) <= ctx.tol


@pytest.mark.parametrize("bits", (64, BITS))
def test_barred_factors_are_conjugates(bits):
    # chi_{conj q}(conj w; conj eps) = conj chi_q(w; eps): the series is
    # real-rational in q and eps, so one nome serves the barred factors
    ctx = make_context(bits, default_tol(bits))
    mpar = ModularParam.from_theta("pi/4", ctx)
    dual = mpar.conjugate()
    with ctx.workprec():
        eps = mp.mpc("0.3", GROUND_IM_EPS)
        bound = mp.mpf(2) ** (8 - bits)
        for x in (mp.mpf("0.37"), mp.mpf("-1.2"), mp.mpc("0.3", "0.2"), mp.mpc("-1.1", "0.6")):
            w = mp.exp(2 * mp.pi * mpar.b * x)
            pairs = ((chi_eval(mp.conj(w), mp.conj(eps), dual, ctx)[0],
                      chi_eval(w, eps, mpar, ctx)[0]),
                     (chi_check_eval(mp.conj(w), mp.conj(eps), dual, ctx),
                      chi_check_eval(w, eps, mpar, ctx)))
            for barred, direct in pairs:
                assert abs(barred - mp.conj(direct)) <= bound * abs(barred)


# ── psi_residual ──────────────────────────────────────────────────────────


def test_residuals_all_states(all_states, ctx):
    for p in all_states:
        for x in ("0.3", "-1.7"):
            r1, r2 = psi_residual(mp.mpf(x), p, ctx)
            assert r1 < 1000 * ctx.tol
            assert r2 < 1000 * ctx.tol


def test_residual_detuning_sensitivity(sheet1, ctx):
    # the ansatz solves the pair of equations identically in eps, so the
    # detuning must enter through the equation coefficient: psi_residual's
    # first residual with eps + 1e-5 on the right-hand side only
    even, _ = sheet1
    x = mp.mpf("0.3")
    r1, _ = psi_residual(x, even, ctx)
    assert r1 < 1000 * ctx.tol
    with ctx.workprec():
        b = even.mpar.b
        up, dn = psi_eval(x + 1j * b, even, ctx), psi_eval(x - 1j * b, even, ctx)
        eps_d = even.point.eps + mp.mpf("1e-5")
        rhs = (eps_d - 2 * mp.cosh(2 * mp.pi * b * x)) * psi_eval(x, even, ctx)
        r1d = abs(up + dn - rhs) / max(abs(up), abs(dn), abs(rhs), 1)
    assert r1d > mp.mpf("1e-8")


def test_residual_at_origin_odd(sheet1, ctx):
    _, odd = sheet1
    r1, r2 = psi_residual(mp.mpf(0), odd, ctx)
    assert r1 < 1000 * ctx.tol
    assert r2 < 1000 * ctx.tol


def test_eta_asymptotic_ratio(sheet1, ctx):
    # psi(x+ib) + psi(x-ib) ~ -e^{-2 pi b x} psi(x) as x -> -infinity; the
    # deviation is the dropped eps*u term, so it dies off geometrically.
    # This is the check that pins eta = (b + 1/b)/2.
    bounds = {-4: mp.mpf("1e-6"), -6: mp.mpf("1e-9"), -8: mp.mpf("1e-13")}
    for p in sheet1:
        b = p.mpar.b
        prev = None
        for xv, bound in bounds.items():
            with ctx.workprec():
                x = mp.mpf(xv)
                s = psi_eval(x + 1j * b, p, ctx) + psi_eval(x - 1j * b, p, ctx)
                ratio = s / (-mp.exp(-2 * mp.pi * b * x) * psi_eval(x, p, ctx))
                dev = abs(ratio - 1)
            assert dev < bound
            if prev is not None:
                assert dev < prev
            prev = dev


# ── pole cancellation ─────────────────────────────────────────────────────


def test_pole_cancellation_all_states(all_states, ctx):
    for p in all_states:
        rep = pole_cancellation_check(p, ctx)
        assert rep.max_normalized < 1000 * ctx.tol
        assert rep.at_s <= rep.max_normalized
        assert rep.at_inv_s <= rep.max_normalized


def test_pole_cancellation_detuned(sheet1, mpar, ctx):
    # +1e-6 off the eigenvalue: the numerator no longer cancels, and its
    # normalized size scales with the detuning
    even, _ = sheet1
    pt = even.point
    off = SpectralPoint(sheet=1, sigma=pt.sigma, eps=pt.eps + mp.mpf("1e-6"), parity=+1)
    p = EigenfunctionParams(point=off, eta=even.eta, rho=None, mpar=mpar)
    rep = pole_cancellation_check(p, ctx)
    assert mp.mpf("1e-12") < rep.at_s < mp.mpf("1e-4")
    assert rep.max_normalized < mp.mpf("1e-2")
