"""Eigenfunction checks: parity, reality, decay, shift-equation residuals,
pole cancellation at the would-be theta zeros, and the eta asymptotics."""

import dataclasses

import pytest
from mpmath import mp

from mirror_spectra import chi, eigenfunction
from mirror_spectra.chi import G_eval, chi_check_eval, chi_eval
from mirror_spectra.eigenfunction import (
    EigenfunctionParams,
    _psi_raw,
    make_params,
    pole_cancellation_check,
    psi_eval,
    psi_residual,
)
from mirror_spectra.precision import (
    ModularParam,
    PoleSignal,
    PrecisionExceeded,
    default_tol,
    make_context,
)
from mirror_spectra.spectral import (
    SpectralPoint,
    _indicator,
    _sigma_to_s,
    _solve_eps,
    _state,
    quantize,
    solve_eps,
)

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
    even, odd = quantize(orbit1_192, (+1, -1), mpar, ctx)
    return make_params(even, mpar, ctx), make_params(odd, mpar, ctx)


@pytest.fixture(scope="module")
def all_states(ctx, mpar, sheet1, orbit2_192):
    pts = quantize(orbit2_192, (+1, -1), mpar, ctx)
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
    # a non-finite x is refused at the entry, quantized or not
    for bad in (mp.nan, mp.inf, float("nan"), mp.ninf, mp.mpc("0.3", mp.nan)):
        for params in (p, even):
            with pytest.raises(ValueError, match="psi_eval needs a finite x"):
                psi_eval(bad, params, ctx)


def test_psi_past_the_double_range_raises_precision_exceeded(sheet1, mpar, ctx):
    # psi_eval ranks the theta lattice in floats: an x past their range is
    # refused by name, as x = 1e30 already is by the chi series
    even, _ = sheet1
    none = EigenfunctionParams(point=dataclasses.replace(even.point, parity=None),
                               eta=even.eta, rho=None, mpar=mpar)
    for p in (even, none):
        for x in (mp.mpf("1e400"), mp.mpc(0, "1e400"), mp.mpc("1e400", "0.1")):
            with pytest.raises(PrecisionExceeded, match="psi_eval at x = "):
                psi_eval(x, p, ctx)
    with pytest.raises(PrecisionExceeded, match="psi_eval at x = "):
        psi_residual(mp.mpf("1e400"), even, ctx)
    with pytest.raises(PrecisionExceeded):
        psi_eval(mp.mpf("1e30"), even, ctx)


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
SHEET2_IM_EPS = "-111.300184113096796"  # sheet-2 even state at sigma = sin(theta)/2
# the sheet-1 odd state at 128 bits, taken to REF_BITS by the state solver
ODD_SIGMA = "0.6121173716461672675437387"
ODD_EPS = ("-13.87830477803669060701033", "6.161296243244348685028404")
N_OFFSETS = 5


def _lattice_points(mpar, sigma):
    """The removable points sigma, 2 sin(theta) - sigma and -sigma, at
    working precision (a 53-bit mirror point would sit off the lattice)."""
    sth = mp.sin(mpar.theta)
    return [sigma, 2 * sth - sigma, -sigma]


def _lattice_and_offsets(mpar):
    """The lattice points of the state at sigma = sin(theta)/2, then sigma +
    delta.  The last two deltas are psi_eval's stencil offset r at BITS and
    2r: a stencil centred there would put one of its points on the
    lattice."""
    sigma = mp.sin(mpar.theta) / 2
    r = mp.mpf(2) ** (-BITS / 5) / (2 * mp.pi)
    deltas = [mp.mpf("1e-6"), mp.mpf("1e-9"), mp.mpf("1e-12"), r, 2 * r]
    return _lattice_points(mpar, sigma) + [sigma + d for d in deltas]


def _even_state(bits, im_eps=GROUND_IM_EPS, sheet=1):
    ctx = make_context(bits, default_tol(bits))
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sigma = mp.sin(mpar.theta) / 2
        eps = solve_eps(sigma, mp.mpc(0, im_eps), mpar, ctx)
        point = SpectralPoint(sheet=sheet, sigma=sigma, eps=eps, parity=+1)
        xs = _lattice_and_offsets(mpar)
    return ctx, mpar, point, xs


def _circle_mean(point, mpar, ctx, xs):
    """psi at each x as the mean of _psi_raw over three points on a circle
    of radius 2^(-REF_BITS/4): a removable point costs that scheme
    O(radius^3), and it shares no offsets or stencil with psi_eval."""
    with ctx.workprec():
        p = EigenfunctionParams(point=point, eta=(mpar.b + 1 / mpar.b) / 2,
                                rho=None, mpar=mpar)
        rad = mp.mpf(2) ** (-REF_BITS // 4)
        return [sum(_psi_raw(x + rad * mp.expjpi(mp.mpf(2 * k + 1) / 3), p, ctx)
                    for k in range(3)) / 3 for x in xs]


@pytest.fixture(scope="module")
def lattice_reference():
    """psi of the state polished at REF_BITS, at the points of
    _lattice_and_offsets, by _circle_mean."""
    ctx, mpar, point, xs = _even_state(REF_BITS)
    return _circle_mean(point, mpar, ctx, xs)


def _parity_indicator(sigma, eps, parity, mpar, ctx):
    # the indicator at s(sigma) with G from the independent G_eval
    return _indicator(G_eval(_sigma_to_s(sigma, mpar), eps, mpar, ctx), parity)


def _odd_reference_point(ctx, mpar):
    """The sheet-1 odd state at ctx: the state solver on a +-1e-20 bracket
    around ODD_SIGMA, from its secant point."""
    with ctx.workprec():
        sigma0, h = mp.mpf(ODD_SIGMA), mp.mpf("1e-20")
        ends = []
        for sigma in (sigma0 - h, sigma0 + h):
            eps = _solve_eps(sigma, mp.mpc(*ODD_EPS), mpar, ctx)
            ends.append((sigma, eps, _parity_indicator(sigma, eps, -1, mpar, ctx)))
        return _state(*ends, None, -1, 1, mpar, ctx)


@pytest.fixture(scope="module")
def more_states_reference():
    """name -> (reference point, psi at its _lattice_points) for the
    sheet-2 even state and the sheet-1 odd state, at REF_BITS."""
    ctx, mpar, even, _ = _even_state(REF_BITS, SHEET2_IM_EPS, sheet=2)
    odd = _odd_reference_point(ctx, mpar)
    with ctx.workprec():
        return {name: (pt, _circle_mean(pt, mpar, ctx, _lattice_points(mpar, pt.sigma)))
                for name, pt in (("sheet2_even", even), ("sheet1_odd", odd))}


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


@pytest.mark.parametrize("bits", LADDER_BITS)
@pytest.mark.parametrize("state", ("sheet2_even", "sheet1_odd"))
def test_more_states_lattice_points_meet_tol(state, bits, more_states_reference):
    # the same rungs for an even state of sheet 2 and an odd state; the
    # rung's state is the reference sigma rounded to the rung, with its eps
    # re-solved there
    ref_point, refs = more_states_reference[state]
    ctx = make_context(bits, default_tol(bits))
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sigma = +ref_point.sigma
        eps = solve_eps(sigma, ref_point.eps, mpar, ctx)
        xs = _lattice_points(mpar, sigma)
    point = SpectralPoint(sheet=ref_point.sheet, sigma=sigma, eps=eps,
                          parity=ref_point.parity)
    p = make_params(point, mpar, ctx)
    for x, ref in zip(xs, refs):
        assert _rel_err(psi_eval(x, p, ctx), ref) <= ctx.tol


@pytest.mark.parametrize("k", range(N_OFFSETS))
def test_near_lattice_offsets_meet_tol(k, lattice_reference):
    # sigma + delta: plain ansatz at 1e-6, 1e-9, r and 2r, the stencil at 1e-12
    ctx, mpar, point, xs = _even_state(BITS)
    p = make_params(point, mpar, ctx)
    assert _rel_err(psi_eval(xs[3 + k], p, ctx), lattice_reference[3 + k]) <= ctx.tol


def _count_work(monkeypatch):
    """Counters of _psi_raw calls and chi series (every _chi_series call,
    through chi_eval or directly) made by psi_eval."""
    counts = {"raw": 0, "series": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    series = counted("series", chi._chi_series)
    monkeypatch.setattr(chi, "_chi_series", series)
    monkeypatch.setattr(eigenfunction, "_chi_series", series)
    monkeypatch.setattr(eigenfunction, "_psi_raw", counted("raw", eigenfunction._psi_raw))
    return counts


def test_lattice_work_is_pinned(sheet1, mpar, ctx, monkeypatch):
    # on the lattice at working precision: the limit, no _psi_raw and two
    # series; the 53-bit mirror -sigma is off it by a rounding and keeps
    # the stencil's four _psi_raw; a regular point makes one
    even, _ = sheet1
    with ctx.workprec():
        sigma = mp.sin(mpar.theta) / 2
        on = (sigma, 2 * mp.sin(mpar.theta) - sigma)
    with mp.workprec(53):
        mirror = -sigma
    counts = _count_work(monkeypatch)
    for x, raw, series in ((on[0], 0, 2), (on[1], 0, 2), (mirror, 4, 8),
                           (mp.mpf("0.77"), 1, 2)):
        counts.update(raw=0, series=0)
        psi_eval(x, even, ctx)
        assert (counts["raw"], counts["series"]) == (raw, series), x


def _exhaustive_zero(w, lq):
    """The four-corner search of _nearest_zero, every candidate's distance
    at the working precision: (d, k, m)."""
    a = w.real / (2 * lq.real)
    best = None
    for k in (mp.floor(a), mp.ceil(a)):
        c = (w.imag - 2 * k * lq.imag) / (2 * mp.pi)
        for m in (mp.floor(c), mp.ceil(c)):
            d = abs(w - 2 * k * lq - 2j * mp.pi * m)
            if best is None or d < best[0]:
                best = d, int(k), int(m)
    return best


@pytest.mark.parametrize("bits", (64, 192, 1024))
@pytest.mark.parametrize("theta", ("pi/8", "pi/4", "3*pi/8"))
def test_nearest_zero_matches_exhaustive_search(theta, bits, rng):
    # seeded w over several periods, half of them within a few bands of a
    # lattice point: the same zero and the same band decision
    ctx = make_context(bits, default_tol(bits))
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        lq = mpar.log_q
        step = mp.mpf(2) ** (-bits / 5)
        inside = 0
        for i in range(200):
            if i % 2:
                w = mp.mpc(rng.uniform(-6, 6) * lq.real, rng.uniform(-4, 4) * mp.pi)
            else:
                zero = 2 * rng.randint(-3, 3) * lq + 2j * mp.pi * rng.randint(-3, 3)
                w = zero + step * rng.uniform(0, 2) * mp.expjpi(rng.uniform(-1, 1))
            d, k, m = eigenfunction._nearest_zero(w, lq)
            d_ref, k_ref, m_ref = _exhaustive_zero(w, lq)
            assert (k, m) == (k_ref, m_ref), w
            assert (2 * d >= step) == (2 * d_ref >= step), w
            inside += 2 * d < step
        assert inside > 10


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
            pairs = ((chi_eval(mp.conj(w), mp.conj(eps), dual, ctx),
                      chi_eval(w, eps, mpar, ctx)),
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


def test_pole_cancellation_detuned(sheet1, mpar, ctx):
    # +1e-6 off the eigenvalue: the numerator no longer cancels, and its
    # normalized size scales with the detuning
    even, _ = sheet1
    pt = even.point
    off = SpectralPoint(sheet=1, sigma=pt.sigma, eps=pt.eps + mp.mpf("1e-6"), parity=+1)
    p = EigenfunctionParams(point=off, eta=even.eta, rho=None, mpar=mpar)
    rep = pole_cancellation_check(p, ctx)
    with ctx.workprec():
        # the normalized numerator at u = s alone, as the report forms it
        t1, t2 = eigenfunction._numerator_terms(mp.mpmathify(off.sigma), p, ctx)
        at_s = abs(t1 + t2) / max(abs(t1), abs(t2), 1)
    assert mp.mpf("1e-12") < at_s < mp.mpf("1e-4")
    assert rep.max_normalized < mp.mpf("1e-2")


# ── the ansatz's pieces ───────────────────────────────────────────────────


def test_prefactor_is_the_ansatz_exponential(sheet1, mpar, ctx):
    # one exponential against the ansatz's two, formed at twice the bits
    bound = mp.mpf(2) ** (16 - BITS)
    for p in sheet1:
        for x in (mp.mpf("0.37"), mp.mpf("-2.6"), mp.mpc("0.8", "0.45"),
                  mp.mpc("-1.3", "-0.7")):
            with ctx.workprec():
                got = eigenfunction._prefactor(x, p)
            with mp.workprec(2 * BITS):
                sigma, xi = mp.mpmathify(p.point.sigma), p.point.parity
                ref = (mp.exp(mp.pi * 1j * sigma ** 2 - xi * mp.pi * 1j / 4)
                       * mp.exp(2 * mp.pi * p.eta * x + 1j * mp.pi * x * x) / mpar.b)
                assert abs(got - ref) <= bound * abs(ref), (p.point.parity, x)


def test_pole_numerators_are_the_products_at_u(all_states, ctx, monkeypatch):
    # the report's x = sigma, sigma + i b, -sigma give u = s, q^2 s, 1/s
    # (q^2 = e^{2 pi i b^2}) and, as |b| = 1, leave v = e^{2 pi b conj x} at
    # conj sbar or its inverse.  Each product is matched to its own size or
    # to its change per unit relative move of u and v, the larger: on sheet
    # 2 chi(s) lies near a zero (|chi(s)| ~ 1e-5, |s chi'(s)| ~ 1), so at
    # u = q^2 s the few roundings between the two routes to v move chi(v)
    # by ~1e5 of its ulps
    seen = []

    def recorded(x, p, ctx):
        seen.append(terms(x, p, ctx))
        return seen[-1]
    terms = eigenfunction._numerator_terms
    monkeypatch.setattr(eigenfunction, "_numerator_terms", recorded)
    bound = mp.mpf(2) ** (16 - BITS)
    for p in all_states:
        seen.clear()
        rep = pole_cancellation_check(p, ctx)
        with ctx.workprec():
            mpar, eps, xi = p.mpar, p.point.eps, p.point.parity

            def products(u, v):
                return (chi_check_eval(u, eps, mpar, ctx) * mp.conj(chi_eval(v, eps, mpar, ctx)),
                        xi * chi_eval(u, eps, mpar, ctx) * mp.conj(chi_check_eval(v, eps, mpar, ctx)))
            sigma = mp.mpmathify(p.point.sigma)
            s = mp.exp(2 * mp.pi * mpar.b * sigma)
            sv = mp.exp(2 * mp.pi * mpar.b * mp.conj(sigma)) if mp.im(sigma) else s
            q2 = mpar.q * mpar.q
            d = mp.mpf(2) ** (8 - BITS)
            assert len(seen) == 3
            for got, (u, v) in zip(seen, ((s, sv), (q2 * s, sv), (1 / s, 1 / sv))):
                ref = products(u, v)
                for g, r, mu, mv in zip(got, ref, products(u * (1 + d), v),
                                        products(u, v * (1 + d))):
                    scale = max(abs(r), (abs(mu - r) + abs(mv - r)) / d)
                    assert abs(g - r) <= bound * scale, (xi, u)
            assert rep.max_normalized == max(abs(t1 + t2) / max(abs(t1), abs(t2), 1)
                                             for t1, t2 in seen)
