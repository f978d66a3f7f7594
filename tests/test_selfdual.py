"""Self-dual solver: geometry, quadrature, quantization, Bloch paths.

Oracles: closed forms for the turning points, central finite differences
for the path derivatives, the asinh/acosh forms at twice the precision for
the algebraic period integrands, mpmath.quad for the home-grown composite
Gauss-Legendre rule, the quadrature and mpmath's ellipk for the large-eps
period series, the 45-digit ground-state level constant for the
quantization root, the same level at twice the bits for the precision
ladder, and the bare quotient sin(2 pi I)/sin(2 pi y) just off
the turning points, on 384-bit records, for phi's limit there.  Path
invariants (cycle integrality, Bloch closure, branch-product unity,
reflection bookkeeping) are checked on explicit parameterizations.
"""

import dataclasses
import time

import pytest
from mpmath import mp

from mirror_spectra import selfdual
from mirror_spectra.precision import PrecisionExceeded, SolverError, make_context
from mirror_spectra.selfdual import (
    alpha_beta,
    canonical_integral,
    composite_gl,
    gauss_legendre_nodes,
    leg_integral,
    path_funcs,
    period_integrals,
    period_series,
    phi_eval,
    psi_selfdual,
    quantize_selfdual,
)

LOG_EPS0 = "2.88181542992629678247713987172363292221616219"


@pytest.fixture(scope="module")
def spec0(ctx192):
    return quantize_selfdual(0, ctx192)


@pytest.fixture(scope="module")
def spec1(ctx192):
    return quantize_selfdual(1, ctx192)


# ── geometry ──────────────────────────────────────────────────────────────


def test_alpha_beta_examples(ctx192):
    ctx = ctx192
    with ctx.workprec():
        a, b = alpha_beta(8, ctx)
        assert abs(a - mp.acosh(3) / (2 * mp.pi)) <= mp.mpf("1e-50")
        assert abs(mp.sinh(mp.pi * b) - mp.cosh(mp.pi * a)) <= mp.mpf("1e-50")

        eps = 4 + mp.mpf("1e-30")
        a, b = alpha_beta(eps, ctx)
        assert 0 < a < mp.mpf("1e-10")
        assert b >= mp.asinh(mp.mpf(1)) / mp.pi
        assert abs(4 * mp.cosh(mp.pi * a) ** 2 - eps) <= mp.mpf("1e-55")


def test_alpha_beta_rejects_bad_eps(ctx192):
    for bad in (4, mp.mpf("3.5"), -10, mp.nan, float("nan"), mp.ninf,
                mp.inf, float("inf")):
        with pytest.raises(ValueError, match="eps must exceed 4"):
            alpha_beta(bad, ctx192)
    # and the quadrature reaches the guard before any node
    with pytest.raises(ValueError, match="eps must exceed 4"):
        period_integrals(mp.inf, ctx192)
    with pytest.raises(ValueError):
        alpha_beta(mp.mpc(8, 1), ctx192)


def test_path_funcs_endpoints(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        tol = mp.mpf("1e-50")
        r0, s0, _, _ = path_funcs(spec0.eps, 0, ctx)
        assert abs(r0 - spec0.alpha) <= tol and abs(s0) <= tol
        r1, _, _, _ = path_funcs(spec0.eps, 1, ctx)
        assert abs(r1 - spec0.beta) <= tol
        _, sh, _, _ = path_funcs(spec0.eps, mp.mpf(1) / 2, ctx)
        assert abs(sh - spec0.alpha) <= tol


def test_path_derivatives_match_finite_differences(spec0, ctx192):
    # central FD with h = 1e-25; analytic derivatives must agree to 1e-20
    ctx = ctx192
    with ctx.workprec():
        t, h = mp.mpf("0.3"), mp.mpf("1e-25")
        _, _, sp, rp = path_funcs(spec0.eps, t, ctx)
        rp_, sp_ = [
            (path_funcs(spec0.eps, t + h, ctx)[i]
             - path_funcs(spec0.eps, t - h, ctx)[i]) / (2 * h)
            for i in (0, 1)
        ]
        assert abs(sp - sp_) <= mp.mpf("1e-20")
        assert abs(rp - rp_) <= mp.mpf("1e-20")


@pytest.mark.parametrize("bits", [64, 128, 192, 256, 384])
def test_curve_integrands_match_defining_relations(bits):
    # The algebraic integrands against the asinh/acosh forms, from the same
    # sinh(pi alpha), cosh(2 pi alpha) and cos/sin(pi t).  The reference
    # runs at twice the precision, so it holds C = 1 - cos(pi t) + cosh(2 pi
    # alpha) exactly: at eps = 4.000001 and small t, C - 1 is nearly all
    # cancellation, and sqrt(C^2 - 1) or acosh(C) from a rounded C is about
    # 2^20 ulp off.
    ctx = make_context(bits, 2.0 ** (16 - bits))
    bound = mp.mpf(2) ** (8 - bits)
    half = mp.mpf(1) / 2
    with ctx.workprec():
        for e in ("4.000001", "4.5", "17.85", "1e6"):
            curve = selfdual._Curve(alpha_beta(mp.mpf(e), ctx)[0])
            sa, ca2 = curve.sa, curve.ca2
            for t in ("1e-30", "1e-6", "0.3", "0.4999999", "0.5", "0.9999"):
                t = mp.mpf(t)
                c, s = mp.cos_sin(mp.pi * t)
                with mp.workprec(2 * bits):
                    cosh_s = mp.cosh(mp.asinh(sa * s))
                    sp = sa * c / cosh_s
                    want = {
                        "a": 2 / (cosh_s * mp.cosh(mp.asinh(sa * c))),
                        "at": 4 * (mp.asinh(sa * c) / mp.pi) * sp,
                        "b": 1 / mp.sinh(mp.acosh(1 - c + ca2)),
                        "bt": mp.acosh(1 - c + ca2) / (2 * mp.pi),
                        "sprime": sp,
                    }
                a, at = curve.a_at(t)
                b, bt = curve.b_bt(t)
                have = {"a": a, "at": at, "b": b, "bt": bt,
                        "sprime": curve.sprime(t)}
                for name, ref in want.items():
                    got = have[name]
                    # at and s' vanish at t = 1/2: the bound is absolute there
                    scale = 1 if t == half and name in ("at", "sprime") else abs(ref)
                    assert abs(got - ref) <= bound * scale, (e, t, name)


# ── quadrature ────────────────────────────────────────────────────────────


def test_gauss_nodes_weights(ctx192):
    # the roots start from double precision; at every rung the rule must
    # still be the full-precision one: weights summing to 2, and x^62
    # integrated exactly, both to 2^(16 - bits) (1e-55 at 192 bits)
    for ctx, bound in ((make_context(64), None), (ctx192, mp.mpf("1e-55")),
                       (make_context(256), None), (make_context(1024), None)):
        bound = bound or ctx.finest_tol
        with ctx.workprec():
            nodes = gauss_legendre_nodes(ctx)
            assert len(nodes) == 32
            assert abs(mp.fsum(w for _, w in nodes) - 2) <= bound
            # order-32 rule is exact through degree 63
            v = mp.fsum(w * x ** 62 for x, w in nodes)
            assert abs(v - mp.mpf(2) / 63) <= bound, ctx.precision_bits
        assert gauss_legendre_nodes(ctx) is nodes  # cached


def test_legendre_root_stall_is_typed():
    # a negative floor is one that no Newton step meets: the root search
    # runs out of steps and names where it was
    with pytest.raises(SolverError, match=r"Legendre root near 0\.50\d+ of 32 stalled"):
        selfdual._legendre_root(0.5, -1.0)


def test_composite_gl_matches_mpmath_quad(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        ca2 = mp.cosh(2 * mp.pi * spec0.alpha)

        def f(t):
            return 1 / mp.sinh(mp.acosh(1 - mp.cos(mp.pi * t) + ca2))

        v = composite_gl(f, 0, 1, ctx)
        q = mp.quad(f, [0, 1])
        assert abs(v - q) <= mp.mpf("1e-45")
        # loose-vs-tight self-convergence
        v1 = composite_gl(f, 0, 1, make_context(192, 1e-30))
        v2 = composite_gl(f, 0, 1, make_context(192, 1e-44))
        assert abs(v1 - v2) <= mp.mpf("1e-30")


def test_composite_gl_failure_names_subinterval(ctx192):
    ctx = ctx192
    with ctx.workprec():
        third = mp.mpf(1) / 3
        with pytest.raises(SolverError, match=r"subinterval \[0\.33333333"):
            composite_gl(lambda t: mp.sqrt(abs(t - third)), 0, 1, ctx)


# ── period integrals ──────────────────────────────────────────────────────


def test_period_integrals_positive(ctx192):
    ctx = ctx192
    with ctx.workprec():
        A, At, B, Bt = period_integrals(20, ctx)
        assert A > 0 and At > 0 and B > 0 and Bt > 0
        for e in (10, 100, 1000):
            A, At, B, Bt = period_integrals(e, ctx)
            assert A * Bt - B * At > 0


def test_period_integrals_against_mpmath_quad(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        A, At, B, Bt = period_integrals(spec0.eps, ctx)
        sa = mp.sinh(mp.pi * spec0.alpha)
        ca2 = mp.cosh(2 * mp.pi * spec0.alpha)
        half = mp.mpf(1) / 2

        def s_of(t):
            return mp.asinh(sa * mp.sin(mp.pi * t)) / mp.pi

        def r_of(t):
            return mp.acosh(1 - mp.cos(mp.pi * t) + ca2) / (2 * mp.pi)

        qA = mp.quad(lambda t: 2 / (mp.cosh(mp.pi * s_of(t))
                                    * mp.cosh(mp.pi * s_of(t + half))), [0, half])
        qAt = mp.quad(lambda t: 4 * s_of(t + half) * sa * mp.cos(mp.pi * t)
                      / mp.cosh(mp.pi * s_of(t)), [0, half])
        qB = mp.quad(lambda t: 1 / mp.sinh(2 * mp.pi * r_of(t)), [0, 1])
        qBt = mp.quad(r_of, [0, 1])
        tol = mp.mpf("1e-45")
        assert abs(A - qA) <= tol and abs(At - qAt) <= tol
        assert abs(B - qB) <= tol and abs(Bt - qBt) <= tol


@pytest.mark.parametrize("bits, tol", [(128, 1e-33), (256, 1e-70)])
def test_period_integrals_match_closed_form(bits, tol):
    # B = 4K(k)/(pi eps) and A = 8K(k')/(pi eps), k = 4/eps, k'^2 = 1 - k^2;
    # mpmath's ellipk takes the parameter m = k^2.  Quadrature, and the
    # series where eps >= 8, must meet the absolute budget tol against the
    # AGM values.
    ctx = make_context(bits, tol)
    with ctx.workprec():
        for e in ("4.5", "8", "10", "137.2", "1000"):
            eps = mp.mpf(e)
            m = (4 / eps) ** 2
            periods = [period_integrals(eps, ctx)]
            if eps >= 8:
                periods.append(period_series(eps, ctx))
            for A, _, B, _ in periods:
                assert abs(B - 4 * mp.ellipk(m) / (mp.pi * eps)) <= ctx.tol
                assert abs(A - 8 * mp.ellipk(1 - m) / (mp.pi * eps)) <= ctx.tol


def test_period_integrals_match_closed_form_at_512_bits():
    # the 512-bit rung, default tol 1e-108: A and B against the AGM values,
    # Atilde and Btilde against the series where eps >= 8; at 1e6 the
    # boundary layer of A and Atilde is the narrowest of the three
    ctx = make_context(512)
    with ctx.workprec():
        for e in ("4.5", "17.85", "1e6"):
            eps = mp.mpf(e)
            m = (4 / eps) ** 2
            A, At, B, Bt = period_integrals(eps, ctx)
            assert abs(A - 8 * mp.ellipk(1 - m) / (mp.pi * eps)) <= ctx.tol, e
            assert abs(B - 4 * mp.ellipk(m) / (mp.pi * eps)) <= ctx.tol, e
            if eps >= 8:
                _, sAt, _, sBt = period_series(eps, ctx)
                assert abs(At - sAt) <= ctx.tol and abs(Bt - sBt) <= ctx.tol, e


@pytest.mark.parametrize("eps, most", [
    ("17.85", 128), ("833752", 256), ("70.428", 128), ("197.99", 128)])
def test_a_periods_trapezoid_work(eps, most):
    # levels 0, 18, 1 and 2 at 256 bits stop at N = 128, 256, 128 and 128
    # panels, on the error the contraction of the sums' moves predicts,
    # with no confirming doubling; the stretching map is what keeps level
    # 18 there, as the unmapped rule needs about 32,768 panels to resolve
    # the 1/sinh(pi alpha) layer
    ctx = make_context(256)
    with ctx.workprec():
        curve = selfdual._Curve(alpha_beta(mp.mpf(eps), ctx)[0])
        assert selfdual._stretched_a_periods(curve, ctx)[2] == most


def test_a_periods_beyond_the_bracket():
    # past eps = 1e6 further stages stretch the layer's image: the pass
    # stops at N = 256 at 1e12 and 512 at 1e40 (bounded here at twice
    # that), and the stages' guard bits keep A and Atilde within tol of
    # the series
    ctx = make_context(128)
    with ctx.workprec():
        for e, most in (("1e12", 1024), ("1e40", 2048)):
            eps = mp.mpf(e)
            A, At, n = selfdual._stretched_a_periods(
                selfdual._Curve(alpha_beta(eps, ctx)[0]), ctx)
            sA, sAt, _, _ = period_series(eps, ctx)
            assert n <= most and abs(A - sA) <= ctx.tol and abs(At - sAt) <= ctx.tol, e


def test_selfdual_levels_job_a_nodes(monkeypatch):
    # levels 0-2 at 256 bits, the CLI's default tol: three passes of N =
    # 128 panels, N + 1 nodes each
    passes = []
    original = selfdual._stretched_a_periods

    def counted(curve, ctx):
        got = original(curve, ctx)
        passes.append(got[2])
        return got

    monkeypatch.setattr(selfdual, "_stretched_a_periods", counted)
    ctx = make_context(256)
    for n in range(3):
        quantize_selfdual(n, ctx)
    assert sum(N + 1 for N in passes) == 387, passes


@pytest.mark.parametrize("bits", (192, 256))
def test_a_periods_relative_at_large_eps(bits):
    # A ~ 8 log(eps)/(pi eps) lies far below tol here, yet it keeps tol
    # relative: Atilde ~ log(eps)^2/pi^2 moves in the same doublings, and
    # each stage's guard bits reach cos(pi t), as small as the layer near
    # t = 1/2
    ctx = make_context(bits)
    with ctx.workprec():
        for e in ("1e48", "1e100", "1e120", "1e150"):
            eps = mp.mpf(e)
            A, At, _, _ = period_integrals(eps, ctx)
            sA, sAt, _, _ = period_series(eps, ctx)
            assert abs(A - sA) <= ctx.tol * sA and abs(At - sAt) <= ctx.tol, e


def test_a_periods_past_the_precision_raise_typed():
    # where 1 - beta of the innermost stage falls to the rounding floor the
    # layer cannot be stretched: a typed error naming eps and the precision
    for bits, e in ((192, "1e200"), (192, "1e300"), (256, "1e250")):
        with pytest.raises(PrecisionExceeded, match=rf"eps = 1\.0e\+{e[2:]}: .* {bits} bits"):
            period_integrals(mp.mpf(e), make_context(bits))


def test_period_integrals_where_alpha_rounds_to_zero():
    # at the eps just above 4, alpha rounds to 0: A = 8K(0)/(4 pi) = 1 and
    # Atilde = 0 with no layer to stretch, and B's singularity at t = 0
    # makes composite_gl raise its typed error
    ctx = make_context(192)
    with ctx.workprec():
        eps = 4 + mp.ldexp(1, -189)
        A, At, _ = selfdual._stretched_a_periods(
            selfdual._Curve(alpha_beta(eps, ctx)[0]), ctx)
        assert abs(A - 1) <= ctx.tol and abs(At) <= ctx.tol
        with pytest.raises(SolverError, match="subinterval"):
            period_integrals(eps, ctx)


def test_a_periods_panel_cap_is_typed(monkeypatch):
    # a pass still moving at the panel cap names its periods and N
    monkeypatch.setattr(selfdual, "_TRAP_MAX", 32)
    with pytest.raises(SolverError, match=r"period A and Atilde: .* N = 32 panels"):
        period_integrals(mp.mpf("17.85"), make_context(256))


def test_period_integrals_one_gl_pass(monkeypatch):
    # B and Btilde are the real and imaginary parts of one composite_gl pass
    calls = []
    original = selfdual.composite_gl

    def counted(f, a, b, ctx):
        calls.append((a, b))
        return original(f, a, b, ctx)

    monkeypatch.setattr(selfdual, "composite_gl", counted)
    ctx = make_context(192)
    for e in ("4.5", "17.85", "1e6"):
        calls.clear()
        period_integrals(mp.mpf(e), ctx)
        assert calls == [(0, 1)], e


@pytest.mark.parametrize("bits, tol", [(128, 1e-33), (192, 1e-50), (256, 1e-70)])
def test_period_series_matches_quadrature(bits, tol):
    # the series and the quadrature are independent; both meet tol
    ctx = make_context(bits, tol)
    with ctx.workprec():
        for e in ("8", "17.85", "100", "999", "1e6"):
            eps = mp.mpf(e)
            for s, q in zip(period_series(eps, ctx), period_integrals(eps, ctx)):
                assert abs(s - q) <= ctx.tol, (e, s, q)


def test_period_series_constant_is_zeta2_over_pi2():
    # at eps = 1e40 every sum is below the working precision, so
    # Atilde = (log eps)^2/pi^2 - zeta(2)/pi^2 and Btilde = log eps/(2 pi)
    ctx = make_context(256, 1e-70)
    with ctx.workprec():
        eps = mp.mpf(10) ** 40
        L = mp.log(eps)
        _, At, _, Bt = period_series(eps, ctx)
        assert abs(At - (L ** 2 - mp.zeta(2)) / mp.pi ** 2) <= ctx.tol
        assert abs(Bt - L / (2 * mp.pi)) <= ctx.tol


def test_period_series_rejects_small_eps(ctx192):
    for bad in (mp.mpf("7.99"), mp.mpf("4.5"), mp.nan, mp.inf, float("inf")):
        with pytest.raises(ValueError, match="eps >= 8"):
            period_series(bad, ctx192)


# ── quantization ──────────────────────────────────────────────────────────


def test_ground_state_level_constant():
    # 256-bit run must reproduce the pinned constant well past 30 digits
    ctx = make_context(256, 1e-35)
    spec = quantize_selfdual(0, ctx)
    with ctx.workprec():
        assert abs(mp.log(spec.eps) - mp.mpf(LOG_EPS0)) <= mp.mpf("1e-37")


def test_quantized_record_invariants(spec0, spec1, ctx192):
    ctx = ctx192
    with ctx.workprec():
        for spec in (spec0, spec1):
            target = spec.n + 1
            assert 0 < spec.alpha < spec.beta
            assert abs(4 * mp.cosh(mp.pi * spec.alpha) ** 2 - spec.eps) <= mp.mpf("1e-50")
            assert abs(mp.sinh(mp.pi * spec.beta) - mp.cosh(mp.pi * spec.alpha)) <= mp.mpf("1e-50")
            assert spec.A > 0 and spec.Atilde > 0 and spec.B > 0 and spec.Btilde > 0
            assert spec.A * spec.Btilde - spec.B * spec.Atilde > 0
            assert abs(spec.lam - spec.Btilde / spec.B) <= mp.mpf("1e-50")
            assert abs(spec.A * spec.lam - spec.Atilde - target) <= 1000 * ctx.tol * target
            # the periods are the quadrature at the record's own eps
            assert period_integrals(spec.eps, ctx) == (spec.A, spec.Atilde, spec.B, spec.Btilde)
        assert spec1.eps > spec0.eps


def test_quantize_rejects_bad_level(ctx192):
    with pytest.raises(ValueError):
        quantize_selfdual(-1, ctx192)
    for bad in (0.5, float("inf"), float("nan"), mp.inf, mp.nan, "1"):
        with pytest.raises(ValueError, match="level must be a non-negative integer"):
            quantize_selfdual(bad, ctx192)
    assert quantize_selfdual(2.0, ctx192).n == 2


def test_level_function_single_sign_change():
    # empirical root-counting from eps = 8 to 1e100, reported not assumed,
    # and the property Newton's missing bracket rests on: the slope in
    # log eps is positive and non-decreasing, so f is convex there
    from mirror_spectra.selfdual import _level_newton

    ctx = make_context(64, 1e-10)
    with ctx.workprec():
        vals, slopes = [], []
        e = mp.mpf(8)
        while e <= mp.mpf("1e100"):
            f, slope = _level_newton(e, ctx)
            vals.append(f)
            slopes.append(slope)
            e *= mp.mpf("1.35")
        assert slopes[0] > 0
        assert all(b >= a for a, b in zip(slopes, slopes[1:]))
        for n in (0, 1, 19, 1000):
            signs = [mp.sign(v - (n + 1)) for v in vals]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert changes == 1, n


def test_level_slope_matches_central_difference():
    # f is analytic in eps with its nearest singularity at eps = 4, so a
    # central difference with step h = d (eps - 4) has truncation error of
    # order d^2 |f'|; each f carries at most tol (1 + lam)(1 + A/B) from the
    # four periods, which adds tol (1 + lam)(1 + A/B)/h.
    from mirror_spectra.selfdual import _level_newton

    ctx = make_context(128, 1e-27)
    d = mp.mpf("1e-8")

    def level(eps):
        return _level_newton(eps, ctx)[0]

    with ctx.workprec():
        for e in ("10", "137.2", "1000"):
            eps = mp.mpf(e)
            slope = _level_newton(eps, ctx)[1]
            A, _, B, Bt = period_series(eps, ctx)
            fprime = slope / eps
            h = d * (eps - 4)
            fd = (level(eps + h) - level(eps - h)) / (2 * h)
            noise = ctx.tol * (1 + Bt / B) * (1 + A / B) / h
            assert abs(fd - fprime) <= d ** 2 * abs(fprime) + noise


def _count_periods(monkeypatch):
    calls = {}
    original = selfdual.period_integrals

    def counted(eps, ctx):
        calls[ctx.precision_bits] = calls.get(ctx.precision_bits, 0) + 1
        return original(eps, ctx)

    monkeypatch.setattr(selfdual, "period_integrals", counted)
    return calls


def test_quantize_work_count(monkeypatch):
    # Newton runs on the period series; the quadrature is called once per
    # level, at the root and at the working precision
    calls = _count_periods(monkeypatch)
    ctx = make_context(256, 1e-54)
    for n in range(4):
        calls.clear()
        quantize_selfdual(n, ctx)
        assert calls == {256: 1}, (n, calls)


def test_quantize_newton_ladder_work(monkeypatch):
    # Newton climbs from 64 bits with one step per doubled rung, the last at
    # the context's precision, so a level takes at most two series
    # evaluations there: that step and the one the stop test reads
    calls = {}
    original = selfdual._level_newton

    def counted(eps, ctx):
        calls[ctx.precision_bits] = calls.get(ctx.precision_bits, 0) + 1
        return original(eps, ctx)

    monkeypatch.setattr(selfdual, "_level_newton", counted)
    for bits, rungs in ((256, (128,)), (1024, (128, 256, 512))):
        if bits == 1024:
            # B and Btilde take about 35 s a level by quadrature at 1,024
            # bits (ROADMAP item 19); the series stands in for the root check
            monkeypatch.setattr(selfdual, "period_integrals", period_series)
        for n in range(4):
            calls.clear()
            quantize_selfdual(n, make_context(bits))
            assert 1 <= calls.pop(64) and 1 <= calls.pop(bits) <= 2, (bits, n)
            assert calls == dict.fromkeys(rungs, 1), (bits, n, calls)


@pytest.mark.parametrize("bits, levels", [
    (64, (0, 2)), (96, (0, 2)), (128, (0, 2)), (256, (0, 2)), (384, (2,))],
    ids=["64", "96", "128", "256", "384"])
def test_quantize_precision_ladder(bits, levels):
    # levels by the series Newton plus the root check, against the same at
    # twice the bits: eps within tol eps; level 0's 768-bit reference would
    # add 2 s, and its digits are pinned at 256 bits by LOG_EPS0
    ctx, ref = make_context(bits), make_context(2 * bits)
    for n in levels:
        got, want = quantize_selfdual(n, ctx).eps, quantize_selfdual(n, ref).eps
        with ref.workprec():
            assert abs(got - want) <= ctx.tol * want, (bits, n)


@pytest.fixture(scope="module")
def levels_256():
    ctx = make_context(256)
    return ctx, {n: quantize_selfdual(n, ctx).eps for n in (0, 14, 100, 1000)}


@pytest.mark.parametrize("bits", (96, 192))
def test_level_root_bounds_log_eps(bits, levels_256, monkeypatch):
    # the level's Newton stop bounds log eps by tol, not only f - (n+1) by
    # tol (n+1), which allows tol (n+1)/f' in log eps (about 50 tol at
    # level 1,000); against the 256-bit levels.  At 96 bits level 1,000
    # lies past the quadrature's reach (its root check misses by 5e-7), so
    # the series stands in for that check there
    ref_ctx, refs = levels_256
    ctx = make_context(bits)
    for n, ref in refs.items():
        with monkeypatch.context() as patch:
            if bits == 96 and n == 1000:
                patch.setattr(selfdual, "period_integrals", period_series)
            eps = quantize_selfdual(n, ctx).eps
        with ref_ctx.workprec():
            assert abs(mp.log(eps) - mp.log(ref)) <= ctx.tol, (bits, n)


def test_quantize_levels_past_1e6(monkeypatch):
    # f(1e6) ~ 19.5: from level 19 on the root lies past eps = 1e6, and
    # Newton reaches it with one quadrature at the root.  At levels 2,000
    # (eps ~ 1e61) and 5,000 (eps ~ 3e96) A lies far below tol, and the
    # quadrature still keeps the relative digits both checks need
    calls = _count_periods(monkeypatch)
    for bits in (192, 256):
        ctx = make_context(bits)
        for n in (19, 20, 200, 1000, 2000, 5000):
            calls.clear()
            spec = quantize_selfdual(n, ctx)   # the root check passed
            selfdual._check_quantized(spec, ctx)
            assert calls == {bits: 1}, (bits, n, calls)
        assert spec.eps > mp.mpf("1e96")


def test_quantize_refuses_levels_past_the_quadrature(monkeypatch):
    # at level 14,000 (eps ~ 3e161) and 100,000 (eps ~ 3e431) at 192 bits
    # the quadrature cannot stretch its layer at all, and says so before it
    # evaluates a node; a quadrature that disagrees with the series' root
    # fails the root check
    ctx = make_context(192)
    for n in (14000, 100000):
        t0 = time.monotonic()
        with pytest.raises(PrecisionExceeded, match="too thin to stretch"):
            quantize_selfdual(n, ctx)
        assert time.monotonic() - t0 < 2, n
    original = selfdual.period_integrals

    def detuned(eps, ctx):
        A, At, B, Bt = original(eps, ctx)
        return A * (1 + mp.mpf("1e-30")), At, B, Bt

    monkeypatch.setattr(selfdual, "period_integrals", detuned)
    with pytest.raises(SolverError, match="root residual"):
        quantize_selfdual(0, ctx)


def test_quantize_newton_step_cap(monkeypatch):
    # Newton out of steps before its stop test passes is a typed failure
    monkeypatch.setattr(selfdual, "_NEWTON_STEPS", 1)
    with pytest.raises(SolverError, match="Newton for level 0 did not settle"):
        quantize_selfdual(0, make_context(128))


def test_quantize_keeps_exact_root(monkeypatch):
    # a level function that reads exactly n + 1 once Newton lands on the
    # level-0 root must stop there, not step on from it
    ctx = make_context(128, 1e-30)
    with ctx.workprec():
        root = mp.mpf(LOG_EPS0)

    def fake(eps, ctx):
        with ctx.workprec():
            r = mp.log(eps) - root
            if abs(r) <= mp.mpf(2) ** (8 - mp.prec):
                r = mp.mpf(0)
            return 1 + r, mp.mpf(1)

    monkeypatch.setattr(selfdual, "_level_newton", fake)
    spec = quantize_selfdual(0, ctx)
    with ctx.workprec():
        assert abs(mp.log(spec.eps) - root) <= mp.mpf(2) ** (8 - mp.prec)


# ── canonical paths ───────────────────────────────────────────────────────


def test_canonical_regimes(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        I, y = canonical_integral(mp.mpf("0.2"), spec0, ctx)
        assert abs(mp.re(y)) <= mp.mpf("1e-50") and mp.im(y) > 0
        I, y = canonical_integral(mp.mpf("0.45"), spec0, ctx)
        assert abs(mp.im(y)) <= mp.mpf("1e-50") and 0 < mp.re(y) < mp.mpf("0.5")
        I, y = canonical_integral(mp.mpf("0.9"), spec0, ctx)
        assert abs(mp.re(y) - mp.mpf("0.5")) <= mp.mpf("1e-50") and mp.im(y) > 0
        # base point: empty path
        I, y = canonical_integral(spec0.alpha, spec0, ctx)
        assert abs(I) <= mp.mpf("1e-50") and abs(y) <= mp.mpf("1e-50")
    for bad in (-1, mp.nan, float("nan"), mp.inf, float("inf")):
        with pytest.raises(ValueError, match="T must be real and non-negative"):
            canonical_integral(bad, spec0, ctx)
    # phi_eval reaches the guard through the imaginary part of x
    for bad in (mp.mpc(0, mp.inf), mp.mpc(0, mp.ninf)):
        with pytest.raises(ValueError, match="T must be real and non-negative"):
            phi_eval(bad, spec0, ctx)


def test_quarter_xi_cycle(spec0, spec1, ctx192):
    # the xi path to x = 0 runs over t in [0, 1/2], where a and at integrate
    # to A and At: a quarter xi-cycle, (A lam - At)/4 = (n + 1)/4
    ctx = ctx192
    for spec in (spec0, spec1, quantize_selfdual(2, ctx)):
        I, _ = canonical_integral(0, spec, ctx)
        with ctx.workprec():
            assert abs(I - mp.mpf(spec.n + 1) / 4) <= 10 * ctx.tol, spec.n


def test_turning_point_cancellation(spec0, ctx192):
    # f(i beta, 1/2)^2 = 1: the accumulated integral vanishes there
    ctx = ctx192
    with ctx.workprec():
        I, y = canonical_integral(spec0.beta, spec0, ctx)
        assert abs(I) <= mp.mpf("1e-25")
        assert abs(mp.expj(2 * mp.pi * I) ** 2 - 1) <= mp.mpf("1e-24")


def test_cycle_integrality(spec0, spec1, ctx192):
    # closed xi cycle carries A lam - At = n + 1; closed zeta cycle vanishes
    ctx = ctx192
    with ctx.workprec():
        half = mp.mpf(1) / 2
        for spec in (spec0, spec1):
            sa = mp.sinh(mp.pi * spec.alpha)

            def s_of(t):
                return mp.asinh(sa * mp.sin(mp.pi * t)) / mp.pi

            def xi_int(t):
                st = s_of(t)
                sp = sa * mp.cos(mp.pi * t) / mp.cosh(mp.pi * st)
                s2 = s_of(t + half)
                return (spec.lam / (2 * mp.cosh(mp.pi * st) * mp.cosh(mp.pi * s2))
                        - s2 * sp)

            def zeta_int(t):
                r = mp.acosh(1 - mp.cos(mp.pi * t) + spec.eps / 2 - 1) / (2 * mp.pi)
                return r - spec.lam / mp.sinh(2 * mp.pi * r)

            assert abs(2 * composite_gl(xi_int, 0, 1, ctx) - (spec.n + 1)) <= mp.mpf("1e-37")
            assert abs(composite_gl(zeta_int, 0, 1, ctx)) <= mp.mpf("1e-37")


def test_reflection_and_swap_bookkeeping(spec0, ctx192):
    # rho: x -> -x negates the integral; sigma: (x,y) -> (y,x) gives
    # d(xy) - theta_lambda, so the swapped zeta path integrates to
    # i beta/2 - I_zeta(1) = i beta/2.
    ctx = ctx192
    with ctx.workprec():
        lam, eps = spec0.lam, spec0.eps

        def r_of(t):
            return mp.acosh(1 - mp.cos(mp.pi * t) + eps / 2 - 1) / (2 * mp.pi)

        def g(t):  # theta_lambda on the zeta path (x, y) = (i r(t), t/2)
            x = 1j * r_of(t)
            return (x + lam / mp.sin(2 * mp.pi * x)) / 2

        def g_rho(t):  # same path reflected through x -> -x
            x = -1j * r_of(t)
            return (x + lam / mp.sin(2 * mp.pi * x)) / 2

        end = mp.mpf("0.7")
        I = composite_gl(g, 0, end, ctx)
        I_rho = composite_gl(g_rho, 0, end, ctx)
        assert abs(I + I_rho) <= mp.mpf("1e-37")

        def g_sigma(t):  # swapped path (t/2, i r(t)); dy = i r'(t) dt
            rp = mp.sin(mp.pi * t) / (2 * mp.sinh(2 * mp.pi * r_of(t)))
            return (t / 2 + lam / mp.sin(mp.pi * t)) * 1j * rp

        I_sigma = composite_gl(g_sigma, 0, 1, ctx)
        assert abs(I_sigma - 1j * spec0.beta / 2) <= mp.mpf("1e-35")


# ── Bloch continuation ────────────────────────────────────────────────────


def test_bloch_cycle_factor(spec0, ctx192):
    # f(x+1, y) = e^{2 pi i y} f(x, y) once the continued branch closes:
    # after one x-period in the xi and third regimes, after two in the
    # zeta regime (the first period lands on the -y sheet).
    ctx = ctx192
    with ctx.workprec():
        tol = mp.mpf("1e-45")
        for Ts, periods in (("0.2", 1), ("0.9", 1), ("0.45", 2)):
            T = mp.mpf(Ts)
            _, y0 = canonical_integral(T, spec0, ctx)
            I, y_end = leg_integral(T, periods, spec0, ctx, y0)
            assert abs(mp.expj(2 * mp.pi * (I - periods * y0)) - 1) <= tol
            k = y_end - y0 if periods == 1 else y_end - y0
            assert abs(k - mp.nint(mp.re(k))) <= tol  # same branch mod 1


@pytest.mark.parametrize("bits", (64, 96, 128, 256))
def test_unit_legs_match_monodromy(bits):
    # phi's precision rung: below alpha and above beta a unit leg's
    # integral is fixed by its ends, by the monodromy behind phi's Harper
    # equation, so it has an exact reference at every precision.  Below
    # alpha y returns to y0 and the leg is tau y0; above beta it ends on
    # y1 = y0 + tau, and the leg is x1 y1 - x0 y0 - (x1^2 - x0^2)/2 - tau/2
    ctx = make_context(bits)
    spec = quantize_selfdual(0, ctx)
    with ctx.workprec():
        for Ts in ("0.1", "1.0"):
            T = mp.mpf(Ts)
            below = T < spec.alpha
            assert below or T > spec.beta   # no closed form between them
            _, y0 = canonical_integral(T, spec, ctx)
            for tau in (1, -1):
                I, _ = leg_integral(T, tau, spec, ctx, y0)
                if below:
                    want = tau * y0
                else:
                    x0, y1 = 1j * T, y0 + tau
                    x1 = x0 + tau
                    want = (x1 * y1 - x0 * y0 - (x1 * x1 - x0 * x0) / 2
                            - mp.mpf(tau) / 2)
                assert abs(I - want) <= ctx.tol, (Ts, tau)


def test_branch_shift_invariance(spec0, ctx192):
    # f(x, y+1) = f(x, y): starting the continuation one sheet up changes
    # nothing but the endpoint label
    ctx = ctx192
    with ctx.workprec():
        T, tau = mp.mpf("0.45"), mp.mpf("0.7")
        _, y0 = canonical_integral(T, spec0, ctx)
        Ia, ya = leg_integral(T, tau, spec0, ctx, y0)
        Ib, yb = leg_integral(T, tau, spec0, ctx, y0 + 1)
        assert abs(Ia - Ib) <= mp.mpf("1e-45")
        assert abs(yb - ya - 1) <= mp.mpf("1e-45")


def test_branch_product_unity(spec0, ctx192):
    # f(x, y) f(x, -y) = 1 from the base point: the two continuations sum
    # to an integer
    ctx = ctx192
    with ctx.workprec():
        T, tau = mp.mpf("0.45"), mp.mpf("0.7")
        _, y0 = canonical_integral(T, spec0, ctx)
        Ip, _ = leg_integral(T, tau, spec0, ctx, y0)
        Im_, _ = leg_integral(T, tau, spec0, ctx, -y0)
        assert abs(mp.expj(2 * mp.pi * (Ip + Im_)) - 1) <= mp.mpf("1e-45")


def test_leg_start_must_be_on_curve(spec0, ctx192):
    with pytest.raises(SolverError, match="off the spectral curve"):
        leg_integral(mp.mpf("0.45"), 1, spec0, ctx192, mp.mpf("0.123"))
    # and the leg's length must be real and finite
    T = mp.mpf("0.45")
    _, y0 = canonical_integral(T, spec0, ctx192)
    for bad in (mp.nan, mp.inf, mp.ninf, float("nan"), mp.mpc(1, 1)):
        with pytest.raises(ValueError, match="leg length must be real and finite"):
            leg_integral(T, bad, spec0, ctx192, y0)
        # phi_eval reaches the leg through the real part of x
        if not mp.im(bad):
            with pytest.raises(ValueError, match="leg length must be real and finite"):
                phi_eval(bad, spec0, ctx192)
    # a leg of length 0 is empty: no integral, and y stays at its start
    with ctx192.workprec():
        I, y = leg_integral(T, 0, spec0, ctx192, y0)
        assert I == 0 and y == y0


def test_leg_integral_rejects_bad_inputs(spec0, ctx192):
    # the leg runs at height T on the imaginary axis: a complex or
    # non-finite T is refused at once, and a NaN start is off the curve
    T = mp.mpf("0.3")
    _, y0 = canonical_integral(T, spec0, ctx192)
    for bad in (mp.mpc("0.3", "0.25"), mp.inf, mp.ninf, mp.nan, float("nan")):
        with pytest.raises(ValueError, match="T must be real and finite"):
            leg_integral(bad, mp.mpf("0.2"), spec0, ctx192, y0)
    for bad in (mp.nan, float("nan"), mp.mpc(mp.nan, 0)):
        with pytest.raises(SolverError, match="off the spectral curve"):
            leg_integral(T, mp.mpf("0.2"), spec0, ctx192, bad)


# ── eigenfunction ─────────────────────────────────────────────────────────


def test_phi_finite_at_base_and_turning_points(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        va = phi_eval(1j * spec0.alpha, spec0, ctx)
        vb = phi_eval(1j * spec0.beta, spec0, ctx)
        assert mp.isfinite(va) and abs(va) > mp.mpf("1e-4")
        assert mp.isfinite(vb) and abs(vb) > mp.mpf("1e-4")
        # the limit at the turning point continues the nearby profile
        v1 = phi_eval(1j * (spec0.alpha + mp.mpf("1e-4")), spec0, ctx)
        v2 = phi_eval(1j * (spec0.alpha + mp.mpf("2e-4")), spec0, ctx)
        assert abs(va - (2 * v1 - v2)) <= mp.mpf("1e-5") * abs(va)


@pytest.fixture(scope="module")
def records384():
    # twice the bits of ctx192: the references' own error is far below 1e-39
    ctx = make_context(384, 1e-81)
    return ctx, [quantize_selfdual(n, ctx) for n in (0, 1)]


def _quotient(T, spec, ctx):
    """phi(iT) as the bare quotient sin(2 pi I)/sin(2 pi y), no limit."""
    with ctx.workprec():
        I, y = canonical_integral(T, spec, ctx)
        return mp.sinpi(2 * I) / mp.sinpi(2 * y)


def test_phi_at_turning_points(spec0, spec1, ctx192, records384):
    # phi at +-i alpha and +-i beta against the bare quotient 1e-100 off the
    # point on a 384-bit record: the offset moves phi by about 1e-100, and
    # sin(2 pi y) ~ 1e-50 there leaves the quotient good to about 1e-65
    hi, refs = records384
    with hi.workprec():
        d = mp.mpf("1e-100")
        for spec, ref in zip((spec0, spec1), refs):
            parity = 1 if spec.n % 2 == 0 else -1
            for name, side in (("alpha", 1), ("beta", -1)):
                want = _quotient(getattr(ref, name) + side * d, ref, hi)
                for sign in (1, -1):
                    got = phi_eval(sign * 1j * getattr(spec, name), spec, ctx192)
                    w = want if sign > 0 else parity * want
                    assert abs(got - w) <= 10 * ctx192.tol * abs(w), (spec.n, name, sign)


@pytest.mark.parametrize("delta", ["0", "1e-15", "1e-30", "1e-35", "1e-45"])
def test_phi_offset_ladder_at_turning_points(delta, spec0, ctx192, records384):
    # i alpha + i delta and i beta +- i delta: phi is analytic through the
    # turning points, so every rung, on either side of the 2^(-bits/2)
    # switch to the limit, meets 10 tol against the 384-bit quotient.  The
    # limit's error is O(sin^2(2 pi y)): at 1e-35, sin(2 pi y) ~ 3e-17 and
    # the limit is about 5e-35 off, so a looser switch misses tol there.
    hi, (ref, _) = records384
    with hi.workprec():
        delta = mp.mpf(delta)
        d = delta + mp.mpf("1e-100")
        for name, side in (("alpha", 1), ("beta", -1), ("beta", 1)):
            got = phi_eval(1j * (getattr(spec0, name) + side * delta), spec0, ctx192)
            want = _quotient(getattr(ref, name) + side * d, ref, hi)
            assert abs(got - want) <= 10 * ctx192.tol * abs(want), (name, side)


def test_leg_along_a_branch_level_fails_fast(spec0, ctx192):
    # on T = alpha and T = beta the curve branches at every iT + k
    with ctx192.workprec():
        for x, level in ((1j * spec0.alpha + mp.mpf("0.3"), "alpha"),
                         (1j * spec0.beta + 1, "beta"), (1j * spec0.beta - 1, "beta")):
            with pytest.raises(SolverError, match=f"branch level T = {level}"):
                phi_eval(x, spec0, ctx192)


def test_phi_eval_at_64_bits(spec0, ctx192):
    # the leg's on-curve check scales with the working precision: a 64-bit
    # record evaluates off the imaginary axis and agrees with the 192-bit one
    ctx = make_context(64, 1e-10)
    spec = quantize_selfdual(0, ctx)
    for x in ("0.15", "0.3", "0.462", "0.8", "0.3+0.2j"):
        v = phi_eval(mp.mpmathify(x), spec, ctx)
        with ctx192.workprec():
            w = phi_eval(mp.mpmathify(x), spec0, ctx192)
            assert abs(v - w) <= 1000 * ctx.tol * abs(w)


def test_phi_parity(spec0, spec1, ctx192):
    ctx = ctx192
    with ctx.workprec():
        x = mp.mpc("0.3", "0.6")
        for spec in (spec0, spec1):
            sign = 1 if spec.n % 2 == 0 else -1
            v = phi_eval(x, spec, ctx)
            w = phi_eval(-x, spec, ctx)
            assert abs(w - sign * v) <= mp.mpf("1e-40") * abs(v)
        assert abs(phi_eval(0, spec1, ctx)) <= mp.mpf("1e-50")


def test_phi_parity_on_real_axis(spec0, spec1, ctx192):
    # phi(tau) and phi(-tau) come from legs walked from x = 0 in opposite
    # directions, so parity is a property of the paths here, not of
    # phi_eval's T < 0 branch
    ctx = ctx192
    with ctx.workprec():
        for spec in (spec0, spec1):
            sign = 1 if spec.n % 2 == 0 else -1
            for t in ("0.15", "0.3", "0.462", "0.8"):
                tau = mp.mpf(t)
                v = phi_eval(tau, spec, ctx)
                w = phi_eval(-tau, spec, ctx)
                assert abs(w - sign * v) <= 10 * ctx.tol * abs(v), (spec.n, t)


def test_phi_rejects_detuned_record(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        bad = dataclasses.replace(spec0, eps=spec0.eps + mp.mpf("0.1"))
    with pytest.raises(SolverError, match="multivalued"):
        phi_eval(1j * mp.mpf("0.3"), bad, ctx)


def test_harper_residual_on_imaginary_axis(spec0, ctx192):
    # phi(x-1) + phi(x+1) + (2 cos(2 pi x) - eps) phi(x) at twenty points
    # spread over all three path regimes, relative residual below 10 tol
    ctx = ctx192
    with ctx.workprec():
        points = ["0.05", "0.10", "0.15", "0.20", "0.25", "0.30", "0.35",
                  "0.41", "0.445", "0.455", "0.462", "0.470", "0.50", "0.56",
                  "0.65", "0.80", "1.00", "1.30", "1.70", "2.10"]
        assert len(points) == 20
        worst = mp.mpf(0)
        for Ts in points:
            x = 1j * mp.mpf(Ts)
            up = phi_eval(x + 1, spec0, ctx)
            dn = phi_eval(x - 1, spec0, ctx)
            mid = (2 * mp.cos(2 * mp.pi * x) - spec0.eps) * phi_eval(x, spec0, ctx)
            rel = abs(up + dn + mid) / max(abs(up), abs(dn), abs(mid))
            worst = max(worst, rel)
        assert worst <= 10 * ctx.tol


def test_psi_selfdual_cross_checked(spec0, ctx192):
    ctx = ctx192
    with ctx.workprec():
        x = mp.mpf("0.37")
        v = psi_selfdual(x, spec0, ctx)
        assert abs(v - phi_eval(1j * x, spec0, ctx)) <= mp.mpf("1e-40") * abs(v)
