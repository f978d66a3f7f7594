"""Regular solution of the chi-equation: polynomial layer, series evaluation,
second solution, G ratio, multiplication rule, pole signalling, and the
shared recursion table."""

import itertools
import math
import os
import random
import sys
import types

from hypothesis import example, given, settings
from hypothesis import strategies as st
import mpmath.libmp
from mpmath import mp
from mpmath.libmp import (from_man_exp, fzero, mpc_add, mpc_mul, mpc_mul_int, mpf_add,
                          round_nearest)
import pytest

from mirror_spectra import chi
from mirror_spectra.chi import (
    G_eval,
    _add,
    _cadd,
    _chi_series,
    _chitable,
    _cmul,
    _ints,
    _log2_ints,
    _mpc,
    _parts,
    _qtable,
    _vanishes_at_precision,
    _wronskian_parts,
    _wronskian_sums,
    chi_check_eval,
    chi_dual_eval,
    chi_eval,
    chi_mult_check,
    chi_poly_seq,
)
from mirror_spectra.eigenfunction import EigenfunctionParams, psi_eval
from mirror_spectra.precision import (
    _MAX_TERMS,
    ModularParam,
    PoleSignal,
    PrecisionExceeded,
    _log2,
    default_tol,
    make_context,
    pochhammer_q,
)
from mirror_spectra.spectral import (
    SpectralPoint,
    factorize,
    sheet_seed,
    solve_eps,
    wronskian_eval,
    wronskian_residue,
)
from mirror_spectra.transfer import R_orbit, chi_via_Minf


def _newton_eps(F, x0, ctx, iters=60):
    # F(eps) -> (value, d/deps); plain Newton, converges in a handful of steps
    with ctx.workprec():
        x = mp.mpmathify(x0)
        for _ in range(iters):
            v, dv = F(x)
            if dv == 0:
                break
            step = v / dv
            x = x - step
            if abs(step) <= ctx.tol * max(1, abs(x)):
                break
        return x


# ── polynomial layer ──────────────────────────────────────────────────────


def test_poly_small_cases(ctx192, mpar_pi4):
    with ctx192.workprec():
        q = mpar_pi4.q
        eps = mp.mpc("1.3", "-0.7")
        values = chi_poly_seq(eps, mpar_pi4, 3, ctx192)
        dvalues = _dchi(eps, mpar_pi4, 3)
        c1 = (q - 1 / q) ** 2
        c2 = (q ** 2 - q ** -2) ** 2
        tol = mp.mpf("1e-50")
        assert values[0] == 1
        assert values[1] == eps
        assert abs(values[2] - (eps ** 2 + c1)) <= tol * abs(values[2])
        chi3 = eps ** 3 + eps * (c1 + c2)
        assert abs(values[3] - chi3) <= tol * abs(chi3)
        assert dvalues[0] == 0
        assert dvalues[1] == 1
        assert abs(dvalues[2] - 2 * eps) <= tol * abs(eps)
        dchi3 = 3 * eps ** 2 + c1 + c2
        assert abs(dvalues[3] - dchi3) <= tol * abs(dchi3)


def test_poly_recursion_bitwise(ctx192, mpar_pi4):
    # same arithmetic as the generator -> exact equality, term by term
    with ctx192.workprec():
        q = mpar_pi4.q
        eps = mp.mpc("0.4", "2.1")
        values = chi_poly_seq(eps, mpar_pi4, 12, ctx192)
        dvalues = _dchi(eps, mpar_pi4, 12)
        for n in range(1, 12):
            cn = (q ** n - q ** -n) ** 2
            assert values[n + 1] == eps * values[n] + cn * values[n - 1]
            assert dvalues[n + 1] == (
                values[n] + eps * dvalues[n] + cn * dvalues[n - 1]
            )


def test_poly_q_inverse_invariance(ctx192, mpar_pi4):
    # the coupling (q^n - q^-n)^2 is symmetric under q <-> 1/q; ModularParam
    # refuses |q| > 1, so the tables are read directly
    with ctx192.workprec():
        q = mpar_pi4.q
        eps = mp.mpc("-1.9", "0.3")
        t1, t2 = (_grown(eps, v, 13) for v in (q, 1 / q))
        for n in range(13):
            a, da, b, db = (_mpc(t[n]) for t in (t1.chi, t1.dchi, t2.chi, t2.dchi))
            scale = max(abs(a), 1)
            assert abs(a - b) <= mp.mpf("1e-50") * scale
            assert abs(da - db) <= mp.mpf("1e-50") * max(abs(da), 1)


def test_poly_derivative_complex_step(ctx192, mpar_pi4):
    # at theta=pi/4 the couplings are real, so Im chi_n(eps + ih)/h is an
    # independent derivative oracle with no subtraction error
    with ctx192.workprec():
        h = mp.mpf("1e-35")
        eps = mp.mpf("1.7")
        values = chi_poly_seq(mp.mpc(eps, h), mpar_pi4, 10, ctx192)
        dref = _dchi(eps, mpar_pi4, 10)
        for n in range(2, 11):
            d_cs = values[n].imag / h
            assert abs(d_cs - dref[n]) <= mp.mpf("1e-50") * max(abs(dref[n]), 1)


def test_poly_growth_envelope(ctx192, mpar_pi4):
    # |chi_n| tracks |q|^{-n^2/2} with an O(1) eps-dependent prefactor
    with ctx192.workprec():
        aq = abs(mpar_pi4.q)
        for eps in (mp.mpf("0.3"), mp.mpf(2), mp.mpf(40)):
            values = chi_poly_seq(eps, mpar_pi4, 30, ctx192)
            for n in range(10, 31):
                ratio = abs(values[n]) * aq ** (mp.mpf(n * n) / 2)
                assert mp.mpf("1e-3") < ratio < mp.mpf("1e2")


def test_poly_seq_guards(ctx192, mpar_pi4):
    # N below 2, and an N that is not an integer, which the error names
    for N in (1, 2.5, 3.0, "4"):
        with pytest.raises(ValueError, match=f"got {N!r}"):
            chi_poly_seq(mp.mpf(1), mpar_pi4, N, ctx192)


# ── series evaluation ─────────────────────────────────────────────────────


def _chi_brute(u, eps, mpar, ctx, N=64):
    # closed-form coefficients f_n = (-1)^n q^{n(n+1)} / (q^2;q^2)_n,
    # summed at fixed order: independent of the incremental update path
    with ctx.workprec():
        u = mp.mpmathify(u)
        q = mpar.q
        q2 = q * q
        values = chi_poly_seq(eps, mpar, N, ctx)
        s = mp.mpc(0)
        for n in range(N + 1):
            fn = (-1) ** n * q ** (n * (n + 1)) / pochhammer_q(q2, q2, n, ctx)
            s += fn * values[n] * u ** n
        return s


def test_chi_at_zero_is_one(ctx192, mpar_pi4):
    v = chi_eval(0, mp.mpf(3), mpar_pi4, ctx192)
    dv = _chi_series(0, mp.mpf(3), mpar_pi4, ctx192, slopes=True)[1]
    assert v == 1 and dv == 0


def test_chi_matches_bruteforce_series(ctx192, mpar_pi4):
    with ctx192.workprec():
        eps_list = [mp.mpf(2), mp.mpc(-1, 3)]
        u_list = [mp.mpf("0.3"), mp.mpf("-1.7"), mp.mpc(0, 2), mp.mpc(1, 1), mp.mpc("2.6", "-0.4")]
        for eps in eps_list:
            for u in u_list:
                fast = chi_eval(u, eps, mpar_pi4, ctx192)
                brute = _chi_brute(u, eps, mpar_pi4, ctx192)
                assert abs(fast - brute) <= 10 * ctx192.tol * max(abs(brute), 1)


def test_chi_functional_equation(ctx192, mpar_pi4, rng):
    # chi(u/q^2) + q^2 u^2 chi(q^2 u) = (1 - eps u + u^2) chi(u)
    for mpar in (mpar_pi4, ModularParam.from_theta("pi/3", ctx192)):
        with ctx192.workprec():
            q2 = mpar.q * mpar.q
            for _ in range(20):
                u = mp.mpc(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                eps = mp.mpc(rng.uniform(-4, 4), rng.uniform(-2, 2))
                t1 = chi_eval(u / q2, eps, mpar, ctx192)
                t2 = q2 * u * u * chi_eval(q2 * u, eps, mpar, ctx192)
                t3 = (1 - eps * u + u * u) * chi_eval(u, eps, mpar, ctx192)
                scale = max(abs(t1), abs(t2), abs(t3), mp.mpf(1))
                assert abs(t1 + t2 - t3) <= 10 * ctx192.tol * scale


@settings(max_examples=40, deadline=None)
@given(
    ur=st.floats(-1.5, 1.5),
    ui=st.floats(-1.5, 1.5),
    er=st.floats(-4, 4),
    ei=st.floats(-2, 2),
)
def test_chi_funceq_property(ctx192, mpar_pi4, ur, ui, er, ei):
    with ctx192.workprec():
        u = mp.mpc(ur, ui)
        eps = mp.mpc(er, ei)
        q2 = mpar_pi4.q * mpar_pi4.q
        t1 = chi_eval(u / q2, eps, mpar_pi4, ctx192)
        t2 = q2 * u * u * chi_eval(q2 * u, eps, mpar_pi4, ctx192)
        t3 = (1 - eps * u + u * u) * chi_eval(u, eps, mpar_pi4, ctx192)
        scale = max(abs(t1), abs(t2), abs(t3), mp.mpf(1))
        assert abs(t1 + t2 - t3) <= 10 * ctx192.tol * scale


def test_chi_eps_derivative_vs_central_difference(ctx192, mpar_pi4):
    with ctx192.workprec():
        u = mp.mpc("0.8", "0.4")
        eps = mp.mpc("1.1", "-0.6")
        h = mp.mpf("1e-20")
        dv = _chi_series(u, eps, mpar_pi4, ctx192, slopes=True)[1]
        fp = chi_eval(u, eps + h, mpar_pi4, ctx192)
        fm = chi_eval(u, eps - h, mpar_pi4, ctx192)
        fd = (fp - fm) / (2 * h)
        assert abs(dv - fd) <= mp.mpf("1e-30") * max(abs(dv), 1)


def test_chi_series_term_cap(mpar_pi4, ctx192):
    # at q = e^-pi the series of |u| = e^L stops near term L/pi, so
    # |u| = e^13000 needs more than the 4096-term cap
    with ctx192.workprec():
        u = mp.exp(13000)
    with pytest.raises(PrecisionExceeded, match="within 4096 terms"):
        chi_eval(u, mp.mpf(2), mpar_pi4, ctx192)
    # the Wronskian fails when one of its four series passes the cap: at
    # v = e^13000 its first series (v/q^2), at v = e^-13000 its second (1/v)
    # after the first has stopped
    for v in (u, 1 / u):
        with pytest.raises(PrecisionExceeded, match="within 4096 terms"):
            _wronskian_parts(v, mp.mpf(2), mpar_pi4, ctx192)
    # a non-finite argument never meets the stop test
    for bad in (mp.inf, mp.nan, mp.mpc(1, mp.ninf)):
        with pytest.raises(PrecisionExceeded, match="within 4096 terms"):
            chi_eval(bad, mp.mpf(2), mpar_pi4, ctx192)


def test_chi_series_rejects_coarse_modular_param(ctx192, ctx64):
    # nome data rounded to 64 bits would cap every 192-bit sum at 64 bits
    coarse = ModularParam.from_theta("pi/4", ctx64)
    with pytest.raises(ValueError, match="built at 64 bits .* the 192-bit context"):
        chi_eval(mp.mpf("0.5"), mp.mpf(1), coarse, ctx192)
    chi_eval(mp.mpf("0.5"), mp.mpf(1), coarse, ctx64)


# ── second solution and G ─────────────────────────────────────────────────


def test_chi_check_guard(ctx192, mpar_pi4):
    with pytest.raises(ValueError):
        chi_check_eval(0, mp.mpf(1), mpar_pi4, ctx192)


def test_second_solution_same_equation(ctx192, mpar_pi4, rng):
    # chk(u) = u^-1 chi(1/u) solves the chi-equation itself -- that is what
    # makes (chi, chk) a fundamental pair
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        for _ in range(12):
            u = mp.mpc(rng.uniform(0.2, 1.8), rng.uniform(-1.0, 1.0))
            eps = mp.mpc(rng.uniform(-4, 4), rng.uniform(-2, 2))
            t1 = chi_check_eval(u / q2, eps, mpar_pi4, ctx192)
            t2 = q2 * u * u * chi_check_eval(q2 * u, eps, mpar_pi4, ctx192)
            t3 = (1 - eps * u + u * u) * chi_check_eval(u, eps, mpar_pi4, ctx192)
            scale = max(abs(t1), abs(t2), abs(t3), mp.mpf(1))
            assert abs(t1 + t2 - t3) <= 10 * ctx192.tol * scale


def test_dual_solution_mirror_equation(ctx192, mpar_pi4, rng):
    # the Wronskian-normalised dual chk/W solves the q -> 1/q mirror equation
    # f(q^2 u) + (u^2/q^2) f(u/q^2) = (1 - eps u + u^2) f(u): the Wronskian's
    # quasi-periodicity W(q^2 u) = W(u)/(q^2 u^2) flips the equation over
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        for _ in range(8):
            u = mp.mpc(rng.uniform(0.3, 1.5), rng.uniform(-0.8, 0.8))
            eps = mp.mpc(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
            t1 = chi_dual_eval(q2 * u, eps, mpar_pi4, ctx192)
            t2 = (u * u / q2) * chi_dual_eval(u / q2, eps, mpar_pi4, ctx192)
            t3 = (1 - eps * u + u * u) * chi_dual_eval(u, eps, mpar_pi4, ctx192)
            scale = max(abs(t1), abs(t2), abs(t3), mp.mpf(1))
            assert abs(t1 + t2 - t3) <= 10 * ctx192.tol * scale


def test_G_inverse_product(ctx192, mpar_pi4, rng):
    # G(u) G(1/u) = 1 wherever both sides are regular
    with ctx192.workprec():
        for _ in range(8):
            u = mp.mpc(rng.uniform(0.3, 2.0), rng.uniform(-0.8, 0.8))
            eps = mp.mpc(rng.uniform(-3, 3), rng.uniform(-1, 1))
            p = G_eval(u, eps, mpar_pi4, ctx192) * G_eval(1 / u, eps, mpar_pi4, ctx192)
            assert abs(p - 1) <= 10 * ctx192.tol


def test_G_at_unit_points(ctx192, mpar_pi4):
    with ctx192.workprec():
        eps = mp.mpc("0.9", "0.2")
        assert abs(G_eval(1, eps, mpar_pi4, ctx192) - 1) <= 10 * ctx192.tol
        assert abs(G_eval(-1, eps, mpar_pi4, ctx192) + 1) <= 10 * ctx192.tol


# ── degenerate points: pole signalling doubles as an eigenvalue oracle ────


def test_even_state_chi_zero_flags_G_pole(ctx192, monkeypatch):
    # chi(1; eps) = 0 picks out the first even sigma=0 state; chi(1) is zero
    # there at each precision, so G has a pole, and an R-orbit from z = 1 has
    # no reference trajectory chi(z/q^2)/chi(z): its caller's rule flags it
    # (limit_classification redraws), and R_orbit itself sums no chi
    summed = []
    real = chi._chi_series

    def counted(*args, **kwargs):
        summed.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(chi, "_chi_series", counted)
    for ctx in (make_context(64), ctx192, make_context(256)):
        mpar = ModularParam.from_theta("pi/4", ctx)
        F = lambda e: _chi_series(1, e, mpar, ctx, slopes=True)[:2]
        eps = _newton_eps(F, mp.mpf("535.5"), ctx)
        with ctx.workprec():
            assert abs(eps - mp.mpf("535.493519473629469")) <= mp.mpf("1e-13") * 536
            q2 = mpar.q * mpar.q
            assert _vanishes_at_precision(chi_eval(1, eps, mpar, ctx),
                                          chi_eval(1 / q2, eps, mpar, ctx), ctx)
        with pytest.raises(PoleSignal):
            G_eval(1, eps, mpar, ctx)
        summed.clear()
        R_orbit(1, mp.mpf(1), 4, eps, mpar, ctx)
        assert not summed


def test_odd_state_wronskian_zero_flags_dual_pole(ctx192, mpar_pi4):
    # chi(q^-2) - q^2 chi(q^2) = 0 picks out the first odd sigma=0 state,
    # where the Wronskian vanishes at u = 1 and the dual solution blows up
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q

        def F(e):
            va, da, _ = _chi_series(1 / q2, e, mpar_pi4, ctx192, slopes=True)
            vb, db, _ = _chi_series(q2, e, mpar_pi4, ctx192, slopes=True)
            return va - q2 * vb, da - q2 * db

        eps = _newton_eps(F, mp.mpf("2.0"), ctx192)
        assert abs(eps - mp.mpf("1.9962511523")) <= mp.mpf("1e-9")
    with pytest.raises(PoleSignal):
        chi_dual_eval(1, eps, mpar_pi4, ctx192)
    # away from the Wronskian zero the dual solution is finite
    v = chi_dual_eval(mp.mpf("0.77"), eps, mpar_pi4, ctx192)
    assert mp.isfinite(v)
    # and at u = 0, where chi-check has its pole, it is not defined
    with pytest.raises(ValueError, match=r"chi_dual is defined on u != 0"):
        chi_dual_eval(0, eps, mpar_pi4, ctx192)


# ── multiplication rule ───────────────────────────────────────────────────


def test_mult_rule_first_coefficients(ctx192, mpar_pi4):
    # the k=1 coefficients collapse to -(q - 1/q)^2 and -(q^2 - q^-2)^2
    with ctx192.workprec():
        q = mpar_pi4.q
        q2, qm2 = q * q, 1 / (q * q)
        tol = mp.mpf("1e-50")

        def coeff(m, n, k):
            return (
                pochhammer_q(q ** (2 * m), qm2, k, ctx192)
                * pochhammer_q(q ** (2 * n), qm2, k, ctx192)
                * pochhammer_q(q ** (2 * (k - m - n)), q2, k, ctx192)
                / pochhammer_q(q2, q2, k, ctx192)
            )

        c11 = coeff(1, 1, 1)
        c12 = coeff(1, 2, 1)
        assert abs(c11 + (q - 1 / q) ** 2) <= tol * abs(c11)
        assert abs(c12 + (q2 - 1 / q2) ** 2) <= tol * abs(c12)


def test_mult_rule_residuals(ctx192, mpar_pi4):
    with ctx192.workprec():
        eps_list = [mp.mpc("1.7", "0.3"), mp.mpf("-4.2"), mp.mpc(0, "0.9")]
        for eps in eps_list:
            for (m, n) in [(1, 1), (1, 2), (2, 3), (5, 5), (7, 9), (10, 10)]:
                values = chi_poly_seq(eps, mpar_pi4, max(m + n, 2), ctx192)
                scale = abs(values[m] * values[n])
                r = chi_mult_check(m, n, eps, mpar_pi4, ctx192)
                assert r <= 10 * ctx192.tol * scale


def test_mult_rule_guards(ctx192, mpar_pi4):
    with pytest.raises(ValueError):
        chi_mult_check(13, 1, mp.mpf(1), mpar_pi4, ctx192)
    # m and n must be integers, each named in its own error
    for m, n, name in ((2.0, 1, "m"), (2.5, 1, "m"), ("2", 1, "m"),
                       (1, 2.0, "n"), (1, 2.5, "n"), (1, "2", "n")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            chi_mult_check(m, n, mp.mpf(1), mpar_pi4, ctx192)


# ── series kernel ─────────────────────────────────────────────────────────


def _chi_incremental(u, eps, mpar, ctx):
    # the one-argument loop with every q-factor recomputed in place, as the
    # series was summed before the shared q-table; returns (chi, dchi, terms)
    with ctx.workprec():
        u = mp.mpmathify(u)
        eps = mp.mpmathify(eps)
        if u == 0:
            return mp.mpf(1), mp.mpf(0), 0
        q = mpar.q
        q2 = q * q
        tol = ctx.tol
        chi_prev, dchi_prev = mp.mpf(1), mp.mpf(0)
        chi_cur, dchi_cur = eps, mp.mpf(1)
        s = ds = mp.mpc(0)
        f = up = q2p = mp.mpf(1)
        tmax = w0 = w1 = w2 = mp.mpf(0)
        for n in range(_MAX_TERMS):
            if n == 0:
                chi_n, dchi_n = chi_prev, dchi_prev
            elif n == 1:
                chi_n, dchi_n = chi_cur, dchi_cur
            else:
                cn = (q ** (n - 1) - q ** -(n - 1)) ** 2
                chi_n = eps * chi_cur + cn * chi_prev
                dchi_n = chi_cur + eps * dchi_cur + cn * dchi_prev
                chi_prev, chi_cur = chi_cur, chi_n
                dchi_prev, dchi_cur = dchi_cur, dchi_n
            coeff = f * up
            t = coeff * chi_n
            s += t
            ds += coeff * dchi_n
            tmax = max(tmax, abs(t))
            w0, w1, w2 = w1, w2, abs(t)
            if n >= 2 and w0 + w1 + w2 < tol * max(abs(s), tmax):
                return s, ds, n
            up *= u
            q2p *= q2
            f *= -q2p / (1 - q2p)
        raise AssertionError("reference series did not converge")


_KERNEL_CONTEXTS = ((128, 1e-27), (192, 1e-40), (256, 1e-60))
_KERNEL_THETAS = ("pi/4", "3*pi/8", "pi/6")


# tol 1e-1250 and terms past 2^1024: the series' log2 stop filter must not
# overflow or underflow where a double would.  The real nome keeps the
# reference loop's q powers at 4300 bits cheap.
_FINE_RUNG = ("pi/4", 4300, "1e-1250")


@pytest.mark.parametrize(
    "theta,bits,tol",
    [(theta, bits, tol) for bits, tol in _KERNEL_CONTEXTS
     for theta in _KERNEL_THETAS] + [_FINE_RUNG])
def test_series_kernel_batch_is_bitwise(bits, tol, theta):
    # the kernel == chi_eval == the in-place loop, bit for bit, per argument,
    # and the value with slopes is the value alone, as raw tuples: u = 0,
    # arguments whose series stop at different n, and a seeded sweep of |u|
    # over 1e-6 .. 1e6 at any angle under three eps
    fine = (theta, bits, tol) == _FINE_RUNG
    ctx = make_context(bits, tol)
    mpar = ModularParam.from_theta(theta, ctx)
    rng = random.Random(f"{theta}/{bits}")
    with ctx.workprec():
        us = (mp.mpf(0), mp.mpf("1e-9"), mp.mpc("0.3", "-0.2"),
              mp.mpc("-1.7", "0.4"), mp.mpc("2.6", "-1.9"), mp.mpc(0, 40))
        if fine:
            us += (mp.mpc("3e40", "-1e40"),)
        epss = (mp.mpc("3.7", "-12.5"), mp.mpc("-4.2", "6.1"), mp.mpf("0.7"))
        stops = set()
        # the fine rung's 4300-bit reference loop is too slow for the sweep
        for eps in epss[:1] if fine else epss:
            args = us + tuple(
                mp.rect(10 ** rng.uniform(-6, 6), rng.uniform(-mp.pi, mp.pi))
                for _ in range(0 if fine else 6))
            for u in args:
                v, dv, n = _chi_incremental(u, eps, mpar, ctx)
                stops.add(n)
                got = _chi_series(u, eps, mpar, ctx)
                assert got == chi_eval(u, eps, mpar, ctx) == v
                with_slopes = _chi_series(u, eps, mpar, ctx, slopes=True)
                assert with_slopes[:2] == (v, dv)
                assert _bits(with_slopes[0]) == _bits(got)
    assert len(stops) >= 4


def test_log2_abs_matches_mpmath():
    # the stop filter's float log2 |z| of an integer form, and log2 x of a
    # positive mpf (tol's), against mpmath's, from 2^-100000 to 2^100000,
    # with a zero or a far smaller real or imaginary part
    with mp.workprec(192):
        for e in (-100000, -1075, -60, 0, 1, 1025, 100000):
            a, b = mp.ldexp(mp.mpf("0.7071"), e), mp.ldexp(mp.mpf(-3) / 7, e)
            for z in (mp.mpc(a, b), mp.mpc(-b, a), mp.mpc(a, 0), mp.mpc(0, b),
                      mp.mpf(b), mp.mpc(a, mp.ldexp(b, -300)),
                      mp.mpc(mp.ldexp(a, 300), b)):
                want = mp.log(abs(z), 2)
                assert abs(_log2_ints(_ints(_parts(z))) - want) <= 1e-9, (e, z)
                assert abs(_log2(abs(z)) - want) <= 1e-9, (e, z)
        assert _log2_ints(_ints(_parts(mp.mpc(0)))) == -math.inf


@pytest.mark.parametrize("bits,tol", _KERNEL_CONTEXTS)
def test_wronskian_parts_bitwise_per_argument(bits, tol, rng):
    # the one-pass Wronskian reproduces the four separate series calls
    ctx = make_context(bits, tol)
    for theta in _KERNEL_THETAS:
        mpar = ModularParam.from_theta(theta, ctx)
        with ctx.workprec():
            q2 = mpar.q * mpar.q
            for _ in range(4):
                u = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                eps = mp.mpc(rng.uniform(-50, 50), rng.uniform(-50, 50))
                a = _chi_series(u / q2, eps, mpar, ctx)
                b = _chi_series(1 / u, eps, mpar, ctx) / u
                c = _chi_series(1 / (u / q2), eps, mpar, ctx) / (u / q2)
                d = _chi_series(u, eps, mpar, ctx)
                t1, t2 = a * b, c * d
                want = (t1 - t2, max(abs(t1), abs(t2)), b)
                assert _wronskian_parts(u, eps, mpar, ctx) == want
                assert chi_check_eval(u, eps, mpar, ctx) == b


def test_series_kernel_cache_isolated_by_precision():
    # a q-table or recursion table filled at 128 bits must not leak into a
    # 256-bit evaluation of the same eps
    ctx128 = make_context(128, 1e-27)
    ctx256 = make_context(256, 1e-60)
    mpar = ModularParam.from_theta("3*pi/8", ctx256)
    with ctx256.workprec():
        us = (mp.mpc("0.7", "0.2"), mp.mpc("-2.1", "1.3"))
        eps = mp.mpc("-4.2", "6.1")

    def series(ctx):
        return [_chi_series(u, eps, mpar, ctx) for u in us]
    _qtable.cache_clear()
    _chitable.cache_clear()
    cold = series(ctx256)
    cold_w = _wronskian_parts(us[0], eps, mpar, ctx256)
    _qtable.cache_clear()
    _chitable.cache_clear()
    low = series(ctx128)
    assert series(ctx256) == cold
    assert _wronskian_parts(us[0], eps, mpar, ctx256) == cold_w
    assert low != cold
    assert _chitable.cache_info().currsize == 2


def test_wronskian_matches_transfer_oracle(ctx192, rng):
    # W from the series kernel against W assembled from the independent
    # matrix-product route: chi_via_Minf(v) = (chi(v), chi(v/q^2))
    tol = ctx192.tol
    for theta in _KERNEL_THETAS:
        mpar = ModularParam.from_theta(theta, ctx192)
        with ctx192.workprec():
            q2 = mpar.q * mpar.q
            for _ in range(4):
                u = mp.mpc(rng.uniform(0.4, 1.4), rng.uniform(-0.6, 0.6))
                eps = mp.mpc(rng.uniform(-4, 4), rng.uniform(-3, 3))
                chi_u, chi_uq = chi_via_Minf(u, eps, mpar, ctx192)
                chi_q2u, chi_inv = chi_via_Minf(q2 / u, eps, mpar, ctx192)
                oracle = chi_uq * chi_inv / u - chi_q2u * (q2 / u) * chi_u
                w, scale, _ = _wronskian_parts(u, eps, mpar, ctx192)
                assert abs(w - oracle) <= 1000 * tol * max(scale, 1)


# ── shared recursion table ────────────────────────────────────────────────


def _fresh_pairs(eps, q):
    # the recursion run afresh from n = 0 on mpmath numbers, with no table,
    # and the series prefactor f_n formed as the q-table forms it: the
    # reference every consumer of the shared tables must reproduce bit for
    # bit
    q2 = q * q
    f = q2p = mp.mpf(1)
    chi_prev, dchi_prev = mp.mpf(1), mp.mpf(0)
    yield f, chi_prev, dchi_prev
    chi_cur, dchi_cur = eps, mp.mpf(1)
    n = 1
    while True:
        q2p *= q2
        f *= -q2p / (1 - q2p)
        yield f, chi_cur, dchi_cur
        cn = (q ** n - q ** -n) ** 2
        chi_next = eps * chi_cur + cn * chi_prev
        if not mp.isfinite(chi_next):
            raise PrecisionExceeded("chi polynomial overflow")
        dchi_next = chi_cur + eps * dchi_cur + cn * dchi_prev
        chi_prev, chi_cur = chi_cur, chi_next
        dchi_prev, dchi_cur = dchi_cur, dchi_next
        n += 1


class _Reads(list):
    # a list that records the highest index read from it
    top = -1

    def __getitem__(self, i):
        if isinstance(i, int):
            self.top = max(self.top, i)
        return super().__getitem__(i)


class _FreshTable:
    # a stand-in for chi._ChiTable that _fresh_pairs fills: patched in as
    # chi._chitable, it makes every consumer read mpmath's values, one
    # fresh table per pass; chi.top + 1 is the number of terms read.  The
    # Wronskian sums' weights k1, k0 come from the shared q-table
    def __init__(self, eps_pair, q_pair, bits):
        q = mp.make_mpc(q_pair)
        shared = _qtable(q, bits)
        self.qtab = types.SimpleNamespace(f=[], k1=shared.k1, k0=shared.k0,
                                          grow_k=shared.grow_k)
        self.chi, self.dchi = _Reads(), []
        self._terms = _fresh_pairs(mp.make_mpc(eps_pair), q)
        self.grow()
        self.grow()

    def grow(self):
        for v, column in zip(next(self._terms), (self.qtab.f, self.chi, self.dchi)):
            column.append(_ints(_parts(v)))


def _grown(eps, q, n):
    # the shared table of eps and q at the working precision, grown to n terms
    # and their eps-derivatives
    tab = _chitable(_parts(eps), _parts(q), mp.prec)
    while len(tab.chi) < n:
        tab.grow()
    tab.grow_slopes(n - 1)
    return tab


def _dchi(eps, mpar, n):
    # dchi_0..n/deps from the recursion table at the working precision, in
    # the types chi_poly_seq gives the values
    tab = _grown(eps, mpar.q, n + 1)
    return (mp.mpf(0), mp.mpf(1)) + tuple(map(_mpc, tab.dchi[2:n + 1]))


def _bits(v):
    # raw pairs and types, nested like v: equal only when both value and
    # type agree
    if isinstance(v, (tuple, list)):
        return tuple(_bits(x) for x in v)
    return type(v), _parts(v)


def _table(eps, mpar, bits):
    return _chitable(_parts(eps), _parts(mpar.q), bits)


def _state(theta, bits):
    # a root (sigma, eps) of W on sheet 1
    ctx = make_context(bits, default_tol(bits))
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        sigma = mp.mpf("0.17")
    return ctx, mpar, sigma, solve_eps(sigma, sheet_seed(1, mpar, ctx), mpar, ctx)


@pytest.mark.parametrize("theta", _KERNEL_THETAS)
@pytest.mark.parametrize("bits", (128, 192, 256))
def test_recursion_table_is_bitwise(bits, theta, monkeypatch):
    # every consumer of the table, cold (cleared before each) and warm
    # (grown by the others, in two orders), against the table-free recursion.
    # In the first warm order the value series grow chi past every term the
    # slope readers ask for before any dchi_n/deps is formed: the slopes are
    # grown late, and still bit for bit
    ctx, mpar, sigma, eps = _state(theta, bits)
    with ctx.workprec():
        p = EigenfunctionParams(
            point=SpectralPoint(sheet=1, sigma=sigma, eps=eps, parity=+1),
            eta=(mpar.b + 1 / mpar.b) / 2, rho=None, mpar=mpar)
        us = (mp.mpc("0.7", "0.2"), mp.mpc("-2.1", "1.3"), mp.mpc(0, 9))
        u = mp.mpc("0.9", "-0.4")
        # off the lattice, on it (the stencil) and at a complex x
        xs = (mp.mpf("0.61"), sigma, mp.mpc("-0.4", "0.15"))
    consumers = (
        lambda: [_chi_series(v, eps, mpar, ctx) for v in us],
        lambda: _wronskian_parts(u, eps, mpar, ctx),
        lambda: chi_poly_seq(eps, mpar, 30, ctx),
        lambda: wronskian_residue(eps, mpar, ctx),
        lambda: [psi_eval(x, p, ctx) for x in xs],
        lambda: factorize(sigma, eps, mpar, ctx),
        lambda: [_chi_series(v, eps, mpar, ctx, slopes=True) for v in us],
    )
    with monkeypatch.context() as m:
        m.setattr(chi, "_chitable", _FreshTable)
        ref = [_bits(f()) for f in consumers]
    cold = []
    for f in consumers:
        _chitable.cache_clear()
        cold.append(_bits(f()))
    _chitable.cache_clear()
    warm = [_bits(consumers[0]())]
    tab = _table(eps, mpar, bits)
    assert len(tab.dchi) == 2 < len(tab.chi)
    warm += [_bits(f()) for f in consumers[1:]]
    warm_reversed = [_bits(f()) for f in reversed(consumers)][::-1]
    assert cold == ref
    assert warm == ref
    assert warm_reversed == ref


def test_value_readers_form_no_slopes():
    # G_eval on a fresh eps sums two value series and forms no dchi_n/deps;
    # the Wronskian sums then form the derivatives of their own terms alone,
    # fewer than the series read, and a series with slopes those of the
    # terms it reads
    ctx, mpar, sigma, eps = _state("pi/4", 128)
    with ctx.workprec():
        s = mp.exp(2 * mp.pi * mpar.b * sigma)
        _chitable.cache_clear()
        G_eval(s, eps, mpar, ctx)
        tab = _table(eps, mpar, ctx.precision_bits)
        terms = len(tab.chi)
        assert len(tab.dchi) == 2 < terms
        wronskian_residue(eps, mpar, ctx)
        assert 2 < len(tab.dchi) < terms == len(tab.chi)
        _chi_series(s, eps, mpar, ctx, slopes=True)
        assert len(tab.dchi) == terms == len(tab.chi)
    _chitable.cache_clear()


def test_recursion_table_keys_isolate():
    ctx128 = make_context(128, 1e-27)
    ctx256 = make_context(256, 1e-60)
    mpar = ModularParam.from_theta("3*pi/8", ctx256)
    with ctx256.workprec():
        eps = mp.mpc("-4.2", "6.1")
        real, cplx = mp.mpf("1.5"), mp.mpc("1.5", 0)

    def seq(e, m, ctx, n):
        return _bits(chi_poly_seq(e, m, n, ctx))

    def fresh(e, m, ctx, n):
        with ctx.workprec():
            return _bits([v for _, v, _ in itertools.islice(_fresh_pairs(e, m.q), n + 1)])
    cases = (
        ((eps, mpar, ctx128), (eps, mpar, ctx256), 2),             # precision
        ((eps, mpar, ctx256), (eps, mpar.conjugate(), ctx256), 2), # conj nome
        ((real, mpar, ctx256), (cplx, mpar, ctx256), 1),           # mpf vs mpc
    )
    for a, b, tables in cases:
        _chitable.cache_clear()
        cold_a = seq(*a, 25)
        _chitable.cache_clear()
        cold_b = seq(*b, 25)
        assert cold_a == fresh(*a, 25) != cold_b == fresh(*b, 25)
        # each grown while the other's table is live reads as it did cold;
        # an mpf eps and the mpc of its value have one raw pair, one table
        assert seq(*a, 40)[:26] == cold_a
        assert seq(*b, 40)[:26] == cold_b
        assert _chitable.cache_info().currsize == tables
    # the mpf eps keeps its type where no complex factor has entered
    _chitable.cache_clear()
    for e in (real, cplx):
        assert type(chi_poly_seq(e, mpar, 3, ctx256)[1]) is type(e)


def test_recursion_table_interleaved_growth(ctx192, mpar_pi4, monkeypatch):
    # consumers of uneven length take turns on one table, each growing it
    # past the others or reading terms they formed: each reads what a fresh
    # recursion gives, and the table ends at the longest
    with ctx192.workprec():
        eps = mp.mpc("2.3", "-1.1")
        us = (mp.mpc("1e-6", "2e-6"), mp.mpc("1e50", "-3e49"))
    consumers = (
        lambda: chi_poly_seq(eps, mpar_pi4, 3, ctx192),
        lambda: _chi_series(us[0], eps, mpar_pi4, ctx192),
        lambda: chi_poly_seq(eps, mpar_pi4, 8, ctx192),
        lambda: chi_poly_seq(eps, mpar_pi4, 40, ctx192),
        lambda: _chi_series(us[1], eps, mpar_pi4, ctx192),
        lambda: chi_poly_seq(eps, mpar_pi4, 12, ctx192),
    )
    with monkeypatch.context() as m:
        m.setattr(chi, "_chitable", _FreshTable)
        want = [_bits(f()) for f in consumers]
    _chitable.cache_clear()
    qtab = _qtable(mpar_pi4.q, 192)
    got = []
    for f in consumers:
        got.append(_bits(f()))
        # the q-table grows its c and f together
        assert len(qtab.c) == len(qtab.f) >= len(_table(eps, mpar_pi4, 192).chi)
    assert got == want
    assert _chitable.cache_info().misses == 1
    stops = [_chi_incremental(u, eps, mpar_pi4, ctx192)[2] for u in us]
    assert 3 < stops[0] < 8 and stops[1] > 40
    assert len(_table(eps, mpar_pi4, 192).chi) == stops[1] + 1


def test_recursion_table_forms_only_what_is_asked(ctx192, mpar_pi4, monkeypatch):
    # a consumer that takes terms 0..N leaves chi_0..chi_N, as the recursion
    # run afresh would have formed; a Wronskian pass reads one table for its
    # four series and leaves the terms of the longest, and the residue
    # series leaves those it summed
    with ctx192.workprec():
        eps, q = mp.mpc("-1.3", "0.8"), mpar_pi4.q
        for n in (2, 3, 17):
            _chitable.cache_clear()
            assert len(chi_poly_seq(eps, mpar_pi4, n, ctx192)) == n + 1
            assert len(_table(eps, mpar_pi4, 192).chi) == n + 1
        u, q2 = mp.mpc("-1.7", "0.4"), q * q
        _chitable.cache_clear()
        _wronskian_parts(u, eps, mpar_pi4, ctx192)
        assert _chitable.cache_info().misses == 1
        args = (u / q2, 1 / u, 1 / (u / q2), u)
        stops = [_chi_incremental(v, eps, mpar_pi4, ctx192)[2] for v in args]
        assert len(set(stops)) > 1
        assert len(_table(eps, mpar_pi4, 192).chi) == max(stops) + 1
        made = []

        def counting(*key):
            made.append(_FreshTable(*key))
            return made[-1]
        with monkeypatch.context() as m:
            m.setattr(chi, "_chitable", counting)
            wronskian_residue(eps, mpar_pi4, ctx192)
        _chitable.cache_clear()
        wronskian_residue(eps, mpar_pi4, ctx192)
        assert len(_table(eps, mpar_pi4, 192).chi) == sum(t.chi.top + 1 for t in made)


def test_recursion_table_work_count_psi(ctx192, mpar_pi4):
    # psi at many points of one state: one table, one miss, grown to the
    # longest series among the points and no further
    with ctx192.workprec():
        sigma = mp.sin(mpar_pi4.theta) / 2
        eps = mp.mpc(0, "4.59435880983691894")
        p = EigenfunctionParams(
            point=SpectralPoint(sheet=1, sigma=sigma, eps=eps, parity=+1),
            eta=(mpar_pi4.b + 1 / mpar_pi4.b) / 2, rho=None, mpar=mpar_pi4)
        xs = [mp.mpf(k) / 7 - 1 for k in range(15)] + [
            mp.mpc("0.3", "0.2"), mp.mpc("-1.1", "0.6"), sigma]
    lengths = []
    for x in xs:
        _chitable.cache_clear()
        psi_eval(x, p, ctx192)
        lengths.append(len(_table(eps, mpar_pi4, 192).chi))
    _chitable.cache_clear()
    for x in xs:
        psi_eval(x, p, ctx192)
    assert _chitable.cache_info().misses == 1
    assert len(_table(eps, mpar_pi4, 192).chi) == max(lengths)
    assert len(set(lengths)) > 1


# ── integer core ──────────────────────────────────────────────────────────


def _mantissas(bits):
    # zero, uniform draws, and the patterns rounding turns on: all ones (a
    # carry up to 2^bits) and a top bit over a last one (a half-ulp tie)
    return st.one_of(
        st.just(0),
        st.integers(1, (1 << bits) - 1),
        st.integers(1, bits).map(lambda k: (1 << k) - 1),
        st.integers(1, bits).map(lambda k: (1 << k) + 1),
    )


@st.composite
def _mpfs(draw, bits, spread):
    # a raw mpf of up to `bits` bits, either sign, with an exponent offset
    # near 0 or anywhere within `spread` (past the 100 bits of mpf_add's
    # perturbation)
    man = draw(_mantissas(bits)) * draw(st.sampled_from((1, -1)))
    exp = draw(st.one_of(st.integers(-8, 8), st.integers(-spread, spread)))
    return from_man_exp(man, exp)


@st.composite
def _sum_cases(draw):
    # operands of up to 2 prec bits, as the unrounded products mpc_mul sums
    prec = draw(st.integers(53, 4300))
    return prec, draw(_mpfs(2 * prec, 3 * prec)), draw(_mpfs(2 * prec, 3 * prec))


@st.composite
def _complex_cases(draw):
    prec = draw(st.integers(53, 4300))
    z, w = ((draw(_mpfs(prec, 3 * prec)), draw(_mpfs(prec, 3 * prec))) for _ in "zw")
    return prec, z, w, draw(st.integers(-5000, 5000))


def _int_part(x):
    return _ints((x, fzero))[:2]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_sum_cases())
# ties to even, down and up, and a carry to 2^prec
@example(case=(53, from_man_exp(2 ** 53 + 1, 0), fzero))
@example(case=(53, from_man_exp(2 ** 53 + 3, 0), fzero))
@example(case=(53, from_man_exp(2 ** 53 - 1, 1), from_man_exp(1, 0)))
# mpf_add's perturbation where the exact sum carries into the half bit:
# it rounds to 2^104, the exact sum to 2^104 + 2^52; then the exact sum
# just inside each of its bounds, 100 bits between the last bits and
# prec + 4 between the tops
@example(case=(53, from_man_exp(2 ** 104 + 2 ** 51 - 1, 0), from_man_exp(2 ** 147 + 1, -101)))
@example(case=(53, from_man_exp(-2 ** 104 - 2 ** 51 + 1, 0), from_man_exp(-2 ** 147 - 1, -101)))
@example(case=(53, from_man_exp(2 ** 104 + 2 ** 51 - 1, 0), from_man_exp(2 ** 146 + 1, -100)))
@example(case=(53, from_man_exp(2 ** 104 + 2 ** 51 - 1, 0), from_man_exp(2 ** 148 + 1, -101)))
def test_integer_core_sum_is_mpf_add(case):
    prec, a, b = case
    want = _int_part(mpf_add(a, b, prec, round_nearest))
    assert _add(*_int_part(a), *_int_part(b), prec) == want
    assert _add(*_int_part(b), *_int_part(a), prec) == want


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_complex_cases())
def test_integer_core_complex_ops_are_libmp(case):
    prec, z, w, k = case
    iz, iw = _ints(z), _ints(w)
    assert _mpc(iz)._mpc_ == z
    assert _cmul(iz, iw, prec) == _ints(mpc_mul(z, w, prec, round_nearest))
    assert _cadd(iz, iw, prec) == _ints(mpc_add(z, w, prec, round_nearest))
    # an integer multiplier as the integer form (k, 0, 0, 0): the zero
    # products leave each part rounded once, as mpc_mul_int rounds it
    assert _cmul(iz, (k, 0, 0, 0), prec) == _ints(mpc_mul_int(z, k, prec, round_nearest))
    if iz[0] or iz[2]:
        with mp.workprec(prec):
            want = mp.log(abs(mp.make_mpc(z)), 2)
        assert abs(_log2_ints(iz) - want) <= 1e-9
    else:
        assert _log2_ints(iz) == -math.inf


def test_chi_loops_refuse_non_finite_inputs(ctx192, mpar_pi4):
    # integers carry no inf or nan: a u with such a part raises at once,
    # before any term is formed; a non-finite eps raises from the
    # recursion in every loop that reads it
    with ctx192.workprec():
        eps = mp.mpc("2.3", "-1.1")
    for bad in (mp.inf, mp.nan, mp.mpc(1, mp.ninf), mp.mpc(mp.nan, 1)):
        _chitable.cache_clear()
        for slopes in (False, True):
            with pytest.raises(PrecisionExceeded, match="within 4096 terms"):
                _chi_series(bad, eps, mpar_pi4, ctx192, slopes=slopes)
        assert _chitable.cache_info().currsize == 0
    for bad in (mp.inf, mp.nan, mp.mpc(mp.ninf, 1), mp.mpc(0, mp.nan)):
        for run in (lambda: _chi_series(mp.mpf("0.5"), bad, mpar_pi4, ctx192),
                    lambda: _wronskian_sums(bad, mpar_pi4, ctx192),
                    lambda: chi_poly_seq(bad, mpar_pi4, 4, ctx192)):
            with pytest.raises(PrecisionExceeded, match="chi polynomial overflow"):
                run()


def _libmp_calls(f):
    # calls into mpmath.libmp made while f runs
    libmp = os.path.dirname(mpmath.libmp.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(libmp):
            count += 1
    sys.setprofile(profile)
    try:
        f()
    finally:
        sys.setprofile(None)
    return count


def test_chi_loops_call_no_libmp_per_term(ctx192, mpar_pi4):
    # the loops run on the integer core: a pass calls libmp a fixed number
    # of times (conversions in and out), whatever its number of terms
    with ctx192.workprec():
        eps = mp.mpc("-4.2", "6.1")
        near, far = mp.mpc("1e-6", "2e-6"), mp.mpc("1e40", "3e40")
        fresh = (mp.mpc("0.5", "0.1"), mp.mpc("1e60", 1))
    short, long = (_chi_incremental(u, eps, mpar_pi4, ctx192)[2] for u in (near, far))
    assert long - short >= 30
    # warm: the recursion table of eps, and the q-tables past every count
    _wronskian_sums(mp.mpc("1e100"), mpar_pi4, ctx192)
    for u in (near, far):
        _chi_series(u, eps, mpar_pi4, ctx192, slopes=True)
    series = [_libmp_calls(lambda: _chi_series(u, eps, mpar_pi4, ctx192, slopes=True))
              for u in (near, far)]
    sums, terms = [], []
    for e in fresh:
        sums.append(_libmp_calls(lambda: _wronskian_sums(e, mpar_pi4, ctx192)))
        terms.append(len(_table(e, mpar_pi4, 192).chi))
    assert terms[1] - terms[0] >= 20
    assert series[0] == series[1]
    assert sums[0] == sums[1]


def test_wronskian_oracle_sums_four_value_series(ctx192, mpar_pi4, monkeypatch):
    # the four-series W is a value oracle: factorize, the dual solution and
    # wronskian_eval each sum its four chi series with no slopes, since
    # dW/deps comes from the two-sum pass alone
    with ctx192.workprec():
        sigma = mp.mpf("0.3")
        eps = solve_eps(sigma, mp.mpf(2), mpar_pi4, ctx192)
        u = mp.mpc("0.77", "0.2")
    slopes = []
    real = chi._chi_series

    def spy(*args, **kwargs):
        slopes.append(kwargs.get("slopes", False))
        return real(*args, **kwargs)
    monkeypatch.setattr(chi, "_chi_series", spy)
    for run in (lambda: factorize(sigma, eps, mpar_pi4, ctx192),
                lambda: chi_dual_eval(u, eps, mpar_pi4, ctx192),
                lambda: wronskian_eval(u, eps, mpar_pi4, ctx192)):
        slopes.clear()
        run()
        assert slopes == [False] * 4


def test_chi_series_sums_its_slopes_only_on_request(ctx192, mpar_pi4, monkeypatch):
    # over a warm table, a value-only series forms 3 complex products (u^n,
    # its prefactor and the term) and 1 complex sum per term; with slopes
    # it forms 6 and 3, the two slope sums added, the u-slope's n chi_n a
    # product by the integer form (n, 0, 0, 0).  The last term forms no
    # next power of u, so each series has one product fewer
    with ctx192.workprec():
        eps = mp.mpc("-4.2", "6.1")
        us = (mp.mpc("1e-6", "2e-6"), mp.mpc("0.3", "-0.2"), mp.mpc("1e40", "3e40"))
    for u in us:
        _chi_series(u, eps, mpar_pi4, ctx192, slopes=True)
    counts = {}

    def counted(name, op):
        def wrapped(*args):
            counts[name] += 1
            return op(*args)
        return wrapped
    monkeypatch.setattr(chi, "_cmul", counted("mul", _cmul))
    monkeypatch.setattr(chi, "_cadd", counted("add", _cadd))
    terms = []
    for u in us:
        n = _chi_incremental(u, eps, mpar_pi4, ctx192)[2] + 1
        terms.append(n)
        for slopes, want in ((False, (3 * n - 1, n)), (True, (6 * n - 1, 3 * n))):
            counts.update(mul=0, add=0)
            _chi_series(u, eps, mpar_pi4, ctx192, slopes=slopes)
            assert (counts["mul"], counts["add"]) == want, (u, slopes)
    assert len(set(terms)) == len(us)
