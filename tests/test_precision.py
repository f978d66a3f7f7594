"""Context validation, q-Pochhammer oracles, theta1 identities."""

import dataclasses
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mirror_spectra import (
    ModularParam,
    PrecisionExceeded,
    make_context,
    pochhammer_q,
    theta1,
)
from mirror_spectra import precision, spectral
from mirror_spectra.invariants import _theta1_product
from mirror_spectra.precision import PrecCtx, _predicted_stop, _theta_eo, default_tol


# ── make_context ────────────────────────────────────────────────────────────

def test_make_context_paper_grade():
    ctx = make_context(192, 1e-40)
    assert ctx.precision_bits == 192
    assert ctx.tol == 1e-40


def test_make_context_smoke_grade():
    ctx = make_context(64, 1e-10)
    assert ctx.precision_bits == 64


def test_make_context_rejects_unreachable_tol():
    with pytest.raises(ValueError):
        make_context(64, 1e-30)


def test_make_context_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_context(32, 1e-5)
    with pytest.raises(ValueError):
        make_context(128, 0.0)
    with pytest.raises(ValueError):
        make_context(128, -1e-10)
    with pytest.raises(ValueError):
        make_context(192, float("inf"))
    # a precision that is not an integer, which mpmath would truncate
    for bits in (100.7, "128", mp.mpf("64.5"), Fraction(201, 2), float("nan"),
                 float("inf")):
        with pytest.raises(ValueError, match="must be an integer"):
            make_context(bits)
        with pytest.raises(ValueError, match="must be an integer"):
            PrecCtx(precision_bits=bits, tol=1e-10)
    for bits in (100.0, Fraction(200, 2), mp.mpf(100)):
        assert type(make_context(bits).precision_bits) is int
        assert make_context(bits) == make_context(100)
        assert type(PrecCtx(precision_bits=bits, tol=1e-10).precision_bits) is int


def test_make_context_default_tol_follows_precision():
    # without a tol a context gets its precision's default, so make_context(64)
    # builds (a fixed 1e-40 is unreachable there) and 192 bits keeps 1e-40
    assert make_context(64).tol == default_tol(64) == mp.mpf(1e-11)
    assert make_context(1600).tol == default_tol(1600)
    assert make_context(1600).tol == make_context(1600, "1e-337").tol
    assert make_context() == make_context(192) == make_context(192, 1e-40)


def _default_k(bits):
    digits = int(bits * 0.30103)
    return digits - max(8, (3 * digits) // 10)


def test_default_tol_ladder():
    # the double 10.0 ** -k bit for bit wherever a double holds it, and the
    # true 10^-k rounded to 53 bits beyond, where the double went subnormal
    # (1,459 bits) and then 0.0 (1,535 bits)
    for bits in range(64, 1459):
        k = _default_k(bits)
        assert default_tol(bits)._mpf_ == mp.mpf(float(f"1e-{k}"))._mpf_, bits
    for bits in range(1459, 4301):
        tol = default_tol(bits)
        with mp.workprec(4 * bits):
            ten_k = mp.mpf(10) ** -_default_k(bits)
            assert tol > 0 and abs(tol - ten_k) <= mp.ldexp(ten_k, -53), bits
        assert make_context(bits, tol).tol == tol


def test_tol_representations_build_equal_contexts():
    # a float, a decimal string and an mpf are one 53-bit tol, also when the
    # mpf or the caller is at a finer precision
    with mp.workprec(192):
        fine = mp.mpf("1e-40")
        ctxs = [make_context(192, t) for t in (1e-40, "1e-40", mp.mpf(1e-40), fine)]
    assert all(c == ctxs[0] for c in ctxs)
    assert make_context(4300, "1e-1250") == make_context(4300, mp.mpf("1e-1250"))
    assert make_context(1600).precision_bits == 1600
    assert make_context(1600, default_tol(1600)).tol == default_tol(1600)


# ── Newton's stop on its predicted error ───────────────────────────────────

def _first_stop(sizes, budget):
    # the index of the correction _predicted_stop first accepts, or None
    prev = None
    for k, size in enumerate(sizes):
        if _predicted_stop(size, prev, budget):
            return k
        prev = size
    return None


def test_predicted_stop_on_synthetic_sequences():
    budget = mp.mpf(2) ** -100
    with mp.workprec(400):
        # quadratic: Newton on x^2 = 2 from 1.  The stop accepts x_k + dx_k
        # one evaluation before a correction falls below budget, and that
        # point is within budget of the root
        xs, dxs, x = [], [], mp.mpf(1)
        for _ in range(10):
            dx = -(x * x - 2) / (2 * x)
            xs.append(x)
            dxs.append(dx)
            x += dx
        sizes = [abs(dx) for dx in dxs]
        k = _first_stop(sizes, budget)
        assert sizes[k] > budget >= sizes[k + 1]
        assert abs(xs[k] + dxs[k] - mp.sqrt(2)) <= budget
        # linear with Theta just above 1/2, as at a double root: never,
        # however small the corrections get
        assert _first_stop([mp.mpf("0.5001") ** k for k in range(400)], budget) is None
        # linear with Theta just below 1/2: where the geometric tail Theta
        # size / (1 - Theta), the error left, first falls within budget
        theta = mp.mpf("0.4999")
        sizes = [theta ** k for k in range(400)]
        k = _first_stop(sizes, budget)
        assert sizes[k + 1] / (1 - theta) <= budget < sizes[k] / (1 - theta)
        # a linear approach (Theta 0.6) to a floor above budget, where the
        # corrections hover: they never pass, and the caller's own test
        # decides
        floor = budget * 1000
        sizes = [floor * (1 + mp.mpf("0.3") * (-1) ** k) + mp.mpf("0.6") ** k
                 for k in range(300)]
        assert _first_stop(sizes, budget) is None
    # no previous correction, or a zero one, never accepts; a zero
    # correction after a nonzero one does
    assert not _predicted_stop(mp.mpf(0), None, budget)
    assert not _predicted_stop(mp.mpf(0), mp.mpf(0), budget)
    assert _predicted_stop(mp.mpf(0), mp.mpf(1), budget)


# ── ModularParam ────────────────────────────────────────────────────────────

def test_modular_param_pi4(ctx192):
    mpar = ModularParam.from_theta("pi/4", ctx192)
    with ctx192.workprec():
        # theta = pi/4 gives the real nome e^{-pi}
        assert abs(mpar.q - mp.exp(-mp.pi)) < mp.mpf(10) ** -50
        assert abs(mpar.qbar - mp.conj(mpar.q)) < mp.mpf(10) ** -50
        assert abs(mpar.log_q - mp.mpc(0, 1) * mp.pi * mpar.b ** 2) < mp.mpf(10) ** -55
        assert abs(mp.exp(mpar.log_q) - mpar.q) < mp.mpf(10) ** -55
    assert mpar.in_supported_range


def test_modular_param_conjugate_swaps_fields(ctx192):
    mpar = ModularParam.from_theta("pi/3", ctx192)
    c = mpar.conjugate()
    assert c.q == mpar.qbar
    assert c.qbar == mpar.q
    assert c.log_q == mpar.log_qbar
    with ctx192.workprec():
        assert abs(c.b - 1 / mpar.b) < mp.mpf(10) ** -50
    cc = c.conjugate()
    assert cc.q == mpar.q
    assert cc.log_q == mpar.log_q


def test_modular_param_qbar_is_conjugate_across_range(ctx192):
    for frac in (1 / 8, 1 / 4, 3 / 8, 0.45):
        mpar = ModularParam.from_theta(mp.pi * frac, ctx192)
        with ctx192.workprec():
            assert abs(mpar.qbar - mp.conj(mpar.q)) < mp.mpf(10) ** -50
        assert abs(mpar.q) < 1
        assert abs(mpar.qbar) < 1


def test_modular_param_needs_its_precision(ctx192):
    # a nome says at how many bits it was built: left out, a 64-bit nome
    # would claim any default and pass the check under a finer context
    fields = dataclasses.asdict(ModularParam.from_theta("pi/4", make_context(64)))
    del fields["precision_bits"]
    with pytest.raises(TypeError):
        ModularParam(**fields)


def _raw_fields(mpar):
    """Every field of a nome, mpmath numbers as their raw _mpf_/_mpc_ tuples."""
    return {f.name: getattr(v, "_mpc_", getattr(v, "_mpf_", v))
            for f in dataclasses.fields(mpar) for v in [getattr(mpar, f.name)]}


def test_modular_param_at_rebuilds_the_coupling():
    # the nome keeps the angle it was given, so a rebuild at other bits is
    # from_theta of that same argument, bit for bit; a radian number finer
    # than the first nome's precision is not rounded to it
    with mp.workprec(192):
        radians = mp.mpf(1) / 3
    for coupling in ("pi/4", "pi/3", "3*pi/8", radians):
        for src, dst in ((64, 192), (192, 64), (192, 256)):
            mpar = ModularParam.from_theta(coupling, make_context(src))
            ref = ModularParam.from_theta(coupling, make_context(dst))
            assert _raw_fields(mpar.at(dst)) == _raw_fields(ref)
            # a conjugated nome is rebuilt conjugated
            assert _raw_fields(mpar.conjugate().at(dst)) == _raw_fields(ref.conjugate())
    # the coupling takes no part in equality or hashing
    mpar = ModularParam.from_theta("pi/4", make_context(64))
    other = dataclasses.replace(mpar, coupling=mp.pi / 4)
    assert other == mpar and hash(other) == hash(mpar)


def test_modular_param_rejects_degenerate_coupling(ctx192):
    # the angle is checked before the nome is built: 5 pi/4 and 9 pi/4 have
    # |q| = e^-pi, and 2.5 has |q| > 1
    for theta in (0, "pi/2", "5*pi/4", "9*pi/4", 2.5, "2.5"):
        with pytest.raises(ValueError, match="must lie in .0, pi/2."):
            ModularParam.from_theta(theta, ctx192)
    # the double below pi/2 lies inside the range at any precision, and only
    # the nome's margin refuses its |q| = 1 - 3.8e-16
    with pytest.raises(ValueError, match=r"\|q\| must be < 1"):
        ModularParam.from_theta(1.5707963267948966, ctx192)
    # on |b| = 1 |qbar| = |q|, so only a replaced field reaches qbar's check
    with pytest.raises(ValueError, match=r"\|qbar\| must be < 1, got \|qbar\| = 2\.0"):
        dataclasses.replace(ModularParam.from_theta("pi/4", ctx192), qbar=mp.mpf(2))


def test_modular_param_range_flag(ctx192):
    # the window pi/8 <= theta <= 3 pi/8 is symmetric about pi/4, as |q| is,
    # and its ends are compared at the parameter's own precision
    for ctx in (make_context(64), ctx192):
        for inside in ("pi/8", "pi/4", "3*pi/8"):
            assert ModularParam.from_theta(inside, ctx).in_supported_range
        for outside in ("pi/16", "7*pi/16", "15*pi/32"):
            assert not ModularParam.from_theta(outside, ctx).in_supported_range


# ── pochhammer_q ────────────────────────────────────────────────────────────

def test_pochhammer_empty_product(ctx192):
    assert pochhammer_q(0.7, 0.3, 0, ctx192) == 1


def test_pochhammer_single_factor(ctx192):
    with ctx192.workprec():
        q2 = mp.exp(-2 * mp.pi)
        assert abs(pochhammer_q(q2, q2, 1, ctx192) - (1 - q2)) == 0


def test_pochhammer_infinite_vs_brute_force(ctx192):
    # oracle: direct product of 40 factors, no early stop
    with ctx192.workprec():
        x = mp.exp(-2 * mp.pi)
        q = mp.exp(-2 * mp.pi)
        brute = mp.mpf(1)
        for k in range(40):
            brute *= 1 - x * q ** k
        val = pochhammer_q(x, q, mp.inf, ctx192)
        assert abs(val - brute) < mp.mpf(10) ** -40


def test_pochhammer_infinite_vs_mpmath_qp(ctx192):
    # second, independent oracle: mpmath's own q-factorial
    cases = [
        (mp.mpf("0.3"), mp.mpf("0.5")),
        (mp.mpc("0.2", "0.4"), mp.mpc("0.1", "-0.6")),
        (mp.mpf(2), mp.mpf("0.25")),
    ]
    with mp.workprec(256):
        for x, q in cases:
            val = pochhammer_q(x, q, mp.inf, ctx192)
            ref = mp.qp(x, q)
            assert abs(val - ref) < mp.mpf(10) ** -38 * max(1, abs(ref))


def test_pochhammer_infinite_rejects_divergent(ctx192):
    with pytest.raises(ValueError):
        pochhammer_q(0.5, 1.2, mp.inf, ctx192)


def test_pochhammer_infinite_term_cap_raises():
    # |q| this close to 1 needs about 2e6 factors to bring |x q^k| below tol
    ctx = make_context(64, 1e-10)
    with pytest.raises(PrecisionExceeded, match="more than 4096 factors"):
        pochhammer_q(0.5, 0.99999, mp.inf, ctx)


def test_pochhammer_rejects_fractional_n(ctx192):
    with pytest.raises(ValueError):
        pochhammer_q(0.5, 0.5, 2.5, ctx192)
    assert pochhammer_q(0.5, 0.5, 2.0, ctx192) == pochhammer_q(0.5, 0.5, 2, ctx192)
    # every length but a non-negative integer or +inf is refused, by name
    ctx64 = make_context(64)
    for n in (float("-inf"), mp.ninf, mp.nan, float("nan"), "3", -1, mp.mpf(-2)):
        with pytest.raises(ValueError, match="n must be an integer >= 0 or"):
            pochhammer_q(0.5, 0.5, n, ctx64)
    assert (pochhammer_q(0.5, 0.5, float("inf"), ctx64)
            == pochhammer_q(0.5, 0.5, mp.inf, ctx64))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
)
def test_pochhammer_recurrence(n, xr, qr):
    # (x;q)_{n+1} = (x;q)_n (1 - x q^n)
    ctx = make_context(128, 1e-25)
    with ctx.workprec():
        x = mp.mpf(xr)
        q = mp.mpf(qr)
        lhs = pochhammer_q(x, q, n + 1, ctx)
        rhs = pochhammer_q(x, q, n, ctx) * (1 - x * q ** n)
        assert abs(lhs - rhs) <= mp.mpf(10) ** -24 * max(1, abs(rhs))


# ── theta1 ──────────────────────────────────────────────────────────────────

def test_theta1_vanishes_at_u_one(ctx192, mpar_pi4):
    val = theta1(0, mpar_pi4.q, ctx192)
    assert abs(val) < mp.mpf(10) ** -45


def test_theta1_is_odd_in_log_coordinate(ctx192, mpar_pi4, rng):
    with ctx192.workprec():
        for _ in range(50):
            w = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = theta1(w, mpar_pi4.q, ctx192)
            b = theta1(-w, mpar_pi4.q, ctx192)
            assert abs(a + b) < 10 * ctx192.tol * max(1, abs(a))


def test_theta1_quasi_periodicity_sweep(ctx192, mpar_pi4, rng):
    # both relations: theta1(1/u) = -theta1(u), theta1(q^2 u) = -theta1(u)/(qu)
    q = mpar_pi4.q
    lq = mpar_pi4.log_q
    tol = ctx192.tol
    with ctx192.workprec():
        for _ in range(1000):
            w = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t0 = theta1(w, q, ctx192)
            scale = max(1, abs(t0))
            assert abs(theta1(-w, q, ctx192) + t0) < 10 * tol * scale
            lhs = theta1(w + 2 * lq, q, ctx192)
            rhs = -mp.exp(-lq - w) * t0
            assert abs(lhs - rhs) < 10 * tol * max(scale, abs(rhs))


def test_theta1_modular_conjugation(ctx192):
    # conj(theta1(u,q)) = b e^{i pi/4 - i pi x^2} theta1(u,q) at real x.
    # The continued conjugate carries a sign: theta1 has a 1/i prefactor, so
    # conj(theta1(u,q)) = -theta1(ubar, qbar) with ubar = e^{2 pi x / b}.
    mpar = ModularParam.from_theta("pi/4", ctx192)
    tol = ctx192.tol
    with ctx192.workprec():
        for xr in ("0.1", "-0.35", "0.7", "1.2", "-1.01"):
            x = mp.mpf(xr)
            direct = theta1(2 * mp.pi * mpar.b * x, mpar.q, ctx192)
            lhs = -theta1(2 * mp.pi * x / mpar.b, mpar.qbar, ctx192)
            # continuation rule reduces to the literal conjugate at real x
            assert abs(lhs - mp.conj(direct)) < 10 * tol * max(1, abs(direct))
            rhs = (mpar.b * mp.exp(mp.mpc(0, 1) * mp.pi / 4
                                   - mp.mpc(0, 1) * mp.pi * x ** 2)
                   * direct)
            assert abs(lhs - rhs) < 10 * tol * max(1, abs(rhs))


def test_theta1_against_mpmath_jtheta(ctx192):
    # jtheta(1, z, q) with z = -i w / 2 is the same series
    couplings = [mp.pi / 4, 3 * mp.pi / 8, mp.pi / 5]
    points = [mp.mpc("0.3", "0.2"), mp.mpc("-1.1", "0.7"), mp.mpc("0.01", "-1.4")]
    with mp.workprec(256):
        for th in couplings:
            mpar = ModularParam.from_theta(th, ctx192)
            for w in points:
                mine = theta1(w, mpar.q, ctx192)
                ref = mp.jtheta(1, -mp.mpc(0, 1) * w / 2, mpar.q)
                assert abs(mine - ref) < mp.mpf(10) ** -38 * max(1, abs(ref))


def test_theta1_matches_triple_product(ctx192, rng):
    # Jacobi triple product (DLMF 20.5.3) at z = -i w / 2:
    # theta1 = -2i q^{1/4} sinh(w/2) prod_{n>=1} (1 - q^{2n})(1 - 2 q^{2n} cosh w + q^{4n})
    tol = ctx192.tol
    for th in ("pi/4", "3*pi/8", "pi/5"):
        mpar = ModularParam.from_theta(th, ctx192)
        for q in (mpar.q, mpar.qbar):
            for _ in range(8):
                w = mp.mpc(rng.uniform(-4, 4), rng.uniform(-3, 3))
                with mp.workprec(256):
                    ref = mp.mpc(0, -2) * mp.exp(mp.log(q) / 4) * mp.sinh(w / 2)
                    for n in range(1, 200):
                        q2n = q ** (2 * n)
                        ref *= (1 - q2n) * (1 - 2 * q2n * mp.cosh(w) + q2n * q2n)
                    assert abs(theta1(w, q, ctx192) - ref) < 10 * tol * max(1, abs(ref))


def test_theta1_matches_triple_product_above_double_range():
    # 1,600 bits at the default tol 1e-337, which a double cannot hold: the
    # term bound reads the tol's log from its mpf
    ctx = make_context(1600, default_tol(1600))
    mpar = ModularParam.from_theta("3*pi/8", ctx)
    with ctx.workprec():
        for w in (mp.mpc("0.3", "-0.2"), mp.mpc("-2.5", "1.7")):
            ref = _theta1_product(w, mpar.q, ctx)
            assert abs(theta1(w, mpar.q, ctx) - ref) <= 10 * ctx.tol * max(1, abs(ref))


def test_theta1_precision_self_consistency(mpar_pi4):
    lo = make_context(192, 1e-40)
    hi = make_context(384, 1e-80)
    with mp.workprec(400):
        for w in (mp.mpc("0.4", "0.9"), mp.mpc("-1.7", "0.2")):
            a = theta1(w, mpar_pi4.q, lo)
            b = theta1(w, mpar_pi4.q, hi)
            assert abs(a - b) < mp.mpf(1e-40) * max(1, abs(b))


@pytest.mark.parametrize("theta", ("pi/4", "pi/6", "3*pi/8", "7*pi/16"))
@pytest.mark.parametrize("bits", (64, 192))
def test_theta1_product_by_watson_identity(bits, theta, rng):
    # DLMF 20.7(iv) with E, O the theta_3 and theta_2 / (q^2)^{1/4} of nome
    # q^2: theta1(s u) theta1(u/s) = sqrt(q) (O(s) E(u) - E(s) O(u)).  At
    # 3 pi/8 and 7 pi/16 arg q^2 wraps past pi, so mp.sqrt(q) is held to
    # the nthroot(q^2, 4) of the pair
    ctx = make_context(bits)
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        for _ in range(6):
            xu = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            xs = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            eu, ou = _theta_eo(xu, mpar.q, ctx)
            es, os_ = _theta_eo(xs, mpar.q, ctx)
            lhs = theta1(xu + xs, mpar.q, ctx) * theta1(xu - xs, mpar.q, ctx)
            rhs = mp.sqrt(mpar.q) * (os_ * eu - es * ou)
            scale = max(abs(es * ou), abs(os_ * eu), 1)
            assert abs(lhs - rhs) <= mp.mpf(1e3) * ctx.tol * scale, (xu, xs)


def test_theta1_rejects_bad_nome(ctx192):
    with pytest.raises(ValueError):
        theta1(mp.mpc(0.1, 0.1), mp.mpf("1.01"), ctx192)
    # a non-finite argument is refused by name before any term is summed:
    # by theta1, by E and O, and by the solver and rho that sum them
    mpar = ModularParam.from_theta("pi/4", ctx192)
    for bad in (mp.nan, mp.inf, float("nan"), mp.mpc(0, mp.nan), mp.mpc(1, mp.ninf)):
        for name, run in (("theta1", lambda: theta1(bad, mpar.q, ctx192)),
                          ("theta3", lambda: _theta_eo(bad, mpar.q, ctx192)),
                          ("theta3", lambda: spectral.solve_eps(bad, 10, mpar, ctx192)),
                          ("theta3", lambda: spectral.rho_extract(bad, 10, mpar, ctx192))):
            with pytest.raises(ValueError, match=f"{name} needs a finite argument, got w = "):
                run()
    # a finite argument past the float range still meets the term cap
    with pytest.raises(PrecisionExceeded, match="more than 4096 terms"):
        theta1(mp.mpf("1e400"), mpar.q, ctx192)


def test_theta1_term_cap_raises():
    ctx = make_context(64, 1e-10)
    # |q| this close to 1, with |Re x_log| = 0.3, needs about 3e4 terms
    with pytest.raises(PrecisionExceeded, match="more than 4096 terms"):
        theta1(mp.mpc("0.3", "0.3"), mp.mpf("0.99999"), ctx)


@pytest.mark.parametrize("bits", (64, 128, 256))
def test_theta1_near_unit_nome_raises(bits):
    # theta1(0.3i, 0.99999) is about e^{-2.0e5}: the series cancels past
    # every bit the context carries, and a second sum at twice them
    ctx = make_context(bits)
    with pytest.raises(PrecisionExceeded, match="theta1 .*no correct digit is left"):
        theta1(mp.mpc(0, "0.3"), mp.mpf("0.99999"), ctx)


# ── theta rung: every strip, near a zero, against a sum with no shift ──────

def _strip_point(k, L, rng):
    # Re w in the strip of shift index k = nint(-Re w / (2L)), away from its edges
    return mp.mpc(-2 * k * L + rng.uniform(-0.9, 0.9) * L, rng.uniform(-3, 3))


def _rel_err(value, ref):
    return abs(value - ref) / abs(ref)


@pytest.mark.parametrize("theta", ("pi/8", "pi/4", "3*pi/8", "7*pi/16"))
@pytest.mark.parametrize("bits", (64, 96, 128, 256, 384))
def test_theta_rung_against_unshifted_jtheta(bits, theta, rng):
    # mp.jtheta at 2 bits + 64 sums far strips term by term from the largest
    # term, with no quasi-periodic shift: an oracle for theta1 and for the
    # theta_3, theta_2 of _theta_eo (nome q^2, argument 2x)
    ctx = make_context(bits)
    mpar = ModularParam.from_theta(theta, ctx)
    tol = ctx.tol
    with ctx.workprec():
        q, q2 = mpar.q, mpar.q ** 2
        L = -float(mp.log(abs(q)))
        for k in (-2, 0, 2):
            w = _strip_point(k, L, rng)
            x = _strip_point(k, 2 * L, rng) / 2
            value, (even, odd) = theta1(w, q, ctx), _theta_eo(x, q, ctx)
            with mp.workprec(2 * bits + 64):
                assert _rel_err(value, mp.jtheta(1, -1j * w / 2, q)) <= tol, (k, w)
                assert _rel_err(even, mp.jtheta(3, -1j * x, q2)) <= tol, (k, x)
                ref = mp.jtheta(2, -1j * x, q2) / mp.nthroot(q2, 4)
                assert _rel_err(odd, ref) <= tol, (k, x)
        # the psi stencil's nearest point: 2^(-bits/5)/2 from a theta1 zero
        d = mp.ldexp(1, -bits // 5 - 1) * mp.expjpi(rng.uniform(-1, 1))
        w = 2 * 2 * mpar.log_q + 2j * mp.pi + d
        value = theta1(w, q, ctx)
        with mp.workprec(2 * bits + 64):
            assert _rel_err(value, mp.jtheta(1, -1j * w / 2, q)) <= tol, w


@pytest.mark.parametrize("theta", ("pi/8", "pi/4", "3*pi/8", "7*pi/16"))
@pytest.mark.parametrize("bits", (64, 192, 512, 1024))
def test_theta1_is_correctly_rounded(bits, theta, rng):
    # theta1 at three points in each strip k = -2 .. 2, at the psi
    # stencil's nearest point to a zero, and at one shifted point with
    # |Im w| up to 2^64 is within 2 ulp, 2^(1 - bits) |theta1|, of
    # mp.jtheta at 2 bits + 64: the fixed-point sum's guard covers all it
    # loses, up to the strip's edges
    ctx = make_context(bits)
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        q = mpar.q
        L = -float(mp.log(abs(q)))
        ws = [_strip_point(k, L, rng) for k in range(-2, 3) for _ in range(3)]
        d = mp.ldexp(1, -bits // 5 - 1) * mp.expjpi(rng.uniform(-1, 1))
        ws.append(-2 * mpar.log_q + 2j * mp.pi + d)
        ws.append(_strip_point(2, L, rng) + 1j * mp.ldexp(rng.uniform(-1, 1), 64))
        for w in ws:
            value = theta1(w, q, ctx)
            with mp.workprec(2 * bits + 64):
                err = _rel_err(value, mp.jtheta(1, -1j * w / 2, q))
            assert err <= mp.ldexp(1, 1 - bits), w


# ── q-Pochhammer rung: against Euler's series at about twice the bits ──────

def _euler_qp(x, q2):
    # (x; q^2)_inf = sum_k (-1)^k q^{k(k-1)} x^k / (q^2; q^2)_k (Euler), term
    # k + 1 from term k by the ratio -q^{2k} x / (1 - q^{2k+2})
    total, term, q2k = mp.mpf(0), mp.mpf(1), mp.mpf(1)
    while abs(term) > mp.eps * abs(total):
        total += term
        term *= -q2k * x / (1 - q2k * q2)
        q2k *= q2
    return total


@pytest.mark.parametrize("theta", ("pi/8", "pi/4", "3*pi/8", "7*pi/16"))
@pytest.mark.parametrize("bits", (64, 96, 128, 256, 384))
def test_pochhammer_rung_against_euler_series(bits, theta, rng):
    # (x; q^2)_inf at x = q^2 (eigenfunction's theta1'(0) factor) and at
    # q^2 s^{+-1}, s = e^{2 pi b sigma} on the spectral ray, within tol
    # relative of Euler's series summed at 2 bits + 32
    ctx = make_context(bits)
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        q2 = mpar.q ** 2
        s = mp.exp(2 * mp.pi * mpar.b * mp.sin(mpar.theta) * rng.uniform(0.05, 0.95))
        for x in (q2, q2 * s, q2 / s):
            value = pochhammer_q(x, q2, mp.inf, ctx)
            with mp.workprec(2 * bits + 32):
                assert _rel_err(value, _euler_qp(x, q2)) <= ctx.tol, x


# ── work pin: precision and argument the fixed-point kernels see ───────────

@pytest.fixture()
def kernel_calls(monkeypatch):
    """(precision, |Im z|) of every theta sum: mpmath's kernels at z (the
    pair's theta_3 and theta_2), and theta1's own sum at w' = w - 2k log q,
    whose z = -i w' / 2 has |Im z| = |Re w'| / 2."""
    calls = []
    for name in ("_jacobi_theta2", "_jacobi_theta3"):
        kernel = getattr(mp, name)

        def spy(z, q, kernel=kernel):
            calls.append((mp.prec, abs(mp.im(z))))
            return kernel(z, q)
        monkeypatch.setattr(mp, name, spy)
    theta1_sum = precision._theta1_sum

    def theta1_spy(w, q, k, prec, extra):
        calls.append((prec, abs(mp.re(w) - 2 * k * mp.log(abs(q))) / 2))
        return theta1_sum(w, q, k, prec, extra)
    monkeypatch.setattr(precision, "_theta1_sum", theta1_spy)
    return calls


def test_theta_kernels_work_at_the_context_precision(kernel_calls, rng):
    # eigen_grid's theta1 arguments 2 pi b (x +- sigma), x in [-1.5, 1.5],
    # and the pair's at solve_eps' sigma in (0, sin theta): one sum each,
    # at most bits + 40 bits, inside the strip |Im z| <= L/2
    bits = 192
    ctx = make_context(bits, 1e-40)
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sth = mp.sin(mpar.theta)
        L = -mp.log(abs(mpar.q))
        cases = []
        for _ in range(16):
            x = mp.mpf(rng.uniform(-1.5, 1.5))
            cases += [(theta1, 2 * mp.pi * mpar.b * (x + sign * sth / 2), L)
                      for sign in (1, -1)]
            sigma = mp.mpf(rng.uniform(0.01, 0.99)) * sth
            cases.append((_theta_eo, 2 * mp.pi * mpar.b * sigma, 2 * L))
        shifted = 0
        for f, w, nome_L in cases:
            del kernel_calls[:]
            f(w, mpar.q, ctx)
            assert len(kernel_calls) == (1 if f is theta1 else 2), w
            for prec, im_z in kernel_calls:
                assert prec <= bits + 40, (w, prec)
                assert im_z <= nome_L / 2 * (1 + 1e-12), (w, im_z)
            shifted += f is theta1 and abs(w.real) > L
        assert shifted >= 8


def test_theta1_near_a_zero_sums_twice(kernel_calls):
    # the psi stencil's nearest point, 2^(-bits/5)/2 from a theta1 zero,
    # loses about bits/5 to cancellation: exactly one second sum
    bits = 192
    ctx = make_context(bits, 1e-40)
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        for zero in (0, 2 * mpar.log_q, -2 * mpar.log_q + 2j * mp.pi):
            del kernel_calls[:]
            theta1(zero + mp.ldexp(1, -bits // 5 - 1), mpar.q, ctx)
            assert len(kernel_calls) == 2, zero


def test_theta_kernels_have_one_caller(monkeypatch):
    # mpmath's theta_2 and theta_3 kernels and their derivative twins are
    # called from precision alone (_theta_sum): by a solve_eps, by the 64-
    # and 96-bit state steps of a spectrum, which take the slopes, and by
    # a factorize
    callers = []
    kernels = ("_jacobi_theta2", "_jacobi_theta3", "_djacobi_theta2", "_djacobi_theta3")
    for name in kernels:
        kernel = getattr(mp, name)

        def spy(*args, kernel=kernel, name=name):
            frame = sys._getframe(1)
            callers.append((name, frame.f_globals["__name__"], frame.f_code.co_name))
            return kernel(*args)
        monkeypatch.setattr(mp, name, spy)
    ctx = make_context(96)
    mpar = ModularParam.from_theta("pi/4", ctx)
    spectral.solve_eps(0, spectral.sheet_seed(1, mpar, ctx), mpar, ctx)
    point = spectral.spectrum(2, 16, (1, -1), mpar, ctx)[0]
    spectral.factorize(point.sigma, point.eps, mpar, ctx)
    assert {name for name, _, _ in callers} == set(kernels)
    outside = [c for c in callers if c[1] != "mirror_spectra.precision"]
    assert not outside, outside
