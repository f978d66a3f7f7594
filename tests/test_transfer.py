"""Transfer-matrix route to chi and the R-iteration limit classification."""

from mpmath import mp
import pytest

from mirror_spectra.chi import chi_eval
from mirror_spectra.precision import (
    ModularParam,
    PoleSignal,
    PrecisionExceeded,
    make_context,
)
from mirror_spectra.transfer import (
    L_eval,
    M_n_eval,
    R_orbit,
    TransferMatrix,
    chi_via_Minf,
    classify_r_orbit,
)


# ── single step and finite products ───────────────────────────────────────


def test_L_structure(ctx192, mpar_pi4):
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        u = mp.mpc("0.7", "0.2")
        eps = mp.mpc("1.4", "-0.5")
        m = L_eval(u, eps, mpar_pi4)
        assert m.a == 1 - eps * u + u * u
        assert m.b == -q2 * u * u
        assert m.c == 1 and m.d == 0
        # det L = q^2 u^2 comes out exactly: the matrix has a 1 and a 0
        assert m.det() == q2 * u * u
        z = L_eval(0, eps, mpar_pi4)
        assert (z.a, z.b, z.c, z.d) == (1, 0, 1, 0)


def test_cocycle_property(ctx192, mpar_pi4):
    # M_{m+n}(u) = M_m(u) M_n(q^{2m} u)
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        for u in (mp.mpc("0.9", "0.3"), mp.mpf("-1.2")):
            eps = mp.mpc("2.2", "0.7")
            lhs = M_n_eval(u, 5, eps, mpar_pi4, ctx192)
            m2 = M_n_eval(u, 2, eps, mpar_pi4, ctx192)
            m3 = M_n_eval(q2 * q2 * u, 3, eps, mpar_pi4, ctx192)
            rhs = m2.mul(m3)
            for la, ra in zip((lhs.a, lhs.b, lhs.c, lhs.d), (rhs.a, rhs.b, rhs.c, rhs.d)):
                assert abs(la - ra) <= mp.mpf("1e-50") * max(abs(la), 1)


def test_det_product_formula(ctx192, mpar_pi4):
    # det M_n = q^{2 n^2} u^{2n}; past n ~ 4 the determinant is exponentially
    # smaller than the entry round-off at 192 bits, so only small n are sharp
    with ctx192.workprec():
        q = mpar_pi4.q
        u = mp.mpc("1.1", "0.4")
        eps = mp.mpf("1.8")
        for n, rel in ((1, mp.mpf("1e-55")), (2, mp.mpf("1e-45")),
                       (3, mp.mpf("1e-38")), (4, mp.mpf("1e-12"))):
            d = M_n_eval(u, n, eps, mpar_pi4, ctx192).det()
            target = q ** (2 * n * n) * u ** (2 * n)
            assert abs(d - target) <= rel * abs(target)


def test_offdiagonal_shift_relation(ctx192, mpar_pi4):
    # b_n(q^2 u) = -q^{4n+2} u^2 c_n(u)
    with ctx192.workprec():
        q = mpar_pi4.q
        q2 = q * q
        u = mp.mpc("0.5", "-0.6")
        eps = mp.mpc("-1.3", "0.2")
        for n in (3, 5):
            shifted = M_n_eval(q2 * u, n, eps, mpar_pi4, ctx192)
            base = M_n_eval(u, n, eps, mpar_pi4, ctx192)
            lhs = shifted.b
            rhs = -(q ** (4 * n + 2)) * u * u * base.c
            assert abs(lhs - rhs) <= mp.mpf("1e-50") * max(abs(lhs), 1)


def test_Mn_guard(ctx192, mpar_pi4):
    with pytest.raises(ValueError):
        M_n_eval(mp.mpf(1), 0, mp.mpf(1), mpar_pi4, ctx192)
    for n in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="n must be an integer"):
            M_n_eval(mp.mpf(1), n, mp.mpf(1), mpar_pi4, ctx192)


def test_transfer_refuses_a_coarse_nome():
    # L_eval works at the nome's precision, so a 128-bit nome under a
    # 256-bit context would leave chi_via_Minf 3e-39 off chi_eval, far
    # above tol; both products and the R-iteration refuse it as the chi
    # series does
    coarse = ModularParam.from_theta("pi/4", make_context(128, 1e-27))
    ctx256 = make_context(256, 1e-54)
    u, eps = mp.mpf("0.7"), mp.mpc("1.1", "0.3")
    with pytest.raises(ValueError, match="coarser than the 256-bit context"):
        chi_via_Minf(u, eps, coarse, ctx256)
    with pytest.raises(ValueError, match="coarser than the 256-bit context"):
        M_n_eval(u, 3, eps, coarse, ctx256)
    with pytest.raises(ValueError, match=r"rebuild it with mpar.at\(256\)"):
        R_orbit(u, mp.mpf(1), 4, eps, coarse, ctx256)



BAD = (mp.nan, mp.inf, mp.ninf, float("nan"), mp.mpc(0, mp.inf), mp.mpc("0.5", mp.nan))


def test_transfer_refuses_non_finite_input(ctx192, mpar_pi4):
    # NaN or infinite input used to come back as NaN matrices and orbits
    # (which classify_r_orbit labelled "critical", or "zero" from R0 = inf),
    # or, in chi_via_Minf, as 4096 factors before "did not settle"
    u, eps, r0 = mp.mpf("0.7"), mp.mpc("1.1", "0.3"), mp.mpf(1)
    for bad in BAD:
        with pytest.raises(ValueError, match="u must be finite"):
            M_n_eval(bad, 3, eps, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="eps must be finite"):
            M_n_eval(u, 3, bad, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="u must be finite"):
            chi_via_Minf(bad, eps, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="eps must be finite"):
            chi_via_Minf(u, bad, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="eps must be finite"):
            chi_via_Minf(0, bad, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="z must be finite"):
            R_orbit(bad, r0, 4, eps, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="R0 must be finite"):
            R_orbit(u, bad, 4, eps, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="eps must be finite"):
            R_orbit(u, r0, 4, bad, mpar_pi4, ctx192)
        with pytest.raises(ValueError, match="last must be finite"):
            classify_r_orbit([mp.mpf("0.5"), bad], ctx192)
    with pytest.raises(ValueError, match="non-empty orbit"):
        classify_r_orbit([], ctx192)

# ── infinite product ──────────────────────────────────────────────────────


def test_Minf_matches_series(ctx192, mpar_pi4, rng):
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        for _ in range(6):
            u = mp.mpc(rng.uniform(-1.4, 1.4), rng.uniform(-1.0, 1.0))
            eps = mp.mpc(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
            c, a = chi_via_Minf(u, eps, mpar_pi4, ctx192)
            ref_u = chi_eval(u, eps, mpar_pi4, ctx192)
            ref_s = chi_eval(u / q2, eps, mpar_pi4, ctx192)
            tol = 10 * ctx192.tol
            assert abs(c - ref_u) <= tol * max(abs(ref_u), 1)
            assert abs(a - ref_s) <= tol * max(abs(ref_s), 1)


def test_Minf_at_zero(ctx192, mpar_pi4):
    assert chi_via_Minf(0, mp.mpf(5), mpar_pi4, ctx192) == (1, 1)


def test_Minf_term_cap_when_q_near_one(ctx192):
    # |q| = e^{-pi sin 2 theta} approaches 1 near the strip edge, where the
    # a-priori q^{4n} bound reaches tol only past the 4096-factor cap
    mpar = ModularParam.from_theta("4999*pi/10000", ctx192)
    with pytest.raises(PrecisionExceeded, match="within 4096 factors"):
        chi_via_Minf(mp.mpf("0.5"), mp.mpf(2), mpar, ctx192)


# ── R-iteration and limit classification ──────────────────────────────────


def test_R_orbit_tracks_exact_trajectory(ctx192, mpar_pi4, rng):
    # seeding with R_chi(z) = chi(z/q^2)/chi(z) must follow the exceptional
    # trajectory; the fixed line repels with accelerating rate, so four
    # steps is what 192-bit seeds can hold
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        z = mp.mpc("0.8", "0.2")
        eps = mp.mpc("1.1", "-0.4")
        r0 = chi_eval(z / q2, eps, mpar_pi4, ctx192) / chi_eval(z, eps, mpar_pi4, ctx192)
        seq = R_orbit(z, r0, 4, eps, mpar_pi4, ctx192)
        assert len(seq) == 5
        zk = z
        for k, rk in enumerate(seq):
            exact = (
                chi_eval(zk / q2, eps, mpar_pi4, ctx192)
                / chi_eval(zk, eps, mpar_pi4, ctx192)
            )
            assert abs(rk - exact) <= mp.mpf("1e-8") * max(abs(exact), 1)
            zk = zk * q2


def test_R_orbit_guards(ctx192, mpar_pi4):
    with pytest.raises(ValueError):
        R_orbit(mp.mpf("0.5"), mp.mpf(1), 0, mp.mpf(2), mpar_pi4, ctx192)
    for steps in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="steps must be an integer"):
            R_orbit(mp.mpf("0.5"), mp.mpf(1), steps, mp.mpf(2), mpar_pi4, ctx192)
    # a seed equal to 1 - eps u + u^2 hits the pole on the first step
    with ctx192.workprec():
        u = mp.mpf("0.5")
        eps = mp.mpf("2.0")
        with pytest.raises(PoleSignal):
            R_orbit(u, 1 - eps * u + u * u, 1, eps, mpar_pi4, ctx192)


def test_classify_synthetic_sequences(ctx192):
    assert classify_r_orbit([mp.mpf("1.0000001")], ctx192) == "one"
    assert classify_r_orbit([mp.mpf("1e-8")], ctx192) == "zero"
    assert classify_r_orbit([mp.mpf("0.5")], ctx192) == "critical"


def test_classify_exceptional_vs_generic(ctx192, mpar_pi4, rng):
    # exact seeds converge to 1, perturbed seeds collapse to 0
    with ctx192.workprec():
        q2 = mpar_pi4.q * mpar_pi4.q
        for _ in range(10):
            z = mp.mpc(rng.uniform(0.2, 1.2), rng.uniform(-0.5, 0.5))
            eps = mp.mpc(rng.uniform(-3, 3), rng.uniform(-1, 1))
            r0 = (
                chi_eval(z / q2, eps, mpar_pi4, ctx192)
                / chi_eval(z, eps, mpar_pi4, ctx192)
            )
            exc = R_orbit(z, r0, 4, eps, mpar_pi4, ctx192)
            gen = R_orbit(z, r0 + mp.mpf("1e-3"), 4, eps, mpar_pi4, ctx192)
            assert classify_r_orbit(exc, ctx192) == "one"
            assert classify_r_orbit(gen, ctx192) == "zero"
