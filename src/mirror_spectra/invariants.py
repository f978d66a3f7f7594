"""Cross-module invariant registry: the checks behind ``mirror-spectra
verify`` and acceptance criteria 7a-7h, written once.

Each ``INVARIANTS`` entry is ``(name, criterion, check)``.  A check is run as
``check(ctx, mpar, rng, full, fault)`` and returns ``(worst, threshold)``; it
passes when ``worst <= threshold``.  ``full=True`` is the acceptance gate's
sample, ``full=False`` the verify table's: the first draws of the same
sequences, so at one seed verify checks a subset of what the gate checks.
``fault`` moves each state's eps by 1e-4 before its pole-cancellation check,
a negative control that only the eigenfunction entry reads.
"""

import dataclasses
import random

from mpmath import mp

from .chi import (_g_ratio, chi_check_eval, chi_dual_eval, chi_eval, chi_mult_check,
                  chi_poly_seq)
from .eigenfunction import make_params, pole_cancellation_check, psi_eval, psi_residual
from .precision import PoleSignal, SolverError, make_context, pochhammer_q, theta1
from .selfdual import phi_eval, quantize_selfdual
from .spectral import spectrum, wronskian_eval, wronskian_residue
from .transfer import R_orbit, chi_via_Minf, classify_r_orbit

SEED = 20260814


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1)


def _fe_draws(rng, full):
    """(u, eps) for the functional equations: |u| in [0.3, 1.2] at any angle."""
    for _ in range(100 if full else 6):
        u = mp.mpc(rng.uniform(0.3, 1.2), 0) * mp.expjpi(rng.uniform(-1, 1))
        yield u, mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))


def chi_functional_equation(ctx, mpar, rng, full, fault):
    """f(u/q^2) + q^2 u^2 f(q^2 u) = (1 - eps u + u^2) f(u) for chi, chi-check."""
    q2 = mpar.q ** 2
    worst = mp.mpf(0)
    for u, eps in _fe_draws(rng, full):
        for f in (lambda v: chi_eval(v, eps, mpar, ctx),
                  lambda v: chi_check_eval(v, eps, mpar, ctx)):
            worst = max(worst, _rel(f(u / q2) + q2 * u * u * f(q2 * u),
                                    (1 - eps * u + u * u) * f(u)))
    return worst, 10 * ctx.tol


def crochet_mirror_equation(ctx, mpar, rng, full, fault):
    """The dual solution's mirrored equation, on the same draws as chi's."""
    q2 = mpar.q ** 2
    worst = mp.mpf(0)
    for u, eps in _fe_draws(rng, full):
        f = lambda v: chi_dual_eval(v, eps, mpar, ctx)
        worst = max(worst, _rel(f(q2 * u) + (u * u / q2) * f(u / q2),
                                (1 - eps * u + u * u) * f(u)))
    return worst, 10 * ctx.tol


def transfer_oracle(ctx, mpar, rng, full, fault):
    """chi(u) and chi(u/q^2) from the M_inf product against the series, on a
    20x20 (u, eps) grid; verify takes every 7th row and column."""
    q2 = mpar.q ** 2
    worst = mp.mpf(0)
    grid = range(0, 20, 1 if full else 7)
    for i in grid:
        u = (mp.mpf("0.06") + mp.mpf("0.05") * i) * mp.expjpi(mp.mpf(2 * i + 1) / 21)
        for j in grid:
            eps = mp.mpc(mp.mpf(j - 10) / 3, mp.mpf(j % 5) / 4)
            a, b = chi_via_Minf(u, eps, mpar, ctx)
            worst = max(worst,
                        abs(a - chi_eval(u, eps, mpar, ctx)) / max(abs(a), 1),
                        abs(b - chi_eval(u / q2, eps, mpar, ctx)) / max(abs(b), 1))
    return worst, 10 * ctx.tol


def _theta1_product(w, q, ctx):
    """theta1 by the Jacobi triple product (DLMF 20.5.3), with no shift of w:
    -2i q^{1/4} sinh(w/2) (q^2; q^2)_inf (q^2 e^w; q^2)_inf (q^2 e^-w; q^2)_inf."""
    q2, u = q * q, mp.exp(w)
    return (mp.mpc(0, -2) * mp.nthroot(q, 4) * mp.sinh(w / 2)
            * pochhammer_q(q2, q2, mp.inf, ctx) * pochhammer_q(q2 * u, q2, mp.inf, ctx)
            * pochhammer_q(q2 / u, q2, mp.inf, ctx))


def theta_identities(ctx, mpar, rng, full, fault):
    """theta1 is odd and quasi-periodic under w -> w + 2 log q, agrees with
    the triple product, and its two nomes are related by the modular
    transformation on the real line.  theta1 shifts w + 2 log q back to
    about w, so the product, at w and at w + 2 log q, is the leg
    independent of that shift."""
    q, lq = mpar.q, mpar.log_q
    ws = [mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    xs = [mp.mpf(rng.uniform(-1, 1)) for _ in range(8)]
    if not full:
        ws, xs = ws[:5], xs[:3]
    worst = mp.mpf(0)
    for w in ws:
        t0, t1 = theta1(w, q, ctx), theta1(w + 2 * lq, q, ctx)
        scale = max(1, abs(t0))
        rhs = -mp.exp(-lq - w) * t0
        worst = max(worst, abs(theta1(-w, q, ctx) + t0) / scale,
                    abs(t1 - rhs) / max(scale, abs(rhs)),
                    abs(_theta1_product(w, q, ctx) - t0) / scale,
                    abs(_theta1_product(w + 2 * lq, q, ctx) - t1) / max(1, abs(t1)))
    for x in xs:
        direct = theta1(2 * mp.pi * mpar.b * x, q, ctx)
        lhs = -theta1(2 * mp.pi * x / mpar.b, mpar.qbar, ctx)
        worst = max(worst, abs(lhs - mp.conj(direct)) / max(1, abs(direct)))
    return worst, 10 * ctx.tol


def wronskian_relations(ctx, mpar, rng, full, fault):
    """q^2 u^2 W(q^2 u) = W(u), and Re of the Wronskian residue stays above
    1 - Re q^2 for eps = -30, -25, ..., 45 (verify: every 5th)."""
    q2 = mpar.q ** 2
    worst = mp.mpf(0)
    for _ in range(12 if full else 4):
        u = mp.mpc(rng.uniform(0.3, 1.3), rng.uniform(-0.5, 0.5))
        eps = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w0 = wronskian_eval(u, eps, mpar, ctx)
        w1 = wronskian_eval(q2 * u, eps, mpar, ctx)
        worst = max(worst, abs(w1 * q2 * u * u - w0) / max(abs(w0), 1))
    for i in range(0, 16, 1 if full else 5):
        r = wronskian_residue(mp.mpf(-30) + 5 * i, mpar, ctx)
        worst = max(worst, 1 - q2.real - r.real)
    return worst, 10 * ctx.tol


def multiplication_rule(ctx, mpar, rng, full, fault):
    """chi_m chi_n as the q-binomial sum over chi_{m+n-2k}, 1 <= m <= n <= 10
    (verify: n <= 4), relative to |chi_m chi_n|."""
    eps = mp.mpc("1.7", "0.3")
    top = 10 if full else 4
    chi = chi_poly_seq(eps, mpar, 2 * top, ctx)
    worst = mp.mpf(0)
    for m in range(1, top + 1):
        for n in range(m, top + 1):
            worst = max(worst, chi_mult_check(m, n, eps, mpar, ctx) / abs(chi[m] * chi[n]))
    return worst, 10 * ctx.tol


def limit_classification(ctx, mpar, rng, full, fault):
    """The R-orbit seeded with chi(z/q^2)/chi(z) classifies "one", seeded 30 %
    off it "zero"; worst counts the trajectories that do not.  Reaching the
    classifier margin takes ~4 steps, over which the repulsion amplifies the
    seed error by ~e^{32 pi}, so the check runs at >= 192 bits with mpar
    rebuilt there by mpar.at; a draw that lands on a pole (chi(z) zero at
    this precision, as _g_ratio tests it for G, or an R-iteration pole) is
    redrawn."""
    if ctx.precision_bits < 192:
        ctx = make_context(192)
    if mpar.precision_bits < ctx.precision_bits:
        mpar = mpar.at(ctx.precision_bits)
    bad = done = 0
    with ctx.workprec():
        q2 = mpar.q * mpar.q
        while done < (50 if full else 2):
            z = mp.mpc(rng.uniform(0.4, 1.1), rng.uniform(-0.3, 0.3))
            eps = mp.mpc(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            try:
                r0 = _g_ratio(chi_eval(z / q2, eps, mpar, ctx),
                              chi_eval(z, eps, mpar, ctx), z, ctx)
                one = classify_r_orbit(R_orbit(z, r0, 4, eps, mpar, ctx), ctx)
                zero = classify_r_orbit(R_orbit(z, r0 * mp.mpf("1.3"), 4, eps, mpar, ctx), ctx)
            except PoleSignal:
                continue
            done += 1
            bad += one != "one" or zero != "zero"
    return mp.mpf(bad), mp.mpf(0)


def eigenfunction_invariants(ctx, mpar, rng, full, fault):
    """Parity, reality and decay of psi on the real line, its difference-
    equation residuals and pole cancellation, for all 8 states of sheets 1-2
    (verify: the 2 states of sheet 1, found on a coarser sigma grid)."""
    npoints = 48 if full else 16 if ctx.precision_bits < 160 else 33
    states = []
    for sheet in (1, 2) if full else (1,):
        states += spectrum(sheet, npoints, (1, -1), mpar, ctx)
    expected = 8 if full else 2
    if len(states) != expected:
        raise SolverError(f"spectrum found {len(states)} of the {expected} states")
    x = mp.mpf("0.7")
    worst = mp.mpf(0)
    for pt in states:
        par = make_params(pt, mpar, ctx)
        v = psi_eval(x, par, ctx)
        worst = max(worst, abs(psi_eval(-x, par, ctx) - pt.parity * v) / abs(v),
                    abs(mp.conj(v) - v) / abs(v), *psi_residual(mp.mpf("0.3"), par, ctx))
        decay = mp.log(abs(psi_eval(3, par, ctx))) + 6 * mp.pi * par.eta
        if abs(decay) > 10:
            worst = max(worst, abs(decay))
        if fault:
            moved = dataclasses.replace(pt, eps=pt.eps + mp.mpf("1e-4"))
            par = dataclasses.replace(par, point=moved, rho=None)
        worst = max(worst, pole_cancellation_check(par, ctx).max_normalized)
    return worst, 1000 * ctx.tol


def selfdual_cycles(ctx, mpar, rng, full, fault):
    """A lambda - Atilde = n + 1 and Btilde = lambda B for levels 0-1 (verify:
    level 0).  The gate also bounds phi's Harper residual at four points,
    relative to max(|eps phi|, 1), by the same 10 tol."""
    bound = 10 * ctx.tol
    worst = mp.mpf(0)
    for n in (0, 1) if full else (0,):
        spec = quantize_selfdual(n, ctx)
        worst = max(worst, abs(spec.A * spec.lam - spec.Atilde - (n + 1)),
                    abs(spec.Btilde - spec.lam * spec.B))
        for xs in ("0.15", "0.30", "0.462", "0.80") if full else ():
            x = mp.mpf(xs)
            phi = phi_eval(x, spec, ctx)
            num = (phi_eval(x - 1, spec, ctx) + phi_eval(x + 1, spec, ctx)
                   + (2 * mp.cos(2 * mp.pi * x) - spec.eps) * phi)
            worst = max(worst, abs(num) / max(abs(spec.eps * phi), 1))
    return worst, bound


INVARIANTS = (
    ("chi functional equation", "7a", chi_functional_equation),
    ("crochet mirror equation", "7a", crochet_mirror_equation),
    ("transfer oracle equivalence", "7b", transfer_oracle),
    ("theta identities", "7e", theta_identities),
    ("wronskian relations", "7d", wronskian_relations),
    ("multiplication rule", "7c", multiplication_rule),
    ("limit classification", "7f", limit_classification),
    ("eigenfunction invariants", "7g", eigenfunction_invariants),
    ("selfdual cycle integrality", "7h", selfdual_cycles),
)


def run(check, ctx, mpar, seed, full, fault=False):
    """(worst, threshold) of one check, on fresh draws from ``seed``."""
    with ctx.workprec():
        return check(ctx, mpar, random.Random(seed), full, fault)
