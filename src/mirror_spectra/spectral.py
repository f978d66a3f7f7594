"""Wronskian spectral solver.

The two solutions chi(u) and chk(u) = u^-1 chi(1/u) of the chi-equation pair
into the Wronskian

    W(u, eps) = chi(u/q^2) chk(u) - chk(u/q^2) chi(u),

which obeys W(q^2 u) = W(u)/(q^2 u^2) and factorises as
rho(eps) theta1(s u) theta1(u/s) with s = e^{2 pi b sigma}.  A spectral sheet
is the root curve eps_k(sigma) of W(e^{2 pi b sigma}, eps) = 0 continued over
sigma in [0, sin theta]; eigenvalues are the points on a sheet where the
ratio G = chi(s)/chk(s) is purely imaginary (even states) or purely real
(odd states).

The same quasi-periodicity makes W(u, eps) = w_-1(eps) O(u) + w_0(eps) E(u)
with E, O theta_3 and theta_2 of nome q^2 (precision._theta_eo, once per
solve) and the coefficients from chi._wronskian_sums.  A Newton pass sums
only the two coefficients and their eps-derivatives, 8-10 terms against the
37-47 of the four chi series, and is the one source of dW/deps; the four
value series stay the independent oracle for W in wronskian_eval,
factorize and the dual solution.  rho_extract reads rho off the two
coefficients.  An orbit is the root curve alone.  quantize reads G from
G_eval once per inner grid node, for all the parities asked.

To leading order each sheet is a spiral, eps_k ~ q^{-2 floor(k/2)} s^{m_k}
(_spiral), so log eps is nearly linear in sigma.  The continuation carries
the log slope d log eps/d sigma, seeds each Newton solve by geometric
extrapolation, and leaves sigma = 0 along the spiral's own slope; the state
solver steps and interpolates eps geometrically too.

One routine, _state, finds every state: Newton's method on the bordered
system W = 0, arg G = target in (sigma, eps) (Allgower and Georg,
Introduction to Numerical Continuation Methods, 2003), kept inside a grid
bracket whose indicator signs are known (Numerical Recipes, 3rd ed., 9.4),
or inside a window that a step may not leave.
It forms G from the chi series at s and 1/s that also give its derivatives,
by G_eval's pole test (chi._g_ratio), and W_sigma from the slopes of E
and O that its one precision._theta_eo call per step also returns.
quantize starts it from each bracket's secant point; spectrum runs
trace_orbit and quantize at 64 bits and starts it at the working
precision from each 64-bit state, in the window of one grid step either
side of it.  Where the state solver stops on its predicted error at the
working precision, the 64-bit stage runs at the navigator tol 2^-16: it
only finds the states' starts.  A state at the working precision that
fails reruns the whole job there.

Endpoints sigma = 0 and sigma = sin theta carry double poles and are
excluded from the spectrum.
"""

import numbers
from dataclasses import dataclass
from typing import Optional

from mpmath import mp

from .chi import (
    G_eval,
    _chi_series,
    _g_ratio,
    _vanishes_to_tol,
    _wronskian_parts,
    _wronskian_sums,
)
from .precision import (
    _MIN_BITS,
    ModularParam,
    PrecCtx,
    PrecisionExceeded,
    SolverError,
    _check_nome_precision,
    _predicted_stop,
    _theta_eo,
    make_context,
)

_MAX_NEWTON = 80
_MAX_HALVINGS = 24

# The coarse stage's tol where the states are set by the state solver's
# predicted stop (_predicts): it only has to find the grid brackets and the
# starting states.  Newton doubles the correct bits per step (Brent and
# Zimmermann, Modern Computer Arithmetic, 2010, 4.2), so a start with 16
# correct bits reaches b bits in ceil(log2(b / 16)) steps: 3 at 128 bits,
# 4 at 256.
_NAVIGATOR_TOL = 2.0 ** -16


# ── containers ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class SpectralPoint:
    sheet: int
    sigma: object
    eps: object
    parity: Optional[int]  # +1 even, -1 odd, None undetermined


@dataclass(frozen=True)
class Orbit:
    sheet: int
    samples: tuple  # ordered ((sigma, eps), ...) with sigma increasing


# ── Wronskian ─────────────────────────────────────────────────────────────


def wronskian_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """W(u, eps) from the four chi series; u = 0 is rejected.  Newton's
    dW/deps comes from the two-sum pass (_wronskian_pass)."""
    return _wronskian_parts(u, eps, mpar, ctx)[0]


def wronskian_residue(eps, mpar: ModularParam, ctx: PrecCtx):
    """The u^-1 Laurent coefficient of W, by its explicit series

    sum_m (chi_m(eps)/(q^-2;q^-2)_m)^2 (q^{-2m} - q^{2m+2}),

    the w_-1 of chi._wronskian_sums, over the tables the chi series at this
    eps share.

    For real eps and 0 < q < 1 this is >= 1 - q^2 > 0: the two solutions
    never degenerate on the real axis.
    """
    return _wronskian_sums(eps, mpar, ctx)[0]


# ── Newton in eps at fixed sigma ──────────────────────────────────────────


def _sigma_to_s(sigma, mpar: ModularParam):
    return mp.exp(2 * mp.pi * mpar.b * mp.mpmathify(sigma))


def _wronskian_pass(eps, pair, mpar: ModularParam, ctx: PrecCtx):
    """(W, dW/deps, scale) at eps and the s = e^x of pair =
    _theta_eo(x, q, ctx): one Newton pass, W = w_-1 O(s) + w_0 E(s) with
    scale max(|w_-1 O|, |w_0 E|), at the working precision."""
    even, odd = pair
    r1, r0, dr1, dr0 = _wronskian_sums(eps, mpar, ctx)
    t1, t0 = r1 * odd, r0 * even
    return t1 + t0, dr1 * odd + dr0 * even, max(abs(t1), abs(t0))


def _fast_newton(ctx: PrecCtx) -> int:
    """The Newton steps a fast solve may take before it gives up.  From a
    prediction with a fixed number of correct bits, quadratic convergence
    reaches tol in about log2 of the precision more steps, so the cap grows
    with it: 6 at 64 bits, 7 at 128, 8 at 256 to 511 and 10 at 1,024."""
    return max(5, ctx.precision_bits.bit_length() - 1)


def _solve_eps(sigma, eps0, mpar: ModularParam, ctx: PrecCtx,
               fast: bool = False):
    """Newton for W(e^{2 pi b sigma}, eps) = 0; returns eps, or None when a
    fast solve gives up.

    Each pass (_wronskian_pass) sums the two coefficients w_-1(eps),
    w_0(eps) and their eps-derivatives, and W = w_-1 O(s) + w_0 E(s) with
    E(s), O(s) evaluated once per solve (_theta_eo).  Stops on the
    predicted error of the Newton correction -W/W_eps
    (precision._predicted_stop, budget tol * max(|eps|, 1)) once the last
    two full undamped corrections contract by more than half, so no pass
    is spent to confirm a converged step.  Where they contract more
    slowly (near-double roots), or after a damped step, it stops when both
    the residual |W| <= tol * max(scale, 1), scale = max(|w_-1 O|, |w_0 E|)
    (chi._vanishes_to_tol), and the correction |W / W_eps| <= tol *
    max(|eps|, 1) are met: a small residual alone leaves eps loose where
    W_eps is small.  The returned eps has that last correction applied,
    which costs no pass.

    Each step is damped by halving until |W| falls.  With fast=True the
    solve gives up instead, returning None, at the first step whose full
    Newton correction does not lower |W|, or when _fast_newton(ctx) steps
    have not converged: the seed lies outside Newton's contraction region,
    and no further pass can make it a fast solve.  Giving up is not a
    failure; SolverError still means one (dW/deps underflow, a stalled line
    search, or _MAX_NEWTON steps).
    """
    with ctx.workprec():
        pair = _theta_eo(2 * mp.pi * mpar.b * mp.mpmathify(sigma), mpar.q, ctx)
        eps = mp.mpmathify(eps0)
        tol = ctx.tol
        w, dw, scale = _wronskian_pass(eps, pair, mpar, ctx)
        prev = None     # the last full Newton correction |W / W_eps| taken
        for it in range(_MAX_NEWTON):
            budget = tol * max(abs(eps), 1)
            if ((_vanishes_to_tol(w, scale, ctx) and abs(w) <= budget * abs(dw))
                    or (dw and _predicted_stop(abs(w / dw), prev, budget))):
                return eps - (w / dw if w else 0)
            if fast and it >= _fast_newton(ctx):
                return None
            if abs(dw) <= tol * max(abs(w), 1):
                raise SolverError(
                    f"dW/deps underflow at sigma = {mp.nstr(mp.mpmathify(sigma), 8)}: "
                    "near branch point"
                )
            step = w / dw
            lam = mp.mpf(1)
            for _ in range(_MAX_HALVINGS):
                trial = eps - lam * step
                wt, dwt, st = _wronskian_pass(trial, pair, mpar, ctx)
                if abs(wt) < abs(w):
                    eps, w, dw, scale = trial, wt, dwt, st
                    prev = abs(step) if lam == 1 else None
                    break
                if fast:
                    return None
                lam /= 2
            else:
                raise SolverError(
                    f"Newton stalled at sigma = {mp.nstr(mp.mpmathify(sigma), 8)}"
                )
        raise SolverError(
            f"Newton did not converge in {_MAX_NEWTON} steps "
            f"at sigma = {mp.nstr(mp.mpmathify(sigma), 8)}"
        )


def solve_eps(sigma, eps0, mpar: ModularParam, ctx: PrecCtx):
    """Root eps of W(e^{2 pi b sigma}, eps), seeded at eps0: Newton stops
    once the error predicted for its last correction is within tol *
    max(|eps|, 1), or, where the corrections contract by less than half,
    once |W| <= tol * scale and |W / W_eps| <= tol * max(|eps|, 1)."""
    return _solve_eps(sigma, eps0, mpar, ctx)


# ── sheet seeds ───────────────────────────────────────────────────────────

# Truncated eps_k expansions in q at sigma = 0, written as (leading power p,
# coefficient table {power: coeff}) for q^p * sum c_j q^j.
_SEEDS_AT_ZERO = {
    1: (0, {0: 2, 2: -2, 4: -4, 6: -2, 8: 14, 10: 50, 12: 40, 14: -268, 16: -1136}),
    2: (-2, {0: 1, 4: 1, 6: -1, 8: -1, 10: -1, 12: -2, 14: -1, 18: 1, 20: 6, 22: 11}),
    3: (-2, {0: 1, 4: 3, 6: 3, 8: 1, 10: -15, 12: -52, 14: -43, 16: 264, 18: 1127}),
    4: (-4, {0: 1, 8: 2, 14: 1, 18: -1, 20: -3, 22: -8, 24: -13}),
    6: (-6, {0: 1, 12: 2, 22: 1, 24: 1, 26: 1, 32: 2, 34: 2}),
}


def sin_theta(mpar: ModularParam):
    with mp.workprec(mpar.precision_bits):
        return mp.sin(mpar.theta)


def _spiral(k: int, q):
    """(c, m): sheet k to leading order is the spiral eps_k = c s^m, with
    c = q^{-2 floor(k/2)} and s = e^{2 pi b sigma}; m = 0 on sheet 1, -1 on
    even sheets and +1 on odd sheets k >= 3.  As s(sin theta) = -1/q exactly,
    it is q^{-2 floor(k/2)} at sigma = 0 and -q^{-(2 ceil(k/2) - 1)} at sin
    theta (k >= 2), and d log eps/d sigma = 2 pi b m along it."""
    return q ** (-2 * (k // 2)), 0 if k == 1 else (1 if k % 2 else -1)


def sheet_seed(k: int, mpar: ModularParam, ctx: PrecCtx):
    """Newton seed for sheet k at sigma = 0, where its orbit starts: the
    truncated q-expansion where tabulated, else the spiral's q^{-2 floor(k/2)}."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"sheet index must be an integer >= 1, got {k!r}")
    with ctx.workprec():
        q = mpar.q
        if k in _SEEDS_AT_ZERO:
            p, table = _SEEDS_AT_ZERO[k]
            return q ** p * mp.fsum(c * q ** j for j, c in table.items())
        return _spiral(k, q)[0]


# ── sigma-continuation ────────────────────────────────────────────────────


def _advance(sigma, target, eps, lam, sheet: int, mpar: ModularParam,
             ctx: PrecCtx):
    """Continue eps from sigma to target; returns (eps, lam) at target.

    Each sub-step of length h is a predictor-corrector step on log eps,
    which is nearly linear in sigma along the sheet's spiral (_spiral):
    Newton at sigma + h is seeded with the geometric extrapolation
    eps exp(h lam), where lam = log(eps_new / eps_old) / h is the log slope
    of the last accepted sub-step (on an orbit's first step, the spiral's
    2 pi b m).  Where |eps| >> 1 the jump guard below keeps the ratio off
    the log's branch cut; elsewhere the principal log still gives a seed.
    The prediction costs no Wronskian evaluation.

    The sub-steps into sigma = sin theta, where sheet k meets its partner at
    a near-double root, take the first-order seed eps (1 + h lam) instead:
    the geometric seed lands inside the pair's split (about 1e-12 |eps| on
    the 3/4 pair at pi/4), where |W| is flat at its rounding floor and the
    damped solve stalls, while the first-order seed, off by about
    (h lam)^2 / 2 relative, starts outside it.

    Above the halving floor (a 4096th of the span) each sub-step is solved
    in _solve_eps's fast mode: the solve gives up at its first damped
    Newton step or after _fast_newton(ctx) undamped ones, and the caller halves
    h.  A rejected sub-step therefore costs a few Wronskian passes,
    not a full damped solve that is thrown away.  At the floor the full
    damped solve runs, and a converged-but-slow step is accepted
    (near-degenerate sheet pairs keep Newton slow at any step size).
    Giving up is not a failure: only a SolverError from the last solve
    above the floor, or from the solve at the floor, aborts the
    continuation, naming that solve's sigma and its error, and so does a
    jump of eps by more than half its size in one sub-step, or eps = 0,
    where its log is undefined.
    """
    floor = (target - sigma) / 4096
    sth = sin_theta(mpar)
    while sigma < target:
        if eps == 0:
            raise SolverError(
                f"continuation on sheet {sheet} reached eps = 0 at sigma = "
                f"{mp.nstr(sigma, 8)}: log eps is undefined")
        h, nxt = target - sigma, target
        while True:
            seed = eps * (1 + h * lam if nxt == sth else mp.exp(h * lam))
            try:
                cand = _solve_eps(nxt, seed, mpar, ctx, fast=h > floor)
            except SolverError as exc:
                if h / 2 < floor:
                    raise SolverError(
                        f"continuation failed on sheet {sheet} at sigma = "
                        f"{mp.nstr(nxt, 8)}: {exc}"
                    ) from exc
                cand = None
            if cand is not None:
                break
            h /= 2
            nxt = sigma + h
        if abs(cand - eps) > mp.mpf("0.5") * (1 + max(abs(cand), abs(eps))):
            raise SolverError(
                f"continuation jump on sheet {sheet} at sigma = "
                f"{mp.nstr(nxt, 8)}: |d eps| = {mp.nstr(abs(cand - eps), 4)}"
            )
        lam = mp.log(cand / eps) / h
        sigma = nxt
        eps = cand
    return eps, lam


def trace_orbit(k: int, npoints: int, mpar: ModularParam, ctx: PrecCtx) -> Orbit:
    """Continue eps_k(sigma) from sigma = 0 to sin(theta) on a uniform grid.

    The root at sigma = 0 is Newton-polished from the sheet seed; each
    later grid node is reached by _advance, whose log slope d log eps/d
    sigma is carried from one grid interval to the next.  The first step
    starts from the spiral's slope 2 pi b m (_spiral), which leaves the
    near-double roots at sigma = 0 (sheets 2/3, 4/5, ...) on the sheet's
    own branch.  Sub-stepping between nodes keeps branch-point slowdowns
    from knocking the samples off the uniform grid.
    """
    if not isinstance(npoints, numbers.Integral) or npoints < 16:
        raise ValueError(f"npoints must be an integer >= 16, got {npoints!r}")
    with ctx.workprec():
        sth = sin_theta(mpar)
        step = sth / (npoints - 1)
        eps = solve_eps(0, sheet_seed(k, mpar, ctx), mpar, ctx)
        lam = 2 * mp.pi * mpar.b * _spiral(k, mpar.q)[1]
        samples = [(mp.mpf(0), eps)]
        for i in range(1, npoints):
            target = sth if i == npoints - 1 else i * step
            eps, lam = _advance(samples[-1][0], target, eps, lam, k, mpar, ctx)
            samples.append((target, eps))
        return Orbit(sheet=k, samples=tuple(samples))


# ── quantization along an orbit ───────────────────────────────────────────


def _indicator(g, parity: int):
    """Re or Im of G/|G|: the scale-free quantization function."""
    g = g / abs(g)
    return g.real if parity == 1 else g.imag


def _predicts(ctx: PrecCtx) -> bool:
    """Whether tol is at least precision_bits * finest_tol: clear of the
    indicator's rounding floor (about 2 finest_tol at 64 and 128 bits), so
    that _state stops on the error predicted for its last step, and its
    start moves the state it returns only within tol."""
    return ctx.tol >= ctx.precision_bits * ctx.finest_tol


def _coarse_context(ctx: PrecCtx) -> PrecCtx:
    """The context of spectrum's coarse stage for a job at ctx: _MIN_BITS
    bits, at _NAVIGATOR_TOL where _state predicts its stop at ctx, and at
    the _MIN_BITS default tol otherwise."""
    return make_context(_MIN_BITS, _NAVIGATOR_TOL if _predicts(ctx) else None)


def _state(lo, hi, start, parity: int, sheet: int, mpar: ModularParam,
           ctx: PrecCtx):
    """The state of the given parity in the bracket (lo, hi), by
    Newton's method on the bordered system W(s(sigma), eps) = 0,
    Im L(sigma, eps) = target (mod pi), L = log G, kept inside the bracket.

    lo and hi are (sigma, eps, indicator) with indicators of opposite signs,
    or, for spectrum's window around a coarse state, (sigma, None, None):
    a step, or a start, outside such a window raises SolverError naming it.
    Newton starts from start = (sigma, eps), or from the bracket's secant
    point when start is None.
    The target is pi/2 for even states and 0 for odd ones.  Eliminating
    deps with the first equation leaves one real step:

        dsigma = [target - Im L + Im(L_eps W / W_eps)]
                 / Im(L_sigma - L_eps W_sigma / W_eps),
        deps   = -(W + W_sigma dsigma) / W_eps.

    W and W_eps come from _wronskian_sums on E and O, W_sigma from the same
    sums on their slopes, all four from one _theta_eo call; G from the chi
    series at s and v = 1/s by G_eval's pole test (chi._g_ratio), and
    L_eps and L_sigma = 2 pi b [s chi'(s)/chi(s) + v chi'(v)/chi(v) + 1]
    from the eps and u derivatives each of those two series sums in its
    one loop.  eps takes
    its step geometrically, eps exp(deps / eps): Newton in (sigma, log
    eps), where the sheet is nearly a line (_spiral).  An additive step
    leaves the curve by about |eps''| dsigma^2 / 2, and G, steep in eps,
    then sends the next step astray (sheet 3 at 3 pi/8 on 16 points
    wandered for _MAX_NEWTON steps).

    A step that leaves a bracket with indicators goes to the bracket's
    secant point instead, with eps solved on the curve from the geometric
    interpolation eps_a (eps_b / eps_a)^t, t = (c - a) / (b - a), of the
    ends' eps, exact on the sheet's spiral (_spiral) as _advance's seed
    is.  Only such on-curve points move the bracket's ends: G is steep in
    eps, so the indicator's sign at an iterate off the curve is not to be
    trusted.

    A step's size, in units of tol, is the largest of |dsigma| / max(sin
    theta, 1), |deps| / max(|eps|, 1) and |indicator|.  Where tol is at
    least precision_bits * finest_tol (_predicts), it returns the last
    point plus its step, without evaluating it, once the error predicted
    for that point is within tol (precision._predicted_stop on the sizes
    of the last two Newton steps; a secant point starts the count again).
    Otherwise, or where the steps contract by less than half, it returns
    the last evaluated point once W vanishes to tol (_vanishes_to_tol),
    |indicator| <= tol, and either |dsigma| and |deps| are within tol in
    those units or the step has stopped shrinking: the iterates then sit
    at the indicator's rounding floor, where a further step only moves
    them within it.

    Where the indicator cannot reach tol at this precision (its rounding
    floor lies above tol), the steps stop shrinking and the indicator
    makes no new low for _fast_newton(ctx) steps, the bracket collapses,
    or _MAX_NEWTON steps pass with the indicator above tol; each raises
    PrecisionExceeded naming the smallest indicator reached.  An end with
    eps = 0, where the interpolation is undefined, raises SolverError, as
    does a step that divides by zero or a state on the lattice +-q^Z;
    PoleSignal where G has a pole.
    """
    with ctx.workprec():
        tol = ctx.tol
        sth = sin_theta(mpar)
        stop = tol * max(sth, 1)
        target = mp.pi / 2 if parity == 1 else mp.mpf(0)
        twopib = 2 * mp.pi * mpar.b
        (a, ea, fa), (b, eb, fb) = lo, hi
        reached = min((abs(f) for f in (fa, fb) if f is not None), default=mp.inf)
        sigma, eps = start or (None, None)
        last, floor, prev, idle = mp.inf, False, None, 0
        predict = _predicts(ctx)

        def exceeded(why):
            return PrecisionExceeded(
                f"state solver on sheet {sheet}, parity {parity:+d} {why}: the "
                f"indicator reached {mp.nstr(reached, 3)}, above tol = "
                f"{mp.nstr(tol, 3)}; raise the precision")

        def found(sigma, eps):
            # simplicity guard: on real sigma the lattice +-q^Z meets the
            # ray s(sigma) only at integer multiples of sin(theta)
            if abs(sigma / sth - mp.nint(sigma / sth)) < mp.mpf("1e-10"):
                raise SolverError(
                    f"quantized point at sigma = {mp.nstr(sigma, 10)} "
                    "collides with the lattice +-q^Z")
            return SpectralPoint(sheet=sheet, sigma=sigma, eps=eps, parity=parity)

        for _ in range(_MAX_NEWTON):
            on_curve = sigma is None or not a < sigma < b
            if on_curve:
                if fa is None:
                    raise SolverError(
                        f"state solver on sheet {sheet}, parity {parity:+d} left its "
                        f"bracket [{mp.nstr(a, 10)}, {mp.nstr(b, 10)}]")
                if b <= a or fb == fa:
                    raise exceeded(f"collapsed its bracket at sigma = "
                                   f"{mp.nstr(a, 10)}")
                if not (ea and eb):
                    raise SolverError(
                        f"state solver on sheet {sheet} reached eps = 0 at sigma = "
                        f"{mp.nstr(b if ea else a, 10)}: log eps is undefined")
                sigma = b - fb * (b - a) / (fb - fa)
                eps = _solve_eps(sigma, ea * (eb / ea) ** ((sigma - a) / (b - a)),
                                 mpar, ctx)
                prev = None
            x = twopib * sigma
            s = mp.exp(x)
            v = 1 / s
            even, odd, de, do = _theta_eo(x, mpar.q, ctx, slopes=True)
            r1, r0, d1, d0 = _wronskian_sums(eps, mpar, ctx)
            t1, t0 = r1 * odd, r0 * even
            w, w_eps = t1 + t0, d1 * odd + d0 * even
            w_sig = twopib * (r1 * do + r0 * de)
            cs, cs_eps, cs_u = _chi_series(s, eps, mpar, ctx, slopes=True)
            cv, cv_eps, cv_u = _chi_series(v, eps, mpar, ctx, slopes=True)
            g = _g_ratio(cs, cv / s, s, ctx)
            f = _indicator(g, parity)
            low, reached = abs(f) < reached, min(reached, abs(f))
            if on_curve:
                if mp.sign(f) == mp.sign(fa):
                    a, ea, fa = sigma, eps, f
                else:
                    b, eb, fb = sigma, eps, f
            off = target - mp.arg(g)
            off -= mp.pi * mp.nint(off / mp.pi)
            ratio = (cs_eps / cs - cv_eps / cv) / w_eps if w_eps else 0
            den = mp.im(twopib * (cs_u / cs + cv_u / cv + 1) - ratio * w_sig)
            if not (w_eps and den):
                raise SolverError("state solver step divides by zero at "
                                  f"sigma = {mp.nstr(sigma, 10)}")
            dsig = (off + mp.im(ratio * w)) / den
            deps = -(w + w_sig * dsig) / w_eps
            size = max(abs(dsig) / stop, abs(deps) / (tol * max(abs(eps), 1)))
            step = max(size, abs(f) / tol)
            nxt = sigma + dsig, eps * mp.exp(deps / eps)
            if predict and _predicted_stop(step, prev, 1):
                return found(*nxt)
            floor = floor or (not on_curve and size >= last)
            idle = idle + 1 if floor and not low else 0
            if (_vanishes_to_tol(w, max(abs(t1), abs(t0)), ctx) and abs(f) <= tol
                    and (size <= 1 or floor)):
                return found(sigma, eps)
            if floor and idle >= _fast_newton(ctx):
                raise exceeded(f"stalled at its rounding floor in sigma in "
                               f"[{mp.nstr(a, 10)}, {mp.nstr(b, 10)}]")
            last, prev = size, step
            sigma, eps = nxt
        raise exceeded(f"did not converge in {_MAX_NEWTON} steps in sigma in "
                       f"[{mp.nstr(a, 10)}, {mp.nstr(b, 10)}]")


def quantize(orbit: Orbit, parities: tuple, mpar: ModularParam, ctx: PrecCtx):
    """All interior quantized states of the given parities along the orbit,
    even states first.

    parities is a non-empty tuple drawn from {+1, -1}.  Even states (parity
    +1) are the interior zeros of Re G/|G|, odd states (parity -1) those of
    Im G/|G|.  G_eval is summed once at each inner grid node of the orbit,
    and every parity reads its indicator from that one G; each sign change
    between neighbouring nodes is solved by _state on that grid bracket,
    from the bracket's secant point.  The endpoints are never eligible: G is
    exactly +-1 there (double-pole cases, excluded from the spectrum), which
    also makes the odd indicator vanish identically at both ends.
    """
    if not (isinstance(parities, tuple) and parities and set(parities) <= {1, -1}):
        raise ValueError("parities must be a non-empty tuple of +1 and -1, "
                         f"got {parities!r}")
    with ctx.workprec():
        nodes = [(sig, eps, G_eval(_sigma_to_s(sig, mpar), eps, mpar, ctx))
                 for sig, eps in orbit.samples[1:-1]]
        points = []
        for parity in (+1, -1):
            if parity not in parities:
                continue
            inner = [(sig, eps, _indicator(g, parity)) for sig, eps, g in nodes]
            for lo, hi in zip(inner, inner[1:]):
                if lo[2] == 0 or mp.sign(lo[2]) == mp.sign(hi[2]):
                    continue
                points.append(_state(lo, hi, None, parity, orbit.sheet, mpar, ctx))
        return points


# ── the spectrum: 64-bit states taken to the context's precision ──────────


def spectrum(sheet: int, npoints: int, parities: tuple, mpar: ModularParam,
             ctx: PrecCtx):
    """quantize(trace_orbit(sheet, npoints, ...), parities, ...) at ctx: the
    states in quantize's order, from a 64-bit spectrum taken to ctx.

    Above _MIN_BITS bits, the floor PrecCtx accepts, the coarse stage runs
    trace_orbit and quantize at _MIN_BITS with mpar.at(_MIN_BITS), and
    _state takes each coarse state to ctx, starting from it, inside the
    window of one 64-bit grid step either side of it: quantize brackets no
    end cell, so the window lies inside [0, sin theta].  Where _state stops
    on its predicted error at ctx (_predicts), the coarse stage runs at
    _NAVIGATOR_TOL, and each state takes at most ceil(log2(bits / 16))
    steps (2, 3 and 4 at 128, 256 and 512 bits on sheets 2 and 3 at pi/4);
    below that tol the start can move the state, and the coarse stage keeps
    the _MIN_BITS default tol (_coarse_context).  At _MIN_BITS, or where
    the coarse stage or a state at ctx raises SolverError, the job runs at
    ctx as written above, so its states and errors are that path's.
    """
    _check_nome_precision(mpar, ctx)
    if ctx.precision_bits > _MIN_BITS:
        coarse_ctx = _coarse_context(ctx)
        coarse_mpar = mpar.at(_MIN_BITS)
        try:
            orbit = trace_orbit(sheet, npoints, coarse_mpar, coarse_ctx)
            step = orbit.samples[1][0]
            points = []
            for pt in quantize(orbit, parities, coarse_mpar, coarse_ctx):
                lo, hi = (pt.sigma - step, None, None), (pt.sigma + step, None, None)
                points.append(_state(lo, hi, (pt.sigma, pt.eps), pt.parity, sheet,
                                     mpar, ctx))
            return points
        except SolverError:
            pass
    return quantize(trace_orbit(sheet, npoints, mpar, ctx), parities, mpar, ctx)


# ── theta factorization ───────────────────────────────────────────────────


def rho_extract(sigma, eps, mpar: ModularParam, ctx: PrecCtx):
    """rho of W(u) = rho theta1(s u) theta1(u/s) at a root (sigma, eps).

    Watson's identity (DLMF 20.7(iv)), theta1(s u) theta1(u/s) = sqrt(q)
    (O(s) E(u) - E(s) O(u)), gives w_-1 = -rho sqrt(q) E(s) and w_0 =
    rho sqrt(q) O(s); rho is their least-squares solution.  At a root both
    terms share one phase, and at eps = 0 the E term carries rho alone.
    mp.sqrt(q) is nthroot(q, 4)^2, the root theta1 carries.
    """
    with ctx.workprec():
        x = 2 * mp.pi * mpar.b * mp.mpmathify(sigma)
        even, odd = _theta_eo(x, mpar.q, ctx)
        r1, r0, _, _ = _wronskian_sums(eps, mpar, ctx)
        rho = ((r0 * mp.conj(odd) - r1 * mp.conj(even))
               / (mp.sqrt(mpar.q) * (abs(even) ** 2 + abs(odd) ** 2)))
        if rho == 0:
            raise SolverError("rho extracted as zero")
        return rho


def factorize(sigma, eps, mpar: ModularParam, ctx: PrecCtx):
    """The theta prefactor rho of W(u) = rho theta1(s u) theta1(u/s) at a
    root (sigma, eps) of W, after checking that the four-series W(s),
    independent of the two coefficients rho is read from, is zero to tol by
    the rule Newton's residual stops on (chi._vanishes_to_tol)."""
    with ctx.workprec():
        s = _sigma_to_s(sigma, mpar)
        w, scale, _ = _wronskian_parts(s, eps, mpar, ctx)
        if not _vanishes_to_tol(w, scale, ctx):
            raise SolverError(
                f"(sigma, eps) is not on the Wronskian zero set: |W| = "
                f"{mp.nstr(abs(w), 3)}"
            )
        return rho_extract(sigma, eps, mpar, ctx)
