"""The regular solution chi_q(u, eps) and its relatives.

chi_q is the unique entire solution of

    f(u/q^2) + q^2 u^2 f(q^2 u) = (1 - eps u + u^2) f(u),    f(0) = 1,

computed from the orthogonal-polynomial series

    chi_q(u, eps) = sum_n chi_{q,n}(eps) / (q^-2; q^-2)_n u^n
                  = sum_n (-1)^n q^{n(n+1)} chi_{q,n}(eps) / (q^2; q^2)_n u^n,

whose second form has super-exponentially decaying terms for |q| < 1.  The
polynomials follow the three-term recursion

    chi_{q,n+1} = eps chi_{q,n} + (q^n - q^-n)^2 chi_{q,n-1},

with eps-derivatives propagated through the same recursion (forward mode),
kept in a small cache of tables per (eps, q, working precision) that grow on
demand, so every pass at one state shares one recursion.  The series kernel
sums one argument; the four series of the Wronskian

    W(u, eps) = chi(u/q^2) chk(u) - chk(u/q^2) chi(u)

read one table, and each forms only the terms no series before it formed.

Also here: the involution partner chi-check(u) = u^-1 chi(1/u), the dual
solution chi_{q^-1} = chi-check / W, the ratio G = chi / chi-check, and the
multiplication-rule checker for the polynomial family.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Tuple

from mpmath import mp
from mpmath.libmp import fone, fzero, mpc_add, mpc_mul, round_nearest

from .precision import (
    _MAX_TERMS,
    ModularParam,
    PoleSignal,
    PrecCtx,
    PrecisionExceeded,
    pochhammer_q,
)

# denominators this close to zero (relative to the local scale) are poles
ZERO_FLOOR = 1e3

# The series stops only when its float log2 stop test clears the boundary
# by this many bits (log2 units).  The float error is a few ulp of the
# largest exponent involved, below 2^-24 for exponents under 2^26, and the
# mpf roundings move a magnitude by a few 2^-64 at the 64-bit minimum
# precision, so no stop comes before the exact test's; inside the band the
# series sums one more term.
_LOG2_MARGIN = 2.0 ** -20


class _QTable:
    """The q-only factors of the chi series at one working precision.

    c[n] = (q^n - q^-n)^2 couples the polynomial recursion (c[0] unused);
    f[n] = (-1)^n q^{n(n+1)} / (q^2; q^2)_n is the series prefactor, built
    as f_{n+1} = f_n (-q^{2(n+1)}) / (1 - q^{2(n+1)}).  Both lists grow on
    demand with the same operations, in the same order, as the incremental
    loops they replace, so every value is bit-identical to recomputing it.
    """

    def __init__(self, q, bits: int):
        self.q = q
        self.bits = bits
        self.c = [None]
        self.f = [mp.mpf(1)]
        with mp.workprec(bits):
            self._q2 = q * q
        self._q2p = mp.mpf(1)

    def grow_c(self, n: int) -> None:
        q = self.q
        with mp.workprec(self.bits):
            for k in range(len(self.c), n + 1):
                self.c.append((q ** k - q ** -k) ** 2)

    def grow_f(self, n: int) -> None:
        f, q2 = self.f, self._q2
        with mp.workprec(self.bits):
            while len(f) <= n:
                self._q2p *= q2
                f.append(f[-1] * (-self._q2p / (1 - self._q2p)))


@functools.lru_cache(maxsize=16)  # one q per coupling, at one or two precisions
def _qtable(q, bits: int) -> _QTable:
    """The shared q-table for nome q at `bits` of working precision."""
    return _QTable(q, bits)


def _raw(x):
    """The raw tuple of an mpf (_mpf_) or mpc (_mpc_): a cache key that keeps
    a real number and a complex one of equal value apart."""
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


def _from_raw(key):
    return mp.make_mpc(key) if len(key) == 2 else mp.make_mpf(key)


class _ChiTable:
    """chi_n(eps) and dchi_n/deps for n = 0 .. len(chi) - 1 at one (eps, q,
    working precision), shared by every series, Wronskian and residue pass
    at that state.  _poly_pairs appends to the lists only when a consumer
    asks for a term not yet formed, with the operations and order of the
    recursion, so every value is bit-identical to running it afresh.
    """

    def __init__(self, eps_key, q_key, bits: int):
        self.eps = _from_raw(eps_key)
        self.qtab = _qtable(_from_raw(q_key), bits)
        self.chi = [mp.mpf(1), self.eps]
        self.dchi = [mp.mpf(0), mp.mpf(1)]


@functools.lru_cache(maxsize=2)  # the states in hand; each Newton step is a new eps
def _chitable(eps_key, q_key, bits: int) -> _ChiTable:
    """The shared recursion table of eps and q (by their _raw keys) at
    `bits` of working precision."""
    return _ChiTable(eps_key, q_key, bits)


def _poly_pairs(eps, q) -> Iterator[Tuple[object, object, object]]:
    """Yield (f_n, chi_n, dchi_n/deps) for n = 0, 1, 2, ..., with f_n the
    series prefactor of the q-table and chi_n by the recursion, at the
    current working precision; PrecisionExceeded on overflow.

    The terms come from the (eps, q, mp.prec) table, extended one term at a
    time only when a consumer asks for a term not yet formed: a state summed
    before costs no recursion, a new one costs what running the recursion
    does, and overflow raises at the same n.  Generators on one table may
    interleave; iterate each within the working precision it started at.
    """
    tab = _chitable(_raw(eps), _raw(q), mp.prec)
    chi, dchi, eps, qtab = tab.chi, tab.dchi, tab.eps, tab.qtab
    c, f = qtab.c, qtab.f
    n = 0
    while True:
        if n == len(chi):  # no consumer has asked for chi_n before
            if n > len(c):
                qtab.grow_c(n - 1)
            cn = c[n - 1]
            chi_n = eps * chi[n - 1] + cn * chi[n - 2]
            if not mp.isfinite(chi_n):
                raise PrecisionExceeded(
                    "chi polynomial overflow; raise the working precision")
            dchi.append(chi[n - 1] + eps * dchi[n - 1] + cn * dchi[n - 2])
            chi.append(chi_n)
        if n == len(f):
            qtab.grow_f(n)
        yield f[n], chi[n], dchi[n]
        n += 1


def chi_poly_seq(eps, mpar: ModularParam, N: int, ctx: PrecCtx):
    """(values, dvalues): chi_{q,0..N}(eps) and their eps-derivatives at a
    numeric eps."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    with ctx.workprec():
        eps = mp.mpmathify(eps)
        _, values, dvalues = zip(*itertools.islice(_poly_pairs(eps, mpar.q), N + 1))
    return values, dvalues


def _log2_abs(z) -> float:
    """log2 |z| of a raw (re, im) pair of mpf tuples as a float; -inf at 0
    and nan where a part is infinite or nan, which no float test decides.

    Each part is exp + log2(man), with Python's integer log2 of the
    mantissa, so no mpf exponent overflows or underflows it.
    """
    re, im = z
    if not (re[1] or re == fzero) or not (im[1] or im == fzero):
        return math.nan
    a = re[2] + math.log2(re[1]) if re[1] else -math.inf
    b = im[2] + math.log2(im[1]) if im[1] else -math.inf
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + 0.5 * math.log2(1.0 + 2.0 ** (2.0 * (b - a)))


def _parts(x):
    """The raw (re, im) pair of an mpf or mpc; a real has im = fzero."""
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)


def _chi_series(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """(chi_q(u, eps), d chi / d eps), adaptively truncated.

    Uses the second series form: term_n = f_n chi_n(eps) u^n, with f_n and
    chi_n read from the shared tables of (eps, q, working precision), which
    this call extends only past the terms an earlier call at that state
    formed.  The series stops when its last three term magnitudes sum below
    tol relative to its running scale (partial sum or largest term,
    whichever is bigger -- the sum itself can cross zero).

    The loop runs on raw libmp tuples, every value complex (a real one has
    imaginary part fzero), with the operations and roundings of the mpc
    operators: the products are mpc_mul's, the sums mpc_add's, so every bit
    matches the same loop on mpc numbers.  The stop test needs no square
    root: it is decided on float log2 magnitudes (_log2_abs, the three-term
    sum by log-sum-exp), and passes only when it clears its boundary by
    _LOG2_MARGIN, so the series never stops before the exact test on the
    mpf hypot values would; within the margin it sums one more term.  A
    non-finite term never passes it.
    """
    if mpar.precision_bits < ctx.precision_bits:
        raise ValueError(
            f"ModularParam built at {mpar.precision_bits} bits is coarser than "
            f"the {ctx.precision_bits}-bit context; rebuild it at that precision")
    with ctx.workprec():
        u = mp.mpmathify(u)
        eps = mp.mpmathify(eps)
        if u == 0:
            return mp.mpf(1), mp.mpf(0)
        prec, rnd = mp.prec, round_nearest
        ltol = _log2_abs((ctx.tol._mpf_, fzero))
        # every value an (re, im) pair of raw mpf tuples; l1, l2 are
        # log2 |t_{n-2}|, log2 |t_{n-1}|
        ur, s, ds, up = _parts(u), (fzero, fzero), (fzero, fzero), (fone, fzero)
        ltmax = l1 = l2 = -math.inf
        for n, (fn, x, dx) in zip(range(_MAX_TERMS), _poly_pairs(eps, mpar.q)):
            coeff = mpc_mul(up, _parts(fn), prec, rnd)
            t = mpc_mul(coeff, _parts(x), prec, rnd)
            s = mpc_add(s, t, prec, rnd)
            ds = mpc_add(ds, mpc_mul(coeff, _parts(dx), prec, rnd), prec, rnd)
            la = _log2_abs(t)
            if la > ltmax:
                ltmax = la
            if n >= 2:
                # log2 of the last three |t| summed; nan if one is nan
                top = max(l1, l2, la)
                lsum = top + math.log2(
                    2.0 ** (l1 - top) + 2.0 ** (l2 - top) + 2.0 ** (la - top)
                ) if top > -math.inf else l1 + l2 + la
                if lsum < ltol + max(_log2_abs(s), ltmax) - _LOG2_MARGIN:
                    return mp.make_mpc(s), mp.make_mpc(ds)
            up, l1, l2 = mpc_mul(up, ur, prec, rnd), l2, la
        raise PrecisionExceeded(
            f"chi series did not reach tol within {_MAX_TERMS} terms "
            f"(|u| = {abs(u)})"
        )


def chi_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """chi_q(u, eps) and d chi / d eps, adaptively truncated."""
    # the public name of the kernel; Wronskian passes call _chi_series
    # itself, so their series stay outside the chi_eval span when traced
    return _chi_series(u, eps, mpar, ctx)


def chi_check_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """chi-check(u, eps) = u^-1 chi(1/u, eps), the second solution."""
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            raise ValueError("chi-check is defined on u != 0")
        v, _ = chi_eval(1 / u, eps, mpar, ctx)
        return v / u


def _wronskian_parts(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """(W, dW/deps, scale, (chi(u), dchi(u), chk(u), dchk(u))) of
    W = chi(u/q^2) chk(u) - chk(u/q^2) chi(u), with the scale set by the two
    products and d the eps-derivative.  The four series share one recursion
    table, and the u-factors are handed back so that G(u) = chi(u)/chk(u)
    costs no further series."""
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            raise ValueError("Wronskian is defined on u != 0")
        q2 = mpar.q * mpar.q
        uq = u / q2
        a, da = _chi_series(uq, eps, mpar, ctx)
        vb, dvb = _chi_series(1 / u, eps, mpar, ctx)
        vc, dvc = _chi_series(1 / uq, eps, mpar, ctx)
        d, dd = _chi_series(u, eps, mpar, ctx)
        b, db = vb / u, dvb / u
        c, dc = vc / uq, dvc / uq
        t1 = a * b
        t2 = c * d
        w = t1 - t2
        dw = da * b + a * db - dc * d - c * dd
        return w, dw, max(abs(t1), abs(t2)), (d, dd, b, db)


def chi_dual_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """The dual solution chi_{q^-1}(u, eps) = chi-check(u) / W(u), with
    chi-check(u) taken from the Wronskian's own pass.

    Raises PoleSignal when u sits within the zero floor of a Wronskian zero
    (the dual solution has poles exactly there).
    """
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            raise ValueError("chi_dual is defined on u != 0")
        w, _, scale, (_, _, chk, _) = _wronskian_parts(u, eps, mpar, ctx)
        if abs(w) < ZERO_FLOOR * ctx.tol * max(scale, mp.mpf(1)):
            raise PoleSignal(
                f"Wronskian zero at u = {mp.nstr(u, 8)}: dual solution pole"
            )
        return chk / w


def G_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """G_q(u, eps) = chi(u) / chi-check(u); PoleSignal at chi-check zeros."""
    with ctx.workprec():
        u = mp.mpmathify(u)
        num, _ = chi_eval(u, eps, mpar, ctx)
        den = chi_check_eval(u, eps, mpar, ctx)
        if abs(den) < ZERO_FLOOR * ctx.tol * max(abs(num), abs(den), mp.mpf(1)):
            raise PoleSignal(
                f"chi-check zero at u = {mp.nstr(u, 8)}: G has a pole"
            )
        return num / den


def _mult_residual(m: int, n: int, eps, mpar: ModularParam, ctx: PrecCtx):
    """(residual, |lhs|, largest |term|) of the multiplication rule at ctx."""
    with ctx.workprec():
        eps = mp.mpmathify(eps)
        q = mpar.q
        chi, _ = chi_poly_seq(eps, mpar, max(m + n, 2), ctx)
        lhs = chi[m] * chi[n]
        rhs = mp.mpc(0)
        q2 = q * q
        qm2 = 1 / q2
        tmax = abs(lhs)
        for k in range(min(m, n) + 1):
            coeff = (
                pochhammer_q(q ** (2 * m), qm2, k, ctx)
                * pochhammer_q(q ** (2 * n), qm2, k, ctx)
                * pochhammer_q(q ** (2 * (k - m - n)), q2, k, ctx)
                / pochhammer_q(q2, q2, k, ctx)
            )
            term = coeff * chi[m + n - 2 * k]
            rhs += term
            if abs(term) > tmax:
                tmax = abs(term)
        return abs(lhs - rhs), abs(lhs), tmax


def chi_mult_check(m: int, n: int, eps, mpar: ModularParam, ctx: PrecCtx):
    """Absolute residual of the multiplication rule

    chi_m chi_n = sum_{k=0}^{min(m,n)} (q^{2m};q^-2)_k (q^{2n};q^-2)_k
                  (q^{2(k-m-n)};q^2)_k / (q^2;q^2)_k  chi_{m+n-2k}.

    The right side cancels massively (individual terms reach |q|^{-(m+n)^2/2}
    against a product of size |q|^{-(m^2+n^2)/2}), so after a first pass the
    measurement is repeated with enough guard bits to cover the observed
    amplification; the returned residual is then meaningful at ctx.tol.
    """
    if not (0 <= m <= 12 and 0 <= n <= 12):
        raise ValueError(f"multiplication check is desk-scale: 0 <= m,n <= 12, got {(m, n)}")
    res, lhs_mag, tmax = _mult_residual(m, n, eps, mpar, ctx)
    if tmax > lhs_mag > 0:
        lost_bits = int(mp.log(tmax / lhs_mag, 2)) + 32
        boosted = PrecCtx(
            precision_bits=min(ctx.precision_bits + lost_bits, 8192),
            tol=ctx.tol,
        )
        res, _, _ = _mult_residual(m, n, eps, mpar, boosted)
    return res
