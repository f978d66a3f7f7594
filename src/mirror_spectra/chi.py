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
demand, so every pass at one state shares one recursion.  The tables hold
each value once, in the integer form the loops read (below).

The loops (the recursion, the series kernel and the Wronskian sums) run on
a small integer core in place of libmp's operators: a real part is a pair
(m, e), the value m 2^e with a signed odd mantissa, products are exact,
sums are exact after aligning (but for mpf_add's one shortcut, which _add
keeps), and each real or imaginary part is rounded half-to-even to the
working precision once, where mpc_mul, mpc_add or mpc_mul_int rounds it.
So every value is bit for bit what the mpc operators give, at a fraction
of their per-operation Python overhead.  The loops' stop tests read float
log2 magnitudes: of an integer form from its exponents and odd mantissas
(_log2_ints), and of tol from its mpf (precision._log2, the package's one
float log).
The series kernel sums chi at one argument, and its eps- and u-slopes
only for the callers that read them (the state solver and psi's limit);
the four value series of the Wronskian

    W(u, eps) = chi(u/q^2) chk(u) - chk(u/q^2) chi(u)

read one table, and each forms only the terms no series before it formed;
that form is the independent value oracle for W.  Newton in eps sums only
W's two eps-dependent Laurent coefficients and their eps-derivatives
(_wronskian_sums), the one kernel of dW/deps.

Also here: the involution partner chi-check(u) = u^-1 chi(1/u), the dual
solution chi_{q^-1} = chi-check / W, the ratio G = chi / chi-check, and the
multiplication-rule checker for the polynomial family.
"""

from __future__ import annotations

import functools
import math
import numbers

from mpmath import mp
from mpmath.libmp import fzero

from .precision import (
    _MAX_TERMS,
    ModularParam,
    PoleSignal,
    PrecCtx,
    PrecisionExceeded,
    _check_nome_precision,
    _log2,
    _parts,
    pochhammer_q,
)

# The series stops only when its float log2 stop test clears the boundary
# by this many bits (log2 units).  The float error is a few ulp of the
# largest exponent involved, below 2^-24 for exponents under 2^26, and the
# mpf roundings move a magnitude by a few 2^-64 at the 64-bit minimum
# precision, so no stop comes before the exact test's; inside the band the
# series sums one more term.
_LOG2_MARGIN = 2.0 ** -20

# ── the integer core ──────────────────────────────────────────────────────
# A complex value is (rm, re, im, ie), the parts rm 2^re and im 2^ie: the
# mantissa and exponent of libmp's raw tuple, with the sign folded into an
# odd mantissa (0 for zero).  Only *, +, shifts, & and bit_length touch the
# mantissas, so a gmpy2 mpz serves as well as an int.

_ZERO, _ONE = (0, 0, 0, 0), (1, 0, 0, 0)


def _ints(z):
    """The integer form of a raw (re, im) pair of finite mpf tuples."""
    (rs, rm, re, _), (js, im, ie, _) = z
    return -rm if rs else rm, re, -im if js else im, ie


def _mpf(m, e):
    """The raw mpf tuple of the part m 2^e."""
    if not m:
        return fzero
    return (0, m, e, m.bit_length()) if m > 0 else (1, -m, e, m.bit_length())


def _mpc(z):
    """The mpc of an integer form."""
    return mp.make_mpc((_mpf(z[0], z[1]), _mpf(z[2], z[3])))


def _add(m, e, n, f, prec):
    """m 2^e + n 2^f (n = 0 rounds m 2^e alone) rounded half-to-even to
    prec bits once, as mpf_add and libmp's normalize round it, to an odd
    mantissa (zero as (0, 0)).

    The sum is exact after aligning, except where the lower-order operand's
    last bit lies more than 100 bits below the other's and its top more than
    prec + 4 bits below: then it counts as one unit prec + 4 bits below the
    other's last, its sign kept.  That is mpf_add's perturbation, and it is
    kept because an unrounded product of more than prec bits can round
    differently from the exact sum there.
    """
    if n:
        if not m:
            m, e = n, f
        else:
            if e < f:
                m, e, n, f = n, f, m, e
            d = e - f
            if d > 100 and d + m.bit_length() - n.bit_length() > prec + 4:
                m, e = (m << prec + 4) + (1 if n > 0 else -1), e - prec - 4
            else:
                m, e = (m << d) + n, f
    k = m.bit_length() - prec
    if k > 0:
        # t ends in the half bit; the bits below it decide only a tie
        t = m >> k - 1
        m = (t >> 1) + 1 if t & 1 and (t & 2 or m & (1 << k - 1) - 1) else t >> 1
        e += k
    if m & 1:
        return m, e
    if not m:
        return 0, 0
    k = (m & -m).bit_length() - 1
    return m >> k, e + k


def _cmul(z, w, prec):
    """mpc_mul: the four products exact, each part rounded once."""
    am, ae, bm, be = z
    cm, ce, dm, de = w
    return (_add(am * cm, ae + ce, -bm * dm, be + de, prec)
            + _add(am * dm, ae + de, bm * cm, be + ce, prec))


def _cadd(z, w, prec):
    """mpc_add."""
    return _add(z[0], z[1], w[0], w[1], prec) + _add(z[2], z[3], w[2], w[3], prec)


def _log2_ints(z) -> float:
    """log2 |z| of an integer form as a float, -inf at 0: each part is exp +
    log2 of its odd mantissa (Python's integer log2, so no exponent
    overflows or underflows it), and the two meet as log2 of their hypot."""
    rm, re, im, ie = z
    a = re + math.log2(abs(rm)) if rm else -math.inf
    b = ie + math.log2(abs(im)) if im else -math.inf
    if a < b:
        a, b = b, a
    if b == -math.inf:
        return a
    return a + 0.5 * math.log2(1.0 + 2.0 ** (2.0 * (b - a)))


class _QTable:
    """The q-only factors of the chi series at one working precision, in
    integer form.

    c[n] = (q^n - q^-n)^2 couples the polynomial recursion (c[0] unused);
    f[n] = (-1)^n q^{n(n+1)} / (q^2; q^2)_n is the series prefactor, formed
    on a running mpmath product as f_{n+1} = f_n (-q^{2(n+1)}) / (1 -
    q^{2(n+1)}).  grow appends both together, so the two lists always have
    the same length; each value takes the same operations, in the same
    order, as in the incremental loops the table replaces, so it is
    bit-identical to recomputing it (c and f do not depend on each other).

    k1[m] = f_m^2 (q^{-2m} - q^{2m+2}) and k0[m] = f_m f_{m+1} (q^{-2m-2} -
    q^{2m+2}) weight chi_m^2 and chi_{m+1} chi_m in the two Laurent
    coefficients of the Wronskian (_wronskian_sums).
    """

    def __init__(self, q, bits: int):
        self.q = q
        self.bits = bits
        self.c = [None]
        self.f = [_ONE]
        self.k1, self.k0 = [], []
        with mp.workprec(bits):
            self._q2 = q * q
        self._q2p = self._fn = mp.mpf(1)
        self.grow(1)  # a recursion table starts with chi_0 and chi_1

    def grow(self, n: int) -> None:
        """Append c[k] and f[k] for k = len(f) .. n."""
        q, q2, c, f = self.q, self._q2, self.c, self.f
        with mp.workprec(self.bits):
            for k in range(len(f), n + 1):
                c.append(_ints(_parts((q ** k - q ** -k) ** 2)))
                self._q2p *= q2
                self._fn *= -self._q2p / (1 - self._q2p)
                f.append(_ints(_parts(self._fn)))

    def grow_k(self, n: int) -> None:
        self.grow(n + 1)
        q = self.q
        with mp.workprec(self.bits):
            for m in range(len(self.k1), n + 1):
                fm, fm1 = map(_mpc, self.f[m:m + 2])
                self.k1.append(_ints(_parts(
                    fm ** 2 * (q ** (-2 * m) - q ** (2 * m + 2)))))
                self.k0.append(_ints(_parts(
                    fm * fm1 * (q ** (-2 * m - 2) - q ** (2 * m + 2)))))


@functools.lru_cache(maxsize=16)  # one q per coupling, at one or two precisions
def _qtable(q, bits: int) -> _QTable:
    """The shared q-table for nome q at `bits` of working precision."""
    return _QTable(q, bits)


class _ChiTable:
    """chi_n(eps) for n = 0 .. len(chi) - 1 and dchi_n/deps for n = 0 ..
    len(dchi) - 1 at one (eps, q, working precision), in integer form,
    shared by every series, Wronskian and residue pass at that state.  grow
    appends one chi_n, and with it the q-table's c_n and f_n where no table
    has formed them yet; grow_slopes appends the derivatives up to a given
    n, which only the slope readers (_wronskian_sums and the series with
    slopes) ask for, so a value reader forms none.  A consumer calls each
    only when it asks for a term not yet formed, so a state summed before
    costs no recursion, a new one costs what running the recursion does,
    and a non-finite eps raises as the table is built.  It runs the
    recursion on the integer core, rounding where the mpc operators round,
    so every value is bit-identical to the recursion run afresh in mpmath,
    however late its derivative is formed.
    """

    def __init__(self, eps_pair, q_pair, bits: int):
        if not mp.isfinite(mp.make_mpc(eps_pair)):  # chi_2 would be inf or nan
            raise PrecisionExceeded(
                "chi polynomial overflow; raise the working precision")
        self.qtab = _qtable(mp.make_mpc(q_pair), bits)
        self.chi = [_ONE, _ints(eps_pair)]
        self.dchi = [_ZERO, _ONE]

    def grow(self) -> None:
        """Append chi_n, n = len(chi), at the current working precision (eps
        is finite: __init__ refuses any other)."""
        chi, qtab = self.chi, self.qtab
        n = len(chi)
        if n >= len(qtab.f):  # grow's workprec is a libmp call: not per term
            qtab.grow(n)
        prec = mp.prec
        chi.append(_cadd(_cmul(chi[1], chi[n - 1], prec),
                         _cmul(qtab.c[n - 1], chi[n - 2], prec), prec))

    def grow_slopes(self, n: int) -> None:
        """Append dchi_k/deps for k = len(dchi) .. n at the current working
        precision; chi must hold chi_{n-1}."""
        chi, dchi, c = self.chi, self.dchi, self.qtab.c
        eps = chi[1]
        prec = mp.prec
        for k in range(len(dchi), n + 1):
            dchi.append(_cadd(_cadd(chi[k - 1], _cmul(eps, dchi[k - 1], prec), prec),
                              _cmul(c[k - 1], dchi[k - 2], prec), prec))


@functools.lru_cache(maxsize=2)  # the states in hand; each Newton step is a new eps
def _chitable(eps_pair, q_pair, bits: int) -> _ChiTable:
    """The shared recursion table of eps and q, by their raw (re, im) pairs
    (precision._parts), at `bits` of working precision.  A real eps and
    the complex eps of its value have one pair, so they share a table."""
    return _ChiTable(eps_pair, q_pair, bits)


def chi_poly_seq(eps, mpar: ModularParam, N: int, ctx: PrecCtx):
    """chi_{q,0..N}(eps) at a numeric eps: chi_0 = 1, chi_1 = eps itself,
    and from n = 2 an mpc (q is complex).  Their eps-derivatives are formed in
    the recursion table only for the slope readers (_wronskian_sums)."""
    if not isinstance(N, numbers.Integral) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    with ctx.workprec():
        eps = mp.mpmathify(eps)
        tab = _chitable(_parts(eps), _parts(mpar.q), mp.prec)
        while len(tab.chi) <= N:
            tab.grow()
        return (mp.mpf(1), eps) + tuple(map(_mpc, tab.chi[2:N + 1]))


def _tail_small(l1: float, l2: float, l3: float, lscale: float) -> bool:
    """The series stop test on float log2 magnitudes: |t_{n-2}| + |t_{n-1}|
    + |t_n| (by log-sum-exp) clears 2^lscale by _LOG2_MARGIN.  It needs no
    square root, and it never passes where a magnitude is nan."""
    top = max(l1, l2, l3)
    lsum = top + math.log2(
        2.0 ** (l1 - top) + 2.0 ** (l2 - top) + 2.0 ** (l3 - top)
    ) if top > -math.inf else l1 + l2 + l3
    return lsum < lscale - _LOG2_MARGIN


def _chi_series(u, eps, mpar: ModularParam, ctx: PrecCtx, slopes: bool = False):
    """chi_q(u, eps), adaptively truncated; with slopes, (chi_q(u, eps),
    d chi / d eps, u d chi / du) from the same loop.

    Uses the second series form: term_n = f_n chi_n(eps) u^n, with f_n and
    chi_n read by index, in integer form, from the shared tables of (eps,
    q, working precision), which this call grows only past the terms an
    earlier call at that state formed.  The series stops when its last
    three term magnitudes sum below tol relative to its running scale
    (partial sum or largest term, whichever is bigger -- the sum itself can
    cross zero).

    The loop runs on the integer core, every value complex (a real one has
    imaginary mantissa 0), and rounds where the same loop on mpc numbers
    does: every product where mpc_mul rounds, every sum where mpc_add does,
    so every bit matches that loop.  The stop test is _tail_small on float
    log2 magnitudes (_log2_ints of the terms and sums, precision._log2 of
    tol): it passes only when it clears its boundary by _LOG2_MARGIN, so
    the series never stops before the exact test on the mpf hypot values
    would; within the margin it sums one more term.  Integers carry no inf
    or nan, so a u with such a part raises at once, before the table is
    read.

    With slopes two more sums take dchi_n/deps and n chi_n in place of
    chi_n.  All the sums stop on the one test of the value terms, so each
    is bit for bit the sum a call for it alone makes.
    """
    _check_nome_precision(mpar, ctx)
    with ctx.workprec():
        u = mp.mpmathify(u)
        eps = mp.mpmathify(eps)
        if u == 0:
            return (mp.mpf(1), mp.mpf(0), mp.mpf(0)) if slopes else mp.mpf(1)
        prec = mp.prec
        ltol = _log2(ctx.tol)
        # l1, l2 are log2 |t_{n-2}|, log2 |t_{n-1}|
        ur, up = _ints(_parts(u)), _ONE
        s = ds = us = _ZERO
        ltmax = l1 = l2 = -math.inf
        if mp.isfinite(u):  # integers carry no inf or nan: such a u raises below
            tab = _chitable(_parts(eps), _parts(mpar.q), prec)
            chi, dchi, f = tab.chi, tab.dchi, tab.qtab.f
            for n in range(_MAX_TERMS):
                if n == len(chi):  # no consumer has asked for chi_n before
                    tab.grow()
                if slopes and n == len(dchi):
                    tab.grow_slopes(n)
                x = chi[n]
                coeff = _cmul(up, f[n], prec)
                t = _cmul(coeff, x, prec)
                s = _cadd(s, t, prec)
                if slopes:
                    ds = _cadd(ds, _cmul(coeff, dchi[n], prec), prec)
                    nx = _cmul(x, (n, 0, 0, 0), prec)
                    us = _cadd(us, _cmul(coeff, nx, prec), prec)
                la = _log2_ints(t)
                if la > ltmax:
                    ltmax = la
                if n >= 2 and _tail_small(l1, l2, la, ltol + max(_log2_ints(s), ltmax)):
                    return tuple(map(_mpc, (s, ds, us))) if slopes else _mpc(s)
                up, l1, l2 = _cmul(up, ur, prec), l2, la
        raise PrecisionExceeded(
            f"chi series did not reach tol within {_MAX_TERMS} terms "
            f"(|u| = {abs(u)})"
        )


def _wronskian_sums(eps, mpar: ModularParam, ctx: PrecCtx):
    """(w_-1, w_0, dw_-1/deps, dw_0/deps): the two Laurent coefficients of
    W(., eps) that fix all the others.

    W(q^2 u) = W(u)/(q^2 u^2) ties the coefficients of W(u) = sum_k w_k u^k
    by w_{k+2} = w_k q^{2k+2}, so

        W(u, eps) = w_-1(eps) O(u) + w_0(eps) E(u),
        E(u) = sum_j q^{2j^2} u^{2j},   O(u) = sum_j q^{2j(j-1)} u^{2j-1}

    (j over all integers), and with a_m = f_m chi_m(eps)

        w_-1 = sum_m a_m^2 (q^{-2m} - q^{2m+2}),
        w_0  = sum_m a_{m+1} a_m (q^{-2m-2} - q^{2m+2}),

    summed as chi_m^2 k1[m] and chi_{m+1} chi_m k0[m] over the shared
    tables.  The loop runs on the integer core as _chi_series does, with
    the roundings of the mpc operators, and ends at the first term where
    both sums pass its stop test (w_0 vanishes identically at eps = 0,
    where only w_-1 is tested).  The terms fall like
    |q|^{2m^2}, so 8-10 of them replace the 37-47 of the four chi series in
    _wronskian_parts.
    """
    _check_nome_precision(mpar, ctx)
    with ctx.workprec():
        eps = mp.mpmathify(eps)
        prec = mp.prec
        tab = _chitable(_parts(eps), _parts(mpar.q), prec)
        chi, dchi, qtab = tab.chi, tab.dchi, tab.qtab
        k1, k0 = qtab.k1, qtab.k0
        ltol = _log2(ctx.tol)
        r1 = r0 = d1 = d0 = _ZERO
        # per sum: the largest log2 |term| and the last two
        m1 = a1 = b1 = m0 = a0 = b0 = -math.inf
        px = pdx = None
        for n in range(_MAX_TERMS):
            if n == len(chi):
                tab.grow()
            if n == len(dchi):
                tab.grow_slopes(n)
            if n == len(k1):
                qtab.grow_k(n)
            x, dx = chi[n], dchi[n]
            t = _cmul(_cmul(x, x, prec), k1[n], prec)
            r1 = _cadd(r1, t, prec)
            xd = _cmul(x, dx, prec)
            d1 = _cadd(d1, _cmul(_cadd(xd, xd, prec), k1[n], prec), prec)
            l1 = _log2_ints(t)
            m1 = max(m1, l1)
            if n:
                k = k0[n - 1]
                t = _cmul(_cmul(x, px, prec), k, prec)
                r0 = _cadd(r0, t, prec)
                dt = _cadd(_cmul(dx, px, prec), _cmul(x, pdx, prec), prec)
                d0 = _cadd(d0, _cmul(dt, k, prec), prec)
                l0 = _log2_ints(t)
                m0 = max(m0, l0)
                if (n >= 3
                        and _tail_small(a1, b1, l1, ltol + max(_log2_ints(r1), m1))
                        and (m0 == -math.inf and r0 == _ZERO or _tail_small(
                            a0, b0, l0, ltol + max(_log2_ints(r0), m0)))):
                    return tuple(map(_mpc, (r1, r0, d1, d0)))
                a0, b0 = b0, l0
            a1, b1 = b1, l1
            px, pdx = x, dx
        raise PrecisionExceeded(
            f"Wronskian coefficient series at eps = {mp.nstr(eps, 8)} did not "
            f"reach tol = {ctx.tol} within {_MAX_TERMS} terms")


def chi_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """chi_q(u, eps), adaptively truncated."""
    # the public name of the kernel; Wronskian passes call _chi_series
    # itself, so their series stay outside the chi_eval span when traced
    return _chi_series(u, eps, mpar, ctx)


def chi_check_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """chi-check(u, eps) = u^-1 chi(1/u, eps), the second solution, a value."""
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            raise ValueError("chi-check is defined on u != 0")
        return chi_eval(1 / u, eps, mpar, ctx) / u


def _wronskian_parts(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """(W, scale, chk(u)) of W = chi(u/q^2) chk(u) - chk(u/q^2) chi(u),
    with the scale set by the two products: four value series over one
    recursion table, the independent oracle for W's zero set.  chk(u) is
    handed back for the dual solution; dW/deps is the two-sum pass's
    (_wronskian_sums)."""
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            raise ValueError("Wronskian is defined on u != 0")
        q2 = mpar.q * mpar.q
        uq = u / q2
        a = _chi_series(uq, eps, mpar, ctx)
        b = _chi_series(1 / u, eps, mpar, ctx) / u
        c = _chi_series(1 / uq, eps, mpar, ctx) / uq
        d = _chi_series(u, eps, mpar, ctx)
        t1, t2 = a * b, c * d
        return t1 - t2, max(abs(t1), abs(t2)), b


def _vanishes_to_tol(w, scale, ctx: PrecCtx) -> bool:
    """W is zero to tol: |W| <= tol * max(scale, 1), scale the larger of the
    two terms summed into W (Newton's residual stop, factorize, chi_dual)."""
    return abs(w) <= ctx.tol * max(scale, 1)


def _vanishes_at_precision(den, num, ctx: PrecCtx) -> bool:
    """den is zero at this precision, so num/den is a pole: |den| <
    ctx.finest_tol = 2^(16 - bits) of the larger of |num|, |den| and 1."""
    return abs(den) < ctx.finest_tol * max(abs(num), abs(den), 1)


def chi_dual_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """The dual solution chi_{q^-1}(u, eps) = chi-check(u) / W(u), with
    chi-check(u) taken from the Wronskian's own pass.

    Raises PoleSignal where W(u) is zero to tol (_vanishes_to_tol): the
    dual solution has poles exactly on the Wronskian's zero set.
    """
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            raise ValueError("chi_dual is defined on u != 0")
        w, scale, chk = _wronskian_parts(u, eps, mpar, ctx)
        if _vanishes_to_tol(w, scale, ctx):
            raise PoleSignal(
                f"Wronskian zero at u = {mp.nstr(u, 8)}: dual solution pole"
            )
        return chk / w


def G_eval(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """G_q(u, eps) = chi(u) / chi-check(u); PoleSignal at chi-check zeros.

    chi-check counts as zero when it is zero at this precision
    (_vanishes_at_precision), not at tol, since |G| itself grows to 1e8 and
    more on the upper sheets and is no pole there.
    """
    with ctx.workprec():
        u = mp.mpmathify(u)
        return _g_ratio(chi_eval(u, eps, mpar, ctx),
                        chi_check_eval(u, eps, mpar, ctx), u, ctx)


def _g_ratio(num, den, u, ctx: PrecCtx):
    """G = num / den from chi(u) and chi-check(u); PoleSignal where den is
    zero at this precision (_vanishes_at_precision)."""
    if _vanishes_at_precision(den, num, ctx):
        raise PoleSignal(f"chi-check zero at u = {mp.nstr(u, 8)}: G has a pole")
    return num / den


def _mult_residual(m: int, n: int, eps, mpar: ModularParam, ctx: PrecCtx):
    """(residual, |lhs|, largest |term|) of the multiplication rule at ctx."""
    with ctx.workprec():
        eps = mp.mpmathify(eps)
        q = mpar.q
        chi = chi_poly_seq(eps, mpar, max(m + n, 2), ctx)
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
    for name, k in (("m", m), ("n", n)):
        if not isinstance(k, numbers.Integral) or not 0 <= k <= 12:
            raise ValueError(f"multiplication check is desk-scale: {name} must be "
                             f"an integer in 0..12, got {k!r}")
    res, lhs_mag, tmax = _mult_residual(m, n, eps, mpar, ctx)
    if tmax > lhs_mag > 0:
        lost_bits = int(mp.log(tmax / lhs_mag, 2)) + 32
        boosted = PrecCtx(
            precision_bits=min(ctx.precision_bits + lost_bits, 8192),
            tol=ctx.tol,
        )
        res, _, _ = _mult_residual(m, n, eps, mpar, boosted)
    return res
