"""Precision context, modular parameters, q-Pochhammer symbols and theta.

Foundation layer for everything else in the package:

  * ``PrecCtx``        -- working precision + tolerance;
  * ``_predicted_stop`` -- the stop every Newton loop in the package shares,
                          and the period trapezoid's doubling of N: accept
                          a step on its predicted error;
  * ``ModularParam``   -- the coupling as given and its data (theta, b, q,
                          qbar), with exact logarithms of the nomes;
  * ``_log2``          -- the package's one float log of an mpf, from its
                          exponent and mantissa (the theta term bounds
                          through ``_ln``, and the chi series' stop tests);
  * ``pochhammer_q``   -- finite q-Pochhammer products, and mpmath's ``qp``
                          for the infinite one;
  * ``theta1``         -- Jacobi theta_1 in logarithmic coordinates, and
                          ``_theta_eo``, spectral's E and O (theta_3 and
                          theta_2 of nome q^2) with, for the state solver,
                          their slopes.  Both shift the argument into the
                          strip |Re w| <= -ln|q| by the quasi-periodicity
                          (``_strip``), sum there with a guard sized by the
                          largest term, and re-sum once with the bits a
                          measured cancellation costs (``_resummed``).
                          theta1 sums its own fixed-point series from a
                          table cached per nome (``_theta1_table``), within
                          2 ulp up to 1,024 bits; ``_theta_eo`` sums
                          mpmath's fixed-point kernels (``_theta_sum``,
                          the package's one caller of them).  Both raise
                          PrecisionExceeded past ``_MAX_TERMS`` terms, or
                          when cancellation leaves no correct digit.

All functions are pure: they take immutable inputs, enter an mpmath
``workprec`` block sized by the context, and return mpmath scalars.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Union

from mpmath import mp
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpc_mul,
                          mpc_neg, mpc_pow_int, mpf_add, mpf_cos_sin, mpf_exp,
                          mpf_lt, mpf_mul, mpf_shift, mpf_sub, round_nearest,
                          to_fixed)


# ── errors ──────────────────────────────────────────────────────────────────

class SolverError(Exception):
    """Base class for numerical failures in this package."""


class PrecisionExceeded(SolverError):
    """A series or iteration hit its hard cap before reaching tolerance."""


class PoleSignal(SolverError):
    """A pole the caller must handle: W zero to tol under the dual solution,
    chi-check zero at this precision under G (chi._vanishes_to_tol and
    _vanishes_at_precision), or an R-iteration or theta denominator zero."""


# ── precision context ───────────────────────────────────────────────────────

# the term cap of every series and product in the package
_MAX_TERMS = 4096

# the smallest working precision a context accepts
_MIN_BITS = 64


def _tol_value(tol):
    """tol as an mpf rounded to 53 bits, under its own workprec since a
    caller may sit in a finer one: a double's value where a double holds
    it, and no underflow below the double range."""
    with mp.workprec(53):
        return mp.mpf(tol)


def _bits_value(bits) -> int:
    """bits as an int where its value is integral (100, 100.0, a numpy
    int); ValueError otherwise, since mpmath would truncate it at every
    workprec."""
    try:
        n = int(bits)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != bits:
        raise ValueError(f"precision_bits must be an integer, got {bits!r}")
    return n


@dataclass(frozen=True)
class PrecCtx:
    """Working precision in bits and target tolerance.

    ``tol`` may be given as a float, a decimal string or an mpf; the context
    holds it as a 53-bit mpf, so 1e-40, "1e-40" and mp.mpf(1e-40) build
    equal contexts.  ``precision_bits`` is held as an int, and a value that
    is not integral (64.5) raises ValueError.
    """

    precision_bits: int
    tol: object     # mpf

    def __post_init__(self) -> None:
        object.__setattr__(self, "precision_bits", _bits_value(self.precision_bits))
        object.__setattr__(self, "tol", _tol_value(self.tol))
        if self.precision_bits < _MIN_BITS:
            raise ValueError(
                f"precision_bits must be >= {_MIN_BITS}, got {self.precision_bits}")
        if not (mp.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        # tolerance must be achievable at the working precision
        if self.tol < self.finest_tol:
            raise ValueError(
                f"tol={self.tol} is unreachable at {self.precision_bits} bits "
                f"(need tol >= 2^{-self.precision_bits + 16})"
            )

    @property
    def finest_tol(self):
        """2^(16 - bits), exact: the finest tol this precision accepts."""
        return mp.ldexp(1, 16 - self.precision_bits)

    def workprec(self):
        """mpmath precision guard for this context."""
        return mp.workprec(self.precision_bits)


def make_context(precision_bits: int = 192, tol=None) -> PrecCtx:
    """Build a precision context; all downstream operations carry it.
    Without a tol it gets default_tol(precision_bits): 1e-40 at 192 bits."""
    precision_bits = _bits_value(precision_bits)
    if tol is None:
        tol = default_tol(precision_bits)
    return PrecCtx(precision_bits=precision_bits, tol=tol)


def _predicted_stop(size, prev, budget) -> bool:
    """Newton's stop on its predicted error (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004, ch. 2): size and prev are the magnitudes of
    the last two full Newton corrections, and x_k + dx_k is accepted, with
    no evaluation to confirm it, once their contraction Theta = size / prev
    is below 1/2 and the error it predicts for that point, Theta size /
    (1 - Theta), is within budget.  Where Theta >= 1/2 (slow convergence,
    as at a near-double root), or with no previous correction, it never
    accepts, and the caller's own test decides.  Any geometrically
    converging sequence may use it with its successive moves as size and
    prev: the period trapezoid (selfdual._stretched_a_periods) does."""
    if not prev:
        return False
    theta = size / prev
    return theta < 0.5 and theta * size <= budget * (1 - theta)


def default_tol(bits: int):
    """The tolerance a context of ``bits`` gets when none is given: 30 % of
    its decimal digits (at least 8) are kept as guard digits.  It is
    10^-k rounded to 53 bits from the decimal string, which up to 1,458
    bits is the double 10.0 ** -k bit for bit (mp.mpf(10) ** -k is not)."""
    digits = int(bits * 0.30103)
    return _tol_value(f"1e-{digits - max(8, (3 * digits) // 10)}")


# ── modular parameters ──────────────────────────────────────────────────────

_PI_FRACTION = re.compile(
    r"^\s*(?:(?P<num>\d+)\s*\*\s*)?pi\s*(?:/\s*(?P<den>\d+))?\s*$", re.IGNORECASE
)


def _check_nome_precision(mpar: "ModularParam", ctx: PrecCtx) -> None:
    """ValueError for a nome coarser than ctx: its rounding would pass tol."""
    if mpar.precision_bits < ctx.precision_bits:
        raise ValueError(
            f"ModularParam built at {mpar.precision_bits} bits is coarser than "
            f"the {ctx.precision_bits}-bit context; rebuild it with "
            f"mpar.at({ctx.precision_bits})")


@dataclass(frozen=True)
class ModularParam:
    """Coupling data b = e^{i theta} on the unit circle and both nomes.

    ``log_q`` and ``log_qbar`` are stored explicitly:  q = e^{i pi b^2} and
    qbar = e^{-i pi b^{-2}}, so the logarithms are exact data, and powers
    such as q^{2n} u stay on one branch when taken in log coordinates.
    ``conjugate`` swaps the two nomes (and b with 1/b); it must NOT be
    rebuilt through the theta formula, because the swapped problem has
    log q = -i pi b^2 rather than +i pi b^2.
    ``coupling`` is from_theta's argument as given, outside equality and
    hashing; ``at`` rebuilds that coupling at any precision.
    """

    theta: object   # mpf
    b: object       # mpc
    q: object       # mpc
    qbar: object    # mpc
    log_q: object   # mpc
    log_qbar: object  # mpc
    precision_bits: int  # precision the fields were computed at
    coupling: object = field(compare=False)  # from_theta's argument

    def __post_init__(self) -> None:
        # strict |q| < 1, with a double-ulp margin: the double below pi/2 is
        # inside (0, pi/2) at any precision, but its |q| is 1 - 3.8e-16
        if not abs(self.q) < 1 - 1e-15:
            raise ValueError(f"|q| must be < 1, got |q| = {abs(self.q)}")
        if not abs(self.qbar) < 1 - 1e-15:
            raise ValueError(f"|qbar| must be < 1, got |qbar| = {abs(self.qbar)}")

    @classmethod
    def from_theta(cls, theta, ctx: PrecCtx) -> "ModularParam":
        """Construct from the coupling angle theta in (0, pi/2), ValueError
        outside it.

        ``theta`` may be a number (radians) or a string such as ``"pi/4"`` or
        ``"3*pi/8"``: an exact pi-fraction num/den, range check and the
        argument of b alike, which the reference tables require.
        """
        m = _PI_FRACTION.match(theta) if isinstance(theta, str) else None
        with ctx.workprec():
            if m is None:
                th = mp.mpf(theta)
                inside = 0 < th < mp.pi / 2
            else:
                num, den = int(m.group("num") or 1), int(m.group("den") or 1)
                if den == 0:
                    raise ValueError(f"theta {theta!r} divides by zero")
                inside, frac = 0 < 2 * num < den, mp.mpf(num) / den  # exact check
                th = mp.pi * frac
            if not inside:
                raise ValueError(f"theta = {theta}: the coupling angle must lie in (0, pi/2)")
            b = mp.exp(mp.mpc(0, 1) * th) if m is None else mp.expjpi(frac)
            log_q = mp.mpc(0, 1) * mp.pi * b * b
            log_qbar = -mp.mpc(0, 1) * mp.pi / (b * b)
            q = mp.exp(log_q)
            qbar = mp.exp(log_qbar)
        return cls(theta=th, b=b, q=q, qbar=qbar, log_q=log_q,
                   log_qbar=log_qbar, precision_bits=ctx.precision_bits,
                   coupling=theta)

    def at(self, bits: int) -> "ModularParam":
        """The same coupling rebuilt at ``bits``: bit for bit
        ``from_theta(coupling, make_context(bits))``, conjugated when this
        nome is (Im b < 0; from_theta's b lies in the first quadrant)."""
        mpar = ModularParam.from_theta(self.coupling, make_context(bits))
        return mpar.conjugate() if self.b.imag < 0 else mpar

    def conjugate(self) -> "ModularParam":
        """The modular-dual problem: b -> 1/b, q <-> qbar (field swap).

        On |b| = 1 the inverse is the literal conjugate, which is exact."""
        with mp.workprec(self.precision_bits):
            b_inv = mp.conj(self.b)
        return replace(self, b=b_inv, q=self.qbar, qbar=self.q,
                       log_q=self.log_qbar, log_qbar=self.log_q)

    @property
    def in_supported_range(self) -> bool:
        """pi/8 <= theta <= 3 pi/8 at the parameter's precision: |q| =
        e^{-pi sin 2 theta} is symmetric about pi/4; series slow as |q| -> 1."""
        with mp.workprec(self.precision_bits):
            return mp.pi / 8 <= self.theta <= 3 * mp.pi / 8


# ── q-Pochhammer ────────────────────────────────────────────────────────────

def pochhammer_q(x, q, n: Union[int, float], ctx: PrecCtx):
    """(x; q)_n = prod_{i=0}^{n-1} (1 - x q^i), with n a non-negative integer
    or +infinity (requires |q| < 1 and |x q^k| < tol within _MAX_TERMS);
    ValueError for any other n (-inf, nan, 2.5, "3")."""
    infinite = n == mp.inf      # float('inf') == mp.inf too
    if not infinite:
        try:
            k = int(n)
        except (TypeError, ValueError, OverflowError):
            k = -1
        if k < 0 or k != n:
            raise ValueError(f"n must be an integer >= 0 or +inf, got {n!r}")
    with ctx.workprec():
        x = mp.mpmathify(x)
        q = mp.mpmathify(q)
        if not infinite:
            prod = mp.mpf(1)
            qk = mp.mpf(1)
            for _ in range(k):
                prod *= 1 - x * qk
                qk *= q
            return prod
        if not abs(q) < 1:
            raise ValueError(f"infinite product needs |q| < 1, got |q| = {abs(q)}")
        tol = ctx.tol
        if abs(x) >= tol and mp.log(tol / abs(x)) / mp.log(abs(q)) > _MAX_TERMS:
            raise PrecisionExceeded(
                f"(x;q)_inf needs more than {_MAX_TERMS} factors "
                f"(|q| = {abs(q)})"
            )
        return mp.qp(x, q)


# ── Jacobi theta in log coordinates ─────────────────────────────────────────

_LN2 = math.log(2)
_RND = round_nearest


def _log2(x) -> float:
    """log2 x of a positive mpf as a float, from its exponent and mantissa:
    no mpf log, and no float underflow below the double range."""
    _, man, exp, _ = x._mpf_
    return exp + math.log2(man)


def _ln(x) -> float:
    """ln x of a positive mpf as a float (_log2)."""
    return _log2(x) * _LN2


def _parts(x):
    """The raw (re, im) pair of an mpf or mpc; a real has im = fzero."""
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)


def _strip(n: int, x_log, q, ctx: PrecCtx):
    """(w, q, k, big, extra) for theta_n at w = x_log, under ctx's workprec:
    the shift index k = nint(Re w / (2 ln|q|)), whose k periods of 2 log q
    land w' = w - 2k log q in the strip |Re w'| <= L = -ln|q|; big, the
    log2 of the largest term there, e^{(Re w')^2 / (4L)}, at most
    L / (4 ln 2) bits; and extra, the bits w' and the factor of the shift
    take for their exponent's size.  ValueError unless 0 < |q| < 1 and w
    is finite; PrecisionExceeded when the series needs more than
    _MAX_TERMS terms."""
    w = mp.mpmathify(x_log)
    q = mp.mpmathify(q)
    re_q, im_q = _parts(q)
    q_sq = mpf_add(mpf_mul(re_q, re_q), mpf_mul(im_q, im_q))   # |q|^2, exact
    if q_sq == fzero or not mpf_lt(q_sq, fone):
        raise ValueError(f"theta{n} needs 0 < |q| < 1, got |q| = {abs(q)}")
    # the index h where the term bound |q|^{h^2} e^{h a} falls to tol
    L = -_ln(mp.make_mpf(q_sq)) / 2
    re_w, im_w = float(mp.re(w)), float(mp.im(w))
    # a finite w past the float range is left to the term cap below
    if not math.isfinite(re_w + im_w) and not mp.isfinite(w):
        raise ValueError(f"theta{n} needs a finite argument, got w = {w}")
    a = abs(re_w)
    T = -_ln(ctx.tol)
    if (a + math.sqrt(a * a + 4 * L * T)) / (2 * L) > _MAX_TERMS:
        raise PrecisionExceeded(
            f"theta{n} series needs more than {_MAX_TERMS} terms to reach tol"
        )
    k = round(-re_w / (2 * L))
    a = re_w + 2 * k * L                     # Re w'
    big = math.ceil(a * a / (4 * L * _LN2))  # log2 of the largest term
    extra = 0
    if k:
        size = 3 * abs(k) * math.hypot(L, math.pi) + math.hypot(re_w, im_w)
        extra = int(abs(k) * size).bit_length()
    return w, q, k, big, extra


def _resummed(n: int, summed, q, big: int, ctx: PrecCtx):
    """The product of summed(prec) = (sum, factor), the sum at
    prec = bits + guard, the guard 10 bits plus the largest term's (big).
    The bits lost to cancellation are the largest term's exponent less the
    sum's; past the guard (near a zero) the sum is redone once with that
    many more bits.  PrecisionExceeded when the second sum still loses more
    than its guard: no correct digit is left (theta_1 with |q| near 1)."""
    guard = 10 + big
    prec = ctx.precision_bits + guard
    for retry in (False, True):
        s, factor = summed(prec)
        lost = big - mp.mag(s) if s else prec
        if lost <= guard:
            return s * factor
        if retry:
            raise PrecisionExceeded(
                f"theta{n} loses {lost} bits to cancellation at {prec} "
                f"bits (|q| = {mp.nstr(abs(q), 8)}): no correct digit is left"
            )
        guard += lost
        prec += lost


def _theta_sum(n: int, w, q, k: int, prec: int, extra: int, d: int = 0):
    """theta_n(w) = e^{-k^2 log q - k w'} theta_n(w'), w' = w - 2k log q
    (DLMF 20.2(ii); n = 2 or 3), as the pair (mpmath's fixed-point kernel
    at w', that factor), the sum at prec bits; with d > 0 the kernel is
    its derivative twin, the d-th derivative in z' = -i w' / 2.  w' and
    the factor take extra bits for their exponent's size; only integer
    powers of q enter, so any branch of log q serves."""
    factor = 1
    with mp.workprec(prec):
        if k:
            with mp.extraprec(extra):
                lq = mp.log(q)
                w = w - 2 * k * lq
                factor = mp.exp(-k * k * lq - k * w)
        z = mp.mpc(mp.im(w), -mp.re(w)) / 2         # e^{2iz} = e^{w'}
        if d:
            return (mp._djacobi_theta3 if n == 3 else mp._djacobi_theta2)(z, q, d), factor
        return (mp._jacobi_theta3 if n == 3 else mp._jacobi_theta2)(z, q), factor


def _theta_eo(x, q, ctx: PrecCtx, slopes: bool = False):
    """(E(s), O(s)) at s = e^x, and with slopes also (u E'(u), u O'(u)) at
    u = s: E(u) = sum_j q^{2j^2} u^{2j} is theta_3 and O(u) = sum_j
    q^{2j(j-1)} u^{2j-1} is theta_2 / (q^2)^{1/4}, nome q^2, at w = 2x
    (DLMF 20.2; mpmath's jtheta at z = -i x).  mp.nthroot is the root
    mpmath's theta_2 kernel carries, so the branch cancels; with integer
    powers of s only, any log s serves.  The argument is shifted into the
    strip once (_strip) for both series, each summed by mpmath's
    fixed-point kernel at bits + guard and redone once where it cancels
    (_resummed).  The slopes come from the derivative kernels at the
    first sum's precision: u d/du = -i d/dz, and theta(w) = f theta(w')
    with df/dw = -k f gives u theta' = f (-i theta'(z')) - 2k theta(w).
    On the state solver's sigma in (0, sin theta), 1 <= |u| <= 1/|q| keeps
    w in the strip, k = 0."""
    with ctx.workprec():
        w, q2, k, big, extra = _strip(3, 2 * x, q * q, ctx)
        root = mp.nthroot(q2, 4)
        even, odd = (_resummed(n, functools.partial(_theta_sum, n, w, q2, k,
                                                    extra=extra), q2, big, ctx)
                     for n in (3, 2))
        if not slopes:
            return even, odd / root
        prec = ctx.precision_bits + 10 + big        # _resummed's first sum
        (d3, f), (d2, _) = (_theta_sum(n, w, q2, k, prec, extra, 1) for n in (3, 2))
        de = f * (-1j * d3) - 2 * k * even
        do = f * (-1j * d2) - 2 * k * odd
        return even, odd / root, de, do / root


class _Theta1Table(NamedTuple):
    """theta_1's data at one nome and summing precision prec (_theta1_table):
    the c_j as integers, the rest as libmp raw pairs."""
    c: tuple        # (Re, Im) of c_j = (-1)^j q^{j(j+1)}, fixed point at prec + spare
    spare: int      # the extra fractional bits of c
    root: tuple     # -i q^{1/4}, principal root (mp.nthroot), at prec + spare bits
    inv_q: tuple    # 1/q at prec + spare + 32 bits
    log_q: tuple    # log q at prec + spare + 32 bits


@functools.lru_cache(maxsize=16)  # one q per coupling, at a few summing precisions
def _theta1_table(q, prec: int) -> _Theta1Table:
    """theta_1's table at nome q, for sums at prec bits in the strip
    |Re w'| <= L = -ln|q|.  It holds c_j for j < J, J the first j with
    L(j^2 - 1) > (prec + 4) ln 2: past it every term, at most
    |q|^{j(j+1)} e^{(j + 1/2) L} <= e^{-L(j^2 - 1)}, is below
    2^-(prec + 4).  The c_j keep spare = ceil((J + 1) L / ln 2) + 2 extra
    fractional bits: a tiny q^{j(j+1)} in prec-bit fixed point keeps few
    significant bits, and the factor e^{(j + 1/2) L} it meets in the sum
    would multiply that error (the bits mpmath's own kernel loses).  The
    shift's 1/q and log q keep 32 bits more: the term cap holds |k| to
    2048, so q^{-k^2} and 2k log q multiply their errors by at most 2^32."""
    L = -_ln(abs(q))
    J = math.isqrt(int((prec + 4) * _LN2 / L) + 1) + 1
    spare = math.ceil((J + 1) * L / _LN2) + 2
    fix = prec + spare
    c = []
    with mp.workprec(fix):
        q = mp.mpc(q)
        q2 = q * q
        cj, step = mp.mpc(1), mp.mpc(1)
        for _ in range(J):
            c.append((to_fixed(cj.real._mpf_, fix), to_fixed(cj.imag._mpf_, fix)))
            step *= q2                      # q^{2(j+1)}
            cj = -cj * step                 # c_{j+1}
        root = (-1j * mp.nthroot(q, 4))._mpc_
    with mp.workprec(fix + 32):
        return _Theta1Table(tuple(c), spare, root, (1 / q)._mpc_, mp.log(q)._mpc_)


def _theta1_sum(w, q, k: int, prec: int, extra: int):
    """theta_1(w) = (-1)^k q^{-k^2} r^{-k} theta_1(w'), w' = w - 2k log q,
    r = e^{w'} (DLMF 20.2(ii)), as the pair (theta_1(w'), that factor), the
    sum at prec bits:

        theta_1(w') = -i q^{1/4} sum_{j >= 0} c_j (a r^j - a^{-1} r^{-j}),

    a = e^{w'/2}, the terms n = j and n = -1 - j of the bilateral series
    paired.  a comes from libmp's exp and cos_sin at prec + extra bits,
    1/a from one integer division, and the sum runs on integers at prec
    fractional bits (the c_j at prec + spare), rounded to prec once.  The
    factor takes r from the same a, at prec + extra bits; any branch of
    log q serves, since a shift by 2 pi i m moves w'/2 by 2 pi i k m."""
    tab = _theta1_table(q, prec)
    p = prec + extra
    re, im = _parts(w)
    if k:
        two_k = from_int(2 * k)
        re = mpf_sub(re, mpf_mul(tab.log_q[0], two_k), p, _RND)
        im = mpf_sub(im, mpf_mul(tab.log_q[1], two_k), p, _RND)
    ea = mpf_exp(mpf_shift(re, -1), p, _RND)
    cos, sin = mpf_cos_sin(mpf_shift(im, -1), p, _RND)
    a = mpf_mul(ea, cos, p, _RND), mpf_mul(ea, sin, p, _RND)
    ar, ai = to_fixed(a[0], prec), to_fixed(a[1], prec)
    m = (1 << 3 * prec) // (ar * ar + ai * ai)   # 1/|a|^2
    br, bi = (ar * m) >> prec, -((ai * m) >> prec)  # 1/a
    rr, ri = (ar * ar - ai * ai) >> prec, (ar * ai) >> (prec - 1)
    vr, vi = (br * br - bi * bi) >> prec, (br * bi) >> (prec - 1)
    pr, pi, nr, ni = ar, ai, br, bi               # a r^j and a^{-1} r^{-j}
    sr = si = 0
    for cr, ci in tab.c:
        dr, di = pr - nr, pi - ni
        sr += cr * dr - ci * di
        si += cr * di + ci * dr
        pr, pi = (pr * rr - pi * ri) >> prec, (pr * ri + pi * rr) >> prec
        nr, ni = (nr * vr - ni * vi) >> prec, (nr * vi + ni * vr) >> prec
    shift = -(2 * prec + tab.spare)
    s = mpc_mul(tab.root, (from_man_exp(sr, shift), from_man_exp(si, shift)),
                prec, _RND)
    if not k:
        return mp.make_mpc(s), 1
    factor = mpc_mul(mpc_pow_int(tab.inv_q, k * k, p, _RND),
                     mpc_pow_int(mpc_mul(a, a, p, _RND), -k, p, _RND), p, _RND)
    return mp.make_mpc(s), mp.make_mpc(mpc_neg(factor) if k % 2 else factor)


def theta1(x_log, q, ctx: PrecCtx):
    """theta_1(u, q) = (1/i) sum_{n in Z} (-1)^n q^{(n+1/2)^2} u^{n+1/2},
    u = e^{x_log}: the caller supplies the exponent, never u itself, which
    pins the half-integer powers to one branch.  It is mpmath's
    jtheta(1, -i x_log / 2, q), with the principal q^{1/4}: the argument is
    shifted into the strip (_strip), summed there in fixed point from a
    table cached per nome (_theta1_sum), and a cancelling sum is redone
    once (_resummed).  theta_1 at w = 0 is exactly 0."""
    with ctx.workprec():
        w, q, k, big, extra = _strip(1, x_log, q, ctx)
        if not w:
            return mp.zero
        return _resummed(1, lambda prec: _theta1_sum(w, q, k, prec, extra),
                         q, big, ctx)


def _theta1_d0(q, ctx: PrecCtx):
    """theta_1'(0) in the log coordinate, -i q^{1/4} sum_j (-1)^j (2j+1)
    q^{j(j+1)} (Jacobi: -i q^{1/4} (q^2; q^2)_inf^3, DLMF 20.4.6), from
    theta_1's table: the c_j's sum weighted by 2j + 1, on integers, with a
    cancelling sum redone once as theta1's is (its largest term is at most
    sqrt(2/L) e^{-1/2} with the root's |q|^{1/4}, L = -ln|q|)."""
    with ctx.workprec():
        q = mp.mpmathify(q)
        L = -_ln(abs(q))
        big = max(0, math.ceil((math.log(2 / L) - 1) / (2 * _LN2)))

        def summed(prec):
            tab = _theta1_table(q, prec)
            shift = -(prec + tab.spare)
            sr = si = 0
            for j, (cr, ci) in enumerate(tab.c):
                sr += (2 * j + 1) * cr
                si += (2 * j + 1) * ci
            return mp.make_mpc(mpc_mul(tab.root, (from_man_exp(sr, shift),
                                                  from_man_exp(si, shift)),
                                       prec, _RND)), 1
        return _resummed(1, summed, q, big, ctx)
