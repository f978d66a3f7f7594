"""Transfer-matrix oracle for chi_q, plus the R-iteration dynamics.

The functional equation rewrites as a 2x2 linear cocycle with

    L(u) = ( 1 - eps u + u^2   -q^2 u^2 )
           ( 1                  0       )

and M_n(u) = L(u) L(q^2 u) ... L(q^{2(n-1)} u).  As n grows the second
column dies off like q^{4n} and

    M_inf(u) = ( chi(u/q^2)  0 )
               ( chi(u)      0 ),

which gives a computation of chi that shares no code with the series in
chi.py -- that is the point: the two routes cross-check each other.

The scalar Riccati form R(q^2 u) = q^2 u^2 / ((1 - eps u + u^2) - R(u))
separates the regular solution from all others: iterating from z towards 0,
R(q^{2n} z) -> 1 exactly on the trajectory R(z) = chi(q^{-2} z)/chi(z) and
-> 0 everywhere else.  R_orbit iterates from a seed its caller forms.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from mpmath import mp

from .precision import (
    _MAX_TERMS,
    ModularParam,
    PoleSignal,
    PrecCtx,
    PrecisionExceeded,
    _check_nome_precision,
)


@dataclass(frozen=True)
class TransferMatrix:
    a: object  # (1,1)
    b: object  # (1,2)
    c: object  # (2,1)
    d: object  # (2,2)

    def mul(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c


def _require_finite(**args):
    """ValueError naming the first argument that is not a finite number."""
    for name, value in args.items():
        if not mp.isfinite(mp.mpmathify(value)):
            raise ValueError(f"{name} must be finite, got {name} = {value}")


def L_eval(u, eps, mpar: ModularParam) -> TransferMatrix:
    """The one-step transfer matrix; L(0) is the projection ((1,0),(1,0))."""
    with mp.workprec(mpar.precision_bits):
        u = mp.mpmathify(u)
        eps = mp.mpmathify(eps)
        q2 = mpar.q * mpar.q
        return TransferMatrix(
            a=1 - eps * u + u * u,
            b=-q2 * u * u,
            c=mp.mpf(1),
            d=mp.mpf(0),
        )


def M_n_eval(u, n: int, eps, mpar: ModularParam, ctx: PrecCtx) -> TransferMatrix:
    """M_n(u) = L(u) L(q^2 u) ... L(q^{2(n-1)} u) (ordered product); a
    non-finite u or eps raises ValueError."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    _require_finite(u=u, eps=eps)
    _check_nome_precision(mpar, ctx)
    with ctx.workprec():
        u = mp.mpmathify(u)
        q2 = mpar.q * mpar.q
        m = L_eval(u, eps, mpar)
        uk = u
        for _ in range(n - 1):
            uk = uk * q2
            m = m.mul(L_eval(uk, eps, mpar))
        return m


def chi_via_Minf(u, eps, mpar: ModularParam, ctx: PrecCtx):
    """(chi(u), chi(u/q^2)) from the infinite matrix product.

    Stops once the a-priori q^{4n} decay of the discarded column is below
    tol relative to the first column, and the first column has stabilised.
    A nome built at fewer bits than ctx is refused, as by the chi series:
    L_eval works at the nome's precision, and a non-finite u or eps raises
    ValueError.
    """
    _require_finite(u=u, eps=eps)
    _check_nome_precision(mpar, ctx)
    with ctx.workprec():
        u = mp.mpmathify(u)
        if u == 0:
            return mp.mpf(1), mp.mpf(1)
        q2 = mpar.q * mpar.q
        aq = abs(mpar.q)
        tol = ctx.tol
        m = L_eval(u, eps, mpar)
        uk = u
        rate = mp.mpf(1)
        prev = None
        for n in range(1, _MAX_TERMS):
            uk = uk * q2
            m = m.mul(L_eval(uk, eps, mpar))
            rate *= aq ** 4
            scale = max(abs(m.a), abs(m.c), mp.mpf(1))
            settled = (
                prev is not None
                and abs(m.a - prev.a) <= tol * scale
                and abs(m.c - prev.c) <= tol * scale
            )
            if settled and rate * max(abs(u) ** 2, mp.mpf(1)) < tol:
                return m.c, m.a
            prev = m
        raise PrecisionExceeded(
            f"matrix product did not settle within {_MAX_TERMS} factors"
        )


def R_orbit(z, R0, steps: int, eps, mpar: ModularParam, ctx: PrecCtx):
    """The forward R-iteration [R(z), R(q^2 z), ..., R(q^{2*steps} z)] from
    the caller's seed R0 (on the reference trajectory, chi(z/q^2)/chi(z));
    it sums no chi.  A blow-up of the iteration (a denominator below tol of
    its scale) raises PoleSignal rather than silently returning huge
    numbers; a nome coarser than ctx, or a non-finite z, R0 or eps, raises
    ValueError.
    """
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    _require_finite(z=z, R0=R0, eps=eps)
    _check_nome_precision(mpar, ctx)
    with ctx.workprec():
        z = mp.mpmathify(z)
        r = mp.mpmathify(R0)
        q2 = mpar.q * mpar.q
        out = [r]
        uk = z
        for k in range(steps):
            den = (1 - eps * uk + uk * uk) - r
            scale = max(abs(1 - eps * uk + uk * uk), abs(r), mp.mpf(1))
            if abs(den) < ctx.tol * scale:
                raise PoleSignal(
                    f"R iteration hit a pole at step {k + 1} (u = {mp.nstr(uk, 8)})"
                )
            r = q2 * uk * uk / den
            out.append(r)
            uk = uk * q2
        return out


def classify_r_orbit(seq, ctx: PrecCtx) -> str:
    """'one' / 'zero' / 'critical' for a finished R-orbit.

    The exceptional trajectory is repelling, and the repulsion accelerates
    (the step-k amplification is ~ |q|^{-2(2k+1)}), so finite-precision
    seeds only track it for a handful of steps; classification reads the
    last element against a coarse margin and anything in between is
    'critical' -- undecided, not an error.  An empty orbit, or one that
    ends on a non-finite value, raises ValueError.
    """
    if not len(seq):
        raise ValueError("classify_r_orbit needs a non-empty orbit")
    _require_finite(last=seq[-1])
    last = abs(mp.mpmathify(seq[-1]))
    margin = 1e-6
    if abs(last - 1) < margin:
        return "one"
    if last < margin:
        return "zero"
    return "critical"
