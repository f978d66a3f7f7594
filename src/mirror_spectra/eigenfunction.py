"""Closed-form eigenfunction evaluation.

For a quantized state (sigma, eps, xi) the wave function is

    psi(x) = b^-1 e^{pi i sigma^2 - xi pi i/4} e^{2 pi eta x + i pi x^2}
             (chk(u) barchi(ubar) + xi chi(u) barchk(ubar))
             / (theta1(s u, q) theta1(u/s, q)),

with u = e^{2 pi b x}, ubar = e^{2 pi x / b}, s = e^{2 pi b sigma}.  The
barred factors carry the dual data (conj eps, conj q); the chi series is
real-rational in q and eps, so barchi(ubar) = conj chi(v) at v = conj ubar
= e^{2 pi b conj x}, one nome serves all four factors, and v = u on the real
axis.  The decay rate eta = (b + 1/b)/2 = cos(theta) is the unique value
compatible with both asymptotic shift equations at once.

On the real axis the theta denominator vanishes at x in +-sigma + 2 sin(theta) Z;
at a quantized point the numerator cancels these zeros (that is the
quantization condition).  On such a zero, to working precision, psi is the
exact limit (pref N)'/D' (L'Hopital): N' from the chi series and their
u-derivatives, D' from theta1'(0) = -i q^{1/4} (q^2; q^2)_inf^3 in log
coordinates (DLMF 20.4.6), summed as Jacobi's series from theta1's own
table (precision._theta1_d0).  Near a zero, off the real axis, or where both
factors vanish together, evaluation goes through a symmetric stencil of
regular points sized by the context rather than 0/0.
"""

import math
from dataclasses import dataclass

from mpmath import mp

from .chi import _chi_series, chi_check_eval, chi_eval
from .precision import ModularParam, PoleSignal, PrecCtx, PrecisionExceeded, _theta1_d0, theta1
from .spectral import SpectralPoint, factorize


@dataclass(frozen=True)
class EigenfunctionParams:
    point: SpectralPoint
    eta: object            # (b + 1/b)/2, real on |b| = 1
    rho: object            # theta-factorization prefactor; None if unquantized
    mpar: ModularParam


@dataclass(frozen=True)
class PoleCancellationReport:
    max_normalized: object  # the largest of the three normalized numerators


def make_params(point: SpectralPoint, mpar: ModularParam, ctx: PrecCtx) -> EigenfunctionParams:
    """The parameters of psi at a point: eta = (b + 1/b)/2 and, for a
    quantized point (parity +-1), rho from factorize, which first checks
    that (sigma, eps) is a root of W.  No evaluation reads rho."""
    if point.parity not in (+1, -1, None):
        raise ValueError(f"parity must be +1, -1 or None, got {point.parity}")
    with ctx.workprec():
        eta = (mpar.b + 1 / mpar.b) / 2
        # rounding of b = e^{i theta} leaves Im eta ~ 2^-prec, far below
        # the context's rounding floor
        if abs(eta.imag) > ctx.finest_tol * max(abs(eta), 1):
            raise ValueError("eta = (b + 1/b)/2 must be real on |b| = 1")
        rho = None
        if point.parity in (+1, -1):
            rho = factorize(point.sigma, point.eps, mpar, ctx)
    return EigenfunctionParams(point=point, eta=eta, rho=rho, mpar=mpar)


def _nearest_zero(w, lq):
    """(d, k, m): the zero 2k log q + 2 pi i m of theta1 nearest to w among
    the four corners of the lattice cell around it, and d = |w - zero| at
    the working precision.  The corners are ranked in floats: two of them
    tie only about half a lattice spacing from either, far outside
    psi_eval's band, so a float rounding never changes a band decision."""
    wr, wi, lr, li = float(w.real), float(w.imag), float(lq.real), float(lq.imag)
    a = wr / (2 * lr)
    best = None
    for k in {math.floor(a), math.ceil(a)}:
        c = (wi - 2 * k * li) / (2 * math.pi)
        for m in {math.floor(c), math.ceil(c)}:
            dist = math.hypot(wr - 2 * k * lr, wi - 2 * k * li - 2 * math.pi * m)
            if best is None or dist < best[0]:
                best = dist, k, m
    _, k, m = best
    return abs(w - 2 * k * lq - 2j * mp.pi * m), k, m


def _xi(p: EigenfunctionParams):
    """The parity weight xi: the point's parity, or 1 where it has none."""
    return p.point.parity if p.point.parity in (+1, -1) else 1


def _numerator_terms(x, p: EigenfunctionParams, ctx: PrecCtx):
    """(chk(u) conj chi(v), xi chi(u) conj chk(v)) at u = e^{2 pi b x} and
    v = conj ubar = e^{2 pi b conj x}, the two weighted products of the
    ansatz numerator; on the real axis v = u and one pair of series serves.
    Every series here is at the one eps, so all of them read the state's
    cached chi_n recursion table and only the per-argument sums are new."""
    eps, mpar = p.point.eps, p.mpar

    def pair(z):
        w = mp.exp(2 * mp.pi * mpar.b * z)
        return chi_check_eval(w, eps, mpar, ctx), chi_eval(w, eps, mpar, ctx)
    chk_u, chi_u = pair(x)
    chk_v, chi_v = pair(mp.conj(x)) if mp.im(x) else (chk_u, chi_u)
    return chk_u * mp.conj(chi_v), _xi(p) * chi_u * mp.conj(chk_v)


def _prefactor(x, p: EigenfunctionParams):
    """b^-1 e^{pi i (sigma^2 - xi/4 + x^2) + 2 pi eta x}."""
    sigma = mp.mpmathify(p.point.sigma)
    return mp.exp(mp.pi * 1j * (sigma ** 2 - _xi(p) / 4 + x * x)
                  + 2 * mp.pi * p.eta * x) / p.mpar.b


def _psi_raw(x, p: EigenfunctionParams, ctx: PrecCtx):
    """The ansatz at a point where the denominator is comfortably nonzero."""
    mpar = p.mpar
    b = mpar.b
    sigma = mp.mpmathify(p.point.sigma)
    t1, t2 = _numerator_terms(x, p, ctx)
    den = theta1(2 * mp.pi * b * (x + sigma), mpar.q, ctx) * theta1(
        2 * mp.pi * b * (x - sigma), mpar.q, ctx
    )
    return _prefactor(x, p) * (t1 + t2) / den


def _psi_limit(x, w_other, k: int, m: int, p: EigenfunctionParams, ctx: PrecCtx):
    """psi at a real x where one theta1 factor vanishes, at its zero
    2k log q + 2 pi i m, and the other factor, theta1(w_other), does not:
    the limit (pref N)'/D' of the ansatz pref N / D.

    With v = u on the real axis and A(w) = w chi'(w) (the u-slope that
    _chi_series sums with slopes), u chk'(u) = -(A(1/u) + chi(1/u))/u, and
    the barred factors differentiate as d/dx conj f(v) = conj(2 pi b v
    f'(v)).  By the quasi-periodicity theta1(w) = (-1)^k e^{-k^2 log q -
    k w'} theta1(w'), w' = w - 2k log q, and theta1(w' + 2 pi i) =
    -theta1(w'), so
    D' = 2 pi b theta1(w_other) (-1)^{k+m} e^{-k^2 log q} theta1'(0).
    """
    mpar = p.mpar
    pt = p.point
    xi = pt.parity
    q = mpar.q
    tpb = 2 * mp.pi * mpar.b
    u = mp.exp(tpb * x)
    chi_u, _, a_u = _chi_series(u, pt.eps, mpar, ctx, slopes=True)
    chi_i, _, a_i = _chi_series(1 / u, pt.eps, mpar, ctx, slopes=True)
    chk = chi_i / u
    d_chk = -(a_i + chi_i) / u                      # u chk'(u)
    c_chi, c_chk = mp.conj(chi_u), mp.conj(chk)
    num = chk * c_chi + xi * chi_u * c_chk
    d_num = (tpb * (d_chk * c_chi + xi * a_u * c_chk)
             + mp.conj(tpb) * (chk * mp.conj(a_u) + xi * chi_u * mp.conj(d_chk)))
    d_log_pref = 2 * mp.pi * (p.eta + 1j * x)
    d_den = (tpb * theta1(w_other, q, ctx) * (-1) ** (k + m)
             * mp.exp(-k * k * mpar.log_q) * _theta1_d0(q, ctx))
    return _prefactor(x, p) * (d_log_pref * num + d_num) / d_den


def psi_eval(x, p: EigenfunctionParams, ctx: PrecCtx):
    """psi(x); the exact limit, or a symmetric stencil, at removable
    denominator zeros.

    On a zero of one theta factor to working precision (distance at most
    ctx.finest_tol in log-u units) at real x, with the other factor outside
    the band below, psi is the limit (pref N)'/D' (_psi_limit).  Elsewhere
    within step/2 (step = 2^(-bits/5)) of the theta lattice,
    psi(x) = [4 (psi(x+r) + psi(x-r)) - (psi(x+2r) + psi(x-2r))] / 6 with
    r = step / (2 pi), all four points outside that window: the symmetric
    pairs cancel the odd terms (the 1/h pole a tol-accurate eps leaves
    included), leaving O(r^4) and a rounding loss of about 2^-bits / r.

    Unquantized parameter sets (parity None) have genuine poles there and
    raise PoleSignal instead; a non-finite x raises ValueError, and an x
    past the double range PrecisionExceeded.
    """
    with ctx.workprec():
        x = mp.mpmathify(x)
        if not mp.isfinite(x):
            raise ValueError(f"psi_eval needs a finite x, got x = {x}")
        b = p.mpar.b
        sigma = mp.mpmathify(p.point.sigma)
        lq = p.mpar.log_q
        ws = (2 * mp.pi * b * (x + sigma), 2 * mp.pi * b * (x - sigma))
        if not all(math.isfinite(float(abs(w / lq.real))) for w in ws):  # _nearest_zero's floats
            raise PrecisionExceeded(f"psi_eval at x = {mp.nstr(x, 8)}: past the float range")
        zeros = [_nearest_zero(w, lq) for w in ws]
        i = 0 if zeros[0][0] <= zeros[1][0] else 1
        d, k, m = zeros[i]
        d_other = zeros[1 - i][0]
        step = mp.mpf(2) ** (-ctx.precision_bits / 5)
        if 2 * d >= step:
            return _psi_raw(x, p, ctx)
        if p.point.parity not in (+1, -1):
            raise PoleSignal(
                f"theta denominator zero near x = {mp.nstr(x, 8)} and the "
                "point is not quantized"
            )
        if d <= ctx.finest_tol and 2 * d_other >= step and not mp.im(x):
            return _psi_limit(x, ws[1 - i], k, m, p, ctx)
        r = step / (2 * mp.pi)
        near, far = (_psi_raw(x + r, p, ctx) + _psi_raw(x - r, p, ctx),
                     _psi_raw(x + 2 * r, p, ctx) + _psi_raw(x - 2 * r, p, ctx))
        return (4 * near - far) / 6


def psi_residual(x, p: EigenfunctionParams, ctx: PrecCtx):
    """(r1, r2): relative residuals of the pair of difference equations

        psi(x + i b)   + psi(x - i b)   = (eps      - 2 cosh(2 pi b x)) psi(x)
        psi(x + i/b)   + psi(x - i/b)   = (conj eps - 2 cosh(2 pi x/b)) psi(x)
    """
    with ctx.workprec():
        x = mp.mpmathify(x)
        b = p.mpar.b
        eps = p.point.eps
        v = psi_eval(x, p, ctx)
        out = []
        for shift, coeff in (
            (1j * b, eps - 2 * mp.cosh(2 * mp.pi * b * x)),
            (1j / b, mp.conj(eps) - 2 * mp.cosh(2 * mp.pi * x / b)),
        ):
            up = psi_eval(x + shift, p, ctx)
            dn = psi_eval(x - shift, p, ctx)
            rhs = coeff * v
            scale = max(abs(up), abs(dn), abs(rhs), mp.mpf(1))
            out.append(abs(up + dn - rhs) / scale)
        return out[0], out[1]


def pole_cancellation_check(p: EigenfunctionParams, ctx: PrecCtx) -> PoleCancellationReport:
    """The largest normalized numerator of the ansatz at the would-be poles
    u = s, q^2 s, 1/s, read off as x = sigma, sigma + i b, -sigma
    (q^2 = e^{2 pi i b^2}; with |b| = 1 the shift leaves v = e^{2 pi b conj x}
    where it was).

    At a quantized point all three vanish (the spectral condition at u = s,
    propagated along the lattice by the G-periodicity); each numerator is
    taken relative to the size of its two products, and the report carries
    the largest of the three.
    """
    with ctx.workprec():
        sigma = mp.mpmathify(p.point.sigma)
        vals = []
        for x in (sigma, sigma + 1j * p.mpar.b, -sigma):
            t1, t2 = _numerator_terms(x, p, ctx)
            vals.append(abs(t1 + t2) / max(abs(t1), abs(t2), mp.mpf(1)))
        return PoleCancellationReport(max_normalized=max(vals))
