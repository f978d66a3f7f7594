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
quantization condition), and evaluation there goes through a symmetric
stencil of regular points sized by the context rather than 0/0.
"""

from dataclasses import dataclass

from mpmath import mp

from .chi import chi_check_eval, chi_eval
from .precision import ModularParam, PoleSignal, PrecCtx, theta1
from .spectral import SpectralPoint, factorize


@dataclass(frozen=True)
class EigenfunctionParams:
    point: SpectralPoint
    eta: object            # (b + 1/b)/2, real on |b| = 1
    rho: object            # theta-factorization prefactor; None if unquantized
    mpar: ModularParam


@dataclass(frozen=True)
class PoleCancellationReport:
    at_s: object
    at_q2s: object
    at_inv_s: object
    max_normalized: object


def make_params(point: SpectralPoint, mpar: ModularParam, ctx: PrecCtx) -> EigenfunctionParams:
    """The parameters of psi at a point: eta = (b + 1/b)/2 and, for a
    quantized point (parity +-1), rho from factorize, which first checks
    that (sigma, eps) is a root of W.  No evaluation reads rho."""
    if point.parity not in (+1, -1, None):
        raise ValueError(f"parity must be +1, -1 or None, got {point.parity}")
    with ctx.workprec():
        eta = (mpar.b + 1 / mpar.b) / 2
        # rounding of b = e^{i theta} leaves Im eta ~ 2^-prec; the guard
        # keeps 12 bits of headroom over that
        slack = mp.mpf(2) ** (12 - ctx.precision_bits)
        if abs(eta.imag) > slack * max(abs(eta), 1):
            raise ValueError("eta = (b + 1/b)/2 must be real on |b| = 1")
        rho = None
        if point.parity in (+1, -1):
            rho = factorize(point.sigma, point.eps, mpar, ctx)
    return EigenfunctionParams(point=point, eta=eta, rho=rho, mpar=mpar)


def _lattice_distance(w, lq):
    """Distance from w to the theta1 zero lattice {2k log q + 2 pi i m}."""
    a = w.real / (2 * lq.real)
    best = None
    for k in (mp.floor(a), mp.ceil(a)):
        c = (w.imag - 2 * k * lq.imag) / (2 * mp.pi)
        for m in (mp.floor(c), mp.ceil(c)):
            d = abs(w - 2 * k * lq - 2j * mp.pi * m)
            if best is None or d < best:
                best = d
    return best


def _numerator_terms(u, v, eps, p: EigenfunctionParams, ctx: PrecCtx):
    """(chk(u) conj chi(v), chi(u) conj chk(v)) with v = conj ubar, the two
    products of the ansatz numerator; when v == u one pair of series serves.
    Every series here is at the one eps, so all of them read the state's
    cached chi_n recursion table and only the per-argument sums are new."""
    def pair(w):
        return chi_check_eval(w, eps, p.mpar, ctx), chi_eval(w, eps, p.mpar, ctx)[0]
    chk_u, chi_u = pair(u)
    chk_v, chi_v = (chk_u, chi_u) if v == u else pair(v)
    return chk_u * mp.conj(chi_v), chi_u * mp.conj(chk_v)


def _psi_raw(x, p: EigenfunctionParams, ctx: PrecCtx):
    """The ansatz at a point where the denominator is comfortably nonzero."""
    mpar = p.mpar
    pt = p.point
    xi = pt.parity if pt.parity in (+1, -1) else 1
    b = mpar.b
    sigma = mp.mpmathify(pt.sigma)
    u = mp.exp(2 * mp.pi * b * x)
    v = mp.exp(2 * mp.pi * b * mp.conj(x))
    t1, t2 = _numerator_terms(u, v, pt.eps, p, ctx)
    num = t1 + xi * t2
    den = theta1(2 * mp.pi * b * (x + sigma), mpar.q, ctx) * theta1(
        2 * mp.pi * b * (x - sigma), mpar.q, ctx
    )
    pref = (
        (1 / b)
        * mp.exp(mp.pi * 1j * sigma ** 2 - xi * mp.pi * 1j / 4)
        * mp.exp(2 * mp.pi * p.eta * x + 1j * mp.pi * x * x)
    )
    return pref * num / den


def psi_eval(x, p: EigenfunctionParams, ctx: PrecCtx):
    """psi(x); a symmetric stencil across removable denominator zeros.

    Within step/2 (log-u units, step = 2^(-bits/5)) of the theta lattice,
    psi(x) = [4 (psi(x+r) + psi(x-r)) - (psi(x+2r) + psi(x-2r))] / 6 with
    r = step / (2 pi), all four points outside that window: the symmetric
    pairs cancel the odd terms (the 1/h pole a tol-accurate eps leaves
    included), leaving O(r^4) and a rounding loss of about 2^-bits / r.

    Unquantized parameter sets (parity None) have genuine poles there and
    raise PoleSignal instead.
    """
    with ctx.workprec():
        x = mp.mpmathify(x)
        b = p.mpar.b
        sigma = mp.mpmathify(p.point.sigma)
        lq = p.mpar.log_q
        d = min(
            _lattice_distance(2 * mp.pi * b * (x + sigma), lq),
            _lattice_distance(2 * mp.pi * b * (x - sigma), lq),
        )
        step = mp.mpf(2) ** (-ctx.precision_bits / 5)
        if 2 * d >= step:
            return _psi_raw(x, p, ctx)
        if p.point.parity not in (+1, -1):
            raise PoleSignal(
                f"theta denominator zero near x = {mp.nstr(x, 8)} and the "
                "point is not quantized"
            )
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
    """Normalized numerator of the ansatz at the would-be poles u = s, q^2 s, 1/s.

    At a quantized point all three vanish (the spectral condition at u = s,
    propagated along the lattice by the G-periodicity); the report carries
    the numerator magnitudes relative to the size of its two products.
    """
    with ctx.workprec():
        pt = p.point
        xi = pt.parity if pt.parity in (+1, -1) else 1
        mpar = p.mpar
        b = mpar.b
        sigma = mp.mpmathify(pt.sigma)
        q2 = mpar.q * mpar.q
        s = mp.exp(2 * mp.pi * b * sigma)
        sv = mp.exp(2 * mp.pi * b * mp.conj(sigma))     # conj sbar; s for real sigma
        vals = []
        for u, v in ((s, sv), (q2 * s, sv), (1 / s, 1 / sv)):
            t1, t2 = _numerator_terms(u, v, pt.eps, p, ctx)
            vals.append(abs(t1 + xi * t2) / max(abs(t1), abs(t2), mp.mpf(1)))
        return PoleCancellationReport(
            at_s=vals[0],
            at_q2s=vals[1],
            at_inv_s=vals[2],
            max_normalized=max(vals),
        )
