"""Self-dual Harper problem (b = 1): curve geometry, period integrals,
quantization, and Bloch-path eigenfunction evaluation.

The spectral curve cos(2 pi y) = eps/2 - cos(2 pi x) carries the deformed
potential theta_lambda = (x + lambda/sin(2 pi x)) dy.  For eps > 4 write
eps = 4 cosh^2(pi alpha); the imaginary-axis turning points are i alpha and
i beta with sinh(pi beta) = cosh(pi alpha).  Two independent cycles give the
period integrals

    A  = 4 I[0,1/2] s'(t)/sinh(2 pi s(t+1/2)) dt
    At = 4 I[0,1/2] s(t+1/2) s'(t) dt
    B  = I[0,1]   dt/sinh(2 pi r(t))
    Bt = I[0,1]   r(t) dt

over the path functions cosh(2 pi r(t)) = 1 - cos(pi t) + cosh(2 pi alpha)
and sinh(pi s(t)) = sinh(pi alpha) sin(pi t).  These relations make s' and
the integrands of A and B square roots in cos(pi t) and sin(pi t), and Bt's
r a logarithm of the same square root; asinh remains in At's s(t+1/2)
(``_Curve``).  Single-valuedness of the Bloch function
e^{2 pi i I theta_lambda} forces lambda = Bt/B and quantizes
A lambda - At = n + 1.  For eps >= 8 the four periods are also
hypergeometric series in 1/eps^2 (``period_series``), summed on integers.
Newton on the level function runs on those, needing no bracket, up a
precision ladder from 64 bits, and the quadrature (``period_integrals``)
checks the root it finds and so bounds the levels: A and At by one
trapezoid pass over a stretched period, whose nodes u and 1/2 - u are
evaluated as one pair, B and Bt by one adaptive Gauss-Legendre pass
(``composite_gl``) on b + i bt, its roots seeded in doubles and refined on
integers.
The eigenfunction is phi(x) = sin(2 pi I)/sin(2 pi y) accumulated along
canonical paths from the base point P0 = (i alpha, 0): both coordinates
imaginary up to i alpha (xi-type), y real in [0, 1/2] up to i beta
(zeta-type), then y = 1/2 + i c beyond; off-axis arguments are reached by a
horizontal leg with y continued branch-by-branch.  The zeta cycle, Bt -
lambda B = 0, is never integrated; at the turning points phi is its limit.
"""

import math
import numbers
from dataclasses import dataclass

from mpmath import mp

from .precision import (
    _MIN_BITS,
    PrecCtx,
    PrecisionExceeded,
    SolverError,
    _predicted_stop,
    make_context,
)

_GL_ORDER = 32
_GL_CACHE = {}
_GL_MAX_DEPTH = 28
_TRAP_START = 16           # first panel count of the A, Atilde trapezoid pass
_TRAP_MAX = 2 ** 16        # its panel cap
_LEG_STEPS = 192           # y-continuation march resolution per unit length
_SERIES_MIN_EPS = 8        # period_series' term ratio 16/eps^2 is at most 1/4
_NEWTON_STEPS = 64


@dataclass(frozen=True)
class SelfDualSpectrum:
    n: int                 # level
    eps: object            # real > 4
    alpha: object
    beta: object
    lam: object            # lambda = Btilde/B
    A: object
    Atilde: object
    B: object
    Btilde: object


# ── quadrature ────────────────────────────────────────────────────────────


def _fixed_legendre_root(x, frac, floor):
    """(root, P_n' there) as integers at frac fractional bits, n =
    _GL_ORDER: Newton by the three-term recurrence on a fixed-point x, with
    the step and the stop on integers (as precision._theta1_sum sums) and
    floor in the same units, until the predicted error of a step
    (precision._predicted_stop) is within floor, or else the step is below
    it.  The root is the last iterate plus its step, with P' carried there
    by P'' from Legendre's equation, (1 - x^2) P'' = 2 x P' - n (n + 1) P,
    so that the point the stop accepts is never evaluated."""
    one, prev = 1 << frac, None
    for _ in range(64):
        p0, p1 = one, x
        for k in range(2, _GL_ORDER + 1):
            p0, p1 = p1, ((2 * k - 1) * (x * p1 >> frac) - (k - 1) * p0) // k
        one_x2 = one - (x * x >> frac)
        dp = (_GL_ORDER * (p0 - (x * p1 >> frac)) << frac) // one_x2
        step = (p1 << frac) // dp
        size = mp.mpf(abs(step))   # an mpf: past 2^1024 a float overflows
        if _predicted_stop(size, prev, floor) or size < floor:
            ddp = (((2 * x * dp) >> frac) - _GL_ORDER * (_GL_ORDER + 1) * p1
                   << frac) // one_x2
            return x - step, dp - (step * ddp >> frac)
        x -= step
        prev = size
    raise SolverError(f"Legendre root near {x / one:.6f} of {_GL_ORDER} stalled")


def gauss_legendre_nodes(ctx: PrecCtx):
    """(node, weight) pairs of the _GL_ORDER-point Gauss-Legendre rule on
    [-1, 1], the one order every quadrature here uses.

    Each Legendre root is seeded by four double-precision Newton steps from
    its Chebyshev guess, then refined on integers at the context's
    precision plus 20 fractional bits until the predicted error of a step
    is below 2^(8 - bits) (_fixed_legendre_root, the one loop with a stop);
    the seed leaves 2 evaluations per root at 128 bits, 3 at 256, 4 at 512
    and 5 at 1,024.  The weight 2/((1 - x^2) P'(x)^2) is formed at the same
    fixed point, and node and weight are each rounded to the context once.
    Cached per precision.
    """
    got = _GL_CACHE.get(ctx.precision_bits)
    if got is not None:
        return got
    with ctx.workprec():
        frac = mp.prec + 20
        half = []
        for i in range(_GL_ORDER // 2):
            x = math.cos(math.pi * (i + 0.75) / (_GL_ORDER + 0.5))
            # a fixed count of steps, with no stop: the seed only decides
            # how many integer steps follow
            for _ in range(4):
                p0, p1 = 1.0, x
                for k in range(2, _GL_ORDER + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                x -= p1 * (x * x - 1) / (_GL_ORDER * (x * p1 - p0))
            # the floor is 2^(8 - bits) in units of 2^-frac
            x, dp = _fixed_legendre_root(int(mp.ldexp(x, frac)), frac,
                                         1 << (frac + 8 - mp.prec))
            one_x2 = (1 << frac) - (x * x >> frac)
            w = (1 << 4 * frac + 1) // (one_x2 * dp * dp)
            # mp.mpf rounds to the context; mp.ldexp alone keeps every bit
            half.append((mp.ldexp(mp.mpf(x), -frac), mp.ldexp(mp.mpf(w), -frac)))
        nodes = tuple((-x, w) for x, w in half) + tuple(reversed(half))
    _GL_CACHE[ctx.precision_bits] = nodes
    return nodes


def composite_gl(f, a, b, ctx: PrecCtx):
    """Adaptive composite Gauss-Legendre quadrature of f over [a, b].

    Panels are bisected until refining moves a panel by less than its share
    of the absolute budget ctx.tol; a panel still moving at _GL_MAX_DEPTH raises
    SolverError naming the subinterval.  The rule is open: f is never
    evaluated at panel endpoints.
    """
    with ctx.workprec():
        a, b = mp.mpmathify(a), mp.mpmathify(b)
        if a == b:
            return mp.mpf(0)
        budget = ctx.tol
        nodes = gauss_legendre_nodes(ctx)

        def panel(x0, x1):
            h = (x1 - x0) / 2
            c = (x0 + x1) / 2
            return h * mp.fsum(w * f(c + h * x) for x, w in nodes)

        total = mp.mpf(0)
        stack = [(a, b, panel(a, b), 0)]
        while stack:
            x0, x1, coarse, depth = stack.pop()
            m = (x0 + x1) / 2
            left, right = panel(x0, m), panel(m, x1)
            fine = left + right
            if abs(fine - coarse) <= budget * abs((x1 - x0) / (b - a)) / 2:
                total += fine
            elif depth >= _GL_MAX_DEPTH:
                raise SolverError(
                    "quadrature did not converge on subinterval "
                    f"[{mp.nstr(x0, 10)}, {mp.nstr(x1, 10)}]"
                )
            else:
                stack.append((x0, m, left, depth + 1))
                stack.append((m, x1, right, depth + 1))
        return total


# ── curve geometry ────────────────────────────────────────────────────────


def _real_eps(eps):
    """eps as a real number: a complex eps with a zero imaginary part counts
    as its real part, and any other raises ValueError."""
    eps = mp.mpmathify(eps)
    if mp.im(eps) != 0:
        raise ValueError("eps must be real")
    return mp.re(eps)


def alpha_beta(eps, ctx: PrecCtx):
    """Turning-point parameters: eps = 4 cosh^2(pi alpha), sinh(pi beta) =
    cosh(pi alpha), both positive roots."""
    with ctx.workprec():
        e = _real_eps(eps)
        if not 4 < e < mp.inf:   # NaN fails it too
            raise ValueError(f"eps must exceed 4 and be finite, got {mp.nstr(e, 12)}")
        ch = mp.sqrt(e) / 2   # cosh(pi alpha)
        return mp.acosh(ch) / mp.pi, mp.asinh(ch) / mp.pi


class _Curve:
    """The real curve at one eps, given its turning point i alpha: the path
    functions sinh(pi s(t)) = sinh(pi alpha) sin(pi t) and
    cosh(2 pi r(t)) = C = 1 - cos(pi t) + cosh(2 pi alpha), and the four period
    integrands A = I[0,1/2] a, At = I[0,1/2] at, B = I[0,1] b, Bt = I[0,1] bt.

    With c, s = cos(pi t), sin(pi t) once per call, cosh(pi s(t)) =
    sqrt(1 + sinh^2(pi alpha) s^2), sinh(pi s(t+1/2)) = sinh(pi alpha) c and
    S = sinh(2 pi r) = sqrt((C - 1)(C + 1)); C - 1 = cosh(2 pi alpha) - c
    stays exact where C^2 - 1 cancels and acosh(C) would round C (eps near 4,
    t near 0), and r = log(C + S)/(2 pi) adds the 1 of C = (C - 1) + 1
    exactly.  ``a_at`` gives A's pair as ``b_bt`` gives B's: a =
    2/(cosh(pi s(t)) cosh(pi s(t+1/2))), 4 s'/sinh(2 pi s(t+1/2)) with its
    0/0 at t = 1/2 removed, and at, which shares cosh(pi s(t)) with it.
    asinh remains in s and at.  The A, Atilde trapezoid pair
    (``_mirror_pairs``) keeps its own a and at, with asinh as the log of
    its square root: that meets tol absolutely, but cancels where at is
    small near t = 1/2, and asinh keeps at accurate relative to its size
    there.  Build and evaluate inside ctx.workprec().
    """

    def __init__(self, alpha):
        self.sa = mp.sinh(mp.pi * alpha)
        self.sa2 = self.sa * self.sa
        self.ca2 = mp.cosh(2 * mp.pi * alpha)

    def s(self, t):
        return mp.asinh(self.sa * mp.sin(mp.pi * t)) / mp.pi

    def sprime(self, t):
        c, s = mp.cos_sin(mp.pi * t)
        return self.sa * c / mp.sqrt(1 + self.sa2 * s * s)

    def a_at(self, t):
        """(a, at) from one cos(pi t), sin(pi t) pair and one cosh^2(pi s(t))."""
        c, s = mp.cos_sin(mp.pi * t)
        cosh2_s = 1 + self.sa2 * s * s
        sc = self.sa * c
        return (2 / mp.sqrt(cosh2_s * (1 + self.sa2 * c * c)),
                4 * (mp.asinh(sc) / mp.pi) * sc / mp.sqrt(cosh2_s))

    def b_bt(self, t):
        """(b, bt) = (1/S, r) from one cos(pi t) and one square root."""
        cm1 = self.ca2 - mp.cos(mp.pi * t)
        S = mp.sqrt(cm1 * (cm1 + 2))
        return 1 / S, mp.log(mp.fadd(cm1 + S, 1, exact=True)) / (2 * mp.pi)


def path_funcs(eps, t, ctx: PrecCtx):
    """(r, s, s', r') at parameter t, by analytic differentiation of
    cosh(2 pi r) = 1 - cos(pi t) + cosh(2 pi alpha) and
    sinh(pi s) = sinh(pi alpha) sin(pi t)."""
    with ctx.workprec():
        t = mp.mpmathify(t)
        curve = _Curve(alpha_beta(eps, ctx)[0])
        b, r = curve.b_bt(t)
        return r, curve.s(t), curve.sprime(t), mp.sin(mp.pi * t) * b / 2


def _mirror_pairs(curve, ctx):
    """(betas, pair): the stretch stages' beta, innermost first (see
    ``period_integrals``), and pair(u) = (a, at, at~), A's two integrands
    at t(u) and Atilde's at t(1/2 - u) = 1/2 - t(u), each times
    t'(u) = t'(1/2 - u).  As every stage maps u -> 1/2 - u to t ->
    1/2 - t, one pass through the stages, one cos(pi t), sin(pi t) and two
    square roots serve both nodes: c and s swap, and so do cosh(pi s(t))
    and cosh(pi s(t + 1/2)), so a is equal at both and only at~ takes a log
    of its own.  Call inside ctx.workprec()."""
    sa, sa2 = curve.sa, curve.sa2
    # alpha rounds to 0 at the eps just above 4: no layer to stretch
    betas, width = [], 1 / (mp.pi * sa) if sa else mp.inf
    while True:   # beta of each stage, innermost first
        beta = 1 - 2 * mp.cbrt(mp.pi * width) ** 2
        if beta <= (mp.mpf(1) / 2 if betas else 0):
            break
        if 1 - beta <= ctx.finest_tol:   # t' near u = 0 is lost to rounding
            raise PrecisionExceeded(
                f"period A at eps = {mp.nstr(4 * (1 + sa2), 5)}: its boundary "
                f"layer is too thin to stretch at {ctx.precision_bits} bits")
        betas.insert(0, beta)
        width = mp.cbrt(width / 64)
    # near t = 0 each stage's t and t' cancel about log2(1/(1 - beta)) bits
    stage_prec = mp.prec - sum(mp.mag(1 - beta) for beta in betas)
    with mp.workprec(stage_prec):
        pi4 = 4 * mp.pi
    four_pi = 4 / mp.pi

    def pair(u):
        w = 1
        with mp.workprec(stage_prec):
            for beta in betas:
                c4, s4 = mp.cos_sin(pi4 * u)
                u, w = u - beta * s4 / pi4, w * (1 - beta * c4)
            # sin(pi t) near t = 0, the mirror's cos(pi t), is as small as
            # the layer: pi t keeps the guard bits too
            c, s = mp.cos_sin(mp.pi * u)
        sc, ss = sa * c, sa * s
        cosh_s = mp.sqrt(1 + ss * ss)      # cosh(pi s(t))
        cosh_sh = mp.sqrt(1 + sc * sc)     # cosh(pi s(t+1/2))
        w4 = four_pi * w
        # asinh(x) = log(x + sqrt(1 + x^2)), as c, s >= 0 for t in [0, 1/2]
        return (2 * w / (cosh_s * cosh_sh),
                w4 * sc * mp.log(sc + cosh_sh) / cosh_s,
                w4 * ss * mp.log(ss + cosh_s) / cosh_sh)

    return betas, pair


def _stretched_a_periods(curve, ctx):
    """(A, Atilde, N): both periods from one trapezoid pass on N panels of
    the stretched half period (see ``period_integrals``), its nodes u and
    1/2 - u evaluated as one pair (``_mirror_pairs``): u = 0 with 1/2 and
    1/4 with itself, at half weight, then each doubling's new nodes
    k/(2N), k odd, as k with N - k.  Each doubling of N moves the sums by
    size = max(|A_N - A_N/2|, |At_N - At_N/2|); as the sums converge
    geometrically, the moves contract like Newton corrections, and A_N is
    taken on the error their contraction predicts
    (precision._predicted_stop), or else once size <= ctx.tol.  A doubling
    squares the trapezoid error, so A_N's true error is about size Theta^2,
    which the prediction Theta size/(1 - Theta) overstates by about
    1/Theta.  Call inside ctx.workprec()."""
    _, pair = _mirror_pairs(curve, ctx)

    def sums(ks, n):   # of a and at over the nodes k/(2n) and their mirrors
        a, at, at_mirror = zip(*(pair(mp.mpf(k) / (2 * n)) for k in ks))
        return 2 * mp.fsum(a), mp.fsum(at + at_mirror)

    n, prev, last = _TRAP_START, None, None
    totals = [x / 2 for x in sums((0, n // 2), n)]
    new = range(1, n // 2)
    while True:
        totals = [total + x for total, x in zip(totals, sums(new, n))]
        A, At = (total / (2 * n) for total in totals)
        if prev is not None:
            moves = [abs(x - y) for x, y in zip((A, At), prev)]
            size = max(moves)
            if _predicted_stop(size, last, ctx.tol) or size <= ctx.tol:
                return A, At, n
            if 2 * n > _TRAP_MAX:
                late = [name for name, move in zip(("A", "Atilde"), moves)
                        if move > ctx.tol]
                raise SolverError(f"period {' and '.join(late)}: trapezoid "
                                  f"pass did not converge by N = {n} panels")
            last = size
        prev = A, At
        n, new = 2 * n, range(1, n, 2)


def period_integrals(eps, ctx: PrecCtx):
    """(A, Atilde, B, Btilde) to ctx.tol absolute error.

    The integrands a and at of ``_Curve`` are even, 1-periodic and analytic
    on the real line, with branch points a distance w = asinh(1/sinh(pi
    alpha))/pi off it at t = 0 and 1/2: a boundary layer that wide.  A
    and Atilde come from one trapezoid pass that evaluates both at each node
    u_k = k/(2N) of the half period [0, 1/2], half weights at both ends,
    mapped by the sine stretch

        t = u - beta sin(4 pi u)/(4 pi),   t' = 1 - beta cos(4 pi u).

    The map keeps the integrands even and 1-periodic, so the half-period
    sum is the full-period trapezoid rule, which converges geometrically.
    Near u = 0 it is (1 - beta) u + O(u^3), and beta = max(0, 1 - 2 (pi
    w)^(2/3)) balances the two terms across the layer; with w ~ 1/(pi
    sinh(pi alpha)) that is beta = max(0, 1 - 2 sinh(pi alpha)^(-2/3)), 0
    up to eps = 36.  The stretched layer is still about (w/64)^(1/3) wide,
    so further stages, composed inside the first, stretch it again while
    the same rule gives them beta >= 1/2 (from eps about 2.5e4).  Each
    stage forms t and t' with log2(1/(1 - beta)) guard bits, the bits they
    cancel near t = 0, and cos(pi t) and sin(pi t) with them, as sin(pi t)
    near t = 0, the cos(pi t) of the mirror node 1/2 - t, is as small as
    the layer; where 1 - beta <= ctx.finest_tol none are left, and it
    raises PrecisionExceeded before it evaluates a node (from eps ~ 4e160
    at 192 bits, level 14,000).  beta sets only the cost: the pass starts
    at N = 16 panels and doubles N, evaluating only the new nodes, each u
    in [0, 1/4] with its mirror 1/2 - u in one pass through the stages
    (``_mirror_pairs``), until the error the contraction of the sums'
    moves predicts is within ctx.tol, or both move by at most ctx.tol
    (``_stretched_a_periods``); past _TRAP_MAX panels it raises
    SolverError naming the period and N.
    B and Btilde stay on ``composite_gl``: the nearest singularity of their
    integrands is 2 alpha away, and it needs 3-7 panels for them.  One pass
    integrates b + i bt, which share cos(pi t) and sqrt((C - 1)(C + 1)) at
    each node; a panel is accepted once its complex move is within budget,
    which bounds the moves of both parts, so each meets tol.  All four
    meet tol in absolute terms.  A, which shrinks like log(eps)/eps, is
    also within tol relative where it lies far below tol (measured at 192
    and 256 bits up to eps = 1e150), since Atilde ~ log(eps)^2/pi^2 moves
    in the same doublings; B, which shrinks like 1/eps, is held to tol
    absolutely.
    """
    with ctx.workprec():
        curve = _Curve(alpha_beta(eps, ctx)[0])
        A, At, _ = _stretched_a_periods(curve, ctx)
        B = composite_gl(lambda t: mp.mpc(*curve.b_bt(t)), 0, 1, ctx)
        return A, At, B.real, B.imag


def _series_sums(x, L, frac, prec):
    """(sb, sa, tb, ta, m): the four sums of ``period_series`` and their
    term count m, on integers at frac fractional bits from x = 1/eps^2 and
    L = log eps in the same units (as precision._theta1_sum sums).  c_m
    advances by x and the exact ratio (4m - 2)^2/m^2, d_m by -1/(m (2m -
    1)), and the sums stop once c_m L <= 2^-prec."""
    one = 1 << frac
    stop = 1 << (2 * frac - prec)
    c, d = one, 0
    sb, sa, tb, ta = one, L, 0, 0
    m = 0
    while c * L > stop:
        m += 1
        c = c * x * (4 * m - 2) ** 2 // (m * m << frac)
        d -= one // (m * (2 * m - 1))
        t = c * (L + d) >> frac
        sb += c
        sa += t
        tb += c // (2 * m)
        ta += (2 * m * t + c) // (4 * m * m)
    return sb, sa, tb, ta, m


def period_series(eps, ctx: PrecCtx):
    """(A, Atilde, B, Btilde) for real eps >= 8, summed as series in
    x = 1/eps^2.

    With L = log eps, c_m = C(2m, m)^2 x^m and d_m = 2 (H_m - H_2m):

        B  = (2/eps) sum c_m                 = 4 K(k)/(pi eps),   k = 4/eps
        A  = (8/(pi eps)) sum c_m (L + d_m)  = 8 K(k')/(pi eps)   (DLMF 19.12.1)
        Bt = (L - sum_{m>=1} c_m/(2m))/(2 pi)
        At = (2/pi^2) [L^2/2 - sum_{m>=1} c_m ((L + d_m)/(2m) + 1/(4m^2))] - 1/6

    The tilde periods integrate dBt/deps = B/(4 pi) and dAt/deps = A/(4 pi);
    the constant 1/6 is zeta(2)/pi^2.  Successive terms shrink by at least
    16/eps^2 <= 1/4, and summation stops once c_m L falls below 2^-prec.
    The sums run on integers at prec + 20 fractional bits from x and L
    converted once (``_series_sums``), and each is rounded to the context
    once before the closing formulas.  eps is read as ``alpha_beta`` reads
    it (``_real_eps``).
    """
    with ctx.workprec():
        eps = _real_eps(eps)
        if not _SERIES_MIN_EPS <= eps < mp.inf:
            raise ValueError(f"period series needs a finite eps >= {_SERIES_MIN_EPS}, "
                             f"got {mp.nstr(eps, 12)}")
        frac = mp.prec + 20
        with mp.workprec(frac):
            x = int(mp.ldexp(1 / (eps * eps), frac))
            L = mp.log(eps)
        *sums, _ = _series_sums(x, int(mp.ldexp(L, frac)), frac, mp.prec)
        # mp.mpf rounds to the context; mp.ldexp alone keeps every bit
        sb, sa, tb, ta = (mp.ldexp(mp.mpf(s), -frac) for s in sums)
        B = 2 * sb / eps
        A = 8 * sa / (mp.pi * eps)
        Btilde = (L - tb) / (2 * mp.pi)
        Atilde = 2 * (L * L / 2 - ta) / mp.pi ** 2 - mp.mpf(1) / 6
        return A, Atilde, B, Btilde


# ── quantization ──────────────────────────────────────────────────────────


def _level_newton(eps, ctx):
    """(f, eps f'(eps)) for the level function f = A lambda - Atilde
    = (A Btilde - B Atilde)/B, with the periods from ``period_series``.

    The slope needs no extra evaluation: Legendre's relation (DLMF 19.7)
    fixes the Wronskian A'B - AB' = 16/(pi eps (eps^2 - 16)), and with
    dAtilde/deps = A/(4 pi), dBtilde/deps = B/(4 pi) this gives
    f'(eps) = lambda (A'B - AB')/B.
    """
    A, At, B, Bt = period_series(eps, ctx)
    with ctx.workprec():
        f = (A * Bt - B * At) / B
        slope = 16 * (Bt / B) / (mp.pi * (eps * eps - 16) * B)
        return f, slope


def _level_root(x, n, ctx, prev=0):
    """(x, e^x): Newton in x = log eps on the level function at ctx, from x,
    which a full Newton correction of size prev reached (0 if none did).
    It returns x less its step once the error predicted for that point is
    within tol (precision._predicted_stop), so that log eps is bounded by
    tol; where the steps contract by less than half, it returns x once
    |f - (n+1)| <= tol (n+1) or the step is below tol."""
    target = n + 1
    with ctx.workprec():
        for _ in range(_NEWTON_STEPS):
            eps = mp.exp(x)
            f, slope = _level_newton(eps, ctx)
            r = f - target
            step = r / slope
            if _predicted_stop(abs(step), prev, ctx.tol):
                return x - step, mp.exp(x - step)
            if abs(r) <= ctx.tol * target or abs(step) <= ctx.tol:
                return x, eps
            x, prev = x - step, abs(step)
    raise SolverError(f"Newton for level {n} did not settle")


def quantize_selfdual(n: int, ctx: PrecCtx) -> SelfDualSpectrum:
    """Level-n self-dual state: the root of A lambda - Atilde = n + 1.

    Newton's method in x = log eps on the level function f, evaluated by
    ``period_series`` with its slope (``_level_newton``), from x0 = pi
    sqrt(n + 5/6), where the leading terms f = x^2/pi^2 + 1/6 + O(x/eps^2)
    reach n + 1.  It climbs a precision ladder (Brent-Zimmermann, Modern
    Computer Arithmetic, 4.2): Newton to the stop of a _MIN_BITS context at
    its finest tol, then one step at each doubled precision, the last at
    ctx's own, each about doubling the correct bits, then Newton at ctx
    (_level_root), which takes the ladder's last step as its previous
    correction.  Its first evaluation predicts the error of its own step
    within tol, which bounds log eps, so a level takes two evaluations at
    ctx (levels 0-1,000 at 96-1,024 bits).  It needs no
    bracket: on x >= log 8 f is increasing and convex (its slope grows like
    2x/pi^2) and f(8) < 1, so a step from any x >= log 8, x0 on the left of
    the root included, lands at or right of the root, and the iterates then
    fall to it monotonically inside the series' range.  The record carries
    ``period_integrals`` at the root, the independent quadrature, whose
    residual must be within 1000 tol (n+1).  The quadrature's reach bounds
    the levels that come out: at 192 bits level 13,500 (eps ~ 3.4e158)
    passes, and level 14,000 raises PrecisionExceeded before any node is
    evaluated (see ``period_integrals``).
    """
    if not (isinstance(n, numbers.Real) and 0 <= n < math.inf and int(n) == n):
        raise ValueError(f"level must be a non-negative integer, got {n}")
    n = int(n)
    target = n + 1

    rung = make_context(_MIN_BITS, 2.0 ** (16 - _MIN_BITS))
    with rung.workprec():
        x = mp.pi * mp.sqrt(n + mp.mpf(5) / 6)
    x, _ = _level_root(x, n, rung)
    bits, step = _MIN_BITS, 0
    while bits < ctx.precision_bits:
        bits = min(2 * bits, ctx.precision_bits)
        rung = make_context(bits)
        with rung.workprec():
            f, slope = _level_newton(mp.exp(x), rung)
            step = (f - target) / slope
            x -= step
    x, eps_star = _level_root(x, n, ctx, abs(step))

    with ctx.workprec():
        A, At, B, Bt = period_integrals(eps_star, ctx)
        r = (A * Bt - B * At) / B - target
        if abs(r) > 1000 * ctx.tol * target:
            raise SolverError(
                f"level-{n} root residual {mp.nstr(abs(r), 5)} above tolerance"
            )

        lam = Bt / B
        alpha, beta = alpha_beta(eps_star, ctx)
        return SelfDualSpectrum(
            n=n, eps=eps_star, alpha=alpha, beta=beta, lam=lam,
            A=A, Atilde=At, B=B, Btilde=Bt,
        )


# ── eigenfunction paths ───────────────────────────────────────────────────


def canonical_integral(T, spec: SelfDualSpectrum, ctx: PrecCtx):
    """(I, y): integral of theta_lambda along the canonical path from
    P0 = (i alpha, 0) to x = iT, T >= 0, and the endpoint y-coordinate.

    Regimes: T <= alpha both coordinates imaginary; alpha <= T <= beta
    y real in [0, 1/2]; T >= beta y = 1/2 + i c.  The zeta cycle is Btilde -
    lambda B = 0 (``_check_quantized``): dropped past i beta, -I[t*, 1] for t* > 1/2.
    """
    with ctx.workprec():
        T = mp.mpmathify(T)
        if mp.im(T) != 0 or not 0 <= mp.re(T) < mp.inf:
            raise ValueError("T must be real and non-negative, and finite")
        T = mp.re(T)
        eps, lam = spec.eps, spec.lam
        curve = _Curve(spec.alpha)

        # xi-type: x = i s(t+1/2), y = i s(t), t in [0, t*]
        sT = mp.sinh(mp.pi * T)
        if sT <= curve.sa:
            tstar = mp.acos(sT / curve.sa) / mp.pi

            def xi_int(t):
                a, at = curve.a_at(t)
                return (lam * a - at) / 4

            return composite_gl(xi_int, 0, tstar, ctx), 1j * curve.s(tstar)

        # zeta-type: x = i r(t), y = t/2, t in [0, t*]
        def zeta_int(t):
            b, bt = curve.b_bt(t)
            return bt - lam * b

        cosarg = eps / 2 - mp.cosh(2 * mp.pi * T)
        if cosarg >= -1:
            tstar = mp.acos(cosarg) / mp.pi
            I = (composite_gl(zeta_int, 0, tstar, ctx) if tstar <= 0.5
                 else -composite_gl(zeta_int, tstar, 1, ctx))
            return 0.5j * I, tstar / 2

        # beyond i beta: x = i h(c), y = 1/2 + i c, c in [0, cT]
        cT = mp.acosh(-cosarg) / (2 * mp.pi)

        def third_int(c):
            D = eps / 2 + mp.cosh(2 * mp.pi * c)   # cosh(2 pi h)
            return lam / mp.sqrt((D - 1) * (D + 1)) - mp.acosh(D) / (2 * mp.pi)

        return composite_gl(third_int, 0, cT, ctx), 0.5 + 1j * cT


def _nearest_y(w, guess):
    """The y-branch of cos(2 pi y) = w closest to guess, where w = eps/2 -
    cos(2 pi x) at the leg's x.

    The branches are +-y0 + k; for each sign the nearest k rounds the real
    part of guess -+ y0, and the nearer of the two candidates wins.
    """
    y0 = mp.acos(w) / (2 * mp.pi)
    a, b = (s * y0 + mp.nint(mp.re(guess - s * y0)) for s in (1, -1))
    return a if abs(a - guess) <= abs(b - guess) else b


def leg_integral(T, tau, spec: SelfDualSpectrum, ctx: PrecCtx, y_start):
    """(I, y_end): integral of theta_lambda along the horizontal leg from
    (iT, y_start) to x = iT + tau, with y continued by nearest-branch
    marching (never a fixed principal branch).  y_start is a point of the
    curve above iT: the endpoint y of the canonical path to iT, or another
    such as -y on the other sheet or y + 1.

    On the leg theta_lambda pulls back to -(x sin(2 pi x) + lambda) /
    sin(2 pi y) dx using dy/dx = -sin(2 pi x)/sin(2 pi y) on the curve.
    """
    with ctx.workprec():
        T, tau = mp.mpmathify(T), mp.mpmathify(tau)
        if mp.im(T) != 0 or not mp.isfinite(T):
            raise ValueError("T must be real and finite")
        if mp.im(tau) != 0 or not mp.isfinite(tau):
            raise ValueError("leg length must be real and finite")
        T, tau = mp.re(T), mp.re(tau)
        y0 = mp.mpmathify(y_start)
        eps, lam = spec.eps, spec.lam
        x0 = 1j * T
        w0 = eps / 2 - mp.cos(2 * mp.pi * x0)
        on_curve = ctx.finest_tol * max(1, abs(w0))
        if not abs(mp.cos(2 * mp.pi * y0) - w0) <= on_curve:   # NaN too
            raise SolverError("leg start is off the spectral curve")
        if tau == 0:
            return mp.mpf(0), y0
        if abs(1 - w0 * w0) <= on_curve:   # w0 = +-1: branch points at iT + k
            level = "alpha" if mp.re(w0) > 0 else "beta"
            raise SolverError(f"leg runs along the branch level T = {level}")

        sign = 1 if tau > 0 else -1
        L = abs(tau)
        steps = int(_LEG_STEPS * mp.ceil(L))
        h = L / steps
        anchors = [y0]
        for k in range(1, steps + 1):
            w = eps / 2 - mp.cos(2 * mp.pi * (x0 + sign * k * h))
            anchors.append(_nearest_y(w, anchors[-1]))

        def f(u):
            k = min(int(u / h), steps - 1)
            frac = u / h - k
            guess = anchors[k] + (anchors[k + 1] - anchors[k]) * frac
            x = x0 + sign * u
            c, s = mp.cos_sin(2 * mp.pi * x)
            y = _nearest_y(eps / 2 - c, guess)
            return -sign * (x * s + lam) / mp.sin(2 * mp.pi * y)

        return composite_gl(f, 0, L, ctx), anchors[-1]


# ── eigenfunction ─────────────────────────────────────────────────────────


def _check_quantized(spec: SelfDualSpectrum, ctx: PrecCtx):
    with ctx.workprec():
        target = spec.n + 1
        f = spec.A * spec.lam - spec.Atilde - target
        g = spec.lam * spec.B - spec.Btilde
        # eps must be the eps the record was quantized at, not a detuning
        h = 4 * mp.cosh(mp.pi * spec.alpha) ** 2 - spec.eps
        if (abs(f) > 1000 * ctx.tol * target or abs(g) > 1000 * ctx.tol
                or abs(h) > 1000 * ctx.tol * abs(spec.eps)):
            raise SolverError(
                "eigenfunction is multivalued: quantization conditions do "
                "not hold for this record"
            )


def phi_eval(x, spec: SelfDualSpectrum, ctx: PrecCtx):
    """phi(x) = sin(2 pi I)/sin(2 pi y) along the canonical path to x.

    x must have the form iT + tau (tau real, reached by a horizontal leg).
    At i alpha and i beta it is 0/0: below |sin(2 pi y)| = 2^(-bits/2) it is
    the l'Hopital limit on dI = (x + lambda/sin(2 pi x)) dy, off by O(sin^2(2 pi y)).
    """
    _check_quantized(spec, ctx)
    with ctx.workprec():
        x = mp.mpmathify(x)
        T, tau = mp.im(x), mp.re(x)
        if T < 0:
            v = phi_eval(-x, spec, ctx)   # phi(-x) = (-1)^n phi(x)
            return v if spec.n % 2 == 0 else -v
        I, y = canonical_integral(T, spec, ctx)
        if tau != 0:   # the leg starts where the canonical path ends
            I_leg, y = leg_integral(T, tau, spec, ctx, y_start=y)
            I = I + I_leg
        s2y = mp.sinpi(2 * y)
        if abs(s2y) >= mp.mpf(2) ** (-ctx.precision_bits / 2):
            return mp.sinpi(2 * I) / s2y
        return mp.cospi(2 * I) * (x + spec.lam / mp.sinpi(2 * x)) / mp.cospi(2 * y)


def psi_selfdual(x, spec: SelfDualSpectrum, ctx: PrecCtx):
    """psi(x) = phi(ix) for real x."""
    with ctx.workprec():
        return phi_eval(1j * mp.mpmathify(x), spec, ctx)
