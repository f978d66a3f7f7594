"""Wronskian solver: functional relations, Newton root-finding, sheet
continuation, quantization, and the theta-function factorization."""

import pytest
from mpmath import mp

from mirror_spectra import spectral
from mirror_spectra.chi import G_eval, chi_poly_seq
from mirror_spectra.precision import (
    ModularParam,
    PrecisionExceeded,
    SolverError,
    _theta_eo,
    default_tol,
    make_context,
    pochhammer_q,
    theta1,
)
from mirror_spectra.spectral import (
    Orbit,
    _indicator,
    _sigma_to_s,
    _solve_eps,
    _wronskian_parts,
    _wronskian_pass,
    factorize,
    quantize,
    sheet_seed,
    sin_theta,
    solve_eps,
    spectrum,
    trace_orbit,
    wronskian_eval,
    wronskian_residue,
)
from conftest import ANGLE_SET


@pytest.fixture(scope="module")
def ctx():
    return make_context(192, 1e-40)


def _parity_indicator(sigma, eps, parity, mpar, ctx):
    # the indicator at s(sigma) with G from the independent G_eval
    return _indicator(G_eval(_sigma_to_s(sigma, mpar), eps, mpar, ctx), parity)


@pytest.fixture(scope="module")
def mpar(ctx):
    return ModularParam.from_theta("pi/4", ctx)


@pytest.fixture(scope="module")
def orbit1(orbit1_192):
    return orbit1_192


# ── Wronskian function ────────────────────────────────────────────────────


def test_wronskian_rejects_zero(ctx, mpar):
    with pytest.raises(ValueError):
        wronskian_eval(0, mp.mpf(1), mpar, ctx)


def _check_quasi_periodicity(ctx, mpar, rng):
    # W(q^2 u) = W(u) / (q^2 u^2)
    with ctx.workprec():
        q2 = mpar.q * mpar.q
        for _ in range(10):
            u = mp.mpc(rng.uniform(0.3, 1.6), rng.uniform(-0.8, 0.8))
            eps = mp.mpc(rng.uniform(-4, 4), rng.uniform(-2, 2))
            w0 = wronskian_eval(u, eps, mpar, ctx)
            w1 = wronskian_eval(q2 * u, eps, mpar, ctx)
            target = w0 / (q2 * u * u)
            assert abs(w1 - target) <= 10 * ctx.tol * max(abs(target), 1)


def test_wronskian_quasi_periodicity(ctx, mpar, rng):
    _check_quasi_periodicity(ctx, mpar, rng)


@pytest.mark.parametrize("theta", ANGLE_SET)
def test_wronskian_quasi_periodicity_on_the_angle_set(theta, rng):
    ctx = make_context(128)
    _check_quasi_periodicity(ctx, ModularParam.from_theta(theta, ctx), rng)


def test_wronskian_eps_derivative(ctx, mpar):
    # Newton's dW/deps, from the two-sum pass, against a central difference
    # of the four-series W
    with ctx.workprec():
        u = mp.mpc("0.9", "0.35")
        eps = mp.mpc("1.4", "-0.8")
        h = mp.mpf("1e-20")
        _, dw, _ = _wronskian_pass(eps, _theta_eo(mp.log(u), mpar.q, ctx), mpar, ctx)
        wp = wronskian_eval(u, eps + h, mpar, ctx)
        wm = wronskian_eval(u, eps - h, mpar, ctx)
        fd = (wp - wm) / (2 * h)
        assert abs(dw - fd) <= mp.mpf("1e-30") * max(abs(dw), 1)


@pytest.mark.parametrize("theta", ("pi/4", "3*pi/8", "pi/6", "7*pi/16"))
@pytest.mark.parametrize("bits", (64, 96, 128, 192, 256))
def test_two_sum_pass_matches_four_series(bits, theta, rng):
    # a Newton pass sums W = w_-1 O(u) + w_0 E(u); it agrees with the
    # four-series W of the oracle within tol times its scale, and its W_eps
    # with a central difference of that W at twice the bits, over the
    # annulus the continuation visits and a spread of complex eps, and at
    # eps = 0, where w_0 vanishes identically
    ctx, ref_ctx = make_context(bits), make_context(2 * bits)
    mpar = ModularParam.from_theta(theta, ctx)
    ref_mpar = mpar.at(2 * bits)
    with ctx.workprec():
        tol = ctx.tol
        for k in range(6):
            u = mp.mpc(rng.uniform(0.2, 2.5), rng.uniform(-1.5, 1.5))
            eps = mp.mpc(rng.uniform(-60, 60), rng.uniform(-30, 30)) if k else mp.mpf(0)
            w, scale, _ = _wronskian_parts(u, eps, mpar, ctx)
            pair = _theta_eo(mp.log(u), mpar.q, ctx)
            w2, dw2, scale2 = _wronskian_pass(eps, pair, mpar, ctx)
            with ref_ctx.workprec():
                h = mp.ldexp(max(abs(eps), 1), -(2 * bits // 3))
                dw = (wronskian_eval(u, eps + h, ref_mpar, ref_ctx)
                      - wronskian_eval(u, eps - h, ref_mpar, ref_ctx)) / (2 * h)
            assert abs(w2 - w) <= tol * max(scale, 1), (u, eps)
            assert abs(dw2 - dw) <= tol * max(abs(dw), 1), (u, eps)
            assert scale / 4 <= scale2 <= 4 * scale, (u, eps)


def test_theta_pair_term_cap_is_typed():
    # E and O go through the theta guard: near |q| = 1 (|q^2| = 1 - 1.3e-6
    # at theta = 1e-7) they need about 4,500 terms at 64 bits, past the cap
    ctx = make_context(64)
    mpar = ModularParam.from_theta(mp.mpf("1e-7"), ctx)
    with ctx.workprec():
        sig = mp.sin(mpar.theta) / 3
        with pytest.raises(PrecisionExceeded, match="more than 4096 terms"):
            _theta_eo(2 * mp.pi * mpar.b * sig, mpar.q, ctx)
        with pytest.raises(PrecisionExceeded, match="more than 4096 terms"):
            solve_eps(sig, mp.mpf(2), mpar, ctx)


def test_residue_series_vs_contour(ctx, mpar):
    # u^-1 coefficient: explicit series against a trapezoidal average of
    # u W(u) over |u| = 1 (48 points alias only exponentially small terms)
    with ctx.workprec():
        for eps in (mp.mpf("2.7"), mp.mpf(-5), mp.mpc("3.1", "1.2")):
            series = wronskian_residue(eps, mpar, ctx)
            N = 48
            acc = mp.mpc(0)
            for j in range(N):
                uj = mp.expjpi(mp.mpf(2 * j) / N)
                acc += wronskian_eval(uj, eps, mpar, ctx) * uj
            assert abs(series - acc / N) <= 100 * ctx.tol * max(abs(series), 1)


def test_residue_positivity_bound(ctx, mpar):
    # for real eps and 0 < q < 1: residue >= 1 - q^2 (no degeneration)
    with ctx.workprec():
        bound = 1 - (mpar.q * mpar.q).real
        for eps in (mp.mpf("-11"), mp.mpf("0.4"), mp.mpf(2), mp.mpf(40)):
            r = wronskian_residue(eps, mpar, ctx)
            assert abs(r.imag) <= mp.mpf("1e-38")
            assert r.real >= bound


def _residue_by_pochhammer(eps, mpar, ctx):
    # the series summed term by term with a finite q-Pochhammer and explicit
    # powers of q, as the residue was computed before it read the q-table
    with ctx.workprec():
        q = mpar.q
        qm2 = 1 / (q * q)
        tol = ctx.tol
        values = chi_poly_seq(eps, mpar, 256, ctx)
        s, small = mp.mpc(0), 0
        for m in range(len(values)):
            term = (values[m] / pochhammer_q(qm2, qm2, m, ctx)) ** 2 * (
                q ** (-2 * m) - q ** (2 * m + 2)
            )
            s += term
            small = small + 1 if abs(term) <= tol * max(abs(s), 1) else 0
            if small >= 3:
                return s
        raise AssertionError("reference residue series did not converge")


@pytest.mark.parametrize("bits,tol", ((128, 1e-27), (192, 1e-40), (256, 1e-54)))
def test_residue_matches_pochhammer_series(bits, tol):
    ctx = make_context(bits, tol)
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        for eps in (mp.mpf("2.7"), mp.mpf(-5), mp.mpc("3.1", "1.2"), mp.mpf(40)):
            want = _residue_by_pochhammer(eps, mpar, ctx)
            got = wronskian_residue(eps, mpar, ctx)
            assert abs(got - want) <= 1000 * mp.mpf(tol) * max(abs(want), 1)


def test_residue_term_budget_is_typed(mpar):
    # at eps = 1e20000 the series needs more than 4096 terms: the cap raises
    # the typed error naming the budget, while eps = 1e30 converges
    ctx = make_context(192, 1e-40)
    with pytest.raises(PrecisionExceeded, match="within 4096 terms"):
        wronskian_residue(mp.mpf("1e20000"), mpar, ctx)
    assert mp.isfinite(wronskian_residue(mp.mpf("1e30"), mpar, ctx))


# ── Newton in eps ─────────────────────────────────────────────────────────


def test_solve_eps_endpoint_roots(ctx, mpar):
    with ctx.workprec():
        e10 = solve_eps(0, sheet_seed(1, mpar, ctx), mpar, ctx)
        assert abs(e10 - mp.mpf("1.9962511523")) <= mp.mpf("1e-9")
        e20 = solve_eps(0, sheet_seed(2, mpar, ctx), mpar, ctx)
        assert abs(e20 - mp.mpf("535.493519473629469")) <= mp.mpf("1e-13")


def test_solve_eps_residual_scale(ctx, mpar):
    with ctx.workprec():
        eps = solve_eps(mp.mpf("0.3"), mp.mpf(2), mpar, ctx)
        s = _sigma_to_s(mp.mpf("0.3"), mpar)
        w, scale, _ = _wronskian_parts(s, eps, mpar, ctx)
        assert abs(w) <= ctx.tol * max(scale, 1)


def test_newton_quadratic_convergence(ctx, mpar):
    # once |W|/scale < 1e-5 the Newton map squares the residual
    with ctx.workprec():
        sig = mp.mpf("0.3")
        root = solve_eps(sig, mp.mpf(2), mpar, ctx)
        pair = _theta_eo(2 * mp.pi * mpar.b * sig, mpar.q, ctx)
        eps = root + mp.mpf("1e-4")
        residuals = []
        for _ in range(8):
            w, dw, sc = _wronskian_pass(eps, pair, mpar, ctx)
            residuals.append(abs(w) / sc)
            eps = eps - w / dw
        for rk, rk1 in zip(residuals, residuals[1:]):
            if mp.mpf("1e-30") < rk < mp.mpf("1e-5"):
                assert rk1 <= 100 * rk ** 2


def test_seed_quality(ctx, mpar):
    # printed series sit well inside the Newton basin; the spiral fallback
    # (sheet 5 has no printed series) still converges to its root
    with ctx.workprec():
        seed = sheet_seed(1, mpar, ctx)
        assert abs(seed - solve_eps(0, seed, mpar, ctx)) <= mp.mpf("1e-6")
        seed = sheet_seed(5, mpar, ctx)
        root = solve_eps(0, seed, mpar, ctx)
        assert abs(seed - root) <= mp.mpf("1e-4") * abs(root)
    with pytest.raises(ValueError):
        sheet_seed(0, mpar, ctx)
    # where no series is printed the seed is the sheet's spiral q^{-2 floor(k/2)}
    # s^{m_k} at sigma = 0, where s = 1; at sin theta, s = -1/q exactly
    with ctx.workprec():
        q = mpar.q
        assert abs(_sigma_to_s(sin_theta(mpar), mpar) + 1 / q) <= ctx.tol * abs(1 / q)
        for k in (5, 7, 8):
            assert sheet_seed(k, mpar, ctx) == q ** (-2 * (k // 2))


def _check_conjugation(sample, mpar, ctx, bound):
    # conjugated modular data (q -> conj q, b -> 1/b) sends eps(sigma) to
    # its complex conjugate for real sigma
    with ctx.workprec():
        sig, eps = sample
        eps_c = solve_eps(sig, mp.conj(eps), mpar.conjugate(), ctx)
        assert abs(eps_c - mp.conj(eps)) <= bound * max(abs(eps), 1)


def test_conjugation_structure(ctx, mpar, orbit1):
    _check_conjugation(orbit1.samples[20], mpar, ctx, mp.mpf("1e-35"))


@pytest.mark.parametrize("theta", ANGLE_SET)
def test_conjugation_structure_on_the_angle_set(theta):
    # an interior sample of a 16-point sheet-1 orbit at each angle
    ctx = make_context(128)
    mpar = ModularParam.from_theta(theta, ctx)
    sample = trace_orbit(1, 16, mpar, ctx).samples[7]
    _check_conjugation(sample, mpar, ctx, 10 * ctx.tol)


# ── continuation ──────────────────────────────────────────────────────────


def test_orbit_shape_and_endpoints(ctx, mpar, orbit1):
    with ctx.workprec():
        sth = sin_theta(mpar)
        assert orbit1.sheet == 1
        assert len(orbit1.samples) == 48
        sigmas = [s for s, _ in orbit1.samples]
        assert sigmas[0] == 0 and abs(sigmas[-1] - sth) == 0
        assert all(b > a for a, b in zip(sigmas, sigmas[1:]))
        assert abs(orbit1.samples[0][1] - mp.mpf("1.9962511523")) <= mp.mpf("1e-9")
        assert abs(orbit1.samples[-1][1] - mp.mpf("-22.1838257068")) <= mp.mpf("1e-9")


def test_orbit_no_jumps(ctx, mpar, orbit1):
    with ctx.workprec():
        for (_, e0), (_, e1) in zip(orbit1.samples, orbit1.samples[1:]):
            assert abs(e1 - e0) <= mp.mpf("0.5") * (1 + max(abs(e0), abs(e1)))


def test_orbit_backward_continuation_matches(ctx, mpar, orbit1):
    # re-run the continuation from the orbit's sin(theta) end; path
    # independence is the numerical face of eps(sigma) = eps(2 sin(theta) - sigma)
    with ctx.workprec():
        eps = orbit1.samples[-1][1]
        for sig, eps_fwd in reversed(orbit1.samples[30:-1]):
            eps = _solve_eps(sig, eps, mpar, ctx)
            assert abs(eps - eps_fwd) <= mp.mpf("1e-30") * max(abs(eps), 1)


@pytest.mark.parametrize("bits", (64, 96, 128, 256, 384, 512))
def test_solve_eps_rung_sheet1_even(bits):
    # the sheet-1 even state, sigma = sin(theta)/2, within tol |eps| of the
    # same solve at twice the bits, at every rung up to 512 bits
    ctx, ref_ctx = make_context(bits), make_context(2 * bits)
    seed = mp.mpc(0, "4.59435880983691894")
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sigma = sin_theta(mpar) / 2
    eps = solve_eps(sigma, seed, mpar, ctx)
    ref = solve_eps(sigma, seed, ModularParam.from_theta("pi/4", ref_ctx), ref_ctx)
    with ref_ctx.workprec():
        assert abs(eps - ref) <= ctx.tol * abs(ref)


def _count_solves(monkeypatch):
    calls = []
    original = spectral._solve_eps

    def counted(sigma, *args, **kwargs):
        calls.append(sigma)
        return original(sigma, *args, **kwargs)

    monkeypatch.setattr(spectral, "_solve_eps", counted)
    return calls


def _count_passes(monkeypatch):
    # one Newton pass sums the two eps-only coefficients of W
    calls = []
    original = spectral._wronskian_pass

    def counted(eps, *args):
        calls.append(eps)
        return original(eps, *args)

    monkeypatch.setattr(spectral, "_wronskian_pass", counted)
    return calls


def _count_g(monkeypatch):
    # the u of each G_eval call
    calls = []
    original = spectral.G_eval

    def counted(u, *args):
        calls.append(u)
        return original(u, *args)

    monkeypatch.setattr(spectral, "G_eval", counted)
    return calls


def _count_steps(monkeypatch):
    # the x of each state-solver step: one _theta_eo call with the slopes
    steps = []
    original = spectral._theta_eo

    def counted(x, q, ctx, slopes=False):
        if slopes:
            steps.append(x)
        return original(x, q, ctx, slopes)

    monkeypatch.setattr(spectral, "_theta_eo", counted)
    return steps


def _count_states(monkeypatch):
    # (working bits, start, Newton steps, on-curve eps solves) of each state
    # the state solver returns
    calls, solves = [], []
    steps = _count_steps(monkeypatch)
    state, solve = spectral._state, spectral._solve_eps

    def counted(lo, hi, start, parity, sheet, mpar, ctx):
        steps.clear()
        solves.clear()
        point = state(lo, hi, start, parity, sheet, mpar, ctx)
        calls.append((ctx.precision_bits, start, len(steps), len(solves)))
        return point

    monkeypatch.setattr(spectral, "_state", counted)
    monkeypatch.setattr(spectral, "_solve_eps",
                        lambda *args, **kw: solves.append(args) or solve(*args, **kw))
    return calls


@pytest.fixture(scope="module")
def sheet2_128():
    # sheet 2 at the CLI's 128-bit default, with the Newton solves, the
    # Wronskian passes and the G_eval calls counted
    ctx128 = make_context(128, 1e-27)
    mpar128 = ModularParam.from_theta("pi/4", ctx128)
    with pytest.MonkeyPatch.context() as mpatch:
        calls = _count_solves(mpatch)
        passes = _count_passes(mpatch)
        gs = _count_g(mpatch)
        orbit = trace_orbit(2, 48, mpar128, ctx128)
    return ctx128, mpar128, orbit, len(calls), len(passes), len(gs)


@pytest.fixture(scope="module")
def sheet3_192(ctx, mpar):
    with pytest.MonkeyPatch.context() as mpatch:
        calls = _count_solves(mpatch)
        passes = _count_passes(mpatch)
        orbit = trace_orbit(3, 16, mpar, ctx)
    return orbit, len(calls), len(passes)


def test_trace_orbit_work_count_sheet2(sheet2_128):
    # the secant predictor seeds each sub-step; the zero-order seed took 161
    # solves.  A rejected sub-step gives up at its first damped Newton step:
    # run to convergence and then thrown away, it took 470 passes here
    _, _, _, solves, passes, _ = sheet2_128
    assert solves <= 80, solves
    assert passes <= 350, passes


def test_trace_orbit_work_count_sheet3(sheet3_192):
    # the zero-order seed took 2,208 solves here, halving near branch
    # points; rejected sub-steps solved to convergence took 1,520 passes
    _, solves, passes = sheet3_192
    assert solves <= 150, solves
    assert passes <= 700, passes


def _count_outcomes(monkeypatch):
    # (sigma, result) of each Newton solve; a fast solve that gives up
    # returns None
    calls = []
    original = spectral._solve_eps

    def counted(sigma, *args, **kwargs):
        calls.append((sigma, original(sigma, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(spectral, "_solve_eps", counted)
    return calls


def test_trace_orbit_work_count_sheet2_64_bits(monkeypatch):
    # the log-secant seed eps exp(h lam) is exact on the sheet's spiral, and
    # the first step leaves the 2/3 pair at sigma = 0 along the spiral's own
    # slope.  The additive secant took 233 passes and 13 give-ups here, 12
    # of them in the first interval, where the zero-order seed sits between
    # the two branches
    ctx64 = make_context(64)
    mpar64 = ModularParam.from_theta("pi/4", ctx64)
    passes = _count_passes(monkeypatch)
    solves = _count_outcomes(monkeypatch)
    orbit = trace_orbit(2, 48, mpar64, ctx64)
    first = orbit.samples[1][0]
    assert len(passes) <= 150, len(passes)
    assert [sig for sig, eps in solves if sig <= first and eps is None] == []


def test_zero_eps_is_a_typed_error(ctx, mpar):
    # log eps is undefined at eps = 0: the continuation and the state
    # solver's secant point raise SolverError naming the sigma, not
    # ZeroDivisionError
    with ctx.workprec():
        sig = mp.mpf("0.25")
        with pytest.raises(SolverError, match="eps = 0 at sigma = 0.25"):
            spectral._advance(sig, mp.mpf("0.3"), mp.mpf(0), mp.mpf(1), 1,
                              spectral.sin_theta(mpar), mpar, ctx)
        lo, hi = (sig, mp.mpf(0), mp.mpf(-1)), (mp.mpf("0.3"), mp.mpf(2), mp.mpf(1))
        with pytest.raises(SolverError, match="eps = 0 at sigma = 0.25"):
            spectral._state(lo, hi, None, 1, 1, mpar, ctx)


def test_newton_failures_are_typed(pi4_64, monkeypatch):
    # the three SolverErrors of the Newton solve, each naming its sigma: a
    # vanishing dW/deps at the seed of sheets 4 and 6 at sigma = 0, the
    # step cap, and a line search out of halvings
    mpar, ctx = pi4_64
    for k in (4, 6):
        with pytest.raises(SolverError, match=r"dW/deps underflow at sigma = 0\.0"):
            trace_orbit(k, 48, mpar, ctx)
    monkeypatch.setattr(spectral, "_MAX_NEWTON", 1)
    with pytest.raises(SolverError,
                       match=r"Newton did not converge in 1 steps at sigma = 0\.3"):
        solve_eps(0.3, 5, mpar, ctx)
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "_MAX_HALVINGS", 0)
    with pytest.raises(SolverError, match=r"Newton stalled at sigma = 0\.3"):
        solve_eps(0.3, 5, mpar, ctx)


def test_continuation_failures_are_typed(pi4_64, monkeypatch):
    # a sub-step whose solve fails down to the halving floor, and one whose
    # root jumps by more than half its size, abort the continuation.  The
    # first names the sigma of the solve that failed last, and its error
    mpar, ctx = pi4_64
    with ctx.workprec():
        eps0 = solve_eps(0, sheet_seed(1, mpar, ctx), mpar, ctx)
        target = mp.mpf("0.01")
        tried = []

        def failing(sigma, *args, **kwargs):
            tried.append(sigma)
            raise SolverError("no root")

        monkeypatch.setattr(spectral, "_solve_eps", failing)
        with pytest.raises(SolverError) as err:
            spectral._advance(0, target, eps0, 0, 1, spectral.sin_theta(mpar),
                              mpar, ctx)
        assert str(err.value) == (f"continuation failed on sheet 1 at sigma = "
                                  f"{mp.nstr(tried[-1], 8)}: no root")
        assert str(err.value.__cause__) == "no root"
        monkeypatch.setattr(spectral, "_solve_eps",
                            lambda sigma, seed, *args, **kwargs: 10 * seed + 100)
        with pytest.raises(SolverError,
                           match=r"continuation jump on sheet 1 at sigma = 0\.01"):
            spectral._advance(0, target, eps0, 0, 1, spectral.sin_theta(mpar),
                              mpar, ctx)


def test_rho_extract_refuses_zero(pi4_64, monkeypatch):
    # Laurent coefficients that both vanish leave no prefactor to extract
    mpar, ctx = pi4_64
    monkeypatch.setattr(spectral, "_wronskian_sums", lambda *args: (0, 0, 0, 0))
    with pytest.raises(SolverError, match="rho extracted as zero"):
        spectral.rho_extract(0.3, 2, mpar, ctx)


def test_state_step_refuses_zero_slope(pi4_64, monkeypatch):
    # a sheet-2 state started inside its window, as spectrum starts it,
    # with Wronskian sums whose eps-slopes vanish: the bordered step has no
    # dW/deps to divide by, and says so at its sigma
    mpar, ctx = pi4_64
    orbit = trace_orbit(2, 16, mpar, ctx)
    pt = quantize(orbit, (1,), mpar, ctx)[0]
    lo, hi = _window(pt, orbit)
    sums = spectral._wronskian_sums
    monkeypatch.setattr(spectral, "_wronskian_sums",
                        lambda *args: sums(*args)[:2] + (0, 0))
    with pytest.raises(SolverError, match=r"state solver step divides by zero "
                                          r"at sigma = 0\.1394601167"):
        spectral._state(lo, hi, (pt.sigma, pt.eps), pt.parity, 2, mpar, ctx)


def test_orbit_nodes_meet_newton_correction(ctx, mpar, sheet3_192):
    # every node is converged in eps, not only in |W|: the Newton correction
    # there, the four-series W over the pass's W_eps, is below tol, and the
    # real endpoint eps_3(sin theta) comes back real to tol
    orbit, _, _ = sheet3_192
    with ctx.workprec():
        tol = ctx.tol
        for sig, eps in orbit.samples:
            w = wronskian_eval(_sigma_to_s(sig, mpar), eps, mpar, ctx)
            pair = _theta_eo(2 * mp.pi * mpar.b * sig, mpar.q, ctx)
            _, dw, _ = _wronskian_pass(eps, pair, mpar, ctx)
            assert abs(w / dw) <= tol * max(abs(eps), 1), sig
        end = orbit.samples[-1][1]
        assert abs(mp.im(end)) <= tol * abs(end)


@pytest.fixture(scope="module")
def pi4_64():
    ctx64 = make_context(64)
    return ModularParam.from_theta("pi/4", ctx64), ctx64


def test_trace_orbit_refuses_a_non_integer_sheet(pi4_64):
    # sheet 2.5 traced an orbit labelled 2.5 that ended at sheet 3's -q^-3
    with pytest.raises(ValueError, match=r"sheet index must be an integer >= 1, got 2\.5"):
        trace_orbit(2.5, 16, *pi4_64)


def test_spectrum_refuses_a_non_integer_sheet(pi4_64):
    # it returned 8 states for sheet 2.5; at 96 bits the 64-bit coarse
    # stage, which falls back only on a SolverError, lets the ValueError out
    mpar64, _ = pi4_64
    ctx96 = make_context(96)
    with pytest.raises(ValueError, match=r"sheet index must be an integer >= 1, got 2\.5"):
        spectrum(2.5, 16, (1, -1), mpar64.at(96), ctx96)


def test_trace_orbit_refuses_a_non_integer_npoints(pi4_64):
    # npoints 16.0 raised an untyped TypeError from range
    with pytest.raises(ValueError, match=r"npoints must be an integer >= 16, got 16\.0"):
        trace_orbit(2, 16.0, *pi4_64)


def test_orbit_guards(ctx, mpar):
    with pytest.raises(ValueError):
        trace_orbit(1, 8, mpar, ctx)
    # a nome rounded to fewer bits than the context is refused by the
    # Newton pass, as by the chi series
    coarse = ModularParam.from_theta("pi/4", make_context(128, 1e-27))
    with pytest.raises(ValueError, match="coarser than the 192-bit context"):
        solve_eps(mp.mpf("0.3"), mp.mpf(2), coarse, ctx)
    # and by spectrum before its 64-bit stage, which would build its own nome
    with pytest.raises(ValueError, match="coarser than the 192-bit context"):
        spectrum(1, 16, (1,), coarse, ctx)


# ── quantization ──────────────────────────────────────────────────────────


def test_quantize_sheet1_even(ctx, mpar, orbit1):
    with ctx.workprec():
        pts = quantize(orbit1, (+1,), mpar, ctx)
        assert len(pts) == 1
        p = pts[0]
        sth = sin_theta(mpar)
        assert abs(p.sigma - sth / 2) <= mp.mpf("1e-25")
        ref = mp.mpc(0, "4.59435880983691894")
        assert abs(p.eps - ref) <= mp.mpf("1e-15") * abs(ref)
        assert p.parity == 1 and p.sheet == 1


def test_quantize_sheet1_odd(ctx, mpar, orbit1):
    with ctx.workprec():
        pts = quantize(orbit1, (-1,), mpar, ctx)
        assert len(pts) == 1
        p = pts[0]
        assert abs(p.sigma - mp.mpf("0.6121173716461672675")) <= mp.mpf("1e-17")
        ref = mp.mpc("-13.8783047780366906", "6.161296243244348685")
        assert abs(p.eps - ref) <= mp.mpf("1e-15") * abs(ref)
        assert p.parity == -1


@pytest.fixture(scope="module")
def coarse_orbit1():
    ctx128 = make_context(128, 1e-27)
    return trace_orbit(1, 16, ModularParam.from_theta("pi/4", ctx128), ctx128)


@pytest.mark.parametrize("parity,target", ((-1, "0.6121173716461672675"),
                                           (+1, "0.3535533905932737622")))
def test_quantize_meets_tol_at_256_bits(coarse_orbit1, parity, target):
    # the state solver's stop follows ctx.tol, so at 256 bits (tol 1e-60)
    # the sheet-1 ground states are solved until their indicator is below tol.
    # A short orbit keeps this cheap: a 128-bit trace locates the two grid
    # nodes around the state, and only those two are re-solved at 256 bits
    # (quantize reads the inner samples only).
    ctx256 = make_context(256, 1e-60)
    mpar256 = ModularParam.from_theta("pi/4", ctx256)
    with ctx256.workprec():
        target = mp.mpf(target)
        samples = coarse_orbit1.samples
        i = next(k for k, (sig, _) in enumerate(samples) if sig > target)
        inner = tuple((sig, _solve_eps(sig, eps, mpar256, ctx256))
                      for sig, eps in samples[i - 1:i + 1])
        orbit = Orbit(sheet=1, samples=(samples[0],) + inner + (samples[-1],))
        (p,) = quantize(orbit, (parity,), mpar256, ctx256)
        assert abs(p.sigma - target) <= mp.mpf("1e-17")
        indicator = _parity_indicator(p.sigma, p.eps, parity, mpar256, ctx256)
        assert abs(indicator) <= ctx256.tol


def test_quantize_interior_only(ctx, mpar, orbit1):
    # endpoints carry double poles and are excluded; G is exactly real there
    with ctx.workprec():
        sth = sin_theta(mpar)
        for parity in (+1, -1):
            for p in quantize(orbit1, (parity,), mpar, ctx):
                assert 0 < p.sigma < sth
        for idx in (0, -1):
            sig, eps = orbit1.samples[idx]
            g = G_eval(_sigma_to_s(sig, mpar), eps, mpar, ctx)
            assert abs(g.imag) <= mp.mpf("1e-30") * max(abs(g), 1)


def test_quantize_parity_guard(ctx, mpar, orbit1):
    # parities is a non-empty tuple drawn from {+1, -1}; a bare int is not one
    for parities in ((), (0,), (1, 2), 1):
        with pytest.raises(ValueError):
            quantize(orbit1, parities, mpar, ctx)


def test_quantize_work_count_and_indicator(sheet2_128, monkeypatch):
    # the state solver on each grid bracket: a handful of solves per state
    # (bisection then secant took about 20; the state solver takes one, at
    # the secant point), each state solved until its indicator is below tol
    ctx128, mpar128, orbit, *_ = sheet2_128
    calls = _count_solves(monkeypatch)
    for parity in (-1, +1):
        calls.clear()
        pts = quantize(orbit, (parity,), mpar128, ctx128)
        assert len(pts) == 3
        assert len(calls) <= 10 * len(pts), (parity, len(calls))
        with ctx128.workprec():
            for p in pts:
                ind = _parity_indicator(p.sigma, p.eps, parity, mpar128, ctx128)
                assert abs(ind) <= ctx128.tol, (parity, p.sigma)


def test_quantize_reads_node_g(sheet2_128, monkeypatch):
    # the orbit is the root curve alone: trace_orbit sums no G.  quantize
    # calls G_eval once at each inner node for both parities and at no step:
    # the state solver forms G from the chi series it also differentiates.
    # Each state solves eps on the curve once, at its bracket's secant
    # point, and takes 3-4 Newton steps on sheet 2 at 128 bits: the stop on
    # the predicted error spends no step to confirm the last one (4-5 with
    # one; false position took 41 trials, each with a solve and a G_eval)
    ctx128, mpar128, orbit, _, _, traced = sheet2_128
    assert traced == 0
    calls = _count_g(monkeypatch)
    states = _count_states(monkeypatch)
    pts = quantize(orbit, (1, -1), mpar128, ctx128)
    assert len(pts) == 6
    with ctx128.workprec():
        nodes = [_sigma_to_s(sig, mpar128) for sig, _ in orbit.samples[1:-1]]
        assert calls == nodes
    assert len(nodes) == 46
    assert [(start, steps, solves) for _, start, steps, solves in states] == [
        (None, 4, 1), (None, 4, 1), (None, 4, 1), (None, 3, 1), (None, 4, 1), (None, 4, 1)]


def test_quantize_both_parities_is_each_in_turn(sheet2_128):
    # one call for both parities returns, bit for bit, the even states and
    # then the odd ones that a call per parity finds
    ctx128, mpar128, orbit, *_ = sheet2_128
    both = quantize(orbit, (1, -1), mpar128, ctx128)
    assert [p.parity for p in both] == [1, 1, 1, -1, -1, -1]
    assert both == (quantize(orbit, (1,), mpar128, ctx128)
                    + quantize(orbit, (-1,), mpar128, ctx128))


def _lattice_bracket(bits):
    # an odd-parity bracket of sheet 1 at pi/4 around sigma = sin theta,
    # where G is real: its state lies on the lattice +-q^Z
    ctx = make_context(bits)
    mpar = ModularParam.from_theta("pi/4", ctx)
    with ctx.workprec():
        sth, end = trace_orbit(1, 16, mpar, ctx).samples[-1]
        ends = []
        for sig in (sth - mp.mpf("0.01"), sth + mp.mpf("0.01")):
            eps = solve_eps(sig, end, mpar, ctx)
            ends.append((sig, eps, _parity_indicator(sig, eps, -1, mpar, ctx)))
    return ctx, mpar, ends, (sth, end)


@pytest.mark.parametrize("bits", (64, 128))
def test_state_on_the_lattice_is_a_typed_error(bits):
    # the simplicity guard runs on every state the solver returns: from the
    # bracket's secant point, as quantize starts it, and from a coarse state,
    # as spectrum starts it at ctx
    ctx, mpar, (lo, hi), end = _lattice_bracket(bits)
    for start in (None, end):
        with pytest.raises(SolverError, match="collides with the lattice"):
            spectral._state(lo, hi, start, -1, 1, mpar, ctx)


def test_state_solver_precision_errors(monkeypatch):
    # a bracket with no room left, and a state that has not converged in
    # the step cap, raise PrecisionExceeded naming the sheet, the parity and
    # the smallest indicator reached
    ctx, mpar, (lo, hi), _ = _lattice_bracket(64)
    with pytest.raises(PrecisionExceeded, match=r"sheet 1, parity -1 collapsed its "
                       r"bracket at sigma = .*: the indicator reached 0\.551"):
        spectral._state(lo, lo, None, -1, 1, mpar, ctx)
    monkeypatch.setattr(spectral, "_MAX_NEWTON", 1)
    with pytest.raises(PrecisionExceeded, match=r"sheet 1, parity -1 did not converge "
                       r"in 1 steps .*: the indicator reached [0-9.e-]+, above tol"):
        spectral._state(lo, hi, (lo[0] + mp.mpf("0.001"), lo[1]), -1, 1, mpar, ctx)


def test_quantize_indicator_at_tolerance_floor():
    # at the finest tol 64 bits allow, a short sigma step can still leave the
    # indicator above tol on steep states; the stop also asks for |indicator|
    ctx64 = make_context(64, 4e-15)
    mpar64 = ModularParam.from_theta("pi/4", ctx64)
    orbit = trace_orbit(2, 48, mpar64, ctx64)
    with ctx64.workprec():
        for parity in (-1, +1):
            pts = quantize(orbit, (parity,), mpar64, ctx64)
            assert len(pts) == 3
            for p in pts:
                ind = _parity_indicator(p.sigma, p.eps, parity, mpar64, ctx64)
                assert abs(ind) <= ctx64.tol, (parity, p.sigma)


def test_state_solver_stops_at_its_floor(monkeypatch):
    # sheet 3 at the finest tol 64 bits allow: the indicator's rounding
    # floor lies above tol, and a state whose steps have stopped shrinking
    # and whose indicator makes no new low for _fast_newton(ctx) steps
    # raises there.  Running out the step cap instead took 120 steps, 80
    # of them in one state
    ctx64 = make_context(64, 4e-15)
    mpar64 = ModularParam.from_theta("pi/4", ctx64)
    steps = _count_steps(monkeypatch)
    with pytest.raises(PrecisionExceeded, match=r"sheet 3, parity \+1 stalled at its "
                       r"rounding floor .*: the indicator reached [0-9.e-]+, above tol"):
        spectrum(3, 48, (1, -1), mpar64, ctx64)
    assert len(steps) == 21


def test_wronskian_zero_periodicity_at_states(ctx, mpar, orbit1):
    # G(q^2 s) and G(q^4 s) repeat G(s) at quantized points
    with ctx.workprec():
        q2 = mpar.q * mpar.q
        p = quantize(orbit1, (+1,), mpar, ctx)[0]
        s = _sigma_to_s(p.sigma, mpar)
        g0 = G_eval(s, p.eps, mpar, ctx)
        for shift in (q2, q2 * q2):
            g = G_eval(shift * s, p.eps, mpar, ctx)
            assert abs(g - g0) <= mp.mpf(1e3) * ctx.tol * max(abs(g0), 1)


# ── the spectrum: a 64-bit spectrum polished at the context's precision ──


def test_theta_slopes_match_theta_pair_differences():
    # u E'(u) and u O'(u) from the derivative kernels against central
    # differences of E and O at twice the bits, across [0, sin theta] and
    # m periods log q^2 away, in the strips k = -2 .. 2 where the slopes take
    # the chain rule through the shift's factor.  At sigma = sin theta,
    # |Re 2x| = L and rounding decides k (0 or -1 with m = 0).  With h =
    # sqrt(tol) / 100 the difference's truncation error, a third of |D(h) -
    # D(2h)|, is checked to stay below 0.01 tol
    for bits in (64, 128, 512):
        ctx, fine = make_context(bits), make_context(2 * bits)
        tol = ctx.tol
        for theta in ("pi/8", "pi/4", "3*pi/8", "7*pi/16"):
            mpar = ModularParam.from_theta(theta, fine)
            with fine.workprec():
                h = mp.sqrt(tol) / 100

                def diff(x, h):
                    up = _theta_eo(x + h, mpar.q, fine)
                    down = _theta_eo(x - h, mpar.q, fine)
                    return [(a - b) / (2 * h) for a, b in zip(up, down)]

                for frac in ("0", "0.3", "0.7", "1"):
                    for m in (0, -1, 1, -2, 2):
                        x = (2 * mp.pi * mpar.b * sin_theta(mpar) * mp.mpf(frac)
                             + 2 * m * mpar.log_q)
                        got = _theta_eo(x, mpar.q, ctx, slopes=True)[2:]
                        for g, want, coarse in zip(got, diff(x, h), diff(x, 2 * h)):
                            scale = tol * max(abs(want), 1)
                            where = (bits, theta, frac, m)
                            assert abs(want - coarse) <= 0.03 * scale, where
                            assert abs(g - want) <= scale, where


def _assert_states_within_tol(got, want, mpar, ctx):
    # the same parities in the same order, each sigma within tol max(sin
    # theta, 1) and each eps within tol max(|eps|, 1)
    assert [p.parity for p in got] == [p.parity for p in want]
    with ctx.workprec():
        stop = ctx.tol * max(sin_theta(mpar), 1)
        for a, b in zip(got, want):
            assert abs(a.sigma - b.sigma) <= stop, b.sigma
            assert abs(a.eps - b.eps) <= ctx.tol * max(abs(b.eps), 1), b.sigma


@pytest.fixture(scope="module")
def states2_128(sheet2_128):
    # the sheet-2 states of the full-precision path at 128 bits
    ctx128, mpar128, orbit, *_ = sheet2_128
    return quantize(orbit, (1, -1), mpar128, ctx128)


def _window(pt, orbit):
    # spectrum's window around a coarse state: one grid step either side,
    # its ends carrying neither eps nor an indicator
    step = orbit.samples[1][0]
    return (pt.sigma - step, None, None), (pt.sigma + step, None, None)


@pytest.fixture(scope="module")
def coarse_pi4():
    # coarse(sheet, ctx): spectrum's coarse stage for a 48-point job at pi/4
    # at ctx, each 64-bit state with the window spectrum takes it to ctx
    # in.  Above 64 bits its context is the one spectrum builds
    # (spectral._coarse_context); at 64 bits, where the job is quantize's
    # own, it is make_context(64).  Each stage is run once per module
    stages = {}

    def coarse(sheet, ctx):
        ctx64 = (make_context(64) if ctx.precision_bits == 64
                 else spectral._coarse_context(ctx))
        if (sheet, ctx64) not in stages:
            mpar64 = ModularParam.from_theta("pi/4", ctx64)
            orbit = trace_orbit(sheet, 48, mpar64, ctx64)
            stages[sheet, ctx64] = [_window(pt, orbit) + (pt,)
                                    for pt in quantize(orbit, (1, -1), mpar64, ctx64)]
        return stages[sheet, ctx64]

    return coarse


def _at_ctx(coarse, mpar, ctx):
    # spectrum's second stage: each coarse state taken to ctx by the state
    # solver, starting from it, inside its window
    return [spectral._state(lo, hi, (pt.sigma, pt.eps), pt.parity, pt.sheet, mpar, ctx)
            for lo, hi, pt in coarse]


def test_polish_start_outside_its_window_raises(coarse_pi4, monkeypatch):
    # spectrum's windows carry no indicators, so the state solver has no
    # secant point to fall back on: a start on the window's edge is outside
    # it, and raises SolverError naming the window before any step, with no
    # G_eval call
    ctx = make_context(128)
    mpar = ModularParam.from_theta("pi/4", ctx)
    lo, hi, pt = coarse_pi4(2, ctx)[0]
    calls = _count_g(monkeypatch)
    steps = _count_steps(monkeypatch)
    with pytest.raises(SolverError) as err:
        spectral._state(lo, hi, (lo[0], pt.eps), pt.parity, 2, mpar, ctx)
    assert type(err.value) is SolverError
    assert str(err.value) == (f"state solver on sheet 2, parity {pt.parity:+d} left its "
                              f"bracket [{mp.nstr(lo[0], 10)}, {mp.nstr(hi[0], 10)}]")
    assert calls == [] and steps == []


def test_spectrum_polishes_every_coarse_state(sheet2_128, states2_128, monkeypatch):
    # the six states come from the 64-bit spectrum at the navigator tol
    # 2^-16, each taken to 128 bits from its coarse state in at most three
    # Newton steps, with no eps solve on the curve and no fallback, and they
    # are the full-precision path's within tol.  This is perfbench's
    # spectrum_s2 job, and its counts repeat: Newton stops on its predicted
    # error, so neither the orbit's solves nor the state solver spend an
    # evaluation to confirm their last step, and a state step sums each chi
    # series once, with its eps and u derivatives.  Stopping on the step
    # itself, with four series per step, took 150 W passes, 32 state steps
    # and 128 series; a coarse stage at the 64-bit default tol 1e-11 took
    # 120, 27 and 54
    ctx128, mpar128, *_ = sheet2_128
    passes = _count_passes(monkeypatch)
    states = _count_states(monkeypatch)
    series = []
    original = spectral._chi_series
    monkeypatch.setattr(spectral, "_chi_series",
                        lambda *args, **kw: series.append(args) or original(*args, **kw))
    pts = spectrum(2, 48, (1, -1), mpar128, ctx128)
    assert [(bits, start is None) for bits, start, _, _ in states] == (
        [(64, True)] * 6 + [(128, False)] * 6)
    fine = [(steps, solves) for bits, _, steps, solves in states if bits == 128]
    assert sum(steps for steps, _ in fine) <= 3 * len(pts)
    assert sum(solves for _, solves in fine) == 0
    steps = sum(steps for _, _, steps, _ in states)
    assert (len(passes), steps, len(series)) == (77, 24, 48)
    _assert_states_within_tol(pts, states2_128, mpar128, ctx128)


def test_spectrum_polish_failure_runs_the_full_path(sheet2_128, states2_128, monkeypatch):
    # a state at ctx whose window is narrowed to the coarse state alone
    # starts outside it, and spectrum reruns the job at 128 bits: the
    # full-precision path's states bit for bit
    ctx128, mpar128, *_ = sheet2_128
    raised = []
    original = spectral._state

    def narrowed(lo, hi, start, *args):
        if start is None:
            return original(lo, hi, start, *args)
        end = (*start, lo[2])
        try:
            return original(end, end, start, *args)
        except SolverError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(spectral, "_state", narrowed)
    assert spectrum(2, 48, (1, -1), mpar128, ctx128) == states2_128
    assert len(raised) == 1 and "left its bracket" in raised[0]


def test_spectrum_coarse_failure_runs_the_full_path(monkeypatch):
    # a coarse stage that raises hands the whole job to trace_orbit and
    # quantize at the context's precision: that path's states bit for bit
    ctx128 = make_context(128)
    mpar128 = ModularParam.from_theta("pi/4", ctx128)
    full = quantize(trace_orbit(1, 16, mpar128, ctx128), (1, -1), mpar128, ctx128)
    original = spectral.quantize

    def failing(orbit, parities, mpar, ctx):
        if ctx.precision_bits == 64:
            raise PrecisionExceeded("coarse stage forced to fail")
        return original(orbit, parities, mpar, ctx)

    monkeypatch.setattr(spectral, "quantize", failing)
    assert spectrum(1, 16, (1, -1), mpar128, ctx128) == full


def test_spectrum_at_64_bits_is_the_job_itself(monkeypatch):
    # at the floor the coarse stage is the job: each state solved once, from
    # its grid bracket, none taken on from a coarse state, and the context's
    # own tol, not the 64-bit default
    ctx64 = make_context(64, 1e-13)
    mpar64 = ModularParam.from_theta("pi/4", ctx64)
    states = _count_states(monkeypatch)
    pts = spectrum(1, 16, (1, -1), mpar64, ctx64)
    assert [(bits, start) for bits, start, _, _ in states] == [(64, None)] * len(pts)
    assert pts == quantize(trace_orbit(1, 16, mpar64, ctx64), (1, -1), mpar64, ctx64)


@pytest.mark.parametrize("sheet,bits", ((2, 64), (3, 64), (2, 96), (2, 128), (2, 256),
                                        (2, 384), (3, 128)))
def test_polished_states_rung(coarse_pi4, sheet, bits):
    # the states at each rung against the same states at twice the bits,
    # sigma and eps alike: at 64 bits quantize's own, above it spectrum's
    # coarse states taken to the rung.  Sheet 3 is the eps bound: eps moves
    # by about 2 pi |eps| per unit sigma there, so a stop on sigma alone left
    # its eps 1.9 tol |eps| off; the state solver also stops on |deps|
    ctx, ref_ctx = make_context(bits), make_context(2 * bits)
    mpar = ModularParam.from_theta("pi/4", ctx)
    coarse = coarse_pi4(sheet, ctx)
    pts = [pt for _, _, pt in coarse] if bits == 64 else _at_ctx(coarse, mpar, ctx)
    ref = _at_ctx(coarse_pi4(sheet, ref_ctx), ModularParam.from_theta("pi/4", ref_ctx),
                  ref_ctx)
    assert len(pts) == (6 if sheet == 2 else 10)
    _assert_states_within_tol(pts, ref, mpar, ctx)


def _coarse_tols(monkeypatch):
    # the tol of each context trace_orbit runs at
    tols = []
    original = spectral.trace_orbit

    def recorded(k, npoints, mpar, ctx):
        tols.append(ctx.tol)
        return original(k, npoints, mpar, ctx)

    monkeypatch.setattr(spectral, "trace_orbit", recorded)
    return tols


@pytest.mark.parametrize("theta", ("pi/8", "pi/4", "3*pi/8"))
def test_spectrum_from_the_navigator_is_the_full_path(theta, monkeypatch):
    # at the 128-bit default tol the coarse stage runs at the navigator tol
    # 2^-16, and on sheets 2 and 3 spectrum still gives the full-precision
    # path's states: the same count and parities, each within tol
    ctx = make_context(128)
    mpar = ModularParam.from_theta(theta, ctx)
    for sheet in (2, 3):
        full = quantize(trace_orbit(sheet, 48, mpar, ctx), (1, -1), mpar, ctx)
        with monkeypatch.context() as m:
            tols = _coarse_tols(m)
            pts = spectrum(sheet, 48, (1, -1), mpar, ctx)
        assert tols == [mp.mpf(2) ** -16]
        assert len(pts) == len(full) > 0
        _assert_states_within_tol(pts, full, mpar, ctx)


@pytest.mark.parametrize("theta,npoints", (("pi/4", 33), ("pi/3", 16)))
def test_spectrum_polishes_states_on_grid_nodes(theta, npoints, monkeypatch):
    # sheet 2 has a state on a grid node of these grids: sigma = sin theta/2
    # on 33 points, and k sin theta/3 on 16 points at pi/3.  Its coarse
    # state rounds to either side of the node, and the polish stays in its
    # window: one trace_orbit call, at the navigator tol, so the job is not
    # rerun at 128 bits, and the full path's states, each within tol and
    # distinct within each parity
    ctx = make_context(128)
    mpar = ModularParam.from_theta(theta, ctx)
    full = quantize(trace_orbit(2, npoints, mpar, ctx), (1, -1), mpar, ctx)
    tols = _coarse_tols(monkeypatch)
    pts = spectrum(2, npoints, (1, -1), mpar, ctx)
    assert tols == [mp.mpf(2) ** -16]
    assert len(pts) == len(full) > 0
    _assert_states_within_tol(pts, full, mpar, ctx)
    for parity in (1, -1):
        sigmas = [p.sigma for p in pts if p.parity == parity]
        assert len(set(sigmas)) == len(sigmas), parity


def test_spectrum_below_the_predicted_stop_keeps_the_64_bit_default(monkeypatch):
    # at 64 finest_tol the state solver stops on its own tests, not the
    # predicted error, and its start can move the state: the coarse stage
    # keeps make_context(64)'s tol
    ctx = make_context(128, 64 * make_context(128).finest_tol)
    mpar = ModularParam.from_theta("pi/4", ctx)
    tols = _coarse_tols(monkeypatch)
    spectrum(2, 16, (1, -1), mpar, ctx)
    assert tols == [default_tol(64)]


# ── factorization ─────────────────────────────────────────────────────────


def _probe_rho(sigma, eps, x0, mpar, ctx):
    # W(u0) / (theta1(s u0) theta1(u0/s)) on the four-series W
    two_pi_b = 2 * mp.pi * mpar.b
    w = wronskian_eval(mp.exp(two_pi_b * x0), eps, mpar, ctx)
    return w / (theta1(two_pi_b * (x0 + sigma), mpar.q, ctx)
                * theta1(two_pi_b * (x0 - sigma), mpar.q, ctx))


def test_factorize_at_quantized_point(ctx, mpar, orbit1):
    with ctx.workprec():
        p = quantize(orbit1, (+1,), mpar, ctx)[0]
        rho = factorize(p.sigma, p.eps, mpar, ctx)
        assert rho != 0
        # W(u0) = rho theta1(s u0) theta1(u0/s) at a real and a complex u0
        for x0 in (mp.mpf("0.29"), mp.mpc("0.29", "0.1")):
            probe = _probe_rho(p.sigma, p.eps, x0, mpar, ctx)
            assert abs(probe - rho) <= mp.mpf(1e3) * ctx.tol * abs(rho)


@pytest.mark.parametrize("theta", ANGLE_SET)
@pytest.mark.parametrize("sheet", (1, 2, 3))
def test_factorize_on_the_angle_set(sheet, theta):
    # an inner root of a 16-point orbit of each of sheets 1-3 at each angle,
    # with test_factorize_at_quantized_point's probes and bound
    ctx = make_context(128)
    mpar = ModularParam.from_theta(theta, ctx)
    sigma, eps = trace_orbit(sheet, 16, mpar, ctx).samples[7]
    with ctx.workprec():
        rho = factorize(sigma, eps, mpar, ctx)
        assert rho != 0
        for x0 in (mp.mpf("0.29"), mp.mpc("0.29", "0.1")):
            probe = _probe_rho(sigma, eps, x0, mpar, ctx)
            assert abs(probe - rho) <= mp.mpf(1e3) * ctx.tol * abs(rho), x0


@pytest.mark.parametrize("theta", ("pi/4", "3*pi/8", "7*pi/16"))
@pytest.mark.parametrize("bits", (64, 192))
def test_factorize_at_any_sigma(bits, theta):
    # sheet-1 roots at sigma = 0.1, 0.23 and 0.37: no sigma is singled out,
    # so rho comes back and matches the four-series probe there too
    ctx = make_context(bits)
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        for sig in ("0.1", "0.23", "0.37"):
            sigma = mp.mpf(sig)
            eps = solve_eps(sigma, sheet_seed(1, mpar, ctx), mpar, ctx)
            rho = factorize(sigma, eps, mpar, ctx)
            probe = _probe_rho(sigma, eps, mp.mpf("0.29"), mpar, ctx)
            assert abs(probe - rho) <= mp.mpf(1e3) * ctx.tol * abs(rho), sig


@pytest.mark.parametrize("theta", ("pi/4", "3*pi/8"))
@pytest.mark.parametrize("bits", (64, 192))
def test_factorize_at_exact_root(bits, theta):
    # s = i makes O(s) = 0 and eps = 0 makes w_0 = 0, so (i/(4b), 0) is a
    # root of W on which only the E(s) term carries rho
    ctx = make_context(bits)
    mpar = ModularParam.from_theta(theta, ctx)
    with ctx.workprec():
        sigma, eps = mp.mpc(0, 1) / (4 * mpar.b), mp.mpf(0)
        rho = factorize(sigma, eps, mpar, ctx)
        probe = _probe_rho(sigma, eps, mp.mpf("0.29"), mpar, ctx)
        assert abs(probe - rho) <= mp.mpf(1e3) * ctx.tol * abs(rho)


def test_factorize_rejects_nonroot(ctx, mpar):
    # far off the zero set, and just off it: the sheet-1 even state at
    # sin(theta)/2 with eps moved by a relative 1e-38 leaves |W| at about
    # 460 tol of its scale, above the rule Newton's residual stops on
    with ctx.workprec():
        sigma = sin_theta(mpar) / 2
        eps = solve_eps(sigma, mp.mpc(0, "4.59435880983691894"), mpar, ctx)
        assert factorize(sigma, eps, mpar, ctx) != 0
        for s, e in ((mp.mpf("0.3"), mp.mpf(3)), (sigma, eps * (1 + mp.mpf("1e-38")))):
            with pytest.raises(SolverError, match="not on the Wronskian zero set"):
                factorize(s, e, mpar, ctx)


def test_modular_conjugation_of_wronskian(ctx, mpar, orbit1):
    # conj W(u) = i b^2 conj(rho)/rho e^{-2 pi i (sigma^2 + x^2)} W(u) at
    # real x; the conjugated-parameter Wronskian at ubar equals conj W(u)
    with ctx.workprec():
        p = quantize(orbit1, (+1,), mpar, ctx)[0]
        rho = factorize(p.sigma, p.eps, mpar, ctx)
        b = mpar.b
        mpar_c = mpar.conjugate()
        for x0 in (mp.mpf("0.13"), mp.mpf("0.31")):
            u = mp.exp(2 * mp.pi * b * x0)
            ubar = mp.exp(2 * mp.pi * mpar_c.b * x0)
            w = wronskian_eval(u, p.eps, mpar, ctx)
            wbar = wronskian_eval(ubar, mp.conj(p.eps), mpar_c, ctx)
            assert abs(wbar - mp.conj(w)) <= mp.mpf("1e-45") * max(abs(w), 1)
            rhs = (
                mp.mpc(0, 1) * b * b * mp.conj(rho) / rho
                * mp.exp(-2j * mp.pi * (p.sigma ** 2 + x0 ** 2)) * w
            )
            assert abs(mp.conj(w) - rhs) <= mp.mpf("1e-45") * max(abs(w), 1)
