"""Acceptance gate: one test per contract criterion, each printing a single
PASS/FAIL line and enforcing the stated tolerance.  Golden values are the
reference-table records; property criteria 7a-7h run the invariant registry
that ``mirror-spectra verify`` runs, on the full seeded samples."""

import time
from pathlib import Path

import pytest
from mpmath import mp

from mirror_spectra import invariants
from mirror_spectra.precision import ModularParam, make_context
from mirror_spectra.selfdual import quantize_selfdual
from mirror_spectra.spectral import quantize, sin_theta, trace_orbit

_SEED = invariants.SEED

# sheet-2 records: (sigma, eps) strings as printed
SHEET2_ODD = (
    ("0.0449074054136668986", "429.937612699070933", "-86.9352869839236228"),
    ("0.241612973133940861", "87.33324987160330085", "-160.859744733070428"),
    ("0.478766031821187121", "-33.7154767687408649", "-54.1710567496918622"),
)
SHEET2_EVEN = (
    ("0.139460116715428804", "234.614101715470239", "-167.345168305129794"),
    ("sin/2", "0", "-111.300184113096796"),
    ("0.623413635048467267", "-31.32504489967260473", "-12.15333894226767358"),
)

# orbit turning points with their printed precision (value, half-ulp)
TURNING_POINTS = (
    (1, 0, "1.9962511523", "5e-11"),
    (1, -1, "-22.1838257068", "5e-11"),
    (2, 0, "535.493519473629469", "5e-16"),
    (2, -1, "-24.183825694", "5e-10"),
    (3, 0, "535.49726832", "5e-9"),
    (3, -1, "-12391.6479693", "5e-8"),
)

# seed q-expansions: (prefactor power of q, [(power, coeff)], omitted power,
# last printed coefficient magnitude)
SEED_SERIES = {
    "eps1(0)": (0, [(0, 2), (2, -2), (4, -4), (6, -2), (8, 14), (10, 50),
                    (12, 40), (14, -268), (16, -1136)], 18, 1136),
    "eps2(0)": (-2, [(0, 1), (4, 1), (6, -1), (8, -1), (10, -1), (12, -2),
                     (14, -1), (18, 1), (20, 6), (22, 11)], 24, 11),
    "eps1(s)": (-1, [(0, -1), (1, 1), (2, -1), (4, 1), (6, 1), (7, -1),
                     (8, 2), (9, -2), (10, 2), (11, -5), (12, 4)], 13, 4),
    "eps2(s)": (-1, [(0, -1), (1, -1), (2, -1), (4, 1), (6, 1), (7, 1),
                     (8, 2), (9, 2), (10, 2), (11, 5), (12, 4)], 13, 4),
}

LOG_EPS0 = "2.88181542992629678247713987172363292221616219"


def _gate(label: str, worst, bound) -> None:
    worst, bound = mp.mpf(worst), mp.mpf(bound)
    ok = bool(worst <= bound)
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {mp.nstr(worst, 3)}"
          f" vs {mp.nstr(bound, 3)}")
    assert ok, f"{label}: {worst} > {bound}"


@pytest.fixture(scope="module")
def ctx():
    return make_context(192, 1e-40)


@pytest.fixture(scope="module")
def mpar(ctx):
    return ModularParam.from_theta("pi/4", ctx)


@pytest.fixture(scope="module")
def orbit1(orbit1_192):
    return orbit1_192


@pytest.fixture(scope="module")
def orbit2(orbit2_192):
    return orbit2_192


# ── 1–2: sheet-1 states ───────────────────────────────────────────────────


def test_criterion_1_ground_state(ctx, mpar):
    t0 = time.monotonic()
    orbit = trace_orbit(1, 48, mpar, ctx)
    pts = quantize(orbit, (+1,), mpar, ctx)
    elapsed = time.monotonic() - t0
    assert len(pts) == 1
    with ctx.workprec():
        dsig = abs(pts[0].sigma - mp.sin(mp.pi / 4) / 2)
        deps = abs(pts[0].eps - mp.mpc(0, "4.59435880983691894"))
        worst = max(dsig, deps)
    _gate("criterion 1: sheet-1 even ground state", worst, mp.mpf("1e-15"))
    assert elapsed < 120


def test_criterion_2_sheet1_odd(ctx, mpar, orbit1):
    pts = quantize(orbit1, (-1,), mpar, ctx)
    assert len(pts) == 1
    with ctx.workprec():
        golden = mp.mpc("-13.8783047780366906", "6.161296243244348685")
        worst = max(abs(pts[0].sigma - mp.mpf("0.6121173716461672675")),
                    abs(mp.re(pts[0].eps) - mp.re(golden)),
                    abs(mp.im(pts[0].eps) - mp.im(golden)))
    _gate("criterion 2: sheet-1 odd state", worst, mp.mpf("1e-12"))


# ── 3: sheet-2 states ─────────────────────────────────────────────────────


def test_criterion_3_sheet2_states(ctx, mpar, orbit2):
    worst = mp.mpf(0)
    with ctx.workprec():
        for xi, table in ((-1, SHEET2_ODD), (+1, SHEET2_EVEN)):
            pts = quantize(orbit2, (xi,), mpar, ctx)
            assert len(pts) == len(table)
            for pt, (sig, re_e, im_e) in zip(pts, table):
                want_sig = mp.sin(mp.pi / 4) / 2 if sig == "sin/2" else mp.mpf(sig)
                worst = max(worst,
                            abs(pt.sigma - want_sig),
                            abs(mp.re(pt.eps) - mp.mpf(re_e)),
                            abs(mp.im(pt.eps) - mp.mpf(im_e)))
    _gate("criterion 3: six sheet-2 states", worst, mp.mpf("1e-9"))


# ── 4–5: orbit endpoints and their seed expansions ────────────────────────


def test_criterion_4_turning_points(ctx, mpar, orbit1, orbit2):
    orbit3 = trace_orbit(3, 16, mpar, ctx)
    ends = {1: orbit1, 2: orbit2, 3: orbit3}
    worst = mp.mpf(0)
    with ctx.workprec():
        for k, pos, value, ulp in TURNING_POINTS:
            eps = ends[k].samples[pos][1]
            worst = max(worst, abs(eps - mp.mpf(value)) / mp.mpf(ulp))
    _gate("criterion 4: six turning points (per-digit)", worst, 1)


def test_criterion_5_seed_series(ctx, mpar, orbit1, orbit2):
    solved = {
        "eps1(0)": orbit1.samples[0][1],
        "eps1(s)": orbit1.samples[-1][1],
        "eps2(0)": orbit2.samples[0][1],
        "eps2(s)": orbit2.samples[-1][1],
    }
    with ctx.workprec():
        q = mp.exp(-mp.pi)
        worst = max(series_miss(solved[name], name, q) for name in SEED_SERIES)
    _gate("criterion 5: seed q-expansions vs roots", worst, 1)


def series_miss(eps, name, q):
    """|eps - SEED_SERIES[name]| at nome q, in units of criterion 5's
    allowance: the first omitted printed term, with a 10x growth allowance."""
    pre, terms, omitted, c_last = SEED_SERIES[name]
    series = q ** pre * mp.fsum(c * q ** p for p, c in terms)
    return abs(eps - series) / (10 * c_last * abs(q) ** (omitted + pre))


# ── 6: self-dual ground state ─────────────────────────────────────────────


def test_criterion_6_selfdual_ground():
    ctx = make_context(256, 1e-35)
    t0 = time.monotonic()
    spec = quantize_selfdual(0, ctx)
    elapsed = time.monotonic() - t0
    with ctx.workprec():
        worst = abs(mp.log(spec.eps) - mp.mpf(LOG_EPS0))
    _gate("criterion 6: log eps_0 to 30 digits", worst, mp.mpf("1e-29"))
    assert elapsed < 300


# ── 7: property acceptance (no golden values) ─────────────────────────────


def _gate_registry(criterion: str, label: str, ctx, mpar) -> None:
    """Gate every registry entry of one criterion on the full sample."""
    for _, crit, check in invariants.INVARIANTS:
        if crit == criterion:
            _gate(label, *invariants.run(check, ctx, mpar, _SEED, True))


def test_criterion_7a_functional_equations(ctx, mpar):
    _gate_registry("7a", "criterion 7a: chi/check/dual functional equations", ctx, mpar)


def test_criterion_7b_oracle_grid(ctx, mpar):
    _gate_registry("7b", "criterion 7b: transfer oracle on 20x20 grid", ctx, mpar)


def test_criterion_7c_mult_rule(ctx, mpar):
    _gate_registry("7c", "criterion 7c: multiplication rule m,n <= 10", ctx, mpar)


def test_criterion_7d_wronskian(ctx, mpar):
    _gate_registry("7d", "criterion 7d: Wronskian relation and residue bound", ctx, mpar)


def test_criterion_7e_theta_identities(ctx, mpar):
    _gate_registry("7e", "criterion 7e: theta identities and modular relation", ctx, mpar)


def test_criterion_7f_limit_classification(ctx, mpar):
    _gate_registry("7f", "criterion 7f: limit classification on 50 trajectories", ctx, mpar)


def test_criterion_7g_eigenfunction_all_states(ctx, mpar):
    _gate_registry("7g", "criterion 7g: eigenfunction invariants, all 8 states", ctx, mpar)


def test_criterion_7h_selfdual_cycles(ctx, mpar):
    _gate_registry("7h", "criterion 7h: self-dual cycles and Harper residual", ctx, mpar)


# ── 8: documented exclusions ──────────────────────────────────────────────


def test_criterion_8_exclusions(ctx, mpar, orbit1, orbit2):
    # endpoint states (double poles) must never be returned by quantize
    with ctx.workprec():
        sth = sin_theta(mpar)
        margin = mp.mpf("1e-6")
        for orbit in (orbit1, orbit2):
            for pt in quantize(orbit, (+1, -1), mpar, ctx):
                assert margin < pt.sigma < sth - margin
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for phrase in ("trace-class", "theta -> 0", "double pole"):
        assert phrase in readme, f"exclusions note missing {phrase!r}"
    _gate("criterion 8: exclusions enforced and documented", 0, 0)
