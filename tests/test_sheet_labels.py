"""Sheet labels: each orbit ends where its own sheet does.

To leading order sheet k is the spiral q^{-2 floor(k/2)} s^{m_k}, and since
s(sin theta) = -1/q it ends near -q^{-(2 ceil(k/2) - 1)}: sheets 1 and 2
near -1/q, 3 and 4 near -q^{-3}, 5 and 6 near -q^{-5}.  The q-series
corrections to that label start at order q, while neighbouring labels are
|q|^{-2} apart, so an orbit that changes branch where two sheets meet ends
far outside 2|q| of its label.  The same orbits check criterion 5's
q-series at every angle.  The orbits run at 128 bits on the CLI's 48-point
grid.
"""

import pytest
from mpmath import mp

from mirror_spectra.precision import ModularParam, make_context
from mirror_spectra.spectral import trace_orbit
from test_acceptance import series_miss

ANGLES = ("pi/8", "pi/4", "3*pi/8", "7*pi/16")


@pytest.fixture(scope="module")
def ends():
    # {theta: (mpar, {sheet: (eps_k(0), eps_k(sin theta))})} for sheets 1-5
    ctx = make_context(128)
    table = {}
    for theta in ANGLES:
        mpar = ModularParam.from_theta(theta, ctx)
        orbits = (trace_orbit(k, 48, mpar, ctx).samples for k in range(1, 6))
        table[theta] = mpar, {k: (s[0][1], s[-1][1]) for k, s in enumerate(orbits, 1)}
    return ctx, table


@pytest.mark.parametrize("theta", ANGLES)
def test_sheets_end_at_their_labels(ends, theta):
    ctx, table = ends
    mpar, end = table[theta]
    with ctx.workprec():
        q = mpar.q
        for k, (_, eps) in end.items():
            label = -(q ** (-(2 * ((k + 1) // 2) - 1)))
            assert abs(eps / label - 1) <= 2 * abs(q), (k, mp.nstr(eps, 12))
        # the 4/5 pair at sigma = 0 splits onto two branches
        assert abs(end[4][1] - end[5][1]) > abs(end[5][1]) / 2


@pytest.mark.parametrize("theta", ANGLES)
def test_seed_series_hold_off_pi4_as_sets(ends, theta):
    # criterion 5 at every angle.  Which root a sheet reaches at sin theta
    # depends on its path from sigma = 0: off pi/4 sheet 1 ends on the
    # eps2(s) series and sheet 2 on eps1(s), so the ends match as a set
    ctx, table = ends
    mpar, end = table[theta]
    with ctx.workprec():
        q = mpar.q
        for k in (1, 2):
            assert series_miss(end[k][0], f"eps{k}(0)", q) <= 1, k
        (_, e1), (_, e2) = end[1], end[2]
        straight = max(series_miss(e1, "eps1(s)", q), series_miss(e2, "eps2(s)", q))
        crossed = max(series_miss(e1, "eps2(s)", q), series_miss(e2, "eps1(s)", q))
        assert min(straight, crossed) <= 1, (mp.nstr(straight, 3), mp.nstr(crossed, 3))


def test_sheet5_ends_at_minus_q_to_the_minus_5(ends):
    # at pi/4, q = e^-pi: sheet 5 ends at -e^{5 pi} = -6,635,623.99934...,
    # where sheets 4 and 5 once both ended at sheet 3's -12,391.648
    ctx, table = ends
    eps = table["pi/4"][1][5][1]
    with ctx.workprec():
        assert mp.nint(eps.real) == -6635624
        assert abs(eps / -mp.exp(5 * mp.pi) - 1) <= mp.mpf("1e-12")
