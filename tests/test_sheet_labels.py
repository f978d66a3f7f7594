"""Sheet labels: each orbit ends where its own sheet does.

To leading order sheet k is the spiral q^{-2 floor(k/2)} s^{m_k}, and since
s(sin theta) = -1/q it ends near -q^{-(2 ceil(k/2) - 1)}: sheets 1 and 2
near -1/q, 3 and 4 near -q^{-3}, 5 and 6 near -q^{-5}.  The q-series
corrections to that label start at order q, while neighbouring labels are
|q|^{-2} apart, so an orbit that changes branch where two sheets meet ends
far outside 2|q| of its label.  The orbits run at 128 bits on the CLI's
48-point grid.
"""

import pytest
from mpmath import mp

from mirror_spectra.precision import ModularParam, make_context
from mirror_spectra.spectral import trace_orbit

ANGLES = ("pi/8", "pi/4", "3*pi/8", "7*pi/16")


@pytest.fixture(scope="module")
def ends():
    # {theta: (mpar, {sheet: eps_k(sin theta)})} for sheets 1-5
    ctx = make_context(128)
    table = {}
    for theta in ANGLES:
        mpar = ModularParam.from_theta(theta, ctx)
        table[theta] = mpar, {k: trace_orbit(k, 48, mpar, ctx).samples[-1][1]
                              for k in range(1, 6)}
    return ctx, table


@pytest.mark.parametrize("theta", ANGLES)
def test_sheets_end_at_their_labels(ends, theta):
    ctx, table = ends
    mpar, end = table[theta]
    with ctx.workprec():
        q = mpar.q
        for k, eps in end.items():
            label = -(q ** (-(2 * ((k + 1) // 2) - 1)))
            assert abs(eps / label - 1) <= 2 * abs(q), (k, mp.nstr(eps, 12))
        # the 4/5 pair at sigma = 0 splits onto two branches
        assert abs(end[4] - end[5]) > abs(end[5]) / 2


def test_sheet5_ends_at_minus_q_to_the_minus_5(ends):
    # at pi/4, q = e^-pi: sheet 5 ends at -e^{5 pi} = -6,635,623.99934...,
    # where sheets 4 and 5 once both ended at sheet 3's -12,391.648
    ctx, table = ends
    eps = table["pi/4"][1][5]
    with ctx.workprec():
        assert mp.nint(eps.real) == -6635624
        assert abs(eps / -mp.exp(5 * mp.pi) - 1) <= mp.mpf("1e-12")
