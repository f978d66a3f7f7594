"""The invariant registry: verify and the acceptance gate run the same entries."""

import inspect

import test_acceptance
from mpmath import mp

from mirror_spectra import invariants
from mirror_spectra.cli import EXIT_CHECK, EXIT_OK, main
from mirror_spectra.precision import ModularParam, PoleSignal, make_context

# verify's rows, in order; the registry may not lose or reorder one
VERIFY_ROWS = (
    "chi functional equation",
    "crochet mirror equation",
    "transfer oracle equivalence",
    "theta identities",
    "wronskian relations",
    "multiplication rule",
    "limit classification",
    "eigenfunction invariants",
    "selfdual cycle integrality",
)


def test_verify_prints_one_row_per_entry(capsys):
    assert tuple(name for name, _, _ in invariants.INVARIANTS) == VERIFY_ROWS
    assert main(["verify", "--quick"]) == EXIT_OK
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(("PASS", "FAIL"))]
    assert [ln[6:38].rstrip() for ln in rows] == list(VERIFY_ROWS)


def test_verify_reports_a_solver_failure(capsys, monkeypatch):
    # a check that raises SolverError fails its own row, with the error's
    # text, and verify exits nonzero; the other rows still run
    monkeypatch.setattr(invariants, "spectrum", lambda *args: [])
    assert main(["verify", "--quick"]) == EXIT_CHECK
    rows = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(("PASS", "FAIL"))]
    assert len(rows) == len(VERIFY_ROWS)
    assert [ln for ln in rows if ln.startswith("FAIL")] == [
        "FAIL  eigenfunction invariants         solver failure: "
        "spectrum found 0 of the 2 states"]


def test_every_criterion_has_an_entry():
    assert {crit for _, crit, _ in invariants.INVARIANTS} == {f"7{c}" for c in "abcdefgh"}


def test_every_entry_is_gated(monkeypatch):
    # stub checks record what the acceptance tests reach, at no numeric cost
    reached = []

    def stub(name):
        def check(ctx, mpar, rng, full, fault):
            reached.append((name, full))
            return mp.mpf(0), mp.mpf(1)
        return check

    monkeypatch.setattr(invariants, "INVARIANTS", tuple(
        (name, crit, stub(name)) for name, crit, _ in invariants.INVARIANTS))
    ctx = make_context(64, 1e-10)
    fixtures = {"ctx": ctx, "mpar": ModularParam.from_theta("pi/4", ctx)}
    for fname, fn in vars(test_acceptance).items():
        if fname.startswith("test_criterion_7"):
            fn(**{p: fixtures[p] for p in inspect.signature(fn).parameters})
    assert sorted(reached) == sorted((name, True) for name in VERIFY_ROWS)


def test_limit_classification_redraws_a_pole(ctx192, mpar_pi4, monkeypatch):
    # a PoleSignal from the R-iteration discards its draw: the verify sample
    # still ends with its 2 classified draws, 2 R-orbits each, after the one
    # that raised
    calls = []
    r_orbit = invariants.R_orbit

    def first_raises(*args):
        calls.append(args)
        if len(calls) == 1:
            raise PoleSignal("R-iteration pole")
        return r_orbit(*args)

    monkeypatch.setattr(invariants, "R_orbit", first_raises)
    assert invariants.run(invariants.limit_classification, ctx192, mpar_pi4,
                          invariants.SEED, False) == (0, 0)
    assert len(calls) == 5


def test_eigenfunction_invariants_report_slow_decay(ctx64, monkeypatch):
    # psi(3) scaled by 1e30 decays e^{69} too slowly: the check reports
    # |log |psi(3)| + 6 pi eta| itself, far above its 1000 tol threshold
    psi_eval = invariants.psi_eval
    monkeypatch.setattr(invariants, "psi_eval", lambda x, par, ctx: (
        psi_eval(x, par, ctx) * (mp.mpf("1e30") if x == 3 else 1)))
    mpar = ModularParam.from_theta("pi/4", ctx64)
    worst, threshold = invariants.run(invariants.eigenfunction_invariants, ctx64,
                                      mpar, invariants.SEED, False)
    assert abs(worst - mp.mpf("70.38")) < mp.mpf("0.01")
    assert worst > threshold
