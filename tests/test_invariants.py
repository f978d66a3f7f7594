"""The invariant registry: verify and the acceptance gate run the same entries."""

import inspect

import test_acceptance
from mpmath import mp

from mirror_spectra import invariants
from mirror_spectra.cli import EXIT_CHECK, EXIT_OK, main
from mirror_spectra.precision import ModularParam, make_context

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
