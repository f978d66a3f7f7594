"""Command-line front end: formatting, provenance headers, golden rows,
exit codes, environment override, and the verify table."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

try:
    import tomllib
except ModuleNotFoundError:     # Python 3.10; pytest itself requires tomli there
    import tomli as tomllib

import mirror_spectra
from mirror_spectra import invariants
from mirror_spectra.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    _build_parser,
    _context,
    _svg_plot,
    fmt_complex,
    fmt_real,
    fmt_tol,
    main,
)
from mirror_spectra.precision import ModularParam, default_tol, make_context
from mirror_spectra.spectral import solve_eps

# Table 1 odd states on sheet 2: (sigma, Re eps, Im eps)
SHEET2_ODD = (
    ("0.0449074054136668986", "429.937612699070933", "-86.9352869839236228"),
    ("0.241612973133940861", "87.33324987160330085", "-160.859744733070428"),
    ("0.478766031821187121", "-33.7154767687408649", "-54.1710567496918622"),
)


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _meta_lines(text):
    out = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and "=" in ln:
            k, _, v = ln[2:].partition("=")
            out[k] = v
    return out


# ── numeric printing ──────────────────────────────────────────────────────


def test_fmt_real_round_half_even():
    # 0.125 and 0.375 are exact in binary, so these are true decimal ties
    assert fmt_real(mp.mpf("0.125"), 2) == "0.12"
    assert fmt_real(mp.mpf("0.375"), 2) == "0.38"
    assert fmt_real(mp.mpf(-3), 4) == "-3"
    assert fmt_real(mp.mpf(0), 7) == "0"
    with mp.workprec(192):
        assert fmt_real(mp.mpf(1) / 3, 5) == "0.33333"
        x = mp.mpf("535.493519473629469")
    assert fmt_real(x, 18) == "535.493519473629469"


def test_fmt_real_converts_plain_numbers_exactly():
    # an int keeps every bit (mp.mpf would round it to 53), a float is
    # already exact, and a non-finite value prints as mpmath names it
    assert fmt_real(2 ** 60 + 1, 20) == "1152921504606846977"
    assert fmt_real(0.1, 20) == "0.10000000000000000555"
    assert fmt_real(mp.inf, 3) == "+inf"
    assert fmt_real(float("nan"), 3) == "nan"


@pytest.mark.parametrize("pts", ([(1.0, 2.0), (1.0, 2.0)],
                                 [(1.0, 2.0), (1.0, 3.0)],
                                 [(1.0, 2.0), (4.0, 2.0)]))
def test_svg_plot_flat_ranges_stay_finite(tmp_path, pts):
    # points that share one x or one y: the flat range is widened, so the
    # scaled coordinates divide by no zero width or height
    path = tmp_path / "flat.svg"
    _svg_plot(str(path), [("blue", pts)], [(1.0, 2.0, "p")], {})
    svg = path.read_text()
    coords = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    values = [float(c) for xy in coords.split() for c in xy.split(",")]
    assert len(values) == 4 and all(map(math.isfinite, values))


def test_fmt_real_reparses():
    with mp.workprec(192):
        vals = [mp.mpf("1e-7"), mp.pi, -mp.exp(20), mp.mpf("0.353553390593273762")]
        for x in vals:
            s = fmt_real(x, 15)
            assert abs(mp.mpf(s) - x) <= mp.mpf("1e-14") * abs(x)


def test_fmt_complex_forms():
    assert fmt_complex(mp.mpc(3, 0), 3) == "3"
    assert fmt_complex(mp.mpc(0, 4), 3) == "4i"
    assert fmt_complex(mp.mpc("1.5", "-2"), 3) == "1.5-2i"
    assert fmt_complex(mp.mpc("1.5", "2"), 3) == "1.5+2i"


def test_default_tol_scale():
    assert default_tol(192) == 1e-40
    assert default_tol(64) == 1e-11
    assert default_tol(96) == 1e-20


def test_fmt_tol_prints_as_a_float_would():
    for tol in (1e-40, 1e-11, 1e-05, 2.5e-07, 0.001, 0.5, 3.0):
        assert fmt_tol(make_context(192, tol).tol) == repr(tol)
    assert fmt_tol(make_context(4300, "1e-1250").tol) == "1e-1250"
    assert fmt_tol(make_context(1600, "1.25e-400").tol) == "1.25e-400"


def test_context_above_double_range():
    # 1,600 bits builds with the default tol (1e-337) and with a --tol below
    # the double range; a float-parsed tol was 0.0 at both
    for argv, want in ((["selfdual", "--precision-bits", "1600"], "1e-337"),
                       (["selfdual", "--precision-bits", "1600",
                         "--tol", "1e-400"], "1e-400")):
        ctx = _context(_build_parser().parse_args(argv))
        assert ctx.precision_bits == 1600
        assert fmt_tol(ctx.tol) == want
        assert ctx.tol == make_context(1600, want).tol > 0


# ── exit codes and configuration ──────────────────────────────────────────


def test_bad_config_exit_codes(tmp_path, capsys):
    # an angle outside (0, pi/2) is named as such, whether its nome has
    # |q| > 1 (theta = 2.5) or |q| = e^-pi (theta = 5 pi/4)
    for theta in ("2.5", "5*pi/4"):
        assert main(["spectrum", "--theta", theta]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"mirror-spectra: error: theta = {theta}: the "
                       "coupling angle must lie in (0, pi/2)\n")
    assert main(["spectrum", "--theta", "garbage"]) == EXIT_CONFIG
    assert main(["selfdual", "--digits", "1"]) == EXIT_CONFIG
    assert main(["selfdual", "--digits", "99"]) == EXIT_CONFIG
    assert main(["orbit", "--sheet", "1,x"]) == EXIT_CONFIG
    assert main(["orbit", "--sheet", "0"]) == EXIT_CONFIG
    assert main(["spectrum", "--sheet", "0"]) == EXIT_CONFIG
    assert main(["spectrum", "--theta", "pi/0"]) == EXIT_CONFIG
    assert main(["selfdual", "--precision-bits", "32"]) == EXIT_CONFIG
    capsys.readouterr()
    # --digits is checked by every command that has it
    for argv in (["spectrum", "--digits", "1"], ["orbit", "--digits", "51"]):
        assert main(argv) == EXIT_CONFIG
        assert "digits must be in [2, 50]" in capsys.readouterr().err
    # a non-positive or unreadable --tol is named, never replaced by the default
    for cmd in ("spectrum", "orbit", "selfdual", "verify"):
        for tol in ("0", "-1e-10", "abc", "nan", "inf"):
            assert main([cmd, f"--tol={tol}"]) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"mirror-spectra: error: --tol must be a positive number, "
                f"got {tol!r}\n")
    # flags a command does not read are refused, not ignored
    for argv in (["verify", "--quick", "--theta", "pi/3"],
                 ["verify", "--quick", "--digits", "10"],
                 ["verify", "--quick", "--out", str(tmp_path / "v.txt")],
                 ["verify", "--quick", "--format", "json"],
                 ["selfdual", "--theta", "pi/3"]):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "v.txt").exists()


def test_argparse_errors_use_config_exit():
    with pytest.raises(SystemExit) as ex:
        main(["no-such-command"])
    assert ex.value.code == EXIT_CONFIG
    with pytest.raises(SystemExit) as ex:
        main(["spectrum", "--parity", "sideways"])
    assert ex.value.code == EXIT_CONFIG


def test_env_overrides_precision(tmp_path, monkeypatch):
    out = tmp_path / "sd.json"
    monkeypatch.setenv("MIRROR_SPECTRA_PRECISION", "96")
    rc = main(["selfdual", "--precision-bits", "192", "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["precision_bits"] == "96"
    monkeypatch.setenv("MIRROR_SPECTRA_PRECISION", "abc")
    assert main(["selfdual"]) == EXIT_CONFIG


# ── selfdual ──────────────────────────────────────────────────────────────


def test_selfdual_golden_40_digits(capsys):
    rc = main(["selfdual", "--n", "0", "--digits", "40"])
    assert rc == EXIT_OK
    fields = _kv_lines(capsys.readouterr().out)
    assert fields["n"] == "0"
    assert fields["log_eps"] == "2.881815429926296782477139871723632922216"
    assert abs(float(fields["residual"])) < 1e-30


def test_selfdual_golden_10_digits(capsys):
    rc = main(["selfdual", "--n", "0", "--digits", "10",
               "--precision-bits", "96"])
    assert rc == EXIT_OK
    assert _kv_lines(capsys.readouterr().out)["log_eps"] == "2.881815430"


def test_selfdual_level_past_1e6(capsys):
    # level 20's root lies past eps = 1e6
    rc = main(["selfdual", "--n", "20", "--precision-bits", "256"])
    assert rc == EXIT_OK
    assert _kv_lines(capsys.readouterr().out)["log_eps"].startswith("14.339343")


def test_selfdual_level_past_the_quadrature_is_numeric(capsys):
    # level 100,000 (eps ~ 3e431) is past what the A quadrature can stretch
    # at 192 bits: a numerical failure, never a configuration error
    rc = main(["selfdual", "--n", "100000"])
    assert rc == EXIT_NUMERIC
    assert "too thin to stretch at 192 bits" in capsys.readouterr().err


def _kv_lines(text):
    out = {}
    for ln in text.splitlines():
        if " = " in ln:
            k, _, v = ln.partition(" = ")
            out[k.strip()] = v.strip()
    return out


def test_selfdual_json_has_no_theta(tmp_path):
    out = tmp_path / "sd.json"
    rc = main(["selfdual", "--precision-bits", "96", "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert "theta" not in doc["meta"]
    assert doc["rows"][0]["log_eps"].startswith("2.8818154299")
    assert float(doc["rows"][0]["eps"]) > 4


def test_selfdual_json_stdout_parses(capsys):
    # without --out the JSON document is all of stdout
    rc = main(["selfdual", "--precision-bits", "64", "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"][0]["log_eps"].startswith("2.881815")


# ── spectrum ──────────────────────────────────────────────────────────────


def test_spectrum_sheet1_even_golden(capsys):
    rc = main(["spectrum", "--sheet", "1", "--parity", "even",
               "--npoints", "33"])
    assert rc == EXIT_OK
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["sheet", "parity", "sigma", "re_eps", "im_eps"]
    assert len(rows) == 1
    ctx = make_context(192, 1e-40)
    with ctx.workprec():
        sigma_expect = fmt_real(mp.sin(mp.pi / 4) / 2, 18)
    assert rows[0]["sigma"] == sigma_expect
    assert rows[0]["im_eps"] == "4.59435880983691894"
    assert abs(float(rows[0]["re_eps"])) < 1e-15


def test_spectrum_sheet2_odd_table(tmp_path):
    out = tmp_path / "s2.csv"
    rc = main(["spectrum", "--sheet", "2", "--parity", "odd",
               "--precision-bits", "96", "--npoints", "33",
               "--out", str(out)])
    assert rc == EXIT_OK
    _, rows = _csv_rows(out.read_text())
    assert len(rows) == len(SHEET2_ODD)
    for row, (sig, re_e, im_e) in zip(rows, SHEET2_ODD):
        for key, want in (("sigma", sig), ("re_eps", re_e), ("im_eps", im_e)):
            w = float(want)
            assert abs(float(row[key]) - w) <= 1e-9 * max(1.0, abs(w))


def test_spectrum_sheet3_at_64_bits(capsys):
    # |G| reaches 1e8 on sheet 3, so G's pole guard must sit far below tol
    # (1e-11 at 64 bits) relative: at 2^(16 - bits) the job runs.  Its
    # states agree with the 128-bit ones within the 64-bit tol in sigma, and
    # each eps is the 128-bit root at its own sigma within tol (eps moves by
    # about 2 pi |eps| per unit sigma, so tol in sigma is 6 tol in eps)
    states = []
    for bits in ("64", "128"):
        assert main(["spectrum", "--sheet", "3", "--precision-bits", bits,
                     "--digits", "30"]) == EXIT_OK
        states.append(_csv_rows(capsys.readouterr().out)[1])
    low, high = states
    tol = default_tol(64)
    ctx = make_context(128, 1e-27)
    mpar = ModularParam.from_theta("pi/4", ctx)
    assert len(low) == len(high) == 10
    with ctx.workprec():
        for a, b in zip(low, high):
            assert (a["parity"], a["sheet"]) == (b["parity"], b["sheet"])
            sigma = mp.mpf(a["sigma"])
            assert abs(sigma - mp.mpf(b["sigma"])) <= tol
            eps = mp.mpc(a["re_eps"], a["im_eps"])
            root = solve_eps(sigma, eps, mpar, ctx)
            assert abs(eps - root) <= tol * abs(root)


def test_spectrum_unreachable_indicator_is_typed(capsys):
    # at the finest tol 64 bits allow, sheet 3's indicator bottoms out above
    # tol (G is steep in eps): quantization reports that as a numerical
    # failure naming where it stopped, never as a traceback; the state
    # solver stops at the indicator's floor, not at its step cap
    rc = main(["spectrum", "--sheet", "3", "--precision-bits", "64",
               "--tol", "4e-15"])
    err = capsys.readouterr().err
    assert rc in (EXIT_OK, EXIT_NUMERIC)
    if rc == EXIT_NUMERIC:
        assert "state solver on sheet 3, parity" in err
        assert "stalled at its rounding floor" in err and "the indicator reached" in err


def test_spectrum_verify_columns(capsys):
    rc = main(["spectrum", "--sheet", "1", "--parity", "even",
               "--precision-bits", "64", "--tol", "1e-10",
               "--npoints", "16", "--verify"])
    assert rc == EXIT_OK
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header[-2:] == ["psi_residual", "pole_residual"]
    assert rows and all(float(r["psi_residual"]) < 1e-5 for r in rows)
    assert all(float(r["pole_residual"]) < 1e-5 for r in rows)


def test_spectrum_nondefault_theta(capsys):
    rc = main(["spectrum", "--sheet", "1", "--parity", "both",
               "--theta", "0.45", "--precision-bits", "96",
               "--npoints", "32"])
    assert rc == EXIT_OK
    cap = capsys.readouterr()
    assert "warning" not in cap.err
    meta = _meta_lines(cap.out)
    assert meta["theta"] == "0.45"
    _, rows = _csv_rows(cap.out)
    assert rows        # states exist here, values are just not table-pinned


def test_spectrum_flagged_theta_still_runs(capsys):
    rc = main(["spectrum", "--sheet", "1", "--parity", "even",
               "--theta", "0.3", "--precision-bits", "96",
               "--npoints", "16"])
    assert rc == EXIT_OK
    cap = capsys.readouterr()
    assert "outside the supported window" in cap.err
    assert _meta_lines(cap.out)["theta"] == "0.3"


def test_spectrum_csv_round_trips(tmp_path):
    out = tmp_path / "s1.csv"
    rc = main(["spectrum", "--sheet", "1", "--precision-bits", "96",
               "--npoints", "33", "--out", str(out)])
    assert rc == EXIT_OK
    _, rows = _csv_rows(out.read_text())
    assert rows
    with mp.workprec(256):
        for row in rows:
            for key in ("sigma", "re_eps", "im_eps"):
                s = row[key]
                assert fmt_real(mp.mpf(s), 18) == s


# ── orbit ─────────────────────────────────────────────────────────────────


def test_orbit_writes_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "o.csv"
    rc = main(["orbit", "--sheet", "1", "--precision-bits", "96",
               "--npoints", "16", "--digits", "11", "--out", str(out)])
    assert rc == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    text = out.read_text()
    meta = _meta_lines(text)
    assert meta["endpoint_sheet1_sigma0"] == "1.9962511523"
    assert meta["endpoint_sheet1_sigmamax"] == "-22.183825707"
    _, rows = _csv_rows(text)
    assert len(rows) == 16
    svg = (tmp_path / "o.svg").read_text()
    assert svg.startswith("<svg")
    assert "eps_1(0) = 1.9962511523" in svg
    assert "eps_1(sin theta) = -22.183825707" in svg


def test_orbit_json_without_out_writes_orbit_json(tmp_path, monkeypatch, capsys):
    # the default name follows --format: a JSON document in orbit.csv was
    # the old default
    monkeypatch.chdir(tmp_path)
    rc = main(["orbit", "--sheet", "1", "--precision-bits", "64",
               "--npoints", "16", "--format", "json"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == "wrote orbit.json and orbit.svg\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["orbit.json", "orbit.svg"]
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert len(doc["rows"]) == 16


def test_orbit_help_names_its_default_files(capsys):
    # orbit never writes its table to stdout: --out's help says where it goes
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default stdout" not in text
    assert "default orbit.csv or orbit.json" in text
    assert "SVG is written beside it" in text


def test_orbit_multi_sheet_log_scale(tmp_path):
    out = tmp_path / "joint.csv"
    rc = main(["orbit", "--sheet", "1,2", "--precision-bits", "64",
               "--tol", "1e-10", "--npoints", "16", "--log-scale",
               "--out", str(out)])
    assert rc == EXIT_OK
    _, rows = _csv_rows(out.read_text())
    assert {r["sheet"] for r in rows} == {"1", "2"}
    svg = (tmp_path / "joint.svg").read_text()
    assert svg.count("<polyline") == 2


# ── verify ────────────────────────────────────────────────────────────────


def test_verify_quick_passes(capsys):
    rc = main(["verify", "--quick"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "# precision_bits=64 tol=1e-11 seed=" in out
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_verify_quick_refuses_a_precision_request(capsys, monkeypatch):
    # --quick fixes 64 bits and their default tol: a precision or tol given
    # besides is named and refused before any check runs, never ignored
    for argv, flag in ((["verify", "--quick", "--precision-bits", "128"],
                        "--precision-bits"),
                       (["verify", "--precision-bits", "64", "--quick"],
                        "--precision-bits"),
                       (["verify", "--quick", "--tol", "1e-12"], "--tol")):
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("mirror-spectra: error: verify --quick")
        assert f"it takes no {flag}" in err
    monkeypatch.setenv("MIRROR_SPECTRA_PRECISION", "96")
    assert main(["verify", "--quick"]) == EXIT_CONFIG
    assert "MIRROR_SPECTRA_PRECISION" in capsys.readouterr().err


def test_verify_quick_classifies_at_check_precision(capsys, monkeypatch):
    # the limit-classification check runs at >= 192 bits even in quick mode,
    # so the coupling data it hands to R_orbit must carry that precision too:
    # the exact pi/4 nome at 192 bits, not one rebuilt from a 64-bit angle
    seen = []
    real = invariants.R_orbit

    def spy(z, R0, steps, eps, mpar, ctx):
        seen.append((mpar, ctx.precision_bits))
        return real(z, R0, steps, eps, mpar, ctx)

    monkeypatch.setattr(invariants, "R_orbit", spy)
    rc = main(["verify", "--quick"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 9
    assert seen
    assert all(cbits >= 192 for _, cbits in seen)
    exact = ModularParam.from_theta("pi/4", make_context(192))
    raw = lambda m: [getattr(v, "_mpc_", getattr(v, "_mpf_", v))
                     for v in dataclasses.astuple(m)]
    assert all(raw(mpar) == raw(exact) for mpar, _ in seen)


def test_verify_fault_is_caught(capsys):
    rc = main(["verify", "--quick", "--fault"])
    assert rc == EXIT_CHECK
    out = capsys.readouterr().out
    failing = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert len(failing) == 1
    assert "eigenfunction" in failing[0]


def test_verify_seed_recorded(capsys):
    rc = main(["verify", "--quick", "--seed", "7"])
    assert rc == EXIT_OK
    assert "seed=7" in capsys.readouterr().out


# ── entry points ──────────────────────────────────────────────────────────


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated console-script wrapper does, with the target read
# from argv[1] instead of baked in.
_WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1].split(":")
sys.argv[:] = ["mirror-spectra", *sys.argv[2:]]
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def _child_env():
    """os.environ with the imported package's tree first on PYTHONPATH, so an
    installed copy elsewhere cannot shadow it, and without a caller's
    MIRROR_SPECTRA_PRECISION, which would change the exit code."""
    env = dict(os.environ)
    env.pop("MIRROR_SPECTRA_PRECISION", None)
    tree = str(Path(mirror_spectra.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (tree, env.get("PYTHONPATH")) if p)
    return env


def _run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, env=_child_env())


def _assert_verify_quick_passes(r):
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("PASS") == 9


def test_module_and_script_entry():
    r = _run([sys.executable, "-m", "mirror_spectra.cli", "--version"])
    assert r.returncode == 0
    assert r.stdout.strip() == mirror_spectra.__version__
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "mirror-spectra" in scripts, "[project.scripts] lacks mirror-spectra"
    _assert_verify_quick_passes(_run([sys.executable, "-c", _WRAPPER,
                                      scripts["mirror-spectra"],
                                      "verify", "--quick"]))


@pytest.mark.skipif(shutil.which("mirror-spectra") is None,
                    reason="no mirror-spectra console script on PATH")
def test_installed_script_entry():
    r = _run(["mirror-spectra", "--version"])
    assert r.returncode == 0
    assert r.stdout.strip() == mirror_spectra.__version__
    _assert_verify_quick_passes(_run(["mirror-spectra", "verify", "--quick"]))
