"""Command-line front end: spectrum tables, orbit plots, the self-dual
ground level, and a cross-module invariant verifier.

Subcommands
    spectrum   quantized states on one sheet (CSV/JSON records)
    orbit      trace eps_k(sigma) and emit CSV plus an SVG polyline plot
    selfdual   quantize the self-dual level n and print its record
    verify     run the invariant suites of every module, PASS/FAIL table

All numeric output is rounded half-even at --digits significant digits
(default 18).  Output files carry '#'-prefixed provenance headers naming
theta, precision, tolerance and the tool version; written CSV re-parses to
the printed precision exactly.  MIRROR_SPECTRA_PRECISION in the environment
overrides --precision-bits.  Exit codes: 0 success, 1 check failure,
2 numerical failure, 3 bad configuration.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

from mpmath import mp

from . import __version__
from .chi import chi_dual_eval, chi_eval, chi_check_eval, chi_mult_check, chi_poly_seq
from .eigenfunction import make_params, pole_cancellation_check, psi_eval, psi_residual
from .precision import ModularParam, PrecCtx, SolverError, make_context, theta1
from .selfdual import quantize_selfdual
from .spectral import quantize, trace_orbit, wronskian_eval, wronskian_residue
from .transfer import R_orbit, chi_via_Minf, classify_r_orbit

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_NUMERIC = 2
EXIT_CONFIG = 3

_SEED = 20260814
_SVG_W, _SVG_H = 640, 480
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


@dataclass(frozen=True)
class JobConfig:
    """One command's full configuration; every run is a pure function of it."""

    command: str
    theta: str = "pi/4"
    precision_bits: int = 192
    tol: float = 0.0            # 0 -> derived from precision_bits
    digits: int = 18
    fmt: str = "csv"
    out: str = ""
    sheets: tuple = (1,)
    parity: str = "both"
    level: int = 0
    npoints: int = 48
    verify: bool = False
    quick: bool = False
    log_scale: bool = False
    fault: bool = False
    seed: int = _SEED


def _default_tol(bits: int) -> float:
    digits = int(bits * 0.30103)
    return 10.0 ** -(digits - max(8, (3 * digits) // 10))


def _context(cfg: JobConfig) -> PrecCtx:
    tol = cfg.tol if cfg.tol else _default_tol(cfg.precision_bits)
    return make_context(cfg.precision_bits, tol)


# ── numeric printing ──────────────────────────────────────────────────────


def fmt_real(x, digits: int) -> str:
    """Decimal string of x, round-half-even at `digits` significant digits.

    Goes through the exact binary value (integer mantissa over a power of
    two), so equal inputs always print identically and the printed string
    re-parses to the same decimal.
    """
    if not hasattr(x, "_mpf_"):
        x = mp.mpf(x)          # only converts non-mpf input; never re-rounds
    if not mp.isfinite(x):
        return str(x)
    if x == 0:
        return "0"
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)       # gmpy2 backend returns mpz
    with localcontext() as dctx:
        dctx.prec = digits
        dctx.rounding = ROUND_HALF_EVEN
        if exp >= 0:
            d = +Decimal(man << exp)
        else:
            d = Decimal(man) / Decimal(1 << -exp)
    return str(-d if sign else d)


def fmt_complex(z, digits: int) -> str:
    z = mp.mpmathify(z)
    re, im = mp.re(z), mp.im(z)
    floor = mp.mpf(10) ** (-digits - 2) * abs(z)   # below display resolution
    if abs(im) <= floor:
        return fmt_real(re, digits)
    ims = fmt_real(im, digits)
    if abs(re) <= floor:
        return f"{ims}i"
    return f"{fmt_real(re, digits)}{'+' if im > 0 else ''}{ims}i"


# ── output writers ────────────────────────────────────────────────────────


def _meta(cfg: JobConfig, ctx: PrecCtx, **extra) -> dict:
    meta = {
        "tool": f"mirror-spectra {__version__}",
        "theta": cfg.theta,
        "precision_bits": ctx.precision_bits,
        "tol": ctx.tol,
    }
    meta.update(extra)
    return meta


def _emit_table(fp, cfg: JobConfig, meta: dict, header, rows):
    if cfg.fmt == "json":
        doc = {"meta": {k: str(v) for k, v in meta.items()},
               "rows": [dict(zip(header, row)) for row in rows]}
        fp.write(json.dumps(doc, indent=2) + "\n")
        return
    for k, v in meta.items():
        fp.write(f"# {k}={v}\n")
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(str(c) for c in row) + "\n")


def _write_out(cfg: JobConfig, meta: dict, header, rows):
    if cfg.out:
        with open(cfg.out, "w") as fp:
            _emit_table(fp, cfg, meta, header, rows)
    else:
        _emit_table(sys.stdout, cfg, meta, header, rows)


def _svg_plot(path: str, curves, labels, meta: dict):
    """Plain-polyline SVG: curves = [(color, [(x, y), ...])], labels =
    [(x, y, text)]; no plotting dependency, just scaled coordinates."""
    xs = [p[0] for _, pts in curves for p in pts]
    ys = [p[1] for _, pts in curves for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax == xmin:
        xmax += 1.0
    if ymax == ymin:
        ymax += 1.0
    pad = 0.08

    def sx(x):
        return (pad + (1 - 2 * pad) * (x - xmin) / (xmax - xmin)) * _SVG_W

    def sy(y):
        return (1 - pad - (1 - 2 * pad) * (y - ymin) / (ymax - ymin)) * _SVG_H

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
             f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">']
    parts.append("<!-- " + " ".join(f"{k}={v}" for k, v in meta.items()) + " -->")
    parts.append(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>')
    for color, pts in curves:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
    for x, y, text in labels:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="black"/>')
        parts.append(f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" '
                     f'font-size="11">{text}</text>')
    parts.append("</svg>")
    with open(path, "w") as fp:
        fp.write("\n".join(parts) + "\n")


# ── spectrum ──────────────────────────────────────────────────────────────


def _spectrum_mpar(cfg: JobConfig, ctx: PrecCtx) -> ModularParam:
    mpar = ModularParam.from_theta(cfg.theta, ctx)
    with ctx.workprec():
        degenerate = not (0 < mp.re(mpar.theta) < mp.pi / 2) or abs(mpar.q) >= 1
    if degenerate:
        raise _ConfigError(
            f"theta = {cfg.theta} outside (0, pi/2): |q| >= 1, series diverge")
    if not mpar.in_supported_range:
        # accepted but flagged: |q| -> 1 as theta -> 0 and convergence slows
        print(f"mirror-spectra: warning: theta = {cfg.theta} outside the "
              f"supported window [pi/8, pi/2)", file=sys.stderr)
    return mpar


class _ConfigError(Exception):
    pass


def cmd_spectrum(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    mpar = _spectrum_mpar(cfg, ctx)
    parities = {"even": (1,), "odd": (-1,), "both": (1, -1)}[cfg.parity]
    sheet = cfg.sheets[0]
    rows = []
    with ctx.workprec():
        orbit = trace_orbit(sheet, cfg.npoints, mpar, ctx)
        for xi in parities:
            for pt in quantize(orbit, xi, mpar, ctx):
                row = [sheet, "even" if xi == 1 else "odd",
                       fmt_real(pt.sigma, cfg.digits),
                       fmt_real(mp.re(pt.eps), cfg.digits),
                       fmt_real(mp.im(pt.eps), cfg.digits)]
                if cfg.verify:
                    par = make_params(pt, mpar, ctx)
                    r1, r2 = psi_residual(mp.mpf("0.3"), par, ctx)
                    rep = pole_cancellation_check(par, ctx)
                    row += [fmt_real(max(r1, r2), 3),
                            fmt_real(rep.max_normalized, 3)]
                rows.append(row)
    rows.sort(key=lambda r: (r[1], Decimal(r[2])))
    header = ["sheet", "parity", "sigma", "re_eps", "im_eps"]
    if cfg.verify:
        header += ["psi_residual", "pole_residual"]
    meta = _meta(cfg, ctx, sheet=sheet, parity=cfg.parity, npoints=cfg.npoints)
    _write_out(cfg, meta, header, rows)
    return EXIT_OK


# ── orbit ─────────────────────────────────────────────────────────────────


def cmd_orbit(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    mpar = _spectrum_mpar(cfg, ctx)
    rows, curves, labels = [], [], []
    meta = _meta(cfg, ctx, sheets=",".join(str(k) for k in cfg.sheets),
                 npoints=cfg.npoints, log_scale=cfg.log_scale)
    with ctx.workprec():
        for i, k in enumerate(cfg.sheets):
            orbit = trace_orbit(k, cfg.npoints, mpar, ctx)
            pts = []
            for sigma, eps in orbit.samples:
                rows.append([k, fmt_real(sigma, cfg.digits),
                             fmt_real(mp.re(eps), cfg.digits),
                             fmt_real(mp.im(eps), cfg.digits)])
                if cfg.log_scale:
                    w = mp.log(1 + abs(eps))
                    z = w * mp.sign(eps) if eps != 0 else mp.mpc(0)
                else:
                    z = eps
                pts.append((float(mp.re(z)), float(mp.im(z))))
            curves.append((_SVG_COLORS[i % len(_SVG_COLORS)], pts))
            for tag, (sigma, eps), (x, y) in (
                    ("0", orbit.samples[0], pts[0]),
                    ("max", orbit.samples[-1], pts[-1])):
                text = f"eps_{k}({'0' if tag == '0' else 'sin theta'}) = " \
                       f"{fmt_complex(eps, cfg.digits)}"
                labels.append((x, y, text))
                meta[f"endpoint_sheet{k}_sigma{tag}"] = fmt_complex(eps, cfg.digits)
    out_csv = cfg.out or "orbit.csv"
    cfg_csv = dataclasses.replace(cfg, out=out_csv)
    _write_out(cfg_csv, meta, ["sheet", "sigma", "re_eps", "im_eps"], rows)
    svg_path = os.path.splitext(out_csv)[0] + ".svg"
    _svg_plot(svg_path, curves, labels, meta)
    print(f"wrote {out_csv} and {svg_path}")
    return EXIT_OK


# ── selfdual ──────────────────────────────────────────────────────────────


def cmd_selfdual(cfg: JobConfig) -> int:
    ctx = _context(cfg)
    spec = quantize_selfdual(cfg.level, ctx)
    with ctx.workprec():
        residual = spec.A * spec.lam - spec.Atilde - (spec.n + 1)
        fields = [
            ("n", str(spec.n)),
            ("eps", fmt_real(spec.eps, cfg.digits)),
            ("log_eps", fmt_real(mp.log(spec.eps), cfg.digits)),
            ("alpha", fmt_real(spec.alpha, cfg.digits)),
            ("beta", fmt_real(spec.beta, cfg.digits)),
            ("lambda", fmt_real(spec.lam, cfg.digits)),
            ("A", fmt_real(spec.A, cfg.digits)),
            ("Atilde", fmt_real(spec.Atilde, cfg.digits)),
            ("B", fmt_real(spec.B, cfg.digits)),
            ("Btilde", fmt_real(spec.Btilde, cfg.digits)),
            ("residual", fmt_real(residual, 3)),
        ]
    meta = _meta(cfg, ctx, level=cfg.level)
    meta.pop("theta")       # the self-dual problem has no coupling angle
    if cfg.out or cfg.fmt == "json":
        _write_out(cfg, meta, [k for k, _ in fields], [[v for _, v in fields]])
    if not cfg.out:
        for k, v in fields:
            print(f"{k} = {v}")
    return EXIT_OK


# ── verify ────────────────────────────────────────────────────────────────

_VERIFY_THETA = "pi/4"  # the coupling every verify check runs at


def _check_chi_functional_equation(ctx, mpar, rng, tol, fault):
    q2 = mpar.q * mpar.q
    worst = mp.mpf(0)
    for _ in range(6):
        u = mp.mpc(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if abs(u) < 0.1:
            u += mp.mpf("0.3")
        eps = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        coeff = 1 - eps * u + u * u
        for f in (lambda v: chi_eval(v, eps, mpar, ctx)[0],
                  lambda v: chi_check_eval(v, eps, mpar, ctx)):
            lhs = f(u / q2) + q2 * u * u * f(q2 * u)
            rhs = coeff * f(u)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1))
    return worst, 10 * tol


def _check_crochet_mirror_equation(ctx, mpar, rng, tol, fault):
    q2 = mpar.q * mpar.q
    worst = mp.mpf(0)
    for _ in range(4):
        u = mp.mpc(rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6))
        eps = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = lambda v: chi_dual_eval(v, eps, mpar, ctx)
        lhs = f(q2 * u) + (u * u / q2) * f(u / q2)
        rhs = (1 - eps * u + u * u) * f(u)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1))
    return worst, 10 * tol


def _check_transfer_oracle(ctx, mpar, rng, tol, fault):
    q2 = mpar.q * mpar.q
    eps = mp.mpc("1.3", "-0.4")
    worst = mp.mpf(0)
    for i in range(3):
        for j in range(3):
            u = mp.mpf("0.25") * (i + 1) * mp.expjpi(mp.mpf(2 * j + 1) / 7)
            a, b = chi_via_Minf(u, eps, mpar, ctx)
            worst = max(worst, abs(a - chi_eval(u, eps, mpar, ctx)[0]) / max(abs(a), 1))
            worst = max(worst, abs(b - chi_eval(u / q2, eps, mpar, ctx)[0]) / max(abs(b), 1))
    return worst, 10 * tol


def _check_theta_identities(ctx, mpar, rng, tol, fault):
    q, lq = mpar.q, mpar.log_q
    worst = mp.mpf(0)
    for _ in range(5):
        w = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t0 = theta1(w, q, ctx)
        scale = max(1, abs(t0))
        worst = max(worst, abs(theta1(-w, q, ctx) + t0) / scale)
        lhs = theta1(w + 2 * lq, q, ctx)
        rhs = -mp.exp(-lq - w) * t0
        worst = max(worst, abs(lhs - rhs) / max(scale, abs(rhs)))
    for xr in ("0.1", "-0.35", "0.7"):
        x = mp.mpf(xr)
        direct = theta1(2 * mp.pi * mpar.b * x, mpar.q, ctx)
        lhs = -theta1(2 * mp.pi * x / mpar.b, mpar.qbar, ctx)
        worst = max(worst, abs(lhs - mp.conj(direct)) / max(1, abs(direct)))
    return worst, 10 * tol


def _check_wronskian(ctx, mpar, rng, tol, fault):
    q2 = mpar.q * mpar.q
    eps = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
    worst = mp.mpf(0)
    for _ in range(4):
        u = mp.mpc(rng.uniform(0.3, 1.3), rng.uniform(-0.5, 0.5))
        w0 = wronskian_eval(u, eps, mpar, ctx)[0]
        w1 = wronskian_eval(q2 * u, eps, mpar, ctx)[0]
        worst = max(worst, abs(w1 * q2 * u * u - w0) / max(abs(w0), 1))
    bound = 1 - (q2).real
    for e in (mp.mpf("-11"), mp.mpf(2), mp.mpf(40)):
        r = wronskian_residue(e, mpar, ctx)
        if r.real < bound:
            worst = max(worst, bound - r.real)
    return worst, 10 * tol


def _check_mult_rule(ctx, mpar, rng, tol, fault):
    eps = mp.mpc("1.7", "0.3")
    worst = mp.mpf(0)
    for m, n in ((2, 3), (3, 4)):
        seq = chi_poly_seq(eps, mpar, m + n, ctx)
        scale = abs(seq.values[m] * seq.values[n])
        worst = max(worst, chi_mult_check(m, n, eps, mpar, ctx) / scale)
    return worst, 10 * tol


def _check_limit_classification(ctx, mpar, rng, tol, fault):
    # Reaching the classifier margin takes ~4 steps, and the repulsion
    # amplifies the seed error by ~ e^{32 pi} over those steps, so the
    # check always runs at >= 192 bits; quick mode just draws fewer orbits.
    cctx = ctx if ctx.precision_bits >= 192 else make_context(192, 1e-40)
    draws = 2 if ctx.precision_bits >= 192 else 1
    if mpar.precision_bits < cctx.precision_bits:
        mpar = ModularParam.from_theta(_VERIFY_THETA, cctx)
    bad = 0
    for _ in range(draws):
        with cctx.workprec():
            q2 = mpar.q * mpar.q
            z = mp.mpc(rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3))
            eps = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            r0 = chi_eval(z / q2, eps, mpar, cctx)[0] / chi_eval(z, eps, mpar, cctx)[0]
            if classify_r_orbit(R_orbit(z, r0, 4, eps, mpar, cctx), cctx) != "one":
                bad += 1
            seq = R_orbit(z, r0 * mp.mpf("1.3"), 4, eps, mpar, cctx)
            if classify_r_orbit(seq, cctx) == "one":
                bad += 1
    return mp.mpf(bad), mp.mpf("0.5")


def _check_eigenfunction(ctx, mpar, rng, tol, fault):
    npoints = 16 if ctx.precision_bits < 160 else 33
    orbit = trace_orbit(1, npoints, mpar, ctx)
    worst = mp.mpf(0)
    for xi in (1, -1):
        pts = quantize(orbit, xi, mpar, ctx)
        par = make_params(pts[0], mpar, ctx)
        x = mp.mpf("0.7")
        v = psi_eval(x, par, ctx)
        worst = max(worst, abs(psi_eval(-x, par, ctx) - xi * v) / abs(v))
        worst = max(worst, abs(mp.conj(v) - psi_eval(x, par, ctx)) / abs(v))
        if abs(mp.log(abs(psi_eval(3, par, ctx))) + 6 * mp.pi * par.eta) > 10:
            worst = max(worst, mp.mpf(1))
        r1, r2 = psi_residual(mp.mpf("0.3"), par, ctx)
        worst = max(worst, r1, r2)
        if fault:
            bad_pt = dataclasses.replace(pts[0], eps=pts[0].eps + mp.mpf("1e-4"))
            par = dataclasses.replace(par, point=bad_pt, rho=None)
        rep = pole_cancellation_check(par, ctx)
        worst = max(worst, rep.max_normalized)
    return worst, 1000 * tol


def _check_selfdual_cycles(ctx, mpar, rng, tol, fault):
    spec = quantize_selfdual(0, ctx)
    worst = max(abs(spec.A * spec.lam - spec.Atilde - 1),
                abs(spec.Btilde - spec.lam * spec.B))
    return worst, 1000 * tol


_VERIFY_CHECKS = (
    ("chi functional equation", _check_chi_functional_equation),
    ("crochet mirror equation", _check_crochet_mirror_equation),
    ("transfer oracle equivalence", _check_transfer_oracle),
    ("theta identities", _check_theta_identities),
    ("wronskian relations", _check_wronskian),
    ("multiplication rule", _check_mult_rule),
    ("limit classification", _check_limit_classification),
    ("eigenfunction invariants", _check_eigenfunction),
    ("selfdual cycle integrality", _check_selfdual_cycles),
)


def cmd_verify(cfg: JobConfig) -> int:
    import random

    if cfg.quick:
        ctx = make_context(64, 1e-10)
    else:
        ctx = _context(cfg)
    rng = random.Random(cfg.seed)
    print(f"# tool=mirror-spectra {__version__}")
    print(f"# precision_bits={ctx.precision_bits} tol={ctx.tol} seed={cfg.seed}"
          + (" fault=1" if cfg.fault else ""))
    failures = 0
    with ctx.workprec():
        mpar = ModularParam.from_theta(_VERIFY_THETA, ctx)
        tol = mp.mpf(ctx.tol)
        for name, check in _VERIFY_CHECKS:
            try:
                worst, threshold = check(ctx, mpar, rng, tol, cfg.fault)
                ok = worst <= threshold
                detail = f"residual {mp.nstr(worst, 3)} vs {mp.nstr(threshold, 3)}"
            except (SolverError, ValueError) as exc:
                ok, detail = False, f"solver failure: {exc}"
            status = "PASS" if ok else "FAIL"
            print(f"{status}  {name:<32} {detail}")
            failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_CHECK


# ── argument parsing ──────────────────────────────────────────────────────


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # bad config is exit code 3
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="mirror-spectra", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--theta", default="pi/4",
                        help="coupling angle (radians or 'pi/4' style)")
        sp.add_argument("--precision-bits", type=int, default=192)
        sp.add_argument("--tol", type=float, default=0.0,
                        help="tolerance (default derived from precision)")
        sp.add_argument("--digits", type=int, default=18,
                        help="significant digits in output (round-half-even)")
        sp.add_argument("--out", default="", help="output path (default stdout)")
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv")

    sp = sub.add_parser("spectrum", help="quantized states on one sheet")
    common(sp)
    sp.add_argument("--sheet", type=int, default=1)
    sp.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    sp.add_argument("--npoints", type=int, default=48)
    sp.add_argument("--verify", action="store_true",
                    help="append eigenfunction residual columns")

    sp = sub.add_parser("orbit", help="trace eps_k(sigma), write CSV + SVG")
    common(sp)
    sp.add_argument("--sheet", default="1",
                    help="sheet number, or comma list for a joint plot")
    sp.add_argument("--npoints", type=int, default=48)
    sp.add_argument("--log-scale", action="store_true",
                    help="plot log(1+|eps|) e^{i arg eps} instead of eps")

    sp = sub.add_parser("selfdual", help="quantize the self-dual level n")
    common(sp)
    sp.add_argument("--n", dest="level", type=int, default=0)

    sp = sub.add_parser("verify", help="run all invariant suites")
    common(sp)
    sp.add_argument("--quick", action="store_true",
                    help="64-bit, tol 1e-10: finishes in seconds")
    sp.add_argument("--fault", action="store_true",
                    help="inject an eps perturbation (negative control)")
    sp.add_argument("--seed", type=int, default=_SEED)
    return p


def _config_from_args(args) -> JobConfig:
    bits = args.precision_bits
    env = os.environ.get("MIRROR_SPECTRA_PRECISION")
    if env is not None:
        try:
            bits = int(env)
        except ValueError:
            raise _ConfigError(
                f"MIRROR_SPECTRA_PRECISION must be an integer, got {env!r}")
    sheets = (1,)
    if hasattr(args, "sheet"):
        try:
            sheets = tuple(int(s) for s in str(args.sheet).split(","))
        except ValueError:
            raise _ConfigError(f"bad sheet list: {args.sheet!r}")
        if not sheets or any(k < 1 for k in sheets):
            raise _ConfigError(f"sheets must be positive integers: {args.sheet!r}")
    return JobConfig(
        command=args.command,
        theta=args.theta,
        precision_bits=bits,
        tol=args.tol,
        digits=args.digits,
        fmt=args.fmt,
        out=args.out,
        sheets=sheets,
        parity=getattr(args, "parity", "both"),
        level=getattr(args, "level", 0),
        npoints=getattr(args, "npoints", 48),
        verify=getattr(args, "verify", False),
        quick=getattr(args, "quick", False),
        log_scale=getattr(args, "log_scale", False),
        fault=getattr(args, "fault", False),
        seed=getattr(args, "seed", _SEED),
    )


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "orbit": cmd_orbit,
    "selfdual": cmd_selfdual,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.digits < 2 or cfg.digits > 50:
            raise _ConfigError(f"digits must be in [2, 50], got {cfg.digits}")
        return _COMMANDS[cfg.command](cfg)
    except _ConfigError as exc:
        print(f"mirror-spectra: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"mirror-spectra: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"mirror-spectra: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
