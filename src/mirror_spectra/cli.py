"""Command-line front end: spectrum tables, orbit plots, the self-dual
ground level, and a cross-module invariant verifier.

Subcommands
    spectrum   quantized states on one sheet (CSV/JSON records)
    orbit      trace eps_k(sigma) and emit CSV plus an SVG polyline plot
    selfdual   quantize the self-dual level n and print its record
    verify     run the invariant suites of every module, PASS/FAIL table

Each subparser binds its command function as ``run``; the parsed
``argparse.Namespace`` is the command's whole configuration, so every run is
a pure function of it (plus MIRROR_SPECTRA_PRECISION, applied by ``main``).

verify runs the entries of ``invariants.INVARIANTS``, the registry that the
acceptance gate (criteria 7a-7h) also runs: verify on the first draws of
each sample, the gate on all of them.

All numeric output is rounded half-even at --digits significant digits
(default 18).  Output files carry '#'-prefixed provenance headers naming
theta, precision, tolerance and the tool version; written CSV re-parses to
the printed precision exactly.  MIRROR_SPECTRA_PRECISION in the environment
overrides --precision-bits.  Exit codes: 0 success, 1 check failure,
2 numerical failure, 3 bad configuration.
"""

import argparse
import json
import numbers
import os
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

from mpmath import mp
from mpmath.libmp import from_int

from . import __version__
from .eigenfunction import make_params, pole_cancellation_check, psi_residual
from .precision import ModularParam, PrecCtx, SolverError, make_context
from .selfdual import quantize_selfdual
from .spectral import spectrum, trace_orbit

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_NUMERIC = 2
EXIT_CONFIG = 3

_SVG_W, _SVG_H = 640, 480
_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _context(args) -> PrecCtx:
    """The context of --precision-bits (192 when not given) and --tol.  The
    context reads the --tol string itself, so a tol below the double range
    (1e-400) is kept."""
    bits = 192 if args.precision_bits is None else args.precision_bits
    if args.tol is None:
        return make_context(bits)
    try:
        tol = mp.mpf(args.tol)
    except ValueError:
        tol = mp.nan
    if not (mp.isfinite(tol) and tol > 0):
        raise _ConfigError(f"--tol must be a positive number, got {args.tol!r}")
    return make_context(bits, args.tol)


def _check_digits(args) -> None:
    if not 2 <= args.digits <= 50:
        raise _ConfigError(f"digits must be in [2, 50], got {args.digits}")


# ── numeric printing ──────────────────────────────────────────────────────


def fmt_real(x, digits: int) -> str:
    """Decimal string of x, round-half-even at `digits` significant digits.

    Goes through the exact binary value (integer mantissa over a power of
    two), so equal inputs always print identically and the printed string
    re-parses to the same decimal.
    """
    if isinstance(x, numbers.Integral):
        x = mp.make_mpf(from_int(int(x)))   # exact: mp.mpf rounds to mp.prec
    elif not hasattr(x, "_mpf_"):
        x = mp.mpf(x)          # exact for a float; an mpf is never re-rounded
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


def fmt_tol(tol) -> str:
    """A context's 53-bit tol as the headers print it: the fewest digits
    that read back to it, laid out as Python prints a float (1e-40, 1e-05,
    0.001, 2.5).  A tol a double holds prints as that double does, and one
    below the double range as 1e-400."""
    for digits in range(1, 18):
        text = fmt_real(tol, digits)
        with mp.workprec(53):
            if mp.mpf(text) == tol:
                break
    d = Decimal(text).normalize()
    if -4 <= d.adjusted() < 16:
        text = format(d, "f")
        return text if "." in text else text + ".0"
    man = "".join(map(str, d.as_tuple().digits))
    man = man[0] + "." + man[1:] if len(man) > 1 else man
    return f"{man}e{d.adjusted():+03d}"


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


def _meta(args, ctx: PrecCtx, **extra) -> dict:
    meta = {"tool": f"mirror-spectra {__version__}"}
    if "theta" in args:     # the self-dual problem has no coupling angle
        meta["theta"] = args.theta
    meta.update(precision_bits=ctx.precision_bits, tol=fmt_tol(ctx.tol), **extra)
    return meta


def _emit_table(fp, args, meta: dict, header, rows):
    if args.fmt == "json":
        doc = {"meta": {k: str(v) for k, v in meta.items()},
               "rows": [dict(zip(header, row)) for row in rows]}
        fp.write(json.dumps(doc, indent=2) + "\n")
        return
    for k, v in meta.items():
        fp.write(f"# {k}={v}\n")
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(str(c) for c in row) + "\n")


def _write_out(args, meta: dict, header, rows):
    if args.out:
        with open(args.out, "w") as fp:
            _emit_table(fp, args, meta, header, rows)
    else:
        _emit_table(sys.stdout, args, meta, header, rows)


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


def _spectrum_mpar(args, ctx: PrecCtx) -> ModularParam:
    mpar = ModularParam.from_theta(args.theta, ctx)
    if not mpar.in_supported_range:
        # accepted but flagged: convergence slows as |q| -> 1
        print(f"mirror-spectra: warning: theta = {args.theta} outside the "
              f"supported window [pi/8, 3*pi/8]", file=sys.stderr)
    return mpar


class _ConfigError(ValueError):
    pass


def cmd_spectrum(args) -> int:
    _check_digits(args)
    sheet = args.sheet
    if sheet < 1:
        raise _ConfigError(f"sheets must be positive integers: {sheet!r}")
    ctx = _context(args)
    mpar = _spectrum_mpar(args, ctx)
    parities = {"even": (1,), "odd": (-1,), "both": (1, -1)}[args.parity]
    rows = []
    with ctx.workprec():
        for pt in spectrum(sheet, args.npoints, parities, mpar, ctx):
            row = [sheet, "even" if pt.parity == 1 else "odd",
                   fmt_real(pt.sigma, args.digits),
                   fmt_real(mp.re(pt.eps), args.digits),
                   fmt_real(mp.im(pt.eps), args.digits)]
            if args.verify:
                par = make_params(pt, mpar, ctx)
                r1, r2 = psi_residual(mp.mpf("0.3"), par, ctx)
                rep = pole_cancellation_check(par, ctx)
                row += [fmt_real(max(r1, r2), 3),
                        fmt_real(rep.max_normalized, 3)]
            rows.append(row)
    rows.sort(key=lambda r: (r[1], Decimal(r[2])))
    header = ["sheet", "parity", "sigma", "re_eps", "im_eps"]
    if args.verify:
        header += ["psi_residual", "pole_residual"]
    meta = _meta(args, ctx, sheet=sheet, parity=args.parity, npoints=args.npoints)
    _write_out(args, meta, header, rows)
    return EXIT_OK


# ── orbit ─────────────────────────────────────────────────────────────────


def cmd_orbit(args) -> int:
    _check_digits(args)
    try:
        sheets = [int(s) for s in args.sheet.split(",")]
    except ValueError:
        raise _ConfigError(f"bad sheet list: {args.sheet!r}")
    if any(k < 1 for k in sheets):
        raise _ConfigError(f"sheets must be positive integers: {args.sheet!r}")
    ctx = _context(args)
    mpar = _spectrum_mpar(args, ctx)
    rows, curves, labels = [], [], []
    meta = _meta(args, ctx, sheets=",".join(str(k) for k in sheets),
                 npoints=args.npoints, log_scale=args.log_scale)
    with ctx.workprec():
        for i, k in enumerate(sheets):
            orbit = trace_orbit(k, args.npoints, mpar, ctx)
            pts = []
            for sigma, eps in orbit.samples:
                rows.append([k, fmt_real(sigma, args.digits),
                             fmt_real(mp.re(eps), args.digits),
                             fmt_real(mp.im(eps), args.digits)])
                if args.log_scale:
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
                       f"{fmt_complex(eps, args.digits)}"
                labels.append((x, y, text))
                meta[f"endpoint_sheet{k}_sigma{tag}"] = fmt_complex(eps, args.digits)
    args.out = args.out or f"orbit.{args.fmt}"
    _write_out(args, meta, ["sheet", "sigma", "re_eps", "im_eps"], rows)
    svg_path = os.path.splitext(args.out)[0] + ".svg"
    _svg_plot(svg_path, curves, labels, meta)
    print(f"wrote {args.out} and {svg_path}")
    return EXIT_OK


# ── selfdual ──────────────────────────────────────────────────────────────


def cmd_selfdual(args) -> int:
    _check_digits(args)
    ctx = _context(args)
    spec = quantize_selfdual(args.level, ctx)
    with ctx.workprec():
        residual = spec.A * spec.lam - spec.Atilde - (spec.n + 1)
        fields = [
            ("n", str(spec.n)),
            ("eps", fmt_real(spec.eps, args.digits)),
            ("log_eps", fmt_real(mp.log(spec.eps), args.digits)),
            ("alpha", fmt_real(spec.alpha, args.digits)),
            ("beta", fmt_real(spec.beta, args.digits)),
            ("lambda", fmt_real(spec.lam, args.digits)),
            ("A", fmt_real(spec.A, args.digits)),
            ("Atilde", fmt_real(spec.Atilde, args.digits)),
            ("B", fmt_real(spec.B, args.digits)),
            ("Btilde", fmt_real(spec.Btilde, args.digits)),
            ("residual", fmt_real(residual, 3)),
        ]
    meta = _meta(args, ctx, level=args.level)
    if args.out or args.fmt == "json":
        _write_out(args, meta, [k for k, _ in fields], [[v for _, v in fields]])
    else:  # CSV to stdout reads as key = value lines
        for k, v in fields:
            print(f"{k} = {v}")
    return EXIT_OK


# ── verify ────────────────────────────────────────────────────────────────

_VERIFY_THETA = "pi/4"  # the coupling every verify check runs at


def cmd_verify(args) -> int:
    from .invariants import INVARIANTS, SEED, run

    if args.quick:
        # --quick fixes the context; a precision or tol asked for besides
        # is refused, not silently dropped
        for flag, value in (
                ("--precision-bits or MIRROR_SPECTRA_PRECISION", args.precision_bits),
                ("--tol", args.tol)):
            if value is not None:
                raise _ConfigError(
                    f"verify --quick runs at 64 bits with that precision's "
                    f"default tol; it takes no {flag}")
        ctx = make_context(64)
    else:
        ctx = _context(args)
    seed = SEED if args.seed is None else args.seed
    print(f"# tool=mirror-spectra {__version__}")
    print(f"# precision_bits={ctx.precision_bits} tol={fmt_tol(ctx.tol)} seed={seed}"
          + (" fault=1" if args.fault else ""))
    mpar = ModularParam.from_theta(_VERIFY_THETA, ctx)
    failures = 0
    for name, _, check in INVARIANTS:
        try:
            worst, threshold = run(check, ctx, mpar, seed, False, args.fault)
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

    def command(name, run, help, theta=True, output=True,
                out_help="output path (default stdout)"):
        """A subparser bound to `run`, with the shared flags it reads: the
        precision flags always, --theta and the output flags where asked,
        --out with the command's own default (out_help)."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        if theta:
            sp.add_argument("--theta", default="pi/4",
                            help="coupling angle (radians or 'pi/4' style)")
        sp.add_argument("--precision-bits", type=int, default=None,
                        help="working precision in bits (default 192)")
        sp.add_argument("--tol", default=None,
                        help="tolerance, a positive decimal such as 1e-400 "
                             "(default derived from precision)")
        if output:
            sp.add_argument("--digits", type=int, default=18,
                            help="significant digits in output (round-half-even)")
            sp.add_argument("--out", default="", help=out_help)
            sp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                            default="csv")
        return sp

    sp = command("spectrum", cmd_spectrum, "quantized states on one sheet")
    sp.add_argument("--sheet", type=int, default=1)
    sp.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    sp.add_argument("--npoints", type=int, default=48)
    sp.add_argument("--verify", action="store_true",
                    help="append eigenfunction residual columns")

    sp = command("orbit", cmd_orbit, "trace eps_k(sigma), write CSV + SVG",
                 out_help="table path (default orbit.csv or orbit.json, by "
                          "--format); the SVG is written beside it")
    sp.add_argument("--sheet", default="1",
                    help="sheet number, or comma list for a joint plot")
    sp.add_argument("--npoints", type=int, default=48)
    sp.add_argument("--log-scale", action="store_true",
                    help="plot log(1+|eps|) e^{i arg eps} instead of eps")

    sp = command("selfdual", cmd_selfdual, "quantize the self-dual level n",
                 theta=False)
    sp.add_argument("--n", dest="level", type=int, default=0)

    sp = command("verify", cmd_verify, "run all invariant suites",
                 theta=False, output=False)
    sp.add_argument("--quick", action="store_true",
                    help="64-bit at that precision's default tol: finishes in seconds")
    sp.add_argument("--fault", action="store_true",
                    help="inject an eps perturbation (negative control)")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the random draws (default: the registry's)")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        env = os.environ.get("MIRROR_SPECTRA_PRECISION")
        if env is not None:
            try:
                args.precision_bits = int(env)
            except ValueError:
                raise _ConfigError(
                    f"MIRROR_SPECTRA_PRECISION must be an integer, got {env!r}")
        return args.run(args)
    except ValueError as exc:           # _ConfigError included
        print(f"mirror-spectra: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"mirror-spectra: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
