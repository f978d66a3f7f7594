"""Outside-in span tracer for the mirror_spectra layers.

The tracer wraps the public functions of each package module from the
benchmark's own code; nothing in the package is edited.  A name bound by
``from .chi import chi_eval`` is a second reference to the same function
object, so a wrapper is rebound under every module attribute that holds the
original object, not only in the defining module.

Each wrapped call is one frame.  A frame opens a layer span unless the
innermost open span already belongs to the same layer (``chi_check_eval``
calling ``chi_eval`` stays one chi span).  Per function the tracer keeps

* ``calls``  -- every invocation, nested ones included;
* ``time``   -- inclusive time of the outermost invocation of that name only,
                so recursion and re-entry are not counted twice;
* ``self``   -- span time minus child spans of other layers, credited to the
                function that opened the span;
* ``nested`` -- calls of one function made while another is on the stack.

Per layer it keeps span self time.  Spans stay in memory; the benchmark
reads the totals when a job ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer (module of the package) -> public functions wrapped from outside
LAYERS = {
    "precision": ("make_context", "pochhammer_q", "theta1"),
    "chi": ("chi_poly_seq", "chi_eval", "chi_check_eval", "chi_dual_eval",
            "G_eval", "chi_mult_check"),
    "transfer": ("L_eval", "M_n_eval", "chi_via_Minf", "R_orbit",
                 "classify_r_orbit"),
    "spectral": ("wronskian_eval", "wronskian_residue", "solve_eps",
                 "sheet_seed", "sin_theta", "trace_orbit", "quantize",
                 "rho_extract", "factorize"),
    "eigenfunction": ("make_params", "psi_eval", "psi_residual",
                      "pole_cancellation_check"),
    "selfdual": ("gauss_legendre_nodes", "composite_gl", "alpha_beta",
                 "path_funcs", "period_integrals", "quantize_selfdual",
                 "canonical_integral", "leg_integral", "phi_eval",
                 "psi_selfdual"),
    "cli": ("main",),
}


class TraceError(RuntimeError):
    """A wrapped name is missing, or a required layer recorded no calls."""


def package_modules(package: str):
    """The loaded package module and all of its loaded submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def rebind(original, replacement, modules):
    """Point every module attribute that holds ``original`` at ``replacement``.

    Returns the (module, attribute) pairs changed, so they can be put back.
    """
    changed = []
    for mod in modules:
        names = [k for k, v in vars(mod).items() if v is original]
        for name in names:
            setattr(mod, name, replacement)
            changed.append((mod, name))
    return changed


class Tracer:
    """Counts and times calls into the package's layers.

    ``clock`` is injectable so the span arithmetic can be tested with
    synthetic times.
    """

    def __init__(self, package: str = "mirror_spectra", layers=None,
                 clock=time.perf_counter):
        self.package = package
        self.layers = LAYERS if layers is None else layers
        self.clock = clock
        self.calls = Counter()
        self.time = Counter()
        self.self_time = Counter()
        self.layer_self = Counter()
        self.nested = Counter()
        self._frames = []            # (key, start, opened_span)
        self._spans = []             # [layer, start, child_time]
        self._active = Counter()     # key -> depth on the frame stack
        self._undo = []

    # ── span bookkeeping ──────────────────────────────────────────────────

    def enter(self, key):
        self.calls[key] += 1
        for outer in self._active:
            self.nested[(outer, key)] += 1
        self._active[key] += 1
        now = self.clock()
        opened = not self._spans or self._spans[-1][0] != key[0]
        if opened:
            self._spans.append([key[0], now, 0.0])
        self._frames.append((key, now, opened))

    def exit(self):
        now = self.clock()
        key, start, opened = self._frames.pop()
        dur = now - start
        self._active[key] -= 1
        if not self._active[key]:
            del self._active[key]
            self.time[key] += dur
        if opened:
            layer, _, child = self._spans.pop()
            own = dur - child
            self.layer_self[layer] += own
            self.self_time[key] += own
            if self._spans:
                self._spans[-1][2] += dur

    # ── installation ──────────────────────────────────────────────────────

    def _wrap(self, key, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def install(self):
        """Wrap every listed name; TraceError if one is missing."""
        if self._undo:
            raise TraceError("tracer is already installed")
        modules = package_modules(self.package)
        try:
            for layer, names in self.layers.items():
                mod = sys.modules.get(f"{self.package}.{layer}")
                if mod is None:
                    raise TraceError(f"layer module {self.package}.{layer} is not loaded")
                for name in names:
                    fn = getattr(mod, name, None)
                    if not callable(fn):
                        raise TraceError(f"wrapped name {layer}.{name} is missing")
                    wrapped = self._wrap((layer, name), fn)
                    self._undo.append((fn, rebind(fn, wrapped, modules)))
        except TraceError:
            self.uninstall()
            raise

    def uninstall(self):
        """Put every original function back where it was bound."""
        while self._undo:
            fn, changed = self._undo.pop()
            for mod, name in changed:
                setattr(mod, name, fn)

    def require(self, keys):
        """TraceError naming each required (layer, name) that saw no call."""
        silent = sorted(f"{layer}.{name}" for layer, name in keys
                        if not self.calls[(layer, name)])
        if silent:
            raise TraceError("no calls recorded for " + ", ".join(silent))

