"""Benchmark of the mirror-spectra solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum_s2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run is a fresh process with one client in a closed loop: the next job
starts when the previous one returns.  A run makes a fixed number of jobs,
chosen from ``--seconds`` and the workload's nominal job time
(workloads.Workload.jobs_per_run), never from the clock, so that every run
checks the same number of operations and the failed count repeats exactly.
Every job starts from the package's import-time cache state, because a CLI
user pays every cache fill on every invocation.  Outputs are checked
outside the timed region.

Times are scaled to a reference machine speed (see speed.py): the raw wall
times of identical runs on a shared 2-vCPU virtual machine spread too widely
for a regression bound.  The raw medians are printed on '#' lines next to
them.

``--trace 0`` prints the end-to-end metrics:

    setup_s      median over SETUP_REPS fresh processes of interpreter start,
                 package import, make_context and ModularParam.from_theta;
                 input generation is not part of it
    wall_s       median job time (one job: see workloads.py), up to the
                 outputs the checks read
    peak_rss_mb  peak resident memory of the run process

and, on '#' lines, the operation latency p50 and p95 with the sample count
(one psi_eval pair on eigen_grid, one CLI command on the others) and the
check tally with its fail ratio.

``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics (mean per traced job, times scaled like the end-to-end ones) plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  ``correct`` is false when a check fails for a reason other
than the recorded known defect (see workloads.KNOWN_LATTICE_ERR); ``failed``
counts every check that missed its tolerance.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import mpmath

from speed import SpeedProbe
from tracer import LAYERS, Tracer, package_modules
from workloads import WORKLOADS, Tally

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "mirror_spectra"
# overrides --precision-bits inside the CLI; never inherited by a run
PRECISION_ENV = "MIRROR_SPECTRA_PRECISION"
SETUP_REPS = 15
SETUP_PROBES = 3     # speed probes on each side of one set-up
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mirror_spectra as m; "
    "m.ModularParam.from_theta('pi/4', m.make_context(int(sys.argv[2]), float(sys.argv[3])))"
)


# ── statistics ────────────────────────────────────────────────────────────


def percentile(samples, pct: int):
    """Nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: int) -> int:
    """Samples strictly above the nearest-rank pct percentile of n samples."""
    return n - max(1, -(-pct * n // 100))


def min_samples(pct: int, beyond: int = 10) -> int:
    """Fewest samples that leave `beyond` of them above the pct percentile."""
    n = 1
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


def tail_pct(n: int, beyond: int = 10) -> int:
    """The highest of p95, p90, p75, p50 that leaves `beyond` samples above
    it among n samples; 50 when none does."""
    return next((p for p in (95, 90, 75) if samples_beyond(n, p) >= beyond), 50)


# ── environment and set-up ────────────────────────────────────────────────


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": nproc, "cpu": cpu}


def child_env():
    env = dict(os.environ)
    env.pop(PRECISION_ENV, None)
    return env


def measure_setup(bits: int, tol: float, probe: SpeedProbe):
    """(scaled, raw) medians over SETUP_REPS fresh processes of start to
    ready: interpreter, package import, make_context and
    ModularParam.from_theta.  Each set-up is scaled by the probes taken
    just before and after it."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        mark = probe.mark()
        for _ in range(SETUP_PROBES):
            probe.probe()
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms and the
        # measured time snaps to that grid
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, str(bits), repr(tol)],
                       env=child_env(), check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        for _ in range(SETUP_PROBES):
            probe.probe()
        raw.append(dt)
        scaled.append(dt * probe.factor(mark))
    return statistics.median(scaled), statistics.median(raw)


def import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    ms = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    where = os.path.dirname(os.path.abspath(ms.__file__))
    if where != os.path.join(SRC, PACKAGE):
        raise ImportError(f"{PACKAGE} imported from {where}, not from {SRC}")
    return ms


class ColdState:
    """Module-level caches of the package, put back to their import-time
    contents before each job.  Functions with ``cache_clear`` (lru_cache)
    are emptied too, so a cache added to the package later stays cold."""

    def __init__(self, modules):
        self.containers = []
        self.lru = []
        for mod in modules:
            for name, val in vars(mod).items():
                if name.startswith("__"):
                    continue
                if isinstance(val, (dict, list, set)):
                    self.containers.append((val, val.copy()))
                elif callable(getattr(val, "cache_clear", None)):
                    self.lru.append(val)

    def reset(self):
        for obj, snapshot in self.containers:
            if isinstance(obj, list):
                obj[:] = snapshot
            else:
                obj.clear()
                obj.update(snapshot)
        for fn in self.lru:
            fn.cache_clear()


# ── metrics ───────────────────────────────────────────────────────────────


def end_to_end_metrics(setup_s: float, walls):
    """End-to-end metrics of an untraced run: name -> (value, unit)."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tr, npoints: int, factor: float):
    """Per-layer metrics of one traced job; times scaled by the job's speed
    factor like the end-to-end times."""
    calls, times, nested = tr.calls, tr.time, tr.nested
    chi = ("chi", "chi_eval")
    psi = ("eigenfunction", "psi_eval")
    orbit = ("spectral", "trace_orbit")

    def secs(v):
        return v * factor

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "chi.chi_eval.calls": (calls[chi], "count"),
        "chi.chi_eval.s": (secs(times[chi]), "s"),
        "chi.chi_eval.us_per_call": (1e6 * ratio(secs(times[chi]), calls[chi]), "us"),
        "precision.theta1.calls": (calls[("precision", "theta1")], "count"),
        "precision.theta1.s": (secs(times[("precision", "theta1")]), "s"),
        "spectral.trace_orbit.s": (secs(times[orbit]), "s"),
        "spectral.quantize.s": (secs(times[("spectral", "quantize")]), "s"),
        "spectral.solve_eps.calls": (calls[("spectral", "solve_eps")], "count"),
        "spectral.chi_calls_per_node": (
            ratio(nested[(orbit, chi)], npoints - 1 if npoints else 0), "calls/node"),
        "eigenfunction.make_params.s": (secs(times[("eigenfunction", "make_params")]), "s"),
        "eigenfunction.psi_eval.calls": (calls[psi], "count"),
        "eigenfunction.psi_eval.self_s": (secs(tr.self_time[psi]), "s"),
        "eigenfunction.chi_calls_per_psi": (ratio(nested[(psi, chi)], calls[psi]), "calls/psi"),
        "selfdual.quantize_selfdual.s": (secs(times[("selfdual", "quantize_selfdual")]), "s"),
        "selfdual.period_integrals.calls": (calls[("selfdual", "period_integrals")], "count"),
        "selfdual.period_integrals.s": (secs(times[("selfdual", "period_integrals")]), "s"),
        "selfdual.composite_gl.calls": (calls[("selfdual", "composite_gl")], "count"),
        "selfdual.composite_gl.s": (secs(times[("selfdual", "composite_gl")]), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (secs(tr.layer_self[layer]), "s")
    return m


def trace_metrics(per_job, overhead: float):
    """Mean of the per-layer metrics over the traced jobs, plus the tracing
    overhead (median traced over median untraced job time)."""
    m = {name: (statistics.fmean(job[name][0] for job in per_job), unit)
         for name, (_, unit) in per_job[0].items()}
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ── one run ───────────────────────────────────────────────────────────────


def pin_to_one_cpu():
    """Keep this process, and the set-up processes it starts, on one CPU, so
    that the speed probe always measures the CPU the timed code runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(workload: str, seed: int, seconds: float, trace: bool):
    cls = WORKLOADS[workload]
    env = environment()
    pin_to_one_cpu()
    probe = SpeedProbe()
    setup = None if trace else measure_setup(cls.bits, cls.tol, probe)
    ms = import_package()
    cold = ColdState(package_modules(PACKAGE))
    tally = Tally()
    plain, traced, raw, ops, layers = [], [], [], [], []
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = cls(ms, tmpdir, seed)
        for _ in range(cls.jobs_per_run(seconds, trace)):
            use_trace = trace and len(traced) < len(plain)
            cold.reset()
            if use_trace:
                # layer times leave the probe out, like the job times
                tracer = Tracer(PACKAGE, clock=probe.work_clock)
                tracer.install()
            mark = probe.mark()
            try:
                with probe.sampling():
                    t0 = probe.work_clock()
                    job_ops, result = wl.job(probe.work_clock)
                    wall = probe.work_clock() - t0
            finally:
                if use_trace:
                    tracer.uninstall()
            factor = probe.factor(mark)
            if use_trace:
                tracer.require(cls.required)
                traced.append(wall * factor)
                layers.append(layer_metrics(tracer, wl.npoints, factor))
            else:
                plain.append(wall * factor)
                raw.append(wall)
                ops.extend(op * factor for op in job_ops)
            wl.check(result, tally)
        wl.final_check(tally)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if trace:
        metrics = trace_metrics(layers, statistics.median(traced) / statistics.median(plain))
    else:
        metrics = end_to_end_metrics(setup[0], plain)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload} seed {seed} seconds {seconds} trace {int(trace)}: "
          f"{len(plain)} untraced jobs, {len(traced)} traced jobs")
    print(f"# speed: {len(probe.samples)} probes, median {1e3 * statistics.median(probe.samples):.4g} ms")
    if not trace:
        print(f"# raw (unscaled) medians: setup {setup[1]:.6g} s, wall {statistics.median(raw):.6g} s")
    tail = tail_pct(len(ops))
    latency = [f"{wl.op_label}_p{p} {1e3 * percentile(ops, p):.6g} ms"
               for p in sorted({50, tail})]
    print(f"# {', '.join(latency)} over {len(ops)} samples "
          f"({samples_beyond(len(ops), tail)} beyond p{tail})")
    print(f"# checks: attempted {tally.attempted} failed {tally.failed} "
          f"fail_ratio {tally.failed / tally.attempted:.6g} "
          f"unexplained {len(tally.unexpected)}")
    for what in tally.unexpected[:20]:
        print(f"# FAIL {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], env=child_env())
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.pop(PRECISION_ENV, None)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
