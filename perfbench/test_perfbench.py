"""Tests of the benchmark's own logic: output checks, percentile rule,
span arithmetic, rebinding and the cold-cache reset.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import types

import pytest
from mpmath import mp

from run import (ROOT, ColdState, end_to_end_metrics, layer_metrics, min_samples,
                 percentile, samples_beyond, tail_pct, trace_metrics)
from speed import REFERENCE_S, SpeedProbe
from tracer import Tracer, TraceError
from workloads import (SHEET2_EVEN, SHEET2_ODD, SHEET2_TOL, WORKLOADS, EigenGrid,
                       sheet2_deviation)

# ── golden checker ────────────────────────────────────────────────────────


def golden_rows():
    rows = []
    for parity, table in (("odd", SHEET2_ODD), ("even", SHEET2_EVEN)):
        for sigma, re_eps, im_eps in table:
            if sigma == "sin/2":
                sigma = "0.353553390593273762"   # as the CLI prints it
            rows.append({"parity": parity, "sigma": sigma,
                         "re_eps": re_eps, "im_eps": im_eps})
    return rows


def bump_digit(text: str, place: int) -> str:
    """Change the digit `place` positions after the decimal point by one."""
    i = text.index(".") + place
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_golden_rows_pass():
    assert sheet2_deviation(golden_rows(), 128) <= mp.mpf(SHEET2_TOL)


@pytest.mark.parametrize("row", range(6))
@pytest.mark.parametrize("field", ["sigma", "re_eps", "im_eps"])
def test_one_digit_perturbation_is_rejected(row, field):
    rows = golden_rows()
    value = rows[row][field]
    if "." not in value:                   # Re eps = 0 of the middle state
        value = "0.000000000"
    rows[row][field] = bump_digit(value, 8)
    assert sheet2_deviation(rows, 128) > mp.mpf(SHEET2_TOL)


def test_missing_state_is_rejected():
    assert sheet2_deviation(golden_rows()[1:], 128) == mp.inf


# ── tail percentile ───────────────────────────────────────────────────────


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile(list(range(1, 101)), 95) == 95
    assert percentile([7.0], 95) == 7.0


def test_tail_rule_keeps_ten_samples_beyond():
    n = min_samples(95)
    assert n == 200
    assert samples_beyond(n, 95) >= 10 > samples_beyond(n - 1, 95)
    samples = [float(i) for i in range(n)]
    p95 = percentile(samples, 95)
    assert sum(s > p95 for s in samples) >= 10


def test_eigen_grid_collects_enough_for_p95():
    pairs = 2 * EigenGrid.pairs_per_state
    assert EigenGrid.jobs_per_run(0.1, False) * pairs >= min_samples(95)


@pytest.mark.parametrize("cls", WORKLOADS.values(), ids=list(WORKLOADS))
def test_job_count_fills_the_seconds(cls):
    jobs = cls.jobs_per_run(15, False)
    assert jobs >= cls.min_jobs and jobs * cls.job_s >= 15
    assert (jobs - 1) * cls.job_s < 15 or jobs == cls.min_jobs
    assert cls.jobs_per_run(0.1, True) == max(2, cls.min_jobs)


def test_eigen_grid_lattice_share_is_exact():
    """Each job draws exactly one pair in lattice_every on the lattice, so
    the failed count of the known defect does not depend on the seed."""
    slots = range(EigenGrid.pairs_per_state)
    assert EigenGrid.pairs_per_state % EigenGrid.lattice_every == 0
    assert sum(s % EigenGrid.lattice_every == 0 for s in slots) == \
        EigenGrid.pairs_per_state // EigenGrid.lattice_every


def test_tail_percentile_falls_back_when_samples_are_few():
    assert tail_pct(200) == 95
    assert tail_pct(199) == 90
    assert tail_pct(40) == 75
    assert tail_pct(3) == 50


# ── speed scaling ─────────────────────────────────────────────────────────


def test_work_clock_leaves_probe_time_out():
    probe = SpeedProbe()
    t0 = probe.work_clock()
    for _ in range(5):
        probe.probe()
    assert len(probe.samples) == 5 and probe.busy > 0
    assert probe.work_clock() - t0 < probe.busy


def test_factor_scales_by_mean_probe_time_since_mark():
    probe = SpeedProbe()
    probe.samples = [9.0, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert probe.factor(1) == pytest.approx(1 / 3)
    assert probe.factor(2) == pytest.approx(1 / 4)


def test_sampling_probes_on_both_sides_and_restores_the_handler():
    import signal
    probe = SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        pass
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ── span arithmetic ───────────────────────────────────────────────────────


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def step(tr, clock, t, key=None):
    """Advance the synthetic clock to t, then enter key (or exit)."""
    clock.now = t
    if key is None:
        tr.exit()
    else:
        tr.enter(key)


def test_self_time_on_nested_spans():
    clock = Clock()
    tr = Tracer(clock=clock)
    main, quant = ("cli", "main"), ("spectral", "quantize")
    chi, chk = ("chi", "chi_eval"), ("chi", "chi_check_eval")
    # main [0,10] > quantize [1,9] > chi_eval [2,4], chi_check_eval [5,8] > chi_eval [6,7]
    for t, key in ((0, main), (1, quant), (2, chi), (4, None), (5, chk),
                   (6, chi), (7, None), (8, None), (9, None), (10, None)):
        step(tr, clock, t, key)
    assert tr.layer_self == {"cli": 2, "spectral": 3, "chi": 5}
    assert sum(tr.layer_self.values()) == 10
    assert tr.calls[chi] == 2 and tr.calls[chk] == 1
    assert tr.time[chi] == 3 and tr.time[chk] == 3 and tr.time[main] == 10
    # the chi_eval inside chi_check_eval stays part of the outer chi span
    assert tr.self_time[chk] == 3 and tr.self_time[chi] == 2
    assert tr.nested[(quant, chi)] == 2 and tr.nested[(chk, chi)] == 1


def test_layer_metrics_scale_times_but_not_counts():
    clock = Clock()
    tr = Tracer(clock=clock)
    orbit, chi = ("spectral", "trace_orbit"), ("chi", "chi_eval")
    # trace_orbit [0,6] > chi_eval [1,3], chi_eval [4,5]
    for t, key in ((0, orbit), (1, chi), (3, None), (4, chi), (5, None), (6, None)):
        step(tr, clock, t, key)
    m = layer_metrics(tr, npoints=3, factor=0.5)
    assert m["chi.chi_eval.calls"] == (2, "count")
    assert m["chi.chi_eval.s"] == (1.5, "s")
    assert m["chi.chi_eval.us_per_call"] == (0.75e6, "us")
    assert m["spectral.trace_orbit.s"] == (3.0, "s")
    assert m["spectral.self_s"] == (1.5, "s")
    assert m["spectral.chi_calls_per_node"] == (1.0, "calls/node")
    mean = trace_metrics([m, layer_metrics(tr, 3, 1.0)], 1.1)
    assert mean["chi.chi_eval.s"] == (2.25, "s")
    assert mean["chi.chi_eval.calls"] == (2, "count")
    assert mean["trace.overhead_ratio"] == (1.1, "ratio")


def test_recursive_call_is_timed_once():
    clock = Clock()
    tr = Tracer(clock=clock)
    phi = ("selfdual", "phi_eval")
    for t, key in ((0, phi), (1, phi), (3, None), (4, None)):
        step(tr, clock, t, key)
    assert tr.calls[phi] == 2
    assert tr.time[phi] == 4
    assert tr.layer_self["selfdual"] == 4


# ── rebinding and required calls ──────────────────────────────────────────


@pytest.fixture()
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work            # as `from .core import work` binds it
    user.run = lambda x: user.work(x)
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user, work


def test_wrapper_is_rebound_in_every_importing_module(fake_package):
    core, user, work = fake_package
    tr = Tracer("fakepkg", layers={"core": ("work",)})
    tr.install()
    assert core.work is not work and user.work is core.work
    assert user.run(1) == 2
    tr.require([("core", "work")])
    tr.uninstall()
    assert core.work is work and user.work is work
    assert tr.calls[("core", "work")] == 1


def test_missing_name_fails_install(fake_package):
    core, _, work = fake_package
    tr = Tracer("fakepkg", layers={"core": ("work", "gone")})
    with pytest.raises(TraceError, match="core.gone"):
        tr.install()
    assert core.work is work


def test_silent_layer_fails_require(fake_package):
    tr = Tracer("fakepkg", layers={"core": ("work",)})
    with pytest.raises(TraceError, match="core.work"):
        tr.require([("core", "work")])


# ── cold caches ───────────────────────────────────────────────────────────


def test_cold_state_restores_import_time_caches():
    mod = types.ModuleType("fakecache")
    mod.CACHE = {}
    mod.TABLE = {1: 2}
    cold = ColdState([mod])
    mod.CACHE["key"] = "filled"
    mod.TABLE[3] = 4
    cold.reset()
    assert mod.CACHE == {} and mod.TABLE == {1: 2}


# ── metric names ──────────────────────────────────────────────────────────


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    e2e = end_to_end_metrics(0.5, [1.0])
    layers = trace_metrics([layer_metrics(Tracer(), 48, 1.0)], 1.0)
    for printed, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {k: u for k, (_, u) in printed.items()} == \
            {m["name"]: m["unit"] for m in listed}
