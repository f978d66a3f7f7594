"""The benchmark's workloads and their checks on the real package.

``perfbench/run.py`` checks every job's outputs and, once per run, the
per-run values (``final_check``); they read the package through CLI
columns, return shapes and record attributes.  These tests run one job of
each workload and both checks, so a change to anything the checks read
fails here, not only in a benchmark run.
"""

import os
import sys
import time

import pytest

import mirror_spectra
import mirror_spectra.cli  # the CLI workloads call cli.main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracer import package_modules  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_job_passes_its_checks(name, tmp_path, monkeypatch):
    # SelfdualLevels rebinds quantize_selfdual in every package module that
    # holds it and keeps no undo: monkeypatch puts each binding back
    original = mirror_spectra.selfdual.quantize_selfdual
    for mod in package_modules("mirror_spectra"):
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, val)
    workload = WORKLOADS[name](mirror_spectra, str(tmp_path), 1)
    _, result = workload.job(time.perf_counter)
    tally = Tally()
    workload.check(result, tally)
    workload.final_check(tally)
    assert tally.attempted > 0
    assert tally.unexpected == []
