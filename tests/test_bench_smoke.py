"""Smoke test of what the benchmark reads from the library.

``bench/`` wraps 19 library functions by name, reads the ``cache_info()`` of
two ``lru_cache``s and checks answers with ``exact.Series``,
``lieranks.clique_polynomial`` and ``raag_lcs_ranks``.  A rename in the
library breaks only the benchmark run, so these tests run a short benchmark
of every workload, traced and untraced: the untraced run is the mode that
measures the end-to-end metrics, with its set-up interpreters and its
peak-memory reading.  Their output goes to the ignored ``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _short_run_of_all_workloads(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_short_traced_run_of_all_workloads():
    _short_run_of_all_workloads(1)


def test_short_untraced_run_of_all_workloads():
    _short_run_of_all_workloads(0)
