"""Benchmark runner for toricplex: seeded query workloads, checked answers.

    python3 bench/run.py --workload zcover-fresh --seed 1 --seconds 20 --trace 0

Single process, single thread, closed loop: one client sends the next query
only when the previous answer is back.  Each run executes in fresh
interpreters (see worker.py), so the library's unbounded caches and peak
memory never carry over from one run or workload to the next.

--trace 0 prints the end-to-end metrics: throughput, median and 95th
percentile latency, set-up time and peak resident memory.  Nothing is
patched.  --trace 1 runs a fixed number of queries twice, untraced and
traced, in separate fresh interpreters, and prints the per-layer metrics
from the traced run plus the tracing overhead; its counts repeat exactly for
a given seed.  Either way every answer is checked after the timed loop, and
the last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import STAT_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("zcover-fresh", "strata-hot", "ranks-mixed")

# Typical queries per second on a 2-core x86 machine.  Fixed-work parts of a
# run do half this many queries per second of --seconds: a traced run's two
# halves (untraced, then traced), so its counts repeat exactly, and the point
# where an untraced run reads its peak memory.
NOMINAL_QPS = {"zcover-fresh": 25, "strata-hot": 174, "ranks-mixed": 60}
SETUP_REPEATS = 7        # set-up is measured in this many fresh interpreters
TIME_LIMIT_S = 170.0     # a run never takes longer than this


class RunError(Exception):
    pass


def worker(deadline: float, **opts) -> dict:
    cmd = [sys.executable, "-S", "-E", "-X", f"pycache_prefix={OUT / 'pycache'}",
           str(BENCH / "worker.py")]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {TIME_LIMIT_S:.0f} s time limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def throughput(latencies, window: int) -> float:
    """Median over whole windows of queries per second of query time.

    The median of windows resists a stretch of the run slowed by other work
    on the machine; a run shorter than one window uses all its queries.
    """
    rates = [window / sum(latencies[k:k + window])
             for k in range(0, len(latencies) - window + 1, window)]
    return statistics.median(rates) if rates else len(latencies) / sum(latencies)


def fixed_count(workload: str, seconds: float) -> int:
    return max(10, math.ceil(NOMINAL_QPS[workload] * seconds / 2))


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    setups = [worker(deadline, workload=workload, seed=seed, mode="setup")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    run = worker(deadline, workload=workload, seed=seed, mode="timed", seconds=seconds,
                 rss_at=fixed_count(workload, seconds))
    setups.append(run["setup_s"])
    lat = sorted(run["latencies"])
    n = len(lat)
    p50, _ = percentile(lat, 0.50)
    p95, beyond = percentile(lat, 0.95)
    metrics = {
        "queries_per_s": (throughput(run["latencies"], run["window"]), "1/s"),
        "query_p50_ms": (p50 * 1e3, "ms"),
        "query_p95_ms": (p95 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"{n} queries in {run['busy_s']:.2f} s of query time; "
        f"{beyond} samples beyond p95",
        f"failed_ratio {len(run['failures']) / n:.6g} ({len(run['failures'])}/{n})",
        f"set-up times {', '.join(f'{s:.4f}' for s in setups)} s; "
        f"checks took {run['check_s']:.2f} s",
        "cache_entries at end of run: "
        + ", ".join(f"{k} {v}" for k, v in run["cache_entries"].items()),
    ]
    if beyond < 10:
        notes.append("warning: fewer than 10 samples beyond p95")
    return run["attempted"], run["failures"], metrics, notes


def traced(workload: str, seed: int, seconds: float, deadline: float):
    count = fixed_count(workload, seconds)
    spans = OUT / f"spans-{workload}.bin"
    plain = worker(deadline, workload=workload, seed=seed, mode="count", queries=count, check=0)
    run = worker(deadline, workload=workload, seed=seed, mode="count", queries=count,
                 trace=1, spans=spans)
    failures = list(run["failures"])
    if plain["digest"] != run["digest"]:
        failures.append("traced and untraced runs gave different answers")
    metrics = {name: (value, STAT_UNITS[name.rsplit(".", 1)[1]])
               for name, value in run["layers"].items()}
    metrics["trace_overhead_ratio"] = (run["busy_s"] / plain["busy_s"], "ratio")
    notes = [
        f"{count} queries, traced {run['busy_s']:.2f} s vs untraced {plain['busy_s']:.2f} s; "
        f"{run['spans']} spans written to {spans.relative_to(ROOT)}; "
        f"traced process peak memory {run['peak_rss_mb']:.1f} MB",
        f"failed_ratio {len(failures) / count:.6g} ({len(failures)}/{count})",
    ]
    return run["attempted"], failures, metrics, notes


def run_workload(workload, seed, seconds, trace, deadline):
    attempted, failures, metrics, notes = (traced if trace else untraced)(
        workload, seed, seconds, deadline)
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}; "
          "1 process, 1 thread, closed loop)")
    for note in notes:
        print(f"   {note}")
    for name, (value, unit) in metrics.items():
        print(f"   {name} = {value:.6g} {unit}")
    for failure in failures[:20]:
        print(f"   FAILED {failure}")
    return attempted, len(failures), {name: {"value": value, "unit": unit}
                                      for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + TIME_LIMIT_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            if len(workloads) > 1:
                deadline = time.monotonic() + TIME_LIMIT_S
            a, f, m = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            attempted += a
            failed += f
            prefix = f"{workload}:" if len(workloads) > 1 else ""
            metrics.update({prefix + name: value for name, value in m.items()})
    except RunError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
