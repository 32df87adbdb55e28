"""Self-tests of the benchmark itself; exits non-zero on the first failure.

    python3 bench/selftest.py

1. Smoke: every workload runs a handful of queries, untraced and traced;
   every check passes, and exactly the metrics BENCHMARK.json lists are
   printed, each with the unit it lists.
2. Count determinism: two traced runs with the same seed report identical
   ``calls``, ``cells`` and ``cache_entries`` on every workload.
3. Seeds: one seed always generates the same inputs, another seed different
   ones.
4. A directory holding only BENCHMARK.json and the benchmark's own files
   makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
SMOKE_SECONDS = 0.5
COUNT_STATS = (".calls", ".cells", ".cache_entries")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def run_ok(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", str(SMOKE_SECONDS), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    printed = dict(re.findall(r"^\s+(\S+) = \S+ (\S+)$", proc.stdout, re.M))
    return result, printed


def test_smoke(spec):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in (w["name"] for w in spec["workloads"]):
            result, printed = run_ok(workload, SEED, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == expected, (workload, trace, set(units) ^ set(expected))
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))
            print(f"ok   smoke {workload} trace={trace}: {result['attempted']} queries")


def test_count_determinism(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for _ in range(2):
            result, _ = run_ok(workload, SEED, 1)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(COUNT_STATS)})
        assert counts[0] == counts[1], (workload, {
            k for k in counts[0] if counts[0][k] != counts[1][k]})
        print(f"ok   counts repeat for {workload}: {len(counts[0])} count metrics")


def test_seeds(spec):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    for workload in (w["name"] for w in spec["workloads"]):
        def inputs(seed):
            return [q.key for q in islice(workloads.stream(workload, seed), 40)]
        assert inputs(SEED) == inputs(SEED), workload
        assert inputs(SEED) != inputs(SEED + 1), workload
        print(f"ok   seeds for {workload}: same seed same inputs, new seed new inputs")


def test_bare_directory(spec):
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok   without the library source the benchmark fails and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for test in (test_seeds, test_bare_directory, test_smoke, test_count_determinism):
        test(spec)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
