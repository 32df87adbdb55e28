"""One benchmark run of one workload in a fresh interpreter.

Started by ``run.py``, never by hand: every run gets its own process, so the
library's unbounded lru caches and the peak resident memory of one run never
leak into the next.  Prints one JSON object on its last stdout line.

Modes:
  setup   import and build the first query, then stop (set-up time only);
  timed   run queries until --seconds of query time have passed; peak
          memory is read after --rss-at queries (or at the end, if sooner),
          so it reflects a fixed amount of work rather than machine speed;
  count   run exactly --queries queries (fixed work, for traced runs).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import toricplex from this checkout's source tree and nowhere else."""
    if not (SRC / "toricplex" / "__init__.py").is_file():
        raise SystemExit(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricplex
    if Path(toricplex.__file__).resolve().parent != SRC / "toricplex":
        raise SystemExit(f"imported toricplex from {toricplex.__file__}, not {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "count"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--queries", type=int, default=0)
    ap.add_argument("--rss-at", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    import_library()
    import tracing
    import workloads
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    queries = workloads.stream(args.workload, args.seed)
    first = next(queries)
    setup_s = time.perf_counter() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    done = []            # (query, answer or exception)
    latencies = []
    busy = 0.0
    peak_rss_mb = None
    query = first
    while True:
        if tracer:
            tracer.begin_query(len(done))
        start = time.perf_counter()
        try:
            answer = query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            answer = exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_query()
        done.append((query, answer))
        latencies.append(elapsed)
        busy += elapsed
        if len(done) == args.rss_at:
            peak_rss_mb = peak_rss()
        if args.mode == "timed" and busy >= args.seconds:
            break
        if args.mode == "count" and len(done) >= args.queries:
            break
        query = next(queries)
    if tracer:
        tracer.uninstall()

    out = {
        "setup_s": setup_s,
        "busy_s": busy,
        "window": workloads.WINDOW_QUERIES[args.workload],
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb or peak_rss(),
        "cache_entries": {name: cached.cache_info().currsize
                          for name, cached in tracing.lru_caches().items()},
        "digest": digest(answer for _, answer in done),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.span_count()
        if args.spans:
            tracer.write(Path(args.spans))
    if args.check:
        start = time.perf_counter()
        out["failures"] = check(done, workloads.CheckFailure)
        out["check_s"] = time.perf_counter() - start
    out["attempted"] = len(done)
    print(json.dumps(out))


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(answers) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update(repr(answer).encode())
        h.update(b"\0")
    return h.hexdigest()


def check(done, check_failure) -> list[str]:
    """Failure messages, one per failed query, in query order.

    A query repeated with identical inputs must repeat its first answer; the
    first answer for each input is checked by its independent route.
    """
    failures = []
    first_answer = {}
    for k, (query, answer) in enumerate(done):
        try:
            if isinstance(answer, Exception):
                raise answer
            if query.key in first_answer:
                if repr(answer) != repr(first_answer[query.key]):
                    raise check_failure("repeated query changed its answer")
                continue
            first_answer[query.key] = answer
            query.check(answer)
        except Exception as exc:  # report every failure and keep checking
            failures.append(f"query {k} ({query.kind} {query.key}): "
                            f"{type(exc).__name__}: {exc}")
    return failures


if __name__ == "__main__":
    main()
