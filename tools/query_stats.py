"""Per-query Ray Data execution-stats dump — the tuning loop's instrument.

Runs one (or every) ``queries()`` entry and prints the pipeline's
``ds.stats()`` stage breakdown (per-stage wall time, block counts, task
counts, output rows/bytes) when the query returns a Dataset, or the
end-to-end wall time when it returns a materialized table (most queries
materialize internally; their per-stage costs still appear in the Ray Data
log lines this prints after the run).

Starts a local Ray session sized to this process's CPU affinity unless one
is already running.

Usage:  python tools/query_stats.py [sf_dir] <query> [query ...]
        python tools/query_stats.py /root/testdata/sf0.1 union_dedup
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray


def main() -> int:
    args = sys.argv[1:]
    sf = args.pop(0) if args and os.path.isdir(args[0]) else "/root/testdata/sf0.1"
    if not ray.is_initialized():
        os.environ.setdefault("POLARS_MAX_THREADS", "1")  # 1 thread/worker
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, logging_level="ERROR")
    from spider_ray.compat import tighten_scheduler_cadence

    tighten_scheduler_cadence()
    import __ray_entry__ as E

    qs = E.queries()
    names = args or list(qs)
    for name in names:
        if name not in qs:
            print(f"unknown query: {name}")
            return 2
        t0 = time.time()
        res = qs[name](sf)
        # force materialization for lazy results
        if hasattr(res, "stats"):
            res = res.materialize()
            wall = time.time() - t0
            print(f"=== {name}: {wall:.2f} s ===")
            print(res.stats())
        else:
            n = res.num_rows if hasattr(res, "num_rows") else len(res)
            wall = time.time() - t0
            print(f"=== {name}: {wall:.2f} s, {n} rows (materialized table; "
                  "stage stats in the Ray Data INFO log) ===")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
