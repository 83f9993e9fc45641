#!/usr/bin/env python3
"""Crawl-engine benchmark: one workload per invocation, one driver process.

Run from the repository root::

    python3 perfbench/run.py --workload crawl_parse --seed 1 --seconds 12 --trace 0

Workloads (``perfbench/workloads.py``): ``crawl_parse``, ``crawl_links``,
``frontier_canon`` (the three ``BENCHMARK.json`` lists) and
``corpus_queries``. The loop is closed: the next timed operation starts only
after the previous one has finished and been checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced loop with the layer wrappers installed, then one traced operation,
and prints the per-layer metrics. Stats lines (median, quartiles, sample
count) go to standard output before the last line, which is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs and the Ray session directory live under ``.perfbench/`` in the
repository root. See ``perfbench/NOTES.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS  # noqa: E402

# The operation's wall is per-layer (``op_wall_s``), not end-to-end: on
# crawls it also varies with how many pages the seed's corpus reaches, and
# ``items_per_s`` carries the same signal without that spread.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> span name (perfbench/trace.py) whose self time it reports
SPAN_SELF = {
    "normalize.self_s": "normalize",
    "scheduler.admit_self_s": "scheduler.admit",
    "scheduler.run_wave_self_s": "scheduler.run_wave",
    "scheduler.admit_images_self_s": "scheduler.admit_images",
    "fetchsim.fetch_one_self_s": "fetchsim.fetch_one",
    "domtext.extract_links_self_s": "domtext.extract_links",
    "fetchsim.process_image_self_s": "fetchsim.process_image",
    "crawl.sink_write_s": "crawl.sink_write",
    "crawl.checkpoint_s": "crawl.checkpoint",
    "crawl.actor_init_s": "crawl.actor_init",
    "urlnorm.canonicalize_parts_self_s": "urlnorm.canonicalize_parts",
}

PER_LAYER = {
    **{m: "s" for m in SPAN_SELF},
    "scheduler.candidates": "count",
    "scheduler.dedup_hits": "count",
    "scheduler.admit_ratio": "ratio",
    "scheduler.permits": "count",
    "scheduler.image_keep_ratio": "ratio",
    "state.seen_size": "count",
    "state.cuckoo_add_failures": "count",
    "fetchsim.ok_ratio": "ratio",
    "crawl.gens": "count",
    "crawl.sink_bytes": "bytes",
    "crawl.checkpoint_bytes": "bytes",
    "op_wall_s": "s",
    "crawl.first_gen_s": "s",
    "crawl.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "baseline.single_process_s": "s",
    "webgen.generate_s": "s",
    "error_rate": "ratio",
}


class RssSampler:
    """Peak resident memory of this process and all its descendants (the
    Ray head processes and workers), read from ``/proc`` every
    ``period_s`` seconds on a background thread."""

    def __init__(self, period_s: float = 0.5):
        self.period_s = period_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _tree_rss_kb(root_pid: int) -> int:
        children: dict[int, list[int]] = {}
        rss: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as f:
                    stat = f.read()
                with open(f"/proc/{entry}/statm") as f:
                    pages = int(f.read().split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process ended while we read it
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
            rss[int(entry)] = pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
        total, todo = 0, [root_pid]
        while todo:
            pid = todo.pop()
            total += rss.get(pid, 0)
            todo.extend(children.get(pid, ()))
        return total

    def _loop(self) -> None:
        while True:
            self.peak_kb = max(self.peak_kb, self._tree_rss_kb(os.getpid()))
            if self._stop.wait(self.period_s):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def stolen_s() -> float:
    """Seconds, per core, that the hypervisor ran other guests while this
    process's cores wanted to run (``steal`` in ``/proc/stat``). On a shared
    host it swings from 3 % to 20 % within minutes and is the main source
    of run-to-run spread, so every timed wall here is on-core wall: wall
    time minus the time stolen from the benchmark's cores meanwhile."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    steal = 0
    with open("/proc/stat") as f:
        for line in f:
            fields = line.split()
            if fields[0] in cpus:
                steal += int(fields[8])
    return steal / os.sysconf("SC_CLK_TCK") / len(cpus)


def start_ray(trace_dir: str | None) -> None:
    """``ray.init`` on this machine's cores, with the repository on the
    workers' ``PYTHONPATH``: the engine's lazy imports inside workers
    (``stages/fetchsim.py``, ``pipelines/oracle.py``) are not pickled by
    value, so a driver started outside the repository root needs it."""
    # polars' pool is one thread per core per process; every task and actor
    # is its own process, so one thread each (as bench.py and the CLI do)
    os.environ["POLARS_MAX_THREADS"] = "1"
    import ray

    env = {"PYTHONPATH": ROOT, "POLARS_MAX_THREADS": "1"}
    runtime_env: dict = {"env_vars": env}
    if trace_dir is not None:
        from perfbench import trace

        env[trace.ENV_DIR] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.install_worker"
    temp_dir = os.path.join(ROOT, ".perfbench", "ray")
    # Ray's unix sockets sit ~65 characters below the temp dir and a socket
    # path may not exceed 107; a deeper checkout keeps Ray's default
    if len(temp_dir) > 40:
        print(f"perfbench: {temp_dir} is too long for Ray's sockets; "
              "using Ray's default temp dir", file=sys.stderr)
        temp_dir = None
    ray.init(
        address="local",
        num_cpus=len(os.sched_getaffinity(0)),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 << 20,
        _temp_dir=temp_dir,
        runtime_env=runtime_env,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from spider_ray.compat import tighten_scheduler_cadence

    tighten_scheduler_cadence()


def stats(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_op(wl, run_dir: str, i: int) -> tuple[dict | None, bool]:
    """One timed operation and its correctness check; (result, ok).
    ``res["wall"]`` is on-core wall, ``res["raw_wall"]`` the plain wall."""
    try:
        stolen = stolen_s()
        res = wl.op(run_dir, i)
        res["raw_wall"] = res["wall"]
        res["wall"] -= stolen_s() - stolen
        return res, wl.check(res)
    except Exception:
        traceback.print_exc()
        return None, False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "spider_ray")):
        print(f"perfbench: no spider_ray package under {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    wl = WORKLOADS[args.workload](args.workload, WORK, args.seed, args.toy)
    import ray

    try:
        # input generation is cached and reported apart from setup_s, so a
        # cold and a warm cache give the same setup time
        generate_s = wl.prepare()
        t0, stolen = time.perf_counter(), stolen_s()
        trace_dir = None
        if args.trace:
            from perfbench import trace

            trace_dir = os.path.join(run_dir, "trace")
            os.makedirs(trace_dir)
            trace.install_driver(trace_dir)
        start_ray(trace_dir)
        wl.setup(run_dir)
        setup_s = time.perf_counter() - t0 - (stolen_s() - stolen)

        walls, rates, attempted, failed = [], [], 0, 0
        with RssSampler() as rss:
            deadline = time.perf_counter() + args.seconds
            while attempted == 0 or time.perf_counter() < deadline:
                res, ok = run_op(wl, run_dir, attempted)
                attempted += 1
                if res is not None:
                    print(f"perfbench: op {attempted} ok={ok} on-core "
                          f"{res['wall']:.3f} s, wall {res['raw_wall']:.3f} s",
                          file=sys.stderr)
                if ok:
                    walls.append(res["wall"])
                    rates.append(res["items"] / res["wall"])
                else:
                    failed += 1
                wl.cleanup(res)

        if not args.trace:
            if not walls:
                return 1
            summary = {
                "setup_s": stats([setup_s]),
                "items_per_s": stats(rates),
                "peak_rss_mb": stats([rss.peak_kb / 1024]),
                "op_wall_s": stats(walls),
            }
            metrics = {k: summary[k]["median"] for k in END_TO_END}
            units = {**END_TO_END, "op_wall_s": "s"}
        else:
            trace.set_recording(trace_dir, True)
            res, ok = run_op(wl, run_dir, attempted)
            trace.set_recording(trace_dir, False)
            attempted += 1
            failed += not ok
            if not ok or not walls:
                return 1
            metrics = layer_metrics(
                wl, res, trace.collect(trace_dir), statistics.median(walls)
            )
            metrics["webgen.generate_s"] = generate_s
            metrics["error_rate"] = failed / attempted
            wl.cleanup(res)
            summary = {k: stats([v]) for k, v in metrics.items()}
            units = {k: PER_LAYER.get(k, "s") for k in metrics}
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, s in summary.items():
        print(f"{name:36s} median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} n {s['n']}  [{units[name]}]")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


def layer_metrics(wl, res: dict, spans: dict, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced operation: every ``PER_LAYER``
    metric (0 where the workload does not reach the layer), plus any the
    workload adds (``query.<name>_s`` on ``corpus_queries``)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric, span in SPAN_SELF.items():
        out[metric] = spans.get(span, [0, 0.0])[1]
    _, _, offered, kept = spans.get("scheduler.admit_images", [0, 0.0, 0, 0])
    out["scheduler.image_keep_ratio"] = kept / offered if offered else 0.0
    extra = wl.layers(res)
    out.update(extra)
    layer_s = sum(out[m] for m in SPAN_SELF) + sum(
        v for k, v in extra.items() if k.startswith("query.")
    )
    out["trace.wall_s"] = res["wall"]
    out["crawl.overhead_s"] = res["wall"] - layer_s
    out["trace.overhead_s"] = res["wall"] - untraced_wall
    out["op_wall_s"] = untraced_wall
    out["baseline.single_process_s"] = wl.baseline()
    return out


if __name__ == "__main__":
    sys.exit(main())
