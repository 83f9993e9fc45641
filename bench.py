#!/usr/bin/env python
"""Benchmark harness (driver-run per round → BENCH_r{N}.json).

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) plus the crawl engine and frontier-throughput
pipelines over a deterministic synthetic corpus under /tmp, with
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS or 32)``; prints ONE
JSON line.

``--scaling``: runs the scaling protocol from BASELINE.md §3 — the same
frontier job at num_cpus=8 and num_cpus=32 in fresh subprocesses; reports
both throughputs and efficiency = (thr_32/thr_8)/(32/8).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

QUERY_NAMES = [
    "pricing_summary",
    "per_key_count",
    "broadcast_join",
    "region_revenue",
    "latest_record",
    "window_hourly",
    "sliding_window",
    "asof_join",
    "distinct_per_key",
    "union_dedup",
    "exact_dedup",
    "minhash_lsh_pairs",
    "knn_bruteforce",
    "crossmodal_recall",
    "redirect_resolve",
    "link_rank",
    "clip_align",
    "vocab_oov",
    "dup_spans",
    "image_curate",
    "bucket_shard_pack",
    "image_decontaminate",
    "resize_plan",
    "epoch_shuffle",
    "bucket_stats",
    "bucket_balance",
    "semantic_dedup",
    "hard_negatives",
    # continuation-session additions (demo-corpus link/payload ops +
    # the planner-routed skew join at sf scale)
    "anchor_text",
    "host_graph",
    "format_sniff",
    "sitemap_seeds",
    "salted_join_auto",
    # round-4 additions: byte-level HTML parse + the J5 css merge-back
    "html_outlinks",
    "css_enrich",
    # round-5 additions: updater shard-interval selection + the
    # log_analysis family (referrer codebook, session merge, two-source
    # vertical click rollup)
    "updater_select",
    "search_ref_classify",
    "session_merge",
    "query_click",
    "pv_normalize",
    "pv_md5_map",
    "target_url_extract",
    "site_search_classify",
]

BENCH_CORPUS = "/tmp/spider_ray_bench_corpus"
BENCH_OUT = "/tmp/spider_ray_bench_crawl"
FRONTIER_URLS = 24_000_000


def _init_ray(num_cpus: int):
    import ray

    # Each map_batches task gets 1 CPU, but polars' default per-process
    # thread pool is one thread per CORE — 32 concurrent workers x 32
    # threads oversubscribes the node 32x and costs ~20-25% end to end
    # (interleaved A/B 2026-08-18: frontier 10.0 -> 12.7 M urls/s, crawl
    # 588 -> 721 pages/s, headline 21.9/23.7 -> 18.3 s). Must be in the
    # environment BEFORE ray.init so the raylet's workers inherit it; on
    # a multi-node cluster pass it via runtime_env env_vars instead.
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # 10 Hz completion-poll bursts in the streaming executor cost 25-45% of
    # 32-wide throughput at sub-second task granularity (spider_ray/compat.py)
    from spider_ray.compat import tighten_scheduler_cadence

    tighten_scheduler_cadence()
    return ray


def _bench_queries() -> dict[str, float]:
    import __ray_entry__ as E

    qs = E.queries()
    # untimed warm-up: first pipeline otherwise absorbs one-time cluster
    # costs (worker start, object-store setup), skewing its number
    import ray as _ray

    _ray.data.range(1000).map_batches(lambda b: b).count()
    out = {}
    # min of 2 runs per query: this VM's documented 2-4× noise windows
    # (BASELINE.md §3) plus per-query cold costs (first parquet read of a
    # table, actor-pool spin-up) otherwise dominate single-shot numbers
    for name in QUERY_NAMES:
        best = None
        for _ in range(2):
            t0 = time.time()
            res = qs[name](SF_DIR)
            # force materialization
            if hasattr(res, "to_pandas") and not isinstance(res, type(None)):
                _ = res.num_rows if hasattr(res, "num_rows") else len(res)
            dt = time.time() - t0
            best = dt if best is None else min(best, dt)
        out[name] = round(best, 3)
    return out


def _bench_crawl() -> dict:
    import inspect

    from spider_ray.pipelines.crawl import run_crawl, shutdown_fleet
    from spider_ray.sources import webgen

    # cache keyed on params + the generator SOURCE, not bare existence: a
    # webgen change between rounds would otherwise silently reuse the old
    # /tmp corpus and attribute its crawl numbers to the new code
    import hashlib

    # html_bodies=True + parse_html below: the bench crawl runs in parse
    # mode (byte-level HTML parse of every fetched page) — the honest
    # flagship path since round 5; table-lookup mode remains as the
    # fixture fast-path only
    params = {"n_pages": 2000, "n_hosts": 24, "seed": 42,
              "html_bodies": True}
    src_sha = hashlib.sha1(
        inspect.getsource(webgen).encode()
    ).hexdigest()[:16]
    stamp = dict(params, gen_src=src_sha)
    stamp_path = os.path.join(BENCH_CORPUS, "_stamp.json")
    current = None
    if os.path.exists(stamp_path):
        try:
            with open(stamp_path) as f:
                current = json.load(f)
        except (OSError, ValueError):
            current = None
    if current != stamp or not os.path.exists(
        os.path.join(BENCH_CORPUS, "web_graph.parquet")
    ):
        shutil.rmtree(BENCH_CORPUS, ignore_errors=True)
        webgen.generate(BENCH_CORPUS, **params)
        with open(stamp_path, "w") as f:
            json.dump(stamp, f)
    # min of 3 full runs (queries stay min-of-2): the crawl is bound by
    # actor IPC, a noise dimension that swings 4x independently of the
    # compute windows (2026-08-17 samples on identical code/input ranged
    # 5.0–21.7 s within one hour; 2026-08-18: 2.8 s vs 6.6 s an hour
    # apart while the frontier CONTROL measured its best-ever) — a third
    # sample materially improves the min estimate of the noisiest
    # component. The first run additionally absorbs one-time actor-class
    # export + worker spawn and the fleet start; the later two reuse its
    # warm fleet, which is killed before the frontier component runs.
    best, res = None, None
    for _ in range(3):
        shutil.rmtree(BENCH_OUT, ignore_errors=True)
        t0 = time.time()
        res = run_crawl(
            BENCH_CORPUS, BENCH_OUT, num_shards=8, fetch_concurrency=8,
            parse_html=True,
        )
        wall = time.time() - t0
        best = wall if best is None else min(best, wall)
    shutdown_fleet()
    return {
        "crawl_wall_s": round(best, 2),
        "pages_fetched": res["total_fetched"],
        "pages_per_s": round(res["total_fetched"] / best, 1),
    }


def _bench_frontier() -> dict:
    # 24M urls at the protocol chunk size (was 2M at 64 blocks): the fused
    # canonicalizer finishes 2M in <1s, i.e. mostly harness — too short to
    # measure the engine. frontier_urls_per_s is the comparable number.
    from spider_ray.pipelines.frontier_bench import (
        run_frontier_bench,
        scaling_parallelism,
    )

    best = None
    for _ in range(3):  # min-of-3, same rationale as the crawl component
        r = run_frontier_bench(
            FRONTIER_URLS, parallelism=scaling_parallelism(FRONTIER_URLS)
        )
        best = r if best is None or r["wall_s"] < best["wall_s"] else best
    return {
        "frontier_urls": best["n_urls"],
        "frontier_wall_s": round(best["wall_s"], 2),
        "frontier_urls_per_s": round(best["urls_per_s"], 0),
    }


def main() -> None:
    ray = _init_ray(NUM_CPUS)
    queries = _bench_queries()
    crawl = _bench_crawl()
    frontier = _bench_frontier()
    # value = sum of reported components (every component is min-of-2
    # runs) — the number round-over-round deltas should track, excluding
    # the second warm-up pass's wall time
    total = (
        sum(queries.values())
        + crawl["crawl_wall_s"]
        + frontier["frontier_wall_s"]
    )
    ray.shutdown()
    # window-health stamp (BASELINE.md §3): the no-Ray multiprocessing
    # control running the identical frontier UDF at 8 and 32 procs. A
    # speedup < ~2.8/4 marks this sample as taken in a degraded host
    # window — compare engine numbers across rounds only window-to-window.
    from spider_ray.pipelines.frontier_bench import run_control_bench

    ctl8 = run_control_bench(12_000_000, 8)["urls_per_s"]
    ctl32 = run_control_bench(12_000_000, 32)["urls_per_s"]
    out = {
        "metric": "headline pipelines wall time (queries sf0.1 min-of-2 + crawl + frontier)",
        "value": round(total, 2),
        "runs_per_query": 2,
        "runs_crawl_frontier": 3,
        "unit": "sec",
        "queries": queries,
        "crawl": crawl,
        "frontier": frontier,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "window_control": {
            "ctl8_urls_per_s": round(ctl8, 0),
            "ctl32_urls_per_s": round(ctl32, 0),
            "speedup_of_4": round(ctl32 / ctl8, 2),
            "healthy_bar": 2.8,
        },
    }
    print(json.dumps(out))


# 96M (was 8M): the fused-canonicalizer UDF (2026-08-18) runs ~3x faster
# and the per-job harness cost (~0.6s: dispatch ramp + ~4ms/task submit)
# hits the fast leg proportionally harder — a 2s 32-cpu leg reads ~30%
# fixed cost vs ~7% on the 8-cpu leg, biasing the ratio low. 96M keeps the
# 32-cpu leg ~8.5s (fixed share <8%) while the whole protocol stays ~4 min.
SCALING_URLS = 96_000_000


def _scaling_child(num_cpus: int) -> None:
    os.environ.setdefault("POLARS_MAX_THREADS", "1")
    ray = _init_ray(num_cpus)
    from spider_ray.pipelines.frontier_bench import (
        run_control_bench,
        run_scaling_leg,
    )

    # IDENTICAL job at both cpu counts: run_scaling_leg runs the fixed
    # SCALING_CHUNK-granularity job (warm-up + best-of-2; rationale + sweeps in
    # frontier_bench.py) so per-task granularity matches and only the
    # parallelism level differs — mirrors the control's fixed-size chunks
    r = run_scaling_leg(SCALING_URLS)
    crawl = _bench_crawl()
    ray.shutdown()
    ctl = max(
        (run_control_bench(SCALING_URLS, num_cpus) for _ in range(2)),
        key=lambda x: x["urls_per_s"],
    )
    print(
        "SCALING_RESULT "
        + json.dumps(
            {
                "num_cpus": num_cpus,
                "frontier_urls_per_s": r["urls_per_s"],
                "control_urls_per_s": ctl["urls_per_s"],
                "pages_per_s": crawl["pages_per_s"],
            }
        )
    )


def scaling() -> None:
    results = {}
    for i, n in enumerate((8, 32)):
        if i:
            # settle between children: the 8-cpu child ends with two 96M-URL
            # control burns, so without a pause the 32-cpu ENGINE leg always
            # starts on a hot (frequency/membw-throttled) box while the
            # 8-cpu leg always starts fresh — a systematic bias against the
            # ratio (2026-08-18: in-protocol 32-leg 8.4 M urls/s, standalone
            # re-runs 10.5-11.2 M in the same probe-healthy window). The
            # pause equalizes the two legs' thermal phase; it does not touch
            # what is measured.
            time.sleep(75)
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(n)
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--scaling-child", str(n)],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        for line in p.stdout.splitlines():
            if line.startswith("SCALING_RESULT "):
                results[n] = json.loads(line[len("SCALING_RESULT "):])
        if n not in results:
            sys.stderr.write(p.stdout + "\n" + p.stderr + "\n")
            raise RuntimeError(f"scaling child {n} produced no result")
    speedup = results[32]["frontier_urls_per_s"] / results[8]["frontier_urls_per_s"]
    ctl_speedup = (
        results[32]["control_urls_per_s"] / results[8]["control_urls_per_s"]
    )
    eff_raw = speedup / (32 / 8)
    eff_vs_hw = speedup / ctl_speedup if ctl_speedup > 0 else None
    out = {
        "metric": "scaling efficiency (8 → 32 cpus, fresh sessions)",
        "value": round(eff_raw, 3),
        "unit": "efficiency",
        "n8": results[8],
        "n32": results[32],
        "frontier_scaling_efficiency": round(eff_raw, 3),
        "hardware_control_speedup": round(ctl_speedup, 3),
        "efficiency_vs_hardware_ceiling": round(eff_vs_hw, 3),
        "pages_per_s_8": results[8]["pages_per_s"],
        "pages_per_s_32": results[32]["pages_per_s"],
        "note": "single-box substitute for N vs 4N nodes (BASELINE.md §3): "
        "the no-Ray multiprocessing control running the identical UDF bounds "
        "what this shared-memory VM can scale to; pipeline tasks are "
        "independent (no shuffle until a tiny final combine), so on real "
        "separate nodes efficiency tracks the per-node throughput. pages/s "
        "is politeness-bound by design (virtual-clock budget).",
    }
    print(json.dumps(out))


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--scaling":
        scaling()
    elif len(sys.argv) > 2 and sys.argv[1] == "--scaling-child":
        _scaling_child(int(sys.argv[2]))
    else:
        main()
