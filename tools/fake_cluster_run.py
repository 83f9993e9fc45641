"""Multi-node evidence harness (VERDICT r3 task #1): run the crawl loop,
a wide shuffle query, and the frontier benchmark on a FAKE MULTI-NODE Ray
cluster (`ray.cluster_utils.Cluster`, 3 nodes x 4 cpus — separate raylets
and object stores, so every shuffle/broadcast crosses node boundaries) and
prove parity with single-node / oracle results.

Structural multi-node guarantee: the crawl run below creates 4 shard
actors + 6 fetch actors, each reserving 1 CPU (10 total) on a cluster
whose LARGEST node has 4 — no two-node subset can host them (8 < 10), so
the crawl cannot even start unless actors land on all three nodes; the
explicit probe assertion below confirms spread independently.

Run as a SUBPROCESS (own Ray instance): `python tools/fake_cluster_run.py`.
Prints one JSON line; exit 0 iff every parity check passed. Invoked by
tests/test_fake_cluster.py and recorded in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    import ray
    from ray.cluster_utils import Cluster

    cluster = Cluster(initialize_head=True, head_node_args={"num_cpus": 4})
    for _ in range(2):
        cluster.add_node(num_cpus=4)
    ray.init(address=cluster.address, include_dashboard=False)

    out: dict = {"nodes": 0, "ok": True}
    try:
        nodes = [n for n in ray.nodes() if n["Alive"]]
        out["nodes"] = len(nodes)
        if len(nodes) != 3:
            out["ok"] = False
            out["err"] = f"expected 3 alive nodes, got {len(nodes)}"
            return 1

        # probe: 10 one-cpu actors must spread over all 3 nodes
        @ray.remote(num_cpus=1)
        class Probe:
            def node(self):
                return ray.get_runtime_context().get_node_id()

        probes = [Probe.remote() for _ in range(10)]
        spread = len(set(ray.get([p.node.remote() for p in probes])))
        for p in probes:
            ray.kill(p)
        out["probe_actor_nodes"] = spread
        if spread != 3:
            out["ok"] = False
            out["err"] = f"probe actors on {spread}/3 nodes"
            return 1

        from spider_ray.pipelines.crawl import (
            read_sink,
            run_crawl,
            shutdown_fleet,
        )
        from spider_ray.pipelines.oracle import run_oracle
        from spider_ray.sources.webgen import generate

        corpus = "/tmp/spider_ray_fakecluster_corpus"
        if not os.path.exists(os.path.join(corpus, "_DONE_FC")):
            shutil.rmtree(corpus, ignore_errors=True)
            generate(corpus, n_pages=300, n_hosts=8, seed=17)
            open(os.path.join(corpus, "_DONE_FC"), "w").close()
        crawl_out = "/tmp/spider_ray_fakecluster_out"
        shutil.rmtree(crawl_out, ignore_errors=True)

        t0 = time.time()
        res = run_crawl(corpus, crawl_out, num_shards=4, fetch_concurrency=6)
        crawl_wall = time.time() - t0
        shutdown_fleet()
        out["crawl_pages"] = int(res["total_fetched"])
        out["crawl_pages_per_s"] = round(res["total_fetched"] / crawl_wall, 1)

        # oracle parity: crawl order + seen set, row for row
        gold = run_oracle(corpus, num_shards=4)
        eng_rows = []
        import glob as _glob

        for d in sorted(
            _glob.glob(os.path.join(crawl_out, "gen=*")),
            key=lambda p: int(p.split("=")[1]),
        ):
            eng_rows.extend(read_sink(d, "status.parquet").to_pylist())
        gold_rows = gold["crawl_order"]
        order_ok = len(eng_rows) == len(gold_rows) and all(
            (e["url"], e["fetch_ts"], e["status"], e["gen"])
            == (g["url"], g["fetch_ts"], g["status"], g["gen"])
            for e, g in zip(eng_rows, gold_rows)
        )
        import pyarrow.parquet as _pq

        eng_seen = _pq.read_table(
            os.path.join(crawl_out, "seen.parquet")
        ).to_pylist()
        seen_ok = eng_seen == gold["seen"]
        out["crawl_order_parity"] = bool(order_ok)
        out["seen_set_parity"] = bool(seen_ok)
        out["ok"] &= order_ok and seen_ok

        # wide shuffle across nodes: the distributed-CC dup_clusters route
        # (shingle cogroup -> pair verify -> hash-min fixpoint -> left
        # join) vs its DuckDB oracle
        import duckdb
        import polars as pl

        from spider_ray.functions.dedup import q_dup_clusters

        sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
        t0 = time.time()
        clusters = pl.from_arrow(q_dup_clusters(sf, driver_pair_limit=0))
        out["dup_clusters_wall_s"] = round(time.time() - t0, 2)
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"'{os.path.join(sf, 'documents.parquet')}'"
        )
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "entry", os.path.join(os.path.dirname(__file__), "..",
                                  "__ray_entry__.py")
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        ora = pl.from_arrow(con.sql(mod.oracle_sql()["dup_clusters"]).arrow())
        shuffle_ok = clusters.equals(ora)
        out["shuffle_query_parity"] = bool(shuffle_ok)
        out["ok"] &= shuffle_ok

        # WARC ingest across nodes: distributed archive parse + byte-level
        # extraction vs the same DuckDB oracle
        warc_store = mod._warc_store()
        from spider_ray.functions.htmlextract import q_warc_outlinks

        wt = pl.from_arrow(q_warc_outlinks(warc_store))
        wora = pl.from_arrow(con.sql(mod.oracle_sql()["warc_outlinks"]).arrow())
        warc_ok = wt.equals(wora)
        out["warc_ingest_parity"] = bool(warc_ok)
        out["ok"] &= warc_ok

        # frontier throughput across the 3-node cluster
        from spider_ray.pipelines.frontier_bench import run_frontier_bench

        fb = run_frontier_bench(6_000_000, parallelism=64)
        out["frontier_urls_per_s"] = round(fb["urls_per_s"])
        out["frontier_shards_seen"] = fb["shards_seen"]

        return 0 if out["ok"] else 1
    finally:
        print(json.dumps(out), flush=True)
        ray.shutdown()
        cluster.shutdown()


if __name__ == "__main__":
    sys.exit(main())
