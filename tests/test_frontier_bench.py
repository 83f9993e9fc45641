"""Parity + contract tests for the frontier throughput pipeline
(pipelines/frontier_bench.py) — the job behind perfbench's
``frontier_canon`` workload.

Pins the streaming-consumption refactor (iter_batches instead of
to_arrow_refs): the distributed result must equal a single-process run
of the identical per-batch UDF over the same id range.
"""

import numpy as np
import polars as pl

from spider_ray.pipelines.frontier_bench import (
    _derive_urls,
    _frontier_stage,
    run_frontier_bench,
)

N = 50_000
SHARDS = 64


def _single_process_totals(n: int) -> pl.DataFrame:
    t = _derive_urls({"id": np.arange(n)})
    out = _frontier_stage(t, SHARDS)
    return (
        pl.from_arrow(out).group_by("shard").agg(pl.col("n").sum()).sort("shard")
    )


def test_frontier_bench_matches_single_process(ray_session):
    r = run_frontier_bench(N, num_shards=SHARDS, parallelism=16)
    assert r["n_urls"] == N
    assert r["urls_per_s"] > 0

    # the function's OWN distributed per-shard totals must equal a
    # single-process run of the identical UDF over the same id range —
    # pins the streaming-consumption seam without rebuilding the plan
    expected = _single_process_totals(N)
    assert r["shards_seen"] == expected.height
    assert r["shard_totals"] == expected.rows()


def test_frontier_stage_dedups_and_filters(ray_session):
    # duplicate ids -> duplicate canonical urls -> partial dedup inside the
    # block must collapse them (the map-side combine the 10^10 design
    # relies on)
    ids = np.concatenate([np.arange(1000), np.arange(1000)])
    t = _derive_urls({"id": ids})
    out = pl.from_arrow(_frontier_stage(t, SHARDS))
    assert out["n"].sum() == pl.from_arrow(
        _frontier_stage(_derive_urls({"id": np.arange(1000)}), SHARDS)
    )["n"].sum()
