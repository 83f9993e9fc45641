"""Frontier-processing throughput pipeline (BASELINE.md §3; SURVEY M7).

Simulates the shuffle side of a 10^10-URL frontier at benchable scale: a
generator-backed datasource (``ray.data.range`` → URLs derived on the fly
from the row index — 10^10 URL strings are never materialized) pushed
through the real frontier stages: canonicalize (M1, vectorized fast path +
scalar fallback), filter rules (M3, vectorized), host extraction + 64-bit
hashes, per-block partial dedup, per-shard counting — the same shape as one
schedule wave's pre-actor work.

Everything in the per-batch UDF is polars/numpy vectorized (no Python loop
over rows except the canonicalizer's slow-path fallback), so it is CPU-bound
rather than allocator-bound.

Metric: frontier URLs processed / second (the reference's insight in SURVEY
§6: fetch is politeness-bound, frontier processing is what scales).
``perfbench``'s ``frontier_canon`` workload times it.
"""

from __future__ import annotations

import time

import polars as pl
import pyarrow as pa
import ray

from spider_ray.kernels.hashing import hash64_expr
from spider_ray.kernels.urlnorm import MAX_PATH_DEPTH, MAX_QUERY_LEN, canonicalize_parts

_HOST_POOL = 1000
_DIRTY = ["", "#frag", "?b=2&a=1", ":80/x", "/%7Euser"]


def _derive_urls(batch: dict) -> pa.Table:
    """int row ids → raw (dirty) URLs; pure function of the id, fully
    vectorized (pl.format — no Python string building)."""
    df = pl.DataFrame({"id": batch["id"]})
    df = df.with_columns(
        host_id=pl.when(pl.col("id") % 4 == 0)
        .then(0)  # hot host: ~25% of rows (skew)
        .otherwise(pl.col("id") % _HOST_POOL),
        # index into the 5-element literal Series beats casting the index
        # to Utf8 + dict replace (17.7 -> 12.3 ms per 93.75k rows)
        dirty=pl.lit(pl.Series(_DIRTY)).gather(pl.col("id") % len(_DIRTY)),
    )
    df = df.with_columns(
        url=pl.format(
            "HTTP://host{}.example.com/p/{}{}",
            pl.col("host_id"),
            pl.col("id"),
            pl.col("dirty"),
        )
    )
    return df.select("url").to_arrow()


def _frontier_stage(batch: pa.Table, num_shards: int) -> pa.Table:
    # ONE canonicalize pass also yields host/path/query (canonicalize_parts)
    # — re-extracting them from the canonical string would cost three more
    # full-column regex passes, and on a 32-wide node this stage is memory-
    # bandwidth-bound, not compute-bound
    parts = canonicalize_parts(batch["url"])
    df = parts.drop_nulls(subset=["canon"]).select(
        url=pl.col("canon"),
        host=pl.col("host"),
        path_depth=pl.col("path").str.count_matches("/", literal=True),
        query_len=pl.col("query").fill_null("").str.len_bytes(),
    )
    df = df.filter(
        (pl.col("path_depth") <= MAX_PATH_DEPTH)
        & (pl.col("query_len") <= MAX_QUERY_LEN)
    ).drop("path_depth", "query_len")
    # the FROZEN production hash kernel (kernels/hashing.py hash64_expr —
    # bit-identical to hash64, pinned by test): the bench measures exactly
    # the hash the crawl pipeline runs
    df = df.with_columns(
        url_hash=hash64_expr("url"),
        shard=(hash64_expr("host") % num_shards).cast(pl.Int64),
    )
    # per-block partial dedup (map-side combine)
    df = df.unique(subset=["url_hash"])
    return df.group_by("shard").agg(pl.len().alias("n")).to_arrow()


# rows per map_batches call when a caller passes ``parallelism``:
# ``perfbench``'s ``frontier_canon`` workload runs ``run_frontier_bench`` at
# ``scaling_parallelism`` and builds its single-process check from the same
# SCALING_CHUNK-sized id ranges, so both sides see identical batches. The
# value was the measured per-block optimum on a 32-CPU box (sweeps
# 2026-08-18, BASELINE.md §11): chunk size, not block count, transfers across
# job sizes, because big whole-block batches fall out of cache and finer ones
# pay dispatch.
SCALING_CHUNK = 187_500


def scaling_parallelism(n_urls: int) -> int:
    return max(1, n_urls // SCALING_CHUNK)


def run_frontier_bench(
    n_urls: int = 2_000_000, num_shards: int = 64, parallelism: int | None = None
) -> dict:
    # driver-side: 10 Hz completion-poll bursts cost 25-45% of 32-wide
    # throughput at frontier task granularity (see spider_ray/compat.py)
    from spider_ray.compat import tighten_scheduler_cadence

    tighten_scheduler_cadence()
    # single-op pipeline: operator resource reservation exists to split the
    # cluster among concurrent ops; for this one-op job it only adds
    # per-dispatch accounting (+2.4% at 32 cpus when disabled, neutral at
    # 8 — interleaved best-of-3, 2026-08-18). Scoped save/restore so query
    # pipelines (multi-op, backpressure-fair) keep the default.
    ctx = ray.data.DataContext.get_current()
    prev_reservation = ctx.op_resource_reservation_enabled
    ctx.op_resource_reservation_enabled = False
    t0 = time.time()
    # big blocks × in-task batch slicing (round 4, VERDICT r3 task #7):
    # 4× fewer dispatches than one-block-per-chunk while the UDF still
    # sees SCALING_CHUNK rows per call — measured +2-3%
    # at both widths in round 3 (BASELINE §18 "tested variants"), adopted
    # at the round boundary. parallelism=None keeps Ray's own defaults
    # (whole-block batches) for ad-hoc runs.
    if parallelism is not None:
        blocks = max(1, parallelism // 4)
        batch_rows: int | None = SCALING_CHUNK
    else:
        blocks = None
        batch_rows = None
    ds = ray.data.range(n_urls, override_num_blocks=blocks)
    ds = ds.map_batches(
        _derive_urls, batch_format="numpy", batch_size=batch_rows
    )
    ds = ds.map_batches(
        _frontier_stage,
        batch_format="pyarrow",
        batch_size=batch_rows,
        fn_kwargs={"num_shards": num_shards},
    )
    # final tiny combine: per-shard totals. Consume by STREAMING iteration
    # (iter_batches), not to_arrow_refs(): the refs path adds ~0.5-0.8 s of
    # fixed materialize/executor-finalize overhead per job — negligible on
    # a long job, but worth ~35% of 32-cpu throughput on this one (2.7 ->
    # 3.7 M urls/s at 128 blocks, measured 2026-08-17)
    try:
        parts = pa.concat_tables(
            ds.iter_batches(batch_format="pyarrow", batch_size=None)
        )
    finally:
        ctx.op_resource_reservation_enabled = prev_reservation
    totals = (
        pl.from_arrow(parts).group_by("shard").agg(pl.col("n").sum()).sort("shard")
    )
    wall = time.time() - t0
    return {
        "n_urls": n_urls,
        "wall_s": wall,
        "urls_per_s": n_urls / wall,
        "shards_seen": totals.height,
        # (shard, n) rows so tests/tools can assert parity against a
        # single-process run of the same UDF without rebuilding the plan
        "shard_totals": totals.rows(),
    }


from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()
