"""Parity fuzz: the engine must reproduce the oracle's exact crawl order and
URL-seen set for EVERY corpus, not just the seed-42 fixture — a sweep over
generator seeds (different web shapes: host mixes, redirect/failure draws,
outlink graphs) and a non-default topology (more shards + wider fetch pool).
This is the north rule's core claim exercised as a family of instances."""

import shutil

import pytest

from spider_ray.pipelines.oracle import run_oracle
from spider_ray.sources.webgen import generate

BASE = "/tmp/spider_ray_fuzz"


def _parity_case(tag, gen_kwargs, num_shards, fetch_concurrency):
    from spider_ray.pipelines.crawl import run_crawl
    from tests.test_crawl_parity import _engine_rows

    corpus = f"{BASE}_corpus_{tag}"
    out = f"{BASE}_out_{tag}"
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    generate(corpus, **gen_kwargs)
    gold = run_oracle(corpus, num_shards=num_shards)
    run_crawl(
        corpus, out, num_shards=num_shards,
        fetch_concurrency=fetch_concurrency,
    )
    eng = _engine_rows(out, "status.parquet")
    assert len(eng) == len(gold["crawl_order"]), tag
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["status"], e["gen"]) == (
            g["url"], g["fetch_ts"], g["status"], g["gen"]
        ), tag
    import os

    import pyarrow.parquet as pq

    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == gold["seen"], tag
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)


@pytest.mark.parametrize(
    "seed,n_pages,n_hosts",
    [(7, 150, 6), (101, 180, 11), (9001, 120, 3)],
)
def test_crawl_parity_across_seeds(ray_session, seed, n_pages, n_hosts):
    _parity_case(
        f"s{seed}",
        dict(n_pages=n_pages, n_hosts=n_hosts, seed=seed),
        num_shards=2,
        fetch_concurrency=2,
    )


def test_crawl_parity_wide_topology(ray_session):
    # more shards than hosts-per-shard would suggest, wider fetch pool —
    # the permit merge + block-size-invariant admit seams must still yield
    # the oracle's exact sequence
    _parity_case(
        "wide",
        dict(n_pages=200, n_hosts=8, seed=42),
        num_shards=5,
        fetch_concurrency=6,
    )


def test_hash_join_salted_left_fuzz(ray_session):
    """Fuzz the new _hash_join paths (hot-key salting × how=left/inner)
    against a polars ground-truth join over random skewed key sets."""
    import numpy as np
    import polars as pl
    import pyarrow as pa
    import ray as _ray

    from spider_ray.functions.dedup import _hash_join

    rng = np.random.default_rng(20260820)
    for trial in range(8):
        n_left = int(rng.integers(1, 400))
        keys = rng.integers(0, 12, n_left)
        if trial % 2:
            # plant a hot key: half the rows on key 0
            keys[: n_left // 2] = 0
        left_t = pa.table(
            {
                "k": pa.array(keys, pa.int64()),
                "v": pa.array(rng.integers(0, 1000, n_left), pa.int64()),
            }
        )
        r_keys = np.unique(rng.integers(0, 12, int(rng.integers(1, 12))))
        right_t = pa.table(
            {
                "k": pa.array(r_keys, pa.int64()),
                "p": pa.array(
                    [f"p{int(k)}" for k in r_keys], pa.string()
                ),
            }
        )
        how = "left" if trial % 3 == 0 else "inner"
        salt = [1, 2, 8][trial % 3]
        j = _hash_join(
            _ray.data.from_arrow(left_t),
            _ray.data.from_arrow(right_t),
            on="k", right_on="k",
            left_schema=left_t.schema,
            right_schema=right_t.schema,
            hot_keys=frozenset({0}), salt=salt, how=how,
        )
        got = (
            pl.from_arrow(
                pa.concat_tables(
                    _ray.get(j.materialize().to_arrow_refs()),
                    promote_options="default",
                )
            )
            .sort(["k", "v", "p"], nulls_last=True)
            .select(["k", "v", "p"])
        )
        want = (
            pl.from_arrow(left_t)
            .join(pl.from_arrow(right_t), on="k", how=how)
            .sort(["k", "v", "p"], nulls_last=True)
            .select(["k", "v", "p"])
        )
        assert got.equals(want), (trial, how, salt)


@pytest.mark.parametrize("seed,n_pages,n_hosts", [(13, 400, 7), (77, 500, 9)])
def test_crawl_parity_sitemap_seeded_fuzz(
    ray_session, seed, n_pages, n_hosts
):
    """Sitemap-seeded parity as a family of instances: the engine's
    DISTRIBUTED discovery chain must agree with the oracle's independent
    single-process walk on every corpus shape, all the way through crawl
    order + seen set."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from spider_ray.pipelines.crawl import run_crawl
    from tests.test_crawl_parity import _engine_rows

    tag = f"sm{seed}"
    corpus = f"{BASE}_corpus_{tag}"
    out = f"{BASE}_out_{tag}"
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    generate(corpus, n_pages=n_pages, n_hosts=n_hosts, seed=seed)
    gold = run_oracle(corpus, num_shards=3, sitemap_seeds=True)
    run_crawl(
        corpus, out, num_shards=3, fetch_concurrency=3,
        sitemap_seeds=True,
    )
    eng = _engine_rows(out, "status.parquet")
    assert len(eng) == len(gold["crawl_order"]), tag
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["status"], e["gen"]) == (
            g["url"], g["fetch_ts"], g["status"], g["gen"]
        ), tag
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == gold["seen"], tag
    shutil.rmtree(corpus, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
