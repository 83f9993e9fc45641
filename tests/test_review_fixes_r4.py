"""Round-4 advisor-fix regressions: legacy-checkpoint resume (missing
sitemap_seeds key in run_config.json must not trip the topology guard) and
auto_salted_join's hot-key dtype round-trip for non-int/non-string keys."""

import json
import os
import shutil

import numpy as np
import polars as pl
import pyarrow as pa
import pytest
import ray

from spider_ray.functions.dedup import (
    _concat,
    _hash_join,
    auto_salted_join,
    detect_hot_keys,
)


def test_resume_accepts_legacy_config_without_sitemap_key(ray_session):
    """A checkpoint written before the sitemap_seeds topology key existed
    (necessarily a non-seeded run) must resume cleanly rather than raising
    a spurious 'resume topology mismatch'."""
    from spider_ray.pipelines.crawl import run_crawl
    from spider_ray.sources.webgen import generate

    corpus = "/tmp/spider_ray_r4_legacy_corpus"
    out = "/tmp/spider_ray_r4_legacy_resume"
    if not os.path.exists(os.path.join(corpus, "_DONE")):
        generate(corpus, n_pages=120, n_hosts=6, seed=11)
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=1)
    cfg_path = os.path.join(out, "run_config.json")
    with open(cfg_path) as f:
        cfg = json.load(f)
    assert cfg.pop("sitemap_seeds") is False  # simulate a pre-key checkpoint
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    res = run_crawl(
        corpus, out, num_shards=2, fetch_concurrency=2, resume=True
    )
    assert res["total_fetched"] > 0


def _skewed_float(n=12_000, seed=5):
    rng = np.random.default_rng(seed)
    keys = (rng.integers(0, 50, n).astype(np.float64)) / 2.0
    keys[rng.random(n) < 0.35] = 7.5  # planted hot float key
    return pa.table(
        {"k": pa.array(keys, pa.float64()),
         "v": pa.array(np.arange(n, dtype=np.int64))}
    )


def test_auto_salted_join_float_key_roundtrip(ray_session):
    """Non-int/non-string keys: the detected hot set (string-canonical)
    must convert back through the key dtype so the skew plan actually
    fires, and the salted result must equal the plain join."""
    t = _skewed_float()
    ds = ray.data.from_arrow(t).repartition(8)
    hot, salt = detect_hot_keys(ds, "k")
    assert "7.5" in hot and salt >= 2  # planted key detected as string
    dim = pa.table(
        {"k": pa.array([i / 2.0 for i in range(50)], pa.float64()),
         "grp": pa.array([f"g{i}" for i in range(50)], pa.string())}
    )
    l_schema = pa.schema([("k", pa.float64()), ("v", pa.int64())])
    r_schema = pa.schema([("k", pa.float64()), ("grp", pa.string())])

    def run(j):
        return (
            pl.from_arrow(_concat(j)).sort(["k", "v"]).select(["k", "v", "grp"])
        )

    salted = run(
        auto_salted_join(
            ray.data.from_arrow(t).repartition(8),
            ray.data.from_arrow(dim),
            on="k",
            right_on="k",
            left_schema=l_schema,
            right_schema=r_schema,
        )
    )
    plain = run(
        _hash_join(
            ray.data.from_arrow(t).repartition(8),
            ray.data.from_arrow(dim),
            on="k",
            right_on="k",
            left_schema=l_schema,
            right_schema=r_schema,
        )
    )
    assert salted.equals(plain)
    # and the converted hot set matches raw float values (np.isin works)
    conv = frozenset(
        pa.array(sorted(hot), pa.string()).cast(pa.float64()).to_pylist()
    )
    assert 7.5 in conv


def test_cc_fixpoint_even_cohort_signature_regression(ray_session):
    """Regression for the xor convergence signature: in round 4 of this
    graph, nodes 2 and 3 make the SAME label transition 1→0 (xor delta
    cancels to zero) while node 4 still needs round 5 to learn 0 — the
    xor-fold signature declared a fixpoint one round early and left node
    4 mislabeled. The wraparound-sum signature must converge fully."""
    from spider_ray.functions.webgraph import cc_fixpoint
    from spider_ray.pipelines.relational import _concat

    edges = pa.table(
        {
            "a": pa.array([0, 9, 8, 1, 1, 2], pa.int64()),
            "b": pa.array([9, 8, 1, 2, 3, 4], pa.int64()),
        }
    )
    labels = _concat(
        cc_fixpoint(
            ray.data.from_arrow(edges).repartition(4),
            node_type=pa.int64(),
        ),
        schema=pa.schema([("node", pa.int64()), ("label", pa.int64())]),
    )
    got = dict(zip(labels["node"].to_pylist(), labels["label"].to_pylist()))
    assert got == {n: 0 for n in [0, 1, 2, 3, 4, 8, 9]}


def test_cluster_labeling_distributed_route_parity(ray_session):
    """The threshold-gated distributed CC route (hash-min fixpoint + left
    joins) must produce bit-identical output to the driver union-find
    route for all three curation-family queries (VERDICT r3 task #2)."""
    import os

    import polars as pl

    from spider_ray.functions.dedup import q_dup_clusters
    import spider_ray.functions.imagecurate as IC
    from spider_ray.sources.lance_io import resolve_images
    from spider_ray.sources.webgen import generate

    sf = "/root/testdata/sf0.01"
    assert pl.from_arrow(q_dup_clusters(sf)).equals(
        pl.from_arrow(q_dup_clusters(sf, driver_pair_limit=0))
    )

    corpus = "/tmp/spider_ray_phash_corpus"
    if not os.path.exists(os.path.join(corpus, "_DONE")):
        generate(corpus, n_pages=2000, n_hosts=24, seed=42)
    imgs = resolve_images(os.path.join(corpus, "images"))
    assert pl.from_arrow(IC.q_phash_clusters(imgs)).equals(
        pl.from_arrow(IC.q_phash_clusters(imgs, driver_pair_limit=0))
    )
    assert pl.from_arrow(IC.q_image_curate(imgs)).equals(
        pl.from_arrow(IC.q_image_curate(imgs, driver_pair_limit=0))
    )


def test_sharded_webindex_slices_and_fetch_parity(ray_session):
    """VERDICT r3 task #3: fetch actors hold O(corpus/pool) slices. The
    slices must (a) partition the image payloads exactly and split pages
    roughly evenly (plus redirect-target ghosts), and (b) produce
    bit-identical fetch results to a full-index worker when permits are
    routed by the dispatch key (hash64(url) % pool)."""
    import os

    from spider_ray.kernels.hashing import hash64
    from spider_ray.pipelines.crawl import FetchWorker
    from spider_ray.pipelines.oracle import load_corpus, load_corpus_shard
    from spider_ray.sources.webgen import generate

    corpus = "/tmp/spider_ray_phash_corpus"
    if not os.path.exists(os.path.join(corpus, "_DONE")):
        generate(corpus, n_pages=2000, n_hosts=24, seed=42)

    F = 4
    full = load_corpus(corpus)
    slices = [load_corpus_shard(corpus, o, F) for o in range(F)]

    n_pages = len(full["pages"])
    n_images = len(full["images"])
    # image payloads partition exactly (disjoint by image_id hash)
    assert sum(len(s["images"]) for s in slices) == n_images
    ids = [set(s["images"]) for s in slices]
    assert not any(a & b for i, a in enumerate(ids) for b in ids[i + 1:])
    # pages cover the corpus; per-slice size is a fraction of it (ghost
    # redirect targets allow slight overlap but never O(corpus) blowup)
    assert set().union(*(s["pages"] for s in slices)) == set(full["pages"])
    for s in slices:
        # URL-hash sharding balances even under the corpus's hot hosts;
        # ghost redirect targets add a small overlap on top of 1/F
        assert len(s["pages"]) < 0.45 * n_pages

    # routed fetch parity: full-index worker vs owner-sliced workers
    from spider_ray.stages.fetchsim import FetchPermit, WebIndex, fetch_one

    workers = [
        WebIndex(s["pages"], s["images"], image_members=s["image_members"])
        for s in slices
    ]
    fullidx = WebIndex(full["pages"], full["images"])
    urls = sorted(full["pages"])[::7][:300]
    from spider_ray.stages.normalize import _route_hosts

    hosts = _route_hosts(urls)
    owners = (hash64(urls) % np.uint64(F)).astype(np.int64)
    uh = hash64(urls)
    for u, h, o, hh in zip(urls, hosts, owners, uh):
        p = FetchPermit(
            fetch_ts=0, url=u, url_hash=int(hh), host=h, priority=5,
            gen=0, seq=0, depth=0, tried=0, referer="",
        )
        a = fetch_one(p, fullidx)
        b = fetch_one(p, workers[int(o)])
        assert (a.status, a.effective_url, a.retry, a.via_proxy) == (
            b.status, b.effective_url, b.retry, b.via_proxy
        )
        assert a.outlink_rows == b.outlink_rows
        assert a.image_rows == b.image_rows


def test_fetch_dispatch_empty_blocks(ray_session):
    """Shard permit runs with empty ones among them (a shard that no
    candidate routes to) merge into non-empty permit chunks that route to
    the owning fetch actors and merge back into schema'd outputs in crawl
    order: the same rows a single full-index actor fetches."""
    import pyarrow as pa

    import spider_ray.pipelines.crawl as C
    from spider_ray.kernels.hashing import hash64
    from spider_ray.pipelines.oracle import load_corpus
    from spider_ray.sources.webgen import generate
    from spider_ray.stages.normalize import _route_hosts

    corpus = "/tmp/spider_ray_r4_legacy_corpus"
    if not os.path.exists(os.path.join(corpus, "_DONE")):
        generate(corpus, n_pages=120, n_hosts=6, seed=11)
    urls = sorted(load_corpus(corpus)["pages"])[:60]
    n = len(urls)
    permits = pa.table(
        {
            "fetch_ts": pa.array(range(n), pa.int64()),
            "url": pa.array(urls, pa.string()),
            "url_hash": pa.array(hash64(urls), pa.uint64()),
            "host": pa.array(_route_hosts(urls), pa.string()),
            "priority": pa.array([5] * n, pa.int16()),
            "gen": pa.array([0] * n, pa.int32()),
            "seq": pa.array(range(n), pa.int64()),
            "depth": pa.array([0] * n, pa.int16()),
            "tried": pa.array([0] * n, pa.int16()),
            "referer": pa.array([""] * n, pa.string()),
        }
    )
    empty = permits.slice(0, 0)
    pool = [C.FetchActorCls.remote(corpus, i, 2) for i in range(2)]
    full = C.FetchActorCls.remote(corpus)
    try:
        assert C._dispatch_fetch(
            pool, None, C._merge_runs([empty, empty], 25)
        ) == []
        runs = [empty, permits.take(list(range(0, n, 2))), empty,
                permits.take(list(range(1, n, 2)))]
        calls = C._dispatch_fetch(pool, None, C._merge_runs(runs, 25))
        assert len(calls) == 3
        status, imrefs, retries, outlinks = (
            list(C._pull_merged([[c[k] for c in cs] for cs in calls]))
            for k in range(4)
        )
        gold = ray.get(full.fetch_batch.remote(permits))
    finally:
        for a in pool + [full]:
            ray.kill(a)
    status = pa.concat_tables(status)
    assert status.schema == C.STATUS_SCHEMA
    assert status.equals(gold.drop_columns(["outlinks", "images"]))
    want_refs = [r for imgs in gold["images"].to_pylist() for r in imgs]
    assert [r for t in imrefs for r in t.to_pylist()] == want_refs
    assert want_refs, "the permits should reference images"
    for t in retries + outlinks:
        assert t.schema == C.CANDIDATE_SCHEMA
    want_links = [o["url"] for ls in gold["outlinks"].to_pylist() for o in ls]
    assert [u for t in outlinks for u in t["url"].to_pylist()] == want_links


def test_fetch_actor_restart_identical_results(ray_session):
    """Fetch actors are declared restartable (max_restarts=2) because
    fetch-sim results are pure per-permit functions of the rebuilt
    index: after a hard actor kill with restart, the SAME permit batch
    must produce byte-identical output from the restarted actor."""
    import pyarrow as pa

    import spider_ray.pipelines.crawl as C
    from spider_ray.kernels.hashing import hash64
    from spider_ray.pipelines.oracle import load_corpus_shard
    from spider_ray.stages.normalize import _route_hosts

    corpus = "/tmp/spider_ray_r4_legacy_corpus"
    a = C.FetchActorCls.remote(corpus, 0, 2)
    sl = load_corpus_shard(corpus, 0, 2)
    urls = sorted(sl["pages"])[:40]
    hosts = _route_hosts(urls)
    n = len(urls)
    batch = pa.table(
        {
            "fetch_ts": pa.array(range(n), pa.int64()),
            "url": pa.array(urls, pa.string()),
            "url_hash": pa.array(hash64(urls), pa.uint64()),
            "host": pa.array(hosts, pa.string()),
            "priority": pa.array([5] * n, pa.int16()),
            "gen": pa.array([0] * n, pa.int32()),
            "seq": pa.array(range(n), pa.int64()),
            "depth": pa.array([0] * n, pa.int16()),
            "tried": pa.array([0] * n, pa.int16()),
            "referer": pa.array([""] * n, pa.string()),
        }
    )
    before = ray.get(a.fetch_batch.remote(batch))
    ray.kill(a, no_restart=False)  # hard death; Ray restarts the actor
    after = ray.get(a.fetch_batch.remote(batch))
    assert before.equals(after)
    ray.kill(a)
