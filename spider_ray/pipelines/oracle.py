"""Single-process reference-semantics oracle crawler (SURVEY §5: "golden
end-to-end: tiny synthetic web crawled by a ~200-line single-process oracle").

Drives the exact same kernels and per-shard schedulers as the Ray engine —
sequentially, in one process — and produces the golden outputs the engine
must match: crawl order, URL-seen set, image+caption table, per-(gen, shard)
metrics (FIXTURES.md §8).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from spider_ray.kernels.hashing import hash64
from spider_ray.kernels.robots import parse_robots
# module-level on purpose: load_corpus and load_corpus_shard run inside
# FetchWorker.reset on Ray workers, where only pickle-by-value modules
# resolve — a function-level import would re-import by NAME at call time and
# crash any worker that cannot import the spider_ray package (the repo's
# worker-serialization rule)
from spider_ray.kernels import domtext
from spider_ray.sources import lance_io
from spider_ray.stages.fetchsim import (
    WebIndex,
    fetch_one,
    process_image,
    result_to_rows,
)
from spider_ray.stages.normalize import normalize_batch
from spider_ray.state.load_controller import LoadOptions, apply_crawl_delays
from spider_ray.state.scheduler import ShardScheduler

MAX_GENS = 8


def load_corpus(corpus_dir: str, parse_html: bool = False) -> dict:
    t = {
        name: pq.read_table(f"{corpus_dir}/{name}.parquet")
        for name in ("web_graph", "robots", "host_load", "frontier_seed")
    }
    # the image store goes through the Lance seam (format-blind read)
    t["images"] = lance_io.read_images_table(
        lance_io.resolve_images(f"{corpus_dir}/images")
    )
    pages = {r["url"]: r for r in t["web_graph"].to_pylist()}
    if parse_html:
        _attach_html_bodies(corpus_dir, pages)
    images = {r["image_id"]: r for r in t["images"].to_pylist()}
    robots = {
        r["host"]: parse_robots(r["body"]) for r in t["robots"].to_pylist()
    }
    load_rows = [
        (r["key"], r["max_connections"], r["max_qps"], r["window"])
        for r in t["host_load"].to_pylist()
    ]
    return {
        "pages": pages,
        "images": images,
        "robots": robots,
        "load_rows": load_rows,
        "seeds": t["frontier_seed"],
    }


def _attach_html_bodies(corpus_dir: str, pages: dict[str, dict]) -> None:
    """Attach raw HTML bytes (``_html``) to every page row present in
    ``pages`` from ``html_pages.parquet`` (webgen ``html_bodies=True``) —
    streamed so transient memory is one batch + the slice's own bodies."""
    import os

    import pyarrow.compute as pc

    path = os.path.join(corpus_dir, "html_pages.parquet")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"parse_html=True needs {path} — generate the corpus with "
            "webgen.generate(html_bodies=True)"
        )
    wanted = pa.array(sorted(pages), pa.string())
    for b in pq.ParquetFile(path).iter_batches(batch_size=4096):
        t = pa.Table.from_batches([b])
        for r in t.filter(pc.is_in(t["url"], value_set=wanted)).to_pylist():
            pages[r["url"]]["_html"] = r["body"]
    missing = [u for u, p in pages.items() if "_html" not in p]
    if missing:
        raise ValueError(
            f"html_pages.parquet is missing bodies for {len(missing)} "
            f"pages (e.g. {missing[:3]})"
        )


def load_corpus_shard(
    corpus_dir: str, owner: int, num_owners: int, parse_html: bool = False
) -> dict:
    """ONE fetch actor's slice of the simulated web — the round-3 verdict's
    "shard the WebIndex" fix: pages whose (URL hash64 mod ``num_owners``)
    == ``owner`` plus the redirect TARGETS those pages point at
    (fetch_one follows exactly one hop, and the target row's
    outlinks/image_refs are consumed, so ghosts must be full rows);
    image payload rows whose (image_id hash64 mod ``num_owners``) ==
    ``owner`` (the crawl driver routes kept refs to ``process_refs_pos``
    by the same key, ``crawl._by_owner``); and the slice's
    image-MEMBERSHIP set (ids referenced by slice pages that exist in the
    corpus images table) so fetch_one's emission check needs no payload.

    Pages shard by URL (not host) ON PURPOSE: fetch-sim is a pure
    per-URL function — politeness/host affinity lives in the scheduler
    shards — and per-URL hashing stays balanced under the corpus's
    deliberately hot hosts, which host-sharding cannot split.

    Per-actor RSS is O(corpus / num_owners) for both dicts, and the build
    STREAMS the parquet files batch-wise so even the transient peak is
    O(slice + one batch), never O(corpus): two passes over web_graph
    (slice rows, then ghost rows) and one over the image store."""
    import numpy as np
    import pyarrow.compute as pc

    wg_path = f"{corpus_dir}/web_graph.parquet"
    pages: dict[str, dict] = {}
    for b in pq.ParquetFile(wg_path).iter_batches(batch_size=16384):
        t = pa.Table.from_batches([b])
        urls = t["url"].to_pylist()
        own = (
            hash64(urls) % np.uint64(num_owners)
        ).astype(np.int64) == owner
        if own.any():
            for r in t.filter(pa.array(own)).to_pylist():
                pages[r["url"]] = r
    ghosts = {
        r["redirect_to"] for r in pages.values() if r.get("redirect_to")
    } - pages.keys()
    if ghosts:
        gset = pa.array(sorted(ghosts), pa.string())
        for b in pq.ParquetFile(wg_path).iter_batches(batch_size=16384):
            t = pa.Table.from_batches([b])
            gmask = pc.is_in(t["url"], value_set=gset)
            if pc.any(gmask).as_py():
                for r in t.filter(gmask).to_pylist():
                    pages[r["url"]] = r

    if parse_html:
        _attach_html_bodies(corpus_dir, pages)
        # parse mode: the membership set must cover the PARSED image
        # refs (identical to the table's on round-trip corpora, but
        # derive from the bytes to keep this loader honest); over-
        # inclusion from never-fetched pages is harmless
        referenced = {
            u
            for r in pages.values()
            for u, _ in domtext.extract_links(r["_html"], r["url"])["images"]
        }
    else:
        referenced = {
            ref["image_id"]
            for r in pages.values()
            for ref in (r["image_refs"] or [])
        }
    images: dict[str, dict] = {}
    members: set[str] = set()
    img_path = lance_io.resolve_images(f"{corpus_dir}/images")
    for b in lance_io.iter_images_batches(img_path):
        t = pa.Table.from_batches([b])
        iid = t["image_id"].to_pylist()
        members.update(i for i in iid if i in referenced)
        mine = (
            hash64(iid) % np.uint64(num_owners)
        ).astype(np.int64) == owner
        if mine.any():
            for r in t.filter(pa.array(mine)).to_pylist():
                images[r["image_id"]] = r
    return {"pages": pages, "images": images, "image_members": members}


def load_corpus_control(corpus_dir: str) -> dict:
    """Driver-side CONTROL tables only — robots rules, host-load rows and
    the seed frontier (all O(hosts)/O(seeds), never O(pages)). The page /
    image payload dicts deliberately stay OFF the driver: fetch-completion
    metadata lives shard-sliced in each ShardActor (``shard_meta``) and page
    bodies in the fetch actors' per-actor WebIndex, so driver RSS no longer
    scales with corpus size."""
    t = {
        name: pq.read_table(f"{corpus_dir}/{name}.parquet")
        for name in ("robots", "host_load", "frontier_seed")
    }
    robots = {
        r["host"]: parse_robots(r["body"]) for r in t["robots"].to_pylist()
    }
    load_rows = [
        (r["key"], r["max_connections"], r["max_qps"], r["window"])
        for r in t["host_load"].to_pylist()
    ]
    return {
        "robots": robots,
        "load_rows": load_rows,
        "seeds": t["frontier_seed"],
    }


def permit_sort_key(p) -> tuple:
    """Global crawl-order merge rule (shared with the engine)."""
    return (p.fetch_ts, p.priority, p.gen, p.seq, p.host)


def sitemap_seed_urls(corpus_dir: str) -> list[str]:
    """Single-process REFERENCE discovery of sitemap seed candidates —
    deliberately independent of the engine's distributed chain
    (functions/sitemap.py) so engine-vs-oracle crawl parity under
    ``sitemap_seeds=True`` actually tests the discovery: robots
    ``Sitemap:`` declarations, one round of ``<sitemapindex>``
    expansion, ``<loc>`` extraction, distinct, sorted by (host, url)."""
    import os
    import re

    robots = pq.read_table(
        os.path.join(corpus_dir, "robots.parquet")
    ).to_pylist()
    store = {
        r["url"]: r["body"]
        for r in pq.read_table(
            os.path.join(corpus_dir, "sitemaps.parquet")
        ).to_pylist()
    }
    decl = re.compile(r"(?i)sitemap:[ \t]*(\S+)")
    loc = re.compile(r"<loc>([^<]+)</loc>")
    rows: set[tuple[str, str]] = set()
    for r in robots:
        for sm_url in decl.findall(r["body"]):
            body = store.get(sm_url)
            if body is None:
                continue
            leaves = (
                [
                    store[c]
                    for c in loc.findall(body)
                    if c in store and "<sitemapindex" not in store[c]
                ]
                if "<sitemapindex" in body
                else [body]
            )
            for leaf in leaves:
                for u in loc.findall(leaf):
                    rows.add((r["host"], u))
    return [u for _, u in sorted(rows)]


def augment_seeds(seeds: pa.Table, cand_urls: list[str]) -> pa.Table:
    """Append sitemap-discovered URLs to a frontier_seed table (engine
    and oracle share this mechanical step; each side supplies its OWN
    independently-discovered ``cand_urls``, already in deterministic
    (host, url) order). URLs textually present in the seed list are
    skipped; appended rows carry the standard seed metadata (depth 0,
    priority 5, empty referer) and the downstream canonicalize+seen
    pass dedups any remaining aliases exactly like organic seeds."""
    existing = set(seeds["url"].to_pylist())
    add = [u for u in cand_urls if u not in existing]
    if not add:
        return seeds
    n = len(add)
    extra = pa.table(
        {
            "url": pa.array(add, pa.string()),
            "resource_type": pa.array([1] * n),
            "importance": pa.array([0.5] * n, pa.float64()),
            "priority": pa.array([5] * n),
            "depth": pa.array([0] * n),
            "referer": pa.array([""] * n, pa.string()),
        }
    ).select(seeds.column_names)
    return pa.concat_tables([seeds, extra.cast(seeds.schema)])


def run_oracle(
    corpus_dir: str,
    num_shards: int = 4,
    max_gens: int = MAX_GENS,
    options: LoadOptions | None = None,
    hot_hosts: tuple[str, ...] = (),
    sitemap_seeds: bool = False,
) -> dict:
    c = load_corpus(corpus_dir)
    if sitemap_seeds:
        c["seeds"] = augment_seeds(
            c["seeds"], sitemap_seed_urls(corpus_dir)
        )
    index = WebIndex(c["pages"], c["images"])
    meta = index.meta()
    c["load_rows"] = apply_crawl_delays(c["load_rows"], c["robots"], options)
    shards = [
        ShardScheduler(s, num_shards, c["load_rows"], options)
        for s in range(num_shards)
    ]

    candidates = pa.table(
        {
            "url": c["seeds"]["url"],
            "depth": c["seeds"]["depth"],
            "tried": pa.array([0] * c["seeds"].num_rows, pa.int16()),
            "priority": c["seeds"]["priority"],
            "referer": c["seeds"]["referer"],
        }
    )

    crawl_order: list[dict] = []
    image_rows: list[dict] = []
    status_rows: list[dict] = []
    metrics_rows: list[dict] = []
    seen_rows: list[dict] = []
    wave_start = 0

    for gen in range(max_gens):
        if candidates.num_rows == 0:
            break
        norm, m = normalize_batch(
            candidates, c["robots"], num_shards, gen, hot_hosts=hot_hosts
        )
        rows = norm.to_pylist()
        by_shard: dict[int, list[dict]] = {}
        for r in rows:
            by_shard.setdefault(r["shard"], []).append(r)

        permits = []
        for s, sched in enumerate(shards):
            srows = sorted(by_shard.get(s, []), key=lambda r: r["seq"])
            accepted, hits, new_seen = sched.admit(srows)
            seen_rows.extend(
                {"url_hash": uh, "url": u, "first_gen": g}
                for uh, u, g in new_seen
            )
            sp = sched.run_wave(accepted, wave_start, meta)
            permits.extend(sp)
            mrow = {
                "gen": gen,
                "shard": s,
                "candidates": len(srows),
                "dedup_hits": hits,
                "scheduled": len(sp),
                "top_host": sched.last_top_host,
                "top_host_n": sched.last_top_host_n,
                "dropped": sched.last_dropped,
            }
            if s == 0:
                mrow.update({f"norm_{k}": v for k, v in m.items()})
            metrics_rows.append(mrow)

        permits.sort(key=permit_sort_key)
        next_retries: list[dict] = []
        next_links: list[dict] = []
        img_candidates: list[dict] = []
        for p in permits:
            res = fetch_one(p, index)
            crawl_order.append(
                {
                    "order": len(crawl_order),
                    "fetch_ts": p.fetch_ts,
                    "url": p.url,
                    "host": p.host,
                    "gen": p.gen,
                    "priority": p.priority,
                    "seq": p.seq,
                    "tried": p.tried,
                    "status": res.status,
                }
            )
            status_rows.append(result_to_rows(res))
            if res.retry:
                next_retries.append(
                    {
                        "url": p.url,
                        "depth": p.depth,
                        "tried": p.tried + 1,
                        "priority": p.priority,
                        "referer": p.referer,
                    }
                )
            next_links.extend(res.outlink_rows)
            img_candidates.extend(res.image_rows)

        # image dedup: first-wins in global crawl order, sharded by id hash
        if img_candidates:
            ih = hash64([r["image_id"] for r in img_candidates])
            for r, h in zip(img_candidates, ih):
                s = int(h) % num_shards
                if shards[s].admit_images([h])[0]:
                    # decode/recompress/phash only AFTER first-wins dedup
                    image_rows.append(
                        {
                            **process_image(
                                c["images"][r["image_id"]], r["alt"]
                            ),
                            "first_gen": gen,
                        }
                    )

        next_rows = next_retries + next_links
        if next_rows:
            candidates = pa.table(
                {
                    "url": pa.array([r["url"] for r in next_rows], pa.string()),
                    "depth": pa.array([r["depth"] for r in next_rows], pa.int16()),
                    "tried": pa.array([r["tried"] for r in next_rows], pa.int16()),
                    "priority": pa.array(
                        [r["priority"] for r in next_rows], pa.int16()
                    ),
                    "referer": pa.array(
                        [r["referer"] for r in next_rows], pa.string()
                    ),
                }
            )
        else:
            candidates = pa.table({"url": pa.array([], pa.string())})
        wave_start = max(s.clock for s in shards)

    seen_rows.sort(key=lambda r: (r["url_hash"], r["url"]))

    return {
        "crawl_order": crawl_order,
        "seen": seen_rows,
        "images": image_rows,
        "status": status_rows,
        "metrics": metrics_rows,
        "shards": shards,
    }


from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()
