"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline on sf0.001; ``queries()`` maps each
implemented operator/pipeline from SURVEY.md §2 to a callable over ``sf_dir``;
``oracle_sql()`` gives the DuckDB-equivalent SQL (same column names).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spider_ray.functions import binpack as B  # noqa: E402
from spider_ray.functions import curation as C  # noqa: E402
from spider_ray.functions import linkbase as L  # noqa: E402
from spider_ray.functions import sketch as K  # noqa: E402
from spider_ray.functions import dedup as D  # noqa: E402
from spider_ray.functions import imagecurate as IC  # noqa: E402
from spider_ray.functions import imageshard as IS  # noqa: E402
from spider_ray.functions import urls as U  # noqa: E402
from spider_ray.functions import multimodal as M  # noqa: E402
from spider_ray.functions import similarity as S  # noqa: E402
from spider_ray.functions import text as T  # noqa: E402
from spider_ray.pipelines import relational as R  # noqa: E402

# Ray workers may not have this repo on sys.path (the driver controls
# ray.init). Register every spider_ray module for pickle-by-value so
# map_batches closures are fully self-contained.
try:  # pragma: no cover - depends on driver environment
    from ray import cloudpickle as _cp

    for _name, _mod in list(sys.modules.items()):
        if _name == "spider_ray" or _name.startswith("spider_ray."):
            try:
                _cp.register_pickle_by_value(_mod)
            except Exception:
                pass
except Exception:
    pass


_CRAWL_CACHE: dict[str, dict] = {}

# ONE demo-crawl recipe shared by the engine demo (_crawl_demo) and its
# independent golden twin (_crawl_golden): the two MUST crawl the same
# corpus with the same sharding or the crawl-trio oracles compare
# different crawls
DEMO_CORPUS_ARGS = {
    "n_pages": 150, "n_hosts": 6, "seed": 42,
    # html_bodies=True so the flagship crawl runs in parse mode (real
    # byte-level HTML parse per fetched page) — round 4 proved parse-mode
    # output byte-equal to table mode, round 5 makes it the default
    "html_bodies": True,
}
DEMO_NUM_SHARDS = 2


def _demo_corpus() -> str:
    from spider_ray.sources.webgen import generate

    return _build_once(
        "/tmp/spider_ray_entry_corpus_v2", "_DONE",
        lambda d: generate(d, **DEMO_CORPUS_ARGS),
    )


def _build_once(path: str, done_name: str, build) -> str:
    """Build a deterministic artifact directory exactly once, atomically:
    construct in a process-unique sibling dir, then ``os.rename`` into
    place. Concurrent builders (the correctness driver runs queries in
    parallel processes) each build their own copy and the first rename
    wins — nobody ever reads a half-written or mid-rmtree directory."""
    import shutil
    import tempfile

    done = os.path.join(path, done_name)
    if os.path.exists(done):
        return path
    tmp = tempfile.mkdtemp(
        prefix=os.path.basename(path) + ".", dir=os.path.dirname(path) or "/tmp"
    )
    build(tmp)
    with open(os.path.join(tmp, done_name), "w") as f:
        f.write("ok\n")
    try:
        os.rename(tmp, path)
    except OSError:
        if os.path.exists(os.path.join(path, done_name)):
            # lost the race — someone else's finished copy is in place
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            # stale partial dir from a crashed older run. Evict it via an
            # atomic RENAME to a unique trash dir — at most one concurrent
            # process wins the move, so a finished copy installed by a
            # sibling between our check and the eviction can never be
            # deleted (rmtree-ing `path` directly could race exactly that).
            try:
                os.rename(path, tmp + ".trash")
                shutil.rmtree(tmp + ".trash", ignore_errors=True)
            except OSError:
                pass  # someone else evicted (or replaced) it first
            try:
                os.rename(tmp, path)
            except OSError:
                shutil.rmtree(tmp, ignore_errors=True)
    return path


def _crawl_demo() -> dict:
    """Run the flagship crawl pipeline once on a deterministic synthetic
    corpus (cached for the process lifetime); returns its output tables."""
    if "demo" in _CRAWL_CACHE:
        return _CRAWL_CACHE["demo"]
    import glob

    import pyarrow.parquet as pq

    from spider_ray.pipelines.crawl import run_crawl, shutdown_fleet

    corpus = _demo_corpus()
    out = _build_once(
        "/tmp/spider_ray_entry_crawl_v3", "_DONE",
        lambda d: run_crawl(
            corpus, d, num_shards=DEMO_NUM_SHARDS, fetch_concurrency=2,
            parse_html=True,
        ),
    )
    # the only crawl of the session: do not keep its fleet through the
    # queries that follow
    shutdown_fleet()
    import pyarrow as pa

    from spider_ray.pipelines.crawl import read_sink

    status, images = [], []
    for d in sorted(
        glob.glob(os.path.join(out, "gen=*")),
        key=lambda p: int(p.split("=")[1]),
    ):
        status.append(read_sink(d, "status"))
        images.append(read_sink(d, "images").drop_columns(["bytes"]))
    res = {
        "order": pa.concat_tables(status, promote_options="default"),
        "images": pa.concat_tables(images, promote_options="default"),
        "seen": pq.read_table(os.path.join(out, "seen.parquet")),
    }
    _CRAWL_CACHE["demo"] = res
    return res


def _crawl_golden() -> str:
    """Materialize the single-process ORACLE crawler's outputs for the
    demo corpus as parquet (built once, cached on disk) — the independent
    twin the crawl trio's ``oracle_sql()`` entries read. Orchestration
    (sharded scheduling, politeness DES, wave flow, dedup, sinks) is a
    fully separate implementation from the Ray engine; only the row
    kernels (fetch-sim, image process) are shared by design, so a SQL
    compare against these files checks exactly what
    tests/test_crawl_parity.py checks — crawl order rows, image rows and
    the final seen set — but lands in the driver's CORRECTNESS record."""

    def build(d: str) -> None:
        from spider_ray.pipelines.crawl import (
            IMAGE_SCHEMA,
            SEEN_SCHEMA,
            STATUS_SCHEMA,
        )
        from spider_ray.pipelines.oracle import run_oracle

        corpus = _demo_corpus()
        import pyarrow as pa
        import pyarrow.parquet as pq

        out = run_oracle(corpus, num_shards=DEMO_NUM_SHARDS)
        pq.write_table(
            pa.Table.from_pylist(out["status"], schema=STATUS_SCHEMA),
            os.path.join(d, "status.parquet"),
        )
        pq.write_table(
            pa.Table.from_pylist(
                out["images"], schema=IMAGE_SCHEMA
            ).drop_columns(["bytes"]),
            os.path.join(d, "images.parquet"),
        )
        pq.write_table(
            pa.Table.from_pylist(out["seen"], schema=SEEN_SCHEMA),
            os.path.join(d, "seen.parquet"),
        )

    return _build_once("/tmp/spider_ray_entry_golden_v2", "_DONE", build)


def _phash_neardup_query(sf_dir: str) -> Any:
    """Near-dup images by phash over the deterministic demo corpus's
    image+caption table (the input_hint schema; rows-only — verified
    against a brute-force Hamming scan in tests/test_misc_ops.py)."""
    from spider_ray.functions.multimodal import phash_neardup
    from spider_ray.sources.webgen import generate

    # needs a corpus big enough to contain real near-dup pairs (the tiny
    # entry corpus has none): 2000 pages → ~1000 images, ~150 pairs at τ=6
    corpus = _build_once(
        "/tmp/spider_ray_phash_corpus", "_DONE",
        lambda d: generate(d, n_pages=2000, n_hosts=24, seed=42),
    )
    from spider_ray.sources.lance_io import resolve_images

    return phash_neardup(resolve_images(os.path.join(corpus, "images")))


def _phash_corpus() -> str:
    from spider_ray.sources.webgen import generate

    return _build_once(
        "/tmp/spider_ray_phash_corpus", "_DONE",
        lambda d: generate(d, n_pages=2000, n_hosts=24, seed=42),
    )


def _html_outlinks_query(sf_dir: str) -> Any:
    """Byte-level HTML anchor extraction (M8 over raw bytes): render each
    demo page to real HTML, parse with kernels/domtext.extract_links
    (reference rules: 1 MB truncation, first-wins dedup, 4096-byte URL
    cap), one row per surviving anchor. SQL-oracled: equality with the
    table's unnested outlinks IS the render→parse round-trip."""
    from spider_ray.functions.htmlextract import q_html_outlinks

    return q_html_outlinks(_phash_corpus())


def _html_page_stats_query(sf_dir: str) -> Any:
    """Per-page parse summary (extracted title + anchor/image/css counts
    after dedup and drop rules) from the same byte-level parse."""
    from spider_ray.functions.htmlextract import q_html_page_stats

    return q_html_page_stats(_phash_corpus())


def _css_corpus() -> str:
    from spider_ray.sources.webgen import generate

    # html_bodies=True: q_css_enrich parses the STORED page bytes
    # (html_pages.parquet) — the scale-honest path — instead of
    # re-rendering the corpus per query (render ≡ stored, proven r4)
    return _build_once(
        "/tmp/spider_ray_css_corpus_v2", "_DONE_CSS",
        lambda d: generate(
            d, n_pages=1000, n_hosts=12, seed=33, html_bodies=True
        ),
    )


def _css_enrich_query(sf_dir: str) -> Any:
    """J5's css half: parse stylesheet refs from real page bytes,
    dedup-fetch each distinct css once from the store, merge bodies back
    into every referencing page via the distributed hash join."""
    from spider_ray.functions.cssenrich import q_css_enrich

    return q_css_enrich(_css_corpus())


def _crawl_eval_query(sf_dir: str) -> Any:
    """Top-N(UV) URL / per-website crawl-success evaluation
    (crawler/evaluation, README:1-12): link-popularity top-N against the
    demo crawl's status reports. Oracle recomputes from the golden
    single-process crawler's status parquet + the corpus web graph."""
    from spider_ray.functions.webgraph import q_crawl_eval

    return q_crawl_eval(_demo_corpus(), _crawl_demo()["order"])


def _site_uv_share_query(sf_dir: str) -> Any:
    """Per-site UV share + content-page ratio (the evaluation package's
    website_uv_per / content_page_per / sort_website_uv tools)."""
    from spider_ray.functions.webgraph import q_site_uv_share

    return q_site_uv_share(_phash_corpus())


def _warc_corpus() -> str:
    from spider_ray.sources.webgen import generate

    return _build_once(
        "/tmp/spider_ray_warc_corpus", "_DONE_WARC",
        lambda d: generate(
            d, n_pages=800, n_hosts=12, seed=77, html_bodies=True
        ),
    )


def _warc_store() -> str:
    from spider_ray.functions.htmlextract import build_warc_store

    corpus = _warc_corpus()
    return _build_once(
        "/tmp/spider_ray_warc_store", "_DONE_WARCSTORE",
        lambda d: build_warc_store(corpus, d),
    )


def _warc_outlinks_query(sf_dir: str) -> Any:
    """WARC ingestion end to end: gzip archives parsed distributed
    (sources/warc.py), 200-status HTML bodies through the byte-level
    extractor — oracle recomputes from the source corpus's table."""
    from spider_ray.functions.htmlextract import q_warc_outlinks

    return q_warc_outlinks(_warc_store())


def _compress_control_query(sf_dir: str) -> Any:
    """Dispatcher compress control (mapper/reducer_compress_control.cc):
    per-host PV-derived crawl quota, sub-resource passthrough, top-score
    selection, backup queue for never-seen hosts — one hash-by-host
    shuffle with the whole decision vectorized per group."""
    from spider_ray.functions.dispatch import q_compress_control

    return q_compress_control(_phash_corpus())


def _images_store(sf_dir: str) -> str:
    """Resolved path of the deterministic demo image+caption store (the
    input_hint schema) used by the image-curation suite — the same
    2000-page corpus phash_neardup reads, big enough that every gate and
    the phash pair graph have real selectivity."""
    from spider_ray.sources.lance_io import resolve_images
    from spider_ray.sources.webgen import generate

    corpus = _build_once(
        "/tmp/spider_ray_phash_corpus", "_DONE",
        lambda d: generate(d, n_pages=2000, n_hosts=24, seed=42),
    )
    return resolve_images(os.path.join(corpus, "images"))


def _bucket_balance_query(sf_dir: str) -> Any:
    """Aspect-balanced quota resample of the demo image corpus (keep_rate
    = min bucket count / bucket count, frozen-mixer thresholds)."""
    from spider_ray.functions.imageshard import q_bucket_balance

    return q_bucket_balance(_images_store(sf_dir))


def _redirect_resolve_query(sf_dir: str) -> Any:
    """Pointer-doubling redirect-chain resolution over the demo corpus'
    web_graph (real 301 edges + the deterministic alias-chain/cycle
    workload) — SQL-oracled bit-exact via a recursive CTE."""
    from spider_ray.functions.webgraph import q_redirect_resolve

    _images_store(sf_dir)  # ensure the corpus exists
    return q_redirect_resolve("/tmp/spider_ray_phash_corpus")


def _link_rank_query(sf_dir: str) -> Any:
    """Fixed-iteration integer PageRank over the demo corpus' outlink
    graph (the frontier importance score) — SQL-oracled bit-exact via
    unrolled integer-arithmetic iterations."""
    from spider_ray.functions.webgraph import q_link_rank

    _images_store(sf_dir)
    return q_link_rank("/tmp/spider_ray_phash_corpus")


def _connected_components_query(sf_dir: str) -> Any:
    """Undirected connected components over the demo corpus' outlink
    graph by distributed hash-min label propagation to fixpoint —
    SQL-oracled (order-free fixpoint = min node per component, replayed
    by a recursive-CTE transitive closure)."""
    from spider_ray.functions.webgraph import q_connected_components

    _images_store(sf_dir)
    return q_connected_components("/tmp/spider_ray_phash_corpus")


def _crawl_delta_query(sf_dir: str) -> Any:
    """Recrawl delta report over the demo image store (frozen snapshot-B
    perturbation) — SQL-oracled via FULL OUTER JOIN."""
    from spider_ray.functions.imagecurate import q_crawl_delta

    return q_crawl_delta(_images_store(sf_dir))


def _aug_crop_plan_query(sf_dir: str) -> Any:
    """Deterministic augmentation crop origins over the input_hint image
    table — SQL-oracled bit-exact (geometry CTE + frozen mix64)."""
    from spider_ray.functions.imageresize import q_aug_crop_plan

    return q_aug_crop_plan(_images_store(sf_dir))


def _triangle_count_query(sf_dir: str) -> Any:
    """Triangle count over the demo corpus outlink graph (oriented
    wedge join) — SQL-oracled via the same 3-way lexicographic join."""
    from spider_ray.functions.webgraph import q_triangle_count

    _images_store(sf_dir)
    return q_triangle_count("/tmp/spider_ray_phash_corpus")


def _anchor_text_query(sf_dir: str) -> Any:
    """Per-target anchor-text aggregation over the demo corpus outlink
    graph (offline_analyze anchor merge) — inlink count, distinct source
    hosts, plurality anchor; SQL-oracled via UNNEST + window row_number."""
    from spider_ray.functions.webgraph import q_anchor_text

    _images_store(sf_dir)
    return q_anchor_text("/tmp/spider_ray_phash_corpus")


def _recrawl_schedule_query(sf_dir: str) -> Any:
    """Adaptive per-URL revisit plan from the snapshot delta (halve on
    change, double on no-change, clamped; priority bands) — SQL-oracled
    bit-exact via the same frozen perturbation + integer arithmetic."""
    from spider_ray.functions.imagecurate import q_recrawl_schedule

    return q_recrawl_schedule(_images_store(sf_dir))


def _sitemap_corpus() -> str:
    """Demo corpus for sitemap discovery — generated fresh (the phash
    corpus cache predates the sitemaps table)."""
    from spider_ray.sources.webgen import generate

    return _build_once(
        "/tmp/spider_ray_sitemap_corpus", "_DONE",
        lambda d: generate(d, n_pages=2000, n_hosts=24, seed=42),
    )


def _sitemap_seeds_query(sf_dir: str) -> Any:
    """Sitemap-driven seed discovery: robots Sitemap: declarations →
    fetch join → 2-level index expansion → <loc> extraction → novelty
    flag vs web_graph — SQL-oracled via regexp_extract_all + UNNEST."""
    from spider_ray.functions.sitemap import q_sitemap_seeds

    return q_sitemap_seeds(_sitemap_corpus())


def _host_rate_plan_query(sf_dir: str) -> Any:
    """Per-host crawl capacity plan (page counts × politeness budgets ×
    robots Crawl-delay caps → milli-QPS + projected serial crawl time)
    — SQL-oracled bit-exact over the demo corpus control tables."""
    from spider_ray.functions.webgraph import q_host_rate_plan

    return q_host_rate_plan(_sitemap_corpus())


def _host_graph_query(sf_dir: str) -> Any:
    """Host-level link graph (cross-host edge counts + distinct linking
    pages) over the demo corpus — SQL-oracled via UNNEST + group-by."""
    from spider_ray.functions.webgraph import q_host_graph

    _images_store(sf_dir)
    return q_host_graph("/tmp/spider_ray_phash_corpus")


def _format_sniff_query(sf_dir: str) -> Any:
    """Payload integrity gate: magic-byte format sniff + container-header
    geometry vs declared columns, frozen first-byte-flip corruption
    workload — SQL-oracled bit-exact via hex() arithmetic."""
    from spider_ray.functions.imagecurate import q_format_sniff

    return q_format_sniff(_images_store(sf_dir))


def _image_filter_query(sf_dir: str) -> Any:
    """LAION-style metadata/caption/payload gate with per-reason reject
    bitmask over the input_hint image table (SQL-oracled bit-exact)."""
    return IC.q_image_filter(_images_store(sf_dir))


def _phash_clusters_query(sf_dir: str) -> Any:
    """phash duplicate-cluster resolution: connected components over the
    Hamming-verified pair graph, best-resolution representative per
    cluster (SQL-oracled via recursive CTE + window row_number)."""
    return IC.q_phash_clusters(_images_store(sf_dir))


def _image_curate_query(sf_dir: str) -> Any:
    """Composed image-corpus curation: every gate passes AND the image is
    its cluster's best-resolution gate-passing representative."""
    return IC.q_image_curate(_images_store(sf_dir))


def _aspect_buckets_query(sf_dir: str) -> Any:
    """SDXL-style aspect-ratio bucketing: integer-exact cross-multiplied
    argmin over the fixed prototype set (SQL-oracled bit-exact)."""
    return IS.q_aspect_buckets(_images_store(sf_dir))


def _image_shard_pack_query(sf_dir: str) -> Any:
    """WebDataset-style byte-budget shard layout: per-range distributed
    greedy pack + O(ranges) offset cumsum (SQL-oracled via lockstep
    recursive CTE)."""
    return IS.q_image_shard_pack(_images_store(sf_dir))


def _shard_manifest_query(sf_dir: str) -> Any:
    """Per-shard lineage/integrity manifest over the shard-pack layout:
    pack range (resume unit), counts, byte totals, seq interval, and an
    order-free mix64 xor checksum — per-batch combiner + hash-partitioned
    merge (SQL-oracled bit-exact including the checksum)."""
    return IS.q_shard_manifest(_images_store(sf_dir))


def _bucket_shard_pack_query(sf_dir: str) -> Any:
    """Aspect-bucketed shard layout (SDXL bucketed-dataloader composition):
    integer-exact bucket argmin, then the greedy byte-budget pack within
    each (bucket, range) — shards never mix buckets (SQL-oracled via the
    same lockstep recursive CTE, partitioned by bucket)."""
    return IS.q_bucket_shard_pack(_images_store(sf_dir))


def _bucket_stats_query(sf_dir: str) -> Any:
    """Dataset-card rollup per (aspect bucket, format): integer-exact
    counts / payload bytes / dim extremes / caption words; per-batch
    combiner + bounded-key final merge (SQL-oracled bit-exact)."""
    return IS.q_bucket_stats(_images_store(sf_dir))


def _resize_plan_query(sf_dir: str) -> Any:
    """Per-image SDXL resize geometry (bucket argmin + integer
    cover-scale + centered crop) — SQL-oracled bit-exact; the pixel
    stage (imageresize.ResizeToBucket) executes this exact plan and is
    pytest-verified against a single-process reference."""
    from spider_ray.functions.imageresize import q_resize_plan

    return q_resize_plan(_images_store(sf_dir))


def _epoch_shuffle_query(sf_dir: str) -> Any:
    """Deterministic WebDataset-style epoch order over the shard layout:
    frozen mix64 shard permutation + within-shard member shuffle; the
    driver holds only the O(shards) base-offset cumsum and ranks are
    local per-shard sorts (SQL-oracled bit-exact for epoch=1)."""
    return IS.q_epoch_shuffle(_images_store(sf_dir), epoch=1)


def _image_decontaminate_query(sf_dir: str) -> Any:
    """Benchmark decontamination for the image corpus: training images
    within phash-Hamming tau of any held-out benchmark image (seq % 17
    == 0); broadcast bench vector + per-batch XOR/popcount matrix
    (SQL-oracled bit-exact)."""
    return IC.q_image_decontaminate(_images_store(sf_dir))


def _curate_shard_query(sf_dir: str) -> Any:
    """End-to-end image-axis composition (rows-only: a pipeline with a
    filesystem sink): curate the corpus, write the curated store, lay it
    out as shards, audit — returns the per-range write summary; raises on
    any audit divergence."""
    import shutil
    import tempfile

    from spider_ray.pipelines.imagecorpus import curate_and_shard

    out = tempfile.mkdtemp(prefix="spider_curate_shard_")
    try:
        return curate_and_shard(_images_store(sf_dir), out)["summary"]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _shard_write_audit_query(sf_dir: str) -> Any:
    """Resumable shard-writer round trip (rows-only: a sink, not SQL):
    physically write the corpus into the planned shard layout under a
    fresh /tmp dir, stream the files back, and audit every shard against
    the oracled manifest — raises on any divergence, returns the
    per-range write summary."""
    import shutil
    import tempfile

    from spider_ray.stages.shardsink import verify_shards, write_shards

    out = tempfile.mkdtemp(prefix="spider_shardsink_")
    try:
        summary = write_shards(_images_store(sf_dir), out)
        rep = verify_shards(out)
        if rep["mismatches"]:
            raise RuntimeError(f"shard audit failed: {rep['mismatches'][:5]}")
        return summary
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _search_ref_query(sf_dir: str) -> Any:
    """Search-referrer classification rollup (search_query.cc port):
    per-(engine, query) PV + distinct-user counts over deterministic
    synthetic referrers."""
    from spider_ray.functions.loganalysis import q_search_ref_classify

    return q_search_ref_classify(sf_dir)


def _session_merge_query(sf_dir: str) -> Any:
    """PV session segmentation + adjacent-session overlap merge
    (pvlog_segmenter.cc port): per-(user, merged-session) rollup."""
    from spider_ray.functions.loganalysis import q_session_merge

    return q_session_merge(sf_dir)


def _query_click_query(sf_dir: str) -> Any:
    """query→vertical-site click rollup (userlog/stat/query_click.cc):
    two-source union (PV vertical clicks with search referrers +
    search-log rows) → distinct-user counts per (query, site)."""
    from spider_ray.functions.loganalysis import q_query_click

    return q_query_click(sf_dir)


def _pv_normalize_query(sf_dir: str) -> Any:
    """pv_plus mapper (userlog/pv_log/pv_plus.cc): wire-format kv-list
    parse + 3-generation disambiguation + LE decodes → pvlog rows."""
    from spider_ray.functions.loganalysis import q_pv_normalize

    return q_pv_normalize(sf_dir)


def _pv_md5_map_query(sf_dir: str) -> Any:
    """pv_plus reducer md5 sink: per-(md5, url_b64) keep-max formatted
    time, re-emitted as epoch seconds."""
    from spider_ray.functions.loganalysis import q_pv_md5_map

    return q_pv_md5_map(sf_dir)


def _target_url_query(sf_dir: str) -> Any:
    """Search-result target extraction (baidu_target_url.cc /
    google_target_url.cc): crack every synthetic result link."""
    from spider_ray.functions.loganalysis import q_target_url_extract

    return q_target_url_extract(sf_dir)


def _site_search_query(sf_dir: str) -> Any:
    """Site-internal vertical-search query extraction (site_query.cc):
    ordered regex book + both decoders over the synthetic URL mix."""
    from spider_ray.functions.loganalysis import q_site_search_classify

    return q_site_search_classify(sf_dir)


def _updater_select_query(sf_dir: str) -> Any:
    """Updater MR pair (mr_updater_mapper.cc:38-76 + reducer): shard-
    ranged staleness re-crawl selection over a deterministic synthetic
    linkbase (headers rebuilt + rfind-extracted on both sides)."""
    from spider_ray.functions.updater import q_updater_select

    return q_updater_select(sf_dir)


def entry() -> Any:
    """Flagship: the crawl loop end-to-end on a small deterministic corpus —
    returns the politeness-ordered crawl log (stable schema, ≥ 1 row)."""
    return _crawl_demo()["order"]


def _crawl_order_query(sf_dir: str) -> Any:
    """Politeness-ordered crawl log of the deterministic demo crawl —
    oracle-checked row-for-row against the independent single-process
    oracle crawler's golden (exact ORDER parity additionally asserted in
    tests/test_crawl_parity.py)."""
    return _crawl_demo()["order"]


def _crawl_images_query(sf_dir: str) -> Any:
    """Image+caption rows fetched by the demo crawl — oracle-checked
    against the oracle crawler's golden; pixel/caption parity also in
    tests/test_crawl_parity.py."""
    return _crawl_demo()["images"]


def _crawl_seen_query(sf_dir: str) -> Any:
    """Final URL-seen set of the demo crawl — oracle-checked against the
    oracle crawler's golden; seen-set parity also in
    tests/test_crawl_parity.py."""
    return _crawl_demo()["seen"]


def queries() -> dict[str, Callable[[str], Any]]:
    q: dict[str, Callable[[str], Any]] = {
        # aggregations (SURVEY §2.5) — conditional_agg is double-covered by
        # tools/oracle_strict.py and moved to the tail (agg class stays
        # represented by pricing_summary / per_key_count / heavy_hitters)
        "pricing_summary": R.q_pricing_summary,
        # link-graph passes over web_graph (crawl scheduling inputs):
        # pointer-doubling redirect-chain resolution (with planted cycles)
        # and fixed-iteration integer PageRank — both SQL-oracled
        # bit-exact (recursive CTE / unrolled integer iterations). To make
        # room, per_key_count / anti_join / asof_join / union_dedup — all
        # green in r01+r02 AND double-covered by tools/oracle_strict.py —
        # moved to the tail (agg class stays repped by pricing_summary +
        # heavy_hitters, joins by linkbase_merge + bloom_anti_join, dedup
        # by exact_dedup).
        "redirect_resolve": _redirect_resolve_query,
        "link_rank": _link_rank_query,
        # caption→image retrieval eval over the paired embedding table
        # (recall@k of the true partner; SQL-oracled bit-exact at 6 dp —
        # the knn_bruteforce rounding convention)
        "crossmodal_recall": S.q_crossmodal_recall,
        # dedup suite (SURVEY §2.7 + training-data ops)
        "exact_dedup": D.q_exact_dedup,
        # span-level exact-substring dedup (Lee et al. 2022 shape):
        # per-doc counts of W-word spans duplicated corpus-wide
        # (broadcast_join, join class double-covered, moved to the tail)
        "dup_spans": D.q_dup_spans,
        "minhash_lsh_pairs": D.q_minhash_lsh_pairs,
        "simhash_pairs": D.q_simhash_pairs,
        # the exact O(N²) twin embedding_neardup is double-covered by
        # tools/oracle_strict.py and moved to the tail; the LSH scale path
        # below keeps the class in the window
        # LSH-bucketed scale path of embedding_neardup — SQL-oracled end to
        # end: integer-exact Rademacher banding (quantized components +
        # mix64-parity signs, similarity._rademacher_signs) replays in
        # DuckDB; recall vs the exact variant is ALSO asserted in
        # tests/test_text_dedup_sim.py
        "embedding_neardup_lsh": S.q_embedding_neardup_lsh,
        "dup_clusters": D.q_dup_clusters,
        "corpus_curate": D.q_corpus_curate,
        # curation stages (training-data ops): PII scrub, benchmark
        # decontamination, Gopher-style repetition gate — all SQL-oracled
        # (RE2 shared by pyarrow+DuckDB; shingle-string semi-join;
        # integer-exact repetition thresholds)
        "pii_redact": C.q_pii_redact,
        "decontaminate": C.q_decontaminate,
        "repetition_filter": C.q_repetition_filter,
        # CLIP-score image<->caption alignment gate (LAION-style curation):
        # per-pair cosine via hash co-partition on pair_id + one einsum per
        # group — single-partner join shape, not the all-pairs neardup
        "clip_align": M.q_clip_align,
        # image-corpus curation over the input_hint image+caption table
        # (LAION-style gates + phash cluster resolve + composed curate) —
        # all three SQL-oracled bit-exact
        "image_filter": _image_filter_query,
        "phash_clusters": _phash_clusters_query,
        "image_curate": _image_curate_query,
        # phash twin of the text decontaminate op (SQL-oracled bit-exact)
        "image_decontaminate": _image_decontaminate_query,
        # training-layout ops for the image corpus (aspect bucketing +
        # WebDataset shard packing) — SQL-oracled bit-exact; the text ops
        # charset_decode / main_content move to the tail (both carry
        # golden-fixture pytest suites AND strict double-coverage)
        "aspect_buckets": _aspect_buckets_query,
        "image_shard_pack": _image_shard_pack_query,
        # per-shard lineage/integrity manifest + the SDXL bucketed-
        # dataloader composition — both SQL-oracled bit-exact
        # (shard_manifest — shard class triple-repped in-window by
        # image_shard_pack/bucket_shard_pack/shard_write_audit — moved
        # to the tail; sitemap discovery is a NEW class this session)
        "sitemap_seeds": _sitemap_seeds_query,
        "bucket_shard_pack": _bucket_shard_pack_query,
        # deterministic two-level training-epoch order over the shards
        # (ngram_jaccard_pairs, near-dup class triple-covered in-window
        # by minhash/simhash/embedding-LSH, moved to the tail)
        "epoch_shuffle": _epoch_shuffle_query,
        # per-(bucket, fmt) dataset-card rollup (langid — SQL-oracled,
        # strict-double-covered, text class richly repped — to the tail)
        # (bucket_stats — bucket class triple-repped — to the tail;
        # the adaptive revisit plan is a NEW class this session)
        "recrawl_schedule": _recrawl_schedule_query,
        # per-aspect-bucket quota resample toward the smallest bucket
        # (the mixture_sample mechanics over DATA-DEPENDENT rates;
        # SQL-oracled bit-exact via HUGEINT thresholds)
        "bucket_balance": _bucket_balance_query,
        # SDXL resize geometry (fingerprints, SQL-oracled and
        # strict-double-covered, moved to the tail)
        "resize_plan": _resize_plan_query,
        # rows-only sink/pipeline entries (no SQL form): the ONLY recorded
        # check they can get is a driver row, so they sit inside the
        # window; token_stats/quality_scores (SQL-oracled, double-covered
        # by tools/oracle_strict.py) moved to the tail to make room
        "shard_write_audit": _shard_write_audit_query,
        "curate_shard_pipeline": _curate_shard_query,
        # text analysis
        # vocab fit -> broadcast -> OOV transform (two-pass training-data
        # op; bpe_token_count, same text-analysis class, moved to the
        # double-covered tail to keep this inside the driver window)
        "vocab_oov": T.q_vocab_oov,
        "mixture_sample": T.q_mixture_sample,
        "sequence_pack": T.q_sequence_pack,
        # similarity search — ALL SQL-oracled end to end: knn_lsh via the
        # integer-exact Rademacher scheme, knn_ivf via integer-state
        # k-means + replayable-double distance ranks (_ivf_oracle_sql)
        "knn_bruteforce": S.q_knn_bruteforce,
        "knn_ivf": S.q_knn_ivf,
        # (knn_lsh — ANN class double-repped by bruteforce/IVF — to the
        # tail; the capacity planner is a NEW class this session)
        "host_rate_plan": _host_rate_plan_query,
        # URL operators
        "url_canonicalize": U.q_url_canonicalize,
        "host_split": U.q_host_split,
        "ip_url_split": U.q_ip_url_split,
        "linkbase_merge": L.q_linkbase_merge,
        # updater shard-interval re-crawl selection (round 5, G1's last
        # MR pair): page filter + [start,end) shard gate + rfind header
        # extraction (Last-Modified → Date fallback) + per-url
        # keep-max-timestamp 'M' rows — SQL-oracled bit-exact
        "updater_select": _updater_select_query,
        # log_analysis family (round 5): search-referrer classification
        # rollup (ordered codebook + param-order scan + empty-query
        # kill, search_query.cc:22-231) and PV sessionization with
        # adjacent-session overlap merge (pvlog_segmenter.cc:129-205)
        # — both SQL-oracled bit-exact
        "search_ref_classify": _search_ref_query,
        "session_merge": _session_merge_query,
        "query_click": _query_click_query,
        # pv_plus wire-format normalizer (round 5, the largest
        # log_analysis file ported whole): kv-list parse with the
        # abandon-on-any-fault gates, three-generation url/ref
        # disambiguation, LE time/attr decode → pvlog rows + the
        # md5→url keep-max-time map — both SQL-oracled bit-exact
        "pv_normalize": _pv_normalize_query,
        "pv_md5_map": _pv_md5_map_query,
        # search-result target-URL extraction (round 5): baidu
        # nibble-XOR cipher crack (two key generations, real production
        # ciphers pinned in tests) + google redirect param walk
        "target_url_extract": _target_url_query,
        # site-internal vertical-search extraction (round 5): ordered
        # regex book + %uXXXX wide-char / double-encode decoders
        "site_search_classify": _site_search_query,
        # real-HTML byte-level link extraction (round 4, M8 over raw
        # bytes): render_html → extract_links round-trip, SQL-oracled
        # from the web_graph table. In-window; displaces seeded_shuffle
        # (O4 repped in-window by epoch_shuffle) and approx_distinct
        # (sketch class repped by heavy_hitters), both strict-sweep
        # double-covered, to the tail.
        "html_outlinks": _html_outlinks_query,
        "html_page_stats": _html_page_stats_query,
        # scheduling ops (SQL-oracled: exact-cents weights make the
        # greedy walk replayable as a recursive CTE)
        "binpack_customers": B.q_binpack_customers,
        # sketches — heavy_hitters and bloom_anti_join are
        # sketch-ACCELERATED but exact
        "heavy_hitters": K.q_heavy_hitters,
        "bloom_anti_join": K.q_bloom_anti_join,
        # crawl engine — oracle-checked against the independent
        # single-process reference-semantics crawler's materialized outputs
        # (_crawl_golden); exact ORDER parity additionally pinned in
        # tests/test_crawl_parity.py
        "phash_neardup": _phash_neardup_query,
        # J5's css half (round 4): dedup-fetch + merge-back enrichment
        # join, SQL-oracled. In-window; displaces audio_features (M15
        # repped in-window by video_frames, strict-sweep double-covered)
        # to the tail.
        "css_enrich": _css_enrich_query,
        # multimodal actor-pool stages over synthetic deterministic clips
        "video_frames": M.q_video_frames,
        "crawl_order": _crawl_order_query,
        "crawl_images": _crawl_images_query,
        "crawl_seen": _crawl_seen_query,
        # sampling / windows (§2.6, §2.9) — placed after the 50-entry
        # driver-recording window on purpose: every one of these is
        # SQL-oracled AND double-covered by tools/oracle_strict.py, so the
        # driver window is spent on the rows-only / sketch / crawl entries
        # that have no other recorded check.
        "topk_spenders": R.q_topk_spenders,
        "seeded_shuffle": U.q_seeded_shuffle,
        "approx_distinct": K.q_approx_distinct,
        "audio_features": M.q_audio_features,
        # evaluation package (round 4): top-N(UV) crawl-success report
        "crawl_eval": _crawl_eval_query,
        # dispatcher compress control (round 4): per-host PV-quota
        # throttling with passthrough/quota/backup keep reasons
        "compress_control": _compress_control_query,
        # evaluation single-machine tools: per-site UV share +
        # content-page ratio (website_uv_per / content_page_per)
        "site_uv_share": _site_uv_share_query,
        # WARC-archive ingestion → byte-level extraction (round 4): the
        # full chain corpus → .warc.gz on disk → distributed archive
        # parse → HTML parse → outlinks, oracle-checked from web_graph
        "warc_outlinks": _warc_outlinks_query,
        "per_key_count": R.q_per_key_count,
        "anti_join": R.q_anti_join,
        "asof_join": R.q_asof_join,
        "union_dedup": R.q_union_dedup,
        "charset_decode": T.q_charset_decode,
        "main_content": T.q_main_content,
        "latest_record": R.q_latest_record,
        "range_join": R.q_range_join,
        "priority_bands": R.q_priority_bands,
        "minmax_stats": R.q_minmax_stats,
        "region_revenue": R.q_region_revenue,
        "filter_revenue": R.q_filter_revenue,
        "sample_mod": R.q_sample_mod,
        "window_hourly": R.q_window_hourly,
        "sliding_window": R.q_sliding_window,
        "sessionize": R.q_sessionize,
        "topn_per_group": R.q_topn_per_group,
        "running_total": R.q_running_total,
        "distinct_per_key": R.q_distinct_per_key,
        "rollup": R.q_rollup,
        "stratified_sample": R.q_stratified_sample,
        "quantiles": R.q_quantiles,
        "url_parts": U.q_url_parts,
        "bpe_token_count": T.q_bpe_token_count,
        "broadcast_join": R.q_broadcast_join,
        "token_stats": T.q_token_stats,
        "quality_scores": T.q_quality_scores,
        "conditional_agg": R.q_conditional_agg,
        "cogroup_join": R.q_cogroup_join,
        "embedding_neardup": D.q_embedding_neardup,
        # SemDeDup-style semantic dedup: knn_ivf's integer-state k-means
        # + within-cluster lower-id cosine prune — SQL-oracled bit-exact
        # via the SHARED k-means replay prefix; past-window on purpose
        # (strict-tool double-covered; near-dup class already in-window)
        "semantic_dedup": S.q_semantic_dedup,
        # hard-negative mining for contrastive training (CLIP batch
        # construction): top non-partner gallery images per benchmark
        # caption under the frozen rounded-cosine order — SQL-oracled
        "hard_negatives": S.q_hard_negatives,
        "ngram_jaccard_pairs": D.q_ngram_jaccard_pairs,
        "langid": T.q_langid,
        "fingerprints": T.q_fingerprints,
        # BM25 relevance of every doc against the frozen term set — the
        # index-model "importance" analog (scheduler.cc:218); SQL-oracled
        # bit-exact (frozen literals/associativity + round-6 guard)
        "bm25_scores": T.q_bm25_scores,
        # distributed undirected connected components (hash-min label
        # propagation to fixpoint) over the demo corpus outlink graph —
        # the scale form of dup_clusters' driver-side union-find
        "connected_components": _connected_components_query,
        # crawler-trap detection: per-host URL-shape explosion stats +
        # trap flag over a deterministic synthesized URL workload —
        # SQL-oracled (integer rules, shared construction)
        "trap_hosts": U.q_trap_hosts,
        # bounded-memory approximate per-group quantiles via the
        # deterministic hash-gated sample sketch — SQL-oracled EXACTLY
        # (the gate replays; no error-band hand-waving)
        "approx_quantiles": K.q_approx_quantiles,
        # frozen-weight quality classifier (batched model-inference
        # shape: broadcast weights, vectorized per-batch dot) —
        # SQL-oracled bit-exact via exact-binary-fraction weights
        "quality_logit": T.q_quality_logit,
        # distinct-set INTERSECT (both-halves customer activity) — the
        # set-op class next to union_dedup; SQL-oracled
        "intersect_keys": R.q_intersect_keys,
        # skew-salted dimension join (hot key spread over salt buckets,
        # dimension row replicated per bucket) — SQL-oracled; salt-
        # invariance vs the unsalted join pinned in tests
        "salted_join": R.q_salted_join,
        # LEFT OUTER join through the partition-cogroup (unmatched left
        # rows keep null payload) + bounded match-status aggregate
        "left_join_nulls": R.q_left_join_nulls,
        # CUBE: all 4 grouping sets from one scan (rollup discipline
        # extended to the full lattice)
        "cube": R.q_cube,
        # ordered view→click→purchase funnel (chained-min semantics,
        # hash-partitioned by user, O(partitions) final)
        "funnel": R.q_funnel,
        # cohort retention matrix (first-active-week cohorts × offset)
        "retention": R.q_retention,
        # triangle count over the outlink graph (oriented wedge join)
        "triangle_count": _triangle_count_query,
        # SCD type-2 versioned dimension (validity intervals per key) —
        # the warehouse twin of J6's keep-latest merge
        "scd2": R.q_scd2,
        # deterministic per-(epoch, image) random-crop augmentation plan
        # (reproducible training streams; frozen mix64 origins within
        # the cover-resize slack)
        "aug_crop_plan": _aug_crop_plan_query,
        # recrawl delta report: FULL OUTER cogroup of two snapshots →
        # per-(host, status) added/removed/changed/same counts
        "crawl_delta": _crawl_delta_query,
        # per-target anchor-text aggregation (linkbase side table):
        # inlink count, distinct source hosts, plurality anchor
        "anchor_text": _anchor_text_query,
        # shard/bucket/ANN entries displaced from the 50-row window by
        # this session's new classes (all strict-double-covered)
        "shard_manifest": _shard_manifest_query,
        "bucket_stats": _bucket_stats_query,
        "knn_lsh": S.q_knn_lsh,
        # host-level link graph: cross-host edge counts + distinct
        # linking pages (the scheduler's per-host structure + the
        # standard shuffle-skew diagnostic)
        "host_graph": _host_graph_query,
        # payload integrity gate: magic-byte sniff + header geometry vs
        # declared fmt/w/h (quarantine before the decode pool)
        "format_sniff": _format_sniff_query,
        # per-user inter-event-time stats (the LAG window class; exact
        # int64 µs aggregates)
        "interevent_gaps": R.q_interevent_gaps,
        # the skew-salted join with the PLANNER detecting the hot key
        # (detect_hot_keys → auto_salted_join); same oracle as
        # salted_join — detection changes the plan, never the answer
        "salted_join_auto": R.q_salted_join_auto,
        # BPE tokenizer TRAINING (Sennrich merge loop on the distributed
        # word-frequency table; rows-only — iterative argmax is not SQL)
        "bpe_train": T.q_bpe_train,
        # and its transform: broadcast merge table → per-lang exact
        # subword stats (rows-only; invariants pytest-pinned)
        "bpe_segment": T.q_bpe_segment,
        # VAD-style energy segmentation over REAL-decoded PCM WAV
        # (frame-energy runs; burst layout replayed exactly in SQL)
        "audio_segments": M.q_audio_segments,
    }
    # ---- round-5 driver-window rotation ------------------------------
    # The driver records CORRECTNESS rows for the FIRST 50 entries only.
    # _WINDOW below is the AUTHORITATIVE membership (it supersedes the
    # placement comments above): rows-only entries (crawl trio, sink
    # audits) that have no other recorded check, this round's fix
    # (css_enrich) and new operators stay in; 16 entries that had NEVER
    # had a driver row rotate in (8 pre-existing, semantic_dedup …
    # warc_outlinks, + the 8 round-5 operators); 16
    # basics with 2-4 green driver rows each AND strict-tool double
    # coverage rotate to the tail (pricing_summary, exact_dedup,
    # simhash/minhash pairs, dup_clusters, corpus_curate, pii/decontam/
    # repetition, mixture_sample, sequence_pack, knn_bruteforce,
    # url_canonicalize, host_split, crossmodal_recall, dup_spans).
    _WINDOW = [
        "redirect_resolve", "link_rank", "embedding_neardup_lsh",
        "clip_align", "image_filter", "phash_clusters", "image_curate",
        "image_decontaminate", "aspect_buckets", "image_shard_pack",
        "sitemap_seeds", "bucket_shard_pack", "epoch_shuffle",
        "recrawl_schedule", "bucket_balance", "resize_plan",
        "shard_write_audit", "curate_shard_pipeline", "vocab_oov",
        "knn_ivf", "host_rate_plan", "ip_url_split", "linkbase_merge",
        "updater_select", "search_ref_classify", "session_merge",
        "html_outlinks", "html_page_stats", "binpack_customers",
        "heavy_hitters", "bloom_anti_join", "phash_neardup",
        "css_enrich", "video_frames",
        "semantic_dedup", "connected_components", "bm25_scores",
        "anchor_text", "salted_join_auto",
        "query_click", "pv_normalize", "pv_md5_map",
        "target_url_extract", "site_search_classify",
        "crawl_eval", "compress_control",
        "warc_outlinks",
        "crawl_order", "crawl_images", "crawl_seen",
    ]
    assert len(_WINDOW) == 50 and len(set(_WINDOW)) == 50
    assert all(k in q for k in _WINDOW)
    head = {k: q[k] for k in _WINDOW}
    tail = {k: v for k, v in q.items() if k not in head}
    return {**head, **tail}


def oracle_sql() -> dict[str, str]:
    # phash_neardup's oracle reads the deterministic demo image corpus by
    # absolute path; build it here (disk-cached) so the SQL is runnable
    # regardless of whether the driver executes the Ray query first
    from spider_ray.sources.webgen import generate

    phash_corpus = _build_once(
        "/tmp/spider_ray_phash_corpus", "_DONE",
        lambda d: generate(d, n_pages=2000, n_hosts=24, seed=42),
    )
    phash_images = os.path.join(phash_corpus, "images.parquet")
    wg_path = os.path.join(phash_corpus, "web_graph.parquet")
    golden = _crawl_golden()

    # frozen link-graph constants, shared verbatim with functions/webgraph
    from spider_ray.functions import webgraph as WG

    assert (WG.REDIRECT_SEED, WG.ALIAS_MOD, WG.ALIAS_MAX_DEPTH,
            WG.CYCLE_MOD, WG.MAX_HOPS) == (20260820, 4, 12, 16, 32)
    assert (WG.RANK_ITERS, WG.RANK_START, WG.RANK_BASE,
            WG.RANK_NUM, WG.RANK_DEN) == (3, 1_000_000, 150_000, 17, 20)
    from spider_ray.functions.imageshard import BAL_SEED

    assert BAL_SEED == 20260821

    # round-4 frozen constants, inlined in the SQL below — assert the
    # engine side still matches so neither can drift silently
    from spider_ray.functions import dispatch as DSP
    from spider_ray.kernels import domtext as DT

    assert (DSP.DISPATCH_SEED, DSP.MAX_ACCESS_THREADS, DSP.SUB_MOD,
            DSP.SCORE_MOD, DSP.MIN_PV) == (20260822, 3, 8, 1_000_000, 15)
    assert (DT.MAX_PARSE_BYTES, DT.MAX_TITLE_BYTES, DT.MAX_LINK_BYTES) == (
        1 << 20, 1024, 4096)

    # frozen revisit constants, shared verbatim with imagecurate
    from spider_ray.functions import imagecurate as ICU

    assert (ICU.REVISIT_BASE, ICU.REVISIT_MIN, ICU.REVISIT_MAX,
            ICU.REVISIT_PREV_MOD) == (86_400, 3_600, 604_800, 8)

    sitemap_corpus = _sitemap_corpus()
    sm_robots = os.path.join(sitemap_corpus, "robots.parquet")
    sm_store = os.path.join(sitemap_corpus, "sitemaps.parquet")
    sm_wg = os.path.join(sitemap_corpus, "web_graph.parquet")

    # shared by the image-curation oracles: the exact phash pair graph
    # (same tau as functions/imagecurate.PHASH_TAU) and the gate input
    # columns (same integer arithmetic as imagecurate._gate_columns —
    # caption words are non-space runs, the aspect bound a cross-multiply)
    phash_pairs = f"""
        SELECT a.image_id AS a_id, b.image_id AS b_id
        FROM (SELECT image_id, phash FROM '{phash_images}') a
        JOIN (SELECT image_id, phash FROM '{phash_images}') b
          ON a.image_id < b.image_id
        WHERE bit_count(xor(a.phash, b.phash)) <= 6
    """
    image_gates = f"""
        SELECT image_id,
               CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h, fmt, caption,
               CAST(length(regexp_extract_all(caption, '[^ ]+')) AS BIGINT)
                   AS n_caption_words,
               CAST(octet_length(bytes) AS BIGINT) AS byte_len
        FROM '{phash_images}'
    """

    def _ws(sql: str) -> str:
        """Rewrite every whitespace regex to the engine's frozen class
        (tokens.WS_CLASS): DuckDB RE2's ``\\s`` is ASCII-only while the
        engine tokenizes with Python-``\\s`` semantics (includes NBSP,
        U+2028, 0x1C-0x1F, ...), so the raw escapes below would silently
        diverge on any document containing Unicode whitespace."""
        from spider_ray.kernels.tokens import WS_CLASS

        sql = sql.replace(r"[^A-Za-z0-9\s]", "[^A-Za-z0-9" + WS_CLASS + "]")
        sql = sql.replace(
            r"^\s+|\s+$", "^[" + WS_CLASS + "]+|[" + WS_CLASS + "]+$"
        )
        sql = sql.replace(r"\S+", "[^" + WS_CLASS + "]+")
        # no other spelling may slip through: a surviving \s/\S would be
        # ASCII-only under RE2 — the silent divergence this rewrite removes
        assert "\\s" not in sql and "\\S" not in sql, (
            "unrewritten whitespace regex in oracle SQL: " + sql[:120]
        )
        return sql

    out = {
        # the crawl trio's oracles read the INDEPENDENT single-process
        # reference-semantics crawler's materialized outputs (built by
        # _crawl_golden — separate orchestration: scheduling, politeness
        # DES, waves, dedup, sinks; shared row kernels by design). The
        # driver compare is order-insensitive; exact ORDER parity is
        # additionally pinned by tests/test_crawl_parity.py.
        "crawl_order": f"""
            SELECT * FROM '{os.path.join(golden, "status.parquet")}'
            ORDER BY gen, seq
        """,
        "crawl_images": f"""
            SELECT * FROM '{os.path.join(golden, "images.parquet")}'
            ORDER BY image_id
        """,
        "crawl_seen": f"""
            SELECT * FROM '{os.path.join(golden, "seen.parquet")}'
            ORDER BY url_hash, url
        """,
        "bucket_balance": f"""
            -- aspect-bucket quota resample: the same integer-exact bucket
            -- argmin as aspect_buckets, then keep_rate = min bucket count
            -- / bucket count decided per row by the frozen
            -- mix64(image seq, 20260821) key against the EXACT
            -- HUGEINT threshold (2^64 * min_n) // n — the engine's
            -- arithmetic verbatim (imageshard.q_bucket_balance)
            WITH proto(bucket_id, bw, bh, mult) AS (
                VALUES (0, 1, 2, 3), (1, 2, 3, 2), (2, 1, 1, 6),
                       (3, 3, 2, 3), (4, 2, 1, 6)),
            scored AS (
                SELECT i.image_id,
                       CAST(p.bucket_id AS BIGINT) AS bucket_id,
                       abs(CAST(i.w AS BIGINT) * p.bh
                           - CAST(i.h AS BIGINT) * p.bw) * p.mult AS score
                FROM '{phash_images}' i CROSS JOIN proto p),
            asg AS (
                SELECT image_id, bucket_id FROM (
                    SELECT *, row_number() OVER (
                               PARTITION BY image_id
                               ORDER BY score, bucket_id) AS rn
                    FROM scored) WHERE rn = 1),
            sq AS (SELECT image_id, bucket_id,
                          CAST(regexp_extract(image_id, '/i/(\\d+)$', 1)
                               AS UBIGINT) AS seq FROM asg),
            b1 AS (SELECT image_id, bucket_id,
                          CAST((CAST(seq AS HUGEINT) * 2654435761
                               + 20260821) % 18446744073709551616
                               AS UBIGINT) AS u0 FROM sq),
            b2 AS (SELECT * EXCLUDE(u0), xor(u0, u0 >> 29) AS u0 FROM b1),
            b3 AS (SELECT * EXCLUDE(u0), CAST((CAST(u0 AS HUGEINT)
                    * 2246822519) % 18446744073709551616 AS UBIGINT) AS u0
                    FROM b2),
            bx AS (SELECT * EXCLUDE(u0), xor(u0, u0 >> 32) AS u FROM b3),
            cnt AS (SELECT bucket_id, COUNT(*) AS n FROM asg
                    GROUP BY bucket_id),
            tgt AS (SELECT MIN(n) AS c FROM cnt)
            SELECT s.image_id, s.bucket_id
            FROM bx s JOIN cnt t USING (bucket_id), tgt
            WHERE t.n = tgt.c
               OR s.u < CAST((18446744073709551616 * tgt.c) // t.n
                             AS UBIGINT)
            ORDER BY image_id
        """,
        "redirect_resolve": f"""
            -- transitive redirect resolution replayed as a recursive CTE
            -- over the SAME edge set the engine derives: real 301 edges
            -- plus the frozen mix64(seq, {WG.REDIRECT_SEED}) alias-chain
            -- workload (chains to depth {WG.ALIAS_MAX_DEPTH}, planted
            -- cycles). A source with no terminal within
            -- MAX_HOPS={WG.MAX_HOPS} reports looped=1 / NULL.
            WITH RECURSIVE
            wgt AS (SELECT url, status_code, redirect_to,
                    CAST(regexp_extract(url, '/p/(\\d+)$', 1) AS UBIGINT)
                        AS seq FROM '{wg_path}'),
            m1 AS (SELECT *, CAST((CAST(seq AS HUGEINT) * 2654435761
                    + {WG.REDIRECT_SEED}) % 18446744073709551616 AS UBIGINT)
                    AS u0 FROM wgt),
            m2 AS (SELECT * EXCLUDE(u0), xor(u0, u0 >> 29) AS u0 FROM m1),
            m3 AS (SELECT * EXCLUDE(u0), CAST((CAST(u0 AS HUGEINT)
                    * 2246822519) % 18446744073709551616 AS UBIGINT) AS u0
                    FROM m2),
            mx AS (SELECT * EXCLUDE(u0), xor(u0, u0 >> 32) AS u FROM m3),
            al AS (SELECT url, status_code, u,
                    CAST(1 + (u >> 2) % {WG.ALIAS_MAX_DEPTH} AS BIGINT)
                        AS depth,
                    (u % {WG.ALIAS_MOD} = 0) AS is_alias,
                    ((u >> 8) % {WG.CYCLE_MOD} = 0) AS cyc FROM mx),
            js AS (SELECT unnest(generate_series(1,
                    {WG.ALIAS_MAX_DEPTH})) AS j),
            alias_edges AS (
                SELECT url || '?r=' || CAST(j AS VARCHAR) AS src,
                       CASE WHEN j = 1 THEN url
                            ELSE url || '?r=' || CAST(j - 1 AS VARCHAR)
                       END AS dst
                FROM al, js WHERE is_alias AND js.j <= al.depth),
            cycle_edges AS (
                SELECT url AS src,
                       url || '?r=' || CAST(depth AS VARCHAR) AS dst
                FROM al WHERE is_alias AND cyc AND status_code != 301),
            real_edges AS (SELECT url AS src, redirect_to AS dst FROM wgt
                WHERE status_code = 301 AND redirect_to IS NOT NULL),
            edges AS (SELECT * FROM real_edges
                      UNION ALL SELECT * FROM alias_edges
                      UNION ALL SELECT * FROM cycle_edges),
            walk(origin, cur, hops) AS (
                SELECT src, dst, CAST(1 AS BIGINT) FROM edges
                UNION ALL
                SELECT w.origin, e.dst, w.hops + 1
                FROM walk w JOIN edges e ON e.src = w.cur
                WHERE w.hops < {WG.MAX_HOPS}),
            resolved AS (SELECT w.origin, w.cur, w.hops FROM walk w
                WHERE NOT EXISTS (SELECT 1 FROM edges e
                                  WHERE e.src = w.cur))
            SELECT s.src AS url, r.cur AS final_url, r.hops AS hops,
                   CAST(CASE WHEN r.origin IS NULL THEN 1 ELSE 0 END
                        AS INTEGER) AS looped
            FROM (SELECT DISTINCT src FROM edges) s
            LEFT JOIN resolved r ON r.origin = s.src
            ORDER BY url
        """,
        "link_rank": f"""
            -- {WG.RANK_ITERS}-iteration damped PageRank in FROZEN integer
            -- arithmetic (contribution = (r * {WG.RANK_NUM}) //
            -- ({WG.RANK_DEN} * outdeg), base {WG.RANK_BASE}, start
            -- {WG.RANK_START}) — floor division makes every step
            -- order-independent, so the replay is bit-exact
            WITH
            nodes AS (SELECT url FROM '{wg_path}'),
            edges AS (SELECT url AS src, u.l.url AS dst
                      FROM (SELECT url, unnest(outlinks) AS l
                            FROM '{wg_path}') u),
            deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
            r0 AS (SELECT url, CAST({WG.RANK_START} AS BIGINT) AS r
                   FROM nodes),
            c1 AS (SELECT e.dst AS url,
                          SUM((r.r * {WG.RANK_NUM})
                              // ({WG.RANK_DEN} * d.outdeg)) AS c
                   FROM edges e JOIN r0 r ON r.url = e.src
                   JOIN deg d ON d.src = e.src GROUP BY e.dst),
            r1 AS (SELECT n.url,
                          CAST({WG.RANK_BASE} + COALESCE(c.c, 0) AS BIGINT)
                              AS r
                   FROM nodes n LEFT JOIN c1 c ON c.url = n.url),
            c2 AS (SELECT e.dst AS url,
                          SUM((r.r * {WG.RANK_NUM})
                              // ({WG.RANK_DEN} * d.outdeg)) AS c
                   FROM edges e JOIN r1 r ON r.url = e.src
                   JOIN deg d ON d.src = e.src GROUP BY e.dst),
            r2 AS (SELECT n.url,
                          CAST({WG.RANK_BASE} + COALESCE(c.c, 0) AS BIGINT)
                              AS r
                   FROM nodes n LEFT JOIN c2 c ON c.url = n.url),
            c3 AS (SELECT e.dst AS url,
                          SUM((r.r * {WG.RANK_NUM})
                              // ({WG.RANK_DEN} * d.outdeg)) AS c
                   FROM edges e JOIN r2 r ON r.url = e.src
                   JOIN deg d ON d.src = e.src GROUP BY e.dst),
            r3 AS (SELECT n.url,
                          CAST({WG.RANK_BASE} + COALESCE(c.c, 0) AS BIGINT)
                              AS r
                   FROM nodes n LEFT JOIN c3 c ON c.url = n.url)
            SELECT url, r AS link_rank FROM r3 ORDER BY url
        """,
        "crossmodal_recall": """
            -- caption→image retrieval eval over the benchmark pairs
            -- (pair_id % 17 = 0): rank of the true partner under the
            -- frozen (rounded-cosine desc, vec_id asc) total order —
            -- rank = 1 + |strictly better| + |tied with smaller vec_id|,
            -- exactly the engine's counting form
            WITH ev AS (SELECT vec_id, embedding FROM embeddings
                        WHERE (vec_id >> 1) % 17 = 0),
            img AS (SELECT vec_id >> 1 AS pid, vec_id, embedding FROM ev
                    WHERE vec_id % 2 = 0),
            cap AS (SELECT vec_id >> 1 AS pid, embedding FROM ev
                    WHERE vec_id % 2 = 1),
            sc AS (SELECT c.pid AS qpid, i.pid AS ipid, i.vec_id AS img_id,
                          round(list_cosine_similarity(
                              c.embedding::DOUBLE[],
                              i.embedding::DOUBLE[]), 6) AS c6
                   FROM cap c CROSS JOIN img i),
            tr AS (SELECT qpid, c6 AS t6, img_id AS tid FROM sc
                   WHERE qpid = ipid),
            rk AS (SELECT s.qpid AS pair_id,
                          1 + SUM(CASE WHEN s.c6 > t.t6
                                       OR (s.c6 = t.t6
                                           AND s.img_id < t.tid)
                                  THEN 1 ELSE 0 END) AS true_rank
                   FROM sc s JOIN tr t ON t.qpid = s.qpid
                   GROUP BY s.qpid)
            SELECT pair_id, CAST(true_rank AS BIGINT) AS true_rank,
                   CAST(true_rank <= 1 AS INTEGER) AS hit1,
                   CAST(true_rank <= 5 AS INTEGER) AS hit5,
                   CAST(true_rank <= 10 AS INTEGER) AS hit10
            FROM rk ORDER BY pair_id
        """,
        "phash_neardup": f"""
            -- brute-force Hamming self-join over the precomputed phash
            -- column — exact ground truth for the banded engine path
            -- (pigeonhole: 8 bands, tau=6 < 8 => no missed pairs)
            WITH s AS (SELECT image_id, phash FROM '{phash_images}')
            SELECT a.image_id AS a_id, b.image_id AS b_id,
                   CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT)
                       AS hamming
            FROM s a JOIN s b ON a.image_id < b.image_id
            WHERE bit_count(xor(a.phash, b.phash)) <= 6
            ORDER BY a_id, b_id
        """,
        "image_filter": f"""
            -- LAION-style gates, integer-only arithmetic (bit-exact with
            -- imagecurate._gate_columns): reject_mask bits 1=dim 2=aspect
            -- 4=caption 8=bytes
            WITH g AS ({image_gates}),
            m AS (
                SELECT *,
                       CAST(CASE WHEN w < 24 OR h < 24 THEN 1 ELSE 0 END
                          + CASE WHEN w > 2 * h OR h > 2 * w
                                 THEN 2 ELSE 0 END
                          + CASE WHEN n_caption_words < 5 THEN 4 ELSE 0 END
                          + CASE WHEN byte_len < 1200 THEN 8 ELSE 0 END
                          AS BIGINT) AS reject_mask
                FROM g)
            SELECT image_id, w, h, fmt, n_caption_words, byte_len,
                   reject_mask,
                   CAST(CASE WHEN reject_mask = 0 THEN 1 ELSE 0 END
                        AS INTEGER) AS kept
            FROM m ORDER BY image_id
        """,
        "phash_clusters": f"""
            -- connected components over the phash pair graph (recursive
            -- CTE transitive closure; comp id = min member), cluster rep
            -- = max-pixel member, ties to smallest image_id
            WITH RECURSIVE p AS ({phash_pairs}),
            edges AS (
                SELECT a_id AS u, b_id AS v FROM p
                UNION ALL SELECT b_id, a_id FROM p),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE r.u != e.v),
            comp AS (SELECT u, least(u, min(v)) AS comp
                     FROM reach GROUP BY u),
            members AS (
                SELECT c.u AS image_id, c.comp,
                       CAST(i.w AS BIGINT) * i.h AS px
                FROM comp c JOIN '{phash_images}' i ON i.image_id = c.u),
            reps AS (
                SELECT comp, image_id AS rep,
                       row_number() OVER (
                           PARTITION BY comp ORDER BY px DESC, image_id
                       ) AS rn
                FROM members)
            SELECT i.image_id,
                   coalesce(r.rep, i.image_id) AS cluster_rep,
                   CAST(CASE WHEN coalesce(r.rep, i.image_id) = i.image_id
                        THEN 1 ELSE 0 END AS INTEGER) AS is_rep
            FROM '{phash_images}' i
            LEFT JOIN comp c ON c.u = i.image_id
            LEFT JOIN (SELECT comp, rep FROM reps WHERE rn = 1) r
                   ON r.comp = c.comp
            ORDER BY image_id
        """,
        "image_curate": f"""
            -- composed curation: survive iff every gate passes AND the
            -- image is its cluster's best-resolution GATE-PASSING rep
            -- (gate-passing singletons survive; all-failing clusters
            -- contribute nothing)
            WITH RECURSIVE g AS ({image_gates}),
            passed AS (
                SELECT image_id, w, h, fmt, caption
                FROM g
                WHERE w >= 24 AND h >= 24 AND w <= 2 * h AND h <= 2 * w
                  AND n_caption_words >= 5 AND byte_len >= 1200),
            p AS ({phash_pairs}),
            edges AS (
                SELECT a_id AS u, b_id AS v FROM p
                UNION ALL SELECT b_id, a_id FROM p),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE r.u != e.v),
            comp AS (SELECT u, least(u, min(v)) AS comp
                     FROM reach GROUP BY u),
            reps AS (
                SELECT c.comp, m.image_id AS rep,
                       row_number() OVER (
                           PARTITION BY c.comp
                           ORDER BY m.w * m.h DESC, m.image_id
                       ) AS rn
                FROM comp c JOIN passed m ON m.image_id = c.u)
            SELECT m.image_id, m.w, m.h, m.fmt, m.caption
            FROM passed m
            LEFT JOIN comp c ON c.u = m.image_id
            LEFT JOIN (SELECT comp, rep FROM reps WHERE rn = 1) r
                   ON r.comp = c.comp
            WHERE c.u IS NULL OR r.rep = m.image_id
            ORDER BY m.image_id
        """,
        "aspect_buckets": f"""
            -- SDXL-style aspect bucketing: integer-exact cross-multiplied
            -- argmin over the prototype set (bw,bh,mult) shared verbatim
            -- with functions/imageshard.ASPECT_BUCKETS (mult = LCM/bh);
            -- first-minimum tie-break == lowest bucket_id
            WITH proto(bucket_id, bw, bh, mult) AS (
                VALUES (0, 1, 2, 3), (1, 2, 3, 2), (2, 1, 1, 6),
                       (3, 3, 2, 3), (4, 2, 1, 6)),
            scored AS (
                SELECT i.image_id,
                       CAST(i.w AS BIGINT) AS w, CAST(i.h AS BIGINT) AS h,
                       CAST(p.bucket_id AS BIGINT) AS bucket_id,
                       CAST(p.bw AS BIGINT) AS bucket_w,
                       CAST(p.bh AS BIGINT) AS bucket_h,
                       abs(CAST(i.w AS BIGINT) * p.bh
                           - CAST(i.h AS BIGINT) * p.bw) * p.mult AS score
                FROM '{phash_images}' i CROSS JOIN proto p),
            ranked AS (
                SELECT *, row_number() OVER (
                           PARTITION BY image_id
                           ORDER BY score, bucket_id) AS rn
                FROM scored)
            SELECT image_id, w, h, bucket_id, bucket_w, bucket_h
            FROM ranked WHERE rn = 1 ORDER BY image_id
        """,
        "bucket_stats": f"""
            -- dataset-card rollup per (aspect bucket, format): the same
            -- integer-exact bucket argmin as aspect_buckets, caption
            -- words = non-space runs (the imagecurate convention), all
            -- aggregates integer (functions/imageshard.q_bucket_stats)
            WITH proto(bucket_id, bw, bh, mult) AS (
                VALUES (0, 1, 2, 3), (1, 2, 3, 2), (2, 1, 1, 6),
                       (3, 3, 2, 3), (4, 2, 1, 6)),
            scored AS (
                SELECT i.image_id, i.fmt,
                       CAST(i.w AS BIGINT) AS w, CAST(i.h AS BIGINT) AS h,
                       CAST(octet_length(i.bytes) AS BIGINT) AS n_bytes,
                       CAST(length(regexp_extract_all(i.caption, '[^ ]+'))
                            AS BIGINT) AS n_words,
                       CAST(p.bucket_id AS BIGINT) AS bucket_id,
                       abs(CAST(i.w AS BIGINT) * p.bh
                           - CAST(i.h AS BIGINT) * p.bw) * p.mult AS score
                FROM '{phash_images}' i CROSS JOIN proto p),
            ranked AS (
                SELECT *, row_number() OVER (
                           PARTITION BY image_id
                           ORDER BY score, bucket_id) AS rn
                FROM scored)
            SELECT bucket_id, fmt,
                   CAST(count(*) AS BIGINT) AS n_images,
                   CAST(sum(n_bytes) AS BIGINT) AS payload_bytes,
                   min(w) AS min_w, max(w) AS max_w,
                   min(h) AS min_h, max(h) AS max_h,
                   CAST(sum(n_words) AS BIGINT) AS caption_words
            FROM ranked WHERE rn = 1
            GROUP BY bucket_id, fmt
            ORDER BY bucket_id, fmt
        """,
        "resize_plan": f"""
            -- SDXL resize geometry: the aspect_buckets argmin, the
            -- frozen per-bucket target dims (imageresize.BUCKET_DIMS),
            -- integer cover-scale (height pins when w*th >= h*tw, floor
            -- division) and centered crop offsets — bit-exact with
            -- functions/imageresize.resize_geometry
            WITH proto(bucket_id, bw, bh, mult) AS (
                VALUES (0, 1, 2, 3), (1, 2, 3, 2), (2, 1, 1, 6),
                       (3, 3, 2, 3), (4, 2, 1, 6)),
            dims(bucket_id, tw, th) AS (
                VALUES (0, 32, 64), (1, 36, 54), (2, 45, 45),
                       (3, 54, 36), (4, 64, 32)),
            scored AS (
                SELECT i.image_id,
                       CAST(i.w AS BIGINT) AS w, CAST(i.h AS BIGINT) AS h,
                       CAST(p.bucket_id AS BIGINT) AS bucket_id,
                       abs(CAST(i.w AS BIGINT) * p.bh
                           - CAST(i.h AS BIGINT) * p.bw) * p.mult AS score
                FROM '{phash_images}' i CROSS JOIN proto p),
            ranked AS (
                SELECT *, row_number() OVER (
                           PARTITION BY image_id
                           ORDER BY score, bucket_id) AS rn
                FROM scored),
            geom AS (
                SELECT b.image_id, b.w, b.h, b.bucket_id,
                       CAST(d.tw AS BIGINT) AS target_w,
                       CAST(d.th AS BIGINT) AS target_h,
                       CASE WHEN b.w * d.th >= b.h * d.tw
                            THEN (b.w * d.th) // b.h
                            ELSE CAST(d.tw AS BIGINT) END AS scaled_w,
                       CASE WHEN b.w * d.th >= b.h * d.tw
                            THEN CAST(d.th AS BIGINT)
                            ELSE (b.h * d.tw) // b.w END AS scaled_h
                FROM ranked b JOIN dims d ON d.bucket_id = b.bucket_id
                WHERE b.rn = 1)
            SELECT image_id, w, h, bucket_id, target_w, target_h,
                   scaled_w, scaled_h,
                   (scaled_w - target_w) // 2 AS crop_x,
                   (scaled_h - target_h) // 2 AS crop_y
            FROM geom ORDER BY image_id
        """,
        "crawl_delta": f"""
            -- recrawl delta (imagecurate.q_crawl_delta): snapshot B =
            -- frozen perturbation (drop seq%7=0, re-host seq%13=0 under
            -- ?v=2, flip phash bit 0 on seq%5=0); FULL OUTER by id
            WITH a AS (
                SELECT image_id, CAST(phash AS BIGINT) AS pa_
                FROM '{phash_images}'),
            b AS (
                SELECT CASE WHEN seq % 13 = 0
                            THEN image_id || '?v=2'
                            ELSE image_id END AS image_id,
                       CASE WHEN seq % 5 = 0
                            THEN xor(CAST(phash AS BIGINT), 1)
                            ELSE CAST(phash AS BIGINT) END AS pb
                FROM (
                    SELECT image_id, phash,
                           CAST(regexp_extract(image_id, '/i/(\\d+)$', 1)
                               AS BIGINT) AS seq
                    FROM '{phash_images}')
                WHERE seq % 7 != 0),
            j AS (
                SELECT coalesce(a.image_id, b.image_id) AS image_id,
                       a.pa_, b.pb
                FROM a FULL OUTER JOIN b ON a.image_id = b.image_id)
            SELECT regexp_extract(image_id, '^https?://([^/]+)', 1)
                       AS host,
                   CASE WHEN pa_ IS NULL THEN 'added'
                        WHEN pb IS NULL THEN 'removed'
                        WHEN pa_ != pb THEN 'changed'
                        ELSE 'same' END AS status,
                   CAST(count(*) AS BIGINT) AS n
            FROM j GROUP BY host, status ORDER BY host, status
        """,
        "anchor_text": f"""
            -- per-target anchor aggregation (webgraph.q_anchor_text):
            -- url_preprocess cleanup (trim, drop empty, strip ONE
            -- trailing '#' then ONE trailing '/'), then per-dst inlink
            -- count, distinct source hosts, plurality anchor (count
            -- desc, lexical asc tie-break)
            WITH ex AS (
                SELECT host AS src_host, UNNEST(outlinks) AS ol
                FROM '{wg_path}'),
            e AS (
                SELECT src_host,
                       regexp_replace(regexp_replace(
                           trim(ol.url), '#$', ''), '/$', '') AS dst,
                       ol.anchor AS anchor
                FROM ex WHERE trim(ol.url) <> ''),
            per AS (
                SELECT dst, CAST(count(*) AS BIGINT) AS n_inlinks,
                       CAST(count(DISTINCT src_host) AS BIGINT) AS n_hosts
                FROM e GROUP BY dst),
            a AS (
                SELECT dst, anchor, CAST(count(*) AS BIGINT) AS n
                FROM e GROUP BY dst, anchor),
            top AS (
                SELECT dst, anchor, n, row_number() OVER (
                           PARTITION BY dst
                           ORDER BY n DESC, anchor ASC) AS rn
                FROM a)
            SELECT per.dst AS url, per.n_inlinks, per.n_hosts,
                   top.anchor AS top_anchor, top.n AS top_anchor_n
            FROM per JOIN top ON per.dst = top.dst AND top.rn = 1
            ORDER BY url
        """,
        "recrawl_schedule": f"""
            -- adaptive revisit plan (imagecurate.q_recrawl_schedule):
            -- same frozen snapshot-B perturbation as crawl_delta; live
            -- rows only; prev = 3600 << (seq % 8) planted workload;
            -- added → 86400, changed → max(3600, prev // 2),
            -- same → min(604800, prev * 2); priority bands 0/1/2
            WITH a AS (
                SELECT image_id, CAST(phash AS BIGINT) AS pa_
                FROM '{phash_images}'),
            b AS (
                SELECT CASE WHEN seq % 13 = 0
                            THEN image_id || '?v=2'
                            ELSE image_id END AS image_id,
                       CASE WHEN seq % 5 = 0
                            THEN xor(CAST(phash AS BIGINT), 1)
                            ELSE CAST(phash AS BIGINT) END AS pb
                FROM (
                    SELECT image_id, phash,
                           CAST(regexp_extract(image_id, '/i/(\\d+)$', 1)
                               AS BIGINT) AS seq
                    FROM '{phash_images}')
                WHERE seq % 7 != 0),
            j AS (
                SELECT coalesce(a.image_id, b.image_id) AS image_id,
                       a.pa_, b.pb
                FROM a FULL OUTER JOIN b ON a.image_id = b.image_id),
            s AS (
                SELECT image_id,
                       regexp_extract(image_id, '^https?://([^/]+)', 1)
                           AS host,
                       CASE WHEN pa_ IS NULL THEN 'added'
                            WHEN pb IS NULL THEN 'removed'
                            WHEN pa_ != pb THEN 'changed'
                            ELSE 'same' END AS status,
                       CAST(regexp_extract(image_id, '/i/(\\d+)', 1)
                           AS BIGINT) AS seq
                FROM j),
            p AS (
                SELECT image_id, host, status,
                       3600 * (1 << CAST(seq % 8 AS INTEGER)) AS prev
                FROM s WHERE status != 'removed'),
            iv AS (
                SELECT image_id, host, status,
                       CASE WHEN status = 'added' THEN 86400
                            WHEN status = 'changed'
                                THEN greatest(3600, prev // 2)
                            ELSE least(604800, prev * 2) END AS interval_s
                FROM p)
            SELECT image_id, host, status,
                   CAST(interval_s AS BIGINT) AS interval_s,
                   CAST(CASE WHEN interval_s <= 14400 THEN 0
                             WHEN interval_s <= 86400 THEN 1
                             ELSE 2 END AS INTEGER) AS priority
            FROM iv ORDER BY image_id
        """,
        "host_graph": f"""
            -- host-level link graph (webgraph.q_host_graph): collapse
            -- URL edges to cross-host (src_host, dst_host) with link
            -- counts + distinct linking pages
            WITH ex AS (
                SELECT url AS src_url, host AS src_host,
                       UNNEST(outlinks) AS ol
                FROM '{wg_path}'),
            e AS (
                SELECT src_host, src_url,
                       regexp_extract(ol.url, '^https?://([^/]+)', 1)
                           AS dst_host
                FROM ex),
            f AS (
                SELECT * FROM e
                WHERE dst_host IS NOT NULL AND dst_host != ''
                  AND dst_host != src_host)
            SELECT src_host, dst_host,
                   CAST(count(*) AS BIGINT) AS n_links,
                   CAST(count(DISTINCT src_url) AS BIGINT) AS n_src_pages
            FROM f GROUP BY src_host, dst_host
            ORDER BY src_host, dst_host
        """,
        "format_sniff": f"""
            -- payload integrity gate (imagecurate.q_format_sniff):
            -- magic-byte sniff (PNG 89504E47 / QIM1 51494D31 — the
            -- from-scratch lossy stand-in), container-header w/h (PNG
            -- IHDR bytes 17-24 big-endian; QIM1 ">II" bytes 5-12) vs
            -- declared fmt/w/h; frozen first-byte-flip corruption on
            -- seq % 17 = 0
            WITH x AS (
                SELECT image_id, fmt,
                       CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h,
                       hex("bytes") AS hx,
                       CAST(regexp_extract(image_id, '/i/(\\d+)$', 1)
                           AS BIGINT) AS seq
                FROM '{phash_images}'),
            s AS (
                SELECT image_id, fmt, w, h, hx,
                       CASE WHEN seq % 17 = 0 THEN 'unknown'
                            WHEN left(hx, 8) = '89504E47' THEN 'png'
                            WHEN left(hx, 8) = '51494D31' THEN 'jpeg'
                            ELSE 'unknown' END AS sniffed
                FROM x),
            d AS (
                SELECT image_id, fmt, w, h, sniffed,
                       CASE WHEN sniffed = 'png'
                                THEN CAST(('0x' || substr(hx, 33, 8))
                                    AS BIGINT)
                            WHEN sniffed = 'jpeg'
                                THEN CAST(('0x' || substr(hx, 9, 8))
                                    AS BIGINT)
                            ELSE NULL END AS hdr_w,
                       CASE WHEN sniffed = 'png'
                                THEN CAST(('0x' || substr(hx, 41, 8))
                                    AS BIGINT)
                            WHEN sniffed = 'jpeg'
                                THEN CAST(('0x' || substr(hx, 17, 8))
                                    AS BIGINT)
                            ELSE NULL END AS hdr_h
                FROM s)
            SELECT image_id, fmt, sniffed, hdr_w, hdr_h,
                   CAST(CASE WHEN sniffed = fmt AND hdr_w = w
                                  AND hdr_h = h
                             THEN 1 ELSE 0 END AS INTEGER) AS ok
            FROM d ORDER BY image_id
        """,
        "interevent_gaps": """
            -- per-user inter-event gaps (relational.q_interevent_gaps):
            -- LAG over (ts, event_id) within user; exact int64 µs
            -- count/min/max/sum (no float mean)
            WITH g AS (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id
                           ORDER BY ts, event_id) AS gap
                FROM events)
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(min(gap) AS BIGINT) AS min_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us,
                   CAST(sum(gap) AS BIGINT) AS sum_gap_us
            FROM g WHERE gap IS NOT NULL
            GROUP BY user_id ORDER BY user_id
        """,
        "sitemap_seeds": f"""
            -- sitemap seed discovery (sitemap.q_sitemap_seeds): robots
            -- Sitemap: declarations → fetch join → one round of
            -- <sitemapindex> expansion → <loc> extraction → distinct
            -- candidates flagged known=1 iff present in web_graph
            WITH r AS (
                SELECT host,
                       UNNEST(regexp_extract_all(
                           body, '(?i)sitemap:[ \t]*(\\S+)', 1)) AS sm_url
                FROM '{sm_robots}'),
            f1 AS (
                SELECT r.host, s.body
                FROM r JOIN '{sm_store}' s ON r.sm_url = s.url),
            leaves1 AS (
                SELECT host, body FROM f1
                WHERE body NOT LIKE '%<sitemapindex%'),
            idx AS (
                SELECT host,
                       UNNEST(regexp_extract_all(
                           body, '<loc>([^<]+)</loc>', 1)) AS child
                FROM f1 WHERE body LIKE '%<sitemapindex%'),
            leaves2 AS (
                SELECT i.host, s.body
                FROM idx i JOIN '{sm_store}' s ON i.child = s.url
                WHERE s.body NOT LIKE '%<sitemapindex%'),
            leaves AS (
                SELECT * FROM leaves1 UNION ALL SELECT * FROM leaves2),
            candx AS (
                SELECT host,
                       UNNEST(regexp_extract_all(
                           body, '<loc>([^<]+)</loc>', 1)) AS url
                FROM leaves),
            cand AS (SELECT DISTINCT host, url FROM candx)
            SELECT c.host, c.url,
                   CAST(CASE WHEN w.url IS NOT NULL THEN 1 ELSE 0 END
                       AS INTEGER) AS known
            FROM cand c
            LEFT JOIN (SELECT url FROM '{sm_wg}') w ON c.url = w.url
            ORDER BY c.host, c.url
        """,
        "aug_crop_plan": f"""
            -- deterministic augmentation crops: the resize_plan geometry
            -- CTE (same frozen buckets/dims) + per-(image, epoch) frozen
            -- mix64 origins modulo the cover slack (two seeds: x, y)
            WITH proto(bucket_id, bw, bh, mult) AS (
                VALUES (0, 1, 2, 3), (1, 2, 3, 2), (2, 1, 1, 6),
                       (3, 3, 2, 3), (4, 2, 1, 6)),
            dims(bucket_id, tw, th) AS (
                VALUES (0, 32, 64), (1, 36, 54), (2, 45, 45),
                       (3, 54, 36), (4, 64, 32)),
            scored AS (
                SELECT i.image_id,
                       CAST(i.w AS BIGINT) AS w, CAST(i.h AS BIGINT) AS h,
                       CAST(p.bucket_id AS BIGINT) AS bucket_id,
                       abs(CAST(i.w AS BIGINT) * p.bh
                           - CAST(i.h AS BIGINT) * p.bw) * p.mult AS score
                FROM '{phash_images}' i CROSS JOIN proto p),
            ranked AS (
                SELECT *, row_number() OVER (
                           PARTITION BY image_id
                           ORDER BY score, bucket_id) AS rn
                FROM scored),
            geom AS (
                SELECT b.image_id, b.bucket_id,
                       CASE WHEN b.w * d.th >= b.h * d.tw
                            THEN (b.w * d.th) // b.h
                            ELSE CAST(d.tw AS BIGINT) END
                           - d.tw + 1 AS slack_w,
                       CASE WHEN b.w * d.th >= b.h * d.tw
                            THEN CAST(d.th AS BIGINT)
                            ELSE (b.h * d.tw) // b.w END
                           - d.th + 1 AS slack_h
                FROM ranked b JOIN dims d ON d.bucket_id = b.bucket_id
                WHERE b.rn = 1),
            keyed AS (
                SELECT g.*, t.e,
                       CAST(regexp_extract(g.image_id, '(\\d+)$', 1)
                            AS BIGINT) * 3 + t.e AS key
                FROM geom g CROSS JOIN range(3) t(e)),
            x1 AS (SELECT *, CAST((CAST(key AS HUGEINT) * 2654435761
                        + 20260823) % 18446744073709551616 AS UBIGINT)
                        AS u FROM keyed),
            x2 AS (SELECT * REPLACE (xor(u, u >> 29) AS u) FROM x1),
            x3 AS (SELECT * REPLACE (CAST((CAST(u AS HUGEINT)
                        * 2246822519) % 18446744073709551616 AS UBIGINT)
                        AS u) FROM x2),
            x4 AS (SELECT *, xor(u, u >> 32) AS ux FROM x3),
            y1 AS (SELECT image_id, e, bucket_id, slack_w, slack_h, ux,
                        CAST((CAST(key AS HUGEINT) * 2654435761
                        + 20260824) % 18446744073709551616 AS UBIGINT)
                        AS u FROM x4),
            y2 AS (SELECT * REPLACE (xor(u, u >> 29) AS u) FROM y1),
            y3 AS (SELECT * REPLACE (CAST((CAST(u AS HUGEINT)
                        * 2246822519) % 18446744073709551616 AS UBIGINT)
                        AS u) FROM y2),
            y4 AS (SELECT *, xor(u, u >> 32) AS uy FROM y3)
            SELECT image_id, CAST(e AS BIGINT) AS epoch, bucket_id,
                   CAST(ux % CAST(slack_w AS UBIGINT) AS BIGINT)
                       AS crop_x,
                   CAST(uy % CAST(slack_h AS UBIGINT) AS BIGINT)
                       AS crop_y
            FROM y4 ORDER BY image_id, epoch
        """,
        "image_shard_pack": f"""
            -- WebDataset-style greedy shard pack, reproduced as a lockstep
            -- recursive CTE (one row per range per step) + window cumsum
            -- of per-range shard counts — bit-exact with
            -- functions/imageshard.q_image_shard_pack (budget 16384,
            -- range 128, seq = trailing digits of image_id)
            WITH RECURSIVE s AS (
                SELECT image_id,
                       CAST(regexp_extract(image_id, '(\\d+)$', 1)
                            AS BIGINT) AS seq,
                       CAST(octet_length(bytes) AS BIGINT) AS n_bytes
                FROM '{phash_images}'),
            r AS (
                SELECT *, seq // 128 AS range_id,
                       row_number() OVER (
                           PARTITION BY seq // 128 ORDER BY seq) AS rn
                FROM s),
            walk(range_id, rn, image_id, seq, n_bytes, fill,
                 local_shard) AS (
                SELECT range_id, rn, image_id, seq, n_bytes, n_bytes,
                       CAST(0 AS BIGINT)
                FROM r WHERE rn = 1
                UNION ALL
                SELECT r.range_id, r.rn, r.image_id, r.seq, r.n_bytes,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN r.n_bytes ELSE w.fill + r.n_bytes END,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN w.local_shard + 1 ELSE w.local_shard END
                FROM walk w
                JOIN r ON r.range_id = w.range_id AND r.rn = w.rn + 1),
            counts AS (
                SELECT range_id, max(local_shard) + 1 AS n_shards
                FROM walk GROUP BY range_id),
            offs AS (
                SELECT range_id,
                       CAST(coalesce(sum(n_shards) OVER (
                           ORDER BY range_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS base
                FROM counts)
            SELECT w.image_id, w.seq, w.n_bytes,
                   o.base + w.local_shard AS shard
            FROM walk w JOIN offs o ON o.range_id = w.range_id
            ORDER BY w.seq
        """,
        "epoch_shuffle": f"""
            -- deterministic WebDataset epoch order (epoch = 1): the
            -- image_shard_pack walk, then shards permuted by the frozen
            -- DOUBLE-mix64 key epoch_key(shard, 1000104) and members
            -- within a shard by epoch_key(seq, 1000205) (seeds =
            -- EPOCH_STRIDE·1 + EPOCH_SHARD_SEED / EPOCH_MEMBER_SEED;
            -- epoch_key = mix64_int applied twice — a single round is
            -- not seed-diffusing, functions/imageshard.epoch_key); both
            -- mixers replayed with HUGEINT modular arithmetic
            WITH RECURSIVE s AS (
                SELECT image_id,
                       CAST(regexp_extract(image_id, '(\\d+)$', 1)
                            AS BIGINT) AS seq,
                       CAST(octet_length(bytes) AS BIGINT) AS n_bytes
                FROM '{phash_images}'),
            r AS (
                SELECT *, seq // 128 AS range_id,
                       row_number() OVER (
                           PARTITION BY seq // 128 ORDER BY seq) AS rn
                FROM s),
            walk(range_id, rn, image_id, seq, n_bytes, fill,
                 local_shard) AS (
                SELECT range_id, rn, image_id, seq, n_bytes, n_bytes,
                       CAST(0 AS BIGINT)
                FROM r WHERE rn = 1
                UNION ALL
                SELECT r.range_id, r.rn, r.image_id, r.seq, r.n_bytes,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN r.n_bytes ELSE w.fill + r.n_bytes END,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN w.local_shard + 1 ELSE w.local_shard END
                FROM walk w
                JOIN r ON r.range_id = w.range_id AND r.rn = w.rn + 1),
            counts AS (
                SELECT range_id, max(local_shard) + 1 AS n_shards
                FROM walk GROUP BY range_id),
            offs AS (
                SELECT range_id,
                       CAST(coalesce(sum(n_shards) OVER (
                           ORDER BY range_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS base
                FROM counts),
            assign AS (
                SELECT w.image_id, w.seq,
                       o.base + w.local_shard AS shard
                FROM walk w JOIN offs o ON o.range_id = w.range_id),
            -- shard-permutation key: epoch_key(shard, 1000104)
            k1 AS (SELECT shard, count(*) AS cnt,
                          CAST((CAST(shard AS HUGEINT) * 2654435761
                                + 1000104)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM assign GROUP BY shard),
            k2 AS (SELECT shard, cnt, xor(u, u >> 29) AS u FROM k1),
            k3 AS (SELECT shard, cnt,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM k2),
            k4 AS (SELECT shard, cnt, xor(u, u >> 32) AS u FROM k3),
            k5 AS (SELECT shard, cnt,
                          CAST((CAST(u AS HUGEINT) * 2654435761)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM k4),
            k6 AS (SELECT shard, cnt, xor(u, u >> 29) AS u FROM k5),
            k7 AS (SELECT shard, cnt,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM k6),
            k8 AS (SELECT shard, cnt, xor(u, u >> 32) AS skey FROM k7),
            bases AS (
                SELECT shard,
                       CAST(coalesce(sum(cnt) OVER (
                           ORDER BY skey, shard
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS base
                FROM k8),
            -- within-shard member key: epoch_key(seq, 1000205)
            m1 AS (SELECT image_id, seq, shard,
                          CAST((CAST(seq AS HUGEINT) * 2654435761
                                + 1000205)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM assign),
            m2 AS (SELECT image_id, seq, shard, xor(u, u >> 29) AS u
                   FROM m1),
            m3 AS (SELECT image_id, seq, shard,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM m2),
            m4 AS (SELECT image_id, seq, shard, xor(u, u >> 32) AS u
                   FROM m3),
            m5 AS (SELECT image_id, seq, shard,
                          CAST((CAST(u AS HUGEINT) * 2654435761)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM m4),
            m6 AS (SELECT image_id, seq, shard, xor(u, u >> 29) AS u
                   FROM m5),
            m7 AS (SELECT image_id, seq, shard,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM m6),
            m8 AS (SELECT image_id, seq, shard, xor(u, u >> 32) AS mkey
                   FROM m7)
            SELECT m.image_id, m.seq, m.shard,
                   CAST(b.base + row_number() OVER (
                       PARTITION BY m.shard ORDER BY m.mkey, m.seq) - 1
                       AS BIGINT) AS epoch_pos
            FROM m8 m JOIN bases b ON b.shard = m.shard
            ORDER BY epoch_pos
        """,
        "bucket_shard_pack": f"""
            -- aspect-bucketed greedy shard pack: the aspect_buckets argmin
            -- feeds the image_shard_pack walk PARTITIONED BY (bucket,
            -- range); global ids cumsum in (bucket, range) order — shards
            -- never mix buckets (functions/imageshard.q_bucket_shard_pack)
            WITH RECURSIVE proto(bucket_id, bw, bh, mult) AS (
                VALUES (0, 1, 2, 3), (1, 2, 3, 2), (2, 1, 1, 6),
                       (3, 3, 2, 3), (4, 2, 1, 6)),
            s AS (
                SELECT image_id,
                       CAST(regexp_extract(image_id, '(\\d+)$', 1)
                            AS BIGINT) AS seq,
                       CAST(octet_length(bytes) AS BIGINT) AS n_bytes,
                       CAST(w AS BIGINT) AS w, CAST(h AS BIGINT) AS h
                FROM '{phash_images}'),
            ranked AS (
                SELECT s.*, CAST(p.bucket_id AS BIGINT) AS bucket_id,
                       row_number() OVER (
                           PARTITION BY image_id
                           ORDER BY abs(s.w * p.bh - s.h * p.bw) * p.mult,
                                    p.bucket_id) AS brn
                FROM s CROSS JOIN proto p),
            r AS (
                SELECT image_id, seq, n_bytes, bucket_id,
                       seq // 128 AS range_id,
                       row_number() OVER (
                           PARTITION BY bucket_id, seq // 128
                           ORDER BY seq) AS rn
                FROM ranked WHERE brn = 1),
            walk(bucket_id, range_id, rn, image_id, seq, n_bytes, fill,
                 local_shard) AS (
                SELECT bucket_id, range_id, rn, image_id, seq, n_bytes,
                       n_bytes, CAST(0 AS BIGINT)
                FROM r WHERE rn = 1
                UNION ALL
                SELECT r.bucket_id, r.range_id, r.rn, r.image_id, r.seq,
                       r.n_bytes,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN r.n_bytes ELSE w.fill + r.n_bytes END,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN w.local_shard + 1 ELSE w.local_shard END
                FROM walk w
                JOIN r ON r.bucket_id = w.bucket_id
                      AND r.range_id = w.range_id AND r.rn = w.rn + 1),
            counts AS (
                SELECT bucket_id, range_id, max(local_shard) + 1 AS n_shards
                FROM walk GROUP BY bucket_id, range_id),
            offs AS (
                SELECT bucket_id, range_id,
                       CAST(coalesce(sum(n_shards) OVER (
                           ORDER BY bucket_id, range_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS base
                FROM counts)
            SELECT w.image_id, w.seq, w.n_bytes, w.bucket_id,
                   o.base + w.local_shard AS shard
            FROM walk w JOIN offs o ON o.bucket_id = w.bucket_id
                                   AND o.range_id = w.range_id
            ORDER BY w.bucket_id, w.seq
        """,
        "image_decontaminate": f"""
            -- phash twin of the text decontamination op: train images
            -- within Hamming tau=6 of any benchmark (seq % 17 == 0)
            -- phash — bit_count(xor(...)) replays the engine's XOR +
            -- popcount exactly (imagecurate.q_image_decontaminate)
            WITH s AS (
                SELECT image_id,
                       CAST(regexp_extract(image_id, '(\\d+)$', 1)
                            AS BIGINT) AS seq,
                       phash
                FROM '{phash_images}'),
            bench AS (SELECT * FROM s WHERE seq % 17 = 0),
            train AS (SELECT * FROM s WHERE seq % 17 <> 0),
            hits AS (
                SELECT t.image_id,
                       CAST(bit_count(xor(t.phash, b.phash)) AS BIGINT) AS d
                FROM train t JOIN bench b
                  ON bit_count(xor(t.phash, b.phash)) <= 6)
            SELECT image_id, count(*) AS n_matches, min(d) AS min_dist
            FROM hits GROUP BY image_id ORDER BY image_id
        """,
        "shard_manifest": f"""
            -- per-shard lineage/integrity manifest: the image_shard_pack
            -- recursive-CTE walk re-derives the assignment, then a
            -- GROUP BY shard rolls up counts/bytes/seq-interval plus the
            -- engine's xor checksum of mix64_int(seq, seed=n_bytes),
            -- replayed with HUGEINT modular arithmetic
            -- (functions/imageshard.q_shard_manifest)
            WITH RECURSIVE s AS (
                SELECT image_id,
                       CAST(regexp_extract(image_id, '(\\d+)$', 1)
                            AS BIGINT) AS seq,
                       CAST(octet_length(bytes) AS BIGINT) AS n_bytes
                FROM '{phash_images}'),
            r AS (
                SELECT *, seq // 128 AS range_id,
                       row_number() OVER (
                           PARTITION BY seq // 128 ORDER BY seq) AS rn
                FROM s),
            walk(range_id, rn, seq, n_bytes, fill, local_shard) AS (
                SELECT range_id, rn, seq, n_bytes, n_bytes,
                       CAST(0 AS BIGINT)
                FROM r WHERE rn = 1
                UNION ALL
                SELECT r.range_id, r.rn, r.seq, r.n_bytes,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN r.n_bytes ELSE w.fill + r.n_bytes END,
                       CASE WHEN w.fill > 0
                                 AND w.fill + r.n_bytes > 16384
                            THEN w.local_shard + 1 ELSE w.local_shard END
                FROM walk w
                JOIN r ON r.range_id = w.range_id AND r.rn = w.rn + 1),
            counts AS (
                SELECT range_id, max(local_shard) + 1 AS n_shards
                FROM walk GROUP BY range_id),
            offs AS (
                SELECT range_id,
                       CAST(coalesce(sum(n_shards) OVER (
                           ORDER BY range_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS base
                FROM counts),
            pack AS (
                SELECT w.range_id, w.seq, w.n_bytes,
                       o.base + w.local_shard AS shard
                FROM walk w JOIN offs o ON o.range_id = w.range_id),
            k1 AS (
                SELECT *, CAST((CAST(seq AS HUGEINT) * 2654435761 + n_bytes)
                               % 18446744073709551616 AS UBIGINT) AS u
                FROM pack),
            k2 AS (SELECT * REPLACE (xor(u, u >> 29) AS u) FROM k1),
            k3 AS (SELECT * REPLACE (
                       CAST((CAST(u AS HUGEINT) * 2246822519)
                            % 18446744073709551616 AS UBIGINT) AS u)
                   FROM k2),
            k4 AS (SELECT * REPLACE (xor(u, u >> 32) AS u) FROM k3)
            SELECT shard, min(range_id) AS range_id,
                   count(*) AS n_images,
                   CAST(sum(n_bytes) AS BIGINT) AS payload_bytes,
                   min(seq) AS first_seq, max(seq) AS last_seq,
                   bit_xor(u) AS checksum
            FROM k4 GROUP BY shard ORDER BY shard
        """,
        "pricing_summary": """
            -- exact integer-cent arithmetic so engine and oracle agree
            -- bit-for-bit (float sums are order-dependent)
            WITH c AS (
                SELECT l_returnflag, l_linestatus,
                       CAST(l_quantity AS BIGINT) AS qty,
                       CAST(round(l_extendedprice * 100) AS BIGINT) AS cents,
                       CAST(round(l_discount * 100) AS BIGINT) AS dc
                FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02')
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(qty) AS DOUBLE) AS sum_qty,
                   sum(cents) / CAST(100 AS DOUBLE) AS sum_base_price,
                   sum(cents * (100 - dc)) / CAST(10000 AS DOUBLE) AS sum_disc_price,
                   sum(qty) / CAST(count(*) AS DOUBLE) AS avg_qty,
                   sum(cents) / CAST(100 AS DOUBLE) / count(*) AS avg_price,
                   sum(dc) / CAST(100 AS DOUBLE) / count(*) AS avg_disc,
                   count(*) AS count_order
            FROM c GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "per_key_count": """
            SELECT o_custkey, count(*) AS order_count,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) / CAST(100 AS DOUBLE)
                       AS total_price
            FROM orders GROUP BY o_custkey ORDER BY o_custkey
        """,
        "topk_spenders": """
            SELECT o_custkey,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) / CAST(100 AS DOUBLE)
                       AS total_spent
            FROM orders GROUP BY o_custkey
            ORDER BY sum(CAST(round(o_totalprice * 100) AS BIGINT)) DESC,
                     o_custkey
            LIMIT 10
        """,
        "minmax_stats": """
            SELECT event_type, min(value) AS min_value, max(value) AS max_value,
                   sum(CAST(round(value * 100) AS BIGINT)) / CAST(100 AS DOUBLE) / count(*)
                       AS avg_value,
                   count(*) AS event_count
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "conditional_agg": """
            SELECT user_id,
                   count(*) FILTER (event_type = 'click') AS n_click,
                   count(*) FILTER (event_type = 'view') AS n_view,
                   count(*) FILTER (event_type = 'purchase') AS n_purchase,
                   sum(CASE WHEN event_type = 'purchase'
                            THEN CAST(round(value * 100) AS BIGINT)
                            ELSE 0 END) / CAST(100 AS DOUBLE) AS purchase_value
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "broadcast_join": """
            SELECT p_brand,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                       / CAST(10000 AS DOUBLE) AS revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY p_brand ORDER BY p_brand
        """,
        "cogroup_join": """
            SELECT n_name, count(*) AS order_count,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) / CAST(100 AS DOUBLE)
                       AS total_price
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name ORDER BY n_name
        """,
        "anti_join": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders
                WHERE o_orderdate < TIMESTAMP '1996-01-01')
            ORDER BY c_custkey
        """,
        "region_revenue": """
            SELECT r_name,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) / CAST(100 AS DOUBLE)
                       AS revenue
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name ORDER BY r_name
        """,
        "latest_record": """
            SELECT user_id, event_id, ts, event_type, value FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
                FROM events) WHERE rn = 1
            ORDER BY user_id
        """,
        "asof_join": """
            -- most recent purchase at or before each click, per user;
            -- right side pre-collapsed to max(value) per (user, ts) so the
            -- as-of match is uniquely defined
            WITH l AS (
                SELECT event_id, user_id, ts FROM events
                WHERE event_type = 'click'),
            r AS (
                SELECT user_id, ts AS purchase_ts, max(value) AS purchase_value
                FROM events WHERE event_type = 'purchase'
                GROUP BY user_id, ts)
            SELECT l.event_id, l.user_id, l.ts,
                   r.purchase_ts, r.purchase_value
            FROM l ASOF LEFT JOIN r
                ON l.user_id = r.user_id AND l.ts >= r.purchase_ts
            ORDER BY l.event_id
        """,
        "range_join": """
            -- non-equi interval join: quantity binned into (lo, hi] bands
            -- derived from nation keys; exact integer-cent revenue
            WITH bands AS (
                SELECT CAST(n_nationkey AS BIGINT) AS band_id,
                       n_nationkey * 2.0 AS lo,
                       n_nationkey * 2.0 + 2.0 AS hi
                FROM nation)
            SELECT b.band_id, count(*) AS n_items,
                   sum(CAST(round(l.l_extendedprice * 100) AS BIGINT))
                       / CAST(100 AS DOUBLE) AS revenue
            FROM lineitem l JOIN bands b
                ON l.l_quantity > b.lo AND l.l_quantity <= b.hi
            GROUP BY b.band_id ORDER BY b.band_id
        """,
        "filter_revenue": """
            SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * CAST(round(l_discount * 100) AS BIGINT)) / CAST(10000 AS DOUBLE)
                       AS revenue,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1997-01-01'
              AND l_shipdate < TIMESTAMP '1998-01-01'
              AND l_discount BETWEEN 0.02 AND 0.06
              AND l_quantity < 24
        """,
        "priority_bands": """
            SELECT CASE WHEN o_totalprice >= 500000 THEN 0
                        WHEN o_totalprice >= 100000 THEN 10
                        WHEN o_totalprice >= 10000 THEN 30
                        ELSE 50 END AS band,
                   count(*) AS n_orders
            FROM orders GROUP BY band ORDER BY band
        """,
        "union_dedup": """
            SELECT DISTINCT id FROM (
                SELECT user_id AS id FROM events
                UNION ALL SELECT o_custkey AS id FROM orders)
            ORDER BY id
        """,
        "sample_mod": """
            SELECT count(*) AS n_sampled,
                   sum(CAST(round(value * 100) AS BIGINT)) / CAST(100 AS DOUBLE) AS value_sum
            FROM events WHERE event_id % 97 = 0
        """,
        "window_hourly": """
            SELECT date_trunc('hour', ts) AS window_start, event_type,
                   count(*) AS n_events,
                   sum(CAST(round(value * 100) AS BIGINT)) / CAST(100 AS DOUBLE) AS value_sum
            FROM events GROUP BY window_start, event_type
            ORDER BY window_start, event_type
        """,
        "sliding_window": """
            -- 1 h windows sliding every 15 min: each event lands in the 4
            -- quarter-hour buckets whose 1 h window covers it
            SELECT ws AS window_start, count(*) AS n_events,
                   sum(cents) / CAST(100 AS DOUBLE) AS value_sum
            FROM (
                SELECT time_bucket(INTERVAL '15 minutes', ts)
                           - to_minutes(15 * k) AS ws,
                       CAST(round(value * 100) AS BIGINT) AS cents
                FROM events, range(4) t(k))
            GROUP BY ws ORDER BY ws
        """,
        "distinct_per_key": """
            SELECT event_type, count(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "running_total": """
            SELECT o_custkey, o_orderkey, o_orderdate,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey
                       ROWS UNBOUNDED PRECEDING)
                       / CAST(100 AS DOUBLE) AS running_total
            FROM orders
            ORDER BY o_custkey, o_orderdate, o_orderkey
        """,
        "rollup": """
            SELECT n_name, s_name, count(*) AS n_items,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                       / CAST(100 AS DOUBLE) AS revenue
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            GROUP BY ROLLUP(n_name, s_name)
            ORDER BY n_name NULLS LAST, s_name NULLS LAST
        """,
        "scd2": """
            SELECT o_custkey AS custkey, o_orderkey,
                   o_orderdate AS valid_from,
                   lead(o_orderdate) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey) AS valid_to,
                   CAST(CASE WHEN lead(o_orderdate) OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_orderdate, o_orderkey) IS NULL
                        THEN 1 ELSE 0 END AS INTEGER) AS is_current
            FROM orders
            ORDER BY custkey, valid_from, o_orderkey
        """,
        "retention": """
            WITH uw AS (
                SELECT DISTINCT user_id,
                       CAST(floor(epoch(ts)) AS BIGINT) // 604800 AS week
                FROM events),
            coh AS (
                SELECT user_id, min(week) AS cohort
                FROM uw GROUP BY user_id)
            SELECT coh.cohort AS cohort_week,
                   uw.week - coh.cohort AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM uw JOIN coh USING (user_id)
            GROUP BY cohort_week, week_offset
            ORDER BY cohort_week, week_offset
        """,
        "funnel": """
            WITH v AS (
                SELECT user_id, min(ts) AS t1 FROM events
                WHERE event_type = 'view' GROUP BY user_id),
            c AS (
                SELECT e.user_id, min(e.ts) AS t2
                FROM events e JOIN v USING (user_id)
                WHERE e.event_type = 'click' AND e.ts >= v.t1
                GROUP BY e.user_id),
            p AS (
                SELECT e.user_id, min(e.ts) AS t3
                FROM events e JOIN c USING (user_id)
                WHERE e.event_type = 'purchase' AND e.ts >= c.t2
                GROUP BY e.user_id)
            SELECT CAST((SELECT count(*) FROM v) AS BIGINT) AS n_view,
                   CAST((SELECT count(*) FROM c) AS BIGINT) AS n_click,
                   CAST((SELECT count(*) FROM p) AS BIGINT) AS n_purchase
        """,
        "cube": """
            SELECT l_returnflag, l_linestatus, count(*) AS n_items,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                       / CAST(100 AS DOUBLE) AS revenue
            FROM lineitem
            GROUP BY CUBE(l_returnflag, l_linestatus)
            ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
        """,
        "heavy_hitters": """
            SELECT user_id, count(*) AS n_events
            FROM events GROUP BY user_id
            HAVING count(*) * 200 >= (SELECT count(*) FROM events)
            ORDER BY user_id
        """,
        "bloom_anti_join": """
            SELECT p_partkey, p_name FROM part
            WHERE p_partkey NOT IN (
                SELECT l_partkey FROM lineitem
                WHERE l_shipdate < TIMESTAMP '1996-01-01')
            ORDER BY p_partkey
        """,
        "stratified_sample": """
            -- 10 rows per event_type with the smallest frozen
            -- mix64_int(event_id, 777) key (kernels/hashing.py)
            WITH s1 AS (
                SELECT event_id, event_type,
                       CAST((CAST(event_id AS HUGEINT) * 2654435761 + 777)
                            % 18446744073709551616 AS UBIGINT) AS u
                FROM events),
            s2 AS (SELECT event_id, event_type, xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT event_id, event_type,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM s2),
            s4 AS (SELECT event_id, event_type, xor(u, u >> 32) AS u FROM s3)
            SELECT event_type, event_id, smp_rank FROM (
                SELECT event_type, event_id,
                       CAST(row_number() OVER (
                           PARTITION BY event_type ORDER BY u, event_id)
                           AS BIGINT) AS smp_rank
                FROM s4)
            WHERE smp_rank <= 10 ORDER BY event_type, smp_rank
        """,
        "quantiles": """
            SELECT event_type, count(*) AS n_rows,
                   quantile_disc(value, 0.5) AS median_value,
                   quantile_disc(value, 0.95) AS p95_value
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "url_parts": """
            -- six dirty-URL classes with closed-form canonical parts;
            -- class 2 (non-digit port) must reject to all-NULL - the
            -- 2026-08-18 anchored-regex regression class
            SELECT doc_id,
              CASE doc_id % 6
                WHEN 0 THEN 'http://' || lower(source) || '.example.com/docs/'
                            || doc_id || '?a=1&b=2'
                WHEN 1 THEN 'https://' || lower(source) || '.example.com/~user/'
                            || doc_id
                WHEN 2 THEN NULL
                WHEN 3 THEN 'http://' || lower(source) || '.example.com/p/'
                            || doc_id
                WHEN 4 THEN 'http://' || lower(source) || '.example.com/a/'
                            || doc_id || '?one=1'
                ELSE 'http://' || lower(source) || '.example.com/' || doc_id
              END AS url,
              CASE WHEN doc_id % 6 = 2 THEN NULL
                   ELSE lower(source) || '.example.com' END AS host,
              CASE doc_id % 6
                WHEN 0 THEN '/docs/' || doc_id
                WHEN 1 THEN '/~user/' || doc_id
                WHEN 2 THEN NULL
                WHEN 3 THEN '/p/' || doc_id
                WHEN 4 THEN '/a/' || doc_id
                ELSE '/' || doc_id
              END AS path,
              CASE doc_id % 6
                WHEN 0 THEN 'a=1&b=2'
                WHEN 4 THEN 'one=1'
                ELSE NULL
              END AS "query"
            FROM documents ORDER BY doc_id
        """,
        "sessionize": """
            WITH gaps AS (
                SELECT user_id,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
            SELECT user_id, count(*) AS n_events,
                   CAST(sum(new_session) AS BIGINT) AS n_sessions
            FROM gaps GROUP BY user_id ORDER BY user_id
        """,
        "topn_per_group": """
            SELECT o_custkey, o_orderkey, o_totalprice, rn FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) AS rn
                FROM orders)
            WHERE rn <= 3 ORDER BY o_custkey, rn
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id, count(*) AS dup_count
            FROM documents GROUP BY text ORDER BY doc_id
        """,
        # stride-1 8-word spans (dedup.SPAN_W); a span is "duplicated" when
        # its exact string occurs >1 time corpus-wide; docs with zero
        # duplicated spans drop (inner semantics, matching the engine)
        "dup_spans": r"""
            WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') ws
                       FROM documents),
            sh AS (SELECT doc_id,
                          unnest([array_to_string(list_slice(ws, i, i + 7),
                                                  ' ')
                                  for i in range(1, len(ws) - 6)]) AS sh
                   FROM w),
            cnt AS (SELECT sh, count(*) n FROM sh GROUP BY sh)
            SELECT s.doc_id, count(*)::BIGINT AS n_dup
            FROM sh s JOIN cnt USING (sh) WHERE n > 1
            GROUP BY s.doc_id ORDER BY s.doc_id
        """,
        "ngram_jaccard_pairs": _NGRAM_PAIRS_SQL,
        "minhash_lsh_pairs": _NGRAM_PAIRS_SQL,
        "dup_clusters": f"""
            -- connected components of the verified near-dup pair graph:
            -- transitive closure by recursive CTE, rep = component minimum
            WITH RECURSIVE p AS ({_NGRAM_PAIRS_SQL}),
            edges AS (
                SELECT a_id AS u, b_id AS v FROM p
                UNION ALL SELECT b_id, a_id FROM p),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE r.u != e.v),
            reps AS (
                SELECT u, least(u, min(v)) AS rep FROM reach GROUP BY u)
            SELECT d.doc_id, coalesce(r.rep, d.doc_id) AS cluster_rep
            FROM documents d LEFT JOIN reps r ON d.doc_id = r.u
            ORDER BY d.doc_id
        """,
        "embedding_neardup": """
            SELECT a_id, b_id, cosine FROM (
                SELECT a.vec_id AS a_id, b.vec_id AS b_id,
                       list_cosine_similarity(a.embedding::DOUBLE[],
                                              b.embedding::DOUBLE[]) AS cosine
                FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id)
            WHERE cosine >= 0.4 ORDER BY a_id, b_id
        """,
        "embedding_neardup_lsh": """
            -- full replay of the integer-exact Rademacher LSH banding
            -- (similarity.py): components quantized floor(x*2^20 + 0.5),
            -- hyperplane signs from the parity of the frozen
            -- mix64_int(t*1000003 + b*10007 + i, seed=20260817) (i is
            -- 1-based), per-bit dot = exact BIGINT sum, 12 tables x 3 bits,
            -- bucket self-join for candidates, cosine >= 0.4 verify (same
            -- float pairing as the driver-green exact twin)
            WITH dims AS MATERIALIZED (
                SELECT vec_id,
                       unnest(range(1, len(embedding) + 1)) AS i,
                       CAST(floor(unnest(embedding::DOUBLE[]) * 1048576.0
                                  + 0.5) AS BIGINT) AS q
                FROM embeddings
            ),
            keys AS (
                SELECT t.t, b.b, idx.i,
                       CAST(t.t*1000003 + b.b*10007 + idx.i AS HUGEINT)
                           AS key
                FROM range(12) t(t), range(3) b(b),
                     (SELECT DISTINCT i FROM dims) idx
            ),
            s1 AS (SELECT t, b, i, CAST((key * 2654435761 + 20260817)
                        % 18446744073709551616 AS UBIGINT) AS u FROM keys),
            s2 AS (SELECT t, b, i, xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT t, b, i, CAST((CAST(u AS HUGEINT) * 2246822519)
                        % 18446744073709551616 AS UBIGINT) AS u FROM s2),
            signs AS MATERIALIZED (
                SELECT t, b, i,
                       CASE WHEN xor(u, u >> 32) % 2 = 1 THEN 1 ELSE -1 END
                           AS s
                FROM s3),
            bits AS (
                SELECT d.vec_id, s.t, s.b,
                       CASE WHEN sum(s.s * d.q) > 0 THEN 1 ELSE 0 END AS bit
                FROM dims d JOIN signs s ON s.i = d.i
                GROUP BY d.vec_id, s.t, s.b),
            codes AS MATERIALIZED (
                SELECT vec_id, t, sum(bit * (1 << b)) AS code
                FROM bits GROUP BY vec_id, t),
            cand AS (
                SELECT DISTINCT a.vec_id AS a_id, b.vec_id AS b_id
                FROM codes a JOIN codes b
                  ON a.t = b.t AND a.code = b.code AND a.vec_id < b.vec_id)
            SELECT a_id, b_id, cosine FROM (
                SELECT c.a_id, c.b_id,
                       list_cosine_similarity(ea.embedding::DOUBLE[],
                                              eb.embedding::DOUBLE[])
                           AS cosine
                FROM cand c JOIN embeddings ea ON ea.vec_id = c.a_id
                            JOIN embeddings eb ON eb.vec_id = c.b_id)
            WHERE cosine >= 0.4 ORDER BY a_id, b_id
        """,
        "mixture_sample": """
            -- per-language keep rates decided by the frozen
            -- mix64_int(doc_id, 20260817) key vs exact integer thresholds
            -- (rate * 2^64; rates are exact binary fractions)
            WITH s1 AS (
                SELECT doc_id, lang,
                       CAST((CAST(doc_id AS HUGEINT) * 2654435761 + 20260817)
                            % 18446744073709551616 AS UBIGINT) AS u
                FROM documents),
            s2 AS (SELECT doc_id, lang, xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT doc_id, lang,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM s2),
            s4 AS (SELECT doc_id, lang, xor(u, u >> 32) AS u FROM s3)
            SELECT doc_id, lang FROM s4
            WHERE CAST(u AS HUGEINT) < CASE lang
                WHEN 'en' THEN HUGEINT '18446744073709551616'
                WHEN 'zh' THEN HUGEINT '13835058055282163712'
                WHEN 'de' THEN HUGEINT '9223372036854775808'
                WHEN 'es' THEN HUGEINT '9223372036854775808'
                WHEN 'fr' THEN HUGEINT '4611686018427387904'
                ELSE HUGEINT '0' END
            ORDER BY doc_id
        """,
        "corpus_curate": r"""
            -- composed curation: keep each near-dup cluster's representative
            -- doc, then quality-gate (tokens >= 30, punct ratio <= 0.05)
            WITH RECURSIVE p AS ({_NGRAM}),
            edges AS (
                SELECT a_id AS u, b_id AS v FROM p
                UNION ALL SELECT b_id, a_id FROM p),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE r.u != e.v),
            reps AS (
                SELECT u, least(u, min(v)) AS rep FROM reach GROUP BY u),
            q AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\S+')) AS n_tokens,
                       len(regexp_extract_all(text, '[!-/:-@\[-`{-~]'))::DOUBLE
                           / length(text) AS punct_ratio
                FROM documents)
            SELECT q.doc_id, q.n_tokens, q.punct_ratio
            FROM q LEFT JOIN reps r ON q.doc_id = r.u
            WHERE coalesce(r.rep, q.doc_id) = q.doc_id
              AND q.n_tokens >= 30 AND q.punct_ratio <= 0.05
            ORDER BY q.doc_id
        """.replace("{_NGRAM}", _NGRAM_PAIRS_SQL),
        # PII scrub: same augmentation expression, same RE2 patterns (both
        # engines run RE2), counts before redaction, global replace
        "pii_redact": r"""
            WITH aug AS (
                SELECT doc_id,
                       text || ' contact user' || CAST(doc_id AS VARCHAR)
                            || '@example.com or call +1-555-'
                            || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0')
                            || ' from 10.' || CAST(doc_id % 200 AS VARCHAR)
                            || '.' || CAST(doc_id % 250 AS VARCHAR) || '.7'
                           AS a
                FROM documents)
            SELECT doc_id,
                   regexp_replace(regexp_replace(regexp_replace(a,
                       '@EMAIL@', '<EMAIL>', 'g'),
                       '@PHONE@', '<PHONE>', 'g'),
                       '@IP@', '<IP>', 'g') AS clean_text,
                   len(regexp_extract_all(a, '@EMAIL@'))::BIGINT AS n_emails,
                   len(regexp_extract_all(a, '@PHONE@'))::BIGINT AS n_phones,
                   len(regexp_extract_all(a, '@IP@'))::BIGINT AS n_ips
            FROM aug ORDER BY doc_id
        """.replace("@EMAIL@", C.EMAIL_PAT)
           .replace("@PHONE@", C.PHONE_PAT)
           .replace("@IP@", C.IP_PAT),
        # decontamination: k-word shingle strings (k=4), DISTINCT per doc,
        # semi-join train shingles against the benchmark set (doc_id%97==0)
        "decontaminate": r"""
            WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') ws
                       FROM documents),
            sh AS (SELECT doc_id,
                       CASE WHEN len(ws) < 4
                            THEN [array_to_string(ws, ' ')]
                            ELSE [array_to_string(ws[i:i+3], ' ')
                                  for i in range(1, len(ws) - 2)]
                       END shs
                   FROM w WHERE len(ws) >= 1),
            e AS (SELECT DISTINCT doc_id, sh
                  FROM (SELECT doc_id, unnest(shs) sh FROM sh)),
            bench AS (SELECT DISTINCT sh FROM e WHERE doc_id % 97 = 0)
            SELECT e.doc_id, count(*)::BIGINT AS n_shared
            FROM e JOIN bench USING (sh)
            WHERE e.doc_id % 97 <> 0
            GROUP BY e.doc_id ORDER BY e.doc_id
        """,
        # repetition gate: integer counts; flagged via integer
        # cross-multiplication (top bigram > 20% of bigrams OR distinct
        # words < 50% of words)
        "repetition_filter": r"""
            WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') ws
                       FROM documents),
            base AS (SELECT doc_id, len(ws)::BIGINT n_words,
                            len(list_distinct(ws))::BIGINT n_distinct_words
                     FROM w),
            bg AS (SELECT doc_id,
                          unnest([ws[i] || ' ' || ws[i+1]
                                  for i in range(1, len(ws))]) b
                   FROM w),
            bt AS (SELECT doc_id, max(c)::BIGINT top_bigram_n
                   FROM (SELECT doc_id, b, count(*) c FROM bg
                         GROUP BY doc_id, b)
                   GROUP BY doc_id)
            SELECT base.doc_id, n_words, n_distinct_words,
                   coalesce(top_bigram_n, 0)::BIGINT AS top_bigram_n,
                   greatest(n_words - 1, 0)::BIGINT AS n_bigrams,
                   (coalesce(top_bigram_n, 0) * 5 > greatest(n_words - 1, 0)
                    OR n_distinct_words * 2 < n_words) AS flagged
            FROM base LEFT JOIN bt USING (doc_id)
            ORDER BY doc_id
        """,
        # even vec_id = image side, vec_id+1 its caption; threshold 0.3 is
        # >=9e-4 from every pair cosine at all three SFs, so the int flag is
        # float-library-stable (multimodal.ALIGN_TAU)
        "clip_align": """
            SELECT pair_id, cosine,
                   CAST(cosine >= 0.3 AS INTEGER) AS aligned FROM (
                SELECT a.vec_id // 2 AS pair_id,
                       list_cosine_similarity(a.embedding::DOUBLE[],
                                              b.embedding::DOUBLE[]) AS cosine
                FROM embeddings a JOIN embeddings b
                  ON b.vec_id = a.vec_id + 1
                WHERE a.vec_id % 2 = 0)
            ORDER BY pair_id
        """,
        # vocab = top-VOCAB_SIZE words by (count DESC, word ASC) — the
        # deterministic tie-break both sides apply; docs with zero tokens
        # survive via the LEFT JOIN from documents (text.VOCAB_SIZE = 64)
        "vocab_oov": r"""
            WITH w AS (SELECT doc_id,
                              unnest(regexp_extract_all(text, '\S+')) AS word
                       FROM documents),
            cnt AS (SELECT word, count(*) n FROM w GROUP BY word),
            vocab AS (SELECT word FROM cnt ORDER BY n DESC, word LIMIT 64),
            per AS (SELECT w.doc_id, count(*)::BIGINT AS n_tokens,
                           sum(CASE WHEN v.word IS NULL THEN 1 ELSE 0
                               END)::BIGINT AS n_oov
                    FROM w LEFT JOIN vocab v USING (word)
                    GROUP BY w.doc_id)
            SELECT d.doc_id, coalesce(p.n_tokens, 0)::BIGINT AS n_tokens,
                   coalesce(p.n_oov, 0)::BIGINT AS n_oov
            FROM documents d LEFT JOIN per p USING (doc_id)
            ORDER BY d.doc_id
        """,
        "token_stats": r"""
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(len(regexp_extract_all(text, '\S+')))
                        AS BIGINT) AS total_tokens,
                   sum(n_chars) / count(*) AS avg_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "bpe_token_count": r"""
            SELECT source, count(*) AS n_docs,
                   CAST(sum(len(regexp_extract_all(
                       text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')))
                        AS BIGINT) AS bpe_tokens
            FROM documents GROUP BY source ORDER BY source
        """,
        "quality_scores": r"""
            SELECT doc_id, length(text) AS n_chars,
                   len(regexp_extract_all(text, '\S+')) AS n_tokens,
                   len(regexp_extract_all(text, '[!-/:-@\[-`{-~]'))::DOUBLE
                       / length(text) AS punct_ratio,
                   len(regexp_extract_all(text, '[0-9]'))::DOUBLE
                       / length(text) AS digit_ratio
            FROM documents ORDER BY doc_id
        """,
        "fingerprints": r"""
            -- the winnowing fingerprint replayed exactly: utf-8 bytes via
            -- hex(encode(text)) pair-decode, k=8 rolling polynomial hash
            -- h[i] = sum d[i+t]*B^(7-t) mod 2^64 (B = 0x100000001B3;
            -- powers inlined as literals — equal by construction to the
            -- engine's prefix-sum form), mix64 finalize, window=16 sliding
            -- min, DISTINCT, double mix64 (inner seed = n), bit_xor reduce.
            -- Precondition: every doc is >= 8 utf-8 bytes, so the
            -- kernel's crc32 short-doc branch is dead. ENFORCED below —
            -- a shorter doc would otherwise silently vanish from the
            -- window hash (all LEADs NULL) instead of failing loudly.
            WITH raw AS (
              SELECT doc_id, hex(encode(text)) AS hx,
                     CASE WHEN octet_length(encode(text)) < 8
                          THEN error('fingerprints oracle requires every '
                                     || 'doc >= 8 utf-8 bytes (doc_id '
                                     || doc_id || ' is shorter); the '
                                     || 'engine kernel falls back to '
                                     || 'crc32 there, which SQL cannot '
                                     || 'replay')
                          ELSE octet_length(encode(text))::BIGINT
                     END AS m
              FROM documents),
            byts AS (
              SELECT doc_id, m - 7 AS n,
                     unnest(generate_series(0, m - 1)) AS j,
                     unnest(list_transform(generate_series(0, m - 1), i ->
                       (strpos('123456789ABCDEF', substr(hx, 2*i + 1, 1)) * 16
                        + strpos('123456789ABCDEF', substr(hx, 2*i + 2, 1)))::SMALLINT))
                       AS d
              FROM raw),
            poly AS (
              SELECT doc_id, n, j AS i,
                     CAST((d::HUGEINT * 14218562807570617051
                     + (lead(d, 1) OVER w)::HUGEINT * 15895002104753931833
                     + (lead(d, 2) OVER w)::HUGEINT * 913917546033277539
                     + (lead(d, 3) OVER w)::HUGEINT * 11527715348014283921
                     + (lead(d, 4) OVER w)::HUGEINT * 624165263380053675
                     + (lead(d, 5) OVER w)::HUGEINT * 956575116354345
                     + (lead(d, 6) OVER w)::HUGEINT * 1099511628211
                     + (lead(d, 7) OVER w)::HUGEINT * 1)
                          % 18446744073709551616 AS UBIGINT) AS u
              FROM byts WINDOW w AS (PARTITION BY doc_id ORDER BY j)),
            m1 AS (SELECT doc_id, n, i,
                          CAST((u::HUGEINT * 2654435761) % 18446744073709551616
                               AS UBIGINT) AS u
                   FROM poly WHERE i <= n - 1),
            m2 AS (SELECT doc_id, n, i, xor(u, u >> 29) AS u FROM m1),
            m3 AS (SELECT doc_id, n, i,
                          CAST((u::HUGEINT * 2246822519) % 18446744073709551616
                               AS UBIGINT) AS u
                   FROM m2),
            m4 AS (SELECT doc_id, n, i, xor(u, u >> 32) AS h FROM m3),
            slid AS (
              SELECT doc_id, n, i,
                     MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                                  ROWS BETWEEN CURRENT ROW AND 15 FOLLOWING) AS wmin
              FROM m4),
            mins AS (
              SELECT DISTINCT doc_id, n, wmin FROM slid
              WHERE i <= greatest(n - 16, 0)),
            f1 AS (SELECT doc_id,
                          CAST((wmin::HUGEINT * 2654435761 + n)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM mins),
            f2 AS (SELECT doc_id, xor(u, u >> 29) AS u FROM f1),
            f3 AS (SELECT doc_id,
                          CAST((u::HUGEINT * 2246822519) % 18446744073709551616
                               AS UBIGINT) AS u
                   FROM f2),
            f4 AS (SELECT doc_id, xor(u, u >> 32) AS u FROM f3),
            g1 AS (SELECT doc_id,
                          CAST((u::HUGEINT * 2654435761) % 18446744073709551616
                               AS UBIGINT) AS u
                   FROM f4),
            g2 AS (SELECT doc_id, xor(u, u >> 29) AS u FROM g1),
            g3 AS (SELECT doc_id,
                          CAST((u::HUGEINT * 2246822519) % 18446744073709551616
                               AS UBIGINT) AS u
                   FROM g2),
            g4 AS (SELECT doc_id, xor(u, u >> 32) AS h FROM g3)
            SELECT doc_id, bit_xor(h) AS fingerprint
            FROM g4 GROUP BY doc_id ORDER BY doc_id
        """,
        "approx_distinct": r"""
            -- the HLL sketch replayed exactly: same mix64(user_id, 999)
            -- hash, bucket = low 12 bits, rho = 53 - bitlength(h >> 12)
            -- via an integer bit-smear + bit_count (no float log2), max
            -- per bucket, EXACT integer harmonic denominator
            -- sum(2^(53-rho)) + zeros*2^53, then the identical estimator
            -- arithmetic. The estimate is approximate vs the true count
            -- by construction, but its computation is deterministic and
            -- every arithmetic step is bit-equal except libm ln in the
            -- linear-counting branch (last-ulp; absorbed by the integer
            -- output — verified equal at sf0.001/0.01/0.1).
            WITH s1 AS (
              SELECT CAST((CAST(user_id AS HUGEINT) * 2654435761 + 999)
                          % 18446744073709551616 AS UBIGINT) AS u
              FROM (SELECT DISTINCT user_id FROM events)),
            s2 AS (SELECT xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT CAST((CAST(u AS HUGEINT) * 2246822519)
                           % 18446744073709551616 AS UBIGINT) AS u FROM s2),
            s4 AS (SELECT xor(u, u >> 32) AS h FROM s3),
            wv AS (SELECT h, h >> 12 AS w FROM s4),
            b1 AS (SELECT h, w | (w >> 1) AS v FROM wv),
            b2 AS (SELECT h, v | (v >> 2) AS v FROM b1),
            b3 AS (SELECT h, v | (v >> 4) AS v FROM b2),
            b4 AS (SELECT h, v | (v >> 8) AS v FROM b3),
            b5 AS (SELECT h, v | (v >> 16) AS v FROM b4),
            b6 AS (SELECT h, v | (v >> 32) AS v FROM b5),
            rr AS (SELECT CAST(h & 4095 AS BIGINT) AS bucket,
                          53 - bit_count(v) AS rho FROM b6),
            regs AS (SELECT bucket, max(rho) AS rho FROM rr GROUP BY bucket),
            st AS (SELECT sum((1::UBIGINT << (53 - rho))::HUGEINT) AS pden,
                          count(*) AS nb FROM regs),
            calc AS (SELECT (pden + (4096 - nb)::HUGEINT * 9007199254740992)::DOUBLE
                            / 9007199254740992.0 AS denom,
                            4096 - nb AS zeros FROM st),
            e0 AS (SELECT ((0.7213 / (1.0 + 1.079 / 4096.0)) * 4096) * 4096 / denom
                          AS raw, zeros FROM calc),
            e1 AS (SELECT CASE WHEN raw <= 10240.0 AND zeros > 0
                               THEN 4096.0 * ln(4096.0 / zeros) ELSE raw END AS e
                   FROM e0)
            SELECT CAST(floor(e + 0.5) AS BIGINT) AS n_users_approx FROM e1
        """,
        "simhash_pairs": r"""
            -- the WHOLE simhash pipeline replayed exactly: BPE-ish token
            -- explode, per-token polyhash64 (hex byte decode + powers-of-B
            -- recursive CTE + mix64 stages — the engine's SQL-expressible
            -- term hash), 64-bit tf-weighted bit vote, 4x16-bit banding
            -- (pairs must share >=1 band; tau=6 > bands-1 so banding IS
            -- part of the semantics, not just an optimization), Hamming
            -- <= 6 verify.
            WITH RECURSIVE
            tokl AS MATERIALIZED (
              SELECT doc_id,
                     regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]') AS toks
              FROM documents),
            tok AS MATERIALIZED (
              SELECT doc_id,
                     unnest(toks) AS tok,
                     unnest(generate_series(1, len(toks))) AS tidx
              FROM tokl),
            byt AS MATERIALIZED (
              SELECT doc_id, tidx,
                     octet_length(encode(tok))::BIGINT AS L,
                     unnest(generate_series(0, octet_length(encode(tok)) - 1)) AS j,
                     unnest(list_transform(
                       generate_series(0, octet_length(encode(tok)) - 1), i ->
                         (strpos('123456789ABCDEF', substr(hex(encode(tok)), 2*i + 1, 1)) * 16
                          + strpos('123456789ABCDEF', substr(hex(encode(tok)), 2*i + 2, 1)))::SMALLINT))
                       AS d
              FROM tok),
            pw AS (
              SELECT 0 AS e, 1::UBIGINT AS p
              UNION ALL
              SELECT e + 1,
                     CAST((p::HUGEINT * 1099511628211) % 18446744073709551616 AS UBIGINT)
              FROM pw WHERE e + 1 < (SELECT coalesce(max(L), 1) FROM byt)),
            raw AS (
              SELECT doc_id, tidx,
                     CAST(sum(d::HUGEINT * p.p::HUGEINT) % 18446744073709551616
                          AS UBIGINT) AS u
              FROM byt JOIN pw p ON p.e = byt.L - 1 - byt.j
              GROUP BY doc_id, tidx),
            m1 AS (SELECT doc_id, tidx,
                          CAST((u::HUGEINT * 2654435761) % 18446744073709551616
                               AS UBIGINT) AS u FROM raw),
            m2 AS (SELECT doc_id, tidx, xor(u, u >> 29) AS u FROM m1),
            m3 AS (SELECT doc_id, tidx,
                          CAST((u::HUGEINT * 2246822519) % 18446744073709551616
                               AS UBIGINT) AS u FROM m2),
            m4 AS (SELECT doc_id, tidx, xor(u, u >> 32) AS h FROM m3),
            votes AS (
              SELECT doc_id, b,
                     sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v
              FROM (SELECT doc_id, h, unnest(generate_series(0, 63)) AS b FROM m4)
              GROUP BY doc_id, b),
            sig0 AS (
              SELECT doc_id,
                     CAST(sum(CASE WHEN v > 0 THEN (1::UBIGINT << b)::HUGEINT
                                   ELSE 0::HUGEINT END) AS UBIGINT) AS sig
              FROM votes GROUP BY doc_id),
            sigs AS (
              SELECT d.doc_id, coalesce(s.sig, 0::UBIGINT) AS sig
              FROM documents d LEFT JOIN sig0 s USING (doc_id))
            SELECT a.doc_id AS a_id, b.doc_id AS b_id,
                   CAST(bit_count(xor(a.sig, b.sig)) AS BIGINT) AS hamming
            FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
            AND (((a.sig >>  0) & 65535) = ((b.sig >>  0) & 65535)
              OR ((a.sig >> 16) & 65535) = ((b.sig >> 16) & 65535)
              OR ((a.sig >> 32) & 65535) = ((b.sig >> 32) & 65535)
              OR ((a.sig >> 48) & 65535) = ((b.sig >> 48) & 65535))
            WHERE bit_count(xor(a.sig, b.sig)) <= 6
            ORDER BY a_id, b_id
        """,
        "binpack_customers": r"""
            -- greedy drain-time pack replayed exactly: weights are exact
            -- integer cents (order-independent sums), so the desc-sorted
            -- walk's cumulative thresholds replay bit-for-bit in a
            -- recursive CTE (one row per step; avg = total/8 as the same
            -- IEEE divide the engine performs). b advances at most once
            -- per row and saturates at n_bins-1=7, per the reference's
            -- ip_to_fetcher_id.py semantics.
            WITH RECURSIVE agg AS MATERIALIZED (
              SELECT o_custkey,
                     sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
              FROM orders GROUP BY o_custkey),
            ord AS MATERIALIZED (
              SELECT o_custkey, cents,
                     row_number() OVER (ORDER BY cents DESC, o_custkey) AS rk
              FROM agg),
            t AS (SELECT sum(cents)::DOUBLE / 8 AS avg FROM agg),
            walk AS (
              SELECT rk, o_custkey, cents, cents AS cum,
                     CASE WHEN cents > (SELECT avg FROM t) THEN 1 ELSE 0 END AS b
              FROM ord WHERE rk = 1
              UNION ALL
              SELECT o.rk, o.o_custkey, o.cents, w.cum + o.cents,
                     CASE WHEN w.b < 7
                               AND (w.cum + o.cents) > (SELECT avg FROM t) * (w.b + 1)
                          THEN w.b + 1 ELSE w.b END
              FROM walk w JOIN ord o ON o.rk = w.rk + 1)
            SELECT o_custkey, cents / 100.0 AS weight, b::INTEGER AS bin
            FROM walk ORDER BY o_custkey
        """,
        "bm25_scores": _bm25_oracle_sql(),
        "intersect_keys": """
            SELECT o_custkey AS custkey FROM orders
            WHERE o_orderdate < TIMESTAMP '1998-01-01'
            INTERSECT
            SELECT o_custkey FROM orders
            WHERE o_orderdate >= TIMESTAMP '1998-01-01'
            ORDER BY custkey
        """,
        "left_join_nulls": """
            WITH l AS (
                SELECT o_custkey AS custkey,
                       CAST(round(o_totalprice * 100, 0) AS BIGINT)
                           AS cents
                FROM orders),
            r AS (
                SELECT c_custkey AS custkey,
                       's' || CAST(c_custkey % 5 AS VARCHAR) AS segment
                FROM customer WHERE c_custkey % 3 = 0)
            SELECT coalesce(r.segment, 'unmatched') AS segment,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(l.cents) AS BIGINT) AS sum_cents
            FROM l LEFT JOIN r USING (custkey)
            GROUP BY coalesce(r.segment, 'unmatched') ORDER BY segment
        """,
        "salted_join": """
            -- the salted join's OUTPUT is salt-invariant, so the
            -- oracle is the plain join + aggregate
            WITH l AS (
                SELECT CASE WHEN o_custkey % 10 = 0 THEN 0
                            ELSE o_custkey % 100 END AS skew_key,
                       CAST(round(o_totalprice * 100, 0) AS BIGINT)
                           AS cents
                FROM orders),
            r AS (
                SELECT t.k AS skew_key,
                       'g' || CAST(t.k AS VARCHAR) AS grp
                FROM range(100) t(k))
            SELECT r.grp,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(l.cents) AS BIGINT) AS sum_cents
            FROM l JOIN r USING (skew_key)
            GROUP BY r.grp ORDER BY grp
        """,
        "quality_logit": """
            -- frozen linear quality model (text.q_quality_logit): the
            -- float decision multiplied through by 256*n_chars -- pure
            -- int64 on both engines, agreement by construction
            WITH f AS (
                SELECT doc_id,
                       CAST(length(text) AS BIGINT) AS n_chars,
                       CAST(len(regexp_extract_all(text, '\\S+'))
                           AS BIGINT) AS n_tokens,
                       CAST(len(regexp_extract_all(text,
                           '[!-/:-@\\[-`{{-~]')) AS BIGINT) AS n_punct,
                       CAST(len(regexp_extract_all(text, '[0-9]'))
                           AS BIGINT) AS n_digit
                FROM documents),
            lg AS (
                SELECT doc_id,
                       {wtnc} * n_tokens * n_chars
                       + ({wnc}) * n_chars
                       + ({wp}) * n_punct
                       + ({wd}) * n_digit AS score
                FROM f)
            SELECT doc_id, score,
                   CAST(CASE WHEN score >= 0 THEN 1 ELSE 0 END
                       AS INTEGER) AS keep
            FROM lg ORDER BY doc_id
        """.format(wtnc=T.QL_W_TOK_NC, wnc=T.QL_W_NC, wp=T.QL_W_PUNCT,
                   wd=T.QL_W_DIGIT),
        "approx_quantiles": """
            -- exact replay of the hash-gated sample sketch
            -- (sketch.q_approx_quantiles): mix64(event_id, {seed}) %
            -- stride == 0 gate, then DuckDB's quantile_disc (the same
            -- ceil(q*n)-1 selector as the engine, verified by the
            -- quantiles oracle)
            WITH par AS (
                SELECT greatest(1, (count(*) + {tm1}) // {target})
                    AS stride FROM events),
            s1 AS (
                SELECT event_id, event_type, value,
                       CAST((CAST(event_id AS HUGEINT) * 2654435761
                             + {seed})
                            % 18446744073709551616 AS UBIGINT) AS u
                FROM events),
            s2 AS (SELECT event_id, event_type, value,
                          xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT event_id, event_type, value,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM s2),
            s4 AS (SELECT event_type, value, xor(u, u >> 32) AS u FROM s3),
            samp AS (
                SELECT event_type, value FROM s4
                WHERE u % (SELECT stride FROM par) = 0)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_sample,
                   quantile_disc(value, 0.5) AS median_est,
                   quantile_disc(value, 0.95) AS p95_est
            FROM samp GROUP BY event_type ORDER BY event_type
        """.format(seed=K.AQ_SEED, target=K.AQ_TARGET, tm1=K.AQ_TARGET - 1),
        "trap_hosts": """
            -- crawler-trap detection (urls.q_trap_hosts): the same
            -- deterministic URL construction, then string-level
            -- analysis (regex host, '/'-count depth, '?' detection) and
            -- integer trap rules (4*n_query >= 3*n_urls OR depth >= 8)
            WITH u AS (
                SELECT 'http://h' || CAST(user_id % 50 AS VARCHAR)
                       || '.example/'
                       || repeat('s/', CAST(
                              CASE WHEN (user_id % 50) % 7 = 0
                                   THEN event_id % 11
                                   ELSE event_id % 4 END AS INTEGER))
                       || 'p'
                       || CASE WHEN event_id % 3 = 0
                               OR ((user_id % 50) % 5 = 1
                                   AND event_id % 4 != 3)
                          THEN '?sid=' || CAST(event_id % 7 AS VARCHAR)
                          ELSE '' END AS url
                FROM events),
            parsed AS (
                SELECT regexp_extract(url, '^https?://([^/?]+)', 1)
                           AS host,
                       CAST(length(url) - length(replace(url, '/', ''))
                            AS BIGINT) - 2 AS depth,
                       CASE WHEN position('?' IN url) > 0
                            THEN 1 ELSE 0 END AS has_q
                FROM u)
            SELECT host,
                   CAST(count(*) AS BIGINT) AS n_urls,
                   CAST(sum(has_q) AS BIGINT) AS n_query,
                   max(depth) AS max_depth,
                   CAST(CASE WHEN 4 * sum(has_q) >= 3 * count(*)
                             OR max(depth) >= 8
                        THEN 1 ELSE 0 END AS INTEGER) AS trap
            FROM parsed GROUP BY host ORDER BY host
        """,
        "triangle_count": f"""
            -- oriented wedge join (webgraph.q_triangle_count): a<b<c
            -- counts each triangle once
            WITH e0 AS (SELECT url AS u, x.l.url AS v
                        FROM (SELECT url, unnest(outlinks) AS l
                              FROM '{wg_path}') x),
            canon AS (
                SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b
                FROM e0 WHERE u != v),
            w AS (
                SELECT e1.a, e1.b, e2.b AS c
                FROM canon e1 JOIN canon e2
                ON e2.a = e1.b AND e2.b > e1.b)
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM canon)
                       AS n_edges,
                   (SELECT CAST(count(*) AS BIGINT) FROM w) AS n_wedges,
                   (SELECT CAST(count(*) AS BIGINT)
                    FROM w JOIN canon e3
                    ON e3.a = w.a AND e3.b = w.c) AS n_triangles
        """,
        "connected_components": f"""
            -- undirected CC: the engine's hash-min label-propagation
            -- FIXPOINT is schedule-independent (min node id reachable),
            -- so the oracle is a recursive-CTE transitive closure +
            -- min(label) — no round replay needed
            WITH RECURSIVE
            e0 AS (SELECT url AS a, u.l.url AS b
                   FROM (SELECT url, unnest(outlinks) AS l
                         FROM '{wg_path}') u),
            edges AS (SELECT a, b FROM e0 UNION SELECT b, a FROM e0),
            reach(node, label) AS (
                SELECT url, url FROM '{wg_path}'
                UNION
                SELECT e.b, r.label
                FROM reach r JOIN edges e ON e.a = r.node
            )
            SELECT node AS url, min(label) AS component
            FROM reach GROUP BY node ORDER BY url
        """,
        "langid": r"""
            -- the stopword-count heuristic replayed exactly: per-language
            -- token hits via list_filter, first-wins argmax in _STOPWORDS
            -- order (en,de,es,fr) as a CASE chain — a later language only
            -- beats an earlier one with a strictly greater count, so
            -- >= against the later langs reproduces the loop's tie-break
            WITH f AS (
              SELECT doc_id, lang,
                     length(text) AS n_chars,
                     len(regexp_extract_all(text, '[一-鿿぀-ヿ]')) AS n_cjk,
                     list_transform(regexp_extract_all(text, '\S+'),
                                    t -> lower(t)) AS toks
              FROM documents),
            c AS (
              SELECT doc_id, lang, n_chars, n_cjk, len(toks) AS n_words,
                     len(list_filter(toks, t -> t IN
                       ('the','of','and','to','in','is','that','for','on',
                        'with'))) AS c_en,
                     len(list_filter(toks, t -> t IN
                       ('der','die','das','und','ist','von','mit','für',
                        'auf','ein'))) AS c_de,
                     len(list_filter(toks, t -> t IN
                       ('el','la','de','que','y','en','los','del','las',
                        'por'))) AS c_es,
                     len(list_filter(toks, t -> t IN
                       ('le','la','de','et','les','des','en','un','une',
                        'du'))) AS c_fr
              FROM f),
            p AS (
              SELECT doc_id, lang,
                     CASE
                       WHEN n_chars = 0 THEN 'und'
                       WHEN n_cjk::DOUBLE / greatest(n_chars, 1) > 0.05
                            THEN 'zh'
                       WHEN n_words = 0 THEN 'und'
                       WHEN greatest(c_en, c_de, c_es, c_fr) = 0 THEN 'und'
                       WHEN c_en >= c_de AND c_en >= c_es AND c_en >= c_fr
                            THEN 'en'
                       WHEN c_de >= c_es AND c_de >= c_fr THEN 'de'
                       WHEN c_es >= c_fr THEN 'es'
                       ELSE 'fr' END AS pred_lang
              FROM c)
            SELECT doc_id, pred_lang,
                   COALESCE(pred_lang = lang, FALSE) AS agree
            FROM p ORDER BY doc_id
        """,
        "sequence_pack": r"""
            -- greedy per-range packing replayed exactly: ranges of 4096
            -- docs walk in lockstep via a recursive CTE (one row per range
            -- per step), then range bin counts prefix-sum into global bin
            -- ids — the same per-range + offset-merge semantics as the
            -- engine. toks MATERIALIZED so the regex tokenize runs once.
            WITH RECURSIVE toks AS MATERIALIZED (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\S+'))::BIGINT
                           AS n_tokens,
                       (doc_id // 4096)::BIGINT AS range_id,
                       row_number() OVER (PARTITION BY doc_id // 4096
                                          ORDER BY doc_id) AS rk
                FROM documents),
            walk AS (
                SELECT range_id, rk, doc_id, n_tokens,
                       0::BIGINT AS local_bin, n_tokens AS fill
                FROM toks WHERE rk = 1
                UNION ALL
                SELECT t.range_id, t.rk, t.doc_id, t.n_tokens,
                       CASE WHEN w.fill > 0 AND w.fill + t.n_tokens > 256
                            THEN w.local_bin + 1 ELSE w.local_bin END,
                       CASE WHEN w.fill > 0 AND w.fill + t.n_tokens > 256
                            THEN t.n_tokens ELSE w.fill + t.n_tokens END
                FROM walk w
                JOIN toks t ON t.range_id = w.range_id AND t.rk = w.rk + 1),
            offs AS (
                SELECT range_id,
                       COALESCE(SUM(max_local + 1) OVER (ORDER BY range_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                           0)::BIGINT AS base
                FROM (SELECT range_id, MAX(local_bin) AS max_local
                      FROM walk GROUP BY range_id))
            SELECT w.doc_id, w.n_tokens,
                   (o.base + w.local_bin)::BIGINT AS bin
            FROM walk w JOIN offs o USING (range_id)
            ORDER BY doc_id
        """,
        "audio_features": """
            -- the WAV synth is deterministic: (doc_id%5+1)*800 samples at
            -- 8 kHz, 16-bit mono → canonical 44-byte header + 2 B/sample;
            -- the REAL decode must recover exactly these sizes/durations
            SELECT 'clip' || doc_id AS clip_id,
                   CAST(44 + 2 * ((doc_id % 5 + 1) * 800) AS BIGINT)
                       AS n_bytes,
                   CAST(((doc_id % 5 + 1) * 800) / 8000.0 AS REAL)
                       AS duration_s
            FROM documents ORDER BY clip_id
        """,
        "video_frames": """
            -- frame fan-out layout: every 10th frame of n_frames =
            -- doc_id%50+1 at fps 25
            SELECT video_id, frame_idx,
                   CAST(frame_idx / 25.0 AS REAL) AS frame_ts_s
            FROM (
                SELECT 'v' || doc_id AS video_id,
                       CAST(unnest(generate_series(0, doc_id % 50, 10))
                            AS INTEGER) AS frame_idx
                FROM documents)
            ORDER BY video_id, frame_idx
        """,
        "main_content": """
            -- the extractor must strip all template chrome and recover the
            -- source text exactly; regexp trim mirrors python str.strip
            -- (trim() alone removes only spaces, not \\t/\\n padding)
            SELECT doc_id, 'Doc ' || doc_id AS title,
                   regexp_replace(text, '^\\s+|\\s+$', '', 'g') AS content
            FROM documents ORDER BY doc_id
        """,
        "charset_decode": """
            -- the engine's encode→decode roundtrip is lossless (utf-8 and
            -- gb18030 both cover all of Unicode), so the oracle reproduces
            -- the output directly: charset from the frozen
            -- mix64_int(doc_id, 7031) key, text/n_chars from the source
            WITH s1 AS (
                SELECT doc_id, text,
                       CAST((CAST(doc_id AS HUGEINT) * 2654435761 + 7031)
                            % 18446744073709551616 AS UBIGINT) AS u
                FROM documents),
            s2 AS (SELECT doc_id, text, xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT doc_id, text,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM s2),
            s4 AS (SELECT doc_id, text, xor(u, u >> 32) AS u FROM s3)
            SELECT doc_id, text,
                   CASE WHEN u % 2 = 0 THEN 'utf-8' ELSE 'gb18030' END
                       AS charset,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   TRUE AS decode_ok
            FROM s4 ORDER BY doc_id
        """,
        "url_canonicalize": """
            SELECT doc_id,
                   'http://' || lower(source) || '.example.com/docs/'
                       || doc_id || '?a=1&b=2' AS url
            FROM documents ORDER BY doc_id
        """,
        "linkbase_merge": """
            -- J6 batch x delta merge: keep-latest per url (timestamp =
            -- event_id, globally unique), drop on any D command, die when
            -- latest.fail + count(R) >= 3
            WITH recs AS (
                SELECT 'u' || user_id AS url, event_id AS timestamp,
                       value AS score,
                       CAST(event_id % 2 AS INT) AS fail0
                FROM events WHERE event_id % 3 IN (0, 1)),
            cmds AS (
                SELECT 'u' || user_id AS url,
                       CASE WHEN user_id % 7 = 0 THEN 'D' ELSE 'R' END AS cmd
                FROM events
                WHERE event_id % 3 = 2 AND event_id % 97 = 0),
            latest AS (
                SELECT url, timestamp, score, fail0,
                       row_number() OVER (
                           PARTITION BY url
                           ORDER BY timestamp DESC, score DESC) AS rn
                FROM recs),
            agg AS (
                SELECT url,
                       sum(CASE WHEN cmd = 'D' THEN 1 ELSE 0 END) AS n_d,
                       sum(CASE WHEN cmd = 'R' THEN 1 ELSE 0 END) AS n_r
                FROM cmds GROUP BY url)
            SELECT l.url, l.timestamp, l.score,
                   CAST(l.fail0 + coalesce(a.n_r, 0) AS INT)
                       AS update_fail_cnt
            FROM latest l LEFT JOIN agg a USING (url)
            WHERE rn = 1 AND coalesce(a.n_d, 0) = 0
              AND l.fail0 + coalesce(a.n_r, 0) < 3
            ORDER BY l.url
        """,
        "ip_url_split": """
            -- J4 hot-IP diversion: skewed host->IP map (ip index =
            -- floor(sqrt(host rank))), per-IP URL counts, relative
            -- threshold 1.5x mean, proxy/direct routing
            WITH hosts AS (
                SELECT doc_id, lower(source) || '.example.com' AS host
                FROM documents),
            ranks AS (
                SELECT host,
                       CAST(row_number() OVER (ORDER BY host) - 1 AS INT) AS r
                FROM (SELECT DISTINCT host FROM hosts)),
            ips AS (
                SELECT h.doc_id,
                       '10.0.0.' || CAST(floor(sqrt(r)) AS INT) AS ip
                FROM hosts h JOIN ranks USING (host)),
            counts AS (SELECT ip, count(*) AS n FROM ips GROUP BY ip),
            hot AS (
                SELECT ip FROM counts
                WHERE n > 1.5 * (SELECT avg(n) FROM counts))
            SELECT doc_id, ip,
                   CASE WHEN ip IN (SELECT ip FROM hot)
                        THEN 'proxy' ELSE 'direct' END AS route
            FROM ips ORDER BY doc_id
        """,
        "host_split": """
            SELECT doc_id,
                   lang || '.' || source || '.example.org' AS host,
                   'org' AS suffix,
                   'example.org' AS domain,
                   lang || '.' || source AS subdomain
            FROM documents ORDER BY doc_id
        """,
        "seeded_shuffle": """
            -- frozen mix64_int(doc_id, seed=4242) permutation, reproduced
            -- exactly with HUGEINT modular arithmetic (kernels/hashing.py)
            WITH s1 AS (
                SELECT doc_id,
                       CAST((CAST(doc_id AS HUGEINT) * 2654435761 + 4242)
                            % 18446744073709551616 AS UBIGINT) AS u
                FROM documents),
            s2 AS (SELECT doc_id, xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT doc_id,
                          CAST((CAST(u AS HUGEINT) * 2246822519)
                               % 18446744073709551616 AS UBIGINT) AS u
                   FROM s2),
            s4 AS (SELECT doc_id, xor(u, u >> 32) AS u FROM s3)
            SELECT doc_id, u AS shuffle_key,
                   CAST(row_number() OVER (ORDER BY u, doc_id) - 1 AS BIGINT)
                       AS position
            FROM s4 ORDER BY position
        """,
        "knn_bruteforce": """
            SELECT query_id, vec_id, cosine FROM (
                SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
                       round(list_cosine_similarity(q.embedding::DOUBLE[],
                                              e.embedding::DOUBLE[]), 6) AS cosine,
                       row_number() OVER (
                           PARTITION BY q.vec_id
                           ORDER BY round(list_cosine_similarity(
                               q.embedding::DOUBLE[], e.embedding::DOUBLE[]), 6)
                               DESC, e.vec_id) AS rn
                FROM embeddings q CROSS JOIN embeddings e
                WHERE q.vec_id < 8)
            WHERE rn <= 10 ORDER BY query_id, cosine DESC, vec_id
        """,
        "knn_ivf": _ivf_oracle_sql(),
        "semantic_dedup": _semdedup_oracle_sql(),
        "hard_negatives": """
            -- hard-negative mining (similarity.q_hard_negatives): per
            -- benchmark caption (odd vec_id, pair_id % {em} = 0), the
            -- top {k} non-partner gallery images under the frozen
            -- (rounded-cosine desc, vec_id asc) order
            WITH gal AS (
                SELECT vec_id, embedding FROM embeddings
                WHERE vec_id % 2 = 0 AND (vec_id // 2) % {em} = 0),
            q AS (
                SELECT vec_id // 2 AS pair_id, embedding FROM embeddings
                WHERE vec_id % 2 = 1 AND (vec_id // 2) % {em} = 0),
            scored AS (
                SELECT q.pair_id, g.vec_id AS neg_vec_id,
                       round(list_cosine_similarity(
                           q.embedding::DOUBLE[],
                           g.embedding::DOUBLE[]), 6) AS cosine
                FROM q JOIN gal g ON g.vec_id != q.pair_id * 2)
            SELECT pair_id, neg_vec_id, cosine, rank FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY pair_id
                    ORDER BY cosine DESC, neg_vec_id) AS rank
                FROM scored)
            WHERE rank <= {k} ORDER BY pair_id, rank
        """.format(em=S.EVAL_MOD, k=S.HARD_NEG_K),
        "knn_lsh": """
            -- full replay of the integer-exact Rademacher multi-probe LSH
            -- (similarity.q_knn_lsh): adaptive bits = max(3,
            -- floor(log2(max(n/64, 2)))); components quantized
            -- floor(x*2^20 + 0.5); signs = parity of the frozen
            -- mix64_int(b*10007 + i, seed=20260817) (table 0, 1-based i);
            -- margins/codes are exact BIGINT sums; probes = own bucket +
            -- all 1-bit flips + 2-bit flips over the 4 lowest-|margin|
            -- bits (ties by bit index — the engine's stable argsort);
            -- top-10 per query by (cosine rounded to 6, vec_id)
            WITH params AS (
                SELECT greatest(3, CAST(floor(log2(greatest(
                           count(*) / 64.0, 2.0))) AS BIGINT)) AS bits
                FROM embeddings),
            dims AS MATERIALIZED (
                SELECT vec_id,
                       unnest(range(1, len(embedding) + 1)) AS i,
                       CAST(floor(unnest(embedding::DOUBLE[]) * 1048576.0
                                  + 0.5) AS BIGINT) AS q
                FROM embeddings
            ),
            keys AS (
                SELECT b.b, idx.i, CAST(b.b*10007 + idx.i AS HUGEINT) AS key
                FROM range(16) b(b), (SELECT DISTINCT i FROM dims) idx
                WHERE b.b < (SELECT bits FROM params)
            ),
            s1 AS (SELECT b, i, CAST((key * 2654435761 + 20260817)
                        % 18446744073709551616 AS UBIGINT) AS u FROM keys),
            s2 AS (SELECT b, i, xor(u, u >> 29) AS u FROM s1),
            s3 AS (SELECT b, i, CAST((CAST(u AS HUGEINT) * 2246822519)
                        % 18446744073709551616 AS UBIGINT) AS u FROM s2),
            signs AS MATERIALIZED (
                SELECT b, i,
                       CASE WHEN xor(u, u >> 32) % 2 = 1 THEN 1 ELSE -1 END
                           AS s
                FROM s3),
            sums AS MATERIALIZED (
                SELECT d.vec_id, s.b, sum(s.s * d.q) AS m
                FROM dims d JOIN signs s ON s.i = d.i
                GROUP BY d.vec_id, s.b),
            vcodes AS MATERIALIZED (
                SELECT vec_id,
                       sum(CASE WHEN m > 0 THEN 1 << b ELSE 0 END) AS code
                FROM sums GROUP BY vec_id),
            ranked AS (
                SELECT vec_id AS query_id, b,
                       row_number() OVER (
                           PARTITION BY vec_id ORDER BY abs(m), b) AS rk
                FROM sums WHERE vec_id < 8),
            base AS (SELECT vec_id AS query_id, code AS base FROM vcodes
                     WHERE vec_id < 8),
            masks AS (
                SELECT query_id, CAST(0 AS BIGINT) AS mask FROM base
                UNION ALL
                SELECT query_id, CAST(1 << b AS BIGINT) FROM ranked
                UNION ALL
                SELECT a.query_id,
                       CAST((1 << a.b) | (1 << c.b) AS BIGINT)
                FROM ranked a JOIN ranked c
                  ON a.query_id = c.query_id AND a.rk < c.rk
                WHERE a.rk <= 4 AND c.rk <= 4),
            probes AS (
                SELECT DISTINCT b.query_id,
                       xor(b.base::BIGINT, m.mask) AS code
                FROM base b JOIN masks m USING (query_id)),
            cand AS (
                SELECT p.query_id, v.vec_id
                FROM probes p JOIN vcodes v ON v.code = p.code),
            scored AS (
                SELECT c.query_id, c.vec_id,
                       round(list_cosine_similarity(
                           eq.embedding::DOUBLE[],
                           ev.embedding::DOUBLE[]), 6) AS cosine
                FROM cand c JOIN embeddings eq ON eq.vec_id = c.query_id
                            JOIN embeddings ev ON ev.vec_id = c.vec_id)
            SELECT query_id, vec_id, cosine FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY cosine DESC, vec_id) AS rn
                FROM scored)
            WHERE rn <= 10 ORDER BY query_id, cosine DESC, vec_id
        """,
    }
    # the planner-chosen salt never changes the answer — same oracle
    out["salted_join_auto"] = out["salted_join"]
    # audio VAD: the burst layout is a pure function of doc_id and the
    # 10 ms frames align with burst boundaries, so every output column
    # replays exactly (K = 1+doc_id%4 bursts of 60 ms tone + 40 ms
    # silence); the engine still derives them from the decoded waveform
    out["audio_segments"] = """
        SELECT 'clip' || CAST(doc_id AS VARCHAR) AS clip_id,
               CAST(1 + doc_id % 4 AS BIGINT) AS n_segments,
               CAST(60 * (1 + doc_id % 4) AS BIGINT) AS active_ms,
               CAST(0 AS BIGINT) AS first_start_ms,
               CAST(100 * (doc_id % 4) + 60 AS BIGINT) AS last_end_ms
        FROM documents ORDER BY clip_id
    """
    # per-host capacity plan over the demo corpus control tables; SQL
    # shared with the delay-fuzz parity test (webgraph.host_rate_plan_sql)
    from spider_ray.functions.webgraph import host_rate_plan_sql

    out["host_rate_plan"] = host_rate_plan_sql(sitemap_corpus)

    # ------------------------------------------------------------------
    # shard-writer summaries (round 4: the two former rows-only sinks).
    # The per-range write summary is a pure function of the pack plan, so
    # the SIDE-EFFECTING queries (files on disk, audited in-engine) now
    # also hash-check against the plan recomputed in SQL: the same
    # recursive greedy walk as image_shard_pack (budget 16384, range 128,
    # seq = trailing digits), aggregated per range. skipped is constant
    # false — the driver runs a fresh out_dir every time.
    def _pack_summary_sql(pre_ctes: str, src_select: str) -> str:
        return f"""
            WITH RECURSIVE {pre_ctes} s AS ({src_select}),
            pr AS (
                SELECT *, seq // 128 AS range_id,
                       row_number() OVER (
                           PARTITION BY seq // 128 ORDER BY seq) AS rn
                FROM s),
            walk(range_id, rn, seq, n_bytes, fill, local_shard) AS (
                SELECT range_id, rn, seq, n_bytes, n_bytes,
                       CAST(0 AS BIGINT)
                FROM pr WHERE rn = 1
                UNION ALL
                SELECT pr.range_id, pr.rn, pr.seq, pr.n_bytes,
                       CASE WHEN w.fill > 0
                                 AND w.fill + pr.n_bytes > 16384
                            THEN pr.n_bytes ELSE w.fill + pr.n_bytes END,
                       CASE WHEN w.fill > 0
                                 AND w.fill + pr.n_bytes > 16384
                            THEN w.local_shard + 1 ELSE w.local_shard END
                FROM walk w
                JOIN pr ON pr.range_id = w.range_id AND pr.rn = w.rn + 1),
            counts AS (
                SELECT range_id, max(local_shard) + 1 AS n_shards
                FROM walk GROUP BY range_id),
            offs AS (
                SELECT range_id,
                       CAST(coalesce(sum(n_shards) OVER (
                           ORDER BY range_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT) AS base
                FROM counts),
            agg AS (
                SELECT range_id, CAST(count(*) AS BIGINT) AS n_images,
                       CAST(sum(n_bytes) AS BIGINT) AS payload_bytes
                FROM walk GROUP BY range_id)
            SELECT CAST(a.range_id AS BIGINT) AS range_id,
                   o.base AS base_shard,
                   CAST(c.n_shards AS BIGINT) AS n_shards,
                   a.n_images, a.payload_bytes,
                   false AS skipped
            FROM agg a JOIN counts c ON c.range_id = a.range_id
                       JOIN offs o ON o.range_id = a.range_id
            ORDER BY range_id
        """

    out["shard_write_audit"] = _pack_summary_sql(
        "",
        f"""SELECT image_id,
                   CAST(regexp_extract(image_id, '(\\d+)$', 1)
                        AS BIGINT) AS seq,
                   CAST(octet_length(bytes) AS BIGINT) AS n_bytes
            FROM '{phash_images}'""",
    )
    # curate→shard composition: the pack runs over exactly the curated
    # subset (ids and payload bytes unchanged by curation — same CTE
    # chain as the image_curate oracle)
    curate_kept_ctes = f"""g AS ({image_gates}),
            passed AS (
                SELECT image_id, w, h, fmt, caption
                FROM g
                WHERE w >= 24 AND h >= 24 AND w <= 2 * h AND h <= 2 * w
                  AND n_caption_words >= 5 AND byte_len >= 1200),
            p AS ({phash_pairs}),
            edges AS (
                SELECT a_id AS u, b_id AS v FROM p
                UNION ALL SELECT b_id, a_id FROM p),
            reach(u, v) AS (
                SELECT u, v FROM edges
                UNION
                SELECT r.u, e.v FROM reach r JOIN edges e ON r.v = e.u
                WHERE r.u != e.v),
            comp AS (SELECT u, least(u, min(v)) AS comp
                     FROM reach GROUP BY u),
            reps AS (
                SELECT c.comp, m.image_id AS rep,
                       row_number() OVER (
                           PARTITION BY c.comp
                           ORDER BY m.w * m.h DESC, m.image_id
                       ) AS rn
                FROM comp c JOIN passed m ON m.image_id = c.u),
            curated AS (
                SELECT m.image_id
                FROM passed m
                LEFT JOIN comp c ON c.u = m.image_id
                LEFT JOIN (SELECT comp, rep FROM reps WHERE rn = 1) rr
                       ON rr.comp = c.comp
                WHERE c.u IS NULL OR rr.rep = m.image_id),"""
    # byte-level HTML extraction (round 4): the oracle recomputes the
    # expected parse output from the web_graph table alone — equality is
    # the render_html → extract_links round-trip (relative-href
    # resolution, boilerplate/oversized-link drops, first-wins dedup,
    # title derivation all verified page by page)
    out["html_outlinks"] = f"""
        SELECT url, ol.url AS anchor_url, ol.anchor AS anchor_text
        FROM (SELECT url, unnest(outlinks) AS ol FROM '{wg_path}')
        ORDER BY url, anchor_url
    """
    out["html_page_stats"] = f"""
        SELECT url,
               host || ' - page ' || regexp_extract(url, '(\\d+)$', 1)
                   AS title,
               CAST(len(outlinks) AS BIGINT) AS n_anchors,
               CAST(len(list_distinct(list_transform(
                   image_refs, r -> r.image_id))) AS BIGINT) AS n_images,
               CAST(2 AS BIGINT) AS n_css
        FROM '{wg_path}' ORDER BY url
    """
    # evaluation package (round 4): top-N(UV) crawl-success report —
    # UV stand-in = in-link count; success = any 200 status report for
    # the url in the GOLDEN single-process crawler's status file
    demo_wg = os.path.join(_demo_corpus(), "web_graph.parquet")
    out["crawl_eval"] = f"""
        WITH indeg AS (
            SELECT ol.url AS url, count(*) AS inlinks
            FROM (SELECT unnest(outlinks) AS ol FROM '{demo_wg}')
            GROUP BY ol.url),
        topn AS (
            SELECT url FROM indeg ORDER BY inlinks DESC, url LIMIT 200),
        st AS (
            SELECT url,
                   max(CASE WHEN status = 200 THEN 1 ELSE 0 END) AS ok
            FROM '{os.path.join(golden, "status.parquet")}' GROUP BY url),
        j AS (
            SELECT regexp_extract(t.url, '^http://([^/]+)', 1) AS host,
                   coalesce(st.ok, 0) AS ok
            FROM topn t LEFT JOIN st ON st.url = t.url)
        SELECT host,
               CAST(count(*) AS BIGINT) AS topn_urls,
               CAST(sum(ok) AS BIGINT) AS crawled_ok,
               CAST(1000 * sum(ok) // count(*) AS BIGINT)
                   AS success_rate_milli
        FROM j GROUP BY host ORDER BY host
    """
    # WARC ingestion (round 4): oracle = the source corpus's outlinks
    # for fetchable pages (extraction runs only on 200 responses)
    warc_wg = os.path.join(_warc_corpus(), "web_graph.parquet")
    out["warc_outlinks"] = f"""
        SELECT url, ol.url AS anchor_url, ol.anchor AS anchor_text
        FROM (SELECT url, status_code, unnest(outlinks) AS ol
              FROM '{warc_wg}')
        WHERE status_code = 200
        ORDER BY url, anchor_url
    """
    # evaluation tools (round 4): per-site UV share + content ratio
    out["site_uv_share"] = f"""
        WITH s AS (
            SELECT host,
                   CAST(regexp_extract(url, '(\\d+)$', 1) AS BIGINT) % 2
                       = 0 AS seen,
                   status_code = 200 AS content
            FROM '{wg_path}'),
        per AS (
            SELECT host,
                   CAST(sum(CASE WHEN seen THEN 1 ELSE 0 END) AS BIGINT)
                       AS uv,
                   CAST(sum(CASE WHEN content THEN 1 ELSE 0 END)
                        AS BIGINT) AS content_pages,
                   CAST(count(*) AS BIGINT) AS pages
            FROM s GROUP BY host),
        tot AS (SELECT greatest(sum(uv), 1) AS t FROM per)
        SELECT host, uv,
               CAST(uv * 1000 // (SELECT t FROM tot) AS BIGINT)
                   AS uv_share_milli,
               pages, content_pages,
               CAST(content_pages * 1000 // pages AS BIGINT)
                   AS content_share_milli
        FROM per ORDER BY uv DESC, host
    """
    # dispatcher compress control (round 4): mix64(seq, 20260822) score,
    # even-seq PV stand-in, quota = max(1, pv // 3), seq%8==0 passthrough,
    # never-seen hosts keep everything (backup)
    out["compress_control"] = f"""
        WITH s AS (
            SELECT url, host,
                   CAST(regexp_extract(url, '(\\d+)$', 1) AS BIGINT) AS seq
            FROM '{wg_path}'),
        m1 AS (SELECT *, CAST((CAST(seq AS HUGEINT) * 2654435761
                    + 20260822) % 18446744073709551616 AS UBIGINT) AS u0
               FROM s),
        m2 AS (SELECT * EXCLUDE(u0), xor(u0, u0 >> 29) AS u0 FROM m1),
        m3 AS (SELECT * EXCLUDE(u0), CAST((CAST(u0 AS HUGEINT)
                    * 2246822519) % 18446744073709551616 AS UBIGINT) AS u0
               FROM m2),
        sc AS (SELECT url, host, seq,
                      CAST(xor(u0, u0 >> 32) % 1000000 AS BIGINT) AS score
               FROM m3),
        pv AS (SELECT host,
                      CAST(sum(CASE WHEN seq % 2 = 0 THEN 1 ELSE 0 END)
                           AS BIGINT) AS pv
               FROM sc GROUP BY host),
        html AS (
            SELECT sc.url, sc.host, sc.score, pv.pv,
                   row_number() OVER (
                       PARTITION BY sc.host
                       ORDER BY sc.score DESC, sc.url) AS rn
            FROM sc JOIN pv ON pv.host = sc.host
            WHERE sc.seq % 8 != 0)
        SELECT url, host, score, 'passthrough' AS reason
        FROM sc WHERE seq % 8 = 0
        UNION ALL
        SELECT url, host, score, 'quota' FROM html
        WHERE pv >= 15 AND rn <= greatest(1, pv // 3)
        UNION ALL
        SELECT url, host, score, 'backup' FROM html WHERE pv < 15
        ORDER BY url
    """
    # J5 css merge-back (round 4): every page references its host's
    # site.css and its seq-family v{seq%4}.css — the oracle recomputes
    # the enrichment join from web_graph × css_files alone
    css_corpus = _css_corpus()
    css_wg = os.path.join(css_corpus, "web_graph.parquet")
    css_cf = os.path.join(css_corpus, "css_files.parquet")
    # the body itself is replayed as its driver-safe digest: octet length
    # + the frozen polyhash64 (hex byte decode + powers-of-B recursive
    # CTE + mix64 stages, the simhash_pairs idiom) masked to 63 bits
    out["css_enrich"] = f"""
        WITH RECURSIVE pages AS (
            SELECT url, host,
                   CAST(regexp_extract(url, '(\\d+)$', 1) AS BIGINT) % 4
                       AS fam
            FROM '{css_wg}'),
        refs AS (
            SELECT url, 'http://' || host || '/static/site.css' AS css_url
            FROM pages
            UNION ALL
            SELECT url, 'http://' || host || '/static/v'
                        || CAST(fam AS VARCHAR) || '.css'
            FROM pages),
        cf AS MATERIALIZED (
            SELECT css_url, body,
                   CAST(octet_length(body) AS BIGINT) AS L
            FROM '{css_cf}'),
        byt AS MATERIALIZED (
            SELECT css_url, L,
                   unnest(generate_series(0, L - 1)) AS j,
                   unnest(list_transform(
                     generate_series(0, L - 1), i ->
                       (strpos('123456789ABCDEF',
                               substr(hex(body), 2*i + 1, 1)) * 16
                        + strpos('123456789ABCDEF',
                                 substr(hex(body), 2*i + 2, 1)))::SMALLINT))
                     AS d
            FROM cf),
        pw AS (
            SELECT 0 AS e, 1::UBIGINT AS p
            UNION ALL
            SELECT e + 1,
                   CAST((p::HUGEINT * 1099511628211)
                        % 18446744073709551616 AS UBIGINT)
            FROM pw WHERE e + 1 < (SELECT coalesce(max(L), 1) FROM byt)),
        raw AS (
            SELECT css_url,
                   CAST(sum(d::HUGEINT * p.p::HUGEINT)
                        % 18446744073709551616 AS UBIGINT) AS u
            FROM byt JOIN pw p ON p.e = byt.L - 1 - byt.j
            GROUP BY css_url),
        m1 AS (SELECT css_url,
                      CAST((u::HUGEINT * 2654435761)
                           % 18446744073709551616 AS UBIGINT) AS u
               FROM raw),
        m2 AS (SELECT css_url, xor(u, u >> 29) AS u FROM m1),
        m3 AS (SELECT css_url,
                      CAST((u::HUGEINT * 2246822519)
                           % 18446744073709551616 AS UBIGINT) AS u
               FROM m2),
        m4 AS (SELECT css_url, xor(u, u >> 32) AS h FROM m3),
        dig AS (
            -- LEFT JOIN + coalesce(…, 0): a ZERO-LENGTH body has no byt
            -- rows, and polyhash64('') = mix64(0) = 0 — the engine
            -- emits those rows, so the oracle must too
            SELECT cf.css_url, cf.L AS css_len,
                   coalesce(CAST(m4.h % 9223372036854775808 AS BIGINT),
                            0) AS css_hash
            FROM cf LEFT JOIN m4 ON m4.css_url = cf.css_url)
        SELECT r.url, r.css_url, c.css_len, c.css_hash
        FROM refs r JOIN dig c ON c.css_url = r.css_url
        ORDER BY r.url, r.css_url
    """
    # updater shard-interval re-crawl selection (round 5): rebuild the
    # synthetic linkbase headers by concatenation and replay the
    # reference's rfind header extraction with reverse/strpos arithmetic
    # (LAST occurrence, ': ' format gate, backslash terminator strictly
    # after the first value char), then per-url keep-max-timestamp
    from spider_ray.functions import updater as UPD

    assert (UPD.SHARD_NUM, UPD.START_SHARD, UPD.END_SHARD,
            UPD._SHARD_SEED) == (128, 32, 96, 909)
    out["updater_select"] = r"""
        WITH e AS (
            SELECT event_id AS eid, user_id AS uid, value AS score
            FROM events WHERE event_id % 5 != 0),
        h1 AS (SELECT *, CAST((CAST(uid AS HUGEINT) * 2654435761 + 909)
                    % 18446744073709551616 AS UBIGINT) AS u0 FROM e),
        h2 AS (SELECT *, xor(u0, u0 >> 29) AS u1 FROM h1),
        h3 AS (SELECT *, CAST((CAST(u1 AS HUGEINT) * 2246822519)
                    % 18446744073709551616 AS UBIGINT) AS u2 FROM h2),
        h4 AS (SELECT *, xor(u2, u2 >> 32) AS hh FROM h3),
        rng AS (SELECT eid, uid, score FROM h4
                WHERE hh % 128 >= 32 AND hh % 128 < 96),
        hdr AS (
            SELECT *,
                   'LM-' || (eid % 97) AS lm,
                   'DT-' || (eid % 89) AS dt,
                   'HTTP/1.1 200 OK\r\nServer: ray\r\n' AS b
            FROM rng),
        hh2 AS (
            SELECT eid, uid, score,
                CASE eid % 7
                  WHEN 0 THEN b || 'Last-Modified: ' || lm || '\r\n'
                              || 'Date: ' || dt || '\r\n'
                  WHEN 1 THEN b || 'Date: ' || dt || '\r\n'
                  WHEN 2 THEN b || 'Content-Type: text/html' || '\r\n'
                  WHEN 3 THEN b || 'Last-Modified: ' || lm || '\r\n'
                              || 'HTTP/1.1 301 Moved' || '\r\n'
                              || 'Last-Modified: X' || lm || '\r\n'
                  WHEN 4 THEN b || 'Last-Modified: ' || lm || '\r\n'
                              || 'X-Trap: zzLast-Modifiedzz' || '\r\n'
                              || 'Date: ' || dt || '\r\n'
                  WHEN 5 THEN b || 'Date: ' || dt || '\r\n'
                              || 'Last-Modified: ' || lm
                  ELSE b || 'Date: ' || dt
                END AS header
            FROM hdr),
        exl AS (SELECT *, strpos(reverse(header),
                                 reverse('Last-Modified')) AS rp
                FROM hh2),
        exl2 AS (SELECT *, length(header) - rp - 13 + 2 AS lastpos
                 FROM exl),
        exl3 AS (SELECT *,
                CASE WHEN rp > 0
                      AND substr(header, lastpos + 13, 2) = ': '
                     THEN lastpos + 15 END AS v0
                 FROM exl2),
        exl4 AS (SELECT *,
                CASE WHEN v0 IS NOT NULL
                      AND strpos(substr(header, v0 + 1), chr(92)) > 0
                     THEN substr(header, v0,
                                 strpos(substr(header, v0 + 1), chr(92)))
                END AS lmv
                 FROM exl3),
        exd AS (SELECT *, strpos(reverse(header), reverse('Date')) AS rpd
                FROM exl4),
        exd2 AS (SELECT *, length(header) - rpd - 4 + 2 AS lastposd
                 FROM exd),
        exd3 AS (SELECT *,
                CASE WHEN rpd > 0
                      AND substr(header, lastposd + 4, 2) = ': '
                     THEN lastposd + 6 END AS vd0
                 FROM exd2),
        exd4 AS (SELECT *,
                CASE WHEN vd0 IS NOT NULL
                      AND strpos(substr(header, vd0 + 1), chr(92)) > 0
                     THEN substr(header, vd0,
                                 strpos(substr(header, vd0 + 1), chr(92)))
                END AS dtv
                 FROM exd3),
        sel AS (
            SELECT eid, uid, score,
                   coalesce(lmv, dtv) AS last_modified
            FROM exd4 WHERE coalesce(lmv, dtv) IS NOT NULL),
        rk AS (
            SELECT 'u' || uid AS url, eid AS ts, score, last_modified,
                   row_number() OVER (PARTITION BY uid
                                      ORDER BY eid DESC) AS rn
            FROM sel)
        SELECT url, ts, score, last_modified, 'M' AS src
        FROM rk WHERE rn = 1 ORDER BY url
    """
    # search-referrer classification rollup (round 5): rule table as
    # VALUES + ordered-param unnest replaying the codebook walk exactly
    # (param order outranks rule order; empty first hit kills the URL)
    from spider_ray.functions import loganalysis as LA

    assert (LA.CONFIDENCE, LA.SIM_NUM, LA.SIM_DEN, LA.GAP_US) == (
        3, 4, 10, 1800 * 1_000_000,
    )
    assert len(LA.RULES) == 9
    # shared CTE fragments: referrer-url synthesis (CASE eid % 11) and
    # the generic codebook replay (host/path parse → ordered-param
    # unnest → rule join → first-hit window). The fragment expects a
    # prior CTE u(eid, url) and ends in sel(eid, engine, qv).
    _REF_URL_CASE = r"""
                CASE eid % 11
                  WHEN 0 THEN 'http://www.google.com/search?q=' || q
                  WHEN 1 THEN 'http://www.baidu.com/s?wd=' || q
                  WHEN 2 THEN 'http://www.baidu.com/s?foo=1&word=' || q
                  WHEN 3 THEN 'http://www.baidu.com/s?wd=&word=' || q
                  WHEN 4 THEN 'http://www.sogou.com/web?query=' || qq
                  WHEN 5 THEN 'http://search.yahoo.com/search?p=' || q
                  WHEN 6 THEN 'http://m.search.yahoo.com/search?p=' || q
                  WHEN 7 THEN 'http://cn.bing.com/search?Q=' || q
                  WHEN 8 THEN 'http://www.google.com/imgs?q=' || q
                  WHEN 9 THEN 'http://www.example.com/page?q=' || q
                  ELSE 'http://www.youdao.com/search?x=1&q=' || q
                END"""
    _REF_CLASSIFY_CTES = r"""
        p AS (
            SELECT eid,
                regexp_extract(url, '^http://([^/]+)', 1) AS host,
                regexp_extract(url, '^http://[^/]+([^?]*)', 1) AS path,
                regexp_extract(url, '\?(.*)$', 1) AS qstr
            FROM u),
        parml AS (
            SELECT eid, host, path, str_split(qstr, '&') AS parts
            FROM p),
        parm AS (
            SELECT eid, host, path,
                   unnest(parts) AS pair,
                   unnest(generate_series(1, len(parts))) AS pidx
            FROM parml),
        kv AS (
            SELECT eid, host, path, pidx,
                   lower(split_part(pair, '=', 1)) AS k,
                   CASE WHEN strpos(pair, '=') > 0
                        THEN substr(pair, strpos(pair, '=') + 1)
                        ELSE '' END AS v
            FROM parm WHERE pair != ''),
        rules(ridx, pre, post, rpath, rkey, engine) AS (VALUES
            (0, 'www.google.', NULL, '/search', 'q', 'google'),
            (1, 'www.google.', NULL, '/', 'q', 'google'),
            (2, 'www.baidu.', NULL, '/s', 'wd', 'baidu'),
            (3, 'www.baidu.', NULL, '/s', 'word', 'baidu'),
            (4, 'www.sogou.', NULL, '/web', 'query', 'sogou'),
            (5, 'cn.bing.com', NULL, '/search', 'q', 'bing'),
            (6, 'www.soso.com', NULL, '/q', 'w', 'soso'),
            (7, NULL, 'search.yahoo.com', '/search', 'p', 'yahoo'),
            (8, 'www.youdao.com', NULL, '/search', 'q', 'youdao')),
        hits AS (
            SELECT kv.eid, kv.pidx, r.ridx, r.engine,
                   replace(kv.v, '%20', ' ') AS qv
            FROM kv JOIN rules r
              ON kv.k = r.rkey
             AND kv.path = r.rpath
             AND ((r.pre IS NOT NULL AND starts_with(kv.host, r.pre))
               OR (r.post IS NOT NULL
                   AND length(kv.host) >= length(r.post)
                   AND substr(kv.host,
                              length(kv.host) - length(r.post) + 1)
                       = r.post))),
        win AS (
            SELECT *, row_number() OVER (PARTITION BY eid
                                         ORDER BY pidx, ridx) AS rn
            FROM hits),
        sel AS (SELECT eid, engine, qv FROM win
                WHERE rn = 1 AND qv != '')"""
    out["search_ref_classify"] = f"""
        WITH e AS (SELECT event_id AS eid, user_id AS uid FROM events),
        q0 AS (SELECT *, 'q' || (eid % 13) AS q,
                      'w%20' || (eid % 13) AS qq FROM e),
        u AS (SELECT eid, {_REF_URL_CASE} AS url FROM q0),
        {_REF_CLASSIFY_CTES}
        SELECT s.engine, s.qv AS query,
               CAST(count(*) AS BIGINT) AS n_pv,
               CAST(count(DISTINCT e.uid) AS BIGINT) AS n_users
        FROM sel s JOIN e ON e.eid = s.eid
        GROUP BY s.engine, s.qv ORDER BY engine, query
    """
    # query→vertical-site click rollup (userlog/stat/query_click.cc):
    # PV side (even eid) = ordered substring-containment vertical
    # classify + referrer search parse; search-log side (odd eid) =
    # direct query; distinct-user count per (query, site)
    out["query_click"] = f"""
        WITH e AS (SELECT event_id AS eid, user_id AS uid FROM events),
        slog AS (
            SELECT 'q' || (eid % 13) AS query, '' AS site, uid
            FROM e WHERE eid % 2 = 1),
        pv AS (SELECT eid, uid FROM e WHERE eid % 2 = 0),
        cu AS (
            SELECT eid, uid,
                CASE eid % 7
                  WHEN 0 THEN 'http://www.iqiyi.com/v_'
                              || (eid % 19) || '.html'
                  WHEN 1 THEN 'http://book.qidian.com/info/' || (eid % 19)
                  WHEN 2 THEN 'http://www.skycn.com/soft/'
                              || (eid % 19) || '.html'
                  WHEN 3 THEN 'http://news.4399.com/g/' || (eid % 19)
                  WHEN 4 THEN 'http://zhidao.baidu.com/question/'
                              || (eid % 19)
                  WHEN 5 THEN 'http://www.sina.com.cn/news/' || (eid % 19)
                  ELSE 'http://v.youku.com/list?from=zhidao.baidu.com&id='
                       || (eid % 19)
                END AS curl
            FROM pv),
        vhit AS (
            SELECT eid, uid,
                CASE WHEN strpos(curl, 'iqiyi.com') > 0
                       OR strpos(curl, 'youku.com') > 0
                       OR strpos(curl, 'tudou.com') > 0 THEN 'Video'
                     WHEN strpos(curl, 'qidian.com') > 0
                       OR strpos(curl, 'hongxiu.com') > 0 THEN 'Book'
                     WHEN strpos(curl, 'skycn.com') > 0
                       OR strpos(curl, 'newhua.com') > 0 THEN 'Software'
                     WHEN strpos(curl, '4399.com') > 0
                       OR strpos(curl, '17173.com') > 0
                       OR strpos(curl, 'games.qq.com') > 0 THEN 'Game'
                     WHEN strpos(curl, 'zhidao.baidu.com') > 0
                       OR strpos(curl, 'wenwen.soso.com') > 0 THEN 'QA'
                END AS site
            FROM cu),
        vkeep AS (SELECT eid, uid, site FROM vhit
                  WHERE site IS NOT NULL),
        q0 AS (SELECT eid, 'q' || (eid % 13) AS q,
                      'w%20' || (eid % 13) AS qq FROM vkeep),
        u AS (SELECT eid, {_REF_URL_CASE} AS url FROM q0),
        {_REF_CLASSIFY_CTES},
        pvrows AS (
            SELECT s.qv AS query, v.site, v.uid
            FROM sel s JOIN vkeep v ON v.eid = s.eid),
        allrows AS (
            SELECT * FROM slog UNION ALL SELECT * FROM pvrows)
        SELECT query, site,
               CAST(count(DISTINCT uid) AS BIGINT) AS n_clicks
        FROM allrows GROUP BY query, site ORDER BY query, site
    """
    # PV sessionization + adjacent-session overlap merge (round 5):
    # gap-cumsum segmentation, semi-join overlap counts, integer
    # cross-multiplied 0.4 threshold, prefix-sum relabel
    out["session_merge"] = r"""
        WITH e AS (
            SELECT user_id, event_id, epoch_us(ts) AS ts_us,
                   event_id % 23 AS url_id
            FROM events),
        g AS (
            SELECT *, CASE WHEN ts_us - lag(ts_us) OVER w > 1800000000
                           THEN 1 ELSE 0 END AS brk
            FROM e WINDOW w AS (PARTITION BY user_id
                                ORDER BY ts_us, event_id)),
        s AS (
            SELECT user_id, event_id, ts_us, url_id,
                   CAST(1 + sum(brk) OVER (PARTITION BY user_id
                            ORDER BY ts_us, event_id
                            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS seg
            FROM g),
        sigs AS (SELECT DISTINCT user_id, seg, url_id FROM s),
        rel AS (
            SELECT a.user_id, a.seg + 1 AS seg,
                   count(*) AS related
            FROM s a
            WHERE EXISTS (SELECT 1 FROM sigs b
                          WHERE b.user_id = a.user_id
                            AND b.seg = a.seg + 1
                            AND b.url_id = a.url_id)
            GROUP BY a.user_id, a.seg),
        slen AS (SELECT user_id, seg, count(*) AS plen
                 FROM s GROUP BY user_id, seg),
        fl AS (
            SELECT sl.user_id, sl.seg + 1 AS seg,
                   CASE WHEN sl.plen >= 3
                         AND coalesce(r.related, 0) * 10 >= sl.plen * 4
                        THEN 1 ELSE 0 END AS flag
            FROM slen sl LEFT JOIN rel r
              ON r.user_id = sl.user_id AND r.seg = sl.seg + 1),
        segf AS (
            SELECT s2.user_id, s2.seg, coalesce(f.flag, 0) AS flag
            FROM (SELECT DISTINCT user_id, seg FROM s) s2
            LEFT JOIN fl f
              ON f.user_id = s2.user_id AND f.seg = s2.seg),
        relab AS (
            SELECT user_id, seg,
                   CAST(seg - sum(flag) OVER (PARTITION BY user_id
                            ORDER BY seg ROWS UNBOUNDED PRECEDING)
                        AS BIGINT) AS session_id
            FROM segf),
        j AS (SELECT s.*, r.session_id FROM s JOIN relab r
              ON r.user_id = s.user_id AND r.seg = s.seg)
        SELECT user_id, session_id,
               CAST(count(*) AS BIGINT) AS n_pv,
               CAST(count(DISTINCT seg) AS BIGINT) AS n_segs,
               CAST(count(DISTINCT url_id) AS BIGINT) AS n_urls,
               CAST(min(ts_us) AS BIGINT) AS t_start_us,
               CAST(max(ts_us) AS BIGINT) AS t_end_us
        FROM j GROUP BY user_id, session_id
        ORDER BY user_id, session_id
    """
    # pv_plus wire-format normalizer (round 5): rebuild the kv-list
    # records by concatenation (base64 via to_base64/unhex, LE ints via
    # printf byte arithmetic), then replay the mapper GENERICALLY —
    # unnest + per-pair validation (shape / int key / length / dup-key
    # abandon), conditional-max pivot, the three-generation url/ref
    # disambiguation, LE time+attr decode, emptiness gates.
    _PV_CTES = r"""
        e AS (
            SELECT event_id AS eid, user_id AS uid,
                   CAST(epoch_us(ts) // 1000000 AS BIGINT) AS ts_sec
            FROM events),
        bse AS (
            SELECT *, 'mid' || (uid % 50) AS mid,
                   eid % 31 AS un, (eid * 7 + 3) % 31 AS rn
            FROM e),
        cu0 AS (
            SELECT *,
                'http://site' || (un % 7) || '.example.com/p/' || un
                    AS url,
                'http://site' || (rn % 7) || '.example.com/p/' || rn
                    AS ref,
                'h' || un AS md5
            FROM bse),
        enc AS (
            SELECT *,
                to_base64(encode(url)) AS bu,
                to_base64(encode(ref)) AS br,
                to_base64(unhex(printf('%02X%02X%02X%02X',
                    ts_sec % 256, (ts_sec // 256) % 256,
                    (ts_sec // 65536) % 256,
                    (ts_sec // 16777216) % 256))) AS bt,
                to_base64(unhex(printf('%02X%02X',
                    ((eid % 7) + 1) % 256,
                    ((eid % 7) + 1) // 256))) AS ba,
                to_base64(encode('Title ' || un)) AS bti
            FROM cu0),
        wire AS (
            SELECT eid, mid,
                CASE eid % 9
                  WHEN 0 THEN '0|'||md5||';1|'||bt||';4|'||bu||';6|'
                              ||ba||';7|'||bti||';101|'||br
                  WHEN 1 THEN '1|'||bt||';4|'||bu
                  WHEN 2 THEN '0|'||md5||';1|'||bt||';4|'||bu
                  WHEN 3 THEN '0|'||md5||';1|'||bt||';101|'||bu
                  WHEN 4 THEN '1|'||bt||';4|'||bu
                  WHEN 5 THEN '0|'||md5||';1|'||bt||';6|'||ba
                  WHEN 6 THEN '1|'||bt||';4|'||bu||';badpair'
                  WHEN 7 THEN '1|'||bt||';4|'||bu||';4|'||bu
                  ELSE '1|'||bt||';x|'||bu||';4|'||bu
                END AS url_info,
                CASE eid % 9
                  WHEN 2 THEN '0|'||md5||';4|'||br
                  WHEN 3 THEN '101|'||br
                  WHEN 4 THEN '0|'||md5
                  ELSE ''
                END AS ref_info
            FROM enc),
        up AS (
            SELECT eid, unnest(str_split(url_info, ';')) AS pair
            FROM wire WHERE url_info != ''),
        uv AS (
            SELECT eid,
                len(str_split(pair, '|')) AS np,
                split_part(pair, '|', 1) AS k0,
                split_part(pair, '|', 2) AS v0
            FROM up),
        ubad AS (
            SELECT eid,
                bool_or(np != 2
                        OR NOT regexp_matches(k0, '^-?[0-9]+$')
                        OR length(v0) > 1000) AS anybad,
                count(*) FILTER (WHERE regexp_matches(k0,
                        '^-?[0-9]+$')) AS nk,
                count(DISTINCT CASE WHEN regexp_matches(k0,
                        '^-?[0-9]+$') THEN CAST(k0 AS INT) END) AS ndk
            FROM uv GROUP BY eid),
        upiv AS (
            SELECT eid,
                max(CASE WHEN CAST(k0 AS INT) = 0 THEN v0 END) AS u0,
                max(CASE WHEN CAST(k0 AS INT) = 1 THEN v0 END) AS u1,
                max(CASE WHEN CAST(k0 AS INT) = 4 THEN v0 END) AS u4,
                max(CASE WHEN CAST(k0 AS INT) = 6 THEN v0 END) AS u6,
                max(CASE WHEN CAST(k0 AS INT) = 100 THEN v0 END)
                    AS u100,
                max(CASE WHEN CAST(k0 AS INT) = 101 THEN v0 END)
                    AS u101
            FROM uv WHERE regexp_matches(k0, '^-?[0-9]+$')
            GROUP BY eid),
        rp AS (
            SELECT eid, unnest(str_split(ref_info, ';')) AS pair
            FROM wire WHERE ref_info != ''),
        rv AS (
            SELECT eid,
                len(str_split(pair, '|')) AS np,
                split_part(pair, '|', 1) AS k0,
                split_part(pair, '|', 2) AS v0
            FROM rp),
        rbad AS (
            SELECT eid,
                bool_or(np != 2
                        OR NOT regexp_matches(k0, '^-?[0-9]+$')
                        OR length(v0) > 1000) AS anybad,
                count(*) FILTER (WHERE regexp_matches(k0,
                        '^-?[0-9]+$')) AS nk,
                count(DISTINCT CASE WHEN regexp_matches(k0,
                        '^-?[0-9]+$') THEN CAST(k0 AS INT) END) AS ndk
            FROM rv GROUP BY eid),
        rpiv AS (
            SELECT eid,
                max(CASE WHEN CAST(k0 AS INT) = 4 THEN v0 END) AS r4,
                max(CASE WHEN CAST(k0 AS INT) = 101 THEN v0 END)
                    AS r101
            FROM rv WHERE regexp_matches(k0, '^-?[0-9]+$')
            GROUP BY eid),
        ok AS (
            SELECT w.eid, w.mid, w.ref_info != '' AS rne,
                   up2.u0, up2.u1, up2.u4, up2.u6, up2.u100, up2.u101,
                   rp2.r4, rp2.r101
            FROM wire w
            JOIN ubad ub ON ub.eid = w.eid
            LEFT JOIN rbad rb ON rb.eid = w.eid
            LEFT JOIN upiv up2 ON up2.eid = w.eid
            LEFT JOIN rpiv rp2 ON rp2.eid = w.eid
            WHERE NOT ub.anybad AND ub.nk = ub.ndk
              AND (rb.eid IS NULL
                   OR (NOT rb.anybad AND rb.nk = rb.ndk))),
        pick AS (
            SELECT *,
                CASE
                  WHEN u101 IS NULL AND u4 IS NULL THEN NULL
                  WHEN rne AND u4 IS NULL AND u100 IS NULL THEN u101
                  ELSE u4
                END AS url_b64,
                CASE
                  WHEN u101 IS NULL AND u4 IS NULL THEN NULL
                  WHEN rne AND u4 IS NULL AND u100 IS NULL THEN r101
                  WHEN NOT rne THEN coalesce(u101, '')
                  WHEN r4 IS NOT NULL AND r101 IS NULL THEN r4
                  WHEN r101 IS NOT NULL AND r4 IS NULL THEN r101
                  WHEN r4 IS NULL AND r101 IS NULL THEN ''
                  ELSE NULL
                END AS ref_b64
            FROM ok),
        timed AS (
            SELECT *, hex(from_base64(u1)) AS thx
            FROM pick WHERE u1 IS NOT NULL
              AND url_b64 IS NOT NULL AND ref_b64 IS NOT NULL),
        tval AS (
            SELECT *,
                CAST(('0x' || substr(thx, 1, 2)) AS BIGINT)
                + CAST(('0x' || substr(thx, 3, 2)) AS BIGINT) * 256
                + CAST(('0x' || substr(thx, 5, 2)) AS BIGINT) * 65536
                + (CAST(('0x' || substr(thx, 7, 2)) AS BIGINT)
                   - CASE WHEN CAST(('0x' || substr(thx, 7, 2))
                              AS BIGINT) >= 128
                          THEN 256 ELSE 0 END) * 16777216 AS tsv
            FROM timed WHERE length(thx) = 8),
        fin AS (
            SELECT mid,
                strftime(make_timestamp(tsv * 1000000),
                         '%Y%m%d%H%M%S') AS ts_fmt,
                decode(from_base64(url_b64)) AS url,
                CASE WHEN ref_b64 = '' THEN ''
                     ELSE decode(from_base64(ref_b64)) END AS ref_url,
                CASE WHEN u6 IS NULL THEN '1'
                     WHEN length(hex(from_base64(u6))) = 4 THEN
                       CAST(CAST(('0x' || substr(hex(from_base64(u6)),
                                1, 2)) AS BIGINT)
                         + (CAST(('0x' || substr(hex(from_base64(u6)),
                                3, 2)) AS BIGINT)
                            - CASE WHEN CAST(('0x' ||
                                substr(hex(from_base64(u6)), 3, 2))
                                AS BIGINT) >= 128
                                THEN 256 ELSE 0 END) * 256 AS VARCHAR)
                     ELSE '1' END AS attr,
                u0 AS md5, url_b64
            FROM tval
            WHERE decode(from_base64(url_b64)) != '')"""
    out["pv_normalize"] = f"""
        WITH {_PV_CTES}
        SELECT mid, ts_fmt, url, ref_url, attr,
               '255' AS enter_type, '0' AS duration
        FROM fin ORDER BY mid, ts_fmt, url, ref_url
    """
    out["pv_md5_map"] = f"""
        WITH {_PV_CTES}
        SELECT md5, url_b64,
               CAST(epoch(strptime(max(ts_fmt), '%Y%m%d%H%M%S'))
                    AS BIGINT) AS t_sec
        FROM fin WHERE md5 IS NOT NULL AND md5 != ''
        GROUP BY md5, url_b64 ORDER BY md5, url_b64
    """
    # target-URL extraction (round 5): rebuild the baidu cipher links by
    # the symmetric nibble-XOR and the google redirects by concatenation,
    # then replay BOTH cracks generically — method1→method2 order, magic
    # and length gates, >127/<=32 %xx re-escape, http/ftp acceptance,
    # validity gates; google host/path/sa/param walk (restricted %-decode
    # as in search_ref_classify). Key constants shared with the kernel.
    from spider_ray.kernels import targeturl as TU

    _K1, _K2 = TU._METHOD1[0], TU._METHOD2[0]
    assert (len(_K1), len(_K2)) == (598, 670)
    assert (TU._METHOD1[2:], TU._METHOD2[2:]) == (
        (76, 62, "a6e8c0962218c9"), (744, 730, "ebac5573358cc3"),
    )
    out["target_url_extract"] = f"""
        WITH m AS (
            SELECT DISTINCT event_id % 1309 AS r FROM events),
        base AS (
            SELECT r, r % 7 AS mode,
                'http://t' || (r % 11) || '.example.org/p' || (r % 17)
                    AS t,
                'http://t' || (r % 11) || '.example.org/a b/p'
                    || (r % 17) AS tsp
            FROM m),
        ks AS (SELECT '{_K1}' AS k1, '{_K2}' AS k2),
        encsrc AS (
            SELECT r, mode,
                CASE WHEN mode = 1 THEN tsp ELSE t END AS pt,
                CASE WHEN mode = 2 THEN k2 ELSE k1 END AS key
            FROM base, ks WHERE mode IN (0, 1, 2, 4)),
        encch AS (
            SELECT r, mode, pt, key,
                   unnest(generate_series(1, length(pt))) AS i
            FROM encsrc),
        encp AS (
            SELECT r, mode, i,
                substr('0123456789abcdef',
                    1 + xor(ascii(substr(pt, i, 1)) // 16,
                            strpos('123456789abcdef',
                                   substr(key, 2*i - 1, 1))), 1)
                || substr('0123456789abcdef',
                    1 + xor(ascii(substr(pt, i, 1)) % 16,
                            strpos('123456789abcdef',
                                   substr(key, 2*i, 1))), 1) AS pair
            FROM encch),
        encs AS (
            SELECT r, mode, string_agg(pair, '' ORDER BY i) AS enc
            FROM encp GROUP BY r, mode),
        urls AS (
            SELECT b.r,
                CASE WHEN b.mode >= 5 THEN 'google'
                     ELSE 'baidu' END AS engine,
                CASE b.mode
                  WHEN 0 THEN 'http://www.baidu.com/link?url='
                       || repeat('ab', 16) || 'a6e8c0962218c9' || e.enc
                  WHEN 1 THEN 'http://www.baidu.com/link?url='
                       || repeat('ab', 16) || 'a6e8c0962218c9' || e.enc
                  WHEN 2 THEN 'http://www.baidu.com/link?url='
                       || repeat('ab', 350) || 'ebac5573358cc3' || e.enc
                  WHEN 3 THEN b.t
                  WHEN 4 THEN 'http://www.baidu.com/link?url='
                       || repeat('ab', 16) || 'a6e8c0962218c9' || e.enc
                       || '0'
                  WHEN 5 THEN
                       'http://www.google.com.hk/url?sa=t&rct=j&url='
                       || replace(replace(b.t, ':', '%3A'), '/', '%2F')
                  ELSE 'http://www.google.com/url?q=' || b.t || '&sa=U'
                END AS src_url
            FROM base b
            LEFT JOIN encs e ON e.r = b.r AND e.mode = b.mode),
        bd AS (SELECT r, src_url FROM urls WHERE engine = 'baidu'),
        bpass AS (
            SELECT r, src_url AS target FROM bd
            WHERE NOT starts_with(lower(src_url),
                                  'http://www.baidu.com/link?url=')),
        bciph AS (
            SELECT r, src_url FROM bd
            WHERE starts_with(lower(src_url),
                              'http://www.baidu.com/link?url=')),
        m1 AS (
            SELECT c.r, substr(c.src_url, 77) AS enc, ks.k1 AS key
            FROM bciph c, ks
            WHERE length(c.src_url) > 76
              AND substr(c.src_url, 63, 14) = 'a6e8c0962218c9'
              AND length(substr(c.src_url, 77)) % 2 = 0
              AND length(substr(c.src_url, 77)) <= 598),
        m2 AS (
            SELECT c.r, substr(c.src_url, 745) AS enc, ks.k2 AS key
            FROM bciph c, ks
            WHERE length(c.src_url) > 744
              AND substr(c.src_url, 731, 14) = 'ebac5573358cc3'
              AND length(substr(c.src_url, 745)) % 2 = 0
              AND length(substr(c.src_url, 745)) <= 670),
        m1ch AS (
            SELECT r, enc, key,
                   unnest(generate_series(1, length(enc) // 2)) AS j
            FROM m1),
        m2ch AS (
            SELECT r, enc, key,
                   unnest(generate_series(1, length(enc) // 2)) AS j
            FROM m2),
        m1n AS (
            SELECT r, j,
                xor(strpos('123456789abcdef', substr(enc, 2*j - 1, 1)),
                    strpos('123456789abcdef', substr(key, 2*j - 1, 1)))
                    * 16
                + xor(strpos('123456789abcdef', substr(enc, 2*j, 1)),
                      strpos('123456789abcdef', substr(key, 2*j, 1)))
                    AS num
            FROM m1ch),
        m2n AS (
            SELECT r, j,
                xor(strpos('123456789abcdef', substr(enc, 2*j - 1, 1)),
                    strpos('123456789abcdef', substr(key, 2*j - 1, 1)))
                    * 16
                + xor(strpos('123456789abcdef', substr(enc, 2*j, 1)),
                      strpos('123456789abcdef', substr(key, 2*j, 1)))
                    AS num
            FROM m2ch),
        m1d AS (
            SELECT r, string_agg(
                CASE WHEN num > 127 OR num <= 32
                     THEN '%' || substr('0123456789abcdef',
                                        num // 16 + 1, 1)
                              || substr('0123456789abcdef',
                                        num % 16 + 1, 1)
                     ELSE chr(CAST(num AS INTEGER)) END, '' ORDER BY j) AS cracked
            FROM m1n GROUP BY r),
        m2d AS (
            SELECT r, string_agg(
                CASE WHEN num > 127 OR num <= 32
                     THEN '%' || substr('0123456789abcdef',
                                        num // 16 + 1, 1)
                              || substr('0123456789abcdef',
                                        num % 16 + 1, 1)
                     ELSE chr(CAST(num AS INTEGER)) END, '' ORDER BY j) AS cracked
            FROM m2n GROUP BY r),
        bres AS (
            SELECT c.r,
                CASE WHEN d1.cracked IS NOT NULL
                      AND (starts_with(lower(d1.cracked), 'http')
                        OR starts_with(lower(d1.cracked), 'ftp'))
                     THEN d1.cracked
                     WHEN d2.cracked IS NOT NULL
                      AND (starts_with(lower(d2.cracked), 'http')
                        OR starts_with(lower(d2.cracked), 'ftp'))
                     THEN d2.cracked
                END AS cracked
            FROM bciph c
            LEFT JOIN m1d d1 ON d1.r = c.r
            LEFT JOIN m2d d2 ON d2.r = c.r),
        bfin AS (
            SELECT r,
                CASE WHEN cracked IS NOT NULL
                      AND regexp_matches(cracked,
                  '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#[:space:]][^[:space:]]*$')
                      AND NOT regexp_matches(cracked, '[\t\r\n]')
                      AND NOT contains(regexp_replace(cracked,
                              '%[0-9A-Fa-f][0-9A-Fa-f]', '', 'g'), '%')
                     THEN cracked END AS target
            FROM bres),
        gg AS (SELECT r, src_url FROM urls WHERE engine = 'google'),
        gp AS (
            SELECT r, src_url,
                regexp_extract(src_url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://([^/?#]+)', 1) AS host,
                regexp_extract(src_url,
                    '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]+([^?#]*)', 1)
                    AS path,
                regexp_extract(src_url, '\\?([^#]*)', 1) AS qstr
            FROM gg),
        gv AS (
            SELECT r FROM gp
            WHERE strpos(src_url, '?') > 0 AND host != '' AND path != ''
              AND strpos(host, 'www.google.') > 0 AND path = '/url'),
        gkv AS (
            SELECT gp.r,
                unnest(str_split(gp.qstr, '&')) AS pair,
                unnest(generate_series(1,
                    len(str_split(gp.qstr, '&')))) AS pidx
            FROM gp JOIN gv ON gv.r = gp.r),
        gkv2 AS (
            SELECT r, pidx, split_part(pair, '=', 1) AS k,
                CASE WHEN strpos(pair, '=') > 0
                     THEN substr(pair, strpos(pair, '=') + 1)
                     ELSE '' END AS v
            FROM gkv WHERE pair != ''),
        gsa AS (
            SELECT r, v AS sa FROM (
                SELECT r, v, row_number() OVER (
                    PARTITION BY r ORDER BY pidx) AS rn
                FROM gkv2 WHERE k = 'sa')
            WHERE rn = 1),
        gwant AS (
            SELECT r, CASE WHEN sa = 'U' THEN 'q'
                           WHEN sa IN ('t', 'X') THEN 'url' END AS want
            FROM gsa),
        graw AS (
            SELECT r, v AS raw FROM (
                SELECT k2.r, k2.v, row_number() OVER (
                    PARTITION BY k2.r ORDER BY k2.pidx) AS rn
                FROM gkv2 k2
                JOIN gwant w ON w.r = k2.r AND k2.k = w.want
                WHERE w.want IS NOT NULL)
            WHERE rn = 1),
        gdec AS (
            SELECT r,
                CASE WHEN strpos(raw, '://') > 0 THEN raw
                     ELSE replace(replace(raw, '%3A', ':'), '%2F', '/')
                END AS target0
            FROM graw),
        gfin AS (
            SELECT g.r,
                CASE WHEN d.target0 IS NOT NULL
                      AND regexp_matches(d.target0,
                  '^[A-Za-z][A-Za-z0-9+.-]*://[^/?#[:space:]][^[:space:]]*$')
                     THEN d.target0 END AS target
            FROM gg g LEFT JOIN gdec d ON d.r = g.r),
        allt AS (
            SELECT r, target FROM bpass
            UNION ALL SELECT r, target FROM bfin
            UNION ALL SELECT r, target FROM gfin)
        SELECT u.src_url, u.engine,
               coalesce(a.target, '') AS target_url,
               CAST(CASE WHEN a.target IS NOT NULL THEN 1 ELSE 0 END
                    AS BIGINT) AS ok
        FROM urls u LEFT JOIN allt a ON a.r = u.r
        ORDER BY u.src_url
    """
    # site-internal vertical-search extraction (round 5): the SAME
    # regex book runs in DuckDB's RE2 (ordered first-match CASE chain),
    # the %uXXXX wide-char decoder replays via '%'-chunk unnest, and
    # the double-encode heuristic via the integer-truncated 20% rule
    # (restricted %25/%41/%42 decode alphabet, as constructed)
    assert [r[2] for r in LA.SITE_RULES] == [
        "Qiyi", "Youku", "Sohu", "Qidian", "360buy", "Xiazaiba",
        "Yxdown", "Pcgames",
    ]
    out["site_search_classify"] = r"""
        WITH m AS (SELECT DISTINCT event_id % 104 AS r FROM events),
        base AS (SELECT r, r % 8 AS mode, 'w' || (r % 13) AS w,
                        r % 13 AS n
                 FROM m),
        urls AS (
            SELECT r,
                CASE mode
                  WHEN 0 THEN 'http://so.iqiyi.com/so/q_' || w
                  WHEN 1 THEN
                    'http://www.soku.com/search_video/type_tag_q_' || w
                  WHEN 2 THEN
                    'http://sosu.qidian.com/searchresult.aspx?x=1&searchkey='
                    || w
                  WHEN 3 THEN
                    'http://search.360buy.com/book?x=1&keyword=%2541%2542'
                    || w
                  WHEN 4 THEN 'http://www.xiazaiba.com/word/' || w
                  WHEN 5 THEN 'http://so.tv.sohu.com/mts?x=1&wd=%u4E2Dx'
                              || n
                  WHEN 6 THEN 'http://so.yxdown.com/s_q%41a' || n
                              || '_soft.html'
                  ELSE 'http://www.example.com/page?q=' || w
                END AS src_url
            FROM base),
        rk AS (
            SELECT r, src_url,
                CASE
                  WHEN regexp_matches(src_url,
                    'so\.iqiyi\.com/so/q(_|=|/)([^\?&_]+)') THEN 0
                  WHEN regexp_matches(src_url,
                    'www\.soku\.com/search_video/(type_tag_)?q(_|=)([^\?&_]+)(&searchdomain=.*)?')
                    THEN 1
                  WHEN regexp_matches(src_url,
                    'so\.tv\.sohu\.com/mts\?(.*)(cat|area|wd)=([^\?&_]+)')
                    THEN 2
                  WHEN regexp_matches(src_url,
                    'sosu\.qidian\.com/searchresult\.aspx\?(.*)searchkey=([^\?&]+)')
                    THEN 3
                  WHEN regexp_matches(src_url,
                    'search\.360buy\.com/(.*)\?(.*)keyword=([^\?&]+)')
                    THEN 4
                  WHEN regexp_matches(src_url,
                    'www\.xiazaiba\.com/word/([^\?/&]+)') THEN 5
                  WHEN regexp_matches(src_url,
                    'so\.yxdown\.com/s_([^_]+)_soft\.html') THEN 6
                  WHEN regexp_matches(src_url,
                    'ks\.pcgames\.com\.cn/\?q=([^\?&]+)') THEN 7
                END AS ridx
            FROM urls),
        val AS (
            SELECT r, src_url, ridx,
                CASE ridx
                  WHEN 0 THEN regexp_extract(src_url,
                    'so\.iqiyi\.com/so/q(_|=|/)([^\?&_]+)', 2)
                  WHEN 1 THEN regexp_extract(src_url,
                    'www\.soku\.com/search_video/(type_tag_)?q(_|=)([^\?&_]+)(&searchdomain=.*)?',
                    3)
                  WHEN 2 THEN regexp_extract(src_url,
                    'so\.tv\.sohu\.com/mts\?(.*)(cat|area|wd)=([^\?&_]+)',
                    3)
                  WHEN 3 THEN regexp_extract(src_url,
                    'sosu\.qidian\.com/searchresult\.aspx\?(.*)searchkey=([^\?&]+)',
                    2)
                  WHEN 4 THEN regexp_extract(src_url,
                    'search\.360buy\.com/(.*)\?(.*)keyword=([^\?&]+)', 3)
                  WHEN 5 THEN regexp_extract(src_url,
                    'www\.xiazaiba\.com/word/([^\?/&]+)', 1)
                  WHEN 6 THEN regexp_extract(src_url,
                    'so\.yxdown\.com/s_([^_]+)_soft\.html', 1)
                  WHEN 7 THEN regexp_extract(src_url,
                    'ks\.pcgames\.com\.cn/\?q=([^\?&]+)', 1)
                END AS v,
                CASE ridx WHEN 0 THEN 'Qiyi' WHEN 1 THEN 'Youku'
                          WHEN 2 THEN 'Sohu' WHEN 3 THEN 'Qidian'
                          WHEN 4 THEN '360buy' WHEN 5 THEN 'Xiazaiba'
                          WHEN 6 THEN 'Yxdown' WHEN 7 THEN 'Pcgames'
                END AS site,
                ridx IN (2, 6) AS sohu
            FROM rk),
        -- non-sohu decode: one %-pass (restricted %25 alphabet), then
        -- the integer-truncated 20% heuristic gates a second pass
        nsd0 AS (
            SELECT r, replace(v, '%25', '%') AS d1
            FROM val WHERE ridx IS NOT NULL AND NOT sohu),
        nsd AS (
            SELECT r,
                CASE WHEN length(d1) - length(replace(d1, '%', ''))
                          > CAST(floor(length(d1) * 0.2) AS BIGINT)
                     THEN replace(replace(d1, '%41', 'A'), '%42', 'B')
                     ELSE d1 END AS dq
            FROM nsd0),
        -- sohu decode: '%'-chunk walk (uXXXX / 25uXXXX / XX + tail)
        schk AS (
            SELECT r, v, starts_with(v, '%') AS fcn,
                unnest(str_split(v, '%')) AS chunk,
                unnest(generate_series(1, len(str_split(v, '%'))))
                    AS cpos
            FROM val WHERE ridx IS NOT NULL AND sohu),
        schk2 AS (
            SELECT r, fcn, trim(chunk) AS chunk,
                row_number() OVER (PARTITION BY r ORDER BY cpos) AS cidx
            FROM schk WHERE trim(chunk) != ''),
        spc AS (
            SELECT r, cidx,
                CASE
                  WHEN cidx = 1 AND NOT fcn THEN chunk
                  WHEN length(chunk) < 2 THEN ''
                  WHEN substr(chunk, 1, 1) = 'u' THEN
                    chr(CAST(('0x' || substr(chunk, 2, 4)) AS INTEGER))
                    || substr(chunk, 6)
                  WHEN substr(chunk, 1, 3) = '25u' THEN
                    chr(CAST(('0x' || substr(chunk, 4, 4)) AS INTEGER))
                    || substr(chunk, 8)
                  ELSE
                    chr(CAST(('0x' || substr(chunk, 1, 2)) AS INTEGER))
                    || substr(chunk, 3)
                END AS piece
            FROM schk2),
        ssd AS (
            SELECT r, string_agg(piece, '' ORDER BY cidx) AS dq
            FROM spc GROUP BY r),
        dec AS (
            SELECT v.r, v.src_url, v.site,
                trim(regexp_replace(
                    coalesce(n.dq, s.dq), '[[:space:]]+', ' ', 'g'))
                    AS q
            FROM val v
            LEFT JOIN nsd n ON n.r = v.r
            LEFT JOIN ssd s ON s.r = v.r
            WHERE v.ridx IS NOT NULL)
        SELECT u.src_url,
               CASE WHEN d.q IS NOT NULL AND d.q != ''
                    THEN d.site ELSE '' END AS site,
               coalesce(CASE WHEN d.q != '' THEN d.q END, '') AS query,
               CAST(CASE WHEN d.q IS NOT NULL AND d.q != ''
                         THEN 1 ELSE 0 END AS BIGINT) AS ok
        FROM urls u LEFT JOIN dec d ON d.r = u.r
        ORDER BY u.src_url
    """
    out["curate_shard_pipeline"] = _pack_summary_sql(
        curate_kept_ctes,
        f"""SELECT i.image_id,
                   CAST(regexp_extract(i.image_id, '(\\d+)$', 1)
                        AS BIGINT) AS seq,
                   CAST(octet_length(i.bytes) AS BIGINT) AS n_bytes
            FROM '{phash_images}' i
            JOIN curated cu ON cu.image_id = i.image_id""",
    )
    return {k: _ws(v) for k, v in out.items()}


_NGRAM_PAIRS_SQL = r"""
    -- shingle self-join form: |A∩B| = shared distinct shingles, |A∪B| =
    -- |A| + |B| - |A∩B| — identical doubles to the list_intersect form but
    -- without the O(n^2) all-pairs scan
    WITH toks AS (
        SELECT doc_id, regexp_extract_all(text, '\S+') ws FROM documents),
    sh AS (
        SELECT doc_id, list_distinct(list_transform(
            range(1, greatest(len(ws) - 1, 1)),
            i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])) g
        FROM toks),
    e AS (SELECT doc_id, unnest(g) s FROM sh),
    sizes AS (SELECT doc_id, count(*) n FROM e GROUP BY doc_id),
    inter AS (
        SELECT a.doc_id a_id, b.doc_id b_id, count(*) c
        FROM e a JOIN e b ON a.s = b.s AND a.doc_id < b.doc_id
        GROUP BY a.doc_id, b.doc_id)
    SELECT a_id, b_id,
           c::DOUBLE / (sa.n + sb.n - c) jaccard
    FROM inter
    JOIN sizes sa ON a_id = sa.doc_id
    JOIN sizes sb ON b_id = sb.doc_id
    WHERE c::DOUBLE / (sa.n + sb.n - c) >= 0.5
    ORDER BY a_id, b_id
"""


def _bm25_oracle_sql() -> str:
    """Replay of text.q_bm25_scores with IDENTICAL float expressions:
    same literals (K1 as (1.2 + 1.0), never the constant 2.2 — a
    DIFFERENT double), same associativity, term parts summed left-to-
    right in BM25_TERMS order, round-6 final guard. df/Σdl/N are exact
    integer aggregates on both engines; ln() is the shared glibc."""
    terms = T.BM25_TERMS
    tf_cols = ",\n                   ".join(
        "CAST(len(list_filter(tk, x -> x = '{t}')) AS BIGINT)"
        " AS tf{i}".format(t=t, i=i)
        for i, t in enumerate(terms)
    )
    df_cols = ",\n                   ".join(
        "CAST(sum(CASE WHEN tf{i} > 0 THEN 1 ELSE 0 END) AS BIGINT)"
        " AS df{i}".format(i=i)
        for i in range(len(terms))
    )
    parts = "\n                 + ".join(
        "ln((s.n - s.df{i} + 0.5) / (s.df{i} + 0.5) + 1.0)"
        " * (p.tf{i} * (1.2 + 1.0))"
        " / (p.tf{i} + 1.2 * (1.0 - 0.75 + 0.75 * (p.dl / s.avgdl)))"
        .format(i=i)
        for i in range(len(terms))
    )
    return """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS tk
                FROM documents),
            per AS (
                SELECT doc_id, CAST(len(tk) AS BIGINT) AS dl,
                   {tf_cols}
                FROM toks),
            stats AS (
                SELECT CAST(count(*) AS DOUBLE) AS n,
                   CAST(CAST(sum(dl) AS BIGINT) AS DOUBLE)
                       / CAST(count(*) AS DOUBLE) AS avgdl,
                   {df_cols}
                FROM per)
            SELECT p.doc_id, p.dl,
                   round({parts}, 6) AS bm25
            FROM per p, stats s ORDER BY p.doc_id
    """.format(tf_cols=tf_cols, df_cols=df_cols, parts=parts)


def _ivf_oracle_sql() -> str:
    """Full replay of the integer-state IVF (similarity.q_knn_ivf), the 8
    k-means iterations unrolled as generated CTE stages.

    Exactness argument: the ONLY float operations are (a) the numerator
    and denominator of the distance rank f = (||s||^2 - 2*n*(x.s)) / n^2 —
    both EXACT int64, each converted to DOUBLE once and divided once (two
    single IEEE roundings, identical in numpy and DuckDB; no float
    summation anywhere), and (b) the final cosine rounded to 6 decimals
    (the same pairing every other ANN oracle uses). Sample gate =
    mix64_int(vec_id) % stride, seeds = evenly spaced rows of the
    id-sorted sample with count 1, assignment ties ORDER BY f, j ==
    numpy first-argmin, empty clusters carry the previous (sum, count)
    state forward via the LEFT JOIN coalesce. Every parameter is read
    from the similarity module so tuning the engine cannot silently
    desync the oracle."""
    nprobe, nq = S.IVF_NPROBE, S.N_QUERIES
    tail = """
probes AS (
    SELECT vec_id AS query_id, j FROM (
        SELECT vec_id, j, row_number() OVER (
            PARTITION BY vec_id ORDER BY f, j) AS rn FROM fC
        WHERE vec_id < {nq})
    WHERE rn <= {nprobe}),
cand AS (
    SELECT p.query_id, a.vec_id
    FROM probes p JOIN asgC a ON a.j = p.j),
scored AS (
    SELECT c.query_id, c.vec_id,
           round(list_cosine_similarity(eq.embedding::DOUBLE[],
                                        ev.embedding::DOUBLE[]), 6)
               AS cosine
    FROM cand c JOIN embeddings eq ON eq.vec_id = c.query_id
                JOIN embeddings ev ON ev.vec_id = c.vec_id)
SELECT query_id, vec_id, cosine FROM (
    SELECT *, row_number() OVER (
        PARTITION BY query_id ORDER BY cosine DESC, vec_id) AS rn
    FROM scored)
WHERE rn <= 10 ORDER BY query_id, cosine DESC, vec_id
""".format(nprobe=nprobe, nq=nq)
    return _ivf_kmeans_replay_sql() + tail


def _semdedup_oracle_sql() -> str:
    """Replay of similarity.q_semantic_dedup: the SHARED k-means replay
    (`_ivf_kmeans_replay_sql` — identical text to the knn_ivf oracle's
    prefix, so the two can never desync) gives every vector its cluster
    ``asgC``; the prune is a within-cluster lower-id self-join at raw
    double cosine ≥ SEM_TAU (the q_embedding_neardup convention),
    dup_of = min such mate."""
    tau = float(S.SEM_TAU)
    tail = """
pairs AS (
    SELECT a.vec_id AS vid, min(b.vec_id) AS dup_of
    FROM asgC a JOIN asgC b ON b.j = a.j AND b.vec_id < a.vec_id
    JOIN embeddings ea ON ea.vec_id = a.vec_id
    JOIN embeddings eb ON eb.vec_id = b.vec_id
    WHERE list_cosine_similarity(ea.embedding::DOUBLE[],
                                 eb.embedding::DOUBLE[]) >= {tau}
    GROUP BY a.vec_id)
SELECT a.vec_id, a.j AS cluster, p.dup_of,
       CAST(CASE WHEN p.dup_of IS NULL THEN 0 ELSE 1 END AS INTEGER)
           AS is_dup
FROM asgC a LEFT JOIN pairs p ON p.vid = a.vec_id
ORDER BY vec_id
""".format(tau=tau)
    return _ivf_kmeans_replay_sql() + tail


def _ivf_kmeans_replay_sql() -> str:
    """The SHARED k-means replay prefix — sample gate, seeding, the
    IVF_ITERS unrolled integer k-means iterations, and the full-corpus
    assignment (``fC`` ranks + ``asgC`` argmin) — used verbatim by BOTH
    the knn_ivf and semantic_dedup oracles. Ends mid-WITH (trailing
    comma after ``asgC``); callers append their tail CTEs + SELECT."""
    iters, k = S.IVF_ITERS, S.IVF_CENTROIDS
    scale, tmax = float(S.IVF_SCALE), S.IVF_TRAIN_MAX
    head = """
WITH par AS (
    SELECT ((count(*) + {tm1}) // {tmax}) AS stride FROM embeddings),
dims AS MATERIALIZED (
    SELECT vec_id,
           unnest(range(1, len(embedding) + 1)) AS i,
           CAST(floor(unnest(embedding::DOUBLE[]) * {scale} + 0.5)
                AS BIGINT) AS q
    FROM embeddings
),
g1 AS (SELECT vec_id, CAST((CAST(vec_id AS HUGEINT) * 2654435761)
            % 18446744073709551616 AS UBIGINT) AS u FROM embeddings),
g2 AS (SELECT vec_id, xor(u, u >> 29) AS u FROM g1),
g3 AS (SELECT vec_id, CAST((CAST(u AS HUGEINT) * 2246822519)
            % 18446744073709551616 AS UBIGINT) AS u FROM g2),
gate AS (SELECT vec_id FROM (
            SELECT vec_id, xor(u, u >> 32) AS u FROM g3)
         WHERE u % (SELECT stride FROM par) = 0),
sdims AS MATERIALIZED (
    SELECT d.* FROM dims d JOIN gate g ON g.vec_id = d.vec_id),
samp AS (SELECT vec_id, row_number() OVER (ORDER BY vec_id) - 1 AS rn
         FROM gate),
seedmap AS (
    SELECT t.j, (t.j * greatest((SELECT count(*) FROM samp) // {k}, 1))
               % (SELECT count(*) FROM samp) AS rn
    FROM range({k}) t(j)),
sv0 AS MATERIALIZED (
    SELECT m.j, d.i, d.q AS s
    FROM seedmap m JOIN samp sm ON sm.rn = m.rn
    JOIN sdims d ON d.vec_id = sm.vec_id),
sn0 AS (SELECT j, CAST(1 AS BIGINT) AS n FROM range({k}) t(j)),
""".format(k=k, scale=scale, tmax=tmax, tm1=tmax - 1)
    its = []
    for t in range(1, iters + 1):
        p = t - 1
        its.append("""
xs{t} AS (
    SELECT d.vec_id, v.j, sum(d.q * v.s) AS xs
    FROM sdims d JOIN sv{p} v ON v.i = d.i
    GROUP BY d.vec_id, v.j),
f{t} AS (
    SELECT x.vec_id, x.j,
           CAST(CAST(s2.s2 - 2 * x.xs * n.n AS BIGINT) AS DOUBLE)
               / CAST(n.n * n.n AS DOUBLE) AS f
    FROM xs{t} x
    JOIN (SELECT j, sum(s*s) AS s2 FROM sv{p} GROUP BY j) s2 USING (j)
    JOIN sn{p} n USING (j)),
asg{t} AS MATERIALIZED (
    SELECT vec_id, j FROM (
        SELECT vec_id, j, row_number() OVER (
            PARTITION BY vec_id ORDER BY f, j) AS rn FROM f{t})
    WHERE rn = 1),
newv{t} AS (
    SELECT a.j, d.i, sum(d.q) AS s
    FROM asg{t} a JOIN sdims d ON d.vec_id = a.vec_id
    GROUP BY a.j, d.i),
newn{t} AS (SELECT j, count(*) AS n FROM asg{t} GROUP BY j),
sv{t} AS MATERIALIZED (
    SELECT o.j, o.i, coalesce(nv.s, o.s) AS s
    FROM sv{p} o LEFT JOIN newv{t} nv ON nv.j = o.j AND nv.i = o.i),
sn{t} AS MATERIALIZED (
    SELECT o.j, coalesce(nn.n, o.n) AS n
    FROM sn{p} o LEFT JOIN newn{t} nn ON nn.j = o.j),
""".format(t=t, p=p))
    tail = """
xsC AS (
    SELECT d.vec_id, v.j, sum(d.q * v.s) AS xs
    FROM dims d JOIN sv{T} v ON v.i = d.i
    GROUP BY d.vec_id, v.j),
fC AS MATERIALIZED (
    SELECT x.vec_id, x.j,
           CAST(CAST(s2.s2 - 2 * x.xs * n.n AS BIGINT) AS DOUBLE)
               / CAST(n.n * n.n AS DOUBLE) AS f
    FROM xsC x
    JOIN (SELECT j, sum(s*s) AS s2 FROM sv{T} GROUP BY j) s2 USING (j)
    JOIN sn{T} n USING (j)),
asgC AS MATERIALIZED (
    SELECT vec_id, j FROM (
        SELECT vec_id, j, row_number() OVER (
            PARTITION BY vec_id ORDER BY f, j) AS rn FROM fC)
    WHERE rn = 1),
""".format(T=iters)
    return head + "".join(its) + tail
