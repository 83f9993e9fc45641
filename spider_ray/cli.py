"""CLI entry points — the ``ray job submit`` surface (north rule: "resumable
from checkpoint ... run via ray job submit").

Usage (inside a job or standalone):

    python -m spider_ray.cli gen-corpus --out /tmp/corpus --pages 2000
    python -m spider_ray.cli crawl --corpus /tmp/corpus --out /tmp/run \
        --shards 8 --fetch-concurrency 8 [--resume]
    python -m spider_ray.cli oracle --corpus /tmp/corpus --out /tmp/golden
    python -m spider_ray.cli shard-write --images /path/images.parquet \
        --out /tmp/shards [--layout bucket]  # resumable + append-safe
                                   # re-layout (seq or aspect-bucketed)
    python -m spider_ray.cli shard-verify --out /tmp/shards  # exit 1 on
                                   # any manifest divergence

Owns its Ray session (guarded init) — the only package module allowed to;
outside the package only the test fixture, ``perfbench/run.py`` and the
``tools/`` scripts start one."""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="spider_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-corpus", help="generate a synthetic web corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--pages", type=int, default=2000)
    g.add_argument("--hosts", type=int, default=24)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument(
        "--html-bodies", action="store_true",
        help="also write html_pages.parquet (raw rendered bodies) for "
             "the crawl's --parse-html mode",
    )

    c = sub.add_parser("crawl", help="run (or resume) the crawl loop")
    c.add_argument("--corpus", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--shards", type=int, default=8)
    c.add_argument("--fetch-concurrency", type=int, default=8)
    c.add_argument("--max-gens", type=int, default=8)
    c.add_argument("--resume", action="store_true")
    c.add_argument(
        "--sitemap-seeds", action="store_true",
        help="augment the seed frontier with robots-declared sitemap "
             "URLs (distributed discovery chain) before gen 0",
    )
    c.add_argument("--num-cpus", type=int, default=None)
    c.add_argument(
        "--hot-hosts", default="",
        help="comma-separated hosts that get dedicated scheduler shards "
             "(the big_family_host.txt analog)",
    )
    c.add_argument(
        "--parse-html", action="store_true",
        help="extract outlinks/images by PARSING the stored raw bodies "
             "(kernels/domtext.crawl_links, the anchor URLs and images "
             "of extract_links) instead of the table lookup; corpus "
             "must carry html_pages.parquet",
    )

    o = sub.add_parser("oracle", help="run the single-process golden crawler")
    o.add_argument("--corpus", required=True)
    o.add_argument("--shards", type=int, default=8)

    sm = sub.add_parser(
        "sitemap-seeds",
        help="list sitemap-discovered seed candidates for a corpus "
             "(single-process reference walk)",
    )
    sm.add_argument("--corpus", required=True)

    gc = sub.add_parser(
        "gc-checkpoints",
        help="retention GC for a stopped crawl's out dir: drop ckpt + "
             "next_candidates of all but the newest N done generations "
             "(data sinks untouched; resume reads only the newest)",
    )
    gc.add_argument("--out", required=True)
    gc.add_argument("--keep", type=int, default=2)

    w = sub.add_parser(
        "shard-write",
        help="(re)write the image store as the WebDataset-style shard "
             "layout; resumable + append-safe (stale ranges rewritten)",
    )
    w.add_argument("--images", required=True,
                   help="image store path (.lance/.parquet)")
    w.add_argument("--out", required=True)
    w.add_argument("--layout", choices=("seq", "bucket"), default="seq",
                   help="pack unit: corpus order (seq) or aspect-bucketed")
    w.add_argument("--num-cpus", type=int, default=None)

    v = sub.add_parser(
        "shard-verify",
        help="audit a written shard layout against its manifest",
    )
    v.add_argument("--out", required=True)
    v.add_argument("--num-cpus", type=int, default=None)

    cs = sub.add_parser(
        "curate-shard",
        help="end-to-end image pipeline: LAION-style curate -> curated "
             "store -> resumable shard layout -> audit",
    )
    cs.add_argument("--images", required=True)
    cs.add_argument("--out", required=True)
    cs.add_argument("--num-cpus", type=int, default=None)
    cs.add_argument(
        "--resize", action="store_true",
        help="insert the ResizeToBucket pixel stage (SDXL preprocessing)",
    )
    cs.add_argument(
        "--layout", choices=("seq", "bucket"), default="seq",
        help="shard pack unit: corpus order or (aspect bucket, range)",
    )

    args = p.parse_args(argv)

    if args.cmd == "gen-corpus":
        from spider_ray.sources.webgen import generate

        paths = generate(
            args.out, n_pages=args.pages, n_hosts=args.hosts,
            seed=args.seed, html_bodies=args.html_bodies,
        )
        print(json.dumps(paths))
        return 0

    if args.cmd == "gc-checkpoints":
        from spider_ray.pipelines.crawl import gc_checkpoints

        print(json.dumps(gc_checkpoints(args.out, keep=args.keep)))
        return 0

    if args.cmd == "sitemap-seeds":
        from spider_ray.pipelines.oracle import sitemap_seed_urls

        urls = sitemap_seed_urls(args.corpus)
        print(json.dumps({"candidates": len(urls), "urls": urls[:20]}))
        return 0

    if args.cmd == "oracle":
        from spider_ray.pipelines.oracle import run_oracle

        res = run_oracle(args.corpus, num_shards=args.shards)
        print(
            json.dumps(
                {
                    "crawled": len(res["crawl_order"]),
                    "seen": len(res["seen"]),
                    "images": len(res["images"]),
                }
            )
        )
        return 0

    # the remaining commands own a Ray session
    import ray

    if not ray.is_initialized():
        # 1 polars thread per 1-CPU worker (see bench._init_ray); must be
        # set before ray.init so workers inherit it from the raylet
        os.environ.setdefault("POLARS_MAX_THREADS", "1")
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.cmd == "shard-write":
        from spider_ray.stages.shardsink import write_shards

        summary = write_shards(args.images, args.out, layout=args.layout)
        print(
            json.dumps(
                {
                    "ranges": summary.num_rows,
                    "written": int(
                        summary.num_rows
                        - sum(summary["skipped"].to_pylist())
                    ),
                    "skipped": int(sum(summary["skipped"].to_pylist())),
                    "shards": int(sum(summary["n_shards"].to_pylist())),
                    "payload_bytes": int(
                        sum(summary["payload_bytes"].to_pylist())
                    ),
                }
            )
        )
        ray.shutdown()
        return 0

    if args.cmd == "shard-verify":
        from spider_ray.stages.shardsink import verify_shards

        rep = verify_shards(args.out)
        print(json.dumps(rep))
        ray.shutdown()
        return 0 if not rep["mismatches"] else 1

    if args.cmd == "curate-shard":
        from spider_ray.pipelines.imagecorpus import curate_and_shard

        res = curate_and_shard(
            args.images, args.out, resize=args.resize, layout=args.layout
        )
        print(
            json.dumps(
                {
                    "total": res["total"],
                    "kept": res["kept"],
                    "shards": res["shards"],
                    "audit_checked": res["audit"]["shards_checked"],
                }
            )
        )
        ray.shutdown()
        return 0

    from spider_ray.pipelines.crawl import run_crawl

    res = run_crawl(
        args.corpus,
        args.out,
        num_shards=args.shards,
        fetch_concurrency=args.fetch_concurrency,
        max_gens=args.max_gens,
        resume=args.resume,
        sitemap_seeds=args.sitemap_seeds,
        parse_html=args.parse_html,
        hot_hosts=tuple(
            h.strip() for h in args.hot_hosts.split(",") if h.strip()
        ),
    )
    print(json.dumps(res))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
