"""The benchmark workloads.

Each workload builds its inputs (``prepare``, before Ray starts and outside
``setup_s``), computes its correctness reference and warms up (``setup``),
runs one timed operation (``op``) and checks it (``check``). ``layers``
turns one traced operation into per-layer numbers.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

from perfbench import inputs

# Every actor is a process spawn (~1.5 s on one core) and a crawl starts a
# fresh fleet, so at one core the crawls use 2 shards and 1 fetch actor
# rather than 8 x 8: a 600-page crawl took ~21 s at 4 x 2 and ~6 s at 2 x 1.
NUM_SHARDS = 2
FETCH_ACTORS = 1

# pages per corpus: one crawl is ~6-8 s here, so a run holds one or two
PAGES = {"crawl_parse": 600, "crawl_links": 400}

CRAWL_PARAMS = {
    # flagship parse mode: HTML link extraction + image decode/phash
    "crawl_parse": dict(n_hosts=24, images_per_page=2, html_bodies=True),
    # link-heavy table mode: normalize / admit / run_wave / routing
    "crawl_links": dict(n_hosts=8, images_per_page=1, outlinks_per_page=32),
}


def _digest(rows) -> str:
    return hashlib.sha1(repr(rows).encode()).hexdigest()


def _gens(out: str) -> list[str]:
    """A crawl output's ``gen=<n>`` directories, in generation order."""
    return sorted(
        (d for d in os.listdir(out) if d.startswith("gen=")),
        key=lambda d: int(d.split("=")[1]),
    )


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


class Crawl:
    """``run_crawl`` to exhaustion; checked against ``run_oracle``."""

    def __init__(self, name: str, work_dir: str, seed: int, toy: bool):
        self.name = name
        self.work_dir = work_dir
        self.seed = seed
        self.pages = 60 if toy else PAGES[name]
        self.parse_html = name == "crawl_parse"

    def prepare(self) -> float:
        params = CRAWL_PARAMS[self.name]
        self.corpus, gen_s = inputs.web_corpus(
            self.work_dir, self.seed, n_pages=self.pages, **params
        )
        return gen_s

    def _crawl(self, out_dir: str):
        from spider_ray.pipelines.crawl import run_crawl

        return run_crawl(
            self.corpus, out_dir, num_shards=NUM_SHARDS,
            fetch_concurrency=FETCH_ACTORS, parse_html=self.parse_html,
        )

    def _oracle(self):
        from spider_ray.pipelines.oracle import run_oracle

        return run_oracle(self.corpus, num_shards=NUM_SHARDS)

    def setup(self, run_dir: str) -> None:
        gold = self._oracle()
        self.gold = (
            _digest([(r["url"], r["fetch_ts"], r["status"], r["gen"])
                     for r in gold["crawl_order"]]),
            _digest([(int(r["url_hash"]), r["url"], r["first_gen"])
                     for r in gold["seen"]]),
            _digest(sorted((r["image_id"], r["bytes"], int(r["phash"]))
                           for r in gold["images"])),
        )
        # the first crawl of a session is ~2x slower (actor classes are
        # exported, Ray Data and the task workers start): untimed warm-up
        warm = self.op(run_dir, -1)
        if not self.check(warm):
            raise RuntimeError("warm-up crawl does not match the oracle")
        self.cleanup(warm)

    def op(self, run_dir: str, i: int) -> dict:
        out = os.path.join(run_dir, f"crawl-{i}")
        t0 = time.time()
        res = self._crawl(out)
        wall = time.time() - t0
        first_gen = os.stat(os.path.join(out, "gen=0", "_DONE")).st_mtime - t0
        return {"wall": wall, "items": res["total_fetched"],
                "first_gen_s": first_gen, "out": out}

    def check(self, res: dict) -> bool:
        import pyarrow as pa
        import pyarrow.parquet as pq

        from spider_ray.pipelines.crawl import read_sink

        out = res["out"]
        gens = _gens(out)
        status = pa.concat_tables(
            [read_sink(os.path.join(out, g), "status") for g in gens]
        )
        images = pa.concat_tables(
            [read_sink(os.path.join(out, g), "images") for g in gens]
        )
        seen = pq.read_table(os.path.join(out, "seen.parquet"))
        got = (
            _digest(list(zip(*(status[c].to_pylist()
                               for c in ("url", "fetch_ts", "status", "gen"))))),
            _digest(list(zip(*(seen[c].to_pylist()
                               for c in ("url_hash", "url", "first_gen"))))),
            _digest(sorted(zip(*(images[c].to_pylist()
                                 for c in ("image_id", "bytes", "phash"))))),
        )
        return got == self.gold and res["items"] == status.num_rows

    def cleanup(self, res: dict | None) -> None:
        if res is not None:
            shutil.rmtree(res["out"], ignore_errors=True)

    def baseline(self) -> float:
        t0 = time.perf_counter()
        self._oracle()
        return time.perf_counter() - t0

    def layers(self, res: dict) -> dict:
        """Counts from each generation's ``metrics.parquet`` and bytes on disk."""
        import pyarrow.parquet as pq

        out = res["out"]
        gens = _gens(out)
        rows = [
            pq.read_table(os.path.join(out, g, "metrics.parquet")).to_pylist()
            for g in gens
        ]
        cand = sum(r["candidates"] for g in rows for r in g)
        hits = sum(r["dedup_hits"] for g in rows for r in g)
        # fetched_total / http_2xx are per generation, repeated on each shard row
        fetched = sum(g[0]["fetched_total"] for g in rows)
        ckpt = sum(_tree_bytes(os.path.join(out, g, "ckpt")) for g in gens)
        return {
            "scheduler.candidates": cand,
            "scheduler.dedup_hits": hits,
            "scheduler.admit_ratio": (cand - hits) / cand,
            "scheduler.permits": sum(r["scheduled"] for g in rows for r in g),
            "state.seen_size": sum(r["seen_size"] for r in rows[-1]),
            "state.cuckoo_add_failures": sum(
                r["cuckoo_add_failures"] for r in rows[-1]
            ),
            "fetchsim.ok_ratio": sum(g[0]["http_2xx"] for g in rows) / fetched,
            "crawl.gens": len(gens),
            "crawl.sink_bytes": _tree_bytes(out) - ckpt,
            "crawl.checkpoint_bytes": ckpt,
            "crawl.first_gen_s": res["first_gen_s"],
        }


class Frontier:
    """``run_frontier_bench`` at ``scaling_parallelism`` chunking; checked
    against a single-process run of the same per-batch stages. Its URLs are
    a pure function of the row id, so the seed cannot vary them."""

    def __init__(self, name: str, work_dir: str, seed: int, toy: bool):
        self.name = name
        # ~2 s per job at one core, so a run's median is over several jobs
        self.n_urls = 375_000 if toy else 750_000

    def prepare(self) -> float:
        return 0.0

    def setup(self, run_dir: str) -> None:
        import numpy as np
        import polars as pl

        from spider_ray.pipelines import frontier_bench as fb

        t0 = time.perf_counter()
        parts = [
            fb._frontier_stage(
                fb._derive_urls({"id": np.arange(lo, min(lo + fb.SCALING_CHUNK, self.n_urls))}),
                64,
            )
            for lo in range(0, self.n_urls, fb.SCALING_CHUNK)
        ]
        self.gold = (
            pl.concat([pl.from_arrow(p) for p in parts])
            .group_by("shard").agg(pl.col("n").sum()).sort("shard").rows()
        )
        self.single_process_s = time.perf_counter() - t0
        # the first job of a session runs ~2x slower (task workers start,
        # arrow pools fill): untimed warm-up of the same job
        warm = self.op(run_dir, -1)
        if not self.check(warm):
            raise RuntimeError("warm-up frontier job does not match the reference")

    def op(self, run_dir: str, i: int) -> dict:
        from spider_ray.pipelines.frontier_bench import (
            run_frontier_bench,
            scaling_parallelism,
        )

        t0 = time.perf_counter()
        res = run_frontier_bench(
            self.n_urls, parallelism=scaling_parallelism(self.n_urls)
        )
        return {"wall": time.perf_counter() - t0, "items": res["n_urls"],
                "totals": res["shard_totals"]}

    def check(self, res: dict) -> bool:
        return [tuple(r) for r in res["totals"]] == [tuple(r) for r in self.gold]

    def cleanup(self, res: dict | None) -> None:
        pass

    def baseline(self) -> float:
        return self.single_process_s

    def layers(self, res: dict) -> dict:
        return {}


# query name -> callable(sf_dir, corpus); the functions behind the
# same-named ``__ray_entry__.queries()`` entries, called with the seeded
# inputs (the entry wrappers read fixed corpora under /tmp)
def _queries():
    from spider_ray.functions import cssenrich, dedup, htmlextract, imagecurate
    from spider_ray.functions import imageshard, loganalysis, similarity
    from spider_ray.sources.lance_io import resolve_images

    def images(corpus):
        return resolve_images(os.path.join(corpus, "images"))

    return {
        "exact_dedup": lambda sf, c: dedup.q_exact_dedup(sf),
        "semantic_dedup": lambda sf, c: similarity.q_semantic_dedup(sf),
        "session_merge": lambda sf, c: loganalysis.q_session_merge(sf),
        "image_curate": lambda sf, c: imagecurate.q_image_curate(images(c)),
        "bucket_shard_pack": lambda sf, c: imageshard.q_bucket_shard_pack(images(c)),
        "html_outlinks": lambda sf, c: htmlextract.q_html_outlinks(c),
        "css_enrich": lambda sf, c: cssenrich.q_css_enrich(c),
    }


# one query per functions/ module; link_rank and redirect_resolve
# (functions/webgraph.py, 5-12 s each at one core) and minhash_lsh_pairs
# (approximate: LSH misses some pairs of the exact SQL twin on these
# inputs) are left out
QUERY_NAMES = [
    "exact_dedup", "semantic_dedup", "session_merge", "image_curate",
    "bucket_shard_pack", "html_outlinks", "css_enrich",
]


def _norm(df):
    """Order-insensitive, column-order-insensitive frame (as the repo's
    strict oracle tool compares)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object and len(df):
            df[c] = df[c].map(lambda v: bytes(v) if isinstance(v, bytearray) else v)
    return df.sort_values(by=list(df.columns), ignore_index=True)


class Queries:
    """One pass over seven query functions; each result checked against its
    ``__ray_entry__.oracle_sql()`` DuckDB twin."""

    def __init__(self, name: str, work_dir: str, seed: int, toy: bool):
        self.name = name
        self.work_dir = work_dir
        self.seed = seed
        self.toy = toy

    def prepare(self) -> float:
        t0 = time.perf_counter()
        # at one core each query is mostly fixed Ray Data cost: 4x the
        # input rows moved a pass by less than the run-to-run noise
        n = 1 if self.toy else 2
        self.corpus, _ = inputs.web_corpus(
            self.work_dir, self.seed, n_pages=150 * n, n_hosts=12, html_bodies=True
        )
        self.sf, _ = inputs.sf_tables(
            self.work_dir, self.seed, docs=500 * n, vecs=500 * n, events=5_000 * n
        )
        self.sql = self._oracle_sql()
        return time.perf_counter() - t0

    def _oracle_sql(self) -> dict:
        """``oracle_sql()`` with its demo corpora kept in the work dir: the
        image/HTML corpus the seven queries read is the seeded one, the rest
        are built once under ``<work>/entry``."""
        import __ray_entry__ as E

        own = {"/tmp/spider_ray_phash_corpus", "/tmp/spider_ray_css_corpus_v2"}
        build_once = E._build_once

        def local_build_once(path, done_name, build):
            if path in own:
                return self.corpus
            local = os.path.join(self.work_dir, "entry", os.path.basename(path))
            os.makedirs(os.path.dirname(local), exist_ok=True)
            return build_once(local, done_name, build)

        E._build_once = local_build_once
        try:
            sql = E.oracle_sql()
        finally:
            E._build_once = build_once
        return {q: sql[q] for q in QUERY_NAMES}

    def setup(self, run_dir: str) -> None:
        import duckdb

        self.fns = _queries()
        con = duckdb.connect()
        for t in ("documents", "embeddings", "events"):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{self.sf}/{t}.parquet'")
        t0 = time.perf_counter()
        self.gold = {q: _norm(con.sql(self.sql[q]).df()) for q in QUERY_NAMES}
        self.single_process_s = time.perf_counter() - t0
        con.close()
        # first pass is cold (parquet readers, actor pools): untimed
        self.op(run_dir, -1)

    def op(self, run_dir: str, i: int) -> dict:
        results, times = {}, {}
        t_all = time.perf_counter()
        for q in QUERY_NAMES:
            t0 = time.perf_counter()
            res = self.fns[q](self.sf, self.corpus)
            results[q] = res if hasattr(res, "num_rows") else res.to_arrow()
            times[q] = time.perf_counter() - t0
        return {"wall": time.perf_counter() - t_all, "items": len(QUERY_NAMES),
                "results": results, "query_s": times}

    def check(self, res: dict) -> bool:
        import pandas as pd

        for q, table in res["results"].items():
            ours, gold = _norm(table.to_pandas()), self.gold[q]
            if list(ours.columns) != list(gold.columns) or len(ours) != len(gold):
                return False
            try:
                pd.testing.assert_frame_equal(
                    ours, gold, check_dtype=False, check_exact=False,
                    rtol=1e-9, atol=1e-9,
                )
            except AssertionError:
                return False
        return True

    def cleanup(self, res: dict | None) -> None:
        pass

    def baseline(self) -> float:
        return self.single_process_s

    def layers(self, res: dict) -> dict:
        return {f"query.{q}_s": s for q, s in res["query_s"].items()}


WORKLOADS = {
    "crawl_parse": Crawl,
    "crawl_links": Crawl,
    "frontier_canon": Frontier,
    "corpus_queries": Queries,
}
