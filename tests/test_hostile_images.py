"""Hostile images never fail a crawl: an image whose stored bytes do not
decode is skipped by the engine and the oracle alike and counted in each
generation's ``images_failed`` metrics column, and a large valid image
with the slowest filter still decodes."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from spider_ray.pipelines.oracle import run_oracle
from spider_ray.sources.webgen import generate
from tests.test_crawl_parity import _engine_rows
from tests.test_imaging import _hostile_images, _png_with_filters

HOSTILE = ("truncated png", "png without IHDR", "zeroed qimg header",
           "20000 x 20000 png over a small IDAT",
           "qimg payload of the wrong length")


@pytest.fixture(scope="module")
def hostile_corpus(tmp_path_factory):
    """A 60-page corpus whose first six images the crawl keeps are replaced
    by the five ``HOSTILE`` images and a valid 256 x 256 all-Paeth PNG."""
    d = str(tmp_path_factory.mktemp("hostile_images"))
    generate(d, n_pages=60, n_hosts=4, seed=23)
    kept = [r["image_id"] for r in run_oracle(d, num_shards=2)["images"]]
    assert len(kept) >= 6
    rng = np.random.RandomState(0)
    paeth = rng.randint(0, 256, size=(256, 256, 3)).astype(np.uint8)
    bad = _hostile_images()
    new = {i: (*bad[name], 1, 1) for i, name in zip(kept, HOSTILE)}
    new[kept[5]] = (_png_with_filters(paeth, [4] * 256), "png", 256, 256)
    path = os.path.join(d, "images.parquet")
    t = pq.read_table(path)
    rows = t.to_pylist()
    for r in rows:
        if r["image_id"] in new:
            r["bytes"], r["fmt"], r["w"], r["h"] = new[r["image_id"]]
    pq.write_table(pa.Table.from_pylist(rows, schema=t.schema), path)
    return d, kept[5]


def test_hostile_images_crawl_matches_oracle(hostile_corpus, ray_session):
    from spider_ray.pipelines.crawl import run_crawl

    corpus, paeth_id = hostile_corpus
    gold = run_oracle(corpus, num_shards=2)
    out = corpus + "_crawl"
    shutil.rmtree(out, ignore_errors=True)
    res = run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)

    eng = _engine_rows(out, "status.parquet")
    assert res["total_fetched"] == len(eng) == len(gold["crawl_order"])
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    assert pq.read_table(os.path.join(out, "seen.parquet")).to_pylist() == (
        gold["seen"]
    )
    images = _engine_rows(out, "images.parquet")
    assert images == gold["images"]
    paeth = [r for r in images if r["image_id"] == paeth_id]
    assert [(r["w"], r["h"], r["dims_ok"]) for r in paeth] == [(256, 256, True)]

    failed = {(m["gen"], m["shard"]): m["images_failed"]
              for m in _engine_rows(out, "metrics.parquet")}
    assert failed == {(m["gen"], m["shard"]): m["images_failed"]
                      for m in gold["metrics"]}
    # each generation's count is repeated on its shard rows
    assert sum(n for (g, s), n in failed.items() if s == 0) == len(HOSTILE)
