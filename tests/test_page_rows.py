"""``oracle._page_rows`` builds the page dicts of the simulated web column
by column. Each must hold what the rows of ``Table.to_pylist`` gave
``fetch_one``: the scalar columns, the outlink URLs and the
``(image_id, alt)`` pairs, a null list reading as empty."""

import pyarrow as pa
import pyarrow.parquet as pq

from spider_ray.pipelines.oracle import _page_rows
from spider_ray.sources.webgen import generate

OUTLINK = pa.struct([("url", pa.string()), ("anchor", pa.string())])
IMAGE_REF = pa.struct([("image_id", pa.string()), ("alt", pa.string())])
SCHEMA = pa.schema([
    ("url", pa.string()),
    ("status_code", pa.int16()),
    ("redirect_to", pa.string()),
    ("outlinks", pa.list_(OUTLINK)),
    ("image_refs", pa.list_(IMAGE_REF)),
    ("latency_us", pa.int32()),
])


def _fetch_fields(row: dict) -> dict:
    """What ``fetch_one`` and ``WebIndex.meta`` read of a ``to_pylist``
    row, in ``_page_rows``' shape."""
    return {
        **row,
        "outlinks": [o["url"] for o in row["outlinks"] or []],
        "image_refs": [
            (r["image_id"], r["alt"]) for r in row["image_refs"] or []
        ],
    }


def _rows(i: int, n: int) -> list[dict]:
    """n page rows; null, empty and non-empty lists in turn."""
    out = []
    for k in range(i, i + n):
        links = [None, [], [{"url": f"http://h/{k}/{j}", "anchor": f"a{j}"}
                            for j in range(k % 4)]][k % 3]
        images = [[], None, [{"image_id": f"http://h/i{k}.png",
                              "alt": None if k % 2 else f"alt {k}"}]][k % 3]
        out.append({
            "url": f"http://h/{k}",
            "status_code": 301 if k % 5 == 0 else 200,
            "redirect_to": f"http://h/{k + 1}" if k % 5 == 0 else None,
            "outlinks": links,
            "image_refs": images,
            "latency_us": 1000 + k,
        })
    return out


def test_page_rows_match_pylist_rows_over_chunks():
    # three record batches: every list column arrives in three chunks,
    # the middle one a slice (non-zero offset into its list values)
    big = pa.Table.from_pylist(_rows(0, 20), schema=SCHEMA)
    t = pa.Table.from_batches(
        pa.Table.from_pylist(_rows(0, 7), schema=SCHEMA).to_batches()
        + big.slice(7, 6).to_batches()
        + pa.Table.from_pylist(_rows(13, 7), schema=SCHEMA).to_batches()
    )
    assert t["outlinks"].num_chunks == 3
    want = [_fetch_fields(r) for r in t.to_pylist()]
    assert _page_rows(t) == want
    assert any(r["outlinks"] == [] for r in want)
    assert any(len(r["image_refs"]) == 1 for r in want)
    assert _page_rows(t.slice(0, 0)) == []


def test_page_rows_match_pylist_rows_on_corpus(tmp_path):
    corpus = str(tmp_path / "corpus")
    generate(corpus, n_pages=80, n_hosts=4, seed=21, outlinks_per_page=8)
    wg = pq.read_table(f"{corpus}/web_graph.parquet")
    assert _page_rows(wg) == [_fetch_fields(r) for r in wg.to_pylist()]
