"""WARC source (round 4): record round-trip, gzip handling, distributed
read, and the ingest→extract chain's oracle parity fixture."""

import gzip
import os

import pyarrow as pa
import pytest

from spider_ray.sources.warc import (
    RESPONSE_SCHEMA,
    parse_warc_bytes,
    read_warc,
    write_warc,
)

RECS = [
    {"url": "http://a.example.com/p/1", "status": 200,
     "content_type": "text/html; charset=utf-8",
     "body": b"<html><a href='/p/2'>x</a></html>"},
    {"url": "http://a.example.com/p/2", "status": 404,
     "content_type": "text/html; charset=utf-8", "body": b""},
    {"url": "http://b.example.com/img.png", "status": 200,
     "content_type": "image/png", "body": b"\x89PNG\r\n\x1a\nxxxx"},
]


def test_warc_roundtrip(tmp_path):
    p = write_warc(str(tmp_path / "a.warc"), RECS)
    with open(p, "rb") as f:
        t = parse_warc_bytes(f.read())
    assert t.schema.equals(RESPONSE_SCHEMA)
    got = t.to_pylist()
    assert [(r["url"], r["status"], r["body"]) for r in got] == [
        (r["url"], r["status"], bytes(r["body"])) for r in RECS
    ]
    # content-type of the HTTP envelope survives
    assert got[2]["content_type"] == "image/png"


def test_warc_gzip_and_multimember(tmp_path):
    p = write_warc(str(tmp_path / "a.warc.gz"), RECS)
    with open(p, "rb") as f:
        data = f.read()
    assert data[:2] == b"\x1f\x8b"
    t = parse_warc_bytes(data)
    assert t.num_rows == 3
    # record-level gzip members concatenated (the common real layout)
    m1 = gzip.compress(open(write_warc(str(tmp_path / "m1.warc"), RECS[:1]), "rb").read())
    m2 = gzip.compress(open(write_warc(str(tmp_path / "m2.warc"), RECS[1:]), "rb").read())
    t2 = parse_warc_bytes(m1 + m2)
    assert t2.num_rows == 3


def test_warc_rejects_garbage():
    with pytest.raises(ValueError, match="not a WARC record"):
        parse_warc_bytes(b"HTTP/1.1 200 OK\r\n\r\n")


def test_read_warc_distributed(ray_session, tmp_path):
    for i in range(3):
        write_warc(str(tmp_path / f"p{i}.warc.gz"), RECS)
    ds = read_warc([str(tmp_path / f"p{i}.warc.gz") for i in range(3)])
    t = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    assert t.num_rows == 9
    assert set(t["status"].to_pylist()) == {200, 404}


def test_warc_ingest_matches_table(ray_session):
    """The full chain: html-bodied corpus → .warc.gz files → distributed
    parse → extract_links == the corpus's own outlink table for
    200-status pages."""
    import polars as pl
    import pyarrow.parquet as pq

    from spider_ray.functions.htmlextract import (
        build_warc_store,
        q_warc_outlinks,
    )
    from spider_ray.sources.webgen import generate

    corpus = "/tmp/spider_ray_warc_corpus"
    if not os.path.exists(os.path.join(corpus, "_DONE_WARC")):
        generate(corpus, n_pages=800, n_hosts=12, seed=77, html_bodies=True)
        open(os.path.join(corpus, "_DONE_WARC"), "w").close()
    store = "/tmp/spider_ray_warc_store"
    if not os.path.exists(os.path.join(store, "_DONE_WARCSTORE")):
        build_warc_store(corpus, store)
        open(os.path.join(store, "_DONE_WARCSTORE"), "w").close()
    got = pl.from_arrow(q_warc_outlinks(store))
    wg = pl.from_arrow(
        pq.read_table(
            os.path.join(corpus, "web_graph.parquet"),
            columns=["url", "status_code", "outlinks"],
        )
    )
    want = (
        wg.filter(pl.col("status_code") == 200)
        .explode("outlinks", empty_as_null=True)
        .drop_nulls("outlinks")
        .select(
            "url",
            anchor_url=pl.col("outlinks").struct.field("url"),
            anchor_text=pl.col("outlinks").struct.field("anchor"),
        )
        .sort(["url", "anchor_url"])
    )
    assert got.equals(want)


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(
    bodies=st.lists(
        st.binary(min_size=0, max_size=200), min_size=1, max_size=6
    ),
    statuses=st.lists(
        st.sampled_from([200, 301, 404, 500]), min_size=6, max_size=6
    ),
)
def test_warc_roundtrip_hostile_bodies(bodies, statuses, tmp_path_factory):
    """Bodies are length-delimited: payloads containing CRLF runs, the
    WARC/1.0 magic, or HTTP-looking bytes must round-trip byte-exactly."""
    hostile = [b"\r\n\r\nWARC/1.0\r\n", b"HTTP/1.1 200 OK\r\n\r\n"]
    recs = [
        {
            "url": f"http://h.example.com/p/{i}",
            "status": statuses[i % len(statuses)],
            "content_type": "text/html",
            "body": b + hostile[i % 2],
        }
        for i, b in enumerate(bodies)
    ]
    d = tmp_path_factory.mktemp("warcprop")
    p = write_warc(str(d / "x.warc.gz"), recs)
    with open(p, "rb") as f:
        t = parse_warc_bytes(f.read())
    assert [
        (r["url"], r["status"], bytes(r["body"])) for r in t.to_pylist()
    ] == [(r["url"], r["status"], r["body"]) for r in recs]


def test_warc_malformed_status_degrades_to_zero(tmp_path):
    """A non-decimal HTTP status (incl. Unicode digits isdigit() accepts
    but int() rejects) must yield status=0, never kill the archive."""
    p = write_warc(str(tmp_path / "x.warc"), RECS[:1])
    data = open(p, "rb").read().replace(b"HTTP/1.1 200 OK", "HTTP/1.1 ² OK".encode())
    t = parse_warc_bytes(data)
    assert t["status"].to_pylist() == [0]
