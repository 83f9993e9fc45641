"""Real-HTML link extraction (round 4): kernel edge rules, the
render→extract round-trip queries, and the opt-in parse_html crawl mode's
byte-equality with table-lookup mode."""

import glob
import os
import shutil

import pytest

from spider_ray.kernels.domtext import (
    MAX_LINK_BYTES,
    MAX_PARSE_BYTES,
    MAX_TITLE_BYTES,
    extract_links,
)


def test_extract_links_reference_rules():
    """The css_fetcher_main.cc rule set: first-wins dedup per kind,
    relative resolution, scheme/fragment/oversize drops, nofollow NOT
    filtered (live-code behavior), title byte cap + line escape."""
    long_url = "http://h.example.com/" + "q" * (MAX_LINK_BYTES + 10)
    html = f"""
    <html><head><title>  Tést
title\ttab </title><title>second ignored</title>
    <link rel="stylesheet" href="/a.css">
    <link rel="stylesheet" href="/a.css">
    <link rel="icon" href="/fav.ico">
    </head><body>
    <a href="/p/1">first</a>
    <a href="http://h.example.com/p/1">dup of first</a>
    <a href="/p/2" rel="nofollow">nofollow kept</a>
    <a href="#frag">frag</a>
    <a href="mailto:x@y">mail</a>
    <a href="javascript:void(0)">js</a>
    <a href="{long_url}">long</a>
    <a href="/p/3#sec">frag stripped</a>
    <a>no href</a>
    <img src="/i/1.png" alt="one">
    <img src="/i/1.png" alt="dup dropped">
    <img alt="no src">
    </body></html>
    """
    out = extract_links(html.encode(), "http://h.example.com/p/0")
    assert out["anchors"] == [
        ("http://h.example.com/p/1", "first"),
        ("http://h.example.com/p/2", "nofollow kept"),
        ("http://h.example.com/p/3", "frag stripped"),
    ]
    assert out["images"] == [("http://h.example.com/i/1.png", "one")]
    assert out["css"] == ["http://h.example.com/a.css"]
    # first <title> only, trimmed, newline/tab line-escaped
    assert out["title"] == "Tést\\ntitle\\ttab"


def test_extract_links_truncation_caps():
    # 1 MB parse truncation: an anchor fully past the cap is not seen
    filler = "x" * MAX_PARSE_BYTES
    html = f"<html><body><a href='/kept'>k</a>{filler}<a href='/lost'>l</a></body></html>"
    out = extract_links(html, "http://h.example.com/")
    assert [u for u, _ in out["anchors"]] == ["http://h.example.com/kept"]
    # title cap is BYTES, not chars (multibyte-safe truncation)
    big_title = "é" * MAX_TITLE_BYTES
    out2 = extract_links(
        f"<title>{big_title}</title>", "http://h.example.com/"
    )
    assert len(out2["title"].encode()) <= MAX_TITLE_BYTES
    assert set(out2["title"]) == {"é"}


def test_render_roundtrip_sample():
    """extract_links(render_html(row)) == row on webgen rows — the exact
    invariant the SQL oracles of html_outlinks/html_page_stats check at
    corpus scale."""
    import pyarrow.parquet as pq

    from spider_ray.sources.webgen import generate, render_html

    corpus = "/tmp/spider_ray_phash_corpus"
    if not os.path.exists(os.path.join(corpus, "_DONE")):
        generate(corpus, n_pages=2000, n_hosts=24, seed=42)
    rows = pq.read_table(
        os.path.join(corpus, "web_graph.parquet")
    ).to_pylist()[::17]
    for r in rows:
        html = render_html(r["url"], r["host"], r["outlinks"], r["image_refs"])
        p = extract_links(html.encode(), r["url"])
        assert p["anchors"] == [(o["url"], o["anchor"]) for o in r["outlinks"]]
        seen, want = set(), []
        for ref in r["image_refs"]:
            if ref["image_id"] not in seen:
                seen.add(ref["image_id"])
                want.append((ref["image_id"], ref["alt"]))
        assert p["images"] == want


def _sink_bytes(out_dir: str) -> dict[str, bytes]:
    # metrics.parquet is compared semantically (driver_rss_kb is
    # environmental, not a crawl output)
    out = {}
    for f in sorted(
        glob.glob(os.path.join(out_dir, "gen=*", "*.parquet"))
    ):
        if os.path.basename(f) == "metrics.parquet":
            continue
        with open(f, "rb") as fh:
            out[os.path.relpath(f, out_dir)] = fh.read()
    return out


def _metrics_rows(out_dir: str) -> list[dict]:
    import pyarrow.parquet as pq

    from spider_ray.pipelines.crawl import PHASE_COLUMNS

    rows = []
    for f in sorted(glob.glob(os.path.join(out_dir, "gen=*", "metrics.parquet"))):
        for r in pq.read_table(f).to_pylist():
            # measurements of the run itself, not of the crawl
            for k in ("driver_rss_kb", "fleet_ready_s", "fleet_spawned",
                      *PHASE_COLUMNS, "gen_wall_s", "overlap_s"):
                r.pop(k, None)
            rows.append(r)
    return rows


def test_parse_html_crawl_mode_byte_equal(ray_session):
    """run_crawl(parse_html=True) over a corpus with real HTML bodies
    produces BYTE-EQUAL per-gen sinks to table-lookup mode — the parse
    kernel is a drop-in for the table semantics (VERDICT r3 task #5)."""
    from spider_ray.pipelines.crawl import run_crawl
    from spider_ray.sources.webgen import generate

    corpus = "/tmp/spider_ray_htmlmode_corpus"
    if not os.path.exists(os.path.join(corpus, "html_pages.parquet")):
        shutil.rmtree(corpus, ignore_errors=True)
        generate(corpus, n_pages=250, n_hosts=8, seed=9, html_bodies=True)
        open(os.path.join(corpus, "_DONE"), "w").close()
    out_t = "/tmp/spider_ray_htmlmode_table"
    out_p = "/tmp/spider_ray_htmlmode_parse"
    for d in (out_t, out_p):
        shutil.rmtree(d, ignore_errors=True)
    rt = run_crawl(corpus, out_t, num_shards=2, fetch_concurrency=2)
    rp = run_crawl(
        corpus, out_p, num_shards=2, fetch_concurrency=2, parse_html=True
    )
    assert rt["total_fetched"] == rp["total_fetched"] > 0
    bt, bp = _sink_bytes(out_t), _sink_bytes(out_p)
    assert set(bt) == set(bp)
    for k in bt:
        assert bt[k] == bp[k], f"sink {k} differs between modes"
    assert _metrics_rows(out_t) == _metrics_rows(out_p)


def test_parse_html_requires_bodies(ray_session):
    from spider_ray.pipelines.oracle import load_corpus

    with pytest.raises(FileNotFoundError, match="html_pages"):
        load_corpus("/tmp/spider_ray_phash_corpus", parse_html=True)


def test_css_enrich_join_shape(ray_session):
    """J5's css half: every page gets exactly its 2 stylesheets merged
    back (site.css + its seq-family variant), each distinct css body
    fetched once and shared across referencing pages."""
    import os

    import polars as pl

    from spider_ray.functions.cssenrich import q_css_enrich

    # share the entry module's atomically-built corpus (marker
    # protocol) instead of hand-building the same path next to it
    import __ray_entry__ as E

    corpus = E._css_corpus()
    out = pl.from_arrow(q_css_enrich(corpus))
    per_page = out.group_by("url").len()
    assert (per_page["len"] == 2).all()
    # body is a pure function of css_url: one digest per distinct url
    assert (
        out.group_by("css_url")
        .agg(pl.col("css_hash").n_unique())["css_hash"]
        .max()
        == 1
    )
    # the digest really is the frozen polyhash of the stored body (and
    # css_len its byte length) — q_css_enrich never touched a fake value
    import pyarrow.parquet as pq

    from spider_ray.functions.cssenrich import body_digest

    store = pq.read_table(os.path.join(corpus, "css_files.parquet"))
    lens, hashes = body_digest(store["body"])
    want = dict(
        zip(
            store["css_url"].to_pylist(),
            zip(lens.to_pylist(), hashes.to_pylist()),
        )
    )
    got = out.select(["css_url", "css_len", "css_hash"]).unique()
    for row in got.iter_rows(named=True):
        assert (row["css_len"], row["css_hash"]) == want[row["css_url"]]
    # family stylesheet matches the page's trailing-seq mod 4
    fam = out.filter(pl.col("css_url").str.contains("/static/v"))
    assert (
        fam["css_url"].str.extract(r"v(\d)\.css").cast(pl.Int64)
        == fam["url"].str.extract(r"(\d+)$").cast(pl.Int64) % 4
    ).all()


from hypothesis import given, settings, strategies as st

_path = st.text(
    alphabet="abcdefghij0123456789", min_size=1, max_size=12
)


@settings(max_examples=60, deadline=None)
@given(paths=st.lists(_path, min_size=0, max_size=10))
def test_extract_links_first_wins_dedup_property(paths):
    """For any href sequence, extracted anchors are exactly the resolved
    urls in first-occurrence order with first anchor text kept."""
    base = "http://h.example.com/p/0"
    html = "".join(
        f'<a href="/{p}">t{i}</a>' for i, p in enumerate(paths)
    )
    out = extract_links(html, base)
    seen, want = set(), []
    for i, p in enumerate(paths):
        u = f"http://h.example.com/{p}"
        if u not in seen:
            seen.add(u)
            want.append((u, f"t{i}"))
    assert out["anchors"] == want


def test_title_cap_is_linear_on_huge_title():
    """Byte-cap truncation is one encode+slice — a title near the parse
    cap must be handled in well under a second, not O(n^2)."""
    import time

    big = "<title>" + "é" * 400_000 + "</title>"
    t0 = time.time()
    out = extract_links(big, "http://h.example.com/")
    assert time.time() - t0 < 2.0
    assert len(out["title"].encode()) <= MAX_TITLE_BYTES
