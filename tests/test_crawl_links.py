"""The crawl-path link extractor ``domtext.crawl_links`` against the
reference ``extract_links`` (html.parser), on hostile HTML.

* ``<![`` is an HTML5 bogus comment ending at the first ``>`` for both
  extractors and for ``extract_main_content``, well-formed CDATA and
  conditional sections included (``html.parser`` itself runs those to
  ``]]>`` / ``]>`` and raises ``AssertionError`` on an unknown keyword).
* Differential hypothesis tests: ``crawl_links`` returns
  ``extract_links``' anchor URLs and images on random token soup built
  from the hostile fragments below, and the resolver's urljoin fast path
  (which both extractors use) equals ``_resolve`` on random hrefs and
  bases and on every raw href of those pages. Both run against this
  interpreter's ``html.parser``, so a tokenizer change in a new Python
  fails here.
* A hostile-corpus crawl: a small ``webgen`` corpus whose
  ``html_pages.parquet`` bodies are rewritten with the fragments below
  (truncated tags, unterminated quotes, invalid UTF-8 under a lying
  ``<meta charset>``, bodies over ``MAX_PARSE_BYTES``, URL-shaped garbage,
  nested and unclosed anchors, anchors hidden in comments / raw text /
  attribute values / marked sections, ``ſ`` and the Kelvin sign in tag
  names).
  Its ``web_graph`` outlinks and image refs are set to what
  ``extract_links`` reads from those bodies, so the table-mode
  ``run_oracle`` crawls the reference extractor's graph, and
  ``run_crawl(parse_html=True)`` must match it on crawl order, seen set
  and image bytes/phash.
"""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings, strategies as st

from spider_ray.kernels.domtext import (
    MAX_PARSE_BYTES,
    _parse_window,
    _resolve,
    _resolver,
    _scan_links,
    crawl_links,
    extract_links,
    extract_main_content,
)

BASE = "http://h.example.com/p/q"

# hostile fragments: each one is a construct html.parser tokenizes in some
# unusual way; the token-soup test glues them together at random
FRAGMENTS = [
    # truncated and unclosed tags, unterminated quotes
    '<div class="x', "<p", '<a href="/unterminated', "<img src='/i/open.png",
    "<a href=", "</a", "</", "<", "<!", "<?php echo 1", "<a", "<img",
    # URL-shaped garbage
    '<a href="http://[::1">v6</a>', '<a href="http://[::1]:80/ok">',
    '<a href="http://x.example.com:99999999/p">', '<a href="/a b c">',
    '<a href=" /padded ">', '<a href="/x/../../y/./z">',
    '<a href="HTTP://X.EXAMPLE.COM/UP">', '<a href="HtTpS://x.example.com/m">',
    '<a href="/q?a=1&amp;b=2">', '<a href="/amp&amp">',
    '<a href="//other.example.com/net">', '<a href="javascript:alert(1)">',
    '<a href="#frag">', '<a href="mailto:a@b">', '<a href="http:/x">',
    '<a href="http://x.example.com/%zz\\back">', '<a href="">empty</a>',
    '<a href="/semi;p=1">', '<a href="/x/./y#f">', '<a href="..">',
    # nested and unclosed anchors; last attribute wins
    '<a href="/outer"><a href="/inner">in</a>out</a>',
    '<a href="/open">',
    '<a><a href="/after-bare">', '<a href="/first" href="/last">',
    # anchors html.parser does not see
    '<!-- <a href="/in-comment"> -->', '<!--unterminated <a href="/c2">',
    "<script>var s = \"<a href='/in-script'>\";</script>",
    '<style>a[href="/x"]{} <a href="/in-style"></style>',
    "<div title=\"<a href='/in-attr'>\">",
    '<script><!-- </script><a href="/s2">',
    "<script>", "</script>", "<style>", "</style >", "</SCRIPT>",
    "<script/>", "<style />", "</scrİpt>",
    # marked sections
    '<![CDATA[<a href="/cdata">]]>', '<![bogus[ <a href="/bogus">',
    '<![if !IE]><a href="/ie"><![endif]>', "<![endif]-->", "<![",
    # long s and Kelvin sign in tag names
    '<ſcript><a href="/long-s"></ſcript>',
    '<script>x</ſcript><a href="/ks"></script>', "<s\u212aript>",
    '<a\u212a href="/kelvin">', '<\u212a href="/k">',
    '<ımg src="/dotless.png">', '<İmg src="/dot.png">',
    # case, self-closing, entities in attributes
    '<A HREF="/UPPER">', '<IMG SRC="/I.PNG" ALT="A&lt;B">',
    '<img src="/i/self.png"/>', '<a href="/self"/>', '<img alt="no src">',
    '<img src="/dup.png" alt="one"><img src="/dup.png" alt="two">',
    "<a href='/single' id=x>", "<a href=/bare>", '<a\thref="/tab">',
    '<a\x0bhref="/vt">', '<a\xa0href="/nbsp">', '<a href="/v"\x0b>',
    '<a href = "/spaced" >', '<a href=="/double-eq">', "<a/href=/slash>",
    # a lying charset, doctype, text
    '<meta charset="shift_jis">', "<!DOCTYPE html>", "<!doctype", "<!>",
    "text & more", "&amp;", "&#", "&#x41;", " ", "\n", "\t", "\x00", "é",
    "</div>", "<p>", "<br/>", "</p >", "</ p>", "</>", "<div class=c>",
]
# invalid UTF-8: stray continuation, truncated sequences, an encoded
# surrogate; html is bytes on the crawl path
INVALID_UTF8 = [
    b"\xff", b"\xfe\xff", b"\xc3(", b"\xed\xa0\x80", b"\xf0\x9f", b"\x80",
]
BASES = [
    BASE, "https://H.example.com:8080/a/b/", "http://h.example.com",
    "http://h.example.com/p;params?q=1#f", "ftp://f.example.com/x", "",
    "http://[::1/x", "HTTP://Up.example.com/x", "http:///nohost",
]


def _reference(page, base):
    e = extract_links(page, base)
    return [u for u, _ in e["anchors"]], e["images"]


def _check_resolver(page, base):
    """Both extractors resolve through ``_resolver``: it must equal the
    plain urljoin path ``_resolve`` on every raw href and src of the page."""
    hrefs, images = _scan_links(_parse_window(page))
    resolve = _resolver(base)
    for h in hrefs + [src for src, _ in images]:
        assert resolve(h) == _resolve(base, h), (base, h)


# ---------------------------------------------------------------------------
# marked sections


def test_marked_section_is_a_bogus_comment():
    """``<![`` + an unknown keyword ends at the first ``>``; html.parser
    raised ``AssertionError`` and failed the whole page."""
    page = '<![bogus[ <a href="/hidden">x</a><a href="/after">y</a>'
    assert extract_links("<![bogus[ <a href=y>", BASE)["anchors"] == []
    out = extract_links(page, BASE)
    assert out["anchors"] == [("http://h.example.com/after", "y")]
    assert crawl_links(page, BASE) == (["http://h.example.com/after"], [])
    # a well-formed CDATA section is a bogus comment too, as in HTML5: it
    # ends at its first ">", not at "]]>"
    assert crawl_links('<![CDATA[<b>]]><a href="/z">', BASE)[0] == [
        "http://h.example.com/z"
    ]
    cdata = '<![CDATA[ a>b <a href="/x"> ]]>'
    assert extract_links(cdata, BASE)["anchors"] == [
        ("http://h.example.com/x", "]]>")
    ]
    assert crawl_links(cdata, BASE) == (["http://h.example.com/x"], [])
    text = "main article text that the ratio walk keeps " * 3
    title, content = extract_main_content(
        f"<html><head><title>T</title></head><body><![bogus[ x]>"
        f"<p>{text}</p></body></html>"
    )
    assert (title, content) == ("T", text.strip())


# ---------------------------------------------------------------------------
# differential tests


_soup_part = st.one_of(
    st.sampled_from(FRAGMENTS),
    st.sampled_from(INVALID_UTF8),
    st.text(alphabet="<>/=\"' aAimgshrefcptyl!-[]?&#;ſ\u212a\x00\t\n\x0b",
            max_size=8),
)


def _soup_example(*parts: str):
    return example(parts=list(parts), base=BASE, as_text=False)


@settings(max_examples=500, deadline=None)
@_soup_example("<script/>", '<a href="/x">')  # self-closing: no raw text
@_soup_example(
    "<style>", "</ſtyle>", '<a href="/x">', "</style>", "<a href=/y>"
)
@_soup_example('<a href="/x"', "<b>")  # end of input inside a tag
@_soup_example("<!--", '<a href="/x">', "--!>", "<a href=/y>")
@given(
    parts=st.lists(_soup_part, max_size=40),
    base=st.sampled_from(BASES),
    as_text=st.booleans(),
)
def test_crawl_links_equals_extract_links_on_token_soup(parts, base,
                                                        as_text):
    page = b"".join(p if isinstance(p, bytes) else p.encode() for p in parts)
    if as_text:
        page = page.decode("utf-8", "ignore")
    assert crawl_links(page, base) == _reference(page, base)
    _check_resolver(page, base)


_href_part = st.sampled_from([
    "http://", "https://", "HTTP://", "/", "//", ".", "..", "./", "../",
    ":", "?", "#", ";", "[", "]", "\\", " ", "\t", "%", "%zz", "@", "&",
    "x.example.com", ":8080", ":99999999", "p", "é", "~", "-", "_", "=",
    "mailto:", "javascript:", "'", "(", "*", "\x00",
])


def _href_example(href: str, base: str = BASE):
    return example(parts=[href], extra="", base=base, long=False)


@settings(max_examples=600, deadline=None)
@_href_example("http://x.example.com/p?")  # urljoin drops an empty query
@_href_example("http://x.example.com/p?q#")
@_href_example("http://x.example.com/a/../b")
@_href_example("http://x.example.com/a//b")
@_href_example("http://x.example.com")
@_href_example("http:///p")
@_href_example("HTTP://x.example.com/p")
@_href_example("https://x.example.com/p", base="https://h.example.com/")
@_href_example("//x.example.com/p")
@_href_example("/a/./b")
@_href_example("/a/..")
@_href_example("/a//b")
@_href_example("/p;q")
@_href_example("/", base="http://h.example.com")
@_href_example("/p", base="http:///nohost")
@_href_example("/p", base="HTTP://Up.example.com/x")
@_href_example("/p", base="ftp://f.example.com/x")
@given(
    parts=st.lists(_href_part, min_size=1, max_size=10),
    extra=st.text(max_size=4),
    base=st.sampled_from(BASES),
    long=st.booleans(),
)
def test_resolver_fast_path_equals_resolve(parts, extra, base, long):
    href = "".join(parts) + extra
    if long:  # around the 4096-byte URL cap
        href += "q" * (4060 + len(extra))
    assert _resolver(base)(href) == _resolve(base, href)


def test_crawl_links_equals_extract_links_on_webgen_pages(hostile):
    """Both the rendered webgen bodies (the benchmark's pages) and their
    hostile rewrites."""
    for corpus in hostile.values():
        for name in ("html_pages.parquet", "html_pages.orig.parquet"):
            t = pq.read_table(os.path.join(corpus, name))
            for url, body in zip(
                t["url"].to_pylist(), t["body"].to_pylist()
            ):
                assert crawl_links(body, url) == _reference(body, url), url
                _check_resolver(body, url)


# ---------------------------------------------------------------------------
# hostile-corpus crawl

SEEDS = (5, 6)

_LINK_STYLES = [
    '<a href="{h}">{t}</a>',
    "<A HREF='{h}'>{t}",  # unclosed, upper case
    "<a href={h} class=x>{t}</a>",
    '<a id=1 href="/dropped" href="{h}">{t}</a>',  # last attribute wins
    '<a\nhref = "{h}"\n>{t}</a>',
    '<p><a href="{h}"/></p>',
    '<a href="{h}#sec">{t}<a href="{h}">dup</a>',  # nested, fragment
]
_IMG_STYLES = [
    '<img src="{h}" alt="{t}">',
    "<IMG ALT='{t}' SRC='{h}'/>",
    '<img src={h} alt="{t} &amp; more">',
]


def _hostile_body(row: dict, seed: int, big: bool) -> bytes:
    """One page: the row's links in random hostile renderings, with
    hostile fragments and invalid bytes between them. A ``big`` page runs
    past the parse cap, links on both sides of the cut, which falls
    inside a two-byte character half the time."""
    rng = random.Random(f"{seed}:{row['url']}")
    prefix = f"http://{row['host']}"

    def href(url: str) -> str:
        r = rng.random()
        if url.startswith(prefix + "/") and r < 0.5:
            return url[len(prefix):]  # root-relative
        if r < 0.6:
            return "HTTP://" + url[len("http://"):]
        return url

    def noise() -> bytes:
        out = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.2:
                out.append(rng.choice(INVALID_UTF8))
            else:
                out.append(rng.choice(FRAGMENTS).encode())
        return b"".join(out)

    parts = [
        b'<!DOCTYPE html><html><head><meta charset="shift_jis">',
        f"<title>{row['url']}</title></head><body>".encode(),
    ]
    links = [
        rng.choice(_LINK_STYLES).format(h=href(o["url"]), t=o["anchor"])
        for o in row["outlinks"] or []
    ] + [
        rng.choice(_IMG_STYLES).format(h=href(r["image_id"]), t=r["alt"])
        for r in row["image_refs"] or []
    ]
    cut_at = rng.randrange(1, len(links)) if big and len(links) > 1 else None
    for k, link in enumerate(links):
        if k == cut_at:
            size = sum(map(len, parts))
            filler = MAX_PARSE_BYTES - size + rng.randint(0, 1)
            parts.append(
                b"x" * (filler % 2) + "é".encode() * (filler // 2 + 8)
            )
        parts.append(noise())
        parts.append(link.encode())
    parts.append(noise())
    parts.append(b"</body></html>")
    return b"".join(parts)


def _hostile_corpus(out_dir: str, seed: int) -> str:
    """A webgen corpus with hostile bodies. web_graph's outlinks and
    image_refs become what extract_links reads from those bodies."""
    from spider_ray.sources.webgen import generate

    generate(out_dir, n_pages=160, n_hosts=6, seed=seed,
             outlinks_per_page=10, html_bodies=True)
    wg_path = os.path.join(out_dir, "web_graph.parquet")
    html_path = os.path.join(out_dir, "html_pages.parquet")
    wg = pq.read_table(wg_path)
    rows = wg.to_pylist()
    bodies = []
    for i, r in enumerate(rows):
        body = _hostile_body(r, seed, big=i % 40 == 7)
        parsed = extract_links(body, r["url"])
        r["outlinks"] = [{"url": u, "anchor": t} for u, t in parsed["anchors"]]
        r["image_refs"] = [
            {"image_id": u, "alt": a} for u, a in parsed["images"]
        ]
        bodies.append(body)
    os.rename(html_path, os.path.join(out_dir, "html_pages.orig.parquet"))
    pq.write_table(pa.Table.from_pylist(rows, schema=wg.schema), wg_path)
    pq.write_table(
        pa.table({"url": [r["url"] for r in rows],
                  "body": pa.array(bodies, pa.binary())}),
        html_path,
    )
    return out_dir


@pytest.fixture(scope="module")
def hostile(tmp_path_factory):
    return {
        s: _hostile_corpus(str(tmp_path_factory.mktemp(f"hostile{s}")), s)
        for s in SEEDS
    }


def test_hostile_corpus_is_hostile(hostile):
    """The rewrite really plants what the crawl must survive."""
    for corpus in hostile.values():
        t = pq.read_table(os.path.join(corpus, "html_pages.parquet"))
        bodies = t["body"].to_pylist()
        assert any(len(b) > MAX_PARSE_BYTES for b in bodies)
        blob = b"".join(bodies)
        for needle in (b"<![bogus[", b"\xff", b"http://[::1",
                       "<ſcript>".encode(), b"<!-- <a href"):
            assert needle in blob
        wg = pq.read_table(os.path.join(corpus, "web_graph.parquet"))
        urls = {o["url"] for ol in wg["outlinks"].to_pylist() for o in ol}
        assert "http://x.example.com:99999999/p" in urls


def _crawl_rows(out_dir: str):
    import glob

    from spider_ray.pipelines.crawl import read_sink

    gens = sorted(
        glob.glob(os.path.join(out_dir, "gen=*")),
        key=lambda p: int(p.split("=")[1]),
    )
    status, images = (
        [r for g in gens for r in read_sink(g, name).to_pylist()]
        for name in ("status.parquet", "images.parquet")
    )
    seen = pq.read_table(os.path.join(out_dir, "seen.parquet")).to_pylist()
    return status, seen, images


@pytest.mark.parametrize("seed", SEEDS)
def test_hostile_corpus_crawl_matches_oracle(hostile, seed, ray_session,
                                            tmp_path):
    from spider_ray.pipelines.crawl import run_crawl
    from spider_ray.pipelines.oracle import run_oracle

    corpus = hostile[seed]
    out = str(tmp_path / "crawl")
    res = run_crawl(corpus, out, num_shards=2, fetch_concurrency=2,
                    parse_html=True)
    gold = run_oracle(corpus, num_shards=2)
    status, seen, images = _crawl_rows(out)
    key = ("url", "fetch_ts", "status", "gen")
    assert [tuple(r[k] for k in key) for r in status] == [
        tuple(r[k] for k in key) for r in gold["crawl_order"]
    ]
    assert res["total_fetched"] == len(status) > 40
    assert seen == gold["seen"]
    assert sorted((r["image_id"], r["bytes"], r["phash"]) for r in images) == (
        sorted((r["image_id"], r["bytes"], r["phash"]) for r in gold["images"])
    )
    assert images
