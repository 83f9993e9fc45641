"""Link-graph operator parity: redirect_resolve / link_rank vs independent
driver-side references, and crossmodal_recall vs a brute-force numpy rank."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from spider_ray.functions.webgraph import (
    MAX_HOPS,
    RANK_BASE,
    RANK_ITERS,
    RANK_NUM,
    RANK_DEN,
    RANK_START,
    q_link_rank,
    q_redirect_resolve,
    redirect_edges,
)
from spider_ray.pipelines.relational import _concat


@pytest.fixture(scope="module")
def graph_corpus(ray_session, tmp_path_factory):
    """A small dedicated corpus — full webgen determinism, fast rounds."""
    from spider_ray.sources.webgen import generate

    d = str(tmp_path_factory.mktemp("webgraph_corpus"))
    generate(d, n_pages=600, n_hosts=10, seed=7)
    return d


def _edge_map(corpus):
    E = _concat(redirect_edges(corpus))
    nxt = dict(zip(E["src"].to_pylist(), E["dst"].to_pylist()))
    assert len(nxt) == E.num_rows, "edge set must be functional (≤1 out-edge)"
    return nxt


def _walk(nxt, u):
    cur, hops = nxt[u], 1
    while cur in nxt and hops <= 4 * MAX_HOPS:
        cur = nxt[cur]
        hops += 1
    if cur in nxt or hops > MAX_HOPS:
        return (None, None, 1)
    return (cur, hops, 0)


def test_redirect_workload_has_selectivity(ray_session, graph_corpus):
    """The planted workload must actually exercise the operator: multi-hop
    chains (doubling rounds matter) AND cycles (the looped branch)."""
    nxt = _edge_map(graph_corpus)
    ref = {u: _walk(nxt, u) for u in nxt}
    hops = [v[1] for v in ref.values() if v[2] == 0]
    assert max(hops) >= 5, "no multi-hop chains — doubling untested"
    assert any(v[2] == 1 for v in ref.values()), "no cycles planted"
    assert any(v[2] == 0 for v in ref.values())


def test_redirect_resolve_matches_walker(ray_session, graph_corpus):
    nxt = _edge_map(graph_corpus)
    got = q_redirect_resolve(graph_corpus)
    assert got.num_rows == len(nxt)
    for i in range(got.num_rows):
        u = got["url"][i].as_py()
        eng = (
            got["final_url"][i].as_py(),
            got["hops"][i].as_py(),
            got["looped"][i].as_py(),
        )
        assert eng == _walk(nxt, u), f"mismatch at {u}"


def test_link_rank_matches_reference(ray_session, graph_corpus):
    wg = pq.read_table(
        f"{graph_corpus}/web_graph.parquet", columns=["url", "outlinks"]
    )
    urls = wg["url"].to_pylist()
    outs = wg["outlinks"].to_pylist()
    r = {u: RANK_START for u in urls}
    for _ in range(RANK_ITERS):
        c = {u: 0 for u in urls}
        for u, links in zip(urls, outs):
            d = len(links)
            for link in links:
                c[link["url"]] += (r[u] * RANK_NUM) // (RANK_DEN * d)
        r = {u: RANK_BASE + c[u] for u in urls}
    lr = q_link_rank(graph_corpus)
    assert lr.num_rows == len(urls)
    for i in range(lr.num_rows):
        assert r[lr["url"][i].as_py()] == lr["link_rank"][i].as_py()
    # sanity: the iteration actually moved mass (not everyone at base)
    vals = lr["link_rank"].to_numpy(zero_copy_only=False)
    assert vals.max() > RANK_BASE + (RANK_START * RANK_NUM) // RANK_DEN


def test_crossmodal_recall_matches_bruteforce(ray_session, sf_small):
    from spider_ray.functions.similarity import (
        EVAL_MOD,
        q_crossmodal_recall,
    )

    emb = pq.read_table(f"{sf_small}/embeddings.parquet")
    ids = np.asarray(emb["vec_id"].to_pylist(), dtype=np.int64)
    M = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
    M = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    gal = (ids % 2 == 0) & ((ids >> 1) % EVAL_MOD == 0)
    qry = (ids % 2 == 1) & ((ids >> 1) % EVAL_MOD == 0)
    g_ids, G = ids[gal], M[gal]
    order = np.argsort(g_ids)
    g_ids, G = g_ids[order], G[order]

    got = q_crossmodal_recall(sf_small)
    assert got.num_rows == int(qry.sum()) > 0
    ref = {}
    for qi in np.nonzero(qry)[0]:
        pid = ids[qi] >> 1
        c6 = np.round(M[qi] @ G.T, 6)
        t = c6[np.searchsorted(g_ids, pid * 2)]
        rank = (
            1
            + int((c6 > t).sum())
            + int(((c6 == t) & (g_ids < pid * 2)).sum())
        )
        ref[pid] = rank
    for i in range(got.num_rows):
        pid = got["pair_id"][i].as_py()
        rank = got["true_rank"][i].as_py()
        assert rank == ref[pid]
        for k in (1, 5, 10):
            assert got[f"hit{k}"][i].as_py() == int(rank <= k)


def test_connected_components_matches_union_find(graph_corpus):
    """Distributed hash-min CC equals a single-process union-find over the
    same symmetrized edge set (labels = min url per component), and every
    component label is a member of its own component."""
    from spider_ray.functions.webgraph import q_connected_components

    out = q_connected_components(graph_corpus)

    wg = pq.read_table(
        graph_corpus + "/web_graph.parquet", columns=["url", "outlinks"]
    )
    urls = wg["url"].to_pylist()
    parent = {u: u for u in urls}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for u, links in zip(urls, wg["outlinks"].to_pylist()):
        for l in links or []:
            union(u, l["url"])
    comp = {}
    for u in urls:
        comp.setdefault(find(u), []).append(u)
    expected = {}
    for members in comp.values():
        m = min(members)
        for u in members:
            expected[u] = m

    got = dict(zip(out["url"].to_pylist(), out["component"].to_pylist()))
    assert got == expected
    labels = set(got.values())
    assert all(got[l] == l for l in labels)  # label is its own rep
    assert len(labels) >= 1


def test_triangle_count_matches_bruteforce(graph_corpus):
    """Distributed oriented-wedge-join triangle count equals a
    single-process adjacency-set count."""
    from itertools import combinations

    from spider_ray.functions.webgraph import q_triangle_count

    out = q_triangle_count(graph_corpus).to_pylist()[0]
    wg = pq.read_table(
        graph_corpus + "/web_graph.parquet", columns=["url", "outlinks"]
    )
    adj = {}
    for u, links in zip(wg["url"].to_pylist(), wg["outlinks"].to_pylist()):
        for l in links or []:
            v = l["url"]
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    edges = {
        (min(u, v), max(u, v)) for u, nb in adj.items() for v in nb
    }
    tri = 0
    for a, b in edges:
        tri += sum(
            1 for c in (adj[a] & adj[b]) if c > b
        )
    assert out["n_edges"] == len(edges)
    assert out["n_triangles"] == tri
    assert out["n_wedges"] >= out["n_triangles"]


def test_anchor_text_matches_bruteforce(ray_session, graph_corpus):
    """Distributed anchor aggregation equals a single-process polars
    reference over the raw outlink table (counts, distinct hosts, and
    the plurality anchor with the count-desc/lexical-asc tie-break)."""
    import os

    import polars as pl

    from spider_ray.functions.webgraph import q_anchor_text

    out = pl.from_arrow(q_anchor_text(graph_corpus))
    raw = pl.from_arrow(
        pq.read_table(
            os.path.join(graph_corpus, "web_graph.parquet"),
            columns=["host", "outlinks"],
        )
    )
    e = (
        raw.explode("outlinks", empty_as_null=True)
        .drop_nulls("outlinks")
        .select(
            src_host=pl.col("host"),
            dst=pl.col("outlinks").struct.field("url").str.strip_chars()
            .str.replace(r"#$", "")
            .str.replace(r"/$", ""),
            anchor=pl.col("outlinks").struct.field("anchor"),
        )
        .filter(pl.col("dst") != "")
    )
    per = e.group_by("dst").agg(
        n_inlinks=pl.len().cast(pl.Int64),
        n_hosts=pl.col("src_host").n_unique().cast(pl.Int64),
    )
    top = (
        e.group_by(["dst", "anchor"])
        .agg(n=pl.len().cast(pl.Int64))
        .sort(["dst", "n", "anchor"], descending=[False, True, False])
        .group_by("dst", maintain_order=True)
        .first()
        .rename({"anchor": "top_anchor", "n": "top_anchor_n"})
    )
    ref = (
        per.join(top, on="dst")
        .rename({"dst": "url"})
        .select(["url", "n_inlinks", "n_hosts", "top_anchor", "top_anchor_n"])
        .sort("url")
    )
    assert out.sort("url").equals(ref)
    # workload selectivity: some target must have a true plurality anchor
    assert (out["top_anchor_n"] > 1).any()
    assert (out["n_hosts"] > 1).any()


def test_host_graph_matches_bruteforce(ray_session, graph_corpus):
    """Distributed host-graph aggregation equals a single-process polars
    reference: cross-host edges only, link counts + distinct source
    pages per (src_host, dst_host)."""
    import os

    import polars as pl

    from spider_ray.functions.webgraph import q_host_graph

    out = pl.from_arrow(q_host_graph(graph_corpus))
    raw = pl.from_arrow(
        pq.read_table(
            os.path.join(graph_corpus, "web_graph.parquet"),
            columns=["url", "host", "outlinks"],
        )
    )
    e = (
        raw.explode("outlinks", empty_as_null=True)
        .drop_nulls("outlinks")
        .select(
            src_host=pl.col("host"),
            src_url=pl.col("url"),
            dst_host=pl.col("outlinks")
            .struct.field("url")
            .str.extract(r"^https?://([^/]+)", 1),
        )
        .filter(
            pl.col("dst_host").is_not_null()
            & (pl.col("dst_host") != pl.col("src_host"))
        )
    )
    ref = (
        e.group_by(["src_host", "dst_host"])
        .agg(
            n_links=pl.len().cast(pl.Int64),
            n_src_pages=pl.col("src_url").n_unique().cast(pl.Int64),
        )
        .sort(["src_host", "dst_host"])
    )
    assert out.sort(["src_host", "dst_host"]).equals(ref)
    # a page links the same target at most once (webgen in-page dedup)
    assert (out["n_links"] >= out["n_src_pages"]).all()
    assert out.height > 0


def test_host_rate_plan_semantics(ray_session):
    """Capacity-plan rules on the demo corpus: budgeted hosts keep their
    host_load QPS, the Crawl-delay host is capped to 1000/delay
    milli-QPS (never raised), everyone else gets the '*' default, and
    projected time is the exact integer division."""
    import os

    import polars as pl

    from spider_ray.functions.webgraph import q_host_rate_plan
    from spider_ray.sources.webgen import generate

    corpus = "/tmp/spider_ray_rateplan_corpus"
    if not os.path.exists(os.path.join(corpus, "host_load.parquet")):
        generate(corpus, n_pages=500, n_hosts=10, seed=23)
    out = pl.from_arrow(q_host_rate_plan(corpus))
    hl = pl.from_arrow(
        pq.read_table(os.path.join(corpus, "host_load.parquet"))
    )
    rb = pl.from_arrow(
        pq.read_table(os.path.join(corpus, "robots.parquet"))
    )
    slow = rb.filter(pl.col("body").str.contains("Crawl-delay"))["host"]
    assert len(slow) == 1
    assert out.filter(pl.col("host") == slow[0])["milli_qps"][0] == 500
    spec = {
        r["key"]: int(r["max_qps"] * 1000)
        for r in hl.to_dicts()
        if r["key"] != "*" and not r["window"]
    }
    for h, mq in spec.items():
        row = out.filter(pl.col("host") == h)
        if row.height:
            assert row["milli_qps"][0] == mq
    dflt = int(
        hl.filter(pl.col("key") == "*")["max_qps"][0] * 1000
    )
    others = out.filter(
        ~pl.col("host").is_in(list(spec) + [slow[0]])
    )
    assert (others["milli_qps"] == dflt).all()
    assert (
        out["projected_ms"]
        == out["n_pages"] * 1_000_000 // out["milli_qps"]
    ).all()


def test_host_rate_plan_delay_fuzz(ray_session, tmp_path):
    """Engine vs DuckDB oracle on a hand-built corpus whose robots bodies
    exercise every Crawl-delay edge the frozen webgen corpus does not:
    truncating division (delay=7 → 142, not round-half 143), lowercase
    'crawl-delay:', decimal delays, an explicit zero (skipped on both
    sides), a bare '.' (parses on neither side), a delay declared only
    for a non-default UA group (body-wide reading still caps), and a
    host with no robots row at all."""
    import os

    import duckdb
    import polars as pl
    import pyarrow as pa

    from spider_ray.functions.webgraph import (
        host_rate_plan_sql,
        q_host_rate_plan,
    )

    corpus = str(tmp_path)
    hosts = [f"h{i}.example.com" for i in range(8)]
    # 3 pages on h0, 1 page each elsewhere — n_pages varies
    rows = [hosts[0]] * 3 + hosts[1:]
    pq.write_table(
        pa.table(
            {
                "host": pa.array(rows, pa.string()),
                "url": pa.array(
                    [f"http://{h}/p{i}" for i, h in enumerate(rows)],
                    pa.string(),
                ),
            }
        ),
        os.path.join(corpus, "web_graph.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "key": pa.array(["*", hosts[1]], pa.string()),
                "max_qps": pa.array([3.0, 10.0], pa.float64()),
                "window": pa.array(["", ""], pa.string()),
            }
        ),
        os.path.join(corpus, "host_load.parquet"),
    )
    bodies = {
        hosts[0]: "User-agent: *\nCrawl-delay: 7\n",  # 1000/7 → 142
        hosts[1]: "User-agent: *\ncrawl-delay: 2.5\n",  # lowercase+decimal
        hosts[2]: "User-agent: *\nCrawl-delay: 0\n",  # zero → no cap
        hosts[3]: "User-agent: *\nCrawl-delay: .\n",  # no digit → no cap
        hosts[4]: "User-agent: other\nCrawl-delay: 4\n",  # other UA caps
        hosts[5]: "User-agent: *\nDisallow: /private\n",  # no delay
        # hosts[6]: no robots row at all
        hosts[7]: "crawl-DELAY:\t3\n",  # mixed case + tab
    }
    pq.write_table(
        pa.table(
            {
                "host": pa.array(list(bodies), pa.string()),
                "body": pa.array(list(bodies.values()), pa.string()),
            }
        ),
        os.path.join(corpus, "robots.parquet"),
    )

    eng = pl.from_arrow(q_host_rate_plan(corpus))
    ora = pl.from_arrow(duckdb.sql(host_rate_plan_sql(corpus)).arrow())
    assert eng.equals(ora), f"engine:\n{eng}\noracle:\n{ora}"
    mq = dict(zip(eng["host"], eng["milli_qps"]))
    assert mq[hosts[0]] == 142  # truncation, not round-half-even
    assert mq[hosts[1]] == 400  # min(10 qps budget, 1000/2.5)
    assert mq[hosts[2]] == 3000  # zero delay ignored → '*' default
    assert mq[hosts[3]] == 3000  # '.' parses on neither side
    assert mq[hosts[4]] == 250  # body-wide reading: other-UA delay caps
    assert mq[hosts[6]] == 3000  # absent robots row → default
    assert mq[hosts[7]] == 333  # case-insensitive, tab separator
