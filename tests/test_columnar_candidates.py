"""Differential tests of the columnar candidate path: ``normalize_batch``
and ``ShardScheduler.admit`` against per-row references kept here (the
row-at-a-time implementations they replaced). Inputs are duplicate-heavy,
as a crawl wave's candidates are."""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from spider_ray.kernels.hashing import hash64
from spider_ray.kernels.robots import is_fetchable, parse_robots, robots_level
from spider_ray.kernels.urlnorm import canonicalize_parts, filter_rules
from spider_ray.stages.normalize import (
    MAX_DEPTH,
    POLICY,
    normalize_batch,
    priority_band,
    score_url,
    shard_of,
)
from spider_ray.state.scheduler import ShardScheduler

# --- per-row references ------------------------------------------------------


def ref_normalize_batch(batch, robots_groups, num_shards, gen, seq_offset=0,
                        blacklist=frozenset(), hot_hosts=()):
    urls_raw = batch["url"].to_pylist()
    parts = canonicalize_parts(urls_raw)
    canon = parts["canon"].to_list()
    keep, reasons = filter_rules(canon, blacklist)
    metrics = {"in": len(urls_raw), "canon_reject": 0, "rule_reject": 0,
               "robots_blocked": 0, "depth_exceeded": 0, "accepted": 0}
    hostv = parts["host"].fill_null("").to_list()
    n = len(urls_raw)
    cols = batch.column_names
    depth = batch["depth"].to_pylist() if "depth" in cols else [0] * n
    tried = batch["tried"].to_pylist() if "tried" in cols else [0] * n
    prio_in = batch["priority"].to_pylist() if "priority" in cols else [None] * n
    referer = batch["referer"].to_pylist() if "referer" in cols else [""] * n
    seq_in = (
        batch["seq"].to_pylist() if "seq" in cols
        else [seq_offset + i for i in range(n)]
    )
    rows = {k: [] for k in ("url", "host", "depth", "tried", "priority",
                            "seq", "referer")}
    for i, cu in enumerate(canon):
        if cu is None:
            metrics["canon_reject"] += 1
            continue
        if not keep[i]:
            metrics["rule_reject"] += 1
            continue
        if depth[i] is not None and depth[i] > MAX_DEPTH:
            metrics["depth_exceeded"] += 1
            continue
        h = hostv[i]
        after_auth = cu.split("://", 1)[1][len(h):]
        if after_auth.startswith(":"):  # strip port
            slash = after_auth.find("/")
            after_auth = after_auth[slash:] if slash >= 0 else "/"
        lvl = robots_level(robots_groups.get(h), after_auth or "/")
        if not is_fetchable(lvl, POLICY):
            metrics["robots_blocked"] += 1
            continue
        rows["url"].append(cu)
        rows["host"].append(h)
        rows["depth"].append(int(depth[i] or 0))
        rows["tried"].append(int(tried[i] or 0))
        rows["priority"].append(prio_in[i])
        rows["seq"].append(seq_in[i])
        rows["referer"].append(referer[i] or "")
    metrics["accepted"] = len(rows["url"])

    uh = hash64(rows["url"])
    hh = hash64(rows["host"])
    bands = priority_band(score_url(uh), uh)
    prio = np.array(
        [p if p is not None else int(b) for p, b in zip(rows["priority"], bands)],
        dtype=np.int16,
    )
    shard = shard_of(hh, rows["host"], num_shards, hot_hosts)
    out = pa.table(
        {
            "url": pa.array(rows["url"], pa.string()),
            "url_hash": pa.array(uh, pa.uint64()),
            "host": pa.array(rows["host"], pa.string()),
            "host_hash": pa.array(hh, pa.uint64()),
            "shard": pa.array(shard, pa.int32()),
            "depth": pa.array(rows["depth"], pa.int16()),
            "tried": pa.array(rows["tried"], pa.int16()),
            "priority": pa.array(prio, pa.int16()),
            "gen": pa.array([gen] * len(rows["url"]), pa.int32()),
            "seq": pa.array(rows["seq"], pa.int64()),
            "referer": pa.array(rows["referer"], pa.string()),
        }
    )
    return out, metrics


def ref_admit(sched: ShardScheduler, rows: list[dict]):
    """(accepted rows, dedup_hits, seen rows as dicts), mutating ``sched``
    as ``ShardScheduler.admit`` does."""
    sched.last_top_host, sched.last_top_host_n = "", 0
    if not rows:
        return [], 0, []
    keys = hash64([f"{r['tried']}_{r['url']}" for r in rows])
    n = len(rows)
    is_first = np.zeros(n, dtype=bool)
    is_first[np.unique(keys, return_index=True)[1]] = True
    accept_mask = is_first & ~sched.seen.contains_many(keys)
    hits = int(n - accept_mask.sum())
    accepted, seen_rows = [], []
    for i in np.flatnonzero(accept_mask):
        r = rows[i]
        if not sched.seen.add(int(keys[i])):
            sched.seen_add_failures += 1
        if r["tried"] == 0:
            seen_rows.append({"url_hash": int(r["url_hash"]), "url": r["url"],
                              "first_gen": int(r["gen"])})
        accepted.append(r)
    if accepted:
        hosts, counts = np.unique(
            np.array([r["host"] for r in accepted], dtype=object),
            return_counts=True,
        )
        best = np.lexsort((hosts, -counts))[0]
        sched.last_top_host = str(hosts[best])
        sched.last_top_host_n = int(counts[best])
    return accepted, hits, seen_rows


# --- inputs ------------------------------------------------------------------

HOSTS = ["a.com", "B.com", "hot.net", "c.org"]
PATHS = ["/", "/x/1", "/priv/a", "/p?b=2&a=1", "/a/b/c/d/e/f/g/h/i/j/k",
         "/q?" + "z" * 1001, "/%7Euser/", "/./d/../e"]
ODD = [None, "", "bad", "ftp://a.com/", "http://", "  http://a.com/x  "]
ROBOTS = {
    "a.com": parse_robots("User-agent: *\nDisallow: /priv\n"),
    "b.com": parse_robots(
        "User-agent: Googlebot\nAllow: /\n\nUser-agent: *\nDisallow: /\n"
    ),
    "c.org": parse_robots("User-agent: *\nDisallow: /\n"),
}

url_st = st.one_of(
    st.builds(
        lambda sch, h, port, p: f"{sch}://{h}{port}{p}",
        st.sampled_from(["http", "HTTPS"]),
        st.sampled_from(HOSTS),
        st.sampled_from(["", ":80", ":8080", ":443"]),
        st.sampled_from(PATHS),
    ),
    st.sampled_from(ODD),
)


@st.composite
def candidate_batches(draw):
    pool = draw(st.lists(url_st, min_size=1, max_size=8))
    n = draw(st.integers(0, 60))
    urls = [draw(st.sampled_from(pool)) for _ in range(n)]
    cols = {"url": pa.array(urls, pa.string())}
    opt = st.none() | st.integers(0, 5)
    if draw(st.booleans()):
        cols["depth"] = pa.array(draw(st.lists(opt, min_size=n, max_size=n)),
                                 pa.int16())
    if draw(st.booleans()):
        cols["tried"] = pa.array(
            draw(st.lists(st.none() | st.integers(0, 2), min_size=n, max_size=n)),
            pa.int16(),
        )
    if draw(st.booleans()):
        cols["priority"] = pa.array(
            draw(st.lists(st.none() | st.integers(0, 99), min_size=n, max_size=n)),
            pa.int16(),
        )
    if draw(st.booleans()):
        cols["referer"] = pa.array(
            draw(st.lists(st.none() | st.sampled_from(["", "http://r.com/"]),
                          min_size=n, max_size=n)),
            pa.string(),
        )
    if draw(st.booleans()):
        start = draw(st.integers(0, 1000))
        cols["seq"] = pa.array(range(start, start + n), pa.int64())
    return pa.table(cols)


@settings(max_examples=150, deadline=None)
@given(
    batch=candidate_batches(),
    num_shards=st.integers(2, 5),
    gen=st.integers(0, 7),
    seq_offset=st.integers(0, 500),
    blacklist=st.frozensets(st.sampled_from(["a.com", "c.org"])),
    hot=st.booleans(),
)
def test_normalize_matches_per_row_reference(batch, num_shards, gen,
                                             seq_offset, blacklist, hot):
    hot_hosts = ("hot.net",) if hot else ()
    args = (batch, ROBOTS, num_shards, gen, seq_offset, blacklist, hot_hosts)
    got, got_m = normalize_batch(*args)
    want, want_m = ref_normalize_batch(*args)
    assert got.schema == want.schema
    assert got.equals(want)
    assert list(got_m.items()) == list(want_m.items())


@st.composite
def waves(draw):
    """A shard's seq-sorted wave: urls from a small pool, retries mixed in."""
    pool = draw(st.lists(
        st.builds(lambda h, i: f"http://{h}/p{i}",
                  st.sampled_from(["a.com", "b.com", "c.org"]),
                  st.integers(0, 9)),
        min_size=1, max_size=10,
    ))
    n = draw(st.integers(0, 50))
    urls = [draw(st.sampled_from(pool)) for _ in range(n)]
    tried = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n,
                          max_size=n))
    return urls, tried


def _wave_table(urls, tried, gen, seq0):
    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "url_hash": pa.array(hash64(urls), pa.uint64()),
        "host": pa.array([u.split("/")[2] for u in urls], pa.string()),
        "host_hash": pa.array(hash64([u.split("/")[2] for u in urls]),
                              pa.uint64()),
        "shard": pa.array([0] * n, pa.int32()),
        "depth": pa.array([1] * n, pa.int16()),
        "tried": pa.array(tried, pa.int16()),
        "priority": pa.array([(7 * i) % 50 for i in range(n)], pa.int16()),
        "gen": pa.array([gen] * n, pa.int32()),
        "seq": pa.array(range(seq0, seq0 + n), pa.int64()),
        "referer": pa.array(["http://r.com/"] * n, pa.string()),
    })


@settings(max_examples=100, deadline=None)
@given(w0=waves(), w1=waves(), prefill=st.lists(st.integers(0, 9), max_size=5),
       capacity=st.sampled_from([16, 1 << 12]))
def test_admit_matches_per_row_reference(w0, w1, prefill, capacity):
    new = ShardScheduler(0, 1, seen_capacity=capacity)
    for i in prefill:  # keys already seen before the first wave
        new.seen.add(int(hash64([f"0_http://a.com/p{i}"])[0]))
    ref = ShardScheduler.from_state_dict(new.state_dict())
    for gen, (urls, tried) in enumerate((w0, w1)):
        wave = _wave_table(urls, tried, gen, 100 * gen)
        acc, hits, seen_t = new.admit(wave)
        r_acc, r_hits, r_seen = ref_admit(ref, wave.to_pylist())
        assert acc == r_acc
        assert hits == r_hits
        assert seen_t.to_pylist() == r_seen
        assert (new.last_top_host, new.last_top_host_n) == (
            ref.last_top_host, ref.last_top_host_n)
        assert new.seen_add_failures == ref.seen_add_failures
        assert pickle.dumps(new.state_dict()) == pickle.dumps(ref.state_dict())
