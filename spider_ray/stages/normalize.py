"""Frontier-candidate normalize stage (stateless `mb`): canonicalize URLs
(M1), filter rules (M3), host extraction (M6), hashes, robots level (M4),
score → priority bands (O6/T4), shard assignment.

One pure function over a pyarrow batch, used identically by the crawl's
normalize task (``_normalize_split`` in ``pipelines/crawl.py``) and the
single-process oracle — the parity seam from SURVEY §7.4.1.

Candidate batch schema in:  url, depth, tried, priority (nullable), referer
Batch schema out (accepted): url (canonical), url_hash (u64), host,
host_hash (u64), shard (i32), depth, tried, priority, seq (i64), gen,
referer — plus a rejected-side count dict for metrics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from spider_ray.kernels.hashing import derive, hash64
from spider_ray.kernels.robots import is_fetchable, robots_level
from spider_ray.kernels.urlnorm import canonicalize_parts, filter_rules, host_of

MAX_DEPTH = 3  # crawler2/general_crawler/extractor.cc:36 max_url_depth
POLICY = "general"


def score_url(url_hashes: np.ndarray) -> np.ndarray:
    """Deterministic stand-in for the index-model URL scorer (T4,
    mr_selector_r1_reducer.cc:131-148): pure function of the url hash."""
    return (derive(url_hashes, 7) % np.uint64(1000)).astype(np.int64)


def priority_band(scores: np.ndarray, url_hashes: np.ndarray) -> np.ndarray:
    """O6 banding (scheduler.cc:192-205): ≥500→[0,9], ≥100→[10,29],
    ≥10→[30,49], else [50,99]; position within band deterministic."""
    r = derive(url_hashes, 8)
    out = np.empty(len(scores), dtype=np.int16)
    hi = scores >= 500
    mid = (scores >= 100) & ~hi
    low = (scores >= 10) & ~hi & ~mid
    rest = ~(hi | mid | low)
    out[hi] = (r[hi] % np.uint64(10)).astype(np.int16)
    out[mid] = 10 + (r[mid] % np.uint64(20)).astype(np.int16)
    out[low] = 30 + (r[low] % np.uint64(20)).astype(np.int16)
    out[rest] = 50 + (r[rest] % np.uint64(50)).astype(np.int16)
    return out


def shard_of(
    host_hashes: np.ndarray,
    hosts: list[str],
    num_shards: int,
    hot_hosts: tuple[str, ...] = (),
) -> np.ndarray:
    """Shard assignment with the hot-host isolation valve (north rule:
    "explicit salting of hot hosts"; reference valves: big_family_host.txt
    robots scatter, data_prepare.cc:86-96,127-137, and the 100k-URL hot-IP
    diversion, ip_url_split.cc:21,85-97). Each configured hot host owns a
    DEDICATED shard at the top of the range — its politeness budget stays on
    exactly ONE actor (the budget owner is never salted, SURVEY §4) while
    its queue no longer competes with hash-assigned hosts. Shared by engine
    and oracle, so the assignment is a parity seam, not a divergence."""
    n_hot = len(hot_hosts)
    n_reg = num_shards - n_hot
    if n_hot == 0:
        return (host_hashes % np.uint64(num_shards)).astype(np.int32)
    if n_reg <= 0:
        raise ValueError("num_shards must exceed len(hot_hosts)")
    shard = (host_hashes % np.uint64(n_reg)).astype(np.int32)
    hot_idx = {h: n_reg + i for i, h in enumerate(hot_hosts)}
    for i, h in enumerate(hosts):
        s = hot_idx.get(h)
        if s is not None:
            shard[i] = s
    return shard


def _route_hosts(urls: list[str]) -> list[str]:
    """Canonical routing host per URL — THE slice/route predicate shared by
    ``shard_meta`` (scheduler shards) and ``oracle.load_corpus_shard``
    (fetch-index shards): canonical host when the URL canonicalizes, raw
    host otherwise (a non-canonical corpus URL can never be hit by a
    candidate lookup, so its shard only needs to be deterministic)."""
    parts = canonicalize_parts(urls)
    canon = parts["canon"].to_list()
    hosts = parts["host"].fill_null("").to_list()
    return [
        h if c is not None else host_of(u)
        for c, h, u in zip(canon, hosts, urls)
    ]


def shard_meta(
    corpus_dir: str,
    shard_id: int,
    num_shards: int,
    hot_hosts: tuple[str, ...] = (),
) -> dict[str, tuple[int, int]]:
    """One shard's slice of the fetch-completion metadata
    (url → (status_code, latency_us)), read by the ShardActor itself from
    the corpus parquet with pruned columns — the driver never builds the
    full-corpus dict (round-2 finding: driver RSS was O(corpus) through a
    global ``ray.put`` meta dict).

    The slicing predicate IS the routing predicate (canonicalize → host →
    hash64 → ``shard_of`` with the same ``hot_hosts``), so a candidate
    routed to shard *s* finds exactly the rows the old global dict would
    have served it; URLs on other shards are simply absent here, and a
    cross-shard lookup cannot happen because the routing stage already
    partitioned by the same rule."""
    import os

    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(corpus_dir, "web_graph.parquet"),
        columns=["url", "status_code", "latency_us"],
    )
    urls = t["url"].to_pylist()
    hv = _route_hosts(urls)
    sh = shard_of(hash64(hv), hv, num_shards, hot_hosts)
    status = t["status_code"].to_pylist()
    lat = t["latency_us"].to_pylist()
    sid = np.int32(shard_id)
    return {
        u: (int(s), int(l))
        for u, s, l, d in zip(urls, status, lat, sh)
        if d == sid
    }


def normalize_batch(
    batch: pa.Table,
    robots_groups: dict[str, dict],
    num_shards: int,
    gen: int,
    seq_offset: int = 0,
    blacklist: frozenset[str] = frozenset(),
    hot_hosts: tuple[str, ...] = (),
) -> tuple[pa.Table, dict[str, int]]:
    """Returns (accepted table, metric counts). ``seq_offset`` gives this
    batch's first arrival-sequence number (caller guarantees global
    uniqueness: seq = position in the generation's candidate file)."""
    urls_raw = batch["url"].to_pylist()
    parts = canonicalize_parts(urls_raw)
    canon = parts["canon"].to_list()
    keep, reasons = filter_rules(canon, blacklist)
    metrics = {"in": len(urls_raw), "canon_reject": 0, "rule_reject": 0,
               "robots_blocked": 0, "depth_exceeded": 0, "accepted": 0}
    hostv = parts["host"].fill_null("").to_list()
    depth = batch["depth"].to_pylist() if "depth" in batch.column_names else [0] * len(urls_raw)
    tried = batch["tried"].to_pylist() if "tried" in batch.column_names else [0] * len(urls_raw)
    prio_in = (
        batch["priority"].to_pylist()
        if "priority" in batch.column_names
        else [None] * len(urls_raw)
    )
    referer = (
        batch["referer"].to_pylist()
        if "referer" in batch.column_names
        else [""] * len(urls_raw)
    )
    seq_in = (
        batch["seq"].to_pylist()
        if "seq" in batch.column_names
        else [seq_offset + i for i in range(len(urls_raw))]
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
    scores = score_url(uh)
    bands = priority_band(scores, uh)
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
