"""Frontier-candidate normalize stage (stateless `mb`): canonicalize URLs
(M1), filter rules (M3), host extraction (M6), hashes, robots level (M4),
score → priority bands (O6/T4), shard assignment.

One pure function over a pyarrow batch, used identically by the crawl's
shard actors (``ShardActor.normalize_split`` in ``pipelines/crawl.py``) and
the single-process oracle — the parity seam from SURVEY §7.4.1. It works on
columns: the per-URL kernels run once per distinct raw URL (a wave's
candidates are mostly duplicates), per-row masks count the rejects, and
Arrow ``take`` builds the accepted table.

Candidate batch schema in:  url, depth, tried, priority (nullable), referer,
optionally seq
Batch schema out (accepted): url (canonical), url_hash (u64), host,
host_hash (u64), shard (i32), depth, tried, priority, gen, seq (i64),
referer — plus the reject counts (``NORM_KEYS``) for metrics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from spider_ray.kernels.hashing import derive, hash64
from spider_ray.kernels.robots import is_fetchable, robots_level
from spider_ray.kernels.urlnorm import canonicalize_parts, filter_rules, host_of

MAX_DEPTH = 3  # crawler2/general_crawler/extractor.cc:36 max_url_depth
POLICY = "general"
# normalize_batch's metric counts; metrics.parquet carries them as norm_*
NORM_KEYS = ("in", "canon_reject", "rule_reject", "robots_blocked",
             "depth_exceeded", "accepted")


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


def _robots_ok(
    canon: list[str | None], hosts: list[str], robots_groups: dict[str, dict]
) -> np.ndarray:
    """Robots verdict (``POLICY``) of each canonical URL; ``None`` entries
    (not canonical) read False. The path robots rules see is the canonical
    URL after its host, port stripped."""
    ok = np.zeros(len(canon), dtype=bool)
    for i, (cu, h) in enumerate(zip(canon, hosts)):
        if cu is None:
            continue
        groups = robots_groups.get(h)
        if groups is None:  # no robots.txt: level 1, fetchable
            ok[i] = True
            continue
        after_auth = cu.split("://", 1)[1][len(h):]
        if after_auth.startswith(":"):  # strip port
            slash = after_auth.find("/")
            after_auth = after_auth[slash:] if slash >= 0 else "/"
        ok[i] = is_fetchable(robots_level(groups, after_auth or "/"), POLICY)
    return ok


def _filled(batch: pa.Table, name: str, typ: pa.DataType, fill, rows):
    """Column ``name`` at ``rows`` with nulls as ``fill``, or all ``fill``
    when the batch has no such column."""
    if name not in batch.column_names:
        return pa.array([fill] * len(rows), typ)
    return pc.fill_null(batch[name].take(rows).cast(typ), fill).combine_chunks()


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
    uniqueness: seq = position in the generation's candidate file) and is
    used only when the batch has no ``seq`` column.

    A wave's candidates are mostly duplicates, so the per-URL work
    (canonicalize, rule filter, robots verdict, hashes, score/band, shard)
    runs once per DISTINCT raw URL of the dictionary-encoded ``url`` column
    (null is an entry of its own). Each row then reads its URL's verdicts,
    and the per-row rejects count in the order canon, rule, depth, robots.
    Accepted rows keep their input order."""
    enc = batch["url"].combine_chunks().dictionary_encode(null_encoding="encode")
    idx = enc.indices.to_numpy()
    n = len(idx)
    parts = canonicalize_parts(enc.dictionary)
    canon = parts["canon"].to_list()
    host_s = parts["host"].fill_null("")
    hosts = host_s.to_list()
    keep_u, _ = filter_rules(canon, blacklist)

    canon_ok = parts["canon"].is_not_null().to_numpy()[idx]
    rule_ok = canon_ok & keep_u[idx]
    if "depth" in batch.column_names:
        depth = batch["depth"].combine_chunks()
        depth_ok = rule_ok & pc.fill_null(
            pc.less_equal(depth, MAX_DEPTH), True
        ).to_numpy(zero_copy_only=False)
    else:
        depth_ok = rule_ok
    # robots only for the URLs some depth-passing row still needs
    need = np.zeros(len(canon), dtype=bool)
    need[idx[depth_ok]] = True
    robots_ok_u = _robots_ok(
        [c if w else None for c, w in zip(canon, need)], hosts, robots_groups
    )
    accept = depth_ok & robots_ok_u[idx]
    n_canon, n_rule, n_depth, n_acc = (
        int(m.sum()) for m in (canon_ok, rule_ok, depth_ok, accept)
    )
    metrics = {"in": n, "canon_reject": n - n_canon,
               "rule_reject": n_canon - n_rule,
               "robots_blocked": n_depth - n_acc,
               "depth_exceeded": n_rule - n_depth,
               "accepted": n_acc}

    uh = hash64(parts["canon"].to_arrow())
    hh = hash64(host_s.to_arrow())
    band = priority_band(score_url(uh), uh)
    shard = shard_of(hh, hosts, num_shards, hot_hosts)

    rows = np.flatnonzero(accept)
    u = idx[rows]
    take_u = pa.array(u)
    prio = pa.array(band[u], pa.int16())
    if "priority" in batch.column_names:
        prio = pc.fill_null(
            batch["priority"].take(rows).cast(pa.int16()).combine_chunks(), prio
        )
    seq = (
        batch["seq"].take(rows).cast(pa.int64()).combine_chunks()
        if "seq" in batch.column_names
        else pa.array(seq_offset + rows, pa.int64())
    )
    out = pa.table(
        {
            "url": parts["canon"].to_arrow().take(take_u).cast(pa.string()),
            "url_hash": pa.array(uh[u], pa.uint64()),
            "host": host_s.to_arrow().take(take_u).cast(pa.string()),
            "host_hash": pa.array(hh[u], pa.uint64()),
            "shard": pa.array(shard[u], pa.int32()),
            "depth": _filled(batch, "depth", pa.int16(), 0, rows),
            "tried": _filled(batch, "tried", pa.int16(), 0, rows),
            "priority": prio,
            "gen": pa.array(np.full(len(rows), gen), pa.int32()),
            "seq": seq,
            "referer": _filled(batch, "referer", pa.string(), "", rows),
        }
    )
    return out, metrics
