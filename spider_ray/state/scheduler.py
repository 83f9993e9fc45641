"""Per-shard frontier scheduler — the stateful heart of the crawl loop.

One ``ShardScheduler`` owns a host-hash range: its cuckoo-filter URL-seen
set (T2), per-host priority queues, and politeness state (T1). Scheduling is
a deterministic discrete-event simulation over a virtual microsecond clock:
the same ordering contract the reference's single-threaded ``CheckTasks``
scan produces (``crawler/crawler.cc:100-176`` — per-host FIFO in priority
order, gated by ``LoadController.CheckFetch``; blocked tasks requeued), made
explicit so the Ray engine and the single-process oracle compute identical
crawl orders (SURVEY §7.4.1/§7.4.2).

Ordering contract:
* within a host: ``(priority, gen, seq)`` ascending;
* across hosts: earliest virtual fetch time; ties broken by
  ``(priority, gen, seq, host)``;
* the per-shard connection budget is ``max_connections_in_all / num_shards``
  — mirroring the reference where each fetcher process owns its own
  LoadController over a partition of the URL space.

The seen-set key is ``hash64(f"{tried}_{url}")`` — retries bypass dedup
exactly like the reference's LRU key ``"{tried_times}_{dedup_key-or-url}"``
(``job_manager.cc:319-360``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from spider_ray.kernels.hashing import hash64
from spider_ray.state.cuckoo import CuckooFilter
from spider_ray.state.load_controller import LoadController, LoadOptions, LoadRecord, parse_window


@dataclass
class FetchPermit:
    """One politeness-ordered fetch slot emitted by the scheduler."""

    fetch_ts: int  # virtual µs at which the fetch starts
    url: str
    url_hash: int
    host: str
    priority: int
    gen: int
    seq: int
    depth: int
    tried: int
    referer: str


class ShardScheduler:
    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        load_rows: list[tuple] | None = None,
        options: LoadOptions | None = None,
        seen_capacity: int = 1 << 18,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        opt = options or LoadOptions()
        # per-shard share of the global connection budget
        opt = LoadOptions(
            default_max_connections=opt.default_max_connections,
            default_max_qps=opt.default_max_qps,
            max_connections_in_all=max(1, opt.max_connections_in_all // num_shards),
            check_frequency=opt.check_frequency,
            max_failed_times=opt.max_failed_times,
            min_holdon_after_failed_us=opt.min_holdon_after_failed_us,
            max_holdon_after_failed_us=opt.max_holdon_after_failed_us,
        )
        recs: dict[str, list[LoadRecord]] = {}
        for key, mc, qps, win in load_rows or []:
            recs.setdefault(key, []).append(
                LoadRecord(int(mc), float(qps), parse_window(win))
            )
        self.lc = LoadController(opt, recs)
        self.seen = CuckooFilter(seen_capacity)
        self.exact_seen: set[int] = set()
        self.seen_urls: list[tuple[int, str, int]] = []  # (url_hash, url, gen)
        self.image_seen = CuckooFilter(seen_capacity)
        self.clock = 0
        self.metrics: list[dict] = []
        self.fp_audit = 0
        # cuckoo saturation counters: CuckooFilter.add returns False when a
        # kick-out chain fails (filter near capacity) — a key that fails to
        # insert will NOT be remembered, so a later duplicate gets re-
        # admitted. That loss must be VISIBLE (metrics column), never
        # silent: a nonzero value means seen_capacity is undersized for
        # the crawl and the run's exactly-once guarantees are degraded.
        self.seen_add_failures = 0
        self.image_add_failures = 0

    # --- admission (dedup) ----------------------------------------------------

    def admit(self, rows: list[dict]) -> tuple[list[dict], int]:
        """Seen-check + add, VECTORIZED. rows need keys url, url_hash,
        tried, gen. Returns (accepted rows, dedup_hits). The exact audit
        set decides admission, and cuckoo false positives are counted
        against it (``fp_audit``) — the FP budget the north rule asks to
        be verified against the exact set.

        Wave semantics: a key's FIRST occurrence decides against the
        PRE-WAVE seen state; later occurrences in the same wave are always
        duplicates (first-wins). The cuckoo membership probe runs once,
        batched, against the pre-wave filter — intra-wave insertions can
        therefore never cause a same-wave false positive (a strict
        improvement on the per-row probe; engine and oracle share this
        code, so it stays a parity seam, not a divergence)."""
        if not rows:
            return [], 0
        # vectorized key hashing (one polars pass, not one call per row)
        keys = hash64([f"{r['tried']}_{r['url']}" for r in rows])
        n = len(rows)
        is_first = np.zeros(n, dtype=bool)
        is_first[np.unique(keys, return_index=True)[1]] = True
        cuckoo_dup = self.seen.contains_many(keys)
        dup_keys = self.exact_seen.intersection(keys[is_first].tolist())
        exact_dup = np.isin(
            keys,
            np.fromiter(dup_keys, dtype=np.uint64, count=len(dup_keys)),
        )
        self.fp_audit += int((is_first & cuckoo_dup & ~exact_dup).sum())
        accept_mask = is_first & ~exact_dup
        hits = int(n - accept_mask.sum())

        accepted = []
        for i in np.flatnonzero(accept_mask):
            r = rows[i]
            key = int(keys[i])
            if not self.seen.add(key):
                self.seen_add_failures += 1
            self.exact_seen.add(key)
            if r["tried"] == 0:
                self.seen_urls.append(
                    (int(r["url_hash"]), r["url"], int(r["gen"]))
                )
            accepted.append(r)
        # host_stat analog (A2, control/schedule/host_stat.cc): the shard's
        # heaviest host this wave — the signal the hot-host valve acts on.
        # Computed HERE (shared kernel) so engine and oracle metrics agree.
        if accepted:
            hosts, counts = np.unique(
                np.array([r["host"] for r in accepted], dtype=object),
                return_counts=True,
            )
            best = np.lexsort((hosts, -counts))[0]
            self.last_top_host = str(hosts[best])
            self.last_top_host_n = int(counts[best])
        else:
            self.last_top_host = ""
            self.last_top_host_n = 0
        return accepted, hits

    def admit_images(self, image_hashes: np.ndarray) -> np.ndarray:
        """First-wins dedup mask for image ids (D6 analog)."""
        out = np.zeros(len(image_hashes), dtype=bool)
        for i, h in enumerate(image_hashes):
            h = int(h)
            if not self.image_seen.contains(h):
                if not self.image_seen.add(h):
                    self.image_add_failures += 1
                out[i] = True
        return out

    # --- the wave DES ---------------------------------------------------------

    def run_wave(
        self,
        tasks: list[dict],
        wave_start: int,
        meta: dict[str, tuple[int, int]],
    ) -> list[FetchPermit]:
        """Simulate the politeness-gated schedule of ``tasks`` (all of this
        generation, this shard). ``meta`` maps url → (status_code,
        latency_us) for completion/unregister simulation (the fetch itself is
        a later pipeline stage). Returns permits in fetch order."""
        now0 = max(self.clock, wave_start)
        queues: dict[str, list] = {}
        for r in tasks:
            queues.setdefault(r["host"], []).append(
                (int(r["priority"]), int(r["gen"]), int(r["seq"]), r)
            )
        for q in queues.values():
            q.sort()
            q.reverse()  # pop from the end = smallest first

        # event heap: (time, kind, priority, gen, seq, host)
        # kind 0 = completion (frees budget) sorts before kind 1 = try
        events: list[tuple] = []
        for host, q in queues.items():
            p, g, s, _ = q[-1]
            heapq.heappush(events, (now0, 1, p, g, s, host))
        blocked_conn: set[str] = set()
        permits: list[FetchPermit] = []
        end_time = now0

        def push_try(t: int, host: str) -> None:
            q = queues.get(host)
            if q:
                p, g, s, _ = q[-1]
                heapq.heappush(events, (t, 1, p, g, s, host))

        while events:
            t, kind, p, g, s, host = heapq.heappop(events)
            if kind == 0:
                # completion: success flag encoded in seq slot of payload
                success = bool(s)
                self.lc.unregister_fetch(host, success, t)
                end_time = max(end_time, t)
                # a completion frees host AND per-shard budget: wake every
                # connection-blocked host (the reference's CheckTasks rescans
                # the whole queue each tick — this is the event-driven twin)
                if blocked_conn:
                    for bh in sorted(blocked_conn):
                        push_try(t, bh)
                    blocked_conn.clear()
                continue
            q = queues.get(host)
            if not q:
                continue
            qp, qg, qs, r = q[-1]
            if (qp, qg, qs) != (p, g, s):
                # stale try event for an already-consumed head; re-aim
                push_try(t, host)
                continue
            ret = self.lc.check_fetch(host, t)
            if ret == 0:
                q.pop()
                self.lc.register_fetch(host, t)
                permits.append(
                    FetchPermit(
                        fetch_ts=t,
                        url=r["url"],
                        url_hash=int(r["url_hash"]),
                        host=host,
                        priority=qp,
                        gen=qg,
                        seq=qs,
                        depth=int(r["depth"]),
                        tried=int(r["tried"]),
                        referer=r.get("referer", ""),
                    )
                )
                status, latency = meta.get(r["url"], (404, 50_000))
                # unregister rule (crawler.cc:82-83): 200/301/404 count as
                # politeness successes; everything else — including 403,
                # which the reference carves out explicitly — takes the
                # failure path (holdon backoff + failed_times++)
                success = status in (200, 301, 404)
                heapq.heappush(
                    events, (t + latency, 0, 0, 0, int(success), host)
                )
                end_time = max(end_time, t + latency)
                push_try(t, host)
            elif ret > 0:
                heapq.heappush(events, (ret, 1, p, g, s, host))
            elif ret == -1:
                # connection budget (host or shard) full. A host whose
                # config row pins max_connections to 0 can NEVER pass this
                # gate — parking it in blocked_conn would re-wake/re-block
                # it on every completion and then silently abandon its
                # queue at wave end with no accounting. Treat it like the
                # dead-key path: drop with the same metric.
                if self.lc._find_record(host, t).max_connections <= 0:
                    dropped = len(q)
                    q.clear()
                    self._last_dropped = (
                        getattr(self, "_last_dropped", 0) + dropped
                    )
                else:
                    # sleep until the next completion wakes blocked hosts
                    blocked_conn.add(host)
            else:  # -2 dead key: drop all queued URLs for this host
                dropped = len(q)
                q.clear()
                self._last_dropped = getattr(self, "_last_dropped", 0) + dropped

        self.clock = end_time
        return permits

    # --- checkpoint -----------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "num_shards": self.num_shards,
            "lc": self.lc.state_dict(),
            "lc_records": {
                k: [(r.max_connections, r.max_qps, r.window) for r in v]
                for k, v in self.lc.records.items()
            },
            "lc_options": self.lc.opt.__dict__,
            "seen": self.seen.state_dict(),
            "exact_seen": self.exact_seen,
            "seen_urls": self.seen_urls,
            "image_seen": self.image_seen.state_dict(),
            "clock": self.clock,
            "fp_audit": self.fp_audit,
            "seen_add_failures": self.seen_add_failures,
            "image_add_failures": self.image_add_failures,
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "ShardScheduler":
        obj = cls.__new__(cls)
        obj.shard_id = d["shard_id"]
        obj.num_shards = d["num_shards"]
        opt = LoadOptions(**d["lc_options"])
        recs = {
            k: [LoadRecord(mc, qps, win) for mc, qps, win in v]
            for k, v in d["lc_records"].items()
        }
        obj.lc = LoadController(opt, recs)
        obj.lc.load_state_dict(d["lc"])
        obj.seen = CuckooFilter.from_state_dict(d["seen"])
        obj.exact_seen = d["exact_seen"]
        obj.seen_urls = list(d["seen_urls"])
        obj.image_seen = CuckooFilter.from_state_dict(d["image_seen"])
        obj.clock = d["clock"]
        obj.metrics = []
        obj.fp_audit = d.get("fp_audit", 0)
        obj.seen_add_failures = d.get("seen_add_failures", 0)
        obj.image_add_failures = d.get("image_add_failures", 0)
        return obj
