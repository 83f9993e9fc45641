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

The cuckoo filter is the only URL-membership structure and decides
admission. ``admit`` returns each wave's new seen rows for the crawl to
persist, so a checkpoint (fixed-size filters, politeness state, counters)
does not grow with the number of seen URLs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from spider_ray.kernels.hashing import hash64
from spider_ray.state.cuckoo import CuckooFilter
from spider_ray.state.load_controller import LoadController, LoadOptions, LoadRecord, parse_window

# the fields of a checkpoint (``state_dict``)
_STATE_KEYS = {"shard_id", "num_shards", "lc", "lc_records", "lc_options",
               "seen", "image_seen", "clock", "seen_add_failures",
               "image_add_failures"}


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
        self.image_seen = CuckooFilter(seen_capacity)
        self.clock = 0
        # cuckoo saturation counters: CuckooFilter.add returns False when a
        # kick-out chain fails (filter near capacity) — a key that fails to
        # insert will NOT be remembered, so a later duplicate gets re-
        # admitted. That loss must be VISIBLE (metrics column), never
        # silent: a nonzero value means seen_capacity is undersized for
        # the crawl and the run's exactly-once guarantees are degraded.
        self.seen_add_failures = 0
        self.image_add_failures = 0
        # the shard's heaviest host of the last admit, and the queued URLs
        # the last run_wave dropped for dead or zero-connection hosts:
        # per-wave values, never checkpointed
        self.last_top_host, self.last_top_host_n = "", 0
        self.last_dropped = 0

    # --- admission (dedup) ----------------------------------------------------

    def admit(
        self, rows: list[dict]
    ) -> tuple[list[dict], int, list[tuple[int, str, int]]]:
        """Seen-check + add, VECTORIZED. rows need keys url, url_hash,
        tried, gen, host. Returns (accepted rows, dedup_hits, new seen
        rows): the seen rows are the accepted rows with ``tried == 0`` as
        ``(url_hash, url, first_gen)``, the wave's additions to the exact
        ``seen`` table the driver persists.

        The cuckoo filter decides: a key's FIRST occurrence is admitted
        unless the PRE-WAVE filter holds it; later occurrences in the same
        wave are always duplicates (first-wins). The membership probe runs
        once, batched, against the pre-wave filter, so intra-wave
        insertions can never cause a same-wave false positive (engine and
        oracle share this code, so it stays a parity seam)."""
        self.last_top_host, self.last_top_host_n = "", 0
        if not rows:
            return [], 0, []
        # vectorized key hashing (one polars pass, not one call per row)
        keys = hash64([f"{r['tried']}_{r['url']}" for r in rows])
        n = len(rows)
        is_first = np.zeros(n, dtype=bool)
        is_first[np.unique(keys, return_index=True)[1]] = True
        accept_mask = is_first & ~self.seen.contains_many(keys)
        hits = int(n - accept_mask.sum())

        accepted, seen_rows = [], []
        for i in np.flatnonzero(accept_mask):
            r = rows[i]
            if not self.seen.add(int(keys[i])):
                self.seen_add_failures += 1
            if r["tried"] == 0:
                seen_rows.append((int(r["url_hash"]), r["url"], int(r["gen"])))
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
        return accepted, hits, seen_rows

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
        self.last_dropped = 0
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
                # dead-key path: drop it and count it in last_dropped.
                if self.lc._find_record(host, t).max_connections <= 0:
                    self.last_dropped += len(q)
                    q.clear()
                else:
                    # sleep until the next completion wakes blocked hosts
                    blocked_conn.add(host)
            else:  # -2 dead key: drop all queued URLs for this host
                self.last_dropped += len(q)
                q.clear()

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
            "image_seen": self.image_seen.state_dict(),
            "clock": self.clock,
            "seen_add_failures": self.seen_add_failures,
            "image_add_failures": self.image_add_failures,
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "ShardScheduler":
        if d.keys() - _STATE_KEYS:  # e.g. the in-actor seen rows
            raise ValueError(
                f"checkpoint fields {sorted(d.keys() - _STATE_KEYS)} predate "
                "the per-generation seen sinks: resuming would drop earlier "
                "generations' seen rows; restart the crawl"
            )
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
        obj.image_seen = CuckooFilter.from_state_dict(d["image_seen"])
        obj.clock = d["clock"]
        obj.seen_add_failures = d["seen_add_failures"]
        obj.image_add_failures = d["image_add_failures"]
        obj.last_top_host, obj.last_top_host_n = "", 0
        obj.last_dropped = 0
        return obj
