"""The Ray-Data-native crawl loop (north rule).

Per generation (G2 loop semantics, SURVEY §3.3 — frontier[g] → schedule →
fetch → extract → frontier[g+1]):

1. candidate block refs → one ``ShardActor.normalize_split`` call per
   block, block *i* on shard actor ``i % num_shards``: normalize
   (stateless canonicalize/rules/robots/bands; each shard actor gets the
   robots table at ``reset``), then split the accepted rows by shard; the
   call also returns the block's reject counts, summed per generation into
   the ``norm_*`` metrics columns. Not Ray Data: a fixed ~80 ms per
   execution outweighs one or two blocks. Not a Ray task either: each
   concurrent task needs a task-worker process, and starting one costs
   ~0.8 s and its memory, where the shard actors are already running;
2. ``ShardActor.schedule_wave`` (raw actor: the one shared-mutable-state
   piece the Dataset API can't express) takes its part of every block as
   arguments, admits the rows in ``seq`` order against the shard's
   cuckoo filter (on the Arrow columns; only the admitted rows become
   Python dicts) and runs the politeness DES; it returns three refs — the
   shard's stats, its timed fetch permits sorted by the crawl-order key
   ``SORT_KEYS`` and its new seen rows (Arrow tables), and the driver
   writes the seen rows as the ``seen`` sink;
3. the driver merges the shards' sorted permit runs into global crawl
   order, ``PERMIT_CHUNK`` rows at a time (``_merge_runs``), splits each
   chunk by owner (``hash64(url) % pool``) and sends each
   ``FetchWorker`` that holds a warm WebIndex slice one ``fetch_derive``
   call with its rows, tagged with their position in the chunk;
4. that call fetches (fetch-sim; HTML link extraction in parse mode), runs
   the optional result handler and derives status rows, image refs, retry
   and outlink candidates in the actor — the reference's crawler, too,
   hands a page to its in-process ``CrawlTaskHandler``. The driver merges
   the owners' parts back into crawl order by position while streaming
   them into per-gen parquet sinks: (a) the status rows, (b) the next
   generation's candidates, which read only ``fetch_derive`` outputs, then
   (c) the image refs, which it admits first-wins on the shard actors,
   sending the kept ones to their owners' ``process_refs_pos``
   (decode/recompress/phash), merged the same way. An image whose stored
   bytes do not decode is skipped and counted (``images_failed``);
5. right after the generation's last ``admit_images`` calls the driver
   submits each shard's ``state_dict``, then the next generation's steps 1
   and 2 (``_submit_wave``) if that generation would start at once: a
   non-empty frontier, below ``max_gens``, and ``control.json`` neither
   pausing nor stopping it. Calls from one caller to an actor run in
   submission order, so the state blobs hold exactly this generation's
   mutations while the next generation routes and schedules on the shard
   actors as this one's images, checkpoint and metrics finish (the
   ``overlap_s`` window). The next generation reads those calls' refs only
   after this one's ``_DONE``; a stop that arrives in the meantime drops
   them;
6. checkpoint per (gen, shard): scheduler state pickle (fixed-size
   filters and politeness state) + ``_DONE`` marker +
   metrics rows (counters, and the driver wall time of each step as the
   ``PHASE_COLUMNS``) → a killed run resumes at the last complete
   generation without re-fetching (fetch lookups are counted to prove it).
   A kill inside the window leaves this generation without ``_DONE`` and
   the next without a directory, so resume starts after the previous one.

Driver round trips per generation: one ``normalize_split`` call per
candidate block and one ``schedule_wave`` per shard, submitted together
(by the previous generation when it could), one ``ray.wait`` over the
split parts, one ``ray.get`` over the stats and seen refs, one ``ray.get``
of the shards' permit runs, then per permit chunk of ``PERMIT_CHUNK`` rows
one ``fetch_derive`` call per owner, one ``admit_images`` call per shard,
one ``process_refs_pos`` call per owner and one ``ray.get`` in each sink;
last, one ``state_dict`` call per shard, gathered in one batched
``ray.get`` for the checkpoint. The next wave's start clock is the max of
the ``clock`` values ``schedule_wave`` returned. Every call goes to an
actor of the fleet, so a generation runs no Ray task and no Ray Data
execution, at any wave size.

The wave flows by OBJECT-STORE BLOCK REFS end to end: candidates enter as
block refs, permits come back from the shard actors as per-shard sorted
Arrow table refs, fetched blocks never leave the fetch actors, and every
sink (status / images / next-candidates / seen) streams one permit chunk's
small derived tables at a time through a ParquetWriter. The permit merge
copies at most ``num_shards`` × ``PERMIT_CHUNK`` rows per step, so driver
RSS is bounded by a few blocks regardless of wave or frontier size. Only
the final seen sort switches to a distributed ``ds.sort`` past
``DS_SORT_THRESHOLD`` rows.

Fleet lifecycle: a Ray session keeps ONE warm fleet of shard and fetch
actors across ``run_crawl`` calls, because starting an actor process
(``import ray``, unpickling the ``spider_ray`` modules) costs far more than
the actor's own set-up. A crawl takes the idle actors the previous
successful crawl handed back, re-initialises each through ``reset``
(which ``__init__`` also calls, so no state crosses crawls) and spawns only
what it is still short of (``_Fleet``); a fetch actor that Ray has
restarted before is replaced, so every crawl gets the full restart budget.
On success the actors drop their per-crawl state and go back to idle; on any
exception they are killed. Only a caller that crawls more than once per
session gains (the test suite and ``perfbench``'s closed loop). A one-shot
crawl still pays one fleet start, and a caller that goes on with other work
after its crawls calls ``shutdown_fleet()`` so the idle actors do not outlive
them.
"""

from __future__ import annotations

import glob
import os
import pickle
import shutil
import threading
import time

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from spider_ray.kernels.hashing import hash64
from spider_ray.pipelines.oracle import (
    MAX_GENS,
    augment_seeds,
    load_corpus_control,
    load_corpus_shard,
    load_web,
)
from spider_ray.stages.fetchsim import WebIndex, fetch_one, process_image
from spider_ray.stages.normalize import NORM_KEYS, normalize_batch, shard_meta
from spider_ray.state.load_controller import LoadOptions, apply_crawl_delays
from spider_ray.state.scheduler import SEEN_SCHEMA, FetchPermit, ShardScheduler


def _driver_rss_kb() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0

PERMIT_SCHEMA = pa.schema(
    [
        ("fetch_ts", pa.int64()),
        ("url", pa.string()),
        ("url_hash", pa.uint64()),
        ("host", pa.string()),
        ("priority", pa.int16()),
        ("gen", pa.int32()),
        ("seq", pa.int64()),
        ("depth", pa.int16()),
        ("tried", pa.int16()),
        ("referer", pa.string()),
    ]
)

# the global crawl order of a wave's permits
SORT_KEYS = [("fetch_ts", "ascending"), ("priority", "ascending"),
             ("gen", "ascending"), ("seq", "ascending"), ("host", "ascending")]

# a fetch-actor output row's position in the driver's permit chunk (or
# kept-ref list): the key the driver merges the owners' parts on
POS = "_pos"
POS_FIELD = pa.field(POS, pa.int64())


def _preload_ray_data() -> None:
    """Import Ray Data in a new crawl actor. The first Arrow table Ray hands
    the actor imports it anyway (Ray's Arrow reducer loads ray.air's tensor
    extensions, which import ray.data); in the constructor that ~0.5 s
    overlaps the driver's start-up instead of stalling generation 0."""
    import ray.data  # noqa: F401


@ray.remote
class ShardActor:
    """Owns one ShardScheduler — cuckoo filters, politeness state, clock —
    and the crawl's routing rule (robots table, ``num_shards``,
    ``hot_hosts``), so any shard actor can normalize and split a candidate
    block (``normalize_split``). Seen rows are not actor state:
    ``schedule_wave`` returns each wave's.

    One actor serves crawl after crawl of a Ray session: ``reset`` installs
    a crawl's shard state (any shard of any corpus — the actor has no
    restarts, so nothing can replay stale creation args) and ``release``
    drops it while the actor sits idle."""

    def __init__(self, *args, **kwargs):
        _preload_ray_data()
        self.reset(*args, **kwargs)

    def reset(self, shard_id, num_shards, load_rows, options_dict,
              corpus_dir, robots, hot_hosts=(),
              seen_capacity=1 << 18) -> None:
        options = LoadOptions(**options_dict) if options_dict else None
        self.sched = ShardScheduler(
            shard_id, num_shards, load_rows, options,
            seen_capacity=seen_capacity,
        )
        # the routing rule, for normalize_split
        self.robots = robots
        self.num_shards = num_shards
        self.hot_hosts = tuple(hot_hosts)
        # this shard's slice of the fetch-completion metadata, derived from
        # the actor's own pruned parquet read — the driver never holds the
        # O(corpus) dict (r2 verdict item 4)
        self.meta = shard_meta(
            corpus_dir, shard_id, num_shards, self.hot_hosts
        )

    def release(self) -> None:
        self.sched = self.meta = self.robots = None

    def normalize_split(self, block: pa.Table, gen: int):
        """One candidate block → its accepted rows (``normalize_batch``)
        split by shard, then its normalize counts; called with
        ``num_returns=num_shards + 1``. Return s < num_shards holds shard
        s's rows, or none (same schema) where the block has none for it.
        A pure function of the block and the crawl's routing rule, so any
        shard actor may split any block."""
        out, m = normalize_batch(
            block, self.robots, self.num_shards, gen, hot_hosts=self.hot_hosts
        )
        out = out.sort_by("shard")
        cuts = np.searchsorted(
            out["shard"].to_numpy(), np.arange(self.num_shards + 1)
        ).tolist()
        return (*(out.slice(lo, hi - lo) for lo, hi in zip(cuts, cuts[1:])), m)

    @ray.method(num_returns=3)
    def schedule_wave(
        self, wave_start: int, *tables: pa.Table
    ) -> tuple[dict, pa.Table, pa.Table]:
        """Admit this shard's part of every candidate block (one table per
        ``normalize_split`` call, whichever shard actor made it) and run
        the politeness DES. Returns (stats, this shard's permits as one
        Arrow table sorted by ``SORT_KEYS``, the wave's new seen rows as a
        ``SEEN_SCHEMA`` table): the driver ``ray.get``s the stats and seen
        refs and merges the shards' permit runs (``_merge_runs``)."""
        # admit works on the seq-sorted columns; only its accepted rows
        # become the dicts the DES consumes
        wave = pa.concat_tables(tables).sort_by("seq")
        accepted, hits, seen_t = self.sched.admit(wave)
        permits = self.sched.run_wave(accepted, wave_start, self.meta)
        stats = {
            "dedup_hits": hits,
            "candidates": wave.num_rows,
            "scheduled": len(permits),
            "top_host": self.sched.last_top_host,
            "top_host_n": self.sched.last_top_host_n,
            # queued URLs this wave dropped for dead-key or
            # zero-connection hosts
            "dropped": self.sched.last_dropped,
            "seen_size": self.sched.seen.size,
            # the next wave starts at the max of these: nothing between
            # schedule_wave and the checkpoint moves a shard's clock
            "clock": self.sched.clock,
            # cumulative cuckoo insert failures (filter saturation) —
            # nonzero means seen_capacity is undersized and exactly-once
            # is degraded
            "cuckoo_add_failures": (
                self.sched.seen_add_failures + self.sched.image_add_failures
            ),
        }
        # run_wave emits crawl order already; the driver's merge must not
        # rest on that
        return stats, pa.Table.from_pylist(
            [p.__dict__ for p in permits], schema=PERMIT_SCHEMA
        ).sort_by(SORT_KEYS), seen_t

    def admit_images(self, hashes: np.ndarray) -> np.ndarray:
        return self.sched.admit_images(hashes)

    def state_dict(self) -> bytes:
        return pickle.dumps(self.sched.state_dict())

    def load_state(self, blob: bytes) -> None:
        self.sched = ShardScheduler.from_state_dict(pickle.loads(blob))


class FetchWorker:
    """Actor-pool fetch + derive + decode stage: WebIndex built once per
    actor in ``__init__`` (T6 warm state), per-chunk work is fetch-sim, the
    result handler and the derivations (``fetch_derive``), then image
    decode/recompress/phash (``process_refs_pos``).

    With ``num_owners > 1`` (the crawl loop's fetch pool) each actor
    holds only its SLICE of the simulated web — pages by URL hash
    (NOT host hash: fetch-sim is per-URL pure and URL hashing stays
    balanced under hot hosts), image payloads by image_id hash
    (``oracle.load_corpus_shard``) — so per-actor RSS is
    O(corpus / pool) instead of O(corpus). The driver routes permits and
    image refs to the owning actor BY THE SAME KEYS (``_by_owner``:
    hash64(url) / hash64(image_id) mod pool — the dispatch key and the
    slice predicate must stay aligned or lookups silently 404) and merges
    the results back into crawl order on the ``POS`` column every output
    row carries. ``num_owners == 1`` keeps the full index (the
    single-actor / test construction).

    In the crawl's warm fleet ``reset`` rebuilds the index for the next
    crawl and ``release`` drops it while the actor sits idle; the fleet
    only ever resets an actor to its own creation args (see
    ``FetchActorCls``)."""

    def __init__(self, *args, **kwargs):
        _preload_ray_data()
        self.reset(*args, **kwargs)

    def reset(
        self,
        corpus_dir: str,
        owner: int = 0,
        num_owners: int = 1,
        parse_html: bool = False,
    ) -> bool:
        """Build the index slice; returns whether Ray has restarted this
        actor before. Such an actor has spent part of its restart budget,
        so the fleet replaces it rather than reuse it."""
        if num_owners <= 1:
            c = load_web(corpus_dir, parse_html=parse_html)
            self.index = WebIndex(
                c["pages"], c["images"], parse_html=parse_html
            )
        else:
            c = load_corpus_shard(
                corpus_dir, owner, num_owners, parse_html=parse_html
            )
            self.index = WebIndex(
                c["pages"],
                c["images"],
                image_members=c["image_members"],
                parse_html=parse_html,
            )
        # not was_current_actor_reconstructed: it reads the deprecated
        # actor_id property, which logs a warning on every call
        actor_id = ray.get_runtime_context().get_actor_id()
        info = ray._private.state.actors(actor_id) if actor_id else {}
        return bool(info) and info["NumRestarts"] != 0

    def release(self) -> None:
        self.index = None

    def fetch_batch(self, batch: pa.Table) -> pa.Table:
        # The per-URL fetch_one() call is the per-row DES/fetch contract and
        # stays a loop; everything the permit merely passes through stays
        # COLUMNAR (zero-copy from the input batch) — only the fetch RESULT
        # fields are accumulated row-wise.
        fetch_ts = batch["fetch_ts"].to_pylist()
        urls = batch["url"].to_pylist()
        url_hash = batch["url_hash"].to_pylist()
        hosts = batch["host"].to_pylist()
        prio = batch["priority"].to_pylist()
        gens = batch["gen"].to_pylist()
        seqs = batch["seq"].to_pylist()
        depths = batch["depth"].to_pylist()
        trieds = batch["tried"].to_pylist()
        referers = batch["referer"].to_pylist()
        status, eff, retry, viap, outlinks, images = [], [], [], [], [], []
        for i in range(batch.num_rows):
            p = FetchPermit(
                fetch_ts=fetch_ts[i], url=urls[i], url_hash=url_hash[i],
                host=hosts[i], priority=prio[i], gen=gens[i],
                seq=seqs[i], depth=depths[i], tried=trieds[i],
                referer=referers[i],
            )
            res = fetch_one(p, self.index)
            status.append(res.status)
            eff.append(res.effective_url)
            retry.append(res.retry)
            viap.append(res.via_proxy)
            outlinks.append(
                [{"url": o["url"], "depth": o["depth"]} for o in res.outlink_rows]
            )
            images.append(res.image_rows)
        return pa.table(
            {
                "url": batch["url"].cast(pa.string()),
                "host": batch["host"].cast(pa.string()),
                "fetch_ts": batch["fetch_ts"].cast(pa.int64()),
                "gen": batch["gen"].cast(pa.int32()),
                "seq": batch["seq"].cast(pa.int64()),
                "priority": batch["priority"].cast(pa.int16()),
                "depth": batch["depth"].cast(pa.int16()),
                "tried": batch["tried"].cast(pa.int16()),
                "referer": batch["referer"].cast(pa.string()),
                "status": pa.array(status, pa.int32()),
                "effective_url": pa.array(eff, pa.string()),
                "retry": pa.array(retry, pa.bool_()),
                "via_proxy": pa.array(viap, pa.string()),
                "outlinks": pa.array(
                    outlinks,
                    pa.list_(pa.struct([("url", pa.string()), ("depth", pa.int64())])),
                ),
                "images": pa.array(
                    images,
                    pa.list_(
                        pa.struct(
                            [("image_id", pa.string()), ("alt", pa.string())]
                        )
                    ),
                ),
            }
        )

    @ray.method(num_returns=4)
    def fetch_derive(self, handler, permits: pa.Table):
        """Fetch this owner's rows of one permit chunk and derive from them
        in place (``_derive_block``, result handler first). Every output
        row carries its permit's ``POS``, so the driver can merge the
        owners' parts back into crawl order. Pure per permit, so Ray may
        retry it on a restarted actor."""
        block = self.fetch_batch(permits).append_column(POS, permits[POS])
        return _derive_block(handler, block)

    @ray.method(num_returns=2)
    def process_refs_pos(
        self, refs: list[dict], gen: int, positions: list[int]
    ) -> tuple[pa.Table, int]:
        """Decode/recompress/phash the deduped image refs (post-dedup only —
        each unique image is processed exactly once per run). Each row
        keeps its ref's position in ``POS``, so the driver can merge the
        owners' parts back into the kept refs' order. Returns the rows and
        the number of refs whose stored bytes did not decode, which have
        no row (``process_image`` returns ``None``)."""
        rows, failed = [], 0
        for r, p in zip(refs, positions):
            row = self.index.images.get(r["image_id"])
            if row is None:
                continue
            img = process_image(row, r["alt"])
            if img is None:
                failed += 1
            else:
                rows.append({**img, "first_gen": gen, POS: p})
        return (
            pa.Table.from_pylist(rows, schema=IMAGE_SCHEMA.append(POS_FIELD)),
            failed,
        )


IMAGE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int64()),
        ("h", pa.int64()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("dims_ok", pa.bool_()),
        ("first_gen", pa.int32()),
    ]
)

# FetchWorker output minus the two list columns — the per-gen status sink
STATUS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("fetch_ts", pa.int64()),
        ("gen", pa.int32()),
        ("seq", pa.int64()),
        ("priority", pa.int16()),
        ("depth", pa.int16()),
        ("tried", pa.int16()),
        ("referer", pa.string()),
        ("status", pa.int32()),
        ("effective_url", pa.string()),
        ("retry", pa.bool_()),
        ("via_proxy", pa.string()),
    ]
)


# Fetch actors are deterministic and stateless across calls (a restart
# rebuilds the WebIndex in __init__), so Ray may transparently restart one
# that dies and retry its in-flight calls — a fetch_derive result is a pure
# function of its permit rows (and the handler), and process_refs_pos of
# its refs. The restart budget spans the actor's life,
# not one crawl, so the warm fleet replaces an idle fetch actor that has
# restarted before (its reset says so) and every crawl starts with the full
# budget. A restart also replays the ORIGINAL constructor args: that is why
# the fleet reuses a fetch actor only for identical (corpus_dir, owner,
# num_owners, parse_html) — one reset to another corpus or slice would come
# back from a restart holding the wrong slice and 404 silently. ShardActor
# deliberately has NO restarts: its scheduler state is only valid as of the
# last per-gen checkpoint, so a mid-wave death must fail the run loudly and
# be recovered via run_crawl(resume=True) from the last _DONE generation
# (never silently with empty state).
FetchActorCls = ray.remote(max_restarts=2, max_task_retries=2)(FetchWorker)


# --- the warm fleet ----------------------------------------------------------

# (Ray session, idle shard actors, {fetch creation args: idle fetch actor})
# as the last successful crawl handed them back, or None. Module state on
# purpose: a driver process has one Ray session, and run_crawl takes no
# fleet argument. The lock guards it against crawls run from threads.
_IDLE: tuple[tuple, list, dict] | None = None
_IDLE_LOCK = threading.Lock()


def _session_key() -> tuple:
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def _take_idle() -> tuple[list, dict]:
    """Every idle actor of this Ray session, now the caller's. Handles from
    an ended session (``ray.shutdown`` then ``ray.init``) are dead and are
    forgotten."""
    global _IDLE
    with _IDLE_LOCK:
        idle, _IDLE = _IDLE, None
    if idle is None or idle[0] != _session_key():
        return [], {}
    return idle[1], idle[2]


def _park(shards: list, fetch: dict) -> None:
    """Add actors to this Ray session's idle fleet."""
    global _IDLE
    key = _session_key()
    with _IDLE_LOCK:
        if _IDLE is None or _IDLE[0] != key:
            _IDLE = (key, [], {})
        _IDLE[1].extend(shards)
        _IDLE[2].update(fetch)


def shutdown_fleet() -> None:
    """Kill this Ray session's idle crawl actors (the next ``run_crawl``
    then starts a fresh fleet)."""
    shards, fetch = _take_idle()
    for a in shards + list(fetch.values()):
        ray.kill(a)


class _Fleet:
    """The shard and fetch actors one ``run_crawl`` call holds.

    ``acquire`` takes the session's idle actors, resets those that fit,
    spawns the rest and kills the idle ones it cannot use, so a session
    keeps at most one crawl's fleet warm. ``release`` hands the actors back
    to idle without their per-crawl state; ``kill`` is the exception path.
    ``spawned`` counts the actors this call created; ``ready_s()`` is the
    driver wall time from each acquire until every actor it handed out had
    answered its reset or construction, summed over acquires."""

    def __init__(self):
        self.shards: list = []
        self.fetch_pool: list = []
        self.fetch_args: list[tuple] = []
        self.spawned = 0
        self._ready: list[float] = []
        self._waiters: list[threading.Thread] = []

    def acquire(self, shard_args: list[tuple], fetch_args: list[tuple]) -> None:
        t0 = time.perf_counter()
        idle_shards, idle_fetch = _take_idle()
        wanted = [
            (ShardActor, idle_shards.pop() if idle_shards else None, a)
            for a in shard_args
        ] + [(FetchActorCls, idle_fetch.pop(a, None), a) for a in fetch_args]
        for a in idle_shards + list(idle_fetch.values()):
            ray.kill(a)
        started = [self._start(cls, idle, args) for cls, idle, args in wanted]
        handles = [h for h, _ in started]
        refs = [r for _, r in started]
        self.shards += handles[: len(shard_args)]
        self.fetch_pool = handles[len(shard_args):]
        self.fetch_args = list(fetch_args)
        # wait for the resets only: an idle actor that died between crawls
        # fails its reset, and a fetch actor that has restarted before says
        # so in its reset; both are replaced. New actors start while the
        # crawl goes on (their first call waits for them), so a one-shot
        # crawl's fleet start still overlaps the driver's own start-up work.
        for i, (cls, idle, args) in enumerate(wanted):
            if idle is None:
                continue
            try:
                replace = ray.get(refs[i])
            except ray.exceptions.RayActorError:
                replace = True
            if replace:
                ray.kill(idle)
                pool = self.shards if cls is ShardActor else self.fetch_pool
                pool[pool.index(idle)], refs[i] = self._start(cls, None, args)
        waiter = threading.Thread(
            target=self._await, args=(t0, refs), daemon=True
        )
        waiter.start()
        self._waiters.append(waiter)

    def _start(self, cls, idle, args: tuple):
        """(handle, ref that resolves once the actor is ready)."""
        if idle is not None:
            return idle, idle.reset.remote(*args)
        self.spawned += 1
        h = cls.remote(*args)
        return h, h.__ray_ready__.remote()

    def _await(self, t0: float, refs: list) -> None:
        ray.wait(refs, num_returns=len(refs))
        self._ready.append(time.perf_counter() - t0)

    def ready_s(self) -> float:
        for w in self._waiters:
            w.join()
        return sum(self._ready)

    def release_fetch(self) -> None:
        for a in self.fetch_pool:
            a.release.remote()
        _park([], dict(zip(self.fetch_args, self.fetch_pool)))
        self.fetch_pool, self.fetch_args = [], []

    def release(self) -> None:
        for a in self.shards:
            a.release.remote()
        _park(self.shards, {})
        self.shards = []
        self.release_fetch()

    def kill(self) -> None:
        for a in self.shards + self.fetch_pool:
            ray.kill(a)


def _seeds_candidates(seeds: pa.Table) -> pa.Table:
    return pa.table(
        {
            "url": seeds["url"],
            "depth": seeds["depth"],
            "tried": pa.array([0] * seeds.num_rows, pa.int16()),
            "priority": seeds["priority"],
            "referer": seeds["referer"],
        }
    )


def _with_seq(t: pa.Table) -> pa.Table:
    if "seq" in t.column_names:
        return t
    return t.append_column("seq", pa.array(np.arange(t.num_rows), pa.int64()))


CANDIDATE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("depth", pa.int16()),
        ("tried", pa.int16()),
        ("priority", pa.int16()),
        ("referer", pa.string()),
    ]
)

# driver wall time of each numbered step of a generation, in the order they
# run, in metrics.parquet: 1 normalize+route, 2 schedule, 3-4a permit merge
# + fetch + derive + status sink, 4b next candidates, 4c-5 image
# admit+process (the next generation's shard calls go out inside it),
# 6 checkpoint. A generation whose shard calls (1-2) the previous one
# submitted early shows only the leftover wait for them in route_s /
# schedule_s; the previous generation's overlap_s column is the driver wall
# those calls had to run in. The first generation's route_s also waits for
# newly spawned shard actors to start (~2 s in a one-shot crawl on 4 CPUs,
# against ~0.07 s warm): it is not all normalize time.
PHASE_COLUMNS = ("route_s", "schedule_s", "fetch_s", "candidates_s",
                 "images_s", "checkpoint_s")

DS_SORT_THRESHOLD = 200_000  # seen rows above this use a distributed ds.sort


SINK_ROLL_BYTES = 128 << 20  # roll per-gen sink files past ~128 MB


class RollingWriter:
    """Single-logical-stream parquet sink that ROLLS to a new part file
    once the current one passes ``roll_bytes`` — the resumable-output rule
    ("never one giant file"): ``<base>.parquet`` then
    ``<base>.part00001.parquet``, … ``read_sink`` orders parts by PARSED
    index (not lexicographically), so the stream order survives any part
    count. At demo scale everything lands in the single base file, so
    small-corpus readers and old outputs are untouched."""

    def __init__(self, dir_: str, base: str,
                 roll_bytes: int | None = None):
        self.dir = dir_
        self.base = base
        # resolved at call time so tests can lower the module constant
        self.roll_bytes = (
            roll_bytes if roll_bytes is not None else SINK_ROLL_BYTES
        )
        self.writer = None
        self.part = 0
        self.cur_bytes = 0
        self.n_rows = 0

    def _path(self) -> str:
        if self.part == 0:
            return os.path.join(self.dir, f"{self.base}.parquet")
        return os.path.join(
            self.dir, f"{self.base}.part{self.part:05d}.parquet"
        )

    def write(self, t: pa.Table) -> None:
        if t.num_rows == 0:
            return
        if self.writer is not None and self.cur_bytes >= self.roll_bytes:
            self.writer.close()
            self.writer = None
            self.part += 1
            self.cur_bytes = 0
        if self.writer is None:
            self.writer = pq.ParquetWriter(self._path(), t.schema)
        self.writer.write_table(t)
        self.cur_bytes += t.nbytes
        self.n_rows += t.num_rows

    def close(self, empty_schema: pa.Schema) -> None:
        if self.writer is None:
            pq.write_table(
                pa.Table.from_pylist([], schema=empty_schema), self._path()
            )
        else:
            self.writer.close()


def read_sink(dir_: str, base: str) -> pa.Table:
    """Read one logical sink stream back (base file + rolled parts, in
    STREAM order — parts sort numerically by parsed index, so the order
    holds no matter how many digits a part number grows to)."""
    import re as _re

    name = base[: -len(".parquet")] if base.endswith(".parquet") else base
    part_re = _re.compile(
        _re.escape(name) + r"\.part(\d+)\.parquet$"
    )

    def _order(p: str) -> int:
        m = part_re.search(os.path.basename(p))
        return int(m.group(1)) if m else 0  # base file = part 0

    paths = sorted(
        glob.glob(os.path.join(dir_, f"{name}*.parquet")), key=_order
    )
    return pa.concat_tables(
        [pq.read_table(p) for p in paths], promote_options="default"
    )


def _done_gens(out_dir: str) -> list[int]:
    """The generations with a ``_DONE`` marker, ascending."""
    return sorted(
        int(d.split("=")[1])
        for d in os.listdir(out_dir)
        if d.startswith("gen=")
        and os.path.exists(os.path.join(out_dir, d, "_DONE"))
    )


def _with_sort_key(t: pa.Table) -> pa.Table:
    """Seen rows plus the order-preserving int64 image of ``url_hash``."""
    uh = t["url_hash"].to_numpy()
    return t.append_column(
        "sort_key", pa.array((uh ^ np.uint64(1 << 63)).view(np.int64))
    )


# --- per-block work (refs-mode wave flow) ----------------------------------


def _derive_block(handler, block: pa.Table):
    """One owner's fetched rows of a permit chunk → (status rows, image
    refs, retry candidates, outlink candidates), each row tagged with its
    permit's ``POS``. Runs inside the fetch actor (``fetch_derive``), so
    the fetched block itself never leaves it.

    ``handler`` is the user extension seam — the CrawlTaskHandler analog
    (reference crawler.h:29-35, wired in crawler_main.cc:65-75): an optional
    callable applied to the block BEFORE the derivations, in the owning
    fetch actor (it is ``ray.put`` once and dereferenced per call, never
    re-shipped per batch). It may filter rows, rewrite values, or append
    columns (appended columns flow into the status sink); it must preserve
    the FetchWorker output columns the derivations read, ``POS`` included.

    Image refs keep in-page order (polars explode keeps it) and the driver's
    stable merge on ``POS`` restores crawl order. The wave-level candidate
    sequence is ALL retries (crawl order) then ALL outlinks (crawl order) —
    the seq-assignment seam the oracle shares."""
    if handler is not None:
        out = handler(block)
        missing = [c for c in block.column_names if c not in out.column_names]
        if missing:
            raise ValueError(
                f"result_handler dropped required fetched-block columns {missing}"
            )
        block = out
    fdf = pl.from_arrow(block)
    image_refs = (
        fdf.select(POS, "images")
        .explode("images", empty_as_null=False)
        .drop_nulls("images")
        .unnest("images")
    )
    retries = fdf.filter(pl.col("retry")).select(
        pl.col("url"),
        pl.col("depth").cast(pl.Int16),
        (pl.col("tried") + 1).cast(pl.Int16).alias("tried"),
        pl.col("priority").cast(pl.Int16),
        pl.col("referer"),
        pl.col(POS),
    )
    outlinks = (
        fdf.select(POS, "effective_url", "outlinks")
        .explode("outlinks", empty_as_null=False)
        .drop_nulls("outlinks")
        .unnest("outlinks")
        .select(
            pl.col("url"),
            pl.col("depth").cast(pl.Int16),
            pl.lit(0, dtype=pl.Int16).alias("tried"),
            pl.lit(None, dtype=pl.Int16).alias("priority"),
            pl.col("effective_url").alias("referer"),
            pl.col(POS),
        )
    )
    schema = CANDIDATE_SCHEMA.append(POS_FIELD)
    return (
        block.drop_columns(["outlinks", "images"]),
        image_refs.to_arrow(),
        retries.to_arrow().cast(schema),
        outlinks.to_arrow().cast(schema),
    )


# --- owner routing (driver side) ------------------------------------------


def _by_owner(hashes: np.ndarray, pool_size: int):
    """(owner, row indices) for each owner of some of the rows with these
    hash64 keys, owner ``hash % pool_size``: the predicate
    ``load_corpus_shard`` slices the corpus by, and the shard actors' split
    of image hashes."""
    owners = hashes % np.uint64(pool_size)
    for o in np.unique(owners):
        yield int(o), np.flatnonzero(owners == o)


def _merge_runs(runs: list[pa.Table], chunk: int):
    """Merge tables each sorted by ``SORT_KEYS`` into one stream in
    ``SORT_KEYS`` order: the rows of ``pa.concat_tables(runs).sort_by(
    SORT_KEYS)`` (a stable sort, so full-key ties keep run order), yielded
    as tables of 1 to ``chunk`` rows. The next ``chunk`` rows of the merge
    lie among each run's next ``chunk`` rows, so each step sorts only those
    heads and advances each run by the rows it gave."""
    runs = [r for r in runs if r.num_rows]
    while runs:
        heads = pa.concat_tables([r.slice(0, chunk) for r in runs])
        idx = pc.sort_indices(heads, sort_keys=SORT_KEYS)[:chunk].to_numpy()
        run_of = np.repeat(
            np.arange(len(runs)), [min(r.num_rows, chunk) for r in runs]
        )
        used = np.bincount(run_of[idx], minlength=len(runs))
        yield heads.take(idx)
        runs = [r.slice(n) for r, n in zip(runs, used) if r.num_rows > n]


def _dispatch_fetch(pool: list, handler, blocks) -> list[list]:
    """Send each permit chunk's rows to the fetch actors that own them,
    tagged with their position in the chunk: one ``fetch_derive`` call per
    owner. Returns, per chunk, its calls (four refs each)."""
    calls = []
    for b in blocks:
        b = b.append_column(POS, pa.array(np.arange(b.num_rows), pa.int64()))
        calls.append([
            pool[o].fetch_derive.remote(handler, b.take(ix))
            for o, ix in _by_owner(hash64(b["url"]), len(pool))
        ])
    return calls


# permit rows per fetch chunk, the unit of one fetch_derive call per owner,
# of one ray.get per sink and of one image-admit round. Big enough that a
# chunk's fixed costs (an actor call with four returns per owner, a get)
# stay small next to its fetches at any pool size; the driver holds one
# chunk's small derived tables at a time.
PERMIT_CHUNK = 2048


def _submit_wave(actors: list, blocks: list, gen: int, wave_start: int):
    """Steps 1-2 of generation ``gen``, submitted without waiting: one
    ``normalize_split`` call per candidate block, block *i* on shard actor
    ``i % num_shards``, then one ``schedule_wave`` per shard taking its part
    of every block. Returns (the split calls' refs, the schedule calls'
    refs)."""
    n = len(actors)
    parts = [
        actors[i % n].normalize_split.options(num_returns=n + 1).remote(b, gen)
        for i, b in enumerate(blocks)
    ]
    return parts, [
        a.schedule_wave.remote(wave_start, *(p[s] for p in parts))
        for s, a in enumerate(actors)
    ]


def _write_checkpoint(gen_dir: str, blobs: list[bytes], wave_start: int) -> None:
    """One generation's resume state: each shard's scheduler pickle and the
    next wave's start clock. The generation counts as done only once its
    ``_DONE`` marker follows."""
    for s, blob in enumerate(blobs):
        with open(os.path.join(gen_dir, "ckpt", f"shard_{s}.pkl"), "wb") as f:
            f.write(blob)
    with open(os.path.join(gen_dir, "ckpt", "wave_start.txt"), "w") as f:
        f.write(str(wave_start))


def _pull_merged(groups: list[list]):
    """Yield each group of owner parts as one table in its chunk's order,
    ``POS`` dropped. The sort runs for one owner too (a result handler may
    reorder its rows) and is stable, so the rows one permit emits (its
    images, its outlinks) keep their order."""
    for g in groups:
        t = pa.concat_tables(ray.get(g), promote_options="default")
        t = t.take(np.argsort(t[POS].to_numpy(), kind="stable"))
        yield t.drop_columns([POS])


def run_crawl(
    corpus_dir: str,
    out_dir: str,
    num_shards: int = 4,
    max_gens: int = MAX_GENS,
    options: LoadOptions | None = None,
    fetch_concurrency: int = 4,
    resume: bool = False,
    seen_capacity: int = 1 << 18,
    hot_hosts: tuple[str, ...] = (),
    host_ips: dict[str, list[str]] | None = None,
    hot_ips: tuple[str, ...] = (),
    result_handler=None,
    sitemap_seeds: bool = False,
    parse_html: bool = False,
) -> dict:
    """Run (or resume) the crawl; writes per-gen parquet sinks under
    ``out_dir`` and returns summary paths + counters.

    ``result_handler`` is the user-extension seam (§2.10; reference
    ``CrawlTaskHandler``, crawler.h:29-35): an optional picklable callable
    ``pa.Table -> pa.Table`` that runs inside the owning fetch actor, on
    that owner's fetched rows of each permit chunk, before the status /
    image / candidate derivations (see ``_derive_block``). It must keep
    every column it is given, the ``POS`` position column included; the
    driver merges on it, so the sink rows come back in crawl order.
    ``None`` (default) keeps the engine's exact oracle-parity behavior; a
    handler that filters rows or rewrites outlink/retry columns
    deliberately changes the downstream crawl — that is the point of the
    hook, and it is the caller's contract.

    ``hot_ips`` is the IP-level diversion valve (J4,
    ip_url_split.cc:21,85-97): every host whose resolved IP (per
    ``host_ips``) is hot gets the SAME dedicated-shard treatment as an
    explicit hot host — its politeness budget owns one proxy-flagged
    partition and stops competing with hash-assigned hosts. The derivation
    is deterministic (sorted host walk), so it is a parity seam shared with
    the oracle, which receives the derived host set."""
    import json

    if hot_ips:
        if not host_ips:
            raise ValueError("hot_ips requires a host_ips resolution table")
        derived = tuple(
            h
            for h in sorted(host_ips)
            if any(ip in hot_ips for ip in host_ips[h])
            and h not in hot_hosts
        )
        hot_hosts = tuple(hot_hosts) + derived

    os.makedirs(out_dir, exist_ok=True)
    if not resume:
        stale = [
            d for d in os.listdir(out_dir) if d.startswith("gen=")
        ]
        if stale:
            # a fresh run must own the whole out_dir: a COMPLETED old gen
            # (with _DONE) survives the per-gen markerless cleanup below,
            # and its extra rolled sink parts would be concatenated by
            # read_sink alongside the new run's output (double-count)
            raise ValueError(
                f"out_dir {out_dir} already holds generations "
                f"({sorted(stale)[:3]}…); pass resume=True to continue "
                "that run, or point a fresh run at an empty directory"
            )
        # NOTE: a pre-existing control.json is deliberately honored by a
        # fresh run — it is a live control channel (T8 zk-watch analog),
        # and pre-seeding directives (pause, stop_after_gen,
        # fetch_concurrency) before launch is part of its contract
        # (test_dynamic_control_stop_and_resume does exactly that)
    # pin the run's sharding topology: shard assignment (num_shards,
    # hot_hosts) and seen-set sizing are part of the checkpointed state —
    # a resume under a DIFFERENT topology would silently re-route hosts
    # away from the actors holding their politeness/seen state
    cfg_path = os.path.join(out_dir, "run_config.json")
    # hash-provider canary: checkpoints and sinks persist hash64 outputs
    # (cuckoo fingerprints, the seen sinks' url_hash), but the polars xxhash
    # kernel only guarantees determinism within one environment. A resume
    # under a polars build that hashes differently would silently miss
    # every restored seen key and re-fetch the whole history — reject it
    # loudly instead by pinning a canary hash at run start.
    canary = int(hash64(["spider-ray-hash-canary-v1"])[0])
    cfg = {
        "num_shards": num_shards,
        "hot_hosts": list(hot_hosts),
        "seen_capacity": seen_capacity,
        "sitemap_seeds": bool(sitemap_seeds),
        "hash_canary": canary,
    }
    if resume and os.path.exists(cfg_path):
        with open(cfg_path) as f:
            stored = json.load(f)
        if stored.get("hash_canary", canary) != canary:
            raise ValueError(
                "resume hash-provider mismatch: the checkpointed run's "
                f"hash64 canary {stored['hash_canary']} != this "
                f"environment's {canary} (different polars build?); the "
                "persisted seen-set/url_hash values are not comparable — "
                "resume on the original environment or restart the crawl"
            )
        # checkpoints written before sitemap_seeds existed lack the key;
        # those runs were necessarily started without sitemap seeding, so
        # default it rather than failing the whole-dict comparison
        stored.setdefault("sitemap_seeds", False)
        topo = {k: v for k, v in cfg.items() if k != "hash_canary"}
        stored_topo = {k: v for k, v in stored.items() if k != "hash_canary"}
        if stored_topo != topo:
            raise ValueError(
                f"resume topology mismatch: run was started with "
                f"{stored_topo}, resume requested {topo}; pass identical "
                "num_shards / hot_hosts / seen_capacity (they shard the "
                "checkpointed scheduler state)"
            )
    else:
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
    c = load_corpus_control(corpus_dir)
    if sitemap_seeds:
        # sitemap-driven frontier seeding (robots Sitemap: directives →
        # urlset/<sitemapindex> mining): the DISTRIBUTED discovery chain
        # (functions/sitemap.py) appends its candidates to the seed
        # frontier in deterministic (host, url) order; unknown (fresh)
        # URLs 404-terminate like any dead link, already-crawled ones
        # dedup through the canonicalize+seen pass. The oracle runs an
        # independent single-process discovery (oracle.sitemap_seed_urls)
        # — crawl parity under this flag tests the whole chain.
        from spider_ray.functions.sitemap import sitemap_candidates

        c["seeds"] = augment_seeds(
            c["seeds"], sitemap_candidates(corpus_dir)["url"].to_pylist()
        )
    # robots Crawl-delay → per-host QPS caps (shared derivation with the
    # oracle: politeness parity by construction)
    c["load_rows"] = apply_crawl_delays(c["load_rows"], c["robots"], options)
    robots_ref = ray.put(c["robots"])
    # put the user handler once; every fetch_derive call derefs the same object
    handler_ref = ray.put(result_handler) if result_handler is not None else None
    options_dict = (options or LoadOptions()).__dict__

    # size the per-shard cuckoo to the expected URL population: checkpoint
    # size is proportional (2 filters x 2B/slot), so oversizing inflates
    # per-gen checkpoint writes
    shard_args = [
        (s, num_shards, c["load_rows"], options_dict, corpus_dir,
         robots_ref, tuple(hot_hosts), seen_capacity)
        for s in range(num_shards)
    ]

    # fetch actor pool: each actor builds ITS SLICE of the WebIndex once
    # per crawl (pages by URL hash — the same predicate load_corpus_shard
    # and the dispatch key use; NOT host hash — and image payloads by
    # image_id hash) and keeps it across every generation of this run —
    # per-actor RSS is O(corpus / pool), not O(corpus)
    # parse_html (opt-in M8-over-bytes mode) is NOT a topology key: it is
    # byte-equal to table mode on round-trip corpora (pinned by test), so
    # a resume may toggle it freely — the checkpointed scheduler state is
    # unaffected.
    def fetch_args(n: int) -> list[tuple]:
        return [(corpus_dir, i, n, parse_html) for i in range(n)]

    # everything from here on runs against live actors. Only a successful
    # crawl hands its fleet back to the session's idle list; ANY other exit
    # — mid-wave actor death, a driver exception, an interrupt — kills it,
    # so no actor in an unknown state (a scheduler mid-wave) is ever reused
    fleet = _Fleet()
    try:
        fleet.acquire(shard_args, fetch_args(fetch_concurrency))
        actors = fleet.shards

        def _as_blocks(t: pa.Table) -> tuple[list, int]:
            """Chunk a candidate table into object-store block refs — from here
            on the wave flows by refs."""
            return [
                ray.put(t.slice(i, 4096)) for i in range(0, t.num_rows, 4096)
            ], t.num_rows

        start_gen = 0
        cand_blocks, cand_count = _as_blocks(_with_seq(_seeds_candidates(c["seeds"])))
        wave_start = 0
        if resume:
            done_gens = _done_gens(out_dir)
            if done_gens:
                g = done_gens[-1]
                ck = os.path.join(out_dir, f"gen={g}", "ckpt")
                for s, a in enumerate(actors):
                    with open(os.path.join(ck, f"shard_{s}.pkl"), "rb") as f:
                        ray.get(a.load_state.remote(f.read()))
                cand_blocks, cand_count = _as_blocks(
                    read_sink(os.path.join(out_dir, f"gen={g}"), "next_candidates")
                )
                with open(os.path.join(ck, "wave_start.txt")) as f:
                    wave_start = int(f.read())
                start_gen = g + 1

        # T8 dynamic-config watch (zk-watch analog, job_manager.cc:191-237):
        # `control.json` in out_dir is re-read at every generation boundary.
        # Hot-swappable mid-run: pause, graceful stop_after_gen (resumable —
        # the normal resume path continues the crawl), fetch_concurrency
        # (fetch actors are stateless, so the pool resizes freely). Politeness
        # / sharding knobs are deliberately NOT hot-swappable — they shard the
        # checkpointed scheduler state (same invariant the resume topology
        # check enforces).
        ctl_path = os.path.join(out_dir, "control.json")

        def _read_control() -> dict:
            try:
                with open(ctl_path) as f:
                    return json.load(f)
            except (OSError, ValueError):
                return {}

        def _stopped(ctl: dict, g: int) -> bool:
            """Whether a ``stop_after_gen`` directive ends the crawl before
            generation ``g``. A directive SATISFIED by a previous attempt
            (resume starts past it) is spent — honoring it literally would
            make every resume after a graceful stop a no-op; the resume
            path is the documented way to continue the crawl."""
            sag = ctl.get("stop_after_gen")
            return sag is not None and start_gen <= int(sag) < g

        stopped_by_control = False
        total_fetched = 0
        # generation gen's shard calls (steps 1-2), when the previous
        # generation submitted them early (step 5)
        wave = None
        for gen in range(start_gen, max_gens):
            if cand_count == 0:
                break
            ctl = _read_control()
            while ctl.get("pause"):
                time.sleep(0.2)
                ctl = _read_control()
            if _stopped(ctl, gen):
                # drops an early-submitted wave: the shard state it moved
                # is never checkpointed, and the fleet resets it
                stopped_by_control = True
                break
            gen_t0 = time.perf_counter()
            want = int(ctl.get("fetch_concurrency") or 0)
            if want > 0 and want != len(fleet.fetch_pool):
                # index slices are a function of the pool size, so a
                # resize swaps the whole (stateless) pool rather than
                # appending/popping actors with stale slice assignments
                fleet.release_fetch()
                fleet.acquire([], fetch_args(want))
            gen_dir = os.path.join(out_dir, f"gen={gen}")
            if os.path.isdir(gen_dir) and not os.path.exists(
                os.path.join(gen_dir, "_DONE")
            ):
                # leftovers from a killed attempt at this generation (hard
                # kill mid-gen): sink part files the retry doesn't re-write —
                # rolled parts past the retry's roll count, or an unclosed
                # trailing parquet — would otherwise survive and double-count
                # (or fail) in read_sink. The retry owns the whole gen.
                shutil.rmtree(gen_dir)
            os.makedirs(os.path.join(gen_dir, "ckpt"), exist_ok=True)
            # driver-side phase marks, one per numbered step (PHASE_COLUMNS)
            marks = [time.perf_counter()]

            # 1. normalize + route: candidate block i (the wave enters as
            # object-store blocks, not a driver table) goes to shard actor
            # i % num_shards, which returns its accepted rows split by
            # shard. The wait only closes the phase: every schedule_wave
            # needs every block.
            parts, sched_refs = wave or _submit_wave(
                actors, cand_blocks, gen, wave_start
            )
            wave = None
            norm_refs = [p[-1] for p in parts]
            part_refs = [r for p in parts for r in p[:-1]]
            ray.wait(part_refs, num_returns=len(part_refs), fetch_local=False)
            marks.append(time.perf_counter())

            # 2. each shard's wave (politeness DES in the actors): one call
            # per shard returns three refs: the stats the driver reads, the
            # permits as an Arrow TABLE REF the driver only passes on, and
            # the wave's new seen rows, written once as this gen's sink.
            got = ray.get(
                [r[0] for r in sched_refs] + [r[2] for r in sched_refs]
                + norm_refs
            )
            wave_res = got[:num_shards]
            seen_parts = got[num_shards:2 * num_shards]
            # the generation's normalize funnel, summed over its blocks
            norm_m = {
                f"norm_{k}": sum(m[k] for m in got[2 * num_shards:])
                for k in NORM_KEYS
            }
            # the calls are done: let the object store free the routed rows
            del parts, part_refs, norm_refs
            permit_refs = [pt for _, pt, _ in sched_refs]
            seen_writer = RollingWriter(gen_dir, "seen")
            for t in seen_parts:
                seen_writer.write(t)
            seen_writer.close(SEEN_SCHEMA)
            marks.append(time.perf_counter())

            # 3. the shards' sorted permit runs → one global crawl-order
            # stream of permit chunks, merged on the driver at any wave size
            fetch_in = _merge_runs(ray.get(permit_refs), PERMIT_CHUNK)

            # 4. one fetch_derive call per owner per chunk (result handler
            # and derivations in the fetch actor), submitted up front and
            # consumed in global crawl order: the fetched blocks stay in the
            # actors; the driver only merges SMALL derived tables, a chunk
            # at a time, into parquet sinks (RSS stays flat no matter the
            # wave size).
            fetched = _dispatch_fetch(fleet.fetch_pool, handler_ref, fetch_in)
            status_groups, imref_groups, retry_groups, outlink_groups = (
                [[c[k] for c in calls] for calls in fetched] for k in range(4)
            )

            # 4a. status sink (streamed, global crawl order, rolled parts)
            n_fetched = n2 = n4 = n5 = 0
            status_writer = RollingWriter(gen_dir, "status")
            for st in _pull_merged(status_groups):
                status_writer.write(st)
                n_fetched += st.num_rows
                codes = st["status"].to_numpy(zero_copy_only=False)
                n2 += int(((codes >= 200) & (codes < 300)).sum())
                n4 += int(((codes >= 400) & (codes < 500)).sum())
                n5 += int(((codes >= 500)).sum())
            status_writer.close(STATUS_SCHEMA)
            total_fetched += n_fetched
            marks.append(time.perf_counter())

            # 4b. next-gen candidates, before the images: they read only
            # the fetch_derive outputs, and step 5 hands them to the next
            # generation. ALL retries (crawl order) then ALL outlinks (crawl
            # order) — identical sequence to the whole-wave construction;
            # seq assigned with a running offset per chunk. The seq'd blocks
            # are re-put as the next wave's input refs AND streamed into the
            # single-file checkpoint.
            cand_writer = RollingWriter(gen_dir, "next_candidates")
            next_cand_refs: list = []
            offset = 0
            for t in _pull_merged(retry_groups + outlink_groups):
                if t.num_rows == 0:
                    continue
                t = t.append_column(
                    "seq",
                    pa.array(np.arange(offset, offset + t.num_rows), pa.int64()),
                )
                offset += t.num_rows
                cand_writer.write(t)
                next_cand_refs.append(ray.put(t))
            cand_writer.close(CANDIDATE_SCHEMA.append(pa.field("seq", pa.int64())))
            cand_blocks = next_cand_refs
            cand_count = offset
            marks.append(time.perf_counter())

            # 4c. image sink: first-wins dedup on REFS via shard actors, then
            # decode/recompress/phash only the kept refs on their owning
            # fetch actors. Admit SUBMISSION stays strictly in crawl order
            # (actor tasks from one caller execute in submission order, so
            # each shard sees the same hash sequence as the whole-wave path —
            # the parity seam is block-size-invariant); result GATHERING is
            # pipelined one chunk behind submission, overlapping admits
            # with routing.
            img_groups, failed_refs = [], []

            def _drain(pending):
                if not pending:
                    return
                refs_t, idxs, futs = pending
                # ONE batched round-trip for the chunk's shard admits
                keep = np.zeros(refs_t.num_rows, dtype=bool)
                for ix, got in zip(idxs, ray.get(futs)):
                    keep[ix] = got
                kept = refs_t.filter(pa.array(keep)).to_pylist()
                if not kept:
                    return
                ih = hash64([r["image_id"] for r in kept])
                calls = [
                    fleet.fetch_pool[o].process_refs_pos.remote(
                        [kept[j] for j in ix], gen, ix.tolist()
                    )
                    for o, ix in _by_owner(ih, len(fleet.fetch_pool))
                ]
                img_groups.append([t for t, _ in calls])
                failed_refs.extend(n for _, n in calls)

            pending = None
            for refs_t in _pull_merged(imref_groups):
                if refs_t.num_rows == 0:
                    continue
                # ONE admit RPC per shard per chunk, its hashes in crawl order
                ih = hash64(refs_t["image_id"])
                idxs, futs = [], []
                for s, ix in _by_owner(ih, num_shards):
                    idxs.append(ix)
                    futs.append(actors[s].admit_images.remote(ih[ix]))
                _drain(pending)
                pending = (refs_t, idxs, futs)
            # 5. every admit of this generation is submitted. Each shard's
            # state_dict goes next, then the next generation's shard calls:
            # calls from one caller to an actor run in submission order, so
            # the checkpoint holds exactly this generation's mutations, and
            # the next generation routes and schedules on the shard actors
            # while this one's images and checkpoint finish. Submitted only
            # if that generation would start at once; its loop top drops
            # them if a stop arrives in the meantime.
            wave_start = max(r["clock"] for r in wave_res)
            state_refs = [a.state_dict.remote() for a in actors]
            t_next = None
            if cand_count and gen + 1 < max_gens:
                ctl = _read_control()
                if not ctl.get("pause") and not _stopped(ctl, gen + 1):
                    t_next = time.perf_counter()
                    wave = _submit_wave(actors, cand_blocks, gen + 1, wave_start)
            _drain(pending)
            img_writer = RollingWriter(gen_dir, "images")
            for t in _pull_merged(img_groups):
                img_writer.write(t)
            img_writer.close(IMAGE_SCHEMA)
            n_images = img_writer.n_rows
            # kept refs whose stored bytes did not decode (process_image)
            images_failed = sum(ray.get(failed_refs))
            marks.append(time.perf_counter())

            # 6. checkpoint: scheduler state per shard + wave clock
            _write_checkpoint(gen_dir, ray.get(state_refs), wave_start)
            marks.append(time.perf_counter())
            # per-(gen, shard) lineage + metrics rows (north rule: every
            # partition checkpoints its lineage and metrics); counters were
            # accumulated during the streaming sinks. driver_rss_kb proves the
            # block-ref wave flow: it must stay flat across generations even as
            # the frontier grows. fleet_ready_s / fleet_spawned are this
            # run_crawl call's fleet cost so far (see _Fleet), the phase
            # columns and gen_wall_s this generation's driver wall time, and
            # overlap_s the part of it after the next generation's shard
            # calls went out (0 when they did not go early);
            # all are repeated on every row.
            ready_s = fleet.ready_s()
            phases = dict(zip(PHASE_COLUMNS, np.diff(marks).tolist()))
            t_end = time.perf_counter()
            gen_wall_s = t_end - gen_t0
            overlap_s = t_end - t_next if t_next is not None else 0.0
            mrows = [
                {
                    "gen": gen,
                    "shard": sh,
                    "candidates": res["candidates"],
                    "dedup_hits": res["dedup_hits"],
                    "scheduled": res["scheduled"],
                    "top_host": res["top_host"],
                    "top_host_n": res["top_host_n"],
                    "dropped": res["dropped"],
                    **norm_m,
                    "cuckoo_add_failures": res["cuckoo_add_failures"],
                    "seen_size": res["seen_size"],
                    "shard_clock_us": res["clock"],
                    "fetched_total": n_fetched,
                    "http_2xx": n2,
                    "http_4xx": n4,
                    "http_5xx": n5,
                    "images": n_images,
                    "images_failed": images_failed,
                    "next_candidates": cand_count,
                    "wave_end_us": wave_start,
                    "driver_rss_kb": _driver_rss_kb(),
                    "fleet_ready_s": ready_s,
                    "fleet_spawned": fleet.spawned,
                    **phases,
                    "gen_wall_s": gen_wall_s,
                    "overlap_s": overlap_s,
                }
                for sh, res in enumerate(wave_res)
            ]
            metrics_t = pa.Table.from_pylist(mrows)
            pq.write_table(metrics_t, os.path.join(gen_dir, "metrics.parquet"))
            with open(os.path.join(gen_dir, "_DONE"), "w") as f:
                f.write("ok")

        # final: every DONE generation's seen sink, globally sorted by
        # (url_hash, url). Small sets concat+sort driver-side (bounded); big
        # sets sort distributed on the order-preserving int64 bit-flip key
        # (ray's sort doesn't take uint64) and stream-write.
        seen_files = {  # path -> rows; their order does not matter
            p: pq.ParquetFile(p).metadata.num_rows
            for g in _done_gens(out_dir)
            for p in glob.glob(os.path.join(out_dir, f"gen={g}", "seen*.parquet"))
        }
        seen_path = os.path.join(out_dir, "seen.parquet")
        if sum(seen_files.values()) <= DS_SORT_THRESHOLD:
            seen_t = pa.concat_tables(
                [pq.read_table(p) for p in seen_files]
                or [SEEN_SCHEMA.empty_table()]
            ).sort_by([("url_hash", "ascending"), ("url", "ascending")])
            pq.write_table(seen_t, seen_path)
        else:
            sorted_ds = (
                # partitioning=None: the gen=<g> directories are no column
                ray.data.read_parquet(
                    [p for p, n in seen_files.items() if n], partitioning=None
                )
                .map_batches(_with_sort_key, batch_format="pyarrow")
                .sort(["sort_key", "url"])
            )
            writer = RollingWriter(out_dir, "seen")
            for bref in sorted_ds.materialize().to_arrow_refs():
                b = ray.get(bref)
                if b.num_rows == 0:
                    continue
                writer.write(b.drop_columns(["sort_key"]))
            writer.close(SEEN_SCHEMA)

        result = {
            "out_dir": out_dir,
            "total_fetched": total_fetched,
            "stopped_by_control": stopped_by_control,
            "fetch_pool_size": len(fleet.fetch_pool),
        }
    except BaseException:
        fleet.kill()
        raise
    fleet.release()
    return result


from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()


def gc_checkpoints(out_dir: str, keep: int = 2) -> dict:
    """Checkpoint retention GC for a long-running / resumed crawl.

    Resume (see ``run_crawl``) reads exactly ONE generation's recovery
    state: the latest ``_DONE`` gen's ``ckpt/`` (pickled shard
    schedulers + ``wave_start.txt``) and its ``next_candidates`` sink.
    Every EARLIER gen's ckpt + next_candidates is dead weight that
    accumulates forever on a long crawl (each ckpt is the shards'
    fixed-size filters and politeness state; next_candidates is
    O(frontier)). This removes them for all but the newest ``keep`` DONE
    generations, NEVER touching data sinks (status / images / seen /
    metrics) or any gen without a ``_DONE`` marker (an
    in-flight or killed attempt still needed for wipe-and-retry).

    Returns ``{"removed_gens": [...], "bytes_freed": int}``. Safe to run
    while the crawl is stopped (the intended window: between a graceful
    stop and its resume) and idempotent."""
    done_gens = _done_gens(out_dir)
    removed, freed = [], 0
    for g in done_gens[:-keep] if keep > 0 else done_gens[:-1]:
        gen_dir = os.path.join(out_dir, f"gen={g}")
        targets = [os.path.join(gen_dir, "ckpt")] + [
            os.path.join(gen_dir, f)
            for f in os.listdir(gen_dir)
            if f == "next_candidates.parquet"
            or (
                f.startswith("next_candidates.part")
                and f.endswith(".parquet")
            )
        ]
        got_one = False
        for t in targets:
            if os.path.isdir(t):
                freed += sum(
                    os.path.getsize(os.path.join(r, f))
                    for r, _, fs in os.walk(t)
                    for f in fs
                )
                shutil.rmtree(t)
                got_one = True
            elif os.path.isfile(t):
                freed += os.path.getsize(t)
                os.remove(t)
                got_one = True
        if got_one:
            removed.append(g)
    return {"removed_gens": removed, "bytes_freed": freed}
