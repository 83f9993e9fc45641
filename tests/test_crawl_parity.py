"""Golden end-to-end parity: the Ray crawl engine must reproduce the
single-process oracle's crawl order, URL-seen set, and image+caption table
exactly (north rule), plus per-row PSNR ≥ 40 dB vs the original image store;
and a killed run must resume from checkpoint without re-fetching."""

import glob
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from spider_ray.kernels.imaging import decode_image, psnr
from spider_ray.pipelines.oracle import run_oracle
from spider_ray.sources.webgen import generate

CORPUS = "/tmp/spider_ray_test_corpus"
OUT = "/tmp/spider_ray_test_crawl"


@pytest.fixture(scope="session")
def corpus():
    shutil.rmtree(CORPUS, ignore_errors=True)
    generate(CORPUS, n_pages=200, n_hosts=8, seed=42)
    return CORPUS


@pytest.fixture(scope="session")
def oracle_out(corpus):
    return run_oracle(corpus, num_shards=2)


@pytest.fixture(scope="session")
def engine_out(corpus, ray_session):
    from spider_ray.pipelines.crawl import run_crawl

    shutil.rmtree(OUT, ignore_errors=True)
    res = run_crawl(corpus, OUT, num_shards=2, fetch_concurrency=2)
    return res


def _engine_rows(out_dir, name):
    from spider_ray.pipelines.crawl import read_sink

    rows = []
    for d in sorted(
        glob.glob(os.path.join(out_dir, "gen=*")),
        key=lambda p: int(p.split("=")[1]),
    ):
        rows.extend(read_sink(d, name).to_pylist())
    return rows


def test_crawl_order_parity(engine_out, oracle_out):
    eng = _engine_rows(OUT, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["status"], e["gen"]) == (
            g["url"], g["fetch_ts"], g["status"], g["gen"]
        )


def test_seen_set_parity(engine_out, oracle_out):
    eng = pq.read_table(os.path.join(OUT, "seen.parquet")).to_pylist()
    assert eng == oracle_out["seen"]


def test_seen_set_exact_audit(engine_out, corpus):
    """The exact audit of cuckoo admission (SURVEY §7.4.3), sharing no code
    with the scheduler: re-derive the seen set from the engine's own
    candidate stream — the seeds for generation 0, generation g-1's
    next_candidates sink for generation g — through ``normalize_batch``,
    keeping each ``tried == 0`` URL's first generation in a Python set. A
    cuckoo false positive would drop a URL the audit keeps."""
    from spider_ray.pipelines.crawl import read_sink
    from spider_ray.pipelines.oracle import load_corpus_control
    from spider_ray.stages.normalize import normalize_batch

    c = load_corpus_control(corpus)
    gens = sorted(
        int(d.split("=")[1]) for d in os.listdir(OUT) if d.startswith("gen=")
    )
    assert gens == list(range(len(gens))) and len(gens) >= 2
    first_seen: set[str] = set()
    audit = []
    for g in gens:
        cand = c["seeds"] if g == 0 else read_sink(
            os.path.join(OUT, f"gen={g - 1}"), "next_candidates"
        )
        norm, _ = normalize_batch(cand, c["robots"], 2, g)
        for r in norm.to_pylist():
            if r["tried"] == 0 and r["url"] not in first_seen:
                first_seen.add(r["url"])
                audit.append(
                    {"url_hash": r["url_hash"], "url": r["url"],
                     "first_gen": g}
                )
    audit.sort(key=lambda r: (r["url_hash"], r["url"]))
    eng = pq.read_table(os.path.join(OUT, "seen.parquet")).to_pylist()
    assert eng == audit


def test_images_parity_and_psnr(engine_out, oracle_out, corpus):
    eng = _engine_rows(OUT, "images.parquet")
    gold = {r["image_id"]: r for r in oracle_out["images"]}
    assert {r["image_id"] for r in eng} == set(gold)
    # caption + bytes exact vs oracle
    for r in eng:
        g = gold[r["image_id"]]
        assert r["caption"] == g["caption"]
        assert r["bytes"] == g["bytes"]
        assert r["phash"] == g["phash"]
    # per-row invariant vs the ORIGINAL store: decoded-pixel PSNR ≥ 40 dB
    # (lossy) / exact (lossless)
    store = {
        r["image_id"]: r
        for r in pq.read_table(os.path.join(corpus, "images.parquet")).to_pylist()
    }
    for r in eng[:50]:
        orig = store[r["image_id"]]
        a = decode_image(orig["bytes"], orig["fmt"])
        b = decode_image(r["bytes"], r["fmt"])
        if orig["fmt"] == "png":
            assert (a == b).all()
        else:
            assert psnr(a, b) >= 40.0


def test_metrics_written(engine_out):
    rows = _engine_rows(OUT, "metrics.parquet")
    assert len(rows) >= 2  # per (gen, shard)
    # one fetched_total per gen (repeated per shard row)
    per_gen = {}
    for r in rows:
        per_gen[r["gen"]] = r["fetched_total"]
        assert {"shard", "candidates", "dedup_hits", "scheduled",
                "seen_size", "http_2xx"} <= set(r)
        # this call's fleet cost: 2 shard + 2 fetch actors at most
        assert r["fleet_ready_s"] > 0
        assert 0 <= r["fleet_spawned"] <= 4
    assert sum(per_gen.values()) == engine_out["total_fetched"]
    # one call, no pool resize: the same fleet values on every row
    assert len({(r["fleet_ready_s"], r["fleet_spawned"]) for r in rows}) == 1
    # the driver's phase times: non-negative, within the generation's wall
    from spider_ray.pipelines.crawl import PHASE_COLUMNS

    for r in rows:
        assert all(r[k] >= 0 for k in PHASE_COLUMNS)
        assert sum(r[k] for k in PHASE_COLUMNS) <= r["gen_wall_s"]


def test_metrics_parity_with_oracle(engine_out, oracle_out):
    """Per-(gen, shard) scheduling counters must match the oracle exactly:
    candidates routed, dedup hits, permits scheduled, queued URLs dropped,
    and the generation's normalize funnel on every row."""
    from spider_ray.stages.normalize import NORM_KEYS

    keys = ("candidates", "dedup_hits", "scheduled", "top_host", "top_host_n",
            "dropped") + tuple(f"norm_{k}" for k in NORM_KEYS)
    eng = {
        (r["gen"], r["shard"]): tuple(r[k] for k in keys)
        for r in _engine_rows(OUT, "metrics.parquet")
    }
    gold = {
        (r["gen"], r["shard"]): tuple(r[k] for k in keys)
        for r in oracle_out["metrics"]
    }
    assert eng == gold


def test_resume_no_refetch(corpus, oracle_out, ray_session):
    """Kill-and-resume (M6): run 2 gens, resume to completion; outputs must
    equal the uninterrupted run and gens 0-1 must not be re-fetched."""
    from spider_ray.pipelines.crawl import run_crawl

    out2 = "/tmp/spider_ray_test_resume"
    shutil.rmtree(out2, ignore_errors=True)
    part1 = run_crawl(corpus, out2, num_shards=2, fetch_concurrency=2, max_gens=2)
    gen01 = {
        d: os.path.getmtime(os.path.join(d, "status.parquet"))
        for d in glob.glob(os.path.join(out2, "gen=*"))
    }
    part2 = run_crawl(
        corpus, out2, num_shards=2, fetch_concurrency=2, resume=True
    )
    # earlier generations untouched
    for d, mt in gen01.items():
        assert os.path.getmtime(os.path.join(d, "status.parquet")) == mt
    # combined result equals the golden run
    eng = _engine_rows(out2, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    assert part1["total_fetched"] + part2["total_fetched"] == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["status"]) == (
            g["url"], g["fetch_ts"], g["status"]
        )
    seen = pq.read_table(os.path.join(out2, "seen.parquet")).to_pylist()
    assert seen == oracle_out["seen"]


def test_distributed_sort_path_identical(corpus, oracle_out, ray_session, monkeypatch):
    """Force the final seen sort through its distributed ds.sort path
    (threshold 1; permits take the one merge path at every size) and
    require byte-identical outputs to the oracle — proving the scale path
    and the small-set path implement the same ordering contract."""
    import spider_ray.pipelines.crawl as C

    monkeypatch.setattr(C, "DS_SORT_THRESHOLD", 1)
    out = "/tmp/spider_ray_test_dsort"
    shutil.rmtree(out, ignore_errors=True)
    C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)
    eng = _engine_rows(out, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == oracle_out["seen"]


def test_hot_host_isolation_parity(corpus, ray_session):
    """Hot-host valve: the corpus's hottest host gets a dedicated shard;
    engine and oracle share the assignment kernel, so crawl order and seen
    set must STILL match exactly — and the hot host must never appear on a
    regular shard."""
    import collections

    import pyarrow.parquet as _pq

    from spider_ray.kernels.hashing import hash64
    from spider_ray.pipelines.crawl import run_crawl
    from spider_ray.stages.normalize import shard_of

    graph = _pq.read_table(os.path.join(CORPUS, "web_graph.parquet"))
    hosts = [u.split("/")[2] for u in graph["url"].to_pylist()]
    hot = collections.Counter(hosts).most_common(1)[0][0]

    # assignment kernel: hot host isolated, others spread over shards 0-1
    hh = hash64(hosts)
    sh = shard_of(hh, hosts, 3, hot_hosts=(hot,))
    for h, s in zip(hosts, sh):
        assert (s == 2) == (h == hot)

    out = "/tmp/spider_ray_test_hothost"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=3, fetch_concurrency=2,
              hot_hosts=(hot,))
    gold = run_oracle(corpus, num_shards=3, hot_hosts=(hot,))
    eng = _engine_rows(out, "status.parquet")
    assert len(eng) == len(gold["crawl_order"])
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == gold["seen"]


def test_fetch_actor_survives_kill(corpus, ray_session):
    """Fetch actors are restartable (stateless, deterministic): killing one
    mid-stream must not change results — Ray restarts it and retries the
    in-flight batch."""
    import pyarrow as pa
    import ray as _ray

    from spider_ray.pipelines.crawl import FetchActorCls
    from spider_ray.pipelines.oracle import load_corpus
    from spider_ray.kernels.hashing import hash64

    c = load_corpus(corpus)
    url = next(iter(c["pages"]))
    host = url.split("/")[2]
    permit = pa.table(
        {
            "fetch_ts": pa.array([0], pa.int64()),
            "url": pa.array([url], pa.string()),
            "url_hash": pa.array(hash64([url]), pa.uint64()),
            "host": pa.array([host], pa.string()),
            "priority": pa.array([5], pa.int16()),
            "gen": pa.array([0], pa.int32()),
            "seq": pa.array([0], pa.int64()),
            "depth": pa.array([0], pa.int16()),
            "tried": pa.array([0], pa.int16()),
            "referer": pa.array([""], pa.string()),
        }
    )
    a = FetchActorCls.remote(corpus)
    before = _ray.get(a.fetch_batch.remote(permit))
    _ray.kill(a, no_restart=False)
    after = _ray.get(a.fetch_batch.remote(permit))  # restarted actor
    assert before.equals(after)
    _ray.kill(a)


def test_resume_topology_mismatch_rejected(corpus, ray_session):
    """Resuming with a different sharding topology must fail loudly: the
    checkpointed scheduler state is partitioned by (num_shards, hot_hosts)
    and silently re-routing hosts would orphan their politeness state."""
    from spider_ray.pipelines.crawl import run_crawl

    out = "/tmp/spider_ray_test_topology"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=1)
    with pytest.raises(ValueError, match="topology mismatch"):
        run_crawl(corpus, out, num_shards=3, fetch_concurrency=2,
                  resume=True)
    # matching topology resumes fine
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, resume=True)


def test_resume_hash_provider_mismatch_rejected(corpus, ray_session):
    """Checkpoints and sinks persist hash64 outputs (cuckoo fingerprints,
    the seen sinks' url_hash); a resume in an environment whose hash kernel
    disagrees (different polars build) must be rejected loudly — every
    restored seen key would silently miss and the crawl would re-fetch its
    history."""
    import json

    from spider_ray.pipelines.crawl import run_crawl

    out = "/tmp/spider_ray_test_hashcanary"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=1)
    cfg_path = os.path.join(out, "run_config.json")
    with open(cfg_path) as f:
        cfg = json.load(f)
    assert "hash_canary" in cfg
    cfg["hash_canary"] ^= 1  # simulate a different hash provider
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    with pytest.raises(ValueError, match="hash-provider mismatch"):
        run_crawl(corpus, out, num_shards=2, fetch_concurrency=2,
                  resume=True)


def test_hot_ip_diversion_parity(corpus, ray_session):
    """IP-level diversion valve (J4, ip_url_split.cc semantics): force the
    corpus's hottest host through the valve by marking its resolved IP hot.
    The run must (a) byte-match an explicit hot-host run — the IP valve is
    the same dedicated-shard diversion, derived through the resolution
    table — and (b) stay in exact crawl-order/seen parity with the oracle."""
    import collections
    import filecmp

    import pyarrow.parquet as _pq

    from spider_ray.pipelines.crawl import run_crawl

    graph = _pq.read_table(os.path.join(CORPUS, "web_graph.parquet"))
    hosts = sorted({u.split("/")[2] for u in graph["url"].to_pylist()})
    hot = collections.Counter(
        u.split("/")[2] for u in graph["url"].to_pylist()
    ).most_common(1)[0][0]
    # synthetic resolution table: unique IP per host; the hot host's IP is
    # marked hot
    host_ips = {h: [f"10.1.0.{i}"] for i, h in enumerate(hosts)}
    hot_ip = host_ips[hot][0]

    out_ip = "/tmp/spider_ray_test_hotip"
    shutil.rmtree(out_ip, ignore_errors=True)
    run_crawl(corpus, out_ip, num_shards=3, fetch_concurrency=2,
              host_ips=host_ips, hot_ips=(hot_ip,))

    out_hh = "/tmp/spider_ray_test_hotip_ref"
    shutil.rmtree(out_hh, ignore_errors=True)
    run_crawl(corpus, out_hh, num_shards=3, fetch_concurrency=2,
              hot_hosts=(hot,))

    eng = _engine_rows(out_ip, "status.parquet")
    ref = _engine_rows(out_hh, "status.parquet")
    assert eng == ref  # IP valve == host valve for the derived host

    gold = run_oracle(corpus, num_shards=3, hot_hosts=(hot,))
    assert len(eng) == len(gold["crawl_order"])
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    seen = pq.read_table(os.path.join(out_ip, "seen.parquet")).to_pylist()
    assert seen == gold["seen"]


def test_dynamic_control_stop_and_resume(corpus, oracle_out, ray_session):
    """T8 dynamic-config watch: control.json can stop a run gracefully at a
    generation boundary and hot-swap the fetch pool size; the stopped run
    resumes through the normal checkpoint path to the identical result."""
    import json

    from spider_ray.pipelines.crawl import run_crawl

    out = "/tmp/spider_ray_test_control"
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    with open(os.path.join(out, "control.json"), "w") as f:
        json.dump({"stop_after_gen": 1, "fetch_concurrency": 5}, f)
    part = run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)
    assert part["stopped_by_control"]
    assert part["fetch_pool_size"] == 5  # hot-swapped mid-run
    done = [d for d in os.listdir(out) if d.startswith("gen=")
            and os.path.exists(os.path.join(out, d, "_DONE"))]
    assert sorted(done) == ["gen=0", "gen=1"]

    # resume WITHOUT touching control.json: a stop_after_gen already
    # satisfied by the previous attempt is spent — the documented resume
    # path continues the crawl instead of re-stopping at gen 2 having
    # done nothing
    full = run_crawl(corpus, out, num_shards=2, fetch_concurrency=2,
                     resume=True)
    assert not full["stopped_by_control"]
    eng = _engine_rows(out, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == oracle_out["seen"]


def test_refs_mode_resume_parity(corpus, oracle_out, ray_session, monkeypatch):
    """Resume through multi-chunk merged waves (7-row permit chunks) and
    the distributed seen sort (threshold 1): interrupt after 2
    generations, resume, and require the combined streamed sinks to match
    the oracle byte-for-byte — proving the chunked writers and the
    checkpoint/rehydrate seam compose."""
    import spider_ray.pipelines.crawl as C

    monkeypatch.setattr(C, "DS_SORT_THRESHOLD", 1)
    monkeypatch.setattr(C, "PERMIT_CHUNK", 7)  # several chunks per gen
    out = "/tmp/spider_ray_test_refs_resume"
    shutil.rmtree(out, ignore_errors=True)
    C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=2)
    C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, resume=True)
    eng = _engine_rows(out, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == oracle_out["seen"]


def test_rolling_sinks_roll_and_reassemble(corpus, oracle_out, ray_session,
                                           monkeypatch):
    """Force tiny roll thresholds: every per-gen sink must split into
    multiple part files, read_sink must reassemble them in stream order,
    and the crawl must STILL match the oracle exactly."""
    import spider_ray.pipelines.crawl as C

    # direct writer unit check: 3 writes at a tiny threshold → 3 parts
    import pyarrow as pa

    wdir = "/tmp/spider_ray_test_rollwriter"
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    w = C.RollingWriter(wdir, "x", roll_bytes=10)
    for i in range(3):
        w.write(pa.table({"a": [i] * 100}))
    w.close(pa.schema([("a", pa.int64())]))
    assert sorted(os.listdir(wdir)) == [
        "x.parquet", "x.part00001.parquet", "x.part00002.parquet"
    ]
    t = C.read_sink(wdir, "x")
    assert t["a"].to_pylist() == [0] * 100 + [1] * 100 + [2] * 100

    monkeypatch.setattr(C, "SINK_ROLL_BYTES", 1024)  # ~1 KB → many parts
    monkeypatch.setattr(C, "DS_SORT_THRESHOLD", 1)
    monkeypatch.setattr(C, "PERMIT_CHUNK", 7)  # several chunks per gen
    out = "/tmp/spider_ray_test_rolling"
    shutil.rmtree(out, ignore_errors=True)
    C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)
    parts = glob.glob(os.path.join(out, "gen=*", "status.part*.parquet"))
    assert parts, "tiny threshold must produce rolled status parts"
    eng = _engine_rows(out, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"]
        )
    # resume also reads rolled candidate parts
    out2 = "/tmp/spider_ray_test_rolling2"
    shutil.rmtree(out2, ignore_errors=True)
    C.run_crawl(corpus, out2, num_shards=2, fetch_concurrency=2, max_gens=2)
    C.run_crawl(corpus, out2, num_shards=2, fetch_concurrency=2, resume=True)
    eng2 = _engine_rows(out2, "status.parquet")
    assert len(eng2) == len(gold)


def test_shard_meta_partitions_full_corpus(corpus):
    """The per-actor meta slices must partition the exact dict the round-2
    driver-global ray.put served: every corpus URL appears on exactly ONE
    shard (the one the routing stage sends it to) with the same
    (status_code, latency_us), including with a hot-host valve configured."""
    from spider_ray.pipelines.oracle import load_corpus
    from spider_ray.stages.normalize import shard_meta

    c = load_corpus(corpus)
    full = {
        u: (int(r["status_code"]), int(r["latency_us"]))
        for u, r in c["pages"].items()
    }
    for hot in ((), ("bigfamily.example.com",)):
        n = 4 if not hot else 5
        slices = [shard_meta(corpus, s, n, hot) for s in range(n)]
        merged = {}
        for sl in slices:
            assert not (set(sl) & set(merged)), "shards must be disjoint"
            merged.update(sl)
        assert merged == full


def test_hard_kill_partial_gen_resume(corpus, oracle_out, ray_session):
    """A run killed MID-generation leaves a gen dir without ``_DONE``
    holding arbitrary partial sink files — possibly MORE rolled parts than
    the retry re-writes, possibly an unclosed (footerless) parquet. Resume
    must discard the partial attempt wholesale: stale parts must not
    double-count in read_sink, and the combined outputs must still equal
    the golden run byte-for-byte."""
    from spider_ray.pipelines.crawl import run_crawl

    out = "/tmp/spider_ray_test_killresume"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=2)
    # simulate the killed third-generation attempt
    g2 = os.path.join(out, "gen=2")
    os.makedirs(os.path.join(g2, "ckpt"))
    with open(os.path.join(g2, "status.parquet"), "wb") as f:
        f.write(b"PAR1\x00partial-no-footer")
    pq.write_table(
        pq.read_table(os.path.join(out, "gen=0", "status.parquet")),
        os.path.join(g2, "status.part00007.parquet"),
    )
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, resume=True)
    assert not os.path.exists(os.path.join(g2, "status.part00007.parquet"))
    assert os.path.exists(os.path.join(g2, "_DONE"))
    eng = _engine_rows(out, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["status"]) == (
            g["url"], g["fetch_ts"], g["status"]
        )


def test_resume_rejects_checkpoint_with_seen_rows(corpus, ray_session):
    """A checkpoint that still carries the in-actor seen rows (``seen_urls``,
    the format before per-generation seen sinks) must not resume: the
    earlier generations have no seen sink, so their seen rows would be
    dropped from seen.parquet without a word."""
    import pickle

    from spider_ray.pipelines.crawl import run_crawl

    out = "/tmp/spider_ray_test_old_ckpt"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=1)
    for s in range(2):
        path = os.path.join(out, "gen=0", "ckpt", f"shard_{s}.pkl")
        with open(path, "rb") as f:
            d = pickle.load(f)
        d["exact_seen"], d["seen_urls"], d["fp_audit"] = set(), [], 0
        with open(path, "wb") as f:
            pickle.dump(d, f)
    with pytest.raises(ValueError, match="restart the crawl"):
        run_crawl(corpus, out, num_shards=2, fetch_concurrency=2,
                  resume=True)


def test_fresh_run_refuses_dirty_out_dir(corpus, ray_session):
    """A resume=False run into an out_dir holding generations from a prior
    run must refuse instead of interleaving with (and double-counting)
    the old run's rolled sink parts."""
    from spider_ray.pipelines.crawl import run_crawl

    out = "/tmp/spider_ray_test_dirty_outdir"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=1)
    with pytest.raises(ValueError, match="resume=True"):
        run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)


def test_ip_valve_unresolved_hosts_route_direct(ray_session):
    """Unresolved (null-ip) rows are excluded from the hot-IP mean and
    never diverted: null is not an IP and DNS-miss hosts share no server.
    Previously {None, ip} crashed sorted() and a large unresolved
    population was diverted to the proxy partition as one pseudo-group."""
    import pyarrow as pa
    import ray

    from spider_ray.stages.iproute import hot_ips_of, ip_url_split

    # one resolved host with many URLs (hot) + many unresolved singletons
    rows = [{"url": f"http://big.example.com/p{i}"} for i in range(12)]
    rows += [{"url": f"http://miss{i}.example.com/x"} for i in range(12)]
    rows += [{"url": f"http://tiny{i}.example.com/y"} for i in range(2)]
    host_ips = {"big.example.com": ["1.1.1.1"]}
    for i in range(2):
        host_ips[f"tiny{i}.example.com"] = [f"2.2.2.{i}"]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = pa.concat_tables(
        _ray_get_refs(ip_url_split(ds, host_ips))
    ).to_pylist()
    assert len(out) == 26
    for r in out:
        if r["url"].startswith("http://big."):
            assert r["route"] == "proxy" and r["ip"] == "1.1.1.1"
        elif r["url"].startswith("http://miss"):
            assert r["route"] == "direct" and r["ip"] is None
        else:
            assert r["route"] == "direct"
    # the counts-level kernel on a mixed null/str table must not raise
    counts = pa.table(
        {"ip": pa.array([None, "1.1.1.1", "2.2.2.0"], pa.string()),
         "n": pa.array([12, 12, 1], pa.int64())}
    )
    assert hot_ips_of(counts) == {"1.1.1.1"}


def _ray_get_refs(ds):
    import ray

    return ray.get(ds.materialize().to_arrow_refs())


def test_gc_checkpoints_then_resume(corpus, oracle_out, ray_session):
    """Checkpoint GC removes earlier gens' ckpt + next_candidates but the
    crawl still resumes byte-equal: only the LATEST done gen's recovery
    state is ever read."""
    from spider_ray.pipelines.crawl import gc_checkpoints, run_crawl

    out = "/tmp/spider_ray_test_gc_resume"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, max_gens=3)
    done = sorted(
        d for d in os.listdir(out)
        if d.startswith("gen=")
        and os.path.exists(os.path.join(out, d, "_DONE"))
    )
    assert len(done) >= 3
    res = gc_checkpoints(out, keep=1)
    assert res["bytes_freed"] > 0
    assert res["removed_gens"] == [int(d.split("=")[1]) for d in done[:-1]]
    # earlier ckpts gone, the newest intact; data sinks untouched
    for d in done[:-1]:
        assert not os.path.exists(os.path.join(out, d, "ckpt"))
        assert os.path.exists(os.path.join(out, d, "status.parquet"))
    assert os.path.exists(os.path.join(out, done[-1], "ckpt"))
    # idempotent
    res2 = gc_checkpoints(out, keep=1)
    assert res2["removed_gens"] == [] and res2["bytes_freed"] == 0
    # resume to completion: combined output equals the golden run
    run_crawl(corpus, out, num_shards=2, fetch_concurrency=2, resume=True)
    eng = _engine_rows(out, "status.parquet")
    gold = oracle_out["crawl_order"]
    assert len(eng) == len(gold)
    for e, g in zip(eng, gold):
        assert (e["url"], e["fetch_ts"], e["status"]) == (
            g["url"], g["fetch_ts"], g["status"]
        )
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == oracle_out["seen"]


def test_hot_host_refs_mode_parity(corpus, ray_session, monkeypatch):
    """Hot-host isolation × multi-chunk merged waves (7-row permit
    chunks): the dedicated shard's run carries most of the wave, so most
    merge steps take nearly all their rows from one run. Crawl order and
    totals must equal the oracle's."""
    import spider_ray.pipelines.crawl as C

    hot = "bigfamily.example.com"
    monkeypatch.setattr(C, "DS_SORT_THRESHOLD", 1)
    monkeypatch.setattr(C, "PERMIT_CHUNK", 7)  # several chunks per gen
    out = "/tmp/spider_ray_test_hot_refs"
    shutil.rmtree(out, ignore_errors=True)
    res = C.run_crawl(corpus, out, num_shards=3, fetch_concurrency=3,
                      hot_hosts=(hot,))
    gold = run_oracle(corpus, num_shards=3, hot_hosts=(hot,))
    eng = _engine_rows(out, "status.parquet")
    assert len(eng) == len(gold["crawl_order"])
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["status"], e["gen"]) == (
            g["url"], g["fetch_ts"], g["status"], g["gen"])
