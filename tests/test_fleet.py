"""The crawl fleet stays warm across ``run_crawl`` calls of one Ray session:
a crawl resets the idle shard and fetch actors the last successful crawl
handed back and spawns only what it is short of. Every crawl must still
match the single-process oracle byte for byte."""

import glob
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap
import time

import pyarrow.parquet as pq
import pytest
import ray

import spider_ray.pipelines.crawl as C
from spider_ray.pipelines.oracle import run_oracle
from spider_ray.sources.webgen import generate

ROOT = "/tmp/spider_ray_test_fleet"
SHARDS, FETCH = 2, 2
FULL = SHARDS + FETCH


@pytest.fixture(scope="module")
def corpora():
    """Two corpora with the parity corpus's shape: A is the parity corpus,
    B differs only in its generator seed."""
    shutil.rmtree(ROOT, ignore_errors=True)
    out = {}
    for name, seed in (("a", 42), ("b", 7)):
        path = os.path.join(ROOT, f"corpus_{name}")
        generate(path, n_pages=200, n_hosts=8, seed=seed)
        out[name] = (path, run_oracle(path, num_shards=SHARDS))
    return out


def _crawl(corpus: str, tag: str, **kw) -> str:
    out = os.path.join(ROOT, f"out_{tag}")
    shutil.rmtree(out, ignore_errors=True)
    C.run_crawl(corpus, out, num_shards=SHARDS, fetch_concurrency=FETCH, **kw)
    return out


def _gen_rows(out: str, name: str) -> list[dict]:
    rows = []
    for d in sorted(
        glob.glob(os.path.join(out, "gen=*")),
        key=lambda p: int(p.split("=")[1]),
    ):
        rows.extend(C.read_sink(d, name).to_pylist())
    return rows


def _assert_matches(out: str, gold: dict) -> None:
    got = [
        (r["url"], r["fetch_ts"], r["status"], r["gen"])
        for r in _gen_rows(out, "status")
    ]
    assert got == [
        (r["url"], r["fetch_ts"], r["status"], r["gen"])
        for r in gold["crawl_order"]
    ]
    assert pq.read_table(os.path.join(out, "seen.parquet")).to_pylist() == (
        gold["seen"]
    )
    assert sorted(
        (r["image_id"], r["bytes"], r["phash"])
        for r in _gen_rows(out, "images")
    ) == sorted((r["image_id"], r["bytes"], r["phash"]) for r in gold["images"])


def _spawned(out: str) -> int:
    """The ``fleet_spawned`` of the crawl that wrote ``out`` (one value on
    every metrics row)."""
    vals = {r["fleet_spawned"] for r in _gen_rows(out, "metrics")}
    assert len(vals) == 1
    return vals.pop()


def _idle() -> tuple[list, dict]:
    if C._IDLE is None or C._IDLE[0] != C._session_key():
        return [], {}
    return C._IDLE[1], C._IDLE[2]


def _kill_and_wait(actor) -> None:
    ray.kill(actor)
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            ray.get(actor.__ray_ready__.remote(), timeout=10)
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.1)
    raise AssertionError("killed actor still answers")


def test_second_crawl_spawns_no_actors(corpora, ray_session):
    corpus, gold = corpora["a"]
    C.shutdown_fleet()
    first = _crawl(corpus, "first")
    shards, fetch = _idle()
    assert (len(shards), len(fetch)) == (SHARDS, FETCH)
    second = _crawl(corpus, "second")
    assert _spawned(first) == FULL
    assert _spawned(second) == 0
    _assert_matches(first, gold)
    _assert_matches(second, gold)


def test_failed_crawl_leaves_no_idle_actors(corpora, ray_session):
    corpus, gold = corpora["a"]
    _crawl(corpus, "warm")
    assert sum(map(len, _idle())) == FULL

    def failing_handler(block):
        raise RuntimeError("result handler failure")

    with pytest.raises(Exception, match="result handler failure"):
        _crawl(corpus, "failing", result_handler=failing_handler)
    assert sum(map(len, _idle())) == 0
    out = _crawl(corpus, "after_failure")
    assert _spawned(out) == FULL
    _assert_matches(out, gold)


def test_idle_actor_killed_between_crawls_is_replaced(corpora, ray_session):
    corpus, gold = corpora["a"]
    _crawl(corpus, "warm")
    shards, fetch = _idle()
    _kill_and_wait(shards[0])
    _kill_and_wait(next(iter(fetch.values())))
    out = _crawl(corpus, "replaced")
    assert _spawned(out) == 2
    _assert_matches(out, gold)


def _kill_first_fetch_actor(monkeypatch, times: int) -> list:
    """Before each of the next ``times`` fetch submissions, kill the
    first fetch actor of the pool with a restart. Returns the kill log."""
    dispatch = C._dispatch_fetch
    killed = []

    def kill_then_dispatch(pool, handler, blocks):
        if len(killed) < times:
            killed.append(pool[0])
            ray.kill(pool[0], no_restart=False)
        return dispatch(pool, handler, blocks)

    monkeypatch.setattr(C, "_dispatch_fetch", kill_then_dispatch)
    return killed


def test_fetch_actor_restart_keeps_its_corpus(corpora, ray_session,
                                              monkeypatch):
    """Ray restarts a fetch actor by replaying its ORIGINAL constructor
    args. Crawl B must therefore never run on fetch actors created for
    corpus A: killed mid-crawl with a restart, one would come back holding
    A's index."""
    (corpus_a, _), (corpus_b, gold_b) = corpora["a"], corpora["b"]
    _crawl(corpus_a, "a")
    killed = _kill_first_fetch_actor(monkeypatch, 1)
    out = _crawl(corpus_b, "b")
    assert killed
    # the shard actors are reset to B; the fetch pool is new
    assert _spawned(out) == FETCH
    _assert_matches(out, gold_b)


def test_restarted_fetch_actor_is_replaced(corpora, ray_session,
                                            monkeypatch):
    """A fetch actor's restart budget (``max_restarts=2``) spans its life.
    One that spent both restarts in crawl A must not serve crawl B, or the
    first death in B would fail the whole crawl."""
    corpus, gold = corpora["a"]
    C.shutdown_fleet()
    killed = _kill_first_fetch_actor(monkeypatch, 2)
    first = _crawl(corpus, "restarts_a")
    assert len(killed) == 2 and killed[0] == killed[1]
    _assert_matches(first, gold)
    killed = _kill_first_fetch_actor(monkeypatch, 1)
    second = _crawl(corpus, "restarts_b")
    assert killed
    # only the restarted fetch actor is new
    assert _spawned(second) == 1
    _assert_matches(second, gold)


def test_fetch_actor_reset_logs_no_deprecation(corpora, ray_session):
    """``FetchWorker.reset`` reads the actor's restart count without Ray's
    deprecated ``actor_id`` property, whose warning would otherwise land
    in a worker log on every reset."""
    corpus, gold = corpora["a"]
    _assert_matches(_crawl(corpus, "logs"), gold)
    logs = ray._private.worker._global_node.get_logs_dir_path()
    noisy = [
        path
        for path in glob.glob(os.path.join(logs, "worker-*"))
        if "Use get_actor_id() instead"
        in pathlib.Path(path).read_text(errors="replace")
    ]
    assert not noisy


SESSION_SCRIPT = textwrap.dedent(
    """
    import json, os, sys

    import pyarrow.parquet as pq
    import ray

    from spider_ray.pipelines.crawl import run_crawl
    from spider_ray.pipelines.oracle import run_oracle

    corpus, root = sys.argv[1], sys.argv[2]
    gold = run_oracle(corpus, num_shards=2)["seen"]
    result = []
    for tag in ("one", "two"):
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        out = os.path.join(root, tag)
        run_crawl(corpus, out, num_shards=2, fetch_concurrency=1)
        metrics = pq.read_table(os.path.join(out, "gen=0", "metrics.parquet"))
        seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
        result.append([metrics["fleet_spawned"][0].as_py(), seen == gold])
        ray.shutdown()
    print(json.dumps(result))
    """
)


def test_new_ray_session_gets_a_new_fleet(tmp_path):
    corpus = str(tmp_path / "corpus")
    generate(corpus, n_pages=60, n_hosts=4, seed=3)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo, POLARS_MAX_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SESSION_SCRIPT, corpus, str(tmp_path)],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a new session never reuses the handles of the ended one
    assert proc.stdout.strip().splitlines()[-1] == "[[3, true], [3, true]]"
