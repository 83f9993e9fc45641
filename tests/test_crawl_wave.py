"""Shape of one crawl wave: the shard actors normalize and route it (no
Ray Data execution, so no schema reconciliation between bundles, and no
plain Ray task), the fetch actors fetch and derive, and a shard that no
block routes a row to still schedules its (empty) wave."""

import logging
import os
import shutil
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from spider_ray.pipelines.oracle import run_oracle
from spider_ray.sources.webgen import generate
from tests.test_crawl_parity import (  # noqa: F401 (fixtures)
    _engine_rows,
    corpus,
    oracle_out,
)

OUT_W = "/tmp/spider_ray_test_crawl_wave"


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_routing_operator_emits_one_schema(corpus, ray_session):  # noqa: F811
    from spider_ray.pipelines.crawl import run_crawl

    # the executor-state logger is the one that reports a RefBundle whose
    # schema differs from the operator's previous bundle
    log = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    )
    cap, level = _Capture(), log.level
    log.addHandler(cap)
    log.setLevel(logging.WARNING)
    try:
        shutil.rmtree(OUT_W, ignore_errors=True)
        res = run_crawl(corpus, OUT_W, num_shards=2, fetch_concurrency=2)
    finally:
        log.removeHandler(cap)
        log.setLevel(level)
    assert res["total_fetched"] > 0
    assert not [m for m in cap.messages if "different schema" in m]
    shutil.rmtree(OUT_W, ignore_errors=True)


def _crawl_order(rows: list[dict]) -> list[tuple]:
    return [(r["url"], r["fetch_ts"], r["status"], r["gen"]) for r in rows]


def test_crawl_wave_runs_no_ray_data(corpus, oracle_out, ray_session,  # noqa: F811
                                     monkeypatch):
    """No generation starts a Ray Data execution, at any wave size: the
    shard actors normalize and route each wave, and the driver merges the
    shards' sorted permit and seen runs. Nor does the final seen.parquet,
    a streamed merge of the generations' seen sinks, read through Ray
    Data. The second crawl takes 7-row permit chunks."""
    import ray.data

    import spider_ray.pipelines.crawl as C

    def _no_ray_data(*args, **kwargs):
        raise AssertionError("the crawl wave started a Ray Data execution")

    monkeypatch.setattr(ray.data, "from_arrow_refs", _no_ray_data)
    monkeypatch.setattr(ray.data, "read_parquet", _no_ray_data)
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(C, "PERMIT_CHUNK", 7)
        shutil.rmtree(OUT_W, ignore_errors=True)
        C.run_crawl(corpus, OUT_W, num_shards=2, fetch_concurrency=2)
        assert _crawl_order(_engine_rows(OUT_W, "status.parquet")) == (
            _crawl_order(oracle_out["crawl_order"])
        )
    shutil.rmtree(OUT_W, ignore_errors=True)


def test_more_shards_than_hosts(ray_session, tmp_path):
    """8 shards over a 3-host web: most shards get no rows from any block,
    so their schedule_wave runs over empty tables only. The crawl must
    still match the oracle."""
    import spider_ray.pipelines.crawl as C

    corpus3 = str(tmp_path / "corpus")
    generate(corpus3, n_pages=60, n_hosts=3, seed=5)
    gold = run_oracle(corpus3, num_shards=8)
    out = str(tmp_path / "out")
    try:
        C.run_crawl(corpus3, out, num_shards=8, fetch_concurrency=1)
    finally:
        # eight idle shard actors are more than any other test needs
        C.shutdown_fleet()
    assert _crawl_order(_engine_rows(out, "status.parquet")) == (
        _crawl_order(gold["crawl_order"])
    )
    assert pq.read_table(os.path.join(out, "seen.parquet")).to_pylist() == (
        gold["seen"]
    )
    shards_with_rows = {
        r["shard"] for r in _engine_rows(out, "metrics.parquet")
        if r["candidates"]
    }
    assert len(shards_with_rows) <= 3


def _task_names(t0: float, t1: float) -> set[str]:
    """Names of the Ray tasks that started in [t0, t1]. Actor calls show
    as "Class.method", plain tasks without a dot."""
    return {
        e["cat"][len("task::"):]
        for e in ray.timeline()
        if e.get("cat", "").startswith("task::")
        and t0 * 1e6 <= e["ts"] <= t1 * 1e6
    }


def test_crawl_runs_no_task(corpus, ray_session):  # noqa: F811
    """The shard actors normalize and route each wave, the fetch actors
    derive their own blocks, and the driver routes permits and image refs
    straight to them: a crawl runs no plain Ray task, only actor calls."""
    from spider_ray.pipelines.crawl import run_crawl

    shutil.rmtree(OUT_W, ignore_errors=True)
    t0 = time.time()
    run_crawl(corpus, OUT_W, num_shards=2, fetch_concurrency=2)
    t1 = time.time()
    shutil.rmtree(OUT_W, ignore_errors=True)
    # workers report task events to the timeline about once a second;
    # the crawl's own actor calls showing up proves the window is reported
    while True:
        names = _task_names(t0, t1)
        if time.time() > t1 + 10 or (
            "ShardActor.schedule_wave" in names and time.time() > t1 + 3
        ):
            break
        time.sleep(0.5)
    assert {n for n in names if "." not in n} == set()
    assert {"ShardActor.normalize_split", "FetchWorker.fetch_derive"} <= names


def _make_filter_handler(reverse: bool):
    # a closure, so cloudpickle ships it by value to the fetch actors
    def drop_rows(block):
        keep = pc.and_(
            pc.not_equal(block["status"], 404),
            pc.not_equal(pc.bit_wise_and(block["seq"], 3), 1),
        )
        block = block.filter(keep)
        if reverse:  # handlers may reorder rows; sinks stay in crawl order
            block = block.take(list(range(block.num_rows - 1, -1, -1)))
        return block

    return drop_rows


@pytest.mark.parametrize("reverse", [False, True])
def test_filtering_handler_sinks_independent_of_pool(corpus, oracle_out,  # noqa: F811
                                                     ray_session, tmp_path,
                                                     reverse):
    """A result handler that drops (and, reversed, reorders) rows runs on
    each owner's part of a permit chunk; the driver's merge by position
    must give the same sinks, in crawl order, whatever the fetch pool
    size."""
    from spider_ray.pipelines.crawl import run_crawl

    assert any(r["status"] == 404 for r in oracle_out["crawl_order"])
    sinks = []
    for pool in (1, 3):
        out = str(tmp_path / f"pool{pool}")
        run_crawl(corpus, out, num_shards=2, fetch_concurrency=pool,
                  result_handler=_make_filter_handler(reverse))
        status = _engine_rows(out, "status.parquet")
        assert status and all(r["status"] != 404 for r in status)
        keys = [(r["gen"], r["fetch_ts"], r["priority"], r["seq"], r["host"])
                for r in status]
        assert keys == sorted(keys)
        sinks.append((
            status,
            _engine_rows(out, "images.parquet"),
            _engine_rows(out, "next_candidates.parquet"),
            pq.read_table(os.path.join(out, "seen.parquet")).to_pylist(),
        ))
    assert sinks[0][1], "the filtered crawl should still keep images"
    assert sinks[0] == sinks[1]
