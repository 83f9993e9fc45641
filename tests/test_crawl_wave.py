"""Shape of one crawl wave: normalize+route runs as plain Ray tasks (no
Ray Data execution, so no schema reconciliation between bundles), and a
shard that no block routes a row to still schedules its (empty) wave."""

import logging
import os
import shutil

import pyarrow.parquet as pq

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
    """Below DS_SORT_THRESHOLD a crawl starts no Ray Data execution: every
    generation normalizes and routes its candidates in plain tasks."""
    import ray.data

    from spider_ray.pipelines.crawl import run_crawl

    def _no_ray_data(*args, **kwargs):
        raise AssertionError("the crawl wave started a Ray Data execution")

    monkeypatch.setattr(ray.data, "from_arrow_refs", _no_ray_data)
    shutil.rmtree(OUT_W, ignore_errors=True)
    run_crawl(corpus, OUT_W, num_shards=2, fetch_concurrency=2)
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
