"""Shape of one crawl wave: the fused normalize+route operator emits one
schema for every batch, so Ray Data never has to reconcile bundles."""

import logging
import shutil

from tests.test_crawl_parity import corpus  # noqa: F401 (fixture)

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
