"""The overlap window: generation g+1's shard calls go out before g's
images, checkpoint and ``_DONE`` are finished (``crawl._submit_wave``). A
fault or a stop inside that window must leave a run that resumes after the
last ``_DONE`` generation to the oracle's outputs, without re-fetching it."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from spider_ray.pipelines.crawl import read_sink
from tests.test_crawl_parity import (  # noqa: F401 (fixtures)
    OUT,
    _engine_rows,
    corpus,
    engine_out,
    oracle_out,
)


def _in_window(monkeypatch, action) -> list:
    """Run ``action(out_dir)`` when generation 1 writes its checkpoint, in
    its window: after generation 2's shard calls were submitted, before
    generation 1's ``_DONE``. Returns the generations ``_submit_wave`` is
    called for, in order, with ``"fired"`` appended when the action runs."""
    import spider_ray.pipelines.crawl as C

    submitted = []
    submit, write = C._submit_wave, C._write_checkpoint

    def _submit(actors, blocks, gen, wave_start):
        submitted.append(gen)
        return submit(actors, blocks, gen, wave_start)

    def _write(gen_dir, blobs, wave_start):
        if os.path.basename(gen_dir) == "gen=1" and submitted[-1] == 2:
            submitted.append("fired")
            action(os.path.dirname(gen_dir))
        return write(gen_dir, blobs, wave_start)

    monkeypatch.setattr(C, "_submit_wave", _submit)
    monkeypatch.setattr(C, "_write_checkpoint", _write)
    return submitted


def _done(out: str) -> list[str]:
    return sorted(d for d in os.listdir(out) if d.startswith("gen=")
                  and os.path.exists(os.path.join(out, d, "_DONE")))


def _files(out: str) -> set[str]:
    return {os.path.relpath(p, out)
            for p in glob.glob(os.path.join(out, "gen=*", "**"), recursive=True)
            if os.path.isfile(p)}


def _assert_oracle(out: str, gold: dict) -> None:
    eng = _engine_rows(out, "status.parquet")
    assert len(eng) == len(gold["crawl_order"])
    for e, g in zip(eng, gold["crawl_order"]):
        assert (e["url"], e["fetch_ts"], e["gen"], e["seq"], e["status"]) == (
            g["url"], g["fetch_ts"], g["gen"], g["seq"], g["status"]
        )
    seen = pq.read_table(os.path.join(out, "seen.parquet")).to_pylist()
    assert seen == gold["seen"]
    assert _engine_rows(out, "images.parquet") == gold["images"]


@pytest.mark.parametrize("chunk", [2048, 7])
def test_fault_in_window_resumes_after_last_done(
    corpus, oracle_out, engine_out, ray_session, monkeypatch, chunk
):
    """A driver fault inside generation 1's window (one chunk per
    generation, or many): generation 1 has no ``_DONE`` and generation 2 no
    directory, and the resume starts after generation 0."""
    import spider_ray.pipelines.crawl as C

    monkeypatch.setattr(C, "PERMIT_CHUNK", chunk)
    out = "/tmp/spider_ray_test_window_fault"
    shutil.rmtree(out, ignore_errors=True)

    def _fault(out_dir):
        raise RuntimeError("fault inside the window")

    submitted = _in_window(monkeypatch, _fault)
    with pytest.raises(RuntimeError, match="inside the window"):
        C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)
    assert submitted == [0, 1, 2, "fired"]
    assert _done(out) == ["gen=0"]
    assert not os.path.exists(os.path.join(out, "gen=2"))
    gen0 = {p: os.path.getmtime(os.path.join(out, p)) for p in _files(out)
            if p.startswith("gen=0")}
    n0 = read_sink(os.path.join(out, "gen=0"), "status").num_rows

    monkeypatch.undo()
    monkeypatch.setattr(C, "PERMIT_CHUNK", chunk)
    res = C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2,
                      resume=True)
    # gen 0 is not re-fetched, and no file of the killed attempt at gen 1
    # survives beside the files an uninterrupted run writes
    assert {p: os.path.getmtime(os.path.join(out, p)) for p in gen0} == gen0
    assert _files(out) == _files(OUT)
    _assert_oracle(out, oracle_out)
    assert n0 + res["total_fetched"] == len(oracle_out["crawl_order"])


def test_stop_in_window_drops_the_submitted_generation(
    corpus, oracle_out, engine_out, ray_session, monkeypatch
):
    """A ``stop_after_gen: 1`` that arrives after generation 2's shard calls
    went out: generation 2 never starts (no directory), generation 1 is
    complete, and a resume from there matches the oracle."""
    import spider_ray.pipelines.crawl as C

    out = "/tmp/spider_ray_test_window_stop"
    shutil.rmtree(out, ignore_errors=True)

    def _stop(out_dir):
        with open(os.path.join(out_dir, "control.json"), "w") as f:
            json.dump({"stop_after_gen": 1}, f)

    submitted = _in_window(monkeypatch, _stop)
    part = C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2)
    assert submitted == [0, 1, 2, "fired"]
    assert part["stopped_by_control"]
    assert _done(out) == ["gen=0", "gen=1"]
    assert not os.path.exists(os.path.join(out, "gen=2"))
    # generation 1 records the window its successor's calls ran in
    m = pq.read_table(os.path.join(out, "gen=1", "metrics.parquet"))
    assert min(m["overlap_s"].to_pylist()) > 0

    monkeypatch.undo()
    full = C.run_crawl(corpus, out, num_shards=2, fetch_concurrency=2,
                       resume=True)
    assert not full["stopped_by_control"]
    assert _files(out) == _files(OUT)
    _assert_oracle(out, oracle_out)
    assert part["total_fetched"] + full["total_fetched"] == len(
        oracle_out["crawl_order"])
