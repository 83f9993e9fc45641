"""``crawl._merge_runs`` merges the shards' permit runs, each sorted by
``SORT_KEYS``, into the crawl order: the rows of
``pa.concat_tables(runs).sort_by(SORT_KEYS)``, in chunks that are never
empty and never longer than the chunk size."""

import numpy as np
import pyarrow as pa
import pytest

from spider_ray.pipelines.crawl import PERMIT_SCHEMA, SORT_KEYS, _merge_runs


def _run(rng: np.random.Generator, n: int, tag: int) -> pa.Table:
    """n permit rows sorted by SORT_KEYS. Keys come from small ranges, so
    rows tie on fetch_ts and priority and, now and then, on every key;
    ``url`` names the row, so the comparison sees which tied row went
    first."""
    t = pa.table({
        "fetch_ts": pa.array(rng.integers(0, 8, n), pa.int64()),
        "url": pa.array([f"http://h{tag}/{i}" for i in range(n)], pa.string()),
        "url_hash": pa.array(rng.integers(0, 1 << 62, n), pa.uint64()),
        "host": pa.array([f"h{k}" for k in rng.integers(0, 3, n)], pa.string()),
        "priority": pa.array(rng.integers(0, 3, n), pa.int16()),
        "gen": pa.array(rng.integers(0, 2, n), pa.int32()),
        "seq": pa.array(rng.integers(0, 4, n), pa.int64()),
        "depth": pa.array(np.zeros(n), pa.int16()),
        "tried": pa.array(np.zeros(n), pa.int16()),
        "referer": pa.array([""] * n, pa.string()),
    }, schema=PERMIT_SCHEMA)
    return t.sort_by(SORT_KEYS)


def _check(runs: list[pa.Table], chunk: int) -> None:
    chunks = list(_merge_runs(runs, chunk))
    assert all(0 < c.num_rows <= chunk for c in chunks)
    want = pa.concat_tables(runs).sort_by(SORT_KEYS)
    got = pa.concat_tables(chunks) if chunks else want.slice(0, 0)
    assert got.equals(want)


@pytest.mark.parametrize("chunk", [1, 7, 10_000])
@pytest.mark.parametrize("trial", range(20))
def test_merge_equals_whole_sort(chunk, trial):
    """Random uneven runs, empty ones among them."""
    rng = np.random.default_rng(trial)
    sizes = rng.integers(0, 60, rng.integers(1, 9))
    sizes[rng.integers(0, len(sizes))] = 0
    _check([_run(rng, int(n), k) for k, n in enumerate(sizes)], chunk)


@pytest.mark.parametrize("chunk", [1, 7, 10_000])
def test_merge_hot_run(chunk):
    """One run holds nearly every row, as on a hot host's shard."""
    rng = np.random.default_rng(99)
    sizes = [2, 0, 500, 1, 3]
    _check([_run(rng, n, k) for k, n in enumerate(sizes)], chunk)


@pytest.mark.parametrize("chunk", [1, 7, 10_000])
def test_merge_no_rows(chunk):
    """No runs, or only empty ones: no chunk at all."""
    rng = np.random.default_rng(0)
    assert list(_merge_runs([], chunk)) == []
    assert list(_merge_runs([_run(rng, 0, 0), _run(rng, 0, 1)], chunk)) == []
