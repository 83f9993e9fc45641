"""``crawl._merge_runs`` merges runs each sorted by a key: the shards'
permit runs by ``SORT_KEYS`` into the crawl order, and the seen runs by
``SEEN_KEYS`` into each generation's seen sink and into ``seen.parquet``.
The result is the rows of ``pa.concat_tables(runs).sort_by(keys)``, in
chunks that are never empty and never longer than the chunk size, whether
a run is one table or an iterator of small sorted tables."""

import numpy as np
import pyarrow as pa
import pytest

from spider_ray.pipelines.crawl import (
    PERMIT_SCHEMA,
    SEEN_KEYS,
    SORT_KEYS,
    _merge_runs,
)
from spider_ray.state.scheduler import SEEN_SCHEMA

CHUNKS = [1, 7, 10_000]


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


# url_hash values on both sides of 2**63, so an int64 reading of the
# uint64 column would order them differently
HASHES = np.array([0, 5, 1 << 63, (1 << 64) - 1], dtype=np.uint64)


def _seen_run(rng: np.random.Generator, n: int, tag: int) -> pa.Table:
    """n seen rows sorted by SEEN_KEYS, drawn from so few ``(url_hash,
    url)`` keys that runs share whole keys; ``first_gen`` names the run and
    the row, so the comparison sees which tied row went first."""
    t = pa.table({
        "url_hash": pa.array(HASHES[rng.integers(0, 4, n)], pa.uint64()),
        "url": pa.array([f"u{k}" for k in rng.integers(0, 3, n)], pa.string()),
        "first_gen": pa.array(tag * 1000 + np.arange(n), pa.int32()),
    }, schema=SEEN_SCHEMA)
    return t.sort_by(SEEN_KEYS)


def _batches(t: pa.Table, rng: np.random.Generator):
    """``t`` as an iterator of consecutive 1-7-row tables."""
    i = 0
    while i < t.num_rows:
        n = int(rng.integers(1, 8))
        yield t.slice(i, n)
        i += n


def _check(runs: list[pa.Table], chunk: int, keys=SORT_KEYS,
           rng: np.random.Generator | None = None) -> None:
    """Merge ``runs`` (as iterators of small tables when ``rng`` is given)
    and compare with the whole stable sort."""
    given = [_batches(r, rng) for r in runs] if rng is not None else runs
    chunks = list(_merge_runs(given, chunk, keys))
    assert all(0 < c.num_rows <= chunk for c in chunks)
    want = pa.concat_tables(runs).sort_by(keys)
    got = pa.concat_tables(chunks) if chunks else want.slice(0, 0)
    assert got.equals(want)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("trial", range(20))
def test_merge_equals_whole_sort(chunk, trial):
    """Random uneven runs, empty ones among them."""
    rng = np.random.default_rng(trial)
    sizes = rng.integers(0, 60, rng.integers(1, 9))
    sizes[rng.integers(0, len(sizes))] = 0
    _check([_run(rng, int(n), k) for k, n in enumerate(sizes)], chunk)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("trial", range(10))
def test_seen_merge_equals_whole_sort(trial, chunk, batched):
    """Seen runs full of duplicate ``(url_hash, url)`` keys, whose ties
    must leave in run order, given whole or as iterators of 1-7-row
    tables."""
    rng = np.random.default_rng(100 + trial)
    sizes = rng.integers(0, 60, rng.integers(1, 9))
    sizes[rng.integers(0, len(sizes))] = 0
    runs = [_seen_run(rng, int(n), k) for k, n in enumerate(sizes)]
    _check(runs, chunk, SEEN_KEYS, rng if batched else None)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_merge_reads_at_most_a_chunk_ahead(chunk):
    """The merge asks a run for its next table only while it holds fewer
    than ``chunk`` of that run's rows that it has not emitted yet, so it
    holds at most ``chunk`` rows of a run plus the one table that crossed
    that mark."""
    rng = np.random.default_rng(3)
    runs = [_seen_run(rng, n, k) for k, n in enumerate([300, 0, 45, 1, 500])]
    pulled, emitted = [0] * len(runs), [0] * len(runs)

    def _counted(k: int, t: pa.Table):
        for b in _batches(t, rng):
            assert pulled[k] - emitted[k] < chunk
            pulled[k] += b.num_rows
            yield b

    chunks = []
    for c in _merge_runs([_counted(k, r) for k, r in enumerate(runs)],
                         chunk, SEEN_KEYS):
        for k in (c["first_gen"].to_numpy() // 1000).tolist():
            emitted[k] += 1
        chunks.append(c)
    assert pulled == emitted == [r.num_rows for r in runs]
    assert pa.concat_tables(chunks).equals(
        pa.concat_tables(runs).sort_by(SEEN_KEYS)
    )


@pytest.mark.parametrize("chunk", CHUNKS)
def test_merge_hot_run(chunk):
    """One run holds nearly every row, as on a hot host's shard."""
    rng = np.random.default_rng(99)
    sizes = [2, 0, 500, 1, 3]
    _check([_run(rng, n, k) for k, n in enumerate(sizes)], chunk)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_merge_no_rows(chunk):
    """No runs, or only empty ones: no chunk at all."""
    rng = np.random.default_rng(0)
    assert list(_merge_runs([], chunk, SORT_KEYS)) == []
    assert list(_merge_runs([_run(rng, 0, 0), _run(rng, 0, 1)], chunk,
                            SORT_KEYS)) == []
    empty = SEEN_SCHEMA.empty_table()
    assert list(_merge_runs([iter([]), iter([empty, empty])], chunk,
                            SEEN_KEYS)) == []
