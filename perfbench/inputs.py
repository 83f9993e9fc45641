"""Seeded benchmark inputs, cached inside the checkout.

A cache entry is keyed by (parameters, seed, generator source hash), so a
change to ``sources/webgen.py`` or to this file never reuses stale inputs.
Entries are built in a temporary sibling directory and renamed into place.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def cached(work_dir: str, name: str, params: dict, sources: list, build) -> tuple[str, float]:
    """Return (directory, seconds its build took). The build time is kept
    in the entry's ``_DONE`` marker, so a cache hit reports the same."""
    src = "".join(inspect.getsource(m) for m in sources)
    key = hashlib.sha1(
        (json.dumps(params, sort_keys=True) + src).encode()
    ).hexdigest()[:16]
    path = os.path.join(work_dir, "cache", f"{name}-{key}")
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        with open(done) as f:
            return path, float(f.read())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix=f"{name}.", dir=os.path.dirname(path))
    build(tmp)
    build_s = time.perf_counter() - t0
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write(repr(build_s))
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    return path, build_s


def web_corpus(work_dir: str, seed: int, **params) -> tuple[str, float]:
    """A ``webgen.generate`` corpus; ``params`` are its keyword arguments."""
    from spider_ray.sources import webgen

    args = dict(params, seed=seed)
    return cached(
        work_dir, "webgen", args, [webgen],
        lambda d: webgen.generate(d, **args),
    )


WORDS = (
    "key agg row scan slow fast table value part hash merge batch spark "
    "order data column join small line customer query big stream window "
    "sort filter group vector the a"
).split()
LANGS = ["en", "en", "en", "zh", "es", "de", "fr"]
EVENT_TYPES = ["signup", "error", "click", "view", "purchase"]


def _documents(rng: np.random.RandomState, n: int) -> pa.Table:
    texts: list[str] = []
    for i in range(n):
        r = rng.randint(10)
        if i > 10 and r == 0:  # exact duplicate of an earlier doc
            texts.append(texts[rng.randint(i)])
        elif i > 10 and r == 1:  # near duplicate: a few words swapped
            words = texts[rng.randint(i)].split()
            for _ in range(1 + rng.randint(3)):
                words[rng.randint(len(words))] = WORDS[rng.randint(len(WORDS))]
            texts.append(" ".join(words))
        else:
            n_words = 20 + rng.randint(60)
            texts.append(" ".join(WORDS[j] for j in rng.randint(len(WORDS), size=n_words)))
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([LANGS[j] for j in rng.randint(len(LANGS), size=n)]),
        "source": pa.array([f"src{j}" for j in rng.randint(20, size=n)]),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def _embeddings(rng: np.random.RandomState, n: int, dim: int = 64) -> pa.Table:
    labels = rng.randint(10, size=n)
    centers = rng.normal(0, 0.2, size=(10, dim))
    vecs = centers[labels] + rng.normal(0, 0.08, size=(n, dim))
    for i in np.flatnonzero(rng.rand(n - 1) < 0.1) + 1:
        # near copy of the previous vector: semantic dedup has work to do
        vecs[i] = vecs[i - 1] + rng.normal(0, 0.002, size=dim)
        labels[i] = labels[i - 1]
    return pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(list(vecs.astype(np.float32)), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })


def _events(rng: np.random.RandomState, n: int, users: int) -> pa.Table:
    gaps = rng.randint(1, 60_000_000, size=n)  # up to a minute apart, in us
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.cumsum(gaps).astype("timedelta64[us]")
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.randint(users, size=n), pa.int64()),
        "event_type": pa.array([EVENT_TYPES[j] for j in rng.randint(5, size=n)]),
        "value": pa.array(np.round(rng.rand(n) * 20, 2), pa.float64()),
        "props": pa.array([f'{{"k": {j}}}' for j in rng.randint(100, size=n)]),
    })


def sf_tables(work_dir: str, seed: int, docs: int, vecs: int, events: int) -> tuple[str, float]:
    """``documents`` / ``embeddings`` / ``events`` parquet tables in the
    schema of the repository's scale-factor test tables."""
    params = {"seed": seed, "docs": docs, "vecs": vecs, "events": events}

    def build(d: str) -> None:
        rng = np.random.RandomState(seed)
        pq.write_table(_documents(rng, docs), os.path.join(d, "documents.parquet"))
        pq.write_table(_embeddings(rng, vecs), os.path.join(d, "embeddings.parquet"))
        pq.write_table(
            _events(rng, events, max(events // 60, 10)),
            os.path.join(d, "events.parquet"),
        )

    return cached(work_dir, "sf", params, [sys.modules[__name__]], build)
