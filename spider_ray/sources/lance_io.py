"""Lance-format I/O seam for the image+caption store.

The north rule targets "Lance tables of image + caption pairs"
(BASELINE.json input_hint: ``image_id:string, bytes:binary, w:int32,
h:int32, fmt:string, caption:string, phash:int64``). This container ships
no ``lance`` wheel, so the FORMAT is a gated two-branch dispatch — the
table contract (schema, column pruning, Ray Dataset out) is identical on
both branches and this module is the only place that knows which bytes
hit disk:

* ``lance`` importable → ``lance.write_dataset`` / ``ray.data.read_lance``
  (Ray Data's native Lance reader: distributed fragment-parallel scan
  with column projection pushdown).
* fallback (this container) → Parquet with the same schema under the
  same logical path, ``.parquet`` suffix instead of ``.lance``.

The corpus image store is format-agnostic end to end: webgen WRITES it
through :func:`write_images`, and readers (the oracle crawler's
``load_corpus``, the fetch actors' WebIndex build, ``phash_neardup``)
locate it with :func:`resolve_images` and read through
:func:`read_images` / :func:`read_images_table` — so installing the
lance wheel flips the store to Lance with no call-site changes. Two
deliberate parquet holdouts: webgen also writes a parquet twin under
lance (the DuckDB oracles read the store directly and DuckDB has no
lance reader), and the crawl's per-generation image SINK stays parquet
(it is a rolling append stream under the resumable-gen contract, not
the static interchange table this seam covers).
"""

from __future__ import annotations

import os

import pyarrow as pa

try:  # pragma: no cover - wheel not present in this container
    import lance  # type: ignore

    HAVE_LANCE = True
except Exception:  # pragma: no cover
    lance = None
    HAVE_LANCE = False

# the input_hint contract, verbatim
IMAGE_HINT_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


def conform_images(tbl: pa.Table) -> pa.Table:
    """Cast/reorder a table to the exact input_hint image schema.

    Raises ``ValueError`` on missing columns — writing a near-miss schema
    silently would defeat the contract. Extra columns are dropped (the
    hint is the interchange surface; enriched variants keep their own
    sinks)."""
    missing = [n for n in IMAGE_HINT_SCHEMA.names if n not in tbl.column_names]
    if missing:
        raise ValueError(f"image table missing input_hint columns: {missing}")
    cols = [
        tbl[n].cast(IMAGE_HINT_SCHEMA.field(n).type)
        for n in IMAGE_HINT_SCHEMA.names
    ]
    return pa.table(dict(zip(IMAGE_HINT_SCHEMA.names, cols)))


def images_path(base: str) -> str:
    """The on-disk path for an image store rooted at ``base`` (no
    extension) — ``base.lance`` when the wheel is present, else
    ``base.parquet``."""
    return base + (".lance" if HAVE_LANCE else ".parquet")


def write_images(tbl: pa.Table, base: str) -> str:
    """Write an image+caption table under ``base`` (extensionless root);
    returns the concrete path written. The table is conformed to the
    input_hint schema first, so both formats carry identical logical
    content."""
    tbl = conform_images(tbl)
    path = images_path(base)
    if HAVE_LANCE:  # pragma: no cover - wheel not present here
        lance.write_dataset(tbl, path, mode="overwrite")
    else:
        import pyarrow.parquet as pq

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pq.write_table(tbl, path)
    return path


def read_images(
    path: str, columns: list[str] | None = None
) -> ray.data.Dataset:
    """Distributed read of an image store written by :func:`write_images`
    (or any path carrying the input_hint schema). Column projection is
    pushed into the scan on both branches — a phash-only near-dup pass
    never moves the bytes column."""
    # imported here, not at module top: the oracle imports this module and
    # should not need Ray Data for it. A fetch actor loads Ray Data anyway at
    # its first call, because Ray's reducer for the Arrow tables it receives
    # imports ray.air's tensor extensions, which import ray.data
    import ray.data

    if path.endswith(".lance"):  # pragma: no cover - wheel not present
        return ray.data.read_lance(path, columns=columns)
    return ray.data.read_parquet(path, columns=columns)


def resolve_images(base: str) -> str:
    """Locate the image store rooted at ``base`` (extensionless): prefers
    ``base.lance`` when present, else ``base.parquet``. Lets readers stay
    format-blind across corpora written with and without the wheel."""
    for ext in (".lance", ".parquet"):
        if os.path.exists(base + ext):
            return base + ext
    raise FileNotFoundError(f"no image store at {base}.lance/.parquet")


def iter_images_batches(path: str, batch_size: int = 4096):
    """Streaming driver-side read of an image store — record batches of
    ``batch_size`` rows on both branches. Used where a consumer keeps
    only a FILTERED slice (the sharded WebIndex build): transient memory
    is one batch, not the whole bytes-heavy table."""
    if path.endswith(".lance"):  # pragma: no cover - wheel not present
        yield from lance.dataset(path).to_batches(batch_size=batch_size)
        return
    import pyarrow.parquet as pq

    yield from pq.ParquetFile(path).iter_batches(batch_size=batch_size)


def read_images_table(path: str) -> pa.Table:
    """DRIVER-side (non-distributed) read of an image store as one Arrow
    table — the small-corpus path (oracle crawler, WebIndex build). For
    the distributed path use :func:`read_images`."""
    if path.endswith(".lance"):  # pragma: no cover - wheel not present
        return lance.dataset(path).to_table()
    import pyarrow.parquet as pq

    return pq.read_table(path)
