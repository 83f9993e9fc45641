"""Deduplication pipelines over the ``documents`` table.

Reference analogs (SURVEY §2.7): exact URL dedup D2 (``gb(url_hash)``
first-wins), near-dup simhash D5 (``dedup/html_simhash``), sub-resource
fetch dedup D6. Re-expressed as Ray Data pipelines:

* exact: hash-partitioned group-by text-hash, first-wins;
* MinHash+LSH: shingle → minhash signature → band → distributed bucket
  cogroup → candidate pairs → exact-Jaccard verify via signature re-join;
* SimHash: 64-bit signature + banded candidates, Hamming verify by
  signature re-join;
* n-gram Jaccard: exhaustive shingle-bucket cogroup (zero-miss candidate
  generation; at 100 TB the LSH variant is the scale path, this one is the
  oracle-checkable exact variant) with counting-only verify;
* embedding cosine near-dup: blockwise matmul against a broadcast
  normalized matrix (exact tiny-scale oracle variant).

The reduce side of every near-dup op is fully distributed
(_bucket_cogroup_pairs + hash joins): the driver only ever materializes
the final pair list, never bucket contents or per-doc signatures.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import ray

from spider_ray.kernels.hashing import SEED, hash64
from spider_ray.kernels import tokens as tk
from spider_ray.sources.tables import read_table
from spider_ray.pipelines.relational import _concat, _sorted

NGRAM_K = 3
JACCARD_TAU = 0.5
LSH_BANDS = 32
HAMMING_TAU = 6
COSINE_TAU = 0.4  # synthetic embeddings have no planted near-dups; 0.4 yields a non-trivial pair set (max pairwise cosine ~0.51)

# Reduce-side fan-out. COGROUP_PARTITIONS bounds the per-worker slice of the
# bucket table during candidate generation; JOIN_PARTITIONS is the hash-join
# fan-out for the signature re-join. Both scale with cluster size, not
# corpus size — at 256 nodes raise them to ~4× total cores.
COGROUP_PARTITIONS = 32
JOIN_PARTITIONS = 16

def _hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    rename: dict[str, str] | None = None,
    hot_keys: frozenset | None = None,
    salt: int = 1,
    how: str = "inner",
) -> ray.data.Dataset:
    """Distributed inner hash join via the partition-cogroup pattern: tag
    each side with ``part = hash64(key) % JOIN_PARTITIONS``, pad both sides
    to one shared schema (side tag + nulls for the other side's columns),
    union, ``groupby(part)``, and join the two sides inside each partition
    group with a vectorized polars join.

    **Skew salting** (the brief's "salt hot keys"): pass ``hot_keys`` (a
    small frozenset of key values) and ``salt`` = S > 1 to spread each
    hot key over S partitions — LEFT hot rows get part = (hash + i) %
    P with i cycling 0..S-1 (any spreading is correct: the join result
    is bucket-invariant), and RIGHT hot rows are REPLICATED once per
    salt bucket. Shuffle volume grows only by (S-1)·|right hot rows| —
    for a dimension-table right side that is S-1 extra rows per hot
    key — while the hot partition's left volume drops by S×. Non-hot
    keys are untouched, so ``salt=1``/``hot_keys=None`` is the plain
    join. ``how="left"`` keeps unmatched left rows with null payload
    (LEFT OUTER) — correct under salting too: a left row's partition
    holds its key's right replica iff the key exists on the right at
    all.

    This deliberately avoids ``Dataset.join``: its aggregator-actor pool
    deadlocks at low CPU counts under the default memory reservation and
    races schema broadcast on empty partitions (zero-field blocks →
    "No match for FieldRef" in chained joins). The cogroup shape uses only
    the native sort-based groupby, which has neither failure mode, and
    moves each row exactly once — same shuffle volume as a hash join.

    Schemas are passed explicitly (``ds.schema()`` would trigger a plan
    execution). Output columns: ``left_schema`` fields then the right
    side's non-key fields, with ``rename`` applied to the right payload.
    """
    from spider_ray.kernels.hashing import SEED

    rename = rename or {}
    r_payload = [f for f in right_schema if f.name != right_on]
    out_schema = pa.schema(
        list(left_schema)
        + [pa.field(rename.get(f.name, f.name), f.type) for f in r_payload]
    )
    union_schema = pa.schema(
        [pa.field("__part", pa.int32()), pa.field("__side", pa.int8())]
        + list(left_schema)
        + r_payload
    )

    def pad(key: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            u = (
                pl.from_arrow(t.select([key]))
                .select(pl.col(key).hash(seed=SEED))
                .to_series()
                .to_numpy()
                .astype(np.uint64)
            )
            if hot_keys is not None and salt > 1:
                hot = np.isin(
                    t[key].to_numpy(zero_copy_only=False),
                    np.array(sorted(hot_keys)),
                )
                if side == 1 and hot.any():
                    # replicate right hot rows once per salt bucket
                    idx = np.flatnonzero(hot)
                    rep = np.concatenate(
                        [np.arange(t.num_rows)] + [idx] * (salt - 1)
                    )
                    offs = np.concatenate(
                        [np.zeros(t.num_rows, np.uint64)]
                        + [
                            np.full(len(idx), i, np.uint64)
                            for i in range(1, salt)
                        ]
                    )
                    t = t.take(pa.array(rep))
                    u = u[rep] + offs
                elif side == 0 and hot.any():
                    # spread left hot rows across the salt buckets
                    u = u + np.where(
                        hot,
                        (np.arange(t.num_rows) % salt).astype(np.uint64),
                        np.uint64(0),
                    )
            part = (u % np.uint64(JOIN_PARTITIONS)).astype(np.int32)
            cols = {"__part": pa.array(part, pa.int32()),
                    "__side": pa.array(np.full(t.num_rows, side, np.int8))}
            for f_ in union_schema:
                if f_.name in ("__part", "__side"):
                    continue
                src = f_.name
                if side == 1:
                    # the right key travels in the LEFT key's column slot
                    if src == on:
                        src = right_on
                    elif src not in t.column_names:
                        cols[f_.name] = pa.nulls(t.num_rows, f_.type)
                        continue
                elif src not in t.column_names:
                    cols[f_.name] = pa.nulls(t.num_rows, f_.type)
                    continue
                cols[f_.name] = t[src].cast(f_.type)
            return pa.table({f_.name: cols[f_.name] for f_ in union_schema})

        return f

    tagged = left.map_batches(pad(on, 0), batch_format="pyarrow").union(
        right.map_batches(pad(right_on, 1), batch_format="pyarrow")
    )

    l_names = [f.name for f in left_schema]
    p_names = [f.name for f in r_payload]

    def cogroup(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group)
        l = df.filter(pl.col("__side") == 0).select(l_names)
        r = df.filter(pl.col("__side") == 1).select([on] + p_names)
        out = l.join(r, on=on, how=how).rename(
            {k: v for k, v in rename.items() if k in p_names}
        )
        return out.to_arrow().select(out_schema.names).cast(out_schema)

    joined = tagged.groupby("__part").map_groups(
        cogroup, batch_format="pyarrow"
    )
    return joined.map_batches(_conform(out_schema), batch_format="pyarrow")


def _anti_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str,
    left_schema: pa.Schema,
) -> ray.data.Dataset:
    """Distributed ANTI join (left rows whose key never appears on the
    right) via the same partition-cogroup shape as ``_hash_join``: tag both
    sides with ``part = hash64(key) % JOIN_PARTITIONS``, union,
    ``groupby(part)``, and anti-join inside each partition group with a
    vectorized polars join. Neither side is ever collected to the driver —
    this is the scale form of the broadcast ``pc.is_in`` anti-join
    (J3 linkbase seen-suppression, mr_selector_r1_reducer.cc:54-156)."""
    from spider_ray.kernels.hashing import SEED

    key_type = left_schema.field(on).type
    union_schema = pa.schema(
        [pa.field("__part", pa.int32()), pa.field("__side", pa.int8())]
        + list(left_schema)
    )

    def pad(key: str, side: int):
        def f(t: pa.Table) -> pa.Table:
            part = (
                pl.from_arrow(t.select([key]))
                .select(
                    (pl.col(key).hash(seed=SEED) % JOIN_PARTITIONS)
                    .cast(pl.Int32)
                )
                .to_series()
                .to_numpy()
            )
            cols = {"__part": pa.array(part, pa.int32()),
                    "__side": pa.array(np.full(t.num_rows, side, np.int8))}
            for f_ in left_schema:
                if side == 1:
                    if f_.name == on:
                        cols[f_.name] = t[key].cast(key_type)
                    else:
                        cols[f_.name] = pa.nulls(t.num_rows, f_.type)
                else:
                    cols[f_.name] = t[f_.name].cast(f_.type)
            return pa.table({f_.name: cols[f_.name] for f_ in union_schema})

        return f

    tagged = left.map_batches(pad(on, 0), batch_format="pyarrow").union(
        right.map_batches(pad(right_on, 1), batch_format="pyarrow")
    )
    l_names = [f.name for f in left_schema]

    def cogroup(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group)
        l = df.filter(pl.col("__side") == 0).select(l_names)
        r = df.filter(pl.col("__side") == 1).select([on])
        out = l.join(r, on=on, how="anti")
        return out.to_arrow().cast(left_schema)

    return tagged.groupby("__part").map_groups(
        cogroup, batch_format="pyarrow"
    ).map_batches(_conform(left_schema), batch_format="pyarrow")


def _conform(schema: pa.Schema):
    """Normalize blocks coming out of a hash join / shuffle: empty join
    partitions surface as ZERO-FIELD blocks, which crash a chained join
    ("No match for FieldRef") and any column access downstream. Empty
    blocks are replaced by an empty table of the expected schema; non-empty
    blocks are positionally renamed to the expected names (join output
    order is left columns then right payload columns)."""

    def f(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return schema.empty_table()
        assert t.num_columns == len(schema.names), (
            f"block columns {t.column_names} != expected {schema.names}"
        )
        return t.rename_columns(schema.names)

    return f


def _bucket_cogroup_pairs(
    exploded: ray.data.Dataset, id_type: pa.DataType = None
) -> ray.data.Dataset:
    """Distributed candidate-pair generation from a (bucket, doc_id) table.

    The reduce is reducer-side end to end (the reference's discipline:
    selector/mr_selector_r1_reducer.cc:54-156 merges per key inside the
    reducer, never in a collected map): hash-partition rows by bucket,
    polars self-join on bucket inside each partition group (vectorized pair
    expansion — one partition holds every row of its buckets), then a
    second hash-partition cogroup (by a hash of BOTH ids — same pair →
    same partition, while a hot doc's pairs spread over all partitions
    instead of piling onto ``hash(a_id)``'s one) merges per-pair counts
    with a vectorized polars group_by. Measured: the partition-cogroup
    merge is ~18× faster than
    Ray's native two-key sort aggregate at 2.8 M partial rows (2.1 s vs
    38.5 s, sf0.1 embeddings) with bit-identical output — one int32 key
    shuffles far cheaper than a two-key sort. The driver never sees a
    bucket list.

    Returns a Dataset with columns (a_id, b_id, n_shared) where n_shared is
    the number of buckets the pair co-occurs in. Skew note: a degenerate
    bucket of n docs emits O(n²) pairs inside one worker — same cost the
    SQL oracle's self-join pays; LSH band width is the knob that bounds it.
    """

    def to_part(batch: pa.Table) -> pa.Table:
        # hash the bucket before the modulo: raw bucket values can carry
        # structure in their low bits (embedding-LSH buckets are
        # code(3 bits) | table<<32 — a raw %32 would land on only 8 of the
        # 32 partitions and stack all tables' same-code buckets on one
        # worker); hashing spreads the pair-expansion stage over the full
        # configured fan-out. SEED is bound at module import: an inline
        # import here would execute on the WORKER at call time and crash
        # any driver whose workers can't import spider_ray by name
        # (tests/test_worker_import.py).
        _seed = SEED

        return (
            pl.from_arrow(batch)
            .with_columns(
                part=(
                    pl.col("bucket").hash(seed=_seed) % COGROUP_PARTITIONS
                ).cast(pl.Int32)
            )
            .to_arrow()
        )

    def cogroup(group: pa.Table) -> pa.Table:
        f = pl.from_arrow(group).select("bucket", "doc_id")
        j = f.join(f, on="bucket", suffix="_r").filter(
            pl.col("doc_id") < pl.col("doc_id_r")
        )
        return (
            j.group_by("doc_id", "doc_id_r")
            .len(name="n")
            .rename({"doc_id": "a_id", "doc_id_r": "b_id"})
            .with_columns(pl.col("n").cast(pl.Int64))
            .to_arrow()
        )

    from spider_ray.kernels.hashing import SEED

    parts = exploded.map_batches(to_part, batch_format="pyarrow")
    partials = parts.groupby("part").map_groups(
        cogroup, batch_format="pyarrow"
    )

    def to_pair_part(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .with_columns(
                part=(
                    (
                        pl.col("a_id").hash(seed=SEED)
                        ^ pl.col("b_id").hash(seed=SEED + 1)
                    )
                    % COGROUP_PARTITIONS
                ).cast(pl.Int32)
            )
            .to_arrow()
        )

    def merge_group(group: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(group)
            .group_by("a_id", "b_id")
            .agg(pl.col("n").sum().alias("n_shared"))
            .select("a_id", "b_id", "n_shared")
            .to_arrow()
        )

    id_t = id_type if id_type is not None else pa.int64()
    merged = (
        partials.map_batches(to_pair_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(merge_group, batch_format="pyarrow")
    )
    return merged.map_batches(
        _conform(pa.schema(
            [("a_id", id_t), ("b_id", id_t), ("n_shared", pa.int64())]
        )),
        batch_format="pyarrow",
    )


SEMI_FILTER_MAX_IDS = 4_000_000  # ~32 MB of int64 ids broadcast via ray.put
# collected candidate-doc side slice cap for the zero-shuffle broadcast attach
BROADCAST_VERIFY_MAX_BYTES = 64 << 20


def _attach_pair_values(
    cand: ray.data.Dataset,
    side: ray.data.Dataset,
    key_col: str,
    val_col: str,
    val_type: pa.DataType,
    cand_schema: pa.Schema,
    prep=None,
) -> ray.data.Dataset:
    """Attach a per-doc value column to both ends of a candidate pair list
    (output columns: ``cand_schema`` + ``{val_col}_a`` + ``{val_col}_b``).

    The pair list is output-sized while the per-doc ``side`` is
    corpus-sized, so join order decides the shuffle bill at 100 TB. Two
    regimes, picked at run time:

    * **broadcast** (pairs ≤ SEMI_FILTER_MAX_IDS/2 AND the side values for
      candidate docs fit in BROADCAST_VERIFY_MAX_BYTES): semi-filter the
      side map-side to candidate docs (``pc.is_in`` against a ``ray.put``
      id set, fused with ``prep`` into one stage), collect that
      output-sized slice once, ``ray.put`` it, and attach both ends with a
      single ``pc.index_in`` + ``take`` map over the pair list — zero
      shuffles.
    * **distributed fallback**: two partition-cogroup hash joins
      (`_hash_join`), the reference's reducer-side discipline; the side is
      still semi-filtered whenever the id set is broadcastable.

    ``prep`` (optional, pa.Table -> pa.Table) turns the raw side into
    ``(doc_id, val_col)`` rows — e.g. packing list columns into binary
    blobs, which Ray's shuffle paths require anyway.
    """
    import pyarrow.compute as pc

    cand = cand.materialize()
    n = cand.count()
    id_t = cand_schema.field("a_id").type
    if n == 0:
        # zero candidate pairs: the attach is definitionally empty — skip
        # the corpus-sized side prep and both distributed joins entirely
        return ray.data.from_arrow(
            cand_schema.append(pa.field(f"{val_col}_a", val_type))
            .append(pa.field(f"{val_col}_b", val_type))
            .empty_table()
        )
    semi = 0 < n and 2 * n <= SEMI_FILTER_MAX_IDS
    side_use = None
    if semi:
        t = pa.concat_tables(
            ray.get(cand.to_arrow_refs()), promote_options="default"
        )
        idset = pc.unique(
            pa.concat_arrays(
                [t["a_id"].combine_chunks(), t["b_id"].combine_chunks()]
            )
        )
        id_ref = ray.put(idset)

        def filt_prep(batch: pa.Table) -> pa.Table:
            b = batch.filter(
                pc.is_in(batch[key_col], value_set=ray.get(id_ref))
            )
            return prep(b) if prep is not None else b

        side_use = side.map_batches(
            filt_prep, batch_format="pyarrow"
        ).materialize()
        if (side_use.size_bytes() or 0) <= BROADCAST_VERIFY_MAX_BYTES:
            st = pa.concat_tables(
                ray.get(side_use.to_arrow_refs()),
                promote_options="default",
            )
            s_ref = ray.put(
                {
                    "ids": st["doc_id"].combine_chunks(),
                    "vals": st[val_col].combine_chunks().cast(val_type),
                }
            )

            def attach(batch: pa.Table) -> pa.Table:
                s = ray.get(s_ref)
                ai = pc.index_in(batch["a_id"], value_set=s["ids"])
                bi = pc.index_in(batch["b_id"], value_set=s["ids"])
                return batch.append_column(
                    f"{val_col}_a", s["vals"].take(ai)
                ).append_column(f"{val_col}_b", s["vals"].take(bi))

            return cand.map_batches(attach, batch_format="pyarrow")
    if side_use is None:
        side_use = (
            side.map_batches(prep, batch_format="pyarrow")
            if prep is not None
            else side
        )
    side_schema = pa.schema([("doc_id", id_t), (val_col, val_type)])
    j = _hash_join(
        cand, side_use, "a_id", "doc_id", cand_schema, side_schema,
        rename={val_col: f"{val_col}_a"},
    )
    return _hash_join(
        j, side_use, "b_id", "doc_id",
        cand_schema.append(pa.field(f"{val_col}_a", val_type)), side_schema,
        rename={val_col: f"{val_col}_b"},
    )


def _jaccard_verify(
    cand: ray.data.Dataset, sh: ray.data.Dataset, tau: float
) -> pa.Table:
    """Exact-Jaccard verify of candidate pairs: the shingle sets for both
    ends come back via ``_attach_pair_values`` (broadcast attach when the
    pair list is small, two distributed hash joins otherwise), then exact
    Jaccard per candidate row inside the worker. No corpus-sized state ever
    lands on the driver. Shingle sets travel as packed uint64 binary blobs
    because Ray's shuffle paths reject list-typed payload columns."""

    def pack(batch: pa.Table) -> pa.Table:
        # vectorized: ONE tobytes over the list column's flat child values,
        # then per-row bytes slices at the list offsets (a memcpy each) —
        # no per-row pylist → numpy round-trip
        arr = batch["shingles"].combine_chunks()
        # flatten() yields exactly the listed elements (slice-safe); rebase
        # the offsets to index into it
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(
            np.uint64, copy=False
        )
        buf = flat.tobytes()
        off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        off = (off - off[0]) * 8
        blobs = [buf[off[i]:off[i + 1]] for i in range(len(arr))]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "shb": pa.array(blobs, pa.binary()),
            }
        )

    ids = pa.schema([("a_id", pa.int64()), ("b_id", pa.int64())])
    j = _attach_pair_values(
        cand, sh, "doc_id", "shb", pa.binary(), ids, prep=pack
    )

    def verify(batch: pa.Table) -> pa.Table:
        a_bin = batch["shb_a"].to_pylist()
        b_bin = batch["shb_b"].to_pylist()
        jac = np.empty(len(a_bin), dtype=np.float64)
        for i, (ab, bb) in enumerate(zip(a_bin, b_bin)):
            jac[i] = tk.jaccard(
                np.frombuffer(ab, dtype=np.uint64),
                np.frombuffer(bb, dtype=np.uint64),
            )
        keep = jac >= tau
        kept = batch.filter(pa.array(keep)).select(["a_id", "b_id"])
        return kept.append_column(
            "jaccard", pa.array(jac[keep], pa.float64())
        )

    t = _concat(
        j.map_batches(verify, batch_format="pyarrow"),
        schema=JACCARD_PAIR_SCHEMA,
    )
    return _sorted(t, ["a_id", "b_id"])


def hamming_pair_schema(id_type: pa.DataType | None = None) -> pa.Schema:
    """Output contract of :func:`_hamming_verify` — the ONE place its
    dtypes live, shared by the non-empty path and the empty-result
    conform (a drifted literal twin would only surface on zero-pair
    inputs as a dtype-strict flake)."""
    id_t = id_type if id_type is not None else pa.int64()
    return pa.schema(
        [("a_id", id_t), ("b_id", id_t), ("hamming", pa.int64())]
    )


JACCARD_PAIR_SCHEMA = pa.schema(
    [("a_id", pa.int64()), ("b_id", pa.int64()), ("jaccard", pa.float64())]
)


def _hamming_verify(
    cand: ray.data.Dataset,
    sigs: ray.data.Dataset,
    sig_col: str,
    tau: int,
    id_type: pa.DataType = None,
) -> ray.data.Dataset:
    """Vectorized Hamming verify of candidate pairs: the uint64 signatures
    for both sides come back via ``_attach_pair_values`` (broadcast attach
    or distributed re-join), XOR + popcount per batch, keep pairs with
    distance ≤ tau. Shared by the simhash (text) and phash (image)
    near-dup paths."""
    id_t = id_type if id_type is not None else pa.int64()
    ids = pa.schema([("a_id", id_t), ("b_id", id_t)])
    j = _attach_pair_values(
        cand, sigs, "doc_id", sig_col, pa.uint64(), ids
    )
    sig_a, sig_b = f"{sig_col}_a", f"{sig_col}_b"

    def verify(batch: pa.Table) -> pa.Table:
        a = batch[sig_a].combine_chunks().to_numpy(zero_copy_only=False)
        b = batch[sig_b].combine_chunks().to_numpy(zero_copy_only=False)
        x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
        ham = tk.popcount_u64(x)  # SWAR, constant memory
        keep = ham <= tau
        kept = batch.filter(pa.array(keep)).select(["a_id", "b_id"])
        return kept.append_column(
            "hamming", pa.array(ham[keep].astype(np.int64), pa.int64())
        )

    return j.map_batches(verify, batch_format="pyarrow")


def q_exact_dedup(sf_dir: str) -> pa.Table:
    """Exact text dedup, first-wins by doc_id (D2 semantics: J3/J6 pick-one).
    Groups on hash64(text) — the shuffle moves 8-byte keys, never text."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        # int64 bit-cast: Ray's groupby aggregate paths don't handle uint64
        h = hash64(batch["text"]).view(np.int64)
        return batch.select(["doc_id"]).append_column(
            "text_hash", pa.array(h, pa.int64())
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")

    # NATIVE Ray groupby: output cardinality = distinct texts (could be the
    # whole corpus), so the combine must itself be a distributed shuffle —
    # never a driver-side merge of partials.
    from ray.data.aggregate import Count, Min

    out = hashed.groupby("text_hash").aggregate(Min("doc_id"), Count())
    t = pa.concat_tables(
        ray.get(out.materialize().to_arrow_refs()),
        promote_options="default",
    )
    t = t.select(["min(doc_id)", "count()"]).rename_columns(
        ["doc_id", "dup_count"]
    )
    return _sorted(t, "doc_id")


def _shingle_table(sf_dir: str) -> ray.data.Dataset:
    """documents → (doc_id, shingle hash list) — the stateless parse stage."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def shingle(batch: pa.Table) -> pa.Table:
        # ONE hash64 call over every shingle in the batch (a per-doc call
        # would build one polars Series per document — measurable overhead
        # at thousands of docs per batch), split back by offsets
        ids = batch["doc_id"].to_pylist()
        all_sh: list[str] = []
        offs = [0]
        for t in batch["text"].to_pylist():
            all_sh.extend(tk.word_shingles(t, NGRAM_K))
            offs.append(len(all_sh))
        hs = (
            hash64(all_sh) if all_sh else np.empty(0, dtype=np.uint64)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shingles": pa.array(
                    [
                        hs[offs[i] : offs[i + 1]].tolist()
                        for i in range(len(ids))
                    ],
                    pa.list_(pa.uint64()),
                ),
            }
        )

    return ds.map_batches(shingle, batch_format="pyarrow")


_JACCARD_PAIR_SCHEMA = pa.schema(
    [("a_id", pa.int64()), ("b_id", pa.int64()), ("jaccard", pa.float64())]
)


def q_ngram_jaccard_pairs(sf_dir: str) -> pa.Table:
    """Near-dup pairs by exact k-word-shingle Jaccard ≥ τ (materialized
    query form of :func:`_ngram_jaccard_pairs_ds`)."""
    return _sorted(
        _concat(_ngram_jaccard_pairs_ds(sf_dir), schema=_JACCARD_PAIR_SCHEMA),
        ["a_id", "b_id"],
    )


def _ngram_jaccard_pairs_ds(sf_dir: str) -> ray.data.Dataset:
    """Near-dup pairs by exact k-word-shingle Jaccard ≥ τ, as a streaming
    Dataset (``q_dup_clusters``' distributed route consumes it without a
    driver materialization). Candidates come
    from an exhaustive shingle-bucket cogroup (any pair with j>0 shares a
    shingle → zero misses). Each bucket key IS one distinct shingle, so
    |A∩B| = number of buckets the pair shares and |A| = the doc's bucket
    count — jaccard falls out of counting alone (identical arithmetic to
    the SQL oracle: inter / (|A| + |B| - inter)), with the whole reduce
    distributed: cogroup pair counts per hash partition, native groupby
    merge, per-doc sizes joined back by id."""
    sh = _shingle_table(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        # vectorized un-nest: np.repeat over the list offsets, flatten()
        # for the values — no per-row Python loop
        arr = batch["shingles"].combine_chunks()
        off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        counts = np.diff(off)
        ids = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), counts
        )
        return pa.table(
            {
                "bucket": arr.flatten().cast(pa.uint64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    from ray.data.aggregate import Count

    exploded = sh.map_batches(explode, batch_format="pyarrow").materialize()
    inter = _bucket_cogroup_pairs(exploded)
    sizes = (
        exploded.groupby("doc_id")
        .aggregate(Count())
        .map_batches(
            _conform(pa.schema(
                [("doc_id", pa.int64()), ("size", pa.int64())]
            )),
            batch_format="pyarrow",
        )
        .materialize()
    )
    base = pa.schema(
        [("a_id", pa.int64()), ("b_id", pa.int64()), ("n_shared", pa.int64())]
    )
    j = _attach_pair_values(
        inter, sizes, "doc_id", "size", pa.int64(), base
    )

    def score(batch: pa.Table) -> pa.Table:
        out = (
            pl.from_arrow(batch)
            .with_columns(
                jaccard=pl.col("n_shared")
                / (pl.col("size_a") + pl.col("size_b") - pl.col("n_shared"))
            )
            .filter(pl.col("jaccard") >= JACCARD_TAU)
            .select("a_id", "b_id", "jaccard")
        )
        return out.to_arrow()

    return j.map_batches(score, batch_format="pyarrow")


def q_minhash_lsh_pairs(sf_dir: str) -> pa.Table:
    """MinHash+LSH near-dup: 128-perm signatures, 32 bands × 4 rows →
    distributed band-bucket cogroup → candidate pairs → exact-Jaccard
    verify ≥ τ=0.5 via a signature re-join by doc_id (reduce side fully
    distributed; the driver only ever sees the final pair list).
    P(miss) at the corpus's true-pair similarity (≥0.9) is < 1e-14, so the
    result equals the exhaustive oracle."""
    sh = _shingle_table(sf_dir)

    def band_rows(batch: pa.Table) -> pa.Table:
        # fully vectorized: batched minhash over the flat shingle values
        # (np.minimum.reduceat per doc) + batched band keys — no per-doc
        # Python loop (bit-identical to the scalar kernels, pinned by test).
        # Zero-shingle docs are dropped FIRST: they'd all share the
        # identical all-max signature and band keys, piling every empty doc
        # into the same buckets and expanding O(m²) candidate pairs that
        # the Jaccard verify then discards at 0/0 — their true similarity
        # is undefined, and the exhaustive oracle emits no pairs for them
        import pyarrow.compute as pc

        batch = batch.filter(
            pc.greater(pc.list_value_length(batch["shingles"]), 0)
        )
        arr = batch["shingles"].combine_chunks()
        off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = arr.flatten().to_numpy(zero_copy_only=False).astype(
            np.uint64, copy=False
        )
        sigs = tk.minhash_signature_batch(flat, off - off[0])
        keys = tk.lsh_band_keys_batch(sigs, bands=LSH_BANDS)
        ids = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), LSH_BANDS
        )
        return pa.table(
            {
                "bucket": pa.array(keys.ravel(), pa.uint64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    sh_mat = sh.materialize()
    exploded = sh_mat.map_batches(band_rows, batch_format="pyarrow")
    # distinct candidate pairs, reduce fully distributed (n_shared = number
    # of bands that collided; only pair identity matters for the verify)
    cand = _bucket_cogroup_pairs(exploded).select_columns(["a_id", "b_id"])
    return _jaccard_verify(cand, sh_mat, JACCARD_TAU)


def q_simhash_pairs(sf_dir: str) -> pa.Table:
    """SimHash near-dup: 64-bit signature per doc (M16/D5), 4×16-bit bands
    for candidates, Hamming ≤ τ verify. SQL-oracled end to end: the term
    hash is the SQL-expressible ``polyhash64``, so signatures, banding AND
    the verify replay exactly in DuckDB (``oracle_sql()['simhash_pairs']``;
    τ=6 > bands-1, so band membership is part of the defined semantics and
    the oracle reproduces it rather than brute-forcing)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def sig_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        sigs = tk.simhash_batch(batch["text"].to_pylist())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "simhash": pa.array(sigs, pa.uint64()),
            }
        )

    sigs = ds.map_batches(sig_batch, batch_format="pyarrow").materialize()

    # distributed band cogroup: explode (band, doc_id) rows per block, then
    # the same hash-partitioned pair reduce as the shingle path; signatures
    # (8 B/doc) are joined back by doc_id for the Hamming verify — never
    # collected driver-side
    def explode_bands(batch: pa.Table) -> pa.Table:
        s = batch["simhash"].combine_chunks().to_numpy(
            zero_copy_only=False
        ).astype(np.uint64, copy=False)
        keys = tk.simhash_bands_batch(s)
        ids = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), keys.shape[1]
        )
        return pa.table(
            {
                "bucket": pa.array(keys.ravel(), pa.uint64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    exploded = sigs.map_batches(explode_bands, batch_format="pyarrow")
    cand = _bucket_cogroup_pairs(exploded).select_columns(["a_id", "b_id"])
    out = _hamming_verify(cand, sigs, "simhash", HAMMING_TAU)
    return _sorted(
        _concat(out, schema=hamming_pair_schema()), ["a_id", "b_id"]
    )


# q_embedding_neardup materializes an O(N) driver matrix and does an O(N^2)
# compare — it exists ONLY as the tiny-scale oracle twin of the LSH scale path
# (spider_ray.functions.similarity.q_embedding_neardup_lsh). The guard stops
# it from silently running at corpus scale.
EXACT_NEARDUP_MAX_ROWS = 200_000


def q_embedding_neardup(
    sf_dir: str, *, allow_full_matrix: bool = False
) -> pa.Table:
    """Embedding-cosine near-dup pairs (cos ≥ τ): per-batch matmul against a
    broadcast normalized matrix (ray.put once) — the ANN-free EXACT variant.

    O(N²) with a driver-materialized matrix by construction: this is the
    oracle twin for ``q_embedding_neardup_lsh`` (the 100-TB shape — multi-
    table hyperplane LSH + distributed bucket cogroup), not a scale path.
    Refuses inputs over ``EXACT_NEARDUP_MAX_ROWS`` unless
    ``allow_full_matrix=True``."""
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    emb = emb.materialize()
    n = emb.count()
    if n > EXACT_NEARDUP_MAX_ROWS and not allow_full_matrix:
        raise ValueError(
            f"q_embedding_neardup is the exact O(N^2) oracle twin and got "
            f"{n} rows (> {EXACT_NEARDUP_MAX_ROWS}); use "
            f"q_embedding_neardup_lsh for corpus-scale inputs, or pass "
            f"allow_full_matrix=True to override."
        )
    from spider_ray.functions.similarity import _ids64, _vec_matrix

    all_t = pa.concat_tables(ray.get(emb.to_arrow_refs()))
    ids = _ids64(all_t["vec_id"])
    M = _vec_matrix(all_t["embedding"])
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-12)
    mat_ref = ray.put((ids, Mn))

    def neardup(batch: pa.Table) -> pa.Table:
        gids, gM = ray.get(mat_ref)
        # use the names captured from the OUTER (driver-side) import — an
        # inline import here would re-resolve spider_ray by NAME on the
        # worker and crash any driver whose cwd isn't the repo (the
        # worker-serialization rule; reproduced from a bare-/tmp driver)
        bids = _ids64(batch["vec_id"])
        B = _vec_matrix(batch["embedding"], dim=gM.shape[1])
        Bn = B / np.maximum(np.linalg.norm(B, axis=1, keepdims=True), 1e-12)
        C = Bn @ gM.T  # (batch, all)
        ai, bj = np.nonzero(C >= COSINE_TAU)
        a = bids[ai]
        b = gids[bj]
        keep = a < b  # each unordered pair once, no self-pairs
        return pa.table(
            {
                "a_id": pa.array(a[keep], pa.int64()),
                "b_id": pa.array(b[keep], pa.int64()),
                "cosine": pa.array(C[ai, bj][keep], pa.float64()),
            }
        )

    t = _concat(emb.map_batches(neardup, batch_format="pyarrow"))
    return _sorted(t, ["a_id", "b_id"])



# Pair-graph size above which cluster labeling routes through the
# distributed hash-min fixpoint (webgraph.cc_fixpoint) instead of
# driver-side union-find + broadcast. Near-dup graphs are usually sparse,
# but boilerplate-heavy web corpora can blow the pair list past what one
# driver should hold — the gate keeps the small case cheap and the big
# case scale-safe. Shared by imagecurate's phash-cluster family.
CC_DRIVER_PAIR_LIMIT = 100_000


def q_dup_clusters(
    sf_dir: str, *, driver_pair_limit: int = CC_DRIVER_PAIR_LIMIT
) -> pa.Table:
    """Duplicate-cluster resolution — the "keep one document per near-dup
    cluster" step of a training-data pipeline: connected components over
    the verified Jaccard-pair graph, each doc labeled with its component's
    minimum doc_id (singletons label themselves).

    Scale shape, threshold-gated on the verified pair count: a SPARSE
    pair graph (≤ ``driver_pair_limit``) resolves with driver-side
    union-find and broadcasts the doc→rep map into a ``map_batches``
    labeling pass (the J1 small-side discipline); above the gate the
    labels come from the distributed hash-min fixpoint
    (:func:`webgraph.cc_fixpoint`) and join back onto the corpus with a
    distributed left join — the driver never holds the pair list. Both
    routes produce the identical min-id labeling (fixpoint ≡ union-find
    with min representative), pinned by test. The DuckDB oracle
    recomputes components with a recursive CTE."""
    return _sorted(
        _concat(_dup_clusters_ds(sf_dir, driver_pair_limit)), "doc_id"
    )


def _dup_clusters_ds(
    sf_dir: str, driver_pair_limit: int = CC_DRIVER_PAIR_LIMIT
) -> ray.data.Dataset:
    """Streaming form of :func:`q_dup_clusters`: Dataset of
    (doc_id, cluster_rep) — ``q_corpus_curate`` derives its sparse drop
    set from this distributed, never landing the full labeled corpus on
    the driver."""
    pairs_ds = _ngram_jaccard_pairs_ds(sf_dir).materialize()
    n_pairs = pairs_ds.count()
    docs = read_table(sf_dir, "documents", columns=["doc_id"])
    doc_schema = pa.schema([("doc_id", pa.int64())])

    if n_pairs > driver_pair_limit:
        from spider_ray.functions.webgraph import cc_fixpoint

        edges = pairs_ds.map_batches(
            lambda t: pa.table({"a": t["a_id"], "b": t["b_id"]}),
            batch_format="pyarrow",
        )
        labels = cc_fixpoint(edges, node_type=pa.int64())
        joined = _hash_join(
            docs,
            labels,
            on="doc_id",
            right_on="node",
            left_schema=doc_schema,
            right_schema=pa.schema(
                [("node", pa.int64()), ("label", pa.int64())]
            ),
            rename={"label": "cluster_rep"},
            how="left",
        )

        def fill(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "cluster_rep": pc.coalesce(
                        t["cluster_rep"], t["doc_id"]
                    ),
                }
            )

        return joined.map_batches(fill, batch_format="pyarrow")

    pairs = _concat(pairs_ds, schema=_JACCARD_PAIR_SCHEMA)

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs["a_id"].to_pylist(), pairs["b_id"].to_pylist()):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    rep = {x: find(x) for x in list(parent)}
    rep_ref = ray.put(rep)

    def label(batch: pa.Table) -> pa.Table:
        m = ray.get(rep_ref)
        ids = batch["doc_id"].to_pylist()
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "cluster_rep": pa.array(
                    [m.get(i, i) for i in ids], pa.int64()
                ),
            }
        )

    return docs.map_batches(label, batch_format="pyarrow")


def q_corpus_curate(sf_dir: str) -> pa.Table:
    """Composed corpus-curation pipeline — the training-data flow end to
    end: near-dup cluster resolution (keep only each cluster's
    representative) + quality gating (min token count, max punctuation
    ratio), in ONE distributed pass over the documents: the sparse
    drop-set from the pair graph broadcasts into the same ``map_batches``
    that computes the vectorized quality columns. Fully SQL-oracle-checked
    (recursive-CTE components + the same quality expressions)."""
    # drop set = non-representative cluster members — derived DISTRIBUTED
    # (filter cluster_rep != doc_id inside the stream); the driver
    # collects only the surviving ids, which are bounded by the pair
    # graph's node count (sparse by construction), never the labeled
    # corpus. Built ONCE driver-side as a sorted polars Series and
    # broadcast — rebuilding sorted(set) inside every map_batches call
    # costs O(D log D) per BLOCK for a value that never changes.
    def non_reps(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.not_equal(t["doc_id"], t["cluster_rep"])
        return pa.table({"doc_id": t.filter(keep)["doc_id"]})

    drop_t = _concat(
        _dup_clusters_ds(sf_dir).map_batches(
            non_reps, batch_format="pyarrow"
        ),
        schema=pa.schema([("doc_id", pa.int64())]),
    )
    drop = pl.Series(
        "drop",
        sorted(drop_t["doc_id"].to_pylist()),
        dtype=pl.Int64,  # doc_id dtype even when the drop set is empty
    )
    drop_ref = ray.put(drop)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def curate(batch: pa.Table) -> pa.Table:
        dropped = ray.get(drop_ref)
        lf = (
            pl.from_arrow(batch)
            .with_columns(
                n_chars=pl.col("text").str.len_chars().cast(pl.Int64),
                n_tokens=pl.col("text").str.count_matches(tk.NONWS_PAT).cast(pl.Int64),
                n_punct=pl.col("text")
                .str.count_matches(r"[!-/:-@\[-`{-~]")
                .cast(pl.Int64),
            )
            .with_columns(punct_ratio=pl.col("n_punct") / pl.col("n_chars"))
        )
        out = lf.filter(
            ~pl.col("doc_id").is_in(dropped)
            & (pl.col("n_tokens") >= 30)
            & (pl.col("punct_ratio") <= 0.05)
        ).select("doc_id", "n_tokens", "punct_ratio")
        return out.to_arrow()

    return _sorted(
        _concat(ds.map_batches(curate, batch_format="pyarrow")), "doc_id"
    )


from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()


# --- corpus-wide duplicated-span marking (exact-substring dedup shape) ------

SPAN_W = 8  # words per span; spans are exact strings, stride 1
_N_SPAN_PARTS = 64


def q_dup_spans(sf_dir: str) -> pa.Table:
    """Per-doc count of W-word spans that occur MORE THAN ONCE corpus-wide —
    the span-level exact-substring dedup of Lee et al., "Deduplicating
    Training Data Makes Language Models Better" (2022), in its
    shuffle-friendly shingle form (a distributed suffix array is the
    letter-exact variant; stride-1 W-shingles mark the same repeated spans
    at W-grain).

    Shape: shingling is vectorized per block (polars shifted-window
    ``concat_str`` over exploded tokens — a doc's tokens never cross a
    block, each doc is one input row); span occurrences then hash-partition
    by span and EACH partition resolves its own duplicate counts in one
    ``map_groups`` (count per span, count per (span, doc), keep spans with
    corpus count > 1) — span cardinality is unbounded, so no driver-side or
    broadcast count table ever exists. The final per-doc sum is a NATIVE
    distributed groupby. Docs with zero duplicated spans drop (matching the
    SQL).

    The shuffle ships ``hash64(span)`` (8 bytes/occurrence), not the span
    string — the 100-TB shape (strings cost ~60 B/occurrence and measured
    2.1x slower end to end at sf0.1). Counting hash occurrences equals
    counting string occurrences up to 64-bit collisions (2^-64/pair;
    collision-free on the test corpora, where the string-grouped SQL
    oracle is exactly reproduced; a letter-exact production run would
    verify positives by re-reading the spans).
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def shingle(batch: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(batch)
            .with_columns(ws=pl.col("text").str.extract_all(tk.NONWS_PAT))
            .select("doc_id", "ws")
            .explode("ws", empty_as_null=False)
            .drop_nulls("ws")
        )
        parts = [pl.col("ws")] + [
            pl.col("ws").shift(-k).over("doc_id") for k in range(1, SPAN_W)
        ]
        df = (
            df.with_columns(sh=pl.concat_str(parts, separator=" "))
            .drop_nulls("sh")  # last W-1 positions of each doc
            .select("doc_id", "sh")
        )
        h = hash64(df["sh"].to_arrow()).view(np.int64)
        return (
            df.select("doc_id")
            .with_columns(
                sh_hash=pl.Series(h, dtype=pl.Int64),
                part=pl.Series(h % _N_SPAN_PARTS, dtype=pl.Int32),
            )
            .to_arrow()
        )

    def resolve(group: pa.Table) -> pa.Table:
        g = pl.from_arrow(group)
        cnt = g.group_by("sh_hash").agg(n=pl.len())
        per = g.group_by("sh_hash", "doc_id").agg(c=pl.len().cast(pl.Int64))
        out = (
            per.join(cnt, on="sh_hash")
            .filter(pl.col("n") > 1)
            .group_by("doc_id")
            .agg(dup=pl.col("c").sum())
        )
        return out.to_arrow()

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(shingle, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("dup"))
    )
    t = _concat(out)
    t = t.select(["doc_id", "sum(dup)"]).rename_columns(["doc_id", "n_dup"])
    return _sorted(t, "doc_id")


# --------------------------------------------------------------------------
# skew-aware join planning (auto-salting)
# --------------------------------------------------------------------------

HOT_KEY_FACTOR = 2  # a key is hot if it exceeds factor × the even share
# (2× even share = the key's partition runs at least twice the average;
# at most parts/2 keys can qualify, so the broadcast stays small)
HOT_KEY_CAP = 64  # planner never broadcasts more than this many keys


def detect_hot_keys(
    ds: ray.data.Dataset,
    key: str,
    *,
    parts: int = JOIN_PARTITIONS,
    factor: int = HOT_KEY_FACTOR,
    cap: int = HOT_KEY_CAP,
) -> tuple[frozenset, int]:
    """Distributed heavy-key detection for join planning.

    One streamed pass: per-block PARTIAL counts by ``key`` (the
    combiner — shuffle volume is distinct keys per block, never rows),
    one native groupby-sum, then keep keys whose global count exceeds
    ``factor × (total / parts)`` — the even-share skew bound. At most
    ``parts / factor`` keys can exceed that bound (their shares sum to
    1), so the driver-side result is small BY CONSTRUCTION, independent
    of the key cardinality; ``cap`` is a belt-and-braces ceiling.

    Returns ``(hot_keys, suggested_salt)`` ready to feed
    :func:`_hash_join`: salt is the hottest key's multiple of the even
    share (its partition needs that many ways of spreading to come back
    to even), clamped to [1, parts]. An empty frozenset means the key
    distribution is fine and the plain join is the right plan — callers
    pay the extra pass only when they suspect skew (it is one cheap
    count-combine compared to the join's full shuffle)."""
    partial_schema = pa.schema([("k", pa.string()), ("n", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select([key]))
            .group_by(key)
            .agg(n=pl.len().cast(pl.Int64))
            .select(k=pl.col(key).cast(pl.String), n=pl.col("n"))
            .to_arrow()
            .cast(partial_schema)
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
        .materialize()
    )
    total = sum(
        r["n"]
        for r in counts.select_columns(["n"])
        .map_batches(
            lambda t: pa.table(
                {"n": pa.array([pc_sum_i64(t["n"])], pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .take_all()
    )
    if total == 0:
        return frozenset(), 1
    even = max(1, total // parts)
    bound = factor * even

    def hot_only(t: pa.Table) -> pa.Table:
        m = pl.from_arrow(t).filter(pl.col("n") > bound)
        return m.to_arrow().cast(
            pa.schema([("k", pa.string()), ("n", pa.int64())])
        )

    hot_rows = _concat(
        counts.map_batches(hot_only, batch_format="pyarrow"),
        schema=pa.schema([("k", pa.string()), ("n", pa.int64())]),
    )
    hot = sorted(
        zip(hot_rows["k"].to_pylist(), hot_rows["n"].to_pylist()),
        key=lambda kv: (-kv[1], kv[0]),
    )[:cap]
    if not hot:
        return frozenset(), 1
    salt = int(min(parts, max(2, -(-hot[0][1] // even))))
    return frozenset(k for k, _ in hot), salt


def pc_sum_i64(arr: pa.ChunkedArray | pa.Array) -> int:
    import pyarrow.compute as pc

    v = pc.sum(arr).as_py()
    return int(v) if v is not None else 0


def auto_salted_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    *,
    detect_on: ray.data.Dataset | None = None,
    how: str = "inner",
    rename: dict[str, str] | None = None,
) -> ray.data.Dataset:
    """Skew-aware join: run :func:`detect_hot_keys` on the left side's
    key column, then route through :func:`_hash_join` with the detected
    ``hot_keys``/``salt`` (plain join when the distribution is even).
    ``detect_on`` lets callers hand a cheaper key-only dataset for the
    detection pass (e.g. the pre-projection input) — the join itself is
    unchanged. Detection keys are matched as strings, mirroring
    detect_hot_keys' canonical string cast."""
    probe = detect_on if detect_on is not None else left
    hot, salt = detect_hot_keys(probe, on)
    if hot:
        # _hash_join matches hot keys by value via np.isin on the raw
        # column — convert detect_hot_keys' string-canonical set back
        # through the left key dtype, or fail loudly: a silently
        # unmatched hot set would disable the skew mitigation (correct
        # result, no-op planner)
        kt = left_schema.field(on).type
        if not (pa.types.is_string(kt) or pa.types.is_large_string(kt)):
            try:
                hot = frozenset(
                    pa.array(sorted(hot), pa.string()).cast(kt).to_pylist()
                )
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as e:
                raise TypeError(
                    f"auto_salted_join: hot-key column {on!r} has dtype "
                    f"{kt}, which cannot round-trip through "
                    "detect_hot_keys' string canonicalization — use a "
                    "string/integer join key or pre-cast the column"
                ) from e
    return _hash_join(
        left,
        right,
        on=on,
        right_on=right_on,
        left_schema=left_schema,
        right_schema=right_schema,
        rename=rename,
        hot_keys=hot if hot else None,
        salt=salt,
        how=how,
    )
