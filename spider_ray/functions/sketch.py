"""Mergeable sketches for approximate distributed aggregation.

HyperLogLog approximate distinct count (Flajolet et al. 2007, the public
HLL paper): per-block register arrays built vectorized inside
``map_batches``, merged with element-wise max — the shuffle moves one
4 KiB register array per block instead of the raw key column. This is the
"novel sketch" operator class from the build brief; the reference's
analog is its map-side combine discipline (ip_stat.cc:37-54) taken to the
approximate extreme.

Registers are frozen at p=12 (m=4096, ~1.6 % relative error). The hash is
``mix64_int`` for integer keys / ``hash64`` for strings — both frozen
kernels shared with the rest of the engine.
"""

from __future__ import annotations

import datetime as _dt

import pyarrow.dataset as _pads

import math

import numpy as np
import pyarrow as pa
import ray

from spider_ray.kernels.hashing import hash64, mix64_int
from spider_ray.sources.tables import read_table
from spider_ray.state.bloom import BloomFilter

P = 12
M = 1 << P  # 4096 registers
_ALPHA = 0.7213 / (1.0 + 1.079 / M)
_HLL_SEED = 999


def hll_registers(hashes: np.ndarray) -> np.ndarray:
    """Build an HLL register array (uint8[M]) from 64-bit hashes.

    bucket = low P bits; rho = leading-zero count of the remaining 52-bit
    word + 1 (np.frexp gives the exact bit length — values < 2^52 are
    exactly representable in float64, so no log2 rounding hazard)."""
    reg = np.zeros(M, dtype=np.uint8)
    if len(hashes) == 0:
        return reg
    h = np.asarray(hashes, dtype=np.uint64)
    bucket = (h & np.uint64(M - 1)).astype(np.int64)
    w = (h >> np.uint64(P)).astype(np.uint64)
    # bit_length(w) via frexp exponent; w == 0 -> bit length 0
    exp = np.frexp(w.astype(np.float64))[1]
    rho = (64 - P + 1 - exp).astype(np.uint8)  # w==0 -> 53 (max)
    np.maximum.at(reg, bucket, rho)
    return reg


def hll_merge(*regs: np.ndarray) -> np.ndarray:
    out = np.zeros(M, dtype=np.uint8)
    for r in regs:
        np.maximum(out, r, out=out)
    return out


def hll_estimate(reg: np.ndarray) -> float:
    """Bias-corrected HLL estimate with the small-range linear-counting
    correction (64-bit hash: no large-range correction needed).

    The harmonic denominator Σ 2^-reg is computed EXACTLY as the integer
    Σ 2^(53-reg) (registers are ≤ 53) and floated once — no float-sum
    ordering in the estimate, so the DuckDB oracle
    (``oracle_sql()['approx_distinct']``) reproduces every arithmetic step
    bit-for-bit except the final libm ``ln`` of the linear-counting branch
    (numpy and DuckDB disagree in the last ulp for ~30% of inputs; the
    integer output absorbs that unless est+0.5 sits within ~1 ulp of an
    integer — verified bit-equal on every test SF)."""
    counts = np.bincount(reg.astype(np.int64), minlength=54)
    denom_int = sum(
        int(c) << (53 - v) for v, c in enumerate(counts.tolist()) if c
    )
    est = _ALPHA * M * M / (denom_int / 9007199254740992.0)
    zeros = int(counts[0])
    if est <= 2.5 * M and zeros > 0:
        est = M * np.log(M / zeros)
    return float(est)


def hll_from_column(values, is_int: bool) -> np.ndarray:
    """Hash one Arrow column (or numpy array) and build its registers."""
    if is_int:
        if isinstance(values, (pa.Array, pa.ChunkedArray)):
            values = values.to_numpy(zero_copy_only=False)
        h = mix64_int(np.asarray(values, dtype=np.int64), seed=_HLL_SEED)
    else:
        h = hash64(values)
    return hll_registers(h)


def approx_distinct(
    ds: ray.data.Dataset, column: str, is_int: bool = True
) -> float:
    """Approximate COUNT(DISTINCT column) over a Dataset: one register
    array per block (vectorized), merged driver-side (4 KiB × blocks)."""

    def partial(batch: pa.Table) -> pa.Table:
        reg = hll_from_column(batch[column], is_int)
        return pa.table({"reg": pa.array([reg.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    tables = ray.get(parts.materialize().to_arrow_refs())
    regs = [
        np.frombuffer(b.as_py(), dtype=np.uint8)
        for t in tables
        for b in t["reg"]
    ]
    return hll_estimate(hll_merge(*regs))


def q_approx_distinct(sf_dir: str) -> pa.Table:
    """Approximate distinct users over events. The ESTIMATE is approximate
    by construction (accuracy bound vs the exact count asserted in
    tests/test_misc_ops.py), but the computation is deterministic and
    SQL-replayable — ``oracle_sql()['approx_distinct']`` rebuilds the same
    4096 registers from the same mix64 hash and applies the identical
    estimator arithmetic."""
    ds = read_table(sf_dir, "events", columns=["user_id"])
    est = approx_distinct(ds, "user_id", is_int=True)
    # floor(x+0.5), not python round(): banker's rounding has no SQL twin
    return pa.table(
        {"n_users_approx": pa.array([int(math.floor(est + 0.5))], pa.int64())}
    )


MG_K = 512  # Misra-Gries counter budget per block summary


def q_heavy_hitters(sf_dir: str) -> pa.Table:
    """EXACT heavy hitters (users with ≥ 1/200 of all events) via the
    two-pass sketch pattern:

    pass 1 — per-block Misra-Gries-style summary (exact block counts,
    keys with count ≤ block_n/K dropped): an item absent from EVERY block
    summary has total count ≤ n/K < n/200, so the merged key union is a
    guaranteed superset of the true heavy hitters while staying O(K·blocks)
    small;
    pass 2 — broadcast the candidate set, exact vectorized count of ONLY
    candidate keys per block, tiny final combine + threshold filter.

    The result is exact (SQL-oracle-checked), but the shuffle volume is
    bounded by the candidate count instead of the key cardinality — the
    scale path for heavy hitters over 10^10 rows."""

    def summarize(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch.select(["user_id"]))
        n = df.height
        counts = df.group_by("user_id").agg(pl.len().alias("c"))
        kept = counts.filter(pl.col("c") * MG_K > n)
        return pa.table(
            {
                "user_id": kept["user_id"].to_arrow(),
                "c": kept["c"].cast(pl.Int64).to_arrow(),
                "block_n": pa.array([n] * kept.height, pa.int64()),
            }
        )

    ds = read_table(sf_dir, "events", columns=["user_id"])
    parts = ds.map_batches(summarize, batch_format="pyarrow")
    tables = [t for t in ray.get(parts.materialize().to_arrow_refs())
              if t.num_rows]
    uid_type = ds.schema().base_schema.field("user_id").type

    def _empty_result() -> pa.Table:
        return pa.table({"user_id": pa.array([], uid_type),
                         "n_events": pa.array([], pa.int64())})

    if not tables:
        # every block summary was empty (all counts ≤ block_n/K): there is
        # provably no key with total ≥ n/200 — the correct result is empty,
        # not a concat_tables([]) crash
        return _empty_result()
    merged = pa.concat_tables(tables, promote_options="default")
    import polars as pl

    m = pl.from_arrow(merged)
    # total n must count every block, including ones whose summary kept no
    # keys — recover it from per-block block_n would miss empty summaries,
    # so count the dataset directly (cheap metadata count)
    n_total = ds.count()
    candidates = sorted(set(m["user_id"].unique().to_list()))
    cand_ref = ray.put(pl.Series("user_id", candidates))

    def exact_count(batch: pa.Table) -> pa.Table:
        import polars as pl

        cands = ray.get(cand_ref)  # pre-built Series, no per-batch rebuild
        df = pl.from_arrow(batch.select(["user_id"]))
        hit = df.filter(pl.col("user_id").is_in(cands))
        out = hit.group_by("user_id").agg(pl.len().cast(pl.Int64).alias("c"))
        return out.to_arrow()

    parts2 = ds.map_batches(exact_count, batch_format="pyarrow")
    t2_parts = [
        t for t in ray.get(parts2.materialize().to_arrow_refs()) if t.num_rows
    ]
    if not t2_parts:  # candidates never matched (possible only if empty)
        return _empty_result()
    t2 = pa.concat_tables(t2_parts, promote_options="default")
    final = (
        pl.from_arrow(t2)
        .group_by("user_id")
        .agg(n_events=pl.col("c").sum())
        .filter(pl.col("n_events") * 200 >= n_total)
        .sort("user_id")
    )
    return final.to_arrow()


def q_bloom_anti_join(sf_dir: str) -> pa.Table:
    """Bloom-prefiltered EXACT anti-join: parts with no shipment before
    1996-01-01.

    The seen side (l_partkey of early shipments, filtered AT THE READ)
    streams through ``map_batches`` building one mergeable per-block Bloom
    filter (OR-merged driver-side); the candidate side probes the broadcast
    filter — bloom-NEGATIVE rows are definitely unseen and pass immediately
    (no false negatives); bloom-POSITIVE rows (true hits + bounded FPs) go
    through the exact membership check. At scale the exact pass is a
    shuffled anti-join over only the shrunk positive set; here the distinct
    seen keys are small so they're collected directly. Result exact,
    SQL-oracle-checked (reference semantics: linkbase seen-suppression J3,
    selector/mr_selector_r1_reducer.cc:54-156)."""
    seen_ds = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_shipdate"],
        filter=_pads.field("l_shipdate")
        < pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us")),
    )
    N_BITS, K = 1 << 17, 4
    CUTOFF = "1996-01-01"

    def early_keys(batch: pa.Table) -> np.ndarray:
        cut = pa.scalar(CUTOFF).cast(batch.schema.field("l_shipdate").type)
        mask = pa.compute.less(batch["l_shipdate"], cut)
        return (
            batch.filter(mask)["l_partkey"].to_numpy(zero_copy_only=False)
        )

    def block_bloom(batch: pa.Table) -> pa.Table:
        f = BloomFilter(N_BITS, k=K)
        f.add(mix64_int(early_keys(batch), seed=_HLL_SEED))
        return pa.table({"bits": pa.array([f.to_bytes()], pa.binary())})

    blooms = ray.get(
        seen_ds.map_batches(block_bloom, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    )
    merged = BloomFilter(N_BITS, k=K)
    for t in blooms:
        for b in t["bits"]:
            merged.merge(BloomFilter.from_bytes(b.as_py(), k=K))
    bloom_ref = ray.put(merged.to_bytes())
    # exact seen set for the positive-verify pass (distinct keys, small here;
    # at scale: shuffled anti-join over bloom-positive rows only)
    def block_exact(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"k": pa.array(np.unique(early_keys(batch)), pa.int64())}
        )

    seen_keys = np.unique(
        pa.concat_tables(
            ray.get(
                seen_ds.map_batches(
                    block_exact, batch_format="pyarrow"
                ).materialize().to_arrow_refs()
            ),
            promote_options="default",
        )["k"].to_numpy(zero_copy_only=False)
    )
    seen_ref = ray.put(seen_keys)

    cand = read_table(sf_dir, "part", columns=["p_partkey", "p_name"])

    def anti(batch: pa.Table) -> pa.Table:
        f = BloomFilter.from_bytes(ray.get(bloom_ref), k=K)
        keys = batch["p_partkey"].to_numpy(zero_copy_only=False)
        maybe = f.contains(mix64_int(keys, seed=_HLL_SEED))
        seen = ray.get(seen_ref)
        verify = np.isin(keys[maybe], seen)
        keep = ~maybe
        keep[np.flatnonzero(maybe)[~verify]] = True  # bloom FPs survive
        return batch.filter(pa.array(keep))

    out = pa.concat_tables(
        ray.get(cand.map_batches(anti, batch_format="pyarrow")
                .materialize().to_arrow_refs()),
        promote_options="default",
    )
    return out.sort_by("p_partkey")


from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()


# --------------------------------------------------------------------------
# approximate quantiles (deterministic hash-gated sample sketch)
# --------------------------------------------------------------------------

AQ_SEED = 20260822
# bounded sample per job: stride = ceil(n / AQ_TARGET) caps the collected
# sample regardless of corpus size (the IVF training-gate discipline)
AQ_TARGET = 100_000


def q_approx_quantiles(sf_dir: str) -> pa.Table:
    """Approximate per-group quantiles at BOUNDED memory: a deterministic
    hash-gated uniform sample (keep rows with mix64(event_id, AQ_SEED) %
    stride == 0, stride = ceil(n/AQ_TARGET)) feeds the exact discrete-
    quantile selector per group. Mergeable by construction — the sample
    union of two shards is the sample of their union (same gate) — and,
    unlike a randomized KLL, every kept row is a pure function of its id,
    so the DuckDB oracle replays the sketch EXACTLY instead of asserting
    an error band. Sampling error (~1/√(n/stride) quantile displacement)
    is pytest-bounded separately at a forced-small AQ_TARGET.

    Scale: the gate is one vectorized filter per block (only ~AQ_TARGET
    rows total survive to the shuffle); the per-group final is the
    q_quantiles map_groups selector. Output (event_type, n_sample,
    median_est, p95_est) sorted by group."""
    import math as _math

    import polars as pl
    import pyarrow.compute as pc

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type", "value"])
    n_total = read_table(sf_dir, "events", columns=["event_id"]).count()
    stride = max(1, -(-n_total // AQ_TARGET))

    def gate(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = (mix64_int(ids, AQ_SEED) % np.uint64(stride)) == 0
        return batch.filter(pa.array(keep)).select(
            ["event_type", "value"]
        )

    def quant(group: pa.Table) -> pa.Table:
        v = (
            pc.cast(group["value"], pa.float64())
            .to_numpy(zero_copy_only=False)
            .copy()
        )
        v.sort()
        n = len(v)

        def disc(q: float) -> float:
            return float(v[max(0, _math.ceil(q * n) - 1)])

        return pa.table(
            {
                "event_type": pa.array(
                    [group["event_type"][0].as_py()], pa.string()
                ),
                "n_sample": pa.array([n], pa.int64()),
                "median_est": pa.array([disc(0.5)], pa.float64()),
                "p95_est": pa.array([disc(0.95)], pa.float64()),
            }
        )

    from spider_ray.pipelines.relational import _concat, _sorted

    out = (
        ds.map_batches(gate, batch_format="pyarrow")
        .groupby("event_type")
        .map_groups(quant, batch_format="pyarrow")
    )
    return _sorted(_concat(out), "event_type")
