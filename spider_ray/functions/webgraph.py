"""Link-graph operators over the crawl's web_graph table — redirect-chain
resolution and link-structure ranking, the two graph passes a frontier
scheduler runs between crawl generations.

Reference semantics (reimplemented, not ported):

* redirect chains — the reference follows HTTP redirect chains inside
  libcurl with a bounded max-redirect count and records the final
  effective URL + hop count per task
  (crawler/fetcher/multi_fetcher.cc:348-351 CURLOPT_MAXREDIRS setup,
  :507-519 redirect_time / redirect_count extraction). Batch-side, the
  same resolution runs over the *known* redirect edge set so the frontier
  can enqueue final targets instead of re-walking chains one fetch at a
  time: that batch form is :func:`q_redirect_resolve`.
* link importance — the reference schedules by a per-task ``importance``
  score carried on every frontier item
  (crawler/exchange/task_data.h:14-24; selector feeds it from link
  structure). :func:`q_link_rank` computes that score from the outlink
  graph as a fixed-iteration PageRank.

Both are DISTRIBUTED graph passes with bit-exact DuckDB oracles:

* :func:`q_redirect_resolve` — pointer-doubling transitive resolution:
  each round advances every unresolved chain by joining it against the
  full jump table (hash co-partition cogroup, the dedup._hash_join
  shape), so a chain of length L resolves in O(log L) rounds instead of
  L sequential self-joins. Rounds are ``materialize()``d — the canonical
  Ray Data shape for iterative algorithms (each round's state is a
  spillable object-store checkpoint, never a driver list). Chains longer
  than MAX_HOPS and cycles (both exist in the workload: alias cycles are
  planted) come back ``looped=1`` with NULL final_url — the same bounded
  semantics as the reference's CURLOPT_MAXREDIRS.
* :func:`q_link_rank` — K=3 iterations of damped PageRank in FROZEN
  integer arithmetic: contribution = (rank * 17) // (20 * outdeg) in
  int64, base 150_000, start 1_000_000. Integer floor-division makes
  every iteration order-independent and bit-exact reproducible in SQL
  (float PageRank would hash-diverge at the last ulp). Each iteration is
  one hash-join (ranks onto edges) + one groupby-sum — the standard
  distributed PageRank shape; at 10^10 edges the join/groupby shuffles
  are hash-partitioned by url and the iteration count is fixed, so total
  traffic is K * |edges| rows.

Scale notes (100 TB frontier): the redirect pointer table holds one row
per redirect SOURCE (~3% of pages in this corpus' status mix), and each
doubling round moves it twice (probe + jump sides). The planted alias
workload (deterministic mix64-derived chains up to depth 12 + cycles,
derived from the page seq so the SQL oracle replays it exactly) exists
because real one-hop 301s at corpus scale rarely chain deep enough to
exercise the doubling rounds.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray

from spider_ray.kernels.hashing import SEED, mix64_int
from spider_ray.pipelines.relational import _concat, _sorted

# frozen workload + algorithm constants (shared verbatim by the SQL
# oracles in __ray_entry__.oracle_sql — never change without changing both)
REDIRECT_SEED = 20260820  # mix64 seed for the alias-chain derivation
ALIAS_MOD = 4  # u % 4 == 0 → page grows an alias chain (~25%)
ALIAS_MAX_DEPTH = 12  # chain depth = 1 + (u >> 2) % 12
CYCLE_MOD = 16  # alias'd AND (u >> 8) % 16 == 0 AND not 301 → cycle
MAX_HOPS = 32  # chains past this cap report looped (CURLOPT_MAXREDIRS)
# after k rounds every chain of length L ≤ 2^k is settled (each round a
# live row either probes a terminal or inherits a partner's full jump);
# classification only has to be exact up to MAX_HOPS=32 → 5 rounds
# suffice, 6 adds one round of margin. Fixed, not data-dependent.
PTR_ROUNDS = 6
_PTR_PARTS = 32  # hash-partition fan-out per doubling round

RANK_ITERS = 3
RANK_START = 1_000_000  # r0 for every node
RANK_BASE = 150_000  # the 0.15 damping floor in rank units
# contribution = (r * RANK_NUM) // (RANK_DEN * outdeg)  — 17/20 = 0.85
RANK_NUM = 17
RANK_DEN = 20


def _read_web_graph(corpus: str, columns: list[str]) -> ray.data.Dataset:
    import os

    return ray.data.read_parquet(
        os.path.join(corpus, "web_graph.parquet"), columns=columns
    )


def _compact(ds: ray.data.Dataset, target_rows: int = 250_000,
             lo: int = 4) -> ray.data.Dataset:
    """Materialize + compact NEARLY-EMPTY blocks before an iterative pass.

    Small-scale reads hand the loop 64 near-empty blocks, and every
    iteration's shuffle then pays 64× per-task overhead per side — measured
    3.2 s/iteration at 15.6k edges, dropping to ~0.9 s once inputs are
    compacted to ceil(rows / target_rows) blocks. At corpus scale blocks
    arrive full (rows/blocks ≥ target/4) and this is a plain materialize —
    the loop-invariant checkpoint the callers need anyway. Never INCREASES
    the block count (no repartition-up at scale)."""
    mat = ds.materialize()
    n, blocks = mat.count(), mat.num_blocks()
    if blocks and n / blocks < target_rows / 4:
        parts = max(lo, -(-n // target_rows))
        if parts < blocks:
            mat = mat.repartition(parts).materialize()
    return mat


# --------------------------------------------------------------------------
# redirect_resolve
# --------------------------------------------------------------------------

def redirect_edges(corpus: str) -> ray.data.Dataset:
    """The redirect edge table (src → dst, one out-edge per src): the web
    graph's real 301 edges plus the deterministic alias-chain workload
    (see module docstring). One streamed pass over pruned columns; edge
    emission is fully vectorized (polars int_ranges explode + string
    concat — no Python row loop)."""
    ds = _read_web_graph(corpus, ["url", "status_code", "redirect_to"])

    def emit(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        real = df.filter(
            (pl.col("status_code") == 301)
            & pl.col("redirect_to").is_not_null()
        ).select(src=pl.col("url"), dst=pl.col("redirect_to"))

        seq = (
            df["url"].str.extract(r"/p/(\d+)$", 1).cast(pl.UInt64).to_numpy()
        )
        u = mix64_int(seq, REDIRECT_SEED)
        is_alias = (u % np.uint64(ALIAS_MOD)) == 0
        depth = (
            1 + ((u >> np.uint64(2)) % np.uint64(ALIAS_MAX_DEPTH))
        ).astype(np.int64)
        status = df["status_code"].to_numpy()
        cyc = (
            is_alias
            & (((u >> np.uint64(8)) % np.uint64(CYCLE_MOD)) == 0)
            & (status != 301)
        )

        base = pl.DataFrame(
            {"url": df["url"], "depth": depth, "alias": is_alias}
        )
        al = (
            base.filter(pl.col("alias"))
            .with_columns(j=pl.int_ranges(1, pl.col("depth") + 1))
            .explode("j", empty_as_null=True)
            .with_columns(
                src=pl.col("url") + "?r=" + pl.col("j").cast(pl.String),
                dst=pl.when(pl.col("j") == 1)
                .then(pl.col("url"))
                .otherwise(
                    pl.col("url") + "?r=" + (pl.col("j") - 1).cast(pl.String)
                ),
            )
            .select("src", "dst")
        )
        cy = pl.DataFrame(
            {"url": df["url"].filter(cyc), "depth": depth[cyc]}
        ).select(
            src=pl.col("url"),
            dst=pl.col("url") + "?r=" + pl.col("depth").cast(pl.String),
        )
        out = pl.concat([real, al, cy]).to_arrow()
        return out.cast(pa.schema([("src", pa.string()), ("dst", pa.string())]))

    return ds.map_batches(emit, batch_format="pyarrow")


_PTR_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("cur", pa.string()),
        ("hops", pa.int64()),
        ("done", pa.int8()),
    ]
)
_PTR_UNION = pa.schema(
    [("__part", pa.int32()), ("__side", pa.int8())] + list(_PTR_SCHEMA)
)


def _ptr_pad(key_col: str, side: int):
    """Tag pointer rows for the cogroup: partition by hash(key_col)."""

    def f(t: pa.Table) -> pa.Table:
        part = (
            pl.from_arrow(t.select([key_col]))
            .select(
                (pl.col(key_col).hash(seed=SEED) % _PTR_PARTS).cast(pl.Int32)
            )
            .to_series()
            .to_numpy()
        )
        cols = {
            "__part": pa.array(part, pa.int32()),
            "__side": pa.array(np.full(t.num_rows, side, np.int8)),
        }
        for name in _PTR_SCHEMA.names:
            cols[name] = t[name]
        return pa.table({f.name: cols[f.name] for f in _PTR_UNION})

    return f


def _ptr_cogroup(group: pa.Table) -> pa.Table:
    """One doubling step inside a hash partition: left-join the unresolved
    probe rows (keyed by cur) against the jump table (keyed by src). A
    probe whose cur has no out-edge reached a terminal → done; otherwise
    it inherits the partner's (cur, hops, done) — jumping 2^k hops or
    straight to the partner's already-resolved terminal. Already-done
    probe rows pass through unchanged — routing them through the cogroup
    (instead of a filter + outer union) keeps the round's output block
    count bounded by the partition fan-out; a done_rows.union(advanced)
    variant TRIPLED the block count every round (48 → 1296 blocks by
    round 3, with wall time tracking task count)."""
    df = pl.from_arrow(group)
    probe = df.filter(pl.col("__side") == 0).select(
        "src", "cur", "hops", "done"
    )
    settled = probe.filter(pl.col("done") == 1)
    live = probe.filter(pl.col("done") == 0).drop("done")
    jump = df.filter(pl.col("__side") == 1).select(
        key=pl.col("src"),
        j_cur=pl.col("cur"),
        j_hops=pl.col("hops"),
        j_done=pl.col("done"),
    )
    advanced = (
        live.join(jump, left_on="cur", right_on="key", how="left")
        .with_columns(
            done=pl.when(pl.col("j_cur").is_null())
            .then(1)
            .otherwise(pl.col("j_done"))
            .cast(pl.Int8),
            hops=pl.col("hops") + pl.col("j_hops").fill_null(0),
            cur=pl.coalesce(pl.col("j_cur"), pl.col("cur")),
        )
        .select("src", "cur", "hops", "done")
    )
    return pl.concat([settled, advanced]).to_arrow().cast(_PTR_SCHEMA)


def resolve_pointers(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Pointer-doubling fixpoint over a functional edge set (≤1 out-edge
    per src). Returns (src, cur, hops, done): done=1 rows terminated at
    ``cur`` after exactly ``hops`` edges; done=0 rows are cycle members
    (or chains past 2^PTR_ROUNDS, impossible for this workload)."""

    def init(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t["src"],
                "cur": t["dst"],
                "hops": pa.array(
                    np.ones(t.num_rows, np.int64), pa.int64()
                ),
                "done": pa.array(np.zeros(t.num_rows, np.int8), pa.int8()),
            }
        )

    P = _compact(edges.map_batches(init, batch_format="pyarrow"))
    parts = min(_PTR_PARTS, P.num_blocks())

    for _ in range(PTR_ROUNDS):
        probe = P.map_batches(_ptr_pad("cur", 0), batch_format="pyarrow")
        jump = P.map_batches(_ptr_pad("src", 1), batch_format="pyarrow")
        P = (
            probe.union(jump)
            .groupby("__part")
            .map_groups(_ptr_cogroup, batch_format="pyarrow")
            # the sort-shuffle emits blocks proportional to its INPUT
            # block count (2× P's), so without an explicit cap the state
            # doubles its block count every round — 32 → 1024 blocks by
            # round 5, wall time tracking task count, rows constant.
            # A split/coalesce repartition (no shuffle) pins it — at the
            # COMPACTED width, so toy-scale rounds don't drag 32
            # near-empty blocks × 2 sides through every shuffle.
            .repartition(parts)
            .materialize()
        )
    return P


def q_redirect_resolve(corpus: str) -> pa.Table:
    """Resolve every redirect source to its final (non-redirecting) URL:
    (url, final_url, hops, looped). looped=1 (NULL final_url / hops) for
    cycle members and chains past MAX_HOPS."""
    P = resolve_pointers(redirect_edges(corpus))

    def finish(t: pa.Table) -> pa.Table:
        done = t["done"].to_numpy(zero_copy_only=False).astype(np.int8)
        hops = t["hops"].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (done == 1) & (hops <= MAX_HOPS)
        return pa.table(
            {
                "url": t["src"],
                "final_url": pc.if_else(
                    pa.array(ok), t["cur"], pa.nulls(t.num_rows, pa.string())
                ),
                "hops": pc.if_else(
                    pa.array(ok), t["hops"], pa.nulls(t.num_rows, pa.int64())
                ),
                "looped": pa.array((~ok).astype(np.int32), pa.int32()),
            }
        )

    return _sorted(
        _concat(P.map_batches(finish, batch_format="pyarrow")), "url"
    )


# --------------------------------------------------------------------------
# link_rank
# --------------------------------------------------------------------------

def q_link_rank(corpus: str) -> pa.Table:
    """Fixed-iteration integer PageRank over the outlink graph — the
    frontier importance score (task_data.h:14-24) computed from link
    structure. K=RANK_ITERS iterations; every arithmetic step is int64
    (see module docstring) so the DuckDB oracle reproduces it bit-exact.

    Each iteration: hash-cogroup join of the rank table onto the edge
    table (partitioned by src), per-edge integer contribution, native
    distributed groupby(dst).sum, then a union-with-zeros + groupby(url)
    to re-attach rank-less nodes. Nothing is driver-side; the edge table
    is built once and reused across iterations (materialized — it is the
    loop invariant)."""
    wg = _read_web_graph(corpus, ["url", "outlinks"])

    def explode(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .explode("outlinks", empty_as_null=False)
            .drop_nulls("outlinks")
            .select(
                src=pl.col("url"),
                dst=pl.col("outlinks").struct.field("url"),
            )
        )
        # per-src outdegree rides on every edge row so the contribution
        # divide never needs a second join (outlinks are page-local)
        df = df.with_columns(outdeg=pl.len().over("src"))
        return df.to_arrow().cast(
            pa.schema(
                [
                    ("src", pa.string()),
                    ("dst", pa.string()),
                    ("outdeg", pa.int64()),
                ]
            )
        )

    edges = _compact(wg.map_batches(explode, batch_format="pyarrow"))
    nodes = _compact(wg.select_columns(["url"]))
    parts = max(edges.num_blocks(), nodes.num_blocks())

    # rank state: (url, r) — starts uniform
    def init(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "url": t["url"],
                "r": pa.array(
                    np.full(t.num_rows, RANK_START, np.int64), pa.int64()
                ),
            }
        )

    ranks = nodes.map_batches(init, batch_format="pyarrow")

    from spider_ray.functions.dedup import _hash_join

    edge_schema = pa.schema(
        [("src", pa.string()), ("dst", pa.string()), ("outdeg", pa.int64())]
    )
    rank_schema = pa.schema([("url", pa.string()), ("r", pa.int64())])

    for _ in range(RANK_ITERS):
        j = _hash_join(
            edges, ranks, on="src", right_on="url",
            left_schema=edge_schema, right_schema=rank_schema,
        )

        def contrib(t: pa.Table) -> pa.Table:
            r = t["r"].to_numpy(zero_copy_only=False).astype(np.int64)
            d = t["outdeg"].to_numpy(zero_copy_only=False).astype(np.int64)
            c = (r * RANK_NUM) // (RANK_DEN * d)
            # in-block combiner: pre-sum per dst BEFORE the distributed
            # groupby — shuffle rows drop from |edges in block| to
            # |unique dsts in block| (sum is associative; int64 is safe:
            # per-dst partial ≤ block_rows × max contribution ≪ 2^63)
            return (
                pl.DataFrame(
                    {"url": pl.from_arrow(t["dst"]), "c": c}
                )
                .group_by("url")
                .agg(pl.col("c").sum())
                .to_arrow()
                .cast(pa.schema([("url", pa.string()), ("c", pa.int64())]))
            )

        zeros = nodes.map_batches(
            lambda t: pa.table(
                {
                    "url": t["url"],
                    "c": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        summed = (
            j.map_batches(contrib, batch_format="pyarrow")
            .union(zeros)
            .groupby("url")
            .sum("c")
        )
        ranks = (
            summed.map_batches(
                lambda t: pa.table(
                    {
                        "url": t["url"],
                        "r": pc.add(
                            pc.cast(t["sum(c)"], pa.int64()),
                            pa.scalar(RANK_BASE, pa.int64()),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            # cap the per-iteration block growth (see resolve_pointers) —
            # at the compacted input width, not a fixed 32
            .repartition(parts)
            .materialize()
        )

    out = ranks.map_batches(
        lambda t: pa.table({"url": t["url"], "link_rank": t["r"]}),
        batch_format="pyarrow",
    )
    return _sorted(_concat(out), "url")


# --------------------------------------------------------------------------
# connected_components
# --------------------------------------------------------------------------

CC_MAX_ROUNDS = 64  # backstop only; convergence is diameter-bounded
_CC_PARTS = 32


def cc_fixpoint(
    edges: ray.data.Dataset,
    *,
    node_type: pa.DataType,
    nodes: ray.data.Dataset | None = None,
    symmetrize: bool = True,
) -> ray.data.Dataset:
    """Generic distributed connected components by hash-min label
    propagation to FIXPOINT — the scale form behind
    :func:`q_connected_components` and the threshold-gated route of the
    curation cluster-labeling family (``dedup.q_dup_clusters``,
    ``imagecurate.q_phash_clusters`` / ``q_image_curate``).

    ``edges`` is a Dataset with columns ``(a, b)`` of ``node_type``
    (``symmetrize=True`` emits both directions; pass ``False`` when the
    input is already symmetric). ``nodes`` optionally adds isolated
    nodes (column ``node``) that must still receive a self-label row.
    Returns a Dataset ``(node, label)`` where ``label`` is the MINIMUM
    node id of the node's component — identical to union-find with
    min-representative, independent of iteration schedule, which is why
    a recursive-CTE SQL oracle needs no round replay.

    label(v) starts at v and every round takes the min over v's own
    label and its neighbors' labels — one hash-join of labels onto the
    edge table + a partition-cogroup min per round, state materialized
    via :func:`_compact` (the resolve_pointers shape). Convergence
    detection is one tiny aggregate per round — a wraparound SUM of
    mix64(hash(node)⊕hash(label)) over all rows. It must be a sum, NOT
    an xor-fold: min-propagation moves whole cohorts to the same new
    label together, and an even-sized cohort's identical a→b deltas
    xor-cancel, declaring a fixpoint one round early (regression test
    pins this). A missed change is a ~2⁻⁶⁴ event and only affects round
    COUNT, not already-converged labels. Scale: per round the edge
    table moves once through the join and label rows once through the
    min-cogroup; rounds ≈ graph diameter. Skewed high-degree nodes cost
    join fan-out, not cogroup skew — labels are one row per node."""
    edge_schema = pa.schema([("a", node_type), ("b", node_type)])
    lbl_schema = pa.schema([("node", node_type), ("label", node_type)])

    def sym(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select(["a", "b"]))
        both = pl.concat([df, df.select(a=pl.col("b"), b=pl.col("a"))])
        return both.to_arrow().cast(edge_schema)

    if symmetrize:
        edges = edges.map_batches(sym, batch_format="pyarrow")
    edges = _compact(edges)

    def init_from_edges(t: pa.Table) -> pa.Table:
        # duplicate (node, node) rows are fine: round 1's min-cogroup
        # dedups them, and the sum signature only ever delays (never
        # falsifies) convergence detection by one round
        return pa.table({"node": t["a"], "label": t["a"]}).cast(lbl_schema)

    lbl_init = edges.map_batches(init_from_edges, batch_format="pyarrow")
    if nodes is not None:
        lbl_init = lbl_init.union(
            nodes.map_batches(
                lambda t: pa.table(
                    {"node": t["node"], "label": t["node"]}
                ).cast(lbl_schema),
                batch_format="pyarrow",
            )
        )
    labels = _compact(lbl_init)
    parts = max(labels.num_blocks(), edges.num_blocks(), 1)

    from spider_ray.functions.dedup import _hash_join
    from spider_ray.kernels.hashing import SEED

    def signature(ds: ray.data.Dataset) -> int:
        # SUM (mod 2⁶⁴) of mix64(hash(node) ⊕ hash(label)) — NOT xor:
        # an xor-fold cancels any EVEN number of rows making the SAME
        # label transition a→b in one round (delta (ha⊕hb)⊕(ha⊕hb) = 0),
        # and min-propagation moves whole node cohorts to the same new
        # min label together, so xor stopped real runs one round early
        # (caught by the phash-cluster route-parity test). A wraparound
        # sum of mixed per-row hashes keeps every row's contribution.
        from spider_ray.kernels.hashing import mix64_int

        def sig(t: pa.Table) -> pa.Table:
            df = pl.from_arrow(t).select(
                hn=pl.col("node").hash(seed=SEED),
                hl=pl.col("label").hash(seed=SEED),
            )
            h = mix64_int(
                np.bitwise_xor(
                    df["hn"].to_numpy().astype(np.uint64),
                    df["hl"].to_numpy().astype(np.uint64),
                )
            )
            with np.errstate(over="ignore"):
                acc = np.add.reduce(h) if len(h) else np.uint64(0)
            return pa.table({"s": pa.array([int(acc)], pa.uint64())})

        parts_t = _concat(ds.map_batches(sig, batch_format="pyarrow"))
        if parts_t.num_rows == 0:
            return 0
        with np.errstate(over="ignore"):
            return int(
                np.add.reduce(
                    parts_t["s"]
                    .to_numpy(zero_copy_only=False)
                    .astype(np.uint64)
                )
            )

    def min_cogroup(group: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(group)
            .group_by("node")
            .agg(pl.col("label").min())
            .to_arrow()
            .cast(lbl_schema)
        )

    def pad():
        def f(t: pa.Table) -> pa.Table:
            part = (
                pl.from_arrow(t.select(["node"]))
                .select(
                    (pl.col("node").hash(seed=SEED) % _CC_PARTS).cast(
                        pl.Int32
                    )
                )
                .to_series()
                .to_numpy()
            )
            return pa.table(
                {
                    "__part": pa.array(part, pa.int32()),
                    "node": t["node"],
                    "label": t["label"],
                }
            )

        return f

    prev_sig = signature(labels)
    for _ in range(CC_MAX_ROUNDS):
        j = _hash_join(
            edges, labels, on="a", right_on="node",
            left_schema=edge_schema, right_schema=lbl_schema,
        )

        def msg(t: pa.Table) -> pa.Table:
            # in-block combiner: min label per destination before the
            # distributed min
            return (
                pl.from_arrow(t.select(["b", "label"]))
                .rename({"b": "node"})
                .group_by("node")
                .agg(pl.col("label").min())
                .to_arrow()
                .cast(lbl_schema)
            )

        new_labels = (
            j.map_batches(msg, batch_format="pyarrow")
            .union(labels)
            .map_batches(pad(), batch_format="pyarrow")
            .groupby("__part")
            .map_groups(min_cogroup, batch_format="pyarrow")
            .repartition(parts)
            .materialize()
        )
        sig_now = signature(new_labels)
        labels = new_labels
        if sig_now == prev_sig:
            break
        prev_sig = sig_now
    else:  # pragma: no cover - diameter would have to exceed 64
        raise RuntimeError("connected_components: no fixpoint in 64 rounds")

    return labels


def q_connected_components(corpus: str) -> pa.Table:
    """Undirected connected components over the outlink graph — the graph
    pass behind duplicate-cluster resolution and host-community grouping
    (dedup.q_dup_clusters resolves its SPARSE pair graph driver-side;
    :func:`cc_fixpoint` is the distributed form for graphs too big for
    one node — see its docstring for the hash-min algorithm). The DuckDB
    oracle is the recursive-CTE transitive closure's
    ``min(label) GROUP BY node``."""
    wg = _read_web_graph(corpus, ["url", "outlinks"])

    def to_edges(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .explode("outlinks", empty_as_null=False)
            .drop_nulls("outlinks")
            .select(
                a=pl.col("url"), b=pl.col("outlinks").struct.field("url")
            )
        )
        return df.to_arrow().cast(
            pa.schema([("a", pa.string()), ("b", pa.string())])
        )

    edges = wg.map_batches(to_edges, batch_format="pyarrow")
    # isolated pages (no in/outlinks) still get a row: nodes = urls
    urls = wg.select_columns(["url"]).map_batches(
        lambda t: pa.table({"node": t["url"]}),
        batch_format="pyarrow",
    )
    labels = cc_fixpoint(edges, node_type=pa.string(), nodes=urls)
    out = labels.map_batches(
        lambda t: pa.table({"url": t["node"], "component": t["label"]}),
        batch_format="pyarrow",
    )
    return _sorted(_concat(out), "url")


# --------------------------------------------------------------------------
# triangle_count
# --------------------------------------------------------------------------

def q_triangle_count(corpus: str) -> pa.Table:
    """Triangle count over the undirected outlink graph — the
    clustering-structure statistic next to PageRank/CC, by the standard
    distributed ORIENTED WEDGE JOIN: canonicalize edges a<b (distinct),
    build wedges a<b<c with one edge⋈edge hash-join on the middle
    vertex, then verify the closing (a,c) edge with a second hash-join
    on a composite key. Lexicographic orientation counts every triangle
    exactly once and bounds wedge fan-out by each vertex's
    HIGHER-ordered degree. Output one row (n_edges, n_wedges,
    n_triangles) — all exact int64, trivially SQL-replayable."""
    from spider_ray.functions.dedup import _hash_join

    wg = _read_web_graph(corpus, ["url", "outlinks"])

    def canon(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .explode("outlinks", empty_as_null=False)
            .drop_nulls("outlinks")
            .select(
                u=pl.col("url"), v=pl.col("outlinks").struct.field("url")
            )
            .filter(pl.col("u") != pl.col("v"))
        )
        df = df.select(
            a=pl.when(pl.col("u") < pl.col("v"))
            .then(pl.col("u"))
            .otherwise(pl.col("v")),
            b=pl.when(pl.col("u") < pl.col("v"))
            .then(pl.col("v"))
            .otherwise(pl.col("u")),
        ).unique()
        return df.to_arrow().cast(
            pa.schema([("a", pa.string()), ("b", pa.string())])
        )

    # global distinct canonical edges (per-block unique + one groupby)
    edges = _compact(
        wg.map_batches(canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .map_groups(
            lambda g: g.slice(0, 1), batch_format="pyarrow"
        )
    )
    e_schema = pa.schema([("a", pa.string()), ("b", pa.string())])

    # wedges a<b<c: join (a,b) against (mid,c) on the middle vertex —
    # the right side is pre-renamed so payload names stay disjoint
    def as_mid(t: pa.Table) -> pa.Table:
        return pa.table({"mid": t["a"], "c": t["b"]})

    right = edges.map_batches(as_mid, batch_format="pyarrow")
    w = _hash_join(
        edges, right, on="b", right_on="mid",
        left_schema=e_schema,
        right_schema=pa.schema([("mid", pa.string()), ("c", pa.string())]),
    )

    def orient(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).filter(pl.col("c") > pl.col("b"))
        return (
            df.select(
                key=pl.col("a") + pl.lit("\x00") + pl.col("c"),
                b=pl.col("b"),
            )
            .to_arrow()
            .cast(pa.schema([("key", pa.string()), ("b", pa.string())]))
        )

    wedges = w.map_batches(orient, batch_format="pyarrow")

    def edge_keys(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .select(
                key=pl.col("a") + pl.lit("\x00") + pl.col("b"),
                one=pl.lit(1, dtype=pl.Int64),
            )
            .to_arrow()
            .cast(pa.schema([("key", pa.string()), ("one", pa.int64())]))
        )

    closing = edges.map_batches(edge_keys, batch_format="pyarrow")
    tri = _hash_join(
        wedges, closing, on="key", right_on="key",
        left_schema=pa.schema([("key", pa.string()), ("b", pa.string())]),
        right_schema=pa.schema([("key", pa.string()), ("one", pa.int64())]),
    )

    def count_rows(t: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    n_tri = int(
        sum(
            _concat(
                tri.map_batches(count_rows, batch_format="pyarrow")
            )["n"].to_pylist()
        )
    )
    n_wedge = int(
        sum(
            _concat(
                wedges.map_batches(count_rows, batch_format="pyarrow")
            )["n"].to_pylist()
        )
    )
    n_edge = edges.count()
    return pa.table(
        {
            "n_edges": pa.array([n_edge], pa.int64()),
            "n_wedges": pa.array([n_wedge], pa.int64()),
            "n_triangles": pa.array([n_tri], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# anchor_text
# --------------------------------------------------------------------------

ANCHOR_PARTS = 32  # hash-partition fan-out for the per-target reduce


def q_anchor_text(corpus: str) -> pa.Table:
    """Per-target anchor-text aggregation over the outlink graph — the
    linkbase side-table the reference's offline analyzer builds by merging
    every page's outgoing ``(url, anchor)`` pairs into the target page's
    graph record (crawler/offline_analyze/offline_analyze_util.cc:10-46
    ``url_preprocess`` cleanup + offline_analyze_test.cc anchor-merge
    flow; crawler2/general_crawler/extractor.cc emits the pairs at parse
    time). Anchor text pointing AT a page is a classic relevance signal —
    this is the aggregation that makes it queryable.

    Target-URL cleanup follows url_preprocess exactly: trim whitespace,
    drop empties, strip ONE trailing ``#`` then ONE trailing ``/``.

    Distributed shape: one streamed explode pass over pruned columns with
    per-block PARTIAL counts by (dst, anchor, src_host) — the combiner
    that keeps the shuffle proportional to distinct triples, not raw
    edges — then ONE hash-partition reduce by dst
    (``groupby(__part).map_groups``) computing per-target totals,
    distinct referring hosts, and the plurality anchor (count desc,
    lexical asc tie-break). The driver never holds the edge set; output
    is one row per linked-to URL."""
    wg = _read_web_graph(corpus, ["host", "outlinks"])

    part_schema = pa.schema(
        [
            ("__part", pa.int32()),
            ("dst", pa.string()),
            ("anchor", pa.string()),
            ("src_host", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def explode(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .explode("outlinks", empty_as_null=False)
            .drop_nulls("outlinks")
            .select(
                src_host=pl.col("host"),
                dst=pl.col("outlinks").struct.field("url").str.strip_chars(),
                anchor=pl.col("outlinks").struct.field("anchor"),
            )
            .filter(pl.col("dst") != "")
            # url_preprocess: one trailing '#' strip, then one trailing '/'
            .with_columns(
                dst=pl.col("dst")
                .str.replace(r"#$", "")
                .str.replace(r"/$", "")
            )
            .group_by(["dst", "anchor", "src_host"])
            .agg(n=pl.len().cast(pl.Int64))
            .with_columns(
                __part=(pl.col("dst").hash(seed=SEED) % ANCHOR_PARTS).cast(
                    pl.Int32
                )
            )
            .select(["__part", "dst", "anchor", "src_host", "n"])
        )
        return df.to_arrow().cast(part_schema)

    out_schema = pa.schema(
        [
            ("url", pa.string()),
            ("n_inlinks", pa.int64()),
            ("n_hosts", pa.int64()),
            ("top_anchor", pa.string()),
            ("top_anchor_n", pa.int64()),
        ]
    )

    def reduce_part(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group)
        per = df.group_by("dst").agg(
            n_inlinks=pl.col("n").sum(),
            n_hosts=pl.col("src_host").n_unique().cast(pl.Int64),
        )
        anchors = df.group_by(["dst", "anchor"]).agg(n=pl.col("n").sum())
        top = (
            anchors.sort(
                ["dst", "n", "anchor"], descending=[False, True, False]
            )
            .group_by("dst", maintain_order=True)
            .first()
            .rename({"anchor": "top_anchor", "n": "top_anchor_n"})
        )
        return (
            per.join(top, on="dst")
            .rename({"dst": "url"})
            .select(
                ["url", "n_inlinks", "n_hosts", "top_anchor", "top_anchor_n"]
            )
            .to_arrow()
            .cast(out_schema)
        )

    agg = (
        wg.map_batches(explode, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_part, batch_format="pyarrow")
    )
    return _sorted(_concat(agg), "url")


# --------------------------------------------------------------------------
# host_graph
# --------------------------------------------------------------------------

def q_host_graph(corpus: str) -> pa.Table:
    """Host-level link graph — collapse the URL-level outlink graph to
    directed (src_host → dst_host) edges with link counts and distinct
    linking pages, CROSS-host edges only. This is the per-host structure
    the reference's scheduler consumes everywhere it reasons about hosts
    rather than URLs (host_stat.cc per-host URL stats, the host_load
    control table, linkbase locality keys); the host graph is also the
    standard skew diagnostic — a hot dst_host row is exactly a shuffle
    hot key.

    Same combiner discipline as :func:`q_anchor_text`: per-block PARTIAL
    counts by (src_host, dst_host, src_url) bound the shuffle by
    distinct triples; one hash-partition reduce by the host pair sums
    link counts and counts distinct source pages."""
    wg = _read_web_graph(corpus, ["url", "host", "outlinks"])

    part_schema = pa.schema(
        [
            ("__part", pa.int32()),
            ("src_host", pa.string()),
            ("dst_host", pa.string()),
            ("src_url", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def explode(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .explode("outlinks", empty_as_null=False)
            .drop_nulls("outlinks")
            .select(
                src_host=pl.col("host"),
                src_url=pl.col("url"),
                dst_host=pl.col("outlinks")
                .struct.field("url")
                .str.extract(r"^https?://([^/]+)", 1),
            )
            .filter(
                pl.col("dst_host").is_not_null()
                & (pl.col("dst_host") != pl.col("src_host"))
            )
            .group_by(["src_host", "dst_host", "src_url"])
            .agg(n=pl.len().cast(pl.Int64))
            .with_columns(
                __part=(
                    (pl.col("src_host") + pl.lit("\x00") + pl.col("dst_host"))
                    .hash(seed=SEED)
                    % ANCHOR_PARTS
                ).cast(pl.Int32)
            )
            .select(["__part", "src_host", "dst_host", "src_url", "n"])
        )
        return df.to_arrow().cast(part_schema)

    out_schema = pa.schema(
        [
            ("src_host", pa.string()),
            ("dst_host", pa.string()),
            ("n_links", pa.int64()),
            ("n_src_pages", pa.int64()),
        ]
    )

    def reduce_part(group: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(group)
            .group_by(["src_host", "dst_host"])
            .agg(
                n_links=pl.col("n").sum(),
                n_src_pages=pl.col("src_url").n_unique().cast(pl.Int64),
            )
            .select(["src_host", "dst_host", "n_links", "n_src_pages"])
            .to_arrow()
            .cast(out_schema)
        )

    agg = (
        wg.map_batches(explode, batch_format="pyarrow")
        .groupby("__part")
        .map_groups(reduce_part, batch_format="pyarrow")
    )
    return _sorted(_concat(agg), ["src_host", "dst_host"])


# --------------------------------------------------------------------------
# host_rate_plan
# --------------------------------------------------------------------------

def host_rate_plan_sql(corpus: str) -> str:
    """The DuckDB oracle for :func:`q_host_rate_plan`, shared between the
    driver's oracle_sql() and the delay-fuzz parity test so the two can
    never drift. Mirrors the engine exactly: case-insensitive first-match
    Crawl-delay with a required leading digit, FLOOR division (Python
    int() truncation on positives), and a ``d > 0`` guard."""
    import os

    wg = os.path.join(corpus, "web_graph.parquet")
    robots = os.path.join(corpus, "robots.parquet")
    hl = os.path.join(corpus, "host_load.parquet")
    return f"""
        WITH pc AS (
            SELECT host, CAST(count(*) AS BIGINT) AS n_pages
            FROM '{wg}' GROUP BY host),
        hl AS (
            SELECT key, CAST(max_qps * 1000 AS BIGINT) AS mq
            FROM '{hl}'
            WHERE "window" = ''),
        dflt AS (SELECT mq FROM hl WHERE key = '*'),
        cd AS (
            SELECT host, CAST(FLOOR(1000 / d) AS BIGINT) AS cap
            FROM (
                SELECT host,
                       TRY_CAST(regexp_extract(body,
                           '(?i)crawl-delay:[ \t]*([0-9]+(?:\\.[0-9]+)?)',
                           1) AS DOUBLE) AS d
                FROM '{robots}')
            WHERE d IS NOT NULL AND d > 0),
        j AS (
            SELECT pc.host, pc.n_pages,
                   least(coalesce(hl.mq, (SELECT mq FROM dflt)),
                         coalesce(cd.cap, 4611686018427387904))
                       AS milli_qps
            FROM pc LEFT JOIN hl ON pc.host = hl.key
                    LEFT JOIN cd ON pc.host = cd.host)
        SELECT host, n_pages, CAST(milli_qps AS BIGINT) AS milli_qps,
               CAST(n_pages * 1000000 // milli_qps AS BIGINT)
                   AS projected_ms
        FROM j ORDER BY host
    """


def q_host_rate_plan(corpus: str) -> pa.Table:
    """Per-host crawl capacity plan — the sizing arithmetic behind the
    reference's schedule config (fetcher fleet sizing from host_load
    budgets, host_load_control_tab.txt + schedule.conf): for every host
    in the web graph, join its page count against its politeness budget
    (host_load row, falling back to the '*' default) and its robots
    Crawl-delay cap, and project the serial crawl time at the effective
    rate. All-integer output (QPS carried as milli-QPS) so the check is
    hash-exact.

    Shape: page counts are the only corpus-sized input (distributed
    native groupby over the pruned host column); host_load and robots
    are O(hosts) control tables — broadcast lookups, per the J1
    small-side discipline. Output one row per host, sorted."""
    import os
    import re

    import pyarrow.parquet as pq

    wg = _read_web_graph(corpus, ["host"])
    counts = wg.groupby("host").aggregate(
        ray.data.aggregate.Count(alias_name="n_pages")
    )

    hl = pq.read_table(os.path.join(corpus, "host_load.parquet"))
    budgets = {
        k: int(q * 1000)
        for k, q, w in zip(
            hl["key"].to_pylist(),
            hl["max_qps"].to_pylist(),
            hl["window"].to_pylist(),
        )
        if not w
    }
    default_mq = budgets.get("*", 3000)
    rb = pq.read_table(os.path.join(corpus, "robots.parquet"))
    # capacity-plan reading is deliberately body-wide + first-match
    # (max-conservative: ANY user-agent group's declared delay caps the
    # host), unlike the crawl path's agent-group-scoped crawl_delay_for —
    # a plan should not assume the fleet crawls under the one lenient UA.
    # Pattern requires a leading digit so '.' alone never parses; the
    # oracle SQL mirrors this exactly ((?i), FLOOR, d > 0 guard).
    delay_re = re.compile(r"(?i)crawl-delay:[ \t]*([0-9]+(?:\.[0-9]+)?)")
    caps = {}
    for h, b in zip(rb["host"].to_pylist(), rb["body"].to_pylist()):
        m = delay_re.search(b or "")
        if m and float(m.group(1)) > 0:
            caps[h] = int(1000 / float(m.group(1)))
    budgets_ref = ray.put((budgets, default_mq, caps))

    out_schema = pa.schema(
        [
            ("host", pa.string()),
            ("n_pages", pa.int64()),
            ("milli_qps", pa.int64()),
            ("projected_ms", pa.int64()),
        ]
    )

    def plan(t: pa.Table) -> pa.Table:
        b, dflt, cp = ray.get(budgets_ref)
        hosts = t["host"].to_pylist()
        n = [int(v) for v in t["n_pages"].to_pylist()]
        mq = [
            min(b.get(h, dflt), cp.get(h, 1 << 62)) for h in hosts
        ]
        proj = [ni * 1_000_000 // q for ni, q in zip(n, mq)]
        return pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "n_pages": pa.array(n, pa.int64()),
                "milli_qps": pa.array(mq, pa.int64()),
                "projected_ms": pa.array(proj, pa.int64()),
            }
        ).cast(out_schema)

    return _sorted(
        _concat(
            counts.map_batches(plan, batch_format="pyarrow"),
            schema=out_schema,
        ),
        "host",
    )


# --------------------------------------------------------------------------
# crawl_eval — top-N(UV) crawl-success evaluation
# --------------------------------------------------------------------------

def q_crawl_eval(
    corpus: str,
    status: "pa.Table | ray.data.Dataset",
    topn: int = 200,
) -> pa.Table:
    """Top-N(UV) URL / per-website crawl-success evaluation — the
    reference's `crawler/evaluation` package (evaluation/README:1-12,
    evaluation.cc CheckStatusFile): load the top-N most-valuable URLs,
    scan the crawl status reports, and report per-website success counts
    and rates. The corpus has no click logs, so the deterministic UV
    stand-in is LINK POPULARITY (in-link count over the web graph —
    the same signal selector feeds `importance` from).

    Shape: the corpus-sized work is the in-degree count (streamed explode
    + native distributed groupby) and the distributed top-N sort. The
    status report is reduced through the broadcast top-N set: pass it as
    a ``ray.data.Dataset`` and success flags come back from a distributed
    semi-join + per-url max (O(N) rows to the driver, never the crawl
    log); a ``pa.Table`` (the demo-scale contract) reduces the same way
    vectorized driver-side — either way no O(crawl) dict is built.
    All-integer output (rate as milli) so the oracle check is
    hash-exact."""
    from ray.data.aggregate import Count

    wg = _read_web_graph(corpus, ["url", "outlinks"])

    def explode(t: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(t)
            .explode("outlinks", empty_as_null=False)
            .drop_nulls("outlinks")
            .select(url=pl.col("outlinks").struct.field("url"))
        )
        return df.to_arrow().cast(pa.schema([("url", pa.string())]))

    indeg = (
        wg.map_batches(explode, batch_format="pyarrow")
        .groupby("url")
        .aggregate(Count(alias_name="inlinks"))
    )
    top = _concat(
        indeg.sort(["inlinks", "url"], descending=[True, False]).limit(topn),
        schema=pa.schema([("url", pa.string()), ("inlinks", pa.int64())]),
    )

    top_urls = top["url"]

    def _ok_rows(t: pa.Table) -> pa.Table:
        # semi-join against the top-N set, then per-url success flag
        sub = t.filter(pc.is_in(t["url"], value_set=top_urls))
        return (
            pl.from_arrow(sub.select(["url", "status"]))
            .group_by("url")
            .agg(ok=(pl.col("status") == 200).any().cast(pl.Int64))
            .to_arrow()
            .cast(pa.schema([("url", pa.string()), ("ok", pa.int64())]))
        )

    if isinstance(status, ray.data.Dataset):
        # scale path: the crawl log streams through the broadcast top-N
        # filter; only O(N) (url, ok) rows ever reach the driver
        ok_t = (
            pl.from_arrow(
                _concat(
                    status.map_batches(_ok_rows, batch_format="pyarrow"),
                    schema=pa.schema(
                        [("url", pa.string()), ("ok", pa.int64())]
                    ),
                )
            )
            .group_by("url")
            .agg(ok=pl.col("ok").max())
        )
    else:
        ok_t = pl.from_arrow(_ok_rows(status))

    agg = (
        pl.from_arrow(top)
        .join(ok_t, on="url", how="left")
        .with_columns(
            host=pl.col("url").str.extract(r"^http://([^/]+)", 1),
            ok=pl.col("ok").fill_null(0),
        )
        .group_by("host")
        .agg(
            topn_urls=pl.len().cast(pl.Int64),
            crawled_ok=pl.col("ok").sum().cast(pl.Int64),
        )
        .with_columns(
            success_rate_milli=(
                pl.col("crawled_ok") * 1000 // pl.col("topn_urls")
            ).cast(pl.Int64)
        )
        .sort("host")
    )
    return agg.to_arrow().cast(
        pa.schema(
            [
                ("host", pa.string()),
                ("topn_urls", pa.int64()),
                ("crawled_ok", pa.int64()),
                ("success_rate_milli", pa.int64()),
            ]
        )
    )


def q_site_uv_share(corpus: str) -> pa.Table:
    """Per-site UV share + content-page ratio — the reference evaluation
    package's two single-machine tools (evaluation/README:9-12:
    ``website_uv_per`` "站点在 uv 当中所占的比例" and ``content_page_per``
    "内容页面在网页当中所占的比例", plus ``sort_website_uv``). UV stand-in
    = even-seq page sightings (the PV/UV-log aggregate the dispatcher
    also uses); content page = a 200-status page (the usable-content
    fraction — every url in this corpus is article-shaped, so the
    status mix is the discriminating signal). All-integer milli shares,
    sorted by UV rank then host (the sort_website_uv output order).

    Shape: two per-host counts out of ONE streamed pass + a native
    distributed groupby; the totals are one tiny aggregate."""
    from ray.data.aggregate import Sum

    wg = _read_web_graph(corpus, ["url", "host", "status_code"])

    def flags(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        seq = df["url"].str.extract(r"(\d+)$", 1).cast(pl.Int64)
        return pa.table(
            {
                "host": t["host"],
                "uv": pa.array(
                    (seq % 2 == 0).cast(pl.Int64).to_numpy(), pa.int64()
                ),
                "content": pa.array(
                    (df["status_code"].cast(pl.Int64) == 200)
                    .cast(pl.Int64)
                    .to_numpy(),
                    pa.int64(),
                ),
                "n": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    per_host = (
        wg.map_batches(flags, batch_format="pyarrow")
        .groupby("host")
        .aggregate(
            Sum("uv", alias_name="uv"),
            Sum("content", alias_name="content_pages"),
            Sum("n", alias_name="pages"),
        )
    )
    t = _concat(
        per_host,
        schema=pa.schema(
            [
                ("host", pa.string()),
                ("uv", pa.int64()),
                ("content_pages", pa.int64()),
                ("pages", pa.int64()),
            ]
        ),
    )
    total_uv = int(pc.sum(t["uv"]).as_py() or 0)
    out = (
        pl.from_arrow(t)
        .with_columns(
            uv_share_milli=(pl.col("uv") * 1000 // max(total_uv, 1)).cast(
                pl.Int64
            ),
            content_share_milli=(
                pl.col("content_pages") * 1000 // pl.col("pages")
            ).cast(pl.Int64),
        )
        .sort(["uv", "host"], descending=[True, False])
        .select(
            "host", "uv", "uv_share_milli", "pages", "content_pages",
            "content_share_milli",
        )
    )
    return out.to_arrow().cast(
        pa.schema(
            [
                ("host", pa.string()),
                ("uv", pa.int64()),
                ("uv_share_milli", pa.int64()),
                ("pages", pa.int64()),
                ("content_pages", pa.int64()),
                ("content_share_milli", pa.int64()),
            ]
        )
    )
