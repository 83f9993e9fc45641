"""Text-analysis pipelines over ``documents``: token counting, quality
scoring, language-ID, document fingerprinting (SURVEY §2.8 scalar function
library + M16 signature analog)."""

from __future__ import annotations

import polars as pl
import pyarrow as pa

from spider_ray.kernels import tokens as tk
from spider_ray.kernels.hashing import mix64_int
from spider_ray.pipelines.relational import _concat, _sorted
from spider_ray.sources.tables import read_table
from spider_ray.stages.agg import partial_final_agg


def q_token_stats(sf_dir: str) -> pa.Table:
    """Per-lang token statistics — whitespace tokens counted vectorized
    (polars count_matches of ``\\S+``), aggregated partial→final."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text", "n_chars"])

    def partial(lf: pl.LazyFrame) -> pl.LazyFrame:
        return (
            lf.with_columns(n_tokens=pl.col("text").str.count_matches(tk.NONWS_PAT))
            .group_by("lang")
            .agg(
                n_docs=pl.len(),
                total_tokens=pl.col("n_tokens").sum(),
                total_chars=pl.col("n_chars").sum(),
            )
        )

    def final(lf: pl.LazyFrame) -> pl.LazyFrame:
        return (
            lf.group_by("lang")
            .agg(
                n_docs=pl.col("n_docs").sum().cast(pl.Int64),
                total_tokens=pl.col("total_tokens").sum().cast(pl.Int64),
                avg_chars=(
                    pl.col("total_chars").sum() / pl.col("n_docs").sum()
                ).cast(pl.Float64),
            )
            .sort("lang")
        )

    return partial_final_agg(ds, partial, final)


def q_bpe_token_count(sf_dir: str) -> pa.Table:
    """Global BPE-ish token count (letter runs / digit runs / single
    punctuation — TOKEN_RE), per source. Vectorized regex count per batch."""
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    def partial(lf: pl.LazyFrame) -> pl.LazyFrame:
        return (
            lf.with_columns(
                n_bpe=pl.col("text").str.count_matches(tk.TOKEN_RE.pattern)
            )
            .group_by("source")
            .agg(n_docs=pl.len(), bpe_tokens=pl.col("n_bpe").sum())
        )

    def final(lf: pl.LazyFrame) -> pl.LazyFrame:
        return (
            lf.group_by("source")
            .agg(
                n_docs=pl.col("n_docs").sum().cast(pl.Int64),
                bpe_tokens=pl.col("bpe_tokens").sum().cast(pl.Int64),
            )
            .sort("source")
        )

    return partial_final_agg(ds, partial, final)


def q_quality_scores(sf_dir: str) -> pa.Table:
    """Per-doc quality metrics (length / punct / digit ratios) — the
    worthless-page-classifier analog (M13) as vectorized columns."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        lf = pl.from_arrow(batch)
        out = lf.with_columns(
            n_chars=pl.col("text").str.len_chars().cast(pl.Int64),
            n_tokens=pl.col("text").str.count_matches(tk.NONWS_PAT).cast(pl.Int64),
            n_punct=pl.col("text").str.count_matches(r"[!-/:-@\[-`{-~]").cast(pl.Int64),
            n_digit=pl.col("text").str.count_matches(r"[0-9]").cast(pl.Int64),
        ).select(
            "doc_id",
            "n_chars",
            "n_tokens",
            punct_ratio=pl.col("n_punct") / pl.col("n_chars"),
            digit_ratio=pl.col("n_digit") / pl.col("n_chars"),
        )
        return out.to_arrow()

    t = _concat(ds.map_batches(score, batch_format="pyarrow"))
    return _sorted(t, "doc_id")


def q_langid(sf_dir: str) -> pa.Table:
    """Heuristic language ID per doc + agreement with the labeled lang.
    SQL-oracled: the stopword-count argmax replays exactly in DuckDB
    (``oracle_sql()['langid']``) — first-wins tie-break as a CASE chain.
    Batch-vectorized via tk.detect_lang_batch (pinned equal to the scalar
    kernel in tests)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def predict(batch: pa.Table) -> pa.Table:
        preds = tk.detect_lang_batch(batch["text"].combine_chunks())
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "pred_lang": preds,
                "agree": pa.compute.fill_null(
                    pa.compute.equal(
                        preds, batch["lang"].cast(pa.string())
                    ),
                    False,
                ),
            }
        )

    t = _concat(ds.map_batches(predict, batch_format="pyarrow"))
    return _sorted(t, "doc_id")


def q_fingerprints(sf_dir: str) -> pa.Table:
    """Winnowing rolling-hash fingerprint per doc (M16 signature analog).
    SQL-oracled: the whole kernel replays exactly in DuckDB — hex-pair byte
    decode, LEAD-based k=8 polynomial window hash (equal by construction to
    the prefix-sum form), mix64 stages, window-function sliding min,
    DISTINCT + double mix + bit_xor — see ``oracle_sql()['fingerprints']``."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        fps = [tk.doc_fingerprint(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "fingerprint": pa.array(fps, pa.uint64()),
            }
        )

    t = _concat(ds.map_batches(fp, batch_format="pyarrow"))
    return _sorted(t, "doc_id")



MIX_RATES = {"en": 1.0, "zh": 0.75, "de": 0.5, "es": 0.5, "fr": 0.25}
MIX_SEED = 20260817
# exact integer thresholds (rates are exact binary fractions, so
# rate * 2^64 is exact); comparison is uint64-exact on both engine and
# oracle — never float, which loses the low 11 bits
MIX_THRESH = {l: int(r * 2**64) for l, r in MIX_RATES.items()}


def q_mixture_sample(sf_dir: str) -> pa.Table:
    """Deterministic corpus-mixture sampling — per-language keep rates (the
    data-mixing step of a training pipeline), decided per row by the frozen
    ``mix64_int(doc_id, seed)`` key against ``rate * 2^64``. Fully
    vectorized inside ``map_batches`` and reproduced exactly by the DuckDB
    oracle (HUGEINT mixer), so the SAMPLE ITSELF is verified, not just its
    size."""
    import numpy as np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(batch: pa.Table) -> pa.Table:
        ids = pa.compute.cast(batch["doc_id"], pa.int64())
        u = mix64_int(ids.to_numpy(zero_copy_only=False), seed=MIX_SEED)
        lang_arr = np.asarray(batch["lang"].to_pylist(), dtype=object)
        keep = np.zeros(len(lang_arr), dtype=bool)
        for lang, t64 in MIX_THRESH.items():
            m = lang_arr == lang
            if not m.any():
                continue
            keep[m] = True if t64 >= 2**64 else u[m] < np.uint64(t64)
        return pa.table(
            {"doc_id": ids, "lang": batch["lang"]}
        ).filter(pa.array(keep))

    return _sorted(_concat(ds.map_batches(pick, batch_format="pyarrow")),
                   "doc_id")


PACK_BUDGET = 256  # tokens per packed sequence


PACK_RANGE = 4096  # docs per pack partition (bins never cross a range)


def q_sequence_pack(sf_dir: str) -> pa.Table:
    """Sequence packing — greedily pack documents (in doc_id order) into
    contiguous bins of ≤ PACK_BUDGET whitespace tokens (the
    context-window packing step of a training pipeline), DISTRIBUTED as
    per-range pack + offset merge (the O2 prefix-sum shape): doc_id ranges
    of PACK_RANGE docs pack independently in a ``groupby(range).
    map_groups`` (greedy walk vectorized-adjacent inside the worker), a
    tiny (range → bin count) table cumsums driver-side, and a second pass
    adds each range's bin offset. Bins never span a range boundary — the
    defined semantics of the distributed operator (at most one underfull
    bin per 4096 docs); bin ids stay globally contiguous.

    SQL-oracled: the greedy walk replays exactly as a lockstep recursive
    CTE (one row per range per step) + window prefix-sum of per-range bin
    counts — see ``oracle_sql()['sequence_pack']``. Invariants (budget
    respected, bins contiguous, determinism) also asserted in
    tests/test_misc_ops.py."""
    import numpy as np

    from ray.data.aggregate import Max

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        lf = pl.from_arrow(batch).with_columns(
            n_tokens=pl.col("text").str.count_matches(tk.NONWS_PAT).cast(pl.Int64),
            range_id=(pl.col("doc_id") // PACK_RANGE).cast(pl.Int64),
        )
        return lf.select("doc_id", "n_tokens", "range_id").to_arrow()

    def pack_range(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group).sort("doc_id")
        bins, fill, b = [], 0, 0
        for n in df["n_tokens"].to_list():
            if fill > 0 and fill + n > PACK_BUDGET:
                b += 1
                fill = 0
            fill += n
            bins.append(b)
        return df.with_columns(
            local_bin=pl.Series(bins, dtype=pl.Int64)
        ).to_arrow()

    packed = (
        ds.map_batches(count, batch_format="pyarrow")
        .groupby("range_id")
        .map_groups(pack_range, batch_format="pyarrow")
        .materialize()
    )
    # offsets: O(ranges) rows — the only driver-side state
    counts = packed.groupby("range_id").aggregate(Max("local_bin")).to_pandas()
    counts = counts.sort_values("range_id", ignore_index=True)
    n_bins = counts["max(local_bin)"].to_numpy() + 1
    offsets = dict(
        zip(
            counts["range_id"].tolist(),
            np.concatenate([[0], np.cumsum(n_bins)[:-1]]).tolist(),
        )
    )
    import ray as _ray

    off_ref = _ray.put(offsets)

    def add_offset(batch: pa.Table) -> pa.Table:
        off = _ray.get(off_ref)
        rid = batch["range_id"].to_pylist()
        base = np.array([off[r] for r in rid], dtype=np.int64)
        local = batch["local_bin"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["n_tokens"],
                "bin": pa.array(base + local, pa.int64()),
            }
        )

    return _sorted(
        _concat(packed.map_batches(add_offset, batch_format="pyarrow")),
        "doc_id",
    )

from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()


def q_charset_decode(sf_dir: str) -> pa.Table:
    """M7 TEXT path (HTML→UTF-8 best-effort conversion,
    fetch_result_handler.cc:182-224): synthesize per-doc charset-encoded
    bodies — charset picked by the frozen mix64 key, declared in the
    Content-Type header — then run the decode stage and emit the recovered
    text. The roundtrip is lossless (utf-8 / gb18030 both encode all of
    Unicode), so the DuckDB oracle reproduces the full output including the
    text column; mojibake/failure behavior is covered by the golden
    fixtures in tests/test_textdecode.py."""
    import numpy as np

    from spider_ray.stages.textdecode import decode_pages

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def encode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
        u = mix64_int(ids, seed=7031)
        labels = np.where(u % np.uint64(2) == 0, "utf-8", "gb18030")
        bodies = [
            t.encode(cs)
            for t, cs in zip(batch["text"].to_pylist(), labels)
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "body": pa.array(bodies, pa.binary()),
                "content_type": pa.array(
                    [f"text/html; charset={c}" for c in labels], pa.string()
                ),
            }
        )

    decoded = decode_pages(ds.map_batches(encode, batch_format="pyarrow"))

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(
            ["doc_id", "text", "charset", "n_chars", "decode_ok"]
        )

    return _sorted(
        _concat(decoded.map_batches(project, batch_format="pyarrow")),
        "doc_id",
    )


def q_main_content(sf_dir: str) -> pa.Table:
    """M17 DOM main-content extraction (content_collector.cc): each doc's
    text is wrapped in a realistic page template (header / nav / sidebar
    links / two footer boilerplates — one INSIDE the content div), the
    extractor strips the chrome via droppable-node pruning + the
    dominant-cluster ratio walk, and the recovered (title, content) must
    equal the source for ANY text (all boilerplate sits in droppable tags,
    so the contract is length-independent — a visible-text sibling would
    make short docs lose the dominance walk). The DuckDB oracle states the
    expected output directly; dominance-descent corner cases are
    golden-tested in tests/test_domtext.py."""
    import html as _html

    from spider_ray.kernels.domtext import extract_main_content

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def run(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        titles, contents = [], []
        for did, text in zip(ids, batch["text"].to_pylist()):
            page = (
                f"<html><head><title>Doc {did}</title>"
                "<style>.x{color:red}</style></head><body>"
                "<header>Example Site</header>"
                '<nav><a href="/">home</a><a href="/about">about</a></nav>'
                '<div id="page"><div id="main">'
                f"<p>{_html.escape(text)}</p>"
                "<footer>(c) example fineprint</footer></div>"
                '<aside><a href="/x">related one</a>'
                '<a href="/y">related two</a></aside></div>'
                "<footer>contact us</footer></body></html>"
            )
            title, content = extract_main_content(page)
            titles.append(title)
            contents.append(content)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "title": pa.array(titles, pa.string()),
                "content": pa.array(contents, pa.string()),
            }
        )

    return _sorted(_concat(ds.map_batches(run, batch_format="pyarrow")),
                   "doc_id")


# --- tokenizer-vocab build + OOV rate (fit -> broadcast -> transform) ------

VOCAB_SIZE = 64  # bounded by construction: the broadcast is O(VOCAB_SIZE)


def q_vocab_oov(sf_dir: str) -> pa.Table:
    """Tokenizer-vocab construction + per-doc OOV rate — the canonical
    two-pass fit→transform of a training-data pipeline (build the vocab on
    the corpus, then score every document against it).

    Fit: per-block partial word counts (map-side combine) → NATIVE
    distributed ``groupby(word)`` sum — vocabulary cardinality is unbounded
    at corpus scale, so the merge must be a shuffle, never a driver-side
    dict. Top-N selection is a distributed sort + ``limit``: only
    ``VOCAB_SIZE`` rows ever reach the driver, with the deterministic
    (count DESC, word ASC) tie-break reproduced verbatim in the oracle.
    Transform: the vocab broadcasts once via ``ray.put`` and every block
    scores vectorized (polars ``extract_all`` + ``list.eval(is_in)``).
    Output stays integer (n_tokens, n_oov) so the check is hash-exact.
    """
    import ray

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .select(word=pl.col("text").str.extract_all(tk.NONWS_PAT))
            .explode("word", empty_as_null=False)
            .drop_nulls()
            .group_by("word")
            .agg(n=pl.len().cast(pl.Int64))
            .to_arrow()
        )

    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n"))
    )
    vocab_rows = (
        counts.sort(["sum(n)", "word"], descending=[True, False])
        .limit(VOCAB_SIZE)
        .take_all()  # bounded: exactly VOCAB_SIZE rows
    )
    vocab_ref = ray.put([r["word"] for r in vocab_rows])

    def oov(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        df = pl.from_arrow(batch).with_columns(
            ws=pl.col("text").str.extract_all(tk.NONWS_PAT)
        )
        df = df.with_columns(
            n_tokens=pl.col("ws").list.len().cast(pl.Int64),
            n_oov=(
                pl.col("ws").list.len()
                - pl.col("ws")
                .list.eval(pl.element().is_in(vocab))
                .list.sum()
            ).cast(pl.Int64),
        )
        return df.select("doc_id", "n_tokens", "n_oov").to_arrow()

    out = ds.map_batches(oov, batch_format="pyarrow")
    return _sorted(_concat(out), "doc_id")


# --------------------------------------------------------------------------
# BM25 relevance scoring (the index-model "importance" analog)
# --------------------------------------------------------------------------

# Frozen query-term set (all present in the synthetic vocabulary) and the
# standard Robertson parameters. The reference scheduler consumes a per-task
# ``importance`` fed by an index model (general_crawler/scheduler.cc:218,
# task_data.h importance field; the model library itself is descoped) —
# BM25 is the canonical such index-model relevance score, computed here
# corpus-wide in two distributed passes.
BM25_TERMS = ("data", "join", "merge", "sort", "stream")
BM25_K1 = 1.2
BM25_B = 0.75


def q_bm25_scores(sf_dir: str) -> pa.Table:
    """Corpus-wide BM25 score of every document against the frozen
    BM25_TERMS query — two passes:

    pass 1 (bounded-key): per-block partials of (n_docs, Σdl, df_t per
    term) — O(|terms|) numbers per block — combined on the driver into
    N / avgdl / idf_t scalars (exact int64 sums; ONE double division for
    avgdl). pass 2: per-block vectorized tf counting (polars list
    count_matches over whitespace tokens) and the BM25 sum, terms
    accumulated in frozen order.

    Bit-exact SQL replay: every float expression is written with
    IDENTICAL literals, operand order and associativity in both engines
    ((K1 + 1.0) — NOT the constant 2.2, whose double differs from the
    sum); the only libm call is ln() (same glibc on both), and the final
    score is rounded to 6 dp (the cosine convention) as the last guard.
    Output (doc_id, dl, bm25) sorted by doc_id."""
    import numpy as np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            tk_=pl.col("text").str.split(" ")
        )
        counts = df.select(
            n=pl.len(),
            sdl=pl.col("tk_").list.len().sum(),
            **{
                f"df{i}": (pl.col("tk_").list.count_matches(t) > 0).sum()
                for i, t in enumerate(BM25_TERMS)
            },
        )
        return counts.to_arrow()

    stats = _concat(
        ds.map_batches(partial, batch_format="pyarrow")
    ).to_pandas()
    n_docs = int(stats["n"].sum())
    sum_dl = int(stats["sdl"].sum())
    dfs = [int(stats[f"df{i}"].sum()) for i in range(len(BM25_TERMS))]
    avgdl = float(sum_dl) / float(n_docs)
    idfs = [
        float(np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)) for df in dfs
    ]

    def score(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            tk_=pl.col("text").str.split(" ")
        )
        dl = df["tk_"].list.len().to_numpy().astype(np.int64)
        dlf = dl.astype(np.float64)
        # the document-length normalizer, frozen associativity:
        # K1 * (1.0 - B + B * (dl / avgdl))
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dlf / avgdl))
        total = np.zeros(len(dl), np.float64)
        for i, t in enumerate(BM25_TERMS):
            tf = df["tk_"].list.count_matches(t).to_numpy().astype(
                np.float64
            )
            # idf * (tf * (K1 + 1.0)) / (tf + norm), summed in term order
            total = total + idfs[i] * (tf * (BM25_K1 + 1.0)) / (tf + norm)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "dl": pa.array(dl, pa.int64()),
                "bm25": pa.array(np.round(total, 6), pa.float64()),
            }
        )

    return _sorted(
        _concat(ds.map_batches(score, batch_format="pyarrow")), "doc_id"
    )


# --------------------------------------------------------------------------
# frozen-weight quality classifier gate (model-scoring filter shape)
# --------------------------------------------------------------------------

# Frozen linear model over the q_quality_scores features — the
# "worthless-page classifier" (M13 analog) as an actual scoring stage:
# weights broadcast once, batched inference inside map_batches. The
# float form (-0.5 + (2/256)*n_tokens - 2*punct_ratio - 1.5*digit_ratio
# >= 0) is evaluated EXACTLY by multiplying the decision through by
# 256*n_chars (> 0): score = 2*n_tokens*n_chars - 128*n_chars
# - 512*n_punct - 384*n_digit, keep = score >= 0 — pure int64, no float
# anywhere, so engine/SQL agreement is by construction (a round-6 float
# logit hit the banker's-vs-half-away divergence on EXACT half-grid
# values; integers have no grid).
QL_W_TOK_NC = 2     # 2 * n_tokens * n_chars
QL_W_NC = -128      # -128 * n_chars            (the -0.5 bias * 256)
QL_W_PUNCT = -512   # -512 * n_punct            (-2 * punct_ratio * 256*nc)
QL_W_DIGIT = -384   # -384 * n_digit            (-1.5 * digit_ratio * 256*nc)


def q_quality_logit(sf_dir: str) -> pa.Table:
    """Model-scored quality gate in EXACT integer arithmetic: the frozen
    linear classifier's decision, scaled by 256*n_chars (see the weight
    block above) — the batched-model-inference shape (weights broadcast,
    per-batch vectorized dot) whose SQL replay is exact by construction.
    Output (doc_id, score, keep) sorted by doc_id; score is the scaled
    integer logit (sign-equivalent to the float model)."""
    import numpy as np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def infer(batch: pa.Table) -> pa.Table:
        lf = pl.from_arrow(batch).with_columns(
            n_chars=pl.col("text").str.len_chars().cast(pl.Int64),
            n_tokens=pl.col("text")
            .str.count_matches(tk.NONWS_PAT)
            .cast(pl.Int64),
            n_punct=pl.col("text")
            .str.count_matches(r"[!-/:-@\[-`{-~]")
            .cast(pl.Int64),
            n_digit=pl.col("text").str.count_matches(r"[0-9]").cast(pl.Int64),
        )
        nt = lf["n_tokens"].to_numpy().astype(np.int64)
        nc = lf["n_chars"].to_numpy().astype(np.int64)
        np_ = lf["n_punct"].to_numpy().astype(np.int64)
        nd = lf["n_digit"].to_numpy().astype(np.int64)
        score = (
            QL_W_TOK_NC * nt * nc
            + QL_W_NC * nc
            + QL_W_PUNCT * np_
            + QL_W_DIGIT * nd
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "score": pa.array(score, pa.int64()),
                "keep": pa.array(
                    (score >= 0).astype(np.int32), pa.int32()
                ),
            }
        )

    return _sorted(
        _concat(ds.map_batches(infer, batch_format="pyarrow")), "doc_id"
    )


# --------------------------------------------------------------------------
# BPE tokenizer training (fit) + segmentation (transform)
# --------------------------------------------------------------------------

# Sennrich, Haddow & Birch 2016 ("Neural Machine Translation of Rare
# Words with Subword Units"): train byte-pair-encoding merges on the
# corpus WORD-FREQUENCY table, not the raw text — the freq table is the
# sufficient statistic, so the distributed part is exactly the
# vocab_oov-style count shuffle and the merge loop runs over a bounded
# top-W table. All constants frozen; every tie-break deterministic.
BPE_TRAIN_WORDS = 4000  # top-W words by (count desc, word asc)
BPE_TRAIN_MERGES = 80  # merge-table size
BPE_EOW = "</w>"  # end-of-word sentinel symbol (never a corpus char)


def _bpe_train_from_freqs(
    words: list[str], counts: list[int], n_merges: int
) -> list[tuple[str, str, int]]:
    """The reference merge loop (single-process over the bounded freq
    table): repeatedly merge the most frequent adjacent symbol pair
    (ties -> lexicographically smallest (left, right)). Returns
    [(left, right, pair_count), ...] in merge order."""
    seqs = [tuple(w) + (BPE_EOW,) for w in words]
    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        pair_counts: dict[tuple[str, str], int] = {}
        for seq, c in zip(seqs, counts):
            for a, b in zip(seq, seq[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
        if not pair_counts:
            break
        (la, rb), n = min(
            pair_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        merges.append((la, rb, n))
        tok = la + rb
        out = []
        for seq in seqs:
            if la not in seq:
                out.append(seq)
                continue
            s = []
            i = 0
            while i < len(seq):
                if (
                    i + 1 < len(seq)
                    and seq[i] == la
                    and seq[i + 1] == rb
                ):
                    s.append(tok)
                    i += 2
                else:
                    s.append(seq[i])
                    i += 1
            out.append(tuple(s))
        seqs = out
    return merges


def _word_freq_topw(sf_dir: str, w: int) -> pa.Table:
    """Distributed word-frequency fit: per-block partial counts ->
    native groupby sum -> distributed (count desc, word asc) top-W.
    Only W rows reach the driver."""
    import ray

    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(batch)
            .select(word=pl.col("text").str.extract_all(tk.NONWS_PAT))
            .explode("word", empty_as_null=False)
            .drop_nulls()
            .group_by("word")
            .agg(n=pl.len().cast(pl.Int64))
            .to_arrow()
            .cast(pa.schema([("word", pa.string()), ("n", pa.int64())]))
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("word")
        .aggregate(ray.data.aggregate.Sum("n", alias_name="n"))
    )

    def negate(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "word": t["word"],
                "n": pc.cast(t["n"], pa.int64()),
                "neg_n": pc.negate(pc.cast(t["n"], pa.int64())),
            }
        )

    top = (
        counts.map_batches(negate, batch_format="pyarrow")
        .sort(["neg_n", "word"])
        .limit(w)
    )
    return _concat(top).select(["word", "n"])


def q_bpe_train(sf_dir: str) -> pa.Table:
    """Train a BPE merge table on the documents corpus: distributed
    word-frequency shuffle (the fit's only corpus-sized step), bounded
    top-W table to the driver, deterministic Sennrich merge loop.
    Output one row per merge: (rank, left, right, merged, pair_count).
    Not SQL-expressible (iterative argmax) — rows-only at the driver;
    pytest pins the table against an independent reference loop and the
    segmentation invariants."""
    freqs = _word_freq_topw(sf_dir, BPE_TRAIN_WORDS)
    merges = _bpe_train_from_freqs(
        freqs["word"].to_pylist(),
        freqs["n"].to_pylist(),
        BPE_TRAIN_MERGES,
    )
    return pa.table(
        {
            "rank": pa.array(range(len(merges)), pa.int64()),
            "left": pa.array([m[0] for m in merges], pa.string()),
            "right": pa.array([m[1] for m in merges], pa.string()),
            "merged": pa.array(
                [m[0] + m[1] for m in merges], pa.string()
            ),
            "pair_count": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


def bpe_encode(word: str, rank: dict[tuple[str, str], int]) -> list[str]:
    """Greedy lowest-rank-first BPE segmentation of one word (the
    standard apply rule: repeatedly merge the pair with the smallest
    merge rank until none applies)."""
    seq = list(word) + [BPE_EOW]
    while len(seq) > 1:
        best_i, best_r = -1, None
        for i in range(len(seq) - 1):
            r = rank.get((seq[i], seq[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_i, best_r = i, r
        if best_r is None:
            break
        seq[best_i : best_i + 2] = [seq[best_i] + seq[best_i + 1]]
    return seq


def q_bpe_segment(sf_dir: str) -> pa.Table:
    """Transform side of the BPE fit: broadcast the trained merge table
    (``ray.put`` once), segment every document, and report per-lang
    exact-integer subword statistics. Per block, each DISTINCT word is
    encoded once (the dominant cost is bounded by per-block vocabulary,
    not tokens) and token counts re-join the word multiplicities
    vectorized. Rows-only (the fit is not SQL-expressible); pytest pins
    invariants (merges only shorten: chars+1 >= subwords >= 1; totals
    reconcile with whitespace token counts)."""
    import ray

    merges = q_bpe_train(sf_dir)
    rank = {
        (l, r): i
        for i, (l, r) in enumerate(
            zip(merges["left"].to_pylist(), merges["right"].to_pylist())
        )
    }
    rank_ref = ray.put(rank)

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    def seg(batch: pa.Table) -> pa.Table:
        rk = ray.get(rank_ref)
        df = (
            pl.from_arrow(batch)
            .select(
                pl.col("lang"),
                word=pl.col("text").str.extract_all(tk.NONWS_PAT),
            )
            .explode("word", empty_as_null=False)
            .drop_nulls()
            .group_by(["lang", "word"])
            .agg(n=pl.len().cast(pl.Int64))
        )
        toks = [len(bpe_encode(w, rk)) for w in df["word"].to_list()]
        df = df.with_columns(subwords=pl.Series(toks, dtype=pl.Int64))
        out = df.group_by("lang").agg(
            n_words=pl.col("n").sum(),
            n_subwords=(pl.col("n") * pl.col("subwords")).sum(),
        )
        return out.to_arrow().cast(
            pa.schema(
                [
                    ("lang", pa.string()),
                    ("n_words", pa.int64()),
                    ("n_subwords", pa.int64()),
                ]
            )
        )

    agg = (
        ds.map_batches(seg, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            ray.data.aggregate.Sum("n_words", alias_name="n_words"),
            ray.data.aggregate.Sum("n_subwords", alias_name="n_subwords"),
        )
    )

    def conform(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "lang": t["lang"],
                "n_words": pc.cast(t["n_words"], pa.int64()),
                "n_subwords": pc.cast(t["n_subwords"], pa.int64()),
            }
        )

    return _sorted(
        _concat(agg.map_batches(conform, batch_format="pyarrow")), "lang"
    )
