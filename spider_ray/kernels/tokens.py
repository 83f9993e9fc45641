"""Text kernels: tokenization, shingles, MinHash, SimHash, quality metrics,
language-ID heuristic, rolling-hash fingerprints.

Reference analogs: simhash near-dup signatures
(``dedup/html_simhash/html_simhash.h:40-65`` — tf-weighted term hashes →
64-bit signature), term extraction for anchors/queries
(``proto2/resource.proto:134-159``). Everything here is deterministic and
pure; the Ray pipelines in ``spider_ray/functions`` wrap these in
``map_batches`` stages.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

# module-level on purpose: these kernels run INSIDE worker closures, where
# only pickle-by-value module globals resolve — a function-level import
# would re-import spider_ray by NAME at call time and crash any worker
# whose driver cwd isn't the repo (the worker-serialization rule)
from spider_ray.kernels.hashing import hash64, mix64_int, polyhash64

# Frozen whitespace class: Python re's ``\s`` set enumerated EXPLICITLY
# (equal to ``str.isspace`` over all of Unicode; pinned by test). The
# three regex engines this repo spans disagree about ``\s`` — Python re
# includes 0x1C-0x1F, Rust regex (polars) is White_Space only, DuckDB RE2
# is ASCII-only — so every tokenizing site (scalar kernels, polars
# expressions, DuckDB oracle SQL) interpolates this one class instead.
# Class-body characters are raw codepoints, valid in all three syntaxes.
WS_CLASS = "\t-\r\x1c- \x85\xa0  -     　"
NONWS_PAT = f"[^{WS_CLASS}]+"

# BPE-ish word pattern: letter runs, digit runs, single punctuation marks.
TOKEN_PAT = f"[A-Za-z]+|[0-9]+|[^A-Za-z0-9{WS_CLASS}]"
TOKEN_RE = re.compile(TOKEN_PAT)
WS_RE = re.compile(NONWS_PAT)
_PUNCT_RE = re.compile(r"[!-/:-@\[-`{-~]")
_DIGIT_RE = re.compile(r"[0-9]")
_UPPER_RE = re.compile(r"[A-Z]")
_CJK_RE = re.compile(r"[一-鿿぀-ヿ]")

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def ws_tokens(text: str) -> list[str]:
    return WS_RE.findall(text or "")


def bpe_tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text or "")


def word_shingles(text: str, k: int = 3) -> list[str]:
    """Distinct k-word shingles, in first-occurrence order."""
    w = ws_tokens(text)
    if len(w) < k:
        return [" ".join(w)] if w else []
    seen: dict[str, None] = {}
    for i in range(len(w) - k + 1):
        seen.setdefault(" ".join(w[i : i + k]), None)
    return list(seen)


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    sh = word_shingles(text, k)
    if not sh:
        return np.empty(0, dtype=np.uint64)
    return hash64(sh)


# --- MinHash -----------------------------------------------------------------

MINHASH_PERMS = 128
_rng = np.random.RandomState(10416)
# multiply-shift universal-ish family over 2^64: h_i(x) = (a_i*x + b_i) mod 2^64
_MH_A = (_rng.randint(1, 2**62, size=MINHASH_PERMS).astype(np.uint64) << np.uint64(1)) | np.uint64(1)
_MH_B = _rng.randint(0, 2**62, size=MINHASH_PERMS).astype(np.uint64)


def minhash_signature(shingle_hs: np.ndarray) -> np.ndarray:
    """(MINHASH_PERMS,) uint64 signature; empty shingle set → all-max."""
    if shingle_hs.size == 0:
        return np.full(MINHASH_PERMS, _MASK64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        m = _MH_A[:, None] * shingle_hs[None, :] + _MH_B[:, None]
    return m.min(axis=1)


def minhash_signature_batch(
    flat: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """(n_docs, MINHASH_PERMS) uint64 — bit-identical to calling
    :func:`minhash_signature` per document (pinned by test), but one
    vectorized pass: the (tokens × perms) permutation matrix is built per
    ~64k-token slab and reduced per-document with ``np.minimum.reduceat``.
    ``flat`` is the concatenation of all docs' shingle hashes, ``offsets``
    the (n+1,) row boundaries; empty docs get the all-max signature."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = offsets.size - 1
    out = np.full((n, MINHASH_PERMS), _MASK64, dtype=np.uint64)
    if n == 0 or flat.size == 0:
        return out
    flat = np.asarray(flat, dtype=np.uint64)
    # slab the token axis so the (tokens, 128) uint64 intermediate stays
    # ~64 MB regardless of batch size; slabs split on document boundaries
    SLAB_TOKENS = 1 << 16
    doc_idx = np.arange(n)
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and offsets[hi + 1] - offsets[lo] <= SLAB_TOKENS:
            hi += 1
        seg = flat[offsets[lo]:offsets[hi]]
        if seg.size:
            with np.errstate(over="ignore"):
                m = _MH_A[None, :] * seg[:, None] + _MH_B[None, :]
            starts = offsets[lo:hi] - offsets[lo]
            ends = offsets[lo + 1:hi + 1] - offsets[lo]
            nonempty = ends > starts
            if nonempty.any():
                mins = np.minimum.reduceat(m, starts[nonempty], axis=0)
                out[doc_idx[lo:hi][nonempty]] = mins
        lo = hi
    return out


def lsh_band_keys_batch(sigs: np.ndarray, bands: int = 32) -> np.ndarray:
    """(n, bands) uint64 — bit-identical to per-row :func:`lsh_band_keys`
    (pinned by test); one vectorized pass over a (n, perms) signature
    matrix."""
    n, perms = sigs.shape
    r = perms // bands
    view = sigs[:, : bands * r].reshape(n, bands, r)
    with np.errstate(over="ignore"):
        k = view[:, :, 0].copy()
        for j in range(1, r):
            k = k * np.uint64(0x9E3779B97F4A7C15) + view[:, :, j]
        k = k * np.uint64(0x9E3779B97F4A7C15) + np.arange(
            bands, dtype=np.uint64
        )[None, :]
    return k


def lsh_band_keys(sig: np.ndarray, bands: int = 32) -> np.ndarray:
    """Hash each band of the signature → (bands,) uint64 bucket keys."""
    r = sig.size // bands
    view = sig[: bands * r].reshape(bands, r)
    with np.errstate(over="ignore"):
        # mix rows of each band into one key, then mix in the band index
        k = view[:, 0].copy()
        for j in range(1, r):
            k = k * np.uint64(0x9E3779B97F4A7C15) + view[:, j]
        k = k * np.uint64(0x9E3779B97F4A7C15) + np.arange(bands, dtype=np.uint64)
    return k


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two uint64 hash-set arrays."""
    if a.size == 0 and b.size == 0:
        return 0.0
    inter = np.intersect1d(a, b).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


# --- SimHash -----------------------------------------------------------------


def simhash(text: str) -> int:
    """64-bit tf-weighted SimHash over BPE-ish tokens (reference semantics:
    html_simhash.cc — term hashes vote per bit with term weight). Term
    hash is the SQL-expressible :func:`polyhash64`, so the whole signature
    — and the banded near-dup pairs built from it — replays exactly in the
    DuckDB oracle (``oracle_sql()['simhash_pairs']``)."""
    toks = bpe_tokens(text)
    if not toks:
        return 0
    hs = polyhash64(toks)  # one hash per occurrence → tf weighting for free
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    sig = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            sig |= np.uint64(1) << np.uint64(i)
    return int(sig)


def simhash_batch(texts: list[str]) -> np.ndarray:
    """Batched :func:`simhash` — bit-identical results (pinned by test),
    but ONE hash64 call over every token in the batch and vectorized bit
    voting via ``np.add.reduceat`` instead of per-document passes."""
    toks_all: list[str] = []
    offs = [0]
    for t in texts:
        toks_all.extend(bpe_tokens(t))
        offs.append(len(toks_all))
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if not toks_all:
        return out
    hs = polyhash64(toks_all)
    bits = (
        (hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
        & np.uint64(1)
    ).astype(np.int64)
    signed = 2 * bits - 1  # (tokens, 64)
    starts = np.asarray(offs[:-1])
    nonempty = np.asarray(offs[1:]) > starts
    if nonempty.any():
        votes = np.add.reduceat(signed, starts[nonempty], axis=0)
        sigs = (
            (votes > 0).astype(np.uint64)
            << np.arange(64, dtype=np.uint64)[None, :]
        ).sum(axis=1, dtype=np.uint64)
        out[nonempty] = sigs
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# SWAR popcount constants (Hacker's Delight fig. 5-2)
_P_M1 = np.uint64(0x5555555555555555)
_P_M2 = np.uint64(0x3333333333333333)
_P_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_P_H01 = np.uint64(0x0101010101010101)


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount over a uint64 array of ANY shape —
    constant memory (8 bytes/lane, vs the 64x blow-up of the unpackbits
    idiom). Shared by every Hamming-distance site (simhash/phash verify,
    image decontamination). Returns int64 of the same shape."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & _P_M1)
        x = (x & _P_M2) + ((x >> np.uint64(2)) & _P_M2)
        x = (x + (x >> np.uint64(4))) & _P_M4
        return ((x * _P_H01) >> np.uint64(56)).astype(np.int64)


def simhash_bands(sig: int, bands: int = 4) -> list[int]:
    """Split a 64-bit simhash into ``bands`` 16-bit keys (near-dup candidates
    share at least one band when hamming distance ≤ bands-1... pigeonhole)."""
    w = 64 // bands
    mask = (1 << w) - 1
    return [((sig >> (i * w)) & mask) | (i << w) for i in range(bands)]


def simhash_bands_batch(sigs: np.ndarray, bands: int = 4) -> np.ndarray:
    """(n, bands) uint64 — bit-identical to per-row :func:`simhash_bands`
    (pinned by test); one vectorized pass over a (n,) uint64 signature
    array."""
    sigs = np.asarray(sigs, dtype=np.uint64)
    w = np.uint64(64 // bands)
    mask = np.uint64((1 << int(w)) - 1)
    i = np.arange(bands, dtype=np.uint64)
    return ((sigs[:, None] >> (i * w)) & mask) | (i << w)


# --- quality / langid / fingerprints ----------------------------------------

_STOPWORDS = {
    "en": {"the", "of", "and", "to", "in", "is", "that", "for", "on", "with"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein"},
    "es": {"el", "la", "de", "que", "y", "en", "los", "del", "las", "por"},
    "fr": {"le", "la", "de", "et", "les", "des", "en", "un", "une", "du"},
}


def quality_metrics(text: str) -> dict:
    n_chars = len(text)
    toks = ws_tokens(text)
    n_tokens = len(toks)
    n_punct = len(_PUNCT_RE.findall(text))
    n_digit = len(_DIGIT_RE.findall(text))
    n_upper = len(_UPPER_RE.findall(text))
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "punct_ratio": n_punct / n_chars if n_chars else 0.0,
        "digit_ratio": n_digit / n_chars if n_chars else 0.0,
        "upper_ratio": n_upper / n_chars if n_chars else 0.0,
        "mean_token_len": (sum(len(t) for t in toks) / n_tokens) if n_tokens else 0.0,
    }


def detect_lang(text: str) -> str:
    """Deterministic n-gram/stopword heuristic language ID."""
    if not text:
        return "und"
    if len(_CJK_RE.findall(text)) / max(len(text), 1) > 0.05:
        return "zh"
    words = [w.lower() for w in ws_tokens(text)]
    if not words:
        return "und"
    best, best_score = "en", -1.0
    for lang, sw in _STOPWORDS.items():
        score = sum(1 for w in words if w in sw) / len(words)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0 else "und"


_CJK_PAT = r"[一-鿿぀-ヿ]"


def detect_lang_batch(texts) -> "pa.Array":
    """Vectorized :func:`detect_lang` over a column of texts — identical
    output by construction (same thresholds, same first-wins tie-break in
    ``_STOPWORDS`` order; scores are int/int divisions so engine and scalar
    agree in f64 exactly). Pinned equal to the scalar in
    tests/test_text_dedup_sim.py. One polars pass instead of a Python loop
    over every word of every doc."""
    import polars as pl
    import pyarrow as pa

    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        ser = pl.from_arrow(texts.cast(pa.large_string())).rename("t")
    else:
        ser = pl.Series("t", texts, dtype=pl.Utf8)
    df = pl.DataFrame({"t": ser}).with_row_index("i")
    # explode to one flat word column, then hash-set membership + one
    # groupby — list.eval(is_in) per row is ~20x slower than the scalar
    # loop; this shape is ~20x faster
    w = (
        df.select(
            "i",
            pl.col("t")
            .str.to_lowercase()
            .str.extract_all(NONWS_PAT)
            .alias("w"),
        )
        # empty/null list -> one null-w row: n counts 0
        .explode("w", empty_as_null=True)
        .group_by("i")
        .agg(
            [pl.col("w").is_not_null().sum().alias("n")]
            + [
                pl.col("w")
                .is_in(sorted(sw))
                .sum()
                .alias(f"s_{lang}")
                for lang, sw in _STOPWORDS.items()
            ]
        )
    )
    df = df.join(w, on="i", how="left").sort("i")
    n = pl.col("n")
    score = {
        lang: pl.col(f"s_{lang}").cast(pl.Float64) / n
        for lang in _STOPWORDS
    }
    langs = list(_STOPWORDS)
    best, bscore = pl.lit(langs[0]), score[langs[0]]
    for lang in langs[1:]:
        better = score[lang] > bscore
        best = pl.when(better).then(pl.lit(lang)).otherwise(best)
        bscore = pl.when(better).then(score[lang]).otherwise(bscore)
    cjk_ratio = (
        pl.col("t").str.count_matches(_CJK_PAT).cast(pl.Float64)
        / pl.col("t").str.len_chars().clip(lower_bound=1)
    )
    pred = (
        pl.when(pl.col("t").is_null() | (pl.col("t").str.len_chars() == 0))
        .then(pl.lit("und"))
        .when(cjk_ratio > 0.05)
        .then(pl.lit("zh"))
        .when(n == 0)
        .then(pl.lit("und"))
        .when(bscore > 0)
        .then(best)
        .otherwise(pl.lit("und"))
    )
    out = df.select(pred.alias("lang"))["lang"].to_arrow()
    return out.cast(pa.string())


# Rabin-Karp base for the rolling fingerprint hash: odd, so invertible
# mod 2^64 — the prefix-sum identity below needs B^-1.
_FP_B = 0x100000001B3
_FP_BINV = pow(_FP_B, -1, 1 << 64)


def doc_fingerprint(text: str, k: int = 8, window: int = 16) -> int:
    """Winnowing document fingerprint: rolling polynomial hash over k-byte
    windows, per-`window` minima (winnowing), XOR-combined. Deterministic;
    robust to small edits.

    Fully vectorized via the prefix-sum identity — with
    Q[i] = Σ_{j<i} d[j]·B⁻ʲ (mod 2⁶⁴), the k-byte window hash is
    h[i] = (Q[i+k] − Q[i])·B^{i+k−1} = Σ_t d[i+t]·B^{k−1−t} — three
    O(n) uint64 passes (two cumulative, one elementwise) plus a splitmix
    finalizer, instead of one zlib.crc32 call per byte offset."""
    data = np.frombuffer(
        (text or "").encode("utf-8", "replace"), dtype=np.uint8
    )
    if data.size < k:
        return zlib.crc32(data.tobytes())
    with np.errstate(over="ignore"):
        m = data.size
        binv_pow = np.full(m, np.uint64(_FP_BINV & (2**64 - 1)))
        binv_pow[0] = 1
        np.cumprod(binv_pow, out=binv_pow)  # B^-j, wraps mod 2^64
        q = np.cumsum(data.astype(np.uint64) * binv_pow)  # Q[j+1]
        b_pow = np.full(m - k + 1, np.uint64(_FP_B & (2**64 - 1)))
        b_pow[0] = np.uint64(pow(_FP_B, k - 1, 1 << 64))
        np.cumprod(b_pow, out=b_pow)  # B^(i+k-1)
        diff = q[k - 1 :].copy()
        diff[1:] -= q[: m - k]  # Q[i+k] - Q[i]
        hs = mix64_int(diff * b_pow)
        n = hs.size
        if n <= window:
            mins = hs.min(keepdims=True)
        else:
            # sliding min by binary doubling (sparse-table style): after the
            # loop a[i] = min(hs[i:i+s]); one overlapped combine finishes
            # any non-power-of-2 window. O(n log w), no (n, w) temporary.
            a, s = hs, 1
            while s * 2 <= window:
                a = np.minimum(a[:-s], a[s:])
                s *= 2
            if s < window:
                a = np.minimum(a[: -(window - s)], a[window - s :])
            mins = np.unique(a)
        # double mix: mix64_int's 32-bit multipliers avalanche weakly into
        # the high bits for small seed deltas; a second pass fixes that and
        # mins is tiny (≤ n/window entries)
        acc = np.bitwise_xor.reduce(mix64_int(mix64_int(mins, seed=n)))
    return int(acc)
