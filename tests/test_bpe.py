"""BPE tokenizer training/segmentation: distributed word-freq fit +
deterministic Sennrich merge loop vs an independent reference, and the
transform's exact-integer invariants."""

import re
from collections import Counter

import polars as pl
import pytest

from spider_ray.functions.text import (
    BPE_EOW,
    BPE_TRAIN_MERGES,
    _bpe_train_from_freqs,
    bpe_encode,
    q_bpe_segment,
    q_bpe_train,
)

SF = "/root/testdata/sf0.001"


def _reference_bpe(freqs: dict[str, int], k: int):
    """Independent merge loop: regex-based pair application over
    space-joined symbol strings (the Sennrich paper's form), Counter
    for pair stats — different code path from the engine's tuple walk."""
    vocab = {" ".join(list(w) + [BPE_EOW]): c for w, c in freqs.items()}
    merges = []
    for _ in range(k):
        pairs = Counter()
        for word, c in vocab.items():
            syms = word.split(" ")
            for a, b in zip(syms, syms[1:]):
                pairs[(a, b)] += c
        if not pairs:
            break
        (a, b), n = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((a, b, n))
        pat = re.compile(
            r"(?<!\S)" + re.escape(a + " " + b) + r"(?!\S)"
        )
        vocab = {
            pat.sub(a + b, word): c for word, c in vocab.items()
        }
    return merges


def test_bpe_train_matches_reference_loop():
    freqs = {
        "lower": 5, "low": 7, "newest": 6, "widest": 3,
        "newer": 9, "wider": 8, "new": 2, "west": 4,
    }
    ours = _bpe_train_from_freqs(
        list(freqs), list(freqs.values()), 25
    )
    ref = _reference_bpe(freqs, 25)
    assert ours == ref


def test_bpe_encode_consistent_with_training():
    """Encoding a training word with the learned ranks reproduces the
    word's final symbol sequence from the merge loop."""
    freqs = {"banana": 6, "bandana": 4, "ban": 9, "anna": 5}
    merges = _bpe_train_from_freqs(list(freqs), list(freqs.values()), 12)
    rank = {(a, b): i for i, (a, b, _) in enumerate(merges)}
    # replay the training merges over one word
    seq = tuple("banana") + (BPE_EOW,)
    for a, b, _ in merges:
        s, i = [], 0
        while i < len(seq):
            if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                s.append(a + b)
                i += 2
            else:
                s.append(seq[i])
                i += 1
        seq = tuple(s)
    assert tuple(bpe_encode("banana", rank)) == seq


def test_bpe_train_corpus_deterministic(ray_session):
    a = q_bpe_train(SF)
    b = q_bpe_train(SF)
    assert a.equals(b)
    assert a.num_rows == BPE_TRAIN_MERGES
    # pair counts are non-increasing is NOT guaranteed (merges create
    # new pairs), but every count is positive and ranks are dense
    assert min(a["pair_count"].to_pylist()) > 0
    assert a["rank"].to_pylist() == list(range(a.num_rows))


def test_bpe_segment_invariants(ray_session):
    """Per-lang totals reconcile with the whitespace token count, and
    compression is real: fewer subwords than chars+1 per word on
    average, at least one subword per word."""
    from spider_ray.functions.text import q_token_stats

    seg = pl.from_arrow(q_bpe_segment(SF))
    tok = pl.from_arrow(q_token_stats(SF))
    j = seg.join(tok, on="lang")
    assert (j["n_words"] == j["total_tokens"]).all()
    assert (seg["n_subwords"] >= seg["n_words"]).all()
    # merges actually fire: strictly fewer subwords than exploded chars
    # (chars+1 per word is the unmerged length)
    ds = pl.from_arrow(
        __import__("pyarrow.parquet", fromlist=["read_table"]).read_table(
            f"{SF}/documents.parquet", columns=["lang", "text"]
        )
    )
    import spider_ray.kernels.tokens as tk

    chars = (
        ds.select(
            lang=pl.col("lang"),
            w=pl.col("text").str.extract_all(tk.NONWS_PAT),
        )
        .explode("w", empty_as_null=True)
        .drop_nulls()
        .select(
            "lang", unmerged=pl.col("w").str.len_chars() + 1
        )
        .group_by("lang")
        .agg(unmerged=pl.col("unmerged").sum().cast(pl.Int64))
    )
    j2 = seg.join(chars, on="lang")
    assert (j2["n_subwords"] < j2["unmerged"]).all()


def test_audio_segments_golden(ray_session):
    """Segmentation golden: a hand-built clip with two bursts and a
    leading silence segments exactly; run-edge detection handles
    leading/trailing silence and the all-silent clip."""
    import numpy as np

    from spider_ray.functions.multimodal import segment_energy

    tone = (0.5 * np.sin(2 * np.pi * 300 * np.arange(160) / 8000.0)
            * 32767).astype("<i2")
    sil = np.zeros(80, "<i2")
    x = np.concatenate([sil, tone, sil, sil, tone])
    # frames of 80: [sil, tone, tone, sil, sil, tone, tone]
    assert segment_energy(x) == [(1, 3), (5, 7)]
    assert segment_energy(np.zeros(800, "<i2")) == []
    assert segment_energy(np.concatenate([tone, tone])) == [(0, 4)]
