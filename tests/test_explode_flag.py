"""Every polars ``explode`` passes ``empty_as_null``: polars deprecates the
default (it flips in polars 2.0). The two crawl-path callers run here with
DeprecationWarning as an error, on empty and null lists."""

import warnings

import pyarrow as pa

from spider_ray.kernels.tokens import detect_lang_batch
from spider_ray.pipelines.crawl import POS, _derive_block

OUTLINK = pa.struct([("url", pa.string()), ("depth", pa.int64())])
IMAGE = pa.struct([("image_id", pa.string()), ("alt", pa.string())])


def _fetched_block() -> pa.Table:
    """Three fetched rows as a fetch actor hands them to ``_derive_block``:
    one with links and an image, one with empty lists, one with nulls."""
    n = 3
    return pa.table({
        "url": pa.array([f"http://a.com/{i}" for i in range(n)]),
        "host": pa.array(["a.com"] * n),
        "fetch_ts": pa.array([0, 1, 2], pa.int64()),
        "gen": pa.array([0] * n, pa.int32()),
        "seq": pa.array([0, 1, 2], pa.int64()),
        "priority": pa.array([5] * n, pa.int16()),
        "depth": pa.array([1] * n, pa.int16()),
        "tried": pa.array([0] * n, pa.int16()),
        "referer": pa.array([""] * n),
        "status": pa.array([200, 200, 503], pa.int32()),
        "effective_url": pa.array([f"http://a.com/{i}" for i in range(n)]),
        "retry": pa.array([False, False, True]),
        "via_proxy": pa.array([""] * n),
        "outlinks": pa.array(
            [[{"url": "http://b.com/", "depth": 2}], [], None],
            pa.list_(OUTLINK),
        ),
        "images": pa.array(
            [[{"image_id": "img1", "alt": "x"}], [], None], pa.list_(IMAGE)
        ),
        POS: pa.array([0, 1, 2], pa.int64()),
    })


def test_derive_block_explodes_without_deprecation():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        status, images, retries, outlinks = _derive_block(None, _fetched_block())
    assert status.num_rows == 3
    assert images["image_id"].to_pylist() == ["img1"]
    assert images[POS].to_pylist() == [0]
    assert outlinks["url"].to_pylist() == ["http://b.com/"]
    assert outlinks["referer"].to_pylist() == ["http://a.com/0"]
    assert retries["url"].to_pylist() == ["http://a.com/2"]
    assert retries["tried"].to_pylist() == [1]


def test_detect_lang_batch_explodes_without_deprecation():
    texts = ["the cat and the dog", "", None, "der die das und"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        got = detect_lang_batch(pa.array(texts, pa.string()))
    # an empty or null text has no words: the null-w row counts 0
    assert got.to_pylist()[1:3] == [
        detect_lang_batch(pa.array([""]))[0].as_py(),
        detect_lang_batch(pa.array([None], pa.string()))[0].as_py(),
    ]
    assert len(got) == 4
