"""Lance I/O seam: the format dispatch is gated on the wheel, but the
table contract (input_hint schema, conform, pruned distributed read) must
hold on whichever branch this container exercises."""

import pyarrow as pa
import pytest

from spider_ray.sources import lance_io


def _sample() -> pa.Table:
    return pa.table(
        {
            "image_id": pa.array(["a", "b"], pa.string()),
            "bytes": pa.array([b"\x89PNG", b"QIMG"], pa.binary()),
            "w": pa.array([4, 8], pa.int64()),  # wrong width on purpose
            "h": pa.array([4, 8], pa.int64()),
            "fmt": pa.array(["png", "qimg"], pa.string()),
            "caption": pa.array(["one", "two"], pa.string()),
            "phash": pa.array([7, 9], pa.int64()),
            "extra": pa.array([1, 2], pa.int64()),  # dropped by conform
        }
    )


def test_conform_casts_and_drops():
    out = lance_io.conform_images(_sample())
    assert out.schema == lance_io.IMAGE_HINT_SCHEMA


def test_conform_rejects_missing_columns():
    with pytest.raises(ValueError, match="caption"):
        lance_io.conform_images(_sample().drop_columns(["caption"]))


def test_roundtrip_and_pruned_read(ray_session, tmp_path):
    base = str(tmp_path / "imgs")
    path = lance_io.write_images(_sample(), base)
    assert path == lance_io.images_path(base)
    assert path.endswith(".lance" if lance_io.HAVE_LANCE else ".parquet")
    full = lance_io.read_images(path).take_all()
    assert sorted(r["image_id"] for r in full) == ["a", "b"]
    # projection pushdown: phash-only scan never moves the bytes column
    pruned = lance_io.read_images(path, columns=["image_id", "phash"])
    tbl = pa.Table.from_pylist(pruned.take_all())
    assert set(tbl.column_names) == {"image_id", "phash"}
    assert sorted(tbl["phash"].to_pylist()) == [7, 9]


def test_tsv_roundtrip_and_pruned_read(ray_session, tmp_path):
    """Headerless TSV sink → positional-named read with column pruning
    (the reference's TSV exchange format)."""
    import ray as _ray

    from spider_ray.sources import tables as TT

    t = pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"], "c": [1.5, 2.5, 3.5]})
    out = str(tmp_path / "tsv")
    TT.write_tsv(_ray.data.from_arrow(t), out)
    back = (
        TT.read_tsv(out, column_names=["a", "b", "c"], columns=["a", "b"])
        .to_pandas()
        .sort_values("a")
        .reset_index(drop=True)
    )
    assert list(back.columns) == ["a", "b"]
    assert back["a"].tolist() == [1, 2, 3]
    assert back["b"].tolist() == ["x", "y", "z"]


def test_jsonl_read_pruned(ray_session, tmp_path):
    import json

    from spider_ray.sources import tables as TT

    d = tmp_path / "jl"
    d.mkdir()
    with open(d / "part.jsonl", "w") as f:
        for r in [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]:
            f.write(json.dumps(r) + "\n")
    out = (
        TT.read_jsonl(str(d), columns=["a"])
        .to_pandas()
        .sort_values("a")
        .reset_index(drop=True)
    )
    assert list(out.columns) == ["a"]
    assert out["a"].tolist() == [1, 2]


@pytest.mark.skipif(
    not lance_io.HAVE_LANCE,
    reason="lance wheel not installed (this container has no network; "
    "pip/apt are unavailable) — this test exercises the real Lance "
    "branch end to end on any environment that has the wheel",
)
def test_lance_branch_roundtrip(ray_session, tmp_path):
    """VERDICT r3 task #8: the .lance branch of the seam — write via
    lance.write_dataset, distributed read via ray.data.read_lance with
    column pruning, driver read + streaming batches — round-trips the
    input_hint store byte-exactly."""
    import pyarrow as pa

    tbl = pa.table(
        {
            "image_id": ["a", "b"],
            "bytes": [b"xx", b"yyy"],
            "w": pa.array([2, 3], pa.int32()),
            "h": pa.array([2, 3], pa.int32()),
            "fmt": ["png", "png"],
            "caption": ["one", "two"],
            "phash": pa.array([1, 2], pa.int64()),
        }
    )
    base = str(tmp_path / "store")
    path = lance_io.write_images(tbl, base)
    assert path.endswith(".lance")
    assert lance_io.resolve_images(base) == path
    back = lance_io.read_images_table(path)
    assert back.equals(lance_io.conform_images(tbl))
    pruned = lance_io.read_images(path, columns=["image_id", "phash"])
    assert set(pruned.schema().names) == {"image_id", "phash"}
    assert pruned.count() == 2
    batches = list(lance_io.iter_images_batches(path, batch_size=1))
    assert sum(b.num_rows for b in batches) == 2


def test_oracle_import_leaves_ray_data_unloaded():
    """Importing the oracle (which imports this module) must not pull
    ``ray.data`` in: only ``read_images`` reads through Ray Data."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys, spider_ray.pipelines.oracle; "
        "print('ray.data' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=repo), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
