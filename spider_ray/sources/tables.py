"""Table readers — thin wrappers over ``ray.data.read_parquet`` that always
prune columns at the read (SURVEY §2.1 S1; the reference reads positional TSV
fields it needs — we read only the Parquet columns a pipeline uses, so at
100 TB only the referenced columns leave storage)."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data


def table_path(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def read_table(
    sf_dir: str,
    name: str,
    columns: list[str] | None = None,
    **kwargs,
) -> ray.data.Dataset:
    """Columnar-pruned parquet read of one named table, read without its
    schema metadata: a pandas-written file keeps a ``b"pandas"`` dict
    there, which makes the blocks' ``pa.Schema`` unhashable, and Ray
    Data's block concat then logs "Failed to hash the schemas" on every
    read task."""
    path = table_path(sf_dir, name)
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema, **kwargs)


def read_small(sf_dir: str, name: str, columns: list[str] | None = None):
    """Driver-side read of a SMALL dimension table as a pyarrow.Table —
    used for the broadcast side of map-side joins (SURVEY §2.4 J1: the
    reference broadcasts dict sides to every reducer; we ``ray.put`` the
    table once and read it zero-copy in every map task)."""
    return pq.read_table(table_path(sf_dir, name), columns=columns)


def read_tsv(
    path: str,
    column_names: list[str],
    columns: list[str] | None = None,
    **kwargs,
):
    """Headerless TSV source — the reference's native exchange format
    (its MR stages read positional tab-separated fields; SURVEY §2.1
    S1). Names are assigned positionally via ``column_names``; column
    pruning happens immediately after parse (arrow's CSV reader needs
    every field to type the row, but only ``columns`` leave the read
    stage — one `select_columns` fused into the read pipeline)."""
    import pyarrow.csv as _pacsv

    from ray.data import read_csv as _read_csv

    ds = _read_csv(
        path,
        read_options=_pacsv.ReadOptions(column_names=column_names),
        parse_options=_pacsv.ParseOptions(
            delimiter="\t", quote_char=False
        ),
        **kwargs,
    )
    return ds.select_columns(columns) if columns else ds


def read_jsonl(path: str, columns: list[str] | None = None, **kwargs):
    """JSON-lines source (crawler exports / API dumps). Ray's native
    ``read_json`` handles .jsonl; pruning is a fused select."""
    from ray.data import read_json as _read_json

    ds = _read_json(path, **kwargs)
    return ds.select_columns(columns) if columns else ds


def write_tsv(ds, path: str) -> None:
    """Headerless TSV sink (one file per block under ``path/``) — the
    inverse exchange format, written via arrow's CSV writer with tab
    delimiter and no header."""
    import pyarrow.csv as _pacsv

    ds.write_csv(
        path,
        arrow_csv_args_fn=lambda: {
            "write_options": _pacsv.WriteOptions(
                include_header=False, delimiter="\t",
                # raw unquoted fields — the reference's positional-TSV
                # convention (its MR stages never quote); the reader
                # disables quote handling to match
                quoting_style="none",
            )
        },
    )
