"""Reads through ``sources.tables.read_table`` carry no parquet schema
metadata. The sf tables were written by pandas and keep a ``b"pandas"``
dict there, which makes their ``pa.Schema`` unhashable: Ray Data's block
concat then logged "Failed to hash the schemas" from every read task."""

import glob
import logging
import os

import ray

from spider_ray.pipelines.relational import q_union_dedup

MESSAGE = "Failed to hash the schemas"


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _log_sizes(log_dir: str) -> dict[str, int]:
    return {
        p: os.path.getsize(p)
        for p in glob.glob(os.path.join(log_dir, "*"))
        if os.path.isfile(p)
    }


def _lines_since(log_dir: str, sizes: dict[str, int]) -> list[str]:
    """The lines the session's log files gained since ``sizes``."""
    lines = []
    for path in _log_sizes(log_dir):
        with open(path, "rb") as f:
            f.seek(sizes.get(path, 0))
            lines += f.read().decode(errors="replace").splitlines()
    return lines


def test_union_dedup_logs_no_schema_hash_warning(ray_session, sf_mid):
    # the read tasks log to their worker's log file, the driver's own
    # concat to the driver's ray.data logger
    log_dir = ray._private.worker._global_node.get_logs_dir_path()
    sizes = _log_sizes(log_dir)
    log = logging.getLogger("ray.data")
    cap = _Capture()
    log.addHandler(cap)
    try:
        out = q_union_dedup(sf_mid)
    finally:
        log.removeHandler(cap)
    assert out.num_rows > 0
    hits = [ln for ln in _lines_since(log_dir, sizes) if MESSAGE in ln]
    assert hits + [m for m in cap.messages if MESSAGE in m] == []
