"""Per-layer spans for the traced benchmark run.

Spans wrap the public layer functions at their import sites, so they ride
along wherever the engine ships its code: ``spider_ray`` modules are pickled
by value, so a wrapped module global travels into the shard and fetch
actors and the Ray Data tasks. ``Span`` is a class defined here (pickled by
reference), which keeps every process recording into its own ``_RECORDER``.
Functions that the engine imports lazily, by name, inside a worker
(``kernels.domtext.extract_links``) are wrapped by :func:`install_worker`,
the Ray ``worker_process_setup_hook``.

A span measures thread CPU time, so self times of concurrent actors on one
core add up to at most the wall time. Each process keeps per-layer totals
in memory and rewrites one small JSON file after every outermost span:
the crawl ``ray.kill``s its actors at the end of a run, so an ``atexit``
flush would never run. Recording is on only while the flag file ``ON``
exists in the trace directory, so one run can time untraced and traced
ops against the same installed wrappers.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import time
import types

ENV_DIR = "PERFBENCH_TRACE_DIR"


def _count_admit_images(args, out) -> tuple[int, int]:
    """(image refs offered, first-seen refs kept) of one admit_images call."""
    return len(args[1]), int(out.sum())


# (module, attribute path, layer name, item counter) — the import sites
# the crawl and frontier code call through
DRIVER_PATCHES = [
    ("spider_ray.pipelines.crawl", "normalize_batch", "normalize", None),
    ("spider_ray.pipelines.crawl", "fetch_one", "fetchsim.fetch_one", None),
    ("spider_ray.pipelines.crawl", "process_image",
     "fetchsim.process_image", None),
    ("spider_ray.pipelines.crawl", "load_corpus_shard",
     "crawl.actor_init", None),
    ("spider_ray.pipelines.crawl", "shard_meta", "crawl.actor_init", None),
    ("spider_ray.pipelines.crawl", "RollingWriter.write",
     "crawl.sink_write", None),
    ("spider_ray.state.scheduler", "ShardScheduler.admit",
     "scheduler.admit", None),
    ("spider_ray.state.scheduler", "ShardScheduler.run_wave",
     "scheduler.run_wave", None),
    ("spider_ray.state.scheduler", "ShardScheduler.admit_images",
     "scheduler.admit_images", _count_admit_images),
    ("spider_ray.state.scheduler", "ShardScheduler.state_dict",
     "crawl.checkpoint", None),
    ("spider_ray.stages.normalize", "canonicalize_parts",
     "urlnorm.canonicalize_parts", None),
    ("spider_ray.pipelines.frontier_bench", "canonicalize_parts",
     "urlnorm.canonicalize_parts", None),
    ("spider_ray.kernels.domtext", "extract_links",
     "domtext.extract_links", None),
]

# imported by name inside workers (stages/fetchsim.py, pipelines/oracle.py)
WORKER_PATCHES = [p for p in DRIVER_PATCHES if p[0] == "spider_ray.kernels.domtext"]


class _Recorder:
    def __init__(self, trace_dir: str):
        self.flag = os.path.join(trace_dir, "ON")
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
        # layer -> [calls, self CPU seconds, items in, items out]
        self.totals: dict[str, list] = {}
        # CPU seconds spent in child spans, one entry per open span
        self.stack: list[float] = []

    def flush(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.totals, f)
        os.replace(tmp, self.path)


_RECORDER: _Recorder | None = None


def _recorder() -> _Recorder | None:
    global _RECORDER
    if _RECORDER is None and os.environ.get(ENV_DIR):
        _RECORDER = _Recorder(os.environ[ENV_DIR])
    return _RECORDER


class Span:
    """Callable stand-in for one layer function (or method)."""

    def __init__(self, name: str, fn, count=None):
        self.name = name
        self.fn = fn
        self.count = count
        self.__wrapped__ = fn

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)

    def __call__(self, *args, **kwargs):
        rec = _recorder()
        if rec is None or not os.path.exists(rec.flag):
            return self.fn(*args, **kwargs)
        rec.stack.append(0.0)
        t0 = time.thread_time()
        try:
            out = self.fn(*args, **kwargs)
        finally:
            dt = time.thread_time() - t0
            child = rec.stack.pop()
            tot = rec.totals.setdefault(self.name, [0, 0.0, 0, 0])
            tot[0] += 1
            tot[1] += dt - child
            if rec.stack:
                rec.stack[-1] += dt
        if self.count is not None:
            n_in, n_out = self.count(args, out)
            tot[2] += n_in
            tot[3] += n_out
        if not rec.stack:
            rec.flush()
        return out


def _patch(patches) -> None:
    for mod_name, attr, name, count in patches:
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if not isinstance(fn, Span):
            setattr(owner, leaf, Span(name, fn, count))


def install_driver(trace_dir: str) -> None:
    """Wrap every layer in this process. Call before any actor class or
    Ray Data closure is shipped, with ``trace_dir`` also in the workers'
    environment (``runtime_env`` ``env_vars``)."""
    os.environ[ENV_DIR] = trace_dir
    _patch(DRIVER_PATCHES)


def install_worker() -> None:
    """``worker_process_setup_hook``: wrap the lazily imported layers."""
    if os.environ.get(ENV_DIR):
        _patch(WORKER_PATCHES)


def set_recording(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, "ON")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


def collect(trace_dir: str) -> dict[str, list]:
    """Sum the per-process totals: layer -> [calls, self_s, in, out]."""
    out: dict[str, list] = {}
    for path in glob.glob(os.path.join(trace_dir, "spans-*.json")):
        with open(path) as f:
            for name, tot in json.load(f).items():
                acc = out.setdefault(name, [0, 0.0, 0, 0])
                for i, v in enumerate(tot):
                    acc[i] += v
    return out
