"""A driver that crawls twice and calls ``ray.shutdown()`` must leave no
process behind once it exits, and its workers must log no polars
deprecation notice. Runs in a SUBPROCESS with its own Ray temp dir: every
process of that Ray session (raylet, GCS, workers, actors) carries the
temp dir on its command line, so ``/proc/*/cmdline`` finds any survivor."""

import glob
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _procs_with(marker: str) -> list[int]:
    pids = []
    for path in glob.glob("/proc/[0-9]*/cmdline"):
        try:
            with open(path, "rb") as f:
                if marker.encode() in f.read():
                    pids.append(int(path.split("/")[2]))
        except OSError:  # the process exited while we looked
            pass
    return pids


@pytest.fixture(scope="module")
def crawled():
    # short: Ray's unix socket paths live under the temp dir
    tmp = tempfile.mkdtemp(prefix="sr_exit_", dir="/tmp")
    ray_dir = os.path.join(tmp, "ray")
    script = os.path.join(tmp, "driver.py")
    with open(script, "w") as f:
        f.write(textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {REPO!r})
            import ray
            ray.init(address="local", num_cpus=2, include_dashboard=False,
                     _temp_dir={ray_dir!r}, log_to_driver=False,
                     logging_level="ERROR")
            from spider_ray.pipelines.crawl import run_crawl
            from spider_ray.sources.webgen import generate
            corpus = {os.path.join(tmp, "corpus")!r}
            generate(corpus, n_pages=60, n_hosts=4, seed=3)
            for i in range(2):
                res = run_crawl(corpus, {tmp!r} + f"/out{{i}}", num_shards=2,
                                fetch_concurrency=1, max_gens=3)
                assert res["total_fetched"] > 0
            ray.shutdown()
            print("EXIT_CLEAN_OK")
        """))
    # workers inherit the driver's environment: show, not drop, their
    # DeprecationWarnings, so a deprecated call logs a line
    env = {**os.environ, "PYTHONWARNINGS": "default::DeprecationWarning"}
    p = subprocess.run(
        [sys.executable, script], capture_output=True, text=True,
        cwd=tmp, env=env, timeout=300,
    )
    yield tmp, ray_dir, p
    for pid in _procs_with(ray_dir):  # never leak a failed run's processes
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    shutil.rmtree(tmp, ignore_errors=True)


def test_no_process_outlives_driver(crawled):
    tmp, ray_dir, p = crawled
    assert "EXIT_CLEAN_OK" in p.stdout, p.stdout + p.stderr
    deadline = time.monotonic() + 5.0
    left = _procs_with(ray_dir)
    while left and time.monotonic() < deadline:
        time.sleep(0.2)
        left = _procs_with(ray_dir)
    assert left == [], [
        open(f"/proc/{pid}/cmdline", "rb").read()[:200] for pid in left
        if os.path.exists(f"/proc/{pid}/cmdline")
    ]


def test_worker_logs_have_no_explode_deprecation(crawled):
    tmp, ray_dir, p = crawled
    assert "EXIT_CLEAN_OK" in p.stdout, p.stdout + p.stderr
    logs = glob.glob(os.path.join(ray_dir, "session_*", "logs", "*"))
    assert any(os.path.basename(f).startswith("worker-") for f in logs)
    hits = []
    for path in logs:
        if os.path.isfile(path):
            with open(path, errors="replace") as f:
                hits += [ln for ln in f if "empty_as_null" in ln]
    assert hits == []
