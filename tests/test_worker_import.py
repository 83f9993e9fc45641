"""Workers must resolve spider_ray via pickle-by-value ALONE (the repo's
worker-serialization rule): a driver whose sys.path tweak workers don't
inherit (bare cwd, no PYTHONPATH — the `ray job submit` shape) must still
run the crawl. Runs in a SUBPROCESS because under pytest the workers can
import the repo anyway, masking inline-import regressions."""

import os
import subprocess
import sys
import textwrap


def test_crawl_from_bare_driver_no_pythonpath(tmp_path):
    script = tmp_path / "driver.py"
    out_dir = tmp_path / "out"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, "/root/repo")
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR")
        import __ray_entry__ as E  # registers pickle-by-value
        from spider_ray.pipelines.crawl import run_crawl
        corpus = E._demo_corpus()
        res = run_crawl(corpus, {str(out_dir)!r},
                        num_shards=2, fetch_concurrency=2, max_gens=2)
        assert res["total_fetched"] > 0
        print("WORKER_IMPORT_OK", res["total_fetched"])
        ray.shutdown()
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=300,
    )
    assert "WORKER_IMPORT_OK" in p.stdout, p.stdout + p.stderr


def test_parse_html_crawl_from_bare_driver(tmp_path):
    """Parse mode runs the HTML link extractor in the fetch actors, both
    when a fetch actor builds its index slice and on every fetched page.
    Neither may import it by name on the worker."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "driver.py"
    corpus, out_dir = tmp_path / "corpus", tmp_path / "out"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {repo!r})
        import ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR")
        from spider_ray.pipelines.crawl import run_crawl
        from spider_ray.sources.webgen import generate
        generate({str(corpus)!r}, n_pages=60, n_hosts=4, seed=3,
                 html_bodies=True)
        res = run_crawl({str(corpus)!r}, {str(out_dir)!r}, num_shards=2,
                        fetch_concurrency=1, max_gens=2, parse_html=True)
        assert res["total_fetched"] > 0
        print("PARSE_IMPORT_OK", res["total_fetched"])
        ray.shutdown()
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=300,
    )
    assert "PARSE_IMPORT_OK" in p.stdout, p.stdout[-3000:] + p.stderr[-3000:]


def test_neardup_queries_from_bare_driver(tmp_path):
    """Regression for the inline-import-in-worker-closure bug found in
    q_embedding_neardup (dedup.py): its per-batch closure imported
    spider_ray by NAME at call time, crashing every worker of a bare-cwd
    driver. Both near-dup variants must run from that driver shape."""
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent("""
        import sys
        sys.path.insert(0, "/root/repo")
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR")
        import __ray_entry__ as E  # registers pickle-by-value
        from spider_ray.functions.dedup import q_embedding_neardup
        from spider_ray.functions.similarity import q_embedding_neardup_lsh
        sf = "/root/testdata/sf0.001"
        a = q_embedding_neardup(sf)
        b = q_embedding_neardup_lsh(sf)
        assert a.num_rows > 0 and b.num_rows > 0
        print("NEARDUP_IMPORT_OK", a.num_rows, b.num_rows)
        ray.shutdown()
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=300,
    )
    assert "NEARDUP_IMPORT_OK" in p.stdout, p.stdout + p.stderr


def test_resize_stage_from_bare_driver(tmp_path):
    """Regression for the inline-import-in-actor bug found in
    ResizeToBucket.__init__ (imageresize.py): the codec import ran at
    actor construction ON THE WORKER, crashing every actor of a bare-cwd
    driver. The pixel stage is pipeline-only (no queries() entry), so the
    all-queries gate below cannot see it — exercise the full
    curate_and_shard(resize=True) chain from the bare driver shape."""
    script = tmp_path / "driver.py"
    out_dir = tmp_path / "shards"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, "/root/repo")
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR")
        import __ray_entry__ as E  # registers pickle-by-value
        from spider_ray.pipelines.imagecorpus import curate_and_shard
        res = curate_and_shard(
            E._images_store("/root/testdata/sf0.001"), {str(out_dir)!r},
            resize=True, layout="bucket")
        assert res["shards"] > 0 and res["kept"] > 0, res
        print("RESIZE_IMPORT_OK", res["shards"])
        ray.shutdown()
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=420,
    )
    assert "RESIZE_IMPORT_OK" in p.stdout, p.stdout[-3000:] + p.stderr[-3000:]


def test_all_queries_from_bare_driver(tmp_path):
    """Class-wide gate for the inline-import-on-worker bug: EVERY
    queries() entry must run from a bare-cwd, no-PYTHONPATH driver (the
    `ray job submit` shape). This shape caught two real worker crashes in
    round 3 (q_embedding_neardup's closure and tokens.doc_fingerprint)
    that the normal pytest environment masks — workers there can import
    the repo from cwd. Crawl trio excluded (covered by the dedicated
    crawl test above; their golden build is slow). ~105 s at sf0.001."""
    script = tmp_path / "driver.py"
    script.write_text(textwrap.dedent("""
        import sys
        sys.path.insert(0, "/root/repo")
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 log_to_driver=False, logging_level="ERROR")
        import importlib.util
        spec = importlib.util.spec_from_file_location(
            "e", "/root/repo/__ray_entry__.py")
        E = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(E)
        bad = []
        for name, fn in E.queries().items():
            if name.startswith("crawl_"):
                continue
            try:
                fn("/root/testdata/sf0.001")
            except Exception as exc:  # noqa: BLE001
                bad.append((name, repr(exc)[:200]))
        assert not bad, bad
        print("ALL_QUERIES_IMPORT_OK")
        ray.shutdown()
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=480,
    )
    assert "ALL_QUERIES_IMPORT_OK" in p.stdout, p.stdout[-3000:] + p.stderr[-3000:]
