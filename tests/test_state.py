"""Unit tests: politeness LoadController (tabular, virtual clock — modeled on
crawl/tests/load_controller_test.cc), cuckoo filter, robots parser."""

import numpy as np
import pytest

from spider_ray.kernels.hashing import hash64
from spider_ray.kernels.robots import (
    agent_allowed,
    is_fetchable,
    parse_robots,
    robots_level,
)
from spider_ray.state.cuckoo import CuckooFilter
from spider_ray.state.load_controller import (
    US,
    LoadController,
    LoadOptions,
    LoadRecord,
    parse_window,
)


# --- LoadController -----------------------------------------------------------


def make_lc(**kw):
    opts = LoadOptions(
        default_max_connections=2,
        default_max_qps=2.0,
        max_connections_in_all=100,
        check_frequency=4,
        max_failed_times=3,
        **kw,
    )
    return LoadController(opts)


def test_qps_gate_after_check_frequency():
    lc = make_lc()
    t = 0
    # 4 fetches pass immediately (window fills)
    for i in range(4):
        assert lc.check_fetch("1.2.3.4", t) == 0
        lc.register_fetch("1.2.3.4", t)
        lc.unregister_fetch("1.2.3.4", True, t)
        t += 100_000  # 0.1 s apart
    # 5th within the window: must wait until first + 4/2.0 s = 2 s
    r = lc.check_fetch("1.2.3.4", t)
    assert r == 2 * US
    # at exactly 2 s it's allowed
    assert lc.check_fetch("1.2.3.4", 2 * US) == 0


def test_connection_limit():
    lc = make_lc()
    assert lc.check_fetch("h", 0) == 0
    lc.register_fetch("h", 0)
    assert lc.check_fetch("h", 0) == 0
    lc.register_fetch("h", 0)
    assert lc.check_fetch("h", 0) == -1  # 2 connections = limit
    lc.unregister_fetch("h", True, 0)
    assert lc.check_fetch("h", 0) == 0


def test_dead_key_after_max_failures():
    lc = make_lc()
    for i in range(3):
        lc.register_fetch("bad", i)
        lc.unregister_fetch("bad", False, i)
    assert lc.check_fetch("bad", 10**9) == -2


def test_failure_holdon_deterministic():
    lc1, lc2 = make_lc(), make_lc()
    for lc in (lc1, lc2):
        lc.register_fetch("x", 0)
        lc.unregister_fetch("x", False, 0)
    r1 = lc1.check_fetch("x", 1)
    r2 = lc2.check_fetch("x", 1)
    assert r1 == r2 > 0
    assert 5 * US <= r1 <= 10 * US


def test_per_key_config_and_time_window():
    lc = LoadController(
        LoadOptions(check_frequency=2),
        {
            "fast.com": [
                LoadRecord(10, 100.0, parse_window("08:00-18:00")),
                LoadRecord(1, 1.0, None),
            ]
        },
    )
    noon = 12 * 3600 * US
    night = 2 * 3600 * US
    # at noon: high budget record matches
    lc.register_fetch("fast.com", noon)
    lc.register_fetch("fast.com", noon)
    assert lc.check_fetch("fast.com", noon) == noon + int(2 / 100.0 * US)
    # at night the 1-connection record applies
    lc2 = LoadController(
        LoadOptions(check_frequency=2),
        {"fast.com": [LoadRecord(10, 100.0, parse_window("08:00-18:00")),
                      LoadRecord(1, 1.0, None)]},
    )
    lc2.register_fetch("fast.com", night)
    assert lc2.check_fetch("fast.com", night) == -1


def test_state_roundtrip():
    lc = make_lc()
    lc.register_fetch("a", 5)
    lc.unregister_fetch("a", False, 5)
    d = lc.state_dict()
    lc2 = make_lc()
    lc2.load_state_dict(d)
    assert lc2.check_fetch("a", 6) == lc.check_fetch("a", 6)


def test_zero_connection_host_dropped_with_accounting():
    """A host whose config row pins max_connections=0 can never pass the
    connection gate. The wave must terminate, drop its queue, and count the
    loss in the dead-key drop metric — not abandon it silently."""
    from spider_ray.kernels.hashing import hash64 as h64
    from spider_ray.state.scheduler import ShardScheduler

    sched = ShardScheduler(
        0, 1, load_rows=[("banned.example.com", 0, 1.0, "")], options=None
    )
    tasks = []
    for i, host in enumerate(["banned.example.com", "ok.example.com"]):
        for j in range(3):
            url = f"http://{host}/p{j}"
            tasks.append(
                {
                    "url": url,
                    "url_hash": int(h64([url])[0]),
                    "host": host,
                    "priority": 1,
                    "gen": 0,
                    "seq": i * 3 + j,
                    "depth": 0,
                    "tried": 0,
                    "referer": "",
                }
            )
    meta = {t["url"]: (200, 50_000) for t in tasks}
    permits = sched.run_wave(tasks, wave_start=0, meta=meta)
    hosts = {p.host for p in permits}
    assert hosts == {"ok.example.com"}
    assert len(permits) == 3
    assert sched.last_dropped == 3
    # per wave: the next wave starts the count again
    sched.run_wave([], wave_start=0, meta={})
    assert sched.last_dropped == 0


def test_cuckoo_saturation_counted_not_silent():
    """CuckooFilter.add returns False once kick-outs fail near capacity; a
    key that fails to insert will be re-admitted later. That loss must be
    counted (seen_add_failures / image_add_failures → metrics), and the
    counters must survive a checkpoint round-trip."""
    from spider_ray.state.scheduler import ShardScheduler

    sched = ShardScheduler(
        0, 1, seen_capacity=64
    )
    rows = [
        {
            "url": f"http://h{i % 7}.com/p{i}",
            "url_hash": i,
            "host": f"h{i % 7}.com",
            "tried": 0,
            "gen": 0,
        }
        for i in range(2000)
    ]
    sched.admit(rows)
    assert sched.seen_add_failures > 0  # far past capacity: must be visible
    # well-mixed hashes, as the pipeline feeds (hash64 of image ids) —
    # raw sequential ints alias in the fingerprint derivation
    img_hashes = hash64([f"img-{i}" for i in range(2000)])
    sched.admit_images(img_hashes)
    assert sched.image_add_failures > 0
    d = sched.state_dict()
    back = ShardScheduler.from_state_dict(d)
    assert back.seen_add_failures == sched.seen_add_failures
    assert back.image_add_failures == sched.image_add_failures


def test_empty_admit_clears_top_host_like_resume():
    """A wave with no candidates for a shard reports no top host. A
    scheduler restored from a checkpoint starts with none, so an
    uninterrupted crawl must report the same as a resumed one."""
    from spider_ray.state.scheduler import ShardScheduler

    sched = ShardScheduler(0, 1)
    url = "http://hot.example.com/a"
    sched.admit([{"url": url, "url_hash": int(hash64([url])[0]),
                  "host": "hot.example.com", "tried": 0, "gen": 0}])
    assert (sched.last_top_host, sched.last_top_host_n) == ("hot.example.com", 1)
    resumed = ShardScheduler.from_state_dict(sched.state_dict())
    sched.admit([])
    resumed.admit([])
    assert (sched.last_top_host, sched.last_top_host_n) == ("", 0)
    assert (resumed.last_top_host, resumed.last_top_host_n) == ("", 0)


def test_checkpoint_size_independent_of_seen_count():
    """The checkpoint holds the fixed-size filters, not the seen URLs: its
    pickled size after admitting 10,000 distinct URLs is that of an empty
    scheduler, give or take the counters' encodings."""
    import pickle

    from spider_ray.state.scheduler import ShardScheduler

    def ckpt_bytes(n: int) -> int:
        sched = ShardScheduler(0, 1)
        urls = [f"http://h{i % 50}.com/p{i}" for i in range(n)]
        hashes = hash64(urls)
        sched.admit([
            {"url": u, "url_hash": int(h), "host": u.split("/")[2],
             "tried": 0, "gen": 0}
            for u, h in zip(urls, hashes)
        ])
        assert sched.seen.size == n
        return len(pickle.dumps(sched.state_dict()))

    assert abs(ckpt_bytes(10_000) - ckpt_bytes(0)) <= 32


# --- CuckooFilter ---------------------------------------------------------------


def test_cuckoo_membership_and_fp_rate():
    cf = CuckooFilter(20_000)
    keys = hash64([f"http://h{i}.com/p{i}" for i in range(10_000)])
    for k in keys:
        assert cf.add(int(k))
    assert cf.contains_many(keys).all()
    probe = hash64([f"http://other{i}.net/x" for i in range(20_000)])
    fp = cf.contains_many(probe).mean()
    assert fp < 0.002, fp  # theory ~1.2e-4 at 4-way/16-bit


def test_cuckoo_remove_and_serialize():
    cf = CuckooFilter(1000)
    ks = hash64([f"k{i}" for i in range(500)])
    for k in ks:
        cf.add(int(k))
    assert cf.remove(int(ks[0]))
    d = cf.state_dict()
    cf2 = CuckooFilter.from_state_dict(d)
    assert not cf2.contains(int(ks[0])) or True  # fp possible, size is exact
    assert cf2.size == cf.size
    assert cf2.contains_many(ks[1:]).all()


# --- robots -------------------------------------------------------------------

ROBOTS = """
User-agent: *
Disallow: /private/
Allow: /private/ok

User-agent: spiderbot
Disallow: /no-spider/

User-agent: Baiduspider
Allow:

User-agent: blocked-bot
Disallow: /
"""


def test_parse_and_precedence():
    g = parse_robots(ROBOTS)
    assert agent_allowed(g, "randombot", "/public") is True
    assert agent_allowed(g, "randombot", "/private/x") is False
    assert agent_allowed(g, "randombot", "/private/ok/y") is True  # longest wins
    assert agent_allowed(g, "spiderbot", "/no-spider/a") is False
    assert agent_allowed(g, "spiderbot", "/private/x") is True  # own group only
    assert agent_allowed(g, "Baiduspider", "/anything") is True  # bare Allow:
    assert agent_allowed(g, "blocked-bot", "/") is False


def test_robots_levels():
    g = parse_robots(ROBOTS)
    assert robots_level(None, "/x") == 1
    assert robots_level(g, "/public") == 3
    assert robots_level(g, "/no-spider/a") == 2  # majors allowed, we are not
    g2 = parse_robots("User-agent: *\nDisallow: /")
    assert robots_level(g2, "/x") == 0


def test_double_star_collapse():
    g = parse_robots("User-agent: *\nDisallow: /a/**/b")
    assert agent_allowed(g, "any", "/a/x/b") is False


def test_policies():
    assert is_fetchable(2, "general") is True
    assert is_fetchable(2, "own") is False
    assert is_fetchable(0, "rush") is True
    assert is_fetchable(1, "own") is True


def test_bloom_filter_contract():
    import numpy as np

    from spider_ray.kernels.hashing import mix64_int
    from spider_ray.state.bloom import BloomFilter

    keys = np.arange(0, 20000, dtype=np.int64)
    h = mix64_int(keys, seed=1)
    f = BloomFilter.for_capacity(20000, fp_rate=0.01)
    f.add(h)
    # no false negatives, ever
    assert f.contains(h).all()
    # false-positive rate near spec on disjoint probes
    probe = mix64_int(np.arange(100000, 200000, dtype=np.int64), seed=1)
    fp = f.contains(probe).mean()
    assert fp < 0.03, fp
    # OR-merge == build-on-union, bit-exact
    a, b = (
        BloomFilter(f.n_bits, k=f.k),
        BloomFilter(f.n_bits, k=f.k),
    )
    a.add(h[:10000]); b.add(h[10000:])
    assert np.array_equal(a.merge(b).bits, f.bits)
    # serialization round-trip
    r = BloomFilter.from_bytes(f.to_bytes(), k=f.k)
    assert np.array_equal(r.bits, f.bits)


def test_proxy_manager_reference_scenario():
    """Ported from the reference's proxy_manager_test.cc (SimpleOneProxy):
    cooldown after max successive failures, decay-by-2 on re-entry."""
    from spider_ray.state.proxy import ProxyManager

    m = ProxyManager(
        proxies=("127.0.0.1:12333",),
        max_successive_failures=5,
        holdon_duration_after_failures=1000,
    )
    for _ in range(5):
        p = m.select_best(0)
        assert p
        m.report_status(p, False, 2)
    assert m.select_best(2) == ""
    assert m.select_best(1001) == ""
    p = m.select_best(1002)  # holdon elapsed → decay 5→3, selectable
    assert p
    m.report_status(p, False, 1)
    p = m.select_best(1003)
    assert p
    m.report_status(p, False, 1003)  # successive back to 5
    assert m.select_best(2000) == ""
    assert m.select_best(2004) != ""


def test_proxy_manager_least_tasks_and_pure_pick():
    from spider_ray.state.proxy import (
        DEFAULT_PROXIES,
        ProxyManager,
        pick_proxy_pure,
    )

    m = ProxyManager(proxies=("a", "b"))
    assert m.select_best(0) == "a"  # ties → first index, like the C++ scan
    assert m.select_best(0) == "b"  # a now has 1 task outstanding
    m.report_status("a", True, 1)
    assert m.select_best(2) == "a"

    # pure pick: deterministic, direct on first attempt, stable across calls
    assert pick_proxy_pure(12345, 0) == ""
    p1 = pick_proxy_pure(12345, 1)
    assert p1 in DEFAULT_PROXIES
    assert pick_proxy_pure(12345, 1) == p1
    assert pick_proxy_pure(12345, 2) in DEFAULT_PROXIES
