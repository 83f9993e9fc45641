"""log_analysis ports (round 5 breadth): search-referrer classification
rollup and PV-session segmentation + adjacent-session merge.

Reference shapes:

* ``log_analysis/common/search_query.cc:22-231`` — a referrer URL is
  classified against an ORDERED search-engine codebook: a rule matches
  when the host starts with ``host_prefix`` (or ends with
  ``host_postfix`` — exactly one of the two is set) AND the path EQUALS
  the rule path; then the URL's query parameters are scanned IN URL
  ORDER and the first parameter whose lower-cased key equals a matched
  rule's ``query_key`` wins (param order outranks codebook order,
  search_query.cc:156-172); the value is url-decoded and an EMPTY
  decoded query kills the whole URL — no fallthrough to later params
  (:174-199). We port a frozen 9-rule subset of ``kGeneralSearchBook``
  covering both prefix and postfix rules and multi-key hosts
  (baidu wd/word).
* ``log_analysis/session/algorithm/pvlog_segmenter.cc:129-205`` — PV
  logs are segmented per agent by time gap, then ADJACENT sessions are
  merged when enough of the previous session's records re-occur (by
  url sign) in the next one. We port the reducer's set-overlap pass
  exactly (``merge_sessions``'s second check, :193-204: related =
  #rows of the PREVIOUS segment whose url sign appears in the current
  segment, merge iff ``len(prev) >= kConfidenceNum = 3`` and
  ``related/len(prev) >= 0.4`` — integer cross-multiplied here so the
  threshold is exact), with one deliberate re-expression: merge flags
  are scored on the ORIGINAL adjacent segments and applied by
  prefix-sum relabelling (associative, shuffle-friendly), where the
  reference mutates ``last_session_start`` as it walks — on chained
  merges the reference re-scores against the merged prefix. The
  relabelling form is the one that distributes; the pairwise scores
  are bit-identical.

Both ops read ``events`` and synthesize their log columns
deterministically from ``event_id`` so a DuckDB oracle can rebuild the
input AND replay the full semantics generically (rule table as VALUES +
ordered-param unnest; window cumsum segmentation + semi-join overlap).
"""

from __future__ import annotations

import re
from urllib.parse import unquote

import polars as pl
import pyarrow as pa
import ray

# (host_prefix, host_postfix, path, query_key, engine) — frozen ordered
# subset of kGeneralSearchBook (search_query.cc:33-60)
RULES: list[tuple[str | None, str | None, str, str, str]] = [
    ("www.google.", None, "/search", "q", "google"),
    ("www.google.", None, "/", "q", "google"),
    ("www.baidu.", None, "/s", "wd", "baidu"),
    ("www.baidu.", None, "/s", "word", "baidu"),
    ("www.sogou.", None, "/web", "query", "sogou"),
    ("cn.bing.com", None, "/search", "q", "bing"),
    ("www.soso.com", None, "/q", "w", "soso"),
    (None, "search.yahoo.com", "/search", "p", "yahoo"),
    ("www.youdao.com", None, "/search", "q", "youdao"),
]

GAP_US = 1800 * 1_000_000  # session gap: 30 min
CONFIDENCE = 3  # kConfidenceNum (pvlog_segmenter.cc:179)
SIM_NUM, SIM_DEN = 4, 10  # kRefLongSimThr = 0.4, exact integer form

_URL_RE = re.compile(r"^http://([^/]+)([^?]*)(?:\?(.*))?$")


def classify_search_ref(url: str) -> tuple[str, str] | None:
    """(engine, decoded query) per the codebook, or None — the exact
    reference walk: match rules on (host, path), then scan params in
    URL order; the first key hit wins and an empty decoded value kills
    the URL outright."""
    m = _URL_RE.match(url)
    if not m:
        return None
    host, path, qs = m.group(1), m.group(2), m.group(3) or ""
    found = [
        r
        for r in RULES
        if (
            r[0] is not None
            and host.startswith(r[0])
            and path == r[2]
        )
        or (r[1] is not None and host.endswith(r[1]) and path == r[2])
    ]
    if not found:
        return None
    for pair in qs.split("&"):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        lk = k.lower()
        for r in found:
            if lk == r[3]:
                q = unquote(v)
                return (r[4], q) if q else None
    return None


def _synth_ref_url(eid: int) -> str:
    """Deterministic referrer per event — 11 shapes covering prefix and
    postfix rules, multi-key param-order scan, the empty-first-value
    kill, an upper-cased key, and two non-matches."""
    q = f"q{eid % 13}"
    qs = f"w%20{eid % 13}"
    mode = eid % 11
    return [
        f"http://www.google.com/search?q={q}",
        f"http://www.baidu.com/s?wd={q}",
        f"http://www.baidu.com/s?foo=1&word={q}",
        f"http://www.baidu.com/s?wd=&word={q}",  # dropped: empty first hit
        f"http://www.sogou.com/web?query={qs}",
        f"http://search.yahoo.com/search?p={q}",
        f"http://m.search.yahoo.com/search?p={q}",
        f"http://cn.bing.com/search?Q={q}",  # key lower-cased
        f"http://www.google.com/imgs?q={q}",  # path miss
        f"http://www.example.com/page?q={q}",  # host miss
        f"http://www.youdao.com/search?x=1&q={q}",
    ][mode]


SEARCH_REF_SCHEMA = pa.schema(
    [
        ("engine", pa.string()),
        ("query", pa.string()),
        ("n_pv", pa.int64()),
        ("n_users", pa.int64()),
    ]
)


def q_search_ref_classify(sf_dir: str) -> pa.Table:
    """Referrer classification rollup: classify every PV's synthetic
    referrer, then count PVs + distinct users per (engine, query).
    SQL-oracled bit-exact (rule table as VALUES, ordered-param
    unnest)."""
    from spider_ray.pipelines.relational import _concat, _sorted
    from spider_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id"])

    def classify(batch: pa.Table) -> pa.Table:
        eng, qq, uid = [], [], []
        for e, u in zip(
            batch["event_id"].to_pylist(), batch["user_id"].to_pylist()
        ):
            hit = classify_search_ref(_synth_ref_url(e))
            if hit is None:
                continue
            eng.append(hit[0])
            qq.append(hit[1])
            uid.append(u)
        return pa.table(
            {
                "engine": pa.array(eng, pa.string()),
                "query": pa.array(qq, pa.string()),
                "user_id": pa.array(uid, pa.int64()),
            }
        )

    def partial(batch: pa.Table) -> pa.Table:
        # per-block combine: (engine, query, user) partial PV counts —
        # output is O(distinct groups × block users), the shuffle moves
        # combined rows, never raw PVs
        df = pl.from_arrow(batch)
        out = df.group_by(["engine", "query", "user_id"]).agg(
            pv=pl.len().cast(pl.Int64)
        )
        return out.to_arrow()

    def final_group(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group)
        return (
            df.group_by(["engine", "query"])
            .agg(
                n_pv=pl.col("pv").sum().cast(pl.Int64),
                n_users=pl.col("user_id").n_unique().cast(pl.Int64),
            )
            .to_arrow()
            .cast(SEARCH_REF_SCHEMA)
        )

    out = (
        ds.map_batches(classify, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("engine")
        .map_groups(final_group, batch_format="pyarrow")
    )
    return _sorted(
        _concat(out, schema=SEARCH_REF_SCHEMA), ["engine", "query"]
    )


# Ordered vertical-site codebook (query_click.cc:73-146): first category
# with ANY pattern occurring ANYWHERE in the url wins — substring
# containment, not host/path structure (frozen subset; the reference's
# duplicated Software/Game blocks are dead repeats and not ported)
VERTICALS: list[tuple[str, tuple[str, ...]]] = [
    ("Video", ("iqiyi.com", "youku.com", "tudou.com")),
    ("Book", ("qidian.com", "hongxiu.com")),
    ("Software", ("skycn.com", "newhua.com")),
    ("Game", ("4399.com", "17173.com", "games.qq.com")),
    ("QA", ("zhidao.baidu.com", "wenwen.soso.com")),
]


def classify_vertical(url: str) -> str | None:
    """is_vertical_site: ordered category walk, substring containment."""
    for site, pats in VERTICALS:
        if any(p in url for p in pats):
            return site
    return None


def _synth_click_url(eid: int) -> str:
    """Deterministic clicked URL per PV event — one shape per vertical
    category, a non-vertical miss, and a cross-category overlap (Video
    pattern + QA pattern in one url → Video, first category wins)."""
    n = eid % 19
    mode = eid % 7
    return [
        f"http://www.iqiyi.com/v_{n}.html",
        f"http://book.qidian.com/info/{n}",
        f"http://www.skycn.com/soft/{n}.html",
        f"http://news.4399.com/g/{n}",
        f"http://zhidao.baidu.com/question/{n}",
        f"http://www.sina.com.cn/news/{n}",  # no category → dropped
        f"http://v.youku.com/list?from=zhidao.baidu.com&id={n}",
    ][mode]


QUERY_CLICK_SCHEMA = pa.schema(
    [
        ("query", pa.string()),
        ("site", pa.string()),
        ("n_clicks", pa.int64()),
    ]
)


def q_query_click(sf_dir: str) -> pa.Table:
    """query→vertical-site click rollup (``userlog/stat/query_click.cc``):
    two sources union — PV rows (even event_id) keep clicks on vertical
    sites whose referrer parses as a search query, keyed (query, site);
    search-log rows (odd event_id) contribute (query, '') directly — and
    the reduce counts DISTINCT users per key (the reference's dedup-set
    reducer, :225-238). SQL-oracled bit-exact."""
    from spider_ray.pipelines.relational import _concat, _sorted
    from spider_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id"])

    def classify(batch: pa.Table) -> pa.Table:
        qq, ss, uu = [], [], []
        for e, u in zip(
            batch["event_id"].to_pylist(), batch["user_id"].to_pylist()
        ):
            if e % 2 == 1:  # search log: query field taken directly
                qq.append(f"q{e % 13}")
                ss.append("")
                uu.append(u)
                continue
            site = classify_vertical(_synth_click_url(e))
            if site is None:
                continue
            hit = classify_search_ref(_synth_ref_url(e))
            if hit is None:
                continue
            qq.append(hit[1])
            ss.append(site)
            uu.append(u)
        return pa.table(
            {
                "query": pa.array(qq, pa.string()),
                "site": pa.array(ss, pa.string()),
                "user_id": pa.array(uu, pa.int64()),
            }
        )

    def partial(batch: pa.Table) -> pa.Table:
        # per-block distinct (query, site, user) — the shuffle moves
        # combined triples, not raw PVs
        return (
            pl.from_arrow(batch)
            .unique(subset=["query", "site", "user_id"])
            .to_arrow()
        )

    def final_group(group: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(group)
            .group_by(["query", "site"])
            .agg(n_clicks=pl.col("user_id").n_unique().cast(pl.Int64))
            .to_arrow()
            .cast(QUERY_CLICK_SCHEMA)
        )

    out = (
        ds.map_batches(classify, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("query")
        .map_groups(final_group, batch_format="pyarrow")
    )
    return _sorted(
        _concat(out, schema=QUERY_CLICK_SCHEMA), ["query", "site"]
    )


SESSION_SCHEMA = pa.schema(
    [
        ("user_id", pa.int64()),
        ("session_id", pa.int64()),
        ("n_pv", pa.int64()),
        ("n_segs", pa.int64()),
        ("n_urls", pa.int64()),
        ("t_start_us", pa.int64()),
        ("t_end_us", pa.int64()),
    ]
)


def _merge_sessions_user(df: pl.DataFrame) -> pl.DataFrame:
    """Per-user reducer: gap-segment, score adjacent-segment overlap,
    relabel by prefix sum. Input: one user's (user_id, ts_us, event_id,
    url_id) rows; vectorized polars throughout."""
    df = df.sort(["ts_us", "event_id"]).with_columns(
        seg=(
            (pl.col("ts_us") - pl.col("ts_us").shift(1)).fill_null(0)
            > GAP_US
        )
        .cum_sum()
        .cast(pl.Int64)
        + 1
    )
    # related(s) = rows of segment s-1 whose url_id occurs in segment s
    sigs = df.select(["seg", "url_id"]).unique()
    related = (
        df.select((pl.col("seg") + 1).alias("seg"), "url_id")
        .join(sigs, on=["seg", "url_id"], how="semi")
        .group_by("seg")
        .len(name="related")
    )
    seg_len = df.group_by("seg").len(name="plen")
    flags = (
        seg_len.with_columns(seg=pl.col("seg") + 1)
        .join(related, on="seg", how="left")
        .with_columns(related=pl.col("related").fill_null(0))
        .with_columns(
            flag=(
                (pl.col("plen") >= CONFIDENCE)
                & (
                    pl.col("related") * SIM_DEN
                    >= pl.col("plen") * SIM_NUM
                )
            ).cast(pl.Int64)
        )
        .select(["seg", "flag"])
    )
    df = (
        df.join(flags, on="seg", how="left")
        .with_columns(flag=pl.col("flag").fill_null(0))
        .sort(["ts_us", "event_id"])
    )
    # session = seg - cumulative merged boundaries ≤ seg (one flag per
    # segment; take it once per segment then broadcast back)
    seg_flags = (
        df.select(["seg", "flag"]).unique().sort("seg")
        .with_columns(merged=pl.col("flag").cum_sum())
    )
    df = df.join(
        seg_flags.select(["seg", "merged"]), on="seg", how="left"
    ).with_columns(session_id=pl.col("seg") - pl.col("merged"))
    return (
        df.group_by(["user_id", "session_id"])
        .agg(
            n_pv=pl.len().cast(pl.Int64),
            n_segs=pl.col("seg").n_unique().cast(pl.Int64),
            n_urls=pl.col("url_id").n_unique().cast(pl.Int64),
            t_start_us=pl.col("ts_us").min(),
            t_end_us=pl.col("ts_us").max(),
        )
        .sort(["user_id", "session_id"])
    )


def q_session_merge(sf_dir: str) -> pa.Table:
    """PV sessionization + adjacent-session merge per user (url sign =
    ``event_id % 23`` so overlap is real). Hash-partitioned by user;
    each partition reduces vectorized; O(sessions) output."""
    from spider_ray.pipelines.relational import _concat, _sorted
    from spider_ray.sources.tables import read_table

    ds = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            ts_us=pl.col("ts").dt.epoch("us"),
            url_id=(pl.col("event_id") % 23).cast(pl.Int64),
            part=(pl.col("user_id") % 32).cast(pl.Int32),
        )
        return df.select(
            ["user_id", "event_id", "ts_us", "url_id", "part"]
        ).to_arrow()

    def final_group(group: pa.Table) -> pa.Table:
        df = pl.from_arrow(group)
        out = df.group_by("user_id", maintain_order=False).map_groups(
            _merge_sessions_user
        )
        return out.to_arrow().cast(SESSION_SCHEMA)

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("part")
        .map_groups(final_group, batch_format="pyarrow")
    )
    return _sorted(
        _concat(out, schema=SESSION_SCHEMA), ["user_id", "session_id"]
    )


# ---------------------------------------------------------------------
# pv_plus: userlog PV wire-format normalizer (userlog/pv_log/pv_plus.cc,
# the largest log_analysis file — ported whole).
#
# Wire format: one PV line carries two kv-list columns
# ``id|value;id|value;...`` (pv_plus.cc:22-29). Values are base64 except
# the md5 (id 0, raw hex). The mapper (:191-322) parses + validates both
# lists — a pair without exactly one '|', an over-long value, a non-int
# key or a DUPLICATE key abandons the whole record — then disambiguates
# current/referrer across THREE generations of the log format
# (GetUrlAndRef, :92-187):
#   * legacy (ref col non-empty, url col lacks id4 AND id100): url is
#     url_kv[101], ref is ref_kv[101];
#   * normal, ref col empty: url = url_kv[4], ref = url_kv[101];
#   * normal, ref col non-empty: url = url_kv[4]; ref = ref_kv[4] xor
#     ref_kv[101] (both present is a reference CHECK-crash → drop here);
# decodes the 4-byte little-endian start time (id 1, :64-78) to
# %Y%m%d%H%M%S (UTC here; the reference's ConvertTimeFromSecToFormat tz
# is unspecified), the 2-byte LE attr (id 6, default '1', :80-90), and
# emits pvlog rows [mid, ts, url, ref, attr, enter_type='255',
# duration='0'] (:407-414, both constants per :312-324) plus md5→url
# map rows. The reducer's md5 sink dedups (md5, url_b64) keeping the
# MAX formatted time and re-emits epoch seconds (:425-478).
# Base64ToClickUrl's click-normalization layer is the separately-ported
# M1 kernel (kernels/urlnorm); the synthetic urls here are click-form
# fixed points so the composition stays oracle-checkable.
# ---------------------------------------------------------------------

PV_SCHEMA = pa.schema(
    [
        ("mid", pa.string()),
        ("ts_fmt", pa.string()),
        ("url", pa.string()),
        ("ref_url", pa.string()),
        ("attr", pa.string()),
        ("enter_type", pa.string()),
        ("duration", pa.string()),
    ]
)

MD5_SCHEMA = pa.schema(
    [
        ("md5", pa.string()),
        ("url_b64", pa.string()),
        ("t_sec", pa.int64()),
    ]
)


def parse_kv_list(s: str) -> dict[int, str] | None:
    """Mapper kv-list parse with the reference's abandon-on-any-fault
    discipline (pv_plus.cc:198-259): None = abnormal record."""
    if not s:
        return {}
    kv: dict[int, str] = {}
    for part in s.split(";"):
        sub = part.split("|")
        if len(sub) != 2:
            return None
        if len(sub[1]) > 1000:
            return None
        try:
            k = int(sub[0])
        except ValueError:
            return None
        if k in kv:
            return None
        kv[k] = sub[1]
    return kv


def get_url_and_ref(
    kv_url: dict[int, str], kv_ref: dict[int, str]
) -> tuple[str, str, str] | None:
    """(md5, url_b64, ref_b64) per the three-generation disambiguation
    (GetUrlAndRef, pv_plus.cc:92-187); reference CHECK-crashes map to
    drops."""
    if 101 not in kv_url and 4 not in kv_url:
        return None
    if kv_ref and 4 not in kv_url and 100 not in kv_url:
        ref = kv_ref.get(101)
        if ref is None:
            return None
        return kv_url.get(0, ""), kv_url[101], ref
    if not kv_ref:
        url = kv_url.get(4)
        if url is None:
            return None
        return kv_url.get(0, ""), url, kv_url.get(101, "")
    url = kv_url.get(4)
    if url is None:
        return None
    has4, has101 = 4 in kv_ref, 101 in kv_ref
    if has4 and not has101:
        ref = kv_ref[4]
    elif has101 and not has4:
        ref = kv_ref[101]
    elif not has4 and not has101:
        ref = ""
    else:
        return None
    return kv_url.get(0, ""), url, ref


def _pv_parse_row(
    mid: str, url_info: str, ref_info: str
) -> tuple[tuple, tuple | None] | None:
    """Full mapper body for one record → (pvlog_row, md5_row|None), or
    None if any gate drops the record."""
    import base64
    import struct
    from datetime import datetime, timezone

    kv_url = parse_kv_list(url_info)
    if kv_url is None:
        return None
    kv_ref = parse_kv_list(ref_info)
    if kv_ref is None:
        return None
    t_b64 = kv_url.get(1)
    if t_b64 is None:
        return None
    try:
        tb = base64.b64decode(t_b64, validate=True)
    except Exception:
        return None
    if len(tb) != 4:
        return None
    t_sec = struct.unpack("<i", tb)[0]
    ts_fmt = datetime.fromtimestamp(t_sec, tz=timezone.utc).strftime(
        "%Y%m%d%H%M%S"
    )
    attr = "1"
    a_b64 = kv_url.get(6)
    if a_b64 is not None:
        try:
            ab = base64.b64decode(a_b64, validate=True)
            if len(ab) == 2:
                attr = str(struct.unpack("<h", ab)[0])
        except Exception:
            pass
    got = get_url_and_ref(kv_url, kv_ref)
    if got is None:
        return None
    md5, url_b64, ref_b64 = got
    if not url_b64:
        return None
    try:
        url = base64.b64decode(url_b64, validate=True).decode("utf-8")
    except Exception:
        return None
    if not url:
        return None
    ref_url = ""
    if ref_b64:
        try:
            ref_url = base64.b64decode(ref_b64, validate=True).decode(
                "utf-8"
            )
        except Exception:
            ref_url = ""
    pv = (mid, ts_fmt, url, ref_url, attr, "255", "0")
    md5_row = (md5, url_b64, ts_fmt) if md5 else None
    return pv, md5_row


def _synth_pv_wire(eid: int, uid: int, ts_sec: int):
    """Deterministic wire-format record per event — nine shapes: the
    three live format generations, the neither-ref shape, and one mode
    per abandon gate (missing url ids, malformed pair, duplicate key,
    non-integer key)."""
    import base64
    import struct

    mid = f"mid{uid % 50}"
    un = eid % 31
    rn = (eid * 7 + 3) % 31
    url = f"http://site{un % 7}.example.com/p/{un}"
    ref = f"http://site{rn % 7}.example.com/p/{rn}"
    U = base64.b64encode(url.encode()).decode()
    R = base64.b64encode(ref.encode()).decode()
    T = base64.b64encode(struct.pack("<i", ts_sec)).decode()
    A = base64.b64encode(struct.pack("<h", (eid % 7) + 1)).decode()
    TI = base64.b64encode(f"Title {un}".encode()).decode()
    MD5 = f"h{un}"
    mode = eid % 9
    return mid, [
        (f"0|{MD5};1|{T};4|{U};6|{A};7|{TI};101|{R}", ""),
        (f"1|{T};4|{U}", ""),
        (f"0|{MD5};1|{T};4|{U}", f"0|{MD5};4|{R}"),
        (f"0|{MD5};1|{T};101|{U}", f"101|{R}"),
        (f"1|{T};4|{U}", f"0|{MD5}"),
        (f"0|{MD5};1|{T};6|{A}", ""),
        (f"1|{T};4|{U};badpair", ""),
        (f"1|{T};4|{U};4|{U}", ""),
        (f"1|{T};x|{U};4|{U}", ""),
    ][mode]


def _pv_rows(sf_dir: str):
    """Shared mapper dataset: one streamed pass synthesizes the wire
    records and runs the full parse; emits pvlog columns + md5 columns
    (md5 empty-string when absent)."""
    from spider_ray.sources.tables import read_table

    ds = read_table(
        sf_dir, "events", columns=["event_id", "user_id", "ts"]
    )

    def mapper(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).with_columns(
            ts_sec=(pl.col("ts").dt.epoch("us") // 1_000_000).cast(
                pl.Int64
            )
        )
        rows, md5s = [], []
        for e, u, t in zip(
            df["event_id"], df["user_id"], df["ts_sec"]
        ):
            mid, (ui, ri) = _synth_pv_wire(e, u, t)
            got = _pv_parse_row(mid, ui, ri)
            if got is None:
                continue
            pv, md5_row = got
            rows.append(pv)
            md5s.append(md5_row if md5_row else ("", "", ""))
        names = [f.name for f in PV_SCHEMA]
        cols = {
            n: pa.array([r[i] for r in rows], pa.string())
            for i, n in enumerate(names)
        }
        cols["md5"] = pa.array([m[0] for m in md5s], pa.string())
        cols["url_b64"] = pa.array([m[1] for m in md5s], pa.string())
        return pa.table(cols)

    return ds.map_batches(mapper, batch_format="pyarrow")


def q_pv_normalize(sf_dir: str) -> pa.Table:
    """pv_plus pvlog sink: the normalized PV rows."""
    from spider_ray.pipelines.relational import _concat, _sorted

    ds = _pv_rows(sf_dir)

    def project(t: pa.Table) -> pa.Table:
        return t.select([f.name for f in PV_SCHEMA]).cast(PV_SCHEMA)

    return _sorted(
        _concat(
            ds.map_batches(project, batch_format="pyarrow"),
            schema=PV_SCHEMA,
        ),
        ["mid", "ts_fmt", "url", "ref_url"],
    )


def q_pv_md5_map(sf_dir: str) -> pa.Table:
    """pv_plus md5 sink: per-(md5, url_b64) keep-MAX-formatted-time,
    re-emitted as epoch seconds (the reducer's dedup map,
    pv_plus.cc:433-478)."""
    from datetime import datetime, timezone

    from spider_ray.pipelines.relational import _concat, _sorted

    ds = _pv_rows(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).filter(pl.col("md5") != "")
        return (
            df.group_by(["md5", "url_b64"])
            .agg(ts_fmt=pl.col("ts_fmt").max())
            .to_arrow()
        )

    def final_group(group: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(group)
            .group_by(["md5", "url_b64"])
            .agg(ts_fmt=pl.col("ts_fmt").max())
        )
        secs = [
            int(
                datetime.strptime(s, "%Y%m%d%H%M%S")
                .replace(tzinfo=timezone.utc)
                .timestamp()
            )
            for s in df["ts_fmt"]
        ]
        return pa.table(
            {
                "md5": df["md5"].to_arrow(),
                "url_b64": df["url_b64"].to_arrow(),
                "t_sec": pa.array(secs, pa.int64()),
            }
        ).cast(MD5_SCHEMA)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("md5")
        .map_groups(final_group, batch_format="pyarrow")
    )
    return _sorted(_concat(out, schema=MD5_SCHEMA), ["md5", "url_b64"])


# ---------------------------------------------------------------------
# Search-result target-URL extraction rollout (kernels/targeturl.py —
# baidu cipher crack + google redirect parse) over a deterministic mix
# of link shapes. One row per event: (src_url, engine, target_url, ok).
# ---------------------------------------------------------------------

TARGET_SCHEMA = pa.schema(
    [
        ("src_url", pa.string()),
        ("engine", pa.string()),
        ("target_url", pa.string()),
        ("ok", pa.int64()),
    ]
)

# module-level import (NOT function-local): the map_batches closures
# run on workers that may not have this repo on sys.path — they rely on
# the whole module being pickle-by-value registered, which only covers
# names resolved through module globals, never runtime imports
from spider_ray.kernels.targeturl import (  # noqa: E402
    _METHOD1,
    _METHOD2,
    _parse_hex,
    parse_baidu_target_url,
    parse_google_target_url,
)


def _synth_result_link(eid: int) -> tuple[str, str]:
    """(engine, url) per event — method1/method2 ciphers (built by the
    symmetric XOR, space variant exercising the %xx re-escape), a
    passthrough, a broken cipher, and the two google param shapes."""
    t = f"http://t{eid % 11}.example.org/p{eid % 17}"
    t_sp = f"http://t{eid % 11}.example.org/a b/p{eid % 17}"

    def encrypt(target: str, method) -> str:
        key, _, key_idx, magic_pos, magic = method
        hx = "0123456789abcdef"
        enc = []
        for i, ch in enumerate(target):
            num = ord(ch)
            enc.append(hx[(num >> 4) ^ _parse_hex(key[2 * i])])
            enc.append(hx[(num & 15) ^ _parse_hex(key[2 * i + 1])])
        filler = "ab" * ((magic_pos - 30) // 2)
        return (
            "http://www.baidu.com/link?url="
            + filler
            + magic
            + "".join(enc)
        )

    mode = eid % 7
    if mode == 0:
        return "baidu", encrypt(t, _METHOD1)
    if mode == 1:
        return "baidu", encrypt(t_sp, _METHOD1)
    if mode == 2:
        return "baidu", encrypt(t, _METHOD2)
    if mode == 3:
        return "baidu", t  # passthrough: not a /link?url= wrapper
    if mode == 4:
        return "baidu", encrypt(t, _METHOD1) + "0"  # odd payload → fail
    if mode == 5:
        enc = t.replace(":", "%3A").replace("/", "%2F")
        return "google", (
            "http://www.google.com.hk/url?sa=t&rct=j&url=" + enc
        )
    return "google", f"http://www.google.com/url?q={t}&sa=U"


def q_target_url_extract(sf_dir: str) -> pa.Table:
    """Crack every synthetic result link; emit the target (or '' with
    ok=0). SQL-oracled bit-exact — the oracle rebuilds the ciphers AND
    replays the nibble-XOR decode + google param walk generically."""
    from spider_ray.pipelines.relational import _concat, _sorted
    from spider_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", columns=["event_id"])

    def crack(batch: pa.Table) -> pa.Table:
        srcs, engines, targets, oks = [], [], [], []
        for e in batch["event_id"].to_pylist():
            engine, url = _synth_result_link(e)
            got = (
                parse_baidu_target_url(url)
                if engine == "baidu"
                else parse_google_target_url(url)
            )
            srcs.append(url)
            engines.append(engine)
            targets.append(got if got is not None else "")
            oks.append(1 if got is not None else 0)
        return pa.table(
            {
                "src_url": pa.array(srcs, pa.string()),
                "engine": pa.array(engines, pa.string()),
                "target_url": pa.array(targets, pa.string()),
                "ok": pa.array(oks, pa.int64()),
            }
        )

    def dedup(batch: pa.Table) -> pa.Table:
        # src_url is a pure function of eid%7 × eid%11 × eid%17 — the
        # distinct set is tiny (≤ 1309); block partial + final distinct
        return (
            pl.from_arrow(batch).unique().to_arrow().cast(TARGET_SCHEMA)
        )

    out = (
        ds.map_batches(crack, batch_format="pyarrow")
        .map_batches(dedup, batch_format="pyarrow")
        .groupby("src_url")
        .map_groups(
            lambda g: pl.from_arrow(g).unique().to_arrow().cast(
                TARGET_SCHEMA
            ),
            batch_format="pyarrow",
        )
    )
    return _sorted(_concat(out, schema=TARGET_SCHEMA), ["src_url"])


# ---------------------------------------------------------------------
# Site-internal vertical-search query extraction
# (``log_analysis/common/site_query.cc:28-206``): an ORDERED regex book
# over vertical sites' own search-result URLs — first matching rule
# wins, ``group_id`` picks the query capture, Sohu/Yxdown route through
# the %uXXXX wide-char decoder (``DecodeSohuQuery``, :99-160), everyone
# else through the double-url-encode heuristic (``DecodeQuery``,
# :73-97: decode once; if '%' still makes up > 20% of the result —
# integer-truncated threshold — decode again). An empty
# normalized query STOPS the walk (returns failure, :189-195); a decode
# failure CONTINUES to the next rule (:196-198). Frozen 8-rule subset
# of kVerticalSiteBook; regexes verbatim (RE2-compatible, so the DuckDB
# oracle runs the SAME patterns). NormalizeLine is ported as
# whitespace collapse (the nlp normalizer's observable effect on these
# query strings).
# ---------------------------------------------------------------------

SITE_RULES: list[tuple[str, int, str]] = [
    (r"so\.iqiyi\.com/so/q(_|=|/)([^\?&_]+)", 1, "Qiyi"),
    (
        r"www\.soku\.com/search_video/(type_tag_)?q(_|=)"
        r"([^\?&_]+)(&searchdomain=.*)?",
        2,
        "Youku",
    ),
    (r"so\.tv\.sohu\.com/mts\?(.*)(cat|area|wd)=([^\?&_]+)", 2, "Sohu"),
    (
        r"sosu\.qidian\.com/searchresult\.aspx\?(.*)searchkey=([^\?&]+)",
        1,
        "Qidian",
    ),
    (r"search\.360buy\.com/(.*)\?(.*)keyword=([^\?&]+)", 2, "360buy"),
    (r"www\.xiazaiba\.com/word/([^\?/&]+)", 0, "Xiazaiba"),
    (r"so\.yxdown\.com/s_([^_]+)_soft\.html", 0, "Yxdown"),
    (r"ks\.pcgames\.com\.cn/\?q=([^\?&]+)", 0, "Pcgames"),
]

_SITE_RULES_COMPILED = [
    (re.compile(p), gid, site) for p, gid, site in SITE_RULES
]


def decode_query(v: str) -> str:
    """DecodeQuery (site_query.cc:73-97): best-effort %-decode; if '%'
    still exceeds 20% (integer-truncated) of the result, assume double
    encoding and decode again. (HTMLToUTF8 is identity on the utf-8
    corpus this engine feeds it.)"""
    d = unquote(v)
    if d.count("%") > int(len(d) * 0.2):
        d = unquote(d)
    return d


def _code_point(hex_digits: str) -> str | None:
    """The character a hex chunk names, or None unless it parses as hex
    and is a Unicode scalar value (0..0x10FFFF, not a surrogate)."""
    try:
        code = int(hex_digits, 16)
    except ValueError:
        return None
    if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        return None
    return chr(code)


def decode_sohu_query(v: str) -> str | None:
    """DecodeSohuQuery (site_query.cc:99-160): '%'-chunked walk where
    ``uXXXX`` chunks are 4-hex-digit CODE POINTS, ``25uXXXX`` the
    double-encoded form, and plain chunks a 2-hex-digit code point
    (wchar_t semantics — NOT a byte) followed by literal tail; a
    leading non-'%' chunk passes through literally; malformed hex, or a
    code point that is negative, past 0x10FFFF or a surrogate, fails the
    whole decode."""
    chars = [c.strip() for c in v.split("%")]
    chars = [c for c in chars if c != ""]
    if not chars:
        return None
    first_cn = v.startswith("%")
    out: list[str] = []
    for i, buf in enumerate(chars):
        if i == 0 and not first_cn:
            out.append(buf)
            continue
        if len(buf) < 2:
            continue
        # uXXXX, 25uXXXX (double-encoded) or a plain XX chunk
        start = 1 if buf[0] == "u" else 3 if buf[:3] == "25u" else 0
        end = start + (4 if start else 2)
        ch = _code_point(buf[start:end]) if len(buf) >= end else None
        if ch is None:
            return None
        out.append(ch + buf[end:])
    return "".join(out)


def is_site_internal_search(url: str) -> tuple[str, str] | None:
    """(site, normalized query) or None — the exact reference walk:
    ordered book, decode-failure continues, empty-query stops."""
    for pat, gid, site in _SITE_RULES_COMPILED:
        m = pat.search(url)
        if not m:
            continue
        value = m.groups()[gid] or ""
        if site in ("Sohu", "Yxdown"):
            decoded = decode_sohu_query(value)
        else:
            decoded = decode_query(value)
        if decoded is None:
            continue
        q = " ".join(decoded.split())
        if not q:
            return None
        return site, q
    return None


SITE_SEARCH_SCHEMA = pa.schema(
    [
        ("src_url", pa.string()),
        ("site", pa.string()),
        ("query", pa.string()),
        ("ok", pa.int64()),
    ]
)


def _synth_site_search_url(eid: int) -> str:
    """Deterministic vertical-search URL per event — one shape per
    ported rule family, both decoders (incl. the %uXXXX wide-char and
    double-url-encode branches), and a non-match."""
    n = eid % 13
    mode = eid % 8
    return [
        f"http://so.iqiyi.com/so/q_w{n}",
        f"http://www.soku.com/search_video/type_tag_q_w{n}",
        f"http://sosu.qidian.com/searchresult.aspx?x=1&searchkey=w{n}",
        # double-url-encoded: %2541%2542 → %41%42 → AB (heuristic fires)
        f"http://search.360buy.com/book?x=1&keyword=%2541%2542w{n}",
        f"http://www.xiazaiba.com/word/w{n}",
        # sohu decoder: leading %uXXXX code point + literal tail
        f"http://so.tv.sohu.com/mts?x=1&wd=%u4E2Dx{n}",
        # yxdown: literal first chunk + %XX code point + tail
        f"http://so.yxdown.com/s_q%41a{n}_soft.html",
        f"http://www.example.com/page?q=w{n}",  # no rule matches
    ][mode]


def q_site_search_classify(sf_dir: str) -> pa.Table:
    """Vertical-site internal-search extraction over the synthetic URL
    mix; one distinct row per link shape: (src_url, site, query, ok).
    SQL-oracled bit-exact — the oracle runs the SAME regex book in
    DuckDB's RE2 and replays both decoders generically."""
    from spider_ray.pipelines.relational import _concat, _sorted
    from spider_ray.sources.tables import read_table

    ds = read_table(sf_dir, "events", columns=["event_id"])

    def classify(batch: pa.Table) -> pa.Table:
        srcs, sites, queries, oks = [], [], [], []
        for e in batch["event_id"].to_pylist():
            url = _synth_site_search_url(e)
            got = is_site_internal_search(url)
            srcs.append(url)
            sites.append(got[0] if got else "")
            queries.append(got[1] if got else "")
            oks.append(1 if got else 0)
        return pa.table(
            {
                "src_url": pa.array(srcs, pa.string()),
                "site": pa.array(sites, pa.string()),
                "query": pa.array(queries, pa.string()),
                "ok": pa.array(oks, pa.int64()),
            }
        )

    dedup = lambda b: (  # noqa: E731 — block partial + final distinct
        pl.from_arrow(b).unique().to_arrow().cast(SITE_SEARCH_SCHEMA)
    )
    out = (
        ds.map_batches(classify, batch_format="pyarrow")
        .map_batches(dedup, batch_format="pyarrow")
        .groupby("src_url")
        .map_groups(dedup, batch_format="pyarrow")
    )
    return _sorted(
        _concat(out, schema=SITE_SEARCH_SCHEMA), ["src_url"]
    )


from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()
