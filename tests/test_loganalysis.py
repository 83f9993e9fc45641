"""log_analysis ports: referrer classification + session merge
(search_query.cc / pvlog_segmenter.cc semantics pins + DuckDB replay)."""

import duckdb
import pandas as pd
import polars as pl

from spider_ray.functions.loganalysis import (
    _synth_ref_url,
    classify_search_ref,
    q_search_ref_classify,
    q_session_merge,
)

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    # the SHARED dtype-strict canon (bytearray + datetime fixes
    # included) — don't re-grow a divergent local copy
    from tests.test_relational import _normalize

    return _normalize(df)


def _oracle(name: str) -> pd.DataFrame:
    import __ray_entry__ as E

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    return con.sql(E.oracle_sql()[name]).df()


def test_classify_semantics():
    # param order outranks codebook order: word hits even though wd is
    # the earlier rule
    assert classify_search_ref("http://www.baidu.com/s?foo=1&word=x") == (
        "baidu", "x",
    )
    # empty FIRST matching param kills the whole url — no fallthrough
    assert classify_search_ref("http://www.baidu.com/s?wd=&word=x") is None
    # key is lower-cased before compare
    assert classify_search_ref("http://cn.bing.com/search?Q=z") == (
        "bing", "z",
    )
    # postfix rule: exact host and proper suffix both match
    assert classify_search_ref("http://search.yahoo.com/search?p=a") == (
        "yahoo", "a",
    )
    assert classify_search_ref(
        "http://m.search.yahoo.com/search?p=a"
    ) == ("yahoo", "a")
    # path must match EXACTLY; unknown host rejected
    assert classify_search_ref("http://www.google.com/imgs?q=a") is None
    assert classify_search_ref("http://www.example.com/page?q=a") is None
    # url-decode of the value
    assert classify_search_ref(
        "http://www.sogou.com/web?query=w%20x"
    ) == ("sogou", "w x")
    # every synth mode behaves as designed
    hits = [classify_search_ref(_synth_ref_url(m)) for m in range(11)]
    assert [h is None for h in hits] == [
        False, False, False, True, False, False, False, False, True,
        True, False,
    ]


def test_search_ref_classify_matches_oracle(ray_session):
    ours = _canon(pl.from_arrow(q_search_ref_classify(SF)).to_pandas())
    theirs = _canon(_oracle("search_ref_classify"))
    assert ours.shape == theirs.shape
    assert (ours.values == theirs.values).all()
    assert set(ours["engine"]) <= {
        "google", "baidu", "sogou", "bing", "yahoo", "youdao", "soso",
    }


def test_session_merge_matches_oracle(ray_session):
    ours = _canon(pl.from_arrow(q_session_merge(SF)).to_pandas())
    theirs = _canon(_oracle("session_merge"))
    assert ours.shape == theirs.shape
    assert (ours.values == theirs.values).all()


def test_session_merge_unit():
    """Hand-built user: two gap-segments whose overlap crosses the 0.4
    threshold merge into one session; a third unrelated segment stays."""
    from spider_ray.functions.loganalysis import _merge_sessions_user

    GAP = 1800 * 1_000_000
    rows = []
    # seg 1: urls 1,2,3 (plen 3 — meets confidence)
    for i, u in enumerate([1, 2, 3]):
        rows.append((7, i, i * 1_000_000, u))
    # seg 2 (after gap): urls 2,3 re-occur → related=2, 2*10 >= 3*4 ✓
    base = 3 * 1_000_000 + GAP + 1_000_000
    for i, u in enumerate([2, 3, 9]):
        rows.append((7, 10 + i, base + i * 1_000_000, u))
    # seg 3 (after gap): disjoint urls → no merge
    base2 = base + 3 * 1_000_000 + GAP + 1_000_000
    for i, u in enumerate([15, 16]):
        rows.append((7, 20 + i, base2 + i * 1_000_000, u))
    df = pl.DataFrame(
        rows, schema=["user_id", "event_id", "ts_us", "url_id"],
        orient="row",
    )
    out = _merge_sessions_user(df)
    assert out["session_id"].to_list() == [1, 2]
    assert out["n_pv"].to_list() == [6, 2]
    assert out["n_segs"].to_list() == [2, 1]


def test_classify_vertical_semantics():
    from spider_ray.functions.loganalysis import (
        _synth_click_url,
        classify_vertical,
    )

    # first category wins on cross-category urls
    assert classify_vertical(
        "http://v.youku.com/list?from=zhidao.baidu.com&id=3"
    ) == "Video"
    assert classify_vertical("http://zhidao.baidu.com/question/9") == "QA"
    assert classify_vertical("http://www.sina.com.cn/news/1") is None
    # substring containment, not host structure
    assert classify_vertical("http://mirror.example/games.qq.com/x") == (
        "Game"
    )
    got = [classify_vertical(_synth_click_url(m)) for m in range(7)]
    assert got == [
        "Video", "Book", "Software", "Game", "QA", None, "Video",
    ]


def test_query_click_matches_oracle(ray_session):
    from spider_ray.functions.loganalysis import q_query_click

    ours = _canon(pl.from_arrow(q_query_click(SF)).to_pandas())
    theirs = _canon(_oracle("query_click"))
    assert ours.shape == theirs.shape
    assert (ours.values == theirs.values).all()
    # both sources present: '' site rows (search log) and vertical rows
    assert (ours["site"] == "").any() and (ours["site"] != "").any()


def test_pv_parse_semantics():
    from spider_ray.functions.loganalysis import (
        _pv_parse_row,
        _synth_pv_wire,
        get_url_and_ref,
        parse_kv_list,
    )

    # abandon gates
    assert parse_kv_list("1|a;badpair") is None
    assert parse_kv_list("1|a;1|b") is None  # duplicate key
    assert parse_kv_list("x|a") is None  # non-int key
    assert parse_kv_list("") == {}
    assert parse_kv_list("4|abc;101|def") == {4: "abc", 101: "def"}
    # three-generation disambiguation
    assert get_url_and_ref({1: "t"}, {}) is None  # neither 4 nor 101
    assert get_url_and_ref({101: "U", 0: "m"}, {101: "R"}) == (
        "m", "U", "R",
    )  # legacy
    assert get_url_and_ref({4: "U"}, {}) == ("", "U", "")  # ref empty
    assert get_url_and_ref({4: "U", 101: "S"}, {}) == ("", "U", "S")
    assert get_url_and_ref({4: "U"}, {4: "R"}) == ("", "U", "R")
    assert get_url_and_ref({4: "U"}, {101: "R"}) == ("", "U", "R")
    assert get_url_and_ref({4: "U"}, {0: "m"}) == ("", "U", "")
    assert get_url_and_ref({4: "U"}, {4: "R", 101: "S"}) is None
    # full-row: mode coverage — live modes parse, abandon modes drop
    live = {0, 1, 2, 3, 4}
    for m in range(9):
        mid, (ui, ri) = _synth_pv_wire(m, 3, 1335282659)
        got = _pv_parse_row(mid, ui, ri)
        assert (got is not None) == (m in live), m
    # time decode round-trip (UTC)
    mid, (ui, ri) = _synth_pv_wire(0, 3, 1335282659)
    pv, md5_row = _pv_parse_row(mid, ui, ri)
    assert pv[1] == "20120424155059"
    assert pv[4] == "1"  # (0 % 7) + 1
    assert md5_row is not None and md5_row[0] == "h0"
    # mode 1 has no md5 and no ref
    mid, (ui, ri) = _synth_pv_wire(1, 3, 1335282659)
    pv, md5_row = _pv_parse_row(mid, ui, ri)
    assert md5_row is None and pv[3] == ""


def test_pv_normalize_matches_oracle(ray_session):
    from spider_ray.functions.loganalysis import (
        q_pv_md5_map,
        q_pv_normalize,
    )

    for name, fn in [
        ("pv_normalize", q_pv_normalize),
        ("pv_md5_map", q_pv_md5_map),
    ]:
        ours = _canon(pl.from_arrow(fn(SF)).to_pandas())
        theirs = _canon(_oracle(name))
        assert ours.shape == theirs.shape, name
        assert (ours.values == theirs.values).all(), name


# ---- hostile-input property tests (parsers must never crash) --------
from hypothesis import example, given, settings, strategies as st

_wire_chars = st.text(
    alphabet="0123456789abcxyz|;=&%/:._- \t", max_size=60
)


@settings(max_examples=120, deadline=None)
@given(s=_wire_chars)
def test_parse_kv_list_never_crashes(s):
    from spider_ray.functions.loganalysis import parse_kv_list

    got = parse_kv_list(s)
    assert got is None or isinstance(got, dict)
    if got:
        assert all(isinstance(k, int) for k in got)


@settings(max_examples=120, deadline=None)
@given(url=st.text(max_size=80))
def test_classify_parsers_never_crash(url):
    from spider_ray.functions.loganalysis import (
        classify_search_ref,
        classify_vertical,
    )

    ref = classify_search_ref(url)
    assert ref is None or (
        isinstance(ref, tuple) and len(ref) == 2 and ref[1] != ""
    )
    v = classify_vertical(url)
    assert v in (None, "Video", "Book", "Software", "Game", "QA")


@settings(max_examples=120, deadline=None)
@given(header=st.text(max_size=120), param=st.text(max_size=20))
def test_extract_header_param_never_crashes(header, param):
    from spider_ray.functions.updater import extract_header_param

    got = extract_header_param(header, param)
    # value, when present, is exactly the span between ': ' and the
    # first terminator — never contains one
    if got is not None:
        assert "\r" not in got and "\\" not in got[1:]


# percent-escape soup (hex digits, 'u' and '25u' prefixes, signs) or any text
_escapes = st.text(
    alphabet="0123456789abcdefABCDEFuxDz%+- ", max_size=40
) | st.text(max_size=40)


@settings(max_examples=120, deadline=None)
@given(v=_escapes)
@example(v="%u-123a")
@example(v="%uD800x")
def test_sohu_decoder_never_crashes(v):
    from spider_ray.functions.loganalysis import decode_sohu_query

    got = decode_sohu_query(v)
    # a decoded query is always valid text: it must survive the utf-8
    # encode every sink applies
    if got is not None:
        got.encode("utf-8")


@settings(max_examples=120, deadline=None)
@given(q=_escapes)
@example(q="%u-123a")
@example(q="%uD800x")
def test_site_search_parser_never_crashes(q):
    from spider_ray.functions.loganalysis import is_site_internal_search

    for url in (
        f"http://so.yxdown.com/s_{q}_soft.html",
        f"http://so.tv.sohu.com/mts?wd={q}",
        f"http://search.360buy.com/book?keyword={q}",
        f"http://so.iqiyi.com/so/q_{q}",
    ):
        got = is_site_internal_search(url)
        assert got is None or (
            isinstance(got, tuple) and len(got) == 2 and got[1] != ""
        )
        if got is not None:
            got[1].encode("utf-8")


@settings(max_examples=80, deadline=None)
@given(
    ui=_wire_chars, ri=_wire_chars,
    mid=st.text(alphabet="abc123", min_size=1, max_size=8),
)
def test_pv_parse_row_never_crashes(mid, ui, ri):
    from spider_ray.functions.loganalysis import _pv_parse_row

    got = _pv_parse_row(mid, ui, ri)
    if got is not None:
        pv, md5_row = got
        assert len(pv) == 7 and pv[0] == mid
        assert pv[5] == "255" and pv[6] == "0"


def test_site_search_semantics():
    from spider_ray.functions.loganalysis import (
        _synth_site_search_url,
        decode_query,
        decode_sohu_query,
        is_site_internal_search,
    )

    # double-url-encode heuristic: integer-truncated 20% threshold
    assert decode_query("%2541%2542w7") == "ABw7"
    assert decode_query("w7") == "w7"
    # one '%' in a 5-char result does NOT cross int(5*0.2)=1 → single
    assert decode_query("%2541w7") == "%41w7"
    # sohu decoder: %uXXXX code points, %XX code points, literal head
    assert decode_sohu_query("%u4E2Dx7") == "中x7"
    assert decode_sohu_query("q%41a7") == "qAa7"
    assert decode_sohu_query("%25u4E2D") == "中"
    assert decode_sohu_query("%zz") is None  # bad hex fails the decode
    assert decode_sohu_query("ab") == "ab"
    # the full walk over every synth mode
    got = [is_site_internal_search(_synth_site_search_url(m))
           for m in range(8)]
    assert got == [
        ("Qiyi", "w0"), ("Youku", "w1"), ("Qidian", "w2"),
        ("360buy", "ABw3"), ("Xiazaiba", "w4"),
        ("Sohu", "中x5"), ("Yxdown", "qAa6"), None,
    ]


def test_site_search_classify_matches_oracle(ray_session):
    from spider_ray.functions.loganalysis import q_site_search_classify

    ours = _canon(pl.from_arrow(q_site_search_classify(SF)).to_pandas())
    theirs = _canon(_oracle("site_search_classify"))
    assert ours.shape == theirs.shape
    assert (ours.values == theirs.values).all()
    assert (ours["ok"] == 0).any() and (ours["ok"] == 1).any()
