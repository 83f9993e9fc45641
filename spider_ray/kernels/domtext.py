"""DOM main-content extraction — M17 (the reference's text-quality lever).

Reference semantics (``dedup/dom_extractor/content_collector.cc``, 840 LoC):
parse the page into a DOM, drop non-text nodes top-down (script / style /
nav / footer / header / iframe / form controls / comments / anchors /
invisible nodes — ``DroppableNode``, :804-838), prune empty text bottom-up,
compute per-node character statistics, then walk from ``<body>`` following
the DOMINANT child — the child whose share of non-link characters among its
siblings exceeds ``body_ratio_thresh`` (0.5, :23,503-515) — and emit that
cluster's text as the main content; the title comes from ``<head><title>``.

Re-expressed in pure Python on the stdlib ``html.parser`` (no html5lib in
this container): a ~150-line faithful restatement of the ratio walk, used
per-row inside an actor-pool ``map_batches`` stage. Site-specific special
cases (baike/gome class rules, :783-799) are deliberately not ported.

The module also holds M8's two link extractors over raw page bytes.
``extract_links`` returns anchors with their text, images, stylesheets and
the title (``q_html_outlinks``, ``cssenrich``, ``warc``). ``crawl_links``
returns only its anchor URLs and images, the two lists the parse-mode
crawl reads (``stages/fetchsim.fetch_one``), tokenizing as ``html.parser``
does at a few times the speed. Both parse ``<![`` as an HTML5 bogus
comment, where the stdlib raises.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import (
    HTMLParser,
    attrfind_tolerant,
    commentclose,
    endtagfind,
    locatestarttagend_tolerant,
    tagfind_tolerant,
)
from urllib.parse import urljoin, urlsplit

BODY_RATIO_THRESH = 0.5  # FLAGS_body_ratio_thresh (content_collector.cc:23)

# DroppableNode tag set (content_collector.cc:804-838); html.parser already
# strips comments and doctype for us
DROP_TAGS = frozenset(
    {
        "hr", "br", "input", "select", "textarea", "menu", "applet",
        "button", "object", "nav", "footer", "header", "iframe", "audio",
        "link", "img", "style", "script", "noscript", "marquee", "a",
        "form", "video", "source",
    }
)
_VOID_TAGS = frozenset(
    {"br", "hr", "img", "input", "link", "meta", "source", "area", "base",
     "col", "embed", "track", "wbr"}
)
_INVISIBLE_RE = re.compile(
    r"display\s*:\s*none|visibility\s*:\s*hidden", re.I
)
_WS_RE = re.compile(r"\S")


class _Node:
    __slots__ = ("tag", "attrs", "children", "text", "nonlink_chars")

    def __init__(self, tag: str, attrs=()):
        self.tag = tag
        self.attrs = dict(attrs)
        self.children: list = []  # _Node or str (text)
        self.text = ""
        self.nonlink_chars = 0


class _Html5Parser(HTMLParser):
    """``HTMLParser`` that reads ``<![`` as an HTML5 bogus comment ending
    at the first ``>``. The stdlib hands it to ``_markupbase``'s SGML
    marked-section parser instead, which raises ``AssertionError`` on any
    keyword but CDATA/IF/... (``<![bogus[``), failing the whole page. A
    well-formed ``<![CDATA[ ... ]]>`` or ``<![if ...]>`` section also ends
    at its first ``>`` here, as in HTML5, where the stdlib ran it to its
    ``]]>`` or ``]>``."""

    def parse_html_declaration(self, i):
        if self.rawdata.startswith("<![", i):
            return self.parse_bogus_comment(i)
        return super().parse_html_declaration(i)


class _TreeBuilder(_Html5Parser):
    """Minimal DOM: tolerant of unclosed tags (pops to the matching open
    tag if one exists, ignores stray closes)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = _Node(tag, attrs)
        self.stack[-1].children.append(node)
        if tag not in _VOID_TAGS:
            self.stack.append(node)

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def _find(node: _Node, tag: str):
    for ch in node.children:
        if isinstance(ch, _Node):
            if ch.tag == tag:
                return ch
            hit = _find(ch, tag)
            if hit is not None:
                return hit
    return None


def _invisible(node: _Node) -> bool:
    return bool(_INVISIBLE_RE.search(node.attrs.get("style") or ""))


def _prune(node: _Node) -> int:
    """RemoveNontext top-down + leaf statistics in one pass: drop the
    droppable subtrees, count each surviving node's non-whitespace chars
    (anchors were dropped, so this IS the nonlink count)."""
    kept = []
    total = 0
    for ch in node.children:
        if isinstance(ch, str):
            n = len(_WS_RE.findall(ch))
            kept.append(ch)
            total += n
            continue
        if ch.tag in DROP_TAGS or _invisible(ch):
            continue
        n = _prune(ch)
        if n > 0:  # RemoveNontextBottomUp: empty text subtrees vanish
            kept.append(ch)
            total += n
    node.children = kept
    node.nonlink_chars = total
    return total


def _collect_text(node: _Node, out: list) -> None:
    for ch in node.children:
        if isinstance(ch, str):
            out.append(ch)
        else:
            _collect_text(ch, out)


def _node_text(node: _Node) -> str:
    parts: list = []
    _collect_text(node, parts)
    return "".join(parts).strip()


def extract_main_content(page_utf8: str, url: str = "") -> tuple[str, str]:
    """(title, main content) of an HTML page — ExtractMainContent
    (content_collector.cc:96-160). Empty strings when the page has no
    usable body text."""
    builder = _TreeBuilder()
    builder.feed(page_utf8 or "")
    root = builder.root

    title_node = _find(root, "title")
    title = _node_text(title_node) if title_node is not None else ""

    body = _find(root, "body") or root
    if _prune(body) == 0:
        return title, ""

    # dominant-cluster descent (FindDominantNodeCluster,
    # content_collector.cc:503-535): while ONE child holds more than
    # body_ratio_thresh of its siblings' non-link characters, descend;
    # the node where no child dominates is the main-content cluster.
    node = body
    while True:
        element_children = [
            ch for ch in node.children if isinstance(ch, _Node)
        ]
        if not element_children:
            break
        # direct text of the node joins the denominator: stdlib html.parser
        # keeps text siblings inside the same node (it doesn't imply </p>),
        # and descending away from dominant direct text would drop it
        direct = sum(
            len(_WS_RE.findall(ch))
            for ch in node.children
            if isinstance(ch, str)
        )
        total = sum(ch.nonlink_chars for ch in element_children) + direct
        best = max(element_children, key=lambda ch: ch.nonlink_chars)
        if total <= 0 or best.nonlink_chars / total <= BODY_RATIO_THRESH:
            break
        node = best
    return title, _node_text(node)


# ---------------------------------------------------------------------------
# Real-HTML link extraction — M8 over raw bytes (the "what a user pointing
# this at WARC data hits first" kernel). Reference semantics, reimplemented
# (crawler2/general_crawler/css_fetcher_main.cc:140-264):
#   * parse at most 1 MB of the utf-8 page ("如果 utf8 网页大于 1MB, 则截断
#     后再处理", :188-190) — truncation BEFORE parse;
#   * per-page first-wins dedup of css / image / anchor URL sets
#     (:199-224 three std::set guards);
#   * nofollow anchors are NOT filtered (the reference's nofollow branch
#     is commented out, :227-250 "XXX(pengdan)"; we match the live code);
#   * title ≤ 1024 bytes, line-escaped (:252-262 GetTitle + LineEscape);
#   * URL length cap kMaxLinkSize = 4096 bytes (proto2/resource.proto:8).
# Resolution is RFC-3986 urljoin against the page's effective URL;
# fragment-only / mailto: / javascript: / data: hrefs are dropped (they
# are not fetchable resources).

MAX_PARSE_BYTES = 1 << 20  # 1 MB utf-8 parse truncation
MAX_TITLE_BYTES = 1024
MAX_LINK_BYTES = 4096  # kMaxLinkSize

_SKIP_SCHEMES = ("mailto:", "javascript:", "data:", "tel:")


class _LinkExtractor(_Html5Parser):
    """One streaming pass: anchors (+text), img src/alt, stylesheet
    links, first <title>. No tree build — O(page) with zero recursion."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.anchors: list[tuple[str, str]] = []  # (href, text)
        self.images: list[tuple[str, str]] = []  # (src, alt)
        self.css: list[str] = []
        self.title = ""
        self._a_href: str | None = None
        self._a_text: list[str] = []
        self._in_title = False
        self._title_parts: list[str] = []
        self._title_done = False

    def handle_starttag(self, tag, attrs):
        d = dict(attrs)
        if tag == "a":
            if self._a_href is not None:
                # implicit close of an unclosed <a> (reference parser
                # behavior: anchors never nest)
                self.anchors.append(
                    (self._a_href, "".join(self._a_text).strip())
                )
            self._a_href = d.get("href") or None
            self._a_text = []
        elif tag == "img":
            src = d.get("src")
            if src:
                self.images.append((src, d.get("alt") or ""))
        elif tag == "link":
            rel = (d.get("rel") or "").lower()
            href = d.get("href")
            if href and "stylesheet" in rel.split():
                self.css.append(href)
        elif tag == "title" and not self._title_done:
            self._in_title = True

    def handle_endtag(self, tag):
        if tag == "a" and self._a_href is not None:
            self.anchors.append(
                (self._a_href, "".join(self._a_text).strip())
            )
            self._a_href = None
            self._a_text = []
        elif tag == "title" and self._in_title:
            self.title = "".join(self._title_parts).strip()
            self._in_title = False
            self._title_done = True

    def handle_data(self, data):
        if self._a_href is not None:
            self._a_text.append(data)
        if self._in_title:
            self._title_parts.append(data)


def _parse_window(page: bytes | str) -> str:
    """The text both extractors parse: the first MAX_PARSE_BYTES of the
    utf-8 page, invalid bytes and a cut codepoint dropped."""
    if isinstance(page, bytes):
        return page[:MAX_PARSE_BYTES].decode("utf-8", "ignore")
    return page.encode("utf-8")[:MAX_PARSE_BYTES].decode("utf-8", "ignore")


def _resolve(base: str, href: str) -> str | None:
    """urljoin + the reference's drop rules: non-fetchable schemes,
    fragment-only, over-long URLs → None."""
    h = href.strip()
    if not h or h.startswith("#"):
        return None
    low = h.lower()
    if any(low.startswith(s) for s in _SKIP_SCHEMES):
        return None
    try:
        absu = urljoin(base, h)
    except ValueError:
        return None
    absu = absu.split("#", 1)[0]
    if not absu.startswith(("http://", "https://")):
        return None
    if len(absu.encode("utf-8", "ignore")) > MAX_LINK_BYTES:
        return None
    return absu


_URL_CHARS = r"[A-Za-z0-9\-._~!$&'()*+,=:@%]"
_SEGMENT = rf"/(?!\.\.?(?:/|\Z)){_URL_CHARS}+"
# hrefs urljoin leaves alone, for any base: absolute http(s) URLs with a
# netloc, and no whitespace, ";", "?", "#", brackets, backslash or dot
# segment; and root-relative paths of the same alphabet, which resolve to
# the base's scheme://netloc + path
_FAST_ABSOLUTE = re.compile(rf"https?://{_URL_CHARS}+(?:{_SEGMENT})*/?")
_FAST_ROOT_RELATIVE = re.compile(rf"(?:{_SEGMENT})+/?|/")


def _resolver(base: str):
    """``_resolve`` against one base, which is split once per page (both
    extractors resolve through it): hrefs of the two fast shapes above
    skip urljoin."""
    try:
        scheme, netloc = urlsplit(base)[:2]
    except ValueError:  # urljoin raises too: _resolve drops every href
        return lambda h: _resolve(base, h)
    root = f"{scheme}://{netloc}" if scheme in ("http", "https") else None

    def resolve(h: str) -> str | None:
        if _FAST_ABSOLUTE.fullmatch(h):
            u = h
        elif root is not None and _FAST_ROOT_RELATIVE.fullmatch(h):
            u = root + h
        else:
            return _resolve(base, h)
        if len(u.encode("utf-8", "ignore")) > MAX_LINK_BYTES:
            return None
        return u

    return resolve


def _line_escape(s: str) -> str:
    """base::LineEscape — newline family to visible escapes so the title
    always fits one record line."""
    return (
        s.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def extract_links(page: bytes | str, base_url: str) -> dict:
    """Outlink/anchor/image/css/title extraction from a raw HTML page —
    the parse half of M8 that ``q_html_outlinks``, ``cssenrich`` and
    ``warc`` run (the crawl's ``parse_html`` mode runs ``crawl_links``,
    which returns this function's anchor URLs and images). Returns
    ``{"anchors": [(url, text)...], "images": [(url, alt)...],
    "css": [url...], "title": str}`` with per-page first-wins dedup by URL
    within each list."""
    p = _LinkExtractor()
    p.feed(_parse_window(page))
    p.close()
    if p._a_href is not None:  # unclosed trailing anchor
        p.anchors.append((p._a_href, "".join(p._a_text).strip()))

    resolve = _resolver(base_url)
    anchors, seen_a = [], set()
    for href, text in p.anchors:
        u = resolve(href)
        if u is not None and u not in seen_a:
            seen_a.add(u)
            anchors.append((u, text))
    images, seen_i = [], set()
    for src, alt in p.images:
        u = resolve(src)
        if u is not None and u not in seen_i:
            seen_i.add(u)
            images.append((u, alt))
    css, seen_c = [], set()
    for href in p.css:
        u = resolve(href)
        if u is not None and u not in seen_c:
            seen_c.add(u)
            css.append(u)

    # byte cap with multibyte-safe truncation: one encode + one slice
    # (a per-character re-encode loop is O(n²) on a title near the 1 MB
    # parse cap); errors="ignore" drops the trailing partial codepoint
    title_b = p.title.encode("utf-8")
    title = (
        title_b[:MAX_TITLE_BYTES].decode("utf-8", "ignore")
        if len(title_b) > MAX_TITLE_BYTES
        else p.title
    )
    return {
        "anchors": anchors,
        "images": images,
        "css": css,
        "title": _line_escape(title),
    }


# ---------------------------------------------------------------------------
# Crawl-path extraction. The crawl reads only the anchor URLs and the image
# (src, alt) pairs of a page, so crawl_links returns exactly
# ``[u for u, _ in extract_links(...)["anchors"]]`` and
# ``extract_links(...)["images"]`` without anchor text, css or title.
#
# It tokenizes as _Html5Parser does: one ``goahead`` pass with end=True
# (what ``feed`` then ``close`` amounts to), built on html.parser's own
# compiled regexes, so an unterminated construct is text up to the next
# ">", a malformed start tag is text, and script/style bodies are raw text
# up to their close tag. The anchor list only needs the ``a`` START tags:
# every <a> with a non-empty href is appended exactly once by
# _LinkExtractor (at the next <a>, at </a> or at end of input), in
# start-tag order. One C-regex match (_SKIP) consumes each maximal run of
# text, plain end tags and attribute-less start tags that are not
# a/img/script/style; Python runs only on what is left.

_TAG_END = r"[\t\n\r\f />\x00]"  # the characters that end a tag name
_SKIP = re.compile(
    r"(?:[^<]+"
    r"|</\s*[a-zA-Z][-.a-zA-Z0-9:_]*\s*>"  # endtagfind
    r"|<(?!(?:[aA]|[iI][mM][gG]|[sS][cC][rR][iI][pP][tT]|[sS][tT][yY][lL][eE])"
    rf"{_TAG_END})[a-zA-Z][^\t\n\r\f />\x00]*\s*>)*"
)
# html.parser's raw-text close tag (set_cdata_mode) is its only re.I
# pattern; under re.I a letter also matches Unicode case variants ("ſ"
# for s, "İ" and "ı" for i, the Kelvin sign for k)
_RAW_TEXT_CLOSE = {
    t: re.compile(r"</\s*%s\s*>" % t, re.I) for t in ("script", "style")
}
_LETTERS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)
_INCOMPLETE_AFTER_TAG = _LETTERS | {"="}


def _bogus_comment_end(s: str, i: int) -> int:
    pos = s.find(">", i + 2)
    return pos + 1 if pos >= 0 else -1


def _start_tag(s: str, i: int, hrefs: list, images: list):
    """HTMLParser.parse_starttag at ``s[i] == "<"`` + letter: returns
    (end, raw-text tag or None), end -1 while the tag is incomplete.
    Appends the link of a well-formed a/img tag."""
    j = locatestarttagend_tolerant.match(s, i).end()
    c = s[j : j + 1]
    if c == ">":
        end = j + 1
    elif c == "/":
        if not s.startswith("/>", j):
            return -1, None
        end = j + 2
    elif not c or c in _INCOMPLETE_AFTER_TAG:
        return -1, None
    else:
        end = j
    m = tagfind_tolerant.match(s, i + 1)
    tag = m.group(1).lower()
    if tag not in ("a", "img", "script", "style"):
        return end, None
    k = m.end()
    attrs = {}  # last attribute wins, as dict(attrs)
    while k < end:
        m = attrfind_tolerant.match(s, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
        attrs[name.lower()] = value
        k = m.end()
    close = s[k:end].strip()
    if close not in (">", "/>"):
        return end, None  # malformed: the parser reads it as text
    if tag == "a":
        href = attrs.get("href")
        if href:
            hrefs.append(href)
    elif tag == "img":
        src = attrs.get("src")
        if src:
            images.append((src, attrs.get("alt") or ""))
    elif close == ">":
        return end, tag
    return end, None


def _raw_text_end(s: str, i: int, tag: str) -> int:
    """End of a script/style body that starts at ``i`` (past its close
    tag), or -1 when it runs to the end of the page."""
    close = _RAW_TEXT_CLOSE[tag]
    while True:
        m = close.search(s, i)
        if m is None:
            return -1
        j = m.start()
        i = s.find(">", j + 1) + 1
        # the parser ends raw text only where endtagfind matches too: a
        # close tag spelled with such a variant ("</ſcript>") stays raw text
        if endtagfind.match(s, j):
            return i


def _end_tag(s: str, i: int) -> int:
    """HTMLParser.parse_endtag outside raw text, for the end tags _SKIP
    leaves: those endtagfind does not match."""
    if s.find(">", i + 1) < 0:
        return -1
    m = tagfind_tolerant.match(s, i + 2)
    if not m:
        return i + 3 if s.startswith("</>", i) else _bogus_comment_end(s, i)
    return s.find(">", m.end()) + 1


def _scan_links(s: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The raw hrefs of the a start tags and (src, alt) of the img start
    tags, in document order, as _LinkExtractor reports them."""
    hrefs: list[str] = []
    images: list[tuple[str, str]] = []
    skip = _SKIP.match
    n = len(s)
    i = 0
    while True:
        i = skip(s, i).end()
        if i >= n:
            break
        c = s[i + 1 : i + 2]  # s[i] == "<"
        if c in _LETTERS:
            k, raw = _start_tag(s, i, hrefs, images)
            if raw is not None:
                i = _raw_text_end(s, k, raw)
                if i < 0:
                    break
                continue
        elif c == "/":
            k = _end_tag(s, i)
        elif s.startswith("<!--", i):
            m = commentclose.search(s, i + 4)
            k = m.end() if m else -1
        elif c in ("!", "?"):
            # processing instruction, and every other declaration: <![ is
            # a bogus comment (_Html5Parser), and <!doctype's search for
            # ">" from i + 9 finds the same ">" as one from i + 2
            k = _bogus_comment_end(s, i)
        elif i + 1 < n:
            k = i + 1  # a lone "<" is text
        else:
            break
        if k < 0:
            # end of input inside the construct: text up to the next ">"
            k = s.find(">", i + 1)
            if k < 0:
                k = s.find("<", i + 1)
                if k < 0:
                    k = i + 1
            else:
                k += 1
        i = k
    return hrefs, images


def crawl_links(
    page: bytes | str, base_url: str
) -> tuple[list[str], list[tuple[str, str]]]:
    """(anchor URLs, [(image URL, alt)]) of a raw HTML page, the two
    lists the parse-mode crawl reads: equal to ``extract_links``' anchor
    URLs and its images on every input, at a fraction of its cost."""
    hrefs, imgs = _scan_links(_parse_window(page))
    resolve = _resolver(base_url)
    anchors, seen = [], set()
    for h in hrefs:
        u = resolve(h)
        if u is not None and u not in seen:
            seen.add(u)
            anchors.append(u)
    images, seen = [], set()
    for src, alt in imgs:
        u = resolve(src)
        if u is not None and u not in seen:
            seen.add(u)
            images.append((u, alt))
    return anchors, images


# Imported lazily (inside query functions), AFTER the pipeline modules'
# registration pass ran — so this module must register itself for
# pickle-by-value or its functions ship by reference to workers that may
# not have the repo on sys.path.
from spider_ray._serial import register_all as _register_all  # noqa: E402

_register_all()
