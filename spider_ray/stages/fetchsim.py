"""Fetch simulation + result handling — shared by the Ray fetch actor pool
and the single-process oracle.

Semantics reimplemented (not ported) from the reference:

* redirect: one hop to ``redirect_to``; result reports ``effective_url``
  (``resource.proto:35``; handled in ``page_crawler_misc.cc:289-301``);
* retry rule: HTTP 200/404 are terminal; 5xx / network error retried with a
  proxy flip up to ``MAX_RETRY`` = 2 (``fetch_result_handler.cc:67-88``,
  ``crawler.cfg max_retry_times``);
* parse mode (M8 over bytes): outlinks and image refs come from
  ``kernels/domtext.crawl_links`` over the page's stored HTML, table mode
  reads them from the web_graph row;
* outlink emission policy M9 (``resource_saver.cc:170-259``): only pages with
  ≥ ``MIN_OUTLINK`` distinct outlinks and path depth ≤ 2 emit new links;
* image pipeline: decode fetched bytes, verify (w, h, fmt), recompress to
  the canonical codec, phash (M7/M15 analogs) — output row matches
  BASELINE.json input_hint: (image_id, bytes, w, h, fmt, caption, phash).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the module, not the function: a wrapper installed on a domtext function
# (a layer trace) must see the calls
from spider_ray.kernels import domtext
from spider_ray.kernels.imaging import decode_image, encode_image, phash64
from spider_ray.state.proxy import pick_proxy_pure
from spider_ray.state.scheduler import FetchPermit

MAX_RETRY = 2  # tried_times < 2 may retry (fetch_result_handler.cc:73-77)
MIN_OUTLINK = 6  # kMinOutlink, resource_saver.h:16-20
MAX_PATH_DEPTH_EXTRACT = 2  # kMaxPathDepthExtractNewLink


@dataclass
class WebIndex:
    """In-memory lookup of the synthetic web served to the fetch sim.
    Built once per actor (``__init__``) from the web_graph / images tables —
    the T6-style warm state of the fetch stage."""

    pages: dict[str, dict]  # url → page row (oracle._page_rows)
    images: dict[str, dict]  # image_id → row dict
    lookups: int = 0
    # sharded actors (oracle.load_corpus_shard): the slice's image
    # MEMBERSHIP set — image ids referenced by this slice's pages that
    # exist in the corpus — because the payload dict above then holds a
    # DIFFERENT slice (keyed by image_id hash for process_refs_pos routing).
    # None = unsharded index, membership == payload keys.
    image_members: set | None = None
    # opt-in parse mode: page rows carry raw HTML under "_html" and
    # fetch_one extracts outlinks/images by PARSING the bytes
    # (kernels/domtext.crawl_links: extract_links' anchor URLs and
    # images, the reference's real M8) instead of reading the table
    # columns. Byte-equal to table mode on corpora whose bodies are
    # render_html() of the rows (pinned by test).
    parse_html: bool = False

    def has_image(self, image_id: str) -> bool:
        if self.image_members is not None:
            return image_id in self.image_members
        return image_id in self.images

    def meta(self) -> dict[str, tuple[int, int]]:
        """url → (status, latency) map for scheduler completion simulation."""
        return {
            u: (int(r["status_code"]), int(r["latency_us"]))
            for u, r in self.pages.items()
        }


@dataclass
class FetchResult:
    permit: FetchPermit
    status: int
    effective_url: str
    outlink_rows: list[dict] = field(default_factory=list)
    image_rows: list[dict] = field(default_factory=list)
    retry: bool = False
    via_proxy: str = ""  # T3: retried fetches flip through the proxy list


def _path_depth(url: str) -> int:
    rest = url.split("://", 1)[1]
    slash = rest.find("/")
    return 0 if slash < 0 else rest[slash:].count("/") - 1


def fetch_one(permit: FetchPermit, index: WebIndex) -> FetchResult:
    index.lookups += 1
    # T3 proxy flip (fetch_result_handler.cc:67-88): first attempts go
    # direct; retries route through a proxy picked as a PURE function of
    # (url_hash, tried) — pool-size-invariant, hence a parity seam
    via = pick_proxy_pure(permit.url_hash, permit.tried)
    row = index.pages.get(permit.url)
    if row is None:
        return FetchResult(permit, 404, permit.url, via_proxy=via)
    status = int(row["status_code"])
    effective = permit.url
    if status == 301 and row["redirect_to"]:
        target = index.pages.get(row["redirect_to"])
        effective = row["redirect_to"]
        if target is None:
            return FetchResult(permit, 404, effective, via_proxy=via)
        row = target
        status = int(row["status_code"])
        if status == 301:
            status = 200  # no redirect chains in the simulator
    if status == -1 or status >= 500:
        code = 599 if status == -1 else status
        return FetchResult(
            permit, code, effective, retry=permit.tried < MAX_RETRY,
            via_proxy=via,
        )
    if status != 200:
        return FetchResult(permit, status, effective, via_proxy=via)

    res = FetchResult(permit, 200, effective, via_proxy=via)
    if index.parse_html:
        # real M8: parse the stored raw bytes (extraction only on
        # response 200, as the reference — css_fetcher_main.cc:160-164)
        outlinks, image_pairs = domtext.crawl_links(row["_html"], effective)
    else:
        # the page row's outlink URLs and (image_id, alt) pairs
        # (oracle._page_rows)
        outlinks, image_pairs = row["outlinks"], row["image_refs"]
    if (
        len(outlinks) >= MIN_OUTLINK
        and _path_depth(effective) <= MAX_PATH_DEPTH_EXTRACT
    ):
        for u in outlinks:
            res.outlink_rows.append(
                {
                    "url": u,
                    "depth": permit.depth + 1,
                    "tried": 0,
                    "priority": None,  # banded in normalize
                    "referer": effective,
                }
            )
    for iid, alt in image_pairs:
        if index.has_image(iid):
            # emit the REFERENCE only — decode happens after first-wins
            # dedup (D6: never fetch/decode the same sub-resource twice,
            # css_fetcher_main.cc:476-491 placeholder-LRU semantics)
            res.image_rows.append({"image_id": iid, "alt": alt})
    return res


def process_image(img_row: dict, caption: str) -> dict | None:
    """Decode → verify dims → recompress to the canonical codec → phash.
    The M7 'convert to UTF-8 with best effort' analog for pixels. The phash
    is the first decode's: re-encoding is idempotent (PNG is lossless, and
    qimg re-quantizes a dequantized image into the same bins), so decoding
    the output again would return the same pixels. ``None`` when the stored
    bytes do not decode (a malformed image, or a format with no codec): the
    crawl skips that image and counts it, it never fails on one."""
    fmt = img_row["fmt"]
    try:
        arr = decode_image(img_row["bytes"], fmt)
    except (ValueError, NotImplementedError):
        return None
    h, w = arr.shape[:2]
    ok = w == int(img_row["w"]) and h == int(img_row["h"])
    out_bytes = encode_image(arr, fmt)  # recompress policy: same codec
    ph = phash64(arr)
    return {
        "image_id": img_row["image_id"],
        "bytes": out_bytes,
        "w": w,
        "h": h,
        "fmt": fmt,
        "caption": caption,
        "phash": int(np.uint64(ph).astype(np.int64)),
        "dims_ok": ok,
    }


def result_to_rows(res: FetchResult) -> dict:
    """Status-sink row (S3 ResourceSaver status analog)."""
    return {
        "url": res.permit.url,
        "host": res.permit.host,
        "fetch_ts": res.permit.fetch_ts,
        "gen": res.permit.gen,
        "seq": res.permit.seq,
        "priority": res.permit.priority,
        "depth": res.permit.depth,
        "tried": res.permit.tried,
        "referer": res.permit.referer,
        "status": res.status,
        "effective_url": res.effective_url,
        "retry": res.retry,
        "via_proxy": res.via_proxy,
    }
