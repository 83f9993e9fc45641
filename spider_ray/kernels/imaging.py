"""Image kernels: a real (from-scratch) PNG codec, a deterministic lossy
codec, perceptual hash, and PSNR.

The reference embeds fetched image bytes in page records
(``proto2/resource.proto:93-99`` ``ImageFile {url, raw_content, price}``) and
runs in-memory models over them (``crawler2/price_recg``). Our engine's
payload column is ``bytes:binary`` per ``BASELINE.json input_hint``
(image_id, bytes, w, h, fmt, caption, phash).

PIL is not available in this environment, so:

* ``png`` — a real minimal PNG encoder/decoder (8-bit RGB/RGBA/gray, all five
  scanline filters on decode, filter-0 on encode) over zlib — lossless, so
  per-row invariant is exact equality;
* ``qimg`` — a deliberately simple deterministic lossy codec (6-bit uniform
  quantization + zlib): stands in for JPEG so the PSNR ≥ 40 dB (measured
  ≈ 46.9 dB) invariant path is exercised with real math. A production build
  would swap in libjpeg behind the same interface; the Ray-side plumbing
  (schema, batch sizes, actor signature) is identical.

Both decoders raise ``ValueError`` on malformed input and reject a header
that claims more than ``MAX_SAMPLES`` decoded samples before inflating
anything, so a hostile image costs bounded time and memory.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def png_encode(img: np.ndarray) -> bytes:
    """Encode HxW (gray), HxWx3 (RGB) or HxWx4 (RGBA) uint8 array → PNG."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        color_type, channels = 0, 1
        img = img[:, :, None]
    elif img.shape[2] == 3:
        color_type, channels = 2, 3
    elif img.shape[2] == 4:
        color_type, channels = 6, 4
    else:
        raise ValueError(f"unsupported channels {img.shape}")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # filter byte 0 (None) per scanline
    raw = np.empty((h, 1 + w * channels), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = img.reshape(h, w * channels)
    idat = zlib.compress(raw.tobytes(), 6)
    return (
        _PNG_SIG
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _inflate(data: bytes, size: int) -> bytes:
    """The ``size`` bytes a complete zlib stream holds. Inflates at most
    ``size + 1`` bytes, so a stream that claims less than it holds costs no
    more than the header allows; a bad, short, long or truncated stream
    raises ``ValueError``."""
    d = zlib.decompressobj()
    try:
        out = d.decompress(data, size + 1)
    except zlib.error as e:
        raise ValueError(f"bad zlib stream: {e}") from None
    if len(out) != size or not d.eof:
        raise ValueError(f"zlib stream does not hold the header's {size} bytes")
    return out


# decoded samples (w x h x channels) one image may claim: a header past it
# is rejected before any inflation, which bounds a hostile image's memory
# and the Average/Paeth row loops' time
MAX_SAMPLES = 1 << 22


def _check_dims(w: int, h: int, ch: int) -> None:
    if w == 0 or h == 0 or ch == 0:
        raise ValueError(f"empty image {w}x{h}x{ch}")
    if w * h * ch > MAX_SAMPLES:
        raise ValueError(f"image {w}x{h}x{ch} exceeds {MAX_SAMPLES} samples")


def _average_row(cur: list, prev: list, ch: int) -> list:
    for x in range(ch):
        cur[x] = (cur[x] + (prev[x] >> 1)) & 0xFF
    for x in range(ch, len(cur)):
        cur[x] = (cur[x] + ((cur[x - ch] + prev[x]) >> 1)) & 0xFF
    return cur


def _paeth_row(cur: list, prev: list, ch: int) -> list:
    for x in range(ch):  # a = c = 0: the predictor is b
        cur[x] = (cur[x] + prev[x]) & 0xFF
    for x in range(ch, len(cur)):
        a, b, c = cur[x - ch], prev[x], prev[x - ch]
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        pr = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
        cur[x] = (cur[x] + pr) & 0xFF
    return cur


def _unfilter(raw: np.ndarray, h: int, w: int, ch: int) -> np.ndarray:
    """Reverse PNG scanline filters (types 0-4). Rows that are all filter 0
    (what ``png_encode`` writes) are one slice; Sub is a per-channel
    wrapping ``uint8`` cumsum and Up a wrapping add; Average and Paeth
    depend on the previous output sample and stay per-row loops, bounded
    by ``MAX_SAMPLES``."""
    stride = w * ch
    rows = raw.reshape(h, 1 + stride)
    ftypes = rows[:, 0]
    if not ftypes.any():
        return rows[:, 1:].copy()
    if (ftypes > 4).any():
        raise ValueError(f"bad filter {int(ftypes.max())}")
    out = np.empty((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ftype, line = ftypes[y], rows[y, 1:]
        if ftype == 0:
            out[y] = line
        elif ftype == 1:  # Sub
            out[y] = np.cumsum(
                line.reshape(w, ch), axis=0, dtype=np.uint8
            ).reshape(stride)
        elif ftype == 2:  # Up
            out[y] = line + prev
        elif ftype == 3:  # Average
            out[y] = _average_row(line.tolist(), prev.tolist(), ch)
        else:  # Paeth
            out[y] = _paeth_row(line.tolist(), prev.tolist(), ch)
        prev = out[y]
    return out


def png_decode(data: bytes) -> np.ndarray:
    """Decode a PNG produced by any encoder using 8-bit gray/RGB/RGBA,
    no interlace, no palette. Malformed input — a short chunk, no IHDR, an
    image past ``MAX_SAMPLES``, an IDAT stream of the wrong size, an unknown
    filter — raises ``ValueError``."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        length, tag = struct.unpack(">I4s", data[pos : pos + 8])
        body = data[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise ValueError(f"truncated PNG chunk {tag!r}")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ValueError("bad IHDR")
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise ValueError("PNG without IHDR")
    w, h, bitd, color_type, comp, filt, interlace = ihdr
    if bitd != 8 or interlace != 0 or color_type not in (0, 2, 6):
        raise ValueError("unsupported PNG variant")
    ch = {0: 1, 2: 3, 6: 4}[color_type]
    _check_dims(w, h, ch)
    raw = np.frombuffer(
        _inflate(b"".join(idat), h * (1 + w * ch)), dtype=np.uint8
    )
    img = _unfilter(raw, h, w, ch).reshape(h, w, ch)
    return img[:, :, 0] if ch == 1 else img


# --- deterministic lossy codec ("qimg") --------------------------------------

_QIMG_MAGIC = b"QIM1"
QIMG_BITS = 6  # 6-bit quantization → PSNR ≈ 46.9 dB


def qimg_encode(img: np.ndarray) -> bytes:
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, ch = img.shape
    shift = 8 - QIMG_BITS
    q = (img >> shift).astype(np.uint8)
    payload = zlib.compress(q.tobytes(), 6)
    return _QIMG_MAGIC + struct.pack(">IIB", w, h, ch) + payload


def qimg_decode(data: bytes) -> np.ndarray:
    """Malformed input — a short header, an image past ``MAX_SAMPLES``, a
    payload of the wrong size — raises ``ValueError``."""
    if len(data) < 13 or data[:4] != _QIMG_MAGIC:
        raise ValueError("not a qimg")
    w, h, ch = struct.unpack(">IIB", data[4:13])
    _check_dims(w, h, ch)
    q = np.frombuffer(
        _inflate(data[13:], w * h * ch), dtype=np.uint8
    ).reshape(h, w, ch)
    shift = 8 - QIMG_BITS
    # dequantize to bin centers
    img = (q.astype(np.uint16) << shift) + (1 << (shift - 1))
    img = np.clip(img, 0, 255).astype(np.uint8)
    return img[:, :, 0] if ch == 1 else img


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return png_decode(data)
    if fmt in ("qimg", "jpeg"):  # jpeg name kept for schema parity
        return qimg_decode(data)
    raise NotImplementedError(
        f"format {fmt!r}: real JPEG/GIF codecs are not available in this "
        "container; the qimg codec exercises the lossy path"
    )


def encode_image(img: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return png_encode(img)
    if fmt in ("qimg", "jpeg"):
        return qimg_encode(img)
    raise NotImplementedError(f"format {fmt!r}")


# --- metrics ------------------------------------------------------------------


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return 20 * np.log10(255.0) - 10 * np.log10(mse)


def _gray(img: np.ndarray) -> np.ndarray:
    if img.ndim == 2:
        return img.astype(np.float64)
    # ITU-R BT.601 luma
    return (
        0.299 * img[:, :, 0] + 0.587 * img[:, :, 1] + 0.114 * img[:, :, 2]
    ).astype(np.float64)


_DCT_N = 32


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    M = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    M[0] *= 1 / np.sqrt(2)
    return M * np.sqrt(2 / n)


_DCT_M = _dct_matrix(_DCT_N)


def phash64(img: np.ndarray) -> int:
    """Perceptual hash: resize (area-mean) to 32×32 gray, 2-D DCT, top-left
    8×8 (minus DC), median threshold → 64 bits. Fully vectorized: pixels
    are binned with np.bincount on an index grid (which sums each bin in
    pixel order, as np.add.at did) and the 63 bits packed with np.packbits."""
    g = _gray(img)
    h, w = g.shape
    yi = (np.arange(h) * _DCT_N // max(h, 1)).clip(0, _DCT_N - 1)
    xi = (np.arange(w) * _DCT_N // max(w, 1)).clip(0, _DCT_N - 1)
    flat_idx = (yi[:, None] * _DCT_N + xi[None, :]).ravel()
    n = _DCT_N * _DCT_N
    sums = np.bincount(flat_idx, weights=g.ravel(), minlength=n)
    cnts = np.bincount(flat_idx, minlength=n)
    small = (sums / np.maximum(cnts, 1.0)).reshape(_DCT_N, _DCT_N)
    D = _DCT_M @ small @ _DCT_M.T
    vals = D[:8, :8].ravel()[1:]  # drop DC
    # the median of 63 values is the middle one, as np.median returns it
    bits = vals > np.partition(vals, 31)[31]  # bit i is coefficient i + 1
    return int.from_bytes(
        np.packbits(bits, bitorder="little").tobytes(), "little"
    )
