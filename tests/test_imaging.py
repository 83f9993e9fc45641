import numpy as np
import pytest

from spider_ray.kernels.imaging import (
    decode_image,
    encode_image,
    phash64,
    png_decode,
    png_encode,
    psnr,
    qimg_decode,
    qimg_encode,
)


def _img(seed=0, h=48, w=64, ch=3):
    rng = np.random.RandomState(seed)
    base = rng.randint(0, 256, size=(h, w, ch)).astype(np.uint8)
    # smooth a bit so it's image-like
    sm = base.astype(np.float64)
    sm = (sm + np.roll(sm, 1, 0) + np.roll(sm, 1, 1)) / 3
    return sm.astype(np.uint8)


def test_png_roundtrip_rgb():
    img = _img(1)
    assert (png_decode(png_encode(img)) == img).all()


def test_png_roundtrip_gray_and_rgba():
    g = _img(2)[:, :, 0]
    assert (png_decode(png_encode(g)) == g).all()
    a = np.dstack([_img(3), _img(4)[:, :, :1]])
    assert (png_decode(png_encode(a)) == a).all()


def test_png_rejects_garbage():
    with pytest.raises(ValueError):
        png_decode(b"not a png at all")


def test_qimg_psnr_above_40db():
    img = _img(5)
    dec = qimg_decode(qimg_encode(img))
    assert dec.shape == img.shape
    p = psnr(img, dec)
    assert p >= 40.0, p


def test_decode_image_dispatch_and_stub():
    img = _img(6)
    assert (decode_image(encode_image(img, "png"), "png") == img).all()
    assert psnr(img, decode_image(encode_image(img, "jpeg"), "jpeg")) >= 40
    with pytest.raises(NotImplementedError):
        decode_image(b"xx", "gif")


def test_phash_locality():
    img = _img(7)
    h1 = phash64(img)
    assert h1 == phash64(img)
    # lossy roundtrip barely moves the hash
    dec = qimg_decode(qimg_encode(img))
    d_close = bin(h1 ^ phash64(dec)).count("1")
    assert d_close <= 8, d_close
    # different image is far
    d_far = bin(h1 ^ phash64(_img(8))).count("1")
    assert d_far > d_close


# --- kernel differential tests: the loop kernels the vectorized ones replaced


def _unfilter_ref(raw, h, w, ch):
    """The per-sample loop ``imaging._unfilter`` replaced."""
    stride = w * ch
    rows = raw.reshape(h, 1 + stride)
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ftype = rows[y, 0]
        line = rows[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 1:  # Sub
            cur = line.copy()
            for x in range(ch, stride):
                cur[x] = (cur[x] + cur[x - ch]) & 0xFF
        elif ftype == 2:  # Up
            cur = (line + prev) & 0xFF
        elif ftype == 3:  # Average
            cur = line.copy()
            for x in range(stride):
                a = cur[x - ch] if x >= ch else 0
                cur[x] = (cur[x] + ((a + prev[x]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            cur = line.copy()
            for x in range(stride):
                a = cur[x - ch] if x >= ch else 0
                b = prev[x]
                c = prev[x - ch] if x >= ch else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pr = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[x] = (cur[x] + pr) & 0xFF
        else:
            raise ValueError(f"bad filter {ftype}")
        out[y] = cur.astype(np.uint8)
    return out


def _phash64_ref(img):
    """``phash64`` as it was: ``np.add.at`` binning and a 63-step bit loop."""
    from spider_ray.kernels.imaging import _DCT_M, _DCT_N, _gray

    g = _gray(img)
    h, w = g.shape
    yi = (np.arange(h) * _DCT_N // max(h, 1)).clip(0, _DCT_N - 1)
    xi = (np.arange(w) * _DCT_N // max(w, 1)).clip(0, _DCT_N - 1)
    sums = np.zeros((_DCT_N, _DCT_N))
    cnts = np.zeros((_DCT_N, _DCT_N))
    flat_idx = (yi[:, None] * _DCT_N + xi[None, :]).ravel()
    np.add.at(sums.ravel(), flat_idx, g.ravel())
    np.add.at(cnts.ravel(), flat_idx, 1.0)
    small = sums / np.maximum(cnts, 1.0)
    D = _DCT_M @ small @ _DCT_M.T
    block = D[:8, :8].flatten()
    vals = np.delete(block, 0)
    med = np.median(vals)
    bits = vals > med
    out = 0
    for i, b in enumerate(bits):
        if b:
            out |= 1 << i
    return out


def _filter_rows(img, ftypes):
    """PNG scanlines (filter byte + filtered samples) of ``img`` with row y
    filtered by ``ftypes[y]``: the encoder side of every filter."""
    h, w = img.shape[:2]
    ch = 1 if img.ndim == 2 else img.shape[2]
    x = img.reshape(h, w * ch).astype(np.int32)
    up = np.vstack([np.zeros((1, w * ch), np.int32), x[:-1]])
    left = np.hstack([np.zeros((h, ch), np.int32), x[:, :-ch]])
    upleft = np.hstack([np.zeros((h, ch), np.int32), up[:, :-ch]])
    p = left + up - upleft
    pa, pb, pc = abs(p - left), abs(p - up), abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    pred = {0: 0 * x, 1: left, 2: up, 3: (left + up) >> 1, 4: paeth}
    raw = np.empty((h, 1 + w * ch), np.uint8)
    for y, f in enumerate(ftypes):
        raw[y, 0] = f
        raw[y, 1:] = (x[y] - pred[f][y]) & 0xFF
    return raw


def _png_with_filters(img, ftypes) -> bytes:
    """A valid PNG of ``img`` whose rows use the given filter types."""
    import struct
    import zlib

    from spider_ray.kernels.imaging import _PNG_SIG, _chunk

    h, w = img.shape[:2]
    color = 0 if img.ndim == 2 else {3: 2, 4: 6}[img.shape[2]]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    idat = zlib.compress(_filter_rows(img, ftypes).tobytes())
    return (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


@pytest.mark.parametrize("ch", [1, 3, 4])
@pytest.mark.parametrize("h,w", [(1, 1), (1, 9), (7, 1), (6, 11), (13, 5)])
def test_unfilter_equals_reference_loop(ch, h, w):
    from spider_ray.kernels.imaging import _unfilter

    rng = np.random.RandomState(h * 1000 + w * 10 + ch)
    for trial in range(6):
        raw = rng.randint(0, 256, size=(h, 1 + w * ch)).astype(np.uint8)
        # trial 0: all filter 0 (the one-slice path); then random mixes of
        # all five; trials 2-5 also a whole image of one filter type
        raw[:, 0] = 0 if trial == 0 else (
            rng.randint(0, 5, size=h) if trial == 1 else trial - 1
        )
        raw = raw.ravel()
        got = _unfilter(raw, h, w, ch)
        assert got.dtype == np.uint8 and got.shape == (h, w * ch)
        assert (got == _unfilter_ref(raw, h, w, ch)).all()


@pytest.mark.parametrize("ch", [1, 3, 4])
def test_png_every_filter_decodes_to_the_image(ch):
    rng = np.random.RandomState(ch)
    for h, w in ((1, 1), (1, 17), (23, 1), (20, 31)):
        img = rng.randint(0, 256, size=(h, w, ch)).astype(np.uint8)
        if ch == 1:
            img = img[:, :, 0]
        for ftypes in ([f] * h for f in range(5)):
            assert (png_decode(_png_with_filters(img, ftypes)) == img).all()
        mixed = rng.randint(0, 5, size=h).tolist()
        assert (png_decode(_png_with_filters(img, mixed)) == img).all()


def test_phash64_equals_reference_on_random_images():
    rng = np.random.RandomState(11)
    shapes = [(1, 1), (1, 5), (5, 1), (2, 3), (31, 33), (32, 32), (64, 64),
              (100, 70), (70, 100)]
    shapes += [tuple(rng.randint(1, 101, size=2)) for _ in range(25)]
    for h, w in shapes:
        for img in (rng.randint(0, 256, size=(h, w)).astype(np.uint8),
                    rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8),
                    _img(int(h * w), h, w)):
            assert phash64(img) == _phash64_ref(img)


@pytest.fixture(scope="module")
def webgen_images(tmp_path_factory):
    import pyarrow.parquet as pq

    from spider_ray.sources.webgen import generate

    d = str(tmp_path_factory.mktemp("imaging_webgen"))
    generate(d, n_pages=120, n_hosts=4, seed=5)
    rows = pq.read_table(f"{d}/images.parquet").to_pylist()
    assert {r["fmt"] for r in rows} == {"png", "jpeg"}
    return rows


def test_phash64_equals_reference_on_webgen_corpus(webgen_images):
    for r in webgen_images:
        img = decode_image(r["bytes"], r["fmt"])
        ph = phash64(img)
        assert ph == _phash64_ref(img)
        assert np.uint64(ph).astype(np.int64) == r["phash"]


def test_reencode_is_idempotent(webgen_images):
    """``process_image`` takes its phash from the first decode: that rests
    on decode(encode(decode(b))) == decode(b) for both codecs."""
    rng = np.random.RandomState(3)
    cases = [(r["bytes"], r["fmt"]) for r in webgen_images]
    for fmt in ("png", "qimg"):
        for h, w, ch in ((1, 1, 1), (3, 1, 3), (17, 29, 3), (9, 8, 4)):
            img = rng.randint(0, 256, size=(h, w, ch)).astype(np.uint8)
            cases.append((encode_image(img[:, :, 0] if ch == 1 else img, fmt),
                          fmt))
    for b, fmt in cases:
        once = decode_image(b, fmt)
        twice = decode_image(encode_image(once, fmt), fmt)
        assert twice.shape == once.shape and (twice == once).all()


# --- malformed input: a ValueError, at bounded cost


def _hostile_images() -> dict[str, tuple[bytes, str]]:
    """Named (bytes, fmt) images that must not decode."""
    import struct
    import zlib

    from spider_ray.kernels.imaging import _PNG_SIG, _QIMG_MAGIC, _chunk

    good = png_encode(_img(9, 16, 16))
    big = struct.pack(">IIBBBBB", 20000, 20000, 8, 2, 0, 0, 0)
    q = qimg_encode(_img(10, 8, 8))
    return {
        "truncated png": (good[:30], "png"),
        "png without IHDR": (
            _PNG_SIG + _chunk(b"IDAT", zlib.compress(b"\0" * 49))
            + _chunk(b"IEND", b""), "png"),
        "zeroed qimg header": (_QIMG_MAGIC + bytes(9) + b"garbage", "qimg"),
        "20000 x 20000 png over a small IDAT": (
            _PNG_SIG + _chunk(b"IHDR", big)
            + _chunk(b"IDAT", zlib.compress(b"\0" * 100))
            + _chunk(b"IEND", b""), "png"),
        "qimg payload of the wrong length": (
            q[:13] + zlib.compress(b"\1" * 100), "qimg"),
        "png IDAT longer than its header": (
            _PNG_SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0))
            + _chunk(b"IDAT", zlib.compress(b"\0" * 50))
            + _chunk(b"IEND", b""), "png"),
        "png with filter type 5": (
            _PNG_SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 1, 8, 0, 0, 0, 0))
            + _chunk(b"IDAT", zlib.compress(b"\5\0\0"))
            + _chunk(b"IEND", b""), "png"),
        "truncated qimg stream": (q[:-6], "qimg"),
        "qimg without a header": (_QIMG_MAGIC + b"\0\0", "qimg"),
    }


@pytest.mark.parametrize("name", sorted(_hostile_images()))
def test_malformed_image_raises_value_error(name):
    data, fmt = _hostile_images()[name]
    with pytest.raises(ValueError):
        decode_image(data, fmt)


def test_oversized_header_is_rejected_before_inflating(monkeypatch):
    import spider_ray.kernels.imaging as imaging

    def _no_inflate(*args):
        raise AssertionError("inflated an image past MAX_SAMPLES")

    monkeypatch.setattr(imaging, "_inflate", _no_inflate)
    data, fmt = _hostile_images()["20000 x 20000 png over a small IDAT"]
    with pytest.raises(ValueError, match="exceeds"):
        decode_image(data, fmt)
    side = int(np.sqrt(imaging.MAX_SAMPLES)) + 1
    with pytest.raises(ValueError, match="exceeds"):
        imaging.qimg_decode(imaging._QIMG_MAGIC + np.array(
            [side, side], ">u4").tobytes() + b"\1")


def test_process_image_returns_none_for_malformed_bytes():
    from spider_ray.stages.fetchsim import process_image

    for name, (data, fmt) in _hostile_images().items():
        row = {"image_id": name, "bytes": data, "w": 1, "h": 1, "fmt": fmt}
        assert process_image(row, "alt") is None, name
    row = {"image_id": "g", "bytes": b"GIF89a", "w": 1, "h": 1, "fmt": "gif"}
    assert process_image(row, "alt") is None
