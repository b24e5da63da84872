"""Binary netpbm io: PPM (color) and PBM (bitmask) read and write, PGM
(grayscale) write."""

import numpy as np

from .errors import DataError


def _read(path, magic, fields):
    """The header fields and the payload bytes of the netpbm file at path."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not blob.startswith(magic):
        raise DataError(f"{path}: expected {magic!r} header")
    vals, pos = [], 2
    while len(vals) < fields:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment line
            pos = blob.find(b"\n", pos) + 1
            if not pos:
                raise DataError(f"{path}: header comment has no line end")
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if not blob[start:pos].isdigit():
            raise DataError(f"{path}: bad header field {blob[start:pos]!r}")
        vals.append(int(blob[start:pos]))
    return vals, memoryview(blob)[pos + 1:]  # single whitespace after last field


def _take(path, payload, count):
    if len(payload) < count:
        raise DataError(f"{path}: truncated, {len(payload)} of {count} "
                        f"payload bytes")
    return np.frombuffer(payload, dtype=np.uint8, count=count)


def write_ppm(path, rgb):
    """rgb: (h, w, 3) uint8."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(rgb.tobytes())


def read_ppm(path):
    (w, h, maxval), payload = _read(path, b"P6", 3)
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    return _take(path, payload, h * w * 3).reshape(h, w, 3).copy()


def write_pbm(path, mask):
    """mask: (h, w) bool; 1 bits are foreground, rows padded to whole bytes."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    packed = np.packbits(mask, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode())
        fh.write(packed.tobytes())


def read_pbm(path):
    (w, h), payload = _read(path, b"P4", 2)
    row_bytes = (w + 7) // 8
    data = _take(path, payload, h * row_bytes)
    bits = np.unpackbits(data.reshape(h, row_bytes), axis=1)[:, :w]
    return bits.astype(bool)


def write_pgm(path, gray):
    """gray: (h, w) floats in [0, 1] or uint8."""
    gray = np.asarray(gray)
    if gray.dtype != np.uint8:
        gray = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(gray.tobytes())

