"""Flat named-array container used for checkpoints and test fixtures, and
the output-directory helper every writer of the package shares.

Layout (all integers little-endian):

    magic    b"NARR1\\0"
    u32      entry count
    entries  u32 name length, name (UTF-8), u8 dtype tag, u8 rank,
             u32 * rank dims, row-major payload

Dtype tags: 0 = float64, 1 = int64, 2 = uint8. Payloads are little-endian.
Entry order is preserved, so save -> load -> save is byte-identical.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"NARR1\x00"

_TAG_TO_DTYPE = {0: "<f8", 1: "<i8", 2: "u1"}
_KIND_TO_TAG = {"f": 0, "i": 1, "u": 2}


def make_dir(path):
    """Create directory `path` and any missing parents, and return it as a
    Path. A path that names an existing file, or lies under one, or that
    cannot be created, raises DataError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {path}: "
                        f"{exc.strerror or exc}") from exc
    return path


def write_arrays(path, arrays):
    """Write an ordered mapping of name -> ndarray to `path`.

    The bytes go to a sibling temp file that replaces `path` only once it is
    complete, so a failed write leaves any previous file at `path` intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                arr = np.asarray(arr)
                tag = _KIND_TO_TAG.get(arr.dtype.kind)
                if tag is None:
                    raise DataError(
                        f"unsupported dtype {arr.dtype} for entry {name!r}")
                arr = arr.astype(_TAG_TO_DTYPE[tag], copy=False)
                if not arr.flags["C_CONTIGUOUS"]:
                    arr = arr.copy()
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<BB", tag, arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_arrays(path):
    """Read a container back into an insertion-ordered dict of ndarrays."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise DataError(f"{path}: not a named-array container")
    off = len(MAGIC)

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise DataError(f"{path}: truncated at byte {off}")
        piece = blob[off:off + n]
        off += n
        return piece

    (count,) = struct.unpack("<I", take(4))
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: entry name at byte {off - name_len} "
                            f"is not UTF-8") from exc
        tag, rank = struct.unpack("<BB", take(2))
        if tag not in _TAG_TO_DTYPE:
            raise DataError(f"{path}: unknown dtype tag {tag} for {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        dtype = np.dtype(_TAG_TO_DTYPE[tag])
        payload = take(int(np.prod(dims, dtype=np.int64)) * dtype.itemsize)
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if off != len(blob):
        raise DataError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def str_to_array(text):
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).copy()


def array_to_str(arr):
    return arr.tobytes().decode("utf-8")
