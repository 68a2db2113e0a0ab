"""Chunked binary container for datasets, fixtures, and checkpoints.

Layout (all integers little-endian):

    bytes 0..3    magic b"OCCT"
    bytes 4..7    format version (u32)
    bytes 8..15   header length in bytes (u64)
    header        UTF-8 JSON: {"tensors": [{name, dtype, shape, offset}...],
                               "crc32": <payload checksum>, ...user fields...}
    payload       raw little-endian arrays; every tensor offset is an absolute
                  file offset divisible by 64

One format serves every artifact the pipeline writes, so there is a single
parser to test and fuzz.

Writing joins the file once, from the preamble, the header, the zero pads and
each array's bytes; the result is the only copy. Reading returns views of the
file's buffer, one buffer per file, which stays alive while any entry does.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"OCCT"
VERSION = 1
ALIGN = 64

_DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "u32": np.dtype("<u4"),
    "u64": np.dtype("<u8"),
}
_DTYPE_NAMES = {v: k for k, v in _DTYPES.items()}


def dtype_name(arr: np.ndarray) -> str:
    dt = arr.dtype.newbyteorder("<")
    if dt not in _DTYPE_NAMES:
        raise FormatError(f"unsupported dtype {arr.dtype}; use f32/f64/u32/u64")
    return _DTYPE_NAMES[dt]


def _pad_to(n: int, align: int = ALIGN) -> int:
    return (align - n % align) % align


def write_container(entries: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Serialize named arrays (plus free-form JSON metadata) to bytes.

    The layout comes from shapes and dtypes alone and the checksum reads each
    array in place, so the returned file is the one copy of the payload.
    Entry order is preserved; identical inputs produce identical bytes.
    """
    specs, arrays = [], []
    for name, arr in entries.items():
        arr = np.asarray(arr)
        dname = dtype_name(arr)
        specs.append({"name": name, "dtype": dname, "shape": list(arr.shape)})
        # A flat byte view: memoryview.cast rejects 0-d and empty arrays.
        arrays.append(np.ascontiguousarray(arr, _DTYPES[dname]).reshape(-1).view(np.uint8))

    def build_header(offsets, crc):
        doc = dict(meta or {})
        doc["tensors"] = [{**spec, "offset": off} for spec, off in zip(specs, offsets)]
        doc["crc32"] = crc
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    # The header's length shifts the offsets, so the payload starts after a
    # header measured with worst-case offset and checksum widths.
    payload_start = 16 + len(build_header([2**63] * len(specs), 2**32 - 1))
    payload_start += _pad_to(payload_start)
    parts, offsets, crc, pos = [], [], 0, payload_start
    for arr in arrays:
        pad = bytes(_pad_to(pos))
        crc = zlib.crc32(arr, zlib.crc32(pad, crc))
        offsets.append(pos + len(pad))
        pos = offsets[-1] + arr.size
        parts += (pad, arr)

    header = build_header(offsets, crc)
    header += b" " * (payload_start - 16 - len(header))
    return b"".join([struct.pack("<4sIQ", MAGIC, VERSION, len(header)), header, *parts])


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _tensor_spec(i: int, spec) -> tuple[str, str, tuple[int, ...], int]:
    """(name, dtype, shape, offset) of tensor table entry i, checked."""
    if not isinstance(spec, dict):
        raise FormatError(f"tensor entry {i} is not an object in the header at offset 16")
    name, dname = spec.get("name"), spec.get("dtype")
    shape, offset = spec.get("shape"), spec.get("offset")
    if not isinstance(name, str):
        raise FormatError(f"tensor entry {i} has no name in the header at offset 16")
    if not isinstance(dname, str) or dname not in _DTYPES:
        raise FormatError(f"tensor {name!r}: unknown dtype {dname!r}")
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise FormatError(f"tensor {name!r}: shape {shape!r} is not a list of counts")
    if not _is_count(offset):
        raise FormatError(f"tensor {name!r}: offset {offset!r} is not a count")
    return name, dname, tuple(shape), offset


def read_container(data: bytes | bytearray) -> tuple[dict[str, np.ndarray], dict]:
    """Parse container bytes back into (entries, metadata). The entries are
    views of `data`, writable when `data` is.

    Raises FormatError (with the offending byte offset) on any structural
    damage: bad magic, truncation, a malformed tensor table, overlapping or
    unaligned tensors, CRC mismatch, or shape/byte-length disagreement.
    """
    if len(data) < 16:
        raise FormatError(f"truncated container: {len(data)} bytes < 16-byte preamble at offset 0")
    magic, version, header_len = struct.unpack_from("<4sIQ", data)
    if magic != MAGIC:
        raise FormatError(f"magic mismatch at offset 0: {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    if 16 + header_len > len(data):
        raise FormatError(f"header extends past end of file at offset {len(data)}")
    try:
        doc = json.loads(data[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable header at offset 16: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("tensors"), list):
        raise FormatError("header missing 'tensors' table at offset 16")

    payload_start = 16 + header_len
    crc_stored = doc.get("crc32")
    crc_actual = zlib.crc32(memoryview(data)[payload_start:])
    if crc_stored != crc_actual:
        raise FormatError(
            f"payload checksum mismatch at offset {payload_start}: "
            f"stored {crc_stored}, actual {crc_actual}"
        )

    entries: dict[str, np.ndarray] = {}
    spans = []
    for i, spec in enumerate(doc["tensors"]):
        name, dname, shape, offset = _tensor_spec(i, spec)
        if name in entries:
            raise FormatError(f"tensor {name!r} listed twice in the header at offset 16")
        dt = _DTYPES[dname]
        count = math.prod(shape)
        nbytes = count * dt.itemsize
        if offset % ALIGN != 0:
            raise FormatError(f"tensor {name!r}: offset {offset} not {ALIGN}-byte aligned")
        if offset < payload_start or offset + nbytes > len(data):
            raise FormatError(f"tensor {name!r}: span [{offset}, {offset + nbytes}) out of bounds")
        spans.append((offset, offset + nbytes, name))
        entries[name] = np.frombuffer(data, dt, count, offset).reshape(shape)

    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise FormatError(f"tensors {n0!r} and {n1!r} overlap at offset {s1}")

    meta = {k: v for k, v in doc.items() if k not in ("tensors", "crc32")}
    return entries, meta


def write_atomic(path, data: bytes | str) -> None:
    """Write atomically: the bytes go to a temporary file beside `path`, which
    then replaces it, so a write that fails leaves an old file as it was. An
    OSError is raised again naming `path`, not the temporary file."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_container_file(path, entries: dict[str, np.ndarray], meta: dict | None = None) -> None:
    write_atomic(path, write_container(entries, meta))


def read_container_file(path) -> tuple[dict[str, np.ndarray], dict]:
    """read_container of the file at `path`, read into one writable buffer."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        got = fh.readinto(data)
    if got != len(data):
        raise FormatError(f"short read of {path}: {got} of {len(data)} bytes at offset {got}")
    return read_container(data)
