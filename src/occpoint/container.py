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
"""

from __future__ import annotations

import json
import math
import os
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


def _dtype_name(arr: np.ndarray) -> str:
    dt = arr.dtype.newbyteorder("<")
    if dt not in _DTYPE_NAMES:
        raise FormatError(f"unsupported dtype {arr.dtype}; use f32/f64/u32/u64")
    return _DTYPE_NAMES[dt]


def _pad_to(n: int, align: int = ALIGN) -> int:
    return (align - n % align) % align


def write_container(entries: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """Serialize named arrays (plus free-form JSON metadata) to bytes.

    Entry order is preserved; identical inputs produce identical bytes.
    """
    specs = []
    blobs = []
    for name, arr in entries.items():
        arr = np.asarray(arr)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)  # 0-d arrays would be promoted to 1-d
        dname = _dtype_name(arr)
        blobs.append(arr.astype(_DTYPES[dname], copy=False).tobytes())
        specs.append({"name": name, "dtype": dname, "shape": list(arr.shape)})

    # Two-pass layout: header length shifts offsets, so fix offsets relative to
    # a payload start we choose after measuring the header with placeholders.
    def build_header(offsets, crc):
        doc = dict(meta or {})
        doc["tensors"] = [
            {**spec, "offset": off} for spec, off in zip(specs, offsets)
        ]
        doc["crc32"] = crc
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    # Upper bound on header size using worst-case offset widths.
    fake = build_header([2**63] * len(specs), 2**32 - 1)
    payload_start = 16 + len(fake)
    payload_start += _pad_to(payload_start)

    offsets = []
    pos = payload_start
    payload = bytearray()
    for blob in blobs:
        pad = _pad_to(pos)
        payload += b"\x00" * pad
        pos += pad
        offsets.append(pos)
        payload += blob
        pos += len(blob)

    crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
    header = build_header(offsets, crc)
    header += b" " * (payload_start - 16 - len(header))

    out = bytearray()
    out += MAGIC
    out += np.uint32(VERSION).tobytes()
    out += np.uint64(len(header)).tobytes()
    out += header
    out += payload
    return bytes(out)


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


def read_container(data: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Parse container bytes back into (entries, metadata).

    Raises FormatError (with the offending byte offset) on any structural
    damage: bad magic, truncation, a malformed tensor table, overlapping or
    unaligned tensors, CRC mismatch, or shape/byte-length disagreement.
    """
    if len(data) < 16:
        raise FormatError(f"truncated container: {len(data)} bytes < 16-byte preamble at offset 0")
    if data[:4] != MAGIC:
        raise FormatError(f"magic mismatch at offset 0: {data[:4]!r}")
    version = int(np.frombuffer(data[4:8], dtype="<u4")[0])
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    header_len = int(np.frombuffer(data[8:16], dtype="<u8")[0])
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
    crc_actual = zlib.crc32(data[payload_start:]) & 0xFFFFFFFF
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
        arr = np.frombuffer(data, dtype=dt, count=count, offset=offset)
        entries[name] = arr.reshape(shape).copy()

    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise FormatError(f"tensors {n0!r} and {n1!r} overlap at offset {s1}")

    meta = {k: v for k, v in doc.items() if k not in ("tensors", "crc32")}
    return entries, meta


def write_atomic(path, data: bytes | str) -> None:
    """Write atomically: the bytes go to a temporary file beside `path`, which
    then replaces it, so a write that fails leaves an old file as it was."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_container_file(path, entries: dict[str, np.ndarray], meta: dict | None = None) -> None:
    write_atomic(path, write_container(entries, meta))


def read_container_file(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        return read_container(fh.read())
