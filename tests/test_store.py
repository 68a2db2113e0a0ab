import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest

from occpoint.container import (
    ALIGN,
    MAGIC,
    read_container,
    read_container_file,
    write_container,
    write_container_file,
)
from occpoint.errors import FormatError

from reference import write_container_reference


def sample_entries():
    rng = np.random.default_rng(0)
    return {
        "alpha": rng.normal(size=(3, 2)).astype(np.float32),
        "beta": rng.normal(size=(17,)).astype(np.float64),
        "gamma": rng.integers(0, 1000, size=(4, 4)).astype(np.uint32),
        "delta": rng.integers(0, 2**40, size=5).astype(np.uint64),
    }


def test_round_trip_bitwise_identity():
    entries = sample_entries()
    blob = write_container(entries, {"note": "fixture"})
    out, meta = read_container(blob)
    assert meta["note"] == "fixture"
    for name, arr in entries.items():
        assert out[name].dtype == arr.dtype
        assert out[name].shape == arr.shape
        assert out[name].tobytes() == arr.tobytes()


def test_write_is_deterministic():
    entries = sample_entries()
    assert write_container(entries, {"a": 1}) == write_container(entries, {"a": 1})


def test_empty_entry_list_round_trips():
    blob = write_container({}, {"kind": "header-only"})
    out, meta = read_container(blob)
    assert out == {}
    assert meta["kind"] == "header-only"


def test_offsets_are_aligned():
    blob = write_container(sample_entries())
    header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    doc = json.loads(blob[16 : 16 + header_len])
    for spec in doc["tensors"]:
        assert spec["offset"] % ALIGN == 0


def test_magic_mismatch_rejected():
    blob = bytearray(write_container(sample_entries()))
    blob[:4] = b"NOPE"
    with pytest.raises(FormatError, match="magic"):
        read_container(bytes(blob))


def test_truncated_payload_rejected():
    blob = write_container(sample_entries())
    with pytest.raises(FormatError):
        read_container(blob[:-1])


def test_corrupted_payload_rejected_by_checksum():
    blob = bytearray(write_container(sample_entries()))
    blob[-3] ^= 0xFF
    with pytest.raises(FormatError, match="checksum"):
        read_container(bytes(blob))


def test_overlapping_offsets_rejected():
    entries = {"a": np.zeros(4, dtype=np.float32), "b": np.ones(4, dtype=np.float32)}
    blob = bytearray(write_container(entries))
    header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    doc = json.loads(bytes(blob[16 : 16 + header_len]))
    doc["tensors"][1]["offset"] = doc["tensors"][0]["offset"]
    # Re-serialize header at the same length (pad with spaces).
    payload = bytes(blob[16 + header_len:])
    doc["crc32"] = __import__("zlib").crc32(payload) & 0xFFFFFFFF
    new_header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert len(new_header) <= header_len
    new_header += b" " * (header_len - len(new_header))
    blob[16 : 16 + header_len] = new_header
    with pytest.raises(FormatError, match="overlap"):
        read_container(bytes(blob))


def test_unknown_dtype_rejected():
    with pytest.raises(FormatError, match="dtype"):
        write_container({"x": np.zeros(3, dtype=np.int16)})


def test_short_preamble_rejected():
    with pytest.raises(FormatError):
        read_container(MAGIC)


def test_unknown_header_fields_preserved(tmp_path):
    path = tmp_path / "c.occt"
    write_container_file(path, {"x": np.arange(6, dtype=np.float32)},
                         {"custom": {"nested": [1, 2, 3]}, "tag": "keepme"})
    entries, meta = read_container_file(path)
    assert meta["custom"] == {"nested": [1, 2, 3]}
    assert meta["tag"] == "keepme"
    # round trip the whole thing again, bitwise
    blob1 = path.read_bytes()
    write_container_file(path, entries, meta)
    assert path.read_bytes() == blob1


def rewrite_header(blob: bytes, edit) -> bytes:
    """`blob` with its JSON header passed through edit(doc), at the same length."""
    header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    doc = json.loads(blob[16 : 16 + header_len])
    edit(doc)
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert len(header) <= header_len
    return blob[:16] + header + b" " * (header_len - len(header)) + blob[16 + header_len:]


def drop(key):
    return lambda doc: doc["tensors"][0].pop(key)


def put(key, value):
    return lambda doc: doc["tensors"][0].__setitem__(key, value)


def set_tensors(value):
    return lambda doc: doc.__setitem__("tensors", value)


@pytest.mark.parametrize("edit", [
    pytest.param(drop("shape"), id="no-shape"),
    pytest.param(drop("name"), id="no-name"),
    pytest.param(drop("dtype"), id="no-dtype"),
    pytest.param(drop("offset"), id="no-offset"),
    pytest.param(put("shape", [-3, 2]), id="negative-dim"),
    pytest.param(put("shape", 6), id="int-shape"),
    pytest.param(put("shape", [3.0, 2]), id="float-dim"),
    pytest.param(put("shape", [True, 2]), id="bool-dim"),
    pytest.param(put("shape", ["3", 2]), id="string-dim"),
    pytest.param(put("shape", [3, None]), id="null-dim"),
    pytest.param(put("shape", [2**70, 2**70]), id="huge-dims"),
    pytest.param(put("name", 7), id="int-name"),
    pytest.param(put("dtype", ["f32"]), id="list-dtype"),
    pytest.param(put("dtype", {"a": 1}), id="object-dtype"),
    pytest.param(put("offset", -64), id="negative-offset"),
    pytest.param(put("offset", 64.0), id="float-offset"),
    pytest.param(put("offset", "64"), id="string-offset"),
    pytest.param(set_tensors(5), id="int-tensors"),
    pytest.param(set_tensors({"alpha": 1}), id="object-tensors"),
    pytest.param(lambda doc: doc["tensors"].append(7), id="int-entry"),
    pytest.param(lambda doc: doc["tensors"].append(dict(doc["tensors"][0])), id="duplicate"),
    pytest.param(lambda doc: doc.pop("tensors"), id="no-tensors"),
])
def test_malformed_tensor_table_rejected(edit):
    blob = rewrite_header(write_container(sample_entries()), edit)
    with pytest.raises(FormatError):
        read_container(blob)


def test_v1_layout_unchanged():
    entries = {"x": np.arange(3, dtype=np.float32)}
    blob = write_container(entries, {"k": 1})
    assert blob[:4] == MAGIC
    assert int(np.frombuffer(blob[4:8], dtype="<u4")[0]) == 1
    header_len = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    doc = json.loads(blob[16 : 16 + header_len])
    assert doc["tensors"] == [{"dtype": "f32", "name": "x", "offset": 16 + header_len,
                               "shape": [3]}]
    assert (16 + header_len) % ALIGN == 0
    assert blob[16 + header_len:] == entries["x"].tobytes()


def test_byte_mutations_raise_format_error_or_parse():
    blob = write_container(sample_entries(), {"note": "fixture", "step": 3})
    header_end = 16 + int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    rng = np.random.Generator(np.random.PCG64(20240))
    parsed = rejected = 0
    for trial in range(3000):
        data = bytearray(blob)
        # Two thirds of the mutations land in the preamble and header.
        end = header_end if trial % 3 else len(blob)
        for _ in range(rng.integers(1, 4)):
            data[rng.integers(0, end)] = rng.integers(0, 256)
        try:
            read_container(bytes(data))
        except FormatError:
            rejected += 1
        else:
            parsed += 1
    assert rejected > 1000 and parsed > 0


def test_failed_write_leaves_old_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "c.occt"
    write_container_file(path, {"x": np.arange(4, dtype=np.float32)})
    before = path.read_bytes()
    with pytest.raises(FormatError):
        write_container_file(path, {"x": np.zeros(3, dtype=np.int16)})

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("occpoint.container.os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_container_file(path, {"x": np.ones(8, dtype=np.float64)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.occt"]


def test_write_replaces_existing_file(tmp_path):
    path = tmp_path / "c.occt"
    write_container_file(path, {"x": np.arange(4, dtype=np.float32)})
    write_container_file(path, {"y": np.ones(2, dtype=np.float64)}, {"tag": 1})
    entries, meta = read_container_file(path)
    assert list(entries) == ["y"] and meta == {"tag": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["c.occt"]


def oracle_entries():
    rng = np.random.default_rng(5)
    square = rng.normal(size=(5, 7))
    return {
        "scalar": np.float64(2.5),
        "scalar_u32": np.array(7, dtype=np.uint32),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "transposed": square.T,
        "strided": np.arange(40, dtype=np.uint64)[::2],
        "big_endian": rng.normal(size=(3, 4)).astype(">f8"),
        "f32": rng.normal(size=(9,)).astype(np.float32),
        "u32": rng.integers(0, 2**32, size=(2, 3)).astype(np.uint32),
        "u64": rng.integers(0, 2**63, size=11).astype(np.uint64),
    }


@pytest.mark.parametrize("meta", [None, {"note": "fixture", "step": 3, "nested": {"a": [1]}}])
def test_writer_matches_the_blob_oracle_byte_for_byte(meta):
    entries = oracle_entries()
    blob = write_container(entries, meta)
    assert blob == write_container_reference(entries, meta)
    for name, arr in entries.items():
        assert write_container({name: arr}, meta) == write_container_reference({name: arr}, meta)
    out, _ = read_container(blob)
    for name, arr in entries.items():
        assert out[name].shape == np.shape(arr)
        assert np.array_equal(out[name], arr), name


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_and_read_peak_at_about_one_file_size(tmp_path):
    entries = {"big": np.random.default_rng(0).normal(size=2 * 1024 * 1024),
               "small": np.arange(5, dtype=np.float32)}
    blob, write_peak = traced_peak(lambda: write_container(entries, {"k": 1}))
    assert write_peak <= 1.25 * len(blob)
    path = tmp_path / "c.occt"
    path.write_bytes(blob)
    del blob
    (out, _), read_peak = traced_peak(lambda: read_container_file(path))
    assert read_peak <= 1.25 * path.stat().st_size
    assert np.array_equal(out["big"], entries["big"])


def test_entries_of_one_file_are_writable_and_do_not_alias(tmp_path):
    path = tmp_path / "c.occt"
    write_container_file(path, sample_entries())
    entries, _ = read_container_file(path)
    for arr in entries.values():
        assert arr.flags.writeable
    for a, b in itertools.combinations(entries.values(), 2):
        assert not np.shares_memory(a, b)
    before = {k: v.copy() for k, v in entries.items()}
    entries["alpha"][...] = 0
    for name in ("beta", "gamma", "delta"):
        assert np.array_equal(entries[name], before[name])


def test_short_read_rejected(tmp_path, monkeypatch):
    path = tmp_path / "c.occt"
    write_container_file(path, sample_entries())
    size = path.stat().st_size
    real_fstat = os.fstat

    def grown(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 64, *st[7:]))

    monkeypatch.setattr("occpoint.container.os.fstat", grown)
    with pytest.raises(FormatError, match=f"short read of .*: {size} of {size + 64} bytes"):
        read_container_file(path)
