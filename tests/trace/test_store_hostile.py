"""The UCWA2 decoder rejects hostile record bytes with its documented error.

``load_trace`` promises ``ValueError`` naming the file for malformed
input.  Each test corrupts one field of one record in a real
``random_trace`` file and checks every reader of the record section:
the full loader, the epoch iterator and the streaming span reader.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest

from repro.trace.store import (
    _HEADER,
    _REC,
    _RecordWalker,
    _skip_record,
    iter_trace_epochs,
    load_trace,
    save_trace,
    serialize_trace,
)
from repro.trace.stream import open_epoch_stream
from repro.workloads.fuzz import random_trace

#: Byte offsets of fields inside a record's ``<IQBIhh`` head.
KIND_AT = 12
FN_AT = 13
SYSCALL_AT = 17
MARKER_AT = 19


@pytest.fixture(scope="module")
def image():
    """A real trace's bytes and the file offset of every record."""
    data = serialize_trace(random_trace(5, target_records=800))
    walker = _RecordWalker(data, "<image>")
    walker.read_symbols()
    offsets = []
    for _ in range(walker.n_records):
        offsets.append(len(_HEADER) + walker.cur.pos)
        _skip_record(walker.cur)
    return data, offsets


def _field(data: bytes, record_at: int, index: int) -> int:
    return _REC.unpack_from(data, record_at)[index]


def _write(tmp_path, data: bytearray, name: str):
    path = tmp_path / name
    path.write_bytes(bytes(data))
    return path


def _assert_rejected(path, message: str) -> None:
    readers = (
        lambda: load_trace(path),
        lambda: list(iter_trace_epochs(path, 64)),
        lambda: open_epoch_stream(path).span(0, open_epoch_stream(path).n_records),
    )
    for read in readers:
        with pytest.raises(ValueError, match=message) as err:
            read()
        assert path.name in str(err.value)


def test_the_pristine_image_loads_and_round_trips(image, tmp_path):
    data, _ = image
    path = _write(tmp_path, bytearray(data), "good.ucwa")
    assert serialize_trace(load_trace(path)) == data


def test_marker_id_past_the_marker_table(image, tmp_path):
    data, offsets = image
    at = next(off for off in offsets if _field(data, off, 5) >= 0)
    bad = bytearray(data)
    struct.pack_into("<h", bad, at + MARKER_AT, 999)
    _assert_rejected(_write(tmp_path, bad, "marker.ucwa"), "marker id 999 is out of range")


def test_unknown_kind_byte(image, tmp_path):
    data, offsets = image
    bad = bytearray(data)
    bad[offsets[len(offsets) // 2] + KIND_AT] = 99
    _assert_rejected(_write(tmp_path, bad, "kind.ucwa"), "unknown instruction kind 99")


def test_function_id_past_the_symbol_table(image, tmp_path):
    data, offsets = image
    n_symbols = len(load_trace(_write(tmp_path, bytearray(data), "good.ucwa")).symbols)
    bad = bytearray(data)
    struct.pack_into("<I", bad, offsets[len(offsets) // 3] + FN_AT, n_symbols)
    _assert_rejected(
        _write(tmp_path, bad, "fn.ucwa"),
        f"function id {n_symbols} is out of range \\(the symbol table holds {n_symbols}\\)",
    )


@pytest.mark.parametrize("field_at,value,message", [
    (SYSCALL_AT, -2, "syscall field -2 is below -1"),
    (SYSCALL_AT, -32768, "syscall field -32768 is below -1"),
    (MARKER_AT, -5, "marker field -5 is below -1"),
])
def test_field_below_minus_one(image, tmp_path, field_at, value, message):
    data, offsets = image
    bad = bytearray(data)
    struct.pack_into("<h", bad, offsets[-1] + field_at, value)
    _assert_rejected(_write(tmp_path, bad, "field.ucwa"), message)


def test_record_section_cut_short(image, tmp_path):
    data, offsets = image
    for cut_at in (offsets[-1] + 5, offsets[-1] + _REC.size + 1):
        path = _write(tmp_path, bytearray(data[:cut_at]), f"cut{cut_at}.ucwa")
        _assert_rejected(path, "truncated")


def test_encoder_refuses_a_syscall_it_cannot_round_trip():
    store = random_trace(1, target_records=200)
    store.records()[3] = replace(store.records()[3], syscall=-1)
    with pytest.raises(ValueError, match="syscall number -1"):
        serialize_trace(store)


def test_save_then_load_is_identity(tmp_path):
    store = random_trace(8, target_records=500)
    path = tmp_path / "t.ucwa"
    save_trace(store, path)
    assert load_trace(path).records() == store.records()
