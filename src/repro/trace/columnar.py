"""UCWA3: columnar (struct-of-arrays) trace format.

The row-oriented UCWA1/2 encodings interleave every record's fields, so
any analysis pays full per-record Python decode costs even when it only
needs one column.  UCWA3 stores the same logical trace as flat typed
arrays — one array per fixed-width field, plus shared offset+value pools
for the variable-length operand lists — so the vectorized slicer
(:mod:`repro.profiler.vectorized`) can run batch array joins instead of
per-record dict chasing, and epoch sharding hands workers zero-copy array
views.

File layout::

    b"UCWA3\\n"
    u32 section_count
    section_count x (4-byte tag, u64 offset, u64 length)   # section table
    ... section payloads ...

Sections (offsets absolute, lengths exact; unknown tags are ignored so
the format is forward-extensible):

==========  ==========================================================
``SYMS``    symbol names, intern order (u32 count; u16 len + utf-8 each)
``MRKS``    marker names, first-use order (u32 count; u16 len + utf-8)
``CORE``    u64 n_records + 6 adaptive-width arrays: tid, pc, kind, fn,
            syscall+1 (0 = none), marker_id+1 (0 = none)
``REGR``    per-record regs-read counts array + flat values array
``REGW``    same for regs written
``MEMR``    per-record mem-read counts array + flat address array
``MEMW``    same for mem written
``META``    metadata tail, byte-identical to the canonical UCWA2
            metadata encoding (thread names, tile buffers,
            load-complete index, frame spans)
``INVT``    *derived, optional*: per-record invocation id + per-
            invocation CALL/RET indices and function symbol
``EDGE``    *derived, optional*: the default-options dependence-edge
            stream, sorted by descending source record
==========  ==========================================================

Arrays use an adaptive integer width (u8/u16/u32/u64, whichever fits the
maximum value), which keeps a v3 file at or below its v2 size even with
the derived sections included.  Every array is decoded zero-copy with
``np.frombuffer`` over one ``mmap`` of the file, so loading is O(sections)
and epoch slicing is pure array slicing.

The ``INVT``/``EDGE`` sections cache what the vectorized slicer would
otherwise derive on first use (see
:func:`repro.profiler.vectorized.attach_index`); they are excluded from
:func:`repro.trace.store.trace_digest`, which always hashes the canonical
UCWA2 image — so digests are format-invariant and service cache keys do
not churn when a trace is converted.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .records import FrameSpan, TraceRecord, TraceMetadata
from .store import (
    TraceStore,
    _Cursor,
    _encode_metadata,
    _HEADER_V3,
    _KINDS,
    _RecordWalker,
    epoch_bounds,
)
from .symbols import SymbolTable

_SECTION = struct.Struct("<4sQQ")  # tag, absolute offset, length
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_ARR_HEAD = struct.Struct("<BQ")  # width code, element count

_DTYPES: Dict[int, type] = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Sections a well-formed v3 file must carry (derived sections are optional).
_REQUIRED = (b"SYMS", b"MRKS", b"CORE", b"REGR", b"REGW", b"MEMR", b"MEMW", b"META")


def _pack_array(values: np.ndarray) -> bytes:
    """Encode an integer array at the narrowest width that fits it."""
    maxv = int(values.max()) if len(values) else 0
    if maxv < (1 << 8):
        width = 1
    elif maxv < (1 << 16):
        width = 2
    elif maxv < (1 << 32):
        width = 4
    else:
        width = 8
    arr = np.ascontiguousarray(values, dtype=_DTYPES[width])
    return _ARR_HEAD.pack(width, len(arr)) + arr.tobytes()


class _SectionCursor:
    """Bounds-checked reader over one section's buffer slice."""

    def __init__(self, buf, start: int, end: int, label: str) -> None:
        self.buf = buf
        self.pos = start
        self.end = end
        self.label = label

    def _need(self, n: int) -> None:
        if self.pos + n > self.end:
            raise ValueError(
                f"{self.label}: truncated section "
                f"(need {n} bytes at offset {self.pos}, section ends at {self.end})"
            )

    def take(self, st: struct.Struct):
        self._need(st.size)
        values = st.unpack_from(self.buf, self.pos)
        self.pos += st.size
        return values

    def take_bytes(self, n: int) -> bytes:
        self._need(n)
        raw = bytes(self.buf[self.pos : self.pos + n])
        self.pos += n
        return raw

    def take_array(self) -> np.ndarray:
        width, count = self.take(_ARR_HEAD)
        dtype = _DTYPES.get(width)
        if dtype is None:
            raise ValueError(
                f"{self.label}: bad array width code {width} at offset {self.pos}"
            )
        nbytes = width * count
        self._need(nbytes)
        arr = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        self.pos += nbytes
        return arr


@dataclass
class SliceIndex:
    """Derived dependence structure cached in a v3 file (``INVT``/``EDGE``).

    Attributes:
        inv_id: per-record invocation id (-1 for none; RETs carry the
            invocation they close).
        inv_call: per-invocation CALL record index (-1 when the call lies
            before the trace window / thread root).
        inv_ret: per-invocation RET record index (-1 when truncated).
        inv_fn: per-invocation function symbol (-1 when never observed).
        edge_src: dependence-edge source record indices, **descending**.
        edge_tgt: matching targets; every target is strictly below its
            source, which is what makes the single-pass closure sweep of
            the vectorized engine correct.

    The edge stream is the *default-options* stream (control and
    call-site dependences enabled, merged with data/register edges and
    deduplicated); ablation runs rebuild their own stream from columns.
    """

    inv_id: np.ndarray
    inv_call: np.ndarray
    inv_ret: np.ndarray
    inv_fn: np.ndarray
    edge_src: np.ndarray
    edge_tgt: np.ndarray

    def n_edges(self) -> int:
        return len(self.edge_src)


class ColumnarTrace:
    """A trace as flat typed arrays (the UCWA3 in-memory model).

    Satisfies the read-side :class:`~repro.trace.store.TraceStore` API the
    profiler stack consumes — ``forward()``, ``records()``, ``span()``,
    indexing, ``metadata``, ``symbols`` — by materializing
    :class:`TraceRecord` objects on demand, while exposing the raw columns
    (``tid``, ``pc``, ``kind``, ``fn`` …) and operand pools for vectorized
    consumers.  Columns loaded from disk are read-only views into the
    file's mmap.
    """

    def __init__(
        self,
        symbols: SymbolTable,
        metadata: TraceMetadata,
        markers: List[str],
        tid: np.ndarray,
        pc: np.ndarray,
        kind: np.ndarray,
        fn: np.ndarray,
        syscall1: np.ndarray,
        marker1: np.ndarray,
        rr_off: np.ndarray,
        rr: np.ndarray,
        rw_off: np.ndarray,
        rw: np.ndarray,
        mr_off: np.ndarray,
        mr: np.ndarray,
        mw_off: np.ndarray,
        mw: np.ndarray,
        index: Optional[SliceIndex] = None,
        source_path: Optional[str] = None,
    ) -> None:
        self.symbols = symbols
        self.metadata = metadata
        self.markers = markers
        self.tid = tid
        self.pc = pc
        self.kind = kind
        self.fn = fn
        self.syscall1 = syscall1
        self.marker1 = marker1
        self.rr_off = rr_off
        self.rr = rr
        self.rw_off = rw_off
        self.rw = rw
        self.mr_off = mr_off
        self.mr = mr
        self.mw_off = mw_off
        self.mw = mw
        self.index = index
        self.source_path = source_path
        self._materialized: Optional[List[TraceRecord]] = None
        #: lazily built nearest-preceding-writer tables (see
        #: repro.profiler.vectorized); cached per trace because they are
        #: criteria-independent.
        self._writer_tables: Dict[str, tuple] = {}

    # -- core protocol -------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.tid)

    def _record_at(self, i: int) -> TraceRecord:
        syscall1 = int(self.syscall1[i])
        marker1 = int(self.marker1[i])
        return TraceRecord(
            tid=int(self.tid[i]),
            pc=int(self.pc[i]),
            kind=_KINDS[self.kind[i]],
            fn=int(self.fn[i]),
            regs_read=tuple(
                self.rr[self.rr_off[i] : self.rr_off[i + 1]].tolist()
            ),
            regs_written=tuple(
                self.rw[self.rw_off[i] : self.rw_off[i + 1]].tolist()
            ),
            mem_read=tuple(self.mr[self.mr_off[i] : self.mr_off[i + 1]].tolist()),
            mem_written=tuple(
                self.mw[self.mw_off[i] : self.mw_off[i + 1]].tolist()
            ),
            syscall=None if syscall1 == 0 else syscall1 - 1,
            marker=None if marker1 == 0 else self.markers[marker1 - 1],
        )

    def __getitem__(self, i: int) -> TraceRecord:
        if self._materialized is not None:
            return self._materialized[i]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self._record_at(i)

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        """Materialize records ``[lo, hi)`` from column views (batch path).

        One ``.tolist()`` per column slice, then one ``map`` over the
        columns builds every record with no Python code per record but
        the syscall field: kinds and markers map through tables, and each
        operand list is a slice of one tuple per pool.  The parallel
        engine's epoch workers call this on their ``[lo, hi)`` views.
        """
        if self._materialized is not None:
            return self._materialized[lo:hi]

        def operands(off: np.ndarray, flat: np.ndarray):
            bounds = off[lo : hi + 1]
            values = tuple(flat[bounds[0] : bounds[-1]].tolist())
            bounds = (bounds - bounds[0]).tolist()
            return map(values.__getitem__, map(slice, bounds, bounds[1:]))

        markers = (None, *self.markers)
        return list(map(
            TraceRecord,
            self.tid[lo:hi].tolist(),
            self.pc[lo:hi].tolist(),
            map(_KINDS.__getitem__, self.kind[lo:hi].tolist()),
            self.fn[lo:hi].tolist(),
            operands(self.rr_off, self.rr),
            operands(self.rw_off, self.rw),
            operands(self.mr_off, self.mr),
            operands(self.mw_off, self.mw),
            [None if s == 0 else s - 1 for s in self.syscall1[lo:hi].tolist()],
            map(markers.__getitem__, self.marker1[lo:hi].tolist()),
        ))

    def records(self) -> List[TraceRecord]:
        """Full materialized record list (cached after first call)."""
        if self._materialized is None:
            self._materialized = self.span(0, len(self))
        return self._materialized

    def forward(self) -> Iterator[TraceRecord]:
        """Iterate records in execution order (materializing in batches)."""
        if self._materialized is not None:
            return iter(self._materialized)
        return self._forward_batched()

    def _forward_batched(self, batch: int = 8192) -> Iterator[TraceRecord]:
        for lo, hi in epoch_bounds(len(self), batch):
            yield from self.span(lo, hi)

    def backward(self) -> Iterator[TraceRecord]:
        return reversed(self.records())

    def iter_epochs(
        self, epoch_size: int
    ) -> Iterator[Tuple[int, int, List[TraceRecord]]]:
        for lo, hi in epoch_bounds(len(self), epoch_size):
            yield lo, hi, self.span(lo, hi)

    def thread_ids(self) -> List[int]:
        return np.unique(self.tid).tolist()

    def frame_spans(self) -> List[FrameSpan]:
        return self.metadata.complete_frames()

    def instructions_per_thread(self) -> dict:
        utid, counts = np.unique(self.tid, return_counts=True)
        return dict(zip(utid.tolist(), counts.tolist()))

    def thread_slice_counts(self, flags) -> Tuple[dict, dict]:
        """Vectorized per-thread (total, in-slice) record counts.

        Fast path for :func:`repro.profiler.stats.compute_statistics`:
        two ``bincount`` calls instead of a Python pass over every record.
        """
        utid, inverse, counts = np.unique(
            self.tid, return_inverse=True, return_counts=True
        )
        tids = utid.tolist()
        totals = dict(zip(tids, counts.tolist()))
        flagged = np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)
        in_slice = np.bincount(inverse[flagged], minlength=len(utid))
        sliced = {
            tid: int(count)
            for tid, count in zip(tids, in_slice.tolist())
            if count
        }
        return totals, sliced

    # -- conversions ---------------------------------------------------- #

    @staticmethod
    def from_store(store: TraceStore) -> "ColumnarTrace":
        """Build columns from an in-memory row store.

        Marker ids are assigned in first-use order — the same rule as the
        canonical serializer — so a v2 → v3 → v2 round trip is
        byte-identical.
        """
        records = store.records()
        n = len(records)
        tid = np.fromiter((r.tid for r in records), np.int64, n)
        pc = np.fromiter((r.pc for r in records), np.uint64, n)
        kind = np.fromiter((int(r.kind) for r in records), np.uint8, n)
        fn = np.fromiter((r.fn for r in records), np.int64, n)
        syscall1 = np.fromiter(
            (0 if r.syscall is None else r.syscall + 1 for r in records),
            np.int64,
            n,
        )
        markers: List[str] = []
        marker_ids: Dict[str, int] = {}
        marker1 = np.zeros(n, np.int64)
        for i, r in enumerate(records):
            if r.marker is not None:
                mid = marker_ids.get(r.marker)
                if mid is None:
                    mid = len(markers)
                    markers.append(r.marker)
                    marker_ids[r.marker] = mid
                marker1[i] = mid + 1

        def pool(getter, dtype):
            counts = np.fromiter((len(getter(r)) for r in records), np.int64, n)
            off = np.zeros(n + 1, np.int64)
            np.cumsum(counts, out=off[1:])
            flat = np.fromiter(
                (v for r in records for v in getter(r)), dtype, int(off[-1])
            )
            return off, flat

        rr_off, rr = pool(lambda r: r.regs_read, np.uint8)
        rw_off, rw = pool(lambda r: r.regs_written, np.uint8)
        mr_off, mr = pool(lambda r: r.mem_read, np.uint64)
        mw_off, mw = pool(lambda r: r.mem_written, np.uint64)
        return ColumnarTrace(
            symbols=store.symbols,
            metadata=store.metadata,
            markers=markers,
            tid=tid,
            pc=pc,
            kind=kind,
            fn=fn,
            syscall1=syscall1,
            marker1=marker1,
            rr_off=rr_off,
            rr=rr,
            rw_off=rw_off,
            rw=rw,
            mr_off=mr_off,
            mr=mr,
            mw_off=mw_off,
            mw=mw,
        )

    def to_store(self) -> TraceStore:
        """Materialize a row-oriented :class:`TraceStore` (shares symbols
        and metadata objects with this trace)."""
        store = TraceStore(self.symbols, self.metadata)
        store.extend(self.records())
        return store


# --------------------------------------------------------------------- #
# Writer                                                                #
# --------------------------------------------------------------------- #


def _encode_names(names: List[str], count_st: struct.Struct) -> bytes:
    chunks = [count_st.pack(len(names))]
    for name in names:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)) + raw)
    return b"".join(chunks)


def serialize_columnar(trace: ColumnarTrace) -> bytes:
    """UCWA3 byte image of a columnar trace (index sections if attached)."""
    n = len(trace)
    counts = lambda off: np.diff(off)  # noqa: E731 - tiny local helper

    sections: List[Tuple[bytes, bytes]] = [
        (b"SYMS", _encode_names([name for _, name in trace.symbols], _U32)),
        (b"MRKS", _encode_names(trace.markers, _U32)),
        (
            b"CORE",
            _U64.pack(n)
            + _pack_array(trace.tid)
            + _pack_array(trace.pc)
            + _pack_array(trace.kind)
            + _pack_array(trace.fn)
            + _pack_array(trace.syscall1)
            + _pack_array(trace.marker1),
        ),
        (b"REGR", _pack_array(counts(trace.rr_off)) + _pack_array(trace.rr)),
        (b"REGW", _pack_array(counts(trace.rw_off)) + _pack_array(trace.rw)),
        (b"MEMR", _pack_array(counts(trace.mr_off)) + _pack_array(trace.mr)),
        (b"MEMW", _pack_array(counts(trace.mw_off)) + _pack_array(trace.mw)),
        (b"META", _encode_metadata(trace.metadata)),
    ]

    index = trace.index
    if index is not None:
        sections.append(
            (
                b"INVT",
                _U64.pack(n)
                + _pack_array(index.inv_id + 1)
                + _U64.pack(len(index.inv_call))
                + _pack_array(index.inv_call + 1)
                + _pack_array(index.inv_ret + 1)
                + _pack_array(index.inv_fn + 1),
            )
        )
        # Edge stream: per-source counts (ascending source order) plus
        # source-minus-target deltas in the stored (descending-source)
        # stream order.  Deltas are strictly positive because every edge
        # points to a lower index, so they pack tighter than raw targets.
        edge_counts = np.bincount(
            index.edge_src, minlength=n
        ) if n else np.zeros(0, np.int64)
        deltas = index.edge_src - index.edge_tgt
        sections.append(
            (
                b"EDGE",
                _U64.pack(n)
                + _U64.pack(len(index.edge_src))
                + _pack_array(edge_counts)
                + _pack_array(deltas),
            )
        )

    header = bytearray(_HEADER_V3)
    header += _U32.pack(len(sections))
    table_pos = len(header)
    header += b"\x00" * (_SECTION.size * len(sections))
    offset = len(header)
    payloads: List[bytes] = []
    for i, (tag, payload) in enumerate(sections):
        _SECTION.pack_into(header, table_pos + i * _SECTION.size, tag, offset, len(payload))
        payloads.append(payload)
        offset += len(payload)
    return bytes(header) + b"".join(payloads)


def save_columnar(trace: ColumnarTrace, path: Union[str, Path]) -> None:
    """Write a trace in UCWA3 form."""
    Path(path).write_bytes(serialize_columnar(trace))


# --------------------------------------------------------------------- #
# Reader                                                                #
# --------------------------------------------------------------------- #


def _read_section_table(buf, size: int, path: str) -> Dict[bytes, Tuple[int, int]]:
    if size < len(_HEADER_V3) or bytes(buf[: len(_HEADER_V3)]) != _HEADER_V3:
        raise ValueError(f"{path}: not a UCWA trace file")
    pos = len(_HEADER_V3)
    if pos + _U32.size > size:
        raise ValueError(f"{path}: truncated section table")
    (n_sections,) = _U32.unpack_from(buf, pos)
    pos += _U32.size
    table_end = pos + n_sections * _SECTION.size
    if table_end > size:
        raise ValueError(
            f"{path}: truncated section table "
            f"({n_sections} sections declared, file is {size} bytes)"
        )
    table: Dict[bytes, Tuple[int, int]] = {}
    for i in range(n_sections):
        tag, offset, length = _SECTION.unpack_from(buf, pos + i * _SECTION.size)
        if offset + length > size or offset < table_end:
            raise ValueError(
                f"{path}: section {tag.decode('ascii', 'replace')!r} "
                f"has bad extent (offset={offset}, length={length}, "
                f"file size={size})"
            )
        table[tag] = (offset, length)
    for tag in _REQUIRED:
        if tag not in table:
            raise ValueError(
                f"{path}: missing required section {tag.decode('ascii')!r}"
            )
    return table


def _decode_names(cur: _SectionCursor) -> List[str]:
    (count,) = cur.take(_U32)
    names: List[str] = []
    for _ in range(count):
        (length,) = cur.take(struct.Struct("<H"))
        names.append(cur.take_bytes(length).decode("utf-8"))
    return names


def _offsets(counts: np.ndarray) -> np.ndarray:
    off = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _pool_sections(cur: _SectionCursor, n: int, tag: str, path: str):
    counts = cur.take_array()
    if len(counts) != n:
        raise ValueError(
            f"{path}: section {tag} holds {len(counts)} counts "
            f"for {n} records"
        )
    off = _offsets(counts)
    flat = cur.take_array()
    if len(flat) != int(off[-1]):
        raise ValueError(
            f"{path}: section {tag} pool length {len(flat)} "
            f"!= counts total {int(off[-1])}"
        )
    return off, flat


def parse_columnar(buf, path: str = "<bytes>") -> ColumnarTrace:
    """Decode a UCWA3 image from a buffer (bytes or mmap), zero-copy."""
    size = len(buf)
    table = _read_section_table(buf, size, path)

    def section(tag: bytes) -> _SectionCursor:
        offset, length = table[tag]
        return _SectionCursor(
            buf, offset, offset + length, f"{path}[{tag.decode('ascii')}]"
        )

    symbols = SymbolTable()
    for name in _decode_names(section(b"SYMS")):
        symbols.intern(name)
    markers = _decode_names(section(b"MRKS"))

    core = section(b"CORE")
    (n,) = core.take(_U64)
    tid = core.take_array()
    pc = core.take_array()
    kind = core.take_array()
    fn = core.take_array()
    syscall1 = core.take_array()
    marker1 = core.take_array()
    for name, col in (
        ("tid", tid), ("pc", pc), ("kind", kind),
        ("fn", fn), ("syscall", syscall1), ("marker", marker1),
    ):
        if len(col) != n:
            raise ValueError(
                f"{path}: CORE column {name} holds {len(col)} values "
                f"for {n} records"
            )

    # Columns that index a table: a value past it would fail only when a
    # record is rebuilt, far from the file, so refuse it here.
    for name, col, limit in (
        ("kind", kind, len(_KINDS)),
        ("fn", fn, len(symbols)),
        ("marker", marker1, len(markers) + 1),  # marker id + 1; 0 = none
    ):
        if n and int(col.max()) >= limit:
            bad = int(np.argmax(col >= limit))
            raise ValueError(
                f"{path}: CORE column {name} value {int(col[bad])} at record "
                f"{bad} is out of range (must be below {limit})"
            )

    rr_off, rr = _pool_sections(section(b"REGR"), n, "REGR", path)
    rw_off, rw = _pool_sections(section(b"REGW"), n, "REGW", path)
    mr_off, mr = _pool_sections(section(b"MEMR"), n, "MEMR", path)
    mw_off, mw = _pool_sections(section(b"MEMW"), n, "MEMW", path)

    metadata = TraceMetadata()
    meta_off, meta_len = table[b"META"]
    meta_walker = _Cursor(bytes(buf[meta_off : meta_off + meta_len]), label=path)
    _decode_meta(meta_walker, metadata)

    index: Optional[SliceIndex] = None
    if b"INVT" in table and b"EDGE" in table:
        index = _decode_index(section(b"INVT"), section(b"EDGE"), n, path)

    return ColumnarTrace(
        symbols=symbols,
        metadata=metadata,
        markers=markers,
        tid=tid,
        pc=pc,
        kind=kind,
        fn=fn,
        syscall1=syscall1,
        marker1=marker1,
        rr_off=rr_off,
        rr=rr,
        rw_off=rw_off,
        rw=rw,
        mr_off=mr_off,
        mr=mr,
        mw_off=mw_off,
        mw=mw,
        index=index,
        source_path=None if path == "<bytes>" else path,
    )


def _decode_meta(cur: _Cursor, meta: TraceMetadata) -> None:
    """Decode the META payload (same layout as the v2 metadata tail)."""
    walker = _RecordWalker.__new__(_RecordWalker)
    walker.cur = cur
    walker.has_frames = True
    walker.path = cur.label
    walker.read_metadata(meta)


def _decode_index(
    invt: _SectionCursor, edge: _SectionCursor, n: int, path: str
) -> SliceIndex:
    (n_inv_records,) = invt.take(_U64)
    if n_inv_records != n:
        raise ValueError(
            f"{path}: INVT built for {n_inv_records} records, trace has {n}"
        )
    inv_id = invt.take_array().astype(np.int64) - 1
    if len(inv_id) != n:
        raise ValueError(f"{path}: INVT inv_id holds {len(inv_id)} values for {n} records")
    (n_inv,) = invt.take(_U64)
    inv_call = invt.take_array().astype(np.int64) - 1
    inv_ret = invt.take_array().astype(np.int64) - 1
    inv_fn = invt.take_array().astype(np.int64) - 1
    if not (len(inv_call) == len(inv_ret) == len(inv_fn) == n_inv):
        raise ValueError(f"{path}: INVT invocation arrays disagree on length")

    (n_edge_records,) = edge.take(_U64)
    if n_edge_records != n:
        raise ValueError(
            f"{path}: EDGE built for {n_edge_records} records, trace has {n}"
        )
    (n_edges,) = edge.take(_U64)
    counts = edge.take_array()
    if len(counts) != n:
        raise ValueError(f"{path}: EDGE holds {len(counts)} counts for {n} records")
    if int(counts.sum()) != n_edges:
        raise ValueError(
            f"{path}: EDGE counts total {int(counts.sum())} != {n_edges} edges"
        )
    deltas = edge.take_array()
    if len(deltas) != n_edges:
        raise ValueError(
            f"{path}: EDGE delta array holds {len(deltas)} values for {n_edges} edges"
        )
    # Sources descend in the stored stream; counts are per ascending
    # source, so repeat over the reversed index range.
    src = np.repeat(np.arange(n - 1, -1, -1, dtype=np.int64), counts[::-1])
    tgt = src - deltas.astype(np.int64)
    if n_edges and (int(tgt.min()) < 0 or bool((tgt >= src).any())):
        raise ValueError(f"{path}: EDGE deltas out of range")
    return SliceIndex(
        inv_id=inv_id,
        inv_call=inv_call,
        inv_ret=inv_ret,
        inv_fn=inv_fn,
        edge_src=src,
        edge_tgt=tgt,
    )


def load_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Load a UCWA3 file, mmap-backed: columns are zero-copy views.

    Malformed input — wrong header, truncated file, a section whose
    declared extent runs past the end — raises ``ValueError`` with the
    path in the message.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # zero-length file cannot be mapped
            raise ValueError(f"{path}: not a UCWA trace file (empty)") from None
    trace = parse_columnar(buf, str(path))
    trace.source_path = str(path)
    return trace


def convert_trace(
    src: Union[str, Path],
    dst: Union[str, Path],
    fmt: str = "v3",
    with_index: bool = True,
) -> None:
    """Convert between UCWA formats (the ``trace convert`` subcommand).

    ``fmt="v3"`` re-encodes any readable trace as columnar UCWA3,
    attaching the derived slice index unless ``with_index`` is False;
    ``fmt="v2"`` writes the canonical row encoding (the digest image).
    """
    from .store import load_any_trace, save_trace

    trace = load_any_trace(src)
    if fmt == "v2":
        save_trace(trace, dst)
        return
    if fmt != "v3":
        raise ValueError(f"unknown trace format {fmt!r}; expected 'v2' or 'v3'")
    cols = trace if isinstance(trace, ColumnarTrace) else ColumnarTrace.from_store(trace)
    if with_index and cols.index is None:
        from ..profiler.vectorized import attach_index

        attach_index(cols)
    save_columnar(cols, dst)
