"""Trace storage: in-memory store plus a compact binary file format.

The paper stores instruction traces in stable storage and streams them in a
forward pass and a backward pass.  ``TraceStore`` is the in-memory
equivalent; :func:`save_trace` / :func:`load_trace` provide a durable binary
round trip so traces can be collected once and profiled many times (the
paper notes the computed CDG is likewise reusable across criteria).

Three on-disk formats share the ``.ucwa`` extension:

* **UCWA1** — records + symbols + metadata, no frame spans.
* **UCWA2** — UCWA1 plus a frame-span metadata section.  This is the
  *canonical* record-stream encoding: :func:`serialize_trace` always emits
  it and :func:`trace_digest` hashes it, whatever format the trace was
  loaded from.
* **UCWA3** — the columnar struct-of-arrays layout (:mod:`.columnar`),
  holding the same logical content plus optional derived index sections.

:func:`load_any_trace` dispatches on the header; :func:`load_trace` reads
the row-oriented v1/v2 encodings only.

All v1/v2 parsing goes through one shared *section walker*
(:class:`_RecordWalker` + :func:`_read_records` / :func:`_skip_record`), so
the full loader, the epoch streamer's length-only skip pass, and the
columnar converter can never disagree about where a section starts.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
)

from .records import FrameSpan, InstrKind, TraceRecord, TraceMetadata
from .symbols import SymbolTable

# Unnecessary Computations in Web Apps.  v2 appends a frame-span section to
# the metadata (the incremental pipeline's frame epochs); v1 files are still
# readable and simply have no frames.  v3 is the columnar format handled by
# :mod:`repro.trace.columnar`.
_HEADER = b"UCWA2\n"
_HEADER_V1 = b"UCWA1\n"
_HEADER_V3 = b"UCWA3\n"
_REC = struct.Struct("<IQBIhh")  # tid, pc, kind, fn, syscall (-1=None), marker id (-1=None)
#: ``_REC`` plus the read-register count that always follows it.
_REC_HEAD = struct.Struct("<IQBIhhB")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
#: Decoded kind byte -> :class:`InstrKind` (kinds are numbered 0..n-1).
_KINDS: Tuple[InstrKind, ...] = tuple(sorted(InstrKind))
assert [int(kind) for kind in _KINDS] == list(range(len(_KINDS)))


class TraceSource(Protocol):
    """Anything that can stand in for a trace when serializing/hashing.

    Both :class:`TraceStore` and :class:`repro.trace.columnar.ColumnarTrace`
    satisfy this structurally, so :func:`serialize_trace` and
    :func:`trace_digest` accept either — which is what makes the digest
    format-invariant.
    """

    symbols: SymbolTable
    metadata: TraceMetadata

    def __len__(self) -> int: ...

    def forward(self) -> Iterator[TraceRecord]: ...


class TraceStore:
    """An in-memory instruction trace with its symbol table and metadata."""

    def __init__(
        self, symbols: SymbolTable, metadata: Optional[TraceMetadata] = None
    ) -> None:
        self.symbols = symbols
        self.metadata = metadata if metadata is not None else TraceMetadata()
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, idx: int) -> TraceRecord:
        return self._records[idx]

    def append(self, record: TraceRecord) -> int:
        """Append a record, returning its index in the trace."""
        self._records.append(record)
        return len(self._records) - 1

    def extend(self, records: Iterable[TraceRecord]) -> None:
        self._records.extend(records)

    def forward(self) -> Iterator[TraceRecord]:
        """Iterate records in execution order (the profiler's forward pass)."""
        return iter(self._records)

    def backward(self) -> Iterator[TraceRecord]:
        """Iterate records in reverse execution order (the backward pass)."""
        return reversed(self._records)

    def records(self) -> List[TraceRecord]:
        """Direct access to the underlying record list (read-only use)."""
        return self._records

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        """Records ``[lo, hi)`` in execution order (one epoch's worth)."""
        return self._records[lo:hi]

    def iter_epochs(
        self, epoch_size: int
    ) -> Iterator[Tuple[int, int, List[TraceRecord]]]:
        """Yield ``(lo, hi, records)`` per epoch, earliest epoch first.

        The epoch-sharded slicer uses this to materialize one epoch at a
        time instead of holding (or shipping) the whole trace; each yield
        covers ``[lo, hi)`` with ``hi - lo <= epoch_size``.
        """
        for lo, hi in epoch_bounds(len(self._records), epoch_size):
            yield lo, hi, self._records[lo:hi]

    def thread_ids(self) -> List[int]:
        """Distinct thread ids present in the trace, sorted."""
        return sorted({r.tid for r in self._records})

    def frame_spans(self) -> List[FrameSpan]:
        """Completed frame spans (incremental pipeline epochs), in order."""
        return self.metadata.complete_frames()

    def instructions_per_thread(self) -> dict:
        """Map tid -> number of records executed by that thread."""
        counts: dict = {}
        for record in self._records:
            counts[record.tid] = counts.get(record.tid, 0) + 1
        return counts


def epoch_bounds(n_records: int, epoch_size: int) -> List[Tuple[int, int]]:
    """Split ``range(n_records)`` into ``[lo, hi)`` epochs of ``epoch_size``.

    The final epoch absorbs the remainder, so it may be shorter (never
    longer) than ``epoch_size``.  An empty trace yields no epochs.
    """
    if epoch_size <= 0:
        raise ValueError(f"epoch_size must be positive, got {epoch_size}")
    return [
        (lo, min(lo + epoch_size, n_records))
        for lo in range(0, n_records, epoch_size)
    ]


def _pack_addr_list(addrs) -> bytes:
    return struct.pack("<H", len(addrs)) + struct.pack(f"<{len(addrs)}Q", *addrs)


def _pack_head(rec: TraceRecord, marker_id: int) -> bytes:
    """A record's fixed fields plus both register lists, as encoded."""
    syscall = rec.syscall
    if syscall is None:
        syscall = -1
    elif not 0 <= syscall < 1 << 15:
        raise ValueError(f"syscall number {syscall} does not fit the format")
    return b"".join((
        _REC.pack(rec.tid, rec.pc, int(rec.kind), rec.fn, syscall, marker_id),
        _U8.pack(len(rec.regs_read)), bytes(rec.regs_read),
        _U8.pack(len(rec.regs_written)), bytes(rec.regs_written),
    ))


def _encode_metadata(meta: TraceMetadata) -> bytes:
    """Canonical v2 byte image of the metadata tail (maps sorted).

    Shared by :func:`serialize_trace` and the columnar format's ``META``
    section, so both formats agree byte-for-byte on metadata encoding.
    ``notes`` are deliberately not serialized (collection-time scratch).
    """
    chunks: List[bytes] = []
    chunks.append(struct.pack("<H", len(meta.thread_names)))
    for tid, name in sorted(meta.thread_names.items()):
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<IH", tid, len(raw)) + raw)
    chunks.append(struct.pack("<I", len(meta.tile_buffers)))
    for index, cells in meta.tile_buffers:
        chunks.append(struct.pack("<Q", index) + _pack_addr_list(cells))
    load_idx = -1 if meta.load_complete_index is None else meta.load_complete_index
    chunks.append(struct.pack("<q", load_idx))

    chunks.append(struct.pack("<I", len(meta.frames)))
    for span in meta.frames:
        end = -1 if span.end is None else span.end
        raw = span.kind.encode("utf-8")
        chunks.append(
            struct.pack("<IqqH", span.frame_id, span.begin, end, len(raw)) + raw
        )
    return b"".join(chunks)


def serialize_trace(store: TraceSource) -> bytes:
    """Canonical UCWA2 byte image of a trace (records + symbols + metadata).

    The encoding is deterministic for a given trace: symbol names are
    emitted in intern order, marker ids are assigned in first-use order,
    and metadata maps are sorted.  :func:`save_trace` writes exactly these
    bytes, and :func:`trace_digest` hashes them, so two stores holding the
    same trace always share one digest — including a
    :class:`~repro.trace.columnar.ColumnarTrace` holding the same records
    (the digest is format-invariant by construction).
    """
    markers: List[str] = []
    marker_ids: dict = {}
    chunks: List[bytes] = [_HEADER]

    names = [name for _, name in store.symbols]
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)) + raw)

    chunks.append(struct.pack("<Q", len(store)))
    # Records repeat a small set of heads (the fixed fields plus both
    # register lists) and address lists: on the paper's pages about 95% of
    # heads and 75-85% of address lists repeat an earlier one.  So each
    # distinct one is packed once; the cache keys hold every encoded
    # field, so a hit's bytes are exactly what packing would produce.
    heads: dict = {}
    addr_lists: dict = {}
    append = chunks.append
    for rec in store.forward():
        marker = rec.marker
        head_key = (
            rec.tid, rec.pc, rec.kind, rec.fn, rec.syscall, marker,
            rec.regs_read, rec.regs_written,
        )
        head = heads.get(head_key)
        if head is None:
            if marker is None:
                marker_id = -1
            else:
                marker_id = marker_ids.get(marker)
                if marker_id is None:
                    marker_id = len(markers)
                    markers.append(marker)
                    marker_ids[marker] = marker_id
            head = heads[head_key] = _pack_head(rec, marker_id)
        append(head)
        mem = rec.mem_read
        packed = addr_lists.get(mem)
        if packed is None:
            packed = addr_lists[mem] = _pack_addr_list(mem)
        append(packed)
        mem = rec.mem_written
        packed = addr_lists.get(mem)
        if packed is None:
            packed = addr_lists[mem] = _pack_addr_list(mem)
        append(packed)

    chunks.append(struct.pack("<H", len(markers)))
    for marker in markers:
        raw = marker.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)) + raw)

    chunks.append(_encode_metadata(store.metadata))
    return b"".join(chunks)


def save_trace(store: TraceSource, path: Union[str, Path]) -> None:
    """Serialize a trace (records + symbols + metadata) in UCWA2 form."""
    Path(path).write_bytes(serialize_trace(store))


def trace_digest(store: TraceSource) -> str:
    """Stable content digest of a trace (hex sha256 of its byte image).

    Used as the content-addressing component of profiling-service cache
    keys: two submits over byte-identical traces share a digest, and any
    change to records, symbols, or metadata produces a new one.  The hash
    is always taken over the canonical UCWA2 image, so a trace and its
    columnar (UCWA3) conversion share one digest and service cache keys
    never churn across formats.
    """
    return hashlib.sha256(serialize_trace(store)).hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """Hex sha256 of a trace file's raw bytes.

    For an on-disk job this is the cache-key digest: cheaper than parsing
    the trace, and any edit to the file (even a metadata-only one)
    invalidates dependent cache entries.  Note a v1 file and its v2/v3
    re-save hash differently — the digest addresses *bytes*, not the
    decoded record set (use :func:`trace_digest` for format-invariant
    identity).
    """
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


class _Cursor:
    """Tiny sequential unpacker over a bytes object.

    Every read is bounds-checked: running off the end of the buffer raises
    ``ValueError`` carrying ``label`` (the file path), never a bare
    ``struct.error`` or a silently-truncated byte string.
    """

    def __init__(self, data: bytes, label: str = "<trace>") -> None:
        self.data = data
        self.pos = 0
        self.label = label

    def _need(self, n: int) -> None:
        if self.pos + n > len(self.data):
            raise ValueError(
                f"{self.label}: truncated trace file "
                f"(need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos})"
            )

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        self._need(size)
        values = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return values

    def take_bytes(self, n: int) -> bytes:
        self._need(n)
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw

    def skip(self, n: int) -> None:
        self._need(n)
        self.pos += n


#: Records whose marker id is still unresolved: (list index, marker id).
PendingMarkers = List[Tuple[int, int]]


def _read_records(
    cur: _Cursor, count: int, n_symbols: int
) -> Tuple[List[TraceRecord], PendingMarkers]:
    """Decode ``count`` records at the cursor (the single record decoder).

    The marker-name table follows the record section, so records carrying
    a marker id come back with ``marker=None`` and their (position, id)
    in the pending list; :func:`_attach_markers` resolves them.  Hostile
    bytes raise ``ValueError`` naming the file: a truncated record, an
    unknown kind byte, a function id past the ``n_symbols`` names of the
    symbol table, or a syscall or marker field below -1 (which no
    encoder writes and which would not re-serialize to the same bytes).
    """
    data = cur.data
    pos = cur.pos
    head_unpack = _REC_HEAD.unpack_from
    head_size = _REC_HEAD.size
    u16_unpack = _U16.unpack_from
    unpack_from = struct.unpack_from
    kinds = _KINDS
    n_kinds = len(kinds)
    records: List[TraceRecord] = []
    append = records.append
    pending: PendingMarkers = []
    i = 0
    try:
        for i in range(count):
            tid, pc, kind, fn, syscall, marker_id, n = head_unpack(data, pos)
            pos += head_size
            regs_read = tuple(data[pos : pos + n])
            pos += n
            # A register list cut short by the end of the data is caught
            # by the next read, which then starts past the end.
            n = data[pos]
            pos += 1
            regs_written = tuple(data[pos : pos + n])
            pos += n
            (n,) = u16_unpack(data, pos)
            pos += 2
            if n:
                mem_read = unpack_from(f"<{n}Q", data, pos)
                pos += 8 * n
            else:
                mem_read = ()
            (n,) = u16_unpack(data, pos)
            pos += 2
            if n:
                mem_written = unpack_from(f"<{n}Q", data, pos)
                pos += 8 * n
            else:
                mem_written = ()
            if kind >= n_kinds or fn >= n_symbols or syscall < -1 or marker_id < -1:
                raise ValueError(
                    f"{cur.label}: record {i}: "
                    f"{_field_error(kind, fn, n_symbols, syscall, marker_id)}"
                )
            if marker_id >= 0:
                pending.append((i, marker_id))
            append(TraceRecord(
                tid, pc, kinds[kind], fn, regs_read, regs_written, mem_read,
                mem_written, None if syscall < 0 else syscall,
            ))
    except (struct.error, IndexError):
        raise ValueError(
            f"{cur.label}: truncated trace file (record {i} runs past the "
            f"end of the data at offset {pos})"
        ) from None
    cur.pos = pos
    return records, pending


def _field_error(kind: int, fn: int, n_symbols: int, syscall: int, marker_id: int) -> str:
    if kind >= len(_KINDS):
        return f"unknown instruction kind {kind}"
    if fn >= n_symbols:
        return f"function id {fn} is out of range (the symbol table holds {n_symbols})"
    if syscall < -1:
        return f"syscall field {syscall} is below -1"
    return f"marker field {marker_id} is below -1"


def _attach_markers(
    records: List[TraceRecord],
    pending: PendingMarkers,
    markers: List[str],
    label: str,
) -> None:
    """Give each pending record its marker name from the marker table."""
    for i, marker_id in pending:
        if marker_id >= len(markers):
            raise ValueError(
                f"{label}: record marker id {marker_id} is out of range "
                f"(the marker table holds {len(markers)})"
            )
        r = records[i]
        records[i] = TraceRecord(
            r.tid, r.pc, r.kind, r.fn, r.regs_read, r.regs_written,
            r.mem_read, r.mem_written, r.syscall, markers[marker_id],
        )


def _skip_record(cur: _Cursor) -> None:
    """Advance the cursor past one record using only its length fields.

    Walks the same fields in the same order as :func:`_read_records`, so
    the two can never disagree about a record's extent — the regression
    tests assert both land on identical section boundaries.
    """
    data = cur.data
    pos = cur.pos + _REC.size
    try:
        pos += 1 + data[pos]
        pos += 1 + data[pos]
        pos += 2 + 8 * _U16.unpack_from(data, pos)[0]
        pos += 2 + 8 * _U16.unpack_from(data, pos)[0]
        if pos > len(data):
            raise IndexError(pos)
    except (struct.error, IndexError):
        raise ValueError(
            f"{cur.label}: truncated trace file (record at offset {cur.pos} "
            f"runs past the end of the data)"
        ) from None
    cur.pos = pos


class _RecordWalker:
    """Positioned view over a v1/v2 file image: one walker per section.

    The walker owns all knowledge of section order (symbols, records,
    markers, metadata); :func:`load_trace`, :func:`iter_trace_epochs`, and
    the columnar converter all drive the same instance methods, so a
    format change cannot desync them.
    """

    def __init__(self, data: bytes, path: str) -> None:
        if data.startswith(_HEADER):
            self.has_frames = True
        elif data.startswith(_HEADER_V1):
            self.has_frames = False
        elif data.startswith(_HEADER_V3):
            raise ValueError(
                f"{path}: UCWA3 columnar trace; use load_any_trace() or "
                f"repro.trace.columnar.load_columnar()"
            )
        else:
            raise ValueError(f"{path}: not a UCWA trace file")
        self.path = path
        self.cur = _Cursor(data[len(_HEADER):], label=str(path))
        self.n_records = 0
        self.n_symbols = 0
        self._records_pos: Optional[int] = None

    def read_symbols(self) -> SymbolTable:
        symbols = SymbolTable()
        cur = self.cur
        (n_names,) = cur.take("<I")
        for _ in range(n_names):
            (length,) = cur.take("<H")
            symbols.intern(cur.take_bytes(length).decode("utf-8"))
        self.n_symbols = len(symbols)
        (self.n_records,) = cur.take("<Q")
        self._records_pos = cur.pos
        return symbols

    def skip_records(self) -> None:
        """Length-only pass over the record section (to reach the markers)."""
        for _ in range(self.n_records):
            _skip_record(self.cur)

    def rewind_to_records(self) -> None:
        assert self._records_pos is not None, "read_symbols() first"
        self.cur.pos = self._records_pos

    def read_records(self, count: int) -> Tuple[List[TraceRecord], PendingMarkers]:
        return _read_records(self.cur, count, self.n_symbols)

    def read_markers(self) -> List[str]:
        cur = self.cur
        (n_markers,) = cur.take("<H")
        markers: List[str] = []
        for _ in range(n_markers):
            (length,) = cur.take("<H")
            markers.append(cur.take_bytes(length).decode("utf-8"))
        return markers

    def read_metadata(self, meta: TraceMetadata) -> None:
        cur = self.cur
        (n_threads,) = cur.take("<H")
        for _ in range(n_threads):
            tid, length = cur.take("<IH")
            meta.thread_names[tid] = cur.take_bytes(length).decode("utf-8")
        (n_tiles,) = cur.take("<I")
        for _ in range(n_tiles):
            (index,) = cur.take("<Q")
            (n_cells,) = cur.take("<H")
            cells = cur.take(f"<{n_cells}Q") if n_cells else ()
            meta.tile_buffers.append((index, tuple(cells)))
        (load_idx,) = cur.take("<q")
        meta.load_complete_index = None if load_idx < 0 else load_idx
        if self.has_frames:
            (n_frames,) = cur.take("<I")
            for _ in range(n_frames):
                frame_id, begin, end, length = cur.take("<IqqH")
                kind = cur.take_bytes(length).decode("utf-8")
                meta.frames.append(
                    FrameSpan(
                        frame_id=frame_id,
                        kind=kind,
                        begin=begin,
                        end=None if end < 0 else end,
                    )
                )


def load_trace(path: Union[str, Path]) -> TraceStore:
    """Load a v1/v2 trace previously written by :func:`save_trace`.

    Malformed input — wrong header, truncated file, a length field that
    runs past the end — raises ``ValueError`` with the path in the
    message.  For format-dispatching loads (v3 included) use
    :func:`load_any_trace`.
    """
    data = Path(path).read_bytes()
    walker = _RecordWalker(data, str(path))
    symbols = walker.read_symbols()

    records, pending = walker.read_records(walker.n_records)
    markers = walker.read_markers()
    _attach_markers(records, pending, markers, walker.path)

    store = TraceStore(symbols)
    store.extend(records)
    walker.read_metadata(store.metadata)
    return store


def load_any_trace(path: Union[str, Path]):
    """Load a trace of any UCWA format, dispatching on the header.

    Returns a :class:`TraceStore` for v1/v2 files and a
    :class:`repro.trace.columnar.ColumnarTrace` for v3 files.  Both satisfy
    the trace API the profiler consumes (``forward()``, ``records()``,
    ``metadata``, ``symbols``, indexing), so callers can stay
    format-agnostic.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_HEADER_V3))
    if head == _HEADER_V3:
        from .columnar import load_columnar

        return load_columnar(path)
    return load_trace(path)


def iter_trace_epochs(
    path: Union[str, Path], epoch_size: int
) -> Iterator[Tuple[int, int, List[TraceRecord]]]:
    """Stream a saved trace epoch by epoch without building a TraceStore.

    Yields ``(lo, hi, records)`` for consecutive ``[lo, hi)`` windows of at
    most ``epoch_size`` records, parsing directly from the file image.  Only
    one epoch's records are materialized at a time, so a trace far larger
    than memory-resident ``TraceStore`` comfort can still be sharded into
    epochs for the parallel slicer.

    The marker-name table lives *after* the record section in the UCWA
    format, so a length-only skip pass (the shared
    :func:`_skip_record` walker) locates it first; the second pass
    materializes records with marker names resolved.
    """
    if epoch_size <= 0:
        raise ValueError(f"epoch_size must be positive, got {epoch_size}")
    data = Path(path).read_bytes()
    walker = _RecordWalker(data, str(path))
    walker.read_symbols()

    walker.skip_records()
    markers = walker.read_markers()

    walker.rewind_to_records()
    n_records = walker.n_records
    index = 0
    while index < n_records:
        lo = index
        hi = min(index + epoch_size, n_records)
        chunk, pending = walker.read_records(hi - lo)
        _attach_markers(chunk, pending, markers, walker.path)
        yield lo, hi, chunk
        index = hi
