"""The tracer: produces Pin-style instruction traces from engine activity.

The simulated browser engine performs its semantic work in Python (real
parsing, real layout arithmetic, real pixel blending) and *mirrors the
dataflow* of that work through this tracer: every primitive step emits one
:class:`~repro.trace.records.TraceRecord` naming the abstract memory cells
and registers it reads and writes.  Control decisions emit a ``cmp``/
``branch`` pair so that liveness flows from branch conditions back into the
data that produced them, and the dynamic CFG has real diamonds and back
edges.

Program counters are stable per (function symbol, emit-site label): the same
static instruction always executes at the same pc, which is what makes
dynamic CFG construction (paper Section III-A) well-defined.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import DefaultDict, Dict, List, Optional, Tuple

from ..trace.records import (
    FRAME_BEGIN_MARKER,
    FRAME_END_MARKER,
    SYNC_ACQUIRE,
    SYNC_RELEASE,
    FrameSpan,
    InstrKind,
    TraceMetadata,
    TraceRecord,
    sync_marker_tag,
)
from ..trace.store import TraceStore
from ..trace.symbols import SymbolTable
from .clock import VirtualClock
from .registers import (
    FLAGS,
    SYSCALL_ARG_REGISTERS,
    SYSCALL_RESULT_REGISTERS,
)
from .syscalls import BY_NAME

#: pc space reserved per function; functions can have up to this many sites.
FN_SPAN = 1 << 20

#: Marker tags with dedicated side-channel handling.
TILE_MARKER = "tile_ready"
LOAD_COMPLETE_MARKER = "load_complete"


class _ThreadState:
    """Per-thread call stack of function symbol ids."""

    __slots__ = ("tid", "name", "stack")

    def __init__(self, tid: int, name: str, root_fn: int) -> None:
        self.tid = tid
        self.name = name
        self.stack: List[int] = [root_fn]


class _NoThread:
    """The current thread before any is spawned: every access raises."""

    __slots__ = ()

    @property
    def tid(self) -> int:
        raise RuntimeError("no thread spawned yet")

    stack = tid


_NO_THREAD: _ThreadState = _NoThread()  # type: ignore[assignment]

_OP = InstrKind.OP
_CMP = InstrKind.CMP
_BRANCH = InstrKind.BRANCH
_CALL = InstrKind.CALL
_RET = InstrKind.RET
_SYSCALL = InstrKind.SYSCALL
_MARKER = InstrKind.MARKER
_CMP_REGS_WRITTEN = (FLAGS,)
_BRANCH_REGS_READ = (FLAGS,)


class _Frame:
    """``with tracer.function(...)``: CALL on enter, RET on exit."""

    __slots__ = ("tracer", "name", "site")

    def __init__(self, tracer: "Tracer", name: str, site: Optional[str]) -> None:
        self.tracer = tracer
        self.name = name
        self.site = site

    def __enter__(self) -> None:
        self.tracer.call(self.name, self.site)

    def __exit__(self, *exc_info) -> None:
        self.tracer.ret()


class Tracer:
    """Collects the instruction trace of the simulated tab process.

    The emit methods (:meth:`op`, :meth:`compare_and_branch`,
    :meth:`call`, :meth:`ret`, :meth:`syscall`, :meth:`marker`) run once
    per traced instruction, so they read the current thread and the pc
    table through plain attribute and dict lookups and append straight to
    the store's record list.
    """

    def __init__(
        self,
        symbols: Optional[SymbolTable] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.clock = clock if clock is not None else VirtualClock()
        self.store = TraceStore(self.symbols, TraceMetadata())
        #: function symbol -> {emit-site label: pc}
        self._sites: DefaultDict[int, Dict[str, int]] = defaultdict(dict)
        #: callee name -> (symbol id, default call-site label)
        self._callees: Dict[str, Tuple[int, str]] = {}
        self._threads: Dict[int, _ThreadState] = {}
        self._current: _ThreadState = _NO_THREAD
        self._records = self.store.records()
        self._tick = self.clock.tick

    # ------------------------------------------------------------------ #
    # Threads                                                            #
    # ------------------------------------------------------------------ #

    def spawn_thread(self, tid: int, name: str, root_function: str) -> None:
        """Register a thread whose outermost frame is ``root_function``."""
        if tid in self._threads:
            raise ValueError(f"thread {tid} already exists")
        root_fn = self.symbols.intern(root_function)
        self._threads[tid] = _ThreadState(tid, name, root_fn)
        self.store.metadata.thread_names[tid] = name
        if self._current is _NO_THREAD:
            self._current = self._threads[tid]

    def switch(self, tid: int) -> None:
        """Make ``tid`` the currently executing thread."""
        if tid not in self._threads:
            raise KeyError(f"unknown thread {tid}")
        self._current = self._threads[tid]

    @property
    def current_tid(self) -> int:
        return self._current.tid

    def current_function(self) -> int:
        """Symbol id of the function on top of the current thread's stack."""
        return self._current.stack[-1]

    # ------------------------------------------------------------------ #
    # pc management                                                      #
    # ------------------------------------------------------------------ #

    def _pc(self, fn: int, label: str) -> int:
        pc = self._sites[fn].get(label)
        return self._new_site(fn, label) if pc is None else pc

    def _new_site(self, fn: int, label: str) -> int:
        sites = self._sites[fn]
        index = len(sites)
        if index >= FN_SPAN:
            raise OverflowError(
                f"function {self.symbols.name(fn)} exceeded {FN_SPAN} sites"
            )
        pc = sites[label] = (fn + 1) * FN_SPAN + index
        return pc

    def pc_of(self, function: str, label: str) -> Optional[int]:
        """Look up the pc of an already-observed emit site (diagnostics)."""
        fn = self.symbols.lookup(function)
        if fn is None or fn not in self._sites:
            return None
        return self._sites[fn].get(label)

    # ------------------------------------------------------------------ #
    # Record emission                                                    #
    # ------------------------------------------------------------------ #

    def op(
        self,
        label: str,
        reads: Tuple[int, ...] = (),
        writes: Tuple[int, ...] = (),
        reg_reads: Tuple[int, ...] = (),
        reg_writes: Tuple[int, ...] = (),
    ) -> int:
        """Emit an ordinary data-operation record at site ``label``."""
        state = self._current
        tid = state.tid
        fn = state.stack[-1]
        pc = self._sites[fn].get(label)
        if pc is None:
            pc = self._new_site(fn, label)
        self._tick(tid)
        records = self._records
        records.append(
            TraceRecord(
                tid, pc, _OP, fn,
                tuple(reg_reads), tuple(reg_writes), tuple(reads), tuple(writes),
            )
        )
        return len(records) - 1

    def compare_and_branch(self, label: str, reads: Tuple[int, ...]) -> None:
        """Emit a decision point: ``cmp`` (reads cells, sets FLAGS) + branch.

        The engine calls this once per evaluation of a conditional; the
        branch's dynamic successors (whatever records follow in this
        function) define the control dependences discovered by the CDG.
        """
        state = self._current
        tid = state.tid
        fn = state.stack[-1]
        tick = self._tick
        append = self._records.append
        pc = self._pc(fn, label + "$cmp")
        tick(tid)
        append(
            TraceRecord(
                tid, pc, _CMP, fn,
                regs_written=_CMP_REGS_WRITTEN, mem_read=tuple(reads),
            )
        )
        pc = self._pc(fn, label + "$br")
        tick(tid)
        append(TraceRecord(tid, pc, _BRANCH, fn, regs_read=_BRANCH_REGS_READ))

    # ------------------------------------------------------------------ #
    # Functions                                                          #
    # ------------------------------------------------------------------ #

    def call(self, function: str, site: Optional[str] = None) -> None:
        """Emit a CALL at the caller and push ``function``."""
        state = self._current
        tid = state.tid
        stack = state.stack
        caller = stack[-1]
        callee = self._callees.get(function)
        if callee is None:
            callee = self._callees[function] = (
                self.symbols.intern(function), "call:" + function
            )
        label = callee[1] if site is None else site
        pc = self._sites[caller].get(label)
        if pc is None:
            pc = self._new_site(caller, label)
        self._tick(tid)
        self._records.append(TraceRecord(tid, pc, _CALL, caller))
        stack.append(callee[0])

    def ret(self) -> None:
        """Emit a RET in the current function and pop it."""
        state = self._current
        tid = state.tid
        stack = state.stack
        if len(stack) <= 1:
            raise RuntimeError(f"thread {tid}: return from root frame")
        fn = stack[-1]
        pc = self._sites[fn].get("$ret")
        if pc is None:
            pc = self._new_site(fn, "$ret")
        self._tick(tid)
        self._records.append(TraceRecord(tid, pc, _RET, fn))
        stack.pop()

    def function(self, name: str, site: Optional[str] = None) -> _Frame:
        """Context manager bracketing a function invocation."""
        return _Frame(self, name, site)

    # ------------------------------------------------------------------ #
    # Syscalls and markers                                               #
    # ------------------------------------------------------------------ #

    def syscall(
        self,
        name: str,
        reads: Tuple[int, ...] = (),
        writes: Tuple[int, ...] = (),
    ) -> int:
        """Emit a SYSCALL record with AMD64 ABI register effects.

        ``reads``/``writes`` are the concrete user-memory cells the kernel
        touches for this dynamic instance (resolved by the caller, as the
        paper's Pin tool resolves ``buf``/``dest_addr`` pointers).
        """
        model = BY_NAME[name]
        state = self._current
        tid = state.tid
        fn = state.stack[-1]
        pc = self._pc(fn, f"syscall:{name}")
        self._tick(tid)
        records = self._records
        records.append(
            TraceRecord(
                tid, pc, _SYSCALL, fn,
                SYSCALL_ARG_REGISTERS[: model.nargs], SYSCALL_RESULT_REGISTERS,
                tuple(reads), tuple(writes), model.number,
            )
        )
        return len(records) - 1

    def marker(self, tag: str, cells: Tuple[int, ...] = ()) -> int:
        """Emit a MARKER record (the paper's ``xchg %r13w,%r13w``).

        ``TILE_MARKER`` markers additionally log (record index, pixel
        cells) into the trace metadata — the equivalent of the external
        file written by the paper's modified ``PlaybackToMemory``.
        """
        state = self._current
        tid = state.tid
        fn = state.stack[-1]
        pc = self._pc(fn, f"marker:{tag}")
        self._tick(tid)
        records = self._records
        records.append(
            TraceRecord(tid, pc, _MARKER, fn, mem_read=tuple(cells), marker=tag)
        )
        index = len(records) - 1
        if tag == TILE_MARKER:
            self.store.metadata.tile_buffers.append((index, tuple(cells)))
        elif tag == LOAD_COMPLETE_MARKER:
            self.store.metadata.load_complete_index = index
        return index

    # ------------------------------------------------------------------ #
    # Frame epochs                                                       #
    # ------------------------------------------------------------------ #

    def frame_begin(self, frame_id: int, kind: str) -> int:
        """Open frame ``frame_id`` (emit FRAME_BEGIN, record its span).

        Frames must be strictly increasing and non-overlapping: opening a
        new frame while another is still open is a pipeline bug, surfaced
        here rather than left for the trace linter to find post-mortem.
        """
        frames = self.store.metadata.frames
        if frames and not frames[-1].complete:
            raise RuntimeError(
                f"frame {frame_id} opened while frame "
                f"{frames[-1].frame_id} is still open"
            )
        if frames and frame_id <= frames[-1].frame_id:
            raise RuntimeError(
                f"frame ids must increase: {frame_id} after {frames[-1].frame_id}"
            )
        index = self.marker(FRAME_BEGIN_MARKER)
        frames.append(FrameSpan(frame_id=frame_id, kind=kind, begin=index))
        return index

    def frame_end(self, frame_id: int) -> int:
        """Close frame ``frame_id`` (emit FRAME_END, complete its span)."""
        frames = self.store.metadata.frames
        if not frames or frames[-1].complete or frames[-1].frame_id != frame_id:
            raise RuntimeError(f"frame {frame_id} is not the open frame")
        index = self.marker(FRAME_END_MARKER)
        frames[-1].end = index
        return index

    # ------------------------------------------------------------------ #
    # Synchronization events                                              #
    # ------------------------------------------------------------------ #

    def sync_release(self, obj: int, kind: Optional[str] = None) -> int:
        """Publish the current thread's history into sync object ``obj``.

        Everything this thread did before the release happens-before
        whatever any thread does after a matching :meth:`sync_acquire` on
        the same object.  ``kind`` selects the edge family recorded in the
        marker tag (``ipc``, ``task``, ... — see
        :func:`repro.trace.records.sync_marker_tag`).
        """
        return self.marker(sync_marker_tag(SYNC_RELEASE, kind), cells=(obj,))

    def sync_acquire(self, obj: int, kind: Optional[str] = None) -> int:
        """Import the history published into sync object ``obj``."""
        return self.marker(sync_marker_tag(SYNC_ACQUIRE, kind), cells=(obj,))

    def lock_acquire(self, obj: int) -> int:
        """Acquire a mutual-exclusion lock identified by cell ``obj``."""
        return self.marker(sync_marker_tag(SYNC_ACQUIRE, "lock"), cells=(obj,))

    def lock_release(self, obj: int) -> int:
        """Release a mutual-exclusion lock identified by cell ``obj``."""
        return self.marker(sync_marker_tag(SYNC_RELEASE, "lock"), cells=(obj,))


class TracedLock:
    """A mutual-exclusion lock whose critical sections appear in the trace.

    The lock itself is only a trace-level annotation — the engine is
    cooperatively scheduled, so there is nothing to block on.  What the
    annotation buys is a happens-before edge from each release to every
    later acquire of the same lock cell, chaining the critical sections of
    all threads into a total order the race detector can rely on.
    """

    __slots__ = ("tracer", "cell", "name")

    def __init__(self, tracer: Tracer, cell: int, name: str) -> None:
        self.tracer = tracer
        self.cell = cell
        self.name = name

    def acquire(self) -> None:
        self.tracer.lock_acquire(self.cell)

    def release(self) -> None:
        self.tracer.lock_release(self.cell)

    @contextmanager
    def held(self):
        """Bracket a critical section (static lock-order analysis keys on
        ``with ctx.lock("...").held():`` sites)."""
        self.acquire()
        try:
            yield self
        finally:
            self.release()
