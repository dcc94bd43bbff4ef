"""Dynamic backward slicing (the backward pass, paper Section III-B).

The slicer walks the trace from the end to the beginning, maintaining:

* a **live memory set**, shared by all threads (threads of the tab process
  share one address space);
* one **live register set per thread** (each thread has its own
  architectural context);
* one **pending branch set per thread**: when an instruction joins the
  slice, every branch it is control dependent on (CDG lookup) is marked
  pending; the first dynamic instance of a pending branch met while walking
  backward is the nearest preceding instance — it joins the slice and its
  condition becomes live;
* per-thread **frame reconstruction** for dynamic call-site control
  dependence: when any instruction of a function invocation joins the
  slice, the invocation's CALL (and matching RET) join the slice too, so
  the call overhead of useful functions counts as useful and the inclusion
  propagates transitively toward the thread root.

Data dependences are discovered by liveness analysis, exactly as in the
paper: an instruction that writes a live location joins the slice, its
writes are killed and its reads become live.  Because the trace carries
exact addresses, there is no aliasing imprecision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..trace.records import InstrKind
from ..trace.store import TraceStore
from .cdg import ControlDependenceIndex
from .criteria import SlicingCriteria


@dataclass
class TimelineSample:
    """One sample of backward-pass progress (drives Figure 4).

    Attributes:
        processed: records processed so far (all threads).
        in_slice: of those, how many joined the slice.
        processed_main: records processed belonging to the main thread.
        in_slice_main: of those, how many joined the slice.
    """

    processed: int
    in_slice: int
    processed_main: int
    in_slice_main: int

    def fraction_all(self) -> float:
        return self.in_slice / self.processed if self.processed else 0.0

    def fraction_main(self) -> float:
        return self.in_slice_main / self.processed_main if self.processed_main else 0.0


@dataclass(frozen=True)
class SlicerOptions:
    """Ablation/diagnostic switches of the backward pass.

    Disabling a mechanism quantifies its contribution to the slice (the
    ablation benches use these); ``track_reasons`` records, for every
    sliced record, why it joined.
    """

    #: follow control dependences (pending-branch mechanism, Section III-B)
    control_dependences: bool = True
    #: include CALL/RET of invocations whose body joined the slice
    call_site_dependences: bool = True
    #: record a (kind, detail) join reason per sliced record
    track_reasons: bool = False


DEFAULT_OPTIONS = SlicerOptions()


@dataclass
class SliceResult:
    """Output of one backward slicing run."""

    criteria_name: str
    flags: bytearray  # flags[i] == 1 iff record i is in the slice
    timeline: List[TimelineSample] = field(default_factory=list)
    #: number of records the walk visited; every engine walks the whole
    #: trace, windowed criteria included, so this is ``len(flags)``
    visited: int = 0
    #: record index -> (reason kind, detail), when reasons were tracked.
    #: kinds: "data" (a written cell was live), "register", "control"
    #: (pending branch), "call" (needed invocation; both the CALL and its
    #: retroactively-flagged RET carry this kind), "syscall" (criteria).
    #: When tracking is on, every sliced record has exactly one entry, so
    #: the per-kind counts sum to the slice size.
    reasons: Optional[Dict[int, Tuple[str, int]]] = None
    #: engine diagnostics ("engine", and for the parallel engine: workers,
    #: epochs, rounds, epoch_runs, pass_throughs); empty for sequential runs.
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def __contains__(self, index: int) -> bool:
        return bool(self.flags[index])

    def slice_size(self) -> int:
        return sum(self.flags)

    def total(self) -> int:
        return len(self.flags)

    def fraction(self) -> float:
        return self.slice_size() / len(self.flags) if self.flags else 0.0

    def indices(self) -> List[int]:
        """Record indices in the slice, ascending."""
        return [i for i, flag in enumerate(self.flags) if flag]


class _BackwardFrame:
    """A function invocation context reconstructed while walking backward."""

    __slots__ = ("fn", "ret_index", "needed", "is_root")

    def __init__(self, fn: int, ret_index: Optional[int], is_root: bool = False) -> None:
        self.fn = fn
        self.ret_index = ret_index
        self.needed = False
        self.is_root = is_root


class BackwardSlicer:
    """Runs the backward pass for one criteria set over one trace."""

    def __init__(
        self,
        store: TraceStore,
        cdi: ControlDependenceIndex,
        criteria: SlicingCriteria,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._criteria = criteria
        self._sample_every = sample_every
        self._options = options
        meta_main = store.metadata.main_thread_id()
        self._main_tid = main_tid if main_tid is not None else meta_main

    def run(self) -> SliceResult:
        store = self._store
        records = store.records()
        n = len(records)
        flags = bytearray(n)
        result = SliceResult(criteria_name=self._criteria.name, flags=flags)
        timeline = result.timeline

        # Criteria points, popped in walk order (highest index first);
        # -1 is never reached.
        points = sorted(
            (index, crit)
            for index, crit in self._criteria.by_index().items()
            if index < n
        )
        next_point, crit = points.pop() if points else (-1, None)
        syscalls_until = (
            -1 if not self._criteria.include_syscalls
            else n if self._criteria.window_end is None
            else self._criteria.window_end
        )
        options = self._options
        cd = self._cdi._cd if options.control_dependences else {}
        cd_get = cd.get
        call_sites = options.call_site_dependences
        reasons: Optional[Dict[int, Tuple[str, int]]] = (
            {} if options.track_reasons else None
        )
        if reasons is not None:
            result.reasons = reasons
        reason: Tuple[str, int] = ("data", -1)

        live_mem: Set[int] = set()
        live_regs: Dict[int, Set[int]] = {}
        pending: Dict[int, Set[int]] = {}
        stacks: Dict[int, List[_BackwardFrame]] = {}

        in_slice_count = 0
        processed_main = 0
        in_slice_main = 0
        main_tid = self._main_tid
        sample_every = self._sample_every
        # The record index after which ``n - i`` (records processed) is
        # the next multiple of ``sample_every``; -1 never comes.
        sample_at = n - sample_every if sample_every else -1
        RET = InstrKind.RET
        CALL = InstrKind.CALL
        BRANCH = InstrKind.BRANCH
        SYSCALL = InstrKind.SYSCALL

        # Per-thread state, switched only when the tid changes.
        cur_tid = None
        stack: List[_BackwardFrame] = []
        tregs: Set[int] = set()
        tpending: Set[int] = set()
        is_main = False

        for i, rec in zip(range(n - 1, -1, -1), reversed(records)):
            tid = rec.tid
            if tid != cur_tid:
                cur_tid = tid
                stack = stacks.get(tid)
                if stack is None:
                    stack = stacks[tid] = []
                tregs = live_regs.get(tid)
                if tregs is None:
                    tregs = live_regs[tid] = set()
                tpending = pending.get(tid)
                if tpending is None:
                    tpending = pending[tid] = set()
                is_main = tid == main_tid

            # -- criteria seeding -------------------------------------- #
            if i == next_point:
                live_mem.update(crit.cells)
                for reg_tid, reg in crit.regs:
                    regs = live_regs.get(reg_tid)
                    if regs is None:
                        regs = live_regs[reg_tid] = set()
                    regs.add(reg)
                next_point, crit = points.pop() if points else (-1, None)

            # -- backward frame reconstruction ------------------------- #
            kind = rec.kind
            if kind == RET:
                stack.append(_BackwardFrame(rec.fn, ret_index=i))
                if is_main:
                    processed_main += 1
                if i == sample_at:
                    timeline.append(TimelineSample(
                        n - i, in_slice_count, processed_main, in_slice_main
                    ))
                    sample_at -= sample_every
                continue

            fn = rec.fn
            if stack:
                frame = stack[-1]
                if frame.fn != fn and kind != CALL:
                    # A frame entered but never returned before trace
                    # truncation.
                    frame = _BackwardFrame(fn, ret_index=None, is_root=True)
                    stack.append(frame)
            else:  # thread root
                frame = _BackwardFrame(fn, ret_index=None, is_root=True)
                stack.append(frame)

            in_slice = False
            if kind == CALL:
                # Close the callee frame (pushed when its RET was met, or a
                # synthetic root for truncated invocations).
                if not frame.is_root or frame.fn != fn:
                    callee = stack.pop()
                    if callee.needed and call_sites:
                        in_slice = True
                        reason = ("call", callee.fn)
                        ret_index = callee.ret_index
                        if ret_index is not None and not flags[ret_index]:
                            flags[ret_index] = 1
                            in_slice_count += 1
                            if is_main:
                                in_slice_main += 1
                            if reasons is not None:
                                # The RET joins retroactively, paired with
                                # this CALL; without a reason entry here the
                                # reason counts would not sum to the slice
                                # size.
                                reasons[ret_index] = reason
                    # The frame the CALL itself belongs to:
                    if not stack:
                        stack.append(_BackwardFrame(fn, ret_index=None, is_root=True))
                    frame = stack[-1]
            elif kind == BRANCH:
                if rec.pc in tpending:
                    in_slice = True
                    reason = ("control", rec.pc)
                    tpending.discard(rec.pc)
            elif kind == SYSCALL:
                if i <= syscalls_until:
                    in_slice = True
                    reason = ("syscall", rec.syscall or 0)

            # -- liveness rule (data dependences) ---------------------- #
            written = rec.mem_written
            if not in_slice:
                if written and not live_mem.isdisjoint(written):
                    in_slice = True
                    if reasons is not None:
                        reason = ("data", next(a for a in written if a in live_mem))
                elif tregs:
                    regs = rec.regs_written
                    if regs and not tregs.isdisjoint(regs):
                        in_slice = True
                        if reasons is not None:
                            reason = ("register", next(r for r in regs if r in tregs))

            if in_slice:
                # Kill definitions, gen uses.
                if written:
                    live_mem.difference_update(written)
                if rec.regs_written:
                    tregs.difference_update(rec.regs_written)
                if rec.mem_read:
                    live_mem.update(rec.mem_read)
                if rec.regs_read:
                    tregs.update(rec.regs_read)
                # Control dependences become pending.
                cdeps = cd_get(rec.pc)
                if cdeps:
                    tpending.update(cdeps)
                # Dynamic call-site dependence: this invocation is useful.
                frame.needed = True
                if reasons is not None:
                    reasons[i] = reason
                # Unflagged so far: only RETs join before they are visited.
                flags[i] = 1
                in_slice_count += 1
                if is_main:
                    in_slice_main += 1

            if is_main:
                processed_main += 1
            if i == sample_at:
                timeline.append(TimelineSample(
                    n - i, in_slice_count, processed_main, in_slice_main
                ))
                sample_at -= sample_every

        result.visited = n
        if sample_every:
            timeline.append(
                TimelineSample(n, in_slice_count, processed_main, in_slice_main)
            )
        return result


def slice_trace(
    store: TraceStore,
    criteria: SlicingCriteria,
    cdi: Optional[ControlDependenceIndex] = None,
    sample_every: Optional[int] = None,
    engine: str = "sequential",
    workers: Optional[int] = None,
    epoch_size: Optional[int] = None,
    checkpoint=None,
) -> SliceResult:
    """One-call convenience over :meth:`repro.profiler.Profiler.slice`.

    The forward pass runs only if the engine needs it and ``cdi`` is not
    given (a vectorized slice of an indexed UCWA3 trace needs none).
    """
    from .api import Profiler

    return Profiler(store, cdi).slice(
        criteria,
        sample_every=sample_every,
        engine=engine,
        workers=workers,
        epoch_size=epoch_size,
        checkpoint=checkpoint,
    )
