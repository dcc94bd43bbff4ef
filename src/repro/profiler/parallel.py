"""Parallel epoch-sharded backward slicer.

The sequential backward pass (:mod:`.slicer`) walks the whole trace from
the end to the beginning carrying four pieces of state: the shared live
memory set, per-thread live registers, per-thread pending branches, and
per-thread reconstructed frame stacks.  That state only ever flows
*backward* (from higher record indices to lower ones), which makes the
pass shardable with the standard parallel-dataflow recipe:

1. split the trace into fixed-size **epochs** ``[lo, hi)``;
2. run the liveness/pending-branch pass over every epoch concurrently in
   worker processes, each starting from its current guess of the
   **entry frontier** — the slicer state in force just after record
   ``hi - 1`` (produced by the successor epoch);
3. propagate each epoch's **exit frontier** (state just before ``lo``)
   into its predecessor and iterate until the frontiers stabilize.

Because epoch ``E-1`` (the trace tail) has the true (empty) entry
frontier from round one, stability implies every epoch ran with its
exact frontier, so the fixpoint equals the sequential result — the
equivalence argument is spelled out in ``docs/parallel-slicing.md`` and
enforced by ``tests/profiler/test_differential.py`` against both the
sequential engine and the :mod:`.oracle` reference slicer.

Two ingredients make the iteration converge in close to one parallel
round instead of one round per epoch:

* **Delta pass-through.**  When an epoch's entry frontier only *gains*
  live cells / registers / pending branches that the epoch never writes
  (resp. branches on), its previous run is still valid: the additions
  would simply have flowed through untouched.  The scheduler detects
  this from cheap per-epoch static summaries and augments the recorded
  exit frontier without re-running the epoch.  In real traces most
  convergence traffic is exactly this kind of pass-through (a late
  epoch's live-in cells were written near the trace start).
* **Compact frontiers.**  :class:`SliceFrontier` serializes to a flat
  ``struct``-packed byte string (also used for pickling), so shipping
  frontiers to workers and comparing successive frontiers is cheap.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..trace.records import InstrKind, TraceRecord
from ..trace.store import TraceStore, epoch_bounds
from .cdg import ControlDependenceIndex
from .criteria import SlicingCriteria
from .slicer import (
    DEFAULT_OPTIONS,
    SliceResult,
    SlicerOptions,
    TimelineSample,
)

#: A reconstructed frame in a frontier: (fn, ret_index or -1, needed, is_root).
FrameTuple = Tuple[int, int, int, int]

#: Below this epoch size the scheduling overhead dwarfs the pass itself.
MIN_EPOCH_SIZE = 64

#: Epochs per worker.  More epochs expose more parallelism but lengthen
#: the exactness ripple (the frontier chain is refined one epoch per
#: round when pass-through fails), so total work grows with the epoch
#: count; 2 per worker measured best on the bundled workloads.
EPOCHS_PER_WORKER = 2


# --------------------------------------------------------------------- #
# Frontiers                                                             #
# --------------------------------------------------------------------- #

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_TID_COUNT = struct.Struct("<IH")
_FRAME = struct.Struct("<IqBB")


@dataclass(frozen=True)
class SliceFrontier:
    """Slicer state crossing an epoch boundary (one dataflow fact set).

    All collections are stored in canonical sorted form so that two
    frontiers holding the same facts compare equal and serialize to the
    same bytes.

    Attributes:
        live_mem: live memory cells (shared across threads).
        live_regs: per-thread live architectural registers.
        pending: per-thread pending branch pcs.
        stacks: per-thread reconstructed frame stacks, bottom to top.
            Each frame is ``(fn, ret_index, needed, is_root)`` with
            ``ret_index == -1`` for frames whose RET lies outside the
            trace (truncated or synthetic root frames).
    """

    live_mem: Tuple[int, ...] = ()
    live_regs: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    pending: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    stacks: Tuple[Tuple[int, Tuple[FrameTuple, ...]], ...] = ()

    @staticmethod
    def empty() -> "SliceFrontier":
        return _EMPTY_FRONTIER

    @staticmethod
    def from_state(
        live_mem: Set[int],
        live_regs: Dict[int, Set[int]],
        pending: Dict[int, Set[int]],
        stacks: Dict[int, List["_Frame"]],
    ) -> "SliceFrontier":
        """Canonicalize mutable slicer state into a frontier."""
        return SliceFrontier(
            live_mem=tuple(sorted(live_mem)),
            live_regs=tuple(
                (tid, tuple(sorted(regs)))
                for tid, regs in sorted(live_regs.items())
                if regs
            ),
            pending=tuple(
                (tid, tuple(sorted(pcs)))
                for tid, pcs in sorted(pending.items())
                if pcs
            ),
            stacks=tuple(
                (
                    tid,
                    tuple(
                        (
                            f.fn,
                            -1 if f.ret_index is None else f.ret_index,
                            int(f.needed),
                            int(f.is_root),
                        )
                        for f in stack
                    ),
                )
                for tid, stack in sorted(stacks.items())
                if stack
            ),
        )

    # -- compact serialization (also used for pickling) ---------------- #

    def to_bytes(self) -> bytes:
        chunks: List[bytes] = [_U32.pack(len(self.live_mem))]
        chunks.extend(_U64.pack(cell) for cell in self.live_mem)
        for group in (self.live_regs, self.pending):
            chunks.append(_U32.pack(len(group)))
            for tid, values in group:
                chunks.append(_TID_COUNT.pack(tid, len(values)))
                chunks.extend(_U64.pack(v) for v in values)
        chunks.append(_U32.pack(len(self.stacks)))
        for tid, frames in self.stacks:
            chunks.append(_TID_COUNT.pack(tid, len(frames)))
            chunks.extend(_FRAME.pack(*frame) for frame in frames)
        return b"".join(chunks)

    @staticmethod
    def from_bytes(data: bytes) -> "SliceFrontier":
        pos = 0

        def take(st: struct.Struct):
            nonlocal pos
            values = st.unpack_from(data, pos)
            pos += st.size
            return values

        (n_mem,) = take(_U32)
        live_mem = tuple(take(_U64)[0] for _ in range(n_mem))
        groups: List[Tuple[Tuple[int, Tuple[int, ...]], ...]] = []
        for _ in range(2):
            (n_tids,) = take(_U32)
            entries = []
            for _ in range(n_tids):
                tid, count = take(_TID_COUNT)
                entries.append((tid, tuple(take(_U64)[0] for _ in range(count))))
            groups.append(tuple(entries))
        (n_stacks,) = take(_U32)
        stacks = []
        for _ in range(n_stacks):
            tid, depth = take(_TID_COUNT)
            stacks.append((tid, tuple(take(_FRAME) for _ in range(depth))))
        return SliceFrontier(
            live_mem=live_mem,
            live_regs=groups[0],
            pending=groups[1],
            stacks=tuple(stacks),
        )

    def __reduce__(self):
        return (SliceFrontier.from_bytes, (self.to_bytes(),))


_EMPTY_FRONTIER = SliceFrontier()


class _Frame:
    """Mutable frame used while running an epoch (mirrors the sequential
    slicer's ``_BackwardFrame``, plus frontier round-tripping)."""

    __slots__ = ("fn", "ret_index", "needed", "is_root")

    def __init__(
        self,
        fn: int,
        ret_index: Optional[int],
        needed: bool = False,
        is_root: bool = False,
    ) -> None:
        self.fn = fn
        self.ret_index = ret_index
        self.needed = needed
        self.is_root = is_root

    @staticmethod
    def from_tuple(t: FrameTuple) -> "_Frame":
        fn, ret_index, needed, is_root = t
        return _Frame(fn, None if ret_index < 0 else ret_index, bool(needed), bool(is_root))


# --------------------------------------------------------------------- #
# Epoch transfer function                                               #
# --------------------------------------------------------------------- #


@dataclass
class EpochResult:
    """Output of running the backward pass over one epoch."""

    #: flags for records [lo, hi), epoch-relative
    flags: bytes
    #: (ret_index, callee fn) pairs to flag retroactively at indices >= hi
    extra: Tuple[Tuple[int, int], ...]
    #: slicer state just before record ``lo`` (the exit frontier)
    frontier: SliceFrontier
    #: per-tid minimum stack depth reached; frames below this depth
    #: survived the epoch untouched (needed-bit OR pass-through is safe)
    min_depth: Dict[int, int]
    #: join reasons (absolute record indices) when tracking was requested
    reasons: Optional[Dict[int, Tuple[str, int]]] = None


@dataclass
class EpochSummary:
    """Static (frontier-independent) facts about an epoch, used by the
    scheduler's delta pass-through test."""

    mem_written: Set[int] = field(default_factory=set)
    regs_written: Dict[int, Set[int]] = field(default_factory=dict)
    branch_pcs: Dict[int, Set[int]] = field(default_factory=dict)
    tids: Set[int] = field(default_factory=set)


def summarize_epoch(records: Sequence[TraceRecord], lo: int, hi: int) -> EpochSummary:
    """Collect the write/branch footprint of records ``[lo, hi)``.

    RET records are excluded: they never take part in the liveness rule
    (the backward pass skips them before the gen/kill step).
    """
    summary = EpochSummary()
    ret = InstrKind.RET
    branch = InstrKind.BRANCH
    for i in range(lo, hi):
        rec = records[i]
        tid = rec.tid
        summary.tids.add(tid)
        kind = rec.kind
        if kind == ret:
            continue
        if rec.mem_written:
            summary.mem_written.update(rec.mem_written)
        if rec.regs_written:
            summary.regs_written.setdefault(tid, set()).update(rec.regs_written)
        if kind == branch:
            summary.branch_pcs.setdefault(tid, set()).add(rec.pc)
    return summary


def run_epoch(
    records: Sequence[TraceRecord],
    lo: int,
    hi: int,
    frontier: SliceFrontier,
    crit_by_index: Dict[int, "object"],
    include_syscalls: bool,
    window_end: Optional[int],
    deps_of,
    options: SlicerOptions = DEFAULT_OPTIONS,
) -> EpochResult:
    """Run the backward pass over records ``[lo, hi)`` from ``frontier``.

    This is the per-record algorithm of :class:`.slicer.BackwardSlicer`
    restricted to one epoch: identical join rules, identical gen/kill
    order, identical frame reconstruction.  The only differences are the
    seeded entry state and that retroactive RET flags beyond ``hi`` are
    reported in ``extra`` instead of being written directly.
    """
    flags = bytearray(hi - lo)
    extra: List[Tuple[int, int]] = []
    live_mem: Set[int] = set(frontier.live_mem)
    live_regs: Dict[int, Set[int]] = {tid: set(v) for tid, v in frontier.live_regs}
    pending: Dict[int, Set[int]] = {tid: set(v) for tid, v in frontier.pending}
    stacks: Dict[int, List[_Frame]] = {
        tid: [_Frame.from_tuple(f) for f in frames] for tid, frames in frontier.stacks
    }
    min_depth: Dict[int, int] = {tid: len(stack) for tid, stack in stacks.items()}
    reasons: Optional[Dict[int, Tuple[str, int]]] = (
        {} if options.track_reasons else None
    )
    call_site_dependences = options.call_site_dependences

    RET = InstrKind.RET
    CALL = InstrKind.CALL
    BRANCH = InstrKind.BRANCH
    SYSCALL = InstrKind.SYSCALL

    for i in range(hi - 1, lo - 1, -1):
        rec = records[i]
        tid = rec.tid

        crit = crit_by_index.get(i)
        if crit is not None:
            live_mem.update(crit.cells)
            for reg_tid, reg in crit.regs:
                live_regs.setdefault(reg_tid, set()).add(reg)

        stack = stacks.get(tid)
        if stack is None:
            stack = stacks[tid] = []
            min_depth[tid] = 0
        kind = rec.kind
        if kind == RET:
            stack.append(_Frame(rec.fn, ret_index=i))
            continue

        if not stack:
            stack.append(_Frame(rec.fn, ret_index=None, is_root=True))
        elif stack[-1].fn != rec.fn and kind != CALL:
            stack.append(_Frame(rec.fn, ret_index=None, is_root=True))

        frame = stack[-1]
        tregs = live_regs.get(tid)
        tpending = pending.get(tid)

        in_slice = False
        reason: Tuple[str, int] = ("data", -1)

        if kind == CALL:
            callee: Optional[_Frame] = None
            if stack and (not stack[-1].is_root or stack[-1].fn != rec.fn):
                callee = stack.pop()
                if len(stack) < min_depth.get(tid, 0):
                    min_depth[tid] = len(stack)
            if callee is not None and callee.needed and call_site_dependences:
                in_slice = True
                reason = ("call", callee.fn)
                ret_index = callee.ret_index
                if ret_index is not None:
                    if ret_index >= hi:
                        extra.append((ret_index, callee.fn))
                    elif not flags[ret_index - lo]:
                        flags[ret_index - lo] = 1
                        if reasons is not None:
                            reasons[ret_index] = ("call", callee.fn)
            if not stack:
                stack.append(_Frame(rec.fn, ret_index=None, is_root=True))
            frame = stack[-1]
        elif kind == BRANCH:
            if tpending and rec.pc in tpending:
                in_slice = True
                reason = ("control", rec.pc)
                tpending.discard(rec.pc)
        elif kind == SYSCALL:
            if include_syscalls and (window_end is None or i <= window_end):
                in_slice = True
                reason = ("syscall", rec.syscall or 0)

        if not in_slice:
            for addr in rec.mem_written:
                if addr in live_mem:
                    in_slice = True
                    reason = ("data", addr)
                    break
            if not in_slice and tregs:
                for reg in rec.regs_written:
                    if reg in tregs:
                        in_slice = True
                        reason = ("register", reg)
                        break

        if in_slice:
            if rec.mem_written:
                live_mem.difference_update(rec.mem_written)
            if rec.regs_written:
                if tregs is None:
                    tregs = live_regs.setdefault(tid, set())
                tregs.difference_update(rec.regs_written)
            if rec.mem_read:
                live_mem.update(rec.mem_read)
            if rec.regs_read:
                if tregs is None:
                    tregs = live_regs.setdefault(tid, set())
                tregs.update(rec.regs_read)
            cdeps = deps_of(rec.pc)
            if cdeps:
                if tpending is None:
                    tpending = pending.setdefault(tid, set())
                tpending.update(cdeps)
            frame.needed = True
            if reasons is not None:
                reasons[i] = reason
            if not flags[i - lo]:
                flags[i - lo] = 1

    return EpochResult(
        flags=bytes(flags),
        extra=tuple(extra),
        frontier=SliceFrontier.from_state(live_mem, live_regs, pending, stacks),
        min_depth=min_depth,
        reasons=reasons,
    )


# --------------------------------------------------------------------- #
# Delta pass-through                                                    #
# --------------------------------------------------------------------- #


def _as_dict(pairs: Tuple[Tuple[int, Tuple[int, ...]], ...]) -> Dict[int, Set[int]]:
    return {tid: set(values) for tid, values in pairs}


def try_pass_through(
    old_in: SliceFrontier,
    new_in: SliceFrontier,
    result: EpochResult,
    summary: EpochSummary,
) -> Optional[SliceFrontier]:
    """If the epoch's previous run stays valid under ``new_in``, return
    its exit frontier augmented with the pass-through deltas; else None.

    The previous run stays valid when the new entry frontier is a
    superset of the old one and none of the additions interact with the
    epoch: added live cells / registers the epoch never writes, added
    pending branches whose pc the epoch's thread never executes a BRANCH
    for, and frame needed-bits flipped on only for frames the epoch never
    popped.  Such facts would have flowed through the epoch unchanged, so
    the recorded flags stay correct and the exit frontier is simply the
    old exit frontier plus the same additions.
    """
    old_mem = set(old_in.live_mem)
    new_mem = set(new_in.live_mem)
    if not old_mem <= new_mem:
        return None
    delta_mem = new_mem - old_mem
    if delta_mem & summary.mem_written:
        return None

    old_regs = _as_dict(old_in.live_regs)
    new_regs = _as_dict(new_in.live_regs)
    delta_regs: Dict[int, Set[int]] = {}
    for tid, regs in old_regs.items():
        if not regs <= new_regs.get(tid, set()):
            return None
    for tid, regs in new_regs.items():
        delta = regs - old_regs.get(tid, set())
        if delta:
            if delta & summary.regs_written.get(tid, set()):
                return None
            delta_regs[tid] = delta

    old_pending = _as_dict(old_in.pending)
    new_pending = _as_dict(new_in.pending)
    delta_pending: Dict[int, Set[int]] = {}
    for tid, pcs in old_pending.items():
        if not pcs <= new_pending.get(tid, set()):
            return None
    for tid, pcs in new_pending.items():
        delta = pcs - old_pending.get(tid, set())
        if delta:
            if delta & summary.branch_pcs.get(tid, set()):
                return None
            delta_pending[tid] = delta

    old_stacks = dict(old_in.stacks)
    new_stacks = dict(new_in.stacks)
    # needed-bit OR sets, per tid: frame indices to flip on in the output.
    needed_deltas: Dict[int, Set[int]] = {}
    for tid in set(old_stacks) | set(new_stacks):
        old_stack = old_stacks.get(tid, ())
        new_stack = new_stacks.get(tid, ())
        if old_stack == new_stack:
            continue
        if tid not in summary.tids:
            # The epoch never touches this thread: its state (whatever it
            # is) passes through wholesale.  Represent that as replacing
            # the thread's stack in the output below.
            needed_deltas[tid] = {-1}  # sentinel: replace entire stack
            continue
        if len(old_stack) != len(new_stack):
            return None
        depth_ok = result.min_depth.get(tid, len(old_stack))
        for idx, (old_f, new_f) in enumerate(zip(old_stack, new_stack)):
            if old_f[:2] != new_f[:2] or old_f[3] != new_f[3]:
                return None  # structural difference (fn / ret / is_root)
            if old_f[2] != new_f[2]:
                if old_f[2] and not new_f[2]:
                    return None  # needed bit retracted: must re-run
                if idx >= depth_ok:
                    return None  # frame was popped during the epoch
                needed_deltas.setdefault(tid, set()).add(idx)

    # Build the augmented exit frontier.
    out = result.frontier
    aug_mem = tuple(sorted(set(out.live_mem) | delta_mem))
    out_regs = _as_dict(out.live_regs)
    for tid, delta in delta_regs.items():
        out_regs.setdefault(tid, set()).update(delta)
    out_pending = _as_dict(out.pending)
    for tid, delta in delta_pending.items():
        out_pending.setdefault(tid, set()).update(delta)
    out_stacks: Dict[int, Tuple[FrameTuple, ...]] = dict(out.stacks)
    for tid, indices in needed_deltas.items():
        if indices == {-1}:
            # Untouched thread: exit state == entry state.
            new_stack = new_stacks.get(tid, ())
            if new_stack:
                out_stacks[tid] = new_stack
            else:
                out_stacks.pop(tid, None)
            continue
        frames = list(out_stacks.get(tid, ()))
        for idx in indices:
            fn, ret_index, _needed, is_root = frames[idx]
            frames[idx] = (fn, ret_index, 1, is_root)
        out_stacks[tid] = tuple(frames)
    return SliceFrontier(
        live_mem=aug_mem,
        live_regs=tuple(
            (tid, tuple(sorted(regs)))
            for tid, regs in sorted(out_regs.items())
            if regs
        ),
        pending=tuple(
            (tid, tuple(sorted(pcs)))
            for tid, pcs in sorted(out_pending.items())
            if pcs
        ),
        stacks=tuple(sorted(out_stacks.items())),
    )


# --------------------------------------------------------------------- #
# Worker-process plumbing                                               #
# --------------------------------------------------------------------- #


class _EpochView:
    """Absolute-indexed view over one epoch's materialized records.

    :func:`run_epoch` indexes ``records[i]`` by absolute trace index;
    for a columnar trace each epoch materializes only its own ``[lo,
    hi)`` span (one batch column slice), and this adapter re-bases the
    absolute indices onto that span.
    """

    __slots__ = ("lo", "recs")

    def __init__(self, lo: int, recs: List[TraceRecord]) -> None:
        self.lo = lo
        self.recs = recs

    def __getitem__(self, i: int) -> TraceRecord:
        return self.recs[i - self.lo]


class _EpochContext:
    """Everything a worker needs to run any epoch of one slicing job.

    ``source`` is either the full record list (row stores) or the trace
    object itself (columnar stores) — in the latter case each epoch's
    records are materialized on demand from array views, so workers
    forked from this context share the mmap-backed columns and never
    receive pickled record lists.
    """

    def __init__(
        self,
        source,
        bounds: Sequence[Tuple[int, int]],
        crit_by_index: Dict[int, "object"],
        include_syscalls: bool,
        window_end: Optional[int],
        cd_map: Dict[int, Tuple[int, ...]],
        options: SlicerOptions,
    ) -> None:
        self.source = source
        self.lazy_spans = not isinstance(source, list)
        self.bounds = list(bounds)
        self.crit_by_index = crit_by_index
        self.include_syscalls = include_syscalls
        self.window_end = window_end
        self.cd_map = cd_map
        self.options = options

    def run(self, k: int, frontier: SliceFrontier) -> EpochResult:
        lo, hi = self.bounds[k]
        records: Sequence[TraceRecord]
        if self.lazy_spans:
            records = _EpochView(lo, self.source.span(lo, hi))
        else:
            records = self.source
        deps_of = self.cd_map.get
        return run_epoch(
            records,
            lo,
            hi,
            frontier,
            self.crit_by_index,
            self.include_syscalls,
            self.window_end,
            lambda pc: deps_of(pc, ()),
            self.options,
        )


_WORKER_CTX: Optional[_EpochContext] = None


def _set_worker_context(ctx: _EpochContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_run(task: Tuple[int, bytes]):
    k, frontier_bytes = task
    result = _WORKER_CTX.run(k, SliceFrontier.from_bytes(frontier_bytes))
    return (
        k,
        result.flags,
        result.extra,
        result.frontier.to_bytes(),
        result.min_depth,
        result.reasons,
    )


# --------------------------------------------------------------------- #
# Scheduler                                                             #
# --------------------------------------------------------------------- #


def default_workers() -> int:
    """Worker count from ``REPRO_SLICER_WORKERS`` or the CPU allowance."""
    env = os.environ.get("REPRO_SLICER_WORKERS")
    if env:
        return max(1, int(env))
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class ParallelSlicer:
    """Epoch-sharded fixpoint driver for the backward pass.

    Produces byte-identical sliced-record sets to
    :class:`.slicer.BackwardSlicer` (enforced by the differential tests).
    After :meth:`run`, the scheduling counters ``rounds``,
    ``epoch_runs``, and ``pass_throughs`` describe how quickly the
    fixpoint converged; they are surfaced in ``SliceResult.engine_stats``
    and the benchmark speedup report.
    """

    def __init__(
        self,
        store: TraceStore,
        cdi: ControlDependenceIndex,
        criteria: SlicingCriteria,
        workers: Optional[int] = None,
        epoch_size: Optional[int] = None,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._criteria = criteria
        self._workers = workers if workers is not None else default_workers()
        n = len(store)
        if epoch_size is None:
            epoch_size = max(MIN_EPOCH_SIZE, -(-n // max(1, self._workers * EPOCHS_PER_WORKER)))
        elif epoch_size <= 0:
            raise ValueError(f"epoch_size must be positive, got {epoch_size}")
        self._epoch_size = epoch_size
        self._sample_every = sample_every
        meta_main = store.metadata.main_thread_id()
        self._main_tid = main_tid if main_tid is not None else meta_main
        self._options = options
        # convergence diagnostics, populated by run()
        self.rounds = 0
        self.epoch_runs = 0
        self.pass_throughs = 0
        self.epochs = 0

    # -- epoch execution ------------------------------------------------ #

    def _run_batch(
        self, ctx: _EpochContext, pool, batch: List[int], inputs: List[SliceFrontier]
    ) -> Dict[int, EpochResult]:
        if pool is None or len(batch) == 1:
            return {k: ctx.run(k, inputs[k]) for k in batch}
        tasks = [(k, inputs[k].to_bytes()) for k in batch]
        out: Dict[int, EpochResult] = {}
        for k, flags, extra, frontier_bytes, min_depth, reasons in pool.map(
            _worker_run, tasks, chunksize=1
        ):
            out[k] = EpochResult(
                flags=flags,
                extra=extra,
                frontier=SliceFrontier.from_bytes(frontier_bytes),
                min_depth=min_depth,
                reasons=reasons,
            )
        return out

    def _make_pool(self, ctx: _EpochContext):
        """A process pool whose workers hold ``ctx`` (no per-task pickling
        of the trace).  Prefers ``fork`` so workers inherit the context;
        falls back to a one-time pickled initializer elsewhere."""
        import multiprocessing as mp

        if self._workers <= 1 or self.epochs <= 1:
            return None
        methods = mp.get_all_start_methods()
        if "fork" in methods:
            _set_worker_context(ctx)
            return mp.get_context("fork").Pool(self._workers)
        return mp.get_context().Pool(
            self._workers, initializer=_set_worker_context, initargs=(ctx,)
        )

    # -- the fixpoint ---------------------------------------------------- #

    def run(self) -> SliceResult:
        store = self._store
        n = len(store)
        criteria = self._criteria
        options = self._options
        bounds = epoch_bounds(n, self._epoch_size)
        E = len(bounds)
        self.epochs = E
        self.rounds = 0
        self.epoch_runs = 0
        self.pass_throughs = 0

        cd_map = self._cdi._cd if options.control_dependences else {}
        # Columnar traces shard as array views: epochs materialize their
        # own spans lazily (in the workers, from the shared columns) and
        # the static summaries come straight from column slices.
        columnar = not isinstance(store, TraceStore)
        ctx = _EpochContext(
            source=store if columnar else store.records(),
            bounds=bounds,
            crit_by_index=criteria.by_index(),
            include_syscalls=criteria.include_syscalls,
            window_end=criteria.window_end,
            cd_map=cd_map,
            options=options,
        )
        if columnar:
            from .vectorized import summarize_epoch_columnar

            summaries = [
                summarize_epoch_columnar(store, lo, hi) for lo, hi in bounds
            ]
        else:
            records = store.records()
            summaries = [summarize_epoch(records, lo, hi) for lo, hi in bounds]

        empty = SliceFrontier.empty()
        inputs: List[SliceFrontier] = [empty] * E
        results: List[Optional[EpochResult]] = [None] * E

        visited = 0
        pool = self._make_pool(ctx)
        try:
            batch = list(range(E))
            while batch:
                self.rounds += 1
                fresh = self._run_batch(ctx, pool, batch, inputs)
                ran = set(batch)
                for k, res in fresh.items():
                    results[k] = res
                    self.epoch_runs += 1
                    visited += bounds[k][1] - bounds[k][0]
                # Propagate exit frontiers backward; epochs queued for a
                # re-run have stale outputs and block the chain until the
                # next round.
                rerun: List[int] = []
                rerun_set: Set[int] = set()
                for k in range(E - 1, 0, -1):
                    if results[k] is None or k in rerun_set:
                        continue
                    out_k = results[k].frontier
                    if out_k == inputs[k - 1]:
                        continue
                    old_in = inputs[k - 1]
                    inputs[k - 1] = out_k
                    prev = results[k - 1]
                    aug = (
                        try_pass_through(old_in, out_k, prev, summaries[k - 1])
                        if prev is not None
                        else None
                    )
                    if aug is not None:
                        self.pass_throughs += 1
                        prev.frontier = aug
                    else:
                        rerun.append(k - 1)
                        rerun_set.add(k - 1)
                batch = sorted(rerun, reverse=True)
        finally:
            if pool is not None:
                pool.close()
                pool.join()

        # -- assemble the global result -------------------------------- #
        flags = bytearray(n)
        reasons: Optional[Dict[int, Tuple[str, int]]] = (
            {} if options.track_reasons else None
        )
        for k, (lo, hi) in enumerate(bounds):
            res = results[k]
            flags[lo:hi] = res.flags
            if reasons is not None and res.reasons:
                reasons.update(res.reasons)
        for k in range(E):
            for ret_index, callee_fn in results[k].extra:
                if not flags[ret_index]:
                    flags[ret_index] = 1
                    if reasons is not None:
                        reasons[ret_index] = ("call", callee_fn)

        result = SliceResult(criteria_name=criteria.name, flags=flags)
        result.visited = visited
        result.reasons = reasons
        result.engine_stats = {
            "engine": "parallel",
            "workers": self._workers,
            "epochs": E,
            "epoch_size": self._epoch_size,
            "rounds": self.rounds,
            "epoch_runs": self.epoch_runs,
            "pass_throughs": self.pass_throughs,
        }
        if self._sample_every:
            if columnar:
                from .vectorized import reconstruct_timeline_columnar

                result.timeline = reconstruct_timeline_columnar(
                    store, flags, self._sample_every, self._main_tid
                )
            else:
                result.timeline = reconstruct_timeline(
                    records, flags, self._sample_every, self._main_tid
                )
        return result


def reconstruct_timeline(
    records: Sequence[TraceRecord],
    flags: bytearray,
    sample_every: int,
    main_tid: Optional[int],
) -> List[TimelineSample]:
    """Rebuild Figure-4 timeline samples from the final flags.

    The sequential engine counts a retroactively-flagged RET when its
    CALL is processed; this reconstruction counts every record when it
    is visited, so intermediate samples can differ by the number of
    not-yet-paired RETs.  The final sample is identical.  Shared by the
    parallel and incremental engines (row-store path).
    """
    samples: List[TimelineSample] = []
    processed = 0
    in_slice = 0
    processed_main = 0
    in_slice_main = 0
    for i in range(len(records) - 1, -1, -1):
        flag = flags[i]
        processed += 1
        in_slice += flag
        if records[i].tid == main_tid:
            processed_main += 1
            in_slice_main += flag
        if processed % sample_every == 0:
            samples.append(
                TimelineSample(processed, in_slice, processed_main, in_slice_main)
            )
    samples.append(
        TimelineSample(processed, in_slice, processed_main, in_slice_main)
    )
    return samples
