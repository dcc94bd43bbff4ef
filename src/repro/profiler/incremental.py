"""Incremental slice engine: checkpointed per-frame dataflow summaries.

The sequential backward pass re-walks the whole trace for every slicing
criteria, even though per-frame queries over a multi-frame trace repeat
almost all of that walk: PR 4's redundancy profiler shows steady-state
frames share 68-92% of their work with the load frame.  This engine
factors the backward pass along the frame-region tiling of
:mod:`repro.trace.stream` and memoizes each region's **transfer
function** in a :class:`SliceCheckpoint`, so slicing frame ``N+1`` from
frame ``N``'s checkpoint pays only for the new frame plus whatever older
regions the new dependence frontier actually disturbs.

Why memoization across *different* frames' slices is sound: a region
that contains no criteria seeds runs the backward pass as a pure
transfer function of its entry frontier — the run depends only on the
region's records and the control-dependence map, not on which frame is
being sliced.  Two reuse tiers apply, strongest first:

1. **exact** — the new entry frontier equals the memoized one: the
   recorded flags and exit frontier are reused verbatim, zero records
   touched;
2. **pass-through** — the new entry frontier is a superset whose
   additions provably cannot interact with the region (checked against
   its static write/branch footprint, exactly the
   :func:`~repro.profiler.parallel.try_pass_through` argument from the
   parallel engine): flags are reused and the additions are threaded
   through to the exit frontier.

Anything else re-runs the region (and refreshes the memo).  Regions
holding criteria seeds — for a frame-windowed pixel slice, just the
frame's own region — always run live.  The concatenation of region runs
with exactly-threaded frontiers *is* the sequential pass, so the engine
is byte-identical to :class:`~repro.profiler.slicer.BackwardSlicer`
(enforced by the fuzz differential suite).

For live streams, :class:`StreamingSliceSession` consumes
:class:`~repro.trace.stream.FrameEpoch` objects in arrival order,
maintains the control-dependence index incrementally
(:class:`IncrementalCDI`), invalidates memos whose functions' control
dependences changed, and emits each complete frame's pixel slice —
byte-identical to running the sequential engine over the stream prefix.
See ``docs/incremental-slicing.md``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..trace.checkpoint import (
    CHECKPOINT_SUFFIX,
    CheckpointImage,
    RegionFactsImage,
    RegionMemoImage,
)
from ..trace.records import InstrKind, TraceRecord
from ..trace.store import TraceStore
from ..trace.stream import EpochStream, FrameEpoch, Region, compute_regions, region_digest
from .cdg import control_dependences
from .cfg import DynamicCFGBuilder, FunctionCFG
from .criteria import Criterion, SlicingCriteria
from .parallel import (
    EpochResult,
    EpochSummary,
    SliceFrontier,
    _EpochView,
    reconstruct_timeline,
    run_epoch,
    summarize_epoch,
    try_pass_through,
)
from .slicer import DEFAULT_OPTIONS, SliceResult, SlicerOptions


def options_key(options: SlicerOptions) -> str:
    """Memo-compatibility fingerprint of the options that change flags."""
    return (
        f"cd={int(options.control_dependences)};"
        f"call={int(options.call_site_dependences)}"
    )


# --------------------------------------------------------------------- #
# Checkpoint (live form)                                                #
# --------------------------------------------------------------------- #


@dataclass
class RegionFacts:
    """Frontier-independent facts about one region (live form)."""

    n_records: int
    digest: str
    has_syscall: bool
    pcs: frozenset
    footprint: EpochSummary


@dataclass
class RegionMemo:
    """The latest memoized seedless run of one region."""

    entry: SliceFrontier
    exit: SliceFrontier
    flags: bytes
    extra: Tuple[Tuple[int, int], ...]
    min_depth: Dict[int, int]


@dataclass
class CheckpointCounters:
    """Cumulative reuse accounting across a checkpoint's lifetime."""

    exact_hits: int = 0
    pass_throughs: int = 0
    region_runs: int = 0
    seeded_runs: int = 0
    records_touched: int = 0
    invalidated: int = 0


class SliceCheckpoint:
    """Per-region dataflow summaries for one trace (one options family).

    The live object the incremental engine reads and extends.  Persists
    via :class:`~repro.trace.checkpoint.CheckpointImage` (``save`` /
    ``load``), which is also what the ``checkpoint-consistency`` lint
    check consumes.
    """

    def __init__(
        self, options_key: str = "", trace_digest: str = ""
    ) -> None:
        self.options_key = options_key
        self.trace_digest = trace_digest
        self.regions: List[Region] = []
        self.facts: Dict[int, RegionFacts] = {}
        self.memos: Dict[int, RegionMemo] = {}
        self.counters = CheckpointCounters()

    # -- layout reconciliation ----------------------------------------- #

    def ensure_layout(self, regions: Sequence[Region], key: str) -> None:
        """Adopt ``regions`` as the current tiling, keeping every memo
        whose region identity (position, extent, role) is unchanged.

        A growing stream only appends regions (and extends the trailing
        gap), so steady-state reconciliation drops at most the old
        trailing-gap memo.  An options-family change drops everything.
        """
        if key != self.options_key:
            self.facts.clear()
            self.memos.clear()
            self.options_key = key
        old = {region.index: region.key() for region in self.regions}
        for region in regions:
            if old.get(region.index) != region.key():
                if self.facts.pop(region.index, None) is not None:
                    self.counters.invalidated += 1
                self.memos.pop(region.index, None)
        for index in list(self.memos):
            if index >= len(regions):
                del self.memos[index]
                self.facts.pop(index, None)
        self.regions = list(regions)

    def invalidate_pcs(self, pcs: Set[int]) -> None:
        """Drop memos of regions that executed any pc in ``pcs`` (their
        cached runs consulted now-stale control dependences there).

        pc granularity matters: a live stream's provisional function
        exits move on every frame, perturbing a few pcs' dependences in
        the main loop — region memos not containing those pcs survive.
        """
        if not pcs:
            return
        for index in list(self.memos):
            facts = self.facts.get(index)
            if facts is not None and facts.pcs & pcs:
                del self.memos[index]
                self.counters.invalidated += 1

    def ensure_facts(
        self, region: Region, records: Sequence[TraceRecord]
    ) -> RegionFacts:
        """Compute (once) the static facts for a freshly-walked region."""
        facts = self.facts.get(region.index)
        if facts is not None:
            return facts
        facts = RegionFacts(
            n_records=len(records),
            digest=region_digest(records),
            has_syscall=any(r.kind == InstrKind.SYSCALL for r in records),
            pcs=frozenset(r.pc for r in records),
            footprint=summarize_epoch(records, 0, len(records)),
        )
        self.facts[region.index] = facts
        return facts

    # -- persistence ---------------------------------------------------- #

    def to_image(self) -> CheckpointImage:
        image = CheckpointImage(
            trace_digest=self.trace_digest, options_key=self.options_key
        )
        image.regions = [region.key() for region in self.regions]
        for index, facts in self.facts.items():
            fp = facts.footprint
            image.facts[index] = RegionFactsImage(
                n_records=facts.n_records,
                digest=facts.digest,
                has_syscall=facts.has_syscall,
                pcs=tuple(sorted(facts.pcs)),
                mem_written=tuple(sorted(fp.mem_written)),
                regs_written=tuple(
                    (tid, tuple(sorted(regs)))
                    for tid, regs in sorted(fp.regs_written.items())
                ),
                branch_pcs=tuple(
                    (tid, tuple(sorted(pcs)))
                    for tid, pcs in sorted(fp.branch_pcs.items())
                ),
                tids=tuple(sorted(fp.tids)),
            )
        for index, memo in self.memos.items():
            image.memos[index] = RegionMemoImage(
                entry=memo.entry.to_bytes(),
                exit=memo.exit.to_bytes(),
                flags=memo.flags,
                extra=memo.extra,
                min_depth=tuple(sorted(memo.min_depth.items())),
            )
        return image

    @staticmethod
    def from_image(image: CheckpointImage) -> "SliceCheckpoint":
        ckpt = SliceCheckpoint(
            options_key=image.options_key, trace_digest=image.trace_digest
        )
        ckpt.regions = [
            Region(index, lo, hi, kind, frame_id)
            for index, (lo, hi, frame_id, kind) in enumerate(image.regions)
        ]
        for index, facts in image.facts.items():
            ckpt.facts[index] = RegionFacts(
                n_records=facts.n_records,
                digest=facts.digest,
                has_syscall=facts.has_syscall,
                pcs=frozenset(facts.pcs),
                footprint=EpochSummary(
                    mem_written=set(facts.mem_written),
                    regs_written={
                        tid: set(regs) for tid, regs in facts.regs_written
                    },
                    branch_pcs={
                        tid: set(pcs) for tid, pcs in facts.branch_pcs
                    },
                    tids=set(facts.tids),
                ),
            )
        for index, memo in image.memos.items():
            ckpt.memos[index] = RegionMemo(
                entry=SliceFrontier.from_bytes(memo.entry),
                exit=SliceFrontier.from_bytes(memo.exit),
                flags=memo.flags,
                extra=memo.extra,
                min_depth=dict(memo.min_depth),
            )
        return ckpt

    def save(self, path: Union[str, Path]) -> None:
        self.to_image().save(path)

    @staticmethod
    def load(path: Union[str, Path]) -> "SliceCheckpoint":
        return SliceCheckpoint.from_image(CheckpointImage.load(path))


# --------------------------------------------------------------------- #
# The engine                                                            #
# --------------------------------------------------------------------- #


class IncrementalSlicer:
    """Backward slicer that runs region-by-region against a checkpoint.

    Drop-in engine for any criteria over any trace source exposing
    ``__len__`` and ``span(lo, hi)``; byte-identical to
    :class:`~repro.profiler.slicer.BackwardSlicer`.  When ``checkpoint``
    is shared across calls (the :class:`~repro.profiler.api.Profiler`
    does this automatically), successive frame-windowed slices of the
    same trace reuse each other's seedless region runs.
    """

    def __init__(
        self,
        store,
        cdi,
        criteria: SlicingCriteria,
        checkpoint: Optional[SliceCheckpoint] = None,
        regions: Optional[Sequence[Region]] = None,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
    ) -> None:
        self._store = store
        self._cdi = cdi
        self._criteria = criteria
        self._options = options
        self._sample_every = sample_every
        self._main_tid = main_tid
        self._n = len(store)
        if regions is None:
            regions = compute_regions(
                store.metadata.complete_frames(), self._n
            )
        self._regions = list(regions)
        self._checkpoint = (
            checkpoint
            if checkpoint is not None
            else SliceCheckpoint(options_key(options))
        )
        self._checkpoint.ensure_layout(self._regions, options_key(options))
        # per-run counters (cumulative twins live on the checkpoint)
        self.exact_hits = 0
        self.pass_throughs = 0
        self.region_runs = 0
        self.seeded_runs = 0
        self.records_touched = 0

    @property
    def checkpoint(self) -> SliceCheckpoint:
        return self._checkpoint

    # -- helpers -------------------------------------------------------- #

    def _fetch(self, region: Region) -> Sequence[TraceRecord]:
        """Absolute-indexed view over one region's records."""
        return _EpochView(
            region.lo, self._store.span(region.lo, region.hi)
        )

    def _is_seeded(self, region: Region, crit_indices: List[int]) -> bool:
        """Does the region contain any criteria seed?

        ``include_syscalls`` seeds every in-window SYSCALL, so any region
        overlapping the window is conservatively treated as seeded (a
        syscall-free one merely forgoes memoization — still correct).
        """
        i = bisect.bisect_left(crit_indices, region.lo)
        if i < len(crit_indices) and crit_indices[i] < region.hi:
            return True
        if self._criteria.include_syscalls:
            window_end = self._criteria.window_end
            if window_end is None or region.lo <= window_end:
                return True
        return False

    # -- the walk ------------------------------------------------------- #

    def run(self) -> SliceResult:
        criteria = self._criteria
        options = self._options
        ckpt = self._checkpoint
        n = self._n
        crit_by_index = criteria.by_index()
        crit_indices = sorted(crit_by_index)
        cd_map: Dict[int, Tuple[int, ...]] = (
            self._cdi._cd if options.control_dependences else {}
        )
        deps_get = cd_map.get
        deps_of = lambda pc: deps_get(pc, ())  # noqa: E731
        # Reasons replay needs every region live (a memoized run records
        # flags but not per-record reasons), so memoization is bypassed.
        memoize = not options.track_reasons

        flags = bytearray(n)
        reasons: Optional[Dict[int, Tuple[str, int]]] = (
            {} if options.track_reasons else None
        )
        extras: List[Tuple[int, int]] = []
        frontier = SliceFrontier.empty()

        for region in reversed(self._regions):
            seeded = self._is_seeded(region, crit_indices)
            if not seeded and memoize:
                memo = ckpt.memos.get(region.index)
                if memo is not None:
                    if memo.entry == frontier:
                        self.exact_hits += 1
                        ckpt.counters.exact_hits += 1
                        flags[region.lo : region.hi] = memo.flags
                        extras.extend(memo.extra)
                        frontier = memo.exit
                        continue
                    facts = ckpt.facts[region.index]
                    aug = try_pass_through(
                        memo.entry,
                        frontier,
                        EpochResult(
                            flags=memo.flags,
                            extra=memo.extra,
                            frontier=memo.exit,
                            min_depth=memo.min_depth,
                        ),
                        facts.footprint,
                    )
                    if aug is not None:
                        self.pass_throughs += 1
                        ckpt.counters.pass_throughs += 1
                        flags[region.lo : region.hi] = memo.flags
                        extras.extend(memo.extra)
                        # Refresh the memo onto the new frontier pair so
                        # the next identical query hits exactly.
                        ckpt.memos[region.index] = RegionMemo(
                            entry=frontier,
                            exit=aug,
                            flags=memo.flags,
                            extra=memo.extra,
                            min_depth=memo.min_depth,
                        )
                        frontier = aug
                        continue

            records = self._fetch(region)
            self.records_touched += region.n_records()
            ckpt.counters.records_touched += region.n_records()
            if memoize:
                ckpt.ensure_facts(region, records.recs)
            entry = frontier
            result = run_epoch(
                records,
                region.lo,
                region.hi,
                entry,
                crit_by_index if seeded else {},
                criteria.include_syscalls if seeded else False,
                criteria.window_end if seeded else None,
                deps_of,
                options,
            )
            flags[region.lo : region.hi] = result.flags
            extras.extend(result.extra)
            if reasons is not None and result.reasons:
                reasons.update(result.reasons)
            if seeded:
                self.seeded_runs += 1
                ckpt.counters.seeded_runs += 1
            else:
                self.region_runs += 1
                ckpt.counters.region_runs += 1
                if memoize:
                    ckpt.memos[region.index] = RegionMemo(
                        entry=entry,
                        exit=result.frontier,
                        flags=result.flags,
                        extra=result.extra,
                        min_depth=dict(result.min_depth),
                    )
            frontier = result.frontier

        for ret_index, callee_fn in extras:
            if not flags[ret_index]:
                flags[ret_index] = 1
                if reasons is not None:
                    reasons[ret_index] = ("call", callee_fn)

        result_out = SliceResult(criteria_name=criteria.name, flags=flags)
        result_out.visited = self.records_touched
        result_out.reasons = reasons
        result_out.engine_stats = {
            "engine": "incremental",
            "regions": len(self._regions),
            "seeded_runs": self.seeded_runs,
            "region_runs": self.region_runs,
            "memo_exact": self.exact_hits,
            "memo_pass_through": self.pass_throughs,
            "records_touched": self.records_touched,
            "records_total": n,
        }
        if self._sample_every:
            result_out.timeline = self._timeline(flags)
        return result_out

    def _timeline(self, flags: bytearray):
        store = self._store
        main_tid = self._main_tid
        if main_tid is None and hasattr(store, "metadata"):
            main_tid = store.metadata.main_thread_id()
        if isinstance(store, TraceStore):
            return reconstruct_timeline(
                store.records(), flags, self._sample_every, main_tid
            )
        from .vectorized import reconstruct_timeline_columnar

        return reconstruct_timeline_columnar(
            store, flags, self._sample_every, main_tid
        )


# --------------------------------------------------------------------- #
# Incremental control-dependence index                                  #
# --------------------------------------------------------------------- #


class IncrementalCDI:
    """Control-dependence index maintained over a growing record stream.

    Matches :class:`~repro.profiler.cdg.ControlDependenceIndex` built
    over the same prefix exactly: :meth:`snapshot` re-seals *copies* of
    the dirty functions' CFGs (adding the provisional exits
    ``DynamicCFGBuilder.finish`` would add for still-live frames) without
    mutating the builder, so feeding can continue afterwards.  A function
    is dirty iff one of its records arrived since the last snapshot —
    which covers every way its CFG or provisional exits can change.

    ``snapshot`` returns the set of pcs whose dependence tuple actually
    changed; the caller uses it to invalidate checkpoint memos
    (:meth:`SliceCheckpoint.invalidate_pcs`).
    """

    def __init__(self) -> None:
        self._builder = DynamicCFGBuilder()
        self._dirty: Set[int] = set()
        self._per_fn: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        self._cd: Dict[int, Tuple[int, ...]] = {}

    def feed(self, records: Sequence[TraceRecord]) -> None:
        self._builder.feed_many(records)
        self._dirty.update(map(attrgetter("fn"), records))

    def _sealed_copy(self, fn: int) -> FunctionCFG:
        cfg = self._builder._cfgs[fn]
        copy = FunctionCFG(fn)
        copy.succs = cfg.succs  # shared: seal() only writes ``exits``
        copy.preds = cfg.preds
        copy.entries = cfg.entries
        copy.branch_pcs = cfg.branch_pcs
        copy.exits = set(cfg.exits)
        for stack in self._builder._stacks.values():
            for frame in stack:
                if frame.fn == fn and frame.last_pc is not None:
                    copy.exits.add(frame.last_pc)
        copy.seal()
        return copy

    def snapshot(self) -> Set[int]:
        """Refresh dirty functions; return the pcs whose deps changed."""
        changed: Set[int] = set()
        for fn in self._dirty:
            if fn not in self._builder._cfgs:
                continue
            cd = control_dependences(self._sealed_copy(fn))
            old = self._per_fn.get(fn, {})
            if cd == old:
                continue
            for pc in old.keys() | cd.keys():
                if old.get(pc, ()) != cd.get(pc, ()):
                    changed.add(pc)
            for pc in old:
                self._cd.pop(pc, None)
            self._cd.update(cd)
            self._per_fn[fn] = cd
        self._dirty.clear()
        return changed

    def deps_of(self, pc: int) -> Tuple[int, ...]:
        return self._cd.get(pc, ())


# --------------------------------------------------------------------- #
# Streaming session                                                     #
# --------------------------------------------------------------------- #


@dataclass
class IncrementalFrameResult:
    """One frame's pixel slice, produced as its epoch arrived."""

    frame_id: int
    kind: str
    lo: int
    hi: int
    criteria_name: str
    #: slice flags over the whole stream prefix ``[0, hi)``
    flags: bytearray
    #: flagged records inside the frame's own span
    in_slice: int
    engine_stats: Dict[str, object] = field(default_factory=dict)

    def n_records(self) -> int:
        return self.hi - self.lo


class _SessionSource:
    """Trace-source facade over a streaming session's received epochs.

    ``span`` serves region-aligned requests from the resident window
    first and falls back to the stream's re-reader for evicted regions,
    so session memory stays bounded by ``keep_resident`` regions.
    """

    def __init__(self, session: "StreamingSliceSession") -> None:
        self._session = session

    def __len__(self) -> int:
        return self._session.n_seen

    def span(self, lo: int, hi: int) -> List[TraceRecord]:
        session = self._session
        for region in session.regions:
            if region.lo == lo and region.hi == hi:
                resident = session.resident.get(region.index)
                if resident is not None:
                    return resident
                break
        return session.stream.span(lo, hi)


class StreamingSliceSession:
    """Consume frame epochs in arrival order; slice each frame on arrival.

    For every complete frame epoch the session produces that frame's
    pixel slice over the stream prefix, computed from the previous
    frame's checkpoint — the answer is byte-identical to running the
    sequential engine over the prefix, but steady-state frames touch
    only the delta.  Memory stays bounded: at most ``keep_resident``
    regions' records are held (older regions re-materialize through the
    stream on a memo miss), and the checkpoint holds only frontiers,
    flags, and footprints.
    """

    def __init__(
        self,
        stream: EpochStream,
        options: SlicerOptions = DEFAULT_OPTIONS,
        checkpoint: Optional[SliceCheckpoint] = None,
        keep_resident: int = 8,
    ) -> None:
        self.stream = stream
        self._options = options
        self.checkpoint = (
            checkpoint
            if checkpoint is not None
            else SliceCheckpoint(options_key(options))
        )
        self._keep_resident = max(1, keep_resident)
        self._cdi = IncrementalCDI()
        self.regions: List[Region] = []
        self.resident: Dict[int, List[TraceRecord]] = {}
        self.n_seen = 0

    def feed(self, epoch: FrameEpoch) -> Optional[IncrementalFrameResult]:
        """Ingest one epoch; return a slice result for frame regions."""
        region = epoch.region
        if region.lo != self.n_seen:
            raise ValueError(
                f"epoch [{region.lo}, {region.hi}) does not continue the "
                f"stream at {self.n_seen}"
            )
        region = Region(
            len(self.regions), region.lo, region.hi, region.kind,
            region.frame_id,
        )
        self.regions.append(region)
        self.resident[region.index] = epoch.records
        while len(self.resident) > self._keep_resident:
            self.resident.pop(next(iter(self.resident)))
        self._cdi.feed(epoch.records)
        self.n_seen = region.hi
        if not region.is_frame:
            return None

        self.checkpoint.invalidate_pcs(self._cdi.snapshot())
        criteria = SlicingCriteria(
            name=f"pixels:frame{region.frame_id}",
            criteria=tuple(
                Criterion(index=index, cells=cells)
                for index, cells in epoch.tiles
            ),
            window_end=region.hi - 1,
        )
        slicer = IncrementalSlicer(
            _SessionSource(self),
            self._cdi,
            criteria,
            checkpoint=self.checkpoint,
            regions=self.regions,
            options=self._options,
        )
        result = slicer.run()
        in_slice = sum(result.flags[region.lo : region.hi])
        return IncrementalFrameResult(
            frame_id=region.frame_id,
            kind=region.kind,
            lo=region.lo,
            hi=region.hi,
            criteria_name=criteria.name,
            flags=bytearray(result.flags),
            in_slice=in_slice,
            engine_stats=dict(result.engine_stats),
        )

    def results(self) -> Iterator[IncrementalFrameResult]:
        """Drive the whole stream, yielding one result per frame."""
        for epoch in self.stream.epochs():
            result = self.feed(epoch)
            if result is not None:
                yield result


def checkpoint_path_for(digest: str, directory: Union[str, Path]) -> Path:
    """Canonical on-disk checkpoint path for a trace digest.

    One naming rule shared by every checkpoint persister (service jobs,
    fleet streaming uploads, warm-replica handoff), so a checkpoint
    written by one path warms all the others.
    """
    return Path(directory) / f"{digest[:32]}{CHECKPOINT_SUFFIX}"


def stream_slice(
    source: Union[str, Path, TraceStore, object],
    checkpoint: Optional[SliceCheckpoint] = None,
    options: SlicerOptions = DEFAULT_OPTIONS,
    keep_resident: int = 8,
) -> Iterator[IncrementalFrameResult]:
    """Slice every frame of a UCWA source as its epoch arrives.

    Convenience wiring of :func:`~repro.trace.stream.open_epoch_stream`
    into a :class:`StreamingSliceSession`: one bounded-memory pass over
    the source, yielding each complete frame's pixel slice in arrival
    order.  This is the path the fleet's streaming trace upload drives —
    frames slice as the spooled prefix grows, and the (optionally
    persisted) ``checkpoint`` leaves later per-frame submits warm.
    """
    from ..trace.stream import open_epoch_stream

    session = StreamingSliceSession(
        open_epoch_stream(source),
        options=options,
        checkpoint=checkpoint,
        keep_resident=keep_resident,
    )
    return session.results()
