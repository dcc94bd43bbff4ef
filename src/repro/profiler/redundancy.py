"""Cross-frame redundancy profiling.

The paper's slicing criterion asks "which instructions influenced the
pixels?" for a single page load.  With the incremental frame pipeline a
trace holds many frame epochs (``FrameSpan``), and the interesting
question becomes comparative: of the work a steady-state frame performs,
how much merely reproduces values the previous frame already computed?

For every complete frame this module

1. slices on *that frame's* pixel criterion alone — the tile buffers
   written between its ``frame:begin``/``frame:end`` markers, windowed to
   the frame's last record — and
2. classifies the frame's non-slice instructions as either

   * **redundant** — the same static instruction executed in an earlier
     frame and none of its inputs were written since, so it necessarily
     recomputed an identical value; or
   * **fresh-unnecessary** — new or input-changed work that still never
     reached this frame's pixels (the paper's classic unnecessary
     computation, now measured per frame).

A well-behaved incremental pipeline drives the redundant count toward
zero: work whose inputs did not change should be skipped by dirty
tracking, not re-executed.  The per-frame totals also quantify the
pipeline's savings directly (steady-state frames vs. the load frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from ..trace.records import FrameSpan, InstrKind
from ..trace.store import TraceStore
from .api import Profiler
from .criteria import Criterion, SlicingCriteria
from .slicer import BackwardSlicer, SliceResult, Stacks, copy_stacks


@dataclass(frozen=True)
class FrameRedundancy:
    """Redundancy breakdown of one frame epoch."""

    frame_id: int
    kind: str
    begin: int
    end: int
    total: int
    in_slice: int
    redundant: int
    fresh_unnecessary: int

    @property
    def unnecessary(self) -> int:
        return self.total - self.in_slice

    @property
    def slice_fraction(self) -> float:
        return self.in_slice / self.total if self.total else 0.0

    @property
    def redundant_fraction(self) -> float:
        """Share of the frame's instructions that recomputed old values."""
        return self.redundant / self.total if self.total else 0.0


@dataclass
class RedundancyReport:
    """Per-frame redundancy results for one multi-frame trace."""

    frames: List[FrameRedundancy] = field(default_factory=list)
    #: records the backward walks visited (per-frame slices plus, for the
    #: sequential engine, the stack-only pass)
    visited: int = 0

    def first(self) -> Optional[FrameRedundancy]:
        return self.frames[0] if self.frames else None

    def updates(self) -> List[FrameRedundancy]:
        """Every frame after the initial load frame."""
        return self.frames[1:]

    def steady_state_ratio(self) -> Optional[float]:
        """Mean update-frame size relative to the load frame.

        The headline number for the incremental pipeline: a ratio of 0.1
        means steady-state frames execute 10% of the load frame's
        instructions.  ``None`` when the trace has fewer than two frames.
        """
        updates = self.updates()
        if not updates or not self.frames[0].total:
            return None
        mean = sum(f.total for f in updates) / len(updates)
        return mean / self.frames[0].total


def frame_pixel_criteria(store: TraceStore, span: FrameSpan) -> SlicingCriteria:
    """Pixel criteria restricted to tiles rastered within ``span``.

    Returns an empty criteria set (no points) when the frame rastered
    nothing — e.g. a scroll frame fully served from cached tiles.
    """
    if span.end is None:
        raise ValueError(f"frame {span.frame_id} is incomplete (no frame:end)")
    crits = tuple(
        Criterion(index=index, cells=cells)
        for index, cells in store.metadata.tile_buffers
        if span.begin <= index <= span.end
    )
    return SlicingCriteria(
        name=f"pixels:frame{span.frame_id}",
        criteria=crits,
        window_end=span.end,
    )


def _stability_pass(store: TraceStore) -> Tuple[List[int], bytearray]:
    """One forward pass computing, per record, its previous execution.

    Returns ``(prev_exec, stable)`` where ``prev_exec[i]`` is the record
    index of the previous dynamic execution of the same static instruction
    (same pc reading/writing the same cells) or ``-1``, and ``stable[i]``
    is 1 iff record ``i`` necessarily recomputed the value its previous
    execution produced.

    Stability propagates through *silent writes*: a cell overwritten only
    by stable re-executions still holds its old value, so readers of that
    cell stay stable too.  (A legacy full-relayout pass rewrites every
    geometry cell each frame with unchanged values; without propagation
    the rewrite would mask the redundancy it embodies.)  Concretely, each
    cell tracks its last *changing* write — the last write by a record
    that was not itself stable — and record ``i`` is stable iff a previous
    execution exists and every input cell's last changing write happened
    at or before it.
    """
    last_changing_write: Dict[int, int] = {}
    changed_at = last_changing_write.get
    seen: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int] = {}
    seen_get = seen.get
    prev_exec: List[int] = []
    stable = bytearray()
    for i, rec in enumerate(store.records()):
        reads = rec.mem_read
        written = rec.mem_written
        key = (rec.pc, reads, written)
        prev = seen_get(key, -1)
        seen[key] = i
        prev_exec.append(prev)
        if prev >= 0 and (
            not reads or max(map(changed_at, reads, repeat(-1, len(reads)))) <= prev
        ):
            stable.append(1)
        else:
            stable.append(0)
            for cell in written:
                last_changing_write[cell] = i
    return prev_exec, stable


def _stack_starts(
    slicer: BackwardSlicer, n: int, ends: List[int]
) -> Tuple[Dict[int, Stacks], int]:
    """Per-thread invocation stacks just above each of ``ends`` (ascending).

    One stack-only backward pass (the walk with no criteria), chained over
    the gaps between the ends, copies every stack at each end.  Returns
    the copies by end and the number of records walked.
    """
    stacks: Stacks = {}
    starts: Dict[int, Stacks] = {}
    visited = 0
    hi = n - 1
    for end in reversed(ends):
        visited += slicer.run(lo=end + 1, hi=hi, stacks=stacks).visited
        starts[end] = copy_stacks(stacks)
        hi = end
    return starts, visited


def analyze_frames(
    store: TraceStore, engine: str = "sequential"
) -> RedundancyReport:
    """Per-frame pixel slices plus redundant/fresh classification.

    The sequential engine walks each frame's window only: one stack-only
    backward pass copies every thread's invocation stack at each
    ``frame:end``, and the frame's slice walks from its end down to its
    begin from that copy, going below ``begin`` only while an invocation
    whose RET lies inside the frame is still open (its CALL can still
    flag the RET).  Nothing above the frame's end can join its slice, so
    the frame's flags equal a full-trace slice's.  Other engines run one
    full slice per frame; ``engine="incremental"`` turns those into one
    streaming pass: every per-frame query extends the profiler's shared
    checkpoint, so each seedless region's backward run is paid once and
    later frames reuse it.  The split is engine-invariant.

    Raises ``ValueError`` when the trace records no complete frame epochs
    (i.e. it predates the incremental pipeline's frame markers).
    """
    spans = [span for span in store.frame_spans() if span.complete]
    if not spans:
        raise ValueError(
            "trace has no complete frame epochs; re-collect it with the "
            "frame-aware engine"
        )
    profiler = Profiler(store)
    records = store.records()
    n = len(records)
    prev_exec, stable = _stability_pass(store)
    # Per record: the previous execution of a stable OP, else n (never
    # before a frame's begin), so a frame's redundant count is one
    # C-level count over its unsliced records.
    OP = InstrKind.OP
    redundant_since = [
        prev if is_stable and kind == OP else n
        for prev, is_stable, kind in zip(prev_exec, stable, map(attrgetter("kind"), records))
    ]
    report = RedundancyReport()
    if engine == "sequential":
        cdi = profiler.control_dependence_index()
        starts, report.visited = _stack_starts(
            BackwardSlicer(store, cdi, SlicingCriteria("stacks")),
            n,
            [span.end for span in spans],
        )
    for span in spans:
        begin, end = span.begin, span.end
        assert end is not None
        criteria = frame_pixel_criteria(store, span)
        if not criteria.criteria:
            result = SliceResult(criteria.name, bytearray(n))
        elif engine == "sequential":
            result = BackwardSlicer(store, cdi, criteria).run(
                lo=begin, hi=end, stacks=starts[end], close_calls=True
            )
        else:
            result = profiler.slice(criteria, engine=engine)
        report.visited += result.visited
        window = result.flags[begin : end + 1]
        total = span.n_records()
        in_slice = window.count(1)
        redundant = sum(map(
            begin.__gt__,
            compress(redundant_since[begin : end + 1], window.translate(_INVERT)),
        ))
        report.frames.append(
            FrameRedundancy(
                frame_id=span.frame_id,
                kind=span.kind,
                begin=begin,
                end=end,
                total=total,
                in_slice=in_slice,
                redundant=redundant,
                fresh_unnecessary=total - in_slice - redundant,
            )
        )
    return report


#: Swaps slice flags 0 and 1: the selectors of a frame's unsliced records.
_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")
