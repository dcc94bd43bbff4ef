"""High-level profiler facade.

``Profiler`` bundles the forward pass (dynamic CFGs, postdominators,
control-dependence index — computed once, reused across criteria, as the
paper notes) with backward slicing runs and the derived statistics.

Typical use::

    from repro.profiler import Profiler
    from repro.profiler.criteria import pixel_criteria

    prof = Profiler(trace_store)
    result = prof.slice(pixel_criteria(trace_store), sample_every=10_000)
    stats = prof.statistics(result)
    print(f"pixel slice: {stats.fraction:.0%} of {stats.total} instructions")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ..trace.store import TraceStore
from .categorize import CategoryDistribution, categorize_unnecessary
from .cdg import ControlDependenceIndex
from .cfg import build_cfgs
from .criteria import (
    SlicingCriteria,
    combined_criteria,
    criteria_from_name,
    pixel_criteria,
    syscall_criteria,
)
from .slicer import BackwardSlicer, SliceResult, SlicerOptions, DEFAULT_OPTIONS
from .stats import SliceStatistics, compute_statistics

if TYPE_CHECKING:
    from .incremental import SliceCheckpoint

#: The slicing-engine registry: every implementation ``Profiler.slice``
#: accepts.  CLIs and the service validate engine names against this one
#: tuple so a new engine lands everywhere at once.
ENGINES = ("sequential", "parallel", "vectorized", "incremental")


class Profiler:
    """Dynamic backward-slicing profiler over one instruction trace."""

    def __init__(
        self, store: TraceStore, cdi: Optional[ControlDependenceIndex] = None
    ) -> None:
        self._store = store
        #: the forward pass's output; pass one in to reuse a CDG built
        #: (or loaded) elsewhere for the same trace.
        self._cdi = cdi
        self._checkpoint: Optional["SliceCheckpoint"] = None

    def slice_checkpoint(self) -> "SliceCheckpoint":
        """The profiler-lifetime checkpoint the incremental engine extends.

        Shared across every ``engine="incremental"`` slice of this
        profiler, so a sweep of per-frame queries (``analyze_frames``,
        the ``frames`` harness target) pays for each seedless region's
        backward run once instead of once per frame.
        """
        if self._checkpoint is None:
            from .incremental import SliceCheckpoint

            self._checkpoint = SliceCheckpoint()
        return self._checkpoint

    @property
    def store(self) -> TraceStore:
        return self._store

    def control_dependence_index(self) -> ControlDependenceIndex:
        """Run (or reuse) the forward pass: CFGs + postdominators + CDG.

        Reads ``records()``, not ``forward()``: a columnar trace then
        rebuilds its records once, and the backward walk reuses them.
        """
        if self._cdi is None:
            self._cdi = ControlDependenceIndex(build_cfgs(self._store.records()))
        return self._cdi

    def slice(
        self,
        criteria: SlicingCriteria,
        sample_every: Optional[int] = None,
        main_tid: Optional[int] = None,
        options: SlicerOptions = DEFAULT_OPTIONS,
        engine: str = "sequential",
        workers: Optional[int] = None,
        epoch_size: Optional[int] = None,
        checkpoint: Optional["SliceCheckpoint"] = None,
    ) -> SliceResult:
        """Run the backward pass for ``criteria``.

        ``engine`` selects the implementation: ``"sequential"`` (default,
        single in-process pass), ``"parallel"`` (epoch-sharded fixpoint
        across ``workers`` processes; see ``docs/parallel-slicing.md``),
        ``"vectorized"`` (array-join closure over a columnar trace;
        converts row stores on entry), or ``"incremental"``
        (frame-region memoization against a checkpoint; see
        ``docs/incremental-slicing.md``).  All produce identical
        sliced-record sets.  ``workers`` defaults to
        ``REPRO_SLICER_WORKERS`` or the CPU allowance; ``epoch_size``
        overrides the automatic trace split (parallel engine only);
        ``checkpoint`` overrides the profiler-lifetime checkpoint
        (incremental engine only).
        """
        if engine == "sequential":
            slicer = BackwardSlicer(
                self._store,
                self.control_dependence_index(),
                criteria,
                sample_every=sample_every,
                main_tid=main_tid,
                options=options,
            )
            return slicer.run()
        if engine == "parallel":
            from .parallel import ParallelSlicer

            return ParallelSlicer(
                self._store,
                self.control_dependence_index(),
                criteria,
                workers=workers,
                epoch_size=epoch_size,
                sample_every=sample_every,
                main_tid=main_tid,
                options=options,
            ).run()
        if engine == "vectorized":
            from .vectorized import VectorizedSlicer

            # The CDI is passed lazily: a columnar trace carrying a stored
            # slice index never needs the forward CDG pass under default
            # options, which is most of the cold-slice win.
            return VectorizedSlicer(
                self._store,
                self._cdi,
                criteria,
                sample_every=sample_every,
                main_tid=main_tid,
                options=options,
                cdi_provider=self.control_dependence_index,
            ).run()
        if engine == "incremental":
            from .incremental import IncrementalSlicer

            return IncrementalSlicer(
                self._store,
                self.control_dependence_index(),
                criteria,
                checkpoint=(
                    checkpoint if checkpoint is not None else self.slice_checkpoint()
                ),
                sample_every=sample_every,
                main_tid=main_tid,
                options=options,
            ).run()
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )

    def pixel_slice(
        self, sample_every: Optional[int] = None, engine: str = "sequential", **kwargs
    ) -> SliceResult:
        """Slice on the pixels-buffer criteria (the paper's headline run)."""
        return self.slice(
            pixel_criteria(self._store),
            sample_every=sample_every,
            engine=engine,
            **kwargs,
        )

    def syscall_slice(
        self, sample_every: Optional[int] = None, engine: str = "sequential", **kwargs
    ) -> SliceResult:
        """Slice on the syscall criteria."""
        return self.slice(
            syscall_criteria(self._store),
            sample_every=sample_every,
            engine=engine,
            **kwargs,
        )

    def combined_slice(
        self, sample_every: Optional[int] = None, engine: str = "sequential", **kwargs
    ) -> SliceResult:
        """Slice on pixels + syscalls together."""
        return self.slice(
            combined_criteria(self._store),
            sample_every=sample_every,
            engine=engine,
            **kwargs,
        )

    def statistics(self, result: SliceResult) -> SliceStatistics:
        """Per-thread and overall statistics of a slice."""
        return compute_statistics(self._store, result)

    def categorize(self, result: SliceResult) -> CategoryDistribution:
        """Namespace categorization of the non-slice instructions."""
        return categorize_unnecessary(self._store, result)


# --------------------------------------------------------------------- #
# Pure job entry points (the profiling service's unit of work)          #
# --------------------------------------------------------------------- #


def job_criteria(
    store: TraceStore, criteria: str = "pixels", frame: Optional[int] = None
) -> SlicingCriteria:
    """Instantiate a named criteria family, optionally scoped to a frame.

    ``frame`` selects one complete frame epoch by position (0 = load
    frame): pixel points are restricted to tiles rastered inside the
    span and the criteria are windowed to the frame's last record, so
    the slice answers "what fed *this* frame's output".  Raises
    ``KeyError`` for an unknown family and ``ValueError`` for an
    out-of-range frame or a criteria family the trace cannot support.
    """
    if frame is None:
        return criteria_from_name(store, criteria)
    spans = store.frame_spans()
    if frame < 0 or frame >= len(spans):
        raise ValueError(
            f"frame {frame} out of range; trace has {len(spans)} complete frames"
        )
    span = spans[frame]
    from .redundancy import frame_pixel_criteria

    if criteria == "pixels":
        return frame_pixel_criteria(store, span)
    base = criteria_from_name(store, criteria)
    in_span = tuple(
        crit for crit in base.criteria if span.begin <= crit.index <= span.end
    )
    return SlicingCriteria(
        name=f"{criteria}:frame{span.frame_id}",
        criteria=in_span,
        include_syscalls=base.include_syscalls,
        window_end=span.end,
    )


def run_slice_job(
    store: TraceStore,
    criteria: str = "pixels",
    engine: str = "sequential",
    workers: Optional[int] = None,
    frame: Optional[int] = None,
    sample_every: Optional[int] = None,
    options: SlicerOptions = DEFAULT_OPTIONS,
    checkpoint: Optional["SliceCheckpoint"] = None,
) -> Tuple[SliceResult, SliceStatistics]:
    """Run one profiling job: slice ``store`` and compute its statistics.

    This is the pure, side-effect-free entry point the profiling service
    executes in its worker processes (and what ``python -m repro.trace
    slice`` drives): everything a job needs arrives as arguments, and the
    full outcome is in the return value, so the call is safe to retry,
    cache, or run in a throwaway process.  ``checkpoint`` carries
    incremental-engine state across jobs of the same trace (the service
    persists it next to its result cache, so successive frame submits of
    one trace digest pay only the per-frame delta).
    """
    profiler = Profiler(store)
    result = profiler.slice(
        job_criteria(store, criteria, frame),
        sample_every=sample_every,
        engine=engine,
        workers=workers,
        options=options,
        checkpoint=checkpoint,
    )
    return result, profiler.statistics(result)
