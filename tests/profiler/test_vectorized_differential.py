"""Differential testing: vectorized-v3 ≡ sequential-v2 ≡ parallel-v3.

Extends the engine trio of ``test_differential.py`` with the columnar
pipeline: the same randomized traces are sliced by

* the streaming sequential pass over the **row store** (UCWA2 reference
  semantics),
* the vectorized array-join closure over the **columnar trace** with its
  precomputed slice index (``profiler/vectorized.py``),
* the epoch-sharded parallel fixpoint fed **columnar epoch views**
  (``profiler/parallel.py`` over ``ColumnarTrace.span``),

and must produce identical sliced-record sets, identical join reasons
(``track_reasons``), and identical unnecessary-computation category
distributions.  The vectorized engine shares no traversal code with the
sequential pass — its closure is batch searchsorted joins over def/use
arrays — so a bug would have to be reimplemented independently in both
formulations to slip through.  On mismatch the failing seed is in the
assertion message; ``random_trace(seed)`` reproduces the trace exactly.
"""

from __future__ import annotations

import os

import pytest

np = pytest.importorskip("numpy")

from repro.profiler import Profiler, cdg
from repro.profiler.categorize import categorize_unnecessary
from repro.profiler.cdg import build_index
from repro.profiler.criteria import (
    combined_criteria,
    pixel_criteria,
    syscall_criteria,
)
from repro.profiler.parallel import ParallelSlicer
from repro.profiler.slicer import BackwardSlicer, SlicerOptions, slice_trace
from repro.profiler.vectorized import VectorizedSlicer, attach_index
from repro.trace.columnar import ColumnarTrace
from repro.trace.lint import lint_or_raise
from repro.workloads.fuzz import random_trace

# 60 seeds x up to 3 criteria = up to 180 randomized differential runs.
SEEDS = range(60)

#: worker count used for the in-test parallel runs; CI overrides this to
#: exercise both the inline path (1) and real process pools (4).
WORKERS = int(os.environ.get("REPRO_SLICER_WORKERS", "1"))

#: every sliced record carries a join reason in these runs, so reason
#: maps are compared for full equality (kind and detail).
REASONS = SlicerOptions(track_reasons=True)


def _criteria_variants(store):
    variants = [syscall_criteria(store)]
    if store.metadata.tile_buffers:
        variants.append(pixel_criteria(store))
        variants.append(combined_criteria(store))
    return variants


def _diff_indices(a, b, limit=10):
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y][:limit]


def _assert_equivalent(store, seed, *, workers=WORKERS, epoch_size=None,
                       options=REASONS):
    # Sanitize first: a malformed trace would make any slicer agreement
    # (or disagreement) meaningless.
    lint_or_raise(store, epoch_size=epoch_size or 4096)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    cdi = build_index(store.forward())
    for criteria in _criteria_variants(store):
        label = f"seed={seed} criteria={criteria.name}"
        seq = BackwardSlicer(store, cdi, criteria, options=options).run()
        vec = VectorizedSlicer(cols, cdi, criteria, options=options).run()
        par = ParallelSlicer(
            cols, cdi, criteria, workers=workers, epoch_size=epoch_size,
            options=options,
        ).run()
        assert bytes(vec.flags) == bytes(seq.flags), (
            f"vectorized != sequential for {label}; "
            f"first diffs at {_diff_indices(seq.flags, vec.flags)}"
        )
        assert bytes(par.flags) == bytes(seq.flags), (
            f"parallel-columnar != sequential for {label}; "
            f"first diffs at {_diff_indices(seq.flags, par.flags)}"
        )
        if options.track_reasons:
            assert vec.reasons == seq.reasons, (
                f"vectorized reasons != sequential for {label}"
            )
        seq_cat = categorize_unnecessary(store, seq)
        vec_cat = categorize_unnecessary(cols, vec)
        assert (vec_cat.counts, vec_cat.uncategorized) == (
            seq_cat.counts, seq_cat.uncategorized,
        ), f"category distributions differ for {label}"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_traces_vectorized_agrees(seed):
    store = random_trace(seed, target_records=1_500 + 100 * (seed % 7))
    # Small epochs force many frontier hand-offs in the parallel runs.
    _assert_equivalent(store, seed, epoch_size=128 + 13 * (seed % 5))


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_random_traces_with_process_pool(seed):
    """A few seeds through real worker processes over columnar views."""
    store = random_trace(seed + 2000, target_records=4_000)
    _assert_equivalent(store, seed + 2000, workers=4, epoch_size=512)


@pytest.mark.parametrize(
    "options",
    (
        SlicerOptions(control_dependences=False, track_reasons=True),
        SlicerOptions(call_site_dependences=False, track_reasons=True),
        SlicerOptions(
            control_dependences=False,
            call_site_dependences=False,
            track_reasons=True,
        ),
    ),
    ids=("no-control", "no-callsite", "data-only"),
)
@pytest.mark.parametrize("seed", (4, 17, 33))
def test_ablation_options_agree(seed, options):
    """The ablation switches reroute the vectorized engine off the stored
    edge list onto freshly built joins; results must not change."""
    store = random_trace(seed, target_records=2_000)
    _assert_equivalent(store, seed, epoch_size=256, options=options)


@pytest.mark.parametrize("seed", (6, 28))
def test_windowed_criteria_agree(seed):
    """Frame-windowed criteria (window_end) through both engines."""
    store = random_trace(seed, target_records=2_500)
    lint_or_raise(store)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    cdi = build_index(store.forward())
    base = syscall_criteria(store)
    windowed = base.windowed(len(store) // 2)
    seq = BackwardSlicer(store, cdi, windowed, options=REASONS).run()
    vec = VectorizedSlicer(cols, cdi, windowed, options=REASONS).run()
    assert bytes(vec.flags) == bytes(seq.flags), f"seed={seed}"
    assert vec.reasons == seq.reasons


def test_engine_switch_on_profiler_api():
    store = random_trace(123)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    seq = Profiler(store).pixel_slice()
    vec = Profiler(cols).pixel_slice(engine="vectorized")
    assert bytes(vec.flags) == bytes(seq.flags)
    assert vec.engine_stats["engine"] == "vectorized"
    assert vec.engine_stats["stored_index"] is True
    assert vec.engine_stats["edges"] > 0
    with pytest.raises(ValueError):
        Profiler(cols).pixel_slice(engine="turbo")


def test_slice_trace_runs_no_forward_pass_on_an_indexed_trace(monkeypatch):
    """``slice_trace`` goes through ``Profiler.slice``, whose vectorized
    path asks for the CDG only when the trace carries no slice index."""
    store = random_trace(124)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    seq = slice_trace(store, pixel_criteria(store))

    def no_forward_pass(self, cfgs):
        raise AssertionError("the forward pass ran")

    monkeypatch.setattr(cdg.ControlDependenceIndex, "__init__", no_forward_pass)
    vec = slice_trace(cols, pixel_criteria(cols), engine="vectorized")
    assert bytes(vec.flags) == bytes(seq.flags)
    assert vec.engine_stats["stored_index"] is True


def test_vectorized_accepts_row_store():
    """A plain TraceStore converts on entry; results are unchanged."""
    store = random_trace(31, target_records=2_000)
    cdi = build_index(store.forward())
    crit = syscall_criteria(store)
    seq = BackwardSlicer(store, cdi, crit).run()
    vec = VectorizedSlicer(store, cdi, crit).run()
    assert bytes(vec.flags) == bytes(seq.flags)
    assert vec.engine_stats["stored_index"] is False


def test_timeline_matches_parallel_reconstruction():
    """The vectorized timeline uses the same flags-reconstruction as the
    parallel engine: identical samples, and the final sample (the one the
    figures consume) equals the sequential count."""
    store = random_trace(42, target_records=3_000)
    cols = ColumnarTrace.from_store(store)
    attach_index(cols)
    cdi = build_index(store.forward())
    crit = pixel_criteria(store)
    seq = BackwardSlicer(store, cdi, crit, sample_every=500).run()
    vec = VectorizedSlicer(cols, cdi, crit, sample_every=500).run()
    par = ParallelSlicer(store, cdi, crit, workers=1, sample_every=500).run()
    assert vec.timeline == par.timeline
    assert vec.timeline[-1] == seq.timeline[-1]


def test_criteria_required():
    store = random_trace(1)
    cols = ColumnarTrace.from_store(store)
    with pytest.raises(ValueError):
        VectorizedSlicer(cols, None, None)
